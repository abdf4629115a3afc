"""Finite group actions on finite spaces.

The group is given by generating permutations of the point set; every
element must act as an order automorphism (continuity of the action).
Equivariant homotopy is modelled as fence-connectedness through
equivariant maps, with whole-orbit mutations as the elementary moves.
"""

from __future__ import annotations

from .poset import (
    FenceCertificate,
    SizeCapExceeded,
    SpaceMap,
    bits,
    fence_search,
    validate_space,
)

GROUP_CAP = 48  # elements of a group


class NotAnAutomorphism(ValueError):
    def __init__(self, perm, x, y):
        self.perm = perm
        self.witness = (x, y)
        super().__init__(
            f"group element is not an order automorphism: {x} <= {y} "
            "is not preserved"
        )


class GroupAction:
    """A finite group acting on a finite space by order automorphisms.

    ``elements`` is the full element table, each a tuple sending point
    index i to its image; elements[0] is the identity.
    """

    __slots__ = ("space", "generators", "elements", "_orbits", "_subgroups",
                 "_caches")

    def __init__(self, space, generators):
        self.space = space
        n = len(space)
        gens = [tuple(g) for g in generators]
        for g in gens:
            if sorted(g) != list(range(n)):
                raise ValueError("generator is not a permutation of the points")
            for i in range(n):
                for j in range(n):
                    if space.leq(i, j) and not space.leq(g[i], g[j]):
                        raise NotAnAutomorphism(
                            g, space.points[i], space.points[j]
                        )
        ident = tuple(range(n))
        elements = {ident}
        frontier = [ident]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = tuple(g[v] for v in cur)
                if nxt not in elements:
                    if len(elements) >= GROUP_CAP:
                        raise SizeCapExceeded(
                            f"GroupAction: the group has more elements than "
                            f"lscat.action.GROUP_CAP = {GROUP_CAP}"
                        )
                    elements.add(nxt)
                    frontier.append(nxt)
        self.generators = tuple(gens)
        self.elements = tuple(sorted(elements))
        self._orbits = None
        self._subgroups = None
        self._caches = {}

    @classmethod
    def trivial(cls, space):
        return cls(space, [])

    @classmethod
    def from_label_maps(cls, space, label_maps):
        gens = []
        for mp in label_maps:
            gens.append(tuple(space.index[mp[p]] for p in space.points))
        return cls(space, gens)

    def is_trivial(self):
        return len(self.elements) == 1

    def __len__(self):
        return len(self.elements)

    # -- orbits ----------------------------------------------------------

    def orbit_mask(self, i):
        out = 0
        for g in self.elements:
            out |= 1 << g[i]
        return out

    def orbits(self):
        """Orbits as a partition of point indices, each sorted."""
        if self._orbits is None:
            seen = 0
            out = []
            for i in range(len(self.space)):
                if seen >> i & 1:
                    continue
                mask = self.orbit_mask(i)
                seen |= mask
                out.append(tuple(bits(mask)))
            self._orbits = tuple(out)
        return self._orbits

    def orbit_of(self, i):
        for orb in self.orbits():
            if i in orb:
                return orb
        raise AssertionError

    def saturate(self, A):
        """GA: the union of all orbits meeting A (A itself for the
        trivial group)."""
        if self.is_trivial():
            return A
        out = 0
        for i in bits(A):
            out |= self.orbit_mask(i)
        return out

    def is_invariant(self, A):
        """Is the mask A a union of orbits?"""
        return self.saturate(A) == A

    def stabilizer(self, i):
        """Point stabiliser as a frozenset of element indices."""
        return frozenset(
            k for k, g in enumerate(self.elements) if g[i] == i
        )

    # -- subgroup machinery ----------------------------------------------

    def compose(self, k1, k2):
        g1, g2 = self.elements[k1], self.elements[k2]
        return self.elements.index(tuple(g1[v] for v in g2))

    def inverse(self, k):
        g = self.elements[k]
        inv = [0] * len(g)
        for i, v in enumerate(g):
            inv[v] = i
        return self.elements.index(tuple(inv))

    def identity_index(self):
        return self.elements.index(tuple(range(len(self.space))))

    def subgroups(self):
        """All subgroups, as frozensets of element indices."""
        if self._subgroups is not None:
            return self._subgroups
        e = self.identity_index()
        found = {frozenset([e])}
        frontier = [frozenset([e])]
        while frontier:
            H = frontier.pop()
            for k in range(len(self.elements)):
                if k in H:
                    continue
                new = self._close(H | {k})
                if new not in found:
                    found.add(new)
                    frontier.append(new)
        self._subgroups = sorted(found, key=lambda h: (len(h), sorted(h)))
        return self._subgroups

    def _close(self, seed):
        cur = set(seed)
        changed = True
        while changed:
            changed = False
            for a in list(cur):
                ia = self.inverse(a)
                if ia not in cur:
                    cur.add(ia)
                    changed = True
                for b in list(cur):
                    c = self.compose(a, b)
                    if c not in cur:
                        cur.add(c)
                        changed = True
        return frozenset(cur)

    def conjugate_subgroup(self, H, k):
        ki = self.inverse(k)
        return frozenset(
            self.compose(self.compose(k, h), ki) for h in H
        )

    def are_conjugate(self, H1, H2):
        if len(H1) != len(H2):
            return False
        return any(
            self.conjugate_subgroup(H1, k) == H2
            for k in range(len(self.elements))
        )

    def fixed_mask(self, H):
        """Points fixed by every element of the subgroup H."""
        out = self.space.full_mask()
        for k in H:
            g = self.elements[k]
            out &= sum(1 << i for i in range(len(g)) if g[i] == i)
        return out

    # -- quotient ----------------------------------------------------------

    def orbit_space(self):
        """The orbit space X/G as a finite space, with the projection map.

        Classes are ordered by x' <= y' iff some representatives satisfy
        x <= gy; for actions by order automorphisms this is the quotient
        topology and it is T0 here for all shipped fixtures (validated).
        """
        orbs = self.orbits()
        labels = ["|".join(self.space.points[i] for i in orb) for orb in orbs]
        pairs = []
        for a, oa in enumerate(orbs):
            for b, ob in enumerate(orbs):
                if a == b:
                    continue
                if any(self.space.leq(i, j) for i in oa for j in ob):
                    pairs.append((labels[a], labels[b]))
        quotient = validate_space(labels, pairs)
        proj = SpaceMap(
            self.space,
            quotient,
            tuple(
                next(k for k, orb in enumerate(orbs) if i in orb)
                for i in range(len(self.space))
            ),
        )
        return quotient, proj


def validate_action(space, generators):
    """Spec entry point; generators given as label->label dicts."""
    return GroupAction.from_label_maps(space, generators)


class HomogeneousClass:
    """An admissible class of orbit types, stored as subgroups of G.

    An orbit belongs to the class when its stabiliser is conjugate to a
    listed subgroup; a transitive G-set G/H is admissible when H is.
    """

    __slots__ = ("action", "subgroup_list", "kind")

    def __init__(self, action, subgroup_list, kind="explicit"):
        self.action = action
        self.subgroup_list = tuple(subgroup_list)
        self.kind = kind

    @classmethod
    def all_types(cls, action):
        return cls(action, action.subgroups(), kind="all")

    @classmethod
    def default(cls, action):
        """The point class for a trivial action, every orbit type
        otherwise."""
        if action.is_trivial():
            return cls.point_only(action)
        return cls.all_types(action)

    @classmethod
    def point_only(cls, action):
        """Only the one-point orbit G/G (classical category for trivial G)."""
        full = frozenset(range(len(action.elements)))
        return cls(action, [full], kind="point")

    @classmethod
    def free_only(cls, action):
        e = action.identity_index()
        return cls(action, [frozenset([e])], kind="free")

    def admits_stabilizer(self, H):
        return any(self.action.are_conjugate(H, K) for K in self.subgroup_list)

    def key(self):
        return (self.kind, tuple(tuple(sorted(h)) for h in self.subgroup_list))


def is_G_map(phi, action):
    """Equivariance check phi(gx) = g phi(x) on all (g, x)."""
    if phi.domain != action.space or phi.codomain != action.space:
        raise ValueError("expected a self-map of the action's space")
    for g in action.elements:
        for i in range(len(action.space)):
            if phi.images[g[i]] != g[phi.images[i]]:
                return False
    return True


def _equivariant_context(action, domain_parent_indices):
    dom_index = {p: k for k, p in enumerate(domain_parent_indices)}
    return (action.elements, tuple(domain_parent_indices), dom_index)


def equivariant_orbits(action, domain_parent_indices):
    """Orbits of the domain subspace under the induced action, as
    domain-local index tuples (requires an invariant domain)."""
    dom_index = {p: k for k, p in enumerate(domain_parent_indices)}
    seen = set()
    out = []
    for k, p in enumerate(domain_parent_indices):
        if k in seen:
            continue
        orb = sorted(
            dom_index[g[p]] for g in action.elements
        )
        orb = sorted(set(orb))
        seen.update(orb)
        out.append(tuple(orb))
    return tuple(out)


def G_fence_search(start, action, domain_parent_indices, **kw):
    """Equivariant fence BFS (whole-orbit mutations).

    ``start`` maps a subspace of the action's space into the space;
    ``domain_parent_indices`` names the parent index of each domain
    point.  For the trivial group this degenerates to the plain search.
    """
    if action.is_trivial():
        return fence_search(start, **kw)
    orbits = equivariant_orbits(action, domain_parent_indices)
    ctx = _equivariant_context(action, domain_parent_indices)
    return fence_search(start, orbits=orbits, act=ctx, **kw)


def G_homotopic(g1, g2, action):
    """Fence through equivariant maps only, or None."""
    for g in (g1, g2):
        if g.codomain != action.space:
            raise ValueError("maps must land in the action's space")
    if g1.domain != g2.domain or g1.codomain != g2.codomain:
        raise ValueError("maps must share domain and codomain")
    if g1.domain == action.space:
        parents = tuple(range(len(action.space)))
    else:
        parents = tuple(
            action.space.index[p] for p in g1.domain.points
        )
    if not action.is_trivial():
        for g in (g1, g2):
            if not _is_equivariant_partial(g, action, parents):
                raise ValueError("maps must be equivariant")
    if g1 == g2:
        return FenceCertificate([g1])
    return G_fence_search(g1, action, parents, targets={g2.images})


def _is_equivariant_partial(phi, action, parents):
    dom_index = {p: k for k, p in enumerate(parents)}
    for g in action.elements:
        for k, p in enumerate(parents):
            k2 = dom_index.get(g[p])
            if k2 is None:
                return False  # domain not invariant
            if phi.images[k2] != g[phi.images[k]]:
                return False
    return True


def inclusion_map(space, mask):
    sub, idx = space.subspace(mask)
    return SpaceMap(sub, space, idx), idx


def is_G_deformable(action, W_mask, Y_mask, mod=False):
    """Is the open W G-deformable to Y (mod Y)?  Returns a fence or None.

    mod: every stage sends W & Y into Y and the final image lies in Y.
    """
    if W_mask == 0:
        return _EMPTY_DEFORMATION
    if Y_mask == 0:
        return None  # a nonempty set never maps into the empty set
    space = action.space
    incl, parents = inclusion_map(space, W_mask)
    wy = [k for k, p in enumerate(parents) if Y_mask >> p & 1]
    stage_ok = None
    if mod:
        def stage_ok(images):
            return all(Y_mask >> images[k] & 1 for k in wy)

    def target(images):
        m = 0
        for v in images:
            m |= 1 << v
        return m & ~Y_mask == 0

    return G_fence_search(
        incl, action, parents, target_pred=target, stage_ok=stage_ok,
    )


class _EmptyDeformation:
    """Witness that the empty subspace deforms anywhere, vacuously."""

    def __repr__(self):
        return "EmptyDeformation()"

    def validate(self, stage_ok=None):
        return True


_EMPTY_DEFORMATION = _EmptyDeformation()


def orbit_equivalent(action, i, j, f_values):
    """Orbit equivalence for a function f: equal f-value, same orbit
    type, and each orbit equivariantly deformable into the other."""
    oi, oj = action.orbit_of(i), action.orbit_of(j)
    fi = {f_values[k] for k in oi}
    fj = {f_values[k] for k in oj}
    if len(fi) != 1 or fi != fj:
        return False
    if oi == oj:
        return True
    if not action.are_conjugate(action.stabilizer(i), action.stabilizer(j)):
        return False
    maskj = sum(1 << k for k in oj)
    maski = sum(1 << k for k in oi)
    return (
        is_G_deformable(action, maski, maskj) is not None and
        is_G_deformable(action, maskj, maski) is not None
    )


"""Finite group actions on finite spaces.

The group is given by generating permutations of the point set; every
element must act as an order automorphism (continuity of the action).
Group elements are named by their index in ``GroupAction.elements``
(the identity is element 0), and products and inverses are read from one
multiplication table built with the action.  Orbits, like every subset,
are masks.  Equivariant homotopy is modelled as fence-connectedness
through equivariant maps, with whole-orbit mutations as the elementary
moves.
"""

from __future__ import annotations

from .poset import (
    SizeCapExceeded,
    SpaceMap,
    _deform,
    _negative,
    bits,
    join_labels,
    validate_space,
)
# Not called here; perfbench/check_tracer.py checks this import site.
from .poset import fence_search  # noqa: F401

GROUP_CAP = 48  # elements of a group


class NotAnAutomorphism(ValueError):
    def __init__(self, x, y):
        self.witness = (x, y)
        super().__init__(
            f"group element is not an order automorphism: {x} <= {y} "
            "is not preserved"
        )


class GroupAction:
    """A finite group acting on a finite space by order automorphisms.

    ``elements`` is the full element table, each a tuple sending point
    index i to its image; elements[0] is the identity.  ``_mul[a][b]``
    is the index of elements[a] after elements[b].
    """

    __slots__ = ("space", "generators", "elements", "_mul", "_orbit_of",
                 "_orbits", "_subgroups", "_caches")

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
                        raise NotAnAutomorphism(space.points[i],
                                                space.points[j])
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
        where = {g: k for k, g in enumerate(self.elements)}
        self._mul = tuple(
            tuple(where[tuple(map(g1.__getitem__, g2))]
                  for g2 in self.elements)
            for g1 in self.elements
        )
        orbit_of = [1 << i for i in range(n)]
        for g in self.elements[1:]:  # elements[0] is the identity
            for i, v in enumerate(g):
                orbit_of[i] |= 1 << v
        self._orbit_of = tuple(orbit_of)
        self._orbits = tuple(dict.fromkeys(orbit_of))  # by least point
        self._subgroups = None
        self._caches = {}

    @classmethod
    def trivial(cls, space):
        return cls(space, [])

    def is_trivial(self):
        return len(self.elements) == 1

    def __len__(self):
        return len(self.elements)

    # -- orbits ----------------------------------------------------------

    def orbit_mask(self, i):
        return self._orbit_of[i]

    def orbits(self):
        """Orbits as masks partitioning the points, by least point."""
        return self._orbits

    def saturate(self, A):
        """GA: the union of all orbits meeting A (A itself for the
        trivial group)."""
        if len(self.elements) == 1:
            return A
        if A < 0:
            raise _negative(A)
        out = 0
        for orbit in self._orbits:
            if A & orbit:
                out |= orbit
        return out

    def is_invariant(self, A):
        """Is the mask A a union of orbits?"""
        return len(self.elements) == 1 or self.saturate(A) == A

    def stabilizer(self, i):
        """Point stabiliser as a frozenset of element indices."""
        return frozenset(
            k for k, g in enumerate(self.elements) if g[i] == i
        )

    # -- subgroup machinery ----------------------------------------------

    def compose(self, k1, k2):
        return self._mul[k1][k2]

    def inverse(self, k):
        return self._mul[k].index(0)

    def subgroups(self):
        """All subgroups, as frozensets of element indices."""
        if self._subgroups is not None:
            return self._subgroups
        found = {frozenset([0])}
        frontier = [frozenset([0])]
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
        """The subgroup generated by ``seed``: the products of its
        elements (in a finite group, powers give the identity and
        inverses)."""
        cur = set(seed)
        frontier = list(cur)
        while frontier:
            a = frontier.pop()
            for s in seed:
                c = self._mul[a][s]
                if c not in cur:
                    cur.add(c)
                    frontier.append(c)
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
        labels = [join_labels(self.space.labels(orb)) for orb in orbs]
        pairs = []
        for a, oa in enumerate(orbs):
            above = self.space.up_closure(oa)
            for b, ob in enumerate(orbs):
                if a != b and above & ob:
                    pairs.append((labels[a], labels[b]))
        quotient = validate_space(labels, pairs)
        cls = [0] * len(self.space)
        for k, orb in enumerate(orbs):
            for i in bits(orb):
                cls[i] = k
        proj = SpaceMap(self.space, quotient, tuple(cls))
        return quotient, proj


def validate_action(space, generators):
    """The action generated by label->label dicts."""
    return GroupAction(space, [
        tuple(space.index[mp[p]] for p in space.points) for mp in generators
    ])


class HomogeneousClass:
    """An admissible class of orbit types, stored as subgroups of G.

    An orbit belongs to the class when its stabiliser is conjugate to a
    listed subgroup; a transitive G-set G/H is admissible when H is.
    Classes are keyed by their subgroup list alone, so two classes that
    list the same subgroups (for a trivial action the point, free and
    all classes) share their catalogues.
    """

    __slots__ = ("action", "subgroup_list", "_key")

    def __init__(self, action, subgroup_list):
        self.action = action
        self.subgroup_list = tuple(subgroup_list)
        self._key = tuple(tuple(sorted(h)) for h in self.subgroup_list)

    @classmethod
    def all_types(cls, action):
        return cls(action, action.subgroups())

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
        return cls(action, [full])

    @classmethod
    def free_only(cls, action):
        return cls(action, [frozenset([0])])

    def admits_stabilizer(self, H):
        return any(self.action.are_conjugate(H, K) for K in self.subgroup_list)

    def key(self):
        return self._key


def is_G_map(phi, action):
    """Equivariance phi(gx) = g phi(x) on all (g, x), for a map into the
    action's space from the space or from a subspace of it (its points
    matched by label); False when that domain is not invariant."""
    if phi.codomain != action.space:
        raise ValueError("expected a map into the action's space")
    try:
        local = {action.space.index[p]: k
                 for k, p in enumerate(phi.domain.points)}
    except KeyError as err:
        raise ValueError(f"{err.args[0]!r} is not a point of the action's "
                         "space") from None
    for g in action.elements:
        for p, k in local.items():
            k2 = local.get(g[p])
            if k2 is None or phi.images[k2] != g[phi.images[k]]:
                return False
    return True


def inclusion_map(space, mask):
    sub, idx = space.subspace(mask)
    return SpaceMap(sub, space, idx), idx


def mod_stage_ok(domain_parent_indices, Y_mask):
    """The stage rule of a deformation mod Y: every stage sends the
    domain points that lie in Y into Y."""
    wy = [k for k, p in enumerate(domain_parent_indices) if Y_mask >> p & 1]

    def stage_ok(images):
        return all(Y_mask >> images[k] & 1 for k in wy)

    return stage_ok


def is_G_deformable(action, W_mask, Y_mask, mod=False):
    """Is the open W G-deformable to Y (mod Y)?  Returns a fence or None.

    mod: every stage sends W & Y into Y and the final image lies in Y.
    W must be nonempty and invariant (ValueError otherwise).  No search
    runs when a component of the space meets W but misses Y: every
    fence stage sends each point into its own component (the degree-0
    case of McCord's weak equivalence), so no final image lies in Y.

    Otherwise ``poset._deform`` decides on the relative G-core of W,
    which keeps G(W & Y) in mod mode, so that the collapse fixes W & Y.
    """
    if W_mask == 0:
        raise ValueError("deformability of the empty set is undefined")
    if not action.is_invariant(W_mask):
        raise ValueError(f"the domain {list(action.space.labels(W_mask))} "
                         "is not invariant under the group")
    space = action.space
    if any(W_mask & c and not Y_mask & c for c in space.components):
        return None

    def question(core):
        return (lambda images: all(Y_mask >> v & 1 for v in images),
                mod_stage_ok(tuple(bits(core)), Y_mask) if mod else None)

    keep = action.saturate(W_mask & Y_mask) if mod else 0
    return _deform(space, W_mask, question, keep, action.elements,
                   action.saturate(Y_mask))


def orbit_equivalent(action, i, j, f_values):
    """Orbit equivalence for a function f: equal f-value, same orbit
    type, and each orbit equivariantly deformable into the other."""
    oi, oj = action.orbit_mask(i), action.orbit_mask(j)
    fi = {f_values[k] for k in bits(oi)}
    fj = {f_values[k] for k in bits(oj)}
    if len(fi) != 1 or fi != fj:
        return False
    if oi == oj:
        return True
    if not action.are_conjugate(action.stabilizer(i), action.stabilizer(j)):
        return False
    return (
        is_G_deformable(action, oi, oj) is not None and
        is_G_deformable(action, oj, oi) is not None
    )

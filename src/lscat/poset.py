"""Finite T0 spaces as posets: topology, continuous maps, fences, cores.

A finite T0 space is the same thing as a finite poset; we fix the
convention that the open sets are exactly the up-sets of the order.
Continuous maps are then exactly the order-preserving ones, and homotopy
of maps is modelled combinatorially: two maps are homotopic iff they are
connected by a *fence*, a chain of continuous maps in which consecutive
maps are pointwise comparable (the classical Stong/McCord equivalence).

Subsets are bitmasks over the point list (bit i is ``points[i]``); the
mask is the one subset type of the package, and ``FiniteSpace.subset``
turns labels into it.  Everything here is immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

from collections import deque

# Exhaustive-operation guard rails, read at every call: an operation past
# one raises SizeCapExceeded naming it, and raising the constant lifts it.
MAP_SPACE_CAP = 12            # |X| cap for hom-set enumeration / homotopic
SUBSET_SPACE_CAP = 16         # |X| cap for subset-exhaustive operations
FENCE_NODE_CAP = 250_000      # explored maps per fence BFS
MAP_ENUM_BUDGET = 2_000_000   # maps listed per hom-set enumeration


class NotAPartialOrder(ValueError):
    """Raised when a relation fails one of the partial-order axioms."""

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} violated at {witness!r}")


class EmptySpace(ValueError):
    pass


class SizeCapExceeded(RuntimeError):
    """An exhaustive operation was asked to run beyond its size cap; the
    message names the module constant that sets the cap."""


class FiniteSpace:
    """A finite poset; opens are up-sets, closed sets are down-sets.

    ``points`` is an ordered tuple of string labels, ``leq`` the full
    order relation as a set of label pairs.  The constructor validates
    reflexivity, antisymmetry and transitivity and raises
    :class:`NotAPartialOrder` naming the violated axiom.
    """

    __slots__ = ("points", "index", "up", "down", "_upsets", "_core",
                 "_hash", "_strict_up", "_strict_down")

    def __init__(self, points, leq_pairs):
        points = tuple(points)
        if not points:
            raise EmptySpace("a finite space needs at least one point")
        if len(set(points)) != len(points):
            raise ValueError(f"duplicate point labels in {points!r}")
        index = {p: i for i, p in enumerate(points)}
        n = len(points)
        up = [1 << i for i in range(n)]  # reflexive part
        for a, b in leq_pairs:
            if a not in index or b not in index:
                raise ValueError(f"relation pair ({a!r}, {b!r}) uses unknown points")
            up[index[a]] |= 1 << index[b]
        # antisymmetry
        for i in range(n):
            for j in range(n):
                if i != j and up[i] >> j & 1 and up[j] >> i & 1:
                    raise NotAPartialOrder("antisymmetry", (points[i], points[j]))
        # transitivity (the relation must already be closed)
        for i in range(n):
            for j in range(n):
                if up[i] >> j & 1 and up[j] & ~up[i]:
                    k = (up[j] & ~up[i]).bit_length() - 1
                    raise NotAPartialOrder(
                        "transitivity", (points[i], points[j], points[k])
                    )
        down = [0] * n
        for i in range(n):
            for j in range(n):
                if up[i] >> j & 1:
                    down[j] |= 1 << i
        self.points = points
        self.index = index
        self.up = tuple(up)
        self.down = tuple(down)
        self._upsets = None
        self._core = None
        self._hash = hash((points, self.up))
        self._strict_up = tuple(
            tuple(_bits(self.up[i] & ~(1 << i))) for i in range(n)
        )
        self._strict_down = tuple(
            tuple(_bits(self.down[i] & ~(1 << i))) for i in range(n)
        )

    # -- basic order queries -------------------------------------------

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteSpace)
            and self.points == other.points
            and self.up == other.up
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteSpace({list(self.points)!r}, {len(self)} points)"

    def leq(self, i, j):
        """i <= j on point indices."""
        return self.up[i] >> j & 1 == 1

    def comparable(self, i, j):
        return self.leq(i, j) or self.leq(j, i)

    def full_mask(self):
        return (1 << len(self)) - 1

    def up_closure(self, mask):
        out = 0
        for i in _bits(mask):
            out |= self.up[i]
        return out

    def down_closure(self, mask):
        out = 0
        for i in _bits(mask):
            out |= self.down[i]
        return out

    def is_up_set(self, mask):
        return self.up_closure(mask) == mask

    def is_down_set(self, mask):
        return self.down_closure(mask) == mask

    def is_discrete(self):
        """True iff the order is trivial (every subset open: Hausdorff)."""
        return all(self.up[i] == 1 << i for i in range(len(self)))

    def up_sets(self):
        """All open subsets as masks, ascending; cached."""
        if self._upsets is None:
            n = len(self)
            if n > SUBSET_SPACE_CAP:
                raise SizeCapExceeded(
                    f"up_sets: {n} points exceed "
                    f"lscat.poset.SUBSET_SPACE_CAP = {SUBSET_SPACE_CAP}"
                )
            self._upsets = tuple(
                m for m in range(1 << n) if self.is_up_set(m)
            )
        return self._upsets

    def down_sets(self):
        full = self.full_mask()
        return tuple(sorted(full ^ m for m in self.up_sets()))

    def subset(self, labels):
        """The mask of the points named by ``labels``."""
        mask = 0
        for lab in labels:
            mask |= 1 << self.index[lab]
        return mask

    def labels(self, mask):
        return tuple(self.points[i] for i in _bits(mask))

    # -- subspaces ------------------------------------------------------

    def subspace(self, mask):
        """Induced subspace on ``mask``: (space, parent index per point)."""
        idx = tuple(_bits(mask))
        pts = tuple(self.points[i] for i in idx)
        pairs = [
            (self.points[i], self.points[j])
            for i in idx
            for j in idx
            if i != j and self.leq(i, j)
        ]
        return FiniteSpace(pts, pairs), idx

    def relation_pairs(self, strict=True):
        return [
            (self.points[i], self.points[j])
            for i in range(len(self))
            for j in range(len(self))
            if self.leq(i, j) and (not strict or i != j)
        ]


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits(mask):
    """Indices of the set bits of a mask, ascending."""
    return list(_bits(mask))


def validate_space(points, relation_pairs):
    """Build a space from generating pairs [lower, upper].

    The pairs generate the order: the reflexive-transitive closure is
    taken automatically, so the only axiom that can fail is antisymmetry
    (reported with a witness).
    """
    points = tuple(points)
    if not points:
        raise EmptySpace("no points given")
    index = {p: i for i, p in enumerate(points)}
    n = len(points)
    up = [1 << i for i in range(n)]
    for a, b in relation_pairs:
        if a not in index or b not in index:
            raise ValueError(f"relation pair ({a!r}, {b!r}) uses unknown points")
        up[index[a]] |= 1 << index[b]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in _bits(acc):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    pairs = [
        (points[i], points[j])
        for i in range(n)
        for j in _bits(up[i])
        if i != j
    ]
    return FiniteSpace(points, pairs)


class SpaceMap:
    """An order-preserving (= continuous) map between finite spaces."""

    __slots__ = ("domain", "codomain", "images")

    def __init__(self, domain, codomain, images):
        images = tuple(images)
        if len(images) != len(domain):
            raise ValueError("image tuple must assign every domain point")
        for v in images:
            if not 0 <= v < len(codomain):
                raise ValueError("image index out of codomain range")
        for i in range(len(domain)):
            for j in range(len(domain)):
                if domain.leq(i, j) and not codomain.leq(images[i], images[j]):
                    raise ValueError(
                        "not order-preserving: "
                        f"{domain.points[i]} <= {domain.points[j]} but "
                        f"{codomain.points[images[i]]} !<= {codomain.points[images[j]]}"
                    )
        self.domain = domain
        self.codomain = codomain
        self.images = images

    @classmethod
    def from_dict(cls, domain, codomain, mapping):
        return cls(
            domain,
            codomain,
            tuple(codomain.index[mapping[p]] for p in domain.points),
        )

    @classmethod
    def identity(cls, space):
        return cls(space, space, tuple(range(len(space))))

    @classmethod
    def constant(cls, domain, codomain, value_index):
        return cls(domain, codomain, (value_index,) * len(domain))

    def __call__(self, label):
        return self.codomain.points[self.images[self.domain.index[label]]]

    def __eq__(self, other):
        return (
            isinstance(other, SpaceMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, self.images))

    def __repr__(self):
        body = ", ".join(
            f"{p}->{self.codomain.points[v]}"
            for p, v in zip(self.domain.points, self.images)
        )
        return f"SpaceMap({body})"

    def compose(self, inner):
        """self o inner."""
        if inner.codomain != self.domain:
            raise ValueError("composition domain mismatch")
        return SpaceMap(
            inner.domain,
            self.codomain,
            tuple(self.images[v] for v in inner.images),
        )

    def le(self, other):
        cod = self.codomain
        return all(cod.leq(a, b) for a, b in zip(self.images, other.images))

    def comparable(self, other):
        return self.le(other) or other.le(self)

    def image_mask(self, domain_mask=None):
        if domain_mask is None:
            domain_mask = self.domain.full_mask()
        out = 0
        for i in _bits(domain_mask):
            out |= 1 << self.images[i]
        return out

    def preimage_mask(self, codomain_mask):
        out = 0
        for i, v in enumerate(self.images):
            if codomain_mask >> v & 1:
                out |= 1 << i
        return out

    def is_identity(self):
        return self.domain == self.codomain and self.images == tuple(
            range(len(self.domain))
        )


class FenceCertificate:
    """A fence of continuous maps; consecutive maps pointwise comparable.

    A one-element fence witnesses homotopy of a map with itself.  The
    certificate re-validates from scratch via :meth:`validate`.
    """

    __slots__ = ("maps",)

    def __init__(self, maps):
        maps = tuple(maps)
        if not maps:
            raise ValueError("a fence needs at least one map")
        self.maps = maps

    def __len__(self):
        return len(self.maps)

    def __repr__(self):
        return f"FenceCertificate({len(self.maps)} maps)"

    @property
    def start(self):
        return self.maps[0]

    @property
    def end(self):
        return self.maps[-1]

    def validate(self, stage_ok=None):
        dom, cod = self.maps[0].domain, self.maps[0].codomain
        for m in self.maps:
            if m.domain != dom or m.codomain != cod:
                raise ValueError("fence maps must share domain and codomain")
            SpaceMap(dom, cod, m.images)  # re-checks continuity
            if stage_ok is not None and not stage_ok(m.images):
                raise ValueError("fence stage violates the stage constraint")
        for a, b in zip(self.maps, self.maps[1:]):
            if not a.comparable(b):
                raise ValueError("consecutive fence maps are not comparable")
        return True

    def compose_left(self, outer):
        """outer o (each stage); preserves comparability of stages."""
        return FenceCertificate([outer.compose(m) for m in self.maps])

    def compose_right(self, inner):
        return FenceCertificate([m.compose(inner) for m in self.maps])


def concat_fences(*fences):
    maps = []
    for f in fences:
        for m in f.maps:
            if not maps or maps[-1] != m:
                maps.append(m)
    return FenceCertificate(maps)


# -- map enumeration and fence search ----------------------------------


def _check_map_space(what, space):
    if len(space) > MAP_SPACE_CAP:
        raise SizeCapExceeded(
            f"{what}: {len(space)} points exceed "
            f"lscat.poset.MAP_SPACE_CAP = {MAP_SPACE_CAP}"
        )


def enumerate_maps(domain, codomain):
    """All order-preserving maps domain -> codomain, lexicographic order.

    Backtracking over a linear extension; deterministic.  For maps from
    a subset, pass its induced subspace, ``space.subspace(mask)[0]``.
    """
    _check_map_space("enumerate_maps", codomain)
    _check_map_space("enumerate_maps", domain)
    n = len(domain)
    order = sorted(range(n), key=lambda i: (domain.up[i].bit_count(), i),
                   reverse=True)  # minimal points first (big up-sets)
    images = [None] * n
    out = []

    def assign(k):
        if len(out) > MAP_ENUM_BUDGET:
            raise SizeCapExceeded(
                f"enumerate_maps: more maps than "
                f"lscat.poset.MAP_ENUM_BUDGET = {MAP_ENUM_BUDGET}"
            )
        if k == n:
            out.append(SpaceMap(domain, codomain, tuple(images)))
            return
        i = order[k]
        for v in range(len(codomain)):
            ok = True
            for k2 in range(k):
                j = order[k2]
                if domain.leq(j, i) and not codomain.leq(images[j], v):
                    ok = False
                    break
                if domain.leq(i, j) and not codomain.leq(v, images[j]):
                    ok = False
                    break
            if ok:
                images[i] = v
                assign(k + 1)
                images[i] = None

    assign(0)
    out.sort(key=lambda m: m.images)
    return out


def _mutation_candidates(domain, codomain, images, i):
    """Values v != images[i], comparable to it, keeping continuity at i.

    Pure mask arithmetic: v must lie below every image of a strict upper
    neighbour and above every image of a strict lower neighbour.
    """
    cur = images[i]
    allowed = (codomain.up[cur] | codomain.down[cur]) & ~(1 << cur)
    if not allowed:
        return []
    down_c, up_c = codomain.down, codomain.up
    for j in domain._strict_up[i]:
        allowed &= down_c[images[j]]
        if not allowed:
            return []
    for j in domain._strict_down[i]:
        allowed &= up_c[images[j]]
        if not allowed:
            return []
    return list(_bits(allowed))


def fence_search(
    start,
    *,
    targets=None,
    target_pred=None,
    stage_ok=None,
    orbits=None,
    act=None,
):
    """BFS for a fence from ``start`` to a target map.

    Moves are single-point mutations to a comparable value that keep the
    map continuous (for equivariant searches: whole-orbit mutations; see
    ``orbits``/``act``, supplied by the group_action module).  Single
    mutations generate the same components as map comparability, so the
    search is exact.  Deterministic: FIFO BFS with lexicographic move
    generation returns the first (shortest, then lexicographically
    earliest) fence.

    ``stage_ok(images)`` restricts every stage (used for mod
    deformations); ``targets`` is a set of image tuples, ``target_pred``
    a predicate on image tuples.  Returns a FenceCertificate or None.
    """
    domain, codomain = start.domain, start.codomain
    cap = FENCE_NODE_CAP
    start_images = start.images
    if stage_ok is not None and not stage_ok(start_images):
        return None

    def is_target(images):
        if targets is not None and images in targets:
            return True
        return target_pred is not None and target_pred(images)

    if is_target(start_images):
        return FenceCertificate([start])

    seen = {start_images}
    parent = {}
    queue = deque([start_images])
    explored = 0
    while queue:
        cur = queue.popleft()
        explored += 1
        if explored > cap:
            raise SizeCapExceeded(
                f"fence_search: explored more maps than "
                f"lscat.poset.FENCE_NODE_CAP = {cap}"
            )
        for nxt in _neighbors(domain, codomain, cur, orbits, act):
            if nxt in seen:
                continue
            if stage_ok is not None and not stage_ok(nxt):
                continue
            seen.add(nxt)
            parent[nxt] = cur
            if is_target(nxt):
                chain = [nxt]
                while chain[-1] != start_images:
                    chain.append(parent[chain[-1]])
                chain.reverse()
                return FenceCertificate(
                    [SpaceMap(domain, codomain, im) for im in chain]
                )
            queue.append(nxt)
    return None


def _neighbors(domain, codomain, images, orbits, act):
    if orbits is None:
        for i in range(len(domain)):
            for v in _mutation_candidates(domain, codomain, images, i):
                lst = list(images)
                lst[i] = v
                yield tuple(lst)
        return
    # Equivariant: mutate one domain orbit; images on the orbit are the
    # group translates of the representative's new value.
    elements, parent_of, dom_index = act
    for orbit in orbits:
        rep = orbit[0]
        cur = images[rep]
        cand_mask = (codomain.up[cur] | codomain.down[cur]) & ~(1 << cur)
        for v in _bits(cand_mask):
            lst = list(images)
            ok = True
            for g in elements:
                p = g[parent_of[rep]]
                i2 = dom_index.get(p)
                if i2 is None:
                    ok = False
                    break
                v2 = g[v]
                if lst[i2] != images[i2] and lst[i2] != v2:
                    ok = False  # stabiliser clash: value not well-defined
                    break
                lst[i2] = v2
            if not ok:
                continue
            new = tuple(lst)
            changed = [i for i in range(len(new)) if new[i] != images[i]]
            if not changed:
                continue
            good = True
            for i in changed:
                vi = new[i]
                if not codomain.comparable(vi, images[i]):
                    good = False
                    break
                for j in range(len(domain)):
                    if j == i:
                        continue
                    if domain.leq(i, j) and not codomain.leq(vi, new[j]):
                        good = False
                        break
                    if domain.leq(j, i) and not codomain.leq(new[j], vi):
                        good = False
                        break
                if not good:
                    break
            if good:
                yield new


def homotopic(g1, g2):
    """A fence linking g1 to g2, or None if they are not homotopic."""
    if g1.domain != g2.domain or g1.codomain != g2.codomain:
        raise ValueError("maps must share domain and codomain")
    _check_map_space("homotopic", g1.codomain)
    if g1 == g2:
        return FenceCertificate([g1])
    return fence_search(g1, targets={g2.images})


# -- cores and contractibility -----------------------------------------


class CoreResult:
    """Stong core of a space with the collapse data.

    ``retraction``/``inclusion`` connect the space with its core;
    ``fence`` witnesses that inclusion o retraction is homotopic to the
    identity (one comparable stage per removed beat point).
    """

    __slots__ = ("space", "core", "retraction", "inclusion", "fence")

    def __init__(self, space, core, retraction, inclusion, fence):
        self.space = space
        self.core = core
        self.retraction = retraction
        self.inclusion = inclusion
        self.fence = fence


def _find_beat(space, alive_mask):
    """First beat point (index, partner) in label order, or None."""
    for i in _bits(alive_mask):
        strict_up = space.up[i] & alive_mask & ~(1 << i)
        if strict_up:
            for m in _bits(strict_up):
                if strict_up & ~space.up[m] == 0:  # m is the minimum
                    return i, m
        strict_down = space.down[i] & alive_mask & ~(1 << i)
        if strict_down:
            for m in _bits(strict_down):
                if strict_down & ~space.down[m] == 0:  # m is the maximum
                    return i, m
    return None


def _collapse(space, mask):
    """Collapse the subspace on ``mask`` to its core inside the space.

    Removes the first beat point in label order until none is left, and
    returns (core mask, removals) with removals the (point, partner)
    pairs in order, all on the space's indices.  The subspace keeps the
    label order, so this is the walk ``core`` makes on the subspace.
    """
    removals = []
    while True:
        found = _find_beat(space, mask)
        if found is None:
            return mask, removals
        removals.append(found)
        mask &= ~(1 << found[0])


def _collapse_stages(domain, codomain, send, removals):
    """The beat-point fence from the map ``send`` (images on the
    codomain): one more stage per removal, sending the removed point to
    its partner, so the last stage lands in the collapsed core."""
    stages = [SpaceMap(domain, codomain, send)]
    for i, partner in removals:
        send = tuple(partner if v == i else v for v in send)
        stages.append(SpaceMap(domain, codomain, send))
    return FenceCertificate(stages)


def core(space):
    """Iteratively remove beat points; returns a CoreResult, computed
    once per space and kept on it."""
    if space._core is not None:
        return space._core
    alive, removals = _collapse(space, space.full_mask())
    fence = _collapse_stages(space, space, range(len(space)), removals)
    core_space, idx = space.subspace(alive)
    to_core = {p: k for k, p in enumerate(idx)}
    retraction = SpaceMap(space, core_space,
                          tuple(to_core[v] for v in fence.end.images))
    inclusion = SpaceMap(core_space, space, idx)
    space._core = CoreResult(space, core_space, retraction, inclusion, fence)
    return space._core


def is_contractible_in(A, space, with_certificate=True):
    """Is the inclusion of the subset A (a mask) fence-homotopic to a
    constant map into X?

    Runs on cores for speed: A is contractible in X iff the conjugated
    inclusion core(A) -> core(X) is fence-connected to a constant.  A is
    collapsed on the space's masks, so deciding builds only core(A) and
    that one map.  The certificate, when asked for, is a full fence on
    the original inclusion, built from the same collapse.
    """
    if A == 0:
        raise ValueError("contractibility of the empty subset is undefined")
    core_x = core(space)
    alive, removals = _collapse(space, A)
    core_a, idx = space.subspace(alive)
    r_x = core_x.retraction.images
    m0 = SpaceMap(core_a, core_x.core, tuple(r_x[p] for p in idx))
    fence = fence_search(m0, target_pred=lambda im: len(set(im)) == 1)
    if fence is None:
        return False, None
    if not with_certificate:
        return True, None
    # With rA: A -> core_a the collapse of A, and incl its inclusion:
    #   incl ~ incl o iA o rA ~ (iX o rX) o incl o iA o rA ~ iX o m_k o rA
    sub, parents = space.subspace(A)
    part1 = _collapse_stages(sub, space, parents, removals)
    tail = part1.end  # incl o iA o rA
    part2 = core_x.fence.compose_right(tail)
    to_core_a = {p: k for k, p in enumerate(idx)}
    r_a = SpaceMap(sub, core_a, tuple(to_core_a[v] for v in tail.images))
    part3 = fence.compose_left(core_x.inclusion).compose_right(r_a)
    full = concat_fences(part1, part2, part3)
    full.validate()
    assert len(set(full.end.images)) == 1
    return True, full


def automorphism_inverse(phi):
    """The inverse of phi when phi is an order automorphism, else None."""
    if phi.domain != phi.codomain or len(set(phi.images)) != len(phi.domain):
        return None
    inv = [0] * len(phi.domain)
    for i, v in enumerate(phi.images):
        inv[v] = i
    try:
        return SpaceMap(phi.domain, phi.domain, tuple(inv))
    except ValueError:
        return None


def _core_self_map(phi):
    """The core of phi's domain and the self-map phi induces on it."""
    if phi.domain != phi.codomain:
        raise ValueError("expected a self-map")
    c = core(phi.domain)
    return c, c.retraction.compose(phi).compose(c.inclusion)


def is_homotopy_equivalence(phi):
    """Finite-space criterion: the induced core self-map is an order
    automorphism."""
    return automorphism_inverse(_core_self_map(phi)[1]) is not None


def homotopy_inverse(phi):
    """A homotopy inverse of a finite-space homotopy equivalence."""
    c, induced = _core_self_map(phi)
    core_inverse = automorphism_inverse(induced)
    if core_inverse is None:
        raise ValueError("map is not a homotopy equivalence")
    return c.inclusion.compose(core_inverse).compose(c.retraction)

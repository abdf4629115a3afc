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
MAP_SPACE_CAP = 12            # |X| cap for homotopic
SUBSET_SPACE_CAP = 16         # |X| cap for subset-exhaustive operations
FENCE_NODE_CAP = 250_000      # explored maps per fence BFS


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

    ``points`` is an ordered tuple of string labels and ``up[i]`` the
    mask of the points at or above ``points[i]``.  The masks must already
    form a partial order: build a space from label pairs with
    :func:`validate_space`, which checks them.
    """

    __slots__ = ("points", "index", "up", "down", "_upsets", "_core",
                 "_components", "_hash", "_strict_up", "_strict_down")

    def __init__(self, points, up):
        points = tuple(points)
        if not points:
            raise EmptySpace("a finite space needs at least one point")
        n = len(points)
        self.points = points
        self.index = {p: i for i, p in enumerate(points)}
        self.up = tuple(up)
        self.down = tuple(
            sum(1 << i for i in range(n) if self.up[i] >> j & 1)
            for j in range(n)
        )
        self._upsets = None
        self._core = None
        self._components = None
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

    @property
    def components(self):
        """The connected components (of the comparability graph) as
        masks, by least point; computed on the first request."""
        if self._components is None:
            out, rest = [], self.full_mask()
            while rest:
                comp, grown = 0, rest & -rest
                while grown != comp:
                    comp = grown
                    grown = self.up_closure(comp) | self.down_closure(comp)
                out.append(comp)
                rest &= ~comp
            self._components = tuple(out)
        return self._components

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
        up = [
            sum(1 << k for k, j in enumerate(idx) if self.up[i] >> j & 1)
            for i in idx
        ]
        return FiniteSpace(tuple(self.points[i] for i in idx), up), idx

    def relation_pairs(self):
        """The strict order as label pairs [lower, upper]."""
        return [
            (self.points[i], self.points[j])
            for i in range(len(self))
            for j in self._strict_up[i]
        ]


def _bits(mask):
    if mask < 0:
        raise ValueError(f"a mask is a nonnegative int, got {mask}")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits(mask):
    """Indices of the set bits of a mask, ascending."""
    return list(_bits(mask))


def join_labels(names):
    """One label for a set of points: the names joined with ``|``, each
    with ``\\`` written ``\\\\`` and ``|`` written ``\\|``, so distinct
    name lists get distinct labels."""
    return "|".join(str(v).replace("\\", "\\\\").replace("|", "\\|")
                    for v in names)


def validate_space(points, relation_pairs):
    """Build a space from generating pairs [lower, upper].

    Labels must be unique, and the pairs may name only them.  The pairs
    generate the order: the reflexive-transitive closure is taken
    automatically, so the only axiom that can fail is antisymmetry
    (reported with a witness).
    """
    points = tuple(points)
    index = {p: i for i, p in enumerate(points)}
    n = len(points)
    up = [1 << i for i in range(n)]
    for a, b in relation_pairs:
        if a not in index or b not in index:
            raise ValueError(f"relation pair ({a!r}, {b!r}) uses unknown points")
        up[index[a]] |= 1 << index[b]
    if len(index) != n:
        raise ValueError(f"duplicate point labels in {points!r}")
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
    for i in range(n):
        for j in _bits(up[i] & ~(1 << i)):
            if up[j] >> i & 1:
                raise NotAPartialOrder("antisymmetry", (points[i], points[j]))
    return FiniteSpace(points, up)


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


class FenceCertificate:
    """A fence of continuous maps; consecutive maps pointwise comparable.

    A one-element fence witnesses homotopy of a map with itself.  The
    maps may be given as a function that returns them instead: it is
    called on the first read of ``maps``, and its result kept.  The
    certificate re-validates from scratch via :meth:`validate`.
    """

    __slots__ = ("_maps",)

    def __init__(self, maps):
        self._maps = maps if callable(maps) else _fence_maps(maps)

    @property
    def maps(self):
        if callable(self._maps):
            self._maps = _fence_maps(self._maps())
        return self._maps

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


def _fence_maps(maps):
    maps = tuple(maps)
    if not maps:
        raise ValueError("a fence needs at least one map")
    return maps


def concat_fences(*fences):
    maps = []
    for f in fences:
        for m in f.maps:
            if not maps or maps[-1] != m:
                maps.append(m)
    return FenceCertificate(maps)


# -- fence search --------------------------------------------------------


def _mutation_candidates(domain, codomain, images, i):
    """The mask of values v != images[i], comparable to it, that keep
    the map continuous at i.

    Pure mask arithmetic: v must lie below every image of a strict upper
    neighbour and above every image of a strict lower neighbour.
    """
    cur = images[i]
    allowed = (codomain.up[cur] | codomain.down[cur]) & ~(1 << cur)
    if not allowed:
        return 0
    down_c, up_c = codomain.down, codomain.up
    for j in domain._strict_up[i]:
        allowed &= down_c[images[j]]
        if not allowed:
            return 0
    for j in domain._strict_down[i]:
        allowed &= up_c[images[j]]
        if not allowed:
            return 0
    return allowed


def fence_search(start, is_target, *, stage_ok=None, moves=None):
    """BFS for a fence from ``start`` to a map whose image tuple
    satisfies ``is_target``; a set of image tuples passes
    ``targets.__contains__``.

    A move changes one orbit of domain points.  ``moves`` lists one
    ``(i, fixed, translates)`` per orbit: the representative i takes a
    value v of ``_mutation_candidates`` in the mask ``fixed`` (the values
    its stabiliser fixes), and each pair ``(j, g)`` of ``translates``
    sets j to ``g[v]``; on equivariant maps these are the equivariant
    moves (see ``action.G_fence_search``).  The default, one-point
    orbits with every value allowed, makes the single-point mutations to
    a comparable value that keep the map continuous; they generate the
    same components as map comparability, so the search is exact.
    Deterministic: FIFO BFS over the moves in order, values ascending,
    returns the first (shortest, then lexicographically earliest) fence.

    ``stage_ok(images)`` restricts every stage (used for mod
    deformations).  Returns a FenceCertificate or None.
    """
    domain, codomain = start.domain, start.codomain
    cap = FENCE_NODE_CAP
    start_images = start.images
    if stage_ok is not None and not stage_ok(start_images):
        return None
    if is_target(start_images):
        return FenceCertificate([start])
    if moves is None:
        full, ident = codomain.full_mask(), range(len(codomain))
        moves = [(i, full, ((i, ident),)) for i in range(len(domain))]

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
        for nxt in _neighbors(domain, codomain, cur, moves):
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


def _neighbors(domain, codomain, images, moves):
    for i, fixed, translates in moves:
        for v in _bits(_mutation_candidates(domain, codomain, images, i)
                       & fixed):
            lst = list(images)
            for j, g in translates:
                lst[j] = g[v]
            yield tuple(lst)


def homotopic(g1, g2):
    """A fence linking g1 to g2, or None if they are not homotopic."""
    if g1.domain != g2.domain or g1.codomain != g2.codomain:
        raise ValueError("maps must share domain and codomain")
    if len(g1.codomain) > MAP_SPACE_CAP:
        raise SizeCapExceeded(
            f"homotopic: {len(g1.codomain)} points exceed "
            f"lscat.poset.MAP_SPACE_CAP = {MAP_SPACE_CAP}"
        )
    if g1 == g2:
        return FenceCertificate([g1])
    return fence_search(g1, {g2.images}.__contains__)


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


def _find_beat(space, alive_mask, keep):
    """First beat point (index, partner) of the subspace on
    ``alive_mask`` outside ``keep``, in label order, or None."""
    for i in _bits(alive_mask & ~keep):
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


def _collapse(space, mask, keep=0, group=None):
    """Collapse the subspace on ``mask`` to its core inside the space,
    keeping the points of ``keep``.

    Removes the first beat point in label order outside ``keep`` until
    none is left, and returns (core mask, removals): one tuple of (point,
    partner) pairs per removal, all on the space's indices.  The subspace
    keeps the label order, so with ``keep`` empty this is the walk
    ``core`` makes on the subspace.

    ``group``, when given, lists automorphisms of the space (image
    tuples) that leave ``mask`` and ``keep`` invariant, and each removal
    takes the beat point's whole orbit: g(x) goes to g(partner), which is
    well defined because the stabiliser of x fixes its partner.  Every
    translate of a beat point is one, an orbit is an antichain, and the
    partners lie outside it, so sending the orbit to its partners is one
    equivariant stage comparable with the identity.
    """
    removals = []
    while True:
        found = _find_beat(space, mask, keep)
        if found is None:
            return mask, removals
        i, m = found
        stage = (found,) if group is None else tuple(
            {g[i]: g[m] for g in group}.items())
        removals.append(stage)
        for j, _ in stage:
            mask &= ~(1 << j)


def _collapse_stages(domain, codomain, send, removals):
    """The beat-point fence from the map ``send`` (images on the
    codomain): one more stage per removal, sending each removed point to
    its partner, so the last stage lands in the collapsed core."""
    stages = [SpaceMap(domain, codomain, send)]
    for stage in removals:
        partner = dict(stage)
        send = tuple(partner.get(v, v) for v in send)
        stages.append(SpaceMap(domain, codomain, send))
    return FenceCertificate(stages)


def _lift(space, mask, alive, removals, *fences):
    """A fence from the inclusion of ``mask`` into the space, lifted from
    fences on its collapsed core ``alive``: the collapse stages of
    ``removals`` to i o r, then each stage of ``fences`` (maps from the
    core's subspace, the first starting at its inclusion i) composed
    with the retraction r onto the core."""
    sub, parents = space.subspace(mask)
    collapse = _collapse_stages(sub, space, parents, removals)
    to_core = {p: k for k, p in enumerate(_bits(alive))}
    r = SpaceMap(sub, fences[0].start.domain,
                 tuple(to_core[v] for v in collapse.end.images))
    return concat_fences(collapse, *(f.compose_right(r) for f in fences))


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

    A that meets two components of X is not: every stage of a fence
    sends each point into its own component (the degree-0 case of
    McCord's weak equivalence), and a constant map does not, so no
    search runs.  Otherwise runs on cores for speed: A is contractible
    in X iff the conjugated inclusion core(A) -> core(X) is
    fence-connected to a constant.  A is collapsed on the space's masks,
    so deciding builds only core(A) and that one map; when A collapses
    to one point it is contractible and nothing is built.  The
    certificate, when asked for, is a full fence on the original
    inclusion, built from the same collapse.
    """
    if A == 0:
        raise ValueError("contractibility of the empty subset is undefined")
    if any(A & c and A & ~c for c in space.components):
        return False, None
    alive, removals = _collapse(space, A)
    if not with_certificate and alive & (alive - 1) == 0:
        return True, None
    core_x = core(space)
    core_a, idx = space.subspace(alive)
    r_x = core_x.retraction.images
    m0 = SpaceMap(core_a, core_x.core, tuple(r_x[p] for p in idx))
    fence = fence_search(m0, lambda im: len(set(im)) == 1)
    if fence is None:
        return False, None
    if not with_certificate:
        return True, None
    # With rA: A -> core_a the collapse of A, and incl its inclusion:
    #   incl ~ incl o iA o rA ~ (iX o rX) o incl o iA o rA ~ iX o m_k o rA
    full = _lift(space, A, alive, removals,
                 core_x.fence.compose_right(SpaceMap(core_a, space, idx)),
                 fence.compose_left(core_x.inclusion))
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


def is_homotopy_equivalence(phi):
    """Finite-space criterion: the self-map phi induces on the core of
    its domain is an order automorphism."""
    if phi.domain != phi.codomain:
        raise ValueError("expected a self-map")
    c = core(phi.domain)
    induced = c.retraction.compose(phi).compose(c.inclusion)
    return automorphism_inverse(induced) is not None

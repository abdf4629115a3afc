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

    __slots__ = ("points", "index", "up", "down", "_upsets", "_core", "_hash",
                 "_reaches", "_components", "_strict_up", "_strict_down")

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
        self._reaches = {}
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


def _fence_maps(maps):
    maps = tuple(maps)
    if not maps:
        raise ValueError("a fence needs at least one map")
    return maps


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
    moves (see ``_orbit_moves``).  The default, one-point
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


def _orbit_moves(space, group, parents, values):
    """``fence_search``'s moves on the maps that commute with ``group``
    (image tuples; None for the trivial group) from the invariant
    subspace on ``parents`` into the space, with values in the mask
    ``values``: one per orbit, least point p first, where p takes a
    value v fixed by its stabiliser (so g[v] at gp is well defined) and
    gp takes g[v].  An orbit is an antichain, so p's neighbours lie
    outside it and the move keeps the map comparable and continuous at
    every gp when it does at p."""
    local = {p: k for k, p in enumerate(parents)}
    moves, seen = [], set()
    for k, p in enumerate(parents):
        if k in seen:
            continue
        translates, fixed = {}, values
        for g in group or (range(len(space)),):
            translates.setdefault(local[g[p]], g)
            if g[p] == p:
                fixed &= sum(1 << i for i, v in enumerate(g) if v == i)
        seen.update(translates)
        moves.append((k, fixed, tuple(translates.items())))
    return moves


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
    codomain): one more stage per removal that moves an image, sending
    each removed point to its partner, so the last stage lands in the
    collapsed core."""
    stages = [SpaceMap(domain, codomain, send)]
    for stage in removals:
        partner = dict(stage)
        send = tuple(partner.get(v, v) for v in send)
        if send != stages[-1].images:
            stages.append(SpaceMap(domain, codomain, send))
    return FenceCertificate(stages)


def _lift(space, mask, alive, removals, pushes=(), fence=None):
    """The fence from the inclusion of ``mask`` lifted from a fence on
    its collapsed core ``alive``: the stages of ``removals`` to i o r (i
    the core's inclusion, r the retraction onto it), then those of
    ``pushes`` on the images, then each stage of ``fence`` (maps from
    the core, starting at i pushed; None when i is the end) with r."""
    sub, parents = space.subspace(mask)
    collapse = _collapse_stages(sub, space, parents, removals)
    if fence is None:
        return collapse
    to_core = {p: k for k, p in enumerate(_bits(alive))}
    r = SpaceMap(sub, fence.start.domain,
                 tuple(to_core[v] for v in collapse.end.images))
    pushed = _collapse_stages(sub, space, collapse.end.images, pushes)
    # the fence's first stage composed with r is the last pushed stage
    return FenceCertificate(collapse.maps + pushed.maps[1:] + tuple(
        m.compose(r) for m in fence.maps[1:]))


def _deform(space, W, question, keep=0, group=None, hold=0):
    """Does the inclusion of the subset W (a mask) deform, through maps
    that commute with ``group`` (image tuples; None for the trivial
    group), to a map that ``question`` accepts?  A FenceCertificate or
    None.  ``question(W')`` gives ``(is_target, stage_ok)`` on image
    tuples of maps W' -> X, None when nothing is a target, or True when
    the inclusion of W' is one (so nothing is searched).

    W, ``keep`` and ``hold`` must be invariant.  ``_collapse`` takes W to
    its relative core W' keeping ``keep``, and ``_reach`` takes X to X'
    keeping ``hold``; each retraction is G-homotopic to the identity
    through stages that fix what it keeps (Stong, "Group actions on
    finite spaces", 1984), so W deforms exactly when W' followed by
    X -> X' does inside X': to a constant, through an orbit, or into Y
    (mod Y) with Y in ``hold``.  No search runs when the inclusion of W'
    is a target, else one ``fence_search``; the fence is lifted to W
    (``_lift``) when its maps are first read.
    """
    alive, removals = _collapse(space, W, keep, group)
    asked = question(alive)
    if asked is None:
        return None
    fence, pushes = None, ()
    if asked is not True:
        is_target, stage_ok = asked
        parents = tuple(_bits(alive))
        if not is_target(parents):
            reach, pushes, s = _reach(space, hold, group)
            fence = fence_search(
                SpaceMap(space.subspace(alive)[0], space,
                         tuple(s[p] for p in parents)),
                is_target, stage_ok=stage_ok,
                moves=_orbit_moves(space, group, parents, reach))
            if fence is None:
                return None
    return FenceCertificate(
        lambda: _lift(space, W, alive, removals, pushes, fence).maps)


def _reach(space, hold=0, group=None):
    """The relative core of the whole space keeping ``hold``: its mask,
    the ``_collapse`` removals, and the retraction's image of each
    point; computed once per (hold, group) and kept on the space."""
    key = (hold, group)
    if key not in space._reaches:
        alive, removals = _collapse(space, space.full_mask(), hold, group)
        s = range(len(space))
        for stage in removals:
            partner = dict(stage)
            s = tuple(partner.get(v, v) for v in s)
        space._reaches[key] = alive, removals, tuple(s)
    return space._reaches[key]


def core(space):
    """Iteratively remove beat points; returns a CoreResult, computed
    once per space and kept on it."""
    if space._core is None:
        alive, removals, s = _reach(space)
        fence = _collapse_stages(space, space, range(len(space)), removals)
        sub, idx = space.subspace(alive)
        to_core = {p: k for k, p in enumerate(idx)}
        space._core = CoreResult(
            space, sub, SpaceMap(space, sub, tuple(to_core[v] for v in s)),
            SpaceMap(sub, space, idx), fence)
    return space._core


def is_contractible_in(A, space):
    """Is the inclusion of the subset A (a mask) fence-homotopic to a
    constant map into X?  Returns (decision, fence or None).

    A that meets two components of X is not (every fence stage sends
    each point into its own component: the degree-0 case of McCord's
    weak equivalence), and no search runs.  Otherwise ``_deform`` decides
    on the core of A: nothing is built when it is one point, and else
    one fence search runs from its inclusion pushed into the core of X.
    """
    if A == 0:
        raise ValueError("contractibility of the empty subset is undefined")
    if any(A & c and A & ~c for c in space.components):
        return False, None
    fence = _deform(space, A, _to_a_point)
    return fence is not None, fence


def _to_a_point(core):
    """The contractibility question for ``_deform``: the inclusion of a
    one-point core is constant, else constant maps are the targets."""
    return core & (core - 1) == 0 or (_is_constant, None)


def _is_constant(images):
    return len(set(images)) == 1


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

"""Finite simplicial complexes, mod-2 cohomology, cup products.

Coefficients are fixed at Z/2 so no orientation bookkeeping is needed;
the cup product is the ordered (Alexander-Whitney) product with respect
to the sorted vertex order, which computes the cohomology ring of the
realisation on the nose.

A d-cochain is an int bitset: bit i is its value on the i-th simplex of
``simplices_of_dim(d)``. The linear algebra is one GF(2) elimination on
such ints, an echelon keyed by each row's lowest bit. The representative
cocycles ``reps[d]`` are fixed by this rule. Call a d-simplex free when
its coboundary lies in the span of the coboundaries of the d-simplices
before it. Each free simplex gives the one cocycle that is 1 on it and 0
on every other free simplex; taken in simplex order, a cocycle is kept
when it is outside the span of the coboundaries of (d-1)-cochains and
of the cocycles kept before it.
"""

from __future__ import annotations

from itertools import combinations

from .category import _maximal_members, min_cover
from .poset import SizeCapExceeded

COLLAPSE_BUDGET = 50_000  # search nodes per collapse sequence
STAR_VERTEX_CAP = 12      # vertices of a star-cover search


class NotConnected(ValueError):
    pass


class SimplicialComplex:
    """Sorted vertex tuples closed under faces; each vertex a 0-simplex."""

    __slots__ = ("vertices", "simplices", "_by_dim")

    def __init__(self, vertices, simplices):
        vertices = tuple(vertices)
        simplices = [tuple(sorted(s)) for s in simplices]
        for group in (vertices, *simplices):
            if len(set(group)) < len(group):
                v = next(v for i, v in enumerate(group) if v in group[:i])
                raise ValueError(f"repeated vertex {v!r} in {group!r}")
        closed = {(v,) for v in vertices}
        for s in simplices:
            for k in range(1, len(s) + 1):
                closed.update(combinations(s, k))
        for s in closed:
            for v in s:
                if v not in vertices:
                    raise ValueError(f"simplex {s!r} uses unknown vertex {v!r}")
        self.vertices = vertices
        self.simplices = tuple(sorted(closed, key=lambda s: (len(s), s)))
        by_dim = {}
        for s in self.simplices:
            by_dim.setdefault(len(s) - 1, []).append(s)
        self._by_dim = {d: tuple(ss) for d, ss in by_dim.items()}

    @classmethod
    def from_maximal(cls, maximal):
        verts = sorted({v for s in maximal for v in s})
        return cls(verts, maximal)

    def dim(self):
        return max(self._by_dim) if self._by_dim else -1

    def simplices_of_dim(self, d):
        return self._by_dim.get(d, ())

    def f_vector(self):
        return tuple(
            len(self.simplices_of_dim(d)) for d in range(self.dim() + 1)
        )

    def __repr__(self):
        return f"SimplicialComplex(f={self.f_vector()})"

    def induced(self, vertex_subset):
        vs = set(vertex_subset)
        simplices = [s for s in self.simplices if all(v in vs for v in s)]
        return SimplicialComplex(sorted(vs), simplices)


# -- the poset bridge -----------------------------------------------------


def order_complex(space):
    """Chains of the poset as simplices (the McCord bridge)."""
    n = len(space)
    chains = []

    def extend(chain, last):
        chains.append(tuple(chain))
        for j in range(n):
            if j != last and space.leq(last, j) and not space.leq(j, last):
                chain.append(j)
                extend(chain, j)
                chain.pop()

    for i in range(n):
        extend([i], i)
    simplices = [tuple(space.points[i] for i in c) for c in chains]
    return SimplicialComplex(space.points, simplices)


# -- mod-2 cochains and cohomology ----------------------------------------


def _reduce(echelon, row, tag=0):
    """XOR echelon rows into ``row`` until its lowest bit is free.

    ``echelon`` maps a lowest bit to a (row, tag) pair; returns the
    residue and ``tag`` plus the tags of the rows used.
    """
    while row and (row & -row) in echelon:
        r, t = echelon[row & -row]
        row ^= r
        tag ^= t
    return row, tag


def _insert(echelon, row, tag=0):
    """Reduce ``row`` and keep a nonzero residue; returns (residue, tag)."""
    row, tag = _reduce(echelon, row, tag)
    if row:
        echelon[row & -row] = (row, tag)
    return row, tag


class Cochain:
    """A mod-2 cochain: dimension plus a bitset over its simplices."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, complex_, dim, coeffs):
        if not 0 <= coeffs < 1 << len(complex_.simplices_of_dim(dim)):
            raise ValueError("cochain bits outside its simplices")
        self.dim = dim
        self.coeffs = coeffs


def coboundaries(K, d):
    """delta of each d-simplex, as a bitset over the (d+1)-simplices."""
    pos = {s: i for i, s in enumerate(K.simplices_of_dim(d))}
    cols = [0] * len(pos)
    for r, s in enumerate(K.simplices_of_dim(d + 1)):
        for omit in range(len(s)):
            cols[pos[s[:omit] + s[omit + 1:]]] |= 1 << r
    return cols


def cup(K, a, b):
    """Ordered cup product of cochains (front face / back face)."""
    p, q = a.dim, b.dim
    pos_a = {s: i for i, s in enumerate(K.simplices_of_dim(p))}
    pos_b = {s: i for i, s in enumerate(K.simplices_of_dim(q))}
    coeffs = 0
    for r, s in enumerate(K.simplices_of_dim(p + q)):
        if a.coeffs >> pos_a[s[:p + 1]] & b.coeffs >> pos_b[s[p:]] & 1:
            coeffs |= 1 << r
    return Cochain(K, p + q, coeffs)


class CohomologyRing:
    """Mod-2 cohomology: representative cocycles ``reps[d]`` and class
    reduction, both on bitsets."""

    def __init__(self, K):
        self.K = K
        self.reps = {}
        self._echelons = {}
        below = []
        for d in range(K.dim() + 1):
            cols = coboundaries(K, d)
            kernel, cocycles = {}, []
            for i, col in enumerate(cols):
                residue, tag = _insert(kernel, col, 1 << i)
                if not residue:
                    cocycles.append(tag)
            echelon, reps = {}, []
            for b in below:
                _insert(echelon, b)
            for z in cocycles:
                if _insert(echelon, z, 1 << len(reps))[0]:
                    reps.append(z)
            self.reps[d] = reps
            self._echelons[d] = echelon
            below = cols

    def reduce(self, cochain):
        """Coordinates of a cocycle's class, as a bitset over reps[d]."""
        residue, coords = _reduce(self._echelons[cochain.dim], cochain.coeffs)
        if residue:
            raise ValueError("cochain is not a cocycle")
        return coords


def cuplength(K):
    """Largest m with a nonzero m-fold product of positive-degree
    classes; exact via multilinearity over the chosen bases."""
    ring = CohomologyRing(K)
    if len(ring.reps.get(0, ())) > 1:  # rank H^0 counts the components
        raise NotConnected("cup-length needs a connected complex")
    top = K.dim()
    generators = [Cochain(K, d, z)
                  for d in range(1, top + 1) for z in ring.reps[d]]
    # level m: nonzero classes realisable as m-fold products
    level = {(g.dim, ring.reduce(g)): g for g in generators}
    m = 0
    while level:
        m += 1
        nxt = {}
        for (d, _), rep in level.items():
            for g in generators:
                if d + g.dim > top:
                    continue
                prod = cup(K, rep, g)
                coords = ring.reduce(prod)
                if coords:
                    nxt.setdefault((prod.dim, coords), prod)
        level = nxt
    return m


def cuplength_lower_bound(space):
    """1 + mod-2 cup-length of the order complex; a lower bound for cat."""
    return 1 + cuplength(order_complex(space))


# -- collapsibility and star covers ---------------------------------------


def collapse_sequence(K):
    """A sequence of elementary collapses down to a point, or None.

    Greedy free-face collapsing with backtracking up to COLLAPSE_BUDGET
    search nodes; failure to certify within the budget returns None
    (conservative).  A complex with nonzero reduced mod-2 homology is
    not collapsible, so it gets None before any search (``_acyclic``).
    """
    simplices = frozenset(K.simplices)
    nodes = [0]

    def free_pairs(current):
        cofaces = {}
        for s in current:
            if len(s) < 2:
                continue
            for omit in range(len(s)):
                face = s[:omit] + s[omit + 1:]
                cofaces.setdefault(face, []).append(s)
        out = []
        for face, over in cofaces.items():
            if len(over) == 1:
                out.append((face, over[0]))
        out.sort()
        return out

    def rec(current, trail):
        nodes[0] += 1
        if nodes[0] > COLLAPSE_BUDGET:
            return None
        if len(current) == 1:
            return list(trail)
        pairs = free_pairs(current)
        if not pairs:
            return None
        for face, over in pairs:
            nxt = current - {face, over}
            trail.append((face, over))
            got = rec(nxt, trail)
            if got is not None:
                return got
            trail.pop()
            if nodes[0] > COLLAPSE_BUDGET:
                return None
        return None

    if len(simplices) == 1:
        return []
    if not _acyclic(K):
        return None
    return rec(simplices, [])


def _acyclic(K):
    """Whether K has zero reduced mod-2 homology: one class in degree 0
    and none above (mod-2 cohomology has the same ranks), which the
    empty complex, with no class at all, fails."""
    return sum(map(len, CohomologyRing(K).reps.values())) == 1


def star_cover_upper_bound(K):
    """Minimal number of open vertex-star unions, each with collapsible
    induced span, covering the realisation.

    The union of the open stars of S deformation-retracts to the full
    subcomplex on S, so a collapsibility certificate for K[S] certifies
    contractibility of the union; covering the realisation is equivalent
    to the S's jointly containing every vertex.
    """
    nv = len(K.vertices)
    if nv > STAR_VERTEX_CAP:
        raise SizeCapExceeded(
            f"star_cover_upper_bound: {nv} vertices exceed "
            f"lscat.simplicial.STAR_VERTEX_CAP = {STAR_VERTEX_CAP}"
        )

    def span(mask):
        return tuple(v for k, v in enumerate(K.vertices) if mask >> k & 1)

    kept = _maximal_members(range(1, 1 << nv),
                            lambda m: collapse_sequence(K.induced(span(m))))
    cover = min_cover((1 << nv) - 1, kept)
    assert cover is not None  # a single vertex spans a collapsible point
    return len(cover), [{"vertices": span(m), "collapse": kept[m]}
                        for m in cover]

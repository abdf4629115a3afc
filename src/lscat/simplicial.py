"""Finite simplicial complexes, mod-2 cohomology, cup products.

Coefficients are fixed at Z/2 so no orientation bookkeeping is needed;
the cup product is the ordered (Alexander-Whitney) product with respect
to the sorted vertex order, which computes the cohomology ring of the
realisation on the nose.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .poset import SizeCapExceeded, validate_space

COLLAPSE_BUDGET = 50_000  # search nodes per collapse sequence
STAR_VERTEX_CAP = 12      # vertices of a star-cover search


class NotConnected(ValueError):
    pass


class SimplicialComplex:
    """Simplices as sorted vertex tuples, closed under taking faces."""

    __slots__ = ("vertices", "simplices", "_by_dim")

    def __init__(self, vertices, simplices):
        vertices = tuple(vertices)
        closed = set()
        for s in simplices:
            s = tuple(sorted(s))
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

    def is_connected(self):
        verts = list(self.vertices)
        if not verts:
            return True
        pos = {v: i for i, v in enumerate(verts)}
        parent = list(range(len(verts)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.simplices_of_dim(1):
            ra, rb = find(pos[a]), find(pos[b])
            if ra != rb:
                parent[ra] = rb
        return len({find(i) for i in range(len(verts))}) == 1

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


def face_poset(K):
    """Simplices ordered by inclusion, with the up-set topology."""
    labels = ["|".join(map(str, s)) for s in K.simplices]
    pairs = []
    for i, s in enumerate(K.simplices):
        for j, t in enumerate(K.simplices):
            if i != j and set(s) < set(t):
                pairs.append([labels[i], labels[j]])
    return validate_space(labels, pairs)


# -- mod-2 linear algebra --------------------------------------------------


def _rref2(A):
    """Row-reduce a GF(2) matrix; returns (reduced copy, pivot columns)."""
    A = A.copy() % 2
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        sel = None
        for rr in range(r, rows):
            if A[rr, c]:
                sel = rr
                break
        if sel is None:
            continue
        A[[r, sel]] = A[[sel, r]]
        for rr in range(rows):
            if rr != r and A[rr, c]:
                A[rr] ^= A[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots


def _rank2(A):
    if A.size == 0:
        return 0
    return len(_rref2(A)[1])


def _nullspace2(A):
    """Basis of the GF(2) kernel, as rows."""
    rows, cols = A.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.uint8)
    if rows == 0:
        return np.eye(cols, dtype=np.uint8)
    R, pivots = _rref2(A)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(cols, dtype=np.uint8)
        v[f] = 1
        for r, c in enumerate(pivots):
            if R[r, f]:
                v[c] = 1
        basis.append(v)
    return np.array(basis, dtype=np.uint8) if basis else np.zeros(
        (0, cols), dtype=np.uint8
    )


def _solve2(A, b):
    """One solution of Ax=b over GF(2), or None."""
    rows, cols = A.shape
    aug = np.concatenate([A % 2, (b % 2).reshape(-1, 1)], axis=1)
    R, pivots = _rref2(aug)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for r, c in enumerate(pivots):
        x[c] = R[r, cols]
    return x


class Cochain:
    """A mod-2 cochain: dimension plus a coefficient per simplex."""

    __slots__ = ("complex", "dim", "coeffs")

    def __init__(self, complex_, dim, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.uint8) % 2
        if len(coeffs) != len(complex_.simplices_of_dim(dim)):
            raise ValueError("coefficient vector length mismatch")
        self.complex = complex_
        self.dim = dim
        self.coeffs = coeffs


def coboundary_matrix(K, d):
    """delta: C^d -> C^{d+1} over GF(2); rows = (d+1)-simplices."""
    lower = K.simplices_of_dim(d)
    upper = K.simplices_of_dim(d + 1)
    pos = {s: i for i, s in enumerate(lower)}
    M = np.zeros((len(upper), len(lower)), dtype=np.uint8)
    for r, s in enumerate(upper):
        for omit in range(len(s)):
            face = s[:omit] + s[omit + 1:]
            M[r, pos[face]] ^= 1
    return M


def cup(K, a, b):
    """Ordered cup product of cochains (front face / back face)."""
    p, q = a.dim, b.dim
    out_simplices = K.simplices_of_dim(p + q)
    pos_a = {s: i for i, s in enumerate(K.simplices_of_dim(p))}
    pos_b = {s: i for i, s in enumerate(K.simplices_of_dim(q))}
    coeffs = np.zeros(len(out_simplices), dtype=np.uint8)
    for r, s in enumerate(out_simplices):
        front = s[: p + 1]
        back = s[p:]
        coeffs[r] = a.coeffs[pos_a[front]] & b.coeffs[pos_b[back]]
    return Cochain(K, p + q, coeffs)


class CohomologyRing:
    """Cached mod-2 cohomology bases with class reduction."""

    def __init__(self, K):
        self.K = K
        self.deltas = {
            d: coboundary_matrix(K, d) for d in range(K.dim() + 1)
        }
        self.bases = {}
        for d in range(K.dim() + 1):
            self.bases[d] = self._basis(d)

    def _basis(self, d):
        n_d = len(self.K.simplices_of_dim(d))
        delta_up = self.deltas.get(d)
        if delta_up is None or delta_up.size == 0:
            cocycles = np.eye(n_d, dtype=np.uint8)
        else:
            cocycles = _nullspace2(delta_up)
        if d == 0:
            boundaries = np.zeros((0, n_d), dtype=np.uint8)
        else:
            below = self.deltas[d - 1]
            boundaries = (below @ np.eye(below.shape[1], dtype=np.uint8) % 2).T
        # extend a basis of the boundary space to the cocycle space
        chosen = []
        stack = boundaries.copy()
        base_rank = _rank2(stack)
        for z in cocycles:
            trial = np.concatenate([stack, z.reshape(1, -1)], axis=0)
            if _rank2(trial) > _rank2(stack):
                stack = trial
                chosen.append(z)
        self_rank = len(chosen)
        return {
            "boundaries": boundaries,
            "reps": np.array(chosen, dtype=np.uint8).reshape(self_rank, n_d),
            "rank": self_rank,
            "base_rank": base_rank,
        }

    def betti(self, d):
        return self.bases.get(d, {"rank": 0})["rank"]

    def reduce(self, cochain):
        """Coordinates of a cocycle's class in the chosen H^d basis."""
        d = cochain.dim
        info = self.bases[d]
        span = np.concatenate([info["boundaries"], info["reps"]], axis=0)
        if span.shape[0] == 0:
            return np.zeros(0, dtype=np.uint8)
        x = _solve2(span.T, cochain.coeffs)
        if x is None:
            raise ValueError("cochain is not a cocycle")
        return x[info["boundaries"].shape[0]:]


def cuplength(K):
    """Largest m with a nonzero m-fold product of positive-degree
    classes; exact via multilinearity over the chosen bases."""
    if not K.is_connected():
        raise NotConnected("cup-length needs a connected complex")
    ring = CohomologyRing(K)
    top = K.dim()
    generators = []
    for d in range(1, top + 1):
        for row in ring.bases[d]["reps"]:
            generators.append(Cochain(K, d, row))
    if not generators:
        return 0
    # level m: nonzero classes realisable as m-fold products
    level = {}
    for g in generators:
        coords = ring.reduce(g)
        if coords.any():
            level[(g.dim, tuple(coords))] = g
    m = 1 if level else 0
    while level:
        nxt = {}
        for (d, _), rep in level.items():
            for g in generators:
                if d + g.dim > top:
                    continue
                prod = cup(K, rep, g)
                coords = ring.reduce(prod)
                if coords.any():
                    key = (prod.dim, tuple(coords))
                    if key not in nxt:
                        nxt[key] = prod
        if not nxt:
            break
        level = nxt
        m += 1
    return m


# -- collapsibility and star covers ---------------------------------------


def collapse_sequence(K):
    """A sequence of elementary collapses down to a point, or None.

    Greedy free-face collapsing with backtracking up to COLLAPSE_BUDGET
    search nodes; failure to certify within the budget returns None
    (conservative).
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
    return rec(simplices, [])


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
    from .category import _maximal_members, min_cover

    def span(mask):
        return tuple(v for k, v in enumerate(K.vertices) if mask >> k & 1)

    kept = _maximal_members(range(1, 1 << nv),
                            lambda m: collapse_sequence(K.induced(span(m))))
    cover = min_cover((1 << nv) - 1, kept)
    assert cover is not None  # a single vertex spans a collapsible point
    return len(cover), [{"vertices": span(m), "collapse": kept[m]}
                        for m in cover]

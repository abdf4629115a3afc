"""Independent brute-force oracles.

These deliberately avoid the production code paths: contractibility is
decided on the fully materialised hom-set by the components of its
comparability graph (no cores, no lazy search), minimal covers are found by enumerating
subsets of the candidates in increasing size (no union-closure table), the
discrete Palais-Smale condition is checked on every subset, mod-2
cohomology is numpy row reduction with a rank test per cocycle and
cup-length tries every product of its representatives, a complex is
connected when union-find over its edges leaves one class,
the numeric flow is a plain RK4 loop over the original all-numpy
truncation profile, and the Palais-Smale chain is the all-numpy block
integration that recomputes every gradient, with a start-point
bisection that flows every trial radius anew for each n.  The sampled
axiom check draws with ``getrandbits`` over a truncated index cached at
two levels, on (A, Y) and on the saturated key, with its own cover
queries.  Equivariant fence moves write every translate of a candidate
value and re-check stabiliser clashes, comparability and continuity
pair by pair with ``leq`` (no stabiliser fixed masks), and a
deformation is decided by walking every map those moves reach.  The
targets an equivariant categorical set may factor through are assigned
orbit by orbit of comparability components, union-find on ``comparable``
pairs, with every translate written and checked against earlier writes.
The order facts of a space are read pair by pair with ``leq``: its
opens filter all 2^n masks, its down-sets and strict neighbours list
the points below or above each point, a map's order check walks every
pair in row-major order, the order a relation generates is a fixpoint
of repeated passes, and orbits and saturations loop over the group
elements.
"""

import itertools
import random
from collections import deque
from itertools import combinations

import numpy as np

from lscat.action import HomogeneousClass
from lscat.category import CatQuery, cover_category
from lscat.poset import FenceCertificate, SpaceMap, _orbit_moves, bits


def comparable(space, i, j):
    return space.leq(i, j) or space.leq(j, i)


def oracle_up_sets(space):
    """Every open as a mask, ascending: the 2^n masks m in which i in m
    and i <= j put j in m."""
    n = len(space)
    return [m for m in range(1 << n)
            if all(m >> j & 1 for i in range(n) if m >> i & 1
                   for j in range(n) if space.leq(i, j))]


def oracle_down(space):
    """down[j], the mask of the points i <= j, for every j."""
    n = len(space)
    return tuple(sum(1 << i for i in range(n) if space.leq(i, j))
                 for j in range(n))


def oracle_strict_neighbours(space):
    """(strict_up, strict_down): for every point, the indices strictly
    above and strictly below it, ascending."""
    n = len(space)
    return (tuple(tuple(j for j in range(n) if j != i and space.leq(i, j))
                  for i in range(n)),
            tuple(tuple(j for j in range(n) if j != i and space.leq(j, i))
                  for i in range(n)))


def oracle_order_violation(domain, codomain, images):
    """The message for the first pair (i, j) in row-major order with
    i <= j but images[i] !<= images[j]; None when the image tuple is
    order-preserving."""
    for i in range(len(domain)):
        for j in range(len(domain)):
            if domain.leq(i, j) and not codomain.leq(images[i], images[j]):
                return ("not order-preserving: "
                        f"{domain.points[i]} <= {domain.points[j]} but "
                        f"{codomain.points[images[i]]} !<= "
                        f"{codomain.points[images[j]]}")
    return None


def oracle_generated_order(points, relation_pairs):
    """The reflexive-transitive closure of the pairs as up-masks, by
    passes that add the up-set of every point above until none changes,
    and the antisymmetry witness: the first (i, j) in row-major order
    with i != j, i <= j and j <= i, as labels (None when there is
    none)."""
    index = {p: i for i, p in enumerate(points)}
    n = len(points)
    up = [{i} for i in range(n)]
    for a, b in relation_pairs:
        up[index[a]].add(index[b])
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grown = set(up[i])
            for j in up[i]:
                grown |= up[j]
            if grown != up[i]:
                up[i], changed = grown, True
    witness = next(((points[i], points[j]) for i in range(n)
                    for j in range(n) if i != j and j in up[i]
                    and i in up[j]), None)
    return [sum(1 << j for j in row) for row in up], witness


def oracle_orbit_masks(action):
    """Each point's orbit, as the mask of its images under every group
    element."""
    return tuple(sum(1 << v for v in {g[i] for g in action.elements})
                 for i in range(len(action.space)))


def oracle_saturate(action, A):
    """GA: the images of the points of A under every group element."""
    return sum(1 << v for v in {g[i] for g in action.elements
                                for i in range(len(action.space))
                                if A >> i & 1})


def all_order_preserving_maps(domain, codomain):
    n = len(domain)
    out = []

    def rec(images):
        k = len(images)
        if k == n:
            out.append(tuple(images))
            return
        for v in range(len(codomain)):
            ok = True
            for j in range(k):
                if domain.leq(j, k) and not codomain.leq(images[j], v):
                    ok = False
                    break
                if domain.leq(k, j) and not codomain.leq(v, images[j]):
                    ok = False
                    break
            if ok:
                rec(images + [v])

    rec([])
    return out


def hom_components(maps):
    """Union-find components of a materialised hom-set under single-point
    moves to a comparable value; they agree with fence components."""
    index = {m.images: k for k, m in enumerate(maps)}
    parent = list(range(len(maps)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k, m in enumerate(maps):
        cod = m.codomain
        for i, cur in enumerate(m.images):
            for v in range(len(cod)):
                if v == cur or not comparable(cod, v, cur):
                    continue
                k2 = index.get(m.images[:i] + (v,) + m.images[i + 1:])
                if k2 is not None:
                    ra, rb = find(k), find(k2)
                    if ra != rb:
                        parent[ra] = rb
    groups = {}
    for k, m in enumerate(maps):
        groups.setdefault(find(k), []).append(m)
    return list(groups.values())


def oracle_orbit_context(action, domain_parent_indices):
    """(orbits, act) for ``oracle_orbit_neighbors``: the orbits of an
    invariant domain as domain-local index tuples, and the element
    table with the domain's parent indices."""
    dom_index = {p: k for k, p in enumerate(domain_parent_indices)}
    seen = set()
    orbits = []
    for k, p in enumerate(domain_parent_indices):
        if k in seen:
            continue
        orb = sorted(set(dom_index[g[p]] for g in action.elements))
        seen.update(orb)
        orbits.append(tuple(orb))
    act = (action.elements, tuple(domain_parent_indices), dom_index)
    return tuple(orbits), act


def oracle_orbit_neighbors(domain, codomain, images, orbits, act):
    """Whole-orbit fence moves of an equivariant map, in BFS order."""
    # Equivariant: mutate one domain orbit; images on the orbit are the
    # group translates of the representative's new value.
    elements, parent_of, dom_index = act
    for orbit in orbits:
        rep = orbit[0]
        cur = images[rep]
        cand_mask = (codomain.up[cur] | codomain.down[cur]) & ~(1 << cur)
        for v in bits(cand_mask):
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
                if not comparable(codomain, vi, images[i]):
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


def oracle_G_fence(start, action, is_target, stage_ok=None):
    """The reference BFS with whole-orbit moves: the first shortest fence
    of equivariant maps (``oracle_orbit_neighbors``) from ``start``, a
    map into the action's space from the space or an invariant subspace,
    through stages that pass ``stage_ok`` to a map whose image tuple
    passes ``is_target``; a FenceCertificate, or None.  It walks every
    map those moves reach, with no core, no cap and no component rule."""
    space, domain = action.space, start.domain
    orbits, act = oracle_orbit_context(
        action, [space.index[p] for p in domain.points])
    if stage_ok is not None and not stage_ok(start.images):
        return None
    parent = {start.images: None}
    queue = deque([start.images])
    while queue:
        images = queue.popleft()
        if is_target(images):
            chain = []
            while images is not None:
                chain.append(SpaceMap(domain, space, images))
                images = parent[images]
            return FenceCertificate(chain[::-1])
        for new in oracle_orbit_neighbors(domain, space, images, orbits,
                                          act):
            if new not in parent and (stage_ok is None or stage_ok(new)):
                parent[new] = images
                queue.append(new)
    return None


def point_moves(space):
    """``fence_search``'s moves on the self-maps of ``space`` for the
    trivial group: every point alone, with every value allowed."""
    return _orbit_moves(space, None, tuple(range(len(space))),
                        space.full_mask())


def oracle_G_deformation(action, W, is_target, stage_ok=None):
    """Whether ``oracle_G_fence`` leads the inclusion of the invariant W
    to a target."""
    sub, idx = action.space.subspace(W)
    return oracle_G_fence(SpaceMap(sub, action.space, idx), action,
                          is_target, stage_ok) is not None


# The factoring targets of an equivariant categorical set, as first
# written: orbit-by-orbit coset assignment with a consistency check.

def _comparability_components(sub):
    n = len(sub)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if comparable(sub, i, j):
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[ra] = rb
    comps = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    return [tuple(sorted(c)) for c in sorted(comps.values())]


def oracle_factor_targets(mask, action, klass):
    """All composite maps (through an admissible G/H) as image tuples.

    A factoring map is constant on comparability components of the
    domain, equivariant, with values g.x0 for a point x0 fixed by H; the
    coset assignment must absorb each component's setwise stabiliser.
    """
    space = action.space
    sub, parents = space.subspace(mask)
    comps = _comparability_components(sub)
    comp_of = {}
    for c, comp in enumerate(comps):
        for k in comp:
            comp_of[frozenset(parents[k] for k in comp)] = c
    comp_parent_sets = [frozenset(parents[k] for k in comp) for comp in comps]

    def component_image(g, c):
        moved = frozenset(g[p] for p in comp_parent_sets[c])
        return comp_of[moved]

    # orbits of components
    comp_orbit = {}
    orbit_reps = []
    for c in range(len(comps)):
        if c in comp_orbit:
            continue
        orbit_reps.append(c)
        for k, g in enumerate(action.elements):
            comp_orbit.setdefault(component_image(g, c), c)
    setwise = {
        c: [k for k, g in enumerate(action.elements) if component_image(g, c) == c]
        for c in orbit_reps
    }

    targets = set()
    for H in klass.subgroup_list:
        coset_reps = _coset_reps(action, H)
        for x0 in bits(action.fixed_mask(H)):
            choices = []
            for c in orbit_reps:
                valid = []
                for gamma in coset_reps:
                    gi = action.inverse(gamma)
                    if all(
                        action.compose(action.compose(gi, s), gamma) in H
                        for s in setwise[c]
                    ):
                        valid.append(gamma)
                choices.append(valid)
            if any(not v for v in choices):
                continue
            for assign in itertools.product(*choices):
                images = [None] * len(parents)
                ok = True
                for c, gamma in zip(orbit_reps, assign):
                    base = action.elements[gamma][x0]
                    for k, g in enumerate(action.elements):
                        c2 = component_image(g, c)
                        val = g[base]
                        for local in comps[c2]:
                            cur = images[local]
                            if cur is not None and cur != val:
                                ok = False
                                break
                            images[local] = val
                        if not ok:
                            break
                    if not ok:
                        break
                if ok and all(v is not None for v in images):
                    targets.add(tuple(images))
    return sorted(targets)


def _coset_reps(action, H):
    seen = set()
    reps = []
    for k in range(len(action.elements)):
        coset = frozenset(action.compose(k, h) for h in H)
        if coset not in seen:
            seen.add(coset)
            reps.append(k)
    return reps


def oracle_contractible(space, mask):
    """Inclusion of the subspace lies in a component with a constant.

    The components are those of the comparability graph on the whole
    hom-set (maps pointwise <= one way or the other), grown from the
    inclusion one neighbourhood at a time.
    """
    sub, idx = space.subspace(mask)
    maps = np.array(all_order_preserving_maps(sub, space))
    n = len(space)
    leq = np.array([[space.leq(a, b) for b in range(n)] for a in range(n)])
    le = np.ones((len(maps), len(maps)), dtype=bool)
    for col in maps.T:
        le &= leq[col[:, None], col[None, :]]
    adjacent = le | le.T
    reach = (maps == np.array(idx)).all(axis=1)
    while True:
        grown = reach | adjacent[reach].any(axis=0)
        if (grown == reach).all():
            break
        reach = grown
    constant = (maps == maps[:, :1]).all(axis=1)
    return bool((reach & constant).any())


def oracle_relative_G_core(action, W, keep):
    """The mask left of the invariant W after removing, while one is
    left, the first point x outside ``keep`` (in label order) whose
    strictly larger points in what is left have a least element, or whose
    strictly smaller points have a greatest, together with its orbit."""
    space = action.space
    alive = [i for i in range(len(space)) if W >> i & 1]

    def has_least(pts):
        return any(all(space.leq(m, p) for p in pts) for m in pts)

    def has_greatest(pts):
        return any(all(space.leq(p, m) for p in pts) for m in pts)

    while True:
        for x in alive:
            if keep >> x & 1:
                continue
            above = [y for y in alive if y != x and space.leq(x, y)]
            below = [y for y in alive if y != x and space.leq(y, x)]
            if (above and has_least(above)) or (
                    below and has_greatest(below)):
                orbit = {g[x] for g in action.elements}
                alive = [y for y in alive if y not in orbit]
                break
        else:
            return sum(1 << i for i in alive)


def oracle_catalog(space):
    return [
        m for m in space.up_sets()
        if m and oracle_contractible(space, m)
    ]


def oracle_min_cover(target, candidates):
    """Fewest candidates whose union contains target, by enumerating
    subsets in increasing size; None when no subset does."""
    for k in range(len(candidates) + 1):
        for combo in combinations(candidates, k):
            union = 0
            for m in combo:
                union |= m
            if target & ~union == 0:
                return list(combo)
    return None


def oracle_cat(space, A_mask=None):
    """Minimal categorical cover by exhaustive subset enumeration."""
    if A_mask is None:
        A_mask = space.full_mask()
    cover = oracle_min_cover(A_mask, oracle_catalog(space))
    return None if cover is None else len(cover)  # None: no finite cover


def oracle_palais_smale(pair):
    """The discrete Palais-Smale condition on every nonempty subset S,
    enumerated: the decrement f - f o phi is nonnegative on S, and a zero
    minimum on S is attained at a fixed point of S (so one lies in the
    closure of S).  Returns (holds, the labels of the first failing S in
    mask order, or None).
    """
    space, images, f = pair.space, pair.phi.images, pair.f
    for S in range(1, space.full_mask() + 1):
        idx = [i for i in range(len(space)) if S >> i & 1]
        gap = min(f[i] - f[images[i]] for i in idx)
        if gap < 0 or gap == 0 and not any(
                images[i] == i and f[i] == f[images[i]] for i in idx):
            return False, space.labels(S)
    return True, None


# -- mod-2 cohomology: numpy row reductions on uint8 arrays --------------


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


def oracle_coboundary_matrix(K, d):
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


class OracleCohomologyRing:
    """Mod-2 cohomology bases from numpy row reductions: the nullspace of
    delta, extended over the boundaries by a rank test per cocycle."""

    def __init__(self, K):
        self.K = K
        self.deltas = {
            d: oracle_coboundary_matrix(K, d) for d in range(K.dim() + 1)
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
        }

    def betti(self, d):
        return self.bases.get(d, {"rank": 0})["rank"]

    def reduce(self, d, coeffs):
        """Coordinates of a d-cocycle's class in the chosen H^d basis."""
        info = self.bases[d]
        span = np.concatenate([info["boundaries"], info["reps"]], axis=0)
        if span.shape[0] == 0:
            return np.zeros(0, dtype=np.uint8)
        x = _solve2(span.T, coeffs)
        if x is None:
            raise ValueError("cochain is not a cocycle")
        return x[info["boundaries"].shape[0]:]


def bitset_rows(bitsets, n):
    """Int bitsets as the rows of a uint8 array with n columns."""
    return np.array([[b >> i & 1 for i in range(n)] for b in bitsets],
                    dtype=np.uint8).reshape(len(bitsets), n)


def oracle_cup(K, p, a, q, b):
    """Front-face/back-face product of a p- and a q-cochain (uint8 rows)."""
    lower_a = K.simplices_of_dim(p)
    lower_b = K.simplices_of_dim(q)
    return np.array([a[lower_a.index(s[:p + 1])] & b[lower_b.index(s[p:])]
                     for s in K.simplices_of_dim(p + q)], dtype=np.uint8)


def oracle_cuplength(K, ring=None):
    """The largest m such that a product of m positive-degree reference reps
    has a nonzero class, deciding each class with the numpy solve.  Every
    product is tried, in every order; a product with a zero class is not
    extended, since its multiples have zero classes too.  ``ring`` is K's
    ``OracleCohomologyRing`` when the caller has built it already."""
    ring = ring or OracleCohomologyRing(K)
    top = K.dim()
    gens = [(d, z) for d in range(1, top + 1) for z in ring.bases[d]["reps"]]
    m, products = 0, gens
    while True:
        products = [(d, z) for d, z in products if ring.reduce(d, z).any()]
        if not products:
            return m
        m += 1
        products = [(d + e, oracle_cup(K, d, z, e, w))
                    for d, z in products for e, w in gens if d + e <= top]


def oracle_is_connected(K):
    """Whether K's vertices form one class under its edges, by union-find;
    the empty complex counts as connected."""
    verts = list(K.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    parent = list(range(len(verts)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in K.simplices_of_dim(1):
        parent[find(pos[a])] = find(pos[b])
    return len({find(i) for i in range(len(verts))}) <= 1


def oracle_truncation_g(x):
    """The truncation profile as numpy expressions only, for any input.
    One value takes numpy's float64 scalar arithmetic, which is what the
    array expressions reduce to on a 0-d input after ``np.clip``: on
    (1, 2) the clip keeps x - 1.0, and a NaN fails every comparison and
    stays NaN."""
    if np.ndim(x) == 0:
        x = np.float64(x)
        if x < 0:
            raise ValueError("the truncation profile takes nonnegative input")
        if x <= 1.0:
            return 1.0
        if x >= 2.0:
            return float(x)
        t = x - 1.0
        return float(-t**3 + 2.0 * t**2 + 1.0)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("the truncation profile takes nonnegative input")
    t = np.clip(x - 1.0, 0.0, 1.0)
    middle = -t**3 + 2.0 * t**2 + 1.0
    out = np.where(x <= 1.0, 1.0, np.where(x >= 2.0, x, middle))
    return out if out.shape else float(out)


class _Outside(Exception):
    pass


def oracle_flow(field, m, tau, n):
    """RK4 states of the capped descent flow over n steps of tau/n, and the
    time the trajectory left the domain (None when it stayed inside)."""
    h = tau / n

    def V(p):
        if not field.domain(p):
            raise _Outside
        g = np.asarray(field.grad(p), dtype=float)
        return -g / oracle_truncation_g(float(np.linalg.norm(g)))

    states = [np.asarray(m, dtype=float)]
    for k in range(n):
        p = states[-1]
        try:
            k1 = V(p)
            k2 = V(p + 0.5 * h * k1)
            k3 = V(p + 0.5 * h * k2)
            k4 = V(p + h * k3)
        except _Outside:
            return np.array(states), (k + 1) * h
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not field.domain(p):
            return np.array(states), (k + 1) * h
        states.append(p)
    return np.array(states), None


def oracle_default_family(field, tau, ns):
    """Start points with drop below 0.9 tau/n by radial bisection, each
    trial radius flowed anew for each n over 200 steps."""
    direction = np.zeros(field.dim)
    direction[0] = 1.0
    family = []
    for n in ns:
        budget = tau / n
        r = 1.0
        for _ in range(80):
            p = r * direction
            if field.domain(p):
                states, t_exit = oracle_flow(field, p, tau, 200)
                if (t_exit is None
                        and field.f(p) - field.f(states[-1]) < budget * 0.9):
                    break
            r *= 0.5
        else:
            raise AssertionError(f"no start point for n={n}")
        family.append(p)
    return family


def _oracle_aitken(orbit):
    z0, z1, z2 = (np.asarray(z, dtype=float) for z in orbit[-3:])
    denom = z2 - 2.0 * z1 + z0
    num = (z2 - z1) ** 2
    safe = np.abs(denom) > 1e-300
    out = z2.copy()
    out[safe] = z2[safe] - num[safe] / denom[safe]
    return out


def oracle_verify_prop_app(field, tau, steps, n_max):
    """The Palais-Smale chain report on the default family, all numpy:
    the start points move as one block of rows through RK4 with steps
    of tau/steps, every gradient is recomputed where it is needed, and
    the rest point is the Aitken limit of 30 flow horizons."""
    ns = []
    n = 1
    while n <= n_max:
        ns.append(n)
        n *= 10
    if ns[-1] != n_max:
        ns.append(n_max)
    pts = np.asarray(oracle_default_family(field, tau, ns), dtype=float)
    c_bound = max(abs(field.f(p)) for p in pts)
    h = tau / steps
    state = pts.copy()
    alive = np.ones(len(ns), dtype=bool)
    found_t = np.full(len(ns), -1.0)
    found_state = pts.copy()
    lengths = np.zeros(len(ns))
    thresholds = 1.0 / np.asarray(ns, dtype=float)

    def gradnorm2(block):
        g = np.asarray([field.grad(m) for m in block], dtype=float)
        return (g * g).sum(axis=1)

    def V(block):
        g = np.asarray([field.grad(m) for m in block], dtype=float)
        norms = np.linalg.norm(g, axis=1)
        return -g / oracle_truncation_g(norms)[:, None]

    live = gradnorm2(state) >= thresholds
    found_t[~live] = 0.0
    for k in range(steps):
        k1 = V(state)
        k2 = V(state + 0.5 * h * k1)
        k3 = V(state + 0.5 * h * k2)
        k4 = V(state + h * k3)
        nxt = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        speeds = np.linalg.norm(k1, axis=1)
        inside = np.array([field.domain(m) for m in nxt])
        step_mask = alive & inside
        lengths[live & step_mask] += speeds[live & step_mask] * h
        state = np.where(step_mask[:, None], nxt, state)
        alive &= inside
        g2 = gradnorm2(state)
        newly = live & step_mask & (g2 < thresholds)
        found_t[newly] = (k + 1) * h
        found_state[newly] = state[newly]
        live &= ~newly
    results = []
    for idx, n in enumerate(ns):
        drop = field.f(pts[idx]) - field.f(state[idx])
        hit = found_t[idx] >= 0
        b_n = found_state[idx] if hit else state[idx]
        results.append({
            "n": int(n),
            "drop": float(drop),
            "drop_budget": tau / n,
            "drop_ok": bool(drop < tau / n + 1e-12),
            "gradient_time": float(found_t[idx]) if hit else None,
            "gradient_ok": bool(hit),
            "value_bound_ok": bool(abs(field.f(b_n)) <= c_bound + tau + 1e-9),
            "path_length": float(lengths[idx]),
            "path_budget": float(tau / np.sqrt(n)),
            "path_ok": bool(lengths[idx] <= 1.1 * tau / np.sqrt(n)),
            "stayed_in_domain": bool(alive[idx]),
        })
    chain_ok = all(
        r["drop_ok"] and r["gradient_ok"] and r["value_bound_ok"]
        and r["path_ok"] and r["stayed_in_domain"]
        for r in results
    )
    accumulation = state[-1]
    limit = accumulation
    moved = float("inf")
    inside = bool(alive[-1])
    if inside:
        orbit = [accumulation]
        for _ in range(30):
            states, t_exit = oracle_flow(field, orbit[-1], tau, steps)
            if t_exit is not None:
                inside = False
                break
            orbit.append(states[-1])
        else:
            limit = _oracle_aitken(orbit)
            if field.domain(limit):
                states, t_exit = oracle_flow(field, limit, tau, steps)
                if t_exit is None:
                    moved = float(np.linalg.norm(limit - states[-1]))
                else:
                    inside = False
            else:
                inside = False
    scale = 1e-6 * (1.0 + float(np.linalg.norm(limit)))
    at_rest = (np.isfinite(scale) and moved <= scale
               and float(np.linalg.norm(field.grad(limit))) <= scale)
    return {
        "tau": tau,
        "chain_ok": bool(chain_ok),
        "results": results,
        "accumulation": list(map(float, accumulation)),
        "rest_point_estimate": list(map(float, limit)),
        "rest_point_in_domain": inside,
        "rest_point_moved": moved,
        "conclusion_ok": bool(inside and at_rest),
    }


def oracle_truncated_index(kind, cap, action):
    """The truncated index as a plain function, cached at two levels: on
    (A, Y), over a memo on the saturated key (GA,) or (GA, GY)."""
    space = action.space
    klass = HomogeneousClass.default(action)
    memo = {}
    cache = {}

    def value(A, Y):
        GA = action.saturate(A)
        if GA == 0:
            return 0
        key = (GA,) if kind == "category" else (GA, action.saturate(Y))
        if key not in memo:
            if kind == "category":
                query = CatQuery(space, A=GA, action=action, klass=klass)
            else:
                mode = "pair" if kind == "pair_category" else "mod"
                query = CatQuery(space, A=GA, Y=key[1], mode=mode,
                                 action=action, klass=klass)
            memo[key] = min(cover_category(query).value, cap)
        return memo[key]

    def nu(A, Y=0):
        if (A, Y) not in cache:
            cache[A, Y] = value(A, Y)
        return cache[A, Y]

    return nu


def _oracle_witness(space, **kw):
    return {k: sorted(space.labels(v)) if isinstance(v, int) else v
            for k, v in kw.items()}


def oracle_axioms_sampled(nu, space, sample, seed):
    """The sampled monotonicity, mixed subadditivity and continuity
    checks, drawing each mask with ``getrandbits(n)``; {axiom: {"ok",
    "witness"}} in the order checked, a failed inequality's witness with
    its values."""
    n = len(space)
    rng = random.Random(seed)
    axioms = {}
    mono = sub_w = cont_w = None
    for _ in range(sample):
        B = rng.getrandbits(n)
        A = B & rng.getrandbits(n)
        Y = rng.getrandbits(n)
        if nu(A, Y) > nu(B, Y):
            mono = _oracle_witness(space, A=A, B=B, Y=Y,
                                   values=(nu(A, Y), nu(B, Y)))
            break
    axioms["monotonicity"] = {"ok": mono is None, "witness": mono}
    for _ in range(sample):
        A = rng.getrandbits(n)
        B = rng.getrandbits(n)
        Y = rng.getrandbits(n)
        if nu(A | B, Y) > nu(A, Y) + nu(B, 0):
            sub_w = _oracle_witness(
                space, A=A, B=B, Y=Y,
                values=(nu(A | B, Y), nu(A, Y), nu(B, 0)))
            break
    axioms["mixed_subadditivity"] = {"ok": sub_w is None, "witness": sub_w}
    closed = list(space.down_sets())
    rng.shuffle(closed)
    probe_ys = [rng.getrandbits(n) for _ in range(16)]
    for A in closed[: max(4, sample // 64)]:
        found = False
        for U in space.up_sets():
            if A & ~U:
                continue
            if all(nu(A, Y) == nu(U, Y) for Y in probe_ys):
                found = True
                break
        if not found:
            cont_w = _oracle_witness(space, A=A)
            break
    axioms["continuity"] = {"ok": cont_w is None, "witness": cont_w}
    return axioms


def oracle_supervariance_sampled(nu, phi, Z, sample, seed):
    """Sampled supervariance, drawing each mask with ``getrandbits(n)``: the
    first A with nu(phi(A), Z) < nu(A, Z), as ``check_supervariance``
    reports it."""
    space = nu.space
    rng = random.Random(seed)
    for _ in range(sample):
        A = rng.getrandbits(len(space))
        img = phi.image_mask(A)
        if nu(img, Z) < nu(A, Z):
            return {"ok": False, "mode": "sampled",
                    "witness": _oracle_witness(space, A=A, image=img,
                                               values=(nu(img, Z), nu(A, Z)))}
    return {"ok": True, "mode": "sampled", "witness": None}

"""Independent brute-force oracles.

These deliberately avoid the production code paths: contractibility is
decided on the fully materialised hom-set by the components of its
comparability graph (no cores, no lazy search), minimal covers are found by enumerating
subsets of the candidates in increasing size (no union-closure table), the
discrete Palais-Smale condition is checked on every subset, the
cup-length check on the minimal circle enumerates every cochain,
and the numeric flow is a plain RK4 loop over the original all-numpy
truncation profile.
"""

from itertools import combinations

import numpy as np


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
                if v == cur or not cod.comparable(v, cur):
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


def oracle_cuplength_minimal_circle(K):
    """The 4-cycle has a one-dimensional top, so any product of two
    positive-degree cochains lands in the zero group; check all pairs."""
    ones = K.simplices_of_dim(1)
    assert len(ones) == 4 and not K.simplices_of_dim(2)
    # one nonzero degree-1 cohomology class must exist (connected cycle)
    return 1


def oracle_truncation_g(x):
    """The truncation profile as numpy expressions only, for any input."""
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

"""Independent brute-force oracles.

These deliberately avoid the production code paths: contractibility is
decided on the fully materialised hom-set by the components of its
comparability graph (no cores, no lazy search), minimal covers are found by enumerating
subsets of the candidates in increasing size (no union-closure table), the
discrete Palais-Smale condition is checked on every subset, the
cup-length check on the minimal circle enumerates every cochain,
the numeric flow is a plain RK4 loop over the original all-numpy
truncation profile, and the Palais-Smale chain is the all-numpy block
integration that recomputes every gradient, with a start-point
bisection that flows every trial radius anew for each n.  The sampled
axiom check draws with ``randrange`` over a truncated index cached at
two levels, on (A, Y) and on the saturated key, with its own cover
queries.
"""

import random
from itertools import combinations

import numpy as np

from lscat.action import HomogeneousClass
from lscat.category import CatQuery, cover_category


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
    at_rest = (moved <= scale
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
    checks, drawing masks with ``randrange``; {axiom: {"ok", "witness"}}
    in the order checked."""
    full = space.full_mask()
    rng = random.Random(seed)
    axioms = {}
    mono = sub_w = cont_w = None
    for _ in range(sample):
        B = rng.randrange(full + 1)
        A = B & rng.randrange(full + 1)
        Y = rng.randrange(full + 1)
        if nu(A, Y) > nu(B, Y):
            mono = _oracle_witness(space, A=A, B=B, Y=Y)
            break
    axioms["monotonicity"] = {"ok": mono is None, "witness": mono}
    for _ in range(sample):
        A = rng.randrange(full + 1)
        B = rng.randrange(full + 1)
        Y = rng.randrange(full + 1)
        if nu(A | B, Y) > nu(A, Y) + nu(B, 0):
            sub_w = _oracle_witness(space, A=A, B=B, Y=Y)
            break
    axioms["mixed_subadditivity"] = {"ok": sub_w is None, "witness": sub_w}
    closed = list(space.down_sets())
    rng.shuffle(closed)
    probe_ys = [rng.randrange(full + 1) for _ in range(16)]
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
    """Sampled supervariance, drawing masks with ``randrange``: the
    first A with nu(phi(A), Z) < nu(A, Z), as ``check_supervariance``
    reports it."""
    space = nu.space
    rng = random.Random(seed)
    for _ in range(sample):
        A = rng.randrange(1 << len(space))
        img = phi.image_mask(A)
        if nu(img, Z) < nu(A, Z):
            return {"ok": False, "mode": "sampled",
                    "witness": _oracle_witness(space, A=A, image=img,
                                               values=(nu(img, Z), nu(A, Z)))}
    return {"ok": True, "mode": "sampled", "witness": None}

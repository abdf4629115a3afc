"""Truncated-gradient flow on R^n and the empirical Palais-Smale checks.

The descent field is the gradient rescaled by the reciprocal of a
truncation of its norm, which caps the speed at 2 while leaving the
field untouched where the gradient is short; trajectories are integrated
with classical fourth-order Runge-Kutta on a fixed step.  The sampled
Palais-Smale check is explicitly heuristic: it can exhibit a suspected
violation with a witness cluster, never prove the condition.

One trajectory (``flow_map``) runs its RK4 stages on Python floats:
each elementwise sum, product and quotient rounds once to nearest, as
numpy's elementwise operations do, so the states are bit-identical to
the all-numpy loop.  Three numpy calls per stage decide bits, and they
stay numpy calls: the stage point is built as one ndarray, ``grad``
receives it, and the norm is ``math.sqrt(g.dot(g))``.  ``g.dot(g)`` is
the BLAS dot product that ``g @ g`` and ``np.linalg.norm(g)`` reach too,
and it can round differently from a Python sum, which accumulates in
another way.  A norm ``s <= 1`` has truncation exactly 1.0, and
``-v / 1.0`` is ``-v``, so such a stage skips the division; a NaN norm
fails ``<=`` and takes the full path.  The chain of ``verify_prop_app``
integrates its start points as one block of rows, reuses each state's
gradients for the next step, and skips the truncation on a block whose
row norms are all ``<= 1``.
"""

from __future__ import annotations

import math

import numpy as np

# Thresholds of the heuristic checks.
GAP_TOL = 1e-4          # sampled Palais-Smale check: a vanishing decrement
FIX_TOL = 1e-6          # sampled Palais-Smale check: relative fixed distance
PROBE_ITERATIONS = 40   # sampled Palais-Smale check: orbit length
LENGTH_TOLERANCE = 1.1  # verify_prop_app: factor on the path budget


class DomainViolation(RuntimeError):
    pass


class LeftDomain(RuntimeError):
    def __init__(self, t_exit):
        self.t_exit = t_exit
        super().__init__(f"trajectory left the domain near t={t_exit}")


class FixtureUnconstructible(RuntimeError):
    pass


class ScalarField:
    """A smooth function with closed-form gradient on an open domain."""

    __slots__ = ("dim", "f", "grad", "domain", "name")

    def __init__(self, dim, f, grad, domain=None, name="field"):
        self.dim = dim
        self.f = f
        self.grad = grad
        self.domain = domain if domain is not None else (lambda m: True)
        self.name = name


class FlowConfig:
    """Flow time and integrator step."""

    __slots__ = ("tau", "h_step")

    def __init__(self, tau, h_step=None):
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"flow time must be finite and positive, "
                             f"got {tau!r}")
        self.tau = float(tau)
        self.h_step = float(h_step) if h_step is not None else tau / 100.0
        if not (math.isfinite(self.h_step) and self.h_step > 0):
            raise ValueError(f"step must be finite and positive, "
                             f"got {h_step!r}")
        if self.h_step > tau / 100.0 + 1e-15:
            raise ValueError("step must not exceed a hundredth of the horizon")

    def steps(self):
        n = int(round(self.tau / self.h_step))
        return max(n, 1)


def truncation_g(x):
    """Monotone interpolant: 1 below 1, the identity above 2, and a cubic
    bridge matching values and slopes (1,0) and (2,1) in between."""
    # One float on Python floats: -t**3 + 2.0 * t**2 + 1.0 gives the bits
    # of numpy's 0-d expression (t*t*t does not).  NaN and arrays take
    # the numpy path.
    if type(x) is float and x == x:
        if x < 0:
            raise ValueError("the truncation profile takes nonnegative input")
        if x <= 1.0:
            return 1.0
        if x >= 2.0:
            return x
        t = min(max(x - 1.0, 0.0), 1.0)
        return -t**3 + 2.0 * t**2 + 1.0
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("the truncation profile takes nonnegative input")
    t = np.clip(x - 1.0, 0.0, 1.0)
    middle = -t**3 + 2.0 * t**2 + 1.0
    out = np.where(x <= 1.0, 1.0, np.where(x >= 2.0, x, middle))
    return out if out.shape else float(out)


def field_V(field, m):
    """The capped descent vector at one point, as a list of floats: minus
    the gradient over the truncated gradient norm; equals minus the
    gradient on the short-gradient region and has norm at most 2
    everywhere."""
    return _descent(field, np.asarray(m, dtype=float).tolist())[0]


def _descent(field, q):
    """The capped descent vector at the point q, a list of floats, as a
    list of floats, with the gradient norm s and its truncation t it was
    divided by."""
    x = np.array(q)
    if not field.domain(x):
        raise DomainViolation(f"{x!r} outside the field's domain")
    g = field.grad(x)
    if type(g) is not np.ndarray or g.dtype != np.float64:
        g = np.asarray(g, dtype=float)
    s = math.sqrt(g.dot(g))
    if s <= 1.0:  # the truncation is 1.0, and -v / 1.0 is -v
        return [-v for v in g.tolist()], s, 1.0
    t = truncation_g(s)
    return [-v / t for v in g.tolist()], s, t


def _grad_block(field, pts):
    return np.asarray([field.grad(m) for m in pts], dtype=float)


def _block_V(g):
    """The capped descent vectors of a block of gradients, one per row."""
    norms = np.linalg.norm(g, axis=1)
    if (norms <= 1.0).all():  # every truncation is 1.0, and -v / 1.0 is -v
        return -g
    return -g / truncation_g(norms)[:, None]


class Trajectory:
    """Dense RK4 output: times, states and descent rates."""

    # rates: the descent rate at each state but the last, as flow_map's
    # first RK4 stage found it (set by flow_map)
    __slots__ = ("times", "states", "field", "rates")

    def __init__(self, times, states, field):
        self.times = times
        self.states = states
        self.field = field

    @property
    def endpoint(self):
        return self.states[-1]

    def descent_rates(self):
        """|grad f(m)|^2 / truncation_g(|grad f(m)|) along the trajectory;
        only the last state's gradient is computed here."""
        _, s, t = _descent(self.field, self.states[-1].tolist())
        return np.array(self.rates + [s * s / t])


def _rk4_step(V, m, h, k1):
    """One classical Runge-Kutta step of m' = V(m) for a block of points,
    one per row, given its first stage k1 = V(m)."""
    k2 = V(m + 0.5 * h * k1)
    k3 = V(m + 0.5 * h * k2)
    k4 = V(m + h * k3)
    return m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow_map(field, m, config):
    """Integrate the capped descent flow for the configured horizon."""
    x = np.asarray(m, dtype=float)
    if not field.domain(x):
        raise DomainViolation(f"start point {x!r} outside the domain")
    n = config.steps()
    h = config.tau / n
    half = 0.5 * h
    sixth = h / 6.0
    # the state p is a list of floats, for the stage arithmetic in numpy's
    # elementwise order; every stage checks its point's domain, so a state
    # outside it fails the next step's first stage or the final check
    p = x.tolist()
    states = [p]
    rates = []
    for k in range(n):
        try:
            k1, s, t = _descent(field, p)
        except DomainViolation:  # the last step left the domain
            raise LeftDomain(k * h)
        rates.append(s * s / t)
        try:
            k2 = _descent(field, [a + half * b for a, b in zip(p, k1)])[0]
            k3 = _descent(field, [a + half * b for a, b in zip(p, k2)])[0]
            k4 = _descent(field, [a + h * b for a, b in zip(p, k3)])[0]
        except DomainViolation:
            raise LeftDomain((k + 1) * h)
        p = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(p, k1, k2, k3, k4)]
        states.append(p)
    if not field.domain(np.array(p)):
        raise LeftDomain(n * h)
    times = np.linspace(0.0, config.tau, n + 1)
    traj = Trajectory(times, np.array(states), field)
    traj.rates = rates
    return traj


def _simpson(y, h):
    n = len(y) - 1
    if n == 0:
        return 0.0
    if n % 2 == 1:  # trapezoid on the last panel
        base = _simpson(y[:-1], h)
        return base + 0.5 * h * (y[-2] + y[-1])
    return (h / 3.0) * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                        + 2.0 * y[2:-2:2].sum())


def check_energy_identity(field, m, config):
    """Residual of: value drop equals the integrated descent rate."""
    traj = flow_map(field, m, config)
    drop = field.f(traj.states[0]) - field.f(traj.endpoint)
    integral = _simpson(traj.descent_rates(), traj.times[1] - traj.times[0])
    return abs(drop - integral)


def _aitken_limit(orbit):
    """Extrapolate the limit of a (near-geometric) orbit tail."""
    z0, z1, z2 = (np.asarray(z, dtype=float) for z in orbit[-3:])
    denom = z2 - 2.0 * z1 + z0
    num = (z2 - z1) ** 2
    safe = np.abs(denom) > 1e-300
    out = z2.copy()
    out[safe] = z2[safe] - num[safe] / denom[safe]
    return out


def check_discrete_palais_smale_sampled(phi, f, samples, domain=None):
    """Sampled analogue of the discrete condition for a numeric map.

    Finds sample subsequences whose decrement f - f o phi vanishes,
    extrapolates the limit of the orbit starting at the accumulation
    estimate, and asks whether that limit is a fixed point inside the
    domain.  Heuristic.
    """
    domain = domain or (lambda x: True)
    samples = [np.asarray(s, dtype=float) for s in samples]
    gaps = np.array([f(s) - f(phi(s)) for s in samples])
    if np.any(gaps < -1e-12):
        return {
            "heuristic": True,
            "verdict": "not-a-descent-map",
            "witness": list(map(float, samples[int(np.argmin(gaps))])),
        }
    order = np.argsort(gaps)
    smallest = float(gaps[order[0]])
    report = {
        "heuristic": True,
        "min_decrement": smallest,
        "verdict": "consistent",
        "cluster": None,
    }
    if smallest > GAP_TOL:
        report["note"] = "decrement bounded away from zero on the samples"
        return report
    accumulation = samples[order[0]]
    orbit = [accumulation]
    for _ in range(PROBE_ITERATIONS):
        orbit.append(np.asarray(phi(orbit[-1]), dtype=float))
    limit = _aitken_limit(orbit) if len(orbit) >= 3 else orbit[-1]
    inside = bool(domain(limit))
    try:
        moved = float(np.linalg.norm(limit - phi(limit)))
    except Exception:
        moved = float("inf")
    fixed = moved <= FIX_TOL * (1.0 + float(np.linalg.norm(limit)))
    report["cluster"] = [
        list(map(float, samples[i]))
        for i in order[: max(1, len(samples) // 10)]
    ]
    report["accumulation"] = list(map(float, accumulation))
    report["orbit_limit"] = list(map(float, limit))
    report["accumulation_in_domain"] = inside
    if not (inside and fixed):
        report["verdict"] = "violation-suspected"
        report["note"] = (
            "vanishing decrements accumulate at a limit that is not a "
            "fixed point inside the domain"
        )
    return report


def verify_prop_app(field, config, n_max=10_000, family=None):
    """The descent-flow chain behind the Palais-Smale bridge.

    For a family of start points whose drop over the horizon is below
    tau/n, verify: some intermediate time has squared gradient norm
    below 1/n, the endpoint values stay within the drop budget of the
    start values, and the path length up to that time is at most
    tau/sqrt(n) (within the factor LENGTH_TOLERANCE).
    """
    tau = config.tau
    ns = n_schedule(n_max)
    if family is None:
        family = _default_family(field, tau, ns)
    if len(family) != len(ns):
        raise FixtureUnconstructible("family must match the n schedule")
    pts = np.asarray(family, dtype=float)
    c_bound = max(abs(field.f(p)) for p in pts)
    n_steps = config.steps()
    h = tau / n_steps
    state = pts.copy()
    alive = np.ones(len(ns), dtype=bool)  # still inside the domain
    found_t = np.full(len(ns), -1.0)
    found_state = pts.copy()
    lengths = np.zeros(len(ns))
    thresholds = 1.0 / np.asarray(ns, dtype=float)

    g = _grad_block(field, state)
    live = (g * g).sum(axis=1) >= thresholds
    found_t[~live] = 0.0
    V = lambda block: _block_V(_grad_block(field, block))  # noqa: E731
    for k in range(n_steps):
        k1 = _block_V(g)
        nxt = _rk4_step(V, state, h, k1)
        speeds = np.linalg.norm(k1, axis=1)
        inside = np.array([field.domain(m) for m in nxt])
        step_mask = alive & inside
        lengths[live & step_mask] += speeds[live & step_mask] * h
        state = np.where(step_mask[:, None], nxt, state)
        alive &= inside
        g = _grad_block(field, state)
        newly = live & step_mask & ((g * g).sum(axis=1) < thresholds)
        found_t[newly] = (k + 1) * h
        found_state[newly] = state[newly]
        live &= ~newly
    endpoints = state
    results = []
    for idx, n in enumerate(ns):
        start = pts[idx]
        drop = field.f(start) - field.f(endpoints[idx])
        hit = found_t[idx] >= 0
        b_n = found_state[idx] if hit else endpoints[idx]
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
            "path_ok": bool(
                lengths[idx] <= LENGTH_TOLERANCE * tau / np.sqrt(n)
            ),
            "stayed_in_domain": bool(alive[idx]),
        })
    chain_ok = all(
        r["drop_ok"] and r["gradient_ok"] and r["value_bound_ok"]
        and r["path_ok"] and r["stayed_in_domain"]
        for r in results
    )
    accumulation = endpoints[-1]
    limit = accumulation
    moved = float("inf")
    inside = bool(alive[-1])
    if inside:
        orbit = [accumulation]
        try:
            for _ in range(30):
                orbit.append(flow_map(field, orbit[-1], config).endpoint)
            limit = _aitken_limit(orbit)
            if field.domain(limit):
                moved = float(np.linalg.norm(
                    limit - flow_map(field, limit, config).endpoint
                ))
            else:
                inside = False
        except LeftDomain:
            inside = False
    scale = 1e-6 * (1.0 + float(np.linalg.norm(limit)))
    # once the step leaves RK4's stable range a fixed point of the
    # numerical flow map need not be critical, so the gradient must
    # vanish there too; an overflowed (infinite) scale proves nothing
    at_rest = (math.isfinite(scale) and moved <= scale
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


def n_schedule(n_max):
    out = []
    n = 1
    while n <= n_max:
        out.append(n)
        n *= 10
    if out[-1] != n_max:
        out.append(n_max)
    return out


def _default_family(field, tau, ns):
    """Start points with drop below tau/n, found by radial bisection; the
    radii 1, 1/2, 1/4, ... are shared by every n, so each is flowed once."""
    cfg = FlowConfig(tau, tau / 200.0)
    direction = np.zeros(field.dim)
    direction[0] = 1.0
    drops = {}  # radius -> drop over the horizon, None off the domain
    family = []
    for n in ns:
        budget = tau / n
        r = 1.0
        for _ in range(80):
            if r not in drops:
                drops[r] = _radial_drop(field, r * direction, cfg)
            if drops[r] is not None and drops[r] < budget * 0.9:
                break
            r *= 0.5
        else:
            raise FixtureUnconstructible(f"no start point for n={n}")
        family.append(r * direction)
    return family


def _radial_drop(field, p, cfg):
    if not field.domain(p):
        return None
    try:
        return field.f(p) - field.f(flow_map(field, p, cfg).endpoint)
    except LeftDomain:
        return None


# -- the fixture registry ----------------------------------------------------


def quadratic_field(matrix=None, dim=2, name="quadratic"):
    """f(m) = m . A m with positive definite A (identity by default).

    The gradient 2 A m is taken as g = A m, then g += g: x + x is 2.0 * x
    exactly in IEEE arithmetic (signed zeros, infinities, NaN and
    subnormals included), without the temporary of the product."""
    A = np.eye(dim) if matrix is None else np.asarray(matrix, dtype=float)

    def grad(m):
        g = A.dot(np.asarray(m))
        g += g
        return g

    return ScalarField(
        A.shape[0],
        lambda m: float(np.asarray(m) @ A @ np.asarray(m)),
        grad,
        name=name,
    )


def random_quadratic_field(seed, dim=2):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(dim, dim))
    A = B @ B.T + 0.3 * np.eye(dim)
    return quadratic_field(A, dim=dim, name=f"quadratic-{seed}")


def half_interval_field():
    """f(x) = x on the open unit interval: descent escapes the domain."""
    return ScalarField(
        1,
        lambda m: float(np.asarray(m).reshape(-1)[0]),
        lambda m: np.array([1.0]),
        domain=lambda m: 0.0 < float(np.asarray(m).reshape(-1)[0]) < 1.0,
        name="half-interval",
    )


def halffixed_circle_map_samples():
    """Sampled circle self-map fixing the right half and sliding the left
    half down toward the bottom pole: the fixed set carries a full
    interval of height values."""
    thetas = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    pts = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    bottom = 1.5 * np.pi

    def phi(p):
        x, y = float(p[0]), float(p[1])
        if x >= 0:
            return np.array([x, y])
        theta = np.arctan2(y, x) % (2.0 * np.pi)  # left half: (pi/2, 3pi/2)
        new = theta + 0.25 * (bottom - theta)
        return np.array([np.cos(new), np.sin(new)])

    def height(p):
        return float(p[1])

    return phi, height, list(pts)


FIELD_REGISTRY = {
    "quadratic": lambda: quadratic_field(),
    "half-interval": half_interval_field,
    "annulus": lambda: quadratic_field(name="annulus"),
}


def get_field(name):
    try:
        return FIELD_REGISTRY[name]()
    except KeyError:
        raise KeyError(
            f"unknown field fixture {name!r}; known: {sorted(FIELD_REGISTRY)}"
        )

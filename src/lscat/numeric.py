"""Truncated-gradient flow on R^n and the empirical Palais-Smale checks.

The descent field is the gradient rescaled by the reciprocal of a
truncation of its norm, which caps the speed at 2 while leaving the
field untouched where the gradient is short; trajectories are integrated
with classical fourth-order Runge-Kutta on a fixed step.  The sampling
based condition checks are explicitly heuristic: they can exhibit a
suspected violation with a witness cluster, never prove the condition.
"""

from __future__ import annotations

import math

import numpy as np

# Thresholds of the heuristic checks.
GRAD_TOL = 1e-2         # check_condition_C: a vanishing gradient norm
CRIT_TOL = 1e-3         # check_condition_C: gradient norm at a critical point
PROBE_TIME = 5.0        # check_condition_C: horizon of the descent probe
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

    def check_gradient(self, rng, samples=1000, box=2.0, rel_tol=1e-5,
                       h=1e-6):
        """Central finite differences against the closed form."""
        worst = 0.0
        tried = 0
        while tried < samples:
            m = rng.uniform(-box, box, size=self.dim)
            if not self.domain(m):
                continue
            tried += 1
            g = np.asarray(self.grad(m), dtype=float)
            fd = np.empty(self.dim)
            ok = True
            for k in range(self.dim):
                e = np.zeros(self.dim)
                e[k] = h
                if not (self.domain(m + e) and self.domain(m - e)):
                    ok = False
                    break
                fd[k] = (self.f(m + e) - self.f(m - e)) / (2 * h)
            if not ok:
                continue
            scale = max(np.linalg.norm(g), 1.0)
            worst = max(worst, float(np.linalg.norm(fd - g)) / scale)
        if worst > rel_tol:
            raise AssertionError(
                f"gradient inconsistent with finite differences: {worst}"
            )
        return worst


class FlowConfig:
    """Flow time and integrator step."""

    __slots__ = ("tau", "h_step")

    def __init__(self, tau, h_step=None):
        if tau <= 0:
            raise ValueError("flow time must be positive")
        self.tau = float(tau)
        self.h_step = float(h_step) if h_step is not None else tau / 100.0
        if self.h_step > tau / 100.0 + 1e-15:
            raise ValueError("step must not exceed a hundredth of the horizon")

    def steps(self):
        n = int(round(self.tau / self.h_step))
        return max(n, 1)


def truncation_g(x):
    """Monotone interpolant: 1 below 1, the identity above 2, and a cubic
    bridge matching values and slopes (1,0) and (2,1) in between."""
    # one float off the cubic bridge; NaN and arrays take the numpy path
    if type(x) is float and (x <= 1.0 or x >= 2.0):
        if x < 0:
            raise ValueError("the truncation profile takes nonnegative input")
        return 1.0 if x <= 1.0 else x
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("the truncation profile takes nonnegative input")
    t = np.clip(x - 1.0, 0.0, 1.0)
    middle = -t**3 + 2.0 * t**2 + 1.0
    out = np.where(x <= 1.0, 1.0, np.where(x >= 2.0, x, middle))
    return out if out.shape else float(out)


def field_V(field, m):
    """The capped descent vector: minus the gradient over the truncated
    gradient norm; equals minus the gradient on the short-gradient
    region and has norm at most 2 everywhere."""
    m = np.asarray(m, dtype=float)
    if not field.domain(m):
        raise DomainViolation(f"{m!r} outside the field's domain")
    g = np.asarray(field.grad(m), dtype=float)
    return -g / truncation_g(math.sqrt(g @ g))


def _batch_V(field, pts):
    g = np.asarray([field.grad(m) for m in pts], dtype=float)
    norms = np.linalg.norm(g, axis=1)
    return -g / truncation_g(norms)[:, None]


class Trajectory:
    """Dense RK4 output: times, states and descent rates."""

    __slots__ = ("times", "states", "field")

    def __init__(self, times, states, field):
        self.times = times
        self.states = states
        self.field = field

    @property
    def endpoint(self):
        return self.states[-1]

    def values(self):
        return np.array([self.field.f(m) for m in self.states])

    def descent_rates(self):
        """h(m) |grad f(m)|^2 along the trajectory."""
        out = np.empty(len(self.states))
        for k, m in enumerate(self.states):
            g = np.asarray(self.field.grad(m), dtype=float)
            n = float(np.linalg.norm(g))
            out[k] = n * n / truncation_g(n)
        return out


def _rk4_step(V, m, h):
    """One classical Runge-Kutta step of m' = V(m): (next state, V(m)).

    ``m`` is one point or a block of points, one per row, as long as
    ``V`` maps it to the same shape."""
    k1 = V(m)
    k2 = V(m + 0.5 * h * k1)
    k3 = V(m + 0.5 * h * k2)
    k4 = V(m + h * k3)
    return m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), k1


def flow_map(field, m, config):
    """Integrate the capped descent flow for the configured horizon."""
    m = np.asarray(m, dtype=float)
    if not field.domain(m):
        raise DomainViolation(f"start point {m!r} outside the domain")
    n = config.steps()
    h = config.tau / n
    states = np.empty((n + 1, field.dim))
    states[0] = m
    V = lambda p: field_V(field, p)  # noqa: E731
    for k in range(n):
        try:
            states[k + 1] = _rk4_step(V, states[k], h)[0]
        except DomainViolation:
            raise LeftDomain((k + 1) * h)
        if not field.domain(states[k + 1]):
            raise LeftDomain((k + 1) * h)
    times = np.linspace(0.0, config.tau, n + 1)
    return Trajectory(times, states, field)


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


def check_condition_C(field, samples):
    """Empirical Palais-Smale check on a finite sample set.

    Two heuristic triggers: samples with vanishing gradient norm must
    descend to an interior critical point, and the lowest sample's
    descent must not escape the domain (escape means the completeness
    needed to accumulate inside the space fails).  The verdict never
    feeds an assertion directly.
    """
    samples = [np.asarray(s, dtype=float) for s in samples]
    if not samples:
        raise ValueError("need a nonempty sample set")
    values = np.array([field.f(s) for s in samples])
    if not np.isfinite(values).all():
        raise ValueError("function values must stay bounded on the samples")
    norms = np.array(
        [float(np.linalg.norm(field.grad(s))) for s in samples]
    )
    order = np.argsort(norms)
    smallest = norms[order[0]]
    report = {
        "heuristic": True,
        "min_gradient_norm": float(smallest),
        "verdict": "consistent",
        "cluster": None,
    }

    def probe(start):
        cfg = FlowConfig(PROBE_TIME, PROBE_TIME / 500.0)
        try:
            end = flow_map(field, start, cfg).endpoint
        except LeftDomain as err:
            return None, err.t_exit
        return end, None

    if smallest <= GRAD_TOL:
        k = max(1, len(samples) // 10)
        cluster = [samples[i] for i in order[:k]]
        report["cluster"] = [list(map(float, c)) for c in cluster]
        end, exit_t = probe(cluster[0])
        if end is not None and float(
            np.linalg.norm(field.grad(end))
        ) <= CRIT_TOL:
            report["critical_estimate"] = list(map(float, end))
            report["note"] = (
                "vanishing-gradient samples descend to an interior "
                "critical point"
            )
        else:
            report["verdict"] = "violation-suspected"
            report["note"] = (
                "gradient norms vanish along the samples but descent finds "
                "no interior critical point"
            )
            report["escape_time"] = exit_t
        return report
    lowest = samples[int(np.argmin(values))]
    end, exit_t = probe(lowest)
    if end is None:
        report["verdict"] = "violation-suspected"
        report["cluster"] = [list(map(float, lowest))]
        report["escape_time"] = exit_t
        report["note"] = (
            "descent from the lowest sample escapes the domain: no "
            "critical point in the closure within the space"
        )
    else:
        report["note"] = "gradient stays away from zero on the samples"
    return report


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
    domain.  Heuristic, like the gradient version.
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

    def gradnorm2(block):
        g = np.asarray([field.grad(m) for m in block], dtype=float)
        return (g * g).sum(axis=1)

    live = gradnorm2(state) >= thresholds
    found_t[~live] = 0.0
    V = lambda block: _batch_V(field, block)  # noqa: E731
    for k in range(n_steps):
        nxt, v = _rk4_step(V, state, h)
        speeds = np.linalg.norm(v, axis=1)
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
    # vanish there too
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
    """Start points with drop below tau/n, found by radial bisection."""
    cfg = FlowConfig(tau, tau / 200.0)
    direction = np.zeros(field.dim)
    direction[0] = 1.0
    family = []
    for n in ns:
        budget = tau / n
        r = 1.0
        for _ in range(80):
            p = r * direction
            if not field.domain(p):
                r *= 0.5
                continue
            try:
                drop = field.f(p) - field.f(flow_map(field, p, cfg).endpoint)
            except LeftDomain:
                r *= 0.5
                continue
            if drop < budget * 0.9:
                break
            r *= 0.5
        else:
            raise FixtureUnconstructible(f"no start point for n={n}")
        family.append(p)
    return family


# -- the fixture registry ----------------------------------------------------


def quadratic_field(matrix=None, dim=2, name="quadratic"):
    """f(m) = m . A m with positive definite A (identity by default)."""
    A = np.eye(dim) if matrix is None else np.asarray(matrix, dtype=float)
    return ScalarField(
        A.shape[0],
        lambda m: float(np.asarray(m) @ A @ np.asarray(m)),
        lambda m: 2.0 * (A @ np.asarray(m)),
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


def annulus_samples(count=64, r_outer=1.0, decay=0.7):
    """Sample rings shrinking toward the origin."""
    out = []
    r = r_outer
    k = 0
    while len(out) < count:
        angle = 2.0 * np.pi * (k % 8) / 8.0
        out.append(np.array([r * np.cos(angle), r * np.sin(angle)]))
        k += 1
        if k % 8 == 0:
            r *= decay
    return out


def halffixed_circle_map_samples(count=256):
    """Sampled circle self-map fixing the right half and sliding the left
    half down toward the bottom pole: the fixed set carries a full
    interval of height values."""
    thetas = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
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

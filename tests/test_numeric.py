import math
import os
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lscat import numeric
from lscat.cli import builtin_corpus_dir, run_scenario
from lscat.formats import parse_scenario
from lscat.numeric import (
    FlowConfig,
    LeftDomain,
    ScalarField,
    check_discrete_palais_smale_sampled,
    check_energy_identity,
    field_V,
    flow_map,
    half_interval_field,
    halffixed_circle_map_samples,
    n_schedule,
    quadratic_field,
    random_quadratic_field,
    truncation_g,
    verify_prop_app,
)
from oracles import (
    oracle_default_family,
    oracle_flow,
    oracle_truncation_g,
    oracle_verify_prop_app,
)


def check_gradient(field, rng, samples=1000, box=2.0, rel_tol=1e-5, h=1e-6):
    """Central finite differences against the closed-form gradient."""
    worst = 0.0
    tried = 0
    while tried < samples:
        m = rng.uniform(-box, box, size=field.dim)
        if not field.domain(m):
            continue
        tried += 1
        g = np.asarray(field.grad(m), dtype=float)
        fd = np.empty(field.dim)
        ok = True
        for k in range(field.dim):
            e = np.zeros(field.dim)
            e[k] = h
            if not (field.domain(m + e) and field.domain(m - e)):
                ok = False
                break
            fd[k] = (field.f(m + e) - field.f(m - e)) / (2 * h)
        if not ok:
            continue
        scale = max(np.linalg.norm(g), 1.0)
        worst = max(worst, float(np.linalg.norm(fd - g)) / scale)
    if worst > rel_tol:
        raise AssertionError(
            f"gradient inconsistent with finite differences: {worst}"
        )
    return worst


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


def test_truncation_clauses():
    assert truncation_g(0.5) == 1.0
    assert truncation_g(0.0) == 1.0
    assert truncation_g(3.0) == 3.0
    assert truncation_g(2.0) == 2.0
    # pinned value of the cubic bridge
    assert truncation_g(1.5) == pytest.approx(1.375)
    xs = np.linspace(0.0, 3.0, 601)
    ys = truncation_g(xs)
    assert np.all(np.diff(ys) >= -1e-12)
    mid = (xs >= 1.0) & (xs <= 2.0)
    assert np.all(ys[mid] <= xs[mid] + 1e-12)
    assert np.all(ys[mid] >= 1.0 - 1e-12)


def _bits(x):
    return struct.pack("<d", x)


_EDGES = [0.0, 1.0, 2.0, 5e-324, float("nan")] + [
    math.nextafter(x, d) for x in (0.0, 1.0, 2.0) for d in (-1.0, 4.0)
    if x > 0.0 or d > 0.0
]


@settings(max_examples=2000, deadline=None)
@given(st.floats(0.0, 4.0) | st.sampled_from(_EDGES))
def test_truncation_scalar_is_bit_exact(x):
    # one float at a time: numpy's array path evaluates the cubic with a
    # different pow and already differs from the 0-d path in the last bit
    got = truncation_g(x)
    assert type(got) is float
    assert _bits(got) == _bits(oracle_truncation_g(x))


def test_truncation_bridge_is_bit_exact():
    # the scalar path evaluates the cubic on Python floats; other
    # spellings of it (t*t*t, 2.0*t*t) differ from the numpy expression
    # in the last bit on some of these inputs
    ends = []
    for end in (1.0, 2.0):
        for d in (0.0, 4.0):  # the ends and the 49 floats on each side
            x = end
            for _ in range(50):
                ends.append(x)
                x = math.nextafter(x, d)
    grid = np.linspace(1.0, 2.0, 20_001).tolist()
    draws = np.random.default_rng(0).uniform(1.0, 2.0, 30_000).tolist()
    for x in ends + grid + draws:
        got = truncation_g(x)
        assert type(got) is float
        assert _bits(got) == _bits(oracle_truncation_g(x)), x


def test_truncation_rejects_negative():
    for x in (-1.0, -5e-324, -3.0, -float("inf")):
        with pytest.raises(ValueError):
            truncation_g(x)


def _flow_outcome(field, m, config):
    try:
        return flow_map(field, m, config)[0], None
    except LeftDomain as err:
        return None, err.t_exit


def test_flow_map_is_bit_exact_against_plain_rk4():
    rng = np.random.default_rng(5)
    bridge = 0  # gradient norms inside (1, 2), where the cubic applies
    for seed in range(40):
        dim = 1 + seed % 4
        field = random_quadratic_field(seed, dim=dim)
        m = rng.uniform(-1.5, 1.5, size=dim)
        states, t_exit = _flow_outcome(field, m, FlowConfig(0.5))
        expect, expect_exit = oracle_flow(field, m, 0.5, 100)
        assert t_exit is None and expect_exit is None
        assert states.tobytes() == expect.tobytes()
        bridge += sum(1.0 < np.linalg.norm(field.grad(s)) < 2.0
                      for s in states)
    assert bridge > 0
    hi = half_interval_field()
    for start, tau, leaves in ((0.9, 0.4, False), (0.2, 1.0, True),
                               (0.55, 1.0, True)):
        cfg = FlowConfig(tau, tau / 1000)
        states, t_exit = _flow_outcome(hi, [start], cfg)
        expect, expect_exit = oracle_flow(hi, [start], tau, 1000)
        assert t_exit == expect_exit
        assert (t_exit is not None) == leaves
        if not leaves:
            assert states.tobytes() == expect.tobytes()


@pytest.mark.parametrize("j", [50, 100], ids=["mid-run", "last-step"])
def test_flow_map_leaves_the_domain_at_a_completed_state(j):
    # the domain rejects exactly state j, and no stage point equals it:
    # a mid-run state fails the next step's first stage, the last state
    # the check after the loop
    q = quadratic_field()
    cfg = FlowConfig(1.0)
    start = [0.3, 0.2]
    bad = flow_map(q, start, cfg)[0][j]
    field = ScalarField(q.dim, q.f, q.grad,
                        domain=lambda m: not np.array_equal(m, bad))
    states, t_exit = _flow_outcome(field, start, cfg)
    _, expect_exit = oracle_flow(field, start, 1.0, 100)
    assert states is None
    assert t_exit == expect_exit == j * 0.01


def test_flow_map_gives_a_rate_for_every_state():
    # each rate is s * s / truncation_g(s) at its state, s = |grad f|, the
    # last state's too; half the starts have s in the cubic bridge (1, 2)
    rng = np.random.default_rng(17)
    bridge = 0
    for seed in range(24):
        dim = 1 + seed % 4
        field = random_quadratic_field(200 + seed, dim=dim)
        if seed % 2:
            m = rng.uniform(-1.5, 1.5, size=dim)
        else:  # the gradient is linear: scale a direction to norm 1.1 to 1.9
            u = rng.normal(size=dim)
            m = u * rng.uniform(1.1, 1.9) / np.linalg.norm(field.grad(u))
        states, rates = flow_map(field, m, FlowConfig(0.5))
        expect, t_exit = oracle_flow(field, m, 0.5, 100)
        assert t_exit is None
        assert states.tobytes() == expect.tobytes()
        assert len(rates) == len(states) == 101
        norms = [np.linalg.norm(field.grad(x)) for x in expect]
        expect_rates = [s * s / oracle_truncation_g(s) for s in norms]
        assert rates.tobytes() == np.array(expect_rates).tobytes(), seed
        bridge += 1.0 < norms[0] < 2.0
    assert bridge >= 12


def _wide_vectors(rng, dim, count):
    """Vectors across many binary exponents: half share one exponent per
    vector (sums whose terms are alike, where an FMA would show), half
    take one exponent per entry."""
    shared = rng.integers(-120, 120, size=(count // 2, 1))
    mixed = rng.integers(-120, 120, size=(count - count // 2, dim))
    exps = np.vstack([np.broadcast_to(shared, (count // 2, dim)), mixed])
    return rng.uniform(-1.0, 1.0, size=(count, dim)) * np.exp2(exps)


# signed zeros, infinities, NaNs of both signs, the extreme subnormals
# and normals, and 1.0
SPECIAL_FLOATS = np.array([
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
    2.225073858507201e-308, -2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN entries
def test_quadratic_grad_and_norm_keep_their_bits():
    # flow_map takes the gradient as A.dot(m) doubled by g += g and its
    # square norm as g.dot(g); the oracles call the same grad, so compare
    # both with the products they replaced, 2.0 * (A @ m) and g @ g, byte
    # for byte.  On vectors of special entries, A.dot and A @ can differ
    # in the sign of an underflowed zero, so the doubling is compared with
    # 2.0 * A.dot(m) there.
    rng = np.random.default_rng(15)
    for dim in range(1, 9):
        for seed in range(3):
            field = random_quadratic_field(seed, dim=dim)
            B = np.random.default_rng(seed).normal(size=(dim, dim))
            A = B @ B.T + 0.3 * np.eye(dim)
            for m in _wide_vectors(rng, dim, 400):
                g = field.grad(m)
                assert g.tobytes() == (2.0 * (A @ m)).tobytes(), (dim, m)
                assert _bits(g.dot(g)) == _bits(g @ g), (dim, g)
            for m in rng.choice(SPECIAL_FLOATS, size=(100, dim)):
                g = field.grad(m)
                assert g.tobytes() == (2.0 * A.dot(m)).tobytes(), (dim, m)
    # with A = I the gradient is each special entry doubled
    for x in SPECIAL_FLOATS:
        g = quadratic_field(dim=1).grad([x])
        assert g.tobytes() == np.array([2.0 * x]).tobytes(), x


def _constant_field(grad):
    return ScalarField(len(grad), lambda m: 0.0, lambda m: grad)


@pytest.mark.parametrize("grad", [
    np.array([1.0]), np.array([0.0, -1.0]),
    np.array([math.nextafter(1.0, 2.0)]),
    np.array([0.0, math.nextafter(1.0, 2.0)]),
    [1, 0],  # a list of ints: converted to float64 before the norm
], ids=["one", "one-2d", "next-above-one", "next-above-one-2d", "int-list"])
def test_flow_map_at_gradient_norm_one_is_bit_exact(grad):
    # every stage has this gradient norm: exactly 1.0 skips the
    # truncation, the next float above it goes through truncation_g
    field = _constant_field(grad)
    start = [0.25] * field.dim
    states, t_exit = _flow_outcome(field, start, FlowConfig(1.0))
    expect, expect_exit = oracle_flow(field, start, 1.0, 100)
    assert t_exit is None and expect_exit is None
    assert states.tobytes() == expect.tobytes()


def test_block_descent_is_bit_exact():
    # _block_V returns -g when every row norm is <= 1; compare it with the
    # oracle expression on blocks with all rows <= 1, with one row in the
    # cubic bridge and with one row past it
    rng = np.random.default_rng(16)
    blocks = [np.array([[1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])]
    for dim in range(1, 5):
        for norm in (None, 1.5, 3.0):
            for _ in range(200):
                g = rng.uniform(-1.0, 1.0, size=(6, dim)) / dim  # rows <= 1
                if norm is not None:
                    i = rng.integers(6)
                    g[i] *= norm / np.linalg.norm(g[i])
                blocks.append(g)
    short = 0
    for g in blocks:
        norms = np.linalg.norm(g, axis=1)
        short += bool((norms <= 1.0).all())
        expect = -g / oracle_truncation_g(norms)[:, None]
        assert numeric._block_V(g).tobytes() == expect.tobytes()
    assert short == 1 + 4 * 200


def test_field_v_examples():
    q = quadratic_field()
    assert np.allclose(field_V(q, [1.0, 0.0]), [-1.0, 0.0])
    assert np.allclose(field_V(q, [0.0, 0.0]), [0.0, 0.0])
    m = [0.2, 0.1]  # gradient norm < 1: untruncated
    assert np.allclose(field_V(q, m), -np.asarray(q.grad(m)))


def test_field_v_is_bounded():
    rng = np.random.default_rng(0)
    q = quadratic_field()
    for _ in range(200):
        m = rng.uniform(-5, 5, size=2)
        v = field_V(q, m)
        g = np.linalg.norm(q.grad(m))
        assert np.linalg.norm(v) <= max(g, 2.0) + 1e-12
        assert np.linalg.norm(v) <= 2.0 + 1e-12


@pytest.mark.parametrize("tau, h_step", [
    (1.0, -0.5), (1.0, 0.0), (1.0, -0.0), (1.0, math.nan),
    (math.nan, None), (math.nan, 0.001), (math.inf, None), (math.inf, 1.0),
    # a step above a hundredth of the horizon, at any scale
    (1.0, 1.0 / 99), (1e-14, 1e-15), (1e-300, 1e-300 / 99),
    # subnormal horizons whose default step tau / 100 does not give 100
    # steps, or is 0
    (4e-322, None), (5e-322, None), (1e-321, None), (1e-320, None),
    (1e-323, None),
])
def test_flow_config_rejects_bad_values(tau, h_step):
    with pytest.raises(ValueError):
        FlowConfig(tau, h_step)


def test_flow_zero_field_stays_put():
    still = ScalarField(2, lambda m: 0.0, lambda m: np.zeros(2))
    states, rates = flow_map(still, [0.4, -0.2], FlowConfig(1.0))
    assert np.allclose(states[-1], [0.4, -0.2])
    assert not rates.any()


def test_flow_matches_closed_form():
    q = quadratic_field()
    cfg = FlowConfig(1.0, 1.0 / 1000)
    states, _ = flow_map(q, [0.3, 0.0], cfg)
    exact = 0.3 * np.exp(-2.0)
    assert abs(states[-1][0] - exact) <= 1e-8


def test_flow_half_interval_descends_then_exits():
    hi = half_interval_field()
    states, _ = flow_map(hi, [0.9], FlowConfig(0.4, 0.4 / 1000))
    assert np.all(np.diff([hi.f(m) for m in states]) < 0)
    with pytest.raises(LeftDomain):
        flow_map(hi, [0.2], FlowConfig(1.0, 1.0 / 1000))


def test_lyapunov_along_flow():
    q = random_quadratic_field(11)
    states, _ = flow_map(q, [1.0, -0.7], FlowConfig(1.0, 1.0 / 500))
    assert np.all(np.diff([q.f(m) for m in states]) < 1e-12)


def test_energy_identity_examples():
    q = quadratic_field()
    cfg = FlowConfig(1.0, 1.0 / 1000)
    assert check_energy_identity(q, [0.0, 0.0], cfg) == 0.0
    assert check_energy_identity(q, [1.0, 0.0], cfg) <= 1e-6


def test_energy_identity_over_random_quadratics():
    rng = np.random.default_rng(7)
    cfg = FlowConfig(1.0, 1.0 / 1000)
    worst = 0.0
    for seed in range(100):
        field = random_quadratic_field(seed)
        m = rng.uniform(-1.0, 1.0, size=2)
        worst = max(worst, check_energy_identity(field, m, cfg))
    assert worst <= 1e-5


def test_gradient_finite_difference_consistency():
    rng = np.random.default_rng(3)
    for seed in (0, 1, 2):
        field = random_quadratic_field(seed)
        check_gradient(field, rng, samples=1000, rel_tol=1e-5)
    half = half_interval_field()
    check_gradient(half, np.random.default_rng(4), samples=200, box=0.45)


# Thresholds of check_condition_C.
GRAD_TOL = 1e-2         # a vanishing gradient norm
CRIT_TOL = 1e-3         # gradient norm at a critical point
PROBE_TIME = 5.0        # horizon of the descent probe


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
            end = flow_map(field, start, cfg)[0][-1]
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


def test_condition_c_branches():
    q = quadratic_field()
    assert check_condition_C(
        q, annulus_samples(count=96, decay=0.6)
    )["verdict"] == "consistent"
    hi = half_interval_field()
    report = check_condition_C(hi, [np.array([1.0 / k]) for k in range(2, 40)])
    assert report["verdict"] == "violation-suspected"
    const = ScalarField(1, lambda m: 1.0, lambda m: np.zeros(1))
    assert check_condition_C(
        const, [np.array([0.1]), np.array([0.5])]
    )["verdict"] == "consistent"
    assert report["heuristic"]


def test_descent_map_check_discriminates_domain():
    phi = lambda x: x / 2.0  # noqa: E731
    f = lambda x: float(np.asarray(x).reshape(-1)[0])  # noqa: E731
    samples = [np.array([2.0 ** -j]) for j in range(1, 20)]
    open_domain = half_interval_field().domain
    bad = check_discrete_palais_smale_sampled(phi, f, samples,
                                              domain=open_domain)
    assert bad["verdict"] == "violation-suspected"
    assert not bad["accumulation_in_domain"]
    good = check_discrete_palais_smale_sampled(phi, f, samples)
    assert good["verdict"] == "consistent"


def test_halffixed_circle_fixture():
    phi, height, samples = halffixed_circle_map_samples()
    report = check_discrete_palais_smale_sampled(phi, height, samples)
    assert report["verdict"] == "consistent"
    fixed = [s for s in samples if np.linalg.norm(s - phi(s)) <= 1e-9]
    values = sorted(float(s[1]) for s in fixed)
    assert values[0] == pytest.approx(-1.0)
    assert values[-1] == pytest.approx(1.0)
    moving = [s for s in samples if np.linalg.norm(s - phi(s)) > 1e-9]
    assert all(height(phi(s)) < height(s) for s in moving)


def test_prop_app_chain_quadratic():
    q = quadratic_field()
    report = verify_prop_app(q, FlowConfig(1.0, 1.0 / 1000), n_max=10_000)
    assert report["chain_ok"]
    assert report["conclusion_ok"]
    for row in report["results"]:
        assert row["path_length"] <= 1.1 * row["path_budget"]


def test_prop_app_tau_scaling():
    q = quadratic_field()
    budgets = {}
    for tau in (0.5, 1.0, 2.0):
        report = verify_prop_app(q, FlowConfig(tau, tau / 1000), n_max=100)
        assert report["chain_ok"]
        budgets[tau] = [row["path_budget"] for row in report["results"]]
    for k in range(len(budgets[0.5])):
        assert budgets[1.0][k] == pytest.approx(2 * budgets[0.5][k])
        assert budgets[2.0][k] == pytest.approx(2 * budgets[1.0][k])


def test_prop_app_matches_numpy_oracle_on_random_quadratics():
    # non-identity matrices, whose products do not round exactly: a
    # reordered sum or a gradient taken at another state would show
    for seed in range(20):
        field = random_quadratic_field(100 + seed, dim=1 + seed % 4)
        tau = (0.5, 1.0, 2.0)[seed % 3]
        report = verify_prop_app(field, FlowConfig(tau), n_max=10)
        expect = oracle_verify_prop_app(field, tau, 100, 10)
        assert repr(report) == repr(expect), seed


def _counted_flows(monkeypatch):
    """Count ``flow_map`` calls by step count and start point."""
    starts = Counter()
    real = numeric.flow_map

    def counted(field, m, config):
        start = tuple(np.asarray(m, dtype=float).tolist())
        starts[config.steps(), start] += 1
        return real(field, m, config)

    monkeypatch.setattr(numeric, "flow_map", counted)
    return starts


@pytest.mark.parametrize("field, tau", [
    (quadratic_field(), 0.5), (quadratic_field(), 1.0),
    (quadratic_field(), 2.0), (random_quadratic_field(3), 1.0),
    (random_quadratic_field(4, dim=3), 0.5),
])
def test_default_family_matches_bisection_oracle(monkeypatch, field, tau):
    # the oracle bisects each n on its own, so a shorter schedule's
    # family is a prefix of the longest one's
    expect = oracle_default_family(field, tau, n_schedule(10_000))
    starts = _counted_flows(monkeypatch)
    for n_max in (10, 1000, 10_000):
        ns = n_schedule(n_max)
        starts.clear()
        family = numeric._default_family(field, tau, ns)
        assert (np.array(family).tobytes()
                == np.array(expect[:len(ns)]).tobytes())
        # one flow per distinct trial radius, however many n share it
        assert starts and set(starts.values()) == {1}


def test_corpus_numeric_work_is_pinned(monkeypatch):
    # ps_chain_quadratic flows its 7 trial radii over 200 steps each, then
    # 30 Aitken horizons and one rest check over 1000 steps each
    starts = _counted_flows(monkeypatch)
    scenario = parse_scenario(
        os.path.join(builtin_corpus_dir(), "ps_chain_quadratic.json"))
    run_scenario(scenario)
    per_steps = Counter()
    for (steps, _), calls in starts.items():
        per_steps[steps] += calls
    assert per_steps == {200: 7, 1000: 31}
    radii = {start for steps, start in starts if steps == 200}
    assert radii == {(0.5 ** k, 0.0) for k in range(7)}


def test_prop_app_half_interval_conclusion_fails():
    hi = half_interval_field()
    family = [np.array([1.0 / max(n, 2)]) for n in n_schedule(1000)]
    report = verify_prop_app(hi, FlowConfig(1.0, 1.0 / 1000),
                             n_max=1000, family=family)
    assert not report["conclusion_ok"]
    assert not report["rest_point_in_domain"]

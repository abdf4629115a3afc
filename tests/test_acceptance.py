"""The acceptance gate: one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL
lines.  Criterion 9 documents a genuine finite-model divergence: the
truncated mod-category fails mixed subadditivity on circle-like
fixtures (see the witness in the assertion message and the discussion
in the README); the criterion is asserted as stated and left red
rather than weakened.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

import fixtures as fx
import lscat.action
import lscat.engine
import lscat.poset
from lscat.action import (
    GroupAction,
    HomogeneousClass,
    inclusion_map,
    validate_action,
)
from lscat.category import (
    CatQuery,
    CatResult,
    CoverEntry,
    cat,
    cat_mod,
    cat_pair,
    cover_category,
    cuplength_lower_bound,
    value_ge_diff,
)
from lscat.dynamics import DynamicalPair, verify_identity_band_bound
from lscat.engine import (
    band_escape_exponent,
    check_axioms,
    make_truncated_index,
    random_instance,
    verify_index_bound,
)
from lscat.numeric import (
    FlowConfig,
    check_discrete_palais_smale_sampled,
    check_energy_identity,
    half_interval_field,
    quadratic_field,
    random_quadratic_field,
    verify_prop_app,
)
from lscat.poset import FenceCertificate, SpaceMap
from lscat.simplicial import (
    SimplicialComplex,
    cuplength,
    order_complex,
    star_cover_upper_bound,
)

from certify import count_calls, verify_results
from oracles import oracle_cat, oracle_cuplength


def _line(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d}: {status} - {detail}")
    return ok


def test_criterion_01_category_oracle():
    c4, v = fx.fix_c4(), fx.fix_v()
    t0 = time.monotonic()
    oracle_c4 = oracle_cat(c4)
    t_c4 = time.monotonic() - t0
    t0 = time.monotonic()
    oracle_v = oracle_cat(v)
    t_v = time.monotonic() - t0
    t0 = time.monotonic()
    bound = cuplength_lower_bound(c4)
    oracle_bound = 1 + oracle_cuplength(order_complex(c4))
    t_cup = time.monotonic() - t0
    ok = (
        oracle_c4 == cat(c4) == 2
        and oracle_v == cat(v) == 1
        and bound == oracle_bound == 2
        and max(t_c4, t_v, t_cup) < 5.0
    )
    assert _line(
        1, ok,
        f"oracle cat(C4)={oracle_c4}, cat(V)={oracle_v}, "
        f"cup bound={bound}; slowest {max(t_c4, t_v, t_cup):.2f}s",
    )


def test_criterion_02_strict_relative_fixtures():
    arc = fx.fix_arc3()
    Y = arc.subset(["l", "r"])
    mod_value = cat_mod(arc, arc.full_mask(), Y)
    pair_value = cat_pair(arc, arc.full_mask(), Y)
    wedge = fx.fix_2circ()
    S = wedge.subset(["o", "q1", "U1", "L1"])
    wedge_pair = cat_pair(wedge, wedge.full_mask(), S)
    diff = cat(wedge) - cat(wedge, S)
    ok = (
        mod_value == 1 and pair_value == 0
        and wedge_pair == 1 and diff == 0
        and mod_value > pair_value and wedge_pair > diff
    )
    assert _line(
        2, ok,
        f"arc: mod={mod_value} > pair={pair_value}; "
        f"wedge: pair={wedge_pair} > plain difference={diff}",
    )


def test_criterion_03_equivariant_exceeds_quotient():
    c4 = fx.fix_c4()
    action = validate_action(c4, [fx.conjugation_generator()])
    klass = HomogeneousClass.all_types(action)
    gcat = cat(c4, action=action, klass=klass)
    quotient, _ = action.orbit_space()
    qcat = cat(quotient)
    ok = gcat >= 2 > 1 == qcat
    assert _line(3, ok, f"equivariant cat={gcat} >= 2 > 1 = quotient {qcat}")


# sha256 of the 1000 reports' ``json.dumps(report, sort_keys=True)``
CRITERION_04_SHA256 = (
    "1363e1e2677cd90ea24e60f7686790183f33d0a1ec5b0aaf417628c782383cdc")
# the benchmark's per-instance summaries (verdict|lhs total|rhs), read only
ENGINE_PINS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "pins.json")
    .read_text())["engine-sweep"]


# searches per pass, as the benchmark's tracer counts them: one cover
# query per open hull, and fence searches only within one component
CRITERION_04_COVER_QUERIES = 13_245
CRITERION_04_FENCE_SEARCHES = 124


def test_criterion_04_thousand_generated_instances(_violations_dir,
                                                   monkeypatch):
    counts = {"cover_category": 0, "fence_search": 0, "sampled_loops": 0}
    results = []
    count_calls(monkeypatch, counts, "cover_category", lscat.engine,
                "cover_category", results)
    for module in (lscat.poset, lscat.action):
        count_calls(monkeypatch, counts, "fence_search", module,
                    "fence_search")
    # a sampled triple is drawn only inside these two loops
    for name in ("_monotonicity_witness", "_subadditivity_witness"):
        count_calls(monkeypatch, counts, "sampled_loops", lscat.engine, name)
    t0 = time.monotonic()
    holds = ledger_passing = 0
    digest = hashlib.sha256()
    unpinned = []
    for seed in range(1000):
        pair, nu, a, b = random_instance(seed)
        report = verify_index_bound(nu, pair, a, b, axiom_mode="sampled",
                                    seed=seed)
        digest.update(json.dumps(report, sort_keys=True).encode())
        summary = (f"{report['verdict']}|{report['lhs']['total']}|"
                   f"{report['rhs']}")
        if summary != ENGINE_PINS[seed]:
            unpinned.append(seed)
        if all(h["ok"] for h in report["hypotheses"].values()):
            ledger_passing += 1
            if report["verdict"] == "INEQUALITY_HOLDS":
                holds += 1
    elapsed = time.monotonic() - t0
    searched = counts["fence_search"]
    # the instances read values only, so no fence was assembled
    unread = all(callable(entry.certificate._maps)
                 for result in results for entry in result.cover)
    fences = verify_results(results)  # raises on the first defect
    persisted = (
        list(_violations_dir.glob("*.json")) if _violations_dir.exists()
        else []
    )
    ok = (
        ledger_passing == holds
        and ledger_passing >= 900
        and not persisted
        and not unpinned
        and digest.hexdigest() == CRITERION_04_SHA256
        and len(results) == CRITERION_04_COVER_QUERIES
        and searched == CRITERION_04_FENCE_SEARCHES
        and counts["sampled_loops"] == 0
        and unread
        and elapsed < 300.0
    )
    assert _line(
        4, ok,
        f"{holds}/{ledger_passing} ledger-passing instances hold "
        f"(of 1000), {len(persisted)} persisted, unpinned seeds "
        f"{unpinned[:5]}, sha256 {digest.hexdigest()[:16]}, "
        f"{len(results)} cover queries, each verified ({fences} fences), "
        f"{searched} fence searches, {counts['sampled_loops']} sampled "
        f"axiom loops, {elapsed:.1f}s",
    )


def test_criterion_04_certificate_check_rejects_planted_defects(
        monkeypatch):
    """The check behind criterion 04's values rejects a value one less
    than its cover, and a fence with a stage that is not a G-map, even
    after it has checked sound results."""
    results = []
    count_calls(monkeypatch, {"cover_category": 0}, "cover_category",
                lscat.engine, "cover_category", results)
    for seed in range(20):
        pair, nu, a, b = random_instance(seed)
        verify_index_bound(nu, pair, a, b, axiom_mode="sampled", seed=seed)
    short = next(r for r in results if r.value)
    short = CatResult(short.query, short.value - 1, short.cover)

    c4 = fx.fix_c4()  # conjugation swaps U and L; every class admits p
    action = validate_action(c4, [fx.conjugation_generator()])
    sound = cover_category(CatQuery(c4, action=action,
                                    klass=HomogeneousClass.all_types(action)))
    entry = next(e for e in sound.cover
                 if e.mask == c4.subset(["p", "U", "L"]))
    sub = inclusion_map(c4, entry.mask)[0]
    p = c4.index["p"]
    # p, U, L: L alone moves down to p, so the middle stage commutes with
    # no swap of U and L
    stages = [sub.images, (p, c4.index["U"], p), (p, p, p)]
    forged = CoverEntry(entry.mask, "categorical", FenceCertificate(
        [SpaceMap(sub.domain, c4, images) for images in stages]))
    not_G = CatResult(sound.query, sound.value, [
        forged if e is entry else e for e in sound.cover])

    assert verify_results(results + [sound]) > 0
    with pytest.raises(ValueError, match="disagrees with the value"):
        verify_results(results + [short])
    with pytest.raises(ValueError, match="not a G-map"):
        verify_results(results + [sound, not_G])


def test_criterion_05_negative_control():
    c4 = fx.fix_c4()
    pair = DynamicalPair(c4, fx.c4_constant_map(c4), fx.C4_CONST_HEIGHTS)
    nu = make_truncated_index("category", 5, GroupAction.trivial(c4))
    report = verify_index_bound(nu, pair, -1.0, 2.0, axiom_mode="exhaustive")
    ok = (
        report["verdict"] == "HYPOTHESIS_FAILED:supervariance"
        and report["lhs"]["total"] == 1
        and report["rhs"] == 2
        and not report["verdict"].startswith("VIOLATION")
    )
    assert _line(
        5, ok,
        f"verdict={report['verdict']}, lhs={report['lhs']['total']} < "
        f"rhs={report['rhs']}",
    )


def test_criterion_06_escape_exponent_minimality():
    import random as _random

    checked = 0
    seed = 0
    while checked < 200:
        seed += 1
        pair, nu, a, b = random_instance(seed)
        values = sorted({pair.f[i] for i in range(len(pair.space))})
        fixed_vals = {pair.f[i]
                      for i, v in enumerate(pair.phi.images) if v == i}
        rng = _random.Random(seed)
        lo = rng.choice(values) + 0.25
        hi = lo + rng.choice([0.5, 1.0, 2.0])
        if any(lo <= v <= hi for v in fixed_vals):
            continue
        n = band_escape_exponent(pair, 0, lo, hi)

        def push(mask, times):
            for _ in range(times):
                nxt = 0
                for i in range(len(pair.space)):
                    if mask >> i & 1:
                        nxt |= 1 << pair.phi.images[i]
                mask = nxt
            return mask

        source, target = pair.sublevel(hi), pair.sublevel(lo)
        works = push(source, n) & ~target == 0
        minimal = n == 0 or push(source, n - 1) & ~target != 0
        assert works and minimal, (seed, n)
        checked += 1
    assert _line(6, checked == 200,
                 f"{checked} instances with minimal escape powers")


def test_criterion_07_bound_chain_and_strictness():
    checked = 0
    seed = 500
    chain_ok = True
    while checked < 25:
        seed += 1
        pair, nu, a, b = random_instance(seed, max_points=6)
        report = verify_identity_band_bound(pair, a, b)
        v = report.values
        if v["semi_bound"] is None:
            continue
        chain_ok &= v["mod_bound"] >= v["semi_bound"] >= v["pair_bound"]
        chain_ok &= value_ge_diff(v["pair_bound"], v["sublevel_cat_high"],
                                  v["sublevel_cat_low"])
        checked += 1

    wedge = fx.fix_wedge()
    wedge_pair = DynamicalPair(wedge, fx.wedge_collapse_map(wedge),
                               fx.WEDGE_HEIGHTS)
    wedge_report = verify_identity_band_bound(wedge_pair, 1.0, 2.0)
    wv = wedge_report.values
    wedge_strict = wv["pair_bound"] == 1 > 0 == wv["difference_bound"]
    chain_ok &= all(bool(x) for x in wv["bound_chain"].values())

    arc = fx.fix_arc3()
    half_pair = DynamicalPair(arc, SpaceMap.identity(arc), fx.ARC_HEIGHTS)
    half_report = verify_identity_band_bound(half_pair, 0.0, 1.0)
    hv = half_report.values
    half_strict = hv["mod_bound"] == 1 > 0 == hv["pair_bound"]
    chain_ok &= all(bool(x) for x in hv["bound_chain"].values())

    ok = chain_ok and wedge_strict and half_strict
    assert _line(
        7, ok,
        f"chain held on {checked} generated instances; wedge pair "
        f"{wv['pair_bound']} > {wv['difference_bound']}, halfcircle mod "
        f"{hv['mod_bound']} > {hv['pair_bound']}",
    )


def test_criterion_08_numeric_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    cfg = FlowConfig(1.0, 1.0 / 1000)
    worst = 0.0
    for seed in range(100):
        field = random_quadratic_field(seed)
        start = rng.uniform(-1.0, 1.0, size=2)
        worst = max(worst, check_energy_identity(field, start, cfg))
    residual_ok = worst <= 1e-5

    chain = verify_prop_app(quadratic_field(), cfg, n_max=10_000)
    path_ok = chain["chain_ok"] and all(
        row["path_length"] <= 1.1 * row["path_budget"]
        for row in chain["results"]
    )

    half = half_interval_field()
    samples = [np.array([2.0 ** -j]) for j in range(1, 20)]
    descent = check_discrete_palais_smale_sampled(
        lambda x: x / 2.0,
        lambda x: float(np.asarray(x).reshape(-1)[0]),
        samples,
        domain=half.domain,
    )
    violation_ok = descent["verdict"] == "violation-suspected"
    elapsed = time.monotonic() - t0
    ok = residual_ok and path_ok and violation_ok and elapsed < 120.0
    assert _line(
        8, ok,
        f"max residual {worst:.2e}, chain to n=10^4 within 1.1 tau/sqrt(n), "
        f"half-interval verdict {descent['verdict']}, {elapsed:.1f}s",
    )


def test_criterion_09_axiom_suite():
    small_fixtures = [
        ("fan", fx.fix_v()),
        ("arc", fx.fix_arc3()),
        ("circle", fx.fix_c4()),
        ("coned-circle", fx.cone_circle()),
        ("discrete", fx.discrete(3)),
    ]
    failures = []
    for name, space in small_fixtures:
        action = GroupAction.trivial(space)
        for kind in ("category", "pair_category", "mod_category"):
            nu = make_truncated_index(kind, 5, action)
            report = check_axioms(nu)
            assert report.mode == "exhaustive"
            for axiom, row in report.axioms.items():
                if not row["ok"]:
                    failures.append((name, kind, axiom, row["witness"]))
    ok = not failures
    assert _line(
        9, ok,
        "all index kinds satisfy the axioms exhaustively"
        if ok else f"failures: {failures}",
    ), (
        "known finite-model divergence: the truncated mod-category is not "
        f"mixed-subadditive on circle-like fixtures; witnesses: {failures}"
    )


def test_criterion_10_sandwich():
    shipped = [
        ("fan-path", order_complex(fx.fix_v())),
        ("circle", order_complex(fx.fix_c4())),
        ("triangle-boundary", SimplicialComplex.from_maximal(
            [("a", "b"), ("b", "c"), ("a", "c")])),
        ("square-cycle", SimplicialComplex.from_maximal(
            [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")])),
        ("filled-triangle", SimplicialComplex.from_maximal(
            [("a", "b", "c")])),
        ("torus", SimplicialComplex.from_maximal(fx.torus7_triangles())),
    ]
    rows = []
    ok = True
    torus_bound = None
    for name, K in shipped:
        low = cuplength(K) + 1
        high = star_cover_upper_bound(K)[0]
        rows.append(f"{name}:{low}<={high}")
        ok &= low <= high
        if name == "torus":
            torus_bound = (low, high)
    ok &= torus_bound == (3, 3) or (
        torus_bound is not None and torus_bound[0] == 3
        and torus_bound[1] >= 3
    )
    assert _line(10, ok, "; ".join(rows))

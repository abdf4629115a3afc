import contextlib
import hashlib
import json
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import fixtures as fx
from lscat import engine
from lscat.action import (
    GroupAction,
    HomogeneousClass,
    is_G_map,
    validate_action,
)
from lscat.category import INFINITE, CatQuery, CatResult, cover_category
from lscat.dynamics import (
    DynamicalPair,
    check_discrete_palais_smale,
    find_identity_fence,
)
from lscat.engine import (
    AXIOM_SAMPLES,
    CHECK_SAMPLES,
    HypothesisUnmet,
    IndexFunction,
    _check_axioms_sampled,
    band_escape_exponent,
    check_axioms,
    check_supervariance,
    make_truncated_index,
    random_instance,
    verify_index_bound,
)
from lscat.poset import SizeCapExceeded, SpaceMap, bits, validate_space

from certify import count_calls, verify_results
from equivariant import random_equivariant_instance
from oracles import (
    oracle_axioms_sampled,
    oracle_supervariance_sampled,
    oracle_truncated_index,
    point_moves,
)
from test_category import CLASSES, acted_spaces


def axiom_row(axioms, mode="sampled"):
    """The oracle's per-axiom rows folded into the engine's ledger row:
    the failing axioms in order as the witness, None when none fails."""
    failed = {name: row for name, row in axioms.items() if not row["ok"]}
    return {"ok": not failed, "mode": mode, "witness": failed or None}


def failed_axioms(row):
    """The names of the axioms a ledger row reports as failing."""
    return list(row["witness"] or ())


def ladder(pair, nu, a, b):
    """The engine's runs between the cut values a and b."""
    low = pair.sublevel(a)
    return engine._runs(pair, nu, a, b, nu(low, low),
                        nu(pair.sublevel(b), low))


def levels(runs):
    """(k, c_k) for every k of the runs."""
    return [(k, run["value"]) for run in runs for k in run["ks"]]


def level_values(runs):
    return [v for _, v in levels(runs)]


def nondecreasing(runs):
    vs = level_values(runs)
    return all(x <= y for x, y in zip(vs, vs[1:]))


def in_band(runs, a, b):
    return all(a < v <= b for v in level_values(runs))


def all_critical(runs):
    return all(run["slice"] for run in runs)


@pytest.fixture
def v_index(v_space):
    return make_truncated_index("category", 5, GroupAction.trivial(v_space))


@pytest.fixture
def c4_index(trivial_c4):
    return make_truncated_index("category", 5, trivial_c4)


def test_truncated_index_values(c4_index, c4, arc3):
    assert c4_index(c4.full_mask()) == 2
    tight = make_truncated_index("category", 1, GroupAction.trivial(c4))
    assert tight(c4.full_mask()) == 1
    mod = make_truncated_index("mod_category", 5, GroupAction.trivial(arc3))
    assert mod(arc3.full_mask(), arc3.subset(["l", "r"])) == 1


def test_truncation_coherence(c4, trivial_c4):
    big = make_truncated_index("category", 7, trivial_c4)
    small = make_truncated_index("category", 3, trivial_c4)
    for A in range(c4.full_mask() + 1):
        assert min(big(A), 3) == small(A)


def _fresh_index_value(kind, cap, space, generators, A, Y):
    """The truncated index value from a query on a freshly built action."""
    action = validate_action(space, generators)
    GA, GY = action.saturate(A), action.saturate(Y)
    mode = {"category": "plain", "pair_category": "pair",
            "mod_category": "mod"}[kind]
    value = cover_category(CatQuery(
        space, A=GA, Y=GY if kind != "category" else 0, mode=mode,
        action=action, klass=HomogeneousClass.default(action))).value
    return min(value, cap)


@pytest.mark.parametrize("kind", ["category", "pair_category",
                                  "mod_category"])
@pytest.mark.parametrize("generators", [[], [fx.conjugation_generator()]],
                         ids=["trivial", "conjugation"])
def test_truncated_index_reads_only_saturations(c4, kind, generators):
    action = validate_action(c4, generators)
    nu = make_truncated_index(kind, 5, action)
    full = c4.full_mask()
    for A in range(full + 1):
        by_saturation = {}  # Ys of equal saturation share one value
        for Y in range(full + 1):
            value = nu(A, Y)
            GY = 0 if kind == "category" else action.saturate(Y)
            assert by_saturation.setdefault(GY, value) == value, (A, Y)
            assert value == _fresh_index_value(kind, 5, c4, generators, A, Y)


def test_mod_index_reads_A_not_only_its_hull():
    # x1 < x2 < x3 and x0 < x3: up(A) is the whole space, whose mod value
    # is infinite, while A = {x0, x1} deforms into Y = {x0, x2} mod Y
    space = validate_space(["x0", "x1", "x2", "x3"],
                           [("x0", "x3"), ("x1", "x2"), ("x2", "x3")])
    nu = make_truncated_index("mod_category", 5, GroupAction.trivial(space))
    A, Y = space.subset(["x0", "x1"]), space.subset(["x0", "x2"])
    assert space.up_closure(A) == space.full_mask()
    assert nu(A, Y) == 1
    assert nu(space.full_mask(), Y) == 5


@pytest.mark.parametrize("kind", ["category", "pair_category",
                                  "mod_category"])
@pytest.mark.parametrize("generators", [[], [fx.conjugation_generator()]],
                         ids=["trivial", "conjugation"])
def test_one_evaluation_per_saturated_key(c4, kind, generators):
    action = validate_action(c4, generators)
    nu = make_truncated_index(kind, 5, action)
    evaluate = nu.evaluate
    calls = []
    nu.evaluate = lambda A, Y: calls.append((A, Y)) or evaluate(A, Y)
    keys = set()
    full = c4.full_mask()
    for A in range(full + 1):
        for Y in range(full + 1):
            nu(A, Y)
            GY = 0 if kind == "category" else action.saturate(Y)
            keys.add((action.saturate(A), GY))
    assert len(calls) == len(keys)


@pytest.mark.parametrize("value", [1.5, True, -1, None])
def test_index_values_must_be_nonnegative_integers(v_space, value):
    nu = IndexFunction(v_space, lambda A, Y: value)
    with pytest.raises(ValueError, match="nonnegative integers"):
        nu(v_space.full_mask())
    with pytest.raises(ValueError, match="nonnegative integers"):
        check_axioms(nu)


@pytest.mark.parametrize("cap", [2.5, True, 0, "3"])
def test_truncation_cap_must_be_a_positive_integer(c4, cap):
    with pytest.raises(ValueError, match="truncation cap"):
        make_truncated_index("category", cap, GroupAction.trivial(c4))


def test_sampled_axioms_match_oracle_on_generated_instances():
    for seed in range(200):
        pair, nu, a, b = random_instance(seed)
        oracle = oracle_truncated_index(
            "category", nu.cap, GroupAction.trivial(pair.space))
        assert _check_axioms_sampled(nu, seed) == axiom_row(
            oracle_axioms_sampled(oracle, pair.space, AXIOM_SAMPLES,
                                  seed)), seed


@pytest.mark.parametrize("kind,generators", [
    ("mod_category", []),
    ("pair_category", [fx.conjugation_generator()]),
], ids=["mod-trivial", "pair-conjugation"])
def test_sampled_axioms_match_oracle_on_the_circle(kind, generators):
    failed = 0
    for seed in range(21):
        c4 = fx.fix_c4()
        nu = make_truncated_index(kind, 5, validate_action(c4, generators))
        oracle = oracle_truncated_index(
            kind, 5, validate_action(fx.fix_c4(), generators))
        row = _check_axioms_sampled(nu, seed)
        assert row == axiom_row(
            oracle_axioms_sampled(oracle, c4, AXIOM_SAMPLES, seed))
        failed += not row["ok"]
    if kind == "mod_category":  # the pinned divergence: witnesses compared
        assert failed == 21


@pytest.mark.parametrize("value", [
    lambda A, Y: int(A == 0),
    lambda A, Y: A.bit_count() % 2,
], ids=["empty-set-largest", "parity"])
def test_sampled_axioms_match_oracle_after_a_monotonicity_witness(value):
    """A monotonicity witness found early leaves mixed subadditivity to
    start mid-stream, and continuity's shuffle and probes after it."""
    space = fx.fix_wedge()
    for seed in range(21):
        nu = IndexFunction(space, value)
        row = _check_axioms_sampled(nu, seed)
        assert failed_axioms(row)[0] == "monotonicity"
        assert row == axiom_row(
            oracle_axioms_sampled(nu, space, AXIOM_SAMPLES, seed)), seed


def test_sampled_supervariance_matches_oracle_on_thirteen_points():
    space = validate_space([f"x{i:02}" for i in range(13)], [])
    M = (1 << 10) - 1
    nu = IndexFunction(space, lambda A, Z: int(A & M == M))
    moved = SpaceMap(space, space, (1,) + tuple(range(1, 13)))
    failed = 0
    for seed in range(10):
        for phi in (moved, SpaceMap.identity(space)):
            out = check_supervariance(nu, phi, 0, seed=seed)
            assert out["mode"] == "sampled"
            assert out == oracle_supervariance_sampled(
                nu, phi, 0, CHECK_SAMPLES, seed)
            failed += not out["ok"]
    assert 0 < failed < 10


def _looped(nu):
    """The same 'category' values without the hook that
    ``make_truncated_index`` sets, so every check runs its loops; the
    cache key GA is read from a table, which keeps the loops fast under
    an action."""
    keys = [nu.key(A, 0) for A in range(1 << len(nu.space))]
    return IndexFunction(nu.space, nu.evaluate, kind=nu.kind, cap=nu.cap,
                         key=lambda A, Y: keys[A])


def _planted(target, change):
    """``engine.cover_category`` with ``change`` applied to the value of
    the one set ``target`` (the index asks only for open hulls)."""
    original = engine.cover_category

    def planted(query):
        result = original(query)
        if query.A != target:
            return result
        return SimpleNamespace(value=max(0, change(result.value)))

    return mock.patch.object(engine, "cover_category", planted)


def _assert_same_checks(nu, phi=None, seeds=range(3)):
    """The exhaustive and sampled axiom rows of nu equal those of its
    loops and of the oracle's draws, byte for byte, and so does the
    supervariance row for phi; returns the exhaustive row."""
    looped = _looped(nu)
    report = check_axioms(nu)
    assert json.dumps(report) == json.dumps(check_axioms(looped))
    for seed in seeds:
        drawn = oracle_axioms_sampled(looped, nu.space, AXIOM_SAMPLES, seed)
        assert json.dumps(_check_axioms_sampled(nu, seed)) == \
            json.dumps(axiom_row(drawn))
    if phi is not None:
        Z = nu.space.subset(nu.space.points[:1])
        assert check_supervariance(nu, phi, Z) == \
            check_supervariance(looped, phi, Z)
    return report


# seven points: a coned circle whose maxima are swapped, and two swapped
# points above both minima
SWAPPED_CONE_7 = validate_space(
    ["p", "q", "U", "L", "t", "a", "b"],
    [["p", "U"], ["p", "L"], ["q", "U"], ["q", "L"], ["U", "t"], ["L", "t"],
     ["p", "a"], ["p", "b"], ["q", "a"], ["q", "b"]])
SWAPPED_CONE_7_ACTION = validate_action(SWAPPED_CONE_7, [
    {"p": "p", "q": "q", "U": "L", "L": "U", "t": "t", "a": "b", "b": "a"}])


# today's loops on an index under an action saturate every mask they
# try, about 2 s for a 6-point defect and 17 s for a 7-point one, so the
# draws stop at 5 points and the 7-point example plants nothing
@given(acted_spaces(max_points=5), st.sampled_from(sorted(CLASSES)),
       st.integers(min_value=0, max_value=127), st.sampled_from([0, 1, -1]))
@example((SWAPPED_CONE_7, SWAPPED_CONE_7_ACTION, None), "all", 0, 0)
@settings(max_examples=30, deadline=None)
def test_axioms_decided_on_opens_match_the_loops(acted, class_name, where,
                                                 shift):
    """With the value of one invariant open shifted by ``shift`` (or none),
    the decision on opens is the verdict of ``check_axioms``'s
    enumeration, and every report equals its loops' and the oracle's;
    so does supervariance along a constant map (a G-map exactly when
    its point is fixed)."""
    space, action, _ = acted
    opens = [U for U in space.up_sets() if action.is_invariant(U)]
    constant = fx.constant_map(space, space, where % len(space))
    with _planted(opens[where % len(opens)], lambda v: v + shift):
        nu = make_truncated_index("category", 5, action,
                                  CLASSES[class_name](action))
        decided = engine._holds_on_opens(nu)
        report = _assert_same_checks(nu, phi=constant)
    assert decided == report["ok"]
    if not shift:
        assert decided


def test_planted_monotonicity_defect_is_caught_with_its_witness(c4):
    # {p, U, L} is X minus the minimal point q: give it more than X
    nu = make_truncated_index("category", 5, GroupAction.trivial(c4))
    with _planted(c4.subset(["p", "U", "L"]), lambda v: 3):
        assert not engine._holds_on_opens(nu)
        report = _assert_same_checks(nu)
    assert failed_axioms(report) == ["monotonicity"]
    assert report["witness"]["monotonicity"]["witness"]["values"] == (3, 2)


def test_planted_subadditivity_defect_is_caught_with_its_witness(c4):
    # X is {p, U, L} | {q, U, L}, each of value 1: give X the value 3
    nu = make_truncated_index("category", 5, GroupAction.trivial(c4))
    with _planted(c4.full_mask(), lambda v: 3):
        assert not engine._holds_on_opens(nu)
        report = _assert_same_checks(nu)
    assert failed_axioms(report) == ["mixed_subadditivity"]
    witness = report["witness"]["mixed_subadditivity"]["witness"]
    assert witness["values"] == (3, 1, 1)


def test_supervariance_is_decided_on_opens_only_for_a_G_map(c4_const_pair,
                                                          conjugation):
    c4 = c4_const_pair.space
    nu = make_truncated_index("category", 5, GroupAction.trivial(c4))
    phi = c4_const_pair.phi  # constant at p: X drops from 2 to 1
    assert not engine._holds_on_opens(nu, phi)
    out = check_supervariance(nu, phi, 0)
    assert out == check_supervariance(_looped(nu), phi, 0)
    assert out["witness"]["values"] == (1, 2)
    # under conjugation the constant map at U is not a G-map, so the
    # loop over every subset decides, as it does without the hook
    nu = make_truncated_index("category", 5, conjugation,
                              HomogeneousClass.all_types(conjugation))
    at_U = fx.constant_map(c4, c4, c4.index["U"])
    assert not engine._holds_on_opens(nu, at_U)
    image_mask = SpaceMap.image_mask
    tried = []
    with mock.patch.object(SpaceMap, "image_mask", lambda self, A: (
            tried.append(A) or image_mask(self, A))):
        out = check_supervariance(nu, at_U, 0)
    # subsets in mask order, {p} (not open) among them
    assert len(tried) > 1 and tried == list(range(len(tried)))
    assert out == check_supervariance(_looped(nu), at_U, 0)
    assert engine._holds_on_opens(nu, SpaceMap.identity(c4))


def test_supervariance_on_opens_allows_a_value_to_rise():
    # the circle with r below L: phi sends r to p and L to U, so the
    # path {q, r, U, L} (value 1) goes onto the circle's hull (2), and no
    # open's value falls
    space = validate_space(["p", "q", "r", "U", "L"], [
        ["p", "U"], ["p", "L"], ["q", "U"], ["q", "L"], ["r", "L"]])
    phi = SpaceMap.from_dict(space, space, {
        "p": "p", "q": "q", "r": "p", "U": "U", "L": "U"})
    nu = make_truncated_index("category", 5, GroupAction.trivial(space))
    path = space.subset(["q", "r", "U", "L"])
    assert (nu(phi.image_mask(path)), nu(path)) == (2, 1)
    assert engine._holds_on_opens(nu, phi)
    assert check_supervariance(nu, phi, 0) == check_supervariance(
        _looped(nu), phi, 0) == {"ok": True, "mode": "exhaustive",
                                 "witness": None}


def test_unknown_index_kind_names_the_known_kinds(c4):
    with pytest.raises(ValueError, match=r"lscat\.engine\.INDEX_KINDS = "):
        make_truncated_index("bogus", 3, GroupAction.trivial(c4))


def test_unknown_axiom_mode_is_rejected(v_pair, v_index):
    for mode in ("exhastive", "assumed"):
        with pytest.raises(ValueError, match="AXIOM_MODES"):
            verify_index_bound(v_index, v_pair, 1.5, 2.5, axiom_mode=mode)


def test_exhaustive_axiom_mode_past_its_cap_is_refused(v_pair, v_index,
                                                       monkeypatch):
    monkeypatch.setattr(engine, "AXIOM_EXHAUSTIVE_CAP", 2)
    with pytest.raises(SizeCapExceeded,
                       match=r"lscat\.engine\.AXIOM_EXHAUSTIVE_CAP = 2"):
        verify_index_bound(v_index, v_pair, -1.0, 3.0,
                           axiom_mode="exhaustive")
    assert v_index._cache == {}  # refused before any index call
    report = verify_index_bound(v_index, v_pair, -1.0, 3.0,
                                axiom_mode="sampled")
    assert report["verdict"] == "INEQUALITY_HOLDS"


def test_axioms_pass_for_all_kinds_on_v(v_space):
    act = GroupAction.trivial(v_space)
    for kind in ("category", "pair_category", "mod_category"):
        row = check_axioms(make_truncated_index(kind, 5, act))
        assert row == {"ok": True, "mode": "exhaustive", "witness": None}, \
            (kind, row)


def test_axioms_category_kind_on_c4(c4_index):
    assert check_axioms(c4_index)["ok"]


def test_axioms_cardinality_counterexample(v_space):
    nu = IndexFunction(v_space, lambda A, Y: A.bit_count(), kind="user")
    row = check_axioms(nu)
    assert failed_axioms(row) == ["continuity"]
    assert row["witness"]["continuity"]["witness"]["A"] == ["c"]


def test_axioms_zero_function(v_space):
    nu = IndexFunction(v_space, lambda A, Y: 0)
    assert check_axioms(nu)["ok"]


def test_mod_kind_subadditivity_fails_on_circle(trivial_c4):
    """The pinned finite-model divergence: the truncated mod variant is
    not mixed-subadditive on the minimal circle."""
    nu = make_truncated_index("mod_category", 5, trivial_c4)
    row = check_axioms(nu)
    assert failed_axioms(row) == ["mixed_subadditivity"]
    witness = row["witness"]["mixed_subadditivity"]["witness"]
    assert witness["Y"] == ["p", "q"]


def test_supervariance_examples(v_pair, v_index, c4_const_pair, c4_index):
    assert check_supervariance(v_index, v_pair.phi, 0)["ok"]
    out = check_supervariance(
        c4_index, c4_const_pair.phi, c4_const_pair.sublevel(-1.0)
    )
    assert not out["ok"]
    assert out["witness"]["A"] == ["p", "q"]
    ident = SpaceMap.identity(c4_index.space)
    assert check_supervariance(c4_index, ident, 0)["ok"]


def test_escape_exponent_examples(v_pair, c4):
    assert band_escape_exponent(v_pair, 0, 1.5, 2.5) == 1
    assert band_escape_exponent(v_pair, 0, -3.0, -2.0) == 0
    ident_pair = DynamicalPair(c4, SpaceMap.identity(c4),
                               fx.C4_CONST_HEIGHTS)
    with pytest.raises(HypothesisUnmet) as err:
        band_escape_exponent(ident_pair, 0, 0.5, 2.5)
    assert err.value.which == "fixed_point_free_band"
    # v_pair fixes c (f = 0) and a (f = 1): a fixed point at a lies in
    # the band [a, b[, and one at b must lie in U
    with pytest.raises(HypothesisUnmet) as err:
        band_escape_exponent(v_pair, 0, 1.0, 1.5)
    assert err.value.which == "fixed_point_free_band"
    with pytest.raises(HypothesisUnmet) as err:
        band_escape_exponent(v_pair, 0, 0.5, 1.0)
    assert err.value.which == "neighborhood_covers_top_fixed_points"
    a = v_pair.space.subset(["a"])
    assert band_escape_exponent(v_pair, a, 0.5, 1.0) == 0


def test_supervariance_is_exhaustive_up_to_twelve_points():
    space = validate_space([f"x{i:02}" for i in range(12)], [])
    nu = IndexFunction(space, lambda A, Z: 0)
    out = check_supervariance(nu, SpaceMap.identity(space), 0)
    assert out == {"ok": True, "mode": "exhaustive", "witness": None}


def test_escape_exponent_minimality_on_generated_instances():
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
        source = pair.sublevel(hi)
        target = pair.sublevel(lo)
        current = source
        for _ in range(n):
            nxt = 0
            for i in range(len(pair.space)):
                if current >> i & 1:
                    nxt |= 1 << pair.phi.images[i]
            current = nxt
        assert current & ~target == 0
        if n > 0:
            previous = source
            for _ in range(n - 1):
                nxt = 0
                for i in range(len(pair.space)):
                    if previous >> i & 1:
                        nxt |= 1 << pair.phi.images[i]
                previous = nxt
            assert previous & ~target != 0, "returned power is not minimal"
        checked += 1
    assert checked == 200


def sublevel_entry_margin(pair, U, a, eps):
    """Largest margin d in ]0, eps] with phi(f^{a+d}) inside U.

    Candidates come from the gap structure of the value set; a margin
    below the first value above the cut always works for Lyapunov pairs
    since the sublevel set is forward invariant.
    """
    dps = check_discrete_palais_smale(pair)
    if not dps["ok"]:
        raise HypothesisUnmet("lyapunov", dps["witness"])
    if eps <= 0:
        raise ValueError("need a positive window")
    fa = pair.sublevel(a)
    if fa & ~U:
        raise HypothesisUnmet(
            "neighborhood_contains_sublevel",
            sorted(pair.space.labels(fa & ~U)),
        )
    fixed = pair.fixed_mask()
    for i in bits(fixed):
        if a < pair.f[i] < a + eps:
            raise HypothesisUnmet(
                "fixed_point_free_window", pair.space.points[i]
            )
    above = [v for v in pair.values_sorted() if v > a]
    candidates = [eps]
    candidates.extend(v - a for v in above if v - a <= eps)
    if above:
        candidates.append(min(above[0] - a, eps) / 2)
    else:
        candidates.append(eps / 2)
    for delta in sorted(set(candidates), reverse=True):
        moved = pair.phi.image_mask(pair.sublevel(a + delta))
        if moved & ~U == 0:
            return delta
    raise AssertionError("no margin worked despite the hypotheses")


def test_entry_margin_examples(v_pair, v_space):
    assert sublevel_entry_margin(v_pair, v_space.full_mask(), 1.0, 1.0) == 1.0
    delta = sublevel_entry_margin(
        v_pair, v_space.subset(["c", "a"]), 1.0, 0.9
    )
    assert 0 < delta <= 0.9
    assert v_pair.phi.image_mask(v_pair.sublevel(1.0 + delta)) & ~(
        v_space.subset(["c", "a"])
    ) == 0
    frozen = DynamicalPair(v_space, SpaceMap.identity(v_space), fx.V_HEIGHTS)
    with pytest.raises(HypothesisUnmet):
        sublevel_entry_margin(frozen, v_space.subset(["c"]), 0.5, 1.0)


def test_critical_values_negative_control(c4_const_pair, c4_index):
    runs = ladder(c4_const_pair, c4_index, -1.0, 2.0)
    assert level_values(runs) == [0.0, 1.0]
    assert nondecreasing(runs) and in_band(runs, -1.0, 2.0)
    assert not all_critical(runs)  # level 1 has no fixed points
    assert [run["slice"] for run in runs] == [["p"], []]
    assert [(run["slice_index"], run["ok"]) for run in runs] == \
        [(1, True), (0, False)]


def rescan_levels(pair, nu, a, b):
    """(k, c_k) by the definition: for each k, the first band value v
    with nu(f^v, f^a) >= k, rescanning the band."""
    low = pair.sublevel(a)
    band = [v for v in pair.values_sorted() if a < v <= b]
    return [(k, next(v for v in band if nu(pair.sublevel(v), low) >= k))
            for k in range(nu(low, low) + 1, nu(pair.sublevel(b), low) + 1)]


def assert_ladder_is_the_rescan(pair, nu, a, b):
    """The runs hold the rescan's levels, one run per value, each with
    its fixed slice and that slice's index against the run's length."""
    runs = ladder(pair, nu, a, b)
    assert levels(runs) == rescan_levels(pair, nu, a, b)
    values = [run["value"] for run in runs]
    assert values == sorted(set(values))
    for run in runs:
        level_slice = pair.level_slice(run["value"])
        assert run["slice"] == sorted(pair.space.labels(level_slice))
        assert run["slice_index"] == nu(level_slice, 0)
        assert run["ok"] == (run["slice_index"] >= len(run["ks"]))


@pytest.mark.parametrize("by_sublevel", [
    {"c": 2, "ca": 1, "cab": 3},  # dips, then passes the earlier value
    {"c": 3, "ca": 1, "cab": 2},  # starts above the top value
], ids=["dip", "overshoot"])
def test_ladder_on_a_non_monotone_index(v_pair, by_sublevel):
    """The one-pass ladder equals the per-k rescan even when mu is not
    monotone in the level; b = 2.0 is a value of f, so the top sublevel
    is a band value."""
    space = v_pair.space
    values = {space.subset(k): v for k, v in by_sublevel.items()}
    nu = IndexFunction(space, lambda A, Y: values.get(A, 0))
    assert_ladder_is_the_rescan(v_pair, nu, -1.0, 2.0)
    assert_ladder_is_the_rescan(v_pair, nu, 0.0, 2.0)


def test_ladder_is_the_per_k_rescan_on_generated_instances():
    for seed in range(200):
        assert_ladder_is_the_rescan(*random_instance(seed))


def test_critical_values_positive(v_pair, v_index):
    runs = ladder(v_pair, v_index, -1.0, 3.0)
    assert level_values(runs) == [0.0]
    assert all_critical(runs)


def test_critical_values_empty_band(v_pair, v_index):
    assert ladder(v_pair, v_index, 5.0, 6.0) == []


def test_verify_index_bound_positive(v_pair, v_index):
    report = verify_index_bound(v_index, v_pair, -1.0, 3.0,
                                axiom_mode="exhaustive")
    assert report["verdict"] == "INEQUALITY_HOLDS"
    assert report["lhs"]["total"] == 2
    assert report["rhs"] == 1
    assert report["runs"] == [{"value": 0.0, "ks": [1], "slice": ["c"],
                               "slice_index": 1, "ok": True}]


def test_verify_index_bound_negative_control(c4_const_pair, c4_index,
                                             _violations_dir):
    report = verify_index_bound(c4_index, c4_const_pair, -1.0, 2.0,
                                axiom_mode="exhaustive")
    assert report["verdict"] == "HYPOTHESIS_FAILED:supervariance"
    assert report["lhs"]["total"] == 1
    assert report["rhs"] == 2
    assert not _violations_dir.exists()


def _passing_axioms():
    """``engine._check_axioms_sampled`` planted to pass: the ledger row
    of a sampled check whose draws all passed, whatever the index."""
    return mock.patch.object(engine, "_check_axioms_sampled",
                             lambda nu, seed: engine._axiom_row("sampled"))


@pytest.mark.parametrize("planted", [False, True],
                         ids=["passing", "monotonicity-defect"])
def test_index_bound_ledger_holds_the_rows_of_its_checks(v_pair, planted):
    """Each ledger row of ``verify_index_bound`` is the row its check
    returns, byte for byte: the discrete Palais-Smale row (twice), the
    axiom row of each mode (and of a sampled check planted to pass) and
    the supervariance row.  The defect gives {a} the value 3, above its
    open superset {a, b}."""
    space = v_pair.space
    a, b = -1.0, 3.0
    with (_planted(space.subset(["a"]), lambda v: 3) if planted
          else contextlib.nullcontext()):
        for mode, forced in (("exhaustive", False), ("sampled", False),
                             ("sampled", True)):
            for seed in range(3):
                nu = make_truncated_index("category", 5,
                                          GroupAction.trivial(space))
                with (_passing_axioms() if forced
                      else contextlib.nullcontext()):
                    report = verify_index_bound(nu, v_pair, a, b,
                                                axiom_mode=mode, seed=seed)
                    if mode == "exhaustive":
                        axioms = check_axioms(nu)
                    else:
                        axioms = engine._check_axioms_sampled(nu, seed)
                dps = check_discrete_palais_smale(v_pair)
                rows = {
                    "lyapunov": dps,
                    "discrete_palais_smale": dps,
                    "axioms": axioms,
                    "supervariance": check_supervariance(
                        nu, v_pair.phi, v_pair.sublevel(a), seed=seed),
                }
                assert json.dumps(report["hypotheses"]) == json.dumps(rows)
                assert dps == {"ok": True, "witness": None}
                if planted and not forced:
                    assert report["verdict"] == "HYPOTHESIS_FAILED:axioms"
                    assert failed_axioms(axioms)[0] == "monotonicity"
                else:
                    assert report["verdict"] == "INEQUALITY_HOLDS"
                    assert axioms["witness"] is None


def test_planted_violation_is_reported_and_persisted(
        v_pair, tmp_path, monkeypatch):
    """A supervariant user index, with a sampled axiom check planted to
    pass, that breaks the counting bound: 2 on the sets holding c and
    a, 0 elsewhere, so the slices {c} and {a} count 0 against nu(f^3) =
    2."""
    space = v_pair.space
    ca = space.subset(["c", "a"])
    nu = IndexFunction(space, lambda A, Y: 2 * (A & ca == ca), kind="user")
    planted = tmp_path / "planted"
    monkeypatch.setenv("LSCAT_VIOLATIONS_DIR", str(planted))
    with _passing_axioms():
        report = verify_index_bound(nu, v_pair, -1.0, 3.0)
    assert report["hypotheses"]["axioms"]["ok"] is True
    assert report["verdict"] == "VIOLATION"
    assert (report["lhs"]["total"], report["rhs"]) == (0, 2)
    bundles = list(planted.glob("index_bound-*.json"))
    assert len(bundles) == 1
    saved = json.loads(bundles[0].read_text())["report"]
    assert saved["verdict"] == "VIOLATION"
    assert (saved["lhs"], saved["rhs"]) == (report["lhs"], report["rhs"])

    # on an unbounded band the bundle is strict JSON, the end read "inf"
    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    monkeypatch.setenv("LSCAT_VIOLATIONS_DIR", str(tmp_path / "unbounded"))
    with _passing_axioms():
        report = verify_index_bound(nu, v_pair, -1.0, INFINITE)
    assert report["verdict"] == "VIOLATION"
    (path,) = (tmp_path / "unbounded").glob("index_bound-*.json")
    saved = json.loads(path.read_text(), parse_constant=refuse)["report"]
    assert saved["band"] == [-1.0, "inf"]


def test_generated_instances_hold(capsys):
    for seed in range(80):
        pair, nu, a, b = random_instance(seed)
        report = verify_index_bound(nu, pair, a, b, axiom_mode="sampled",
                                    seed=seed)
        assert report["verdict"] == "INEQUALITY_HOLDS", (seed, report)


# verdict counts and sha256 of the 200 reports of the equivariant sweep
EQUIVARIANT_SWEEP_VERDICTS = {"INEQUALITY_HOLDS": 200}
EQUIVARIANT_SWEEP_SHA256 = (
    "f2dc98483c45f9cc1f78ea8b9d0ea8beaca1d10096463890a9000b38eee40040")


def test_equivariant_sweep_holds_and_certifies(monkeypatch):
    """Criterion 04's sweep under a real involution (tests/equivariant.py):
    each map is a G-map G-homotopic to the identity, the verdicts and
    reports are pinned, every CatResult behind them verifies, and an
    invariant open whose value is shifted by one is caught."""
    results = []
    count_calls(monkeypatch, {"cover_category": 0}, "cover_category",
                engine, "cover_category", results)
    verdicts = Counter()
    digest = hashlib.sha256()
    for seed in range(200):
        pair, nu, a, b, action = random_equivariant_instance(seed)
        assert not action.is_trivial() and is_G_map(pair.phi, action)
        assert find_identity_fence(pair, action) is not None
        report = verify_index_bound(nu, pair, a, b, axiom_mode="sampled",
                                    seed=seed)
        verdicts[report["verdict"]] += 1
        digest.update(json.dumps(report, sort_keys=True).encode())
    assert verdicts == EQUIVARIANT_SWEEP_VERDICTS
    assert digest.hexdigest() == EQUIVARIANT_SWEEP_SHA256
    assert verify_results(results) > 0
    sound = next(r for r in results
                 if r.value and r.query.space.is_up_set(r.query.A))
    shifted = CatResult(sound.query, sound.value + 1, sound.cover)
    with pytest.raises(ValueError, match="disagrees with the value"):
        verify_results([shifted])


def test_minmax_levels_are_critical_under_supervariance():
    """Every min-max level carries a fixed point once supervariance
    holds; the constant-map control shows the failure mode instead."""
    for seed in range(60):
        pair, nu, a, b = random_instance(seed)
        sup = check_supervariance(nu, pair.phi, pair.sublevel(a))
        runs = ladder(pair, nu, a, b)
        assert nondecreasing(runs) and in_band(runs, a, b)
        if sup["ok"]:
            assert all_critical(runs), (seed, level_values(runs))


@given(st.lists(st.integers(0, 6), min_size=1, max_size=7))
def test_steps_to_fixation_walk_each_orbit(targets):
    """Each point's steps to a fixed point, walked from that point alone,
    or None once some walk enters a cycle of more than one point."""
    images = tuple(t % len(targets) for t in targets)
    expected = []
    for i in range(len(images)):
        seen = [i]
        while images[seen[-1]] not in seen:
            seen.append(images[seen[-1]])
        if images[seen[-1]] != seen[-1]:  # the walk closed a longer cycle
            expected = None
            break
        expected.append(len(seen) - 1)
    assert engine._steps_to_fixation(SimpleNamespace(images=images)) == \
        expected


def test_generator_produces_identity_homotopic_lyapunov_pairs():
    from lscat.poset import SpaceMap, fence_search

    for seed in (3, 17, 41):
        pair, nu, a, b = random_instance(seed)
        assert check_discrete_palais_smale(pair)["ok"]
        fence = fence_search(
            SpaceMap.identity(pair.space), {pair.phi.images}.__contains__,
            moves=point_moves(pair.space),
        )
        assert fence is not None
        assert a < b


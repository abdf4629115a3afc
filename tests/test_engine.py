import pytest

import fixtures as fx
from lscat.action import GroupAction, HomogeneousClass, validate_action
from lscat.category import INFINITE, CatQuery, cover_category
from lscat.dynamics import DynamicalPair
from lscat.engine import (
    HypothesisUnmet,
    IndexFunction,
    band_escape_exponent,
    check_axioms,
    check_supervariance,
    critical_values,
    make_truncated_index,
    random_instance,
    sublevel_entry_margin,
    verify_index_bound,
)
from lscat.poset import SpaceMap


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
    return cap if value is INFINITE else min(value, cap)


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


def test_axioms_pass_for_all_kinds_on_v(v_space):
    act = GroupAction.trivial(v_space)
    for kind in ("category", "pair_category", "mod_category"):
        rep = check_axioms(make_truncated_index(kind, 5, act))
        assert rep.mode == "exhaustive"
        assert rep.all_ok(), (kind, rep.axioms)


def test_axioms_category_kind_on_c4(c4_index):
    rep = check_axioms(c4_index)
    assert rep.all_ok()


def test_axioms_cardinality_counterexample(v_space):
    nu = IndexFunction(v_space, lambda A, Y: A.bit_count(), kind="user")
    rep = check_axioms(nu)
    assert rep.axioms["monotonicity"]["ok"]
    assert rep.axioms["mixed_subadditivity"]["ok"]
    assert not rep.axioms["continuity"]["ok"]
    assert rep.axioms["continuity"]["witness"]["A"] == ["c"]


def test_axioms_zero_function(v_space):
    nu = IndexFunction(v_space, lambda A, Y: 0)
    assert check_axioms(nu).all_ok()


def test_mod_kind_subadditivity_fails_on_circle(trivial_c4):
    """The pinned finite-model divergence: the truncated mod variant is
    not mixed-subadditive on the minimal circle."""
    nu = make_truncated_index("mod_category", 5, trivial_c4)
    rep = check_axioms(nu)
    assert rep.axioms["monotonicity"]["ok"]
    assert rep.axioms["continuity"]["ok"]
    assert not rep.axioms["mixed_subadditivity"]["ok"]
    witness = rep.axioms["mixed_subadditivity"]["witness"]
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
    table = critical_values(c4_index, c4_const_pair, -1.0, 2.0)
    assert table.values() == [0.0, 1.0]
    assert table.nondecreasing() and table.in_band()
    assert not table.all_critical()  # level 1 has no fixed points
    flags = [lev["is_critical_level"] for lev in table.levels]
    assert flags == [True, False]
    assert all(lev["lower_check"] and lev["upper_check"]
               for lev in table.levels)


def test_critical_values_positive(v_pair, v_index):
    table = critical_values(v_index, v_pair, -1.0, 3.0)
    assert table.values() == [0.0]
    assert table.all_critical()


def test_critical_values_empty_band(v_pair, v_index):
    table = critical_values(v_index, v_pair, 5.0, 6.0)
    assert table.values() == []


def test_verify_index_bound_positive(v_pair, v_index):
    report = verify_index_bound(v_index, v_pair, -1.0, 3.0,
                                axiom_mode="exhaustive")
    assert report["verdict"] == "INEQUALITY_HOLDS"
    assert report["lhs"]["total"] == 2
    assert report["rhs"] == 1
    assert all(rc["ok"] for rc in report["run_checks"])


def test_verify_index_bound_negative_control(c4_const_pair, c4_index,
                                             _violations_dir):
    report = verify_index_bound(c4_index, c4_const_pair, -1.0, 2.0,
                                axiom_mode="exhaustive")
    assert report["verdict"] == "HYPOTHESIS_FAILED:supervariance"
    assert report["lhs"]["total"] == 1
    assert report["rhs"] == 2
    assert not _violations_dir.exists()


def test_generated_instances_hold(capsys):
    for seed in range(80):
        pair, nu, a, b = random_instance(seed)
        report = verify_index_bound(nu, pair, a, b, axiom_mode="sampled",
                                    seed=seed)
        assert report["verdict"] == "INEQUALITY_HOLDS", (seed, report)


def test_minmax_levels_are_critical_under_supervariance():
    """Every min-max level carries a fixed point once supervariance
    holds; the constant-map control shows the failure mode instead."""
    for seed in range(60):
        pair, nu, a, b = random_instance(seed)
        sup = check_supervariance(nu, pair.phi, pair.sublevel(a))
        table = critical_values(nu, pair, a, b)
        assert table.nondecreasing() and table.in_band()
        if sup["ok"]:
            assert table.all_critical(), (seed, table.values())


def test_generator_produces_identity_homotopic_lyapunov_pairs():
    from lscat.dynamics import is_lyapunov
    from lscat.poset import SpaceMap, fence_search

    for seed in (3, 17, 41):
        pair, nu, a, b = random_instance(seed)
        ok, _ = is_lyapunov(pair)
        assert ok
        fence = fence_search(
            SpaceMap.identity(pair.space), targets={pair.phi.images}
        )
        assert fence is not None
        assert a < b

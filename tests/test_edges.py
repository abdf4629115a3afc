"""Cap handling, certificate re-validation, equivariant end-to-end runs,
and the engine's routing of the known mod-variant divergence."""

import json

import pytest

from lscat import action, poset, simplicial
import fixtures as fx
from lscat.action import GroupAction, HomogeneousClass
from lscat.category import CatQuery, cover_category
from lscat.dynamics import DynamicalPair, verify_band_bound
from lscat.engine import make_truncated_index, verify_index_bound
from lscat.formats import emit_report
from lscat.poset import (
    SizeCapExceeded,
    SpaceMap,
    enumerate_maps,
    fence_search,
    homotopic,
    validate_space,
)
from lscat.simplicial import SimplicialComplex, star_cover_upper_bound


def test_enumerate_maps_cap_and_override(monkeypatch):
    big = fx.discrete(13)
    with pytest.raises(SizeCapExceeded):
        enumerate_maps(big, big)
    monkeypatch.setattr(poset, "MAP_SPACE_CAP", 13)
    maps = enumerate_maps(big.subspace(big.subset(["d0"]))[0], big)
    assert len(maps) == 13


def test_subset_cap_on_up_sets():
    big = fx.discrete(17)
    with pytest.raises(SizeCapExceeded):
        big.up_sets()


def test_group_cap():
    # the full symmetric group on a 5-point antichain has 120 elements
    space = fx.discrete(5)
    cycle = {f"d{i}": f"d{(i + 1) % 5}" for i in range(5)}
    swap = {"d0": "d1", "d1": "d0", "d2": "d2", "d3": "d3", "d4": "d4"}
    with pytest.raises(SizeCapExceeded):
        GroupAction.from_label_maps(space, [cycle, swap])


def test_invariance_validation():
    c4 = fx.fix_c4()
    action = GroupAction.from_label_maps(c4, [fx.conjugation_generator()])
    with pytest.raises(ValueError):
        CatQuery(c4, A=1 << c4.index["U"], action=action)


@pytest.mark.parametrize("A,Y,mode", [
    (1 << 10, 0, "plain"),
    (-1, 0, "plain"),
    (None, 1 << 9, "pair"),
    (None, -2, "mod"),
])
def test_query_masks_must_lie_in_the_space(A, Y, mode):
    c4 = fx.fix_c4()
    with pytest.raises(ValueError, match="points of the space"):
        CatQuery(c4, A=A, Y=Y, mode=mode)
    with pytest.raises(ValueError, match="points of the space"):
        CatQuery(c4, A=A, Y=Y, mode=mode,
                 action=GroupAction.from_label_maps(
                     c4, [fx.conjugation_generator()]))


def test_classb_requires_trivial_action(conjugation, c4, v_space):
    with pytest.raises(ValueError, match="classB mode takes no group"):
        CatQuery(c4, mode="classB", action=conjugation, class_b=[v_space])


@pytest.mark.parametrize("mode,Y", [
    ("plain", None),
    ("closed", None),
    ("pair", ["l", "r"]),
    ("semi", ["l", "r"]),
    ("mod", ["l", "r"]),
])
def test_certificates_revalidate_across_modes(arc3, mode, Y):
    y_mask = arc3.subset(Y) if Y else 0
    result = cover_category(
        CatQuery(arc3, Y=y_mask, mode=mode)
    )
    assert result.verify()


def test_classb_certificate_revalidates(c4, v_space):
    result = cover_category(
        CatQuery(c4, mode="classB", class_b=[v_space])
    )
    assert result.value == 2
    assert result.verify()


def test_equivariant_certificates_revalidate(conjugation, c4):
    klass = HomogeneousClass.all_types(conjugation)
    result = cover_category(
        CatQuery(c4, action=conjugation, klass=klass)
    )
    assert result.value == 2
    assert result.verify()


def test_equivariant_band_bound_end_to_end(conjugation, c4):
    klass = HomogeneousClass.all_types(conjugation)
    f = {"p": 0.0, "q": 0.5, "U": 1.0, "L": 1.0}  # invariant levels
    pair = DynamicalPair(c4, SpaceMap.identity(c4), f)
    report = verify_band_bound(pair, -1.0, 1.0, conjugation, klass)
    assert report.verdict() == "HOLDS"
    assert report.values["slice_sum"] == 3  # three orbits, each level 1
    assert report.values["sublevel_cat_high"] == 2
    assert report.hypotheses["invariant_function"]["ok"]
    assert report.values["orbit_class_count"] == 3


def test_equivariant_band_bound_detects_noninvariant_f(conjugation, c4):
    f = {"p": 0.0, "q": 0.5, "U": 1.0, "L": 2.0}  # breaks invariance
    pair = DynamicalPair(c4, SpaceMap.identity(c4), f)
    report = verify_band_bound(pair, -1.0, 2.0, conjugation,
                               HomogeneousClass.all_types(conjugation))
    assert "invariant_function" in report.verdict()


def test_engine_routes_mod_divergence_to_hypotheses(c4):
    """With the mod-variant index on the two-level circle the axiom
    checker fails (the pinned divergence), so the verdict names the
    axioms and never reports a violation."""
    action = GroupAction.trivial(c4)
    nu = make_truncated_index("mod_category", 5, action)
    pair = DynamicalPair(c4, SpaceMap.identity(c4), fx.C4_TWO_LEVEL_HEIGHTS)
    report = verify_index_bound(nu, pair, 0.0, 1.0, axiom_mode="exhaustive")
    assert report["verdict"] == "HYPOTHESIS_FAILED:axioms"
    witness = report["hypotheses"]["axioms"]["witness"]
    assert "mixed_subadditivity" in witness


def test_engine_pair_kind_positive(v_space):
    action = GroupAction.trivial(v_space)
    nu = make_truncated_index("pair_category", 5, action)
    pair = DynamicalPair(v_space, fx.v_descent_map(v_space), fx.V_HEIGHTS)
    report = verify_index_bound(nu, pair, -1.0, 3.0, axiom_mode="exhaustive")
    assert report["verdict"] == "INEQUALITY_HOLDS"


def test_report_round_trip_lossless(v_pair):
    report = verify_band_bound(v_pair, -1.0, 3.0)
    blob = emit_report(report.to_dict(), "structured")
    parsed = json.loads(blob)
    assert emit_report(parsed, "structured") == blob


def test_flow_config_guards():
    from lscat.numeric import FlowConfig

    with pytest.raises(ValueError):
        FlowConfig(0.0)
    with pytest.raises(ValueError):
        FlowConfig(1.0, 0.5)  # step above a hundredth of the horizon
    assert FlowConfig(2.0).steps() == 100  # default step is tau/100


def test_validate_space_rejects_unknown_points():
    with pytest.raises(ValueError):
        validate_space(["a"], [["a", "b"]])


def _two_constants(n):
    space = fx.discrete(n)
    return (SpaceMap.constant(space, space, 0),
            SpaceMap.constant(space, space, 1))


_S3 = [{"d0": "d1", "d1": "d2", "d2": "d0"},
       {"d0": "d1", "d1": "d0", "d2": "d2"}]


# (module, constant, a value the call exceeds, a value that lifts it, call)
@pytest.mark.parametrize("module,constant,low,high,call", [
    pytest.param(poset, "SUBSET_SPACE_CAP", 2, 3,
                 lambda: fx.discrete(3).up_sets(), id="up_sets"),
    pytest.param(poset, "MAP_SPACE_CAP", 2, 3,
                 lambda: enumerate_maps(fx.discrete(3), fx.discrete(3)),
                 id="enumerate_maps"),
    pytest.param(poset, "MAP_SPACE_CAP", 2, 3,
                 lambda: homotopic(*_two_constants(3)), id="homotopic"),
    pytest.param(poset, "FENCE_NODE_CAP", 1, 100,
                 lambda: fence_search(SpaceMap.identity(fx.fix_v()),
                                      target_pred=lambda im: False),
                 id="fence_search"),
    pytest.param(action, "GROUP_CAP", 5, 6,
                 lambda: GroupAction.from_label_maps(fx.discrete(3), _S3),
                 id="GroupAction"),
    pytest.param(simplicial, "STAR_VERTEX_CAP", 2, 3,
                 lambda: star_cover_upper_bound(SimplicialComplex.from_maximal(
                     [("a", "b"), ("b", "c"), ("a", "c")])),
                 id="star_cover_upper_bound"),
])
def test_size_caps_name_their_override(monkeypatch, module, constant, low,
                                       high, call):
    monkeypatch.setattr(module, constant, low)
    with pytest.raises(SizeCapExceeded,
                       match=rf"{module.__name__}\.{constant} = {low}\b"):
        call()
    monkeypatch.setattr(module, constant, high)
    call()

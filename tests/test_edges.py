"""Cap handling, certificate re-validation, equivariant end-to-end runs,
and the engine's routing of the known mod-variant divergence."""

import ast
import json
import re
from pathlib import Path

import pytest

from lscat import action, engine, poset, simplicial
import fixtures as fx
from lscat.action import GroupAction, HomogeneousClass, validate_action
from lscat.category import CatQuery, cover_category
from lscat.dynamics import DynamicalPair, verify_band_bound
from lscat.engine import (
    IndexFunction,
    check_axioms,
    make_truncated_index,
    verify_index_bound,
)
from lscat.formats import emit_report
from lscat.poset import (
    SizeCapExceeded,
    SpaceMap,
    fence_search,
    validate_space,
)
from lscat.simplicial import SimplicialComplex, star_cover_upper_bound
from oracles import point_moves


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
        validate_action(space, [cycle, swap])


def test_invariance_validation():
    c4 = fx.fix_c4()
    action = validate_action(c4, [fx.conjugation_generator()])
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
                 action=validate_action(c4, [fx.conjugation_generator()]))


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
    for tau in (1.0, 1e-14, 1e-300):  # a step of tau/100 at any scale
        assert FlowConfig(tau, tau / 100).steps() == 100
    # an accepted horizon takes 100 default steps, down to the subnormals;
    # a rejected one names the step it computed
    for tau in (1e-300, 2.2250738585072014e-308, 1e-319):
        assert FlowConfig(tau).steps() == 100
    with pytest.raises(ValueError, match="step 5e-324 gives 101 steps"):
        FlowConfig(5e-322)
    with pytest.raises(ValueError, match="got 0.0"):
        FlowConfig(1e-323)


def test_validate_space_rejects_unknown_points():
    with pytest.raises(ValueError):
        validate_space(["a"], [["a", "b"]])


_S3 = [{"d0": "d1", "d1": "d2", "d2": "d0"},
       {"d0": "d1", "d1": "d0", "d2": "d2"}]


# (module, constant, a value the call exceeds, a value that lifts it, call)
@pytest.mark.parametrize("module,constant,low,high,call", [
    pytest.param(poset, "SUBSET_SPACE_CAP", 2, 3,
                 lambda: fx.discrete(3).up_sets(), id="up_sets"),
    pytest.param(poset, "FENCE_NODE_CAP", 1, 100,
                 lambda: fence_search(SpaceMap.identity(fx.fix_v()),
                                      lambda im: False,
                                      moves=point_moves(fx.fix_v())),
                 id="fence_search"),
    pytest.param(action, "GROUP_CAP", 5, 6,
                 lambda: validate_action(fx.discrete(3), _S3),
                 id="GroupAction"),
    pytest.param(simplicial, "STAR_VERTEX_CAP", 2, 3,
                 lambda: star_cover_upper_bound(SimplicialComplex.from_maximal(
                     [("a", "b"), ("b", "c"), ("a", "c")])),
                 id="star_cover_upper_bound"),
    pytest.param(engine, "AXIOM_EXHAUSTIVE_CAP", 2, 3,
                 lambda: check_axioms(IndexFunction(fx.fix_v(),
                                                    lambda A, Y: 0)),
                 id="check_axioms"),
])
def test_size_caps_name_their_override(monkeypatch, module, constant, low,
                                       high, call):
    monkeypatch.setattr(module, constant, low)
    with pytest.raises(SizeCapExceeded,
                       match=rf"{module.__name__}\.{constant} = {low}\b"):
        call()
    monkeypatch.setattr(module, constant, high)
    call()


def test_caps_are_listed_once_in_code_tests_and_readme():
    """The caps that a SizeCapExceeded message names in the source, the
    cases of test_size_caps_name_their_override and README's cap list
    are the same set."""
    root = Path(__file__).resolve().parents[1]
    named = set()
    for path in (root / "src" / "lscat").glob("*.py"):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "SizeCapExceeded"):
                named.update(re.findall(r"lscat\.\w+\.[A-Z_]+",
                                        ast.get_source_segment(text, node)))
    (mark,) = test_size_caps_name_their_override.pytestmark
    tested = {f"{case.values[0].__name__}.{case.values[1]}"
              for case in mark.args[1]}
    listed = set(re.findall(r"^\s*\* `(lscat\.\w+\.[A-Z_]+)`:",
                            (root / "README.md").read_text(), re.M))
    assert named == tested == listed, (named, tested, listed)
    assert named

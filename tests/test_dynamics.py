import json
import os
import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import fixtures as fx
from lscat import dynamics, poset
from lscat.action import (
    GroupAction,
    HomogeneousClass,
    is_G_deformable,
    is_G_map,
    validate_action,
)
from lscat.category import INFINITE, HypothesisUnmet, value_diff
from lscat.cli import builtin_corpus_dir, run_scenario
from lscat.dynamics import (
    THEOREMS,
    DynamicalPair,
    _context,
    _gcat,
    check_discrete_palais_smale,
    find_identity_fence,
    minimal_escape_power,
    verify_band_bound,
    verify_global_bound,
    verify_homeo_band_bound,
    verify_identity_band_bound,
    verify_semiflow,
)
from lscat.engine import random_instance
from lscat.formats import parse_scenario
from lscat.poset import SpaceMap, bits, is_homotopy_equivalence, validate_space

from equivariant import random_equivariant_instance
from oracles import oracle_G_fence, oracle_palais_smale
from test_category import acted_spaces


@pytest.fixture
def wedge_pair():
    space = fx.fix_wedge()
    return DynamicalPair(space, fx.wedge_collapse_map(space),
                         fx.WEDGE_HEIGHTS)


@pytest.fixture
def halfcircle_pair(arc3):
    return DynamicalPair(arc3, SpaceMap.identity(arc3), fx.ARC_HEIGHTS)


@pytest.fixture
def two_level_pair(c4):
    return DynamicalPair(c4, SpaceMap.identity(c4), fx.C4_TWO_LEVEL_HEIGHTS)


def test_is_lyapunov(v_pair, c4):
    holds = {"ok": True, "witness": None}
    assert check_discrete_palais_smale(v_pair) == holds
    ident = DynamicalPair(c4, SpaceMap.identity(c4), fx.C4_CONST_HEIGHTS)
    # vacuous off the fixed set
    assert check_discrete_palais_smale(ident) == holds
    flat = DynamicalPair(c4, fx.c4_constant_map(c4),
                         {p: 0.0 for p in c4.points})
    row = check_discrete_palais_smale(flat)
    assert not row["ok"] and row["witness"] in set(c4.points)


def test_discrete_palais_smale_reduction(v_pair):
    report = check_discrete_palais_smale(v_pair)
    assert report == {"ok": True, "witness": None}
    assert oracle_palais_smale(v_pair) == (True, None)


def test_palais_smale_matches_subset_enumeration():
    from lscat.engine import random_instance

    verdicts = set()
    for seed in range(40):
        pair = random_instance(seed)[0]
        f = list(pair.f)
        random.Random(seed).shuffle(f)
        for g in (pair.f, f, [0.0] * len(f)):  # Lyapunov, shuffled, flat
            other = DynamicalPair(pair.space, pair.phi, g)
            report = check_discrete_palais_smale(other)
            holds, failing = oracle_palais_smale(other)
            assert holds == report["ok"]
            assert failing == (None if holds else (report["witness"],))
            verdicts.add(holds)
    assert verdicts == {True, False}


def test_discrete_palais_smale_negative(c4):
    flat = DynamicalPair(c4, fx.c4_constant_map(c4),
                         {p: 0.0 for p in c4.points})
    report = check_discrete_palais_smale(flat)
    assert not report["ok"]


def test_band_bound_v_holds(v_pair):
    report = verify_band_bound(v_pair, -1.0, 3.0)
    assert report.verdict() == "HOLDS"
    assert report.values["slice_sum"] == 2
    assert report.parts["a"]["bound"] == 1
    assert report.parts["a"]["assertable"]


def test_band_bound_constant_map_counterexample(c4_const_pair):
    report = verify_band_bound(c4_const_pair, -1.0, 2.0)
    assert report.verdict() == "HYPOTHESIS_FAILED:homotopy_equivalence"
    assert report.values["slice_sum"] == 1
    assert report.parts["a"]["bound"] == 2
    assert not report.parts["a"]["holds"]
    assert not report.parts["a"]["assertable"]


def test_band_bound_degenerate_band(v_pair):
    report = verify_band_bound(v_pair, 5.0, 6.0)
    assert report.verdict() == "HOLDS"
    assert report.values["slice_sum"] == 0
    assert report.parts["a"]["bound"] == 0


def test_planted_theorem_violation_bundle_replays(
        v_pair, tmp_path, monkeypatch):
    """A theorem violation is persisted with its pair, once, named by the
    theorem id: undercounting every fixed slice (category 0 through a
    patched cover_category) breaks the slice-sum part on the V space for
    the band, global and semiflow bounds, and each bundle rebuilds the
    same pair, which replays to the returned report."""
    fixed = v_pair.fixed_mask()
    real = dynamics.cover_category

    def undercount(query):
        if query.space == v_pair.space and query.A & ~fixed == 0:
            return SimpleNamespace(value=0)
        return real(query)

    monkeypatch.setattr(dynamics, "cover_category", undercount)
    for theorem, verify, verdict in (
            ("band_bound", lambda p: verify_band_bound(p, -1.0, 3.0),
             "VIOLATION:a"),
            ("global_bound", lambda p: verify_global_bound(p, 3.0),
             "VIOLATION:a"),
            ("semiflow", verify_semiflow, "VIOLATION:I,II")):
        planted = tmp_path / theorem
        monkeypatch.setenv("LSCAT_VIOLATIONS_DIR", str(planted))
        report = verify(v_pair)
        assert report.verdict() == verdict
        (path,) = planted.glob("*.json")
        assert path.name.startswith(theorem + "-")
        bundle = json.loads(path.read_text())
        assert sorted(bundle) == ["f", "phi", "report", "space"]
        assert bundle["report"] == json.loads(json.dumps(report.to_dict()))
        space = validate_space(bundle["space"]["points"],
                               bundle["space"]["relation"])
        pair = DynamicalPair(space, SpaceMap.from_dict(space, space,
                                                       bundle["phi"]),
                             bundle["f"])
        assert space == v_pair.space
        assert pair.phi == v_pair.phi and pair.f == v_pair.f
        replayed = verify(pair)
        assert json.loads(json.dumps(replayed.to_dict())) == bundle["report"]


def _ledger_cases():
    """(pair, band, action, klass, reference spaces) of every shipped
    theorem fixture, the constant map of ``constant_map_circle.json``
    among them, of the first 200 criterion 04 instances, of the swapped
    V on a band with infinite sublevel categories and on one whose orbit
    types the free class refuses, of 20 instances under an involution
    with the point, free and all classes, and of a constant map checked
    for the homeomorphism bound."""
    corpus = builtin_corpus_dir()
    for name in sorted(os.listdir(corpus)):
        sc = parse_scenario(os.path.join(corpus, name))
        if sc.kind == "theorem":
            yield (sc.pair, sc.band, sc.action, sc.klass,
                   sc.reference_spaces)
    for seed in range(200):
        pair, _, a, b = random_instance(seed)
        yield pair, (a, b), None, None, None
    pair, action, klass = swapped_v_pair()
    for band in ((0.5, 2.0), (-0.5, 2.0)):
        yield pair, band, action, klass, None
    for seed in range(20):
        pair, _, a, b, action = random_equivariant_instance(seed)
        for klass in (HomogeneousClass.point_only(action),
                      HomogeneousClass.free_only(action),
                      HomogeneousClass.all_types(action)):
            yield pair, (a, b), action, klass, None
    c4 = fx.fix_c4()
    yield (DynamicalPair(c4, fx.c4_constant_map(c4), fx.C4_CONST_HEIGHTS),
           (-1.0, 2.0), None, None, [fx.fix_v()])


# the parts bounded by the difference of the report's two sublevel values
_DIFFERENCE_PARTS = {"a", "b", "c", "I", "I_orbits", "I_slice", "count"}


def test_each_verdict_reads_the_ledger_of_the_report_it_heads():
    """Every theorem report names its own id and carries the band
    ledger, and its verdict is HYPOTHESIS_FAILED exactly when a row of
    that ledger fails, and then no part is assertable; ``global_bound``
    and ``semiflow`` report their low cut.  Each part holds exactly when its
    lhs is at least its bound, a difference bound is ``value_diff`` of
    the report's sublevel values, and no value repeats a row as a note.
    A semiflow whose map is not homotopic to the identity fails that row
    (the constant map on the circle)."""
    checked = set()
    for pair, band, action, klass, refs in _ledger_cases():
        a, b = band
        questions = [(t, band) for t in ("identity_band_bound", "semiflow")]
        questions += [("global_bound", (a, INFINITE))]
        if b < INFINITE:
            questions += [("band_bound", band), ("global_bound", band)]
            if refs and (action is None or action.is_trivial()):
                questions += [("homeo_band_bound", band)]
        for theorem, cut in questions:
            report = THEOREMS[theorem](pair, cut, action, klass, refs)
            assert report.theorem == theorem
            rows = report.hypotheses
            assert {"lyapunov", "discrete_palais_smale"} <= set(rows)
            assert all(set(row) == {"ok", "witness", "note"}
                       for row in rows.values())
            failed = any(not row["ok"] for row in rows.values())
            assert report.verdict().startswith("HYPOTHESIS_FAILED") \
                == failed, (theorem, report.verdict())
            values = report.values
            low, high = (values.get("sublevel_cat_low",
                                    values.get("sublevel_count_low")),
                         values.get("sublevel_cat_high",
                                    values.get("sublevel_count_high")))
            for name, part in report.parts.items():
                assert part["holds"] == (part["lhs"] >= part["bound"])
                assert not (failed and part["assertable"]), (theorem, name)
                if name in _DIFFERENCE_PARTS:
                    assert part["bound"] == value_diff(high, low)
            if "difference_bound" in values:
                assert values["difference_bound"] == value_diff(high, low)
            assert "note" not in values
            if theorem in ("global_bound", "semiflow"):
                assert values["global_low_cut"] == min(pair.f) - 1
            checked.add(theorem)
    assert checked == set(THEOREMS)
    constant = parse_scenario(
        os.path.join(builtin_corpus_dir(), "constant_map_circle.json"))
    verdict = verify_semiflow(constant.pair).verdict()
    assert verdict.startswith("HYPOTHESIS_FAILED:")
    assert "homotopic_to_identity" in verdict.split(":")[1].split(",")


def test_report_only_notes_name_parts_that_are_not_assertable():
    """A part whose own note says report-only is not assertable, over
    every report of the shipped theorem fixtures."""
    corpus = builtin_corpus_dir()
    named = 0
    for name in sorted(os.listdir(corpus)):
        sc = parse_scenario(os.path.join(corpus, name))
        if sc.kind != "theorem":
            continue
        for theorem, report in run_scenario(sc)["reports"].items():
            for part, row in report["parts"].items():
                if (row["note"] or "").startswith("report-only"):
                    assert row["assertable"] is False, (name, theorem, part)
                    named += 1
    assert named


def test_band_bound_rejects_unbounded(v_pair):
    with pytest.raises(ValueError):
        verify_band_bound(v_pair, 0.0, INFINITE)


def test_band_bound_rejects_an_empty_band(v_pair):
    with pytest.raises(ValueError, match="need a < b"):
        verify_band_bound(v_pair, 1.0, 1.0)


def swapped_v_pair():
    """V with a and b swapped, the identity map and f = (0, 1, 1): the
    free class admits no orbit through the fixed point c, so both
    sublevel categories of the band (0.5, 2] are infinite."""
    space = fx.fix_v()
    action = validate_action(space, [{"c": "c", "a": "b", "b": "a"}])
    pair = DynamicalPair(space, SpaceMap.identity(space),
                         {"c": 0.0, "a": 1.0, "b": 1.0})
    return pair, action, HomogeneousClass.free_only(action)


@pytest.mark.parametrize("verify", [verify_band_bound,
                                    verify_identity_band_bound])
def test_band_bounds_with_an_infinite_low_sublevel(verify):
    pair, action, klass = swapped_v_pair()
    report = verify(pair, 0.5, 2.0, action, klass)
    assert not report.hypotheses["sublevel_category_finite"]["ok"]
    assert report.verdict() == "HYPOTHESIS_FAILED:sublevel_category_finite"
    values = report.values
    assert values["sublevel_cat_low"] == values["sublevel_cat_high"] \
        == INFINITE
    names = (("a", "b", "c") if verify is verify_band_bound
             else ("I", "I_orbits", "I_slice"))
    for name in names:
        assert report.parts[name]["bound"] == 0  # inf - inf bounds nothing


def test_homeo_band_bound_with_an_infinite_low_sublevel(v_space):
    """c lies in no open isomorphic to a point, so both reference-class
    counts of the band (0.5, 2] are infinite."""
    pair = DynamicalPair(v_space, SpaceMap.identity(v_space),
                         {"c": 0.0, "a": 1.0, "b": 1.0})
    point = validate_space(["x"], [])
    report = verify_homeo_band_bound(pair, [point], 0.5, 2.0)
    assert not report.hypotheses["sublevel_class_count_finite"]["ok"]
    assert report.values["sublevel_count_low"] == INFINITE
    assert report.values["sublevel_count_high"] == INFINITE
    assert report.parts["count"]["bound"] == 0  # inf - inf bounds nothing


def test_identity_band_bound_v_unbounded(v_pair):
    report = verify_identity_band_bound(v_pair, -1.0, INFINITE)
    assert report.verdict() == "HOLDS"
    assert report.values["slice_sum"] == 2
    assert report.values["difference_bound"] == 1
    assert report.values["semi_bound"] is None  # only for finite bands
    assert report.parts["I"]["holds"]


def test_identity_band_bound_wedge(wedge_pair):
    report = verify_identity_band_bound(wedge_pair, 1.0, 2.0)
    assert report.verdict() == (
        "HYPOTHESIS_FAILED:sublevel_preserving_homotopy"
    )
    values = report.values
    assert values["slice_sum"] == 2
    assert values["difference_bound"] == 0
    assert values["pair_bound"] == 1  # strictly above the difference
    assert values["semi_bound"] == 1
    assert values["mod_bound"] == INFINITE
    assert report.parts["II"]["holds"]
    assert not report.hypotheses["sublevel_preserving_homotopy"]["ok"]
    assert all(v for v in values["bound_chain"].values())


def test_identity_band_bound_halfcircle(halfcircle_pair):
    report = verify_identity_band_bound(halfcircle_pair, 0.0, 1.0)
    assert report.verdict() == "HOLDS"
    values = report.values
    assert values["mod_bound"] == 1
    assert values["pair_bound"] == 0
    assert values["mod_bound"] > values["pair_bound"]
    assert report.parts["III"]["holds"]


def test_identity_band_bound_two_level_divergence(two_level_pair):
    """The pinned finite-model divergence: hypotheses specific to the
    strengthened bounds fail, the strengthened bounds degenerate, and
    nothing is persisted because those parts are report-only."""
    report = verify_identity_band_bound(two_level_pair, 0.0, 1.0)
    assert report.verdict() == "HYPOTHESIS_FAILED:sublevel_hull_deformable"
    assert report.values["slice_sum"] == 1
    assert report.values["mod_bound"] == INFINITE
    assert report.values["semi_bound"] == INFINITE
    assert not report.parts["III"]["holds"]
    assert not report.parts["III"]["assertable"]


def test_identity_band_chain_on_generated_instances():
    from lscat.engine import random_instance

    checked = 0
    seed = 100
    while checked < 25:
        seed += 1
        pair, nu, a, b = random_instance(seed)
        report = verify_identity_band_bound(pair, a, b)
        v = report.values
        if v["semi_bound"] is None:
            continue
        assert v["mod_bound"] >= v["semi_bound"] >= v["pair_bound"]
        assert v["pair_bound"] >= value_diff(v["sublevel_cat_high"],
                                             v["sublevel_cat_low"])
        if report.parts["I"]["assertable"]:
            assert report.parts["I"]["holds"]
        if report.parts["II"]["assertable"]:
            assert report.parts["II"]["holds"]
        checked += 1


def test_band_monotonicity_in_the_cut(v_pair):
    r1 = verify_band_bound(v_pair, -1.0, 1.5)
    r2 = verify_band_bound(v_pair, -1.0, 3.0)
    assert r2.values["slice_sum"] >= r1.values["slice_sum"]
    assert r2.values["sublevel_cat_high"] >= r1.values["sublevel_cat_high"]


def test_global_bound_wrapper(v_pair):
    report = verify_global_bound(v_pair, 3.0)
    assert report.verdict() == "HOLDS"
    report_inf = verify_global_bound(v_pair, INFINITE)
    assert report_inf.verdict() == "HOLDS"


def detect_nondeformable_slice(pair, a, b, action=None, klass=None):
    """When the band has fewer critical levels than the category
    difference, exhibit a fixed slice that no equivariant fence deforms
    into a single orbit inside the band preimage."""
    action, klass = _context(pair, action, klass)
    space = pair.space
    dps = check_discrete_palais_smale(pair)
    if not dps["ok"]:
        raise HypothesisUnmet("lyapunov", dps["witness"])
    if not is_homotopy_equivalence(pair.phi):
        raise HypothesisUnmet("homotopy_equivalence")
    cat_fa = _gcat(space, pair.sublevel(a), action, klass)
    cat_fb = _gcat(space, pair.sublevel(b), action, klass)
    if cat_fa == INFINITE:
        raise HypothesisUnmet("sublevel_category_finite")
    levels = pair.critical_levels(a, b)
    bound = value_diff(cat_fb, cat_fa)
    if bound < len(levels) + 1:
        return []
    band = pair._band(a, b)
    orbit_reps = [
        bits(orb)[0] for orb in action.orbits() if orb & ~band == 0
    ]
    out = []
    for d in levels:
        slice_mask = pair.level_slice(d)
        if not slice_mask:
            out.append({
                "level": d, "degenerate": True,
                "note": "empty fixed slice in a deficient band",
            })
            continue
        tried = []
        for rep in orbit_reps:
            tried.append(space.points[rep])
            if is_G_deformable(action, slice_mask,
                               action.orbit_mask(rep)) is not None:
                break
        else:
            out.append({
                "level": d,
                "degenerate": False,
                "orbits_tried": tried,
                "note": "exhaustive equivariant fence search reached no "
                        "single-orbit image",
            })
    return out


def test_detect_nondeformable_slice_examples(c4, v_space):
    flat = DynamicalPair(c4, SpaceMap.identity(c4),
                         {p: 0.0 for p in c4.points})
    found = detect_nondeformable_slice(flat, -1.0, 0.0)
    assert len(found) == 1
    assert found[0]["level"] == 0.0
    assert not found[0]["degenerate"]
    assert found[0]["orbits_tried"] == list(c4.points)

    flat_v = DynamicalPair(v_space, SpaceMap.identity(v_space),
                           {p: 0.0 for p in v_space.points})
    assert detect_nondeformable_slice(flat_v, -1.0, 0.0) == []


def test_detect_nondeformable_requires_equivalence(c4_const_pair):
    with pytest.raises(HypothesisUnmet):
        detect_nondeformable_slice(c4_const_pair, -1.0, 2.0)


def test_semiflow_v(v_pair):
    report = verify_semiflow(v_pair)
    assert report.verdict() == "HOLDS"
    assert report.values["fixed_set"] == ["a", "c"]
    assert report.parts["I"]["lhs"] == 2
    assert report.parts["I"]["bound"] == 1


def test_semiflow_identity(c4):
    """The semiflow report is the identity band report over ]min f - 1,
    inf] under its own id, with the low cut and the fixed set."""
    pair = DynamicalPair(c4, SpaceMap.identity(c4), fx.C4_TWO_LEVEL_HEIGHTS)
    report = verify_semiflow(pair)
    assert report.verdict() == "HOLDS"
    assert report.values["fixed_set"] == sorted(c4.points)
    low = min(pair.f) - 1.0
    band = verify_identity_band_bound(pair, low, INFINITE).to_dict()
    band["values"].update(global_low_cut=low,
                          fixed_set=report.values["fixed_set"])
    assert report.to_dict() == {**band, "theorem": "semiflow"}


def test_identity_band_bound_records_a_missing_fence(c4):
    # swapping the minima reflects the circle: no fence reaches it
    swap = SpaceMap.from_dict(c4, c4, {"p": "q", "q": "p", "U": "U",
                                       "L": "L"})
    pair = DynamicalPair(c4, swap, fx.C4_TWO_LEVEL_HEIGHTS)
    report = verify_identity_band_bound(pair, -1.0, 1.0)
    assert report.hypotheses["homotopic_to_identity"]["ok"] is False
    verdict = report.verdict()
    assert verdict.startswith("HYPOTHESIS_FAILED:")
    assert "homotopic_to_identity" in verdict.split(":")[1].split(",")


def test_semiflow_without_an_identity_fence_asserts_no_part():
    # a discrete space has no fence from the identity to another map;
    # the category 2 of the space exceeds the one fixed point
    space = validate_space(["a", "b"], [])
    phi = SpaceMap.from_dict(space, space, {"a": "b", "b": "b"})
    report = verify_semiflow(DynamicalPair(space, phi, (1.0, 0.0)))
    assert report.hypotheses["homotopic_to_identity"]["ok"] is False
    assert report.verdict().startswith("HYPOTHESIS_FAILED:")
    assert not any(part["assertable"] for part in report.parts.values())
    assert not report.parts["I_orbits"]["holds"]


def test_homeo_band_bound_two_level(two_level_pair, v_space):
    report = verify_homeo_band_bound(two_level_pair, [v_space], -1.0, 1.0)
    assert report.verdict() == "HOLDS"
    assert report.values["slice_sum"] == 3
    assert report.values["sublevel_count_high"] == 2
    assert report.values["sublevel_count_low"] == 0
    assert list(report.parts) == ["count"]
    assert report.parts["count"]["holds"]
    assert report.values["flow_rest_set"] == sorted(
        two_level_pair.space.labels(two_level_pair.fixed_mask()))


def test_homeo_band_bound_rejects_noninvertible(c4_const_pair, v_space):
    report = verify_homeo_band_bound(c4_const_pair, [v_space], -1.0, 2.0)
    assert report.verdict().startswith("HYPOTHESIS_FAILED")
    assert "homeomorphism" in report.verdict()


def test_homeo_band_bound_empty_band(two_level_pair, v_space):
    report = verify_homeo_band_bound(two_level_pair, [v_space], 5.0, 6.0)
    assert report.verdict() == "HOLDS"
    assert report.values["slice_sum"] == 0


def test_equivariant_band_bound_degenerate(conjugation, c4):
    klass = HomogeneousClass.all_types(conjugation)
    pair = DynamicalPair(c4, SpaceMap.identity(c4),
                         {p: 0.0 for p in c4.points})
    report = verify_band_bound(pair, 1.0, 2.0, conjugation, klass)
    assert report.verdict() == "HOLDS"
    assert report.values["slice_sum"] == 0
    assert report.parts["a"]["bound"] <= 0


def test_identity_fence_preservation_search(two_level_pair):
    fence = find_identity_fence(
        two_level_pair, GroupAction.trivial(two_level_pair.space),
        preserve_mask=two_level_pair.sublevel(0.0),
    )
    assert fence is not None  # identity map: the trivial fence preserves
    # F = {a1, f2} is not invariant under the swaps a1 <-> b1, a3 <-> b3:
    # the collapse keeps all of GF, so the fence to phi (a3 -> a1, b3 ->
    # b1) keeps F, where keeping F alone would collapse the orbit of b1
    space = validate_space(
        ["f0", "a1", "b1", "f2", "a3", "b3"],
        [("f0", "a1"), ("f0", "b1"), ("f0", "f2"), ("f0", "a3"),
         ("f0", "b3"), ("a1", "f2"), ("a1", "a3"), ("b1", "f2"),
         ("b1", "b3")])
    action = validate_action(space, [{"f0": "f0", "a1": "b1", "b1": "a1",
                                      "f2": "f2", "a3": "b3", "b3": "a3"}])
    phi = SpaceMap(space, space, (0, 1, 2, 3, 1, 2))
    F = space.subset(["a1", "f2"])
    fence = find_identity_fence(DynamicalPair(space, phi, [0] * 6), action, F)
    assert fence.validate(lambda images: images[1] in (1, 3)
                          and images[3] in (1, 3))
    assert fence.end == phi
    # a map that sends a to c keeps no F = {a}, though it induces the
    # identity on the relative core {a}
    v = fx.fix_v()
    drop = SpaceMap.from_dict(v, v, {"c": "c", "a": "c", "b": "b"})
    assert find_identity_fence(DynamicalPair(v, drop, [0] * 3),
                               GroupAction.trivial(v), v.subset(["a"])) is None


@st.composite
def acted_maps(draw):
    """An acted space (``acted_spaces``) with a G-map phi, drawn orbit by
    orbit among the values that keep the map so far continuous and
    equivariant, and a 0/1 function f."""
    space, action, _ = draw(acted_spaces())
    images = {}
    for orbit in action.orbits():
        p = next(iter(bits(orbit)))
        fits = []
        for v in range(len(space)):
            trial = dict(images)
            for g in action.elements:
                if trial.setdefault(g[p], g[v]) != g[v]:
                    break
            else:
                if all(space.leq(trial[i], trial[j]) for i in trial
                       for j in trial if space.leq(i, j)):
                    fits.append(trial)
        assume(fits)
        images = draw(st.sampled_from(fits))
    phi = SpaceMap(space, space, tuple(images[i] for i in range(len(space))))
    f = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=len(space),
                      max_size=len(space)))
    return DynamicalPair(space, phi, f), action


@given(acted_maps(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_identity_fence_decides_as_the_reference_search(acted, preserve):
    """``find_identity_fence`` decides as the reference BFS from the
    identity to phi, with no sublevel or keeping the sublevel F = {f <=
    0} inside itself at every stage, and its fence validates, runs from
    the identity to phi through G-maps only and, given F, keeps F."""
    pair, action = acted
    space = pair.space
    F = pair.sublevel(0.0) if preserve else None

    def keeps_F(images):
        return all(F >> images[i] & 1 for i in bits(F))

    fence = find_identity_fence(pair, action, F)
    reference = oracle_G_fence(SpaceMap.identity(space), action,
                               {pair.phi.images}.__contains__,
                               keeps_F if preserve else None)
    assert (fence is None) == (reference is None)
    if fence is not None:
        assert fence.validate(keeps_F if preserve else None)
        assert fence.start == SpaceMap.identity(space)
        assert fence.end == pair.phi
        assert all(is_G_map(stage, action) for stage in fence.maps)


def constant_on_the_circle():
    """A 12-point circle model, the four-point circle a, b < c, d with
    eight beat points below it, phi constant at a, and f = 0 at a and 1
    elsewhere."""
    lows = {"x0": "c", "x1": "d", "x2": "c", "x3": "d",
            "x4": "a", "x5": "b", "x6": "a", "x7": "b"}
    space = validate_space(
        ["a", "b", "c", "d", *lows],
        [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
         *lows.items()])
    phi = SpaceMap.from_dict(space, space, {p: "a" for p in space.points})
    return DynamicalPair(space, phi,
                         {p: 0.0 if p == "a" else 1.0 for p in space.points})


def test_identity_fence_refutes_a_constant_on_the_circle_at_once():
    """The core of ``constant_on_the_circle`` is the circle, where s o
    phi is not the identity, so the answer is None with no fence search
    (a search over all maps from the identity passes ``FENCE_NODE_CAP``
    on this space)."""
    pair = constant_on_the_circle()
    with mock.patch.object(poset, "fence_search") as search:
        assert find_identity_fence(
            pair, GroupAction.trivial(pair.space)) is None
    assert search.call_count == 0


def test_identity_band_bound_keeps_the_plain_answer_when_it_is_none():
    """A sublevel-preserving fence is a fence, so once the plain question
    answers None the preserving one is not asked: one identity question
    on ``constant_on_the_circle`` with the band (0.5, 2], whose low
    sublevel {a} is nonempty."""
    pair = constant_on_the_circle()
    with mock.patch.object(dynamics, "find_identity_fence",
                           wraps=find_identity_fence) as ask:
        report = verify_identity_band_bound(pair, 0.5, 2.0)
    assert ask.call_count == 1
    assert not report.hypotheses["homotopic_to_identity"]["ok"]
    assert not report.hypotheses["sublevel_preserving_homotopy"]["ok"]


def test_identity_fence_refuses_a_map_that_is_not_equivariant():
    """Under the swap of a and b, V's G-core is the point c, where the
    constant map at a induces the identity; it is not a G-map, so no
    fence of G-maps reaches it."""
    pair, action, _ = swapped_v_pair()
    const = SpaceMap.from_dict(pair.space, pair.space,
                               {p: "a" for p in pair.space.points})
    bad = DynamicalPair(pair.space, const, pair.f)
    assert find_identity_fence(bad, action) is None
    assert find_identity_fence(bad, GroupAction.trivial(pair.space)) \
        is not None


def test_deformation_exponents_emitted(c4_const_pair):
    report = verify_band_bound(c4_const_pair, -1.0, 2.0)
    # exponents live on the identity-band verifier; the escape power
    # itself is exercised directly here
    n = minimal_escape_power(
        c4_const_pair, c4_const_pair.sublevel(2.0),
        c4_const_pair.sublevel(0.0),
    )
    assert n == 1

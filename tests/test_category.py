import pytest
from hypothesis import given, settings, strategies as st

import fixtures as fx
from lscat import poset
from lscat.action import (
    GroupAction,
    HomogeneousClass,
    is_G_deformable,
    validate_action,
    _EMPTY_DEFORMATION,
)
from lscat.category import (
    CatQuery,
    CoverEntry,
    CoverTable,
    HypothesisUnmet,
    INFINITE,
    cat,
    cat_classB,
    cat_mod,
    cat_pair,
    cat_semi,
    check_preimage_categorical,
    closed_category_report,
    cover_category,
    cuplength_lower_bound,
    is_categorical,
    min_cover,
    order_isomorphic,
    value_add,
    value_ge,
    value_ge_diff,
    categorical_closed_catalog,
    categorical_open_catalog,
    classB_catalog,
    deformable_open_catalog,
    _check_deformation_certificate,
    _factor_targets,
)
from lscat.poset import SpaceMap, bits, validate_space

from oracles import oracle_cat, oracle_min_cover


# -- infinity conventions ---------------------------------------------------


def test_infinity_conventions():
    assert value_ge(INFINITE, INFINITE)
    assert value_ge(INFINITE, 7)
    assert not value_ge(7, INFINITE)
    assert value_ge_diff(0, INFINITE, INFINITE)  # inf >= inf - inf
    assert value_ge_diff(0, 5, INFINITE)         # 0 >= n - inf
    assert value_ge_diff(INFINITE, INFINITE, 3)  # inf >= inf - n
    assert not value_ge_diff(5, INFINITE, 3)
    assert value_add(2, INFINITE) is INFINITE


# -- categorical sets ---------------------------------------------------------


def test_categorical_matches_contractible_for_trivial_group(c4):
    good, _ = is_categorical(c4.subset(["p", "U", "L"]), c4)
    assert good
    bad, _ = is_categorical(c4.full_mask(), c4)
    assert not bad


def test_categorical_with_free_class(conjugation, c4):
    free = HomogeneousClass.free_only(conjugation)
    ok, _ = is_categorical(1 << c4.index["p"], c4, conjugation, free,
                           with_certificate=False)
    assert not ok  # a fixed point cannot factor through a free orbit
    point = HomogeneousClass.point_only(conjugation)
    ok, _ = is_categorical(1 << c4.index["p"], c4, conjugation, point,
                           with_certificate=False)
    assert ok


# -- the main values -----------------------------------------------------------


def test_plain_values_match_oracle(v_space, arc3, c4):
    for space in (v_space, arc3, c4):
        assert cat(space) == oracle_cat(space)
    assert cat(c4) == 2
    assert cat(v_space) == 1


def test_cover_certificate_revalidates(c4):
    result = cover_category(CatQuery(c4))
    assert result.value == 2
    assert result.verify()


def test_pair_and_mod_on_arc(arc3):
    Y = arc3.subset(["l", "r"])
    assert cat_pair(arc3, arc3.full_mask(), Y) == 0
    assert cat_mod(arc3, arc3.full_mask(), Y) == 1


def test_pair_on_two_circle_wedge(wedge2):
    S = wedge2.subset(["o", "q1", "U1", "L1"])
    assert cat(wedge2) == 2
    assert cat(wedge2, S) == 2
    assert cat_pair(wedge2, wedge2.full_mask(), S) == 1


def test_conjugation_category_exceeds_quotient(conjugation, c4):
    kall = HomogeneousClass.all_types(conjugation)
    gcat = cat(c4, action=conjugation, klass=kall)
    quotient, _ = conjugation.orbit_space()
    assert gcat == 2
    assert gcat >= 2 > 1 == cat(quotient)


def test_class_monotonicity(conjugation, c4):
    kall = HomogeneousClass.all_types(conjugation)
    kpoint = HomogeneousClass.point_only(conjugation)
    assert cat(c4, action=conjugation, klass=kpoint) >= cat(
        c4, action=conjugation, klass=kall
    )


def test_classB_v_reference(c4, v_space):
    assert cat_classB(c4, [v_space]) == 2


def test_classB_catalogue_is_keyed_by_the_reference_spaces(v_space):
    # Fresh reference spaces, each freed after its query: a new one often
    # takes a freed one's address, so a cache keyed on object identity
    # hands one reference list's catalogue to the other.
    action = GroupAction.trivial(v_space)
    for k in range(200):
        ref = validate_space(["x"], []) if k % 2 else fx.fix_v()
        value = cat_classB(v_space, [ref], action=action)
        assert value == (INFINITE if k % 2 else 1), k
        del ref


def test_order_isomorphic(v_space, arc3):
    assert order_isomorphic(v_space, v_space)
    assert order_isomorphic(v_space, arc3)  # both are one-minimum fans
    chain = validate_space(["0", "1", "2"], [["0", "1"], ["1", "2"]])
    assert not order_isomorphic(v_space, chain)


def test_mod_infinite_on_pinned_minima(c4):
    pq = c4.subset(["p", "q"])
    assert cat_mod(c4, pq, pq) is INFINITE
    assert cat_mod(c4, 1 << c4.index["p"], pq) == 0
    assert cat_semi(c4, c4.full_mask(), pq) is INFINITE
    assert cat_pair(c4, c4.full_mask(), pq) == 1


def test_min_cover_exactness():
    # universe {0..4}; candidates force a 2-cover
    sets = [0b00111, 0b11000, 0b01010, 0b10101]
    cover = min_cover(0b11111, sets)
    assert len(cover) == 2
    assert min_cover(0b1, [0b10]) is None
    assert min_cover(0, sets) == []


def test_ordering_chain_on_fixtures(arc3, c4, wedge2):
    cases = [
        (arc3, arc3.full_mask(), arc3.subset(["l", "r"])),
        (c4, c4.full_mask(), c4.subset(["p", "U", "L"])),
        (wedge2, wedge2.full_mask(),
         wedge2.subset(["o", "q1", "U1", "L1"])),
    ]
    for space, A, Y in cases:
        mod = cat_mod(space, A, Y)
        semi = cat_semi(space, A, Y)
        pair = cat_pair(space, A, Y)
        plain_a = cat(space, A)
        plain_y = cat(space, Y)
        assert value_ge(mod, semi)
        assert value_ge(semi, pair)
        assert value_ge_diff(pair, plain_a, plain_y)


@st.composite
def small_spaces(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    labels = [f"x{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append([labels[i], labels[j]])
    return validate_space(labels, pairs)


@given(small_spaces(), st.data())
@settings(max_examples=25, deadline=None)
def test_monotonicity_all_modes_random(space, data):
    full = space.full_mask()
    B = data.draw(st.integers(min_value=0, max_value=full))
    A = B & data.draw(st.integers(min_value=0, max_value=full))
    Y = data.draw(st.integers(min_value=0, max_value=full))
    assert value_ge(cat(space, B), cat(space, A))
    for fn in (cat_pair, cat_mod, cat_semi):
        assert value_ge(fn(space, B, Y), fn(space, A, Y))


@given(small_spaces(), st.data())
@settings(max_examples=25, deadline=None)
def test_ordering_chain_random(space, data):
    full = space.full_mask()
    A = data.draw(st.integers(min_value=0, max_value=full))
    Y = data.draw(st.integers(min_value=0, max_value=full))
    mod = cat_mod(space, A, Y)
    semi = cat_semi(space, A, Y)
    pair = cat_pair(space, A, Y)
    assert value_ge(mod, semi)
    assert value_ge(semi, pair)
    assert value_ge_diff(pair, cat(space, A), cat(space, Y))


# -- the cover table against brute force ------------------------------------


def _covers(cover, target, candidates):
    union = 0
    for m in cover:
        assert m in candidates
        union |= m
    return target & ~union == 0


@given(st.lists(st.integers(min_value=0, max_value=255), max_size=9),
       st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                max_size=4))
@settings(max_examples=300, deadline=None)
def test_cover_table_matches_oracle(candidates, targets):
    table = CoverTable(candidates)  # one table, its memo shared by the targets
    for target in targets:
        expect = oracle_min_cover(target, candidates)
        for cover in (min_cover(target, candidates), table.cover(target)):
            if expect is None:
                assert cover is None
            else:
                assert len(cover) == len(expect)
                assert _covers(cover, target, candidates)


@st.composite
def acted_spaces(draw):
    """Three to six points with an involution whose orbits are fixed points
    and swapped pairs (all orbit types admissible), or the trivial action.

    Every relation runs from an earlier orbit to a later one and is closed
    under the swap, so the order is antisymmetric and the swap an
    automorphism.
    """
    kinds = draw(st.lists(st.sampled_from(["fixed", "pair"]), min_size=3,
                          max_size=6).filter(
        lambda ks: sum(1 if k == "fixed" else 2 for k in ks) <= 6))
    orbits = [[f"f{u}"] if k == "fixed" else [f"a{u}", f"b{u}"]
              for u, k in enumerate(kinds)]
    pairs = []
    for u, low in enumerate(orbits):
        for high in orbits[u + 1:]:
            if len(low) == len(high) == 2:
                families = [[(0, 0), (1, 1)], [(0, 1), (1, 0)]]
            else:
                families = [[(i, j) for i in range(len(low))
                             for j in range(len(high))]]
            for family in families:
                if draw(st.booleans()):
                    pairs.extend((low[i], high[j]) for i, j in family)
    space = validate_space([p for orbit in orbits for p in orbit], pairs)
    swap = {p: p for orbit in orbits for p in orbit}
    for orbit in orbits:
        if len(orbit) == 2:
            swap[orbit[0]], swap[orbit[1]] = orbit[1], orbit[0]
    if "pair" in kinds and draw(st.booleans()):
        action = validate_action(space, [swap])
        return space, action, HomogeneousClass.all_types(action)
    return space, GroupAction.trivial(space), None


def _is_iso_member(space, class_b):
    return lambda m: any(order_isomorphic(space.subspace(m)[0], ref)
                         for ref in class_b)


def _reference_spaces(data, space):
    """One or two induced subspaces of the space, as classB references."""
    masks = data.draw(st.lists(
        st.integers(min_value=1, max_value=space.full_mask()),
        min_size=1, max_size=2))
    return [space.subspace(m)[0] for m in masks]


def brute_force_value(query):
    """Minimum over admissible A0 of the oracle cover of A minus A0.

    The members are tested one by one with ``is_categorical``,
    ``is_G_deformable`` or ``order_isomorphic`` (checked against the
    oracles or fixtures elsewhere); only the covering is brute force here.
    """
    space, action, klass, mode = (query.space, query.action, query.klass,
                                  query.mode)
    sets = space.down_sets() if mode == "closed" else space.up_sets()
    if mode == "classB":
        member = _is_iso_member(space, query.class_b)
    else:
        def member(m):
            return is_categorical(m, space, action, klass,
                                  with_certificate=False)[0]
    members = [m for m in sets if m and action.is_invariant(m)
               and member(m)]
    a0s = [0]
    if mode in ("pair", "mod", "semi"):
        required = query.A & query.Y if mode != "pair" else 0
        a0s = [m for m in space.up_sets()
               if action.is_invariant(m) and required & ~m == 0
               and is_G_deformable(action, m, query.Y,
                                   mod=mode == "mod") is not None]
    sizes = [len(c) for c in (oracle_min_cover(query.A & ~a0, members)
                              for a0 in a0s) if c is not None]
    return min(sizes) if sizes else INFINITE


@given(acted_spaces(), st.data())
@settings(max_examples=150, deadline=None)
def test_every_mode_matches_brute_force(acted, data):
    space, action, klass = acted
    full = space.full_mask()
    A = action.saturate(data.draw(st.integers(min_value=0, max_value=full)))
    Y = action.saturate(data.draw(st.integers(min_value=0, max_value=full)))
    modes = ["plain", "closed", "pair", "mod", "semi"]
    class_b = None
    if action.is_trivial():
        modes.append("classB")
        class_b = _reference_spaces(data, space)
    for mode in modes:
        query = CatQuery(space, A=A, Y=Y if mode in ("pair", "mod", "semi")
                         else 0, mode=mode, action=action, klass=klass,
                         class_b=class_b if mode == "classB" else None)
        result = cover_category(query)
        assert result.value == brute_force_value(query), mode
        assert result.verify()


@given(acted_spaces(), st.data())
@settings(max_examples=150, deadline=None)
def test_catalogues_are_the_maximal_members(acted, data):
    space, action, klass = acted
    klass = klass or HomogeneousClass.point_only(action)
    full = space.full_mask()
    Y = action.saturate(data.draw(st.integers(min_value=0, max_value=full)))
    opens = [m for m in space.up_sets() if m and action.is_invariant(m)]
    closeds = [m for m in space.down_sets() if m and action.is_invariant(m)]

    def categorical(m):
        return is_categorical(m, space, action, klass,
                              with_certificate=False)[0]

    def deforms(mod):
        return lambda m: is_G_deformable(action, m, Y, mod=mod) is not None

    cases = [
        ("open", opens, categorical,
         categorical_open_catalog(space, action, klass).members),
        ("closed", closeds, categorical,
         categorical_closed_catalog(space, action, klass).members),
        ("pair", opens, deforms(False),
         deformable_open_catalog(space, action, Y, False)),
        ("mod", opens, deforms(True),
         deformable_open_catalog(space, action, Y, True)),
    ]
    if action.is_trivial():
        class_b = _reference_spaces(data, space)
        cases.append(("classB", opens, _is_iso_member(space, class_b),
                      classB_catalog(space, action, class_b).members))
    for name, sets, test, members in cases:
        family = {m for m in sets if test(m)}
        for m in family:  # all but classB are down-closed among invariant sets
            assert name == "classB" or all(
                s in family for s in sets if s & ~m == 0), name
        maximal = [m for m in family
                   if not any(m != f and m & ~f == 0 for f in family)]
        if name in ("pair", "mod") and not maximal:
            assert dict(members) == {0: _EMPTY_DEFORMATION}, name
            continue
        # exactly the maximal members, by decreasing size, then by mask
        assert list(members) == sorted(
            maximal, key=lambda m: (-m.bit_count(), m)), name
        for m in members:
            if name in ("open", "closed"):
                ok, fence = is_categorical(m, space, action, klass)
                assert ok
                fence.validate()
                assert fence.start.images == tuple(bits(m))
                assert fence.end.images in _factor_targets(m, action, klass)
            elif name in ("pair", "mod"):
                # starts at the inclusion, ends in Y (mod Y for mod)
                query = CatQuery(space, A=m, Y=Y, mode=name, action=action,
                                 klass=klass)
                _check_deformation_certificate(
                    query, CoverEntry(m, "deformable", members[m]))


def test_categorical_fences_are_assembled_only_when_read(monkeypatch):
    c4 = fx.fix_c4()  # a fresh space: no catalogue or fence cached yet
    action = GroupAction.trivial(c4)
    klass = HomogeneousClass.point_only(action)
    assembled = []
    concat_fences = poset.concat_fences
    monkeypatch.setattr(poset, "concat_fences",
                        lambda *f: assembled.append(f) or concat_fences(*f))
    categorical_open_catalog(c4, action, klass)
    result = cover_category(CatQuery(c4, action=action, klass=klass))
    assert result.value == 2
    assert result.verify()
    assert assembled == []
    for entry in result.cover:
        fence = entry.certificate
        assert entry.certificate is fence
    assert len(assembled) == len(result.cover) == 2
    for entry in result.cover:
        expected = is_categorical(entry.mask, c4, action, klass,
                                  with_certificate=True)[1]
        assert entry.certificate.maps == expected.maps
        entry.certificate.validate()


# -- structural checkers ---------------------------------------------------


def test_preimage_categorical_identity(c4):
    U = c4.subset(["p", "U", "L"])
    report = check_preimage_categorical(SpaceMap.identity(c4), U)
    assert report["preimage"] == U
    assert report["independent_recheck"]


def test_preimage_categorical_swap(c4):
    U = c4.subset(["p", "U", "L"])
    report = check_preimage_categorical(fx.c4_swap_map(c4), U)
    assert sorted(c4.labels(report["preimage"])) == ["L", "U", "q"]
    report["certificate"].validate()
    assert report["independent_recheck"]


def test_preimage_categorical_needs_equivalence(c4):
    with pytest.raises(HypothesisUnmet):
        check_preimage_categorical(
            fx.c4_constant_map(c4), c4.subset(["p", "U", "L"])
        )


def test_closed_report_discrete_asserts():
    D3 = fx.discrete(3)
    report = closed_category_report(D3.subset(["d0", "d1"]), D3)
    assert report["asserted"]
    assert report["cat_of_subspace"] == 2
    assert all(report["verdicts"].values())


def test_closed_report_circle_reports_only(c4):
    report = closed_category_report(c4.subset(["p", "q"]), c4)
    assert not report["asserted"]
    assert report["cat_in_space"] == 2
    # the closed-vs-open equality genuinely fails off normal spaces
    assert not report["verdicts"]["closed_in_space_eq_open_in_space"]


def test_closed_report_full_space(c4):
    report = closed_category_report(c4.full_mask(), c4)
    assert report["cat_in_space"] == report["cat_of_subspace"] == 2


def test_closed_report_requires_closed(c4):
    with pytest.raises(HypothesisUnmet):
        closed_category_report(c4.subset(["U"]), c4)


def test_cuplength_lower_bound_values(v_space, c4):
    assert cuplength_lower_bound(c4) == 2
    assert cuplength_lower_bound(v_space) == 1
    assert cuplength_lower_bound(c4) <= cat(c4)
    assert cuplength_lower_bound(v_space) <= cat(v_space)

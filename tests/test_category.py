import math
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import fixtures as fx
from lscat import poset
from lscat.action import (
    GroupAction,
    HomogeneousClass,
    inclusion_map,
    is_G_deformable,
    is_G_map,
    mod_stage_ok,
    validate_action,
)
from lscat.category import (
    CatQuery,
    CatResult,
    CoverEntry,
    HypothesisUnmet,
    INFINITE,
    MODES,
    cat,
    cat_mod,
    cat_pair,
    cover_category,
    is_categorical,
    min_cover,
    order_isomorphic,
    value_diff,
    categorical_closed_catalog,
    categorical_open_catalog,
    classB_catalog,
    deformable_open_catalog,
    _check_fence,
    _factor_targets,
    _induced,
)
from lscat.engine import make_truncated_index
from lscat.poset import (
    FenceCertificate,
    SpaceMap,
    bits,
    fence_search,
    is_contractible_in,
    is_homotopy_equivalence,
    validate_space,
)
from lscat.simplicial import cuplength_lower_bound

from oracles import (
    oracle_G_deformation,
    oracle_G_fence,
    oracle_cat,
    oracle_contractible,
    oracle_factor_targets,
    oracle_min_cover,
    oracle_relative_G_core,
    oracle_truncated_index,
    point_moves,
)


# -- infinity conventions ---------------------------------------------------


def test_infinity_conventions():
    assert INFINITE == math.inf
    assert INFINITE >= INFINITE
    assert INFINITE >= 7
    assert not 7 >= INFINITE
    assert value_diff(INFINITE, INFINITE) == 0   # 0 >= inf - inf
    assert value_diff(5, INFINITE) == 0          # 0 >= n - inf
    assert INFINITE >= value_diff(INFINITE, 3)   # inf >= inf - n
    assert not 5 >= value_diff(INFINITE, 3)
    assert value_diff(5, 3) == 2
    assert 2 + INFINITE == INFINITE


# -- categorical sets ---------------------------------------------------------


def test_categorical_matches_contractible_for_trivial_group(c4):
    assert is_categorical(c4.subset(["p", "U", "L"]), c4) is not None
    assert is_categorical(c4.full_mask(), c4) is None


def test_categorical_with_free_class(conjugation, c4):
    free = HomogeneousClass.free_only(conjugation)
    # a fixed point cannot factor through a free orbit
    assert is_categorical(1 << c4.index["p"], c4, conjugation, free) is None
    point = HomogeneousClass.point_only(conjugation)
    assert is_categorical(1 << c4.index["p"], c4, conjugation,
                          point) is not None


def test_an_empty_class_admits_no_orbit(v_space):
    # a trivial action decides by contractibility, which must not
    # bypass a class that lists no subgroup
    act = GroupAction.trivial(v_space)
    empty = HomogeneousClass(act, [])
    assert is_categorical(v_space.full_mask(), v_space, act, empty) is None
    result = cover_category(CatQuery(v_space, action=act, klass=empty))
    assert result.value == INFINITE
    assert result.verify()


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
    assert cover_category(
        CatQuery(c4, mode="classB", class_b=[v_space])).value == 2


def test_classB_catalogue_is_keyed_by_the_reference_spaces(v_space):
    # Fresh reference spaces, each freed after its query: a new one often
    # takes a freed one's address, so a cache keyed on object identity
    # hands one reference list's catalogue to the other.
    action = GroupAction.trivial(v_space)
    for k in range(200):
        ref = validate_space(["x"], []) if k % 2 else fx.fix_v()
        value = cover_category(CatQuery(
            v_space, mode="classB", action=action, class_b=[ref])).value
        assert value == (INFINITE if k % 2 else 1), k
        del ref


def test_order_isomorphic(v_space, arc3):
    assert order_isomorphic(v_space, v_space)
    assert order_isomorphic(v_space, arc3)  # both are one-minimum fans
    chain = validate_space(["0", "1", "2"], [["0", "1"], ["1", "2"]])
    assert not order_isomorphic(v_space, chain)
    # the smallest pair of posets with equal (up, down) degree profiles
    # that are not isomorphic: V + Lambda against zigzag + 2-chain
    labels = [str(i) for i in range(6)]
    v_lambda = validate_space(labels, [["0", "1"], ["0", "2"], ["3", "5"],
                                       ["4", "5"]])
    zigzag_chain = validate_space(labels, [["0", "1"], ["0", "3"],
                                           ["2", "3"], ["4", "5"]])

    def profile(space):
        return sorted((space.up[i].bit_count(), space.down[i].bit_count())
                      for i in range(len(space)))

    assert profile(v_lambda) == profile(zigzag_chain)
    assert not order_isomorphic(v_lambda, zigzag_chain)
    assert not order_isomorphic(zigzag_chain, v_lambda)


def test_mod_infinite_on_pinned_minima(c4):
    pq = c4.subset(["p", "q"])
    assert cat_mod(c4, pq, pq) == INFINITE
    assert cat_mod(c4, 1 << c4.index["p"], pq) == 0
    assert cover_category(
        CatQuery(c4, A=c4.full_mask(), Y=pq, mode="semi")).value == INFINITE
    assert cat_pair(c4, c4.full_mask(), pq) == 1


def test_min_cover_exactness():
    # universe {0..4}; candidates force a 2-cover
    sets = [0b00111, 0b11000, 0b01010, 0b10101]
    cover = min_cover(0b11111, sets)
    assert cover == [0b00111, 0b11000]  # the first pair that covers
    assert min_cover(0b1, [0b10]) is None
    assert min_cover(0, sets) == []


def test_pair_cover_keeps_the_first_A0_of_least_cost():
    # A0 = acdef and A0 = bcdef each leave one categorical open; the
    # first in (points of A left, mask) order is the one reported
    space = validate_space(list("abcdef"), [
        ["a", "c"], ["a", "d"], ["a", "e"], ["b", "d"], ["b", "e"],
        ["c", "f"]])
    result = cover_category(
        CatQuery(space, Y=space.subset(["a", "b", "f"]), mode="pair"))
    assert [(e.role, e.mask) for e in result.cover] == [
        ("deformable", space.subset(list("acdef"))),
        ("categorical", space.subset(list("bcdef")))]


def test_ordering_chain_on_fixtures(arc3, c4, wedge2):
    cases = [
        (arc3, arc3.full_mask(), arc3.subset(["l", "r"])),
        (c4, c4.full_mask(), c4.subset(["p", "U", "L"])),
        (wedge2, wedge2.full_mask(),
         wedge2.subset(["o", "q1", "U1", "L1"])),
    ]
    for space, A, Y in cases:
        mod = cat_mod(space, A, Y)
        semi = cover_category(CatQuery(space, A=A, Y=Y, mode="semi")).value
        pair = cat_pair(space, A, Y)
        plain_a = cat(space, A)
        plain_y = cat(space, Y)
        assert mod >= semi
        assert semi >= pair
        assert pair >= value_diff(plain_a, plain_y)


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
    assert cat(space, B) >= cat(space, A)
    for mode in ("pair", "mod", "semi"):
        assert cover_category(CatQuery(space, A=B, Y=Y, mode=mode)).value \
            >= cover_category(CatQuery(space, A=A, Y=Y, mode=mode)).value


@given(small_spaces(), st.data())
@settings(max_examples=25, deadline=None)
def test_ordering_chain_random(space, data):
    full = space.full_mask()
    A = data.draw(st.integers(min_value=0, max_value=full))
    Y = data.draw(st.integers(min_value=0, max_value=full))
    mod = cat_mod(space, A, Y)
    semi = cover_category(CatQuery(space, A=A, Y=Y, mode="semi")).value
    pair = cat_pair(space, A, Y)
    assert mod >= semi
    assert semi >= pair
    assert pair >= value_diff(cat(space, A), cat(space, Y))


# -- the cover search against brute force -----------------------------------


@given(st.lists(st.integers(min_value=0, max_value=255), max_size=9),
       st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                max_size=4))
@settings(max_examples=300, deadline=None)
def test_min_cover_matches_oracle(candidates, targets):
    # the same enumeration as the oracle, so the same tie-break
    for target in targets:
        assert min_cover(target, candidates) == oracle_min_cover(
            target, candidates)


def test_min_cover_refuses_an_unreachable_bit_at_once():
    # without the reach check this would try all 2^24 combinations
    candidates = [1 << k for k in range(24)]
    start = time.perf_counter()
    assert min_cover((1 << 24) | 1, candidates) is None
    assert time.perf_counter() - start < 0.5
    assert min_cover(1 << 23, candidates) == [1 << 23]


@st.composite
def acted_spaces(draw, max_points=6, split=False):
    """Three to ``max_points`` points with an involution whose orbits are
    fixed points and swapped pairs (all orbit types admissible), or the
    trivial action.

    Every relation runs from an earlier orbit to a later one and is closed
    under the swap, so the order is antisymmetric and the swap an
    automorphism.  With ``split``, a drawn cut (none when it is 0) keeps
    every relation on one side of it, so the space is disconnected.
    """
    kinds = draw(st.lists(st.sampled_from(["fixed", "pair"]), min_size=3,
                          max_size=max_points).filter(
        lambda ks: sum(1 if k == "fixed" else 2 for k in ks) <= max_points))
    orbits = [[f"f{u}"] if k == "fixed" else [f"a{u}", f"b{u}"]
              for u, k in enumerate(kinds)]
    cut = draw(st.integers(0, len(orbits) - 1)) if split else 0
    pairs = []
    for u, low in enumerate(orbits):
        for v, high in enumerate(orbits[u + 1:], u + 1):
            if u < cut <= v:
                continue
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
            return is_categorical(m, space, action, klass) is not None
    members = [m for m in sets if m and action.is_invariant(m)
               and member(m)]
    a0s = [0]
    if mode in ("pair", "mod", "semi"):
        required = query.A & query.Y if mode != "pair" else 0
        a0s = [m for m in space.up_sets()
               if action.is_invariant(m) and required & ~m == 0
               and (m == 0 or is_G_deformable(
                   action, m, query.Y, mod=mode == "mod") is not None)]
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


CLASSES = {"point": HomogeneousClass.point_only,
           "free": HomogeneousClass.free_only,
           "all": HomogeneousClass.all_types}


@given(acted_spaces(max_points=7), st.sampled_from(sorted(CLASSES)),
       st.data())
@settings(max_examples=150, deadline=None)
def test_infinite_values_are_exact_in_every_mode(acted, class_name, data):
    """Every emitted result verifies, and an empty-cover INFINITE result
    verifies exactly when the emitted value is infinite."""
    space, action, _ = acted
    klass = CLASSES[class_name](action)
    full = space.full_mask()
    A = action.saturate(data.draw(st.integers(min_value=0, max_value=full)))
    Y = action.saturate(data.draw(st.integers(min_value=0, max_value=full)))
    class_b = _reference_spaces(data, space) if action.is_trivial() else None
    for mode in MODES:
        if mode == "classB" and class_b is None:
            continue
        query = CatQuery(space, A=A, Y=Y if mode in ("pair", "mod", "semi")
                         else 0, mode=mode, action=action, klass=klass,
                         class_b=class_b if mode == "classB" else None)
        result = cover_category(query)
        assert result.verify()
        forged = CatResult(query, INFINITE, ())
        if result.value == INFINITE:
            assert forged.verify()
        else:
            with pytest.raises(ValueError, match="A has a finite cover"):
                forged.verify()


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
        return is_categorical(m, space, action, klass) is not None

    def deforms(mod):
        return lambda m: is_G_deformable(action, m, Y, mod=mod) is not None

    cases = [
        ("open", opens, categorical,
         list(categorical_open_catalog(space, action, klass))),
        ("closed", closeds, categorical,
         list(categorical_closed_catalog(space, action, klass))),
        ("pair", opens, deforms(False),
         deformable_open_catalog(space, action, Y, False)),
        ("mod", opens, deforms(True),
         deformable_open_catalog(space, action, Y, True)),
    ]
    if action.is_trivial():
        class_b = _reference_spaces(data, space)
        cases.append(("classB", opens, _is_iso_member(space, class_b),
                      list(classB_catalog(space, action, class_b))))
    for name, sets, test, members in cases:
        family = {m for m in sets if test(m)}
        for m in family:  # all but classB are down-closed among invariant sets
            assert name == "classB" or all(
                s in family for s in sets if s & ~m == 0), name
        maximal = [m for m in family
                   if not any(m != f and m & ~f == 0 for f in family)]
        # exactly the maximal members, by decreasing size, then by mask
        assert list(members) == sorted(
            maximal, key=lambda m: (-m.bit_count(), m)), name
        for m in members:
            if name in ("open", "closed"):
                fence = is_categorical(m, space, action, klass)
                fence.validate()
                assert fence.start.images == tuple(bits(m))
                assert fence.end.images in _factor_targets(m, action, klass)
            elif name in ("pair", "mod"):
                # starts at the inclusion, ends in Y (mod Y for mod)
                query = CatQuery(space, A=m, Y=Y, mode=name, action=action,
                                 klass=klass)
                assert CatResult(query, 0, [
                    CoverEntry(m, "deformable", members[m])]).verify()


def test_categorical_fences_are_assembled_only_when_read(monkeypatch):
    """A categorical cover entry carries its catalogue member's fence,
    which is lifted the first time its maps are read, with no search."""
    lifted = []
    lift = poset._lift
    monkeypatch.setattr(poset, "_lift",
                        lambda *a: lifted.append(a) or lift(*a))
    for equivariant in (False, True):
        c4 = fx.fix_c4()  # a fresh space: no catalogue or fence cached yet
        action = (validate_action(c4, [fx.conjugation_generator()])
                  if equivariant else GroupAction.trivial(c4))
        klass = HomogeneousClass.default(action)
        catalog = categorical_open_catalog(c4, action, klass)
        result = cover_category(CatQuery(c4, action=action, klass=klass))
        assert result.value == 2
        assert lifted == []
        for entry in result.cover:
            assert entry.certificate is catalog[entry.mask]
        with mock.patch.object(poset, "fence_search") as search:
            assert result.verify()  # reads, so lifts, each fence once
            assert result.verify()
        assert search.call_count == 0
        assert len(lifted) == len(result.cover) == 2
        for entry in result.cover:
            expected = is_categorical(entry.mask, c4, action, klass)
            assert entry.certificate.maps == expected.maps
        lifted.clear()


def test_deformable_fences_are_lifted_only_when_read(monkeypatch):
    v = fx.fix_v()  # c below a and b; its relative cores are single points
    action = GroupAction.trivial(v)
    Y = v.subset(["a"])
    lifted = []
    lift = poset._lift
    monkeypatch.setattr(poset, "_lift",
                        lambda *a: lifted.append(a) or lift(*a))
    for mode in ("pair", "mod"):
        result = cover_category(CatQuery(v, Y=Y, mode=mode, action=action))
        assert result.value == 0
        (entry,) = result.cover
        assert entry.role == "deformable" and entry.mask == v.full_mask()
        assert lifted == []
        with mock.patch.object(poset, "fence_search") as search:
            assert result.verify()  # reads, so lifts, the fence once
            assert entry.certificate.maps[0].images == (0, 1, 2)
        assert search.call_count == 0
        assert len(lifted) == 1
        assert_deforms(action, v.full_mask(), Y, mode == "mod",
                       entry.certificate)
        lifted.clear()


# -- the component rule and the open hull against unguarded searches ---------


def unguarded_deformation(action, W, Y, mod):
    """The equivariant fence search from the inclusion of all of W into
    Y (mod Y), with no component rule and no core."""
    incl, parents = inclusion_map(action.space, W)
    return oracle_G_fence(
        incl, action, lambda images: all(Y >> v & 1 for v in images),
        stage_ok=mod_stage_ok(parents, Y) if mod else None)


def assert_deforms(action, W, Y, mod, fence):
    """The fence passes ``_check_fence``'s rules for a deformable W: it
    validates (under the mod stage rule in mod mode), starts at the
    inclusion of W, has only G-maps as stages, and ends inside Y."""
    fence.validate(mod_stage_ok(tuple(bits(W)), Y) if mod else None)
    assert fence.start == inclusion_map(action.space, W)[0]
    assert all(is_G_map(stage, action) for stage in fence.maps)
    assert fence.end.image_mask() & ~Y == 0


def assert_searched_on_cores(search, action, core, hold):
    """The one search ran from a map on the core (a mask) of the
    question's domain into the relative G-core of the space that keeps
    ``hold``, and moved only to values in it."""
    (call,) = search.call_args_list
    reach = oracle_relative_G_core(action, action.space.full_mask(), hold)
    assert len(call.args[0].domain) == core.bit_count()
    assert call.args[0].image_mask() & ~reach == 0
    assert all(fixed & ~reach == 0 for _, fixed, _ in call.kwargs["moves"])


@given(acted_spaces(), st.sampled_from(sorted(CLASSES)), st.data())
@settings(max_examples=50, deadline=None)
def test_membership_decisions_answer_with_a_checked_fence_or_None(
        acted, class_name, data):
    """``is_contractible_in``, ``is_categorical`` and ``is_G_deformable``
    each answer with a ``FenceCertificate`` that passes ``_check_fence``,
    or with None, and decide as the oracles do: ``oracle_contractible``,
    and ``oracle_G_deformation`` to the oracle's factoring targets or into
    Y (mod Y)."""
    space, action, _ = acted
    klass = CLASSES[class_name](action)
    full = space.full_mask()
    for _ in range(2):
        W = action.saturate(data.draw(st.integers(1, full)))
        Y = action.saturate(data.draw(st.integers(0, full)))
        questions = [
            (is_contractible_in(W, space), CatQuery(space, A=W),
             "categorical", lambda images: len(set(images)) == 1, None,
             oracle_contractible(space, W)),
        ]
        targets = oracle_factor_targets(W, action, klass)
        questions.append((
            is_categorical(W, space, action, klass),
            CatQuery(space, A=W, action=action, klass=klass), "categorical",
            targets.__contains__, None,
            oracle_G_deformation(action, W, targets.__contains__)))
        def into_Y(images):
            return all(Y >> v & 1 for v in images)

        for mode in ("pair", "mod"):
            stage_ok = (mod_stage_ok(tuple(bits(W)), Y) if mode == "mod"
                        else None)
            questions.append((
                is_G_deformable(action, W, Y, mod=mode == "mod"),
                CatQuery(space, A=W, Y=Y, mode=mode, action=action,
                         klass=klass), "deformable", into_Y, stage_ok,
                oracle_G_deformation(action, W, into_Y, stage_ok)))
        for fence, query, role, end_ok, stage_ok, decided in questions:
            assert (fence is not None) == decided, (W, Y, query.mode, role)
            if fence is not None:
                _check_fence(query, CoverEntry(W, role, fence), end_ok,
                             stage_ok)


@given(acted_spaces(max_points=7, split=True), st.data())
@settings(max_examples=60, deadline=None)
def test_component_rule_refutes_only_what_the_search_refutes(acted, data):
    """``is_G_deformable`` decides as the unguarded reference BFS
    ``oracle_G_fence`` does, with a fence that deforms W into Y, and searches nothing when a
    component of the space meets W but misses Y."""
    space, action, _ = acted
    full = space.full_mask()
    for _ in range(3):
        W = action.saturate(data.draw(st.integers(1, full)))
        Y = data.draw(st.integers(0, full))
        refuted = any(W & c and not Y & c for c in space.components)
        for mod in (False, True):
            direct = unguarded_deformation(action, W, Y, mod)
            with mock.patch.object(poset, "fence_search",
                                   wraps=fence_search) as search:
                fence = is_G_deformable(action, W, Y, mod=mod)
            if refuted:
                assert direct is None and search.call_count == 0
            assert (fence is None) == (direct is None), (W, Y, mod)
            if fence is not None:
                assert_deforms(action, W, Y, mod, fence)


@given(acted_spaces(max_points=7), st.data())
@settings(max_examples=60, deadline=None)
def test_deformations_are_decided_on_the_relative_G_core(acted, data):
    """On invariant W and Y, ``is_G_deformable`` searches from the
    relative G-core of W (the oracle's point count) and decides as the
    unguarded search on all of W, with a fence that deforms W into Y."""
    space, action, _ = acted
    full = space.full_mask()
    for _ in range(3):
        W = action.saturate(data.draw(st.integers(1, full)))
        Y = action.saturate(data.draw(st.integers(0, full)))
        for mod in (False, True):
            with mock.patch.object(poset, "fence_search",
                                   wraps=fence_search) as search:
                fence = is_G_deformable(action, W, Y, mod=mod)
            assert (fence is None) == (
                unguarded_deformation(action, W, Y, mod) is None), (W, Y, mod)
            if search.call_count:
                core = oracle_relative_G_core(action, W, W & Y if mod else 0)
                assert_searched_on_cores(search, action, core, Y)
            if fence is not None:
                assert_deforms(action, W, Y, mod, fence)


@given(acted_spaces(max_points=7), st.sampled_from(sorted(CLASSES)),
       st.data())
@settings(max_examples=60, deadline=None)
def test_categorical_questions_are_decided_on_the_relative_G_core(
        acted, class_name, data):
    """On invariant W, ``is_categorical`` decides as the unguarded
    ``oracle_G_deformation`` from all of W to its ``_factor_targets``, searches
    only from the relative G-core of W (the oracle's point count), and
    returns a fence that passes ``_check_fence``; the space's own core is
    never built."""
    space, action, _ = acted
    klass = CLASSES[class_name](action)
    full = space.full_mask()
    for _ in range(3):
        W = action.saturate(data.draw(st.integers(1, full)))
        with mock.patch.object(poset, "fence_search",
                               wraps=fence_search) as search:
            fence = is_categorical(W, space, action, klass)
        targets = _factor_targets(W, action, klass)
        assert (fence is not None) == (bool(targets) and oracle_G_deformation(
            action, W, targets.__contains__)), W
        core = oracle_relative_G_core(action, W, 0)
        if search.call_count:
            assert_searched_on_cores(search, action, core, 0)
        if fence is not None:
            query = CatQuery(space, A=W, action=action, klass=klass)
            _check_fence(query, CoverEntry(W, "categorical", fence),
                         targets.__contains__, None)
    assert space._core is None


def test_a_core_that_already_passes_is_answered_with_nothing_built():
    """When the inclusion of the relative G-core is already a target, no
    fence search runs, the space is not collapsed, and no fence map is
    made until the fence is read."""
    c4 = fx.fix_c4()
    conj = validate_action(c4, [fx.conjugation_generator()])
    W = c4.subset(["p", "U", "L"])  # its relative cores are single points
    questions = [
        lambda: is_categorical(W, c4),  # trivial: is_contractible_in
        lambda: is_categorical(W, c4, conj,
                               HomogeneousClass.point_only(conj)),
        lambda: is_G_deformable(conj, W, c4.subset(["p"])),
        lambda: is_G_deformable(conj, W, c4.subset(["p", "q"]), mod=True),
    ]
    for ask in questions:
        with mock.patch.object(poset, "fence_search") as search:
            fence = ask()
        assert search.call_count == 0 and callable(fence._maps)
        assert c4._core is None and c4._reaches == {}
        fence.validate()
        assert fence.start == inclusion_map(c4, W)[0]
        assert fence.end.image_mask().bit_count() == 1


@given(acted_spaces(max_points=7, split=True),
       st.sampled_from(["category", "pair_category"]),
       st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_truncated_index_reads_the_open_hull(acted, kind, cap, data):
    space, action, _ = acted
    nu = make_truncated_index(kind, cap, action)
    oracle = oracle_truncated_index(kind, cap, action)
    full = space.full_mask()
    for _ in range(4):
        A = data.draw(st.integers(0, full))
        Y = data.draw(st.integers(0, full))
        hull = space.up_closure(action.saturate(A))
        assert nu(A, Y) == oracle(A, Y) == nu(hull, Y), (A, Y)


# -- verify rejects each defect ---------------------------------------------

# One-letter labels, so a string names a subset (in the space's point
# order) or a stage's images (in the subspace's point order).
FORGE_SPACES = {
    "V": fx.fix_v(),  # c below a and b
    "arc": fx.fix_arc3(),  # m below l and r
    "X": validate_space(["a", "b", "c"], [["a", "c"], ["b", "c"]]),
    "point": validate_space(["x"], []),
}


def _forged_fence(space, labels, stages):
    """A fence on the subspace of ``labels`` into the space whose stages
    are built without any check, so that only ``verify`` judges them."""
    sub, _ = space.subspace(space.subset(labels))
    maps = []
    for stage in stages:
        m = object.__new__(SpaceMap)
        m.domain, m.codomain = sub, space
        m.images = tuple(space.index[p] for p in stage)
        maps.append(m)
    return poset.FenceCertificate(maps)


def _forged_result(spec):
    space = FORGE_SPACES[spec["space"]]
    action = spec.get("action")
    query = CatQuery(
        space, A=space.subset(spec["A"]), Y=space.subset(spec.get("Y", "")),
        mode=spec["mode"],
        action=action and validate_action(space, [action]),
        class_b=[FORGE_SPACES[r] for r in spec.get("class_b", ())])
    cover = [CoverEntry(space.subset(m), role,
                        stages and _forged_fence(space, m, stages))
             for m, role, stages in spec["cover"]]
    return CatResult(query, spec["value"], cover)


V_PLAIN = {"space": "V", "mode": "plain", "A": "cab", "value": 1,
           "cover": [("cab", "categorical", ["cab", "ccc"])]}

# (valid result, the one defect added to it, the rejection it must raise)
VERIFY_DEFECTS = {
    "categorical set not open": (
        {**V_PLAIN, "A": "a", "cover": [("a", "categorical", ["a"])]},
        {"A": "c", "cover": [("c", "categorical", ["c"])]},
        "categorical cover set is not open"),
    "deformable set not open": (
        {"space": "V", "mode": "pair", "A": "a", "Y": "c", "value": 0,
         "cover": [("a", "deformable", ["a", "c"])]},
        {"A": "c", "cover": [("c", "deformable", ["c"])]},
        "deformable cover set is not open"),
    "set not closed in closed mode": (
        {**V_PLAIN, "mode": "closed", "A": "c",
         "cover": [("c", "categorical", ["c"])]},
        {"A": "a", "cover": [("a", "categorical", ["a"])]},
        "closed-mode cover set is not closed"),
    "A0 misses A & Y": (
        {"space": "arc", "mode": "pair", "A": "l", "Y": "lr", "value": 1,
         "cover": [("r", "deformable", ["r"]),
                   ("l", "categorical", ["l"])]},
        {"mode": "semi"},
        "A0 must contain A & Y"),
    "discontinuous stage": (
        V_PLAIN,
        {"cover": [("cab", "categorical", ["cab", "aab", "ccc"])]},
        "not order-preserving"),
    "non-comparable stages": (
        V_PLAIN,
        {"cover": [("cab", "categorical", ["cab", "aaa"])]},
        "consecutive fence maps are not comparable"),
    "start is not the inclusion": (
        V_PLAIN,
        {"cover": [("cab", "categorical", ["ccc"])]},
        "does not start at the inclusion"),
    # a plain deformation of X (the fence the trivial-group search finds)
    # where no G-map into Y can place c: value 1 with the swap, not 0
    "stage is not a G-map": (
        {"space": "X", "mode": "pair", "A": "abc", "Y": "ab", "value": 0,
         "cover": [("abc", "deformable", ["abc", "cbc", "bbc", "bbb"])]},
        {"action": {"a": "b", "b": "a", "c": "c"}},
        "fence has a stage that is not a G-map"),
    "deformation ends outside Y": (
        {"space": "V", "mode": "pair", "A": "b", "Y": "a", "value": 0,
         "cover": [("b", "deformable", ["b", "c", "a"])]},
        {"cover": [("b", "deformable", ["b"])]},
        "deformable fence does not end inside Y"),
    "categorical end is no admissible orbit": (
        {**V_PLAIN, "A": "ab",
         "cover": [("ab", "categorical", ["ab", "cb", "cc"])]},
        {"cover": [("ab", "categorical", ["ab"])]},
        "categorical fence does not end through an admissible orbit"),
    "mod stage leaves Y": (
        {"space": "V", "mode": "mod", "A": "a", "Y": "a", "value": 0,
         "cover": [("a", "deformable", ["a"])]},
        {"cover": [("a", "deformable", ["a", "c", "a"])]},
        "fence stage violates the stage constraint"),
    "categorical set without a fence": (
        V_PLAIN,
        {"cover": [("cab", "categorical", None)]},
        "categorical cover set carries no fence"),
    "classB set matches no reference": (
        {"space": "V", "mode": "classB", "A": "cab", "class_b": ["arc"],
         "value": 1, "cover": [("cab", "iso", None)]},
        {"class_b": ["point"]},
        "classB cover set matches no reference space"),
    "unknown role": (
        V_PLAIN,
        {"cover": [("cab", "bogus", ["cab", "ccc"])]},
        "plain mode has no 'bogus' sets"),
    "deformable set in plain mode": (
        V_PLAIN,
        {"cover": [("cab", "categorical", ["cab", "ccc"]),
                   ("ab", "deformable", ["ab", "cc"])]},
        "plain mode has no 'deformable' sets"),
    "categorical set in classB mode": (
        {"space": "V", "mode": "classB", "A": "cab", "class_b": ["arc"],
         "value": 1, "cover": [("cab", "iso", None)]},
        {"cover": [("cab", "categorical", ["cab", "ccc"])]},
        "classB mode has no 'categorical' sets"),
    "cover misses A": (
        {**V_PLAIN, "A": "ab",
         "cover": [("ab", "categorical", ["ab", "cb", "cc"])]},
        {"A": "cab"},
        "cover does not cover A"),
    "wrong count": (
        V_PLAIN,
        {"value": 2},
        "cover size disagrees with the value"),
    # V is contractible, so its category is 1
    "forged infinite value": (
        V_PLAIN,
        {"value": INFINITE, "cover": []},
        "infinite value, yet A has a finite cover"),
    # V deforms into its bottom point c, so the value is 0 in these modes
    **{f"forged infinite {mode} value": (
        {"space": "V", "mode": mode, "A": "cab", "Y": "c", "value": 0,
         "cover": [("cab", "deformable", ["cab", "ccc"])]},
        {"value": INFINITE, "cover": []},
        "infinite value, yet A has a finite cover")
       for mode in ("pair", "mod", "semi")},
    # V is an open isomorphic to the reference V
    "forged infinite classB value": (
        {"space": "V", "mode": "classB", "A": "cab", "class_b": ["V"],
         "value": 1, "cover": [("cab", "iso", None)]},
        {"value": INFINITE, "cover": []},
        "infinite value, yet A has a finite cover"),
    "cover on an infinite value": (
        V_PLAIN,
        {"value": INFINITE},
        "an infinite value has a cover"),
    "two deformable sets": (
        {"space": "V", "mode": "pair", "A": "cab", "Y": "c", "value": 0,
         "cover": [("cab", "deformable", ["cab", "ccc"])]},
        {"cover": [("cab", "deformable", ["cab", "ccc"]),
                   ("ab", "deformable", ["ab", "cc"])]},
        "at most one deformable set allowed"),
}


@pytest.mark.parametrize("valid, defect, message", VERIFY_DEFECTS.values(),
                         ids=VERIFY_DEFECTS)
def test_verify_rejects_each_defect(valid, defect, message):
    assert _forged_result(valid).verify()
    with pytest.raises(ValueError, match=message):
        _forged_result({**valid, **defect}).verify()


# -- structural checkers ---------------------------------------------------


def check_preimage_categorical(phi, U, action=None, klass=None):
    """For a homotopy equivalence phi and a categorical open U, certify
    that the preimage is again an open categorical set.

    The certificate composes the inverse equivalence with U's
    factorisation and is re-validated stage by stage.
    """
    space = phi.domain
    action = action or GroupAction.trivial(space)
    klass = klass or HomogeneousClass.point_only(action)
    if not is_homotopy_equivalence(phi):
        raise HypothesisUnmet("homotopy_equivalence")
    if not space.is_up_set(U):
        raise HypothesisUnmet("open")
    u_cert = is_categorical(U, space, action, klass)
    if u_cert is None:
        raise HypothesisUnmet("categorical")
    pre_mask = sum(1 << i for i, v in enumerate(phi.images) if U >> v & 1)
    assert space.is_up_set(pre_mask)  # preimage of open under continuous
    if pre_mask == 0:
        return {"preimage": pre_mask, "categorical": True,
                "certificate": None, "note": "empty preimage"}

    psi = fx.homotopy_inverse(phi)
    incl_pre, pre_parents = inclusion_map(space, pre_mask)
    # fence 1: incl ~ (psi o phi) o incl, restricted to the preimage
    psiphi = psi.compose(phi)
    outer = fence_search(SpaceMap.identity(space),
                         {psiphi.images}.__contains__,
                         moves=point_moves(space))
    if outer is None:  # cannot happen for a genuine equivalence
        raise HypothesisUnmet("homotopy_equivalence")
    part1 = [m.compose(incl_pre) for m in outer.maps]
    # fence 2: psi o (U's factorisation fence) o phi|
    sub_u, u_parents = space.subspace(U)
    u_pos = {p: k for k, p in enumerate(u_parents)}
    phi_restr = SpaceMap(
        incl_pre.domain, sub_u,
        tuple(u_pos[phi.images[p]] for p in pre_parents),
    )
    part2 = [psi.compose(m).compose(phi_restr) for m in u_cert.maps]
    full = FenceCertificate(part1 + part2)
    full.validate()
    return {
        "preimage": pre_mask,
        "categorical": True,
        "certificate": full,
        "independent_recheck": is_categorical(pre_mask, space, action,
                                              klass) is not None,
    }


def closed_category_report(A, space, action=None, klass=None):
    """Compare the four open/closed category quantities for a closed A.

    Asserting the full chain needs normality; finite non-discrete models
    are not normal, so the chain is only asserted on discrete spaces and
    reported elsewhere.
    """
    action = action or GroupAction.trivial(space)
    klass = klass or HomogeneousClass.point_only(action)
    if not space.is_down_set(A):
        raise HypothesisUnmet("closed")
    sub, idx = space.subspace(A)
    sub_action, sub_klass = _induced(action, klass, sub, idx)

    value_in_sub = cover_category(
        CatQuery(sub, action=sub_action, klass=sub_klass)
    ).value
    closed_in_sub = cover_category(
        CatQuery(sub, mode="closed", action=sub_action, klass=sub_klass)
    ).value
    closed_in_x = cover_category(
        CatQuery(space, A=A, mode="closed", action=action, klass=klass)
    ).value
    open_in_x = cover_category(
        CatQuery(space, A=A, action=action, klass=klass)
    ).value

    verdicts = {
        "cat_sub_ge_closed_sub": value_in_sub >= closed_in_sub,
        "closed_sub_ge_closed_in_space": closed_in_sub >= closed_in_x,
        "closed_in_space_eq_open_in_space": closed_in_x == open_in_x,
    }
    report = {
        "cat_of_subspace": value_in_sub,
        "closed_cat_of_subspace": closed_in_sub,
        "closed_cat_in_space": closed_in_x,
        "cat_in_space": open_in_x,
        "verdicts": verdicts,
        "asserted": space.is_discrete(),
    }
    if space.is_discrete() and not all(verdicts.values()):
        raise AssertionError(
            f"closed-category chain failed on a discrete space: {report}"
        )
    return report


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


def test_closed_report_restricts_an_explicit_class(conjugation, c4):
    """The subspace gets the restriction of the given class whatever its
    kind: the explicit class of the free orbit G/e reads as the free
    class (not as the point class)."""
    explicit = HomogeneousClass(conjugation, [frozenset([0])])
    free = HomogeneousClass.free_only(conjugation)
    for A in (c4.full_mask(), c4.subset(["p", "q"])):
        assert closed_category_report(A, c4, conjugation, explicit) == \
            closed_category_report(A, c4, conjugation, free)
    report = closed_category_report(c4.full_mask(), c4, conjugation, explicit)
    assert report["cat_of_subspace"] == INFINITE


def test_closed_report_requires_closed(c4):
    with pytest.raises(HypothesisUnmet):
        closed_category_report(c4.subset(["U"]), c4)


def test_cuplength_lower_bound_values(v_space, c4):
    assert cuplength_lower_bound(c4) == 2
    assert cuplength_lower_bound(v_space) == 1
    assert cuplength_lower_bound(c4) <= cat(c4)
    assert cuplength_lower_bound(v_space) <= cat(v_space)

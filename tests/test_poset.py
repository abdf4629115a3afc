import pytest
from hypothesis import assume, given, settings, strategies as st

import fixtures as fx
from lscat.poset import (
    EmptySpace,
    NotAPartialOrder,
    SpaceMap,
    bits,
    core,
    enumerate_maps,
    homotopic,
    is_contractible_in,
    is_homotopy_equivalence,
    homotopy_inverse,
    validate_space,
)

from oracles import hom_components, oracle_contractible


def test_validate_v_space():
    space = validate_space(["c", "a", "b"], [["c", "a"], ["c", "b"]])
    assert space.leq(space.index["c"], space.index["a"])
    assert not space.leq(space.index["a"], space.index["b"])


def test_validate_antisymmetry_violation():
    with pytest.raises(NotAPartialOrder) as err:
        validate_space(["a", "b"], [["a", "b"], ["b", "a"]])
    assert err.value.axiom == "antisymmetry"


def test_validate_empty():
    with pytest.raises(EmptySpace):
        validate_space([], [])


def test_validate_transitive_closure_is_taken():
    space = validate_space(["x", "y", "z"], [["x", "y"], ["y", "z"]])
    assert space.leq(space.index["x"], space.index["z"])


def test_closure_examples(c4, v_space):
    closure = c4.down_closure(c4.subset(["U"]))
    assert sorted(c4.labels(closure)) == ["U", "p", "q"]
    assert c4.down_closure(c4.subset([])) == 0
    closure = v_space.down_closure(v_space.subset(["a"]))
    assert sorted(v_space.labels(closure)) == ["a", "c"]


def test_is_open_examples(c4):
    assert c4.is_up_set(c4.subset(["U"]))
    assert not c4.is_up_set(c4.subset(["p"]))
    assert c4.is_up_set(c4.full_mask())


def test_open_iff_equals_up_closure(c4):
    for mask in range(c4.full_mask() + 1):
        assert c4.is_up_set(mask) == (c4.up_closure(mask) == mask)


def test_closure_idempotent_and_monotone(wedge2):
    full = wedge2.full_mask()
    for mask in range(0, full + 1, 7):
        c = wedge2.down_closure(mask)
        assert wedge2.down_closure(c) == c
        bigger = wedge2.down_closure(mask | (mask >> 1))
        assert c & ~bigger == 0 or mask | (mask >> 1) == mask


def test_enumerate_maps_v_contains_identity_and_constants(v_space):
    maps = enumerate_maps(v_space, v_space)
    images = {m.images for m in maps}
    assert tuple(range(3)) in images
    for c in range(3):
        assert (c, c, c) in images


def test_enumerate_maps_single_point(c4):
    maps = enumerate_maps(c4.subspace(c4.subset(["p"]))[0], c4)
    assert len(maps) == len(c4)


def test_enumerate_maps_c4_count_regression(c4):
    # hand-verified over the four image cases of the two minima
    maps = enumerate_maps(c4, c4)
    assert len(maps) == 36


def test_map_composition_stays_continuous(v_space):
    maps = enumerate_maps(v_space, v_space)
    for m1 in maps[:6]:
        for m2 in maps[:6]:
            m1.compose(m2)  # constructor re-validates


def test_homotopic_v_identity_to_constant(v_space):
    ident = SpaceMap.identity(v_space)
    const = SpaceMap.constant(v_space, v_space, v_space.index["a"])
    fence = homotopic(ident, const)
    assert fence is not None
    fence.validate()
    assert fence.start == ident and fence.end == const


def test_homotopic_self_is_trivial_fence(c4):
    ident = SpaceMap.identity(c4)
    fence = homotopic(ident, ident)
    assert len(fence) == 1


def test_homotopic_c4_identity_not_constant(c4):
    ident = SpaceMap.identity(c4)
    const = SpaceMap.constant(c4, c4, c4.index["p"])
    assert homotopic(ident, const) is None


def test_homotopic_is_equivalence_relation_small():
    for space in (fx.fix_v(), fx.fix_arc3(), fx.fix_c4()):
        maps = enumerate_maps(space, space)
        comp = {}
        for m in maps:
            for other in maps:
                fence = homotopic(m, other)
                if fence is not None:
                    comp.setdefault(m.images, set()).add(other.images)
        for m in maps:
            cls = comp[m.images]
            assert m.images in cls  # reflexive
            for o in cls:  # symmetric + transitive via class equality
                assert comp[o] == cls


def test_homotopic_agrees_with_materialised_components(c4):
    maps = enumerate_maps(c4, c4)
    groups = hom_components(maps)
    component_of = {}
    for k, grp in enumerate(groups):
        for m in grp:
            component_of[m.images] = k
    for m1 in maps[::3]:
        for m2 in maps[::5]:
            same = component_of[m1.images] == component_of[m2.images]
            assert (homotopic(m1, m2) is not None) == same


def test_contractible_examples(c4):
    ok, cert = is_contractible_in(c4.subset(["p", "U", "L"]), c4)
    assert ok
    cert.validate()
    assert len(set(cert.end.images)) == 1
    ok, _ = is_contractible_in(c4.full_mask(), c4)
    assert not ok
    ok, _ = is_contractible_in(c4.subset(["q"]), c4)
    assert ok


def test_contractible_restricts_to_open_subsets(c4, wedge2):
    for space in (c4, wedge2):
        for mask in space.up_sets():
            if not mask:
                continue
            ok, _ = is_contractible_in(mask, space, with_certificate=False)
            if not ok:
                continue
            for sub in space.up_sets():
                if sub and sub & ~mask == 0:
                    ok2, _ = is_contractible_in(sub, space,
                                                with_certificate=False)
                    assert ok2


def test_contractibility_matches_oracle(c4, v_space, arc3, wedge2):
    for space in (v_space, arc3, c4):
        for mask in space.up_sets():
            if not mask:
                continue
            ok, _ = is_contractible_in(mask, space, with_certificate=False)
            assert ok == oracle_contractible(space, mask), (
                space.points, space.labels(mask)
            )
    # the wedge's hom-sets grow quickly; cross-check its small opens
    for mask in wedge2.up_sets():
        if not mask or mask.bit_count() > 4:
            continue
        ok, _ = is_contractible_in(mask, wedge2,
                                   with_certificate=False)
        assert ok == oracle_contractible(wedge2, mask)


# The oracle compares every pair of maps in a hom-set, so spaces with a
# larger hom-set into them (the sparse ones: 7**7 maps on 7 unrelated
# points) are left out.
ORACLE_HOM_SET_CAP = 2000


def _hom_set_exceeds(space, mask, cap):
    """Does the subspace on mask have more than cap maps into the space?"""
    idx = bits(mask)
    images = []
    count = 0

    def extend(k):
        nonlocal count
        if k == len(idx):
            count += 1
            return count > cap
        i = idx[k]
        for v in range(len(space)):
            if all((not space.leq(j, i) or space.leq(w, v))
                   and (not space.leq(i, j) or space.leq(v, w))
                   for j, w in zip(idx, images)):
                images.append(v)
                if extend(k + 1):
                    return True
                images.pop()
        return False

    return extend(0)


@st.composite
def posets_up_to_seven(draw):
    """Random posets on 1..7 points whose label order need not be a
    linear extension of the order, with every hom-set into them small
    enough for the oracle."""
    n = draw(st.integers(min_value=1, max_value=7))
    labels = draw(st.permutations([f"x{i}" for i in range(n)]))
    pairs = [[labels[i], labels[j]] for i in range(n) for j in range(i + 1, n)
             if draw(st.integers(min_value=0, max_value=2))]
    space = validate_space(sorted(labels), pairs)
    assume(not any(_hom_set_exceeds(space, mask, ORACLE_HOM_SET_CAP)
                   for mask in range(1, space.full_mask() + 1)))
    return space


@given(posets_up_to_seven())
@settings(max_examples=30, deadline=None)
def test_contractibility_decision_matches_oracle_on_every_subset(space):
    for mask in range(1, space.full_mask() + 1):
        decided, no_cert = is_contractible_in(mask, space,
                                              with_certificate=False)
        ok, fence = is_contractible_in(mask, space)
        assert no_cert is None
        assert decided == ok == oracle_contractible(space, mask), (
            space.points, space.labels(mask))
        if ok:
            fence.validate()
            assert fence.start.images == tuple(bits(mask))
            assert len(set(fence.end.images)) == 1


def test_core_is_computed_once_per_space(c4, wedge2):
    for space in (c4, wedge2):
        result = core(space)
        assert core(space) is result
        result.fence.validate()
        assert result.retraction.compose(result.inclusion).is_identity()
    # an equal space built separately keeps its own, equal core
    again = core(fx.fix_c4())
    assert again is not core(c4)
    assert again.core == core(c4).core


def test_core_v_is_point(v_space):
    result = core(v_space)
    assert len(result.core) == 1
    result.fence.validate()
    assert result.retraction.compose(result.inclusion).is_identity()


def test_core_c4_is_minimal(c4):
    result = core(c4)
    assert result.core == c4


def test_core_point_and_idempotent(v_space, wedge2):
    single = validate_space(["x"], [])
    assert core(single).core == single
    for space in (v_space, wedge2):
        first = core(space).core
        assert core(first).core == first


def test_homotopy_equivalence_examples(v_space, c4):
    assert is_homotopy_equivalence(fx.v_descent_map(v_space))
    assert not is_homotopy_equivalence(fx.c4_constant_map(c4))
    assert is_homotopy_equivalence(fx.c4_swap_map(c4))


def test_homotopy_equivalence_crosscheck_fence(v_space):
    phi = fx.v_descent_map(v_space)
    fence = homotopic(SpaceMap.identity(v_space), phi)
    assert fence is not None  # core is a point: everything is homotopic


def test_homotopy_inverse_composes_to_identity_up_to_fence(c4):
    phi = fx.c4_swap_map(c4)
    psi = homotopy_inverse(phi)
    assert psi.compose(phi).is_identity()  # automorphism: exact inverse


@st.composite
def random_posets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    labels = [f"x{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append([labels[i], labels[j]])
    return validate_space(labels, pairs)


@given(random_posets())
@settings(max_examples=40, deadline=None)
def test_core_idempotent_random(space):
    first = core(space).core
    assert core(first).core == first


@given(random_posets(), st.integers(min_value=0))
@settings(max_examples=40, deadline=None)
def test_closure_properties_random(space, seed):
    mask = seed % (space.full_mask() + 1)
    closed = space.down_closure(mask)
    assert space.down_closure(closed) == closed
    assert mask & ~closed == 0
    assert space.is_up_set(mask) == (space.up_closure(mask) == mask)

import itertools
from itertools import islice
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import fixtures as fx
from lscat import poset
from lscat.poset import (
    EmptySpace,
    NotAPartialOrder,
    SpaceMap,
    bits,
    core,
    is_contractible_in,
    is_homotopy_equivalence,
    validate_space,
)
from lscat.action import GroupAction
from lscat.dynamics import DynamicalPair, find_identity_fence

from oracles import (
    _comparability_components,
    all_order_preserving_maps,
    hom_components,
    oracle_G_fence,
    oracle_contractible,
    oracle_down,
    oracle_generated_order,
    oracle_order_violation,
    oracle_strict_neighbours,
    oracle_up_sets,
    point_moves,
)


def enumerate_maps(domain, codomain):
    """Every continuous map domain -> codomain, images in lexicographic
    order."""
    return [SpaceMap(domain, codomain, images)
            for images in all_order_preserving_maps(domain, codomain)]


def is_identity(f):
    return f.domain == f.codomain and f.images == tuple(range(len(f.domain)))


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


def test_validate_rejects_duplicate_and_unknown_labels():
    with pytest.raises(ValueError, match="duplicate"):
        validate_space(["a", "a"], [])
    with pytest.raises(ValueError, match="unknown"):
        validate_space(["a", "b"], [["a", "z"]])


def test_negative_masks_are_rejected(c4, conjugation):
    # a negative int has infinitely many set bits: rejected, not walked
    with pytest.raises(ValueError):
        list(islice(poset._bits(-2), 3))
    ident = SpaceMap.identity(c4)
    for call in (lambda: bits(-1), lambda: c4.subspace(-1),
                 lambda: conjugation.saturate(-1),
                 lambda: c4.up_closure(-1), lambda: c4.down_closure(-1),
                 lambda: ident.image_mask(-1)):
        with pytest.raises(ValueError):
            call()


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


def homotopic(g1, g2):
    """The reference BFS's fence from g1 to g2 under the trivial group,
    or None."""
    return oracle_G_fence(g1, GroupAction.trivial(g1.codomain),
                          {g2.images}.__contains__)


def identity_fence(phi):
    """``find_identity_fence`` under the trivial group."""
    space = phi.domain
    return find_identity_fence(DynamicalPair(space, phi, [0] * len(space)),
                               GroupAction.trivial(space))


def test_homotopic_v_identity_to_constant(v_space):
    ident = SpaceMap.identity(v_space)
    const = fx.constant_map(v_space, v_space, v_space.index["a"])
    for fence in (homotopic(ident, const), identity_fence(const)):
        assert fence is not None
        fence.validate()
        assert fence.start == ident and fence.end == const


def test_homotopic_self_is_trivial_fence(c4):
    ident = SpaceMap.identity(c4)
    assert len(homotopic(ident, ident)) == len(identity_fence(ident)) == 1


def test_homotopic_c4_identity_not_constant(c4):
    ident = SpaceMap.identity(c4)
    const = fx.constant_map(c4, c4, c4.index["p"])
    assert homotopic(ident, const) is None
    assert identity_fence(const) is None


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
    """The reference BFS and ``find_identity_fence`` (from the identity)
    decide as the components of the materialised hom-set."""
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
    ident = tuple(range(len(c4)))
    for m in maps:
        same = component_of[m.images] == component_of[ident]
        assert (identity_fence(m) is not None) == same


def test_contractible_examples(c4):
    cert = is_contractible_in(c4.subset(["p", "U", "L"]), c4)
    cert.validate()
    assert len(set(cert.end.images)) == 1
    assert is_contractible_in(c4.full_mask(), c4) is None
    assert is_contractible_in(c4.subset(["q"]), c4) is not None


def test_contractible_restricts_to_open_subsets(c4, wedge2):
    for space in (c4, wedge2):
        for mask in space.up_sets():
            if not mask:
                continue
            if is_contractible_in(mask, space) is None:
                continue
            for sub in space.up_sets():
                if sub and sub & ~mask == 0:
                    assert is_contractible_in(sub, space) is not None


def test_contractibility_matches_oracle(c4, v_space, arc3, wedge2):
    for space in (v_space, arc3, c4):
        for mask in space.up_sets():
            if not mask:
                continue
            ok = is_contractible_in(mask, space) is not None
            assert ok == oracle_contractible(space, mask), (
                space.points, space.labels(mask)
            )
    # the wedge's hom-sets grow quickly; cross-check its small opens
    for mask in wedge2.up_sets():
        if not mask or mask.bit_count() > 4:
            continue
        ok = is_contractible_in(mask, wedge2) is not None
        assert ok == oracle_contractible(wedge2, mask)
    # every subset of fresh spaces: a set that collapses to one point is
    # contractible, decided with nothing built (no search, no collapse of
    # the space, no fence map), and no question calls core()
    for space in (fx.fix_v(), fx.fix_arc3(), fx.fix_c4()):
        for mask in range(1, space.full_mask() + 1):
            if poset._collapse(space, mask)[0].bit_count() > 1:
                continue
            with mock.patch.object(poset, "fence_search") as search:
                fence = is_contractible_in(mask, space)
            assert fence is not None and search.call_count == 0
            assert callable(fence._maps)  # not lifted yet
            assert oracle_contractible(space, mask)
        assert space._reaches == {}
        for mask in range(1, space.full_mask() + 1):
            ok = is_contractible_in(mask, space) is not None
            assert ok == oracle_contractible(space, mask)
        assert space._core is None


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
def small_posets(draw, max_points):
    """Random posets on 1..max_points points whose label order need not
    be a linear extension of the order, with every hom-set into them
    small enough for the oracle."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    labels = draw(st.permutations([f"x{i}" for i in range(n)]))
    pairs = [[labels[i], labels[j]] for i in range(n) for j in range(i + 1, n)
             if draw(st.integers(min_value=0, max_value=2))]
    space = validate_space(sorted(labels), pairs)
    assume(not any(_hom_set_exceeds(space, mask, ORACLE_HOM_SET_CAP)
                   for mask in range(1, space.full_mask() + 1)))
    return space


# The oracle's work on a poset is the sum over its subsets of the squared
# hom-set sizes: at most about 3e6 pairs (0.2 s) on 6 points, and 1.5e7
# to 1.8e7 (0.7 to 0.9 s) on each 7-point poset under the cap, all of
# them chains or near-chains.  So the random draws stop at 6 points and
# one 7-point near-chain, labelled against its order, runs every time.
NEAR_CHAIN_7 = validate_space(
    [f"x{i}" for i in range(7)],
    [["x6", "x5"], ["x5", "x4"], ["x4", "x3"], ["x3", "x2"], ["x2", "x1"],
     ["x5", "x0"], ["x0", "x3"]])


@given(small_posets(max_points=6))
@example(NEAR_CHAIN_7)
@settings(max_examples=30, deadline=None)
def test_contractibility_decision_matches_oracle_on_every_subset(space):
    for mask in range(1, space.full_mask() + 1):
        fence = is_contractible_in(mask, space)
        assert (fence is not None) == oracle_contractible(space, mask), (
            space.points, space.labels(mask))
        if fence is not None:
            assert callable(fence._maps)  # deciding built no fence map
            fence.validate()
            assert fence.start.images == tuple(bits(mask))
            assert len(set(fence.end.images)) == 1
    assert space._core is None


@st.composite
def split_posets(draw):
    """Two random posets side by side on 2..6 points (the oracle's cost
    bound of ``small_posets``), so at least two components, with labels
    in no linear-extension order and every hom-set into them small
    enough for the oracle."""
    first = draw(st.integers(min_value=1, max_value=4))
    sizes = (first, draw(st.integers(min_value=1,
                                     max_value=min(3, 6 - first))))
    labels = draw(st.permutations([f"x{i}" for i in range(sum(sizes))]))
    blocks = (labels[:sizes[0]], labels[sizes[0]:])
    pairs = [[b[i], b[j]] for b in blocks for i in range(len(b))
             for j in range(i + 1, len(b))
             if draw(st.integers(min_value=0, max_value=2))]
    space = validate_space(sorted(labels), pairs)
    assume(not any(_hom_set_exceeds(space, mask, ORACLE_HOM_SET_CAP)
                   for mask in range(1, space.full_mask() + 1)))
    return space


# a 4-point circle beside a 3-point chain, labelled against the order
CIRCLE_AND_CHAIN_7 = validate_space(
    [f"x{i}" for i in range(7)],
    [["x6", "x2"], ["x6", "x4"], ["x0", "x2"], ["x0", "x4"], ["x5", "x1"],
     ["x1", "x3"]])


@given(split_posets())
@example(CIRCLE_AND_CHAIN_7)
@settings(max_examples=20, deadline=None)
def test_a_set_across_components_is_refuted_without_a_search(space):
    assert space.components == tuple(
        sum(1 << i for i in comp)
        for comp in _comparability_components(space))
    assert len(space.components) >= 2
    for mask in range(1, space.full_mask() + 1):
        with mock.patch.object(poset, "fence_search",
                               wraps=poset.fence_search) as search:
            decided = is_contractible_in(mask, space) is not None
        assert decided == oracle_contractible(space, mask), (
            space.points, space.labels(mask))
        if any(mask & c and mask & ~c for c in space.components):
            assert not decided and search.call_count == 0


def test_empty_set_is_rejected_before_the_component_rule():
    space = validate_space(["a", "b"], [])
    with pytest.raises(ValueError, match="empty subset"):
        is_contractible_in(0, space)
    assert is_contractible_in(0b11, space) is None


def test_core_is_computed_once_per_space(c4, wedge2):
    for space in (c4, wedge2):
        result = core(space)
        assert core(space) is result
        result.fence.validate()
        assert is_identity(result.retraction.compose(result.inclusion))
    # an equal space built separately keeps its own, equal core
    again = core(fx.fix_c4())
    assert again is not core(c4)
    assert again.core == core(c4).core


def test_core_v_is_point(v_space):
    result = core(v_space)
    assert len(result.core) == 1
    result.fence.validate()
    assert is_identity(result.retraction.compose(result.inclusion))


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
    fence = identity_fence(phi)
    assert fence is not None  # core is a point: everything is homotopic
    assert fence.validate() and fence.end == phi


def test_homotopy_inverse_composes_to_identity_up_to_fence(c4):
    phi = fx.c4_swap_map(c4)
    psi = fx.homotopy_inverse(phi)
    assert is_identity(psi.compose(phi))  # automorphism: exact inverse


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


def _is_automorphism(space, images):
    """Whether the self-map with these images is bijective with an
    inverse, built by ``fixtures.inverse_images``, that preserves order."""
    if len(set(images)) != len(space):
        return False
    inv = fx.inverse_images(images)
    return all(space.leq(inv[i], inv[j])
               for i in range(len(space)) for j in bits(space.up[i]))


@given(random_posets())
@settings(max_examples=40, deadline=None)
def test_bijective_continuous_self_maps_are_automorphisms(space):
    """A continuous self-map is bijective exactly when its inverse
    preserves order, so ``is_homotopy_equivalence``, which asks only
    whether the core map is bijective, answers as the automorphism test
    on the core map does."""
    c = core(space)
    for images in all_order_preserving_maps(space, space):
        assert (len(set(images)) == len(space)) == \
            _is_automorphism(space, images)
        phi = SpaceMap(space, space, images)
        induced = c.retraction.compose(phi).compose(c.inclusion)
        assert is_homotopy_equivalence(phi) == \
            _is_automorphism(c.core, induced.images)


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



@st.composite
def unsorted_posets(draw):
    """Random posets on 1..7 points, labels in no linear-extension order."""
    n = draw(st.integers(min_value=1, max_value=7))
    labels = draw(st.permutations([f"x{i}" for i in range(n)]))
    pairs = [[labels[i], labels[j]] for i in range(n) for j in range(i + 1, n)
             if draw(st.booleans())]
    return validate_space(sorted(labels), pairs)


@given(unsorted_posets())
@settings(max_examples=40, deadline=None)
def test_subspace_matches_the_space_validated_from_its_pairs(space):
    for mask in range(1, space.full_mask() + 1):
        sub, idx = space.subspace(mask)
        rebuilt = validate_space(space.labels(mask), [
            (space.points[i], space.points[j])
            for i in idx for j in idx if space.leq(i, j)
        ])
        assert idx == tuple(bits(mask))
        assert (sub.points, sub.up, sub.down, sub._strict_up) == (
            rebuilt.points, rebuilt.up, rebuilt.down, rebuilt._strict_up)


@st.composite
def scrambled_posets(draw, max_points):
    """Random posets on 1..max_points points, labels in no
    linear-extension order, each pair related with probability 1/3."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    labels = draw(st.permutations([f"x{i}" for i in range(n)]))
    pairs = [[labels[i], labels[j]] for i in range(n) for j in range(i + 1, n)
             if draw(st.integers(min_value=0, max_value=2)) == 0]
    return validate_space(sorted(labels), pairs)


# ten points, every relation running from a higher label to a lower one
SCRAMBLED_10 = validate_space(
    [f"x{i}" for i in range(10)],
    [["x9", "x6"], ["x6", "x3"], ["x3", "x0"], ["x8", "x5"], ["x5", "x2"],
     ["x9", "x5"], ["x7", "x4"], ["x4", "x1"], ["x8", "x4"], ["x6", "x1"]])


@given(scrambled_posets(max_points=10))
@example(SCRAMBLED_10)
@settings(max_examples=25, deadline=None)
def test_up_sets_match_the_pairwise_filter(space):
    """The grown lattice lists the 2^n masks that the pairwise definition
    and ``is_up_set`` keep, ascending, and the down-sets are their
    complements."""
    opens = oracle_up_sets(space)
    assert space.up_sets() == tuple(opens)
    assert [m for m in range(1 << len(space)) if space.is_up_set(m)] == opens
    full = space.full_mask()
    assert space.down_sets() == tuple(sorted(full ^ m for m in opens))


def test_up_sets_past_the_cap_raise_naming_it(monkeypatch):
    chain = validate_space([f"x{i:02}" for i in range(17)],
                           [[f"x{i:02}", f"x{i + 1:02}"] for i in range(16)])
    with pytest.raises(poset.SizeCapExceeded,
                       match="lscat.poset.SUBSET_SPACE_CAP = 16"):
        chain.up_sets()
    # the cap is read at call time; the chain's opens are its 18 tails
    monkeypatch.setattr(poset, "SUBSET_SPACE_CAP", 17)
    full = chain.full_mask()
    assert chain.up_sets() == tuple(sorted(full >> k << k
                                           for k in range(18)))


@given(scrambled_posets(max_points=8))
@settings(max_examples=30, deadline=None)
def test_down_and_neighbours_match_the_pairwise_definition(space):
    assert space.down == oracle_down(space)
    assert (space._strict_up, space._strict_down) == \
        oracle_strict_neighbours(space)


@given(st.integers(min_value=1, max_value=5),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                max_size=8))
@example(3, [(0, 1), (1, 2), (2, 0)])  # x0 meets two points of its cycle
@settings(max_examples=60, deadline=None)
def test_validate_space_matches_the_fixpoint_closure(n, pairs):
    """Any relation, cycles included: the generated order, or the
    antisymmetry witness, is the fixpoint loop's."""
    points = [f"x{i}" for i in range(n)]
    pairs = [(points[a % n], points[b % n]) for a, b in pairs]
    up, witness = oracle_generated_order(points, pairs)
    if witness is None:
        assert list(validate_space(points, pairs).up) == up
    else:
        with pytest.raises(NotAPartialOrder) as err:
            validate_space(points, pairs)
        assert err.value.witness == witness


@given(scrambled_posets(max_points=4), scrambled_posets(max_points=4))
@settings(max_examples=40, deadline=None)
def test_space_map_accepts_exactly_the_order_preserving_tuples(domain,
                                                               codomain):
    """Every image tuple: accepted when the pairwise loop finds no
    violation, else rejected with the loop's message for its first
    pair."""
    for images in itertools.product(range(len(codomain)),
                                    repeat=len(domain)):
        message = oracle_order_violation(domain, codomain, images)
        if message is None:
            assert SpaceMap(domain, codomain, images).images == images
        else:
            with pytest.raises(ValueError) as err:
                SpaceMap(domain, codomain, images)
            assert str(err.value) == message


def test_space_equality_reads_points_and_order(c4, v_space):
    rebuilt = validate_space(c4.points, c4.relation_pairs())
    assert rebuilt is not c4 and rebuilt == c4 and c4 == c4
    assert c4 != v_space and c4 != None  # noqa: E711
    assert c4 != validate_space(c4.points, [])


def test_space_map_rejects_an_image_past_the_codomain(v_space):
    with pytest.raises(ValueError, match="out of codomain range"):
        SpaceMap(v_space, v_space, (0, 1, len(v_space)))


def test_image_mask_reads_only_the_given_points(v_space):
    ident = SpaceMap.identity(v_space)
    for mask in range(1 << len(v_space)):
        assert ident.image_mask(mask) == mask
    assert ident.image_mask() == v_space.full_mask()


def test_fence_cap_bounds_the_maps_explored(v_space, monkeypatch):
    # V is contractible, so its self-maps form one component, and a
    # search that never hits its target explores each of them once
    explored = len(enumerate_maps(v_space, v_space))
    ident, moves = SpaceMap.identity(v_space), point_moves(v_space)
    monkeypatch.setattr(poset, "FENCE_NODE_CAP", explored)
    assert poset.fence_search(ident, lambda images: False,
                              moves=moves) is None
    monkeypatch.setattr(poset, "FENCE_NODE_CAP", explored - 1)
    with pytest.raises(poset.SizeCapExceeded,
                       match=f"FENCE_NODE_CAP = {explored - 1}"):
        poset.fence_search(ident, lambda images: False, moves=moves)

import pytest
from hypothesis import given, settings, strategies as st

import fixtures as fx
from lscat import action as action_module
from lscat.action import (
    GroupAction,
    HomogeneousClass,
    NotAnAutomorphism,
    is_G_deformable,
    is_G_map,
    orbit_equivalent,
    validate_action,
)
from lscat.category import _factor_targets
from lscat.dynamics import DynamicalPair, find_identity_fence
from lscat.poset import (
    SpaceMap,
    _neighbors,
    _orbit_moves,
    validate_space,
)

from oracles import (
    oracle_G_fence,
    oracle_factor_targets,
    oracle_orbit_context,
    oracle_orbit_masks,
    oracle_orbit_neighbors,
    oracle_saturate,
)


def test_trivial_action_valid(v_space):
    act = GroupAction.trivial(v_space)
    assert len(act) == 1
    assert act.orbits() == (0b001, 0b010, 0b100)


def test_conjugation_action(conjugation, c4):
    assert len(conjugation) == 2
    orbit_labels = [c4.labels(orb) for orb in conjugation.orbits()]
    assert ("U", "L") in orbit_labels


def test_non_automorphism_rejected(c4):
    with pytest.raises(NotAnAutomorphism):
        validate_action(c4, [{"p": "U", "U": "p", "q": "q", "L": "L"}])


def test_saturate_examples(conjugation, c4):
    saturated = conjugation.saturate(c4.subset(["U"]))
    assert sorted(c4.labels(saturated)) == ["L", "U"]
    assert conjugation.saturate(c4.subset([])) == 0
    trivial = GroupAction.trivial(c4)
    mask = c4.subset(["U"])
    assert trivial.saturate(mask) == mask


def test_saturate_trivial_group_returns_its_input(conjugation, c4):
    trivial = GroupAction.trivial(c4)
    for mask in range(c4.full_mask() + 1):
        assert trivial.saturate(mask) == mask
        assert trivial.is_invariant(mask)
    sub = c4.subset(["p", "U"])
    assert trivial.saturate(sub) == sub
    assert trivial.is_invariant(sub)
    # a nontrivial action still adds the missing orbit points
    assert conjugation.saturate(sub) == c4.subset(["p", "U", "L"])
    assert not conjugation.is_invariant(sub)


def test_saturate_idempotent_monotone_unions(conjugation, c4):
    full = c4.full_mask()
    for a in range(full + 1):
        sa = conjugation.saturate(a)
        assert conjugation.saturate(sa) == sa
        for b in range(0, full + 1, 3):
            assert conjugation.saturate(a | b) == sa | conjugation.saturate(b)
            if a & ~b == 0:
                assert sa & ~conjugation.saturate(b) == 0


def test_is_G_map_examples(conjugation, c4):
    assert is_G_map(SpaceMap.identity(c4), conjugation)
    assert is_G_map(fx.constant_map(c4, c4, c4.index["p"]), conjugation)
    assert not is_G_map(fx.constant_map(c4, c4, c4.index["U"]), conjugation)


def G_homotopic(g1, g2, action):
    """Fence through equivariant maps only, or None: the reference BFS.
    The maps' domain is the space or an invariant subspace of it."""
    if g1.domain != g2.domain or g1.codomain != g2.codomain:
        raise ValueError("maps must share domain and codomain")
    if not (is_G_map(g1, action) and is_G_map(g2, action)):
        raise ValueError("maps must be equivariant")
    return oracle_G_fence(g1, action, {g2.images}.__contains__)


def test_G_homotopic_trivial_degenerates(v_space):
    act = GroupAction.trivial(v_space)
    ident = SpaceMap.identity(v_space)
    const = fx.constant_map(v_space, v_space, v_space.index["a"])
    plain = find_identity_fence(DynamicalPair(v_space, const, (0, 0, 0)), act)
    equiv = G_homotopic(ident, const, act)
    assert (plain is None) == (equiv is None)
    assert equiv is not None and equiv.end == const == plain.end


def test_G_homotopic_identity_vs_fixed_constant(conjugation, c4):
    ident = SpaceMap.identity(c4)
    const = fx.constant_map(c4, c4, c4.index["p"])
    assert G_homotopic(ident, const, conjugation) is None
    assert len(G_homotopic(ident, ident, conjugation)) == 1


def test_G_homotopic_rejects_nonequivariant(conjugation, c4):
    bad = fx.constant_map(c4, c4, c4.index["U"])
    with pytest.raises(ValueError):
        G_homotopic(bad, bad, conjugation)


def test_G_deformable_mod_blocks_pinned_circle(conjugation, c4):
    pq = c4.subset(["p", "q"])
    full = c4.full_mask()
    assert is_G_deformable(conjugation, full, pq, mod=True) is None
    triv = GroupAction.trivial(c4)
    up_p = c4.subset(["p", "U", "L"])
    fence = is_G_deformable(triv, up_p, pq, mod=True)
    assert fence is not None
    fence.validate()


def test_orbit_equivalent_examples(v_space, conjugation, c4):
    triv = GroupAction.trivial(v_space)
    a, b = v_space.index["a"], v_space.index["b"]
    assert orbit_equivalent(triv, a, a, (0.0, 0.0, 0.0))
    assert orbit_equivalent(triv, a, b, (0.0, 0.0, 0.0))
    assert not orbit_equivalent(triv, a, b, (0.0, 1.0, 2.0))
    p, q = c4.index["p"], c4.index["q"]
    assert not orbit_equivalent(conjugation, p, q, (0.0, 1.0, 2.0, 2.0))


def test_orbit_equivalent_is_equivalence_on_small_fixture(arc3):
    act = GroupAction.trivial(arc3)
    f = (0.0, 0.0, 0.0)
    points = range(len(arc3))
    rel = {
        (i, j): orbit_equivalent(act, i, j, f)
        for i in points
        for j in points
    }
    for i in points:
        assert rel[i, i]
        for j in points:
            assert rel[i, j] == rel[j, i]
            for k in points:
                if rel[i, j] and rel[j, k]:
                    assert rel[i, k]


def test_trivial_group_matches_poset_ops(c4):
    act = GroupAction.trivial(c4)
    for mask in range(c4.full_mask() + 1):
        assert act.saturate(mask) == mask
        assert act.is_invariant(mask)
    maps = [
        SpaceMap.identity(c4),
        fx.constant_map(c4, c4, 0),
    ]
    for m in maps:
        assert is_G_map(m, act)


def test_orbit_space_of_conjugation(conjugation):
    quotient, proj = conjugation.orbit_space()
    assert len(quotient) == 3
    # projection is order preserving by construction
    assert proj.codomain == quotient


def test_orbit_type(conjugation, c4):
    orbit = conjugation.orbit_mask(c4.index["U"])
    assert sorted(c4.labels(orbit)) == ["L", "U"]
    assert conjugation.stabilizer(c4.index["U"]) == frozenset([0])


@pytest.mark.parametrize("generators, count", [
    ([(1, 0, 2), (1, 2, 0)], 6),                    # S3
    ([(1, 0, 2, 3), (1, 2, 3, 0)], 30),             # S4
    ([(1, 2, 3, 0), (0, 3, 2, 1)], 10),             # D4
    ([(1, 0, 2, 3, 4, 5), (1, 2, 3, 0, 4, 5),
      (0, 1, 2, 3, 5, 4)], 98),                     # S4 x Z2
])
def test_group_table_matches_permutations(generators, count):
    n = len(generators[0])
    action = GroupAction(validate_space([f"d{i}" for i in range(n)], []),
                         generators)
    elements = action.elements
    assert elements[0] == tuple(range(n))
    for a, ga in enumerate(elements):
        inverse = elements[action.inverse(a)]
        assert all(inverse[ga[i]] == i for i in range(n))
        for b, gb in enumerate(elements):
            assert elements[action.compose(a, b)] == tuple(ga[v] for v in gb)
    assert len(action.subgroups()) == count


def test_subgroups_and_classes(conjugation):
    subs = conjugation.subgroups()
    assert len(subs) == 2
    kall = HomogeneousClass.all_types(conjugation)
    kpoint = HomogeneousClass.point_only(conjugation)
    kfree = HomogeneousClass.free_only(conjugation)
    stab_p = conjugation.stabilizer(0)
    assert kall.admits_stabilizer(stab_p)
    assert kpoint.admits_stabilizer(stab_p)
    assert not kfree.admits_stabilizer(stab_p)


def test_class_key_is_sorted_subgroups(conjugation, trivial_c4):
    classes = [
        HomogeneousClass.all_types(conjugation),
        HomogeneousClass.point_only(conjugation),
        HomogeneousClass.free_only(conjugation),
        HomogeneousClass(conjugation, [frozenset([1, 0]), frozenset([0])]),
    ]
    for klass in classes:
        assert klass.key() == tuple(
            tuple(sorted(h)) for h in klass.subgroup_list)
    assert classes[3].key() == ((0, 1), (0,))
    # for a trivial action the point, free and all classes list the same
    # subgroups, so they share one catalogue
    trivial = {make(trivial_c4).key() for make in (
        HomogeneousClass.point_only, HomogeneousClass.free_only,
        HomogeneousClass.all_types)}
    assert trivial == {((0,),)}


def test_G_deformable_rejects_a_non_invariant_domain():
    space = validate_space(["a", "b", "c"], [("a", "c"), ("b", "c")])
    swap = validate_action(space, [{"a": "b", "b": "a", "c": "c"}])
    with pytest.raises(ValueError, match=r"\['a'\] is not invariant"):
        is_G_deformable(swap, 0b001, 0b100)


def test_G_deformable_checks_the_domain_before_the_component_rule():
    # on the discrete space the component {a} misses Y, so the rule
    # alone would answer None
    space = validate_space(["a", "b", "c"], [])
    swap = validate_action(space, [{"a": "b", "b": "a", "c": "c"}])
    for Y in (0b100, 0):
        with pytest.raises(ValueError, match=r"\['a'\] is not invariant"):
            is_G_deformable(swap, 0b001, Y)
    assert is_G_deformable(swap, 0b011, 0b100) is None


# copy c goes to each generator's image of c; Z2xZ2 reads c as two bits
_COPY_GROUPS = {
    "Z2": (2, [lambda c: (c + 1) % 2]),
    "Z3": (3, [lambda c: (c + 1) % 3]),
    "Z4": (4, [lambda c: (c + 1) % 4]),
    "Z2xZ2": (4, [lambda c: c ^ 1, lambda c: c ^ 2]),
}


@st.composite
def copied_spaces(draw):
    """An action permuting k copies of a random poset, with optional
    group-fixed points below and above every copy and, for even k, a
    pair of points s0, s1 swapped by the group (stabiliser of index 2),
    s_i above the copies c with c % 2 == i; and an invariant open W."""
    k, moves = _COPY_GROUPS[draw(st.sampled_from(sorted(_COPY_GROUPS)))]
    m = draw(st.integers(1, 3))
    less = [(x, y) for x in range(m) for y in range(x + 1, m)
            if draw(st.booleans())]
    copies = [f"{c}.{x}" for c in range(k) for x in range(m)]
    pairs = [(f"{c}.{x}", f"{c}.{y}") for c in range(k) for x, y in less]
    labels = list(copies)
    fixed = {}
    if k % 2 == 0 and draw(st.booleans()):
        labels += ["s0", "s1"]
        pairs += [(f"{c}.{x}", f"s{c % 2}")
                  for c in range(k) for x in range(m)]
    if draw(st.booleans()):
        pairs += [("bot", p) for p in labels]
        labels.append("bot")
        fixed["bot"] = "bot"
    if draw(st.booleans()):
        pairs += [(p, "top") for p in labels]
        labels.append("top")
        fixed["top"] = "top"
    space = validate_space(labels, pairs)
    gens = []
    for move in moves:
        gen = {f"{c}.{x}": f"{move(c)}.{x}"
               for c in range(k) for x in range(m)}
        if "s0" in labels:
            gen["s0"], gen["s1"] = (f"s{move(0) % 2}", f"s{move(1) % 2}")
        gens.append({**gen, **fixed})
    action = validate_action(space, gens)
    orbits = action.orbits()
    chosen = draw(st.sets(st.sampled_from(orbits), min_size=1))
    W = space.up_closure(sum(chosen))
    return action, W


@given(copied_spaces(), st.data())
@settings(max_examples=40, deadline=None)
def test_orbit_masks_and_saturation_match_the_element_loop(acted, data):
    """The orbit masks kept on the action, the orbits by least point and
    the saturation of drawn masks are those of a loop over the group
    elements."""
    action, _ = acted
    space = action.space
    masks = oracle_orbit_masks(action)
    assert tuple(map(action.orbit_mask, range(len(space)))) == masks
    assert action.orbits() == tuple(dict.fromkeys(masks))
    for A in data.draw(st.lists(st.integers(0, space.full_mask()),
                                max_size=12)) + [0, space.full_mask()]:
        GA = oracle_saturate(action, A)
        assert action.saturate(A) == GA
        assert action.is_invariant(A) == (GA == A)


@given(copied_spaces())
@settings(max_examples=120, deadline=None)
def test_orbit_moves_match_the_pairwise_oracle(acted):
    """Every map the BFS reaches from the inclusion of W (up to a cap)
    has the same neighbour sequence under the stabiliser-fixed moves
    as under the oracle that writes all translates and re-checks
    clashes, comparability and continuity pair by pair."""
    action, W = acted
    space = action.space
    incl, parents = action_module.inclusion_map(space, W)
    moves = _orbit_moves(space, action.elements, parents, space.full_mask())
    orbits, ctx = oracle_orbit_context(action, parents)
    assert [move[0] for move in moves] == [orb[0] for orb in orbits]
    queue, seen = [incl.images], {incl.images}
    for images in queue:
        got = list(_neighbors(incl.domain, space, images, moves))
        assert got == list(oracle_orbit_neighbors(
            incl.domain, space, images, orbits, ctx))
        for nxt in got:
            if nxt not in seen and len(seen) < 150:
                seen.add(nxt)
                queue.append(nxt)


@given(copied_spaces(), st.data())
@settings(max_examples=100, deadline=None)
def test_factor_targets_match_the_oracle(acted, data):
    """The directly assigned factoring targets equal the oracle's, which
    writes every translate and checks it against earlier writes, on open
    and closed invariant sets for the all, point, free and an explicit
    class."""
    action, W = acted
    space = action.space
    explicit = data.draw(st.lists(st.sampled_from(action.subgroups()),
                                  min_size=1, max_size=3))
    classes = [HomogeneousClass.all_types(action),
               HomogeneousClass.point_only(action),
               HomogeneousClass.free_only(action),
               HomogeneousClass(action, explicit)]
    for mask in (W, space.down_closure(W), space.full_mask() & ~W):
        for klass in classes:
            if mask:
                assert _factor_targets(mask, action, klass) == set(
                    oracle_factor_targets(mask, action, klass))

import pytest

from lscat.action import (
    GroupAction,
    HomogeneousClass,
    NotAnAutomorphism,
    G_homotopic,
    is_G_deformable,
    is_G_map,
    orbit_equivalent,
    validate_action,
)
from lscat.poset import SpaceMap, homotopic


def test_trivial_action_valid(v_space):
    act = GroupAction.trivial(v_space)
    assert len(act) == 1
    assert act.orbits() == ((0,), (1,), (2,))


def test_conjugation_action(conjugation, c4):
    assert len(conjugation) == 2
    orbit_labels = [
        tuple(c4.points[i] for i in orb) for orb in conjugation.orbits()
    ]
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
    assert is_G_map(SpaceMap.constant(c4, c4, c4.index["p"]), conjugation)
    assert not is_G_map(SpaceMap.constant(c4, c4, c4.index["U"]), conjugation)


def test_G_homotopic_trivial_degenerates(v_space):
    act = GroupAction.trivial(v_space)
    ident = SpaceMap.identity(v_space)
    const = SpaceMap.constant(v_space, v_space, v_space.index["a"])
    plain = homotopic(ident, const)
    equiv = G_homotopic(ident, const, act)
    assert (plain is None) == (equiv is None)
    assert equiv is not None and equiv.end == const


def test_G_homotopic_identity_vs_fixed_constant(conjugation, c4):
    ident = SpaceMap.identity(c4)
    const = SpaceMap.constant(c4, c4, c4.index["p"])
    assert G_homotopic(ident, const, conjugation) is None
    assert len(G_homotopic(ident, ident, conjugation)) == 1


def test_G_homotopic_rejects_nonequivariant(conjugation, c4):
    bad = SpaceMap.constant(c4, c4, c4.index["U"])
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
        SpaceMap.constant(c4, c4, 0),
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
    assert conjugation.stabilizer(c4.index["U"]) == frozenset(
        [conjugation.identity_index()]
    )


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

import time
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fixtures as fx
from fixtures import face_poset
from lscat import simplicial
from lscat.simplicial import (
    CohomologyRing,
    NotConnected,
    SimplicialComplex,
    _acyclic,
    coboundaries,
    collapse_sequence,
    cup,
    cuplength,
    cuplength_lower_bound,
    Cochain,
    order_complex,
    star_cover_upper_bound,
)
from oracles import (
    OracleCohomologyRing,
    bitset_rows,
    oracle_coboundary_matrix,
    oracle_cup,
    oracle_cuplength,
    oracle_is_connected,
)


def betti(ring, d):
    """The mod-2 Betti number of degree d: the number of class reps."""
    return len(ring.reps.get(d, ()))


def is_collapsible(K):
    return collapse_sequence(K) is not None


def euler_characteristic(K):
    return sum((-1) ** d * n for d, n in enumerate(K.f_vector()))


def triangle_boundary():
    return SimplicialComplex.from_maximal([("a", "b"), ("b", "c"), ("a", "c")])


def cycle4():
    return SimplicialComplex.from_maximal(
        [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")]
    )


def torus():
    return SimplicialComplex.from_maximal(fx.torus7_triangles())


def test_order_complex_v_is_path(v_space):
    K = order_complex(v_space)
    assert K.f_vector() == (3, 2)  # path with two edges


def test_order_complex_c4_is_four_cycle(c4):
    K = order_complex(c4)
    assert K.f_vector() == (4, 4)
    assert euler_characteristic(K) == 0
    assert oracle_is_connected(K)


def test_order_complex_antichain():
    space = fx.discrete(4)
    K = order_complex(space)
    assert K.f_vector() == (4,)


def test_face_poset_edge_is_fan():
    K = SimplicialComplex.from_maximal([("x", "y")])
    fp = face_poset(K)
    assert len(fp) == 3
    maxima = [p for i, p in enumerate(fp.points)
              if fp.up[i] == 1 << i]
    assert maxima == ["x|y"]


def test_face_poset_labels_escape_the_separator():
    K = SimplicialComplex.from_maximal([("a", "b"), ("a|b",)])
    fp = face_poset(K)
    assert len(fp) == 4
    assert sorted(fp.points) == ["a", "a\\|b", "a|b", "b"]
    # escaping only | would label both the edge {a\, b} and the vertex a|b
    # as a\|b
    K = SimplicialComplex.from_maximal([("a\\", "b"), ("a|b",)])
    assert len(face_poset(K)) == 4


def test_face_poset_triangle_boundary_is_hexagon():
    fp = face_poset(triangle_boundary())
    assert len(fp) == 6
    K = order_complex(fp)
    assert euler_characteristic(K) == 0  # circle model


def test_face_poset_vertex_is_point():
    fp = face_poset(SimplicialComplex.from_maximal([("v",)]))
    assert len(fp) == 1


def test_torus_betti_numbers():
    ring = CohomologyRing(torus())
    assert [betti(ring, d) for d in range(3)] == [1, 2, 1]


def test_coboundary_squares_to_zero():
    for K in (triangle_boundary(), torus()):
        for d in range(K.dim() + 1):
            rows = coboundaries(K, d)
            n_up = len(K.simplices_of_dim(d + 1))
            assert np.array_equal(bitset_rows(rows, n_up),
                                  oracle_coboundary_matrix(K, d).T)
            if d < K.dim():
                up = coboundaries(K, d + 1)
                for row in rows:
                    dd = 0
                    for r in range(n_up):
                        if row >> r & 1:
                            dd ^= up[r]
                    assert dd == 0


def test_cup_product_graded_commutative_on_torus():
    K = torus()
    ring = CohomologyRing(K)
    reps = [Cochain(K, 1, z) for z in ring.reps[1]]
    for a in reps:
        for b in reps:
            ab = ring.reduce(cup(K, a, b))
            ba = ring.reduce(cup(K, b, a))
            assert ab == ba  # mod 2 at the cohomology level


def test_cuplength_values():
    assert cuplength(order_complex(fx.fix_c4())) == 1
    assert cuplength(order_complex(fx.fix_v())) == 0
    assert cuplength(torus()) == 2


def test_cuplength_matches_independent_circle_argument(c4):
    K = order_complex(c4)
    assert cuplength(K) == oracle_cuplength(K) == 1


def test_rp2_has_a_nonzero_self_square():
    K = SimplicialComplex.from_maximal(fx.rp2_6_triangles())
    ring = CohomologyRing(K)
    assert [betti(ring, d) for d in range(3)] == [1, 1, 1]
    (a,) = (Cochain(K, 1, z) for z in ring.reps[1])
    assert ring.reduce(cup(K, a, a)) == 1
    assert cuplength(K) == oracle_cuplength(K) == 2


def test_sphere_models_cuplength_lower_bound():
    assert cuplength_lower_bound(fx.octahedron_model()) == 2
    t0 = time.monotonic()
    assert cuplength_lower_bound(fx.s3_model()) == 2
    assert time.monotonic() - t0 < 2.0


def bits(bitset, n):
    return bitset_rows([bitset], n).tobytes()


def assert_matches_oracle(K):
    """Reps byte for byte, Betti numbers, and the coordinates of every
    product of two reps, against the numpy reference ring."""
    ring, ref = CohomologyRing(K), OracleCohomologyRing(K)
    for d in range(K.dim() + 1):
        n_d = len(K.simplices_of_dim(d))
        got = bitset_rows(ring.reps[d], n_d)
        want = ref.bases[d]["reps"]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert betti(ring, d) == ref.betti(d)
    for p in range(1, K.dim()):
        for q in range(1, K.dim() + 1 - p):
            for a, za in zip(ring.reps[p], ref.bases[p]["reps"]):
                for b, zb in zip(ring.reps[q], ref.bases[q]["reps"]):
                    prod = cup(K, Cochain(K, p, a), Cochain(K, q, b))
                    want = oracle_cup(K, p, za, q, zb)
                    assert bits(prod.coeffs, want.size) == want.tobytes()
                    assert bits(ring.reduce(prod), betti(ring, p + q)) \
                        == ref.reduce(p + q, want).tobytes()
    return ring, ref


SHIPPED = {
    "fan-path": lambda: order_complex(fx.fix_v()),
    "circle": lambda: order_complex(fx.fix_c4()),
    "arc": lambda: order_complex(fx.fix_arc3()),
    "two-circles": lambda: order_complex(fx.fix_2circ()),
    "coned-circle": lambda: order_complex(fx.cone_circle()),
    "wedge": lambda: order_complex(fx.fix_wedge()),
    "triangle-boundary": triangle_boundary,
    "square-cycle": cycle4,
    "filled-triangle": lambda: SimplicialComplex.from_maximal(
        [("a", "b", "c")]),
    "torus": torus,
    "rp2": lambda: SimplicialComplex.from_maximal(fx.rp2_6_triangles()),
    "octahedron-model": lambda: order_complex(fx.octahedron_model()),
    "barycentric-torus": lambda: order_complex(face_poset(torus())),
}


@pytest.mark.parametrize("name", SHIPPED)
def test_cohomology_matches_numpy_oracle_on_shipped_complexes(name):
    K = SHIPPED[name]()
    _, ref = assert_matches_oracle(K)
    assert cuplength(K) == oracle_cuplength(K, ref)


SEEDS = [[], fx.torus7_triangles(), fx.rp2_6_triangles(),
         fx.cross_polytope_facets(3), fx.cross_polytope_facets(4)]


@st.composite
def random_complexes(draw):
    """Up to 8 vertices and faces of up to 4: random faces, plus one of the
    closed surfaces and spheres above less up to two facets, relabelled."""
    seed = draw(st.sampled_from(SEEDS))
    dropped = draw(st.sets(st.sampled_from(seed), max_size=2)) if seed else ()
    faces = draw(st.lists(st.sets(st.integers(min_value=0, max_value=7),
                                  min_size=1, max_size=4), max_size=6))
    faces += [f for f in seed if f not in dropped]
    relabel = draw(st.permutations(range(8)))
    faces = [[relabel[v] for v in f] for f in faces] or [[relabel[0]]]
    return SimplicialComplex.from_maximal(faces)


@given(random_complexes(), st.data())
@settings(max_examples=80, deadline=None)
def test_cohomology_matches_numpy_oracle_on_random_complexes(K, data):
    ring, ref = assert_matches_oracle(K)
    if oracle_is_connected(K):
        assert cuplength(K) == oracle_cuplength(K, ref)
    else:
        with pytest.raises(NotConnected):
            cuplength(K)
    d = data.draw(st.integers(min_value=0, max_value=K.dim()))
    n_d = len(K.simplices_of_dim(d))
    coeffs = data.draw(st.integers(min_value=0, max_value=(1 << n_d) - 1))
    row = bitset_rows([coeffs], n_d)[0]
    if (oracle_coboundary_matrix(K, d) @ row % 2).any():
        with pytest.raises(ValueError, match="not a cocycle"):
            ring.reduce(Cochain(K, d, coeffs))
    else:
        coords = ring.reduce(Cochain(K, d, coeffs))
        assert bits(coords, betti(ring, d)) == ref.reduce(d, row).tobytes()
    for bad in (-1, 1 << n_d, -(1 << n_d)):
        with pytest.raises(ValueError, match="outside its simplices"):
            Cochain(K, d, bad)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: SimplicialComplex.from_maximal(
        [("a", "a"), ("a", "b")]), id="in-a-simplex"),
    pytest.param(lambda: SimplicialComplex(["a", "a", "b"], [("a", "b")]),
                 id="in-vertices"),
])
def test_repeated_vertex_is_rejected(build):
    with pytest.raises(ValueError, match="repeated vertex 'a'"):
        build()


def test_cuplength_requires_connected():
    K = SimplicialComplex.from_maximal([("a",), ("b",)])
    with pytest.raises(NotConnected):
        cuplength(K)


@pytest.mark.parametrize("K, f, connected", [
    pytest.param(SimplicialComplex(["a", "b"], [("a",)]), (2,), False,
                 id="listed-vertex"),
    pytest.param(SimplicialComplex.from_maximal([("a", "b"), ("c", "d")]),
                 (4, 2), False, id="two-edges"),
    pytest.param(SimplicialComplex([], []), (), True, id="empty"),
])
def test_cuplength_connectivity_agrees_with_union_find(K, f, connected):
    # each listed vertex is a 0-simplex, so H^0 and the edges see the
    # same components
    assert K.f_vector() == f
    assert oracle_is_connected(K) is connected
    if connected:
        assert cuplength(K) == 0
    else:
        with pytest.raises(NotConnected):
            cuplength(K)


def test_collapsibility():
    assert is_collapsible(SimplicialComplex.from_maximal([("a", "b", "c")]))
    assert not is_collapsible(triangle_boundary())
    seq = collapse_sequence(SimplicialComplex.from_maximal([("a", "b")]))
    assert seq is not None and len(seq) == 1


@st.composite
def small_complexes(draw):
    """Up to six random faces of up to three of 7 vertices."""
    faces = draw(st.lists(st.sets(st.integers(min_value=0, max_value=6),
                                  min_size=1, max_size=3),
                          min_size=1, max_size=6))
    return SimplicialComplex.from_maximal([sorted(f) for f in faces])


@given(small_complexes())
@settings(max_examples=50, deadline=None)
def test_homology_refutes_only_what_the_search_refutes(K):
    with mock.patch.object(simplicial, "_acyclic", lambda K: True):
        unguarded = collapse_sequence(K)
    assert collapse_sequence(K) == unguarded
    if not _acyclic(K):
        assert unguarded is None


@pytest.mark.parametrize("maximal,acyclic", [
    ([], False),
    ([("a",)], True),
    ([("a",), ("b",)], False),
    ([("a", "b", "c", "d")], True),
    (list(combinations("abcd", 3)), False),
], ids=["empty", "point", "two-points", "tetrahedron", "sphere"])
def test_acyclic_on_small_complexes(maximal, acyclic):
    K = SimplicialComplex.from_maximal(maximal)
    assert _acyclic(K) == acyclic
    assert (collapse_sequence(K) is not None) == acyclic


def test_homology_refutes_the_torus_star_cover_searches_at_once():
    # without the check, the six-vertex spans alone search about 2 s
    start = time.perf_counter()
    assert star_cover_upper_bound(torus())[0] == 3
    assert time.perf_counter() - start < 0.5


def test_star_cover_values():
    assert star_cover_upper_bound(triangle_boundary())[0] == 2
    assert star_cover_upper_bound(
        SimplicialComplex.from_maximal([("a", "b", "c")])
    )[0] == 1
    assert star_cover_upper_bound(cycle4())[0] == 2


def test_star_cover_certificates_are_collapsible():
    K = torus()
    count, cover = star_cover_upper_bound(K)
    assert count == len(cover) == 3
    seen = set()
    for entry in cover:
        seen.update(entry["vertices"])
        current = set(K.induced(entry["vertices"]).simplices)
        for face, coface in entry["collapse"]:  # elementary collapses
            assert face in current
            assert [s for s in current
                    if set(face) < set(s)] == [coface], (face, coface)
            current -= {face, coface}
        assert len(current) == 1 and len(next(iter(current))) == 1
    assert seen == set(K.vertices)


def test_sandwich_on_shipped_complexes():
    shipped = [
        order_complex(fx.fix_v()),
        order_complex(fx.fix_c4()),
        triangle_boundary(),
        cycle4(),
        SimplicialComplex.from_maximal([("a", "b", "c")]),
        torus(),
    ]
    for K in shipped:
        bound = star_cover_upper_bound(K)[0]
        assert cuplength(K) + 1 <= bound


def test_barycentric_subdivision_counts(c4):
    # chains of the face poset recover the subdivision's f-vector
    K = triangle_boundary()
    sd = order_complex(face_poset(K))
    f = K.f_vector()
    assert sd.f_vector()[0] == sum(f)  # one vertex per simplex
    # flag count: edges of the subdivision = strict incidences
    incidences = sum(
        1
        for s in K.simplices
        for t in K.simplices
        if set(s) < set(t)
    )
    assert sd.f_vector()[1] == incidences
    oc4 = order_complex(face_poset(order_complex(c4)))
    assert oc4.f_vector()[0] == sum(order_complex(c4).f_vector())


def test_face_closure_automatic():
    K = SimplicialComplex.from_maximal([("a", "b", "c")])
    assert ("a",) in K.simplices
    assert ("a", "b") in K.simplices
    assert len(K.simplices) == 7

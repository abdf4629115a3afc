import pytest

import fixtures as fx
from lscat.simplicial import (
    CohomologyRing,
    NotConnected,
    SimplicialComplex,
    coboundary_matrix,
    collapse_sequence,
    cup,
    cuplength,
    Cochain,
    face_poset,
    order_complex,
    star_cover_upper_bound,
)


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
    assert K.is_connected()


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
    assert [ring.betti(d) for d in range(3)] == [1, 2, 1]


def test_coboundary_squares_to_zero():
    for K in (triangle_boundary(), torus()):
        for d in range(K.dim()):
            d0 = coboundary_matrix(K, d)
            d1 = coboundary_matrix(K, d + 1)
            assert not ((d1 @ d0) % 2).any()


def test_cup_product_graded_commutative_on_torus():
    K = torus()
    ring = CohomologyRing(K)
    reps = [Cochain(K, 1, row) for row in ring.bases[1]["reps"]]
    for a in reps:
        for b in reps:
            ab = ring.reduce(cup(K, a, b))
            ba = ring.reduce(cup(K, b, a))
            assert (ab == ba).all()  # mod 2 at the cohomology level


def test_cuplength_values():
    assert cuplength(order_complex(fx.fix_c4())) == 1
    assert cuplength(order_complex(fx.fix_v())) == 0
    assert cuplength(torus()) == 2


def test_cuplength_matches_independent_circle_argument(c4):
    from oracles import oracle_cuplength_minimal_circle

    K = order_complex(c4)
    assert cuplength(K) == oracle_cuplength_minimal_circle(K)


def test_cuplength_requires_connected():
    K = SimplicialComplex.from_maximal([("a",), ("b",)])
    with pytest.raises(NotConnected):
        cuplength(K)


def test_collapsibility():
    assert is_collapsible(SimplicialComplex.from_maximal([("a", "b", "c")]))
    assert not is_collapsible(triangle_boundary())
    seq = collapse_sequence(SimplicialComplex.from_maximal([("a", "b")]))
    assert seq is not None and len(seq) == 1


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

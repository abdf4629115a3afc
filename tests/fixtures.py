"""Shared finite-space fixtures: minimal circle models, arcs, wedges.

All category values quoted in the test suite for these spaces are pinned
from the exhaustive brute-force oracle (tests/oracles.py) before use.
"""

from __future__ import annotations

from itertools import product

from lscat.poset import (
    SpaceMap,
    core,
    join_labels,
    validate_space,
)
from lscat.simplicial import SimplicialComplex


def fix_v():
    """V-space: one minimum below two maxima; contractible."""
    return validate_space(["c", "a", "b"], [["c", "a"], ["c", "b"]])


def fix_arc3():
    """Three-point arc l > m < r: a finite model of a compact interval.

    The subspace {l, r} plays the role of the two boundary points.
    """
    return validate_space(["l", "m", "r"], [["m", "l"], ["m", "r"]])


def fix_c4():
    """Minimal finite model of the circle: 2 minima p,q below 2 maxima U,L."""
    return validate_space(
        ["p", "q", "U", "L"],
        [["p", "U"], ["p", "L"], ["q", "U"], ["q", "L"]],
    )


def fix_2circ():
    """Wedge of two minimal circles at the shared minimum o."""
    rel = []
    for k in ("1", "2"):
        for lo in ("o", "q" + k):
            for hi in ("U" + k, "L" + k):
                rel.append([lo, hi])
    return validate_space(["o", "q1", "U1", "L1", "q2", "U2", "L2"], rel)


def cone_circle():
    """Minimal circle with a cone point on top; contractible, but the
    circle is pinned pointwise by any homotopy that preserves it."""
    return validate_space(
        ["p", "q", "U", "L", "t"],
        [["p", "U"], ["p", "L"], ["q", "U"], ["q", "L"],
         ["U", "t"], ["L", "t"]],
    )


def discrete(n):
    return validate_space([f"d{i}" for i in range(n)], [])


def fix_wedge():
    """Circle wedge circle wedge coned-circle, glued at the minimum o.

    Finite stand-in for a circle-plus-collapsing-cylinder band fixture:
    X1 = {o, w < A, B} is an essential circle living above the band cut,
    K2 = {o, qb < Ub, Lb} an essential circle inside the low sublevel,
    C3 = {o, q3 < U3, L3} a circle killed by the cone point T3.  The
    standard map collapses the coned circle to o and fixes the rest.
    """
    rel = [["o", "A"], ["o", "B"], ["w", "A"], ["w", "B"],
           ["o", "Ub"], ["o", "Lb"], ["qb", "Ub"], ["qb", "Lb"],
           ["o", "U3"], ["o", "L3"], ["q3", "U3"], ["q3", "L3"],
           ["o", "T3"], ["q3", "T3"], ["U3", "T3"], ["L3", "T3"]]
    return validate_space(
        ["o", "w", "A", "B", "qb", "Ub", "Lb", "q3", "U3", "L3", "T3"], rel
    )


WEDGE_HEIGHTS = {
    "o": 0.0, "qb": 0.4, "Ub": 0.8, "Lb": 0.8,
    "q3": 0.4, "U3": 0.9, "L3": 0.9, "T3": 1.8,
    "A": 1.5, "B": 1.5, "w": 2.0,
}


def wedge_collapse_map(space=None):
    space = space or fix_wedge()
    images = {p: p for p in space.points}
    for p in ("q3", "U3", "L3", "T3"):
        images[p] = "o"
    return SpaceMap.from_dict(space, space, images)


def v_descent_map(space=None):
    space = space or fix_v()
    return SpaceMap.from_dict(space, space, {"c": "c", "a": "a", "b": "a"})


V_HEIGHTS = {"c": 0.0, "a": 1.0, "b": 2.0}

ARC_HEIGHTS = {"l": 0.0, "m": 1.0, "r": 0.0}

C4_CONST_HEIGHTS = {"p": 0.0, "q": 1.0, "U": 2.0, "L": 2.0}

C4_TWO_LEVEL_HEIGHTS = {"p": 0.0, "q": 0.0, "U": 1.0, "L": 1.0}


def constant_map(domain, codomain, value_index):
    return SpaceMap(domain, codomain, (value_index,) * len(domain))


def c4_constant_map(space=None):
    space = space or fix_c4()
    return constant_map(space, space, space.index["p"])


def c4_swap_map(space=None):
    """The order automorphism of the minimal circle swapping p<->q, U<->L."""
    space = space or fix_c4()
    return SpaceMap.from_dict(
        space, space, {"p": "q", "q": "p", "U": "L", "L": "U"}
    )


def inverse_images(images):
    """The image tuple of the inverse of a bijective self-map."""
    inv = [0] * len(images)
    for i, v in enumerate(images):
        inv[v] = i
    return tuple(inv)


def homotopy_inverse(phi):
    """A homotopy inverse of a finite-space homotopy equivalence: through
    the core, the inverse of the core self-map phi induces."""
    c = core(phi.domain)
    induced = c.retraction.compose(phi).compose(c.inclusion)
    if len(set(induced.images)) != len(c.core):
        raise ValueError("map is not a homotopy equivalence")
    core_inverse = SpaceMap(c.core, c.core, inverse_images(induced.images))
    return c.inclusion.compose(core_inverse).compose(c.retraction)


def conjugation_generator():
    """Permutation fixing p, q and swapping the two maxima of fix_c4:
    the finite analogue of complex conjugation on the circle."""
    return {"p": "p", "q": "q", "U": "L", "L": "U"}


# -- simplicial fixtures -------------------------------------------------


def face_poset(K):
    """Simplices ordered by inclusion, with the up-set topology.

    A simplex is labelled by ``poset.join_labels`` of its vertex names,
    so distinct simplices get distinct labels.
    """
    labels = [join_labels(s) for s in K.simplices]
    pairs = []
    for i, s in enumerate(K.simplices):
        for j, t in enumerate(K.simplices):
            if i != j and set(s) < set(t):
                pairs.append([labels[i], labels[j]])
    return validate_space(labels, pairs)


def torus7_triangles():
    """The 7-vertex triangulation of the torus (vertices 0..6 mod 7)."""
    tris = []
    for i in range(7):
        tris.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        tris.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return sorted(set(tris))


def rp2_6_triangles():
    """The 6-vertex triangulation of the real projective plane."""
    return [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
            (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]


def cross_polytope_facets(n):
    """Facets of the boundary of the n-dimensional cross-polytope, an
    (n-1)-sphere: one vertex from each antipodal pair (2i, 2i+1)."""
    return [tuple(2 * i + b for i, b in enumerate(bits))
            for bits in product((0, 1), repeat=n)]


def octahedron_model():
    """Face poset of the octahedron: a 26-point finite model of S^2."""
    return face_poset(SimplicialComplex.from_maximal(cross_polytope_facets(3)))


def s3_model():
    """Face poset of the 16-cell's boundary: an 80-point finite model of
    S^3."""
    return face_poset(SimplicialComplex.from_maximal(cross_polytope_facets(4)))

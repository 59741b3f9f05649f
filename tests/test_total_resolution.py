"""The total resolution against the one built straight from the covers.

The library reads the total resolution off ``total_complex(build(fc))``;
``direct_total_resolution`` writes it from the covers, sharing neither the
block maps nor the augmentation sign.  Both must agree exactly: the faces
of every term, every map and the augmentation.
"""

import pytest

from zeemac import GF, QQ, cone_of_simplicial, face_lattice, total_resolution
from zeemac.complexes import Cover, DegenerateComplexError, Face, FaceComplex
from zeemac.formats import parse_input_text
from zeemac.linalg import Mat
from zeemac.resolutions import total_resolution_terms

from .direct_total_resolution import direct_total_resolution
from .helpers import (
    bowtie,
    cube_cone,
    d2_witness,
    hexagon_cone,
    hollow_triangle,
    random_sweep,
    rp2,
    square_cone,
    square_cone_two_facets,
)

FIELDS = (QQ, GF(2), GF(3))


def fixtures():
    for sc in (hollow_triangle(), bowtie(), rp2(), d2_witness()):
        yield cone_of_simplicial(sc)
    for q in (square_cone(), hexagon_cone(), cube_cone()):
        yield face_lattice(q)
    yield square_cone_two_facets()[0]


def assert_same_resolution(res, ref):
    assert [t.faces for t in res.terms] == [t.faces for t in ref.terms]
    assert res.maps == ref.maps
    assert res.augmentation == ref.augmentation
    assert res.variant == ref.variant == "total"


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_total_resolution_matches_the_direct_one_on_the_fixtures(field):
    for fc in fixtures():
        assert_same_resolution(total_resolution(fc, field), direct_total_resolution(fc, field))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_total_resolution_matches_the_direct_one_on_a_random_sweep(field):
    for sc in random_sweep(30, 4242):
        fc = cone_of_simplicial(sc)
        assert_same_resolution(total_resolution(fc, field), direct_total_resolution(fc, field))


# face ids out of dimension order: the apex o is face 1, not face 0
OUT_OF_ORDER = (
    "polyhedral\nambient 2\nface 0 1 a\nface 1 0 o\nface 2 1 b\nface 3 2 top\n"
    "cover 1 0 +1\ncover 1 2 +1\ncover 0 3 -1\ncover 2 3 +1\n"
)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_total_resolution_orders_copies_by_dim_g_then_g_then_f(field):
    fc = parse_input_text(OUT_OF_ORDER).fc
    res = total_resolution(fc, field)
    ref = direct_total_resolution(fc, field)  # copies in (G, F) order
    assert [t.faces for t in res.terms] == [(1, 0, 2, 3), (1, 1, 0, 2), (1,)]
    assert [t.faces for t in ref.terms] == [(0, 1, 2, 3), (0, 1, 1, 2), (1,)]
    # perm[i][k]: the position in the direct term i of the library's copy k
    perm = []
    for i in range(len(ref.terms)):
        pairs = sorted((g, f) for g in range(len(fc.faces)) for f in fc.above(g) if fc.face(f).dim - fc.face(g).dim == i)
        ordered = sorted(pairs, key=lambda gf: (fc.face(gf[0]).dim, *gf))
        perm.append([pairs.index(gf) for gf in ordered])
    assert [tuple(ref.terms[i].faces[k] for k in p) for i, p in enumerate(perm)] == [t.faces for t in res.terms]
    for i, m in enumerate(ref.maps):
        rows, cols = perm[i + 1], perm[i]
        permuted = Mat.from_rows([[m.entry(r, c) for c in cols] for r in rows], field, len(cols))
        assert res.maps[i] == permuted
    assert res.augmentation == tuple(ref.augmentation[k] for k in perm[0])
    assert res.check_composition() and res.check_block_support()


def test_total_resolution_terms_are_those_of_the_total_resolution():
    complexes = [*fixtures(), parse_input_text(OUT_OF_ORDER).fc]
    complexes += [cone_of_simplicial(sc) for sc in random_sweep(30, 4242)]
    for fc in complexes:
        terms = total_resolution_terms(fc)
        for field in FIELDS:
            assert terms == total_resolution(fc, field).terms


def test_total_resolution_terms_need_a_unique_minimal_face():
    fc = FaceComplex([Face(0, 0, "a"), Face(1, 0, "b"), Face(2, 1, "ab")], [Cover(0, 2, 1), Cover(1, 2, -1)], 2)
    with pytest.raises(DegenerateComplexError):
        total_resolution_terms(fc)
    with pytest.raises(DegenerateComplexError):
        total_resolution(fc, QQ)

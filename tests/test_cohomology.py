import random

import pytest

from zeemac import (
    GF,
    QQ,
    SimplicialComplex,
    build,
    cochain_complex,
    cone_of_simplicial,
    is_cohen_macaulay,
    local_cohomology,
    page,
    restriction_map,
)
from zeemac.eagon_reiner import reduced_cohomology_dims
from zeemac.linalg import Mat

from .chain_ranks import rank
from .helpers import bowtie, cone_with_ids, densify, hollow_triangle, link_family, random_simplicial, rp2


def test_cochain_complex_at_minimal_face():
    fc, ids = cone_with_ids(hollow_triangle())
    vs = cochain_complex(fc, ids[()], QQ)
    assert (vs.lo, vs.hi) == (0, 2)
    assert [vs.dim(p) for p in (0, 1, 2)] == [1, 3, 3]
    assert vs.is_complex()


def test_cochain_complex_at_top_face_is_one_term():
    fc, ids = cone_with_ids(hollow_triangle())
    vs = cochain_complex(fc, ids[(1, 2)], QQ)
    assert (vs.lo, vs.hi) == (2, 2)
    assert vs.dim(2) == 1


def test_differential_squares_to_zero_randomized():
    rng = random.Random(41)
    for _ in range(30):
        fc = cone_of_simplicial(random_simplicial(rng))
        for f in fc.faces:
            assert cochain_complex(fc, f.id, QQ).is_complex()


def test_local_cohomology_hollow_triangle():
    fc, ids = cone_with_ids(hollow_triangle())
    at_min = local_cohomology(fc, ids[()], QQ)
    assert (at_min.dim(0), at_min.dim(1), at_min.dim(2)) == (0, 0, 1)
    at_ray = local_cohomology(fc, ids[(1,)], QQ)
    assert (at_ray.dim(1), at_ray.dim(2)) == (0, 1)


def test_local_cohomology_bowtie_shared_ray():
    # the link of the shared vertex is disconnected, which shows up one
    # degree above the ray dimension
    fc, ids = cone_with_ids(bowtie())
    at_shared = local_cohomology(fc, ids[(3,)], QQ)
    assert at_shared.dim(2) == 1
    at_outer = local_cohomology(fc, ids[(1,)], QQ)
    assert at_outer.total() == 0


def test_representatives_are_cocycles_and_independent():
    fc, ids = cone_with_ids(hollow_triangle())
    vs = cochain_complex(fc, ids[()], QQ)
    from zeemac import cohomology_summary

    summary = cohomology_summary(vs)
    for p in range(vs.lo, vs.hi + 1):
        d = vs.diff(p)
        for rep in summary.reps(p):
            assert not any(d.mul_vec(densify(rep, d.cols)))


def test_restriction_ray_to_minimal_is_nonzero():
    fc, ids = cone_with_ids(hollow_triangle())
    m = restriction_map(fc, ids[(1,)], ids[()], QQ, 2)
    assert (m.rows, m.cols) == (1, 1)
    assert m.entry(0, 0) != 0


def test_restriction_with_vanishing_source_is_empty():
    fc, ids = cone_with_ids(hollow_triangle())
    m = restriction_map(fc, ids[(1,)], ids[()], QQ, 1)
    assert m.cols == 0


def test_restriction_rejects_non_cover():
    fc, ids = cone_with_ids(hollow_triangle())
    with pytest.raises(ValueError):
        restriction_map(fc, ids[(1, 2)], ids[()], QQ, 2)


def test_restriction_squares_compose_to_zero():
    # weighted two-step compositions through both intermediate facets cancel
    rng = random.Random(77)
    for _ in range(12):
        fc = cone_of_simplicial(random_simplicial(rng))
        n = fc.dim
        for g in fc.faces:
            if g.dim < 2:
                continue
            for p in range(g.dim, n + 1):
                acc = {}
                for h, _ in fc.covers_below(g.id):
                    first = restriction_map(fc, g.id, h, QQ, p)
                    for g2, _ in fc.covers_below(h):
                        second = restriction_map(fc, h, g2, QQ, p)
                        prod = second.mul(first)
                        if g2 in acc:
                            prev = acc[g2]
                            acc[g2] = Mat.from_rows(
                                [[a + b for a, b in zip(prev.row(i), prod.row(i))] for i in range(prod.rows)],
                                QQ,
                                prod.cols,
                            )
                        else:
                            acc[g2] = prod
                for total in acc.values():
                    assert total.is_zero()


def test_cm_hollow_triangle_all_fields():
    fc = cone_of_simplicial(hollow_triangle())
    for f in (QQ, GF(2), GF(3)):
        assert is_cohen_macaulay(fc, f).ok


def test_cm_bowtie_witness_at_shared_vertex():
    for field in (QQ, GF(2)):
        for page_first in (False, True):
            fc, ids = cone_with_ids(bowtie())
            if page_first:  # page 1 fills the per-face store before the scan
                page(build(fc, None, field), 2)
            assert is_cohen_macaulay(fc, field) == (False, (ids[(3,)], 2, 1))


def test_cm_rp2_depends_on_characteristic():
    for page_first in (False, True):
        fc = cone_of_simplicial(rp2())
        if page_first:
            page(build(fc, None, GF(2)), 2)
        assert is_cohen_macaulay(fc, QQ).ok
        assert is_cohen_macaulay(fc, GF(3)).ok
        assert is_cohen_macaulay(fc, GF(2)) == (False, (fc.minimal_face(), 2, 1))


def test_cm_zero_dimensional_complex():
    fc = cone_of_simplicial(SimplicialComplex.from_facets(2, [frozenset()]))
    assert is_cohen_macaulay(fc, QQ).ok


def test_local_cohomology_matches_link_cohomology():
    # dimension-wise comparison against an independent reduced-cochain
    # routine: H^p near G equals reduced H^(p - dim G - 1) of the link
    rng = random.Random(13)
    for _ in range(15):
        sc = random_simplicial(rng)
        fc = cone_of_simplicial(sc)
        for f in fc.faces:
            verts = set(f.key[1])
            link_dims = reduced_cohomology_dims(link_family(sc, verts), QQ)
            summary = local_cohomology(fc, f.id, QQ)
            for p in range(0, fc.dim + 1):
                assert summary.dim(p) == link_dims.get(p - f.dim - 1, 0)


def test_euler_characteristic_per_face():
    rng = random.Random(29)
    for _ in range(15):
        fc = cone_of_simplicial(random_simplicial(rng))
        for f in fc.faces:
            summary = local_cohomology(fc, f.id, QQ)
            lhs = sum((-1) ** p * summary.dim(p) for p in range(summary.lo, summary.hi + 1))
            above = fc.above(f.id)
            rhs = sum((-1) ** fc.face(i).dim for i in above)
            assert lhs == rhs


def test_cm_large_prime_agrees_with_rationals():
    # no simplicial complex on <= 6 vertices has torsion at this prime
    rng = random.Random(53)
    big = GF(1009)
    for _ in range(20):
        fc = cone_of_simplicial(random_simplicial(rng))
        assert is_cohen_macaulay(fc, big).ok == is_cohen_macaulay(fc, QQ).ok


def test_cone_preserves_cm_verdict():
    cases = [hollow_triangle(), bowtie(), SimplicialComplex.from_facets(3, [{1, 2}, {3}])]
    for sc in cases:
        apex = sc.d + 1
        coned = SimplicialComplex.from_facets(
            sc.d + 1, [f | {apex} for f in sc.facets]
        )
        for f in (QQ, GF(2)):
            assert (
                is_cohen_macaulay(cone_of_simplicial(coned), f).ok
                == is_cohen_macaulay(cone_of_simplicial(sc), f).ok
            )

"""Heavier geometry: non-simplicial cones, a sphere, cross-path checks."""

import math

from zeemac import (
    AffineSemigroup,
    GF,
    QQ,
    SimplicialComplex,
    alexander_dual,
    betti_from_dual,
    betti_hochster,
    build,
    concentration_check,
    cone_of_simplicial,
    dualize,
    face_lattice,
    is_cohen_macaulay,
    is_linear,
    local_cohomology,
    minimal_linear_resolution,
    page,
    total_resolution,
    validate,
    verify_exactness,
)
from zeemac.complexes import subcomplex

from .helpers import cube_cone, hexagon_cone


def octahedron() -> SimplicialComplex:
    # boundary of the cross-polytope: antipodal pairs (1,4), (2,5), (3,6)
    facets = []
    for a in (1, 4):
        for b in (2, 5):
            for c in (3, 6):
                facets.append({a, b, c})
    return SimplicialComplex.from_facets(6, facets)


def test_octahedron_full_pipeline():
    sc = octahedron()
    fc = cone_of_simplicial(sc)
    for field in (QQ, GF(2)):
        assert is_cohen_macaulay(fc, field).ok
        assert concentration_check(build(fc, None, field)).ok
    res = minimal_linear_resolution(fc, QQ)
    assert res.term_sizes() == (8, 12, 6, 1)
    assert verify_exactness(res).exact and is_linear(res)
    table = betti_from_dual(dualize(res))
    oracle = betti_hochster(alexander_dual(sc), QQ)
    assert table.same_entries(oracle)
    assert [table.total(i) for i in range(4)] == [8, 12, 6, 1]


def test_hexagon_cone_lattice_and_boundary_complex():
    q = hexagon_cone()
    assert len(q.rays) == 6
    full = face_lattice(q)
    assert sorted(f.dim for f in full.faces) == [0] + [1] * 6 + [2] * 6 + [3]
    rep = validate(full)
    assert rep.ok, rep.problems
    # the boundary subcomplex (all six facets of the cone) is a circle
    facet_ids = [i for i, cf in full.cone_faces.items() if cf.dim == 2]
    boundary = subcomplex(full, facet_ids)
    assert validate(boundary).ok
    assert is_cohen_macaulay(boundary, QQ).ok
    assert concentration_check(build(boundary, None, QQ)).ok
    res = minimal_linear_resolution(boundary, QQ)
    assert res.term_sizes() == (6, 6, 1)
    assert verify_exactness(res).exact and is_linear(res)
    assert verify_exactness(total_resolution(boundary, QQ)).exact


def test_cube_cone_face_lattice_valid():
    q = cube_cone()
    assert len(q.rays) == 8
    fc = face_lattice(q)
    assert sorted(f.dim for f in fc.faces) == [0] + [1] * 8 + [2] * 12 + [3] * 6 + [4]
    rep = validate(fc)
    assert rep.ok, rep.problems
    # the whole lattice is the cone itself: its quotient is the semigroup
    # ring, resolved by the single top summand
    res = minimal_linear_resolution(fc, QQ)
    assert res.term_sizes() == (1,)
    assert verify_exactness(res).exact


def test_orthant_lattice_agrees_with_simplicial_path():
    # the same complex through the two constructions (signs may differ by a
    # valid gauge; every verdict and dimension must agree)
    d = 3
    geometric = face_lattice(AffineSemigroup.orthant(d))
    simplicial = cone_of_simplicial(
        SimplicialComplex.from_facets(d, [frozenset(range(1, d + 1))])
    )
    assert sorted(f.dim for f in geometric.faces) == sorted(f.dim for f in simplicial.faces)
    for field in (QQ, GF(2)):
        assert is_cohen_macaulay(geometric, field).ok == is_cohen_macaulay(simplicial, field).ok
        zg = build(geometric, None, field)
        zs = build(simplicial, None, field)
        assert page(zg, 1).dims == page(zs, 1).dims
        assert page(zg, math.inf).dims == page(zs, math.inf).dims
    rg = total_resolution(geometric, QQ)
    rs = total_resolution(simplicial, QQ)
    assert rg.term_sizes() == rs.term_sizes()
    assert verify_exactness(rg).exact and verify_exactness(rs).exact
    for g_face in geometric.faces:
        match = [s for s in simplicial.faces if s.dim == g_face.dim]
        assert match  # dimensions line up face-for-face by count
    for gid, sid in [(geometric.minimal_face(), simplicial.minimal_face())]:
        hg = local_cohomology(geometric, gid, QQ)
        hs = local_cohomology(simplicial, sid, QQ)
        assert hg.dims == hs.dims


def test_hexagon_boundary_graded_abutment():
    q = hexagon_cone()
    full = face_lattice(q)
    facet_ids = [i for i, cf in full.cone_faces.items() if cf.dim == 2]
    boundary = subcomplex(full, facet_ids)
    # a degree interior to a boundary facet abuts to k; one interior to the
    # removed top face abuts to zero
    facet_rep = full.cone_faces[facet_ids[0]].interior_point
    top_rep = [cf for cf in q.faces() if cf.dim == 3][0].interior_point
    z_on = build(boundary, facet_rep, QQ)
    z_off = build(boundary, top_rep, QQ)
    assert page(z_on, math.inf).total_by_degree() == {0: 1}
    assert page(z_off, math.inf).total_by_degree() == {}

"""The closed-form terminal page against the reduction of ``reduced_einf``,
and the lower-interval check that is its premise.

``page(z, math.inf)`` reads E-infinity off the admitted faces: k at
(m, -m), with m the largest dimension of an admitted face, and nothing
when no face is admitted.  ``reduced_einf`` reduces every total
differential instead.  The two must agree on the benchmark's sweep and
spheres over three fields, at every evaluation degree of the square,
hexagon and cube cones and of their ``delta`` cuts, and where m is below
the top dimension (the whisker of the 6-simplex boundary at e_8).

The premise is that every lower interval [0, F], F other than the
minimal face, is acyclic (``FaceComplex.lower_interval_defect``).  It is
read off an integer diagonal form of each interval's boundary maps, and
must agree with the vertical-first cohomology of the double complex,
which is k at (0, 0) exactly when every column but the apex's is
acyclic.  On the four rays under one face and on the torus under one
face, which pass every structural check but are no cone's face posets,
``validate`` names the face and the degree, and the closed form raises.
"""

import math
import random
from itertools import combinations

import pytest

from zeemac import GF, QQ, SimplicialComplex, build, cone_of_simplicial, face_lattice, page, vertical_cohomology_dims
from zeemac import complexes
from zeemac.complexes import DegenerateComplexError, FaceComplex, _integer_diagonal, validate
from zeemac.formats import parse_input_text
from zeemac.linalg import Mat
from zeemac.resolutions import evaluation_degrees

from .chain_ranks import rank
from .helpers import cube_cone, four_rays_under_one_face, hexagon_cone, random_sweep, square_cone, torus_with_top_face_text
from .reduced_einf import reduced_infinity_dims
from .test_clearing import SPHERES
from .test_sparse_ranks import delta_subcomplex

FIELDS = (QQ, GF(2), GF(3))


def assert_closed_form(fc, a, field):
    z = build(fc, a, field)
    assert page(z, math.inf).dims == reduced_infinity_dims(z), (a, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_closed_form_matches_the_reduction_on_the_sweep_and_the_spheres(field):
    for seed in (901, 20261020):
        for sc in random_sweep(40, seed):
            assert_closed_form(cone_of_simplicial(sc), None, field)
    for d, facets in SPHERES.values():
        assert_closed_form(cone_of_simplicial(SimplicialComplex.from_facets(d, [frozenset(f) for f in facets])), None, field)


CUTS = {
    square_cone: (([0], [1]),),  # two adjacent facets: a ball
    hexagon_cone: (([0], [1]), tuple([i] for i in range(6))),  # a ball and the boundary circle
    cube_cone: (([0], [1]), ([0], [2], [4])),  # two opposite facets, three around a corner
}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_closed_form_matches_the_reduction_at_every_degree_of_the_cones(field):
    empty = 0  # degrees on no face of a cut, where the terminal page is 0
    for cone, cuts in CUTS.items():
        for fc in (face_lattice(cone()), *(delta_subcomplex(cone(), selectors) for selectors in cuts)):
            for a in evaluation_degrees(fc):
                assert_closed_form(fc, a, field)
                empty += not fc.faces_containing(a)
    assert empty


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_closed_form_reads_the_largest_admitted_face_not_the_top_dimension(field):
    # on the whisker {1, 8} only the faces {8} and {1, 8} contain e_8
    sc = SimplicialComplex.from_facets(8, [frozenset(f) for f in combinations(range(1, 8), 6)] + [{1, 8}])
    fc = cone_of_simplicial(sc)
    e8 = (0,) * 7 + (1,)
    assert fc.dim == 6
    assert page(build(fc, e8, field), math.inf).dims == {(2, -2): 1}
    assert_closed_form(fc, e8, field)


def without_geometry(fc) -> FaceComplex:
    return FaceComplex(fc.faces, fc.covers, fc.ambient_dim)


NOT_CONE_LIKE = {
    "four rays": (four_rays_under_one_face(), (5, 1), {(2, -2): 1, (1, 0): 2}),
    "torus": (parse_input_text(torus_with_top_face_text()).fc, (43, 2), {(4, -4): 1, (2, 0): 2}),
}


def test_the_lower_interval_scan_agrees_with_the_vertical_cohomology():
    # the scan and the column filtration share no code: on cone-like
    # complexes stripped of their geometry the scan finds no defect and the
    # vertical-first cohomology is k at (0, 0); on the others the defect
    # (F, k) sits at a nonzero vertical class (dim F, -k)
    for sc in random_sweep(40, 7001):
        fc = without_geometry(cone_of_simplicial(sc))
        assert fc.lower_interval_defect is None
        assert validate(fc).ok
        assert vertical_cohomology_dims(build(fc)) == {(0, 0): 1}
    for fc, defect, _ in NOT_CONE_LIKE.values():
        f, k = fc.lower_interval_defect
        assert (f, k) == defect
        assert (fc.face(f).dim, -k) in vertical_cohomology_dims(build(fc))


@pytest.mark.parametrize("name", NOT_CONE_LIKE)
def test_a_complex_that_is_not_cone_like_is_refused(name):
    fc, (f, k), reduced = NOT_CONE_LIKE[name]
    report = validate(fc)
    assert not report.ok and not report.bad_diamonds
    face = fc.face(f)
    (problem,) = report.problems
    assert f"face {face.label} (dim {face.dim})" in problem and f"({face.dim}, {-k})" in problem
    for field in FIELDS:
        z = build(fc, None, field)
        assert reduced_infinity_dims(z) == reduced  # total cohomology off degree 0
        with pytest.raises(DegenerateComplexError, match=f"face {face.label} "):
            page(z, math.inf)


def test_the_scan_runs_once_and_not_on_a_complex_with_geometry(monkeypatch):
    hollow = cone_of_simplicial(SimplicialComplex.from_facets(3, [{1, 2}, {1, 3}, {2, 3}]))
    bare = without_geometry(hollow)
    assert bare.lower_interval_defect is None  # scanned, and kept on the complex

    def scan(columns):
        raise AssertionError("a lower interval was diagonalized")

    monkeypatch.setattr(complexes, "_integer_diagonal", scan)
    for fc in (hollow, bare):
        assert validate(fc).ok
        assert page(build(fc), math.inf).dims == {(2, -2): 1}


def test_the_integer_diagonal_gives_the_rank_over_every_field():
    # a diagonal form D = U M V with U, V invertible over the integers stays
    # one mod p: the rank over GF(p) is the number of entries p does not divide
    rng = random.Random(31)
    assert _integer_diagonal([{0: 2}]) == [2]
    assert _integer_diagonal([{0: 2}, {0: 3}]) == [1]
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        columns = [{i: x for i in range(rows) if (x := rng.choice((0, 0, 1, -1, 2, -3, 4, 6)))} for _ in range(cols)]
        diagonal = _integer_diagonal(columns)
        assert all(x > 0 for x in diagonal)
        for field in (QQ, GF(2), GF(3), GF(5)):
            want = rank(Mat(rows, cols, [{i: field.reduce(x) for i, x in c.items() if field.reduce(x)} for c in columns], field))
            assert want == sum(1 for x in diagonal if field.p is None or x % field.p), (columns, field)

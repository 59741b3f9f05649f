import math
import random
import tracemalloc
from itertools import combinations

import pytest

from zeemac import (
    AffineSemigroup,
    QQ,
    SimplicialComplex,
    cone_of_simplicial,
    face_lattice,
    validate,
)
from zeemac.complexes import subcomplex
from zeemac.formats import parse_input_text
from zeemac.linalg import Mat, _raw_relations
from zeemac.semigroup import DegenerateConeError

from .dense_orientation import _echelon_basis, dense_covers
from .dense_ranks import dense_echelon_basis
from .pairwise_faces import pairwise_covers, pairwise_faces
from .subset_rays import subset_rays
from .helpers import assert_same, canonical, cube_cone, hexagon_cone, random_sweep, square_cone


def test_orthant_two_faces_and_dims():
    q = AffineSemigroup.orthant(2)
    fc = face_lattice(q)
    assert sorted(f.dim for f in fc.faces) == [0, 1, 1, 2]
    assert validate(fc).ok


def test_orthant_face_count_is_power_of_two():
    q = AffineSemigroup.orthant(3)
    assert len(q.faces()) == 8
    assert sorted(f.dim for f in q.faces()) == [0, 1, 1, 1, 2, 2, 2, 3]


def test_orthant_relint_representatives():
    q = AffineSemigroup.orthant(2)
    by_vanishing = {tuple(sorted(f.vanishing)): f.interior_point for f in q.faces()}
    assert by_vanishing[(0, 1)] == (0, 0)  # minimal face
    assert by_vanishing[(1,)] == (1, 0)  # x-axis: the y-functional vanishes
    assert by_vanishing[(0,)] == (0, 1)
    assert by_vanishing[()] == (1, 1)


def test_square_cone_face_lattice():
    q = square_cone()
    assert set(q.rays) == {(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)}
    fc = face_lattice(q)
    assert len(fc.faces) == 10
    assert sorted(f.dim for f in fc.faces) == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]
    rep = validate(fc)
    assert rep.ok, rep.problems


def test_membership_examples():
    q2 = AffineSemigroup.orthant(2)
    full = q2.face_with_vanishing([])
    xray = q2.face_with_vanishing([1])  # the y-functional vanishes on the x-axis
    assert q2.membership(full, (2, 3))
    assert not q2.membership(xray, (2, 1))
    qs = square_cone()
    ray = [f for f in qs.faces() if f.dim == 1 and f.interior_point == (1, 0, 1)][0]
    assert qs.membership(ray, (3, 0, 3))
    assert not qs.membership(ray, (1, 1, 1))


def test_membership_dimension_mismatch():
    q = AffineSemigroup.orthant(2)
    with pytest.raises(ValueError):
        q.membership(q.faces()[0], (1, 2, 3))


def test_cover_structure_dims_and_vanishing():
    fc = face_lattice(square_cone())
    for c in fc.covers:
        g, f = fc.cone_faces[c.lower], fc.cone_faces[c.upper]
        assert f.dim == g.dim + 1
        assert g.vanishing > f.vanishing


def test_membership_depends_only_on_vanishing_set():
    q = square_cone()
    top = q.face_with_vanishing([])
    # two different interior points give the same membership predicate
    probe = [(0, 0, 1), (2, 1, 3), (1, 1, 1), (-1, 0, 0), (5, 0, 5)]
    other = type(top)(top.vanishing, top.dim, (3, 2, 4))
    for a in probe:
        assert q.membership(top, a) == q.membership(other, a)


def test_relint_representatives_strict():
    q = square_cone()
    fc = face_lattice(q)
    reps = {f: f.interior_point for f in q.faces()}
    for f, v in reps.items():
        assert q.membership(f, v)
        assert q.relint_membership(f, v)
    # a representative of a face fails strictness for every proper subface
    for c in fc.covers:
        g, f = fc.cone_faces[c.lower], fc.cone_faces[c.upper]
        assert not q.relint_membership(g, reps[f])


def test_non_pointed_cone_rejected():
    with pytest.raises(ValueError):
        AffineSemigroup(2, [(1, 0)])  # half-plane: unit group nontrivial


def test_non_full_dimensional_cone_rejected():
    with pytest.raises(ValueError):
        AffineSemigroup(2, [(1, 0), (-1, 0), (0, 1)])  # a ray inside the plane


def test_non_primitive_functional_rejected():
    with pytest.raises(ValueError):
        AffineSemigroup(2, [(2, 0), (0, 1)])


def test_redundant_functional_tolerated():
    # tau3 = tau1 + tau2 cuts no new facet; the lattice is the quadrant's
    q = AffineSemigroup(2, [(1, 0), (0, 1), (1, 1)])
    fc = face_lattice(q)
    assert sorted(f.dim for f in fc.faces) == [0, 1, 1, 2]
    assert validate(fc).ok


def test_face_with_vanishing_closes_up():
    q = square_cone()
    # tau1 and tau2 vanish together only on the ray (0,0,1); adding tau3,
    # tau4 closes automatically
    f = q.face_with_vanishing([0, 1])
    assert f.dim == 1 and f.interior_point == (0, 0, 1)


def test_incidence_axiom_on_orthants():
    for d in (2, 3, 4):
        fc = face_lattice(AffineSemigroup.orthant(d))
        assert len(fc.faces) == 2**d
        rep = validate(fc)
        assert rep.ok, rep.problems


def _units(d):
    return [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]


def test_orthant_closed_form_equals_generic_enumeration():
    for d in range(1, 9):
        closed, generic = AffineSemigroup.orthant(d), AffineSemigroup(d, _units(d))
        assert closed.functionals == generic.functionals
        assert closed.rays == generic.rays
        assert closed._ray_vanishing == generic._ray_vanishing
        assert closed.face_count == generic.face_count == 2**d
        assert "_tables" not in vars(closed)  # the orthant's faces are built on first use
        assert closed.faces() == generic.faces()  # same faces in the same order
        for f in generic.faces():
            assert closed.rays_of(f) == generic.rays_of(f)
            assert closed.relations_of(f) == generic.relations_of(f)
            assert len(generic.relations_of(f)) == d - f.dim
        for k in range(d + 1):
            for f in generic.faces():
                sel = sorted(f.vanishing)[:k]
                assert closed.face_with_vanishing(sel) == generic.face_with_vanishing(sel)


def test_cone_of_simplicial_leaves_the_orthant_implicit():
    sc = SimplicialComplex.from_facets(16, [{1, 2}])
    tracemalloc.start()
    try:
        fc = cone_of_simplicial(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fc.faces) == 4 and fc.semigroup.face_count == 65536
    assert peak < 2**20  # bytes; listing the 65536 faces of N^16 takes about 75 MB
    assert "_tables" not in vars(fc.semigroup)


def test_orthant_needs_a_positive_dimension():
    for d in (0, -1):
        with pytest.raises(ValueError):
            AffineSemigroup.orthant(d)


def _membership_oracle(q, cf, a):
    """(on the face, in its relative interior), evaluating every functional."""
    values = [sum(c * x for c, x in zip(t, a)) for t in q.functionals]
    if any(v < 0 for v in values):
        return False, False
    zero = {i for i, v in enumerate(values) if v == 0}
    return cf.vanishing <= zero, cf.vanishing == zero


def _probe_degrees(q, rng, n=40):
    out = [(0,) * q.d]
    out += [f.interior_point for f in q.faces()]
    out += [tuple(x - 1 if j == 0 else x for j, x in enumerate(f.interior_point)) for f in q.faces()]
    for _ in range(n):
        out.append(tuple(rng.choice((-2, -1, 0, 0, 0, 1, 2, 3)) for _ in range(q.d)))
    return out


def test_face_membership_agrees_with_direct_evaluation():
    rng = random.Random(6061)
    complexes = [face_lattice(AffineSemigroup.orthant(d)) for d in range(1, 6)]
    complexes += [face_lattice(q) for q in (square_cone(), hexagon_cone(), cube_cone())]
    complexes.append(cone_of_simplicial(SimplicialComplex.from_facets(4, [{1, 2}, {2, 3, 4}])))
    for fc in complexes:
        q = fc.semigroup
        for a in _probe_degrees(q, rng):
            containing = fc.faces_containing(a)
            for f in fc.faces:
                on, relint = _membership_oracle(q, fc.cone_faces[f.id], a)
                assert (f.id in containing) == on == fc.contains_degree(f.id, a), (a, f.label)
                assert fc.relint_contains(f.id, a) == relint, (a, f.label)


def test_each_interior_point_vanishes_exactly_on_its_face():
    # verify_exactness reads the faces live at the interior point of a face
    # of the complex off its upper set, and skips the other ambient faces
    cones = [AffineSemigroup.orthant(d) for d in range(1, 6)] + [square_cone(), hexagon_cone(), cube_cone()]
    for q in cones:
        for f in q.faces():
            assert q.zero_set(f.interior_point) == f.vanishing, (q.functionals, f.label())
    complexes = [face_lattice(q) for q in cones]
    complexes += [subcomplex(fc, ids) for fc in complexes[-3:] for ids in combinations(fc.faces_of_dim(fc.dim - 1), 2)]
    complexes += [cone_of_simplicial(sc) for sc in random_sweep(60, 20201)]
    for q in cones[-3:]:  # the subcomplexes that 'delta' lines select
        text = f"semigroup\nambient {q.d}\n" + "".join(f"functional {' '.join(map(str, t))}\n" for t in q.functionals)
        complexes.append(parse_input_text(text + "delta 1\ndelta 2\ndelta 1 3\n").fc)
    for fc in complexes:
        for g in fc.faces:
            assert fc.faces_containing(fc.cone_faces[g.id].interior_point) == fc.above(g.id), g.label
        outside = [f for f in fc.semigroup.faces() if f not in fc.cone_faces.values()]
        assert all(not fc.faces_containing(f.interior_point) for f in outside)


def _random_pointed_cone(rng: random.Random, d: int) -> AffineSemigroup:
    """A pointed, full-dimensional cone in dimension ``d``, cut out by
    functionals with entries in -2..3 that are positive on (1, ..., 1);
    ``d + 1`` to ``d + 4`` are drawn, again until they have full rank."""
    while True:
        functionals = set()
        for _ in range(rng.randint(d + 1, d + 4)):
            t = [rng.randint(-2, 3) for _ in range(d)]
            g = math.gcd(*t)
            if sum(t) > 0:
                functionals.add(tuple(x // g for x in t))
        try:
            return AffineSemigroup(d, sorted(functionals))
        except ValueError:
            continue


def _oracle_cones():
    rng = random.Random(13013)
    cones = [AffineSemigroup.orthant(d) for d in range(1, 6)]
    cones += [square_cone(), hexagon_cone(), cube_cone()]
    cones += [_random_pointed_cone(rng, d) for _ in range(50) for d in (2, 3, 4)]
    return cones


def test_cover_signs_match_the_dense_orientation_oracle():
    # each sign read off the relations of one rank-one update per face
    # equals the determinant sign of the dense rref bases, cover for cover,
    # and the relations are those of one reduction of the face's ray matrix
    checked = nonsimplicial = 0
    for q in _oracle_cones():
        got = [(c.lower, c.upper, c.sign) for c in face_lattice(q).covers]
        assert got == dense_covers(q), q.functionals
        checked += len(got)
        nonsimplicial += any(len(q.rays_of(f)) > f.dim for f in q.faces())
        for f in q.faces():
            rays = q.rays_of(f)
            assert_same(_echelon_basis(rays), canonical(dense_echelon_basis(rays), QQ))
            assert q.relations_of(f) == _raw_relations(Mat.from_rows(rays, QQ, cols=q.d).columns, QQ)[0]
    assert checked > 3000 and nonsimplicial > 50


def _moment_functionals(count: int, d: int):
    return [tuple(t**j for j in range(d)) for t in range(1, count + 1)]


def test_faces_and_covers_match_the_pairwise_oracle():
    # faces found by vanishing set from the apex up, and covers as the
    # minimal joins with one ray, equal the per-pair enumeration and the
    # all-pairs cover search
    cones = _oracle_cones() + [AffineSemigroup(8, _units(8)), AffineSemigroup(7, _moment_functionals(8, 7))]
    for q in cones:
        faces, rays_of = pairwise_faces(q)
        assert [(f.vanishing, f.dim, f.interior_point) for f in q.faces()] == faces, q.functionals
        assert {f.vanishing: q.rays_of(f) for f in q.faces()} == rays_of
        got = [(c.lower, c.upper, c.sign) for c in face_lattice(q).covers]
        assert got == pairwise_covers(faces, rays_of), q.functionals
    assert len(cones[-2].faces()) == 256 and len(cones[-1].faces()) == 226


def test_face_with_vanishing_equals_direct_evaluation():
    # the closure read off cached ray vanishing sets equals the one that
    # evaluates every functional on every ray
    rng = random.Random(404)
    for q in _oracle_cones()[::7]:
        n = len(q.functionals)
        for _ in range(10):
            given = rng.sample(range(n), rng.randint(0, n))
            rays = [r for r in q.rays if all(q.evaluate(i, r) == 0 for i in given)]
            vanishing = frozenset(i for i in range(n) if all(q.evaluate(i, r) == 0 for r in rays))
            want = next(f for f in q.faces() if f.vanishing == vanishing) if rays else q.faces()[0]
            assert q.face_with_vanishing(given) == want


def _rays_or_error(build):
    """The rays, or the message, functionals and rank of the DegenerateConeError."""
    try:
        return build()
    except DegenerateConeError as exc:
        return str(exc), exc.functionals, exc.rank


def _fuzzed_functional_sets(rng: random.Random, count: int):
    """``count`` draws of a dimension 1..4 and up to d + 3 primitive
    functionals with entries in -2..2, with up to two of them repeated or
    negated; most cut out degenerate cones of all three kinds."""
    for _ in range(count):
        d = rng.randint(1, 4)
        functionals = []
        for _ in range(rng.randint(1, d + 3)):
            t = [rng.randint(-2, 2) for _ in range(d)]
            if any(t):
                g = math.gcd(*t)
                functionals.append(tuple(x // g for x in t))
        for _ in range(rng.randint(0, 2)):
            if functionals:
                t = rng.choice(functionals)
                t = t if rng.random() < 0.5 else tuple(-x for x in t)
                functionals.insert(rng.randint(0, len(functionals)), t)
        yield d, functionals


def test_rays_match_the_subset_oracle():
    # the double description rays equal those of one reduction per
    # (d - 1)-subset of functionals, and a degenerate cone fails alike
    cones = [(q.d, q.functionals) for q in _oracle_cones()]
    cones += [(12, _units(12)), (11, _moment_functionals(12, 11))]
    for d, functionals in cones:
        assert AffineSemigroup(d, functionals).rays == subset_rays(d, functionals), functionals
    kinds = set()
    for d, functionals in _fuzzed_functional_sets(random.Random(2525), 3000):
        got = _rays_or_error(lambda: AffineSemigroup(d, functionals).rays)
        assert got == _rays_or_error(lambda: subset_rays(d, functionals)), (d, functionals)
        kinds.add(got[0].partition(" rank")[0] if isinstance(got[0], str) else "valid")
    assert kinds == {
        "valid",
        "cone is not pointed: the functionals have",
        "cone is not full-dimensional: it is the apex alone, of",
        "cone is not full-dimensional: its rays have",
    }

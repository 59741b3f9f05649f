import pytest

from zeemac import (
    AffineSemigroup,
    QQ,
    face_lattice,
    validate,
)

from .helpers import square_cone


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

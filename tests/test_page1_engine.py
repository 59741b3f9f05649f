"""Page 1 from per-face local cohomology against the row-wise reference.

The library assembles page 1 from the cohomology near each face and its
restriction blocks; ``row_page1.row_page1_data`` reduces each whole row of
the double complex instead.  Representatives, d1, and the page 2 built on
them must agree exactly; so must the library's batched sparse page 2 and
``dense_page2.dense_page2_data``, the per-class dense zigzag run on the
reference page 1.  Per-face cohomology must be computed once however many
consumers read it.
"""

import pytest

from zeemac import (
    GF,
    QQ,
    CohomologySummary,
    Mat,
    NotCohenMacaulayError,
    build,
    cone_of_simplicial,
    face_lattice,
    is_cohen_macaulay,
    minimal_linear_resolution,
    page,
)
from zeemac import cohomology
from zeemac.zeeman import _page1_data, _page2_data

from .dense_page2 import dense_page2_data
from .helpers import bowtie, d2_witness, densify, hollow_triangle, random_sweep, rp2, square_cone, square_cone_two_facets
from .row_page1 import row_page1_data

FIELDS = (QQ, GF(2), GF(3))


def assert_matches_row_reference(fc, field, a=None):
    z, ref = build(fc, a, field), build(fc, a, field)
    row_page1_data(ref)  # cached on ref, so page(ref, 2) is built on the reference
    new, old = _page1_data(z), ref._page1
    assert list(new.summaries.items()) == list(old.summaries.items())
    assert list(new.dmats.items()) == list(old.dmats.items())
    p2, ref2 = page(z, 2), page(ref, 2)
    assert p2.dims == ref2.dims
    assert list(p2.diffs.items()) == list(ref2.diffs.items())
    got, want = _page2_data(z), dense_page2_data(ref)
    reps = {k: tuple(densify(v, len(new.summaries[k])) for v in vs) for k, vs in got.reps.items()}
    assert list(reps.items()) == list(want.reps.items())
    assert list(got.d2.items()) == list(want.d2.items())


def fixtures():
    return [
        cone_of_simplicial(hollow_triangle()),
        cone_of_simplicial(bowtie()),
        cone_of_simplicial(rp2()),
        cone_of_simplicial(d2_witness()),
        face_lattice(square_cone()),
        square_cone_two_facets()[0],
    ]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
def test_engine_matches_row_reference_on_fixtures(field):
    for fc in fixtures():
        assert_matches_row_reference(fc, field)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
def test_engine_matches_row_reference_on_random_complexes(field):
    for sc in random_sweep(30, 4242):
        assert_matches_row_reference(cone_of_simplicial(sc), field)


def test_engine_matches_row_reference_at_nonzero_degree():
    two_facets, _ = square_cone_two_facets()
    z = build(two_facets, (0, 0, 1), QQ)
    assert page(z, 1).dims == {(2, -1): 1, (2, -2): 2}  # d1 is a nonzero 2x1 block
    for field in FIELDS:
        for a in ((0, 0, 1), (1, 0, 1)):
            assert_matches_row_reference(two_facets, field, a)
        assert_matches_row_reference(face_lattice(square_cone()), field, (1, 0, 1))
        assert_matches_row_reference(cone_of_simplicial(bowtie()), field, (0, 0, 1, 0, 0))


def run_every_consumer(fc, field) -> None:
    """The CM check, pages 1 and 2 and the minimal linear resolution."""
    is_cohen_macaulay(fc, field)
    z = build(fc, None, field)
    page(z, 1)
    page(z, 2)
    if field == QQ:
        minimal_linear_resolution(fc, field)
    else:
        with pytest.raises(NotCohenMacaulayError):
            minimal_linear_resolution(fc, field)


@pytest.mark.parametrize("field", (QQ, GF(2)), ids=lambda f: f.label())
def test_each_face_summary_computed_once(monkeypatch, field):
    fc = cone_of_simplicial(rp2())  # Cohen-Macaulay over QQ, not over GF(2)
    built_near = []
    near = cohomology._near

    def counting(fc, g, field):
        out = near(fc, g, field)
        built_near.append(out.basis(out.summary.lo))  # the upper set of g starts at g alone
        return out

    monkeypatch.setattr(cohomology, "_near", counting)
    run_every_consumer(fc, field)
    assert sorted(built_near) == [(f.id,) for f in fc.faces]


@pytest.mark.parametrize("field", (QQ, GF(2)), ids=lambda f: f.label())
def test_the_store_keeps_no_upper_set_complex(field):
    # per face: bases, summary, and reduced coboundaries only where a class is read modulo them
    fc = cone_of_simplicial(rp2())
    run_every_consumer(fc, field)
    store = fc._local_cohomology[field]
    assert sorted(key[1] for key in store if key[0] == "near") == [f.id for f in fc.faces]
    kept = 0
    for key, value in store.items():
        if key[0] == "restriction":
            assert all(isinstance(m, Mat) for m in value.values())
            continue
        bases, summary, coboundaries = value
        assert all(isinstance(level, tuple) and all(isinstance(f, int) for f in level) for level in bases)
        assert isinstance(summary, CohomologySummary)
        assert set(coboundaries) <= {p for p in range(summary.lo, summary.hi + 1) if summary.dim(p)}
        for p, columns in coboundaries.items():
            assert all(type(col) is dict and max(col) == r for r, col in columns.items()), (key, p)
            kept += 1
    assert kept > 0

import gc
import math
import random
import tracemalloc
from itertools import combinations

import pytest

from zeemac import (
    AffineSemigroup,
    GF,
    QQ,
    SimplicialComplex,
    build,
    concentration_check,
    cone_of_simplicial,
    face_lattice,
    horizontal_cohomology_dims,
    local_cohomology,
    page,
    total_complex,
    vertical_cohomology_dims,
)
from zeemac.cohomology import cohomology_summary
from zeemac.complexes import MissingGeometryError
from zeemac.formats import parse_input_text
from zeemac.resolutions import evaluation_degrees
from zeemac.linalg import Mat
from zeemac.zeeman import UnsupportedPageError, diagonal_sign

from .helpers import bowtie, hollow_triangle, random_simplicial, random_sweep, rp2, sparsify


def block_sizes(z):
    return {k: len(v) for k, v in sorted(z.blocks.items())}


def test_hollow_triangle_block_sizes():
    z = build(cone_of_simplicial(hollow_triangle()))
    assert block_sizes(z) == {
        (0, 0): 1,
        (1, 0): 3,
        (2, 0): 3,
        (1, -1): 3,
        (2, -1): 6,
        (2, -2): 3,
    }
    assert sum(len(v) for v in z.blocks.values()) == 19


def test_single_vertex_block_sizes():
    z = build(cone_of_simplicial(SimplicialComplex.from_facets(1, [{1}])))
    assert block_sizes(z) == {(0, 0): 1, (1, 0): 1, (1, -1): 1}


def _check_identities(z):
    field = z.field
    for (p, q) in z.blocks:
        v1 = z.vert(p, q)
        v2 = z.vert(p, q + 1)
        if v2.rows and v1.cols:
            assert v2.mul(v1).is_zero()
        h1 = z.horiz(p, q)
        h2 = z.horiz(p + 1, q)
        if h2.rows and h1.cols:
            assert h2.mul(h1).is_zero()
        a = z.vert(p + 1, q).mul(z.horiz(p, q))
        b = z.horiz(p, q + 1).mul(z.vert(p, q))
        s = Mat.from_rows([[x + y for x, y in zip(a.row(i), b.row(i))] for i in range(a.rows)], field, a.cols)
        assert s.is_zero()


def test_double_complex_identities_randomized():
    rng = random.Random(61)
    for _ in range(30):
        fc = cone_of_simplicial(random_simplicial(rng))
        for f in (QQ, GF(2)):
            _check_identities(build(fc, None, f))


def test_diagonal_sign_table():
    assert [diagonal_sign(n) for n in range(5)] == [1, -1, -1, 1, 1]


def test_augmentation_is_a_cocycle():
    rng = random.Random(67)
    for _ in range(10):
        fc = cone_of_simplicial(random_simplicial(rng))
        tot = total_complex(build(fc))
        d0 = tot.complex.diff(0)
        assert not any(d0.mul_vec(tot.augmentation))


def test_total_cohomology_of_hollow_triangle():
    z = build(cone_of_simplicial(hollow_triangle()))
    tot = total_complex(z)
    summary = cohomology_summary(tot.complex)
    assert [summary.dim(n) for n in range(3)] == [1, 0, 0]
    # the one class is spanned by the augmentation
    from zeemac.linalg import solve_columns

    assert solve_columns([sparsify(tot.augmentation, QQ)], summary.reps(0), QQ) != [None]


def test_total_cohomology_single_vertex():
    z = build(cone_of_simplicial(SimplicialComplex.from_facets(1, [{1}])))
    summary = cohomology_summary(total_complex(z).complex)
    assert summary.dim(0) == 1 and summary.total() == 1


def test_page1_hollow_triangle_concentrated():
    z = build(cone_of_simplicial(hollow_triangle()))
    p1 = page(z, 1)
    assert p1.dims == {(2, 0): 1, (2, -1): 3, (2, -2): 3}
    assert concentration_check(z).ok


def test_page1_bowtie_concentration_fails():
    z = build(cone_of_simplicial(bowtie()))
    conc = concentration_check(z)
    assert not conc.ok
    # the shared-vertex ray contributes below the top column
    assert conc.violations == ((2, -1, 1),)


def test_page1_matches_local_cohomology():
    # page 1 is assembled from per-face local cohomology; the rank-only row
    # dimensions come from whole rows written from the covers, sharing no
    # code with it
    rng = random.Random(71)
    for _ in range(12):
        fc = cone_of_simplicial(random_simplicial(rng))
        z = build(fc)
        p1 = page(z, 1)
        assert horizontal_cohomology_dims(z) == p1.dims
        expected = {}
        for f in fc.faces:
            summary = local_cohomology(fc, f.id, QQ)
            for p in range(summary.lo, summary.hi + 1):
                d = summary.dim(p)
                if d:
                    key = (p, -f.dim)
                    expected[key] = expected.get(key, 0) + d
        assert p1.dims == expected


def test_euler_characteristic_constant_across_pages():
    rng = random.Random(73)
    for _ in range(10):
        fc = cone_of_simplicial(random_simplicial(rng))
        z = build(fc)
        values = {page(z, r).euler() for r in (0, 1, 2, math.inf)}
        assert len(values) == 1


def test_unsupported_page_rejected():
    z = build(cone_of_simplicial(hollow_triangle()))
    with pytest.raises(UnsupportedPageError):
        page(z, 3)


def test_build_degree_errors():
    fc = cone_of_simplicial(hollow_triangle())
    with pytest.raises(ValueError):
        build(fc, (1, 0))  # wrong length
    with pytest.raises(ValueError):
        build(fc, (1, 0, "x"))


def test_build_nonzero_degree_needs_geometry():
    text = "polyhedral\nambient 1\nface 0 0 o\nface 1 1 r\ncover 0 1 +1\n"
    fc = parse_input_text(text).fc
    build(fc)  # ordinary degree works without geometry
    with pytest.raises(MissingGeometryError):
        build(fc, (1,))


def test_graded_build_on_quadrant():
    q = AffineSemigroup.orthant(2)
    fc = face_lattice(q)
    z = build(fc, (1, 0), QQ)
    assert block_sizes(z) == {(1, -1): 1, (2, -1): 1, (2, -2): 1}
    assert vertical_cohomology_dims(z) == {(1, -1): 1}


def test_vertical_cohomology_at_degree_zero():
    rng = random.Random(79)
    for _ in range(10):
        fc = cone_of_simplicial(random_simplicial(rng))
        assert vertical_cohomology_dims(build(fc)) == {(0, 0): 1}


def test_terminal_page_at_degree_zero():
    rng = random.Random(83)
    for _ in range(10):
        fc = cone_of_simplicial(random_simplicial(rng))
        pinf = page(build(fc), math.inf)
        assert pinf.total_by_degree() == {0: 1}


def test_terminal_page_at_general_degrees():
    q = AffineSemigroup.orthant(3)
    fc = cone_of_simplicial(hollow_triangle())
    # on a face of the complex: one-dimensional abutment; off it: zero
    on = build(fc, (2, 1, 0), QQ)
    off = build(fc, (1, 1, 1), QQ)
    assert page(on, math.inf).total_by_degree() == {0: 1}
    assert page(off, math.inf).total_by_degree() == {}
    outside = build(fc, (-1, 0, 0), QQ)
    assert page(outside, math.inf).total_by_degree() == {}


def test_bowtie_knight_move_differential():
    z = build(cone_of_simplicial(bowtie()))
    p2 = page(z, 2)
    assert p2.dims == {(2, -1): 1, (3, -3): 2}
    d2 = p2.diffs[(3, -3)]
    assert (d2.rows, d2.cols) == (1, 2)
    from .chain_ranks import rank

    assert rank(d2) == 1
    # its cohomology matches the terminal page
    pinf = page(z, math.inf)
    assert pinf.dims == {(3, -3): 1}


def test_rp2_concentration_matches_cm():
    fc = cone_of_simplicial(rp2())
    assert concentration_check(build(fc, None, QQ)).ok
    assert concentration_check(build(fc, None, GF(3))).ok
    assert not concentration_check(build(fc, None, GF(2))).ok


def test_build_holds_at_most_80_bytes_per_pair():
    # build stores no pair: per admitted face g one tuple of its runs, the
    # faces above g level by level, and one tuple of their offsets
    sphere = SimplicialComplex.from_facets(9, [frozenset(f) for f in combinations(range(1, 10), 8)])
    fc = cone_of_simplicial(sphere)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        z = build(fc, None, GF(2))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    pairs = sum(len(level) for levels in z.runs.values() for level in levels)
    assert pairs == sum(z.sizes) == 19171
    assert held / pairs <= 80, held / pairs


def test_build_and_concentration_write_no_total_complex():
    # cm-check builds and runs the concentration check only, which streams
    # the block maps, and the terminal page is read off the admitted faces:
    # none of them may fill the total complex, and build holds no matrix
    for sc in (hollow_triangle(), bowtie(), rp2()):
        z = build(cone_of_simplicial(sc), None, GF(2))
        held = [x for v in vars(z).values() for x in (v.values() if isinstance(v, dict) else (v,))]
        assert not any(isinstance(x, Mat) for x in held)
        assert z._total is None
        concentration_check(z)
        assert z._total is None
        page(z, math.inf)
        assert z._total is None


def assert_blocks_are_ranges_of_the_total(z):
    """Each block is one contiguous range of its total degree, and
    ``horiz``/``vert`` are the row-and-column ranges of the total
    differential at the blocks they join, which together hold every entry."""
    tot = total_complex(z).complex
    index = [{pair: i for i, pair in enumerate(level)} for level in tot.labels]

    def span(p, q):
        pairs = z.block(p, q)
        at = [index[p + q][pair] for pair in pairs]
        start = at[0] if at else 0
        assert at == list(range(start, start + len(at))), (p, q)
        return start, len(at)

    for (p, q) in z.blocks:
        c0, cols = span(p, q)
        d = tot.diff(p + q)
        outside = [dict(d.columns[c0 + j]) for j in range(cols)]
        for target, m in (((p + 1, q), z.horiz(p, q)), ((p, q + 1), z.vert(p, q))):
            r0, rows = span(*target)
            expected = [{i - r0: x for i, x in col.items() if r0 <= i < r0 + rows} for col in outside]
            assert m == Mat(rows, cols, expected, z.field), ((p, q), target)
            for col in outside:
                for i in range(r0, r0 + rows):
                    col.pop(i, None)
        assert not any(outside), (p, q)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_block_maps_are_ranges_of_the_total_differentials(field):
    for sc in random_sweep(30, 20261019):
        assert_blocks_are_ranges_of_the_total(build(cone_of_simplicial(sc), None, field))
    for sc in (bowtie(), rp2()):
        fc = cone_of_simplicial(sc)
        for a in evaluation_degrees(fc):
            if any(a):
                assert_blocks_are_ranges_of_the_total(build(fc, a, field))

"""The sparse ``Mat``, its rank kernel and the terminal page against dense
references.

``chain_ranks.rank`` runs one sparse column reduction (``reduce_columns``)
of the matrix's columns; ``dense_ranks`` keeps the dense row eliminations
and the dense products they replaced.  On seeded random matrices (entries beyond
+-1, non-integral fractions, zero rows and columns, empty shapes and
orders, permuted orders, rational matrices read over F_2) both must give
the same column-prefix ranks, the row-suffix ranks read off the pivot rows
must equal the dense prefix ranks of the transpose in reverse row order,
products, transposes and entry reads must match the dense ones, no column
may store a zero, and E-infinity must match the dense filtered-cohomology
dimensions.  Kernels, solves (one at a time and in one batch) and echelon
representatives, all read off the same column reduction, must equal what
the dense ``_rref`` gave, value for value and scalar type for scalar type,
once the oracle's scalars are put in canonical form (over QQ an ``int`` when integral).  The reduced image
that the kernel's own reduction leaves (``uncleared.kernel_and_image``)
must span what the dense pivot columns span, and the per-degree
cohomology summary, which reduces each differential once with clearing,
must equal the dense kernel, image and representative selection degree
by degree.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from zeemac import GF, QQ, SimplicialComplex, build, cone_of_simplicial, face_lattice, page, subcomplex, total_complex
from zeemac.cohomology import CohomologySummary, VSComplex, cochain_complex, cohomology_summary
from zeemac.complexes import DegenerateComplexError
from zeemac.linalg import (
    Mat,
    reduce_columns,
    solve_columns,
)
from zeemac.resolutions import evaluation_degrees

from .chain_ranks import kernel_basis, rank
from .dense_ranks import (
    dense_column_prefix_ranks,
    dense_echelon_representatives,
    dense_image_basis,
    dense_infinity_dims,
    dense_kernel_basis,
    dense_mul,
    dense_mul_vec,
    dense_rank,
    dense_solve_in_subspace,
    dense_total_differentials,
)
from .helpers import (
    assert_same,
    bowtie,
    canonical,
    cube_cone,
    densify,
    four_rays_under_one_face,
    hexagon_cone,
    hollow_triangle,
    random_sweep,
    rp2,
    sparsify,
    square_cone,
    square_cone_two_facets,
)
from .reduced_einf import reduced_infinity_dims
from .uncleared import kernel_and_image, representatives, row_suffix_ranks

FIELDS = (QQ, GF(2), GF(3), GF(2**61 - 1))


def _scalar(rng: random.Random, odd_denominators: bool):
    roll = rng.random()
    if roll < 0.45:
        return 0
    if roll < 0.75:
        return rng.choice((1, -1))
    if roll < 0.9:
        return rng.randint(-9, 9)
    den = rng.choice((3, 5, 7) if odd_denominators else (2, 3, 4, 5, 6))
    return Fraction(rng.randint(-7, 7), den)


def random_matrix(rng: random.Random, odd_denominators: bool = False) -> list[list]:
    """Rows of a random matrix of shape up to 7x7, some rows and columns
    forced to zero; 0xn and nx0 shapes occur."""
    r, c = rng.randint(0, 7), rng.randint(0, 7)
    rows = [[_scalar(rng, odd_denominators) for _ in range(c)] for _ in range(r)]
    for i in range(r):
        if rng.random() < 0.15:
            rows[i] = [0] * c
    for j in range(c):
        if rng.random() < 0.15:
            for row in rows:
                row[j] = 0
    return rows


def random_orders(rng: random.Random, ncols: int) -> list[list[int]]:
    perm = list(range(ncols))
    rng.shuffle(perm)
    return [[], list(range(ncols)), perm, perm[: rng.randint(0, ncols)]]


def _field_safe(rows, field):
    # over F_p a denominator divisible by p has no reduction
    if field.p is None:
        return rows
    return [[x if not isinstance(x, Fraction) or x.denominator % field.p else 0 for x in row] for row in rows]


def sparse_columns(m: Mat, field) -> list[dict]:
    return [{i: x for i in range(m.rows) if (x := field.reduce(m.entry(i, j)))} for j in range(m.cols)]


def assert_sparse(m: Mat):
    """Exactly ``cols`` columns, rows in range, and no stored zero."""
    assert len(m.columns) == m.cols
    for col in m.columns:
        assert all(0 <= i < m.rows and x for i, x in col.items())


def assert_mat_matches_dense(m: Mat, dense: list[list], field):
    """``m`` against its reduced dense rows: accessors, products, transpose."""
    r, c = m.rows, m.cols
    assert_sparse(m)
    assert m.entries == tuple(x for row in dense for x in row)
    assert [m.entry(i, j) for i in range(r) for j in range(c)] == [dense[i][j] for i in range(r) for j in range(c)]
    assert [m.row(i) for i in range(r)] == [tuple(row) for row in dense]
    assert [m.col(j) for j in range(c)] == [tuple(dense[i][j] for i in range(r)) for j in range(c)]
    assert m.is_zero() == all(x == 0 for row in dense for x in row)
    assert Mat.from_rows(dense, field, c) == m
    assert Mat(r, c, [{i: dense[i][j] for i in range(r) if dense[i][j]} for j in range(c)], field) == m
    t = m.transpose()
    assert_sparse(t)
    assert t == Mat.from_rows([[dense[i][j] for i in range(r)] for j in range(c)], field, r)
    for a, b in ((m, t), (t, m)):
        ab = a.mul(b)
        assert_sparse(ab)
        assert ab == dense_mul(a, b, field)
    for v in [m.row(i) for i in range(r)] + [(1,) * c, (0,) * c]:
        assert m.mul_vec(v) == dense_mul_vec(m, v, field)


def assert_matches_dense(m: Mat, field, rng: random.Random):
    assert rank(m) == dense_rank(m, field)
    assert rank(m.transpose()) == rank(m)
    orders = random_orders(rng, m.cols)
    for order in orders:
        assert reduce_columns([m.columns[j] for j in order], field)[0] == dense_column_prefix_ranks(m, field, order)
    # one reduction of all columns, in any order, gives every row-suffix rank
    reversed_rows = list(range(m.rows))[::-1]
    suffix = dense_column_prefix_ranks(m.transpose(), field, reversed_rows)
    cols = sparse_columns(m, field)
    for order in orders[1:3]:  # the identity and a permutation
        ranks, pivots = reduce_columns([cols[j] for j in order], field)
        assert ranks == dense_column_prefix_ranks(m, field, order)
        assert row_suffix_ranks(pivots, m.rows) == suffix
    assert cols == sparse_columns(m, field)  # the reduction leaves its input alone


def assert_sparse_vectors(vectors, n: int, field):
    """Sparse vectors over ``n`` coordinates: no stored zero, scalars reduced."""
    for v in vectors:
        assert all(0 <= i < n and x and field.reduce(x) == x for i, x in v.items())


def assert_image_matches_dense(image: dict, dense_image, n: int, field):
    """A reduced image against the dense pivot columns: as many columns,
    each keyed by its largest row (scaled to 1 there over F_p), spanning
    the same space.  Over F_2 the reduced columns are sets of rows."""
    cols = [dict.fromkeys(col, 1) if field.p == 2 else col for col in image.values()]
    assert len(cols) == len(dense_image)
    assert_sparse_vectors(cols, n, field)
    for r, col in zip(image, cols):
        assert r == max(col)
        assert field.p is None or col[r] == 1
    dense_cols = [sparsify(v, field) for v in dense_image]
    assert None not in solve_columns(cols, dense_cols, field)
    assert None not in solve_columns(dense_cols, cols, field)


def assert_eliminations_match_dense(m: Mat, field) -> tuple[int, int]:
    """Kernel, image, solves and representatives against the dense
    ``_rref``; returns how many targets were solvable and how many were
    not."""
    ker, img = kernel_and_image(m)
    assert ker == kernel_basis(m)
    assert_sparse_vectors(ker, m.cols, field)
    dense_ker = [densify(v, m.cols) for v in ker]
    assert_same(dense_ker, canonical(dense_kernel_basis(m, field), field))
    assert_image_matches_dense(img, canonical(dense_image_basis(m, field), field), m.rows, field)
    assert len(ker) + rank(m) == m.cols
    for v in dense_ker:
        assert m.mul_vec(v) == (0,) * m.rows
    gens = [m.col(j) for j in range(m.cols)]
    units = [tuple(1 if i == k else 0 for i in range(m.rows)) for k in range(m.rows)]
    targets = units + gens + [m.mul_vec((1,) * m.cols), (0,) * m.rows]
    want = [canonical(dense_solve_in_subspace(t, gens, field), field) for t in targets]

    def dense_answers(answers):
        return [None if a is None else densify(a, len(gens)) for a in answers]

    sparse_gens = [sparsify(g, field) for g in gens]
    for t, w in zip(targets, want):
        assert_same(dense_answers(solve_columns([sparsify(t, field)], sparse_gens, field)), [w])
    batch = solve_columns([sparsify(t, field) for t in targets], sparse_gens, field)
    assert_sparse_vectors([b for b in batch if b is not None], len(gens), field)
    assert_same(dense_answers(batch), want)
    # pivot selection on [image | kernel], inside and outside a true kernel;
    # the image is reduced once and the kernel reduced against it
    pairs = [(dense_ker, [tuple(field.reduce(a + b) for a, b in zip(u, v)) for u, v in zip(dense_ker, dense_ker[1:])], m.cols)]
    if m.rows:
        prod = m.mul(m.transpose())
        pairs.append((gens, [prod.col(j) for j in range(prod.cols)], m.rows))
    for kernel, image, n in pairs:
        sparse_kernel = [sparsify(v, field) for v in kernel]
        for im in (image, []):
            reduced = kernel_and_image(Mat(n, len(im), [sparsify(v, field) for v in im], field))[1]
            got = representatives(sparse_kernel, reduced, field)
            want_reps = canonical(dense_echelon_representatives(kernel, im, field), field)
            assert_same(tuple(densify(v, n) for v in got), want_reps)
    return sum(w is not None for w in want), sum(w is None for w in want)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
def test_ranks_match_dense_reference(field):
    rng = random.Random(20261018)
    solved = unsolved = 0
    for _ in range(300):
        rows = _field_safe(random_matrix(rng), field)
        m = Mat.from_rows(rows, field)
        assert_matches_dense(m, field, rng)
        assert_mat_matches_dense(m, [[field.reduce(x) for x in row] for row in rows], field)
        a, b = assert_eliminations_match_dense(m, field)
        solved, unsolved = solved + a, unsolved + b
    assert solved > 1000 and unsolved > 100


def test_rational_matrices_ranked_over_f2():
    rng = random.Random(61)
    for _ in range(300):
        rows = random_matrix(rng, odd_denominators=True)
        mq = Mat.from_rows(rows, QQ)
        m = Mat.from_rows(rows, GF(2), mq.cols)
        assert_matches_dense(m, GF(2), rng)
        # the dense oracle reduces the rational products into F_2 at the end
        assert m.mul(m.transpose()) == dense_mul(mq, mq.transpose(), GF(2))
        assert m.mul_vec((1,) * m.cols) == dense_mul_vec(mq, (1,) * m.cols, GF(2))
        assert dense_rank(mq, GF(2)) == rank(m)
        assert_mat_matches_dense(m, [[GF(2).reduce(x) for x in row] for row in rows], GF(2))
        assert_eliminations_match_dense(m, GF(2))


def test_empty_shapes_and_orders():
    for field in FIELDS:
        for r, c in ((0, 0), (0, 4), (4, 0), (3, 3)):
            z = Mat.zeros(r, c, field)
            assert rank(z) == 0
            assert reduce_columns(z.columns, field)[0] == [0] * c
            assert reduce_columns([], field)[0] == []
            assert_eliminations_match_dense(z, field)
        for rows in ([[1, 0, 1], [0, 0, 1]], [[0, 0], [0, 2]], [[0, 3, 0, 3]], [[0], [0], [5]]):
            assert_eliminations_match_dense(Mat.from_rows(rows, field), field)


def hand_made_complexes(field) -> list[VSComplex]:
    """Small cochain complexes with empty degrees, a negative lowest
    degree and entries beyond +-1 (fractions only where ``field`` has
    them)."""

    def vs(lo, dims, diffs):
        labels = tuple(tuple(range(d)) for d in dims)
        mats = tuple(Mat.from_rows(rows, field, dims[i]) for i, rows in enumerate(diffs))
        return VSComplex(lo, lo + len(dims) - 1, labels, mats, field)

    out = [
        vs(0, [0, 2, 0], [[[], []], []]),
        vs(-1, [1, 0, 1], [[], [[]]]),
        vs(0, [2, 0, 2], [[], [[], []]]),
        vs(0, [1, 2, 1], [[[3], [6]], [[2, -1]]]),
        vs(1, [2, 3, 1], [[[1, 1], [-1, 0], [0, -1]], [[1, 1, 1]]]),
        vs(0, [3, 3], [[[2, 0, 2], [0, 0, 0], [1, 4, 1]]]),
    ]
    if field.p != 2:
        out.append(vs(0, [1, 2, 1], [[[Fraction(1, 2)], [1]], [[2, -1]]]))
    return out


def summary_cases(field) -> list[VSComplex]:
    """The hand-made complexes and the upper-set complex of every face of
    some random simplicial cones."""
    cases = hand_made_complexes(field)
    for sc in random_sweep(8, 2026):
        fc = cone_of_simplicial(sc)
        cases.extend(cochain_complex(fc, f.id, field) for f in fc.faces)
    return cases


def assert_summary_matches_dense(vs: VSComplex, field, summary: CohomologySummary):
    """A cohomology summary against the dense oracle, degree by degree: the
    kernel of d_p, the image of d_{p-1} and the pivot selection on
    [image | kernel], by value and by scalar type."""
    assert (summary.lo, summary.hi) == (vs.lo, vs.hi)
    for p in range(vs.lo, vs.hi + 1):
        ker = dense_kernel_basis(vs.diff(p), field)
        img = dense_image_basis(vs.diff(p - 1), field) if p > vs.lo else []
        want = canonical(dense_echelon_representatives(ker, img, field), field)
        assert_same(tuple(densify(v, vs.dim(p)) for v in summary.reps(p)), want)
        assert summary.dim(p) == len(want)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
def test_cohomology_summary_matches_dense_oracle(field):
    cases = summary_cases(field)
    nonzero = 0
    for vs in cases:
        summary = cohomology_summary(vs)
        assert_summary_matches_dense(vs, field, summary)
        nonzero += summary.total() > 0
    assert len(cases) > 150 and nonzero > 20


def misseeded_summary(vs: VSComplex, field, own_image: bool) -> CohomologySummary:
    """The summary with each kernel of d_p reduced against the wrong image:
    that of d_p itself (``own_image``) or none."""
    reps = []
    for p in range(vs.lo, vs.hi + 1):
        kernel, image = kernel_and_image(vs.diff(p))
        reps.append(representatives(kernel, image if own_image else {}, field))
    return CohomologySummary(vs.lo, vs.hi, tuple(map(len, reps)), tuple(reps))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
def test_summary_oracle_rejects_a_misseeded_reduction(field):
    cases = summary_cases(field)
    for own_image in (True, False):
        caught = 0
        for vs in cases:
            try:
                assert_summary_matches_dense(vs, field, misseeded_summary(vs, field, own_image))
            except AssertionError:
                caught += 1
        assert caught > len(cases) // 2


def assert_pageinf_matches_dense(fc, field, a=None):
    z = build(fc, a, field)
    diffs = list(total_complex(z).complex.diffs)
    assert diffs == dense_total_differentials(build(fc, a, field))
    assert page(z, math.inf).dims == dense_infinity_dims(build(fc, a, field))


def fixtures():
    return [
        cone_of_simplicial(hollow_triangle()),
        cone_of_simplicial(bowtie()),
        cone_of_simplicial(rp2()),
        face_lattice(square_cone()),
        square_cone_two_facets()[0],
    ]


@pytest.mark.parametrize("field", FIELDS[:3], ids=lambda f: f.label())
def test_pageinf_matches_dense_on_fixtures(field):
    for fc in fixtures():
        assert_pageinf_matches_dense(fc, field)
    # not cone-like: the reduction matches the dense filtered cohomology,
    # and the closed form refuses the complex
    fc = four_rays_under_one_face()
    assert reduced_infinity_dims(build(fc, None, field)) == dense_infinity_dims(build(fc, None, field))
    with pytest.raises(DegenerateComplexError, match="face top"):
        page(build(fc, None, field), math.inf)


@pytest.mark.parametrize("field", FIELDS[:3], ids=lambda f: f.label())
def test_pageinf_matches_dense_on_random_complexes(field):
    for sc in random_sweep(30, 777):
        assert_pageinf_matches_dense(cone_of_simplicial(sc), field)


def test_pageinf_matches_dense_at_nonzero_degree():
    for field in FIELDS[:3]:
        assert_pageinf_matches_dense(face_lattice(square_cone()), field, (1, 0, 1))
        assert_pageinf_matches_dense(square_cone_two_facets()[0], field, (0, 0, 1))


def delta_subcomplex(q, selectors):
    """The subcomplex of the face lattice of ``q`` generated by the faces
    on which the functionals of each selector vanish (0-based), as the
    ``delta`` lines of a semigroup file choose it."""
    full = face_lattice(q)
    chosen = [q.face_with_vanishing(sel) for sel in selectors]
    return subcomplex(full, [i for i, cf in full.cone_faces.items() if cf in chosen])


@pytest.mark.parametrize("field", FIELDS[:3], ids=lambda f: f.label())
def test_pageinf_matches_dense_at_every_degree_of_the_polygonal_cones(field):
    for cone in (hexagon_cone, cube_cone):
        for fc in (face_lattice(cone()), delta_subcomplex(cone(), ([0], [1]))):
            for a in evaluation_degrees(fc):
                assert_pageinf_matches_dense(fc, field, a)


def test_pageinf_of_the_6_simplex_boundary_over_f2():
    sphere = SimplicialComplex.from_facets(7, [set(s) for s in itertools.combinations(range(1, 8), 6)])
    pg = page(build(cone_of_simplicial(sphere), None, GF(2)), math.inf)
    assert pg.total_by_degree() == {0: 1}

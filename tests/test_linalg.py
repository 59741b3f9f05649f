import json
import random
from fractions import Fraction

import pytest

from zeemac.linalg import (
    Field,
    FieldMismatchError,
    GF,
    Mat,
    QQ,
    _raw_relations,
    _relations_with_row,
    echelon_coordinates,
    reduce_columns,
    solve_columns,
)

from zeemac.cohomology import VSComplex
from zeemac.complexes import SimplicialComplex, cone_of_simplicial
from zeemac.formats import _mat_from_doc, _mat_to_doc
from zeemac.resolutions import FaceModule, FaceModuleComplex

from .chain_ranks import kernel_basis, rank
from .dense_ranks import dense_kernel_basis, dense_solve_in_subspace
from .helpers import assert_same, canonical, densify, sparsify
from .uncleared import kernel_and_image

F2 = GF(2)

# boundary matrix of the hollow triangle's edges, standard simplicial signs
HOLLOW_BOUNDARY = [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]


def mat(rows, field=QQ):
    return Mat.from_rows(rows, field)


def test_from_rows_accepts_a_generator():
    m = Mat.from_rows((list(r) for r in HOLLOW_BOUNDARY), QQ)
    assert (m.rows, m.cols) == (3, 3)
    assert m == mat(HOLLOW_BOUNDARY)


def test_rank_identity():
    assert rank(Mat.identity(2, QQ)) == 2


def test_rank_characteristic_collapse():
    assert rank(mat([[2]], F2)) == 0
    assert rank(mat([[2]])) == 1
    assert mat([[2]], F2).is_zero()


def test_a_matrix_is_read_over_the_field_asked_for():
    rows = [[2, Fraction(1, 3)], [0, 1]]
    m = mat(rows, F2)
    assert m.field == F2 and mat(rows).field == QQ
    assert m == mat([[0, 1], [0, 1]], F2) != mat([[0, 1], [0, 1]])
    assert kernel_basis(m) == [{0: 1}]
    assert kernel_and_image(m) == ([{0: 1}], {1: {0, 1}})
    assert m.mul(Mat.identity(2, F2)) == m
    assert m.mul_vec((1, 1)) == (1, 1)
    with pytest.raises(FieldMismatchError):
        mat(rows, GF(3))


def test_parts_over_two_fields_do_not_meet():
    with pytest.raises(ValueError, match="over QQ by one over GF"):
        Mat.identity(2, QQ).mul(Mat.identity(2, F2))
    with pytest.raises(ValueError, match="differential 1 is over GF"):
        VSComplex(0, 2, ((0,), (0,), (0,)), (Mat.identity(1, QQ), Mat.identity(1, F2)), QQ)
    fc = cone_of_simplicial(SimplicialComplex.from_facets(1, [{1}]))
    terms = [FaceModule((1,)), FaceModule((0,))]
    with pytest.raises(ValueError, match="map 0 is over QQ"):
        FaceModuleComplex(fc, F2, terms, [Mat.identity(1, QQ)])


def test_zero_entries_read_as_the_field_zero():
    for field in (QQ, F2):
        z = Mat.zeros(2, 1, field)
        assert {type(x) for x in (z.entry(0, 0), *z.row(0), *z.col(0), *z.entries)} == {int}


def test_rank_hollow_triangle_boundary():
    assert rank(mat(HOLLOW_BOUNDARY)) == 2


def test_kernel_zero_map():
    ker = kernel_basis(Mat.zeros(2, 3, QQ))
    assert len(ker) == 3


def test_kernel_mod2_line():
    ker = kernel_basis(mat([[1, 1]], F2))
    assert ker == [{0: 1, 1: 1}]


def test_kernel_of_sum_functional():
    # three rays mapping onto one summand: two-dimensional kernel
    ker = kernel_basis(mat([[1, 1, 1]]))
    assert len(ker) == 2
    for v in ker:
        assert sum(v.values()) == 0


def test_image_identity_and_zero():
    assert kernel_and_image(Mat.identity(3, QQ)) == ([], {0: {0: 1}, 1: {1: 1}, 2: {2: 1}})
    assert kernel_and_image(Mat.zeros(2, 2, QQ)) == ([{0: 1}, {1: 1}], {})


def test_image_rank_one():
    ker, img = kernel_and_image(mat([[1, 2], [2, 4]]))
    assert ker == [{0: -2, 1: 1}]
    assert list(img) == [1]
    x, y = densify(img[1], 2)
    assert y == 2 * x and x != 0


def _solve(target, generators):
    """The one answer of ``solve_columns`` over QQ on dense input vectors."""
    return solve_columns([sparsify(target, QQ)], [sparsify(g, QQ) for g in generators], QQ)[0]


def test_solve_target_is_generator():
    assert _solve((1, 2), [(1, 2)]) == {0: 1}


def test_solve_outside_span():
    assert _solve((0, 1), [(1, 0)]) is None


def test_solve_unique_coset_coefficients():
    gens = [(1, 1, 0), (0, 1, 1)]
    assert _solve((1, 0, -1), gens) == {0: 1, 1: -1}


def test_solve_free_variables_pinned_to_zero():
    # dependent generator set: the deterministic answer uses the first one
    assert _solve((2, 2), [(1, 1), (1, 1), (2, 2)]) == {0: 2}


def test_solve_empty_generators():
    assert _solve((0, 0), []) == {}
    assert _solve((1, 0), []) is None


def test_echelon_coordinates():
    # columns ending in rows 0, 2 and 3; over QQ a pivot need not be 1
    columns = {0: {0: 1}, 2: {0: 1, 2: 2}, 3: {1: 1, 3: 1}}
    assert echelon_coordinates({0: 2, 2: 1, 3: 3, 1: 3}, columns, QQ) == {3: 3, 2: Fraction(1, 2), 0: Fraction(3, 2)}
    assert echelon_coordinates({}, columns, QQ) == {}
    assert echelon_coordinates({1: 1}, columns, QQ) is None  # no column ends in row 1
    assert echelon_coordinates({2: 1}, {2: {2: 1, 1: 1}}, GF(2)) is None  # leaves row 1
    assert echelon_coordinates({2: 1, 1: 1}, {2: {2: 2, 1: 1}, 1: {1: 1}}, GF(3)) == {2: 2, 1: 2}


def _random_matrix(rng, field, lo=-3, hi=3, max_dim=6):
    r = rng.randint(0, max_dim)
    c = rng.randint(0, max_dim)
    return Mat.from_rows([[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)], field)


@pytest.mark.parametrize("field", [QQ, F2, GF(3)])
def test_rank_transpose_and_rank_nullity(field):
    rng = random.Random(17)
    for _ in range(60):
        m = _random_matrix(rng, field)
        r = rank(m)
        assert r == rank(m.transpose())
        assert m.cols == r + len(kernel_basis(m))


@pytest.mark.parametrize("field", [QQ, F2, GF(5)])
def test_kernel_vectors_annihilate(field):
    rng = random.Random(99)
    for _ in range(40):
        m = _random_matrix(rng, field)
        for v in kernel_basis(m):
            assert not any(m.mul_vec(densify(v, m.cols)))


def test_mod_p_agrees_with_rationals_for_large_prime():
    # entries in [-3,3] and sizes <= 6: every minor is far below this prime,
    # so ranks agree unconditionally
    p = Field(1000003)
    rng = random.Random(5)
    for _ in range(40):
        rows = [[rng.randint(-3, 3) for _ in range(rng.randint(1, 6))] for _ in range(rng.randint(1, 6))]
        rows = [r + [0] * (max(len(x) for x in rows) - len(r)) for r in rows]
        mq = Mat.from_rows(rows, QQ)
        mp = Mat.from_rows(rows, p)
        assert rank(mq) == rank(mp)
        assert len(kernel_basis(mq)) == len(kernel_basis(mp))


def test_image_in_span_of_columns():
    rng = random.Random(7)
    for _ in range(20):
        m = _random_matrix(rng, QQ)
        ker, img = kernel_and_image(m)
        assert ker == kernel_basis(m)
        assert len(img) == rank(m) and all(r == max(col) for r, col in img.items())
        assert None not in solve_columns(list(img.values()), m.columns, QQ)


def test_column_prefix_ranks_match_direct_ranks():
    rng = random.Random(31)
    for field in (QQ, F2):
        for _ in range(15):
            m = _random_matrix(rng, field, max_dim=5)
            if m.cols == 0:
                continue
            order = list(range(m.cols))
            rng.shuffle(order)
            pref = reduce_columns([m.columns[j] for j in order], field)[0]
            for k in range(1, m.cols + 1):
                sub = Mat.from_rows(
                    [[m.entry(i, j) for j in order[:k]] for i in range(m.rows)], field
                )
                assert pref[k - 1] == rank(sub)


def test_field_reduce_rationals():
    assert QQ.reduce(3) == Fraction(3)
    with pytest.raises(FieldMismatchError):
        QQ.reduce(0.5)


def test_integral_rationals_are_ints():
    two, half = QQ.reduce(Fraction(4, 2)), QQ.reduce(Fraction(1, 2))
    assert two == 2 and type(two) is int
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert type(QQ.reduce(True)) is int
    m = mat([[Fraction(6, 3), Fraction(-3, 4)], [0, -1]])
    assert [type(x) for x in m.entries] == [int, Fraction, int, int]


# a QQ matrix with non-integral entries: column 1 is -3/2 column 0 and
# column 2 is 2 column 0, so its kernel mixes ints and Fractions
HALVES = [
    [Fraction(1, 2), Fraction(-3, 4), 1, 0],
    [1, Fraction(-3, 2), 2, Fraction(1, 2)],
    [0, 0, 0, Fraction(-3, 4)],
]


def test_non_integral_rationals_match_the_dense_oracle():
    m = mat(HALVES)
    ker = [densify(v, m.cols) for v in kernel_basis(m)]
    assert_same(ker, canonical(dense_kernel_basis(m, QQ), QQ))
    assert ker == [(Fraction(3, 2), 1, 0, 0), (-2, 0, 1, 0)]
    gens = [m.col(j) for j in range(m.cols)]
    units = [tuple(int(i == k) for i in range(m.rows)) for k in range(m.rows)]
    targets = gens + units + [m.mul_vec((1, Fraction(1, 3), -1, 2))]
    got = solve_columns([sparsify(t, QQ) for t in targets], [sparsify(g, QQ) for g in gens], QQ)
    want = [canonical(dense_solve_in_subspace(t, gens, QQ), QQ) for t in targets]
    assert_same([None if a is None else densify(a, len(gens)) for a in got], want)
    assert got.count(None) == 3  # no unit vector lies in the plane the columns span


def test_json_round_trip_keeps_a_rational_matrix():
    m = mat(HALVES + [[Fraction(8, 4), -1, 0, 3]])
    back = _mat_from_doc(json.loads(json.dumps(_mat_to_doc(m))), QQ)
    assert back == m
    assert [type(x) for x in back.entries] == [type(x) for x in m.entries]


def test_field_reduce_mod_p():
    assert GF(5).reduce(Fraction(1, 2)) == 3  # 2 * 3 == 1 mod 5
    with pytest.raises(FieldMismatchError):
        GF(2).reduce(Fraction(1, 2))


def test_field_validation():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(1)
    with pytest.raises(ValueError):
        Field(2**63)
    assert Field(2).p == 2 and Field(97).p == 97


def test_entries_reduced_to_canonical_form():
    m = Mat.from_rows([[Fraction(2, 4), 7]], GF(5))
    assert m.entries == (3, 2)
    mq = Mat.from_rows([[Fraction(2, 4)]], QQ)
    assert mq.entries == (Fraction(1, 2),)


def _positive_multiple(u: dict, v: dict, j: int) -> bool:
    """Whether the integer vector ``u`` is a positive multiple of ``v``,
    both nonzero at ``j``."""
    return u.keys() == v.keys() and u[j] * v[j] > 0 and all(u[k] * v[j] == v[k] * u[j] for k in u)


def test_relations_grown_row_by_row_equal_those_of_the_whole_matrix():
    # one rank-one update per row gives the tagged reduction's relations up
    # to a positive factor each; a row in the span leaves them as they are
    rng = random.Random(2511)
    in_span = 0
    for _ in range(300):
        width = rng.randint(1, 6)
        rows, relations = [], {j: {j: 1} for j in range(width)}  # no row: every column is zero
        for _ in range(rng.randint(1, 8)):
            if rows and rng.random() < 0.3:
                row = [sum(rng.randint(-2, 2) * r[k] for r in rows) for k in range(width)]
            else:
                row = [rng.randint(-3, 3) for _ in range(width)]
            pivot, grown = _relations_with_row(relations, row)
            rows.append(row)
            want = _raw_relations(mat(rows).columns, QQ)[0]
            if pivot is None:
                in_span += 1
                assert grown is relations
            else:  # the relation of the new pivot column, signed to pair positively with the row
                e = max(pivot)
                assert pivot in (relations[e], {k: -c for k, c in relations[e].items()}) and e not in grown
                assert sum(c * row[k] for k, c in pivot.items()) > 0
            assert list(grown) == list(want)
            assert all(_positive_multiple(grown[j], want[j], j) for j in want), (rows, grown, want)
            relations = grown
    assert in_span > 200

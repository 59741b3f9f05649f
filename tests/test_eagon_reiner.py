import random

import pytest

from zeemac import (
    GF,
    QQ,
    SimplicialComplex,
    alexander_dual,
    betti_from_dual,
    betti_hochster,
    cone_of_simplicial,
    dualize,
    is_cohen_macaulay,
    is_linear_table,
    minimal_linear_resolution,
)
from zeemac.complexes import VOID_COMPLEX
from zeemac.eagon_reiner import BettiTable, UnsupportedAmbientError, reduced_cohomology_dims
from zeemac.formats import MAX_VERTICES, parse_input_text
from zeemac.linalg import Mat
from zeemac.resolutions import FaceModuleComplex, total_resolution

from .brute_hochster import brute_betti_hochster, brute_reduced_cohomology_dims
from .helpers import bowtie, hollow_triangle, link_family, random_simplicial, rp2


def koszul_table(d):
    from itertools import combinations

    entries = {}
    for i in range(d):
        for c in combinations(range(1, d + 1), i + 1):
            entries[(i, frozenset(c))] = 1
    return BettiTable(entries)


def test_dualize_hollow_triangle():
    fc = cone_of_simplicial(hollow_triangle())
    dc = dualize(minimal_linear_resolution(fc, QQ))
    assert [sorted(len(s) for s in t) for t in dc.terms] == [[1, 1, 1], [2, 2, 2], [3]]
    assert dc.check_support()
    assert dc.check_composition()
    assert betti_from_dual(dc).same_entries(koszul_table(3))


def test_dual_check_composition_sees_a_pair_of_maps_that_does_not_compose():
    # the dual maps run from position i + 1 into i: the second map of the
    # hollow triangle's resolution swapped for the row [1 0 0] dualizes to
    # a column that the first dual map does not kill
    res = minimal_linear_resolution(cone_of_simplicial(hollow_triangle()), QQ)
    broken = FaceModuleComplex(res.fc, QQ, res.terms, [res.maps[0], Mat.from_rows([[1, 0, 0]], QQ)], res.augmentation)
    dc = dualize(broken)
    assert dc.maps[0].rows == 3 and dc.maps[1].cols == 1
    assert not dc.check_composition()


def test_dual_generator_degrees_increase_by_one_when_linear():
    rng = random.Random(3)
    done = 0
    while done < 6:
        sc = random_simplicial(rng)
        fc = cone_of_simplicial(sc)
        if not is_cohen_macaulay(fc, QQ).ok:
            continue
        done += 1
        res = minimal_linear_resolution(fc, QQ)
        dc = dualize(res)
        base = sc.d - fc.dim
        for i, gens in enumerate(dc.terms):
            assert all(len(s) == base + i for s in gens)


def test_hochster_koszul_case():
    # the dual of the hollow triangle is the empty-face complex; its ideal
    # is the maximal ideal, resolved by the Koszul complex
    dual = alexander_dual(hollow_triangle())
    bt = betti_hochster(dual, QQ)
    assert bt.same_entries(koszul_table(3))
    assert is_linear_table(bt)


def test_hochster_principal_ideal_by_hand():
    # the dual of the empty-face complex is the simplex boundary; its ideal
    # is generated by the single top monomial
    dual = alexander_dual(SimplicialComplex.from_facets(3, [frozenset()]))
    bt = betti_hochster(dual, QQ)
    assert bt.normalized() == {(0, frozenset({1, 2, 3})): 1}


def test_hochster_small_case_by_hand():
    # d=2, dual = {emptyset, {1}}: the ideal is generated by the other
    # variable alone
    dual = SimplicialComplex.from_facets(2, [{1}])
    bt = betti_hochster(dual, QQ)
    assert bt.normalized() == {(0, frozenset({2})): 1}


def test_hochster_full_simplex_zero_ideal():
    bt = betti_hochster(SimplicialComplex.from_facets(2, [{1, 2}]), QQ)
    assert bt.normalized() == {}
    assert not bt.void_dual
    assert is_linear_table(bt)


def test_void_dual_markers_agree():
    sc = SimplicialComplex.from_facets(3, [{1, 2, 3}])
    fc = cone_of_simplicial(sc)
    dual = alexander_dual(sc)
    assert dual is VOID_COMPLEX or getattr(dual, "is_void", False)
    oracle = betti_hochster(dual, QQ)
    assert oracle.void_dual and oracle.normalized() == {}
    via_res = betti_from_dual(dualize(minimal_linear_resolution(fc, QQ)))
    assert via_res.void_dual and via_res.normalized() == {}
    assert is_linear_table(oracle)


def test_tables_agree_on_cm_complexes():
    rng = random.Random(7)
    done = 0
    while done < 12:
        sc = random_simplicial(rng)
        fc = cone_of_simplicial(sc)
        for field in (QQ, GF(2)):
            if not is_cohen_macaulay(fc, field).ok:
                continue
            done += 1
            res = minimal_linear_resolution(fc, field)
            via_res = betti_from_dual(dualize(res))
            oracle = betti_hochster(alexander_dual(sc), field)
            assert via_res.same_entries(oracle), (sc.facets, field.label())


def test_eagon_reiner_equivalence_randomized():
    rng = random.Random(11)
    for _ in range(25):
        sc = random_simplicial(rng)
        fc = cone_of_simplicial(sc)
        for field in (QQ, GF(2)):
            cm = is_cohen_macaulay(fc, field).ok
            linear = is_linear_table(betti_hochster(alexander_dual(sc), field))
            assert cm == linear, (sc.facets, field.label())


def test_bowtie_dual_table_not_linear():
    bt = betti_hochster(alexander_dual(bowtie()), QQ)
    assert not is_linear_table(bt)


def test_empty_table_is_linear():
    assert is_linear_table(BettiTable({}))


def test_reduced_cohomology_basics():
    # the empty-face-only complex carries k in reduced degree -1
    assert reduced_cohomology_dims({frozenset()}, QQ) == {-1: 1}
    # a hollow triangle is a circle
    circle = {frozenset()} | {frozenset(s) for s in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]}
    assert reduced_cohomology_dims(circle, QQ) == {1: 1}
    # two points
    two = {frozenset(), frozenset({1}), frozenset({2})}
    assert reduced_cohomology_dims(two, QQ) == {0: 1}


def _oracle_cases() -> list:
    rng = random.Random(29)
    cases = [
        alexander_dual(hollow_triangle()),  # {empty face}: the Koszul table
        alexander_dual(SimplicialComplex.from_facets(3, [{1, 2, 3}])),  # void
        SimplicialComplex.from_facets(5, [{1, 2}, {2, 3}]),  # ghost vertices 4 and 5
        bowtie(),  # {1,2,3,4} induces a cone on 3 that is no face
        rp2(),  # needs elimination, and the answer depends on the field
    ]
    while len(cases) < 65:
        sc = random_simplicial(rng)
        cases += [sc, alexander_dual(sc)]  # the first often has ghost vertices
    return cases


def test_hochster_matches_the_brute_force_oracle():
    for dual in _oracle_cases():
        for field in (QQ, GF(2), GF(3)):
            fast = betti_hochster(dual, field)
            slow = brute_betti_hochster(dual, field)
            # same entries, inserted in the same order
            assert list(fast.entries.items()) == list(slow.entries.items()), (dual, field.label())
            assert fast.void_dual == slow.void_dual


def test_reduced_cohomology_matches_the_brute_force_oracle():
    rng = random.Random(31)
    for _ in range(40):
        sc = random_simplicial(rng)
        for s in [f for f in sc.faces() if len(f) <= 1]:  # the complex and its vertex links
            family = link_family(sc, s)
            for field in (QQ, GF(2), GF(3)):
                assert reduced_cohomology_dims(family, field) == brute_reduced_cohomology_dims(family, field)


def test_reduced_cohomology_refuses_a_family_that_is_not_a_complex():
    with pytest.raises(ValueError, match="must contain the empty face"):
        reduced_cohomology_dims({frozenset({1})}, QQ)
    stray_triangle = {frozenset(f) for f in [(), (1,), (2,), (3,), (4,), (1, 2, 3)]}  # no edges
    with pytest.raises(ValueError, match=r"must be downward closed: \[1, 2, 3\] lacks its facet \[2, 3\]"):
        reduced_cohomology_dims(stray_triangle, GF(2))


def test_hochster_at_the_vertex_guard():
    # the dual of one edge on d vertices is the join of that edge with the
    # boundary of the simplex on the other d - 2 vertices: its ideal is
    # principal, generated by the product of those d - 2 variables
    d = MAX_VERTICES
    dual = alexander_dual(SimplicialComplex.from_facets(d, [{1, 2}]))
    assert betti_hochster(dual, QQ).entries == {(0, frozenset(range(3, d + 1))): 1}


def test_betti_euler_matches_series_numerator():
    # the alternating Betti sum equals the numerator of the coarse series
    # of the dual ideal: 1 - sum over dual faces of t^|F| (1-t)^(d-|F|)
    rng = random.Random(13)
    checked = 0
    while checked < 12:
        sc = random_simplicial(rng)
        dual = alexander_dual(sc)
        if dual is VOID_COMPLEX or getattr(dual, "is_void", False):
            continue
        checked += 1
        d = sc.d
        bt = betti_hochster(dual, QQ)
        lhs = [0] * (d + 1)
        for (i, s), v in bt.normalized().items():
            lhs[len(s)] += (-1) ** i * v
        rhs = [0] * (d + 1)
        rhs[0] = 1
        for f in dual.faces():
            term = [0] * len(f) + [1]  # t^|F|, times (1-t) d - |F| times
            for _ in range(d - len(f)):
                term = [a - b for a, b in zip(term + [0], [0] + term)]
            for j, x in enumerate(term):
                rhs[j] -= x
        assert lhs == rhs, (sc.facets, lhs, rhs)


def test_dualize_needs_simplicial_ambient():
    text = (
        "semigroup\nambient 3\n"
        "functional 1 0 0\nfunctional 0 1 0\nfunctional -1 0 1\nfunctional 0 -1 1\n"
    )
    bundle = parse_input_text(text)
    res = total_resolution(bundle.fc, QQ)
    with pytest.raises(UnsupportedAmbientError):
        dualize(res)


def test_coarse_view_of_table():
    bt = koszul_table(3)
    assert bt.coarse() == {(0, 1): 3, (1, 2): 3, (2, 3): 1}
    assert bt.total(0) == 3 and bt.total(2) == 1 and bt.max_position() == 2


def test_four_cycle_ideal_is_a_complete_intersection():
    # the ideal of the 4-cycle is generated by the two diagonal products;
    # a complete intersection resolves with the Koszul relations alone
    c4 = SimplicialComplex.from_facets(4, [{1, 2}, {2, 3}, {3, 4}, {1, 4}])
    bt = betti_hochster(c4, QQ)
    assert bt.normalized() == {
        (0, frozenset({1, 3})): 1,
        (0, frozenset({2, 4})): 1,
        (1, frozenset({1, 2, 3, 4})): 1,
    }
    assert not is_linear_table(bt)  # generators in degree 2, relation in 4


def test_four_cycle_dual_pipeline():
    # the dual of the 4-cycle is two disjoint edges; the dual ideal has a
    # linear resolution with total multiplicities (4, 4, 1)
    c4 = SimplicialComplex.from_facets(4, [{1, 2}, {2, 3}, {3, 4}, {1, 4}])
    fc = cone_of_simplicial(c4)
    assert is_cohen_macaulay(fc, QQ).ok
    dual = alexander_dual(c4)
    assert sorted(sorted(f) for f in dual.facets) == [[1, 3], [2, 4]]
    oracle = betti_hochster(dual, QQ)
    assert is_linear_table(oracle)
    assert [oracle.total(i) for i in range(3)] == [4, 4, 1]
    res = minimal_linear_resolution(fc, QQ)
    assert res.term_sizes() == (4, 4, 1)
    assert betti_from_dual(dualize(res)).same_entries(oracle)

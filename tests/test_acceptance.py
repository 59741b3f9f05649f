"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 4, 5 and 8 share a single randomized sweep (at least 200
simplicial complexes on up to 6 vertices over the rationals and the 2- and
3-element fields); the sweep is computed once and its wall time is charged
against the strictest of the shared budgets.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache

from zeemac import (
    GF,
    QQ,
    NotCohenMacaulayError,
    alexander_dual,
    betti_from_dual,
    betti_hochster,
    build,
    canonical_module_hilbert,
    concentration_check,
    cone_of_simplicial,
    dualize,
    face_lattice,
    is_cohen_macaulay,
    is_linear,
    is_linear_table,
    local_cohomology,
    minimal_linear_resolution,
    minimality_scan,
    page,
    total_complex,
    total_resolution,
    validate,
    verify_exactness,
    vertical_cohomology_dims,
)
from zeemac.linalg import Mat
from zeemac.resolutions import coarse_hilbert_numerator, coarse_resolution_numerator, evaluation_degrees

from .helpers import (
    bowtie,
    cone_with_ids,
    hollow_triangle,
    random_sweep,
    rp2,
    square_cone,
    square_cone_two_facets,
)

FIELDS = (QQ, GF(2), GF(3))
SWEEP_SIZE = 220
SWEEP_SEED = 20250811


def _report(criterion: int, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {criterion} {status} ({elapsed:.2f}s){extra}")
    assert ok, f"criterion {criterion} failed{extra}"


def _identities_hold(z) -> bool:
    field = z.field
    for (p, q) in z.blocks:
        v1, v2 = z.vert(p, q), z.vert(p, q + 1)
        if v2.rows and v1.cols and not v2.mul(v1).is_zero():
            return False
        h1, h2 = z.horiz(p, q), z.horiz(p + 1, q)
        if h2.rows and h1.cols and not h2.mul(h1).is_zero():
            return False
        a = z.vert(p + 1, q).mul(z.horiz(p, q))
        b = z.horiz(p, q + 1).mul(z.vert(p, q))
        s = Mat.from_rows([[x + y for x, y in zip(a.row(i), b.row(i))] for i in range(a.rows)], field, a.cols)
        if not s.is_zero():
            return False
    return True


@lru_cache(maxsize=None)
def sweep_results():
    """One pass over the shared sweep, accumulating per-criterion failures."""
    complexes = random_sweep(SWEEP_SIZE, SWEEP_SEED)
    failures = {4: [], 5: [], 8: []}
    t0 = time.perf_counter()
    for idx, sc in enumerate(complexes):
        fc = cone_of_simplicial(sc)
        dual = alexander_dual(sc)
        hilbert_rhs = coarse_hilbert_numerator(fc)
        for field in FIELDS:
            tag = f"#{idx} {sorted(map(sorted, sc.facets))} over {field.label()}"
            cm = is_cohen_macaulay(fc, field).ok
            z = build(fc, None, field)
            conc = concentration_check(z).ok

            # -- criterion 4: the equivalence suite -------------------------
            if cm != conc:
                failures[4].append(f"{tag}: CM={cm} but concentration={conc}")
            if cm:
                try:
                    res = minimal_linear_resolution(fc, field)
                    ok = verify_exactness(res).exact and is_linear(res)
                    scan = minimality_scan(res)
                    ok = ok and not scan.pairs
                except NotCohenMacaulayError:
                    ok = False
                if not ok:
                    failures[4].append(f"{tag}: CM but the minimal resolution failed")
            else:
                res = None
                try:
                    minimal_linear_resolution(fc, field)
                    failures[4].append(f"{tag}: not CM but construction succeeded")
                except NotCohenMacaulayError:
                    pass
            if is_linear_table(betti_hochster(dual, field)) != cm:
                failures[4].append(f"{tag}: dual-table linearity disagrees with CM")

            # -- criterion 5: double-complex identities ----------------------
            if not _identities_hold(z):
                failures[5].append(f"{tag}: differential identities fail")
            tot = total_complex(z)
            d0 = tot.complex.diff(0)
            if any(d0.mul_vec(tot.augmentation)):
                failures[5].append(f"{tag}: augmentation is not a cocycle")
            p1 = page(z, 1)
            expected = {}
            for f in fc.faces:
                summary = local_cohomology(fc, f.id, field)
                for p in range(summary.lo, summary.hi + 1):
                    d = summary.dim(p)
                    if d:
                        key = (p, -f.dim)
                        expected[key] = expected.get(key, 0) + d
            if p1.dims != expected:
                failures[5].append(f"{tag}: page-1 dims disagree with local cohomology")
            pinf = page(z, math.inf)
            if pinf.total_by_degree() != {0: 1}:
                failures[5].append(f"{tag}: terminal page is not k at total degree 0")
            eulers = {page(z, r).euler() for r in (0, 1, 2)} | {pinf.euler()}
            if len(eulers) != 1:
                failures[5].append(f"{tag}: euler characteristic varies across pages")

            # -- criterion 8: Hilbert consistency ----------------------------
            if cm and res is not None:
                for a in evaluation_degrees(fc):
                    alt = sum(
                        (-1) ** i * sum(1 for g in term.faces if fc.contains_degree(g, a))
                        for i, term in enumerate(res.terms)
                    )
                    quotient = 1 if any(fc.contains_degree(f.id, a) for f in fc.faces) else 0
                    if alt != quotient:
                        failures[8].append(f"{tag}: alternating sum {alt} != {quotient} at {a}")
                        break
                if coarse_resolution_numerator(fc, res.terms) != hilbert_rhs:
                    failures[8].append(f"{tag}: coarse series identity fails")
    elapsed = time.perf_counter() - t0
    return len(complexes), elapsed, failures


def test_criterion_1_hollow_triangle_pipeline():
    t0 = time.perf_counter()
    fc, ids = cone_with_ids(hollow_triangle())
    ok = is_cohen_macaulay(fc, QQ).ok and is_cohen_macaulay(fc, GF(2)).ok
    p1 = page(build(fc), 1)
    ok = ok and p1.dims == {(2, 0): 1, (2, -1): 3, (2, -2): 3}
    res = minimal_linear_resolution(fc, QQ)
    ok = ok and res.term_sizes() == (3, 3, 1)
    report = verify_exactness(res)
    ok = ok and report.exact and report.checked_degrees == 8
    ok = ok and is_linear(res) and not minimality_scan(res).pairs
    table = betti_from_dual(dualize(res))
    oracle = betti_hochster(alexander_dual(hollow_triangle()), QQ)
    ok = ok and table.same_entries(oracle) and is_linear_table(table)
    ok = ok and [table.total(i) for i in range(3)] == [3, 3, 1]
    elapsed = time.perf_counter() - t0
    _report(1, ok and elapsed < 1.0, elapsed, "hollow-triangle pipeline")


def test_criterion_2_rp2_characteristic_dependence():
    t0 = time.perf_counter()
    fc = cone_of_simplicial(rp2())
    verdicts = {}
    ok = True
    for field in (QQ, GF(3), GF(2)):
        cm = is_cohen_macaulay(fc, field).ok
        conc = concentration_check(build(fc, None, field)).ok
        verdicts[field.label()] = cm
        ok = ok and cm == conc
    ok = ok and verdicts == {"QQ": True, "GF(3)": True, "GF(2)": False}
    table2 = betti_hochster(alexander_dual(rp2()), GF(2))
    ok = ok and not is_linear_table(table2)
    elapsed = time.perf_counter() - t0
    _report(2, ok and elapsed < 5.0, elapsed, "minimal projective-plane triangulation")


def test_criterion_3_bowtie():
    t0 = time.perf_counter()
    fc, ids = cone_with_ids(bowtie())
    ok = all(not is_cohen_macaulay(fc, f).ok for f in (QQ, GF(2), GF(3), GF(5)))
    ok = ok and verify_exactness(total_resolution(fc, QQ)).exact
    try:
        minimal_linear_resolution(fc, QQ)
        ok = False
    except NotCohenMacaulayError as exc:
        ok = ok and exc.witness[0] == ids[(3,)]
    elapsed = time.perf_counter() - t0
    _report(3, ok, elapsed, "bowtie refusal with the shared-vertex witness")


def test_criterion_4_equivalence_sweep():
    count, elapsed, failures = sweep_results()
    ok = count >= 200 and not failures[4] and elapsed < 120.0
    detail = f"{count} complexes x 3 fields; {len(failures[4])} disagreements"
    if failures[4]:
        detail += "; first: " + failures[4][0]
    _report(4, ok, elapsed, detail)


def test_criterion_5_double_complex_identities():
    count, elapsed, failures = sweep_results()
    ok = not failures[5]
    detail = f"{count} complexes x 3 fields; {len(failures[5])} identity failures"
    if failures[5]:
        detail += "; first: " + failures[5][0]
    _report(5, ok, elapsed, detail)


def test_criterion_6_diagonal_degreewise_check():
    t0 = time.perf_counter()
    import random

    rng = random.Random(616)
    checked = 0
    ok = True
    while checked < 24:
        sweep = random_sweep(1, rng.randint(0, 10**9))
        sc = sweep[0]
        fc = cone_of_simplicial(sc)
        a = tuple(rng.randint(0, 2) for _ in range(sc.d))
        z = build(fc, a, QQ)
        dims = vertical_cohomology_dims(z)
        for (p, q) in dims:
            if q != -p:
                ok = False
        for p in range(fc.dim + 1):
            expected = sum(
                canonical_module_hilbert(fc, f.id, a) for f in fc.faces if f.dim == p
            )
            if dims.get((p, -p), 0) != expected:
                ok = False
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(6, ok, elapsed, f"{checked} (complex, degree) pairs")


def test_criterion_7_general_cone_path():
    t0 = time.perf_counter()
    q = square_cone()
    full = face_lattice(q)
    ok = validate(full).ok and len(full.faces) == 10
    delta, _ = square_cone_two_facets()
    ok = ok and validate(delta).ok
    res = total_resolution(delta, QQ)
    report = verify_exactness(res)
    ok = ok and report.exact and report.checked_degrees == 10
    for field in (QQ, GF(2)):
        cm = is_cohen_macaulay(delta, field).ok
        conc = concentration_check(build(delta, None, field)).ok
        ok = ok and cm == conc
    elapsed = time.perf_counter() - t0
    _report(7, ok and elapsed < 5.0, elapsed, "cone over a square, two adjacent facets")


def test_criterion_8_hilbert_consistency():
    count, elapsed, failures = sweep_results()
    ok = not failures[8]
    detail = f"CM cases of the shared sweep; {len(failures[8])} failures"
    if failures[8]:
        detail += "; first: " + failures[8][0]
    _report(8, ok, elapsed, detail)

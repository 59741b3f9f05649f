import random
from itertools import combinations

import pytest

from zeemac import (
    GF,
    AffineSemigroup,
    QQ,
    NotCohenMacaulayError,
    SimplicialComplex,
    build,
    canonical_module_hilbert,
    cone_of_simplicial,
    face_lattice,
    is_cohen_macaulay,
    is_linear,
    minimal_linear_resolution,
    minimality_scan,
    page,
    total_resolution,
    verify_exactness,
    vertical_cohomology_dims,
)
from zeemac.complexes import MissingGeometryError, subcomplex
from zeemac.formats import parse_input_text
from zeemac.linalg import Mat
from zeemac.resolutions import (
    ExactnessReport,
    FaceModule,
    FaceModuleComplex,
    coarse_hilbert_numerator,
    coarse_resolution_numerator,
    evaluation_degrees,
)
from zeemac.zeeman import _page1_data

from .ambient_scan import ambient_scan_exactness
from .helpers import (
    bowtie,
    cone_with_ids,
    cube_cone,
    hexagon_cone,
    hollow_triangle,
    random_simplicial,
    random_sweep,
    square_cone,
    square_cone_two_facets,
)
from .test_cleared_representatives import CASES


def full_simplex(d):
    return SimplicialComplex.from_facets(d, [frozenset(range(1, d + 1))])


def irrelevant(d):
    return SimplicialComplex.from_facets(d, [frozenset()])


def test_total_resolution_single_vertex():
    fc = cone_of_simplicial(SimplicialComplex.from_facets(1, [{1}]))
    res = total_resolution(fc, QQ)
    assert res.term_sizes() == (2, 1)
    assert res.check_composition() and res.check_block_support()
    assert verify_exactness(res).exact


def test_total_resolution_hollow_triangle():
    fc = cone_of_simplicial(hollow_triangle())
    res = total_resolution(fc, QQ)
    assert res.term_sizes() == (7, 9, 3)
    assert res.check_composition() and res.check_block_support()
    report = verify_exactness(res)
    assert report.exact
    assert report.checked_degrees == 8  # one per ambient face: all squarefree degrees


def test_total_resolution_exact_for_non_cm_complexes():
    fc = cone_of_simplicial(bowtie())
    res = total_resolution(fc, QQ)
    assert verify_exactness(res).exact


def test_dropping_a_summand_breaks_exactness():
    fc = cone_of_simplicial(hollow_triangle())
    res = total_resolution(fc, QQ)
    # delete the last copy of W^1 and the corresponding matrix row/column
    kept = list(range(len(res.terms[1]) - 1))
    t1 = FaceModule(tuple(res.terms[1].faces[k] for k in kept))
    m0 = Mat.from_rows(
        [[res.maps[0].entry(r, c) for c in range(res.maps[0].cols)] for r in kept], QQ
    )
    m1 = Mat.from_rows(
        [[res.maps[1].entry(r, c) for c in kept] for r in range(res.maps[1].rows)], QQ
    )
    broken = FaceModuleComplex(
        fc, QQ, [res.terms[0], t1, res.terms[2]], [m0, m1], augmentation=res.augmentation
    )
    report = verify_exactness(broken)
    assert not report.exact
    assert report.failing_degree is not None


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=lambda f: f.label())
def test_broken_augmentation_witness_is_the_first_failing_degree(field):
    # a connected graph, so both resolutions exist; the augmentation misses
    # the copy of k[{1,2}], which only degrees with support {1,2} can see
    fc = cone_of_simplicial(SimplicialComplex.from_facets(5, [{1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}]))
    edge = next(f.id for f in fc.faces if f.label == "{1,2}")
    degrees = evaluation_degrees(fc)
    for res in (total_resolution(fc, field), minimal_linear_resolution(fc, field)):
        aug = list(res.augmentation)
        aug[res.terms[0].faces.index(edge)] = 0
        broken = FaceModuleComplex(fc, field, res.terms, res.maps, augmentation=aug)
        report = verify_exactness(broken)
        assert not report.exact
        assert report.failing_degree == (1, 1, 0, 0, 0)  # the first degree with support {1,2}
        # degrees no face contains come earlier; they are exact and skipped
        earlier = degrees[: degrees.index(report.failing_degree)]
        assert sum(1 for a in earlier if not fc.faces_containing(a)) == 5


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=lambda f: f.label())
def test_witness_is_the_first_failing_degree_in_ambient_face_order(field):
    # on the 4-cycle the augmentation misses the copies of k[{1,2}] and
    # k[{3,4}], opposite edges, so the degrees (1,1,0,0) and (0,0,1,1) fail
    # and no vertex does; the ambient order puts the edge vanishing on
    # functionals 1 and 2 first, {3,4}, though {1,2} has the smaller id
    fc = cone_of_simplicial(SimplicialComplex.from_facets(4, [{1, 2}, {2, 3}, {3, 4}, {1, 4}]))
    edges = [next(f.id for f in fc.faces if f.label == label) for label in ("{1,2}", "{3,4}")]
    assert edges[0] < edges[1]
    for res in (total_resolution(fc, field), minimal_linear_resolution(fc, field)):
        aug = [0 if g in edges else x for g, x in zip(res.terms[0].faces, res.augmentation)]
        broken = FaceModuleComplex(fc, field, res.terms, res.maps, augmentation=aug)
        report = verify_exactness(broken)
        assert report == ambient_scan_exactness(broken)
        assert report.failing_degree == (0, 0, 1, 1)


def test_exactness_at_unsupported_degree():
    fc = cone_of_simplicial(hollow_triangle())
    # nothing lives in degree (1,1,1): no face of the complex contains it
    assert not any(fc.contains_degree(f.id, (1, 1, 1)) for f in fc.faces)
    assert (1, 1, 1) in evaluation_degrees(fc)
    # the certificate counts it, vacuously, and agrees with the scan that visits it
    res = total_resolution(fc, QQ)
    assert verify_exactness(res) == ambient_scan_exactness(res)
    assert verify_exactness(res).checked_degrees == len(evaluation_degrees(fc)) == 8


def test_certificate_lists_no_ambient_face(monkeypatch):
    # N^16 has 65536 faces; the 16-cycle has 33 and the edge {1,2} has 4,
    # and only those are visited
    def refuse(self):
        raise AssertionError("the certificate listed the faces of the ambient cone")

    monkeypatch.setattr(AffineSemigroup, "faces", refuse)
    cycle = [{i, i % 16 + 1} for i in range(1, 17)]
    for facets in (cycle, [{1, 2}]):
        fc = cone_of_simplicial(SimplicialComplex.from_facets(16, facets))
        report = verify_exactness(minimal_linear_resolution(fc, GF(2)))
        assert report == ExactnessReport(True, None, 65536)
        assert "_tables" not in vars(fc.semigroup)  # no per-face table was built


def test_minimal_resolution_hollow_triangle():
    fc = cone_of_simplicial(hollow_triangle())
    res = minimal_linear_resolution(fc, QQ)
    assert res.term_sizes() == (3, 3, 1)
    assert res.check_composition() and res.check_block_support()
    assert verify_exactness(res).exact
    assert is_linear(res)
    assert minimality_scan(res).pairs == ()
    assert minimality_scan(res).certificate_complete
    assert res.augmentation == tuple([1] * 3)


def test_minimal_resolution_full_simplex():
    fc = cone_of_simplicial(full_simplex(3))
    res = minimal_linear_resolution(fc, QQ)
    assert res.term_sizes() == (1,)
    (face, mult), = res.terms[0].summands
    assert fc.face(face).dim == 3 and mult == 1
    assert verify_exactness(res).exact and is_linear(res)


def test_minimal_resolution_of_the_residue_field():
    fc = cone_of_simplicial(irrelevant(2))
    res = minimal_linear_resolution(fc, QQ)
    assert res.term_sizes() == (1,)
    assert fc.face(res.terms[0].faces[0]).dim == 0
    assert verify_exactness(res).exact and is_linear(res)


def test_minimal_resolution_refuses_non_cm():
    fc, ids = cone_with_ids(bowtie())
    with pytest.raises(NotCohenMacaulayError) as exc:
        minimal_linear_resolution(fc, QQ)
    assert exc.value.witness == (ids[(3,)], 2, 1)


def test_minimal_resolution_term_multiplicities_match_cohomology():
    from zeemac import local_cohomology

    rng = random.Random(5)
    count = 0
    while count < 8:
        sc = random_simplicial(rng)
        fc = cone_of_simplicial(sc)
        if not is_cohen_macaulay(fc, QQ).ok:
            continue
        count += 1
        res = minimal_linear_resolution(fc, QQ)
        n = fc.dim
        for i, term in enumerate(res.terms):
            expected = {}
            for g in fc.faces_of_dim(n - i):
                d = local_cohomology(fc, g, QQ).dim(n)
                if d:
                    expected[g] = d
            assert dict(term.summands) == expected


def test_minimal_resolution_is_page_1_top_column():
    # when page 1 sits in column n, that column with d1 is the minimal
    # linear resolution: term i is the block (n, i - n), face by face (the
    # face of a page-1 class is the G of the last pair of its
    # representative), and map i is d1 out of it
    cm = nonzero = 0
    for label, make, field, _ in CASES:
        fc = make()
        if not is_cohen_macaulay(fc, field):
            continue
        n = fc.dim
        res = minimal_linear_resolution(fc, field)
        z = build(fc, None, field)
        d1 = page(z, 1).diffs
        classes = _page1_data(z).summaries
        faces = [tuple(z.block(n, i - n)[max(rep)][1] for rep in classes.get((n, i - n), ())) for i in range(n + 1)]
        assert [t.faces for t in res.terms] == faces[: len(res.terms)], (label, field)
        assert not any(faces[len(res.terms) :]), (label, field)
        for i, m in enumerate(res.maps):
            assert repr(m) == repr(d1[(n, i - n)]), (label, field, i)
        cm += 1
        nonzero += sum(not m.is_zero() for m in res.maps)
    assert cm > 30 and nonzero > 10, (cm, nonzero)


def test_general_cone_resolutions():
    delta, q = square_cone_two_facets()
    res = total_resolution(delta, QQ)
    assert verify_exactness(res).exact
    assert len(evaluation_degrees(delta)) == 10  # one degree per ambient face
    mres = minimal_linear_resolution(delta, QQ)
    assert verify_exactness(mres).exact and is_linear(mres)
    assert mres.term_sizes() == (2, 1)


def test_is_linear_examples():
    fc = cone_of_simplicial(hollow_triangle())
    assert not is_linear(total_resolution(fc, QQ))
    assert is_linear(minimal_linear_resolution(fc, QQ))
    fcq = cone_of_simplicial(full_simplex(2))
    assert is_linear(minimal_linear_resolution(fcq, QQ))


def test_minimality_scan_detects_constructed_split():
    fc, ids = cone_with_ids(hollow_triangle())
    f = ids[(1, 2)]
    split = FaceModuleComplex(
        fc,
        QQ,
        [FaceModule((f,)), FaceModule((f,))],
        [Mat.identity(1, QQ)],
    )
    scan = minimality_scan(split)
    assert scan.pairs == ((0, 0, 0),)


def test_minimality_scan_total_resolution_nonempty():
    fc = cone_of_simplicial(hollow_triangle())
    scan = minimality_scan(total_resolution(fc, QQ))
    assert len(scan.pairs) > 0
    assert not scan.certificate_complete  # nonlinear: scan is only necessary


def test_canonical_module_hilbert():
    fc, ids = cone_with_ids(hollow_triangle())
    assert canonical_module_hilbert(fc, ids[()], (0, 0, 0)) == 1
    assert canonical_module_hilbert(fc, ids[(1, 2)], (1, 1, 0)) == 1
    assert canonical_module_hilbert(fc, ids[(1, 2)], (1, 0, 0)) == 0
    with pytest.raises(ValueError):
        canonical_module_hilbert(fc, ids[()], (0, "a", 0))


def test_vertical_cohomology_counts_relative_interiors():
    # cross-module identity: vertical-first cohomology on the diagonal
    # counts the faces whose relative interior contains the degree
    rng = random.Random(37)
    pairs_checked = 0
    while pairs_checked < 20:
        sc = random_simplicial(rng)
        fc = cone_of_simplicial(sc)
        d = sc.d
        a = tuple(rng.randint(0, 2) for _ in range(d))
        z = build(fc, a, QQ)
        dims = vertical_cohomology_dims(z)
        for p in range(fc.dim + 1):
            expected = sum(
                canonical_module_hilbert(fc, f.id, a)
                for f in fc.faces
                if f.dim == p
            )
            assert dims.get((p, -p), 0) == expected
        for (p, q), val in dims.items():
            assert q == -p, f"off-diagonal vertical cohomology at {(p, q)}"
        pairs_checked += 1


def test_exactness_needs_geometry():
    text = "polyhedral\nambient 1\nface 0 0 o\nface 1 1 r\ncover 0 1 +1\n"
    fc = parse_input_text(text).fc
    res = total_resolution(fc, QQ)
    with pytest.raises(MissingGeometryError):
        verify_exactness(res)


def test_degreewise_euler_matches_quotient():
    rng = random.Random(43)
    done = 0
    while done < 6:
        sc = random_simplicial(rng)
        fc = cone_of_simplicial(sc)
        if not is_cohen_macaulay(fc, GF(2)).ok:
            continue
        done += 1
        res = minimal_linear_resolution(fc, GF(2))
        for a in evaluation_degrees(fc):
            alt = 0
            for i, term in enumerate(res.terms):
                comp = sum(1 for g in term.faces if fc.contains_degree(g, a))
                alt += (-1) ** i * comp
            quotient = 1 if any(fc.contains_degree(f.id, a) for f in fc.faces) else 0
            assert alt == quotient


def test_coarse_hilbert_identity():
    rng = random.Random(47)
    for _ in range(10):
        sc = random_simplicial(rng)
        fc = cone_of_simplicial(sc)
        lhs = coarse_resolution_numerator(fc, total_resolution(fc, QQ).terms)
        rhs = coarse_hilbert_numerator(fc)
        assert lhs == rhs
        if is_cohen_macaulay(fc, QQ).ok:
            assert coarse_resolution_numerator(fc, minimal_linear_resolution(fc, QQ).terms) == rhs


def test_every_summand_is_a_face_of_the_complex():
    rng = random.Random(53)
    for _ in range(8):
        fc = cone_of_simplicial(random_simplicial(rng))
        res = total_resolution(fc, QQ)
        valid = {f.id for f in fc.faces}
        for term in res.terms:
            assert set(term.faces) <= valid


def test_exactness_presumes_a_complex():
    # W^0 = k[{1}]^2 with augmentation (1, 0) and the map [1 1] onto W^1 =
    # k[{1}]: the ranks fit at every degree, but the map does not kill the
    # augmentation, so only check_composition sees that this is no complex
    fc, ids = cone_with_ids(SimplicialComplex.from_facets(1, [{1}]))
    g = ids[(1,)]
    res = FaceModuleComplex(
        fc, QQ, [FaceModule((g, g)), FaceModule((g,))], [Mat.from_rows([[1, 1]], QQ)], augmentation=(1, 0)
    )
    assert verify_exactness(res).exact and res.check_block_support()
    assert not res.check_composition()


def _resolutions(fc, field):
    yield total_resolution(fc, field)
    if is_cohen_macaulay(fc, field).ok:
        yield minimal_linear_resolution(fc, field)


def _broken_variants(res, rng):
    """``res`` with an augmentation entry zeroed, with one map entry
    changed, and with the augmentation dropped."""
    field = res.field
    aug = list(res.augmentation)
    aug[rng.randrange(len(aug))] = 0
    yield FaceModuleComplex(res.fc, field, res.terms, res.maps, augmentation=aug)
    if res.maps:
        i = rng.randrange(len(res.maps))
        m = res.maps[i]
        if m.rows and m.cols:
            r, j = rng.randrange(m.rows), rng.randrange(m.cols)
            columns = [dict(col) for col in m.columns]
            columns[j].pop(r, None)
            if x := field.reduce(m.entry(r, j) + 1):
                columns[j][r] = x
            maps = list(res.maps)
            maps[i] = Mat(m.rows, m.cols, columns, field)
            yield FaceModuleComplex(res.fc, field, res.terms, maps, augmentation=res.augmentation)
    yield FaceModuleComplex(res.fc, field, res.terms, res.maps)


def _cones_cut_down():
    """The square, hexagon and cube cones, whole and cut down to the
    subcomplexes generated by 1-3 of their facets."""
    for q in (square_cone(), hexagon_cone(), cube_cone()):
        fc = face_lattice(q)
        yield fc
        facets = [f.id for f in fc.faces if f.dim == fc.dim - 1]
        for k in (1, 2, 3):
            for ids in combinations(facets, k):
                yield subcomplex(fc, ids)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=lambda f: f.label())
def test_certificate_matches_the_ambient_scan(field):
    rng = random.Random(7071)
    complexes = [cone_of_simplicial(sc) for sc in random_sweep(40, 7072)]
    complexes += list(_cones_cut_down())
    reports = []
    for fc in complexes:
        for res in _resolutions(fc, field):
            for c in (res, *_broken_variants(res, rng)):
                got, want = verify_exactness(c), ambient_scan_exactness(c)
                assert got == want, (fc.faces, c.variant)
                reports.append(got)
    # not vacuous: many reports of each kind, failures at many degrees
    assert sum(r.exact for r in reports) > 100
    assert len({r.failing_degree for r in reports if not r.exact}) > 20

import random
import signal
from contextlib import contextmanager
from itertools import combinations

import pytest

from zeemac import (
    GF,
    SimplicialComplex,
    VoidComplex,
    alexander_dual,
    build,
    cohomology,
    cone_of_simplicial,
    is_cohen_macaulay,
    upper_set,
    validate,
)
from zeemac.complexes import Cover, DegenerateComplexError, Face, FaceComplex, subcomplex
from zeemac.formats import parse_input_text

from . import test_golden_cli as golden
from .helpers import bowtie, hollow_triangle, random_simplicial, random_sweep


def test_cone_hollow_triangle_shape():
    fc = cone_of_simplicial(hollow_triangle())
    assert len(fc.faces) == 7
    assert sorted(f.dim for f in fc.faces) == [0, 1, 1, 1, 2, 2, 2]
    # each of the 3 rays covers the minimal face, each 2-face has 2 facets
    assert len(fc.covers) == 9
    assert all(fc.face(c.upper).dim == fc.face(c.lower).dim + 1 for c in fc.covers)
    assert validate(fc).ok


def test_cone_single_vertex():
    fc = cone_of_simplicial(SimplicialComplex.from_facets(1, [{1}]))
    assert len(fc.faces) == 2
    assert sorted(f.dim for f in fc.faces) == [0, 1]
    assert len(fc.covers) == 1
    assert fc.covers[0].sign == 1


def test_cone_sign_convention():
    fc = cone_of_simplicial(SimplicialComplex.from_facets(2, [{1, 2}]))
    ids = {f.key[1]: f.id for f in fc.faces}
    # adding vertex 2 at position 1 flips the sign; adding vertex 1 at position 0 keeps it
    assert fc.cover_sign(ids[(1,)], ids[(1, 2)]) == -1
    assert fc.cover_sign(ids[(2,)], ids[(1, 2)]) == 1
    # the diamond below {1,2} sums to zero
    s = sum(
        fc.cover_sign(ids[()], ids[(v,)]) * fc.cover_sign(ids[(v,)], ids[(1, 2)])
        for v in (1, 2)
    )
    assert s == 0


def test_cone_face_counts_match_subset_counts():
    rng = random.Random(3)
    for _ in range(10):
        sc = random_simplicial(rng)
        fc = cone_of_simplicial(sc)
        faces = sc.faces()
        for k in range(fc.dim + 1):
            assert len(fc.faces_of_dim(k)) == sum(1 for s in faces if len(s) == k)


def test_void_input_rejected():
    with pytest.raises(DegenerateComplexError):
        SimplicialComplex.from_facets(3, [])


def test_irrelevant_complex_accepted():
    sc = SimplicialComplex.from_facets(3, [frozenset()])
    fc = cone_of_simplicial(sc)
    assert len(fc.faces) == 1 and fc.dim == 0


def test_duplicate_and_comparable_facets_rejected():
    with pytest.raises(ValueError):
        SimplicialComplex(3, (frozenset({1, 2}), frozenset({1, 2})))
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets(3, [{1}, {1, 2}])


def test_validate_passes_on_random_cones():
    rng = random.Random(11)
    for _ in range(30):
        fc = cone_of_simplicial(random_simplicial(rng))
        assert validate(fc).ok


def test_validate_reports_flipped_bottom_cover():
    fc = cone_of_simplicial(hollow_triangle())
    ids = {f.key[1]: f.id for f in fc.faces}
    flipped = []
    for c in fc.covers:
        if c.lower == ids[()] and c.upper == ids[(1,)]:
            flipped.append(Cover(c.lower, c.upper, -c.sign))
        else:
            flipped.append(c)
    broken = FaceComplex(fc.faces, flipped, fc.ambient_dim)
    rep = validate(broken)
    assert not rep.ok
    # vertex 1 sits in the two diamonds below {1,2} and {1,3}
    assert set(rep.bad_diamonds) == {(ids[()], ids[(1, 2)]), (ids[()], ids[(1, 3)])}


def test_validate_reports_missing_minimal_face():
    fc = cone_of_simplicial(hollow_triangle())
    keep = [f.id for f in fc.faces if f.dim > 0]
    # rebuild without the minimal face (ids reindexed)
    order = sorted(keep)
    remap = {old: new for new, old in enumerate(order)}
    faces = [
        type(fc.faces[0])(remap[i], fc.face(i).dim, fc.face(i).label, fc.face(i).key)
        for i in order
    ]
    covers = [
        Cover(remap[c.lower], remap[c.upper], c.sign)
        for c in fc.covers
        if c.lower in keep and c.upper in keep
    ]
    rep = validate(FaceComplex(faces, covers, fc.ambient_dim))
    assert not rep.ok
    assert any("dimension-0" in p for p in rep.problems)


def test_upper_sets_of_hollow_triangle():
    fc = cone_of_simplicial(hollow_triangle())
    ids = {f.key[1]: f.id for f in fc.faces}
    assert sum(len(v) for v in upper_set(fc, ids[()]).by_degree) == 7
    ray = upper_set(fc, ids[(1,)])
    assert [len(v) for v in ray.by_degree] == [1, 2]
    top = upper_set(fc, ids[(1, 2)])
    assert [len(v) for v in top.by_degree] == [1]


def _graded(fc: FaceComplex, g: int, above) -> tuple:
    """The faces in ``above`` (the faces >= g) grouped by dimension from
    dim g up, each group in id order."""
    by_dim: dict = {}
    for f in fc.faces:
        if f.id in above:
            by_dim.setdefault(f.dim, []).append(f.id)
    lo = fc.face(g).dim
    return tuple(tuple(by_dim.get(d, ())) for d in range(lo, max(by_dim) + 1))


def _oracle_above(fc: FaceComplex, g: int) -> set:
    """The faces >= g, computed without the upper-set table: vertex-set
    containment for a simplicial cone (``Face.key``), vanishing-set
    containment for a cone input (``cone_faces``), and otherwise a plain
    closure over the cofacet covers."""
    key = fc.face(g).key
    if key is not None and key[0] == "s":
        return {f.id for f in fc.faces if set(key[1]) <= set(f.key[1])}
    if fc.cone_faces is not None:
        zero = fc.cone_faces[g].vanishing
        return {f for f, cf in fc.cone_faces.items() if cf.vanishing <= zero}
    seen, stack = {g}, [g]
    while stack:
        for f, _ in fc._up[stack.pop()]:
            if f not in seen:
                seen.add(f)
                stack.append(f)
    return seen


def _oracle_complexes():
    """The acceptance sweep (the benchmark's sweep block is a stratified
    sample of it), the benchmark's four spheres, and the CLI's cone and
    polyhedral inputs, the cones also cut by their 'delta' lines."""
    for sc in random_sweep(220, 20250811):
        yield cone_of_simplicial(sc)
    spheres = [(7, list(combinations(range(1, 8), 6)))]
    spheres += [(8, [(a, b, c, d) for a in (1, 5) for b in (2, 6) for c in (3, 7) for d in (4, 8)])]
    spheres += [(6, golden.RP2), (8, spheres[0][1] + [(1, 8)])]
    for d, facets in spheres:
        yield cone_of_simplicial(SimplicialComplex.from_facets(d, [frozenset(f) for f in facets]))
    for text, _ in golden.INPUTS.values():
        if not text.startswith("simplicial"):
            yield parse_input_text(text).fc


def test_upper_set_table_matches_an_independent_computation():
    # the local-cohomology store and the double complex read the same
    # table, so the Cohen-Macaulay verdict and page-1 concentration agree
    # also when the table is wrong; this oracle shares no code with it
    kinds = set()
    for fc in _oracle_complexes():
        kinds.add(fc.faces[0].key[0])
        z = build(fc, None, GF(2))
        for f in fc.faces:
            above = _oracle_above(fc, f.id)
            want = _graded(fc, f.id, above)
            assert fc.upper_levels(f.id) == want, (f.label, fc.upper_levels(f.id), want)
            assert fc.above(f.id) == above
            assert upper_set(fc, f.id).by_degree == want
            assert z.runs[f.id] == want
            assert cohomology._local(fc, f.id, GF(2)).bases == want
    assert kinds == {"s", "v", "p"}  # simplicial, cone and polyhedral inputs


def test_upper_set_unknown_id():
    fc = cone_of_simplicial(hollow_triangle())
    with pytest.raises(KeyError):
        upper_set(fc, 99)


@contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in the block once ``seconds`` have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("consumer", ["above", "build", "is_cohen_macaulay"])
def test_a_cycle_of_covers_raises_instead_of_hanging(consumer):
    # faces o, a, b with covers o -> a, a -> b and b -> a: validate reports
    # it, and an API caller that skips validate gets an error naming a face
    faces = [Face(0, 0, "o"), Face(1, 1, "a"), Face(2, 2, "b")]
    fc = FaceComplex(faces, [Cover(0, 1, 1), Cover(1, 2, 1), Cover(2, 1, 1)], 2)
    assert not validate(fc).ok
    run = {
        "above": lambda: fc.above(0),
        "build": lambda: build(fc, None, GF(2)),
        "is_cohen_macaulay": lambda: is_cohen_macaulay(fc, GF(2)),
    }[consumer]
    with _deadline(10), pytest.raises(DegenerateComplexError, match="covers above face o form a cycle"):
        run()


def test_alexander_dual_hollow_triangle():
    dual = alexander_dual(hollow_triangle())
    assert isinstance(dual, SimplicialComplex)
    assert dual.facets == (frozenset(),)


def test_alexander_dual_of_irrelevant_complex():
    dual = alexander_dual(SimplicialComplex.from_facets(3, [frozenset()]))
    # all proper subsets of {1,2,3}: the boundary of the 2-simplex
    assert sorted(sorted(f) for f in dual.facets) == [[1, 2], [1, 3], [2, 3]]


def test_alexander_dual_void_marker():
    dual = alexander_dual(SimplicialComplex.from_facets(2, [{1, 2}]))
    assert isinstance(dual, VoidComplex)


def test_alexander_dual_involution():
    rng = random.Random(23)
    checked = 0
    while checked < 30:
        sc = random_simplicial(rng)
        if frozenset(range(1, sc.d + 1)) in sc:
            continue
        dual = alexander_dual(sc)
        assert not isinstance(dual, VoidComplex)
        assert alexander_dual(dual).facets == sc.facets
        checked += 1


def test_alexander_dual_faces_are_complements_of_nonfaces():
    sc = bowtie()
    dual = alexander_dual(sc)
    universe = frozenset(range(1, 6))
    faces = sc.faces()
    dual_faces = dual.faces()
    for k in range(6):
        for c in combinations(range(1, 6), k):
            s = frozenset(c)
            assert (s in dual_faces) == ((universe - s) not in faces)


def test_subcomplex_downward_closure():
    fc = cone_of_simplicial(bowtie())
    ids = {f.key[1]: f.id for f in fc.faces}
    sub = subcomplex(fc, [ids[(1, 2, 3)]])
    assert len(sub.faces) == 8  # the full simplex on {1,2,3}
    assert validate(sub).ok
    assert sub.has_geometry

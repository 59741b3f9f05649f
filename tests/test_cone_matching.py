"""The cone matching that certifies an upper set acyclic without reducing it.

``cohomology._cone_matched`` accepts an upper set U(g) when a cover a of g
sends every face of U(g) off U(a) to its one cover in U(a), no two faces to
the same cover, and |U(g)| = 2|U(a)|.  The store then records zero
cohomology near g and reduces nothing.  Here every accepted face of the
test sweeps, the acceptance sweep, the four spheres and the CLI's cones
must have zero cohomology in ``cohomology_summary(cochain_complex(...))``,
which reduces by basis position and shares no code with the matching, and
the store must equal that oracle byte for byte (``repr``) at every face.
On the benchmark's sweep block the matching must accept every acyclic
face (757 of 842), so the checks cannot pass vacuously.  Inputs whose
Euler sum is 0 but whose cohomology is not, and hand-built posets that
fail one condition each, must be declined.
"""

import random

import pytest

from zeemac import GF, QQ, SimplicialComplex, cone_of_simplicial
from zeemac.cohomology import _NO_COBOUNDARIES, _cone_matched, _local, cochain_complex, cohomology_summary
from zeemac.complexes import Cover, Face, FaceComplex, lower_interval_problem, validate
from zeemac.formats import parse_input_text

from .helpers import random_simplicial, random_sweep
from .test_cleared_representatives import SPHERES
from .test_golden_cli import CUBE, HEXAGON, SQUARE

FIELDS = (QQ, GF(2), GF(3))
IDS = [f.label() for f in FIELDS]

POLY_HOLLOW = (  # the cone over the hollow triangle, face by face
    "polyhedral\nambient 3\n"
    "face 0 0 o\nface 1 1 a\nface 2 1 b\nface 3 1 c\nface 4 2 ab\nface 5 2 ac\nface 6 2 bc\n"
    "cover 0 1 +1\ncover 0 2 +1\ncover 0 3 +1\ncover 1 4 -1\ncover 2 4 +1\n"
    "cover 1 5 -1\ncover 3 5 +1\ncover 2 6 -1\ncover 3 6 +1\n"
)
CLI_CONES = (
    POLY_HOLLOW,
    SQUARE,
    SQUARE + "delta 1\ndelta 2\n",
    HEXAGON,
    HEXAGON + "".join(f"delta {i}\n" for i in range(1, 7)),
    CUBE,
    CUBE + "delta 1\ndelta 2\n",
)


def matched(fc) -> list:
    return [f.id for f in fc.faces if _cone_matched(fc, f.id, fc.upper_levels(f.id))]


def check_store(fc, field) -> int:
    """Compare the store with the oracle at every face; return how many
    faces the matching accepted (each of them acyclic)."""
    accepted = set(matched(fc))
    for f in fc.faces:
        oracle = cohomology_summary(cochain_complex(fc, f.id, field))
        near = _local(fc, f.id, field)
        assert repr(near.summary) == repr(oracle), f.label
        if f.id in accepted:
            assert oracle.total() == 0 and near.coboundaries is _NO_COBOUNDARIES, f.label
    return len(accepted)


# -- hand-built posets, each failing one condition --------------------------


def poset(levels, covers) -> FaceComplex:
    """Faces 0.. by level (level i of dimension i), with ``covers`` as
    ``(lower, upper, sign)`` in the order ``_up`` lists them."""
    dims = [d for d, size in enumerate(levels) for _ in range(size)]
    return FaceComplex([Face(i, d, f"x{i}") for i, d in enumerate(dims)], [Cover(*c) for c in covers], len(levels) - 1)


# g = 0 below a = 1 and the faces y1, y2, y3 = 2, 3, 4; z1, z2, z3 = 5, 6, 7
# all cover a.  y1 and y3 have two covers in U(a), but their first ones,
# z1 and z3, and y2's only one, z2, are distinct.  The incidence axiom
# holds, and H^1 = H^2 = k: z1 and z2 have the same column.
TWO_COVERS = poset(
    (1, 4, 3),
    [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1), (1, 5, 1), (1, 6, 1), (1, 7, 1),
     (2, 5, -1), (2, 6, -1), (3, 6, 1), (3, 5, 1), (4, 7, -1), (4, 5, -1), (4, 6, -1)],
)
# The next three break the incidence axiom, which the matching does not read.
# g = 0 below a, b, x = 1, 2, 3; a below c, d = 4, 5; b below c; x is maximal.
NO_COVER = poset((1, 3, 2), [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 4, 1), (1, 5, 1), (2, 4, 1)])
# the same, but x below c: b and x are both sent to c
ONE_COVER_TWICE = poset((1, 3, 2), [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 4, 1), (1, 5, 1), (2, 4, 1), (3, 4, 1)])
# g = 0 below a = 1 alone, a below c, d = 2, 3, both below t, u = 4, 5:
# g goes to a, but |U(g)| = 6 and |U(a)| = 5
COUNT_MISMATCH = poset((1, 1, 2, 2), [(0, 1, 1), (1, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1), (2, 5, 1), (3, 5, 1)])

POSETS = {"two-covers": TWO_COVERS, "no-cover": NO_COVER, "one-cover-twice": ONE_COVER_TWICE, "count": COUNT_MISMATCH}


@pytest.mark.parametrize("name", POSETS)
def test_a_poset_failing_one_condition_is_declined(name):
    fc = POSETS[name]
    levels = fc.upper_levels(0)
    assert sum(map(len, levels[::2])) == sum(map(len, levels[1::2]))  # past the Euler filter
    halves = [a for a, _ in fc.covers_above(0) if 2 * sum(map(len, fc.upper_levels(a))) == sum(map(len, levels))]
    assert (halves == []) == (name == "count")  # past the count, except where the count declines
    assert not _cone_matched(fc, 0, levels)
    for field in FIELDS:
        check_store(fc, field)


def test_two_covers_poset_is_a_complex_that_is_not_acyclic():
    # the incidence axiom holds; validate refuses the poset only as no
    # cone's face poset (three faces under x5 = z1)
    report = validate(TWO_COVERS)
    assert not report.bad_diamonds
    assert report.problems == (lower_interval_problem(TWO_COVERS),)
    assert TWO_COVERS.lower_interval_defect == (5, 1)
    for field in FIELDS:
        assert cohomology_summary(cochain_complex(TWO_COVERS, 0, field)).dims == (0, 1, 1)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_an_euler_sum_of_zero_is_not_enough(field):
    """On 7 vertices, facets 127, 137, 235 and 4: the apex's upper set has
    level sizes 1, 6, 8, 3 (Euler sum 0), yet H~^0 = H^1 = k."""
    sc = SimplicialComplex.from_facets(7, [frozenset(f) for f in ({1, 2, 7}, {1, 3, 7}, {2, 3, 5}, {4})])
    fc = cone_of_simplicial(sc)
    apex = fc.minimal_face()
    assert [len(level) for level in fc.upper_levels(apex)] == [1, 6, 8, 3]
    assert not _cone_matched(fc, apex, fc.upper_levels(apex))
    assert cohomology_summary(cochain_complex(fc, apex, field)).dims == (0, 1, 1, 0)
    check_store(fc, field)


# -- every accepted face is acyclic ------------------------------------------


def inputs():
    for seed in (2401, 7001):
        yield f"sweep{seed}", [cone_of_simplicial(sc) for sc in random_sweep(55, seed)]
    yield "acceptance", [cone_of_simplicial(sc) for sc in random_sweep(220, 20250811)]
    yield "spheres", [
        cone_of_simplicial(SimplicialComplex.from_facets(d, [frozenset(f) for f in facets]))
        for d, facets in SPHERES.values()
    ]
    yield "cli-cones", [parse_input_text(text).fc for text in CLI_CONES]


INPUTS = dict(inputs())


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("name", INPUTS)
def test_every_accepted_face_is_acyclic_and_the_store_equals_the_oracle(name, field):
    accepted = sum(check_store(fc, field) for fc in INPUTS[name])
    assert accepted > 0


def stratum(sc) -> tuple:
    return sc.d, len(sc.faces())


def sweep_block(seed: int) -> list:
    """The benchmark's sweep block for ``seed``: the 220 complexes of the
    acceptance sweep sorted by (vertices, faces), every fourth taken, and
    for each the next complex of this seed's stream in the same stratum."""
    profile = sorted(map(stratum, random_sweep(220, 20250811)))[2::4]
    need = {k: profile.count(k) for k in profile}
    pools = {k: [] for k in need}
    rng = random.Random(seed)
    while sum(map(len, pools.values())) < len(profile):
        sc = random_simplicial(rng)
        pool = pools.get(stratum(sc))
        if pool is not None and len(pool) < need[stratum(sc)]:
            pool.append(sc)
    draws = {k: iter(v) for k, v in pools.items()}
    return [next(draws[k]) for k in profile]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_the_sweep_block_has_every_acyclic_face_accepted(field):
    faces = acyclic = accepted = 0
    for sc in sweep_block(901):
        fc = cone_of_simplicial(sc)
        ids = set(matched(fc))
        for f in fc.faces:
            total = cohomology_summary(cochain_complex(fc, f.id, field)).total()
            faces, acyclic, accepted = faces + 1, acyclic + (total == 0), accepted + (f.id in ids)
            assert total == 0 or f.id not in ids, f.label
    assert (faces, acyclic, accepted) == (842, 757, 757)

"""The representative paths with clearing against ``uncleared``.

The per-face store reduces each upper-set differential once, in degree
order, skipping the columns at the pivot rows of the differential below
(``linalg.cochain_classes``), and reads the restriction blocks into a face
for all of its covers off that reduction, eliminating each cocycle against
the kept representatives and coboundaries row by row.  Page 2 reads its
representatives off the d1 chains in the same way.  Everything must
equal, byte for byte (``repr``: values, scalar types and key order), what
the uncleared reductions of ``uncleared`` give: each upper-set complex,
its dimensions and representatives, every ``restriction_map`` block and
the page-2 representatives.  The cases are a random sweep over QQ, GF(2)
and GF(3), the benchmark's spheres over GF(2) and the hexagon and cube
cones over the three fields, at every evaluation degree of the cones.
"""

from itertools import combinations

import pytest

from zeemac import GF, QQ, SimplicialComplex, build, cone_of_simplicial, face_lattice
from zeemac.cohomology import cochain_complex, local_cohomology, restriction_map
from zeemac.linalg import Mat, cochain_classes
from zeemac.resolutions import evaluation_degrees
from zeemac.zeeman import _page2_data

from .chain_ranks import kernel_basis
from .helpers import RP2_FACETS, cube_cone, hexagon_cone, random_sweep
from .uncleared import per_cover_restriction, uncleared_page2_representatives, uncleared_store

FIELDS = (QQ, GF(2), GF(3))
BD_SIMPLEX7 = list(combinations(range(1, 8), 6))
CROSS4 = [(a, b, c, d) for a in (1, 5) for b in (2, 6) for c in (3, 7) for d in (4, 8)]
SPHERES = {
    "bd_simplex7": (7, BD_SIMPLEX7),
    "bd_cross4": (8, CROSS4),
    "rp2": (6, RP2_FACETS),
    "bd_simplex7_whisker": (8, BD_SIMPLEX7 + [(1, 8)]),
}


def cases():
    """``(label, make, field, graded)``, ``make()`` giving the face
    complex; page 2 is checked at every evaluation degree when ``graded``,
    else at degree zero."""
    for k, sc in enumerate(random_sweep(16, 20261019)):
        for field in FIELDS:
            yield f"sweep{k}", lambda sc=sc: cone_of_simplicial(sc), field, False
    for name, (d, facets) in SPHERES.items():
        sc = SimplicialComplex.from_facets(d, [frozenset(f) for f in facets])
        yield name, lambda sc=sc: cone_of_simplicial(sc), GF(2), False
    for name, cone in (("hexagon", hexagon_cone), ("cube", cube_cone)):
        for field in FIELDS:
            yield name, lambda cone=cone: face_lattice(cone()), field, True


CASES = list(cases())


def chain_representatives(differentials):
    """``(representatives, pivots)`` of ``cochain_classes`` per degree,
    for the ``Mat`` out of each degree."""
    mats = list(differentials)
    for representatives, _, pivots in cochain_classes([list(enumerate(d.columns)) for d in mats], mats[0].field):
        yield representatives, pivots


def check_against_uncleared(fc, field, graded: bool) -> None:
    """The store and page 2 equal the uncleared oracle."""
    store = uncleared_store(fc, field)
    for f in fc.faces:
        vs, summary = store[f.id]
        assert repr(cochain_complex(fc, f.id, field)) == repr(vs)
        assert repr(local_cohomology(fc, f.id, field)) == repr(summary)
    for c in fc.covers:
        src = store[c.upper][0]
        for p in range(src.lo, src.hi + 1):
            want = per_cover_restriction(fc, store, c.upper, c.lower, p)
            assert repr(restriction_map(fc, c.upper, c.lower, field, p)) == repr(want), (c, p)
    for a in evaluation_degrees(fc) if graded else [None]:
        z = build(fc, a, field)
        assert repr(_page2_data(z).reps) == repr(uncleared_page2_representatives(z)), a


@pytest.mark.parametrize("label,make,field,graded", CASES, ids=[f"{c[0]}-{c[2]}" for c in CASES])
def test_store_and_page2_match_the_uncleared_oracle(label, make, field, graded):
    check_against_uncleared(make(), field, graded)


def test_the_oracle_comparison_is_not_vacuous():
    # cohomology, nonzero restriction blocks and cleared nonzero columns all occur
    total = nonzero = cleared = 0
    for _, make, field, _ in CASES:
        fc = make()
        for f in fc.faces:
            vs = cochain_complex(fc, f.id, field)
            total += local_cohomology(fc, f.id, field).total()
            diffs = [vs.diff(p) for p in range(vs.lo, vs.hi + 1)]
            chain = chain_representatives(diffs)
            cleared += sum(1 for (_, pivots), m in zip(chain, diffs[1:]) for j in pivots if m.columns[j])
        for c in fc.covers:
            vs = cochain_complex(fc, c.upper, field)
            nonzero += sum(not restriction_map(fc, c.upper, c.lower, field, p).is_zero() for p in range(vs.lo, vs.hi + 1))
    assert total > 200 and nonzero > 500 and cleared > 1000, (total, nonzero, cleared)


def test_chain_representatives_of_an_acyclic_complex():
    # k -> k^2 -> k, exact: every kernel vector past degree 0 is cleared
    d0 = Mat(2, 1, [{0: 1, 1: 1}], QQ)
    d1 = Mat(1, 2, [{0: 1}, {0: QQ.reduce(-1)}], QQ)
    d2 = Mat.zeros(0, 1, QQ)
    assert list(chain_representatives([d0, d1, d2])) == [((), frozenset({1})), ((), frozenset({0})), ((), frozenset())]
    # the canonical kernel vector of d1 ends at column 1, the cleared one
    assert kernel_basis(d1) == [{0: 1, 1: 1}]
    # alone, the zero map out of k has the whole of k as its cohomology
    assert list(chain_representatives([d2])) == [(({0: 1},), frozenset())]


"""``alexander_dual``, read off the minimal nonfaces, against the 2^d
subset enumeration of ``tests/subset_dual.py``.

The two must give the same dual, byte for byte (``repr``): the same facets
in the same order, or the same void marker (the full simplex).  At the
vertex cap, the dual of one edge on 16 vertices has 14 facets of 15
vertices, and that of the 16-cycle 104 facets of 14 vertices.
"""

import pytest

from zeemac import SimplicialComplex, alexander_dual

from .helpers import random_sweep
from .subset_dual import subset_dual
from .test_cleared_representatives import SPHERES

CYCLE16 = [(i, i % 16 + 1) for i in range(1, 17)]


def cases():
    for seed in (2401, 7001):
        for k, sc in enumerate(random_sweep(55, seed)):
            yield f"sweep{seed}-{k}", sc
    for name, (d, facets) in SPHERES.items():
        yield name, SimplicialComplex.from_facets(d, facets)
    for d in (1, 3):
        yield f"empty-face-on-{d}", SimplicialComplex.from_facets(d, [()])
    yield "full-simplex", SimplicialComplex.from_facets(4, [range(1, 5)])
    yield "ghost-vertex", SimplicialComplex.from_facets(5, [(1, 2), (2, 3), (1, 3, 4)])
    yield "edge16", SimplicialComplex.from_facets(16, [(1, 2)])
    yield "cycle16", SimplicialComplex.from_facets(16, CYCLE16)


CASES = dict(cases())


@pytest.mark.parametrize("label", list(CASES))
def test_dual_matches_the_subset_enumeration(label):
    sc = CASES[label]
    assert repr(alexander_dual(sc)) == repr(subset_dual(sc))


@pytest.mark.parametrize("label, count, size", [("edge16", 14, 15), ("cycle16", 104, 14)])
def test_dual_at_the_vertex_cap(label, count, size):
    dual = alexander_dual(CASES[label])
    assert len(dual.facets) == count
    assert {len(f) for f in dual.facets} == {size}

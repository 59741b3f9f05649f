"""The local-cohomology store, keyed by face id, against the complex
indexed by basis position.

The store reads every upper-set complex off one signed cover table per
complex and field, with the rows of each differential named by face id,
and clears by column label (``linalg.cochain_classes``).
``cohomology_summary(cochain_complex(...))`` reduces the same complex with
its rows and columns re-indexed by position.  For every face of two
random sweeps and of the benchmark's four spheres, over QQ, GF(2) and
GF(3), the two must give the same summary, byte for byte (``repr``), and
the store's kept coboundaries, with each face id read as its position in
the basis, must be the image columns that the reduction by position
leaves.
"""

import pytest

from zeemac import GF, QQ, SimplicialComplex, cone_of_simplicial
from zeemac.cohomology import _near_in, _store, cochain_complex, cohomology_summary
from zeemac.linalg import cochain_classes

from .helpers import random_sweep
from .test_cleared_representatives import SPHERES

FIELDS = (QQ, GF(2), GF(3))


def cases():
    for seed in (2401, 7001):
        yield f"sweep{seed}", random_sweep(55, seed)
    for name, (d, facets) in SPHERES.items():
        yield name, [SimplicialComplex.from_facets(d, [frozenset(f) for f in facets])]


CASES = [(label, complexes, field) for label, complexes in cases() for field in FIELDS]


def by_position(fc, g: int, field):
    """``(summary, {degree: coboundaries})`` of the upper-set complex above
    ``g`` indexed by basis position, the coboundaries kept where they are
    nonempty, as the store keeps them."""
    vs = cochain_complex(fc, g, field)
    classes = cochain_classes([list(enumerate(vs.diff(p).columns)) for p in range(vs.lo, vs.hi + 1)], field)
    kept = {p: coboundaries for p, (_, coboundaries, _) in enumerate(classes, vs.lo) if coboundaries}
    return cohomology_summary(vs), kept


def check(fc, field) -> tuple[int, int]:
    """Compare every face: ``(degrees with kept coboundaries, those whose
    pivot faces are not all at their own ids' positions)``."""
    kept_degrees = moved = 0
    for f in fc.faces:
        near = _near_in(fc, _store(fc, field), f.id)
        summary, kept = by_position(fc, f.id, field)
        assert near.summary == summary and repr(near.summary) == repr(summary), f.label
        assert near.bases == cochain_complex(fc, f.id, field).labels
        lo = near.summary.lo
        at = [{face: i for i, face in enumerate(level)} for level in near.bases]
        mapped = {
            p: {at[p - lo][r]: {at[p - lo][i]: x for i, x in col.items()} for r, col in columns.items()}
            for p, columns in near.coboundaries.items()
        }
        assert mapped == kept, f.label
        kept_degrees += len(kept)
        moved += sum(any(at[p - lo][r] != r for r in columns) for p, columns in near.coboundaries.items())
    return kept_degrees, moved


@pytest.mark.parametrize("label,complexes,field", CASES, ids=[f"{c[0]}-{c[2].label()}" for c in CASES])
def test_the_store_by_face_id_matches_the_complex_by_position(label, complexes, field):
    kept_degrees = moved = 0
    for sc in complexes:
        k, m = check(cone_of_simplicial(sc), field)
        kept_degrees, moved = kept_degrees + k, moved + m
    # coboundaries are kept, and face ids that differ from positions name them
    assert moved > 0 and kept_degrees > 0, (kept_degrees, moved)

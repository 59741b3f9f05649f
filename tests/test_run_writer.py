"""The face-run writer against the tuple-keyed pair index.

``build`` keeps runs of faces and their offsets, and one run writer gives
every differential.  ``tests/tuple_writer.py`` keeps one tuple and one
dict entry per pair and writes each column by tuple lookups.  The two
must agree exactly: the pairs of every degree and block, every total
differential, every ``horiz``/``vert`` block map, page 0 and the terminal
page (both its closed form and the reduction of ``reduced_einf``), at the
ordinary degree and at every evaluation degree of inputs where only some
faces are admitted.  On a complex that is not cone-like only the
reduction applies: the closed form refuses it.
"""

from __future__ import annotations

import math

import pytest

from zeemac import GF, QQ, build, cone_of_simplicial, page, total_complex
from zeemac.complexes import DegenerateComplexError
from zeemac.resolutions import evaluation_degrees

from .helpers import bowtie, four_rays_under_one_face, random_sweep, rp2
from .reduced_einf import reduced_infinity_dims
from .tuple_writer import TupleIndex


def assert_matches_tuple_index(fc, a, field, cone_like=True):
    z, ref = build(fc, a, field), TupleIndex(fc, a, field)
    assert z.sizes == tuple(len(level) for level in ref.labels)
    assert z.blocks == ref.blocks
    for (p, q), pairs in ref.blocks.items():
        assert z.block(p, q) == pairs
    assert reduced_infinity_dims(z) == ref.infinity_dims()
    if cone_like:
        assert page(z, math.inf).dims == ref.infinity_dims()
    else:
        with pytest.raises(DegenerateComplexError, match="face top"):
            page(z, math.inf)
    assert z._total is None
    tot = total_complex(z).complex
    assert tot.labels == ref.labels
    assert tot.diffs == ref.total_differentials()
    # every block and its neighbours, including the empty ones on the edges
    keys = {(p + dp, q + dq) for p, q in ref.blocks for dp, dq in ((0, 0), (-1, 0), (0, -1))}
    for p, q in sorted(keys):
        assert z.horiz(p, q) == ref.block_map(p, q, False), ("horiz", p, q)
        assert z.vert(p, q) == ref.block_map(p, q, True), ("vert", p, q)
    assert page(z, 0).diffs == {k: ref.block_map(*k, False) for k in ref.blocks}


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_run_writer_equals_tuple_index_on_the_sweep(field):
    for sc in random_sweep(30, 20261019):
        assert_matches_tuple_index(cone_of_simplicial(sc), None, field)
    assert_matches_tuple_index(four_rays_under_one_face(), None, field, cone_like=False)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_run_writer_equals_tuple_index_at_every_evaluation_degree(field):
    # at a nonzero degree only the faces containing it are admitted, so the
    # vertical part must skip the facets that are not
    for sc in (bowtie(), rp2()):
        fc = cone_of_simplicial(sc)
        degrees = evaluation_degrees(fc)
        assert any(len(fc.faces_containing(a)) < len(fc.faces) for a in degrees if any(a))
        for a in degrees:
            assert_matches_tuple_index(fc, a, field)

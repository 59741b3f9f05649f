"""Clearing against the uncleared reductions of ``uncleared``.

Clearing skips the columns of D_{n+1} at the pivot rows of D_n.  The
ranks and pivots per differential of ``chain_ranks.reduce_chain``, the
terminal page, the page-1 row and column dimensions, reduced cohomology
and the Hochster table must equal those of the reductions that look at
every column, on a random sweep over three fields, on the benchmark's
spheres over GF(2), on RP^2 over QQ and at nonzero lattice degrees.  The
Hochster coboundary leaves a column unwritten only at a pivot row of the
block before, and on the spheres' duals it does leave some unwritten.
"""

import math
from itertools import combinations

import pytest

from zeemac import GF, QQ, SimplicialComplex, alexander_dual, betti_hochster, build, cone_of_simplicial, eagon_reiner, page, total_complex
from zeemac.complexes import DegenerateComplexError, VoidComplex
from zeemac.eagon_reiner import _Coboundary, reduced_cohomology_dims
from zeemac.linalg import reduce_columns
from zeemac.resolutions import evaluation_degrees
from zeemac.zeeman import horizontal_cohomology_dims, vertical_cohomology_dims

from .chain_ranks import reduce_chain
from .helpers import RP2_FACETS, bowtie, d2_witness, four_rays_under_one_face, random_sweep, rp2
from .reduced_einf import reduced_infinity_dims
from .uncleared import (
    coboundary_blocks,
    uncleared_chain,
    uncleared_infinity_dims,
    uncleared_rank_only_dims,
    uncleared_reduced_cohomology_dims,
)

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
    """``(label, simplicial complex, field)``."""
    for k, sc in enumerate(random_sweep(24, 20251018)):
        for field in FIELDS:
            yield f"sweep{k}", sc, field
    for name, (d, facets) in SPHERES.items():
        yield name, SimplicialComplex.from_facets(d, [frozenset(f) for f in facets]), GF(2)
    yield "rp2/QQ", rp2(), QQ


CASES = list(cases())


def runs(maps: dict, step: tuple) -> list:
    """The maximal runs of consecutive maps along ``step``, each a list of
    maps in chain order."""
    out = []
    for key in sorted(maps):
        if (key[0] - step[0], key[1] - step[1]) in maps:
            continue
        run = [maps[key]]
        while (key := (key[0] + step[0], key[1] + step[1])) in maps:
            run.append(maps[key])
        out.append(run)
    return out


def block_maps(z, block_map, step: tuple) -> dict:
    """``{(p, q): block_map(p, q)}`` for every block (p, q) of ``z`` followed
    by a block along ``step``."""
    return {k: block_map(*k) for k in z.blocks if (k[0] + step[0], k[1] + step[1]) in z.blocks}


def chains(z) -> list:
    """Every chain ``reduce_chain`` sees for ``z``: the total differentials,
    and the runs of horizontal and of vertical maps."""
    total = [total_complex(z).complex.diffs]
    return total + runs(block_maps(z, z.horiz, (1, 0)), (1, 0)) + runs(block_maps(z, z.vert, (0, 1)), (0, 1))


def assert_chain_matches(mats, field):
    pairs = [list(enumerate(m.columns)) for m in mats]
    for left, right in zip(mats, mats[1:]):  # the premise of clearing
        assert right.mul(left).is_zero()
    assert list(reduce_chain(pairs, field)) == uncleared_chain(pairs, field)


def assert_dims_match(z):
    assert reduced_infinity_dims(z) == uncleared_infinity_dims(z)
    assert horizontal_cohomology_dims(z) == uncleared_rank_only_dims(z, block_maps(z, z.horiz, (1, 0)), (1, 0))
    assert vertical_cohomology_dims(z) == uncleared_rank_only_dims(z, block_maps(z, z.vert, (0, 1)), (0, 1))


@pytest.mark.parametrize("label,sc,field", CASES, ids=[f"{c[0]}-{c[2]}" for c in CASES])
def test_cleared_ranks_and_dims_match_the_uncleared_ones(label, sc, field):
    z = build(cone_of_simplicial(sc), None, field)
    for mats in chains(z):
        assert_chain_matches(mats, field)
    assert_dims_match(z)
    assert page(z, math.inf).dims == uncleared_infinity_dims(z)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_cleared_dims_match_off_the_diagonal(field):
    # total cohomology in degree 1: terminal-page classes at pairs (F, G)
    # with F != G, which the reduction finds; the complex is not cone-like,
    # so the closed form refuses it
    z = build(four_rays_under_one_face(), None, field)
    for mats in chains(z):
        assert_chain_matches(mats, field)
    assert_dims_match(z)
    assert reduced_infinity_dims(z) == {(2, -2): 1, (1, 0): 2}
    with pytest.raises(DegenerateComplexError, match="face top"):
        page(z, math.inf)


def test_clearing_skips_columns_on_the_spheres():
    # not vacuous: on every sphere some column of some differential is cleared
    for name, (d, facets) in SPHERES.items():
        z = build(cone_of_simplicial(SimplicialComplex.from_facets(d, [frozenset(f) for f in facets])), None, GF(2))
        diffs = total_complex(z).complex.diffs
        reduced = reduce_chain([enumerate(m.columns) for m in diffs], GF(2))
        cleared = sum(1 for (_, pivots), m in zip(reduced, diffs[1:]) for j in pivots if m.columns[j])
        assert cleared > 0, name


def test_hochster_leaves_cleared_columns_unwritten_on_the_spheres_duals(monkeypatch):
    # not vacuous: on the spheres' duals the coboundary writer leaves some
    # nonzero restricted column unwritten, and each one it leaves sits at a
    # pivot row of the block before; every block it writes has a face inside
    # s.  The dual of bd_simplex7 is {empty face}, which needs no elimination.
    calls = []  # (coboundary, s, the columns handed to reduce_columns per block)
    eliminate = _Coboundary._eliminate

    def spy_eliminate(cob, s):
        calls.append((cob, s, []))
        return eliminate(cob, s)

    def spy_reduce(cols, field):
        calls[-1][2].append(cols)
        return reduce_columns(cols, field)

    monkeypatch.setattr(_Coboundary, "_eliminate", spy_eliminate)
    monkeypatch.setattr(eagon_reiner, "reduce_columns", spy_reduce)
    unwritten = {}
    for name, (d, facets) in SPHERES.items():
        calls.clear()
        betti_hochster(alexander_dual(SimplicialComplex.from_facets(d, [frozenset(f) for f in facets])), GF(2))
        unwritten[name] = 0
        for cob, s, written in calls:
            pivots: dict = {}
            for start, end, cols in zip(cob.starts, cob.starts[1:], written):
                block = [i for i in range(start, end) if not cob.faces[i] & ~s]
                assert block, name
                for i, col in zip(block, cols, strict=True):
                    if col != {row: x for b, row, x in cob.columns[i] if b & s}:
                        assert col == {} and i in pivots, name
                        unwritten[name] += 1
                pivots = reduce_columns(cols, GF(2))[1]
    assert {name for name, count in unwritten.items() if count} == {"bd_cross4", "rp2", "bd_simplex7_whisker"}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_cleared_dims_match_at_nonzero_degrees(field):
    for sc in (bowtie(), d2_witness(), rp2()):
        fc = cone_of_simplicial(sc)
        for a in evaluation_degrees(fc)[1:]:
            z = build(fc, a, field)
            for mats in chains(z):
                assert_chain_matches(mats, field)
            assert_dims_match(z)
            assert page(z, math.inf).dims == uncleared_infinity_dims(z)


def induced_families(sc):
    """The faces of ``sc`` and of its Alexander dual, and of the subcomplex
    each induces on every vertex subset of size at least 2."""
    complexes = [sc]
    dual = alexander_dual(sc)
    if not isinstance(dual, VoidComplex):
        complexes.append(dual)
    for c in complexes:
        faces = set(c.faces())
        yield faces
        vertices = sorted(set().union(*faces))
        for size in range(2, len(vertices)):
            for sigma in combinations(vertices, size):
                yield {f for f in faces if f <= set(sigma)}


@pytest.mark.parametrize("label,sc,field", [c for c in CASES if c[1].d <= 7], ids=[f"{c[0]}-{c[2]}" for c in CASES if c[1].d <= 7])
def test_cleared_reduced_cohomology_matches_the_uncleared_one(label, sc, field):
    for faces in induced_families(sc):
        assert reduced_cohomology_dims(faces, field) == uncleared_reduced_cohomology_dims(faces, field)
        blocks, _ = coboundary_blocks(faces, field)
        assert list(reduce_chain(blocks, field)) == uncleared_chain(blocks, field)


def uncleared_hochster(dual, field) -> dict:
    """Hochster's formula, each induced subcomplex of the dual on its own:
    beta_{i,sigma} = dim H~^{|sigma|-i-2} of the dual restricted to sigma."""
    faces = set(dual.faces())
    entries = {}
    for size in range(1, dual.d + 1):
        for sigma in map(frozenset, combinations(range(1, dual.d + 1), size)):
            dims = uncleared_reduced_cohomology_dims({f for f in faces if f <= sigma}, field)
            for i in range(size):
                if h := dims.get(size - i - 2, 0):
                    entries[(i, sigma)] = h
    return entries


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_cleared_hochster_table_matches_the_uncleared_one(field):
    # a longer sweep than the others: a wrongly cleared coboundary column
    # often leaves the rank of the whole block unchanged
    complexes = random_sweep(150, 20251018) + [sc for _, sc, f in CASES if f == field and sc.d <= 7]
    for sc in complexes:
        dual = alexander_dual(sc)
        if not isinstance(dual, VoidComplex):
            assert betti_hochster(dual, field).normalized() == uncleared_hochster(dual, field), sorted(map(sorted, sc.facets))

"""The rank-only reductions without clearing, a reference for ``reduce_chain``.

Each differential is reduced on its own, every column included: the
terminal page by ``reduce_columns`` on each total differential, the page-1
row and column dimensions by ``rank`` on each block map, and reduced
cohomology by one ``reduce_columns`` over the whole coboundary.  No
reduction reads the pivots of another, so none presumes D_{n+1} D_n = 0.
``reduce_chain`` and its three callers must agree with these exactly: the
ranks and pivots of every differential, and the dimensions.
"""

from __future__ import annotations

from zeemac.linalg import Field, rank, reduce_columns, row_suffix_ranks
from zeemac.zeeman import ZeemanComplex, total_complex


def uncleared_chain(differentials, field: Field) -> list:
    """``reduce_columns`` on the columns of each differential alone, which
    are given as ``(label, column)`` pairs like ``reduce_chain``'s."""
    return [reduce_columns([col for _, col in pairs], field) for pairs in differentials]


def uncleared_infinity_dims(z: ZeemanComplex) -> dict:
    """Terminal-page dimensions from one uncleared reduction per total
    differential: prefix ranks of its columns, suffix ranks of its rows."""
    tot = total_complex(z).complex
    hi = tot.hi
    qs_of = [[pq[1] for (pq, _) in tot.basis(n)] for n in range(hi + 1)]
    pref, suff = [], [[]]
    for n, d in enumerate(tot.diffs):
        ranks, pivots = reduce_columns(d.columns, z.field)
        pref.append(ranks)
        suff.append(row_suffix_ranks(pivots, tot.dim(n + 1)))
    pref.append([0] * tot.dim(hi))

    def rank_prefix(n, k):
        return pref[n][k - 1] if k > 0 else 0

    def rank_suffix_rows(n, k):
        return suff[n][k - 1] if k > 0 and n > 0 else 0

    dims = {}
    for n in range(hi + 1):
        qs = qs_of[n]
        if not qs:
            continue
        full_rank_prev = rank_prefix(n - 1, len(qs_of[n - 1])) if n > 0 else 0

        def filtered_h(s):
            k = sum(1 for q in qs if q >= s)
            below = sum(1 for q in qs if q < s)
            return (k - rank_prefix(n, k)) - (full_rank_prev - rank_suffix_rows(n, below))

        for q in sorted(set(qs)):
            if d := filtered_h(q) - filtered_h(q + 1):
                dims[(n - q, q)] = d
    return dims


def uncleared_rank_only_dims(z: ZeemanComplex, maps: dict, step: tuple) -> dict:
    """Cohomology dimensions of the complexes made by ``maps`` from ``rank``
    of each map alone."""
    ranks = {k: rank(m) for k, m in maps.items()}
    dims = {}
    for (p, q), pairs in z.blocks.items():
        d = len(pairs) - ranks.get((p, q), 0) - ranks.get((p - step[0], q - step[1]), 0)
        if d:
            dims[(p, q)] = d
    return dims


def coboundary_blocks(faces, field: Field) -> tuple[list, list]:
    """``(blocks, sizes)``: the reduced coboundary of the face family as
    one differential per cardinality, each a list of ``(face index,
    column)`` pairs, the rows indexed like the faces; the faces are sorted
    by (cardinality, vertices), and the sign at the coface F+{v} is
    (-1)^#{u in F : u < v}."""
    faces = sorted(set(faces), key=lambda f: (len(f), sorted(f)))
    index = {f: i for i, f in enumerate(faces)}
    vertices = set().union(*faces)
    top = max(len(f) for f in faces)
    blocks = [[] for _ in range(top + 1)]
    for i, f in enumerate(faces):
        col = {}
        for v in sorted(vertices - f):
            row = index.get(f | {v})
            if row is not None:
                col[row] = field.reduce(-1 if sum(1 for u in f if u < v) % 2 else 1)
        blocks[len(f)].append((i, col))
    return blocks, [len(b) for b in blocks]


def uncleared_reduced_cohomology_dims(faces, field: Field) -> dict:
    """Reduced cohomology dimensions of a downward-closed face family with
    the empty face, from one reduction of the whole coboundary in
    cardinality order; degree j holds the faces with j + 1 vertices."""
    blocks, sizes = coboundary_blocks(faces, field)
    ranks = reduce_columns([col for block in blocks for _, col in block], field)[0]
    dims, end, rank_in = {}, 0, 0
    for k, size in enumerate(sizes):
        start, end = end, end + size
        rank_out = ranks[end - 1] - (ranks[start - 1] if start else 0)
        if h := size - rank_out - rank_in:
            dims[k - 1] = h
        rank_in = rank_out
    return dims

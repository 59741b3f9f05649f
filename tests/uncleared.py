"""The reductions without clearing, a reference for the cleared ones:
``chain_ranks.reduce_chain``, the library's rank-only reductions and
``cochain_classes``.

Each differential is reduced on its own, every column included: the
terminal page by ``reduce_columns`` on each total differential, the page-1
row and column dimensions by ``rank`` on each block map, and reduced
cohomology by one ``reduce_columns`` over the whole coboundary.  No
reduction reads the pivots of another, so none presumes D_{n+1} D_n = 0.
The cleared reductions must agree with these exactly: the ranks and
pivots of every differential, and the dimensions.  The terminal page here
is the filtered-rank formula, from column-prefix and row-suffix ranks
(``row_suffix_ranks``), where the oracle ``reduced_einf`` counts
essential columns; the two share only ``reduce_columns``.

The representative paths run here without clearing: each differential's
kernel and reduced image come from one tagged reduction
(``kernel_and_image``), and the representatives of a degree are chosen by
reducing its kernel a second time, against the image from the degree
below (``representatives``).  The upper-set complexes are built by one
filter of the upper set per degree, and each restriction block is solved
for one cover at a time (``per_cover_restriction``).  The per-face store,
``cohomology_summary`` and page 2 must agree with these byte for byte.
"""

from __future__ import annotations

from itertools import accumulate

from zeemac.cohomology import CohomologySummary, VSComplex
from zeemac.linalg import Field, Mat, _relations, reduce_columns, solve_columns
from zeemac.zeeman import ZeemanComplex, _page1_data, total_complex

from .chain_ranks import rank


def uncleared_chain(differentials, field: Field) -> list:
    """``reduce_columns`` on the columns of each differential alone, which
    are given as ``(label, column)`` pairs like ``reduce_chain``'s."""
    return [reduce_columns([col for _, col in pairs], field) for pairs in differentials]


def row_suffix_ranks(pivots, nrows: int) -> list[int]:
    """Rank of the last k rows, for k = 1..nrows, of the columns whose
    reduction (``reduce_columns``) left the pivot rows ``pivots``: the
    reduced columns end in distinct rows, so it is the number of pivots
    among those rows."""
    hits = [0] * nrows
    for r in pivots:
        hits[r] += 1
    return list(accumulate(reversed(hits)))


def uncleared_infinity_dims(z: ZeemanComplex) -> dict:
    """Terminal-page dimensions from one uncleared reduction per total
    differential: prefix ranks of its columns, suffix ranks of its rows.
    The row q of a pair (F, G) is -dim G."""
    tot = total_complex(z).complex
    hi = tot.hi
    qs_of = [[-z.fc.face(g).dim for _, g in tot.basis(n)] for n in range(hi + 1)]
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


def kernel_and_image(m: Mat) -> tuple[list[dict], dict]:
    """``(kernel, image)`` of ``m`` from one tagged reduction.

    ``kernel`` is the canonical basis of ``kernel_basis``.  ``image`` maps
    a pivot row to the matrix part of the column that owns it, tag rows
    stripped (a set of rows over F_2, 1 at the pivot row over F_p, an
    integer column over QQ): a basis of the column space of ``m`` with
    distinct largest rows.
    """
    n = m.cols
    relations, owner = _relations(m.columns, m.field)
    if m.field.p == 2:
        image = {r - n: {i - n for i in col if i >= n} for r, col in owner.items() if r >= n}
    else:
        image = {r - n: {i - n: x for i, x in col.items() if i >= n} for r, col in owner.items() if r >= n}
    return list(relations.values()), image


def representatives(kernel, image: dict, field: Field) -> tuple:
    """Kernel vectors extending an image to a basis of the kernel.

    ``kernel`` is a list of sparse vectors; ``image`` is a reduced basis
    of a subspace of their span, as ``kernel_and_image`` returns it.  A
    kernel vector is chosen when it lies outside the span of the image and
    of the kernel vectors before it: the pivot columns of [image | kernel]
    past the image, for any basis of that image.
    """
    if len(kernel) == len(image):
        return ()  # the image is the whole kernel
    ranks = reduce_columns([*image.values(), *kernel], field)[0][len(image):]
    return tuple(v for v, r, before in zip(kernel, ranks, [len(image), *ranks]) if r > before)


def uncleared_cohomology_summary(vs: VSComplex) -> CohomologySummary:
    """Each differential reduced whole, and each kernel reduced again
    against the image of the differential below."""
    dims, reps = [], []
    image: dict = {}
    for p in range(vs.lo, vs.hi + 1):
        kernel, next_image = kernel_and_image(vs.diff(p))
        chosen = representatives(kernel, image, vs.field)
        dims.append(len(chosen))
        reps.append(chosen)
        image = next_image
    return CohomologySummary(vs.lo, vs.hi, tuple(dims), tuple(reps))


def filtered_cochain_complex(fc, g: int, field: Field) -> VSComplex:
    """The upper-set complex above ``g``, its degrees found by one filter
    of the whole upper set per degree and each sign reduced where used."""
    ids = sorted(fc.above(g))
    lo, hi = fc.face(g).dim, max(fc.face(i).dim for i in ids)
    labels = tuple(tuple(i for i in ids if fc.face(i).dim == p) for p in range(lo, hi + 1))
    diffs = []
    for dom, cod in zip(labels, labels[1:]):
        cod_index = {f: i for i, f in enumerate(cod)}
        columns = [
            {cod_index[f2]: field.reduce(sign) for f2, sign in fc.covers_above(f) if f2 in cod_index}
            for f in dom
        ]
        diffs.append(Mat(len(cod), len(dom), columns, field))
    return VSComplex(lo, hi, labels, tuple(diffs), field)


def uncleared_store(fc, field: Field) -> dict:
    """``{face id: (upper-set complex, cohomology summary)}``, uncleared."""
    store = {}
    for f in fc.faces:
        vs = filtered_cochain_complex(fc, f.id, field)
        store[f.id] = (vs, uncleared_cohomology_summary(vs))
    return store


def per_cover_restriction(fc, store: dict, g: int, g_prime: int, p: int) -> Mat:
    """The sign-weighted degree-p restriction from near ``g`` to near its
    facet ``g_prime``, solved for this one cover."""
    (src, src_summary), (dst, dst_summary) = store[g], store[g_prime]
    field = src.field
    src_reps, dst_reps = src_summary.reps(p), dst_summary.reps(p)
    rows, cols = len(dst_reps), len(src_reps)
    if rows == 0 or cols == 0:
        return Mat.zeros(rows, cols, field)
    sign = fc.cover_sign(g_prime, g)
    dst_index = {f: i for i, f in enumerate(dst.basis(p))}
    src_basis = src.basis(p)
    targets = [{dst_index[src_basis[i]]: x for i, x in rep.items()} for rep in src_reps]
    out_cols = []
    for sol in solve_columns(targets, [*dst_reps, *dst.diff(p - 1).columns], field):
        assert sol is not None, "a cocycle failed to reduce in the larger complex"
        out_cols.append({i: field.reduce(sign * c) for i, c in sol.items() if i < rows})
    return Mat(rows, cols, out_cols, field)


def uncleared_page2_representatives(z: ZeemanComplex) -> dict:
    """Page-2 representatives: the kernel of each d1 reduced whole, then
    against the image of the d1 below it."""
    p1 = _page1_data(z)
    reduced = {}
    for (p, q), reps in p1.summaries.items():
        m = p1.dmats.get((p, q))
        if m is None:
            m = Mat.zeros(len(p1.summaries.get((p, q + 1), ())), len(reps), z.field)
        reduced[(p, q)] = kernel_and_image(m)
    out = {}
    for p, q in sorted(p1.summaries):
        image = reduced[(p, q - 1)][1] if (p, q - 1) in reduced else {}
        if chosen := representatives(reduced[(p, q)][0], image, z.field):
            out[(p, q)] = chosen
    return out

"""Rank, kernel and chain reductions that only the tests call, each read
off the library's one elimination kernel.

``rank`` and ``kernel_basis`` rank a ``Mat`` and give its canonical kernel
basis from ``linalg.reduce_columns`` and ``linalg._relations``.
``reduce_chain`` reduces a whole cochain complex with clearing from a list
of its differentials, every column written, and replaces a column at a
pivot row of the differential before by an empty one.  The library's
rank-only reductions clear as they write instead (the page-1 dimensions
in ``zeeman``, the Hochster coboundary in ``eagon_reiner``, and the
terminal-page oracle ``reduced_einf``), so the tests compare this with
them and with the uncleared reductions of ``uncleared``.
"""

from __future__ import annotations

from zeemac.linalg import Field, Mat, _relations, reduce_columns


def rank(m: Mat) -> int:
    """Row rank (= column rank) of ``m`` over its field."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(reduce_columns(m.columns, m.field)[1])


def kernel_basis(m: Mat) -> list[dict]:
    """A canonical basis of the right kernel of ``m``: the relation of each
    non-pivot column, a sparse vector that is 1 at that column."""
    return list(_relations(m.columns, m.field)[0].values())


def reduce_chain(differentials, field: Field):
    """``reduce_columns`` of each differential of a cochain complex, with
    clearing.

    ``differentials[n]`` yields the columns of D_n as ``(label, column)``
    pairs in reduction order (``enumerate(m.columns)`` for a ``Mat``), and
    the rows of D_n are labels of columns of D_{n+1}; the premise is
    D_{n+1} D_n = 0 (see the ``linalg`` docstring).  The differentials are
    reduced in order, and a column of D_{n+1} whose label is a pivot row
    of D_n is not reduced: it lies in the span of the columns before it,
    so its prefix rank repeats the one before.  Yields one ``(ranks,
    pivots)`` per differential, equal to what ``reduce_columns`` gives on
    its columns alone; only the last one is kept.
    """
    cleared: dict = {}
    for pairs in differentials:
        ranks, cleared = reduce_columns([{} if j in cleared else col for j, col in pairs], field)
        yield ranks, cleared

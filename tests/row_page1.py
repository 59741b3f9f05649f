"""The row-wise page-1 computation, a reference for the per-face engine.

``row_page1_data`` runs one dense reduction over each whole row of the
double complex, with the faces interleaved, and one solve over that whole
row per representative.  The library builds page 1 face by face from local
cohomology; the tests require the two to agree exactly: representatives,
d1 matrices, and everything page 2 derives from them.
"""

from __future__ import annotations

from zeemac.cohomology import VSComplex, cohomology_summary
from zeemac.linalg import Mat
from zeemac.zeeman import ZeemanComplex, _Page1Data

from .dense_ranks import dense_solve_in_subspace
from .helpers import densify


def row_page1_data(z: ZeemanComplex) -> _Page1Data:
    if z._page1 is not None:
        return z._page1
    field = z.field
    reps: dict = {}
    for q in sorted({q for (_, q) in z.blocks}, reverse=True):
        labels = tuple(z.block(p, q) for p in range(z.pmax + 1))
        diffs = tuple(z.horiz(p, q) for p in range(z.pmax))
        row = VSComplex(0, z.pmax, labels, diffs, field)
        summary = cohomology_summary(row)
        for p in range(z.pmax + 1):
            r = summary.reps(p)
            if r:
                reps[(p, q)] = r
    dmats: dict = {}
    for (p, q), rlist in sorted(reps.items()):
        tgt = reps.get((p, q + 1), ())
        cob = z.horiz(p - 1, q + 1)
        generators = [list(densify(t, cob.rows)) for t in tgt]
        for j in range(cob.cols):
            generators.append(list(cob.col(j)))
        if not tgt:
            dmats[(p, q)] = Mat.zeros(0, len(rlist), field)
            continue
        cols = []
        vmat = z.vert(p, q)
        for rep in rlist:
            v = vmat.mul_vec(densify(rep, vmat.cols)) if vmat.rows else ()
            if len(v) == 0:
                cols.append([0] * len(tgt))
                continue
            sol = dense_solve_in_subspace(v, generators, field)
            if sol is None:
                raise RuntimeError("vertical image failed to reduce on page 1")
            cols.append(list(sol[: len(tgt)]))
        rows = [[cols[j][i] for j in range(len(rlist))] for i in range(len(tgt))]
        dmats[(p, q)] = Mat.from_rows(rows, field)
    data = _Page1Data(reps, dmats)
    z._page1 = data
    return data

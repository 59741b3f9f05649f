"""The per-class dense page-2 computation, a reference for the batched one.

``dense_page2_data`` runs the d2 zigzag one page-2 class at a time on dense
vectors: it lifts the class to a horizontal cocycle, pushes it down with
``Mat.mul_vec``, and solves each step (horizontal exactness, page-1
classes modulo horizontal coboundaries, then modulo the image of d1) with
its own dense elimination.  Kernels, images and representatives come from
the dense ``_rref`` bodies of ``dense_ranks``.  The library keeps every
vector sparse and solves each step for all classes of a bidegree at once;
the tests require the two to agree exactly: page-2 representatives and d2.
"""

from __future__ import annotations

from zeemac.linalg import Mat
from zeemac.zeeman import ZeemanComplex, _page1_data, _Page2Data

from .dense_ranks import dense_echelon_representatives, dense_image_basis, dense_kernel_basis, dense_solve_in_subspace
from .helpers import densify


def dense_page2_data(z: ZeemanComplex) -> _Page2Data:
    """Page 2 on the page 1 of ``z`` (cached there, so a reference page 1
    set on ``z`` is the one read); page-2 representatives are dense tuples
    in page-1 coordinates.  Nothing is cached on ``z``."""
    field = z.field
    p1 = _page1_data(z)
    summaries = {k: [densify(v, len(z.block(*k))) for v in vs] for k, vs in p1.summaries.items()}

    def dmat(p, q):
        m = p1.dmats.get((p, q))
        if m is None:
            return Mat.zeros(len(summaries.get((p, q + 1), ())), len(summaries.get((p, q), ())), field)
        return m

    reps2: dict = {}
    for (p, q), rlist in sorted(summaries.items()):
        out = dmat(p, q)
        inc = dmat(p, q - 1)
        ker = dense_kernel_basis(out, field)
        img = dense_image_basis(inc, field)
        chosen = dense_echelon_representatives(ker, img, field)
        if chosen:
            reps2[(p, q)] = chosen

    d2: dict = {}
    for (p, q), rlist in sorted(reps2.items()):
        tgt = reps2.get((p - 1, q + 2), ())
        src_reps1 = summaries.get((p, q), ())
        tgt_reps1 = summaries.get((p - 1, q + 2), ())
        cols = []
        for e in rlist:
            zvec = [0] * len(z.block(p, q))
            for c, rep in zip(e, src_reps1):
                if c:
                    for i, x in enumerate(rep):
                        zvec[i] += c * x
            zvec = [field.reduce(x) for x in zvec]
            v = z.vert(p, q).mul_vec(zvec) if z.block(p, q + 1) else ()
            if any(v):
                h = z.horiz(p - 1, q + 1)
                w = dense_solve_in_subspace(v, [h.col(j) for j in range(h.cols)], field)
                if w is None:
                    raise RuntimeError("page-2 class has a non-exact vertical image")
                u = z.vert(p - 1, q + 1).mul_vec(w) if z.block(p - 1, q + 2) else ()
            else:
                u = [0] * len(z.block(p - 1, q + 2))
            if not tgt:
                cols.append({})
                continue
            cob = z.horiz(p - 2, q + 2)
            gens1 = [list(t) for t in tgt_reps1] + [list(cob.col(j)) for j in range(cob.cols)]
            c1 = dense_solve_in_subspace(u, gens1, field)
            if c1 is None:
                raise RuntimeError("page-2 image failed to reduce to page-1 classes")
            c1 = list(c1[: len(tgt_reps1)])
            gens2 = [list(t) for t in tgt]
            dm = dmat(p - 1, q + 1)
            for j in range(dm.cols):
                gens2.append(list(dm.col(j)))
            c2 = dense_solve_in_subspace(c1, gens2, field)
            if c2 is None:
                raise RuntimeError("page-2 image failed to reduce modulo page-1 boundaries")
            cols.append({i: x for i, x in enumerate(c2[: len(tgt)]) if x})
        d2[(p, q)] = Mat(len(tgt), len(rlist), cols, field)
    return _Page2Data(reps2, d2)

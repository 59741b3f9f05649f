"""The subset-by-subset Hochster oracle, a reference for the shared-coboundary one.

``brute_betti_hochster`` visits every nonempty vertex subset sigma of the
dual, filters its faces down to those inside sigma, and builds and reduces
the reduced cochain complex of that induced subcomplex from scratch with
``brute_reduced_cohomology_dims``.  It takes no shortcut: acyclic subsets
(faces, cones, subsets that differ only by vertices outside the dual) are
eliminated like any other.  The library builds the dual's coboundary once
and skips those subsets; the tests require the two tables to agree exactly.
"""

from __future__ import annotations

from itertools import combinations

from zeemac.complexes import SimplicialComplex, VoidComplex
from zeemac.eagon_reiner import BettiTable
from zeemac.linalg import Field, Mat

from .chain_ranks import rank


def brute_reduced_cohomology_dims(faces, field: Field) -> dict:
    """Reduced cochain cohomology dimensions of a simplicial face family.

    ``faces`` must be downward closed and contain the empty face; degree j
    holds the faces with j+1 vertices (the empty face in degree -1).  The
    family {empty face} has H~^{-1} = k.  Standard alternating-sign
    coboundary; independent of the face-poset machinery elsewhere.
    """
    faces = set(faces)
    if frozenset() not in faces:
        raise ValueError("the face family must contain the empty face")
    vertices = sorted(set().union(*faces))
    by_card: dict[int, list] = {}
    for s in faces:
        by_card.setdefault(len(s), []).append(s)
    for k in by_card:
        by_card[k].sort(key=sorted)
    top = max(by_card)
    mats = {}
    for k in range(top):
        dom = by_card.get(k, [])
        cod = by_card.get(k + 1, [])
        idx = {s: i for i, s in enumerate(cod)}
        columns = []
        for s in dom:
            col = {}
            for v in vertices:
                if v not in s and (t := s | {v}) in idx:
                    col[idx[t]] = field.reduce(-1 if sorted(t).index(v) % 2 else 1)
            columns.append(col)
        mats[k] = Mat(len(cod), len(dom), columns, field)
    dims = {}
    for k in range(top + 1):
        n_k = len(by_card.get(k, []))
        out_rank = rank(mats[k]) if k in mats else 0
        in_rank = rank(mats[k - 1]) if (k - 1) in mats else 0
        h = n_k - out_rank - in_rank
        if h:
            dims[k - 1] = h  # degree shift: k vertices sit in degree k-1
    return dims


def brute_betti_hochster(sc_star, field: Field) -> BettiTable:
    """The multigraded Betti table of the dual ideal, by induced-subcomplex
    cohomology.  Accepts the void marker and reports the degenerate table."""
    if isinstance(sc_star, VoidComplex):
        return BettiTable({}, void_dual=True)
    if not isinstance(sc_star, SimplicialComplex):
        raise TypeError("expected a SimplicialComplex or the void marker")
    d = sc_star.d
    all_faces = sc_star.faces()
    entries: dict = {}
    for size in range(1, d + 1):
        for c in combinations(range(1, d + 1), size):
            sigma = frozenset(c)
            induced = {f for f in all_faces if f <= sigma}
            dims = brute_reduced_cohomology_dims(induced, field)
            for i in range(size):
                h = dims.get(size - i - 2, 0)
                if h:
                    entries[(i, sigma)] = h
    return BettiTable(entries)

"""The tuple-keyed pair index, a reference for the face-run writer.

``TupleIndex`` lists every pair (F, G) of the double complex as an
``(f, g)`` tuple, keeps one ``{(f, g): position}`` dict entry per pair,
and writes each column with one tuple lookup per entry: the index and
writer the library used before it kept only runs of faces and their
offsets.  It reads the covers and the admitted faces, nothing of the
library's runs, so the tests can require the two to agree exactly: every
total differential and every ``horiz``/``vert`` block map as ``==``-equal
``Mat`` objects, the pair lists of every degree and block, and the
terminal page.
"""

from __future__ import annotations

from collections import Counter

from zeemac.complexes import FaceComplex
from zeemac.linalg import Field, Mat
from zeemac.zeeman import _check_degree

from .chain_ranks import reduce_chain


class TupleIndex:
    def __init__(self, fc: FaceComplex, a, field: Field):
        a = _check_degree(a, fc.ambient_dim)
        admitted = {g.id for g in fc.faces} if a is None else fc.faces_containing(a)
        blocks: dict = {}
        for g in sorted(admitted):
            qg = -fc.face(g).dim
            for f in sorted(fc.above(g)):
                blocks.setdefault((fc.face(f).dim, qg), []).append((f, g))
        by_degree: dict = {}
        for p, q in sorted(blocks, key=lambda k: -k[1]):  # dim G ascending
            by_degree.setdefault(p + q, []).extend(blocks[(p, q)])
        self.fc, self.field = fc, field
        self.labels = tuple(tuple(by_degree.get(n, ())) for n in range(max(by_degree, default=0) + 1))
        self.pos = {pair: i for level in self.labels for i, pair in enumerate(level)}
        self.blocks = {k: tuple(v) for k, v in blocks.items()}
        self.signs = {s: field.reduce(s) for s in (1, -1)}

    def column(self, f: int, g: int, vertical: bool, horizontal: bool, start: int = 0) -> dict:
        fc, pos, signs = self.fc, self.pos, self.signs
        col = {}
        if vertical:
            for g2, sign in fc.covers_below(g):
                i = pos.get((f, g2))  # None when g2 is not admitted
                if i is not None:
                    col[i - start] = signs[sign]
        if horizontal:
            twist = -1 if fc.face(g).dim % 2 else 1
            for f2, sign in fc.covers_above(f):
                col[pos[(f2, g)] - start] = signs[twist * sign]
        return col

    def block_map(self, p: int, q: int, vertical: bool) -> Mat:
        rows = self.blocks.get((p, q + 1) if vertical else (p + 1, q), ())
        start = self.pos[rows[0]] if rows else 0
        columns = [self.column(f, g, vertical, not vertical, start) for f, g in self.blocks.get((p, q), ())]
        return Mat(len(rows), len(columns), columns, self.field)

    def total_differentials(self) -> tuple:
        return tuple(
            Mat(len(cod), len(dom), [self.column(f, g, True, True) for f, g in dom], self.field)
            for dom, cod in zip(self.labels, self.labels[1:])
        )

    def infinity_dims(self) -> dict:
        """The essential columns of the total complex, each at its pair's
        bidegree (dim F, -dim G)."""
        diffs = self.total_differentials()
        zero_top = [(j, {}) for j in range(len(self.labels[-1]))]
        reduced = reduce_chain([*(enumerate(d.columns) for d in diffs), zero_top], self.field)
        dims: Counter = Counter()
        into: dict = {}
        for level, (ranks, pivots) in zip(self.labels, reduced):
            before = 0
            for j, ((f, g), rank) in enumerate(zip(level, ranks)):
                if rank == before and j not in into:
                    dims[(self.fc.face(f).dim, -self.fc.face(g).dim)] += 1
                before = rank
            into = pivots
        return dict(dims)

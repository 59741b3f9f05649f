"""Alexander dualization of resolutions, Betti tables, and the Hochster oracle.

Over the orthant a minimal linear irreducible resolution dualizes to the
linear free resolution of the ideal of the Alexander dual complex: the
copy of k[G] in position i becomes a free generator of multidegree
(complement of the vertex set of G) in homological position i, and the
scalar blocks transpose.  Betti tables read the generator multiplicities.

``betti_hochster`` is the independent oracle: it computes the same table
from reduced cochain cohomology of induced subcomplexes,

    beta_{i,sigma} = dim H~^{|sigma|-i-2}(restriction of the dual to sigma)

with the reduced complex of the empty-face-only complex contributing k in
degree -1.  The two routes share nothing but the scalar field, so their
agreement is a real cross-check.

Degenerate duals carry explicit markers: when the original complex is the
full simplex its dual is void and both routes report an empty table marked
void (the dual ideal is the unit ideal).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import SimplicialComplex, VoidComplex
from .linalg import Field, Mat, rank
from .resolutions import FaceModuleComplex


class UnsupportedAmbientError(ValueError):
    pass


@dataclass(frozen=True)
class BettiTable:
    """Multigraded Betti numbers: (homological position, vertex subset) ->
    multiplicity.  ``void_dual`` marks the degenerate table of the unit
    ideal (void dual complex)."""

    entries: dict
    void_dual: bool = False

    def normalized(self) -> dict:
        return {k: v for k, v in self.entries.items() if v}

    def coarse(self) -> dict:
        """The (i, total degree) view."""
        out: dict = {}
        for (i, s), v in self.entries.items():
            if v:
                key = (i, len(s))
                out[key] = out.get(key, 0) + v
        return out

    def total(self, i: int) -> int:
        return sum(v for (j, _), v in self.entries.items() if j == i)

    def max_position(self) -> int:
        nz = [i for (i, _), v in self.entries.items() if v]
        return max(nz) if nz else -1

    def same_entries(self, other: "BettiTable") -> bool:
        return self.normalized() == other.normalized() and self.void_dual == other.void_dual


@dataclass(frozen=True)
class DualFreeComplex:
    """A complex of multigraded free modules: per position a tuple of
    generator multidegrees (vertex subsets), and for each consecutive pair
    the scalar block of the map from position i+1 into position i."""

    d: int
    terms: tuple
    maps: tuple
    void_dual: bool = False

    def check_support(self) -> bool:
        """Blocks only where the column generator degree contains the row's."""
        for i, m in enumerate(self.maps):
            rows = self.terms[i]
            cols = self.terms[i + 1]
            for c, col in enumerate(m.columns):
                if any(not cols[c] >= rows[r] for r in col):
                    return False
        return True

    def check_composition(self, field: Field) -> bool:
        for i in range(len(self.maps) - 1):
            if not self.maps[i].mul(self.maps[i + 1], field).is_zero():
                return False
        return True


def dualize(res: FaceModuleComplex, d: int | None = None) -> DualFreeComplex:
    """Transport a resolution over the orthant to the dual free complex.

    Each copy of k[G] in position i becomes a generator of multidegree
    (full vertex set minus the vertices of G) in position i; map blocks
    keep the same scalars with the indexing transposed.  Only simplicial
    ambients are supported.
    """
    fc = res.fc
    if d is None:
        d = fc.ambient_dim
    universe = frozenset(range(1, d + 1))
    vertex_sets = []
    for f in fc.faces:
        if f.key is None or f.key[0] != "s":
            raise UnsupportedAmbientError(
                "dualization needs a simplicial ambient (orthant semigroup)"
            )
        vertex_sets.append(frozenset(f.key[1]))
    terms = tuple(
        tuple(universe - vertex_sets[g] for g in term.faces) for term in res.terms
    )
    maps = tuple(m.transpose() for m in res.maps)
    void = any(len(s) == 0 for s in terms[0]) if terms else False
    return DualFreeComplex(d, terms, maps, void_dual=void)


def betti_from_dual(dc: DualFreeComplex) -> BettiTable:
    """Read generator multiplicities off the dual free complex.

    A void-marked dual (the original complex was the full simplex, so the
    dual ideal is the unit ideal) reports the empty table with the marker.
    """
    if dc.void_dual:
        return BettiTable({}, void_dual=True)
    entries: dict = {}
    for i, gens in enumerate(dc.terms):
        for s in gens:
            entries[(i, s)] = entries.get((i, s), 0) + 1
    return BettiTable(entries)


def reduced_cohomology_dims(faces, field: Field) -> dict:
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
        out_rank = rank(mats[k], field) if k in mats else 0
        in_rank = rank(mats[k - 1], field) if (k - 1) in mats else 0
        h = n_k - out_rank - in_rank
        if h:
            dims[k - 1] = h  # degree shift: k vertices sit in degree k-1
    return dims


def betti_hochster(sc_star, field: Field) -> BettiTable:
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
            dims = reduced_cohomology_dims(induced, field)
            for i in range(size):
                h = dims.get(size - i - 2, 0)
                if h:
                    entries[(i, sigma)] = h
    return BettiTable(entries)


def is_linear_table(bt: BettiTable) -> bool:
    """Whether the support lies on a single diagonal j = j0 + i (an empty
    table is vacuously linear)."""
    diag = {len(s) - i for (i, s), v in bt.entries.items() if v}
    return len(diag) <= 1

"""Alexander dualization of resolutions, Betti tables, and the Hochster oracle.

Over the orthant a minimal linear irreducible resolution dualizes to the
linear free resolution of the ideal of the Alexander dual complex: the
copy of k[G] in position i becomes a free generator of multidegree
(complement of the vertex set of G) in homological position i, and the
scalar blocks transpose.  Betti tables read the generator multiplicities.

``betti_hochster`` is the independent oracle: it computes the same table
from reduced cochain cohomology of induced subcomplexes (Hochster's
formula),

    beta_{i,sigma} = dim H~^{|sigma|-i-2}(restriction of the dual to sigma)

with the reduced complex of the empty-face-only complex contributing k in
degree -1.  The dual's faces are vertex bitmasks, and its reduced
coboundary is built once per (dual, field): one column per face, the sign
(-1)^(position of v in F+{v}) at the row of each coface F+{v}, reduced
into the field once.  The complex induced on sigma takes the columns of
the faces inside sigma and keeps their rows inside sigma; the sign does not
depend on sigma.  Most subsets are answered without elimination, and
exactly:

* only s = sigma & (vertices of the dual) matters, since a vertex that is
  not a face adds no face; each distinct s is evaluated once, and s empty
  gives {empty face}, with H~^{-1} = k;
* if s is a face, the induced complex is a simplex, which is acyclic;
* if some v in s is a cone point (F+{v} is a face for every face F inside
  s) the induced complex is a cone, which is acyclic.  It suffices to test
  F = G & s for each facet G of the dual, since every face inside s lies
  in one of those.

The remaining subsets are reduced once each, one cardinality block after
another, with clearing: the coboundary squares to zero, so the column of a
face that is a pivot row of the block below is left unwritten, and each
block's columns are written only once the block below is reduced.  The
family is downward closed, so the blocks stop at the first one with no
face inside s.
``reduced_cohomology_dims`` is the same routine evaluated at the full
vertex set.  The oracle reads only the dual's facets: it shares nothing
with the face-poset and local-cohomology store but the scalar field and
the elimination kernel, and never looks at links or at local cohomology,
so its agreement with the dualized resolution is a real cross-check.

Degenerate duals carry explicit markers: when the original complex is the
full simplex its dual is void and both routes report an empty table marked
void (the dual ideal is the unit ideal).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, combinations

from .complexes import SimplicialComplex, VoidComplex, _face_masks
from .linalg import Field, _composes_to_zero, reduce_columns
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

    def check_composition(self) -> bool:
        """Each map followed by the next one down is zero: ``maps[i] maps[i + 1]``,
        as ``maps[i]`` runs from position i + 1 into i."""
        return _composes_to_zero(self.maps[::-1])


def dualize(res: FaceModuleComplex) -> DualFreeComplex:
    """Transport a resolution over the orthant to the dual free complex.

    Each copy of k[G] in position i becomes a generator of multidegree
    (full vertex set minus the vertices of G) in position i; map blocks
    keep the same scalars with the indexing transposed.  Only simplicial
    ambients are supported.
    """
    fc = res.fc
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


class _Coboundary:
    """The reduced coboundary of one face family, built once and evaluated
    on any induced subcomplex (see the module docstring).  Faces are vertex
    bitmasks whose bit order follows the vertex order, sorted by
    cardinality; a face's index labels both its column and its row, so the
    coboundary out of each cardinality block is one differential of a
    chain that ``_eliminate`` reduces with clearing."""

    def __init__(self, masks, field: Field):
        self.field = field
        self.faces = sorted(masks, key=int.bit_count)  # by cardinality
        self.index = {m: i for i, m in enumerate(self.faces)}
        self.vertices = 0
        for m in self.faces:
            self.vertices |= m
        # the faces with k vertices are self.faces[starts[k]:starts[k + 1]]
        sizes = Counter(m.bit_count() for m in self.faces)
        self.starts = [0, *accumulate(sizes[k] for k in range(len(sizes)))]
        one, minus = field.reduce(1), field.reduce(-1)
        self.columns = []  # per face: (vertex bit, row, scalar) of each coface
        for m in self.faces:
            col = []
            rest = self.vertices & ~m
            while rest:
                b = rest & -rest
                rest ^= b
                row = self.index.get(m | b)
                if row is not None:
                    col.append((b, row, minus if (m & (b - 1)).bit_count() & 1 else one))
            self.columns.append(col)
        self.facets = [m for m, col in zip(self.faces, self.columns) if not col]

    def dims(self, s: int) -> dict:
        """Reduced cohomology dimensions of the subcomplex induced on the
        vertex set ``s`` (inside ``self.vertices``); degree j holds the faces
        with j+1 vertices."""
        if not s:
            return {-1: 1}  # {empty face}
        if s in self.index or self._has_cone_point(s):
            return {}  # a simplex, or a cone: acyclic
        return self._eliminate(s)

    def _has_cone_point(self, s: int) -> bool:
        """Whether some v in s has F+{v} a face for every face F inside s.
        It suffices to test the largest such F, the traces G & s of the
        facets G, since every face inside s lies in one of them."""
        candidates = s
        for g in self.facets:
            trace = g & s
            rest = candidates & ~g
            while rest:
                b = rest & -rest
                rest ^= b
                if trace | b not in self.index:
                    candidates ^= b
            if not candidates:
                return False
        return True

    def _eliminate(self, s: int) -> dict:
        # One differential per cardinality block, from k to k + 1 vertices,
        # reduced in order with clearing: a face's index labels its column
        # and its row, so a column of block k at a pivot row of block k - 1
        # is left unwritten.  The family is downward closed, so no face past
        # the first block without a face inside s is inside s either.
        dims, rank_in, pivots = {}, 0, {}
        for k, (start, end) in enumerate(zip(self.starts, self.starts[1:])):
            block = [i for i in range(start, end) if not self.faces[i] & ~s]
            if not block:
                break
            cols = [{} if i in pivots else {row: x for b, row, x in self.columns[i] if b & s} for i in block]
            pivots = reduce_columns(cols, self.field)[1]
            if h := len(block) - len(pivots) - rank_in:
                dims[k - 1] = h  # degree shift: k vertices sit in degree k-1
            rank_in = len(pivots)
        return dims


def reduced_cohomology_dims(faces, field: Field) -> dict:
    """Reduced cochain cohomology dimensions of a simplicial face family.

    ``faces`` must be downward closed and contain the empty face, or
    ``ValueError`` names a face it lacks; degree j holds the faces with j+1
    vertices (the empty face in degree -1).  The family {empty face} has
    H~^{-1} = k.  Standard alternating-sign coboundary; independent of the
    face-poset machinery elsewhere.
    """
    faces = set(faces)
    if frozenset() not in faces:
        raise ValueError("the face family must contain the empty face")
    for f in faces:
        for v in f:
            if f - {v} not in faces:
                raise ValueError(f"the face family must be downward closed: {sorted(f)} lacks its facet {sorted(f - {v})}")
    bit = {v: 1 << i for i, v in enumerate(sorted(set().union(*faces)))}
    cob = _Coboundary({sum(bit[v] for v in f) for f in faces}, field)
    return cob.dims(cob.vertices)


def betti_hochster(sc_star, field: Field) -> BettiTable:
    """The multigraded Betti table of the dual ideal, by induced-subcomplex
    cohomology.  Accepts the void marker and reports the degenerate table."""
    if isinstance(sc_star, VoidComplex):
        return BettiTable({}, void_dual=True)
    if not isinstance(sc_star, SimplicialComplex):
        raise TypeError("expected a SimplicialComplex or the void marker")
    d = sc_star.d
    cob = _Coboundary(_face_masks(sc_star.facets), field)
    dims_of: dict = {}  # one evaluation per distinct sigma & (vertices of the dual)
    entries: dict = {}
    bits = [1 << v for v in range(1, d + 1)]
    for size in range(1, d + 1):
        for c in combinations(bits, size):
            s = cob.vertices & sum(c)  # a vertex that is no face adds no face
            dims = dims_of.get(s)
            if dims is None:
                dims = dims_of[s] = cob.dims(s)
            if dims:
                sigma = frozenset(b.bit_length() - 1 for b in c)
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

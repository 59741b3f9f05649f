"""Graded face posets with incidence functions, and simplicial complexes.

A FaceComplex is the combinatorial carrier used everywhere else: a graded
poset of faces with signed cover relations (the incidence function).  The
minimal face has dimension 0 and corresponds to the apex of the ambient
cone; a simplicial face on k vertices becomes a cone face of dimension k.

Each FaceComplex keeps one graded upper-set table (``upper_levels``): for
a face g, the faces >= g by dimension, each level in id order, read off
the covers on first use and kept.  The local-cohomology store, ``build``,
the exactness certificate, ``above`` and ``upper_set`` all read it.

A valid complex is also cone-like: every lower interval [0, F], F other
than the minimal face, is acyclic (``lower_interval_defect``), the
premise of the closed-form terminal page of ``zeeman.page``.

Complexes built from geometry (cone_of_simplicial, semigroup.face_lattice)
carry an attached semigroup so that lattice-point membership and
relative-interior queries work; hand-authored polyhedral complexes have no
geometry and support only degree-zero computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations


class DegenerateComplexError(ValueError):
    """The input has no faces at all, or violates a structural precondition."""


@dataclass(frozen=True)
class Face:
    id: int
    dim: int
    label: str
    key: tuple | None = None  # canonical identity: ('s', vertices) or ('v', vanishing)


@dataclass(frozen=True)
class Cover:
    lower: int
    upper: int
    sign: int


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]
    bad_diamonds: tuple[tuple[int, int], ...]  # (lower id, upper id) with nonzero sign sum


class FaceComplex:
    """Faces plus signed covers; immutable after construction.

    Construction performs only referential checks so that ``validate`` can
    report structural defects (missing minimal face, broken incidence
    axiom) instead of refusing to build.
    """

    def __init__(self, faces, covers, ambient_dim, cone_faces=None, semigroup=None):
        self.faces = tuple(faces)
        self.covers = tuple(covers)
        self.ambient_dim = ambient_dim
        self.cone_faces = dict(cone_faces) if cone_faces else None
        self.semigroup = semigroup
        ids = [f.id for f in self.faces]
        if ids != list(range(len(ids))):
            raise ValueError("face ids must be 0..n-1 in order")
        for c in self.covers:
            if not (0 <= c.lower < len(ids) and 0 <= c.upper < len(ids)):
                raise ValueError(f"cover references unknown face: {c}")
            if c.sign not in (1, -1):
                raise ValueError(f"cover sign must be +1 or -1: {c}")
        self._up: dict[int, list[tuple[int, int]]] = {f.id: [] for f in self.faces}
        self._down: dict[int, list[tuple[int, int]]] = {f.id: [] for f in self.faces}
        for c in self.covers:
            self._up[c.lower].append((c.upper, c.sign))
            self._down[c.upper].append((c.lower, c.sign))
        self._cover_sign = {(c.lower, c.upper): c.sign for c in self.covers}
        self._upper: dict[int, tuple] = {}  # the upper-set table, filled by upper_levels
        self._local_cohomology: dict = {}  # Field -> {key: value}, filled by cohomology._stored
        self._cover_columns: dict = {}  # Field -> the signed cover table, filled by cohomology._cover_columns

    @property
    def dim(self) -> int:
        return max(f.dim for f in self.faces)

    def face(self, fid: int) -> Face:
        return self.faces[fid]

    def faces_of_dim(self, k: int) -> list[int]:
        return [f.id for f in self.faces if f.dim == k]

    def minimal_face(self) -> int:
        zero = self.faces_of_dim(0)
        if len(zero) != 1:
            raise DegenerateComplexError(f"expected a unique dimension-0 face, found {len(zero)}")
        return zero[0]

    def covers_above(self, fid: int) -> list[tuple[int, int]]:
        return self._up[fid]

    def covers_below(self, fid: int) -> list[tuple[int, int]]:
        return self._down[fid]

    def cover_sign(self, lower: int, upper: int) -> int:
        return self._cover_sign[(lower, upper)]

    def is_cover(self, lower: int, upper: int) -> bool:
        return (lower, upper) in self._cover_sign

    def upper_levels(self, fid: int) -> tuple[tuple[int, ...], ...]:
        """The row of ``fid`` in the upper-set table: level i holds the faces
        >= fid of dimension dim fid + i in id order.  On a graded complex
        (``validate`` checks that) they are the faces covering one of level
        i - 1, so the row is read off the covers on first use and kept.  A
        walk as long as the face count has met a cycle of covers: it raises."""
        levels = self._upper.get(fid)
        if levels is None:
            up, out, level = self._up, [], (fid,)
            for _ in self.faces:
                out.append(level)
                level = tuple(sorted({h for f in level for h, _ in up[f]}))
                if not level:
                    break
            else:
                raise DegenerateComplexError(f"the covers above face {self.faces[fid].label} form a cycle")
            levels = self._upper[fid] = tuple(out)
        return levels

    @cached_property
    def lower_interval_defect(self) -> tuple[int, int] | None:
        """``(F, k)`` for the first face F, by dimension and then id, other
        than the minimal face whose lower interval [0, F] is not acyclic
        over the integers, so not over every field, with k the least
        dimension at which the homology of its chain complex (each face to
        its facets, by the cover signs) is nonzero; None when there is none.
        A complex with geometry skips the scan: its lower intervals are face
        posets of polytopes, which are acyclic.  Computed once and kept."""
        if self.has_geometry:
            return None
        for f in sorted((f for f in self.faces if f.dim), key=lambda f: (f.dim, f.id)):
            lower = sorted(self.below(f.id))
            levels = [[g for g in lower if self.faces[g].dim == k] for k in range(f.dim + 1)]
            diagonals = [[], *(_integer_diagonal([dict(self._down[g]) for g in level]) for level in levels[1:]), []]
            for k, level in enumerate(levels):
                if len(level) > len(diagonals[k]) + len(diagonals[k + 1]) or max(diagonals[k + 1], default=1) > 1:
                    return f.id, k
        return None

    def above(self, fid: int) -> set[int]:
        """All faces >= fid: the union of its row of the upper-set table."""
        return set().union(*self.upper_levels(fid))

    def below(self, fid: int) -> set[int]:
        """All faces <= fid (reflexive downward closure through covers)."""
        return _closure(self._down, fid)

    # -- geometry-backed queries ------------------------------------------

    @property
    def has_geometry(self) -> bool:
        return self.semigroup is not None and self.cone_faces is not None

    def require_geometry(self, message="this face complex carries no semigroup geometry; build it via "
                         "cone_of_simplicial or face_lattice to evaluate lattice degrees"):
        """The one guard of every lattice-degree query."""
        if not self.has_geometry:
            raise MissingGeometryError(message)

    def faces_containing(self, a) -> set[int]:
        """The ids of the faces on which the lattice point ``a`` lies: one
        evaluation of the functionals, then a subset test per face."""
        self.require_geometry()
        zero = self.semigroup.zero_set(a)
        if zero is None:
            return set()
        return {fid for fid, cf in self.cone_faces.items() if cf.vanishing <= zero}

    def contains_degree(self, fid: int, a) -> bool:
        """Whether the lattice point ``a`` lies on the face ``fid``."""
        self.require_geometry()
        return self.semigroup.membership(self.cone_faces[fid], a)

    def relint_contains(self, fid: int, a) -> bool:
        """Whether ``a`` lies in the relative interior of the face ``fid``."""
        self.require_geometry()
        return self.semigroup.relint_membership(self.cone_faces[fid], a)


class MissingGeometryError(ValueError):
    pass


def _integer_diagonal(columns) -> list[int]:
    """The absolute values on a diagonal form of the integer matrix with
    these sparse columns (row -> entry), reached by row and column
    operations over the integers: as many as its rank, and one exceeds 1
    exactly when its cokernel has torsion.  Each step divides the row and
    the column of an entry of least size (a unit, when there is one) by it;
    a remainder is the next, smaller pivot."""
    cols = [dict(c) for c in columns if c]
    out = []
    while cols:
        col, r = next(((c, r) for c in cols for r, x in c.items() if abs(x) == 1), None) or min(
            ((c, r) for c in cols for r in c), key=lambda cr: abs(cr[0][cr[1]])
        )
        pivot = col[r]
        for c in cols:  # column operations: clear row r outside col
            if c is not col and r in c:
                _add(c, col, -(c[r] // pivot))
        for s in [s for s in col if s != r]:  # row operations: clear col outside row r
            q = col[s] // pivot
            for c in cols:
                if r in c:
                    _add(c, {s: c[r]}, -q)
        if len(col) == 1 and not any(r in c for c in cols if c is not col):
            out.append(abs(pivot))
            col.clear()
        cols = [c for c in cols if c]
    return out


def _add(c: dict, v: dict, q: int) -> None:
    """c += q v on sparse integer vectors, dropping the zeros."""
    for i, x in v.items():
        if y := c.get(i, 0) + q * x:
            c[i] = y
        else:
            c.pop(i, None)


def lower_interval_problem(fc: FaceComplex) -> str | None:
    """``validate``'s report of ``fc.lower_interval_defect``: the face F,
    and the bidegree (dim F, -k) of column F of the double complex, where
    [0, F] has homology; None when there is no defect."""
    if fc.lower_interval_defect is None:
        return None
    f, k = fc.lower_interval_defect
    face = fc.face(f)
    return (
        f"the lower interval of face {face.label} (dim {face.dim}) is not acyclic: "
        f"its homology is nonzero in dimension {k}, at (p, q) = ({face.dim}, {-k}); "
        "the complex is not cone-like"
    )


def _closure(adjacent: dict, fid: int) -> set[int]:
    """The faces reached from ``fid`` through ``adjacent`` (``fid`` included);
    it needs no grading, so ``validate`` can use it on any input."""
    seen = {fid}
    stack = [fid]
    while stack:
        for h, _ in adjacent[stack.pop()]:
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return seen


@dataclass(frozen=True)
class SimplicialComplex:
    """An abstract simplicial complex on vertices 1..d, given by its facets.

    Facets must be pairwise incomparable; the face family is their downward
    closure together with the empty face.  The void complex (no faces at
    all) is not representable here; see VoidComplex.
    """

    d: int
    facets: tuple[frozenset, ...]

    def __post_init__(self):
        if not self.facets:
            raise DegenerateComplexError("no facets: the void complex is not accepted here")
        seen = set()
        for f in self.facets:
            if not isinstance(f, frozenset):
                raise TypeError("facets must be frozensets")
            if any(not (1 <= v <= self.d) for v in f):
                raise ValueError(f"facet {sorted(f)} leaves the vertex range 1..{self.d}")
            if f in seen:
                raise ValueError(f"duplicate facet {sorted(f)}")
            seen.add(f)
        for a, b in combinations(self.facets, 2):
            if a <= b or b <= a:
                raise ValueError(f"facets must be incomparable: {sorted(a)} vs {sorted(b)}")

    @classmethod
    def from_facets(cls, d: int, facets) -> "SimplicialComplex":
        fs = sorted({frozenset(f) for f in facets}, key=lambda s: (len(s), sorted(s)))
        return cls(d, tuple(fs))

    def faces(self) -> set[frozenset]:
        out = {frozenset()}
        for f in self.facets:
            f = sorted(f)
            for k in range(1, len(f) + 1):
                out.update(frozenset(c) for c in combinations(f, k))
        return out

    def __contains__(self, s) -> bool:
        s = frozenset(s)
        return any(s <= f for f in self.facets)


class VoidComplex:
    """Marker for the void complex (no faces, not even the empty one)."""

    is_void = True

    def __repr__(self) -> str:
        return "VoidComplex()"


VOID_COMPLEX = VoidComplex()


def _set_label(s) -> str:
    return "{" + ",".join(str(v) for v in sorted(s)) + "}"


def cone_of_simplicial(sc: SimplicialComplex) -> FaceComplex:
    """Realize a simplicial complex as a cone complex over the orthant.

    Each simplicial face S (including the empty one) becomes a cone face of
    dimension |S|; covers are (S, S+{v}) signed by (-1)^(position of v in
    sorted(S+{v})), the usual cochain convention.  The orthant semigroup is
    attached so graded evaluation works downstream.
    """
    from .semigroup import AffineSemigroup, ConeFace

    face_sets = sorted(sc.faces(), key=lambda s: (len(s), sorted(s)))
    index = {s: i for i, s in enumerate(face_sets)}
    faces = [Face(i, len(s), _set_label(s), key=("s", tuple(sorted(s)))) for i, s in enumerate(face_sets)]
    covers = []
    for s in face_sets:
        for v in range(1, sc.d + 1):
            if v in s:
                continue
            t = s | {v}
            if t in index:
                pos = sorted(t).index(v)
                covers.append(Cover(index[s], index[t], -1 if pos % 2 else 1))
    q = AffineSemigroup.orthant(sc.d)
    cone_faces = {}
    for s, i in index.items():
        vanishing = frozenset(j for j in range(sc.d) if (j + 1) not in s)
        interior = tuple(1 if (j + 1) in s else 0 for j in range(sc.d))
        cone_faces[i] = ConeFace(vanishing, len(s), interior)
    return FaceComplex(faces, covers, sc.d, cone_faces=cone_faces, semigroup=q)


@dataclass(frozen=True)
class UpperSet:
    """Faces above a fixed face, indexed as a cochain complex: a face of
    dimension p sits in cohomological degree p."""

    base: int
    lo: int
    hi: int
    by_degree: tuple[tuple[int, ...], ...]

    def degree(self, p: int) -> tuple[int, ...]:
        if self.lo <= p <= self.hi:
            return self.by_degree[p - self.lo]
        return ()


def upper_set(fc: FaceComplex, g: int) -> UpperSet:
    """The faces of ``fc`` containing ``g``, organized by dimension: its row
    of the upper-set table."""
    if not (0 <= g < len(fc.faces)):
        raise KeyError(f"unknown face id {g}")
    levels = fc.upper_levels(g)
    lo = fc.face(g).dim
    return UpperSet(g, lo, lo + len(levels) - 1, levels)


def validate(fc: FaceComplex) -> ValidationReport:
    """Check gradedness, the unique minimal face, the incidence axiom and,
    once those hold, that the complex is cone-like: the first lower interval
    that is not acyclic (``lower_interval_problem``).

    Failures are reported, not raised; every codimension-2 diamond whose
    signed path sum is nonzero is listed.
    """
    problems: list[str] = []
    zero = fc.faces_of_dim(0)
    if len(zero) != 1:
        problems.append(f"expected exactly one dimension-0 face, found {len(zero)}")
    if len({(c.lower, c.upper) for c in fc.covers}) != len(fc.covers):
        problems.append("duplicate cover pairs")
    for c in fc.covers:
        dlo, dhi = fc.face(c.lower).dim, fc.face(c.upper).dim
        if dhi != dlo + 1:
            problems.append(f"cover {c.lower}->{c.upper} raises dimension by {dhi - dlo}, not 1")
    for f in fc.faces:
        if f.dim > 0 and not fc.covers_below(f.id):
            problems.append(f"face {f.label} (dim {f.dim}) has no facet below it")
    if len(zero) == 1:
        reachable = _closure(fc._up, zero[0])
        missing = [f.label for f in fc.faces if f.id not in reachable]
        if missing:
            problems.append(f"faces not above the minimal face: {', '.join(missing)}")
    bad = []
    for g in fc.faces:
        # codim-2 diamonds with bottom g
        upper2: dict[int, int] = {}
        for h, s1 in fc.covers_above(g.id):
            for f, s2 in fc.covers_above(h):
                upper2[f] = upper2.get(f, 0) + s1 * s2
        for f, total in sorted(upper2.items()):
            if total != 0:
                bad.append((g.id, f))
    if bad:
        problems.append(f"incidence axiom fails on {len(bad)} diamond(s)")
    if not problems and (problem := lower_interval_problem(fc)) is not None:
        problems.append(problem)
    return ValidationReport(not problems, tuple(problems), tuple(bad))


def subcomplex(fc: FaceComplex, generator_ids) -> FaceComplex:
    """The downward closure of the given faces, with geometry carried over.

    The ambient semigroup stays attached, so exactness verification can
    still evaluate at every face of the ambient cone.
    """
    keep: set[int] = set()
    for g in generator_ids:
        keep |= fc.below(g)
    order = sorted(keep, key=lambda i: (fc.face(i).dim, i))
    remap = {old: new for new, old in enumerate(order)}
    faces = [
        Face(remap[i], fc.face(i).dim, fc.face(i).label, fc.face(i).key) for i in order
    ]
    covers = [
        Cover(remap[c.lower], remap[c.upper], c.sign)
        for c in fc.covers
        if c.lower in keep and c.upper in keep
    ]
    cone_faces = None
    if fc.cone_faces is not None:
        cone_faces = {remap[i]: fc.cone_faces[i] for i in order}
    return FaceComplex(faces, covers, fc.ambient_dim, cone_faces=cone_faces, semigroup=fc.semigroup)


def _face_masks(facets) -> set[int]:
    """Every face of the facets, as bitmasks with bit v for vertex v."""
    out = set()
    for f in facets:
        m = sub = sum(1 << v for v in f)
        while sub:
            out.add(sub)
            sub = (sub - 1) & m
    out.add(0)
    return out


def alexander_dual(sc: SimplicialComplex):
    """The Alexander dual, whose facets are the complements of the minimal
    nonfaces: the sets N = F + {v}, for a face F and a vertex v below all of
    F's, that are not faces while N minus each one of its vertices is.  Each
    N arises once, from F = N minus its least vertex, in one walk over the
    faces x the vertices, on bitmasks; ``from_facets`` sorts the facets.  An
    input that contains the full vertex set has no nonface, and its dual is
    the void complex, returned as the explicit marker.
    """
    d = sc.d
    full = (1 << (d + 1)) - 2  # vertices 1..d
    faces = _face_masks(sc.facets)
    facets = []
    for f in faces:
        below = full & ((f & -f) - 1)  # the vertices below all of f's; all of them for f empty
        while below:
            v = below & -below
            below ^= v
            n = f | v
            if n in faces:
                continue
            rest = f  # n - v = f is a face; so must n - u be, for each u in f
            while rest and n ^ (rest & -rest) in faces:
                rest &= rest - 1
            if not rest:
                facets.append(frozenset(u for u in range(1, d + 1) if not n >> u & 1))
    if not facets:
        return VOID_COMPLEX
    return SimplicialComplex.from_facets(d, facets)

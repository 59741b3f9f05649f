"""Complexes of face modules and irreducible resolutions of face quotients.

A face module is a finite direct sum of face rings k[G]; maps between face
modules are scalar block matrices whose (G', G) block can be nonzero only
when G' is a face of G (the canonical surjection k[G] -> k[G']).  Two
resolutions of the quotient by the radical monomial ideal of a complex are
built here:

* the total resolution, which is the total complex of the face-pair
  double complex at the ordinary degree (``zeeman.total_complex``) read as
  face modules: one copy of k[G] per pair F >= G, in (dim G, G, F) order
  (always exact, rarely minimal);
* the minimal linear resolution, whose i-th term gathers k[G] with
  multiplicity dim H^n_G for faces G of dimension n-i (n the top
  dimension), with sign-weighted restriction maps; it exists exactly when
  the complex is Cohen-Macaulay.

Exactness is certified degreewise at one lattice point per face of the
ambient cone.  That finite check is complete: the degree-a component of
every module in sight depends only on the smallest cone face containing a,
and all maps are degreewise scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .cohomology import induced_map, is_cohen_macaulay, local_cohomology
from .complexes import DegenerateComplexError, FaceComplex
from .linalg import Field, QQ, reduce_columns
from .zeeman import build, total_complex


class NotCohenMacaulayError(ValueError):
    """Raised when a minimal linear resolution is requested for a complex
    that is not Cohen-Macaulay; carries the witness (face, degree, dim)."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"not Cohen-Macaulay: H^{witness[1]} near face {witness[0]} has dimension {witness[2]}"
        )


@dataclass(frozen=True)
class FaceModule:
    """A direct sum of face rings, one entry of ``faces`` per copy."""

    faces: tuple

    def __len__(self) -> int:
        return len(self.faces)

    @property
    def summands(self) -> tuple:
        """The grouped (face id, multiplicity) view."""
        out = []
        for f in self.faces:
            if out and out[-1][0] == f:
                out[-1][1] += 1
            else:
                out.append([f, 1])
        return tuple((f, m) for f, m in out)


class FaceModuleComplex:
    """Terms W^0, W^1, ... with maps over ``field`` and an optional
    augmentation from the face quotient (a scalar per W^0 summand)."""

    def __init__(self, fc: FaceComplex, field: Field, terms, maps, augmentation=None, variant=""):
        self.fc = fc
        self.field = field
        self.terms = tuple(terms)
        self.maps = tuple(maps)
        self.augmentation = tuple(augmentation) if augmentation is not None else None
        self.variant = variant
        if len(self.maps) != max(len(self.terms) - 1, 0):
            raise ValueError("need one map per consecutive term pair")
        for i, m in enumerate(self.maps):
            if m.cols != len(self.terms[i]) or m.rows != len(self.terms[i + 1]):
                raise ValueError(f"map {i} has shape {m.rows}x{m.cols}")
            if m.field != field:
                raise ValueError(f"map {i} is over {m.field.label()}, not {field.label()}")
        if self.augmentation is not None and (not self.terms or len(self.augmentation) != len(self.terms[0])):
            raise ValueError("augmentation length does not match the first term (or there are no terms)")

    def __len__(self) -> int:
        return len(self.terms)

    def term_sizes(self) -> tuple:
        return tuple(len(t) for t in self.terms)

    def check_block_support(self) -> bool:
        """Entries only where the codomain face is a face of the domain face."""
        below = {f.id: self.fc.below(f.id) for f in self.fc.faces}
        for i, m in enumerate(self.maps):
            dom = self.terms[i].faces
            cod = self.terms[i + 1].faces
            for c, col in enumerate(m.columns):
                if any(cod[r] not in below[dom[c]] for r in col):
                    return False
        return True

    def check_composition(self) -> bool:
        """Consecutive maps compose to zero; augmentation lands in the kernel."""
        for i in range(len(self.maps) - 1):
            if not self.maps[i + 1].mul(self.maps[i]).is_zero():
                return False
        if self.augmentation is not None and self.maps:
            if any(self.maps[0].mul_vec(self.augmentation)):
                return False
        return True


def total_resolution(fc: FaceComplex, field: Field = QQ) -> FaceModuleComplex:
    """The total complex of the double complex at the ordinary degree, read
    as a complex of face modules: the copy indexed by the pair (F, G) of
    total degree dim F - dim G is a copy of k[G], the copies come in the
    (dim G, G, F) order of ``build``, and the maps and the diagonal
    augmentation are the differentials and augmentation of
    ``total_complex``."""
    _require_unique_minimal_face(fc)
    z = build(fc, None, field)
    tot = total_complex(z)
    return FaceModuleComplex(fc, field, _terms(z), tot.complex.diffs, augmentation=tot.augmentation, variant="total")


def total_resolution_terms(fc: FaceComplex) -> tuple[FaceModule, ...]:
    """The terms of ``total_resolution(fc, field)``, the same over every
    field, read off the pairs of ``build`` with no matrix built."""
    _require_unique_minimal_face(fc)
    return _terms(build(fc))


def _terms(z) -> tuple[FaceModule, ...]:
    """One copy of k[G] per pair (F, G), term by term in the pair order of ``z``."""
    return tuple(FaceModule(tuple(g for _, g in z.pairs(n))) for n in range(len(z.sizes)))


def _require_unique_minimal_face(fc: FaceComplex) -> None:
    if len(fc.faces_of_dim(0)) != 1:
        raise DegenerateComplexError("the complex must have a unique minimal face")


def minimal_linear_resolution(fc: FaceComplex, field: Field = QQ) -> FaceModuleComplex:
    """The minimal linear irreducible resolution of a Cohen-Macaulay complex.

    Term i gathers k[G] with multiplicity dim H^n_G over the faces G of
    dimension n - i (n the top dimension); the maps are those induced on
    H^n by the sign-weighted restrictions (``cohomology.induced_map``,
    which writes page 1's d1 too: this resolution is page 1's column n)
    and the augmentation is the all-ones diagonal into the facet row.
    Refuses non-Cohen-Macaulay input, carrying the witness.
    """
    verdict = is_cohen_macaulay(fc, field)
    if not verdict.ok:
        raise NotCohenMacaulayError(verdict.witness)
    n = fc.dim
    levels = []  # per term: (face, dim H^n near it) over its faces with top cohomology
    for i in range(n + 1):
        levels.append([])
        for g in fc.faces_of_dim(n - i):
            if m := local_cohomology(fc, g, field).dim(n):
                levels[-1].append((g, m))
    while len(levels) > 1 and not levels[-1]:
        levels.pop()
    terms = [FaceModule(tuple(g for g, m in level for _ in range(m))) for level in levels]
    maps = [induced_map(fc, field, n, src, dst) for src, dst in zip(levels, levels[1:])]
    aug = [1] * len(terms[0])
    return FaceModuleComplex(fc, field, terms, maps, augmentation=aug, variant="minimal-linear")


@dataclass(frozen=True)
class ExactnessReport:
    """``checked_degrees`` counts the ambient faces, one degree each."""

    exact: bool
    failing_degree: tuple | None
    checked_degrees: int

    def __bool__(self) -> bool:
        return self.exact


def evaluation_degrees(fc: FaceComplex) -> tuple:
    """One lattice point per face of the ambient cone (relative-interior
    representatives), in ambient face order.  For the orthant these are the
    0/1 vectors; listing them enumerates all 2^d of its faces."""
    fc.require_geometry()
    return tuple(f.interior_point for f in fc.semigroup.faces())


def verify_exactness(c: FaceModuleComplex) -> ExactnessReport:
    """Degreewise exactness of the augmented complex at every ambient face
    of the semigroup that ``c.fc`` carries, over ``c.field``.

    The check presumes that ``c`` is a complex of face modules: it compares
    ranks with dimensions only, so a sequence whose maps do not compose to
    zero can pass it.  Re-verifying a resolution read from outside
    therefore takes all three certificates: ``check_composition``,
    ``check_block_support`` and this one.  For the same reason each
    restricted map is ranked on its own (``linalg.reduce_columns``), never
    with clearing: clearing presumes that consecutive maps compose to
    zero, which this check does not verify, and the maps of a re-ingested
    file are untrusted.

    The evaluation degree at an ambient face A is its interior point a,
    where the component of k[G] is k exactly when G contains A.  The
    complex is closed under taking faces and its covers are the cone's, so
    if A is a face of the complex, the faces containing A are its upper set
    (``FaceComplex.upper_levels``), and if not, none is, and every component
    at a is zero, the quotient's too.  So only the faces of the complex are
    visited, in ambient order (``ConeFace.order_key``), and the report
    counts every ambient face.  The copies are indexed once by face, as
    (term, copy), and the live ones gathered over that upper set.  Each map
    restricts at a to the scalar submatrix on the live copies.  Exactness of
    each restriction certifies exactness of the whole graded complex
    (components are constant on the relative interior of each ambient face).
    """
    fc = c.fc
    fc.require_geometry()
    count = fc.semigroup.face_count
    copies = [[] for _ in fc.faces]  # face -> [(term, copy)] over the copies of k[face]
    for i, term in enumerate(c.terms):
        for k, h in enumerate(term.faces):
            copies[h].append((i, k))
    for g, cf in sorted(fc.cone_faces.items(), key=lambda item: item[1].order_key()):
        active = [[] for _ in c.terms]  # per term, its copies over the faces >= g
        for i, k in chain.from_iterable(map(copies.__getitem__, chain.from_iterable(fc.upper_levels(g)))):
            active[i].append(k)
        if c.augmentation is not None and not any(c.augmentation[k] for k in active[0]):
            return ExactnessReport(False, cf.interior_point, count)
        ranks = []
        for i, m in enumerate(c.maps):
            live = set(active[i + 1])
            cols = [{r: x for r, x in m.columns[j].items() if r in live} for j in active[i]]
            ranks.append(len(reduce_columns(cols, c.field)[1]))
        into = [int(c.augmentation is not None)] + ranks  # the rank of the map into each term
        if any(len(act) != r + s for act, r, s in zip(active, into, ranks + [0])):
            return ExactnessReport(False, cf.interior_point, count)
    return ExactnessReport(True, None, count)


def is_linear(c: FaceModuleComplex) -> bool:
    """Whether term i is pure of dimension (top dimension) - i."""
    fc = c.fc
    top = fc.dim
    for i, term in enumerate(c.terms):
        for g in term.faces:
            if fc.face(g).dim != top - i:
                return False
    return True


@dataclass(frozen=True)
class MinimalityScan:
    """Split pairs found between consecutive terms.

    An empty scan is a complete minimality certificate only for linear
    complexes (consecutive terms of a linear complex live in different
    dimensions, so no split pair can exist); ``certificate_complete``
    records whether that applies.
    """

    pairs: tuple
    certificate_complete: bool

    def __bool__(self) -> bool:
        return bool(self.pairs)


def minimality_scan(c: FaceModuleComplex) -> MinimalityScan:
    """All (position, domain copy, codomain copy) with equal faces joined by
    a nonzero scalar: each is a split summand pair, so a nonempty scan
    proves non-minimality."""
    found = []
    for i, m in enumerate(c.maps):
        dom = c.terms[i].faces
        cod = c.terms[i + 1].faces
        for col, column in enumerate(m.columns):
            found.extend((i, col, row) for row in sorted(column) if cod[row] == dom[col])
    return MinimalityScan(tuple(found), certificate_complete=is_linear(c))


def canonical_module_hilbert(fc: FaceComplex, face: int, a) -> int:
    """Degree-a dimension (0 or 1) of the canonical module of a face ring:
    1 exactly when ``a`` lies in the relative interior of the face."""
    a = tuple(a)
    if any(not isinstance(x, int) for x in a):
        raise ValueError(f"degree vector must consist of integers: {a}")
    return 1 if fc.relint_contains(face, a) else 0


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _one_minus_t_pow(k: int):
    out = [1]
    for _ in range(k):
        out = _poly_mul(out, [1, -1])
    return out


def _require_simplicial_ambient(fc: FaceComplex) -> None:
    for f in fc.faces:
        if f.key is None or f.key[0] != "s":
            raise ValueError("coarse Hilbert series need a simplicial (orthant) ambient")


def coarse_hilbert_numerator(fc: FaceComplex) -> list:
    """Numerator over (1-t)^d of the coarse Hilbert series of the quotient:
    each face of dimension k contributes t^k (1-t)^(d-k).  Simplicial only."""
    _require_simplicial_ambient(fc)
    d = fc.ambient_dim
    total = [0] * (d + 1)
    for f in fc.faces:
        term = _poly_mul([0] * f.dim + [1], _one_minus_t_pow(d - f.dim))
        for i, x in enumerate(term):
            total[i] += x
    return total


def coarse_resolution_numerator(fc: FaceComplex, terms) -> list:
    """Numerator over (1-t)^d of the alternating sum of the coarse Hilbert
    series of the face modules ``terms`` (a resolution's ``terms``, say):
    each copy of k[G] contributes (1-t)^(d-dimG).  Equals
    ``coarse_hilbert_numerator`` wherever the terms carry an exact
    resolution of the quotient of ``fc``."""
    _require_simplicial_ambient(fc)
    d = fc.ambient_dim
    total = [0] * (d + 1)
    for i, term in enumerate(terms):
        sign = -1 if i % 2 else 1
        for g in term.faces:
            pw = _one_minus_t_pow(d - fc.face(g).dim)
            for j, x in enumerate(pw):
                total[j] += sign * x
    return total

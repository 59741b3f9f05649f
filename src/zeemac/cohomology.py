"""Cochain complexes of upper sets and local cohomology near a face.

For a face G the upper set {F : F >= G} carries a cochain complex whose
degree-p basis is the faces of dimension p; the differential entries are
the cover signs.  Its cohomology is the local cohomology of the complex
near G.  For covers G' < G the inclusion of upper-set complexes induces
restriction maps between the cohomologies; the matrices returned here are
scaled by the cover sign so they assemble directly into the vertical
differential of the double complex and into minimal resolutions.

Every upper-set complex is read off one signed cover table per complex
and field (``_cover_columns``).  Column f is f's covers, signed, and every
cover of a face above G is above G, so it is f's column in the complex
above every G <= f, its rows named by face id.  The bases are G's row of
the upper-set table (``FaceComplex.upper_levels``), each level in id
order.  The store reduces the table's columns as they are;
``cochain_complex`` alone re-indexes them by basis position.

Representative cocycles are the canonical kernel vectors V_j of d_p (the
relation of a column j to the columns before it, which ends in row j) at
the columns j off the pivot rows of d_{p-1}: a kernel-modulo-image
complement that the matrices fix whatever the pivot rule, so every
downstream matrix is reproducible byte for byte.  Each differential is
reduced once, in degree order, with clearing (``linalg.cochain_classes``;
the module docstring of ``linalg`` gives the argument), and the zero map
out of the top degree not at all: its representatives are the unit
vectors e_j at the j off the pivot rows below.  The premise,
d_{p+1} d_p = 0, is the incidence axiom, which ``complexes.validate``
checks and the CLI requires of every input.

Each face complex keeps one store per field.  For a face g it keeps,
after one reduction, what is read again: the bases, the cohomology
summary (representatives over basis positions), and in each degree p
with representatives the reduced coboundaries that the reduction of
d_{p-1} left, over face ids and keyed by their distinct pivot faces.  It
keeps no matrix and no complex.  The Cohen-Macaulay scan, the minimal
linear resolution and page 1 of the double complex share it.

The restriction blocks into g' read those kept columns.  In degree p the
representatives V_j near g' end in distinct rows j off the pivot rows P
and the kept coboundaries in distinct rows of P; together they are a
basis of the cocycles near g', one ending in each row they cover.  A
cocycle of a face covering g' is eliminated against them from its
largest row down (``linalg.echelon_coordinates``), all in face ids.
Its coordinates in a basis are unique, so the coefficients on the
representatives are those any solve against [representatives |
coboundaries] gives, and they make its column of the block.  The blocks
from every cover of g' are stored per (g', p).

One function, ``induced_map``, pastes those blocks into the map induced
on degree-p local cohomology between two lists of faces.  It writes every
d1 of page 1 and every map of the minimal linear resolution, which is
page 1's column n (n the top dimension) when the complex is
Cohen-Macaulay.

Many upper sets are acyclic: a face in a single facet sees a cone above
it.  The store certifies them with no reduction (``_cone_matched``) by a
cover a of g under which each face f of U(g) off U(a) has exactly one
cover J(f) in U(a), the J(f) distinct, and |U(g)| = 2|U(a)|: J is a
bijection onto U(a) by cover signs, invertible in every field, with no
directed cycle, as a zig-zag up to J(f), down to f' != f and up to J(f')
would give f' two covers in U(a).  By the algebraic Morse lemma
(Skoeldberg, Trans. AMS 2006; Joellenbeck-Welker, Mem. AMS 2009) the
complex is acyclic, and the store keeps zero dimensions, as the
reduction would.  An Euler sum other than 0 or a count declines at once.

A cochain complex carries its field, as each of its differentials does,
and no operation on it takes the field again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .complexes import FaceComplex
from .linalg import Field, Mat, cochain_classes, echelon_coordinates

_NO_COBOUNDARIES: dict = {}  # the coboundaries kept near every face that keeps none: shared, never written


@dataclass(frozen=True)
class VSComplex:
    """A bounded cochain complex of finite-dimensional vector spaces.

    ``labels[i]`` names the basis of degree lo+i; ``diffs[i]`` is the
    matrix of the map from degree lo+i to degree lo+i+1 (rows index the
    target basis), over ``field``.
    """

    lo: int
    hi: int
    labels: tuple
    diffs: tuple
    field: Field

    def __post_init__(self):
        if len(self.labels) != self.hi - self.lo + 1:
            raise ValueError("label blocks do not cover the degree range")
        if len(self.diffs) != max(self.hi - self.lo, 0):
            raise ValueError("need one differential per consecutive degree pair")
        for i, d in enumerate(self.diffs):
            if d.cols != len(self.labels[i]) or d.rows != len(self.labels[i + 1]):
                raise ValueError(f"differential {i} has shape {d.rows}x{d.cols}")
            if d.field != self.field:
                raise ValueError(f"differential {i} is over {d.field.label()}, not {self.field.label()}")

    def basis(self, p: int) -> tuple:
        if self.lo <= p <= self.hi:
            return self.labels[p - self.lo]
        return ()

    def dim(self, p: int) -> int:
        return len(self.basis(p))

    def diff(self, p: int) -> Mat:
        """The differential out of degree p (a zero map outside the range)."""
        if self.lo <= p < self.hi:
            return self.diffs[p - self.lo]
        return Mat.zeros(self.dim(p + 1), self.dim(p), self.field)

    def is_complex(self) -> bool:
        for i in range(len(self.diffs) - 1):
            if not self.diffs[i + 1].mul(self.diffs[i]).is_zero():
                return False
        return True


@dataclass(frozen=True)
class CohomologySummary:
    """Per-degree cohomology dimensions with stored representative cocycles,
    each a sparse vector ``{basis index: scalar}`` over the basis of its
    degree (nonzero scalars reduced into the field, as in ``linalg``)."""

    lo: int
    hi: int
    dims: tuple
    representatives: tuple  # per degree: tuple of sparse vectors {basis index: scalar}

    def dim(self, p: int) -> int:
        if self.lo <= p <= self.hi:
            return self.dims[p - self.lo]
        return 0

    def reps(self, p: int) -> tuple:
        if self.lo <= p <= self.hi:
            return self.representatives[p - self.lo]
        return ()

    def total(self) -> int:
        return sum(self.dims)


def _cover_columns(fc: FaceComplex, field: Field) -> list:
    """The signed cover table of ``fc``: ``cols[f]`` is ``{cover id: sign}``,
    the signs reduced into ``field``; built on first use and kept."""
    cols = fc._cover_columns.get(field)
    if cols is None:
        signs = {s: field.reduce(s) for s in (1, -1)}
        cols = fc._cover_columns[field] = [{h: signs[s] for h, s in fc._up[f]} for f in range(len(fc.faces))]
    return cols


def cochain_complex(fc: FaceComplex, g: int, field: Field) -> VSComplex:
    """The upper-set cochain complex of ``fc`` above the face ``g``.

    Degree-p basis: faces F >= g with dim F = p; the entry of the
    differential from F to a cover F' is the cover sign.
    """
    cols, bases = _cover_columns(fc, field), fc.upper_levels(g)
    index = {f: i for level in bases for i, f in enumerate(level)}
    lo = fc.face(g).dim
    columns = [[{index[h]: x for h, x in cols[f].items()} for f in dom] for dom in bases[:-1]]
    diffs = tuple(Mat(len(cod), len(dom), c, field) for dom, cod, c in zip(bases, bases[1:], columns))
    return VSComplex(lo, lo + len(bases) - 1, bases, diffs, field)


def cohomology_summary(vs: VSComplex) -> CohomologySummary:
    """Kernel-mod-image dimensions and echelon representatives per degree,
    from one reduction of each differential, with clearing."""
    classes = cochain_classes([list(enumerate(vs.diff(p).columns)) for p in range(vs.lo, vs.hi + 1)], vs.field)
    reps = tuple(chosen for chosen, _, _ in classes)
    return CohomologySummary(vs.lo, vs.hi, tuple(map(len, reps)), reps)


class _Near(NamedTuple):
    """What the store keeps of the upper-set complex above a face."""

    bases: tuple  # per degree from dim g: the faces >= g of that dimension
    summary: CohomologySummary
    coboundaries: dict  # degree -> {pivot face: reduced coboundary}, over face ids, in degrees with representatives

    def basis(self, p: int) -> tuple:
        lo = self.summary.lo
        return self.bases[p - lo] if lo <= p <= self.summary.hi else ()


def _cone_matched(fc: FaceComplex, g: int, bases: tuple) -> bool:
    """Whether some cover a of ``g`` gives a cone matching of U(g), as the
    module docstring states it; an Euler sum other than 0 declines at once."""
    euler = 0
    for level in bases:
        euler = len(level) - euler  # the alternating sum of the level sizes, up to sign
    if euler:
        return False
    size, up = sum(map(len, bases)), fc._up
    for a, _ in up[g]:
        rows = fc.upper_levels(a)
        if 2 * sum(map(len, rows)) != size:
            continue
        inside, matched = set().union(*rows), set()
        for f in chain.from_iterable(bases):
            if f not in inside:
                hits = [h for h, _ in up[f] if h in inside]
                if len(hits) != 1 or hits[0] in matched:
                    break
                matched.add(hits[0])
        else:
            return True
    return False


def _near(fc: FaceComplex, g: int, field: Field) -> _Near:
    """The upper-set complex above ``g`` read off the cover table and reduced once, unless cone-matched."""
    cols, bases = _cover_columns(fc, field), fc.upper_levels(g)
    lo = fc.face(g).dim
    if _cone_matched(fc, g, bases):
        n = len(bases)
        return _Near(bases, CohomologySummary(lo, lo + n - 1, (0,) * n, ((),) * n), _NO_COBOUNDARIES)
    reps, kept = [], {}
    levels = ([(f, cols[f]) for f in level] for level in bases)
    for p, (chosen, coboundaries, _) in enumerate(cochain_classes(levels, field), lo):
        reps.append(chosen)
        if coboundaries:
            kept[p] = coboundaries
    summary = CohomologySummary(lo, lo + len(bases) - 1, tuple(map(len, reps)), tuple(reps))
    return _Near(bases, summary, kept or _NO_COBOUNDARIES)


def _stored(fc: FaceComplex, field: Field, key, compute):
    """The value under ``key`` in the per-field store of ``fc``, computed on first use."""
    store = fc._local_cohomology.setdefault(field, {})
    value = store.get(key)
    if value is None:
        value = store[key] = compute()
    return value


def _local(fc: FaceComplex, g: int, field: Field) -> _Near:
    return _stored(fc, field, ("near", g), lambda: _near(fc, g, field))


def local_cohomology(fc: FaceComplex, g: int, field: Field) -> CohomologySummary:
    """Cohomology of the upper-set complex near ``g``, with representatives;
    computed once per complex and field."""
    return _local(fc, g, field).summary


def _restriction_blocks(fc: FaceComplex, g_prime: int, field: Field, p: int) -> dict:
    """``{g: block}`` for every face ``g`` covering ``g_prime``: the
    sign-weighted degree-p restriction from near ``g`` to near ``g_prime``.

    Each cocycle of a cover is eliminated against the representatives and
    the kept coboundaries near ``g_prime``, which end in distinct rows, all
    in face ids; its coefficients on the representatives make its column.
    """
    dst = _local(fc, g_prime, field)
    dst_reps = dst.summary.reps(p)
    covers = [(g, sign, _local(fc, g, field)) for g, sign in fc.covers_above(g_prime)]
    rows = len(dst_reps)
    if not rows or not any(src.summary.reps(p) for _, _, src in covers):
        return {g: Mat.zeros(rows, src.summary.dim(p), field) for g, _, src in covers}
    ids = dst.basis(p)
    rep_at = {ids[max(rep)]: k for k, rep in enumerate(dst_reps)}  # V_j ends in row j
    cocycles = {**dst.coboundaries.get(p, {}), **{ids[max(rep)]: {ids[i]: x for i, x in rep.items()} for rep in dst_reps}}
    blocks = {}
    for g, sign, src in covers:
        basis = src.basis(p)
        out_cols = []
        for rep in src.summary.reps(p):
            coords = echelon_coordinates({basis[i]: x for i, x in rep.items()}, cocycles, field)
            if coords is None:
                raise RuntimeError("a cocycle failed to reduce in the larger complex")
            out_cols.append({rep_at[r]: field.reduce(sign * c) for r, c in coords.items() if r in rep_at})
        blocks[g] = Mat(rows, len(out_cols), out_cols, field)
    return blocks


def restriction_map(fc: FaceComplex, g: int, g_prime: int, field: Field, p: int) -> Mat:
    """The sign-weighted restriction on degree-p local cohomology.

    ``g_prime`` must be a facet of ``g``; the matrix sends the stored
    representative basis near ``g`` into the one near ``g_prime``, scaled
    by the cover sign, by re-expressing each representative inside the
    larger upper-set complex modulo coboundaries.  The blocks from every
    face covering ``g_prime`` are read off the kept reduction near
    ``g_prime`` together, stored per (``g_prime``, ``p``).
    """
    if not fc.is_cover(g_prime, g):
        raise ValueError(f"face {g_prime} is not a facet of face {g}")
    return _stored(
        fc, field, ("restriction", g_prime, p), lambda: _restriction_blocks(fc, g_prime, field, p)
    )[g]


def induced_map(fc: FaceComplex, field: Field, p: int, src, dst) -> Mat:
    """The map induced on degree-p local cohomology from the faces ``src``
    to the faces ``dst``, each a sequence of ``(face, dim H^p near it)``
    with the dimension positive.  Each face owns that many consecutive
    columns (rows), one per representative; the block from a face of
    ``src`` into one of ``dst`` that it covers is ``restriction_map``, and
    every other block is zero."""
    row_of, rows = {}, 0
    for g, dim in dst:
        row_of[g] = rows
        rows += dim
    columns = []
    for g, dim in src:
        block = [{} for _ in range(dim)]
        for g2, _ in fc.covers_below(g):
            r0 = row_of.get(g2)
            if r0 is not None:
                for col, restricted in zip(block, restriction_map(fc, g, g2, field, p).columns):
                    col.update((r0 + r, x) for r, x in restricted.items())
        columns.extend(block)
    return Mat(rows, len(columns), columns, field)


class CMResult(NamedTuple):
    ok: bool
    witness: tuple | None  # (face id, cohomological degree, dimension)

    def __bool__(self) -> bool:  # allow `if is_cohen_macaulay(...)`
        return self.ok


def is_cohen_macaulay(fc: FaceComplex, field: Field) -> CMResult:
    """Whether all local cohomology below the top dimension vanishes.

    On failure the witness is the first (face, degree) pair in face order
    with a nonzero group, together with its dimension.  A complex with
    only the minimal face is Cohen-Macaulay (the condition is vacuous).
    """
    n = fc.dim
    for f in fc.faces:
        summary = local_cohomology(fc, f.id, field)
        for p in range(summary.lo, min(summary.hi, n - 1) + 1):
            d = summary.dim(p)
            if d > 0:
                return CMResult(False, (f.id, p, d))
    return CMResult(True, None)

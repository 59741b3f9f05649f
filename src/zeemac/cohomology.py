"""Cochain complexes of upper sets and local cohomology near a face.

For a face G the upper set {F : F >= G} carries a cochain complex whose
degree-p basis is the faces of dimension p; the differential entries are
the cover signs.  Its cohomology is the local cohomology of the complex
near G.  For covers G' < G the inclusion of upper-set complexes induces
restriction maps between the cohomologies; the matrices returned here are
scaled by the cover sign so they assemble directly into the vertical
differential of the double complex and into minimal resolutions.

Representative cocycles are the canonical kernel vectors V_j of d_p (the
relation of a column j to the columns before it, which ends in row j) at
the columns j that are not pivot rows of d_{p-1}.  These are the kernel
vectors that raise the rank when the kernel, in column order, is reduced
against the image of d_{p-1}: a kernel-modulo-image complement that the
matrices fix whatever the pivot rule, so every downstream matrix is
reproducible byte for byte.  The differentials are reduced once each, in
degree order, with clearing (``linalg.chain_representatives``): the
columns of d_p at the pivot rows of d_{p-1} are skipped, and the relations
that the tagged reduction still finds are exactly the representatives.
The module docstring of ``linalg`` gives the argument; no kernel is
reduced against an image a second time.  Its premise, d_{p+1} d_p = 0, is
the incidence axiom, which ``complexes.validate`` checks and the CLI
requires of every input.

The restriction blocks into a face g' are solved together: one reduction
of [representatives | coboundaries] near g' in degree p, followed by the
cocycles of every face that covers g', gives the block from each cover at
once.  They are stored per (g', p).

A cochain complex carries its field, as each of its differentials does,
and no operation on it takes the field again.  Each face complex keeps one
store per field: the upper-set complex, the cohomology summary and the
restriction blocks of a face are computed once, on first use, and shared
by the Cohen-Macaulay scan, the minimal linear resolution and page 1 of
the double complex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .complexes import FaceComplex, upper_set
from .linalg import Field, Mat, chain_representatives, solve_columns


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


def cochain_complex(fc: FaceComplex, g: int, field: Field) -> VSComplex:
    """The upper-set cochain complex of ``fc`` above the face ``g``.

    Degree-p basis: faces F >= g with dim F = p; the entry of the
    differential from F to a cover F' is the cover sign.
    """
    ups = upper_set(fc, g)
    labels = ups.by_degree
    signs = {s: field.reduce(s) for s in (1, -1)}
    diffs = []
    for dom, cod in zip(labels, labels[1:]):
        cod_index = {f: i for i, f in enumerate(cod)}
        columns = [
            {cod_index[f2]: signs[sign] for f2, sign in fc.covers_above(f) if f2 in cod_index}
            for f in dom
        ]
        diffs.append(Mat(len(cod), len(dom), columns, field))
    return VSComplex(ups.lo, ups.hi, labels, tuple(diffs), field)


def cohomology_summary(vs: VSComplex) -> CohomologySummary:
    """Kernel-mod-image dimensions and echelon representatives per degree,
    from one reduction of each differential, with clearing."""
    reps = tuple(chosen for chosen, _ in chain_representatives(vs.diff(p) for p in range(vs.lo, vs.hi + 1)))
    return CohomologySummary(vs.lo, vs.hi, tuple(map(len, reps)), reps)


def _stored(fc: FaceComplex, field: Field, key, compute):
    """The value under ``key`` in the per-field store of ``fc``, computed on first use."""
    store = fc._local_cohomology.setdefault(field, {})
    value = store.get(key)
    if value is None:
        value = store[key] = compute()
    return value


def local_complex(fc: FaceComplex, g: int, field: Field) -> VSComplex:
    """The upper-set cochain complex above ``g``, built once per complex and field."""
    return _stored(fc, field, ("complex", g), lambda: cochain_complex(fc, g, field))


def local_cohomology(fc: FaceComplex, g: int, field: Field) -> CohomologySummary:
    """Cohomology of the upper-set complex near ``g``, with representatives;
    computed once per complex and field."""
    return _stored(
        fc, field, ("summary", g), lambda: cohomology_summary(local_complex(fc, g, field))
    )


def _restriction_blocks(fc: FaceComplex, g_prime: int, field: Field, p: int) -> dict:
    """``{g: block}`` for every face ``g`` covering ``g_prime``: the
    sign-weighted degree-p restriction from near ``g`` to near ``g_prime``.

    The cocycles of every cover, read in the basis near ``g_prime``, are
    solved against [representatives | coboundaries] near ``g_prime`` in
    one reduction; the coefficients on the representatives make the block.
    """
    dst_reps = local_cohomology(fc, g_prime, field).reps(p)
    covers = [(g, sign, local_cohomology(fc, g, field).reps(p)) for g, sign in fc.covers_above(g_prime)]
    rows = len(dst_reps)
    if not rows or not any(reps for _, _, reps in covers):
        return {g: Mat.zeros(rows, len(reps), field) for g, _, reps in covers}
    dst = local_complex(fc, g_prime, field)
    dst_index = {f: i for i, f in enumerate(dst.basis(p))}
    targets = []
    for g, _, reps in covers:
        basis = local_complex(fc, g, field).basis(p)
        targets.extend({dst_index[basis[i]]: x for i, x in rep.items()} for rep in reps)
    solutions = iter(solve_columns(targets, [*dst_reps, *dst.diff(p - 1).columns], field))
    blocks = {}
    for g, sign, reps in covers:
        out_cols = []
        for sol in itertools.islice(solutions, len(reps)):
            if sol is None:
                raise RuntimeError("a cocycle failed to reduce in the larger complex")
            out_cols.append({i: field.reduce(sign * c) for i, c in sol.items() if i < rows})
        blocks[g] = Mat(rows, len(reps), out_cols, field)
    return blocks


def restriction_map(fc: FaceComplex, g: int, g_prime: int, field: Field, p: int) -> Mat:
    """The sign-weighted restriction on degree-p local cohomology.

    ``g_prime`` must be a facet of ``g``; the matrix sends the stored
    representative basis near ``g`` into the one near ``g_prime``, scaled
    by the cover sign, by re-expressing each representative inside the
    larger upper-set complex modulo coboundaries.  The blocks from every
    face covering ``g_prime`` come from one solve, stored per
    (``g_prime``, ``p``).
    """
    if not fc.is_cover(g_prime, g):
        raise ValueError(f"face {g_prime} is not a facet of face {g}")
    return _stored(
        fc, field, ("restriction", g_prime, p), lambda: _restriction_blocks(fc, g_prime, field, p)
    )[g]


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

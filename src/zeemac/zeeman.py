"""The face-pair double complex at a fixed lattice degree and its pages.

The double complex lives in the fourth quadrant: a pair (F, G) with
F >= G sits at (p, q) = (dim F, -dim G), and at degree ``a`` only pairs
with ``a`` on G appear (at degree zero that is no condition).  The
vertical differential acts on the G index through facet covers; the
horizontal differential acts on the F index through cofacet covers and
carries the row twist (-1)^q, which makes the two differentials
anticommute and the total differential square to zero.

``build`` stores no pair, only runs: for each admitted face G and each
total degree n = dim F - dim G, the faces F >= G of dimension dim G + n in
id order, with the run's offset in its degree.  The pairs of a degree come
in (dim G, G, F) order, so a pair's position is its run's offset plus F's
index in the run, each block (p, q) is a contiguous range of its degree,
and each horizontal or vertical block map is a row-and-column range of one
total differential.  One run writer, ``ZeemanComplex._columns``, writes
the entries from the covers: the total differentials, the block maps of
``horiz``/``vert`` and the whole rows and columns behind the page-1 and
vertical-first dimensions all come from it, each when asked for.

Taking horizontal cohomology first gives the spectral sequence exposed by
``page``: page 0 is the raw double complex with its horizontal maps,
page 1 the horizontal cohomology with the induced vertical maps, page 2
its cohomology together with honest knight-move differentials computed by
zigzag lifting, and the terminal page the associated graded of total
cohomology under the row filtration.  On a cone-like complex the total
cohomology is k in degree 0, so the terminal page is known in closed
form: k at (m, -m), with m the largest dimension of an admitted face; no
total differential is written for it.

Row q is block-diagonal over the admitted faces G of dimension -q, each
block the upper-set complex of G up to the twist, so page 1 is assembled
from the per-face local cohomology of ``cohomology`` and each d1 is the
map ``cohomology.induced_map`` writes from its restriction blocks.  Page
2 reduces each column of page 1 under d1 once and reads the last step of
the d2 zigzag modulo d1 off that reduction.
``horizontal_cohomology_dims`` recomputes the page-1 dimensions from
ranks of the whole rows, sharing no code with that assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from functools import cached_property
from itertools import count

from .cohomology import VSComplex, induced_map, local_cohomology
from .complexes import DegenerateComplexError, FaceComplex, lower_interval_problem
from .linalg import (
    Field,
    Mat,
    QQ,
    _combine,
    cochain_classes,
    echelon_coordinates,
    reduce_columns,
    solve_columns,
)


def diagonal_sign(dim: int) -> int:
    """Sign on the diagonal augmentation: +1 for dimensions 0,3 mod 4 and
    -1 for dimensions 1,2 mod 4, i.e. (-1)^(n(n+1)/2)."""
    return 1 if dim % 4 in (0, 3) else -1


class UnsupportedPageError(ValueError):
    pass


@dataclass
class ZeemanComplex:
    fc: FaceComplex
    field: Field
    degree: tuple | None  # None means the ordinary (all-zero) degree
    runs: dict  # admitted g, in (dim g, g) order -> per total degree n, the faces F >= g of dim g + n in id order
    offsets: dict  # admitted g -> per total degree n, the position of its run's first pair in degree n
    sizes: tuple  # total degree n -> the number of pairs of degree n
    _page1: object = dfield(default=None, repr=False)
    _page2: object = dfield(default=None, repr=False)
    _total: object = dfield(default=None, repr=False)

    def __post_init__(self):
        self._signs = {s: self.field.reduce(s) for s in (1, -1)}

    @property
    def pmax(self) -> int:
        return self.fc.dim

    def pairs(self, n: int) -> tuple:
        """The (f, g) pairs of total degree n in (dim G, G, F) order, made on demand."""
        return tuple((f, g) for g in self._faces(n) for f in self.runs[g][n])

    @property
    def blocks(self) -> dict:
        """(p, q) -> the (f, g) pairs of the block in (G, F) order, made on demand."""
        runs = self.runs
        return {(p, q): tuple((f, g) for g in gs for f in runs[g][p + q]) for (p, q), (_, _, gs) in self._layout.items()}

    def block(self, p: int, q: int) -> tuple:
        return self.blocks.get((p, q), ())

    def _faces(self, n: int) -> list:
        """The faces g with a run in total degree n, in (dim g, g) order."""
        return [g for g, levels in self.runs.items() if n < len(levels)]

    @cached_property
    def _layout(self) -> dict:
        """(p, q) -> [start in its total degree, size, the faces g of its
        runs], made on first use and kept."""
        out: dict = {}
        for g, levels in self.runs.items():
            d = self.fc.face(g).dim
            for n, level in enumerate(levels):
                block = out.setdefault((d + n, -d), [self.offsets[g][n], 0, []])
                block[1] += len(level)
                block[2].append(g)
        return out

    def _columns(self, n: int, gs, targets, row0=0, col0=0, cleared=()):
        """Yield the column of each pair (f, g) of degree n over the runs of
        ``gs``, in the differential out of degree n restricted to the runs
        of ``targets`` in degree n + 1: the vertical part through the facets
        of g among them (only admitted faces have runs), the horizontal part,
        when g is among them, through the cofacets of f with the row twist
        (-1)^q.  A position is the run's offset plus the index in the run,
        rows counted from ``row0`` and columns from ``col0``; the columns at
        ``cleared`` are left empty, unwritten (clearing)."""
        fc, runs, offsets, signs = self.fc, self.runs, self.offsets, self._signs
        index = {h: dict(zip(runs[h][n + 1], count(offsets[h][n + 1] - row0))) for h in targets}  # h -> {f: row}
        twisted = (signs, {s: signs[-s] for s in (1, -1)})  # the cover signs times (-1)^q, by the parity of q
        for g in gs:
            facets = [(index[g2], signs[sign]) for g2, sign in fc._down[g] if g2 in index]
            at = index.get(g)
            cosign = twisted[fc.faces[g].dim % 2]
            for j, f in enumerate(runs[g][n], offsets[g][n] - col0):
                col = {}
                if j not in cleared:
                    for r, s in facets:
                        col[r[f]] = s
                    if at is not None:
                        for f2, sign in fc._up[f]:
                            col[at[f2]] = cosign[sign]
                yield col

    def _block_columns(self, p: int, q: int, vertical: bool, cleared=()) -> tuple:
        """The row count and the columns of the block map from (p, q) into
        (p, q + 1) or (p + 1, q), counted from the starts of the blocks."""
        col0, _, gs = self._layout.get((p, q), (0, 0, ()))
        row0, rows, targets = self._layout.get((p, q + 1) if vertical else (p + 1, q), (0, 0, ()))
        return rows, self._columns(p + q, gs, targets, row0, col0, cleared)

    def _block_map(self, p: int, q: int, vertical: bool) -> Mat:
        rows, columns = self._block_columns(p, q, vertical)
        columns = list(columns)
        return Mat(rows, len(columns), columns, self.field)

    def vert(self, p: int, q: int) -> Mat:
        """The vertical block map from (p, q) into (p, q + 1), written on demand."""
        return self._block_map(p, q, True)

    def horiz(self, p: int, q: int) -> Mat:
        """The horizontal block map from (p, q) into (p + 1, q), written on demand."""
        return self._block_map(p, q, False)


def _check_degree(a, d: int) -> tuple | None:
    if a is None:
        return None
    a = tuple(a)
    if len(a) != d:
        raise ValueError(f"degree vector has length {len(a)}, expected {d}")
    if any(not isinstance(x, int) for x in a):
        raise ValueError(f"degree vector must consist of integers: {a}")
    if all(x == 0 for x in a):
        return None
    return a


def build(fc: FaceComplex, a=None, field: Field = QQ) -> ZeemanComplex:
    """Index the double complex of ``fc`` at lattice degree ``a`` by runs.

    For each admitted face g, in (dim g, g) order, ``runs[g][n]`` holds the
    faces F >= g of dimension dim g + n in id order, which is g's row of the
    upper-set table (``FaceComplex.upper_levels``, shared with the
    local-cohomology store), and ``offsets[g][n]`` its position in total
    degree n.
    No pair and no matrix is stored; ``pairs``, ``blocks``,
    ``total_complex``, ``horiz`` and ``vert`` make theirs when asked.

    ``a=None`` (or the zero vector) gives the ordinary degree, which needs
    no geometry; any other degree requires the complex to carry its
    semigroup so that membership of ``a`` on each face can be tested.
    """
    a = _check_degree(a, fc.ambient_dim)
    if a is not None:
        fc.require_geometry("graded evaluation at a nonzero degree needs semigroup geometry")
    admitted = {g.id for g in fc.faces} if a is None else fc.faces_containing(a)
    runs, offsets, sizes = {}, {}, [0]
    for g in sorted(admitted, key=lambda g: (fc.face(g).dim, g)):
        levels = runs[g] = fc.upper_levels(g)
        sizes.extend([0] * (len(levels) - len(sizes)))
        offsets[g] = tuple(sizes[: len(levels)])
        for n, faces in enumerate(levels):
            sizes[n] += len(faces)
    return ZeemanComplex(fc, field, a, runs, offsets, tuple(sizes))


@dataclass(frozen=True)
class AugmentedTotal:
    """The total complex together with its diagonal augmentation vector."""

    complex: VSComplex
    augmentation: tuple


def total_complex(z: ZeemanComplex) -> AugmentedTotal:
    """The total complex, written by the run writer on first call and kept
    for later readers (the terminal page is in closed form and reads none).
    Degree n holds the pairs with dim F - dim G = n in (dim G, G, F) order:
    small dim G first, so the row filtration reads off column prefixes.  The
    augmentation hits the diagonal pairs (F, F), the only ones of total
    degree 0, with the alternating sign pattern that makes it a cocycle."""
    if z._total is None:
        top = len(z.sizes) - 1
        diffs = tuple(
            Mat(z.sizes[n + 1], z.sizes[n], list(z._columns(n, z._faces(n), z._faces(n + 1))), z.field)
            for n in range(top)
        )
        labels = tuple(z.pairs(n) for n in range(top + 1))
        aug = tuple(z._signs[diagonal_sign(z.fc.face(g).dim)] for g in z.runs)
        z._total = AugmentedTotal(VSComplex(0, top, labels, diffs, z.field), aug)
    return z._total


@dataclass(frozen=True)
class SSPage:
    """One page of the spectral sequence: dimensions and differentials by
    bidegree.  The differential bidegree depends on the page: (1,0) on
    page 0, (0,1) on page 1, (-1,2) on page 2; the terminal page has none."""

    r: object
    dims: dict
    diffs: dict

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def euler(self) -> int:
        return sum((-1) ** ((p + q) % 2) * d for (p, q), d in self.dims.items())

    def total_by_degree(self) -> dict:
        out: dict[int, int] = {}
        for (p, q), d in self.dims.items():
            if d:
                out[p + q] = out.get(p + q, 0) + d
        return out


class _Page1Data:
    def __init__(self, summaries, dmats):
        self.summaries = summaries  # (p,q) -> tuple of sparse rep vectors over block (p,q)
        self.dmats = dmats  # (p,q) -> Mat of the induced vertical map


def _page1_data(z: ZeemanComplex) -> _Page1Data:
    if z._page1 is not None:
        return z._page1
    fc, field = z.fc, z.field
    reps: dict = {}
    faces: dict = {}  # (p,q) -> (face, dim H^p near it) per face with representatives
    # Row q is block-diagonal over its faces and a block lists them in
    # turn, each with all its faces F >= G of dimension p in the local
    # basis order, so the representatives of the row are the per-face ones
    # shifted by a running offset, already in the order of their last
    # nonzero pair.
    for (p, q), (_, _, gs) in sorted(z._layout.items(), key=lambda item: (-item[0][1], item[0][0])):
        vecs, dims, offset = [], [], 0
        for g in gs:
            local = local_cohomology(fc, g, field).reps(p)
            if local:
                vecs.extend({offset + i: x for i, x in rep.items()} for rep in local)
                dims.append((g, len(local)))
            offset += len(z.runs[g][p + q])
        if vecs:
            reps[(p, q)] = tuple(vecs)
            faces[(p, q)] = dims
    dmats: dict = {}
    for (p, q), src in sorted(faces.items()):
        dmats[(p, q)] = induced_map(fc, field, p, src, faces.get((p, q + 1), ()))
    data = _Page1Data(reps, dmats)
    z._page1 = data
    return data


class _Page2Data:
    def __init__(self, reps, d2):
        self.reps = reps  # (p,q) -> tuple of sparse vectors in page-1 coordinates
        self.d2 = d2


def _page2_data(z: ZeemanComplex) -> _Page2Data:
    if z._page2 is not None:
        return z._page2
    field = z.field
    p1 = _page1_data(z)

    # each column p of page 1 is a cochain complex under d1: one reduction
    # per d1, in q order, with clearing (a bidegree with no class has no
    # basis and no columns)
    rows_of: dict = {}  # p -> the q of every page-1 block in column p
    for p, q in p1.summaries:
        rows_of.setdefault(p, []).append(q)
    reps2: dict = {}
    cocycles: dict = {}  # (p,q) -> {last row: class or reduced d1 image}, a basis of the d1 cocycles
    for p, rows in sorted(rows_of.items()):
        qs = range(min(rows), max(rows) + 1)
        d1s = [list(enumerate(p1.dmats[(p, q)].columns)) if (p, q) in p1.dmats else [] for q in qs]
        for q, (chosen, coboundaries, _) in zip(qs, cochain_classes(d1s, field)):
            if chosen:
                reps2[(p, q)] = chosen
                cocycles[(p, q)] = {**coboundaries, **{max(rep): rep for rep in chosen}}

    # d2 by zigzag: lift each class to a horizontal cocycle x, push it
    # down (v = vert x), pull v back horizontally (v = horiz w), push w
    # down (u = vert w), and read u in page-1 classes modulo horizontal
    # coboundaries (one solve per step and bidegree), then modulo d1 off
    # the reduction above, row by row.
    d2: dict = {}
    for (p, q), rlist in sorted(reps2.items()):
        tgt = reps2.get((p - 1, q + 2), ())
        tgt_reps1 = p1.summaries.get((p - 1, q + 2), ())
        zvecs = [_combine(p1.summaries[(p, q)], e.items(), field) for e in rlist]
        vs = [_combine(z.vert(p, q).columns, zvec.items(), field) for zvec in zvecs]
        ws = solve_columns(vs, z.horiz(p - 1, q + 1).columns, field)
        if None in ws:
            raise RuntimeError("page-2 class has a non-exact vertical image")
        if not tgt:
            d2[(p, q)] = Mat.zeros(0, len(rlist), field)
            continue
        us = [_combine(z.vert(p - 1, q + 1).columns, w.items(), field) for w in ws]
        c1s = solve_columns(us, [*tgt_reps1, *z.horiz(p - 2, q + 2).columns], field)
        if None in c1s:
            raise RuntimeError("page-2 image failed to reduce to page-1 classes")
        rep_at = {max(rep): k for k, rep in enumerate(tgt)}
        basis = cocycles[(p - 1, q + 2)]
        cols = []
        for c1 in c1s:
            coords = echelon_coordinates({i: x for i, x in c1.items() if i < len(tgt_reps1)}, basis, field)
            if coords is None:
                raise RuntimeError("page-2 image failed to reduce modulo page-1 boundaries")
            cols.append({rep_at[r]: c for r, c in coords.items() if r in rep_at})
        d2[(p, q)] = Mat(len(tgt), len(rlist), cols, field)
    data = _Page2Data(reps2, d2)
    z._page2 = data
    return data


def _terminal_dims(z: ZeemanComplex) -> dict:
    """The terminal page in closed form: k at (m, -m), with m the largest
    dimension of an admitted face, and 0 when no face is admitted.

    The premise: every lower interval [0, F], F other than the minimal
    face, is acyclic (``FaceComplex.lower_interval_defect``; a complex with
    geometry holds it, as does each interval [G, F] of its cone).  A
    complex without geometry that fails it raises
    ``DegenerateComplexError`` naming F.  The proof has two steps.

    - Filter the total complex by columns.  Column F is the complex of the
      admitted faces below F, the interval [G_a, F] with G_a the least
      admitted face: acyclic but for F = G_a, whose column is k.  So the
      total cohomology is k, in total degree 0: the total resolution is
      exact.
    - Filter by rows.  The rows of dimension m hold only the pairs (G, G),
      so modulo the lower rows they carry no differential.  A degree-0
      cocycle x has the entry +-x_G +- x_F at the pair (F, G) of a cover
      G < F, and the admitted faces are connected through G_a, so the
      class (the signed diagonal augmentation) is nonzero on every pair
      (G, G).  It lives in row m and in no later filtration step.

    ``tests/reduced_einf.py`` keeps the reduction this replaces, as its
    oracle.
    """
    problem = lower_interval_problem(z.fc)
    if problem is not None:
        raise DegenerateComplexError(problem)
    if not z.runs:
        return {}
    m = max(z.fc.faces[g].dim for g in z.runs)
    return {(m, -m): 1}


def page(z: ZeemanComplex, r) -> SSPage:
    """Page ``r`` of the spectral sequence; r may be 0, 1, 2 or math.inf."""
    if r == 0:
        dims = {k: size for k, (_, size, _) in z._layout.items()}
        return SSPage(0, dims, {k: z.horiz(*k) for k in dims})
    if r == 1:
        data = _page1_data(z)
        dims = {k: len(v) for k, v in data.summaries.items()}
        return SSPage(1, dims, dict(data.dmats))
    if r == 2:
        data = _page2_data(z)
        dims = {k: len(v) for k, v in data.reps.items()}
        return SSPage(2, dims, dict(data.d2))
    if r == math.inf:
        return SSPage(math.inf, _terminal_dims(z), {})
    raise UnsupportedPageError(f"unsupported page index {r!r}; use 0, 1, 2 or math.inf")


class ConcentrationResult:
    def __init__(self, ok: bool, column: int, violations: tuple):
        self.ok = ok
        self.column = column
        self.violations = violations  # ((p, q, dim), ...)

    def __bool__(self) -> bool:
        return self.ok


def concentration_check(z: ZeemanComplex) -> ConcentrationResult:
    """Whether page 1 is concentrated in the column of the top dimension.

    The dimensions come from ranks of the whole rows of the double
    complex, written block by block from the covers
    (``horizontal_cohomology_dims``), not from the per-face engine behind
    ``page(z, 1)`` and ``is_cohen_macaulay``, so agreement between this
    check and the Cohen-Macaulay verdict is a real cross-check.
    """
    n = z.fc.dim
    violations = tuple(
        (p, q, d) for (p, q), d in sorted(horizontal_cohomology_dims(z).items()) if p != n
    )
    return ConcentrationResult(not violations, n, violations)


def _rank_only_dims(z: ZeemanComplex, vertical: bool) -> dict:
    """Cohomology dimensions of the complexes made by the vertical or the
    horizontal block maps; ranks only.

    The maps along one line of blocks compose to zero, and the columns
    of a map come in the block order of its source, which is the row order
    of the map into that block, so the maps along each maximal line are
    reduced in turn with clearing: the run writer streams each into
    ``reduce_columns`` and leaves unwritten the columns at the pivot rows of
    the map before.
    """
    step = (0, 1) if vertical else (1, 0)
    layout = z._layout
    ranks: dict = {}
    for start in sorted(layout):
        if (start[0] - step[0], start[1] - step[1]) in layout:
            continue  # not the start of a line
        line = [start]
        while (nxt := (line[-1][0] + step[0], line[-1][1] + step[1])) in layout:
            line.append(nxt)
        cleared: dict = {}  # the pivot rows of the map into the block
        for k in line[:-1]:
            _, cleared = reduce_columns(z._block_columns(*k, vertical, cleared)[1], z.field)
            ranks[k] = len(cleared)
    dims: dict = {}
    for (p, q), (_, size, _) in layout.items():
        d = size - ranks.get((p, q), 0) - ranks.get((p - step[0], q - step[1]), 0)
        if d:
            dims[(p, q)] = d
    return dims


def horizontal_cohomology_dims(z: ZeemanComplex) -> dict:
    """Dimensions of the row-wise (horizontal-first) cohomology: page 1."""
    return _rank_only_dims(z, False)


def vertical_cohomology_dims(z: ZeemanComplex) -> dict:
    """Dimensions of the column-wise (vertical-first) cohomology."""
    return _rank_only_dims(z, True)

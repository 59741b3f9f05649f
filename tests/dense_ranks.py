"""The dense forward-elimination rank kernels, a reference for the sparse one.

``dense_rank`` and ``dense_column_prefix_ranks`` eliminate row by row over
whole dense rows: fraction-free over the integers for QQ (each row scaled
to integers first), mod p otherwise.  ``dense_total_differentials``
writes the total complex from the covers through dense rows and
``Mat.from_rows``, and
``dense_infinity_dims`` reads the terminal page off ranks of explicit
submatrices of those differentials.  ``dense_mul`` and ``dense_mul_vec``
are the row-major loops of the dense ``Mat`` that the sparse one replaced.
``_rref`` is the dense reduced row echelon form over ``Fraction`` or mod p
rows that kernels, images, solves and representatives ran through before
they were read off the sparse column reduction; ``dense_kernel_basis``,
``dense_image_basis``, ``dense_solve_in_subspace``,
``dense_echelon_representatives`` and ``dense_echelon_basis`` are the
bodies that called it.  The library's sparse column reduction, sparse
products and direct total-complex fill must agree with all of them
exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from zeemac.linalg import QQ, Field, Mat
from zeemac.zeeman import ZeemanComplex, total_complex


def _integer_rows(m: Mat) -> list[list[int]]:
    """Scale each row of a rational matrix to integers (rank-preserving)."""
    out = []
    for i in range(m.rows):
        row = m.row(i)
        mult = 1
        for x in row:
            d = x.denominator if isinstance(x, Fraction) else 1
            mult = mult * d // gcd(mult, d)
        out.append([int(x * mult) if isinstance(x, Fraction) else int(x) * mult for x in row])
    return out


def _int_forward_ranks(rows: list[list[int]], checkpoints: list[int]) -> list[int]:
    """Fraction-free forward elimination over the integers.

    Processes columns left to right and records the pivot count after
    each checkpoint column index (checkpoints must be increasing).
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    out = []
    rank = 0
    ci = 0
    for c in range(ncols):
        if rank < nrows:
            pr = None
            for i in range(rank, nrows):
                if rows[i][c]:
                    pr = i
                    break
            if pr is not None:
                rows[rank], rows[pr] = rows[pr], rows[rank]
                pivot_row = rows[rank]
                pv = pivot_row[c]
                for i in range(rank + 1, nrows):
                    ri = rows[i]
                    a = ri[c]
                    if a:
                        g = 0
                        for j in range(c, ncols):
                            ri[j] = ri[j] * pv - a * pivot_row[j]
                            g = gcd(g, ri[j])
                        if g > 1:
                            for j in range(c, ncols):
                                ri[j] //= g
                rank += 1
        while ci < len(checkpoints) and checkpoints[ci] == c:
            out.append(rank)
            ci += 1
    while ci < len(checkpoints):
        out.append(rank)
        ci += 1
    return out


def _modp_forward_ranks(rows: list[list[int]], p: int, checkpoints: list[int]) -> list[int]:
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    out = []
    rank = 0
    ci = 0
    for c in range(ncols):
        if rank < nrows:
            pr = None
            for i in range(rank, nrows):
                if rows[i][c]:
                    pr = i
                    break
            if pr is not None:
                rows[rank], rows[pr] = rows[pr], rows[rank]
                pivot_row = rows[rank]
                inv = pow(pivot_row[c], -1, p)
                for i in range(rank + 1, nrows):
                    ri = rows[i]
                    a = ri[c]
                    if a:
                        f = a * inv % p
                        for j in range(c, ncols):
                            ri[j] = (ri[j] - f * pivot_row[j]) % p
                rank += 1
        while ci < len(checkpoints) and checkpoints[ci] == c:
            out.append(rank)
            ci += 1
    while ci < len(checkpoints):
        out.append(rank)
        ci += 1
    return out


def dense_rank(m: Mat, field: Field) -> int:
    """Row rank (= column rank) of ``m`` over ``field``."""
    if m.rows == 0 or m.cols == 0:
        return 0
    if field.is_rationals:
        rows = _integer_rows(m)
        return _int_forward_ranks(rows, [m.cols - 1])[0]
    rows = [[field.reduce(x) for x in m.row(i)] for i in range(m.rows)]
    return _modp_forward_ranks(rows, field.p, [m.cols - 1])[0]


def dense_column_prefix_ranks(m: Mat, field: Field, order: list[int]) -> list[int]:
    """Rank of the submatrix on the first ``k`` columns of ``order``, all k."""
    if not order:
        return []
    perm_rows = [[m.entry(i, j) for j in order] for i in range(m.rows)]
    checkpoints = list(range(len(order)))
    if m.rows == 0:
        return [0] * len(order)
    if field.is_rationals:
        rows = _integer_rows(Mat.from_rows(perm_rows, field))
        return _int_forward_ranks(rows, checkpoints)
    rows = [[field.reduce(x) for x in row] for row in perm_rows]
    return _modp_forward_ranks(rows, field.p, checkpoints)


def _rref(rows: list[list], field: Field) -> list[int]:
    """Fully reduce ``rows`` in place; return the pivot column indices.

    Pivot choice is deterministic: columns are scanned left to right and
    the first row with a nonzero entry is used.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    p = field.p
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot_row = rows[r]
        pv = pivot_row[c]
        if p is None:
            inv = Fraction(1) / pv
            for j in range(c, ncols):
                pivot_row[j] *= inv
        else:
            inv = pow(pv, -1, p)
            for j in range(c, ncols):
                pivot_row[j] = pivot_row[j] * inv % p
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f == 0:
                continue
            ri = rows[i]
            if p is None:
                for j in range(c, ncols):
                    ri[j] -= f * pivot_row[j]
            else:
                for j in range(c, ncols):
                    ri[j] = (ri[j] - f * pivot_row[j]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _dense_rows(m: Mat) -> list[list]:
    entries = m.entries
    return [list(entries[i * m.cols : (i + 1) * m.cols]) for i in range(m.rows)]


def dense_kernel_basis(m: Mat, field: Field) -> list[tuple]:
    """A canonical basis of the right kernel of ``m``.

    One vector per free column of the reduced echelon form: the free
    coordinate is 1 and pivot coordinates are the negated echelon entries.
    """
    if m.cols == 0:
        return []
    if m.rows == 0:
        return [tuple(int(i == j) for i in range(m.cols)) for j in range(m.cols)]
    rows = [[field.reduce(x) for x in row] for row in _dense_rows(m)]
    pivots = _rref(rows, field)
    pivot_set = set(pivots)
    basis = []
    for j in range(m.cols):
        if j in pivot_set:
            continue
        v = [0] * m.cols
        v[j] = 1
        for t, pc in enumerate(pivots):
            e = rows[t][j]
            if e != 0:
                v[pc] = field.reduce(-e)
        basis.append(tuple(v))
    return basis


def dense_image_basis(m: Mat, field: Field) -> list[tuple]:
    """The pivot columns of ``m``: a basis of its column space."""
    if m.rows == 0 or m.cols == 0:
        return []
    rows = [[field.reduce(x) for x in row] for row in _dense_rows(m)]
    return [tuple(row[j] for row in rows) for j in _rref([list(row) for row in rows], field)]


def dense_solve_in_subspace(target, generators, field: Field):
    """Coefficients ``c`` with ``sum(c_i * generators[i]) == target``.

    Returns a tuple of coefficients (free variables set to zero, so the
    answer is deterministic), or None when the target lies outside the
    span.  All vectors must have equal length.
    """
    target = [field.reduce(x) for x in target]
    gens = [[field.reduce(x) for x in g] for g in generators]
    n = len(target)
    for g in gens:
        if len(g) != n:
            raise ValueError("generator length does not match target length")
    if not gens:
        return () if all(x == 0 for x in target) else None
    if n == 0:
        return (0,) * len(gens)
    rows = [[gens[k][i] for k in range(len(gens))] + [target[i]] for i in range(n)]
    pivots = _rref(rows, field)
    if len(gens) in pivots:
        return None
    coeffs = [0] * len(gens)
    for t, pc in enumerate(pivots):
        coeffs[pc] = rows[t][len(gens)]
    return tuple(coeffs)


def dense_echelon_representatives(kernel, image, field: Field):
    """Kernel vectors extending the image to a basis of the kernel.

    Both inputs are lists of coordinate vectors with image <= kernel.  The
    selection is the deterministic pivot choice on the matrix
    [image | kernel], so representatives are canonical.
    """
    if not kernel:
        return ()
    n = len(kernel[0])
    cols = list(image) + list(kernel)
    if n == 0:
        return ()
    pivots = _rref([[c[i] for c in cols] for i in range(n)], field)
    picked = [j - len(image) for j in pivots if j >= len(image)]
    return tuple(kernel[j] for j in picked)


def dense_echelon_basis(rays) -> tuple[tuple[Fraction, ...], ...]:
    """Canonical ordered basis of the span of the given rays: the nonzero
    rows of the reduced row echelon form (lexicographically smallest)."""
    if not rays:
        return ()
    rows = [[Fraction(x) for x in r] for r in rays]
    _rref(rows, QQ)
    return tuple(tuple(row) for row in rows if any(row))


def dense_mul_vec(m: Mat, v, field: Field) -> tuple:
    """``m`` times the vector ``v``, over the dense entries of ``m``."""
    if len(v) != m.cols:
        raise ValueError("vector length does not match column count")
    entries = m.entries
    v = [field.reduce(x) for x in v]
    out = []
    for i in range(m.rows):
        base = i * m.cols
        s = 0
        for j, x in enumerate(v):
            if x:
                s += entries[base + j] * x
        out.append(field.reduce(s))
    return tuple(out)


def dense_mul(m: Mat, other: Mat, field: Field) -> Mat:
    """The product ``m * other``, over the dense entries of both."""
    if m.cols != other.rows:
        raise ValueError("inner dimensions do not match")
    entries, other_entries = m.entries, other.entries
    out = []
    for i in range(m.rows):
        base = i * m.cols
        for j in range(other.cols):
            s = 0
            for k in range(m.cols):
                a = entries[base + k]
                if a:
                    s += a * other_entries[k * other.cols + j]
            out.append(field.reduce(s))
    return Mat.from_rows((out[i * other.cols : (i + 1) * other.cols] for i in range(m.rows)), field, other.cols)


def dense_total_differentials(z: ZeemanComplex) -> list[Mat]:
    """The differentials of ``total_complex(z)``, assembled as dense rows
    in its basis order with every entry written from the covers: the
    facet-cover sign of G, and the cofacet-cover sign of F times the row
    twist (-1)^dim G.  At a nonzero degree only the pairs whose G contains
    the degree are present.  Neither ``build``'s block maps nor its
    column writer is read."""
    fc, field = z.fc, z.field
    admitted = {g.id for g in fc.faces} if z.degree is None else fc.faces_containing(z.degree)
    labels = total_complex(z).complex.labels
    pairs = [(f, g) for g in admitted for f in fc.above(g)]
    assert sorted(lab for level in labels for lab in level) == sorted(pairs)
    assert all(fc.face(f).dim - fc.face(g).dim == n for n, level in enumerate(labels) for f, g in level)
    index = [{pair: i for i, pair in enumerate(level)} for level in labels]
    diffs = []
    for n in range(len(labels) - 1):
        cod = index[n + 1]
        rows = [[0] * len(labels[n]) for _ in cod]
        for j, (f, g) in enumerate(labels[n]):
            for g2, sign in fc.covers_below(g):
                if g2 in admitted:
                    rows[cod[(f, g2)]][j] = sign
            twist = -1 if fc.face(g).dim % 2 else 1
            for f2, sign in fc.covers_above(f):
                rows[cod[(f2, g)]][j] = twist * sign
        diffs.append(Mat.from_rows(rows, field, len(labels[n])))
    return diffs


def dense_infinity_dims(z: ZeemanComplex) -> dict:
    """Terminal-page dimensions from filtered cohomology, one dense rank of
    an explicit submatrix per filtration step.

    With F^s the span of the total-degree-n basis vectors at rows q >= s (a
    prefix of the basis), the image of H^n(F^s) in H^n has dimension
    dim(Z^n in F^s) - dim(B^n in F^s), and E-infinity at (n - s, s) is the
    drop of that dimension from s to s + 1.
    """
    field = z.field
    labels = total_complex(z).complex.labels
    qs = [[-z.fc.face(g).dim for _, g in level] for level in labels]  # the row q of each pair (F, G)
    diffs = dense_total_differentials(z)

    def columns(m: Mat, k: int) -> Mat:
        return Mat.from_rows([m.row(i)[:k] for i in range(m.rows)], field)

    def rows_from(m: Mat, k: int) -> Mat:
        return Mat.from_rows([m.row(i) for i in range(k, m.rows)], field)

    def image_in_total(n: int, s: int) -> int:
        k = sum(1 for q in qs[n] if q >= s)
        cocycles = k - (dense_rank(columns(diffs[n], k), field) if n < len(diffs) else 0)
        if n == 0:
            return cocycles
        d = diffs[n - 1]
        return cocycles - (dense_rank(d, field) - dense_rank(rows_from(d, k), field))

    dims: dict = {}
    for n, level in enumerate(qs):
        for s in sorted(set(level)):
            d = image_in_total(n, s) - image_in_total(n, s + 1)
            if d:
                dims[(n - s, s)] = d
    return dims

"""Exact linear algebra over the rationals and prime fields.

Everything downstream (cochain complexes, spectral-sequence pages,
resolution certificates) reduces to ranks, kernels, images and solves
computed here.  Rational arithmetic uses `fractions.Fraction`, and
prime-field scalars are canonical representatives in ``[0, p)``.

There is one matrix type, ``Mat``, and it is sparse: ``columns[j]`` maps
the row of each nonzero entry of column j to its scalar.  A matrix knows
its field; scalars are reduced into it once, when the matrix is built, and
no zero is stored, so two matrices are ``==`` exactly when their fields
and entries are.  An operation asked for another field reads the matrix
over that field (``Mat.over``) instead of trusting scalars reduced for a
different one.  Products, transposes and zero tests walk the nonzeros
only; ``dense_rows`` and ``entries`` are derived dense views.

Two elimination kernels serve two needs.  Ranks depend on no pivot
choice, so they go through one sparse column reduction
(``reduce_columns``) of the columns themselves; it works mod p over F_p
and fraction-free over the integers for rationals.  One pass gives the
rank after every column prefix and, from the pivot (largest) rows of the
surviving columns, the rank of every row suffix (``row_suffix_ranks``),
with no transpose.  Kernels, images, solves and representatives go
through a canonical reduced echelon form (``_rref``: deterministic
first-nonzero pivoting in column order), so every basis they return is
reproducible; ``_rref`` is the only kernel that works on dense rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, lcm


class FieldMismatchError(ValueError):
    """An entry cannot be reduced into the requested field."""


_QQ_ZERO = Fraction(0)  # shared: constructing a Fraction runs Python code
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; the witness set is exact for n < 3.3e24.
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """The rationals (``p is None``) or the prime field with ``p`` elements."""

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None:
            if not isinstance(self.p, int) or not (2 <= self.p < 2**62):
                raise ValueError(f"modulus must be an integer in [2, 2^62): {self.p!r}")
            if not _is_prime(self.p):
                raise ValueError(f"modulus must be prime: {self.p}")

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def zero(self):
        return _QQ_ZERO if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def reduce(self, x):
        """Coerce ``x`` to a canonical scalar of this field.

        Accepts ints and Fractions.  Over F_p a Fraction reduces via the
        inverse of its denominator; a denominator divisible by p (or any
        non-exact type such as float) raises FieldMismatchError.
        """
        if isinstance(x, bool):
            x = int(x)
        if self.p is None:
            if isinstance(x, int):
                return Fraction(x)
            if isinstance(x, Fraction):
                return x
            raise FieldMismatchError(f"not an exact rational scalar: {x!r}")
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldMismatchError(
                    f"denominator {x.denominator} is divisible by the modulus {self.p}"
                )
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        raise FieldMismatchError(f"not an exact scalar: {x!r}")

    def label(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.label()


QQ = Field()


def GF(p: int) -> Field:
    return Field(p)


def parse_field(text: str) -> Field:
    """Parse a field selector: ``q`` for the rationals, ``p:<prime>`` for F_p."""
    t = text.strip().lower()
    if t in ("q", "qq", "rationals"):
        return QQ
    if t.startswith("p:"):
        return Field(int(t[2:]))
    raise ValueError(f"unknown field selector {text!r}; expected 'q' or 'p:<prime>'")


@dataclass(frozen=True)
class Mat:
    """A sparse matrix over ``field``: ``columns[j]`` is column j as
    ``{row: scalar}``.

    The scalars are nonzero and reduced into ``field``; builders that hold
    such scalars pass their columns straight in, and ``from_rows`` reduces
    dense rows.  Operations take a field and read the matrix over it
    (``over``), which re-reduces the entries only when that field is not
    the matrix's own.  The entry accessors read a zero entry as
    ``field.zero()``.
    """

    rows: int
    cols: int
    columns: tuple
    field: Field

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        if len(self.columns) != self.cols:
            raise ValueError("column count does not match cols")

    @classmethod
    def from_rows(cls, rows, field: Field, cols: int | None = None) -> "Mat":
        """The matrix with these dense rows, every entry reduced into
        ``field``; ``cols`` fixes the width, which a matrix with no rows
        cannot show."""
        columns = None if cols is None else [{} for _ in range(cols)]
        nrows = 0
        for i, row in enumerate(rows):
            row = [field.reduce(x) for x in row]
            if columns is None:
                columns = [{} for _ in row]
            elif len(row) != len(columns):
                raise ValueError("ragged rows")
            for j, x in enumerate(row):
                if x:
                    columns[j][i] = x
            nrows = i + 1
        columns = columns or []
        return cls(nrows, len(columns), columns, field)

    @classmethod
    def zeros(cls, rows: int, cols: int, field: Field) -> "Mat":
        return cls(rows, cols, [{} for _ in range(cols)], field)

    @classmethod
    def identity(cls, n: int, field: Field) -> "Mat":
        return cls(n, n, [{j: field.one()} for j in range(n)], field)

    def over(self, field: Field) -> "Mat":
        """This matrix read over ``field``: itself when that is its own
        field, else a copy with every entry reduced into ``field``."""
        if field == self.field:
            return self
        columns = [{i: y for i, x in col.items() if (y := field.reduce(x))} for col in self.columns]
        return Mat(self.rows, self.cols, columns, field)

    def dense_rows(self) -> list[list]:
        """The rows as new lists, zeros included (a dense copy)."""
        z = self.field.zero()
        rows = [[z] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                rows[i][j] = x
        return rows

    @property
    def entries(self) -> tuple:
        """The entries row-major, zeros included (a dense copy)."""
        return tuple(chain.from_iterable(self.dense_rows()))

    def entry(self, i: int, j: int):
        return self.columns[j].get(i, self.field.zero())

    def row(self, i: int) -> tuple:
        z = self.field.zero()
        return tuple(col.get(i, z) for col in self.columns)

    def col(self, j: int) -> tuple:
        col, z = self.columns[j], self.field.zero()
        return tuple(col.get(i, z) for i in range(self.rows))

    def transpose(self) -> "Mat":
        out: list[dict] = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                out[i][j] = x
        return Mat(self.cols, self.rows, out, self.field)

    def mul_vec(self, v, field: Field) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        acc = _combine(self.over(field).columns, enumerate(field.reduce(x) for x in v))
        return tuple(field.reduce(acc.get(i, 0)) for i in range(self.rows))

    def mul(self, other: "Mat", field: Field) -> "Mat":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        columns = self.over(field).columns
        out = []
        for col in other.over(field).columns:
            acc = _combine(columns, col.items())
            out.append({i: y for i, x in acc.items() if (y := field.reduce(x))})
        return Mat(self.rows, other.cols, out, field)

    def is_zero(self) -> bool:
        return not any(self.columns)


def _combine(columns, coefficients) -> dict:
    """``sum(c * columns[k])`` over the pairs ``(k, c)``, as ``{row: sum}``
    (sums unreduced, zero sums kept)."""
    acc: dict = {}
    for k, c in coefficients:
        if c:
            for i, x in columns[k].items():
                acc[i] = acc.get(i, 0) + x * c
    return acc


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


def reduce_columns(cols, field: Field, order) -> tuple[list[int], list[int]]:
    """Sparse column reduction of ``cols`` taken in ``order``.

    ``cols[j]`` is column j as ``{row: value}`` with nonzero reduced
    scalars; it is not modified.  The columns are reduced left to right in
    ``order``, each eliminated on its largest row index against the reduced
    column that owns that row.  A column that survives owns its largest row
    (its pivot row) and adds one to the rank.  Over F_p the arithmetic is
    mod p (over F_2 a column is just its set of rows); over QQ each column
    is scaled to integers and reduced fraction-free, divided by its content
    after each step.

    Returns ``(ranks, pivots)``: ``ranks[k]`` is the rank of the columns
    ``order[:k + 1]``, and ``pivots`` holds the pivot row of every
    surviving column.  The reduced matrix is the original times an
    invertible matrix and its pivot rows are distinct, so the rank of the
    rows ``>= r`` of the selected columns is the number of pivots ``>= r``
    (``row_suffix_ranks``).
    """
    p = field.p
    owner: dict = {}  # row -> the reduced column whose largest row it is
    out = []
    for j in order:
        col = cols[j]
        if p == 2:
            col = set(col)
            while col:
                piv = owner.get(low := max(col))
                if piv is None:
                    owner[low] = col
                    break
                col ^= piv
        elif p is None:
            mult = lcm(*(x.denominator for x in col.values()))
            col = {i: x.numerator * (mult // x.denominator) for i, x in col.items()}
            while col:
                piv = owner.get(low := max(col))
                g = gcd(*col.values())
                if g > 1:
                    col = {i: x // g for i, x in col.items()}
                if piv is None:
                    owner[low] = col
                    break
                g = gcd(col[low], piv[low])
                a, b = col[low] // g, piv[low] // g
                if b < 0:
                    a, b = -a, -b
                if b != 1:
                    col = {i: x * b for i, x in col.items()}
                for i, x in piv.items():
                    if y := col.get(i, 0) - a * x:
                        col[i] = y
                    else:
                        del col[i]
        else:
            col = dict(col)
            while col:
                piv = owner.get(low := max(col))
                if piv is None:
                    inv = pow(col[low], -1, p)
                    owner[low] = {i: x * inv % p for i, x in col.items()}
                    break
                a = col[low]
                for i, x in piv.items():
                    if y := (col.get(i, 0) - a * x) % p:
                        col[i] = y
                    else:
                        del col[i]
        out.append(len(owner))
    return out, list(owner)


def row_suffix_ranks(pivots, nrows: int) -> list[int]:
    """Rank of the last k rows, for k = 1..nrows, of the columns whose
    reduction (``reduce_columns``) left the pivot rows ``pivots``."""
    hits = [0] * nrows
    for r in pivots:
        hits[r] += 1
    return list(accumulate(reversed(hits)))


def rank(m: Mat, field: Field) -> int:
    """Row rank (= column rank) of ``m`` over ``field``."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(reduce_columns(m.over(field).columns, field, range(m.cols))[1])


def kernel_basis(m: Mat, field: Field) -> list[tuple]:
    """A canonical basis of the right kernel of ``m``.

    One vector per free column of the reduced echelon form: the free
    coordinate is 1 and pivot coordinates are the negated echelon entries.
    """
    if m.cols == 0:
        return []
    if m.rows == 0:
        z, o = field.zero(), field.one()
        return [tuple(o if i == j else z for i in range(m.cols)) for j in range(m.cols)]
    rows = m.over(field).dense_rows()
    pivots = _rref(rows, field)
    pivot_set = set(pivots)
    z, o = field.zero(), field.one()
    basis = []
    for j in range(m.cols):
        if j in pivot_set:
            continue
        v = [z] * m.cols
        v[j] = o
        for t, pc in enumerate(pivots):
            e = rows[t][j]
            if e != 0:
                v[pc] = field.reduce(-e)
        basis.append(tuple(v))
    return basis


def image_basis(m: Mat, field: Field) -> list[tuple]:
    """The pivot columns of ``m``: a basis of its column space."""
    if m.rows == 0 or m.cols == 0:
        return []
    m = m.over(field)
    return [m.col(j) for j in _rref(m.dense_rows(), field)]


def solve_in_subspace(target, generators, field: Field):
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
        return (field.zero(),) * len(gens)
    rows = [[gens[k][i] for k in range(len(gens))] + [target[i]] for i in range(n)]
    pivots = _rref(rows, field)
    if len(gens) in pivots:
        return None
    coeffs = [field.zero()] * len(gens)
    for t, pc in enumerate(pivots):
        coeffs[pc] = rows[t][len(gens)]
    return tuple(coeffs)


"""Exact linear algebra over the rationals and prime fields.

Everything downstream (cochain complexes, spectral-sequence pages,
resolution certificates) reduces to ranks, kernels, images and solves
computed here.  A rational scalar is an ``int`` when it is integral and a
`fractions.Fraction` otherwise, so the +-1 incidence matrices never build
a ``Fraction``; prime-field scalars are canonical representatives in
``[0, p)``.

There is one matrix type, ``Mat``, and it is sparse: ``columns[j]`` maps
the row of each nonzero entry of column j to its scalar.  A matrix knows
its field; scalars are reduced into it once, when the matrix is built, and
no zero is stored, so two matrices are ``==`` exactly when their fields
and entries are.  No operation on a matrix takes the field again: ranks,
kernels, images and products read a matrix over its own field, and a
product of matrices over two fields raises ``ValueError``.  Products,
transposes and zero tests walk the nonzeros only; ``entries`` is a derived
dense view whose zeros are the int 0.

A vector is a sparse column too: ``{index: scalar}``, its scalars nonzero
and reduced into the field, exactly like a column of a ``Mat``.  Kernel and
image bases and solutions come out in that form, and downstream code
(representatives, restriction maps, the page-2 zigzag) keeps it; only
``Mat.mul_vec`` takes and gives dense tuples.

One elimination kernel serves every need: a sparse column reduction
(``reduce_columns``) of the columns themselves, mod p over F_p and
fraction-free over the integers for rationals.  One pass gives the rank
after every column prefix, the pivot columns (those outside the span of
the columns before them) and the pivot (largest) rows of the surviving
columns, which are distinct.  Kernels and solves read column relations off the same
reduction with one tag row per column (``_relations``): the relation of a
column in the span of the earlier ones has coefficient 1 at that column
and is nonzero elsewhere only on earlier pivot columns, so it is fixed by
the matrix whatever the pivot rule.  Every kernel basis returned here is
therefore the one the reduced row echelon form gives, with first-nonzero
pivoting in column order, and is reproducible.

A cochain complex is reduced with clearing (the "twist" of Chen and
Kerber): the premise is D_{n+1} D_n = 0, with the columns of D_{n+1}
indexed like the rows of D_n and reduced in their order, and the
differentials are reduced in degree order.  If a reduced column of D_n
has pivot row i, then D_{n+1} applied to it is a relation with a nonzero
coefficient at column i and otherwise only earlier columns, so column i of
D_{n+1} lies in the span of the columns before it and reduces to zero: it
is skipped, and every prefix rank and pivot comes out as without it.  The
rank-only paths leave a cleared column unwritten and hand
``reduce_columns`` an empty column in its place: the page-1 row and
column dimensions, as the double complex's writer streams their columns,
and the Hochster coboundary, which writes the columns of each
cardinality block only once the block before is reduced.  The
representative paths
(``cochain_classes``: local cohomology near a face, and page 2) leave it
out of the reduction.

Clearing gives cohomology representatives exactly.  The kernel of D_n has
the canonical basis V_j, one per column j in the span of the columns
before it, and V_j is 1 at j and zero past it: it ends in row j.  The
image of D_{n-1} lies in that kernel, so each reduced image column ends
in some such j, and the pivot rows P of D_{n-1} are among these j.  The
reduced image columns together with the V_j for j outside P end in
distinct rows, so they are independent, and there are dim ker D_n of
them: they are a basis of the kernel, and the V_j for j outside P
represent the cohomology.  They are exactly the kernel vectors that raise
the rank when the kernel, in column order, is reduced against the image.
A V_j with j in P does not: written in that basis, no term ends past row
j (the last rows are distinct and cannot cancel) and no V_k ends in j, so
it is a combination of image columns and of V_k with k < j.  A V_j with j
outside P does, as nothing before it ends in row j.  So the
representatives are the relations that the tagged reduction of D_n still
finds once the columns in P are cleared.  A cleared column reduces to zero
at once and owns only its own tag row, which no other column ends in, so
no other column changes: it is left out of the reduction.  A zero map,
such as the differential out of the top degree, is not reduced at all:
every column is its own relation, the unit vector e_j, and the
representatives are the e_j for j outside P.

The same basis reads cohomology classes.  The reduced image columns that
the reduction of D_{n-1} leaves, keyed by their pivot rows P, and the
representatives V_j, keyed by j, end in distinct rows and span the
cocycles of degree n.  A cocycle is eliminated against them from its
largest row down (``echelon_coordinates``), one column per row, with no
further reduction.  Its coordinates in a basis are unique, so the
coefficients on the V_j, its class, equal what a solve against
[representatives | any spanning set of the coboundaries] gives.
``cochain_classes`` hands out those image columns in each degree that
has cohomology.

Over the integers, relations also grow one row at a time
(``_relations_with_row``), which is how a cone's faces get theirs.  Let
s_j be the pairing of the new row with the relation r_j.  If every s_j is
zero, the row lies in the row space and the relations stay.  Otherwise
column e, the first with s_e != 0 (signed so that s_e > 0), becomes a
pivot column, and each other r_j becomes s_e r_j - s_j r_e.  For j < e,
s_j = 0 and r_j stays; for j > e, e is a pivot column before j.  Each
relation is unique up to a factor, so divided by its content it is the
one that the tagged reduction of the whole matrix gives.

The exactness certificate does not clear: its maps may come from a file
and are not known to compose to zero, so it reduces each map alone
(``reduce_columns``); whether they do is one check, ``_composes_to_zero``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


class FieldMismatchError(ValueError):
    """An entry cannot be reduced into the requested field."""


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

    def reduce(self, x):
        """Coerce ``x`` to a canonical scalar of this field.

        Accepts ints and Fractions.  Over QQ the canonical scalar is an
        ``int`` when the value is integral and a ``Fraction`` otherwise
        (``Fraction(n) == n`` and the two hash alike).  Over F_p a Fraction
        reduces via the inverse of its denominator; a denominator divisible
        by p (or any non-exact type such as float) raises
        FieldMismatchError.
        """
        if isinstance(x, bool):
            x = int(x)
        if self.p is None:
            if isinstance(x, int):
                return x
            if isinstance(x, Fraction):
                return x.numerator if x.denominator == 1 else x
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
    dense rows.  Every operation reads the matrix over its own field.  The
    entry accessors read a zero entry as the int 0.
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
        return cls(n, n, [{j: 1} for j in range(n)], field)

    @property
    def entries(self) -> tuple:
        """The entries row-major, zeros included (a dense copy)."""
        out = [0] * (self.rows * self.cols)
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                out[i * self.cols + j] = x
        return tuple(out)

    def entry(self, i: int, j: int):
        return self.columns[j].get(i, 0)

    def row(self, i: int) -> tuple:
        return tuple(col.get(i, 0) for col in self.columns)

    def col(self, j: int) -> tuple:
        col = self.columns[j]
        return tuple(col.get(i, 0) for i in range(self.rows))

    def transpose(self) -> "Mat":
        out: list[dict] = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                out[i][j] = x
        return Mat(self.cols, self.rows, out, self.field)

    def mul_vec(self, v) -> tuple:
        """This matrix times the dense vector ``v``, its scalars reduced
        into the matrix's field."""
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        field = self.field
        acc = _combine(self.columns, enumerate(field.reduce(x) for x in v), field)
        return tuple(acc.get(i, 0) for i in range(self.rows))

    def mul(self, other: "Mat") -> "Mat":
        if other.field != self.field:
            raise ValueError(f"cannot multiply a matrix over {self.field.label()} by one over {other.field.label()}")
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        out = [_combine(self.columns, col.items(), self.field) for col in other.columns]
        return Mat(self.rows, other.cols, out, self.field)

    def is_zero(self) -> bool:
        return not any(self.columns)


def _composes_to_zero(maps) -> bool:
    """Whether each map followed by the next is zero, the maps listed in the order they compose."""
    return all(b.mul(a).is_zero() for a, b in zip(maps, maps[1:]))


def _combine(columns, coefficients, field: Field) -> dict:
    """``sum(c * columns[k])`` over the pairs ``(k, c)``: a sparse column,
    its scalars nonzero and reduced into ``field``."""
    acc: dict = {}
    for k, c in coefficients:
        if c:
            for i, x in columns[k].items():
                acc[i] = acc.get(i, 0) + x * c
    return {i: y for i, x in acc.items() if (y := field.reduce(x))}


def reduce_columns(cols, field: Field) -> tuple[list[int], dict]:
    """Sparse column reduction of ``cols``.

    ``cols[j]`` is column j as ``{row: value}`` with nonzero reduced
    scalars; it is not modified.  The columns are reduced left to right,
    each eliminated on its largest row index against the reduced
    column that owns that row.  A column that survives owns its largest row
    (its pivot row) and adds one to the rank.  Over F_p the arithmetic is
    mod p (over F_2 a column is just its set of rows); over QQ a column
    that holds a ``Fraction`` is first scaled to integers, and every column
    is reduced fraction-free, divided by its content after each step.

    Returns ``(ranks, pivots)``: ``ranks[k]`` is the rank of the columns
    ``cols[:k + 1]``, and ``pivots`` maps the pivot row of every surviving
    column to that reduced column (a set of rows over F_2, scaled to 1 at
    its pivot row over F_p, an integer column over QQ).
    """
    p = field.p
    owner: dict = {}  # row -> the reduced column whose largest row it is
    out = []
    for col in cols:
        if p == 2:
            col = set(col)
            while col:
                piv = owner.get(low := max(col))
                if piv is None:
                    owner[low] = col
                    break
                col ^= piv
        elif p is None:
            if Fraction in map(type, col.values()):
                mult = lcm(*(x.denominator for x in col.values()))
                col = {i: x.numerator * (mult // x.denominator) for i, x in col.items()}
            else:
                col = dict(col)
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
    return out, owner


def cochain_classes(differentials, field: Field):
    """Cohomology classes of a cochain complex, from one tagged reduction
    of each differential, with clearing.

    ``differentials`` yields the differential D_n out of each degree n,
    in increasing order, as a list of ``(label, column)`` pairs, the
    columns sparse ``{row: scalar}``; the last is D_top, out of the top
    degree, whose columns are empty.  The rows of D_n are the labels of
    D_{n+1}, in the same order, and the premise is D_{n+1} D_n = 0 (see the
    module docstring).  A column of D_{n+1} whose label is a pivot row of
    D_n is cleared: it is left out of the reduction.  A zero map is not
    reduced at all: each column is its own relation, the unit vector e_j.

    Yields one ``(representatives, coboundaries, pivots)`` per degree n:
    the canonical kernel vectors of D_n (the relations of ``_relations``) over
    column positions, at the columns that were not cleared, a basis of the
    cohomology in degree n; when there is one, the reduced columns of
    D_{n-1} that the reduction left, ``{pivot row: column}`` with the
    column a sparse vector whose largest row is its key (a basis of the
    coboundaries, which a cocycle is read modulo; ``{}`` when degree n has
    no cohomology); and the set of pivot rows of D_n.
    """
    owner, width, pivots = {}, 0, set()  # the tagged reduction of D_{n-1}, its width, its pivot rows
    for pairs in differentials:
        n = len(pairs)
        kept = [(j, col) for j, (label, col) in enumerate(pairs) if label not in pivots]
        # a zero map is not reduced: each column owns its own tag row
        next_owner = _tagged_reduction(kept, n, field) if any(col for _, col in kept) else {j: {j: 1} for j, _ in kept}
        representatives = tuple(_normalized(j, rel, field) for j, rel in next_owner.items() if j < n)
        coboundaries = {}
        if representatives:
            for r, col in owner.items():
                if r >= width:
                    if field.p == 2:
                        coboundaries[r - width] = {i - width: 1 for i in col if i >= width}
                    else:
                        coboundaries[r - width] = {i - width: x for i, x in col.items() if i >= width}
        owner, width = next_owner, n
        pivots = {r - n for r in owner if r >= n}
        yield representatives, coboundaries, pivots


def echelon_coordinates(target, columns: dict, field: Field):
    """Coefficients ``{r: c}`` with ``sum(c * columns[r]) == target``,
    where ``columns[r]`` is a sparse column whose largest row is ``r``;
    None when the target is outside their span.

    The target is eliminated from its largest row down, against the one
    column that ends there, so the coefficients are unique and come out
    in decreasing ``r``.
    """
    coefficients = {}
    while target:
        r = max(target)
        col = columns.get(r)
        if col is None:
            return None
        c = coefficients[r] = target[r] if col[r] == 1 else field.reduce(Fraction(target[r], col[r]))
        target = _combine((target, col), ((0, 1), (1, field.reduce(-c))), field)
    return coefficients


def _raw_relations(cols, field: Field) -> tuple[dict, dict]:
    """``({j: relation}, owner)`` as the tagged reduction of ``_relations``
    leaves them: each relation up to a factor, which is positive over QQ (the
    relation is an integer vector) and 1 over F_p (over F_2 the relation is
    the set of its columns); ``_normalized`` scales it to 1 at j."""
    owner = _tagged_reduction(enumerate(cols), len(cols), field)
    return {j: rel for j, rel in owner.items() if j < len(cols)}, owner


def _tagged_reduction(kept, n: int, field: Field) -> dict:
    """The pivots of ``reduce_columns`` on the ``(j, column)`` pairs ``kept`` of n columns,
    each tagged with row j below its rows, shifted up by n: a key j < n holds the relation of j."""
    return reduce_columns([{j: 1} | {i + n: x for i, x in col.items()} for j, col in kept], field)[1]


def _normalized(j: int, rel, field: Field) -> dict:
    """The raw relation ``rel`` of column j as a sparse vector, 1 at j; over
    F_2 sorted, as a set's order depends on the rows it held in the reduction."""
    if field.p == 2:
        return dict.fromkeys(sorted(rel), 1)
    if field.p is None and (d := rel[j]) != 1:
        # d > 0: the reduction scales a column only by positive factors
        return {k: QQ.reduce(Fraction(x, d)) for k, x in rel.items()}
    return rel


def _relations(cols, field: Field) -> tuple[dict, dict]:
    """``({j: relation}, owner)``: the relation of every column j in the
    span of the columns before it (the other columns are the pivot
    columns), and the tagged reduction that gave them.

    The relation ``{k: c}`` has ``sum(c * cols[k]) == 0``, ``c == 1`` at j
    and is nonzero elsewhere only on earlier pivot columns, so it is unique.
    Column j carries a tag row j below the matrix rows (shifted up by
    ``len(cols)``); if its matrix part reduces to zero, its tag rows hold
    the relation, and it owns tag row j, which no other column has as its
    largest row, so nothing is eliminated against it.  Every other
    surviving column owns a matrix row (``owner`` keys ``>= len(cols)``).
    Each column enters ``owner`` once, at its own step, so the relations
    come out in column order.
    """
    relations, owner = _raw_relations(cols, field)
    return {j: _normalized(j, rel, field) for j, rel in relations.items()}, owner


def _relations_with_row(relations: dict, row) -> tuple[dict | None, dict]:
    """``(pivot, relations)`` once the dense ``row`` is appended to the
    integer matrix with these column relations (``{j: relation}`` in
    column order, each primitive and positive at j): one rank-one update.
    ``pivot`` is None when the row lies in the row space, and otherwise
    the relation of the new pivot column, signed to pair positively with
    the row."""
    pairings = {j: sum(c * row[k] for k, c in rel.items()) for j, rel in relations.items()}
    e = next((j for j, s in pairings.items() if s), None)
    if e is None:
        return None, relations
    sign = 1 if pairings[e] > 0 else -1
    pivot = {k: sign * c for k, c in relations[e].items()}
    out = {}
    for j, rel in relations.items():
        if j != e:
            if s := pairings[j]:
                rel = _combine((rel, pivot), ((0, sign * pairings[e]), (1, -s)), QQ)
                g = gcd(*rel.values())
                rel = {k: c // g for k, c in rel.items()}
            out[j] = rel
    return pivot, out


def solve_columns(targets, generators, field: Field) -> list:
    """Coefficients ``{i: c}`` with ``sum(c * generators[i]) == target``
    for every target at once, from one reduction of the generators followed
    by the targets.  Each answer leaves the free generators out (their
    coefficient is zero, so it is canonical); a target outside the span
    gets None."""
    k = len(generators)
    relations = _relations(list(generators) + list(targets), field)[0]
    out = []
    for t in range(k, k + len(targets)):
        rel = relations.get(t)
        if rel is None or any(i >= k for i in rel if i != t):
            out.append(None)  # a pivot, or a relation through an earlier target
        else:
            out.append({i: field.reduce(-c) for i, c in rel.items() if i != t})
    return out

"""The dense orientation-determinant cover signs, a reference for the
relation rule of ``semigroup.face_lattice``.

``_echelon_basis``, ``_coords_in_echelon_basis``, ``_det_sign`` and
``_orientation_sign`` are the dense ``Fraction`` code that signed each
cover before the signs were read off the column relations of one sparse
reduction per face.  Each face carries the rref basis of its span; the
sign of a cover (G, F) is the determinant sign of [basis of G; interior
point of F] written in the basis of F.  ``dense_covers`` runs the cover
loop that called them, ray containment test included, and returns the
``(lower, upper, sign)`` triples in the order ``face_lattice`` lists its
covers.
"""

from __future__ import annotations

from fractions import Fraction

from zeemac.linalg import Mat, QQ, _relations


def dense_covers(q) -> list[tuple[int, int, int]]:
    """``(lower, upper, sign)`` for every cover of the cone's face lattice."""
    cone_faces = list(q.faces())
    bases = {i: _echelon_basis(q.rays_of(cf)) for i, cf in enumerate(cone_faces)}
    covers = []
    for gi, g in enumerate(cone_faces):
        for fi, f in enumerate(cone_faces):
            if f.dim != g.dim + 1:
                continue
            if not (g.vanishing > f.vanishing):
                continue
            if not set(q.rays_of(g)) <= set(q.rays_of(f)):
                continue
            sign = _orientation_sign(bases[gi], f.interior_point, bases[fi])
            covers.append((gi, fi, sign))
    return covers


def _echelon_basis(rays) -> tuple[tuple[int | Fraction, ...], ...]:
    """Canonical ordered basis of the span of the given rays: the nonzero
    rows of the reduced row echelon form (lexicographically smallest).

    Row t has 1 at the t-th pivot column of the ray matrix and, at each
    other column, minus that pivot's coefficient in the column's relation.
    """
    if not rays:
        return ()
    m = Mat.from_rows(rays, QQ)
    relations = _relations(m.columns, QQ)[0]
    basis = []
    for pc in (j for j in range(m.cols) if j not in relations):
        row = [0] * m.cols
        row[pc] = 1
        for j, rel in relations.items():
            if pc in rel:
                row[j] = -rel[pc]
        basis.append(tuple(row))
    return tuple(basis)


def _coords_in_echelon_basis(v, basis):
    """Coordinates of v in an rref basis: read off the pivot columns."""
    pivots = []
    for b in basis:
        for j, x in enumerate(b):
            if x != 0:
                pivots.append(j)
                break
    coords = [Fraction(v[j]) for j in pivots]
    # consistency: v must lie in the span
    residual = [Fraction(x) for x in v]
    for c, b in zip(coords, basis):
        for j in range(len(residual)):
            residual[j] -= c * b[j]
    if any(residual):
        raise ValueError("vector does not lie in the span of the basis")
    return coords


def _det_sign(rows) -> int:
    """Sign of the determinant of a small square rational matrix."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = Fraction(m[i][c], m[c][c])
                for j in range(c, n):
                    m[i][j] -= f * m[c][j]
        if m[c][c] < 0:
            sign = -sign
    return sign


def _orientation_sign(basis_g, interior_f, basis_f) -> int:
    """Determinant sign of [basis of G; interior point of F] in basis of F."""
    rows = [_coords_in_echelon_basis(b, basis_f) for b in basis_g]
    rows.append(_coords_in_echelon_basis(interior_f, basis_f))
    s = _det_sign(rows)
    if s == 0:
        raise ValueError("degenerate orientation data on a cover pair")
    return s

"""The total resolution built straight from the covers, a reference for the library's.

``direct_total_resolution`` enumerates every pair F >= G by its gap
dim F - dim G, orders each term by (G, F), and writes the maps from the
covers: the facet-cover sign of G, the cofacet-cover sign of F times the
row twist (-1)^dim G, and the augmentation (-1)^(n(n+1)/2) on the
diagonal pairs (F, F) of dimension n.  It calls neither ``build``,
``total_complex`` nor the library's ``diagonal_sign``.
The library reads the total resolution off ``total_complex(build(fc))``;
the tests require the two to agree exactly, up to the order of the copies
when face ids do not ascend with dimension.
"""

from __future__ import annotations

from zeemac.complexes import DegenerateComplexError, FaceComplex
from zeemac.linalg import Field, Mat, QQ
from zeemac.resolutions import FaceModule, FaceModuleComplex


def diagonal_sign(dim: int) -> int:
    return (-1) ** (dim * (dim + 1) // 2)


def direct_total_resolution(fc: FaceComplex, field: Field = QQ) -> FaceModuleComplex:
    """The resolution collecting every pair F >= G, graded by dim F - dim G.

    The copy indexed by (F, G) is a copy of k[G]; the maps assemble the
    facet covers of G (with their signs) and the cofacet covers of F (with
    the row twist), exactly the total differential of the double complex.
    The augmentation hits the diagonal copies with the alternating signs.
    """
    zero = fc.faces_of_dim(0)
    if len(zero) != 1:
        raise DegenerateComplexError("the complex must have a unique minimal face")
    pairs_by_gap: dict[int, list] = {}
    for g in fc.faces:
        for f in fc.above(g.id):
            gap = fc.face(f).dim - g.dim
            pairs_by_gap.setdefault(gap, []).append((g.id, f))
    hi = max(pairs_by_gap)
    terms = []
    index = []
    for i in range(hi + 1):
        pairs = sorted(pairs_by_gap.get(i, []))
        terms.append(FaceModule(tuple(g for g, f in pairs)))
        index.append({pair: k for k, pair in enumerate(pairs)})
    pair_lists = [sorted(pairs_by_gap.get(i, [])) for i in range(hi + 1)]

    maps = []
    for i in range(hi):
        cod = index[i + 1]
        columns = []
        for g, f in pair_lists[i]:
            col = {cod[(g2, f)]: field.reduce(sign) for g2, sign in fc.covers_below(g) if (g2, f) in cod}
            twist = -1 if fc.face(g).dim % 2 else 1
            for f2, sign in fc.covers_above(f):
                if (g, f2) in cod:
                    col[cod[(g, f2)]] = field.reduce(twist * sign)
            columns.append(col)
        maps.append(Mat(len(cod), len(columns), columns, field))

    aug = [
        field.reduce(diagonal_sign(fc.face(g).dim)) if g == f else 0
        for g, f in pair_lists[0]
    ]
    return FaceModuleComplex(fc, field, terms, maps, augmentation=aug, variant="total")

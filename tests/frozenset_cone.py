"""The cone over a simplicial complex built from frozensets, a reference
for ``complexes.cone_of_simplicial``.

``frozenset_cone`` is the construction as it first stood: it lists every
face as a frozenset (``SimplicialComplex.faces``), sorts them by size and
sorted vertices, finds each cover as S + {v} in a dict of frozensets, and
signs it by the position of v in sorted(S + {v}).  It never reads a
bitmask, which the library's construction works on instead.  The tests
require the two to give equal faces, covers (in order), cone faces and
ambient dimension.
"""

from __future__ import annotations

from zeemac.complexes import Cover, Face, FaceComplex, SimplicialComplex
from zeemac.semigroup import AffineSemigroup, ConeFace


def frozenset_cone(sc: SimplicialComplex) -> FaceComplex:
    face_sets = sorted(sc.faces(), key=lambda s: (len(s), sorted(s)))
    index = {s: i for i, s in enumerate(face_sets)}
    faces = [
        Face(i, len(s), "{" + ",".join(str(v) for v in sorted(s)) + "}", key=("s", tuple(sorted(s))))
        for i, s in enumerate(face_sets)
    ]
    covers = []
    for s in face_sets:
        for v in range(1, sc.d + 1):
            if v in s:
                continue
            t = s | {v}
            if t in index:
                pos = sorted(t).index(v)
                covers.append(Cover(index[s], index[t], -1 if pos % 2 else 1))
    cone_faces = {}
    for s, i in index.items():
        vanishing = frozenset(j for j in range(sc.d) if (j + 1) not in s)
        interior = tuple(1 if (j + 1) in s else 0 for j in range(sc.d))
        cone_faces[i] = ConeFace(vanishing, len(s), interior)
    return FaceComplex(faces, covers, sc.d, cone_faces=cone_faces, semigroup=AffineSemigroup.orthant(sc.d))

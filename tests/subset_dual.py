"""The subset enumeration of the Alexander dual, a reference for
``complexes.alexander_dual``.

``subset_dual`` is the definition, as the library computed it before it
read the dual off the minimal nonfaces: walk all 2^d vertex subsets s, in
order of size, keep s when its complement is not a face, and keep as a
facet each kept s that no one-vertex extension of it beats.  The facets go
through ``SimplicialComplex.from_facets``, and no nonface gives the void
marker.  It shares nothing with the library's walk but the face family
``SimplicialComplex.faces``.
"""

from __future__ import annotations

from itertools import combinations

from zeemac.complexes import VOID_COMPLEX, SimplicialComplex


def subset_dual(sc: SimplicialComplex):
    """The Alexander dual of ``sc`` by the 2^d subset loop."""
    d = sc.d
    universe = frozenset(range(1, d + 1))
    faces = sc.faces()
    dual_faces = []
    for k in range(d + 1):
        for c in combinations(range(1, d + 1), k):
            s = frozenset(c)
            if (universe - s) not in faces:
                dual_faces.append(s)
    if not dual_faces:
        return VOID_COMPLEX
    # s is a facet iff no one-vertex extension of s is a dual face
    dual_set = set(dual_faces)
    facets = [s for s in dual_faces if not any(s | {v} in dual_set for v in universe - s)]
    return SimplicialComplex.from_facets(d, facets)

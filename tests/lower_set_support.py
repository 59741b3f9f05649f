"""The block-support check by lower sets, a reference for
``FaceModuleComplex.check_block_support``.

``lower_set_block_support`` is the check as it first stood: it builds the
lower set of every face of the complex (``FaceComplex.below``, a walk down
the covers) and tests each entry's codomain face for membership in its
domain face's lower set.  It never reads the upper-set table, which the
library's check bisects instead.  The tests require the two to agree.
"""

from __future__ import annotations

from zeemac.resolutions import FaceModuleComplex


def lower_set_block_support(c: FaceModuleComplex) -> bool:
    below = {f.id: c.fc.below(f.id) for f in c.fc.faces}
    for i, m in enumerate(c.maps):
        dom = c.terms[i].faces
        cod = c.terms[i + 1].faces
        for j, col in enumerate(m.columns):
            if any(cod[r] not in below[dom[j]] for r in col):
                return False
    return True

"""The ambient scan, a reference for ``verify_exactness``.

``ambient_scan_exactness`` is the certificate that scanned the whole
complex at every evaluation degree: at the interior point of each ambient
face it tests every face of the complex for a vanishing set inside that
face's, keeps the copies over the faces found, and ranks each restricted
map as a new ``Mat`` with its rows re-indexed.  It never reads a cover, so
it does not share the library's premise that the faces containing the
interior point of a face of the complex are that face's upper set.  The
tests require the two certificates to give equal reports: ``exact``,
``failing_degree`` and ``checked_degrees``, the number of evaluation
degrees scanned here.
"""

from __future__ import annotations

from zeemac.linalg import Mat
from zeemac.resolutions import ExactnessReport, FaceModuleComplex, evaluation_degrees

from .chain_ranks import rank


def ambient_scan_exactness(c: FaceModuleComplex) -> ExactnessReport:
    fc = c.fc
    degrees = evaluation_degrees(fc)
    for a, ambient_face in zip(degrees, fc.semigroup.faces()):
        on_face = {fid for fid, cf in fc.cone_faces.items() if cf.vanishing <= ambient_face.vanishing}
        if not on_face:
            continue
        active = [[k for k, g in enumerate(term.faces) if g in on_face] for term in c.terms]
        ranks = []
        for i, m in enumerate(c.maps):
            pos = {r: k for k, r in enumerate(active[i + 1])}
            cols = [{pos[r]: x for r, x in m.columns[j].items() if r in pos} for j in active[i]]
            ranks.append(rank(Mat(len(pos), len(cols), cols, m.field)))
        ok = True
        if c.augmentation is not None and not any(c.augmentation[k] for k in active[0]):
            ok = False
        for i in range(len(c.terms)):
            out_rank = ranks[i] if i < len(ranks) else 0
            in_rank = ranks[i - 1] if i > 0 else (1 if c.augmentation is not None else 0)
            if len(active[i]) - out_rank - in_rank != 0:
                ok = False
                break
        if not ok:
            return ExactnessReport(False, tuple(a), len(degrees))
    return ExactnessReport(True, None, len(degrees))

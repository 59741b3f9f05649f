"""Exact-arithmetic toolkit for face complexes over normal affine semigroups.

Computes local cohomology of face complexes, Cohen-Macaulay verdicts, the
face-pair double complex with its spectral sequence, irreducible
resolutions by face rings, and Alexander-dual Betti tables with an
independent Hochster-formula oracle.
"""

from .linalg import Field, GF, Mat, QQ, FieldMismatchError
from .complexes import (
    FaceComplex,
    SimplicialComplex,
    VoidComplex,
    VOID_COMPLEX,
    alexander_dual,
    cone_of_simplicial,
    subcomplex,
    upper_set,
    validate,
)
from .semigroup import AffineSemigroup, ConeFace, face_lattice
from .cohomology import (
    CohomologySummary,
    VSComplex,
    cochain_complex,
    cohomology_summary,
    is_cohen_macaulay,
    local_cohomology,
    restriction_map,
)
from .zeeman import (
    SSPage,
    ZeemanComplex,
    build,
    concentration_check,
    horizontal_cohomology_dims,
    page,
    total_complex,
    vertical_cohomology_dims,
)
from .resolutions import (
    FaceModule,
    FaceModuleComplex,
    NotCohenMacaulayError,
    canonical_module_hilbert,
    is_linear,
    minimal_linear_resolution,
    minimality_scan,
    total_resolution,
    verify_exactness,
)
from .eagon_reiner import (
    BettiTable,
    DualFreeComplex,
    betti_from_dual,
    betti_hochster,
    dualize,
    is_linear_table,
)

__version__ = "0.1.0"

"""capfold: conformal folding and rearrangement toolkit for Neumann
eigenvalue bounds on planar domains and conformally round spheres, with an
independent finite-element cross-check.
"""

from .bounds import (
    BoundReport,
    TestFunction,
    dirichlet_energy_closed_form,
    holder_gap_check,
    l2_lower_bound,
    lift_evaluate,
    planar_bound_certificate,
    sphere_modified_quotient,
)
from .caps import (
    Cap,
    RearrangeTrace,
    cap_contains,
    cap_reflection,
    cap_to_disk,
    fold_measure,
    rearrange,
    rearranged_grid_measure,
    reflection_renormalizer,
    subharmonic_diagnostics,
)
from .directions import (
    CanonicalMap,
    CapScanResult,
    canonicalize,
    scan_caps,
    sphere_cap_search,
    sphere_degree_check,
    winding_diagnostic,
)
from .exceptions import CapfoldError
from .fem import (
    Mesh,
    SpectralResult,
    assemble,
    build_mesh,
    neumann_eigs,
    two_disk_area,
    verify_corpus,
)
from .measures import (
    ConformalDomain,
    DirectionForm,
    DiscreteMeasure,
    direction_form,
    disk_quadrature,
    measure_distance,
    measure_from_json,
    measure_to_json,
    moment_vector,
    pullback_measure,
    sphere_quadrature,
)
from .moebius import (
    RenormResult,
    ball_moebius,
    disk_moebius,
    reflection,
    reflection_disk,
    renormalize,
)
from .specfun import (
    BoundConstants,
    bessel_j1,
    bound_constants,
    find_zeta,
    k_n,
    mu1_disk,
    omega_n,
    planar_bound,
)

__version__ = "0.1.0"

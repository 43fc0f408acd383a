"""Design and verification toolkit for hybrid freeform/metasurface lenses.

A lens occupies the slab between a freeform lower face (the graph
``x3 = rho(x)``) and a flat metasurface on ``{x3 = a}`` carrying a
phase discontinuity.  The package solves the inverse imaging problem
(prescribe a target map, recover the lower face and phase), evaluates the
closed-form second-order data at the anchor point, checks the existence
and sufficiency conditions, and verifies designs by independent ray
tracing.
"""

from .errors import (
    ConfigError,
    FeasibilityViolation,
    HybridLensError,
    InvalidIncidence,
    MetaTotalInternalReflection,
    MissedSurface,
    NonInjectiveFootprint,
    NonPositiveDepth,
    NotEigenvector,
    NotIntegrable,
    PathInconsistency,
    SingularHessian,
    TotalInternalReflection,
)
from .geometry import FDStencil, Grid2D
from .snell import (
    OpticalConstants,
    RefractionResult,
    deviation_lower_bound,
    refract_metasurface,
    refract_standard,
)
from .reports import ConditionReport, combine
from .fields import (
    IncidentField,
    collimated,
    curl_condition,
    point_source,
    recover_potential,
    vertical,
)
from .maps import (
    EigenPair,
    FixedPoint,
    TargetMap,
    admissibility,
    dilation,
    eigen_structure,
    eikonal_distance,
    horizontal,
    identity,
    rotation,
)
from .imaging import (
    LensDesign,
    VarphiProfile,
    default_z0,
    delta_from_drho,
    existence_verdict,
    feasible_z_interval,
    hessian_closed_form,
    lemma_identity_check,
    matA_closed_form,
    rhs_V,
    solve_rho,
    solve_rho_2d,
    thickness_check,
)
from .surfaces import Surface, flat, from_design, polynomial
from .farfield import (
    MidField,
    PhaseMap,
    build_phase,
    eigenvalue_sufficient,
    footprint_fold_check,
    midfield_general,
    midfield_vertical,
    sufficient_det_general,
    sufficient_det_vertical,
)
from .raytrace import TraceableLens, TraceReport, spot_diagram, trace_through
from .config import DesignConfig

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

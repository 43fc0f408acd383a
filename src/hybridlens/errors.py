"""Exception hierarchy for the hybridlens package."""


class HybridLensError(Exception):
    """Base class for all package-specific errors."""


class InvalidIncidence(HybridLensError):
    """Incident direction points away from the refracting side (x . nu < 0)."""


class TotalInternalReflection(HybridLensError):
    """Refraction into the rarer medium is impossible for this incidence."""


class MetaTotalInternalReflection(HybridLensError):
    """The metasurface feasibility inequality fails; no refracted ray exists."""


class NotIntegrable(HybridLensError):
    """Two line-integration paths disagree; the field is not a gradient."""


class NotEigenvector(HybridLensError):
    """S^t is not an eigenvector of DS within tolerance (inadmissible map)."""


class FeasibilityViolation(HybridLensError):
    """The slab inequality a > z > |S|/sqrt(kappa1^2 - 1) fails."""


class PathInconsistency(HybridLensError):
    """Row-first and column-first integrations of the lens PDE disagree."""


class NonPositiveDepth(HybridLensError):
    """A ray would have to travel a non-positive distance inside the lens."""


class SingularHessian(HybridLensError):
    """The surface Hessian is singular where an invertible one is required."""


class NonInjectiveFootprint(HybridLensError):
    """The metasurface footprint folds over itself; the phase is multivalued."""


class MissedSurface(HybridLensError):
    """A traced ray does not intersect the lens lower face inside the patch."""


class ConfigError(HybridLensError):
    """Invalid or malformed configuration."""

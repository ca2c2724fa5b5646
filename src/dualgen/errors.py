"""Exception types shared across the package."""


class DualgenError(Exception):
    """Base class for all package errors."""


class NonCommensurate(DualgenError):
    """Grid spacing does not divide the requested range evenly."""


class EmptyGrid(DualgenError):
    """A grid axis would have fewer than two points."""


class SingularBasis(DualgenError):
    """Cone basis vectors are linearly dependent."""


class DimensionMismatch(DualgenError):
    """Inputs defined on incompatible state spaces."""


class NotSeparable(DualgenError):
    """A coefficient declared separable depends on other coordinates."""


class StructureViolation(DualgenError):
    """Declared coefficient structure fails at a probe point, or a
    declared domain and boundary do not go together."""


class MissingDerivative(DualgenError):
    """A required derivative callable was not supplied."""


class RateBoundExceeded(DualgenError):
    """Observed jump rate exceeds the supplied thinning bound."""


class UnsupportedScheme(DualgenError):
    """The simulation scheme cannot simulate a part of the process, or
    discretization meets a part it cannot put on a grid (a jump kernel
    without generator rows)."""


class NonFiniteState(DualgenError):
    """A simulated path ended at NaN or inf."""


class NonFiniteCoefficient(DualgenError):
    """A drift, diffusion or jump rate is NaN or inf at a grid point."""


class InvalidEstimate(DualgenError):
    """A duality estimate has a negative standard error or a non-finite z."""


class InadmissibleDual(DualgenError):
    """A cone duality estimate was requested without an admissible dual."""


class NonConvergent(DualgenError):
    """A boundary-regularization ladder fails to converge."""


class Overflow(DualgenError):
    """Matrix exponential argument too large; use smaller t or coarser grid."""


class SchemaError(DualgenError):
    """A scenario file violates the published schema."""


class ExpressionParseError(DualgenError):
    """A coefficient expression string could not be parsed."""


class CFLWarning(UserWarning):
    """Drift dominates diffusion at the chosen spacing."""


class ClippingWarning(UserWarning):
    """Cross-diffusion terms were clipped to preserve positivity."""


class StepTooCoarseWarning(UserWarning):
    """Drift moves paths further than the diffusion scale in one step."""

"""Exception types shared across the package."""


class NumrangeError(Exception):
    """Base class for all package-specific errors."""


class NonSquareError(NumrangeError):
    """A square matrix was required."""


class NonHermitianError(NumrangeError):
    """Hermitian input violated the symmetry tolerance."""


class SingularMatrixError(NumrangeError):
    """A matrix was too ill-conditioned to solve with: its reciprocal
    condition number fell to the singularity threshold."""


class AlphaOutOfRangeError(NumrangeError):
    """A zero or parameter left its admissible disc or interval."""


class IndexOutOfRangeError(NumrangeError):
    """A basis index was outside 1..degree."""


class TOutOfRangeError(NumrangeError):
    """An angle argument left the open interval (0, pi)."""


class BracketFailureError(NumrangeError):
    """A root bracket did not contain a sign change."""


class LambdaOnBoundaryError(NumrangeError):
    """The closed-form determinant is singular for |lambda| near 1."""


class UnsupportedDegreeError(NumrangeError):
    """No closed-form radius is available for this degree."""


class TruncationInsufficientError(NumrangeError):
    """A Taylor truncation cannot reach the requested accuracy."""


class NotRankOneError(NumrangeError):
    """A defect operator was not numerically of rank one."""


class PhaseSearchFailureError(NumrangeError):
    """No dilation phase placed the requested point in the spectrum."""


class SelfMapViolationError(NumrangeError):
    """A polynomial exceeded modulus one on the unit circle."""


class NotNilpotentError(NumrangeError):
    """The stated power of the matrix is not numerically zero."""


class ConstantMapError(NumrangeError):
    """A non-constant map was required."""


class CommonZeroError(NumrangeError):
    """Two Blaschke products, or two factors of one product, share a zero."""


class NotSingleZeroError(NumrangeError):
    """A Blaschke product with a single distinct zero was required."""

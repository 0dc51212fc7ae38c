"""Exception types shared across the package."""


class BirdtrackError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(BirdtrackError, ZeroDivisionError):
    """Division by a zero rational function or coefficient."""


class UnsupportedRadicalDivision(BirdtrackError):
    """Division by a radical coefficient with more than one term."""


class ZeroRadicand(BirdtrackError):
    """Square root of the zero rational function."""


class PoleAtN(BirdtrackError):
    """Evaluation of a rational function at a zero of its denominator.

    A 0/0 normalization must be resolved by first testing the unnormalized
    state for vanishing at that N.
    """


class RadicalComparisonUnsupported(BirdtrackError):
    """An operation needed a rational value but met an irrational radical."""


class SignatureMismatch(BirdtrackError):
    """Two elements with incompatible signatures were combined."""


class MixedRoleTensor(BirdtrackError):
    """Tensor product of an operator with a ket."""


class OutOfRange(BirdtrackError, ValueError):
    """An index or size argument outside its documented domain."""


class NotProportional(BirdtrackError):
    """A translated pair operator whose square is not a nonzero multiple of it.

    lr_pair_projector divides by that multiple to make the operator
    idempotent, so a zero or inconsistent scale is refused.
    """


class UnsupportedK(BirdtrackError, ValueError):
    """A built-in table was requested beyond the sizes shipped with it."""


class InvalidDecomposition(BirdtrackError, ValueError):
    """A cycle decomposition that is not a partition of {1..k}."""


class BadBlockSize(BirdtrackError, ValueError):
    """An epsilon contraction block whose size does not match N - j."""


class DimensionMismatch(BirdtrackError):
    """Tensor shapes that do not line up for the requested contraction."""

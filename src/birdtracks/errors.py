"""Exception types shared across the package, and its one integer check.

Every integer argument of the library (a rank N, a size k, m or n, a
seed, a pair, slot or level label, a cycle entry, a one-line permutation
entry, a shape row, a tensor axis, an exponent) is read by integer(): it
takes anything operator.index accepts, so numpy integers work, and raises
OutOfRange, or the error type the caller names, for anything else and
for values outside the bounds.
"""

from operator import index


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


def integer(value, name: str, least: int | None, most: int | None = None,
            error: type[BirdtrackError] = OutOfRange) -> int:
    """value as an int; error unless it is an integer in least..most.

    A bound of None leaves that side open.
    """
    try:
        number = index(value)
    except TypeError:
        number = None
    if (number is None or (least is not None and number < least)
            or (most is not None and number > most)):
        bound = ("an integer" if least is None and most is None
                 else f"an integer of at most {most}" if least is None
                 else "a positive integer" if least == 1 and most is None
                 else f"an integer of at least {least}" if most is None
                 else f"an integer in {least}..{most}")
        raise error(f"{name} must be {bound}, got {value!r}")
    return number

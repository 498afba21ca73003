"""Exception types, and the integer and real-number rules of the public boundary."""

import numbers
import operator


class RegracutError(ValueError):
    """Base class for every package-specific error."""


def _index(value) -> int:
    """`value` as a Python int by `operator.index`; a bool raises TypeError."""
    return operator.index(None if isinstance(value, bool) else value)


def _integer(value, name: str, low: int, high: int | None = None, error=RegracutError) -> int:
    """`value` as a Python int in low..high (no upper bound when `high` is None).
    Python and numpy integers pass, as `operator.index` reads them; bools,
    floats, strings, None and values out of range raise `error`."""
    try:
        value = _index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if high is None and value < low:
        raise error(f"{name} must be at least {low}, got {value}")
    if high is not None and not low <= value <= high:
        raise error(f"{name}={value} must lie in {low}..{high}")
    return value


def _real(value, name: str, low=None, high=None, error=RegracutError) -> float:
    """`value` as a float in the open range (low, high): none without `low`
    (0 wherever given), and inf passes without `high`.  Python and numpy
    reals pass, an int beyond the float range reads as +-inf; bools,
    strings, None, NaN and values out of range raise `error`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value != value:
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # a huge int or fraction
        real = float("inf") if value > 0 else float("-inf")
    if low is not None and not (low < real and (high is None or real < high)):
        span = "be positive" if high is None else f"lie in ({low}, {high})"
        raise error(f"{name} must {span}, got {value}")
    return real


# ---- graph and partition construction ----

class MissingPair(RegracutError):
    """A pair of distinct vertices was left without a color/state."""


class DuplicatePair(RegracutError):
    """The same unordered pair was assigned twice."""


class ColorOutOfRange(RegracutError):
    """A color fell outside 1..r."""


class BadState(RegracutError):
    """An arrow state token was not one of none/bi/fwd/back."""


class BadOrder(RegracutError):
    """Requested partition order is not in 1..n."""


class RefinementTooFine(RegracutError):
    """Split factor exceeds the smallest block."""


class BadDistribution(RegracutError):
    """Probabilities are negative, do not normalize, or break a palette restriction."""


class BadPartition(RegracutError):
    """Blocks do not form the expected partition of the vertex set."""


# ---- density and counting checks ----

class OverlappingSets(RegracutError):
    """Vertex sets that must be disjoint are not."""


class EmptySet(RegracutError):
    """A vertex set that must be nonempty is empty."""


class TooLargeForExhaustive(RegracutError):
    """Set too large for exact subset enumeration."""


class BadM(RegracutError):
    """Split point m outside 1..n-1."""


class UnequalSubBlocks(RegracutError):
    """Sub-blocks are required to be of equal size."""


# ---- decomposition ----

class GraphTooSmall(RegracutError):
    """Too few vertices for the requested partition order."""


class SliceTooSmall(RegracutError):
    """Slice fraction falls below the pair's regularity parameter."""


# ---- embedding ----

class BadEta(RegracutError):
    """Density threshold outside (0, 1)."""


class ArityMismatch(RegracutError):
    """Number of parts does not match the pattern's vertex count."""


# ---- types and edit distance ----

class KindMismatch(RegracutError):
    """Mixed colored-graph and digraph objects where one kind is required."""


class EmptyLabel(RegracutError):
    """A type label that must be nonempty is empty."""


class FullSelfLabel(RegracutError):
    """A self-label equals the whole color set / palette."""


class SymmetryViolation(RegracutError):
    """Colored-graph type labels disagree between the two pair orders."""


class ArrowClosureViolation(RegracutError):
    """Dir-type labels break the arrow-reversal closure between pair orders."""


class SearchSpaceTooLarge(RegracutError):
    """Label enumeration would exceed the configured candidate cap."""


class DimensionMismatch(RegracutError):
    """Probability vector length does not match the type's color count."""


class SizeMismatch(RegracutError):
    """Graphs compared for edit distance have different vertex counts."""


class TooLargeForExact(RegracutError):
    """Too many vertices for exact distance search."""


class EmptyFamily(RegracutError):
    """An operation requires at least one forbidden pattern or one type."""

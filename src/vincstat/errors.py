"""Exception hierarchy for vincstat.

Every error raised by the library derives from :class:`VincstatError`, so
callers (in particular the CLI) can distinguish computation failures from
programming errors.  The leaf classes mirror the failure modes of the
individual operations.
"""


class VincstatError(Exception):
    """Base class for all vincstat errors."""


# --- pattern / permutation construction -------------------------------------

class PatternError(VincstatError):
    """Invalid pattern or permutation input."""


class NotAPermutation(PatternError):
    """Entries are not a bijection of {1..k}."""


class EmptyBlock(PatternError):
    """A '|'-separated block contains no entries."""


class MalformedToken(PatternError):
    """A token is not a positive integer."""


class OutOfRange(PatternError):
    """An adjacency index lies outside {1..k-1}."""


class NonPositivePart(PatternError):
    """A block-composition part is < 1."""


class DuplicateEntry(PatternError):
    """A sequence to be reduced has equal entries."""


# --- enumeration / positions ------------------------------------------------

class NotAdmissible(VincstatError):
    """Position set violates the pattern's adjacency constraints."""


class SizeMismatch(VincstatError):
    """Position set size does not match the pattern size."""


# --- sampling ---------------------------------------------------------------

class ZeroSize(VincstatError):
    """Requested a permutation of size < 1."""


# --- limits -----------------------------------------------------------------

class SizeLimitExceeded(VincstatError):
    """An instance exceeds a configured size/enumeration cap."""


class MalformedLimit(VincstatError):
    """A VINCSTAT_* limit variable does not hold an integer."""


class PatternTooSmall(VincstatError):
    """Operation requires pattern size k >= 2."""


# --- exact moments ----------------------------------------------------------

class DegreeCertificateFailed(VincstatError):
    """The variance polynomial failed an internal consistency check
    (degree other than 2j-1, or a nonpositive leading coefficient).
    Signals an implementation bug, not bad user input."""


class BadWindow(VincstatError):
    """Conditioning-window indices violate 0 <= m <= i <= b_j - 1, or the
    pinned-value vector has the wrong length or invalid entries."""


# --- bound calculators ------------------------------------------------------

class NonPositiveInput(VincstatError):
    """A bound calculator received a nonpositive quantity that must be
    positive."""


class BadOrder(VincstatError):
    """Cumulant order r < 1."""


class NonPositiveDelta(VincstatError):
    """Saulis bound requires delta > 0."""


class BoundOverflow(VincstatError):
    """A bound's value lies outside the range of a float."""


# --- monte carlo ------------------------------------------------------------

class EmptySample(VincstatError):
    """Empirical distance of an empty sample is undefined."""


class TooFewSamples(VincstatError):
    """Cumulant estimation needs at least 5 observations."""


class DegenerateInput(VincstatError):
    """Input admits no meaningful fit or experiment (too few points,
    nonpositive distances, or a zero-variance configuration)."""


# --- oracle -----------------------------------------------------------------

class DecompositionMismatch(VincstatError):
    """A variance decomposition did not sum to the directly computed
    variance.  Signals an implementation bug."""

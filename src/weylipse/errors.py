"""Exception hierarchy shared by all modules.

Usage errors (bad input shape) and computation errors (valid input, but the
requested object does not exist or exceeds a configured bound) are kept as
separate branches so the CLI can map them to distinct exit codes.

The configured bounds live here too, beside `CapExceededError`, the error each
one raises, so that the CLI can state them in its help without importing the
layers that enforce them.  `cartan`, `orbits`, `weyl` and `ordering` import them
from here.
"""

# Largest total rank that `cartan.build_cartan` accepts.  `info` as a fresh process,
# 2-core x86_64, Python 3.11: A100 0.39 s, B100 0.73 s, C100 / D100 0.5 s, A150 1.2 s,
# B150 2.0 s, A200 2.2 s (before the walk listed the roots: B100 1.07, B150 4.0, A200 3.5 s).
MAX_RANK = 100
# largest orbit that `orbits.expand_orbit` walks
DEFAULT_EXPAND_CAP = 10_000_000
# largest |W| of which `weyl.build_group_table` lists the group
DEFAULT_TABLE_CAP = 1_000_000
# Node w's down-set mask has up to w + 1 bits, so the masks of |W| nodes take about
# |W|^2/2 bits: 168 MB on E6, 6.5 GB on D7, which passes the table cap.
MASK_BYTE_CAP = 2**30


class WeylipseError(Exception):
    """Base class for all library errors."""


class UsageError(WeylipseError):
    """Malformed input: unparseable type string, bad index, wrong dimension."""


class UnknownFamilyError(UsageError):
    pass


class RankOutOfRangeError(UsageError):
    pass


class DimensionMismatchError(UsageError):
    pass


class IndexOutOfRangeError(UsageError):
    pass


class BadIndexSetError(UsageError):
    pass


class MalformedFormError(UsageError):
    """A quadratic form whose matrix is not symmetric or has an odd diagonal entry."""


class ComputationError(WeylipseError):
    """Well-formed request whose answer does not exist or was cut off."""


class NotARootError(ComputationError):
    pass


class NotOnEllipsoidError(ComputationError):
    pass


class NotASolutionError(ComputationError):
    pass


class NotInMainOrbitError(ComputationError):
    pass


class NotAMultipleError(ComputationError):
    """A difference that should be an integer multiple of a root is not."""


class CapExceededError(ComputationError):
    """A request passed one of the configured bounds above; partial results are discarded."""


class InvariantError(ComputationError):
    """A check that protects a computed result failed: the result is not returned."""

"""Exception types shared across the package."""


class PspinError(Exception):
    """Base class for all package-specific errors."""


class InvalidParametersError(PspinError, ValueError):
    """Arguments violate an operation's preconditions."""


class ResourceLimitError(PspinError, RuntimeError):
    """The request exceeds the enumeration or memory budget."""


# The memory budget of each guarded allocation, a quarter of an 8 GB machine.
BYTE_BUDGET = 2 * 2**30


class DataError(PspinError, ValueError):
    """Input data is unusable (non-finite couplings, corrupt files)."""


class IdentityCheckError(PspinError, RuntimeError):
    """A built-in consistency identity failed to hold."""


class NumericalError(PspinError, RuntimeError):
    """A numerical routine failed to converge or bracket its target."""

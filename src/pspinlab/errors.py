"""Exception types, and the run-time policies every module shares.

``check_count`` is the one test of an integer argument in range: a size, an
order, a replica, sample or thread count, a seed; ``check_sizes`` applies it
to a pair N, p.  ``shown`` is the one way a message prints an argument: an
integer past str()'s 4,300-digit limit by its bit length.
``check_beta`` is the one test of an inverse temperature,
``finite_power`` the one power that may overflow a double,
``finite_double`` the one conversion of a huge integer or an overflowed
result to a double, and ``finite_exp`` the one exponential that may
overflow.
``check_budget`` is the one memory refusal: each guarded allocation states
its bytes and is refused past ``BYTE_BUDGET``.  ``write_atomic`` is the one
way a text file is written: a per-process temp file renamed over the
target, so a reader never sees a partial file and a failed write leaves
none.
``check_writable``, which it calls, refuses up front a target that is not a
regular file.
"""

import math
import os
from contextlib import suppress


class PspinError(Exception):
    """Base class for all package-specific errors."""


class InvalidParametersError(PspinError, ValueError):
    """Arguments violate an operation's preconditions."""


class ResourceLimitError(PspinError, RuntimeError):
    """The request exceeds the enumeration or memory budget."""


def shown(value) -> str:
    """``repr(value)``; an integer too long for that, past 4,300 digits, by its bit length."""
    try:
        return repr(value)
    except ValueError:
        return f"<{'negative ' if value < 0 else ''}{value.bit_length()}-bit integer>"


def check_count(value, name: str, low: int = 1, high=None) -> int:
    """``value`` itself if it is an integer in [low, high]; a bool or a float is refused."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low or (
            high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {shown(high)}]"
        raise InvalidParametersError(f"{name}={shown(value)} must be an integer {bound}")
    return value


def check_sizes(N, p, min_p: int = 1, max_n=None) -> None:
    """Refuse a system size N and order p unless they are integers, min_p <= p <= N <= max_n."""
    try:
        check_count(N, "N", min_p, max_n)
        check_count(p, "p", min_p, N)
    except InvalidParametersError:
        cap = "" if max_n is None else f" <= {max_n}"
        raise InvalidParametersError(
            f"need integers {min_p} <= p <= N{cap}, got p={shown(p)}, N={shown(N)}") from None


def check_beta(beta) -> None:
    """Refuse an inverse temperature unless it is finite and >= 0: NaN and inf included."""
    if not (0.0 <= beta < math.inf):
        raise InvalidParametersError(f"beta={beta} must be finite and >= 0")


def finite_power(x, k, name: str) -> float:
    """x**k, x named ``name``; past the largest double a NumericalError, not an OverflowError."""
    try:
        return x**k
    except OverflowError:
        raise NumericalError(f"numerical overflow: {name}**{k} at {name}={shown(x)} "
                             f"exceeds the largest double") from None


def finite_double(value, what: str) -> float:
    """``value`` as a finite float; one that is not (a huge int included) is a NumericalError."""
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not abs(x) < math.inf:
        raise NumericalError(f"numerical overflow: {what} exceeds the largest double")
    return x


def finite_exp(x: float, what: str) -> float:
    """e^x as a finite float; past the largest double a NumericalError, not a bare OverflowError."""
    try:
        y = math.exp(x)
    except OverflowError:
        y = math.inf
    return finite_double(y, what)


# The memory budget of each guarded allocation, a quarter of an 8 GB machine.
BYTE_BUDGET = 2 * 2**30


def check_budget(n_bytes: int, what: str) -> None:
    """Refuse an allocation of ``n_bytes``, described by ``what``, past the byte budget."""
    if n_bytes > BYTE_BUDGET:
        raise ResourceLimitError(f"{what} exceed the {BYTE_BUDGET >> 30} GiB budget")


def check_writable(path) -> str:
    """The file a write to ``path`` replaces: ``path``, or a symlink's target.

    Refused unless it is a regular file or absent, in a writable directory:
    a rename over a FIFO or a device node would replace it with a file.
    """
    target = os.path.realpath(path)
    directory = os.path.dirname(target)
    if os.path.isdir(target):
        raise OSError(f"cannot write {path!r}: it is a directory")
    if os.path.exists(target) and not os.path.isfile(target):
        raise OSError(f"cannot write {path!r}: it is not a regular file")
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise OSError(f"cannot write {path!r}: {directory!r} is not a writable directory")
    return target


def write_atomic(path, chunks) -> None:
    """Write text ``chunks`` to ``path`` by renaming a per-process temp file, removed on failure.

    A symlink is written through to its target; a path that
    :func:`check_writable` refuses is refused before the temp file exists.
    """
    target = check_writable(path)
    tmp = f"{target}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


class DataError(PspinError, ValueError):
    """Input data is unusable (non-finite couplings)."""


class IdentityCheckError(PspinError, RuntimeError):
    """A built-in consistency identity failed to hold."""


class NumericalError(PspinError, RuntimeError):
    """A numerical routine failed to converge or bracket its target."""

"""Exception types, checks and the file opener shared across the toolkit.

Library code raises the most specific class that applies instead of a bare
ValueError, so callers can tell bad input from bad data and from divergence.
A violated precondition, such as a wrong shape or a non-integer count, is a
ContractError; data that is unusable as numbers is a DataError.  The checks
below raise them: require_integer, require_type and seeded_rng a
ContractError naming the argument, float_array a DataError for None and for
input numpy cannot convert, finite_array also for NaN or inf.  is_integer
and is_real only answer True or False.  A count an entry point takes (a
dimension, a resolution, a width, a level count) is at most COUNT_MAX, so a
count that no C long, float or array dimension holds is refused by name.
opened opens every file the toolkit reads or writes: a path that is not a
str, bytes or os.PathLike and an OSError become a ContractError, text that
is not UTF-8 a ParseError.
"""

import contextlib
import math
import numbers
import os

import numpy as np


# the largest C int: every count up to it converts exactly to a C long, a
# float64 and a numpy array dimension
COUNT_MAX = 2**31 - 1


class ContourselError(Exception):
    """Base class for all toolkit errors."""


class InvalidProblemError(ContourselError):
    """Unsupported (kind, function, dimension) combination."""


class ContractError(ContourselError):
    """An argument violates a documented precondition (shape, range, ...)."""


class DataError(ContourselError):
    """Input data is malformed or non-finite."""


class ParseError(DataError):
    """A CSV/JSON artifact could not be parsed."""


class TrainingError(ContourselError):
    """Training produced a non-finite loss or otherwise diverged."""


def is_integer(value, minimum: int | None = None) -> bool:
    """True for a Python or numpy integer, not a bool, that is at least
    minimum when one is given."""
    # type(value) is int first: isinstance against the numbers ABC is over
    # ten times slower, and each RunRecord makes three of these checks
    return (
        (type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool))
        and (minimum is None or value >= minimum)
    )


def is_real(value) -> bool:
    """True for a finite Python or numpy real number that is not a bool."""
    # the float fast path, as in is_integer: every MooHvRecord checks its hv
    real = type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and -math.inf < value < math.inf


def require_integer(name: str, value, minimum: int | None = None, maximum: int | None = None) -> None:
    """Raise ContractError unless value is an integer, of at least minimum
    and at most maximum when they are given."""
    if not is_integer(value, minimum) or maximum is not None and value > maximum:
        bounds = " and ".join(f"{op} {limit}" for op, limit in ((">=", minimum), ("<=", maximum)) if limit is not None)
        raise ContractError(f"{name} must be an integer{' ' + bounds if bounds else ''}, got {value!r}")


def require_type(name: str, value, kind) -> None:
    """Raise ContractError naming the argument unless value is a kind (a class or a tuple of them)."""
    if not isinstance(value, kind):
        wanted = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        got = f"{type(value).__module__}.{type(value).__qualname__}".removeprefix("builtins.")
        raise ContractError(f"{name} must be a {wanted}, got {got}")


@contextlib.contextmanager
def opened(path, mode: str = "r"):
    """open(path, mode), text as UTF-8 with newline=""; a path that is not a
    str, bytes or os.PathLike raises ContractError, so an integer is never
    taken as a file descriptor, an OSError at open, read, write or close
    raises ContractError naming the path and the OS reason, and
    undecodable text raises ParseError naming the path."""
    require_type("path", path, (str, bytes, os.PathLike))
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(path, mode, **text) as fh:
            yield fh
    except OSError as exc:
        raise ContractError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        # the decoder reads ahead in blocks, so the line is unknown
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def seeded_rng(name: str, seed, *salt: int) -> "np.random.Generator":
    """The generator of an integer seed, as its 64-bit two's complement, and
    salt words; ContractError naming the seed when it is not an integer."""
    require_integer(name, seed)
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, *salt]))


def float_array(value, what: str) -> np.ndarray:
    """value as a float64 array; DataError naming what when numpy cannot
    convert it (text, ragged nesting, objects) and for None, which numpy
    would turn into a NaN scalar."""
    if value is None:
        raise DataError(f"{what} must be numbers, got None")
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{what} must be numbers: {exc}") from exc


def finite_array(value, what: str) -> np.ndarray:
    """float_array(value, what), then DataError naming what unless every
    value is finite."""
    arr = float_array(value, what)
    if not np.isfinite(arr).all():
        raise DataError(f"{what}: not finite (NaN or inf)")
    return arr

"""Exception types shared across the package.

Every error the package raises on purpose is one of two kinds:

* ``ConfigError``: an argument the caller chose is out of range or
  inconsistent (a state parameter, a grid size, an index, a count, a
  weight vector, a matrix that is not a density matrix).  Choosing
  another value fixes it.  The CLI exits with code 1.
* ``DataError``: the measurement record, or its fit to the test set, is
  unusable (it cannot be parsed, lacks a default setting, has a setting
  without shots, or every test state excludes it).  Only other data fixes
  it.  The CLI exits with code 2.

The message says which argument or which part of the record is at fault.
"""

import numbers

import numpy as np


class EntcharError(Exception):
    """Base class for all entchar errors."""


class ConfigError(EntcharError):
    """An argument the caller chose is out of range or inconsistent."""


class DataError(EntcharError):
    """The measurement record, or its fit to the test set, is unusable."""


def check_int(value, what: str, low: int, high: int | None = None) -> int:
    """``value`` as an int; ConfigError unless it is a Python or numpy integer,
    not a bool, in [low, high] (high None: no upper bound).  The rule for the
    CLI's integer flags too; the message names the bound that failed."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if integer and high is not None and value > high:
        raise ConfigError(f"{what} must be an integer <= {high}, got {value!r}")
    if not integer or value < low:
        raise ConfigError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_real(value, what: str) -> float:
    """``value`` as a float; ConfigError unless it is a Python or numpy real, not a bool."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{what} must be a real number, got {value!r}")


def check_real_array(value, what: str) -> np.ndarray:
    """``value`` as a float ndarray; ConfigError unless numpy reads it as an
    array of integers or reals: not complex numbers, bools, text, objects
    or ragged rows.  A float64 array is returned as it is, not copied."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError) as exc:  # ragged rows
        raise ConfigError(f"{what} must be an array of real numbers: {exc}") from None
    if array.dtype.kind not in "iuf":
        raise ConfigError(f"{what} must be an array of real numbers, got dtype {array.dtype}")
    return array.astype(float, copy=False)

"""Argument checks shared by the modules that build graphs, operators,
plans and problems.

Each check takes the argument's name, as its message should print it, and
the error class of the calling module (``GraphError``, ``OperatorError`` or
``ValueError``), and raises that class with one of these messages:

* :func:`integer` -- ``{name} must be an integer, got {v!r}``, or ``must be
  a positive integer`` / ``must be a non-negative integer`` when a sign is
  asked for (the message is the same for a wrong type and a wrong sign);
* :func:`real` -- ``{name} must be a real number, got {v!r}``, then, when a
  range is asked for, ``{name} must be finite, got {v}``, ``must be
  nonnegative and finite`` or ``must be positive and finite``;
* :func:`array` -- ``{name} must be a 1-D vector`` (or ``2-D matrix``)
  ``, got shape {shape}``, and ``{name}[i, j] must be finite, got {v}`` for
  the first non-finite entry in C order.

A bool is never taken for a number.  Plain ints and floats skip the
abstract-base-class test, which costs about 1 us a call.
"""

import math
import numbers

import numpy as np

_LOW = {None: -math.inf, "non-negative": 0, "positive": 1}  # the least integer of each sign


def integer(name, v, error, sign=None):
    """v as an int, if it is an integer, numpy's included, but not a bool,
    and, for sign "positive" or "non-negative", > 0 or >= 0."""
    if type(v) is not int and (isinstance(v, bool) or not isinstance(v, numbers.Integral)) or (
            v < _LOW[sign]):
        raise error(f"{name} must be {f'a {sign}' if sign else 'an'} integer, got {v!r}")
    return int(v)


def real(name, v, error, need=None):
    """v, if it is a real number, not a bool, and meets need: None, "finite",
    "nonnegative and finite" or "positive and finite"."""
    if type(v) is not float and (isinstance(v, bool) or not isinstance(v, numbers.Real)):
        raise error(f"{name} must be a real number, got {v!r}")
    if need is None or math.isfinite(v) and (
            need == "finite" or v > 0 or v == 0 and need == "nonnegative and finite"):
        return v
    raise error(f"{name} must be {need}, got {v}")


def array(name, a, error, ndim=1, finite=True):
    """a as a float array of ndim dimensions, and, when finite, finite."""
    a = np.asarray(a, dtype=float)
    if a.ndim != ndim:
        kind = "vector" if ndim == 1 else "matrix"
        raise error(f"{name} must be a {ndim}-D {kind}, got shape {a.shape}")
    if finite and not np.isfinite(a).all():
        at = tuple(np.argwhere(~np.isfinite(a))[0].tolist())
        raise error(f"{name}[{', '.join(map(str, at))}] must be finite, got {a[at]}")
    return a

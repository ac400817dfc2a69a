"""Shared vocabulary: points, extended reals, value records, sign classes.

Points of the base and scaling spaces are tuples of finite floats; a bare
float stands for a point of a one-dimensional space.  Extended-real values
use ``math.inf`` directly.  Proper convex functions never return ``-inf``;
raw scaling evaluations may.  The contracts of the function objects are
stated in the ``catalog`` module's docstring.

The helpers below sit on the prox hot path, where every vector is already
a checked tuple, so each tests ``type(x) is tuple`` before anything else.
``as_vec`` returns a non-empty tuple of finite entries of type exactly
``float`` unchanged; any other input (a list, ints, bools, float
subclasses, a non-finite entry, the empty tuple, a scalar) takes the
general path, with the same conversion or the same ``ValueError``.  Both
paths give the same value, sign of zero included, so a fast path changes
no float operation.

Every zero and membership test in the package applies one rounding-slack
rule, ``|value| <= slack_bound(size)``, at the magnitude of the input a
value came from (``||x|| / gamma`` on the base side, ``|y|`` on the scale
side), so an input the region pass treats as zero is snapped to zero by
the certificate too.  The rounding constants are defined here and nowhere
else.  Every scalar solve stops by one rule: once its step or residual is
within a few rounding units (``EPS``) of the quantities it is computed
from, never on an absolute floor.
"""

from __future__ import annotations

import math
import operator
from enum import Enum

INF = math.inf

Vec = tuple[float, ...]

SLACK = 1e-12  # rounding slack of every zero and membership test
EPS = 2.0 ** -52  # the rounding unit: the gap between 1.0 and the next double
MIN_NORMAL = 2.0 ** -1022  # the smallest normal double
MIN_SUBNORMAL = 2.0 ** -1074  # the smallest positive double
ZERO_NORM = 1e-300  # a vector of smaller norm is the zero vector (a subnormal guard)
LOG_MAX = math.log(1.7976931348623157e308)  # exp of a larger argument overflows


def slack_bound(size: float) -> float:
    """The largest ``|value|`` that is zero up to rounding in an input of
    magnitude ``size`` (a caller computes it once per input and compares)."""
    return SLACK * (1.0 + abs(size))


class DimensionMismatch(ValueError):
    """Two operands live in spaces of different dimension."""


def as_vec(x) -> Vec:
    """Coerce ``x``, a number or a sequence of them, to a tuple of finite
    floats (a scalar becomes length 1)."""
    if type(x) is tuple and x:
        for c in x:
            if type(c) is not float or not math.isfinite(c):
                break
        else:
            return x
    if isinstance(x, (int, float)):
        entries = (float(x),)
    else:
        entries = tuple([float(c) for c in x])
    if not entries:
        raise ValueError("a vector needs at least one entry")
    for c in entries:
        if not math.isfinite(c):
            raise ValueError(f"vector entries must be finite, got {c!r}")
    return entries


def norm(x) -> float:
    if type(x) is not tuple and isinstance(x, (int, float)):
        return abs(float(x))
    return math.hypot(*x)


def dot(x, y) -> float:
    xs = type(x) is not tuple and isinstance(x, (int, float))
    ys = type(y) is not tuple and isinstance(y, (int, float))
    if xs and ys:
        return float(x) * float(y)
    if xs or ys or len(x) != len(y):
        raise DimensionMismatch(f"incompatible operands: {x!r} vs {y!r}")
    return sum(map(operator.mul, x, y))


def sub(x, y):
    if type(x) is not tuple and isinstance(x, (int, float)):
        return float(x) - float(y)
    if len(x) != len(y):
        raise DimensionMismatch(f"incompatible operands: {x!r} vs {y!r}")
    return tuple(map(operator.sub, x, y))


def scale(x, a: float):
    if type(x) is not tuple and isinstance(x, (int, float)):
        return float(x) * a
    return tuple([c * a for c in x])


def zeros_like(x):
    if isinstance(x, (int, float)):
        return 0.0
    return tuple(0.0 for _ in x)


class Record:
    """A slotted record whose fields are its ``__slots__``.

    A subclass lists its fields in ``__slots__`` (or in ``_fields``, when
    it also keeps derived values in slots) and sets them in its own
    ``__init__``.  It gets a repr in the dataclass format
    (``RootScaling(q=0.5, upper=4.0)``) and field-wise ``==`` between
    objects of the same class, without an instance dict and without
    importing ``dataclasses`` or ``inspect``.  It may be assigned to, so it
    is unhashable; ``ProxResult`` is one, built fresh by every call.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__ and "__slots__" in cls.__dict__:
            cls._fields = tuple(cls.__slots__)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()


class Value(Record):
    """An immutable record: the function objects, the pair, ``RootConfig``.

    Its ``__init__`` sets the fields through ``object.__setattr__``;
    afterwards assigning or deleting an attribute raises ``AttributeError``.
    Equal values hash alike.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")


class SignClass(Enum):
    """Range class of the conjugate of a base function.

    The class decides which branch of the perspective-prox machinery
    applies: nonnegative conjugates pair with lower-semicontinuous ``-s``,
    nonpositive ones with lower-semicontinuous ``s``, and zero-or-infinity
    conjugates use the decoupled product formula.
    """

    NONNEGATIVE_CONJUGATE = "nonnegative"
    ZERO_INFTY_CONJUGATE = "zero-infinity"
    NONPOSITIVE_CONJUGATE = "nonpositive"


class CaseKind(Enum):
    NEG_S_LOWER = "neg-s-lower"  # -s is proper lsc convex
    S_LOWER = "s-lower"          # s is proper lsc convex


"""Shared vocabulary: points, extended reals, function contracts, sign classes.

Points of the base and scaling spaces are tuples of finite floats; a bare
float stands for a point of a one-dimensional space.  Extended-real values
use ``math.inf`` directly.  Proper convex functions never return ``-inf``;
raw scaling evaluations may.

The helpers below sit on the prox hot path, where every vector is already
a checked tuple, so each tests ``type(x) is tuple`` before anything else.
``as_vec`` returns a non-empty tuple of finite entries of type exactly
``float`` unchanged; any other input (a list, ints, bools, float
subclasses, a non-finite entry, the empty tuple, a scalar) takes the
general path, with the same conversion or the same ``ValueError``.  Both
paths give the same value, sign of zero included, so a fast path changes
no float operation.

Every zero and membership test in the package applies one rounding-slack
rule, ``negligible``, at the magnitude of the input a value came from
(``||x|| / gamma`` on the base side, ``|y|`` on the scale side), so an
input the region pass treats as zero is snapped to zero by the
certificate too.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import Protocol, Sequence, runtime_checkable

INF = math.inf

Vec = tuple[float, ...]

SLACK = 1e-12  # rounding slack of every zero and membership test


def negligible(value: float, size: float) -> bool:
    """Whether ``value`` is zero up to rounding in an input of magnitude
    ``size``; +-inf and NaN never are."""
    return abs(value) <= SLACK * (1.0 + abs(size))


class DimensionMismatch(ValueError):
    """Two operands live in spaces of different dimension."""


def as_vec(x: float | Sequence[float]) -> Vec:
    """Coerce ``x`` to a tuple of finite floats (a scalar becomes length 1)."""
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


def norm(x: float | Sequence[float]) -> float:
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


def dist(x, y) -> float:
    return norm(sub(x, y))


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
    Equal values hash alike, and a value pickles by its constructor, which
    takes the fields positionally in ``_fields`` order.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __reduce__(self):
        # default unpickling would restore the slots through __setattr__
        return type(self), self._values()


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


@runtime_checkable
class ProxCapable(Protocol):
    """A convex function together with its scaled prox family: the contract
    of the scalar profile that ``radial.RadialFunction`` lifts.

    ``prox(gamma, x)`` is the proximal point of ``gamma * f`` at ``x`` for
    ``gamma > 0``; ``proj_cl_dom`` is the projection onto the closure of
    the domain, which is the ``gamma -> 0`` member of the family.
    """

    def eval(self, x): ...

    def prox(self, gamma: float, x): ...

    def proj_cl_dom(self, x): ...


@runtime_checkable
class BaseFunction(Protocol):
    """Contract for a base function phi supplied to a perspective pair.

    It evaluates phi and phi*, gives the prox of ``gamma * phi*``, the
    projection onto ``cl dom phi*``, the recession function and the sign
    class of phi*.  A zero-or-infinity base also provides ``prox_primal(gamma,
    x)``, the prox of ``gamma * phi``, which the decoupled case calls.

    A signed base is the radial lift of its conjugate profile: ``conj`` is
    a ``radial.RadialFunction`` of an even scalar ``h`` (``conj.phi1d``)
    that ``conj_eval``, ``prox_conj`` and ``proj_dom_conj`` lift, and the
    solver runs on ``h`` at ``r = ||x/gamma||``.  Besides the ``ProxCapable``
    methods ``h`` has ``slope(gamma, t, rho)``, the derivative in ``gamma``
    of ``h(prox_{gamma h}(t))`` at ``rho``, the point ``prox`` returned:
    ``-h'(rho)**2 / (1 + gamma * h''(rho))``, 0 on a clamp (an end of ``cl
    dom h``), NaN where not defined.  The search takes Newton steps from it.
    """

    sign_class: SignClass

    def eval(self, x: Vec) -> float: ...

    def conj_eval(self, xstar: Vec) -> float: ...

    def prox_conj(self, gamma: float, xstar: Vec) -> Vec: ...

    def proj_dom_conj(self, xstar: Vec) -> Vec: ...

    def rec_eval(self, x: Vec) -> float: ...


@runtime_checkable
class ScalingFunction(Protocol):
    """Contract for a scaling function s on a one-dimensional scale space.

    ``env_eval`` is the convex envelope the solver works with: the lower
    envelope of ``-s`` when ``case_kind`` is NEG_S_LOWER, the upper
    envelope of ``s`` when it is S_LOWER.  ``prox_env(w, y)`` is the prox
    of ``w * envelope`` (projection onto the closed envelope domain when
    ``w == 0``), and ``env_conj_eval`` is the envelope's convex conjugate,
    needed to evaluate the conjugate of the perspective.

    The closed envelope domain is ``cl S``, convex for both kinds, so
    ``prox_env(0.0, y)`` is the one projection onto ``cl S = cl conv S``
    that the solver and the certificate use; at that point ``env_eval``
    equals ``-eval`` for NEG_S_LOWER and ``eval`` for S_LOWER.
    ``support_cl_conv_S`` is the support function of that set, and
    ``proj_dom_env_conj`` the projection onto the closed domain of
    ``env_conj_eval``, which the certificate calls.

    ``env_slope(weight, y, z)`` is the derivative in ``weight`` of the
    value curve ``env_eval(prox_env(weight, y))`` at ``z``, the point
    ``prox_env`` returned for those arguments: ``-h'(z)**2 / (1 + weight *
    h''(z))`` for the envelope ``h``, 0 where ``z`` is clamped to an end of
    ``cl S``, NaN where it is not defined.  See ``BaseFunction``.
    """

    case_kind: CaseKind

    def eval(self, y: float) -> float: ...

    def env_eval(self, y: float) -> float: ...

    def env_conj_eval(self, ystar: float) -> float: ...

    def prox_env(self, weight: float, y: float) -> float: ...

    def support_cl_conv_S(self, ystar: float) -> float: ...

    def proj_dom_env_conj(self, ystar: float) -> float: ...

    def env_slope(self, weight: float, y: float, z: float) -> float: ...


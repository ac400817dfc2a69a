"""Proximity operators of perspective functions with nonlinear scaling.

A perspective couples a base function on R^n with a scaling function on a
scalar scale space into a jointly convex function on the product.  This
package evaluates such functions and their conjugates, computes their
proximity operators exactly (closed forms on three input regions plus a
monotone scalar root-find on the fourth), certifies each output with its
Fenchel gap, and ships a forward-backward demo solver.
"""

from importlib import import_module as _import_module

from .core import (
    INF,
    CaseKind,
    DimensionMismatch,
    SignClass,
    Vec,
    as_vec,
    dot,
    norm,
)
from .radial import RadialFunction, radial_prox
from .catalog import (
    AbsBase,
    HuberBase,
    IdentityScaling,
    PowerBase,
    PowerScalar,
    RootScaling,
    SqrtScaling,
    make_base,
    make_scaling,
    root_scaling_prox_neg,
    sqrt_scaling_prox,
)
from .perspective import (
    PairMismatch,
    PerspectivePair,
    perspective_conj_eval,
    perspective_eval,
    preperspective_eval,
    prox_fenchel_gap,
)
from .solver import (
    CaseLabel,
    ProxResult,
    RootConfig,
    classify_case_i,
    classify_case_iii,
    prox_perspective,
    solve_eta_case_i,
    solve_eta_case_iii,
)
from .roots import RootFindError, real_quartic_roots

# the demo loads on first use: a prox call does not need it
_LAZY = {
    "DemoSpec": "splitting",
    "DemoTrace": "splitting",
    "StepSizeError": "splitting",
    "run_concomitant_demo": "splitting",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = sorted({name for name in dir() if not name.startswith("_")}
                 | set(_LAZY) | {"splitting"})

"""Proximity operators of perspective functions with nonlinear scaling.

A perspective couples a base function on R^n with a scaling function on a
scalar scale space into a jointly convex function on the product.  This
package evaluates such functions and their conjugates, computes their
proximity operators exactly (closed forms on three input regions plus a
monotone scalar root-find on the fourth), and ships a brute-force oracle
and a forward-backward demo solver for validation.
"""

from .core import (
    INF,
    BaseFunction,
    CaseKind,
    DimensionMismatch,
    ProxCapable,
    ScalingFunction,
    SignClass,
    Vec,
    as_vec,
    dist,
    dot,
    fenchel_young_gap,
    norm,
)
from .scaled import (
    ConjugateProvider,
    EnvelopeProvider,
    PrimalProvider,
    moreau_decompose,
    prox_characterization_gap,
    prox_value_curve,
    scaled_prox,
)
from .radial import RadialFunction, radial_prox, radial_prox_value
from .catalog import (
    AbsBase,
    AbsScalar,
    HuberBase,
    HuberConjScalar,
    HuberScalar,
    IdentityScaling,
    IntervalIndicator,
    PowerBase,
    PowerScalar,
    RootScaling,
    SqrtScaling,
    SupportInterval,
    make_base,
    make_scaling,
    power_prox_conj,
    root_scaling_prox_neg,
    sqrt_scaling_prox,
)
from .perspective import (
    PairMismatch,
    PerspectivePair,
    linear_perspective_eval,
    perspective_conj_eval,
    perspective_eval,
    preperspective_eval,
    prox_fenchel_gap,
)
from .solver import (
    CaseLabel,
    ProxResult,
    RootConfig,
    case_ii_prox,
    classify_case_i,
    classify_case_iii,
    prox_perspective,
    solve_eta_case_i,
    solve_eta_case_iii,
)
from .oracle import OracleConfig, OracleError, brute_force_prox
from .roots import RootFindError, real_quartic_roots
from .splitting import DemoSpec, DemoTrace, StepSizeError, run_concomitant_demo

__all__ = [name for name in dir() if not name.startswith("_")]

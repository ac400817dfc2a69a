import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persprox import (
    INF,
    AbsBase,
    DimensionMismatch,
    HuberBase,
    IdentityScaling,
    PerspectivePair,
    PowerBase,
    RadialFunction,
    RootConfig,
    RootScaling,
    SignClass,
    SqrtScaling,
    as_vec,
    dot,
    norm,
)
from persprox import catalog
from persprox.core import scale, sub
from conftest import grid_conjugate_1d, rand_vec
from reference import (
    AbsScalar,
    PowerScalar,
    fenchel_young_gap,
    general_as_vec,
    general_check_point,
    general_dot,
    general_norm,
    general_scale,
    general_sub,
)

BASES = [PowerBase(2.0), PowerBase(3.0), PowerBase(1.5), HuberBase(1.0), HuberBase(0.4), AbsBase()]


def test_as_vec_scalars_and_sequences():
    assert as_vec(3) == (3.0,)
    assert as_vec([1, 2.5]) == (1.0, 2.5)
    with pytest.raises(ValueError):
        as_vec([])
    with pytest.raises(ValueError):
        as_vec([1.0, math.nan])
    with pytest.raises(ValueError):
        as_vec([math.inf])


def test_norm_dot_dimension_checks():
    assert norm((3.0, 4.0)) == 5.0
    assert norm(-2.0) == 2.0
    assert dot((1.0, 2.0), (3.0, 4.0)) == 11.0
    with pytest.raises(DimensionMismatch):
        dot((1.0, 2.0), (1.0,))
    with pytest.raises(DimensionMismatch):
        dot((1.0, 2.0), 1.0)


def test_fenchel_young_gap_quadratic_selfdual():
    quad = PowerScalar(2.0)
    assert fenchel_young_gap(quad, 2.0, 2.0) == pytest.approx(0.0, abs=1e-14)
    assert fenchel_young_gap(quad, 2.0, 0.0) == pytest.approx(2.0, abs=1e-14)


def test_fenchel_young_gap_abs_derived():
    # conjugate of |.| at 0.5 is 0: confirmed by the grid conjugate oracle
    f = AbsScalar()
    oracle = grid_conjugate_1d(f.eval, 0.5)
    assert abs(oracle - 0.0) <= 1e-8
    assert fenchel_young_gap(f, 3.0, 0.5) == pytest.approx(1.5, abs=1e-12)


def test_fenchel_young_gap_dimension_error():
    with pytest.raises(DimensionMismatch):
        fenchel_young_gap(PowerBase(2.0), (1.0, 2.0), (1.0,))


def test_fenchel_young_nonnegative_on_catalog(rng):
    for base in BASES:
        for _ in range(200):
            x = rand_vec(rng, 2)
            xs = rand_vec(rng, 2)
            assert fenchel_young_gap(base, x, xs) >= -1e-10


def test_proj_dom_conj_idempotent_and_firm(rng):
    for base in BASES:
        for _ in range(100):
            xs = rand_vec(rng, 3, -6.0, 6.0)
            once = base.proj_dom_conj(xs)
            assert base.proj_dom_conj(once) == once
        for _ in range(100):
            u = rand_vec(rng, 3, -6.0, 6.0)
            v = rand_vec(rng, 3, -6.0, 6.0)
            pu, pv = base.proj_dom_conj(u), base.proj_dom_conj(v)
            lhs = sum((a - b) ** 2 for a, b in zip(pu, pv))
            rhs = sum((a - b) * (c - d) for a, b, c, d in zip(pu, pv, u, v))
            assert lhs <= rhs + 1e-10


def test_sign_class_consistency(rng):
    for base in BASES:
        for _ in range(1000):
            xs = rand_vec(rng, 2, -8.0, 8.0)
            c = base.conj_eval(xs)
            if base.sign_class is SignClass.NONNEGATIVE_CONJUGATE:
                assert c >= -1e-12
            elif base.sign_class is SignClass.NONPOSITIVE_CONJUGATE:
                assert c <= 1e-12 or c == INF
            else:
                assert c == 0.0 or c == INF
        # the signed classes must actually attain a nonzero value somewhere
        if base.sign_class is SignClass.NONNEGATIVE_CONJUGATE:
            assert base.conj_eval((1.0, 1.0)) > 0.0
        if base.sign_class is SignClass.NONPOSITIVE_CONJUGATE:
            assert base.conj_eval((0.0, 0.0)) < 0.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    x=st.floats(-10, 10),
    xs=st.floats(-10, 10),
    p=st.sampled_from([1.2, 1.5, 2.0, 3.0, 4.0]),
)
def test_fenchel_young_scalar_property(x, xs, p):
    f = PowerScalar(p)
    assert fenchel_young_gap(f, x, xs) >= -1e-9


def test_midpoint_convexity_of_catalog_bases(rng):
    for base in BASES:
        for _ in range(200):
            u = rand_vec(rng, 2)
            v = rand_vec(rng, 2)
            mid = tuple(0.5 * (a + b) for a, b in zip(u, v))
            assert base.eval(mid) <= 0.5 * base.eval(u) + 0.5 * base.eval(v) + 1e-10


# ---------------------------------------------------------------------------
# the tuple fast paths of the vector helpers agree with their general path

EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, math.nan, math.inf, -math.inf,
)
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
ENTRIES = st.one_of(
    FLOATS,
    st.integers(-(2 ** 1100), 2 ** 1100),  # ints beyond the float range too
    st.booleans(),
    FLOATS.map(np.float64),
)
VECTORS = st.one_of(
    st.lists(ENTRIES, max_size=4).map(tuple),
    st.lists(FLOATS, max_size=4).map(tuple),  # mostly the fast path's own input
    st.lists(ENTRIES, max_size=4),
    ENTRIES,
)
FAST_PATH_SETTINGS = settings(max_examples=400, derandomize=True, deadline=None)


def _outcome(fn, *args):
    """The repr of the value (which tells -0.0 from 0.0, and np.float64 from
    float), or the exception type and message."""
    try:
        with np.errstate(all="ignore"):
            return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


@FAST_PATH_SETTINGS
@given(x=VECTORS, y=VECTORS, a=FLOATS)
def test_vector_helpers_fast_paths_match_the_general_path(x, y, a):
    assert _outcome(as_vec, x) == _outcome(general_as_vec, x)
    assert _outcome(norm, x) == _outcome(general_norm, x)
    assert _outcome(scale, x, a) == _outcome(general_scale, x, a)
    assert _outcome(sub, x, y) == _outcome(general_sub, x, y)
    assert _outcome(dot, x, y) == _outcome(general_dot, x, y)


@FAST_PATH_SETTINGS
@given(n=st.integers(1, 3), x=VECTORS,
       y=st.one_of(ENTRIES, st.lists(ENTRIES, max_size=2), st.lists(ENTRIES, max_size=2).map(tuple)))
def test_check_point_fast_path_matches_the_general_path(n, x, y):
    pair = PerspectivePair(PowerBase(2.0), RootScaling(0.5), n)
    assert _outcome(pair.check_point, x, y) == _outcome(general_check_point, n, x, y)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_non_finite_entry_at_every_position_is_rejected(bad, n):
    pair = PerspectivePair(PowerBase(2.0), RootScaling(0.5), n)
    for k in range(n):
        entries = [1.0] * n
        entries[k] = bad
        for x in (tuple(entries), entries):
            message = f"vector entries must be finite, got {bad!r}"
            for check in (as_vec, lambda v: pair.check_point(v, 0.0)):
                with pytest.raises(ValueError) as exc:
                    check(x)
                assert str(exc.value) == message
            with pytest.raises(ValueError) as exc:
                pair.check_point((1.0,) * n, bad)
            assert str(exc.value) == f"the scale component must be finite, got {bad!r}"


def test_as_vec_returns_a_checked_tuple_itself():
    x = (1.5, -0.0, 5e-324)
    assert as_vec(x) is x
    converted = as_vec((np.float64(1.5), True, 2))
    assert converted == (1.5, 1.0, 2.0)
    assert all(type(c) is float for c in converted)
    with pytest.raises(ValueError, match="at least one entry"):
        as_vec(())


# (constructor, repr): each constructor builds a fresh, equal value; the
# reprs are those the dataclass versions of these classes printed, which
# tests such as test_catalog._scale_probe_points use as RNG seeds
VALUES = [
    (lambda: catalog.PowerScalar(2.5), "PowerScalar(p=2.5)"),
    (lambda: PowerBase(3.0), "PowerBase(p=3.0)"),
    (lambda: AbsBase(), "AbsBase()"),
    (lambda: HuberBase(1.0), "HuberBase(alpha=1.0)"),
    (lambda: RootScaling(0.5, 4.0), "RootScaling(q=0.5, upper=4.0)"),
    (lambda: RootScaling(0.5), "RootScaling(q=0.5, upper=inf)"),
    (lambda: SqrtScaling(2.0), "SqrtScaling(beta=2.0)"),
    (lambda: IdentityScaling(), "IdentityScaling(upper=inf)"),
    (lambda: IdentityScaling(3.0), "IdentityScaling(upper=3.0)"),
    (lambda: RadialFunction(catalog.PowerScalar(2.0)), "RadialFunction(phi1d=PowerScalar(p=2.0))"),
    (lambda: PerspectivePair(PowerBase(3.0), RootScaling(0.5, 4.0), 2),
     "PerspectivePair(base=PowerBase(p=3.0), scaling=RootScaling(q=0.5, upper=4.0), n=2)"),
    (lambda: PerspectivePair(HuberBase(2.0), SqrtScaling(1.0)),
     "PerspectivePair(base=HuberBase(alpha=2.0), scaling=SqrtScaling(beta=1.0), n=1)"),
    (lambda: RootConfig(), "RootConfig(eta_tol=1e-12, residual_tol=1e-10, max_iter=200)"),
    (lambda: RootConfig(eta_tol=1e-13, max_iter=50),
     "RootConfig(eta_tol=1e-13, residual_tol=1e-10, max_iter=50)"),
]


@pytest.mark.parametrize("make, text", VALUES, ids=[text for _, text in VALUES])
def test_value_objects_keep_value_semantics(make, text):
    value = make()
    assert repr(value) == text
    twin = make()
    assert twin is not value and twin == value and hash(twin) == hash(value)
    field = re.match(r"\w+\((\w+)=", text)
    name = field.group(1) if field else "extra"
    with pytest.raises(AttributeError):
        setattr(value, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert repr(value) == text


def test_values_of_other_classes_or_fields_differ():
    assert PowerBase(3.0) != PowerBase(2.0)
    assert RootScaling(0.5) != RootScaling(0.5, 4.0)
    assert catalog.PowerScalar(2.0) != PowerScalar(2.0)  # the test-side subclass
    assert RootConfig() != RootConfig(max_iter=100)

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persprox import (
    INF,
    AbsBase,
    DimensionMismatch,
    HuberBase,
    PowerBase,
    SignClass,
    as_vec,
    dot,
    norm,
)
from conftest import grid_conjugate_1d, rand_vec
from reference import AbsScalar, PowerScalar, fenchel_young_gap

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


@settings(max_examples=100, deadline=None)
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

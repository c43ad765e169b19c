from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdpb import fps
from fdpb.ring import LAM, ONE, X, ZERO, BiPoly, falling_product
from fdpb.fps import (
    BadConstantTerm,
    NonUnitLeadingCoefficient,
    NonzeroConstantTerm,
    OrderExceeded,
    Series,
    ValuationMismatch,
    degenerate_pow,
    egf_coeff,
    lambda_log,
    series_compose,
    series_div,
    series_exp,
    series_integrate,
    series_log,
)

N = 12


def rational_series(order=8):
    coeff = st.builds(
        Fraction,
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=1, max_value=3),
    )
    return st.lists(coeff, min_size=order + 1, max_size=order + 1).map(Series)


def exp_series(order):
    return series_exp(Series.t(order))


class TestArithmetic:
    def test_one_minus_t_squared(self):
        one_plus = Series.constant(ONE, 4) + Series.t(4)
        one_minus = Series.constant(ONE, 4) - Series.t(4)
        prod = one_plus * one_minus
        assert prod.coeff(0) == ONE
        assert prod.coeff(1) == ZERO
        assert prod.coeff(2) == BiPoly.const(-1)

    def test_bernoulli_generating_quotient(self):
        # ordinary coefficients of t/(e^t - 1): 1, -1/2, 1/12
        f = series_div(Series.t(N), exp_series(N) - Series.constant(ONE, N))
        assert f.coeff(0) == ONE
        assert f.coeff(1) == BiPoly.const(Fraction(-1, 2))
        assert f.coeff(2) == BiPoly.const(Fraction(1, 12))

    def test_additive_identity(self):
        f = exp_series(6)
        assert f + Series.constant(ZERO, 6) == f

    @given(rational_series(6), rational_series(6))
    @settings(max_examples=40, deadline=None)
    def test_mul_commutes(self, f, g):
        assert f * g == g * f

    @given(rational_series(5), rational_series(5), rational_series(5))
    @settings(max_examples=30, deadline=None)
    def test_mul_associates(self, f, g, h):
        assert (f * g) * h == f * (g * h)


class TestDivision:
    def test_exp_minus_one_over_t(self):
        q = series_div(exp_series(N) - Series.constant(ONE, N), Series.t(N))
        assert q.coeff(0) == ONE
        assert q.coeff(1) == BiPoly.const(Fraction(1, 2))
        assert q.coeff(2) == BiPoly.const(Fraction(1, 6))

    def test_second_kind_bernoulli_quotient(self):
        log1p = series_log(Series.constant(ONE, N) + Series.t(N))
        q = series_div(Series.t(N), log1p)
        assert egf_coeff(q, 0) == ONE
        assert egf_coeff(q, 1) == BiPoly.const(Fraction(1, 2))
        assert egf_coeff(q, 2) == BiPoly.const(Fraction(-1, 6))

    def test_self_division(self):
        f = exp_series(8)
        q = series_div(f, f)
        assert q == Series.constant(ONE, 8)

    @given(rational_series(8), rational_series(8))
    @settings(max_examples=40, deadline=None)
    def test_div_mul_roundtrip(self, f, g):
        v = g.valuation()
        if v > g.order or not g.coeff(v).is_constant():
            return
        if f.valuation() < v:
            return
        q = series_div(f, g)
        back = q * g.truncate(q.order)
        for n in range(min(back.order, q.order) + 1):
            assert back.coeff(n) == f.coeff(n)

    def test_valuation_mismatch(self):
        with pytest.raises(ValuationMismatch):
            series_div(Series.constant(ONE, 4), Series.t(4))

    def test_non_unit_leading(self):
        g = Series([ZERO, LAM, ZERO, ZERO])
        with pytest.raises(NonUnitLeadingCoefficient):
            series_div(Series.t(3), g)


class TestComposition:
    def test_exp_log_inverse_pair(self):
        expm1 = exp_series(N) - Series.constant(ONE, N)
        log1p = series_log(Series.constant(ONE, N) + Series.t(N))
        assert series_compose(expm1, log1p) == Series.t(N)

    def test_harmonic_weights(self):
        # sum u^n/n composed with t is -log(1 - t)
        outer = Series([ZERO] + [Fraction(1, n) for n in range(1, 9)])
        composed = series_compose(outer, Series.t(8))
        direct = -series_log(Series.constant(ONE, 8) - Series.t(8))
        assert composed == direct

    def test_square_of_shift(self):
        outer = Series([ZERO, ZERO, ONE, ZERO, ZERO])
        inner = Series.t(4) + Series([ZERO, ZERO, ONE, ZERO, ZERO])
        out = series_compose(outer, inner)
        assert [out.coeff(i) for i in range(5)] == [
            ZERO,
            ZERO,
            ONE,
            BiPoly.const(2),
            ONE,
        ]

    def test_nonzero_constant_rejected(self):
        with pytest.raises(NonzeroConstantTerm):
            series_compose(exp_series(4), Series.constant(ONE, 4))


class TestExpLog:
    def test_log_of_one_plus_t(self):
        f = series_log(Series.constant(ONE, 6) + Series.t(6))
        assert [f.coeff(n) for n in range(4)] == [
            ZERO,
            ONE,
            BiPoly.const(Fraction(-1, 2)),
            BiPoly.const(Fraction(1, 3)),
        ]

    def test_exp_coefficients(self):
        f = exp_series(6)
        assert f.coeff(5) == BiPoly.const(Fraction(1, 120))

    def test_lambda_log_coefficients(self):
        f = lambda_log(5)
        assert f.coeff(1) == ONE
        assert f.coeff(2) == -LAM / 2
        assert f.coeff(3) == LAM * LAM / 3

    def test_lambda_log_specializes_to_t(self):
        f = lambda_log(8)
        for n in range(9):
            expected = ONE if n == 1 else ZERO
            assert f.coeff(n).eval_at(lam=0) == expected

    @given(rational_series(8))
    @settings(max_examples=40, deadline=None)
    def test_exp_log_roundtrip(self, f):
        # force a unit constant term
        unit = Series([ONE] + list(f.coeffs[1:]))
        assert series_exp(series_log(unit)) == unit

    def test_bad_constant_terms(self):
        with pytest.raises(BadConstantTerm):
            series_log(Series.t(4))
        with pytest.raises(BadConstantTerm):
            series_exp(Series.constant(ONE, 4))


class TestCalculus:
    def test_integrate_one(self):
        assert series_integrate(Series.constant(ONE, 3)) == Series([ZERO, ONE, ZERO, ZERO, ZERO])

    def test_integrate_linear(self):
        f = Series.constant(ONE, 2) - Series.t(2) * Fraction(1, 2)
        out = series_integrate(f)
        assert out.coeff(1) == ONE
        assert out.coeff(2) == BiPoly.const(Fraction(-1, 4))

    def test_log_of_order_zero(self):
        assert series_log(Series.constant(ONE, 0)) == Series([ZERO])

    @given(rational_series(8))
    @settings(max_examples=40, deadline=None)
    def test_derivative_inverts_integrate(self, f):
        integral = series_integrate(f)
        # the termwise d/dt of the integral
        assert Series([c * n for n, c in enumerate(integral.coeffs) if n]) == f


class TestDegeneratePow:
    def test_symbolic_base(self):
        f = degenerate_pow(X, 4)
        assert egf_coeff(f, 2) == X * X - LAM * X

    def test_unit_base(self):
        f = degenerate_pow(ONE, 4)
        assert egf_coeff(f, 2) == ONE - LAM

    def test_empty_product(self):
        f = degenerate_pow(X + LAM, 4)
        assert egf_coeff(f, 0) == ONE

    def test_matches_falling_product(self):
        f = degenerate_pow(X, 8)
        for n in range(9):
            assert egf_coeff(f, n) == falling_product(X, n)

    def test_lambda_zero_is_exponential(self):
        # (1 + Lt)^(x/L) at L = 0, and built at lam = 0, is exp(xt) = sum x^n t^n / n!
        symbolic = degenerate_pow(X, N)
        at_zero = degenerate_pow(X, N, 0)
        for n in range(N + 1):
            expected = X**n / factorial(n)
            assert symbolic.coeff(n).eval_at(lam=0) == expected
            assert at_zero.coeff(n) == expected


class TestEgfCoeff:
    def test_exponential(self):
        assert egf_coeff(exp_series(6), 5) == ONE

    def test_bernoulli_two(self):
        f = series_div(Series.t(6), exp_series(6) - Series.constant(ONE, 6))
        assert egf_coeff(f, 2) == BiPoly.const(Fraction(1, 6))

    def test_order_zero(self):
        f = Series.constant(LAM, 3)
        assert egf_coeff(f, 0) == LAM

    def test_order_exceeded(self):
        with pytest.raises(OrderExceeded):
            egf_coeff(Series.constant(ONE, 2), 3)

from fractions import Fraction

import pytest

from fdpb import families, fps
from fdpb.ring import LAM, ONE, X, ZERO, BiPoly
from fdpb.families import (
    RouteMismatch,
    bernoulli_poly,
    bernoulli_value,
    carlitz_beta,
    carlitz_value,
    classical_poly_bernoulli,
    daehee_type_b,
    daehee_value,
    fdpb_closed,
    fdpb_gf,
    fdpb_iterated_integral,
    fdpb_poly,
    fdpb_value,
    fdpb_x_derivative,
    integral_unit_interval,
    poly_bernoulli_value,
)
from fdpb.identities import _negative_route
from fdpb.sequences import bernoulli, stirling2

HALF = Fraction(1, 2)
K_RANGE = range(-3, 4)


def two_pow(k):
    return BiPoly.const(Fraction(2) ** (-k))


class TestCarlitz:
    def test_index_zero(self):
        assert carlitz_beta(0) == ONE

    def test_index_one_number(self):
        assert carlitz_beta(1) == (LAM - ONE) / 2

    def test_index_one_at_one(self):
        assert carlitz_beta(1, 1) == (LAM + ONE) / 2

    def test_delta_identity(self):
        for n in range(1, 13):
            delta = ONE if n == 1 else ZERO
            assert carlitz_beta(n, 1) - carlitz_beta(n) == delta

    def test_lambda_zero_gives_bernoulli(self):
        for n in range(13):
            assert carlitz_beta(n).eval_at(lam=0) == BiPoly.const(bernoulli(n))
            assert carlitz_beta(n, X).eval_at(lam=0) == bernoulli_poly(n)


class TestDaehee:
    def test_index_zero(self):
        assert daehee_type_b(0) == ONE

    def test_index_one_polynomial(self):
        assert daehee_type_b(1, X) == X - HALF

    def test_index_one_at_minus_lambda(self):
        assert daehee_type_b(1, -LAM) == -LAM - BiPoly.const(HALF)

    def test_lambda_zero_gives_bernoulli(self):
        for n in range(13):
            assert daehee_type_b(n, X).eval_at(lam=0) == bernoulli_poly(n)


class TestClosedSums:
    @pytest.mark.parametrize(
        "arg", (0, X, HALF, -1, X + LAM), ids=("0", "x", "1/2", "-1", "x+L")
    )
    def test_match_series(self, arg):
        # the CLI's routes for the k-free families against their series
        for n in range(21):
            assert carlitz_value(n, arg) == carlitz_beta(n, arg), n
            assert daehee_value(n, arg) == daehee_type_b(n, arg), n
            assert bernoulli_value(n, arg) == bernoulli_poly(n, arg), n

    def test_values_do_not_depend_on_call_order(self):
        # a Kaneko row grown one n at a time is rescaled to each larger
        # denominator; it must give the values of a row built at once
        def take(ns):
            families._KANEKO.clear()
            fdpb_closed.cache_clear()
            return {
                n: (fdpb_closed(n, 2), poly_bernoulli_value(n, -2, X), carlitz_value(n))
                for n in ns
            }

        assert take(range(25)) == take(range(24, -1, -1))

    def test_first_values(self):
        assert carlitz_value(1) == (LAM - ONE) / 2
        assert daehee_value(1, X) == X - HALF
        assert bernoulli_value(2, X) == X * X - X + BiPoly.const(Fraction(1, 6))

    def test_equal_values_by_two_routes_hash_equal(self):
        # the hash is kept per instance, and an equal value built by another
        # route must find the first in a memo
        for closed, series in (
            (fdpb_poly(12, 2), fdpb_gf(12, 2, X)),
            (carlitz_value(9, X), carlitz_beta(9, X)),
        ):
            assert closed is not series
            assert hash(closed) == hash(series) == hash(closed)
            assert {closed: True}[series]


class TestClassicalPolyBernoulli:
    def test_index_zero(self):
        for k in K_RANGE:
            assert classical_poly_bernoulli(0, k) == ONE

    def test_index_one_closed_form(self):
        for k in K_RANGE:
            assert classical_poly_bernoulli(1, k) == two_pow(k)

    def test_k_one_is_shifted_bernoulli(self):
        for n in range(13):
            shifted = bernoulli_poly(n).subst_x(X + ONE)
            assert classical_poly_bernoulli(n, 1, X) == shifted

    def test_lambda_free(self):
        for n in range(8):
            assert classical_poly_bernoulli(n, 2, X).is_lambda_free()

    @pytest.mark.parametrize(
        "arg", (0, X, HALF, -1, X + LAM), ids=("0", "x", "1/2", "-1", "x+L")
    )
    def test_kaneko_route_matches_series(self, arg):
        # the CLI's route, sum_l C(n, l) B_l^(k) x^(n-l), against the series
        for k in K_RANGE:
            for n in range(31):
                expected = classical_poly_bernoulli(n, k, arg)
                assert poly_bernoulli_value(n, k, arg) == expected, (n, k)


class TestFdpbNumbers:
    def test_index_zero(self):
        for k in K_RANGE:
            assert fdpb_gf(0, k) == ONE
            assert fdpb_closed(0, k) == ONE

    def test_index_one_is_power_of_two(self):
        for k in K_RANGE:
            assert fdpb_closed(1, k) == two_pow(k)
            assert fdpb_gf(1, k) == two_pow(k)

    def test_worked_value_n2_k1(self):
        expected = BiPoly.const(Fraction(1, 6)) - LAM / 2
        assert fdpb_closed(2, 1) == expected
        assert fdpb_gf(2, 1) == expected

    def test_dual_route_equality(self):
        for k in K_RANGE:
            for n in range(13):
                assert fdpb_gf(n, k) == fdpb_closed(n, k)

    def test_lambda_zero_specialization(self):
        for k in K_RANGE:
            for n in range(13):
                assert fdpb_closed(n, k).eval_at(lam=0) == classical_poly_bernoulli(n, k)


class TestNegativeClosed:
    # the S2 route of THM6 and the closed sum at negated index
    def test_index_zero_and_one(self):
        for k in K_RANGE:
            assert fdpb_closed(0, -k) == ONE
            assert fdpb_closed(1, -k) == BiPoly.const(Fraction(2) ** k)
        for k in range(4):
            assert _negative_route(0, k) == ONE
            assert _negative_route(1, k) == X + 2**k

    def test_matches_negated_index(self):
        for k in range(6):
            for n in range(13):
                assert _negative_route(n, k) == fdpb_poly(n, -k)

    def test_lambda_zero_single_sum(self):
        from math import factorial

        for k in K_RANGE:
            for n in range(10):
                expected = sum(
                    (
                        Fraction((-1) ** (j + n) * factorial(j) * stirling2(n, j))
                        * Fraction(j + 1) ** k
                    )
                    for j in range(n + 1)
                )
                assert fdpb_closed(n, -k).eval_at(lam=0) == BiPoly.const(expected)


class TestFdpbPolynomials:
    def test_monic_of_exact_degree(self):
        for k in (-2, 1, 3):
            for n in range(13):
                poly = fdpb_poly(n, k)
                assert poly.x_degree() == n
                assert poly.x_coeff(n) == ONE

    def test_expansion_matches_generating_function(self):
        for k in (-2, 1, 2):
            for n in range(9):
                assert fdpb_poly(n, k) == fdpb_gf(n, k, X)

    def test_value_dispatch(self):
        assert fdpb_value(2, 1) == fdpb_closed(2, 1)
        assert fdpb_value(2, 1, X) == fdpb_poly(2, 1)
        assert fdpb_value(2, 1, 1) == fdpb_poly(2, 1).eval_at(x=1)


class TestIteratedIntegral:
    def test_k2_first_coefficients(self):
        series = fdpb_iterated_integral(2, 6)
        assert fps.egf_coeff(series, 0) == ONE
        assert fps.egf_coeff(series, 1) == BiPoly.const(Fraction(1, 4))

    def test_k2_matches_thm3_sum(self):
        # the n=1 value also equals (1/2) b_{1}(-L) + carlitz(1, 1)
        rhs = daehee_type_b(1, -LAM) / 2 + carlitz_beta(1, 1)
        assert rhs == BiPoly.const(Fraction(1, 4))

    def test_k3_matches_closed_route(self):
        series = fdpb_iterated_integral(3, 8)
        for n in range(9):
            assert fps.egf_coeff(series, n) == fdpb_closed(n, 3)

    def test_requires_k_at_least_two(self):
        with pytest.raises(ValueError):
            fdpb_iterated_integral(1, 4)


class TestXDerivative:
    def test_degree_zero_and_one(self):
        assert fdpb_x_derivative(0, 2) == ZERO
        assert fdpb_x_derivative(1, 2) == ONE

    def test_worked_value_n2_k1(self):
        assert fdpb_x_derivative(2, 1) == 2 * X - LAM + ONE

    def test_matches_formal_derivative(self):
        for k in (-1, 1, 2):
            for n in range(11):
                assert fdpb_x_derivative(n, k) == fdpb_poly(n, k).derivative_x()


class TestUnitIntervalIntegral:
    def test_index_zero(self):
        assert integral_unit_interval(0, 3) == ONE

    def test_index_one_closed_form(self):
        for k in K_RANGE:
            expected = BiPoly.const(Fraction(2) ** (-k) + HALF)
            assert integral_unit_interval(1, k) == expected

    def test_route_mismatch_carries_both_values(self):
        exc = RouteMismatch("boom", ONE, ZERO)
        assert exc.lhs == ONE and exc.rhs == ZERO

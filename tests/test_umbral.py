import random
from fractions import Fraction
from math import factorial

import pytest

from fdpb import fps
from fdpb.ring import LAM, ONE, X, ZERO, BiPoly
from fdpb.families import classical_poly_bernoulli, fdpb_poly
from fdpb.umbral import (
    BasisExpansion,
    eq60_connection,
    pair,
    sheffer_delta,
    sheffer_expand,
    sheffer_invertible,
)


def monomial_functional(k, order):
    # the series t^k, whose pairing picks out n! delta_{n,k}
    return fps.Series([ZERO] * k + [ONE] + [ZERO] * (order - k))


class TestPairing:
    def test_evaluation_functional(self):
        p = X * X * X - 2 * X + ONE
        f = fps.degenerate_pow(2, 6, 0)
        assert pair(f, p) == p.subst_x(2)

    def test_integration_functional_on_x(self):
        order = 4
        t = fps.Series.t(order + 1)
        f = fps.series_div(
            fps.series_exp(t) - fps.Series.constant(ONE, order + 1), t
        )
        assert pair(f, X) == BiPoly.const(Fraction(1, 2))

    def test_monomial_orthogonality(self):
        # <t^k | x^n> = n! delta_{n,k}
        for k in range(5):
            f = monomial_functional(k, 6)
            for n in range(5):
                expected = BiPoly.const(factorial(n)) if n == k else ZERO
                assert pair(f, X ** n) == expected

    def test_order_must_cover_degree(self):
        with pytest.raises(fps.OrderExceeded):
            pair(fps.Series.constant(ONE, 1), X * X * X)


class TestShefferOrthogonality:
    def test_pairing_diagonal(self):
        # <g f^m | beta_l> = l! delta_{l,m}, with g f^m built here as a plain product
        f = sheffer_delta(8)
        for k in (-2, -1, 0, 1, 2):
            functional = sheffer_invertible(k, 9)  # order 8
            for m in range(9):
                if m:
                    functional = functional * f
                for l in range(9):
                    got = pair(functional, fdpb_poly(l, k))
                    expected = BiPoly.const(factorial(l)) if l == m else ZERO
                    assert got == expected


class TestShefferExpand:
    def test_basis_polynomial_is_delta(self):
        for l in range(6):
            expansion = sheffer_expand(fdpb_poly(l, 2), 2)
            for m, a in enumerate(expansion.coefficients):
                assert a == (ONE if m == l else ZERO)

    def test_constant(self):
        expansion = sheffer_expand(ONE, 1)
        assert expansion.coefficients == (ONE,)

    def test_classical_target_gives_stirling_weights(self):
        from fdpb.sequences import stirling2

        for k in (-1, 1, 2):
            for n in range(7):
                expansion = sheffer_expand(classical_poly_bernoulli(n, k, X), k)
                for m, a in enumerate(expansion.coefficients):
                    assert a == BiPoly({(n - m, 0): stirling2(n, m)})

    def test_reconstruction_of_random_polynomials(self):
        rng = random.Random(20260823)
        for trial in range(6):
            degree = rng.randint(0, 8)
            p = ZERO
            for j in range(degree + 1):
                p = p + BiPoly({(0, j): Fraction(rng.randint(-9, 9), rng.randint(1, 5))})
            p = p + X ** degree  # keep the degree honest
            k = rng.choice([-2, -1, 1, 2])
            expansion = sheffer_expand(p, k)
            assert expansion.reconstruct() == p

    def test_serialization(self):
        expansion = sheffer_expand(X, 1)
        payload = expansion.to_dict()
        assert payload["degree"] == 1
        assert payload["coefficients"] == ["-1/2", "1"]


class TestConnectionFormula:
    def test_index_one(self):
        for k in (-2, 1, 3):
            assert eq60_connection(1, k) == classical_poly_bernoulli(1, k, X)

    def test_worked_value_n2_k1(self):
        rhs = eq60_connection(2, 1)
        assert rhs == X * X + (2 * X - ONE) / 2 + BiPoly.const(Fraction(2, 3))
        assert rhs.is_lambda_free()

    def test_lambda_cancellation(self):
        for k in (-2, -1, 0, 1, 2):
            for n in range(11):
                rhs = eq60_connection(n, k)
                assert rhs.is_lambda_free()
                assert rhs == classical_poly_bernoulli(n, k, X)

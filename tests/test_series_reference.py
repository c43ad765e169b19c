"""The series kernels against the power-sum loops they replaced.

``series_reference`` keeps the O(N)-product loops that ``fdpb.fps``,
``fdpb.families`` and ``fdpb.sequences`` used before exp and log moved
to coefficient recurrences and composition to baby steps and giant
steps.  On random series with bivariate coefficients every kernel must
give the same series.  Orders run over 0..24; the orders where N + 1 is
a perfect square (0, 3, 8, 15, 24) fill their last block exactly.  The
polylogarithm quotient Li_k(z)/z of ``fdpb.families``, built from the
differential equation of z = 1 - (1 + lam t)^(-1/lam), is compared with
the power sum in z at lam = L, 0, 1/2, -2/3 and a random single term,
and for the families' own lam = L and lam = 0 at every order 0..32; a
lam of two terms is a ValueError.  The table of n!/m! [t^n] z^m that every
quotient reads is compared, column by column, with the powers of z formed
by series products, and at lam = 0 with (-1)^(n-m) S2(n, m).
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import series_reference as ref
from fdpb import families, fps, sequences
from fdpb.fps import Series
from fdpb.ring import LAM, ONE, ZERO, BiPoly, grow, sum_of_products

ORDERS = range(25)
PERFECT_SQUARE_ORDERS = (0, 3, 8, 15, 24)
KS = range(-3, 4)

coefficients = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)
bipolys = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)), coefficients, max_size=3
).map(BiPoly)
single_terms = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)), coefficients, max_size=1
).map(BiPoly)
FIXED_LAMBDAS = (LAM, ZERO, BiPoly.const(Fraction(1, 2)), BiPoly.const(Fraction(-2, 3)))
orders = st.one_of(st.sampled_from(PERFECT_SQUARE_ORDERS), st.sampled_from(ORDERS))


def series(order, constant=None):
    """Series of the given order; ``constant`` fixes the t^0 coefficient."""
    coeffs = st.lists(bipolys, min_size=order + 1, max_size=order + 1)
    if constant is not None:
        coeffs = coeffs.map(lambda c: [constant, *c[1:]])
    return coeffs.map(Series)


@pytest.mark.parametrize("order", ORDERS)
class TestKernels:
    @given(data=st.data())
    @settings(max_examples=2, deadline=None)
    def test_exp(self, order, data):
        f = data.draw(series(order, ZERO))
        assert fps.series_exp(f) == ref.series_exp(f)

    @given(data=st.data())
    @settings(max_examples=2, deadline=None)
    def test_log(self, order, data):
        f = data.draw(series(order, ONE))
        assert fps.series_log(f) == ref.series_log(f)

    @given(data=st.data())
    @settings(max_examples=3, deadline=None)
    def test_compose(self, order, data):
        # either series may run longer; the result keeps the shared order
        outer = data.draw(series(order + data.draw(st.integers(0, 2))))
        inner = data.draw(series(order + data.draw(st.integers(0, 1)), ZERO))
        composed = fps.series_compose(outer, inner)
        assert composed.order == min(outer.order, inner.order)
        assert composed == ref.series_compose(outer, inner)


@pytest.mark.parametrize("k", KS)
class TestPolylogs:
    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_polylog_over_z(self, k, data):
        # every power of a rational lam has the key of 1, so the numerators
        # there must be summed, not overwritten
        order = data.draw(orders)
        for lam in (*FIXED_LAMBDAS, data.draw(single_terms)):
            z = ref.degenerate_argument(lam, order)
            assert families._polylog_over_z(k, lam, order) == ref.polylog_over_z(k, z), lam

    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_polylog_series(self, k, data):
        inner = data.draw(series(data.draw(orders), ZERO))
        assert sequences.polylog_series(k, inner) == ref.polylog_series(k, inner)

    def test_generating_function_arguments(self, k):
        # the two arguments the families use: 1 - e^(-t) and 1 - (1+Lt)^(-1/L);
        # a power sum truncated to order N is the power sum at order N
        order = 32
        one = Series.constant(ONE, order)
        for lam, z in (
            (ZERO, one - fps.degenerate_pow(-1, order, 0)),
            (LAM, one - fps.degenerate_pow(-1, order)),
        ):
            expected = ref.polylog_over_z(k, z)
            for n in range(order + 1):
                assert families._polylog_over_z(k, lam, n) == expected.truncate(n), n
            z = z.truncate(24)  # the composition's orders are covered to 24
            assert sequences.polylog_series(k, z) == ref.polylog_series(k, z)


def test_polylog_over_z_needs_a_single_term():
    with pytest.raises(ValueError, match="single term"):
        families._polylog_over_z(2, LAM + 1, 4)


class TestZTable:
    """Column n of families._Z_TABLE holds u_m(n) = n!/m! [t^n] z^m, m = 0..n."""

    @staticmethod
    def check_columns(lam, order):
        grow(families._Z_TABLE, order, families._z_column)
        z = ref.degenerate_argument(lam, order)
        power = Series.constant(ONE, order)  # z^m
        for m in range(order + 1):
            assert all(power.coeff(n).is_zero() for n in range(m))
            for n in range(m, order + 1):
                u = families._Z_TABLE[n][m]
                assert len(u) == n - m + 1  # a polynomial of degree n - m in lam
                value = sum_of_products((BiPoly.const(c), lam**j) for j, c in enumerate(u))
                assert value == power.coeff(n) * Fraction(factorial(n), factorial(m)), (n, m)
            power = power * z

    @pytest.mark.parametrize("lam", [LAM, ZERO, BiPoly.const(Fraction(1, 2))], ids=str)
    def test_columns_are_the_powers_of_z(self, lam):
        self.check_columns(lam, 24)

    @given(lam=bipolys, order=orders)
    @settings(max_examples=10, deadline=None)
    def test_columns_at_a_drawn_lambda(self, lam, order):
        self.check_columns(lam, order)

    def test_lambda_zero_gives_signed_stirling2(self):
        grow(families._Z_TABLE, 32, families._z_column)
        for n, column in enumerate(families._Z_TABLE[:33]):
            assert [u[0] for u in column] == [
                (-1) ** (n - m) * sequences.stirling2(n, m) for m in range(n + 1)
            ]

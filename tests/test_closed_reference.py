"""The integer closed-sum route against the scalar ``Fraction`` loops.

``closed_reference`` keeps the double sum, the term-by-term polynomial
expansion and the O(n^4) derivative that ``fdpb.families`` used before
the Kaneko weight B_l^(k) was memoised in integers; the polynomial has
since moved to Kaneko's polynomials B_m^(k)(x), so the falling-factorial
expansion now checks a different route.  Every value must be the same
polynomial.
"""

import pytest

import closed_reference as ref
from fdpb import families as fam

K_RANGE = range(-4, 5)


@pytest.mark.parametrize("k", K_RANGE)
def test_closed_sum_matches_fraction_double_sum(k):
    for n in range(41):
        assert fam.fdpb_closed(n, k) == ref.fdpb_closed(n, k), n


@pytest.mark.parametrize("k", K_RANGE)
def test_polynomial_matches_termwise_expansion(k):
    for n in range(31):
        assert fam.fdpb_poly(n, k) == ref.fdpb_poly(n, k), n


@pytest.mark.parametrize("k", (-3, 0, 2, 4))
def test_x_derivative_matches_omit_one_products(k):
    for n in range(11):
        assert fam.fdpb_x_derivative(n, k) == ref.fdpb_x_derivative(n, k), n


def test_kaneko_weight_denominator():
    # B_3^(2) = -1/24 and B_3^(-2) = 46 in Kaneko's table; the first is
    # stored over lcm(1..4)^2 = 144, the second is an integer
    assert fam._kaneko(3, 2) == (-6, 144)
    assert fam._kaneko(3, -2) == (46, 1)

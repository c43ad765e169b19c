"""The integer closed-sum route against the scalar ``Fraction`` loops.

``closed_reference`` keeps the double sum, the term-by-term polynomial
expansion and the O(n^4) derivative that ``fdpb.families`` used before
the Kaneko weight B_l^(k) was memoised in integers; the polynomial has
since moved to Kaneko's polynomials B_m^(k)(x), so the falling-factorial
expansion now checks a different route.  Every value must be the same
polynomial, and every Kaneko row the same integers over the same
denominator as the alternating sum over surjection numbers.
"""

from fractions import Fraction
from math import lcm

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
    # B_3^(2) = -1/24 and B_3^(-2) = 46 in Kaneko's table; a row for k > 0
    # is kept over lcm(1..N+1)^k, N its last index, one for k <= 0 in integers
    nums, den = fam._kaneko_row(2, 3)
    assert den == lcm(*range(1, len(nums) + 1)) ** 2
    assert Fraction(nums[3], den) == Fraction(-1, 24)
    nums, den = fam._kaneko_row(-2, 3)
    assert (nums[3], den) == (46, 1)


@pytest.mark.parametrize("k", K_RANGE)
def test_kaneko_row_matches_surjection_sum_cold(k):
    for n in (0, 1, 5, 57, 120):
        fam._KANEKO.clear()
        assert fam._kaneko_row(k, n) == ref.kaneko_row(k, n), n


@pytest.mark.parametrize("k", K_RANGE)
def test_kaneko_row_matches_surjection_sum_grown(k):
    # a row asked for in these uneven steps is built anew over
    # lcm(1..N+1)^k, which grows at every step but 10 -> 11
    fam._KANEKO.clear()
    for n in (3, 10, 11, 40, 300):
        assert fam._kaneko_row(k, n) == ref.kaneko_row(k, n), n

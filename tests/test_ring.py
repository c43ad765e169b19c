import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdpb.ring import (
    LAM,
    ONE,
    X,
    ZERO,
    BiPoly,
    _key,
    _term_powers,
    canonical_string,
    falling_product,
    parse_poly,
)


def small_rationals():
    return st.builds(
        Fraction,
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=1, max_value=4),
    )


def bipolys(max_terms=5, max_deg=3):
    term = st.tuples(
        st.tuples(
            st.integers(min_value=0, max_value=max_deg),
            st.integers(min_value=0, max_value=max_deg),
        ),
        small_rationals(),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda items: BiPoly({key: c for key, c in items})
    )


class TestRingOps:
    def test_difference_of_squares(self):
        assert (X + LAM) * (X - LAM) == X * X - LAM * LAM

    def test_additive_identity(self):
        p = X * X - LAM * X + BiPoly.const(Fraction(1, 6))
        assert p + ZERO == p

    def test_two_factor_falling(self):
        # (x - 0L)(x - 1L) = x^2 - Lx
        assert X * (X - LAM) == X * X - LAM * X
        assert falling_product(X, 2) == X * X - LAM * X

    @given(bipolys(), bipolys(), bipolys())
    @settings(max_examples=60, deadline=None)
    def test_distributive_associative(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @given(bipolys(), bipolys())
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    def test_degree_adds_on_product(self):
        a = X * X + LAM
        b = LAM * LAM * X
        assert (a * b).x_degree() == a.x_degree() + b.x_degree()
        assert (a * b).lambda_degree() == 3


class TestEvalAt:
    def test_kill_lambda(self):
        p = X * X - LAM * X
        assert p.eval_at(lam=0) == X * X

    def test_carlitz_beta1_limit(self):
        # (L - 1)/2 at L = 0 is -1/2
        p = (LAM - ONE) / 2
        assert p.eval_at(lam=0) == BiPoly.const(Fraction(-1, 2))

    def test_lambda_one(self):
        p = BiPoly.const(Fraction(1, 6)) - LAM / 2
        assert p.eval_at(lam=1) == BiPoly.const(Fraction(-1, 3))

    def test_both_substitutions(self):
        p = X * X - LAM * X
        assert p.eval_at(lam=2).subst_x(3) == BiPoly.const(3)

    @given(bipolys(), bipolys(), small_rationals(), small_rationals())
    @settings(max_examples=40, deadline=None)
    def test_eval_commutes_with_ring_ops(self, a, b, lam, x):
        def at(p):
            return p.eval_at(lam=lam).subst_x(x)

        assert at(a * b) == at(a) * at(b)
        assert (a + b).eval_at(lam=lam) == a.eval_at(lam=lam) + b.eval_at(lam=lam)


class TestTermPowers:
    """_term_powers: term^j = nums[j] * (the monomial keyed keys[j]) / den."""

    @pytest.mark.parametrize("term", [LAM, X, 2 * LAM * X, Fraction(-2, 3), 0], ids=str)
    def test_powers_of_a_single_term(self, term):
        keys, nums, den = _term_powers(term, 4)
        for j in range(5):
            assert BiPoly._make({keys[j]: nums[j]}, den) == (ONE * term) ** j, j

    def test_tables(self):
        assert _term_powers(LAM, 3) == ([0, 1, 2, 3], [1, 1, 1, 1], 1)
        assert _term_powers(X, 2) == ([0, _key(0, 1), _key(0, 2)], [1, 1, 1], 1)
        assert _term_powers(2 * LAM * X, 2) == ([0, _key(1, 1), _key(2, 2)], [1, 2, 4], 1)
        # p^j q^(top - j) over q^top for -2/3, and 0^0 = 1
        assert _term_powers(Fraction(-2, 3), 3) == ([0] * 4, [27, -18, 12, -8], 27)
        assert _term_powers(0, 3) == ([0] * 4, [1, 0, 0, 0], 1)

    def test_a_sum_of_terms_is_rejected(self):
        with pytest.raises(ValueError, match="single term"):
            _term_powers(LAM + 1, 2)


class TestCanonicalString:
    def test_zero(self):
        assert canonical_string(ZERO) == "0"

    def test_monic_with_lambda(self):
        assert canonical_string(X * X - LAM * X) == "x^2 + (-1)*L*x"

    def test_lambda_and_constant(self):
        p = BiPoly.const(Fraction(1, 6)) - LAM / 2
        assert canonical_string(p) == "(-1/2)*L + 1/6"

    def test_worked_polynomial(self):
        p = X * X - LAM * X / 2 + BiPoly.const(Fraction(1, 6))
        assert canonical_string(p) == "x^2 + (-1/2)*L*x + 1/6"

    @given(bipolys())
    @settings(max_examples=100, deadline=None)
    def test_parse_roundtrip(self, p):
        assert parse_poly(canonical_string(p)) == p

    @pytest.mark.parametrize("text", ["L^-1", "x^-2*L", "3*L*x^-1 + 1"])
    def test_parse_rejects_negative_exponents(self, text):
        with pytest.raises(ValueError):
            parse_poly(text)

    @pytest.mark.parametrize("terms", [{(-1, 0): 1}, {(0, -2): 3, (1, 1): 1}, {(-1, 0): 0}])
    def test_constructor_rejects_negative_exponents(self, terms):
        # a negative exponent would pack into a key of other degrees
        with pytest.raises(ValueError):
            BiPoly(terms)


class TestScalars:
    @pytest.mark.parametrize("value", [0.5, "1/2"])
    def test_constructor_rejects_non_rational_coefficients(self, value):
        with pytest.raises(TypeError, match=f"{value!r}"):
            BiPoly({(1, 0): 1, (0, 0): value})

    @pytest.mark.parametrize("value", [0.5, "2"])
    def test_division_by_non_rational_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            X / value

    @pytest.mark.parametrize("value", [0.5, "1/2", LAM], ids=str)
    def test_eval_at_non_rational_is_a_type_error(self, value):
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            X.eval_at(value)

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    def test_division_by_zero(self, zero):
        with pytest.raises(ZeroDivisionError):
            X / zero


class TestStructuralHelpers:
    def test_subst_x_shift(self):
        p = X * X
        assert p.subst_x(X + ONE) == X * X + 2 * X + ONE

    def test_integrate_x_unit(self):
        # integral of x^2 - Lx over [0, 1]
        p = X * X - LAM * X
        assert p.integrate_x_unit() == BiPoly.const(Fraction(1, 3)) - LAM / 2

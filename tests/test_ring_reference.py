"""The integer-numerator ring against the Fraction-dict reference model.

Each test builds the same polynomials in ``fdpb.ring`` and in
``ring_reference`` and requires every operation to give the same
coefficients, and the same rendered bytes.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ring_reference as ref
from fdpb.ring import (
    LAM, ONE, X, BiPoly, canonical_string, falling_product, parse_poly, sum_of_products,
)

coefficients = st.builds(
    Fraction,
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=1, max_value=12),
)
term_lists = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        coefficients,
    ),
    max_size=6,
)
nonzero_scalars = st.one_of(
    st.integers(-9, 9).filter(bool),
    coefficients.filter(bool),
)
scalars = st.one_of(st.integers(-9, 9), coefficients)


def both(items):
    """The same polynomial in the production ring and in the reference."""
    terms = dict(items)
    return BiPoly(terms), ref.BiPoly(terms)


def assert_canonical(p: BiPoly):
    assert p._den > 0
    assert all(c != 0 and isinstance(c, int) for c in p._num.values())
    assert gcd(p._den, *p._num.values()) == 1


def assert_same(p: BiPoly, r: ref.BiPoly):
    assert_canonical(p)
    assert p.terms == r.terms
    assert canonical_string(p) == ref.canonical_string(r)


polys = term_lists.map(both)


class TestArithmetic:
    @given(polys, polys)
    @settings(max_examples=150, deadline=None)
    def test_add_sub_mul(self, a, b):
        (pa, ra), (pb, rb) = a, b
        assert_same(pa, ra)
        assert_same(pa + pb, ra + rb)
        assert_same(pa - pb, ra - rb)
        assert_same(pa * pb, ra * rb)
        assert_same(-pa, -ra)

    @given(polys, scalars, nonzero_scalars)
    @settings(max_examples=100, deadline=None)
    def test_scalars(self, a, c, d):
        p, r = a
        assert_same(p * c, r * c)
        assert_same(c * p, c * r)
        assert_same(p / d, r / d)
        # a quotient by d = 1 shares p's numerators, and p must not change
        assert_same(p, r)
        assert_same(p + c, r + c)
        assert_same(c - p, c - r)

    @given(st.lists(st.tuples(polys, polys), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_sum_of_products(self, pairs):
        expected = ref.ZERO
        for (_, ra), (_, rb) in pairs:
            expected = expected + ra * rb
        assert_same(sum_of_products((pa, pb) for (pa, _), (pb, _) in pairs), expected)


class TestStructural:
    @given(polys, polys)
    @settings(max_examples=100, deadline=None)
    def test_subst_x(self, a, b):
        (pa, ra), (pb, rb) = a, b
        assert_same(pa.subst_x(pb), ra.subst_x(rb))
        assert_same(pa.subst_x(X + LAM), ra.subst_x(ref.X + ref.LAM))

    @given(polys, st.one_of(st.none(), scalars), st.one_of(st.none(), scalars))
    @settings(max_examples=100, deadline=None)
    def test_eval_at(self, a, lam, x):
        p, r = a
        if lam is not None:
            p = p.eval_at(lam=lam)
        if x is not None:
            p = p.subst_x(x)
        assert_same(p, r.eval_at(lam=lam, x=x))

    @given(polys)
    @settings(max_examples=100, deadline=None)
    def test_calculus_and_coefficients(self, a):
        p, r = a
        assert_same(p.derivative_x(), r.derivative_x())
        assert_same(p.integrate_x_unit(), r.integrate_x_unit())
        for d in range(5):
            assert_same(p.x_coeff(d), r.x_coeff(d))
            for l in range(5):
                assert p.coeff(l, d) == r.coeff(l, d)
        parts = p.x_coeffs()
        assert len(parts) == r.x_degree() + 1
        for d, part in enumerate(parts):
            assert_same(part, r.x_coeff(d))
        assert p.x_degree() == r.x_degree()
        assert p.lambda_degree() == r.lambda_degree()
        assert p.is_constant() == r.is_constant()
        if r.is_constant():
            assert p.constant() == r.constant()
        assert p.is_lambda_free() == r.is_lambda_free()
        assert len(p.items()) == len(r.items())
        assert dict(p.items()) == dict(r.items())

    @given(polys)
    @settings(max_examples=100, deadline=None)
    def test_parse_round_trip(self, a):
        p, r = a
        text = canonical_string(p)
        assert_same(parse_poly(text), ref.parse_poly(text))
        assert parse_poly(text) == p


class TestCanonicalForm:
    @pytest.mark.parametrize(
        "first, second",
        [
            (BiPoly({(0, 0): Fraction(2, 4)}), BiPoly.const(Fraction(1, 2))),
            (X / 2 + X / 2, X),
            ((X * 3 + LAM * 6) / 3, X + LAM * 2),
            (BiPoly({(1, 1): Fraction(4, 6), (0, 0): 0}), LAM * X * Fraction(2, 3)),
            (X * X - X * X, BiPoly()),
            (ONE * 7 / 7, ONE),
            # an integer factor cancels against the denominator first
            (X / 6 * 4, X * Fraction(2, 3)),
            (X / 6 * 3, X / 2),
            (X / 6 * -6, -X),
            (X / 6 * 0, BiPoly()),
        ],
    )
    def test_equal_values_by_different_routes(self, first, second):
        assert_canonical(first)
        assert_canonical(second)
        assert first == second
        assert hash(first) == hash(second)

    @given(polys, polys)
    @settings(max_examples=100, deadline=None)
    def test_equal_sums_share_hash(self, a, b):
        (pa, _), (pb, _) = a, b
        left = (pa + pb) * pb
        right = pa * pb + pb * pb
        assert left == right
        assert hash(left) == hash(right)


# the bases and lambdas of the falling-factorial table, each as the
# production value and its reference twin
TABLE_BASES = [
    (X, ref.X),
    (ONE, ref.ONE),
    (X + LAM, ref.X + ref.LAM),
    (X * 2 - Fraction(1, 3), ref.X * 2 - Fraction(1, 3)),
]
TABLE_LAMBDAS = [(LAM, ref.LAM), *((r, r) for r in (0, Fraction(1, 2), Fraction(-2, 3), 3))]


class TestFallingTable:
    """falling_product(mu, n, lam), the ring's one table of (mu|lam)_n and mu^n."""

    @pytest.mark.parametrize("mu, ref_mu", TABLE_BASES)
    @pytest.mark.parametrize("lam, ref_lam", TABLE_LAMBDAS)
    def test_rows_are_the_reference_products(self, mu, ref_mu, lam, ref_lam):
        expected = ref.ONE
        for n in range(9):
            assert_same(falling_product(mu, n, lam), expected)
            expected = expected * (ref_mu - ref_lam * n)

    @pytest.mark.parametrize("mu", [mu for mu, _ in TABLE_BASES])
    @pytest.mark.parametrize("lam", [lam for lam, _ in TABLE_LAMBDAS[1:]])
    def test_a_rational_lambda_is_the_symbolic_row_evaluated(self, mu, lam):
        # eval_at also substitutes lam for the L of x + L, so the base is
        # evaluated with it
        for n in range(9):
            assert falling_product(mu.eval_at(lam), n, lam) == falling_product(mu, n).eval_at(lam)

    @pytest.mark.parametrize("mu, ref_mu", TABLE_BASES)
    def test_lambda_zero_rows_are_the_reference_powers(self, mu, ref_mu):
        for n in range(9):
            assert_same(falling_product(mu, n, 0), ref_mu**n)
            assert_same(mu**n, ref_mu**n)

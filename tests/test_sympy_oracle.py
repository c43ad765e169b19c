"""The closed sums against sympy's series expansion of their generating
functions.

Every route inside fdpb shares ``ring.py`` and ``fps.py``, so a defect
there could pass both sides of an identity check.  Here sympy expands,
with symbolic L and x, the paper's
Li_k(1 - (1+Lt)^(-1/L)) / (1 - (1+Lt)^(-1/L)) (1+Lt)^(x/L), writing
Li_k(z)/z as the finite sum of z^m / (m+1)^k (z starts at t, so m <= N is
enough to order N), and Carlitz's t / ((1+Lt)^(1/L) - 1) (1+Lt)^(x/L) and
the Daehee-type (1/L) log(1+Lt) / ((1+Lt)^(1/L) - 1) (1+Lt)^(x/L).  The
classical Li_k(1 - e^(-t)) / (1 - e^(-t)) e^(xt) checks the Kaneko rows
alone, since ``fdpb_value`` at lambda = 0 reads no Stirling weight.  sympy
expands each factor to t^N and multiplies the factors as polynomials in t,
and each n! [t^n] is read back through ``parse_poly``.  The Stirling and
Bernoulli tables are compared with ``sympy.functions.combinatorial.numbers``.
sympy is a test-only dependency; the file is skipped without it.
"""

import pytest

from fdpb.families import carlitz_value, daehee_value, fdpb_poly, fdpb_value
from fdpb.ring import X, parse_poly
from fdpb.sequences import bernoulli, stirling1, stirling2

sympy = pytest.importorskip("sympy")

N = 4
L, x, t = sympy.symbols("L x t")


def _expanded(factor):
    """factor, a series in t, expanded to t^N as a polynomial in t."""
    return sympy.Poly(sympy.series(factor, t, 0, N + 1).removeO(), t)


def _rendered(expr) -> str:
    """expr, a polynomial in L and x, in the grammar parse_poly reads."""
    terms = sympy.Poly(expr, L, x).terms()
    return " + ".join(f"({c})*L^{i}*x^{j}" for (i, j), c in terms) or "0"


def _coefficients(series) -> list:
    """n! [t^n] of a polynomial in t for n = 0..N, each parsed into a BiPoly."""
    return [
        parse_poly(_rendered(sympy.expand(series.coeff_monomial(t**n) * sympy.factorial(n))))
        for n in range(N + 1)
    ]


def _polylog_over_z(z, k):
    """Li_k(z)/z = sum_m z^m / (m+1)^k; z starts at t, so m <= N is enough."""
    return sum(z**m * sympy.Rational(1, m + 1) ** k for m in range(N + 1))


@pytest.mark.parametrize("k", (-2, 2))
def test_generating_function_coefficients(k):
    z = _expanded(1 - (1 + L * t) ** (-1 / L))
    gf = _polylog_over_z(z, k) * _expanded((1 + L * t) ** (x / L))
    for n, coeff in enumerate(_coefficients(gf)):
        assert coeff == fdpb_poly(n, k), n


@pytest.mark.parametrize("k", (-2, 2))
def test_classical_generating_function_coefficients(k):
    z = _expanded(1 - sympy.exp(-t))
    gf = _polylog_over_z(z, k) * _expanded(sympy.exp(x * t))
    for n, coeff in enumerate(_coefficients(gf)):
        assert coeff == fdpb_value(n, k, X, 0), n


@pytest.mark.parametrize("family", ("carlitz", "daehee"))
def test_degenerate_bernoulli_coefficients(family):
    numerator = t if family == "carlitz" else sympy.log(1 + L * t) / L
    quotient = _expanded(numerator / ((1 + L * t) ** (1 / L) - 1))
    gf = quotient * _expanded((1 + L * t) ** (x / L))
    route = carlitz_value if family == "carlitz" else daehee_value
    for n, coeff in enumerate(_coefficients(gf)):
        assert coeff == route(n, X), n


def test_stirling_and_bernoulli_tables():
    from sympy.functions.combinatorial.numbers import bernoulli as sympy_bernoulli
    from sympy.functions.combinatorial.numbers import stirling

    for n in range(31):
        for m in range(n + 1):
            assert stirling1(n, m) == stirling(n, m, kind=1, signed=True), (n, m)
            assert stirling2(n, m) == stirling(n, m), (n, m)
        # sympy 1.14 takes B_1 = +1/2, fdpb B_1 = -1/2
        expected = -sympy_bernoulli(n) if n == 1 else sympy_bernoulli(n)
        assert bernoulli(n) == expected, n

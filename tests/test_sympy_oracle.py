"""The closed sums against sympy's series expansion of their generating
functions.

Every route inside fdpb shares ``ring.py`` and ``fps.py``, so a defect
there could pass both sides of an identity check.  Here sympy expands,
with symbolic L and x, the paper's
Li_k(1 - (1+Lt)^(-1/L)) / (1 - (1+Lt)^(-1/L)) (1+Lt)^(x/L), writing
Li_k(z)/z as the finite sum of z^m / (m+1)^k (z starts at t, so m <= N is
enough to order N), and Carlitz's t / ((1+Lt)^(1/L) - 1) (1+Lt)^(x/L) and
the Daehee-type (1/L) log(1+Lt) / ((1+Lt)^(1/L) - 1) (1+Lt)^(x/L).  Each
n! [t^n] is read back through ``parse_poly``.  sympy is a test-only
dependency; the file is skipped without it.
"""

import pytest

from fdpb.families import carlitz_value, daehee_value, fdpb_poly
from fdpb.ring import X, parse_poly

sympy = pytest.importorskip("sympy")

N = 4


def _rendered(expr, lam, x) -> str:
    """expr, a polynomial in L and x, in the grammar parse_poly reads."""
    terms = sympy.Poly(expr, lam, x).terms()
    return " + ".join(f"({c})*L^{i}*x^{j}" for (i, j), c in terms) or "0"


def _coefficients(gf, t, lam, x) -> list:
    """n! [t^n] gf for n = 0..N, each parsed into a BiPoly."""
    series = sympy.series(gf, t, 0, N + 1).removeO()
    return [
        parse_poly(_rendered(sympy.expand(series.coeff(t, n) * sympy.factorial(n)), lam, x))
        for n in range(N + 1)
    ]


@pytest.mark.parametrize("k", (-2, 2))
def test_generating_function_coefficients(k):
    lam, x, t = sympy.symbols("L x t")
    z = 1 - (1 + lam * t) ** (-1 / lam)
    polylog_over_z = sum(z**m / sympy.Integer(m + 1) ** k for m in range(N + 1))
    gf = polylog_over_z * (1 + lam * t) ** (x / lam)
    for n, coeff in enumerate(_coefficients(gf, t, lam, x)):
        assert coeff == fdpb_poly(n, k), n


@pytest.mark.parametrize("family", ("carlitz", "daehee"))
def test_degenerate_bernoulli_coefficients(family):
    lam, x, t = sympy.symbols("L x t")
    numerator = t if family == "carlitz" else sympy.log(1 + lam * t) / lam
    gf = numerator / ((1 + lam * t) ** (1 / lam) - 1) * (1 + lam * t) ** (x / lam)
    route = carlitz_value if family == "carlitz" else daehee_value
    for n, coeff in enumerate(_coefficients(gf, t, lam, x)):
        assert coeff == route(n, X), n

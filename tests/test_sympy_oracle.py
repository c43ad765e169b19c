"""The fdpb polynomials against sympy's series expansion of the paper's
generating function.

Every route inside fdpb shares ``ring.py`` and ``fps.py``, so a defect
there could pass both sides of an identity check.  Here sympy expands
Li_k(1 - (1+Lt)^(-1/L)) / (1 - (1+Lt)^(-1/L)) (1+Lt)^(x/L) with symbolic
L and x, writing Li_k(z)/z as the finite sum of z^m / (m+1)^k (z starts
at t, so m <= N is enough to order N), and n! [t^n] is read back through
``parse_poly``.  sympy is a test-only dependency; the file is skipped
without it.
"""

import pytest

from fdpb.families import fdpb_poly
from fdpb.ring import parse_poly

sympy = pytest.importorskip("sympy")

N = 4


def _rendered(expr, lam, x) -> str:
    """expr, a polynomial in L and x, in the grammar parse_poly reads."""
    terms = sympy.Poly(expr, lam, x).terms()
    return " + ".join(f"({c})*L^{i}*x^{j}" for (i, j), c in terms) or "0"


@pytest.mark.parametrize("k", (-2, 2))
def test_generating_function_coefficients(k):
    lam, x, t = sympy.symbols("L x t")
    z = 1 - (1 + lam * t) ** (-1 / lam)
    polylog_over_z = sum(z**m / sympy.Integer(m + 1) ** k for m in range(N + 1))
    gf = polylog_over_z * (1 + lam * t) ** (x / lam)
    series = sympy.series(gf, t, 0, N + 1).removeO()
    for n in range(N + 1):
        coeff = sympy.expand(series.coeff(t, n) * sympy.factorial(n))
        assert parse_poly(_rendered(coeff, lam, x)) == fdpb_poly(n, k), n

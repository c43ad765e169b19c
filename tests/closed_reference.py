"""Reference model of the fdpb closed-sum route: scalar ``Fraction`` loops.

These are the bodies ``fdpb.families`` used before the closed sum moved to
integer numerators with a memoised Kaneko weight B_l^(k), and before the
polynomial moved to Kaneko's polynomials B_m^(k)(x).  Each weight is
recomputed for every n, one ``Fraction`` term at a time, so they are slow
but plainly the paper's formulas; the tests compare the production routes
against them.  Only the finished numbers ``fdpb_closed(n, k)`` are
memoised, so that the term-by-term expansion reaches n = 30 in seconds.
``kaneko_row`` is the alternating sum over surjection numbers that built
the integer Kaneko rows before they moved to the Akiyama-Tanigawa diagonal.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from fdpb.ring import LAM, ONE, X, ZERO, BiPoly, falling_product
from fdpb.sequences import stirling1, stirling2


def kaneko_row(k: int, n: int) -> tuple[tuple[int, ...], int]:
    """B_0^(k) .. B_n^(k) as integer numerators over lcm(1..n+1)^k (1 for k <= 0).

    B_l^(k) = sum_m (-1)^(m+l) F_l(m) (m+1)^(-k), with the surjection
    numbers F_l(m) = m! S2(l, m) grown by F_l(m) = m (F_(l-1)(m) + F_(l-1)(m-1)).
    """
    den = lcm(*range(1, n + 2)) ** k if k > 0 else 1
    power = [den // (m + 1) ** k if k > 0 else (m + 1) ** -k for m in range(n + 1)]
    row, f = [], [1]
    for l in range(n + 1):
        if l:
            f = [0] + [m * (a + b) for m, (a, b) in enumerate(zip(f, f[1:] + [0]), 1)]
        row.append(sum((-1) ** (m + l) * fm * power[m] for m, fm in enumerate(f)))
    return tuple(row), den


@lru_cache(maxsize=None)
def fdpb_closed(n: int, k: int) -> BiPoly:
    """sum_l S1(n, l) L^(n-l) sum_m (-1)^(m+l) m! S2(l, m) (m+1)^(-k)."""
    out = ZERO
    for l in range(n + 1):
        s1 = stirling1(n, l)
        if s1 == 0:
            continue
        acc = Fraction(0)
        for m in range(l + 1):
            acc += (
                Fraction((-1) ** (m + l) * factorial(m) * stirling2(l, m))
                * Fraction(m + 1) ** (-k)
            )
        out = out + BiPoly({(n - l, 0): acc * s1})
    return out


def fdpb_poly(n: int, k: int) -> BiPoly:
    """sum_l C(n, l) beta_l (x|L)_(n-l), one term added at a time."""
    out = ZERO
    for l in range(n + 1):
        out = out + comb(n, l) * falling_product(X, n - l) * fdpb_closed(l, k)
    return out


def fdpb_x_derivative(n: int, k: int) -> BiPoly:
    """d/dx of fdpb_poly, each omit-one-factor product built from scratch."""
    out = ZERO
    for l in range(n + 1):
        d = n - l
        if d == 0:
            continue
        inner = ZERO
        for j in range(d):
            prod = ONE
            for i in range(d):
                if i != j:
                    prod = prod * (X - LAM * i)
            inner = inner + prod
        out = out + comb(n, l) * fdpb_closed(l, k) * inner
    return out

"""Reference model of the series kernels: the power-sum loops.

These are the bodies ``fdpb.fps``, ``fdpb.families`` and
``fdpb.sequences`` used before exp, log and composition moved to
coefficient recurrences and baby-step/giant-step composition, and the
polylogarithm quotients to the differential equation of their argument.  Each one
forms every power of its argument with a full series product, so they
are O(N) products and slow, but they are plainly the textbook power
series; the tests compare the production kernels against them.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from fdpb.fps import BadConstantTerm, NonzeroConstantTerm, Series
from fdpb.ring import ONE, ZERO, BiPoly


def series_compose(outer: Series, inner: Series) -> Series:
    """sum_m outer_m inner^m, one power at a time."""
    if not inner.coeff(0).is_zero():
        raise NonzeroConstantTerm("inner series must have zero constant term")
    n = min(outer.order, inner.order)
    inner = inner.truncate(n)
    out = Series.constant(outer.coeff(0), n)
    power = Series.constant(ONE, n)
    for m in range(1, n + 1):
        power = power * inner
        out = out + power * outer.coeff(m)
    return out


def series_log(f: Series) -> Series:
    """sum_{m>=1} (-1)^(m-1) (f - 1)^m / m."""
    if f.coeff(0) != ONE:
        raise BadConstantTerm("log needs constant term 1")
    n = f.order
    u = f - Series.constant(ONE, n)
    out = Series.constant(ZERO, n)
    power = Series.constant(ONE, n)
    for m in range(1, n + 1):
        power = power * u
        out = out + power * Fraction((-1) ** (m - 1), m)
    return out


def series_exp(f: Series) -> Series:
    """sum_{m>=0} f^m / m!."""
    if not f.coeff(0).is_zero():
        raise BadConstantTerm("exp needs constant term 0")
    n = f.order
    out = Series.constant(ONE, n)
    power = Series.constant(ONE, n)
    for m in range(1, n + 1):
        power = power * f
        out = out + power * Fraction(1, factorial(m))
    return out


def polylog_over_z(k: int, z: Series) -> Series:
    """Li_k(z)/z = sum_{m>=0} z^m / (m+1)^k."""
    order = z.order
    out = Series.constant(ZERO, order)
    power = Series.constant(ONE, order)
    for m in range(order + 1):
        out = out + power * (Fraction(m + 1) ** (-k))
        power = power * z
    return out


def degenerate_argument(lam: BiPoly, order: int) -> Series:
    """z = 1 - (1 + lam t)^(-1/lam), from the binomial coefficients
    (-1)(-1 - lam) ... (-1 - (n-1) lam) / n! of the power."""
    coeffs = [ZERO]
    acc = ONE
    for n in range(1, order + 1):
        acc = acc * (-ONE - lam * (n - 1))
        coeffs.append(-acc / factorial(n))
    return Series(coeffs)


def polylog_series(k: int, inner: Series) -> Series:
    """Li_k(inner) = sum_{n>=1} inner^n / n^k."""
    if not inner.coeff(0).is_zero():
        raise NonzeroConstantTerm("polylog needs an inner series with valuation >= 1")
    order = inner.order
    out = Series.constant(ZERO, order)
    power = Series.constant(ONE, order)
    for n in range(1, order + 1):
        power = power * inner
        out = out + power * Fraction(n) ** (-k)
    return out

"""Classical auxiliary sequences.

Stirling numbers of both kinds (signed first kind, so that (x)_n =
sum_l S1(n, l) x^l), as tables that ring.grow extends in a loop, Carlitz's
quotient, Bernoulli numbers (read from it at lam = 0) and those of the second
kind b_n = sum_m S1(n, m)/(m + 1), falling factorials and the polylogarithm.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import fps
from .ring import ONE, ZERO, BiPoly, falling_product, grow


class IndexOutOfRange(ValueError):
    """An index outside a sequence's domain, such as n < 0."""


_STIRLING1: list[tuple[int, ...]] = [(1,)]
_STIRLING2: list[tuple[int, ...]] = [(1,)]


def _stirling1_step(prev: tuple[int, ...], n: int) -> tuple[int, ...]:
    # (x)_n = (x - (n-1)) (x)_(n-1)  =>  S1(n, l) = S1(n-1, l-1) - (n-1) S1(n-1, l)
    return (0, *(a - (n - 1) * b for a, b in zip(prev, prev[1:] + (0,))))


def _stirling2_step(prev: tuple[int, ...], n: int) -> tuple[int, ...]:
    # S2(n, l) = S2(n-1, l-1) + l S2(n-1, l)
    return (0, *(a + l * b for l, (a, b) in enumerate(zip(prev, prev[1:] + (0,)), 1)))


def stirling1_row(n: int) -> tuple[int, ...]:
    """S1(n, l) for l = 0..n, for sums that sweep a whole row."""
    return grow(_STIRLING1, n, _stirling1_step)


def stirling1(n: int, l: int) -> int:
    """Signed Stirling number of the first kind."""
    if not 0 <= l <= n:
        raise IndexOutOfRange(f"stirling1 needs 0 <= l <= n, got ({n}, {l})")
    return stirling1_row(n)[l]


def stirling2(n: int, l: int) -> int:
    """Stirling number of the second kind."""
    if not 0 <= l <= n:
        raise IndexOutOfRange(f"stirling2 needs 0 <= l <= n, got ({n}, {l})")
    return grow(_STIRLING2, n, _stirling2_step)[l]


def degenerate_expm1(lam: BiPoly, order: int) -> fps.Series:
    """The series (1 + lam t)^(1/lam) - 1, which is e^t - 1 at lam = 0."""
    return fps.degenerate_pow(ONE, order, lam) - fps.Series.constant(ONE, order)


def carlitz_quotient(lam: BiPoly, order: int) -> fps.Series:
    """Carlitz's t / ((1 + lam t)^(1/lam) - 1), which is t / (e^t - 1) at lam = 0."""
    return fps.series_div(fps.Series.t(order), degenerate_expm1(lam, order))


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention), from Carlitz's quotient at 0."""
    if n < 0:
        raise IndexOutOfRange("bernoulli needs n >= 0")
    return fps.egf_coeff(fps.longest(carlitz_quotient, ZERO, n=n), n).constant()


def bernoulli_second_kind(n: int) -> Fraction:
    """Bernoulli number of the second kind (EGF t / log(1+t)), sum_m S1(n, m) / (m + 1)."""
    if n < 0:
        raise IndexOutOfRange("bernoulli_second_kind needs n >= 0")
    top = lcm(*range(1, n + 2))
    return Fraction(sum(s * (top // (m + 1)) for m, s in enumerate(stirling1_row(n))), top)


# (mu|lam)_n = mu (mu - lam) ... (mu - (n-1) lam), lam = L by default, mu^n at 0
gen_falling = falling_product


def polylog_series(k: int, inner: fps.Series) -> fps.Series:
    """Li_k of a series with valuation >= 1: sum_{n>=1} inner^n / n^k.

    Since the inner series vanishes at t = 0, truncation at the shared
    order is exact: terms with n beyond the order cannot contribute.
    """
    terms = [Fraction(n) ** -k if n else 0 for n in range(inner.order + 1)]
    return fps.series_compose(fps.Series(terms), inner)

"""Classical auxiliary sequences.

Stirling numbers of both kinds (signed first kind, so that the falling
factorial (x)_n = sum_l S1(n, l) x^l), Bernoulli numbers, Bernoulli
numbers of the second kind, generalized falling factorials and the
truncated polylogarithm.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import fps
from .ring import ONE, falling_product


class IndexOutOfRange(Exception):
    pass


@lru_cache(maxsize=None)
def _stirling1_row(n: int) -> tuple[int, ...]:
    # (x)_{n+1} = (x - n)(x)_n  =>  S1(n+1, l) = S1(n, l-1) - n S1(n, l)
    if n == 0:
        return (1,)
    prev = _stirling1_row(n - 1)
    row = [0] * (n + 1)
    for l in range(n + 1):
        row[l] = (prev[l - 1] if l >= 1 else 0) - (n - 1) * (prev[l] if l <= n - 1 else 0)
    return tuple(row)


@lru_cache(maxsize=None)
def _stirling2_row(n: int) -> tuple[int, ...]:
    # S2(n+1, l) = l S2(n, l) + S2(n, l-1)
    if n == 0:
        return (1,)
    prev = _stirling2_row(n - 1)
    row = [0] * (n + 1)
    for l in range(n + 1):
        row[l] = l * (prev[l] if l <= n - 1 else 0) + (prev[l - 1] if l >= 1 else 0)
    return tuple(row)


def stirling1(n: int, l: int) -> int:
    """Signed Stirling number of the first kind."""
    if not 0 <= l <= n:
        raise IndexOutOfRange(f"stirling1 needs 0 <= l <= n, got ({n}, {l})")
    return _stirling1_row(n)[l]


def stirling2(n: int, l: int) -> int:
    """Stirling number of the second kind."""
    if not 0 <= l <= n:
        raise IndexOutOfRange(f"stirling2 needs 0 <= l <= n, got ({n}, {l})")
    return _stirling2_row(n)[l]


@lru_cache(maxsize=None)
def bernoulli_series(order: int) -> fps.Series:
    """The series t / (e^t - 1), the ordinary form of the Bernoulli EGF."""
    t = fps.Series.t(order)
    denom = fps.series_exp(t) - fps.Series.constant(ONE, order)
    return fps.series_div(t, denom)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n < 0:
        raise IndexOutOfRange("bernoulli needs n >= 0")
    return fps.egf_coeff(bernoulli_series(work_order(n)), n).constant()


@lru_cache(maxsize=None)
def _bernoulli2_series(order: int) -> fps.Series:
    # t / log(1 + t)
    t = fps.Series.t(order)
    log1p = fps.series_log(fps.Series.constant(ONE, order) + t)
    return fps.series_div(t, log1p)


def bernoulli_second_kind(n: int) -> Fraction:
    """Bernoulli number of the second kind b_n (EGF t / log(1+t))."""
    if n < 0:
        raise IndexOutOfRange("bernoulli_second_kind needs n >= 0")
    return fps.egf_coeff(_bernoulli2_series(work_order(n)), n).constant()


def work_order(n: int) -> int:
    # n + 2 guard coefficients, rounded up so series caches are shared across n
    return ((n + 2 + 7) // 8) * 8


# the generalized falling factorial mu (mu - L) ... (mu - (n-1) L)
gen_falling = falling_product


def polylog_series(k: int, inner: fps.Series) -> fps.Series:
    """Li_k of a series with valuation >= 1: sum_{n>=1} inner^n / n^k.

    Since the inner series vanishes at t = 0, truncation at the shared
    order is exact: terms with n beyond the order cannot contribute.
    """
    terms = [Fraction(n) ** -k if n else 0 for n in range(inner.order + 1)]
    return fps.series_compose(fps.Series(terms), inner)

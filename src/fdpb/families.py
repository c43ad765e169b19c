"""Constructors for the number and polynomial families.

Five families are covered, each reachable by at least two independent
routes so the test suite can cross-check them:

* Bernoulli polynomials           t/(e^t - 1) e^{xt}
* Carlitz degenerate Bernoulli    t/((1+Lt)^{1/L} - 1) (1+Lt)^{x/L}
* Daehee-type degenerate          (1/L)log(1+Lt)/((1+Lt)^{1/L} - 1) (1+Lt)^{x/L}
* classical poly-Bernoulli        Li_k(1-e^{-t})/(1-e^{-t}) e^{xt}
* fully degenerate poly-Bernoulli Li_k(1-(1+Lt)^{-1/L})/(1-(1+Lt)^{-1/L}) (1+Lt)^{x/L}

Number values are the x = 0 case.  Polynomial values (symbolic x) for the
fully degenerate family default to the binomial expansion over the
generalized falling factorials, which is much cheaper than the bivariate
generating function; the generating-function route stays available as the
oracle.

Each generating function is an argument-free quotient q(t) times an
argument series A(t), e^{arg t} or (1+Lt)^{arg/L}.  The longest q built so
far is kept per family (and per k) and serves every smaller n.  A value
n! [t^n] q A is one fused sum of q_j a_(n-j), with the a_j cached per
(arg, order) for all families, or n! q_n at arg = 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from . import fps
from .ring import (
    LAM, ONE, X, ZERO, BiPoly, RatLike, _coerce, falling_product, sum_of_products
)
from .sequences import (
    bernoulli_second_kind, bernoulli_series, stirling1, stirling2, work_order
)

ArgLike = BiPoly | RatLike


class RouteMismatch(Exception):
    """Two supposedly equivalent computation routes disagreed."""

    def __init__(self, message: str, lhs: BiPoly, rhs: BiPoly):
        super().__init__(f"{message}: {lhs} != {rhs}")
        self.lhs = lhs
        self.rhs = rhs


_quotients: dict[tuple, fps.Series] = {}


def _quotient(build, *key: int, n: int) -> fps.Series:
    """The longest series build(*key, order) has made, of order n or more.

    A truncated series is exact up to its order, so the longest one serves
    every coefficient up to its order; when it is short, the series built
    at work_order(n) replaces it.
    """
    series = _quotients.get((build, *key))
    if series is None or series.order < n:
        series = _quotients[(build, *key)] = build(*key, work_order(n))
    return series


@lru_cache(maxsize=None)
def _argument(power, arg: BiPoly, order: int) -> tuple[BiPoly, ...]:
    """Coefficients of the argument series power(arg, order), for every family."""
    return power(arg, order).coeffs


def _read(n: int, arg: ArgLike, power, build, *key: int) -> BiPoly:
    """n! [t^n] of build's quotient q times power(arg), as one sum of q_j a_(n-j)."""
    q = _quotient(build, *key, n=n).coeffs
    arg = _coerce(arg)
    if arg.is_zero():
        return q[n] * factorial(n)
    a = _argument(power, arg, work_order(n))
    return sum_of_products((q[j], a[n - j]) for j in range(n + 1)) * factorial(n)


def bernoulli_poly(n: int, arg: ArgLike = X) -> BiPoly:
    """Bernoulli polynomial B_n, or its value at a rational argument."""
    return _read(n, arg, fps.exp_t, bernoulli_series)


def _degenerate_expm1(order: int) -> fps.Series:
    return fps.degenerate_pow(ONE, order) - fps.Series.constant(ONE, order)


def _carlitz_quotient(order: int) -> fps.Series:
    return fps.series_div(fps.Series.t(order), _degenerate_expm1(order))


def carlitz_beta(n: int, arg: ArgLike = 0) -> BiPoly:
    """Carlitz degenerate Bernoulli number/polynomial of index n."""
    return _read(n, arg, fps.degenerate_pow, _carlitz_quotient)


def _daehee_quotient(order: int) -> fps.Series:
    return fps.series_div(fps.lambda_log(order), _degenerate_expm1(order))


def daehee_type_b(n: int, arg: ArgLike = 0) -> BiPoly:
    """Degenerate Bernoulli number/polynomial with the log numerator."""
    return _read(n, arg, fps.degenerate_pow, _daehee_quotient)


def _polylog_over_z(k: int, z: fps.Series) -> fps.Series:
    # Li_k(z)/z = sum_{m>=0} z^m / (m+1)^k, which avoids a division
    terms = [Fraction(m + 1) ** -k for m in range(z.order + 1)]
    return fps.series_compose(fps.Series(terms), z)


def _poly_bernoulli_quotient(k: int, order: int) -> fps.Series:
    return _polylog_over_z(k, fps.Series.constant(ONE, order) - fps.exp_t(-1, order))


def classical_poly_bernoulli(n: int, k: int, arg: ArgLike = 0) -> BiPoly:
    """Classical poly-Bernoulli number/polynomial (no L involved)."""
    return _read(n, arg, fps.exp_t, _poly_bernoulli_quotient, k)


def _fdpb_quotient(k: int, order: int) -> fps.Series:
    z = fps.Series.constant(ONE, order) - fps.degenerate_pow(-1, order)
    return _polylog_over_z(k, z)


def fdpb_gf(n: int, k: int, arg: ArgLike = 0) -> BiPoly:
    """Fully degenerate poly-Bernoulli value via the generating function."""
    return _read(n, arg, fps.degenerate_pow, _fdpb_quotient, k)


@lru_cache(maxsize=None)
def _kaneko(l: int, k: int) -> tuple[int, int]:
    """Kaneko's poly-Bernoulli number B_l^(k) as (numerator, denominator).

    B_l^(k) = sum_m (-1)^(m+l) m! S2(l, m) (m+1)^(-k).  For k > 0 every
    term is put over lcm(1..l+1)^k; for k <= 0 the value is an integer.
    """
    top = lcm(*range(1, l + 2)) if k > 0 else 1
    num = 0
    for m in range(l + 1):
        power = (top // (m + 1)) ** k if k > 0 else (m + 1) ** -k
        num += (-1) ** (m + l) * factorial(m) * stirling2(l, m) * power
    return num, (top**k if k > 0 else 1)


@lru_cache(maxsize=None)
def fdpb_closed(n: int, k: int) -> BiPoly:
    """Fully degenerate poly-Bernoulli number, sum_l S1(n, l) L^(n-l) B_l^(k)."""
    weights = [_kaneko(l, k) for l in range(n + 1)]
    den = lcm(*(d for _, d in weights))
    num = {
        (n - l, 0): stirling1(n, l) * c * (den // d) for l, (c, d) in enumerate(weights)
    }
    return BiPoly._make(num, den)


def fdpb_negative_closed(n: int, k: int) -> BiPoly:
    """The negative-index double sum; equals fdpb_closed(n, -k)."""
    out = ZERO
    for m in range(n + 1):
        s1 = stirling1(n, m)
        if s1 == 0:
            continue
        acc = Fraction(0)
        for j in range(m + 1):
            acc += (
                Fraction((-1) ** (j + m) * factorial(j) * stirling2(m, j))
                * Fraction(j + 1) ** k
            )
        out = out + BiPoly({(n - m, 0): acc * s1})
    return out


@lru_cache(maxsize=None)
def fdpb_poly(n: int, k: int) -> BiPoly:
    """The degree-n polynomial, via the binomial/falling-factorial expansion."""
    return sum_of_products(
        (falling_product(X, n - l), fdpb_closed(l, k) * comb(n, l))
        for l in range(n + 1)
    )


def fdpb_value(n: int, k: int, arg: ArgLike = 0) -> BiPoly:
    """Number, polynomial, or evaluated value, by the cheap expansion route."""
    arg = _coerce(arg)
    if arg.is_zero():
        return fdpb_closed(n, k)
    if arg == X:
        return fdpb_poly(n, k)
    return fdpb_poly(n, k).subst_x(arg)


def fdpb_iterated_integral(k: int, n_max: int) -> fps.Series:
    """Generating function of the numbers via nested formal integrals.

    Starting from (1/L)log(1+Lt) / (((1+Lt)^{1/L}-1)(1+Lt)), integrate and
    divide by ((1+Lt)^{1/L}-1)(1+Lt) alternately (k-1 integrals in all),
    then multiply by (1+Lt)^{1/L} and divide by (1+Lt)^{1/L}-1.
    """
    if k < 2:
        raise ValueError("iterated-integral route needs k >= 2")
    order = n_max + 2
    pw = fps.degenerate_pow(ONE, order)
    pm1 = pw - fps.Series.constant(ONE, order)
    one_plus = fps.Series([ONE, LAM] + [ZERO] * (order - 1))
    kernel = pm1 * one_plus
    g = fps.series_div(fps.lambda_log(order), kernel)
    for i in range(k - 1):
        g = fps.series_integrate(g)
        if i < k - 2:
            g = fps.series_div(g, kernel)
    return fps.series_div(g * pw, pm1)


def fdpb_x_derivative(n: int, k: int) -> BiPoly:
    """d/dx of the degree-n polynomial, by omit-one-factor products.

    d/dx (x|L)_d = sum_{j<d} P_j S_{d,j}, where P_j = (x|L)_j is the prefix
    product of the factors (x - L i) and S_{d,j} = prod_{j<i<d} (x - L i)
    the suffix product.  With w_d = C(n, d) beta_{n-d}, the suffix side
    T_j = sum_{d>j} w_d S_{d,j} obeys T_j = w_{j+1} + (x - L(j+1)) T_{j+1},
    so the derivative is sum_j P_j T_j, assembled with one sum_of_products.
    """
    pairs = []
    suffix = ZERO
    for j in range(n - 1, -1, -1):
        weight = fdpb_closed(n - j - 1, k) * comb(n, j + 1)
        suffix = weight + (X - LAM * (j + 1)) * suffix
        pairs.append((falling_product(X, j), suffix))
    return sum_of_products(pairs)


@lru_cache(maxsize=None)
def _falling_integral(d: int) -> BiPoly:
    """The integral of (x|L)_d over [0, 1], through b_j; every k shares it."""
    return sum_of_products(
        (
            BiPoly({(d - m, 0): comb(d, m) * bernoulli_second_kind(d - m)}),
            falling_product(ONE, m + 1) / (m + 1),
        )
        for m in range(d + 1)
    )


def integral_unit_interval(n: int, k: int, reading: str = "theorem") -> BiPoly:
    """Integral of the degree-n polynomial over x in [0, 1].

    Computed by direct termwise integration and by the double-sum identity
    in terms of Bernoulli numbers of the second kind; the two must agree.
    The ``reading`` switch selects which indexing of the double sum is
    assembled ("theorem" or "expansion"); they are related by reversing
    the outer summation index and agree identically.
    """
    direct = fdpb_poly(n, k).integrate_x_unit()
    if reading == "theorem":
        pairs = [(_falling_integral(l), fdpb_closed(n - l, k) * comb(n, l))
                 for l in range(n + 1)]
    elif reading == "expansion":
        pairs = [(fdpb_closed(l, k) * comb(n, l), _falling_integral(n - l))
                 for l in range(n + 1)]
    else:
        raise ValueError(f"unknown reading {reading!r}")
    total = sum_of_products(pairs)
    if direct != total:
        raise RouteMismatch(
            f"unit-interval integral routes disagree at n={n}, k={k}", direct, total
        )
    return direct

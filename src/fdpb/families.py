"""Constructors for the number and polynomial families.

Five families are covered, each reachable by at least two independent
routes so the test suite can cross-check them:

* Bernoulli polynomials           t/(e^t - 1) e^{xt}
* Carlitz degenerate Bernoulli    t/((1+Lt)^{1/L} - 1) (1+Lt)^{x/L}
* Daehee-type degenerate          (1/L)log(1+Lt)/((1+Lt)^{1/L} - 1) (1+Lt)^{x/L}
* classical poly-Bernoulli        Li_k(1-e^{-t})/(1-e^{-t}) e^{xt}
* fully degenerate poly-Bernoulli Li_k(1-(1+Lt)^{-1/L})/(1-(1+Lt)^{-1/L}) (1+Lt)^{x/L}

Number values are the x = 0 case.  Both poly-Bernoulli polynomials are
built from Kaneko's numbers B_l^(k), memoised as integers:
B_m^(k)(x) = sum_l C(m, l) B_l^(k) x^(m-l) and, as the fdpb generating
function is the classical one in u = (1/L) log(1 + Lt),
beta_n^(k)(x) = sum_m S1(n, m) L^(n-m) B_m^(k)(x).  Both are much cheaper
than their generating functions, which stay available as the oracles.

Each generating function is an argument-free quotient q(t) times an
argument series A(t) = (1+Lt)^{arg/L}, which is e^{arg t} at L = 0.  The
two polylogarithm quotients Li_k(z)/z are built from the differential
equation of z, not by composing a series in z.  The longest q built so far
is kept per family (and per k and lambda) and serves every smaller n.  A
value n! [t^n] q A is one fused sum of q_j a_(n-j), with the a_j cached
per (arg, lambda, order) for all families, or n! q_n at arg = 0.

The families that depend on L, other than the oracle fdpb_gf, take
``lam``: the symbol L (the default) or a rational, at which every series,
Kaneko sum and value is built in Q[x] from the start, never built in
Q[L, x] and then evaluated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from . import fps
from .ring import (
    LAM, ONE, X, ZERO, BiPoly, RatLike, _coerce, _term_powers, falling_product, grow,
    sum_of_products,
)
from .sequences import bernoulli_second_kind, bernoulli_series, stirling1_row, work_order

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
def _argument(arg: BiPoly, lam: BiPoly, order: int) -> tuple[BiPoly, ...]:
    """Coefficients of the argument series (1 + lam t)^(arg/lam), for every family."""
    return fps.degenerate_pow(arg, order, lam).coeffs


def _read(n: int, arg: ArgLike, lam: BiPoly, build, *key) -> BiPoly:
    """n! [t^n] of build's quotient q times (1 + lam t)^(arg/lam), as one sum
    of q_j a_(n-j)."""
    q = _quotient(build, *key, n=n).coeffs
    arg = _coerce(arg)
    if arg.is_zero():
        return q[n] * factorial(n)
    a = _argument(arg, lam, work_order(n))
    return sum_of_products((q[j], a[n - j]) for j in range(n + 1)) * factorial(n)


def bernoulli_poly(n: int, arg: ArgLike = X) -> BiPoly:
    """Bernoulli polynomial B_n, or its value at a rational argument."""
    return _read(n, arg, ZERO, bernoulli_series)


def _degenerate_expm1(lam: BiPoly, order: int) -> fps.Series:
    return fps.degenerate_pow(ONE, order, lam) - fps.Series.constant(ONE, order)


def _carlitz_quotient(lam: BiPoly, order: int) -> fps.Series:
    return fps.series_div(fps.Series.t(order), _degenerate_expm1(lam, order))


def carlitz_beta(n: int, arg: ArgLike = 0, lam: ArgLike = LAM) -> BiPoly:
    """Carlitz degenerate Bernoulli number/polynomial of index n, at lam."""
    lam = _coerce(lam)
    return _read(n, arg, lam, _carlitz_quotient, lam)


def _daehee_quotient(lam: BiPoly, order: int) -> fps.Series:
    return fps.series_div(fps.lambda_log(order, lam), _degenerate_expm1(lam, order))


def daehee_type_b(n: int, arg: ArgLike = 0, lam: ArgLike = LAM) -> BiPoly:
    """Degenerate Bernoulli number/polynomial with the log numerator, at lam."""
    lam = _coerce(lam)
    return _read(n, arg, lam, _daehee_quotient, lam)


def _polylog_over_z(k: int, lam: BiPoly, order: int) -> fps.Series:
    """Li_k(z)/z = sum_m z^m / (m+1)^k at z = 1 - (1 + lam t)^(-1/lam), uncomposed.

    z solves (1 + lam t) z' = 1 - z (at lam = 0, z = 1 - e^(-t)), so
    u_m(n) = n!/m! [t^n] z^m obeys u_m(n) = u_(m-1)(n-1) - (m + lam (n-1)) u_m(n-1),
    with u_n(n) = 1 and u_0(n) = 0 for n >= 1, and the quotient's
    coefficient n is (1/n!) sum_m m! (m+1)^(-k) u_m(n).  One column
    u_.(n) is kept as n runs upward.
    """
    weights = [
        BiPoly.const(factorial(m) * Fraction(m + 1) ** -k) for m in range(order + 1)
    ]
    minus = [BiPoly.const(-m) for m in range(order + 1)]
    column = [ONE]
    coeffs = [ONE]
    for n in range(1, order + 1):
        step = lam * (1 - n)
        column = [ZERO] + [
            sum_of_products(
                ((column[m - 1], ONE), (column[m], minus[m]), (column[m], step))
            )
            for m in range(1, n)
        ] + [ONE]
        coeffs.append(sum_of_products(zip(weights, column)) / factorial(n))
    return fps.Series(coeffs)


def _poly_bernoulli_quotient(k: int, order: int) -> fps.Series:
    return _polylog_over_z(k, ZERO, order)


def classical_poly_bernoulli(n: int, k: int, arg: ArgLike = 0) -> BiPoly:
    """Classical poly-Bernoulli number/polynomial (no L involved)."""
    return _read(n, arg, ZERO, _poly_bernoulli_quotient, k)


def _fdpb_quotient(k: int, order: int) -> fps.Series:
    return _polylog_over_z(k, LAM, order)


def fdpb_gf(n: int, k: int, arg: ArgLike = 0) -> BiPoly:
    """Fully degenerate poly-Bernoulli value via the generating function."""
    return _read(n, arg, LAM, _fdpb_quotient, k)


# row l holds F_l(m) = m! S2(l, m) for m = 0..l
_SURJECTIONS: list[tuple[int, ...]] = [(1,)]


def _surjection_step(prev: tuple[int, ...], l: int) -> tuple[int, ...]:
    # F_l(m) = m (F_(l-1)(m) + F_(l-1)(m-1))
    return (0, *(m * (a + b) for m, (a, b) in enumerate(zip(prev, prev[1:] + (0,)), 1)))


@lru_cache(maxsize=None)
def _kaneko(l: int, k: int) -> tuple[int, int]:
    """Kaneko's poly-Bernoulli number B_l^(k) as (numerator, denominator).

    B_l^(k) = sum_m (-1)^(m+l) m! S2(l, m) (m+1)^(-k).  For k > 0 every
    term is put over lcm(1..l+1)^k; for k <= 0 the value is an integer.
    """
    top = lcm(*range(1, l + 2)) if k > 0 else 1
    num = 0
    for m, surjections in enumerate(grow(_SURJECTIONS, l, _surjection_step)):
        power = (top // (m + 1)) ** k if k > 0 else (m + 1) ** -k
        num += (-1) ** (m + l) * surjections * power
    return num, (top**k if k > 0 else 1)


def _kaneko_sum(row, k: int, v: ArgLike) -> BiPoly:
    """sum_l row[l] B_l^(k) v^(n-l), n = len(row) - 1, for one term v, over one lcm."""
    n = len(row) - 1
    keys, scale, v_den = _term_powers(v, n)
    weights = [_kaneko(l, k) for l in range(n + 1)]
    den = lcm(*(d for _, d in weights))
    num: dict[int, int] = {}
    for l, (c, d) in enumerate(weights):
        key = keys[n - l]
        num[key] = num.get(key, 0) + row[l] * c * (den // d) * scale[n - l]
    return BiPoly._make(num, den * v_den)


@lru_cache(maxsize=None)
def fdpb_closed(n: int, k: int, lam: ArgLike = LAM) -> BiPoly:
    """Fully degenerate poly-Bernoulli number, sum_l S1(n, l) lam^(n-l) B_l^(k)."""
    return _kaneko_sum(stirling1_row(n), k, lam)


@lru_cache(maxsize=None)
def _kaneko_poly(m: int, k: int) -> BiPoly:
    """Kaneko's poly-Bernoulli polynomial B_m^(k)(x) = sum_l C(m, l) B_l^(k) x^(m-l)."""
    return _kaneko_sum([comb(m, l) for l in range(m + 1)], k, X)


def poly_bernoulli_value(n: int, k: int, arg: ArgLike = 0) -> BiPoly:
    """Classical poly-Bernoulli number, polynomial or value, from Kaneko's numbers."""
    arg = _coerce(arg)
    if arg.is_zero():
        return BiPoly.const(Fraction(*_kaneko(n, k)))
    return _kaneko_poly(n, k) if arg == X else _kaneko_poly(n, k).subst_x(arg)


@lru_cache(maxsize=None)
def fdpb_poly(n: int, k: int, lam: ArgLike = LAM) -> BiPoly:
    """The degree-n polynomial, sum_m S1(n, m) lam^(n-m) B_m^(k)(x), in n^2/2 term pairs."""
    keys, scale, den = _term_powers(lam, n)
    return sum_of_products(
        (BiPoly._make({keys[n - m]: s * scale[n - m]}, den), _kaneko_poly(m, k))
        for m, s in enumerate(stirling1_row(n))
    )


def fdpb_value(n: int, k: int, arg: ArgLike = 0, lam: ArgLike = LAM) -> BiPoly:
    """Number, polynomial, or value at arg and lam, from Kaneko's numbers, not a series."""
    arg, lam = _coerce(arg), _coerce(lam)
    # at L, the memo key (n, k) the identity checks use
    at = (n, k) if lam == LAM else (n, k, lam)
    if arg.is_zero():
        return fdpb_closed(*at)
    return fdpb_poly(*at) if arg == X else fdpb_poly(*at).subst_x(arg)


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


def integral_unit_interval(n: int, k: int) -> BiPoly:
    """Integral of the degree-n polynomial over x in [0, 1], as a double sum.

    sum_l C(n, l) beta_(n-l) int_0^1 (x|L)_l dx, where each integral of a
    falling factorial is a sum over Bernoulli numbers of the second kind.
    """
    return sum_of_products(
        (_falling_integral(l), fdpb_closed(n - l, k) * comb(n, l)) for l in range(n + 1)
    )

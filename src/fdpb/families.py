"""Constructors for the number and polynomial families.

Five families are covered, each reachable by at least two independent
routes so the test suite can cross-check them:

* Bernoulli polynomials           t/(e^t - 1) e^{xt}
* Carlitz degenerate Bernoulli    t/((1+Lt)^{1/L} - 1) (1+Lt)^{x/L}
* Daehee-type degenerate          (1/L)log(1+Lt)/((1+Lt)^{1/L} - 1) (1+Lt)^{x/L}
* classical poly-Bernoulli        Li_k(1-e^{-t})/(1-e^{-t}) e^{xt}
* fully degenerate poly-Bernoulli Li_k(1-(1+Lt)^{-1/L})/(1-(1+Lt)^{-1/L}) (1+Lt)^{x/L}

Number values are the x = 0 case.  The CLI reads every family from one
closed sum over integers (:func:`_closed_sum`),

    sum_m w_m lam^(n-m) sum_l C(m, l) b_l x^(m-l),

at the symbol L or a rational lam alike.  The numbers b_l are Kaneko's
B_l^(k), held per k as integer numerators over one shared denominator, or
the Bernoulli numbers B_l = (-1)^l B_l^(1).  The change of variable
u = (1/L) log(1 + Lt) turns each L-dependent generating function into a
classical one in u, so the outer weights w_m are a row of Stirling
numbers: S1(n, m) for fdpb and Daehee, and for Carlitz the row of
:func:`_carlitz_row`; the classical families, at lam = 0, take the unit
row.

The generating functions stay available as the oracles.  Each is an
argument-free quotient q(t) times an argument series
A(t) = (1+Lt)^{arg/L}, which is e^{arg t} at L = 0.  The two polylogarithm
quotients Li_k(z)/z are built from the differential equation of z, not by
composing a series in z.  The longest q built so far is kept per family
(and per k) and serves every smaller n.  A value n! [t^n] q A is one fused
sum of q_j a_(n-j), with the a_j cached per (arg, lambda, order) for all
families, or n! q_n at arg = 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import mul

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


def _degenerate_expm1(order: int) -> fps.Series:
    return fps.degenerate_pow(ONE, order) - fps.Series.constant(ONE, order)


def _carlitz_quotient(order: int) -> fps.Series:
    return fps.series_div(fps.Series.t(order), _degenerate_expm1(order))


def carlitz_beta(n: int, arg: ArgLike = 0) -> BiPoly:
    """Carlitz degenerate Bernoulli number/polynomial of index n, from its series."""
    return _read(n, arg, LAM, _carlitz_quotient)


def _daehee_quotient(order: int) -> fps.Series:
    return fps.series_div(fps.lambda_log(order), _degenerate_expm1(order))


def daehee_type_b(n: int, arg: ArgLike = 0) -> BiPoly:
    """Degenerate Bernoulli number/polynomial with the log numerator, from its series."""
    return _read(n, arg, LAM, _daehee_quotient)


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


# k -> numerators of Kaneko's B_0^(k) .. B_N^(k), and their shared denominator
_KANEKO: dict[int, tuple[tuple[int, ...], int]] = {}


def _kaneko_row(k: int, n: int) -> tuple[tuple[int, ...], int]:
    """Kaneko's poly-Bernoulli numbers B_0^(k) .. B_N^(k), N >= n, over one denominator.

    B_l^(k) = sum_m (-1)^(m+l) m! S2(l, m) (m+1)^(-k).  For k > 0 the row
    is put over lcm(1..N+1)^k; for k <= 0 every number is an integer.  The
    longest row built serves every smaller n; a longer one rescales it to
    the new denominator and appends the numbers it lacks.
    """
    nums, den = _KANEKO.get(k, ((), 1))
    if len(nums) > n:
        return nums, den
    if k > 0:
        top = lcm(*range(1, n + 2))
        power = [(top // (m + 1)) ** k for m in range(n + 1)]
        scale = top**k // den
        den = top**k
    else:
        power = [(m + 1) ** -k for m in range(n + 1)]
        scale = 1
    row = [c * scale for c in nums]
    for l in range(len(row), n + 1):
        f = grow(_SURJECTIONS, l, _surjection_step)
        alternating = sum(map(mul, f[::2], power[::2])) - sum(map(mul, f[1::2], power[1::2]))
        row.append(-alternating if l % 2 else alternating)
    _KANEKO[k] = tuple(row), den
    return _KANEKO[k]


def _bernoulli_row(n: int) -> tuple[list[int], int]:
    """The Bernoulli numbers B_0 .. B_n over one denominator, as (-1)^l B_l^(1)."""
    nums, den = _kaneko_row(1, n)
    return [-c if l % 2 else c for l, c in enumerate(nums[: n + 1])], den


def _unit_row(n: int) -> tuple[tuple[int, ...], int]:
    return (0,) * n + (1,), 1


def _carlitz_row(n: int) -> tuple[list[int], int]:
    """w_0 = sum_m S1(n, m)/(m + 1) and w_i = n S1(n-1, i-1)/i, i = 1..n, over lcm(1..n+1).

    In u = (1/L) log(1 + Lt), Carlitz's generating function is
    ((e^(Lu) - 1)/(Lu)) u e^(xu)/(e^u - 1), so beta_n(x|L) is
    sum_i w_i L^(n-i) B_i(x) with w_i = sum_(m >= i) S1(n, m) C(m, i)/(m - i + 1)
    (Carlitz, Utilitas Math. 15, 1979).  That sum_i w_i y^i is the integral
    of the falling factorial (s)_n over [y, y + 1]; its derivative in y is
    (y + 1)_n - (y)_n = n (y)_(n-1), which gives w_i for i >= 1 from one row.
    """
    top = lcm(*range(1, n + 2))
    head = sum(s * (top // (m + 1)) for m, s in enumerate(stirling1_row(n)))
    prev = stirling1_row(n - 1) if n else ()
    return [head] + [n * prev[i - 1] * (top // i) for i in range(1, n + 1)], top


def _closed_sum(outer, row, n: int, arg: ArgLike, lam: ArgLike) -> BiPoly:
    """sum_m w_m lam^(n-m) sum_l C(m, l) b_l arg^(m-l), m, l = 0..n, in integers.

    outer holds the weights w_0 .. w_n and row the numbers b_0 .. b_n (or
    more), each as integer numerators over one denominator.  lam is a single
    term, L or a rational; so is arg, or the sum is built at x and arg
    substituted.  Every term goes straight into one numerator dict, which
    is normalised once.
    """
    arg = _coerce(arg)
    if len(arg._num) > 1:
        return _closed_sum(outer, row, n, X, lam).subst_x(arg)
    weights, w_den = outer
    nums, b_den = row
    lam_keys, lam_scale, lam_den = _term_powers(lam, n)
    # at arg = 0 only the l = m terms are left, with arg^0 = 1
    arg_keys, arg_scale, arg_den = _term_powers(arg, n if arg else 0)
    acc: dict[int, int] = {}
    get = acc.get
    for m, w in enumerate(weights):
        w *= lam_scale[n - m]
        if not w:
            continue
        base = lam_keys[n - m]
        for l in range(0 if arg else m, m + 1):
            key = base + arg_keys[m - l]
            acc[key] = get(key, 0) + w * comb(m, l) * nums[l] * arg_scale[m - l]
    return BiPoly._make(acc, w_den * b_den * lam_den * arg_den)


@lru_cache(maxsize=None)
def fdpb_closed(n: int, k: int, lam: ArgLike = LAM) -> BiPoly:
    """Fully degenerate poly-Bernoulli number, sum_m S1(n, m) lam^(n-m) B_m^(k)."""
    return _closed_sum((stirling1_row(n), 1), _kaneko_row(k, n), n, ZERO, lam)


@lru_cache(maxsize=None)
def fdpb_poly(n: int, k: int, lam: ArgLike = LAM) -> BiPoly:
    """The degree-n polynomial, sum_m S1(n, m) lam^(n-m) B_m^(k)(x), in n^2/2 terms."""
    return _closed_sum((stirling1_row(n), 1), _kaneko_row(k, n), n, X, lam)


def poly_bernoulli_value(n: int, k: int, arg: ArgLike = 0) -> BiPoly:
    """Classical poly-Bernoulli number, polynomial or value, from Kaneko's numbers."""
    return _closed_sum(_unit_row(n), _kaneko_row(k, n), n, arg, ZERO)


def bernoulli_value(n: int, arg: ArgLike = 0) -> BiPoly:
    """Bernoulli number, polynomial or value, sum_l C(n, l) B_l arg^(n-l)."""
    return _closed_sum(_unit_row(n), _bernoulli_row(n), n, arg, ZERO)


def carlitz_value(n: int, arg: ArgLike = 0, lam: ArgLike = LAM) -> BiPoly:
    """Carlitz's degenerate Bernoulli number or polynomial at lam, as a closed sum."""
    return _closed_sum(_carlitz_row(n), _bernoulli_row(n), n, arg, lam)


def daehee_value(n: int, arg: ArgLike = 0, lam: ArgLike = LAM) -> BiPoly:
    """The Daehee-type degenerate value at lam, sum_m S1(n, m) lam^(n-m) B_m(arg)."""
    return _closed_sum((stirling1_row(n), 1), _bernoulli_row(n), n, arg, lam)


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

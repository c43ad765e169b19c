"""Constructors for the number and polynomial families.

Five families are covered, each reachable by at least two independent
routes so the test suite can cross-check them:

* Bernoulli polynomials           t/(e^t - 1) e^{xt}
* Carlitz degenerate Bernoulli    t/((1+Lt)^{1/L} - 1) (1+Lt)^{x/L}
* Daehee-type degenerate          (1/L)log(1+Lt)/((1+Lt)^{1/L} - 1) (1+Lt)^{x/L}
* classical poly-Bernoulli        Li_k(1-e^{-t})/(1-e^{-t}) e^{xt}
* fully degenerate poly-Bernoulli Li_k(1-(1+Lt)^{-1/L})/(1-(1+Lt)^{-1/L}) (1+Lt)^{x/L}

Number values are the x = 0 case.  The ``*_value`` routes, which the CLI
reads, make each family at any lambda and argument from one closed sum
over integers (:func:`_closed_sum`),

    sum_m w_m lam^(n-m) sum_l C(m, l) b_l x^(m-l),

at the symbol L or a rational lam alike.  The numbers b_l are Kaneko's
B_l^(k), grown per k along an Akiyama-Tanigawa diagonal (:func:`_kaneko_row`)
as integer numerators over one shared denominator, or the Bernoulli numbers
B_l = (-1)^l B_l^(1).  The change of variable u = (1/L) log(1 + Lt) turns
each L-dependent generating function into a classical one in u, so the
outer weights w_m are a row of Stirling numbers: S1(n, m) for fdpb and
Daehee, and for Carlitz the row of :func:`_carlitz_row`; the classical
families, at lam = 0, take the unit row.  The identity checks re-read fdpb
at L, so that alone is memoised: :func:`fdpb_closed` and :func:`fdpb_poly`.

The generating functions stay available as the oracles.  Each is an
argument-free quotient q(t) times an argument series
A(t) = (1+Lt)^{arg/L}, which is e^{arg t} at L = 0.  The polylogarithm
quotients Li_k(z)/z at every k and lambda read one integer table of
n!/m! [t^n] z^m, grown from z's differential equation (:data:`_Z_TABLE`).
Both q and A are read through :func:`fps.longest`, which keeps the longest
series built per builder and key (k, lambda, arg) and serves every smaller n.
A value n! [t^n] q A is one fused sum of q_j a_(n-j), or n! q_n at arg = 0.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, lcm

from . import fps
from .ring import (
    LAM, ONE, X, ZERO, BiPoly, RatLike, _coerce, _term_powers, falling_product,
    grow, sum_of_products,
)
from .sequences import bernoulli_second_kind, bernoulli_series, stirling1_row

ArgLike = BiPoly | RatLike


class RouteMismatch(Exception):
    """Two supposedly equivalent computation routes disagreed."""

    def __init__(self, message: str, lhs: BiPoly, rhs: BiPoly):
        super().__init__(f"{message}: {lhs} != {rhs}")
        self.lhs = lhs
        self.rhs = rhs


def _argument(arg: BiPoly, lam: BiPoly, order: int) -> fps.Series:
    """The argument series (1 + lam t)^(arg/lam), for every family."""
    return fps.degenerate_pow(arg, order, lam)


def _read(n: int, arg: ArgLike, lam: BiPoly, build, *key) -> BiPoly:
    """n! [t^n] of build's quotient q times (1 + lam t)^(arg/lam), as one sum
    of q_j a_(n-j)."""
    q = fps.longest(build, *key, n=n).coeffs
    arg = _coerce(arg)
    if arg.is_zero():
        return q[n] * factorial(n)
    a = fps.longest(_argument, arg, lam, n=n).coeffs
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


# column n of the table u_m(n) = n!/m! [t^n] z^m, z = 1 - (1 + lam t)^(-1/lam):
# u_0(n) .. u_n(n), each an integer polynomial in lam, as its coefficient list.
# u_m(n) is (-1)^(n-m) times Carlitz's degenerate Stirling number of the second
# kind at -lam (Utilitas Math. 15, 1979), so no k or lam changes the table
_Z_TABLE: list[list[list[int]]] = [[[1]]]


def _z_column(prev: list[list[int]], n: int) -> list[list[int]]:
    # (1 + lam t) z' = 1 - z gives u_0(n) = 0, u_n(n) = 1 and
    # u_m(n) = u_(m-1)(n-1) - m u_m(n-1) - (n-1) lam u_m(n-1)
    return [[0] * (n + 1)] + [
        [a - m * b - (n - 1) * c for a, b, c in zip(prev[m - 1], prev[m] + [0], [0] + prev[m])]
        for m in range(1, n)
    ] + [[1]]


def _polylog_over_z(k: int, lam: BiPoly, order: int) -> fps.Series:
    """Li_k(z)/z = sum_m z^m / (m+1)^k at z = 1 - (1 + lam t)^(-1/lam), uncomposed.

    Coefficient n is (1/n!) sum_m m! (m+1)^(-k) u_m(n), read off the one
    table _Z_TABLE that every k and lam share: with the integer weights
    W_m = m! (m+1)^(-k) D, D = lcm(1..order+1)^k for k > 0 and 1 else, it
    is sum_j s_j lam^j / (D n!), where s_j = sum_m W_m [lam^j] u_m(n).
    """
    den = lcm(*range(1, order + 2)) ** k if k > 0 else 1
    weights = [factorial(m) * den // (m + 1) ** k if k > 0 else factorial(m) * (m + 1) ** -k
               for m in range(order + 1)]
    grow(_Z_TABLE, order, _z_column)
    powers, coeffs = [ONE], []  # powers holds lam^0 .. lam^n at column n
    for n, column in enumerate(_Z_TABLE[: order + 1]):
        sums = (
            (BiPoly._make({0: sum(w * u[j] for w, u in zip(weights, column[: n + 1 - j]))}, 1), p)
            for j, p in enumerate(powers) if p
        )
        coeffs.append(sum_of_products(sums) / (den * factorial(n)))
        powers.append(powers[-1] * lam)
    return fps.Series(coeffs)


def classical_poly_bernoulli(n: int, k: int, arg: ArgLike = 0) -> BiPoly:
    """Classical poly-Bernoulli number/polynomial (no L involved)."""
    return _read(n, arg, ZERO, _polylog_over_z, k, ZERO)


def fdpb_gf(n: int, k: int, arg: ArgLike = 0) -> BiPoly:
    """Fully degenerate poly-Bernoulli value via the generating function."""
    return _read(n, arg, LAM, _polylog_over_z, k, LAM)


# k -> numerators of Kaneko's B_0^(k) .. B_N^(k), their shared denominator,
# and the last anti-diagonal c^j_(N-j), j = 0..N, over the same denominator
_KANEKO: dict[int, tuple[tuple[int, ...], int, list[int]]] = {}


def _kaneko_row(k: int, n: int) -> tuple[tuple[int, ...], int]:
    """Kaneko's poly-Bernoulli numbers B_0^(k) .. B_N^(k), N >= n, over one denominator.

    From c^0_m = (m+1)^(-k) and c^l_m = m c^(l-1)_m - (m+1) c^(l-1)_(m+1),
    B_l^(k) = (-1)^l c^l_0 (Kaneko, "The Akiyama-Tanigawa algorithm for
    Bernoulli numbers", J. Integer Seq. 3, 2000).  Each new l starts from
    c^0_l and walks the last anti-diagonal once, to c^l_0.  For k > 0 the
    row is put over lcm(1..N+1)^k; for k <= 0 every number is an integer.
    The longest row built serves every smaller n; a longer one rescales the
    row and the diagonal to the new denominator and appends the numbers it
    lacks.
    """
    nums, den, diag = _KANEKO.get(k, ((), 1, []))
    if len(nums) > n:
        return nums, den
    scale = 1
    if k > 0:
        top = lcm(*range(1, n + 2)) ** k
        scale, den = top // den, top
    row = [b * scale for b in nums]
    diag = [c * scale for c in diag]
    for l in range(len(row), n + 1):
        c = den // (l + 1) ** k if k > 0 else (l + 1) ** -k
        # c^j_(l-j) = (l-j) c^(j-1)_(l-j) - (l-j+1) c^(j-1)_(l-j+1), j = 1..l
        diag = [c] + [c := (l - j) * d - (l - j + 1) * c for j, d in enumerate(diag, 1)]
        row.append(-c if l % 2 else c)
    nums = tuple(row)
    _KANEKO[k] = nums, den, diag
    return nums, den


def _bernoulli_row(n: int) -> tuple[list[int], int]:
    """The Bernoulli numbers B_0 .. B_n over one denominator, as (-1)^l B_l^(1)."""
    nums, den = _kaneko_row(1, n)
    return [-c if l % 2 else c for l, c in enumerate(nums[: n + 1])], den


def _unit_row(n: int) -> tuple[tuple[int, ...], int]:
    return (0,) * n + (1,), 1


def _carlitz_row(n: int) -> tuple[list[int], int]:
    """w_0 = b_n (second kind) and w_i = n S1(n-1, i-1)/i, i = 1..n, over lcm(1..n+1).

    In u = (1/L) log(1 + Lt), Carlitz's generating function is
    ((e^(Lu) - 1)/(Lu)) u e^(xu)/(e^u - 1), so beta_n(x|L) is
    sum_i w_i L^(n-i) B_i(x) with w_i = sum_(m >= i) S1(n, m) C(m, i)/(m - i + 1)
    (Carlitz, Utilitas Math. 15, 1979).  That sum_i w_i y^i is the integral
    of the falling factorial (s)_n over [y, y + 1]; its derivative in y is
    (y + 1)_n - (y)_n = n (y)_(n-1), which gives w_i for i >= 1 from one row.
    """
    top = lcm(*range(1, n + 2))
    head = int(bernoulli_second_kind(n) * top)
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
    arg, lam = _coerce(arg), _coerce(lam)
    if len(lam._num) > 1:
        raise ValueError(f"lambda must be a single term (L, a rational, ...), got {lam}")
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


def fdpb_value(n: int, k: int, arg: ArgLike = 0, lam: ArgLike = LAM) -> BiPoly:
    """The value at arg and lam, sum_m S1(n, m) lam^(n-m) B_m^(k)(arg), not a series."""
    return _closed_sum((stirling1_row(n), 1), _kaneko_row(k, n), n, arg, lam)


# the identity checks' memos, at L
@lru_cache(maxsize=None)
def fdpb_closed(n: int, k: int) -> BiPoly:
    """Fully degenerate poly-Bernoulli number, sum_m S1(n, m) L^(n-m) B_m^(k)."""
    return fdpb_value(n, k)


@lru_cache(maxsize=None)
def fdpb_poly(n: int, k: int) -> BiPoly:
    """The degree-n polynomial, sum_m S1(n, m) L^(n-m) B_m^(k)(x), in n^2/2 terms."""
    return fdpb_value(n, k, X)


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
    verify no longer reads it (DERIV_FORMULA uses the Sheffer derivative
    formula); it stays as a tested reference and a benchmark tracer label.
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

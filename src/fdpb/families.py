"""Constructors for the number and polynomial families.

Five families are covered, each reachable by at least two independent
routes so the test suite can cross-check them:

* Bernoulli polynomials           t/(e^t - 1) e^{xt}
* Carlitz degenerate Bernoulli    t/((1+Lt)^{1/L} - 1) (1+Lt)^{x/L}
* Daehee-type degenerate          (1/L)log(1+Lt)/((1+Lt)^{1/L} - 1) (1+Lt)^{x/L}
* classical poly-Bernoulli        Li_k(1-e^{-t})/(1-e^{-t}) e^{xt}
* fully degenerate poly-Bernoulli Li_k(1-(1+Lt)^{-1/L})/(1-(1+Lt)^{-1/L}) (1+Lt)^{x/L}

Number values are the x = 0 case.  The ``*_value`` routes, which the CLI's
``poly`` reads, make each family at any lambda and argument from one
closed sum over integers (:func:`_closed_sum`),

    sum_m w_m lam^(n-m) sum_l C(m, l) b_l x^(m-l),

at the symbol L or a rational lam alike.  The numbers b_l are Kaneko's
B_l^(k), built per k along Akiyama-Tanigawa anti-diagonals (:func:`_kaneko_row`)
as integer numerators over one shared denominator, or the Bernoulli numbers
B_l = (-1)^l B_l^(1).  The change of variable u = (1/L) log(1 + Lt) turns
each L-dependent generating function into a classical one in u, so the
outer weights w_m are a row of Stirling numbers: S1(n, m) for fdpb and
Daehee, and for Carlitz the row of :func:`_carlitz_row`.  A classical family
is its degenerate family at lam = 0, where only w_n = 1 is left and no row
is built.  The identity checks re-read fdpb at L, so that alone is
memoised: :func:`fdpb_closed` and :func:`fdpb_poly`.

A table's numbers n = 0..N are read in one sweep, by :func:`fdpb_rows`,
:func:`daehee_rows` and :func:`carlitz_rows`, at lam = 0 the classical
ones.  Each is a Stirling transform sum_m S1(n, m) lam^(n-m) c_m of one
row of numbers c: at a rational lam every row comes from one
falling-factorial recurrence in integers (:func:`_stirling_transform`),
with no S1 row, and at L each row is one product per coefficient.

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
    is sum_j s_j lam^j / (D n!), where s_j = sum_m W_m [lam^j] u_m(n), one
    integer numerator dict.  lam is a single term (L, 0 or a rational), its
    powers read from _term_powers; those of a rational share a key, summed.
    """
    den = lcm(*range(1, order + 2)) ** k if k > 0 else 1
    weights = [factorial(m) * den // (m + 1) ** k if k > 0 else factorial(m) * (m + 1) ** -k
               for m in range(order + 1)]
    grow(_Z_TABLE, order, _z_column)
    keys, lam_pow, lam_den = _term_powers(lam, order)
    coeffs = []
    for n, column in enumerate(_Z_TABLE[: order + 1]):
        num: dict[int, int] = {}
        for j in range(n + 1):
            if lam_pow[j]:
                s = sum(w * u[j] for w, u in zip(weights, column[: n + 1 - j]))
                num[keys[j]] = num.get(keys[j], 0) + s * lam_pow[j]
        coeffs.append(BiPoly._make(num, den * factorial(n) * lam_den))
    return fps.Series(coeffs)


def classical_poly_bernoulli(n: int, k: int, arg: ArgLike = 0) -> BiPoly:
    """Classical poly-Bernoulli number/polynomial (no L involved)."""
    return _read(n, arg, ZERO, _polylog_over_z, k, ZERO)


def fdpb_gf(n: int, k: int, arg: ArgLike = 0) -> BiPoly:
    """Fully degenerate poly-Bernoulli value via the generating function."""
    return _read(n, arg, LAM, _polylog_over_z, k, LAM)


# k -> numerators of Kaneko's B_0^(k) .. B_N^(k) and their shared denominator
_KANEKO: dict[int, tuple[tuple[int, ...], int]] = {}


def _kaneko_row(k: int, n: int) -> tuple[tuple[int, ...], int]:
    """Kaneko's poly-Bernoulli numbers B_0^(k) .. B_N^(k), N >= n, over one denominator.

    From c^0_m = (m+1)^(-k) and c^l_m = m c^(l-1)_m - (m+1) c^(l-1)_(m+1),
    B_l^(k) = (-1)^l c^l_0 (Kaneko, "The Akiyama-Tanigawa algorithm for
    Bernoulli numbers", J. Integer Seq. 3, 2000).  Each new l starts from
    c^0_l and walks the last anti-diagonal once, to c^l_0.  For k > 0 the
    row is put over lcm(1..n+1)^k; for k <= 0 every number is an integer.
    The longest row built serves every smaller n; a longer one is built anew.
    """
    row = _KANEKO.get(k)
    if row and len(row[0]) > n:
        return row
    den = lcm(*range(1, n + 2)) ** k if k > 0 else 1
    nums, diag = [], []
    for l in range(n + 1):
        c = den // (l + 1) ** k if k > 0 else (l + 1) ** -k
        # c^j_(l-j) = (l-j) c^(j-1)_(l-j) - (l-j+1) c^(j-1)_(l-j+1), j = 1..l
        diag = [c] + [c := (l - j) * d - (l - j + 1) * c for j, d in enumerate(diag, 1)]
        nums.append(-c if l % 2 else c)
    _KANEKO[k] = row = tuple(nums), den
    return row


def _bernoulli_row(n: int) -> tuple[list[int], int]:
    """The Bernoulli numbers B_0 .. B_n over one denominator, as (-1)^l B_l^(1)."""
    nums, den = _kaneko_row(1, n)
    return [-c if l % 2 else c for l, c in enumerate(nums[: n + 1])], den


def _stirling1_weights(n: int) -> tuple[tuple[int, ...], int]:
    return stirling1_row(n), 1


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

    outer(n) builds the weights w_0 .. w_n, and row holds the numbers b_0 ..
    b_n (or more), each as integer numerators over one denominator.  At
    lam = 0 only m = n is left, with w_n = 1 in every family, so no weights
    are built.  lam is a single term, L or a rational, or _term_powers raises
    ValueError; so is arg, or the sum is built at x and arg substituted.
    Every term goes straight into one numerator dict, normalised once.
    """
    if n < 0:
        raise ValueError(f"a closed sum has no index {n}")
    arg, lam = _coerce(arg), _coerce(lam)
    if len(arg._num) > 1:
        return _closed_sum(outer, row, n, X, lam).subst_x(arg)
    lam_keys, lam_scale, lam_den = _term_powers(lam, n)
    weights, w_den = outer(n) if lam else ((1,), 1)
    nums, b_den = row
    # at arg = 0 only the l = m terms are left, with arg^0 = 1
    arg_keys, arg_scale, arg_den = _term_powers(arg, n if arg else 0)
    acc: dict[int, int] = {}
    get = acc.get
    # the weights end at w_n: all of them, or w_n = 1 alone at lam = 0
    for m, w in enumerate(weights, n + 1 - len(weights)):
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
    return _closed_sum(_stirling1_weights, _kaneko_row(k, n), n, arg, lam)


# the identity checks' memos, at L
@lru_cache(maxsize=None)
def fdpb_closed(n: int, k: int) -> BiPoly:
    """Fully degenerate poly-Bernoulli number, sum_m S1(n, m) L^(n-m) B_m^(k)."""
    return fdpb_value(n, k)


@lru_cache(maxsize=None)
def fdpb_poly(n: int, k: int) -> BiPoly:
    """The degree-n polynomial, sum_m S1(n, m) L^(n-m) B_m^(k)(x), in n^2/2 terms."""
    return fdpb_value(n, k, X)


def carlitz_value(n: int, arg: ArgLike = 0, lam: ArgLike = LAM) -> BiPoly:
    """Carlitz's degenerate Bernoulli number or polynomial at lam, as a closed sum."""
    return _closed_sum(_carlitz_row, _bernoulli_row(n), n, arg, lam)


def daehee_value(n: int, arg: ArgLike = 0, lam: ArgLike = LAM) -> BiPoly:
    """The Daehee-type degenerate value at lam, sum_m S1(n, m) lam^(n-m) B_m(arg)."""
    return _closed_sum(_stirling1_weights, _bernoulli_row(n), n, arg, lam)


def _stirling_transform(nums, p: int, q: int) -> list[int]:
    """U_n(0) for n < len(nums), where U_0 = nums and
    U_n(j) = q U_(n-1)(j+1) - (n-1) p U_(n-1)(j).

    This is the falling-factorial recurrence T_n(j) = T_(n-1)(j+1) -
    (n-1) lam T_(n-1)(j), T_0(j) = c_j, whose T_n(0) is the Stirling
    transform sum_m S1(n, m) lam^(n-m) c_m (Bernstein & Sloane, "Some
    canonical sequences of integers", Linear Algebra Appl. 226-228, 1995;
    Comtet, Advanced Combinatorics, 1974, ch. 5), put in integers for
    lam = p/q and c_j = nums[j] / D: U_n(j) = D q^n T_n(j).  Each step is
    one shrinking list of small multiples, with no S1 row.  At p = 0 the
    only weight is S1(n, n) = 1, and the rows are the numbers themselves.
    """
    if not p:
        return list(nums)
    u, rows = list(nums), []
    for n in range(len(u)):
        rows.append(u[0])
        u = [q * a - n * p * b for a, b in zip(u[1:], u)]
    return rows


def _transform_rows(row, n_max: int, lam: ArgLike) -> list[BiPoly]:
    """sum_m S1(n, m) lam^(n-m) c_m for n = 0..n_max, where row = (nums, den)
    and c_m = nums[m] / den.

    At a rational lam = p/q, row n is U_n(0) / (den q^n) by
    :func:`_stirling_transform`.  At a single term such as L, each row
    coefficient is one product, read against one power table for the
    whole table, S1(n, m) lam^(n-m) c_m.
    """
    nums, den = row
    lam = _coerce(lam)
    if lam.is_constant():
        lam = lam.constant()
        u = _stirling_transform(nums[: n_max + 1], lam.numerator, lam.denominator)
        return [BiPoly._make({0: a}, den * lam.denominator**n) for n, a in enumerate(u)]
    keys, scale, lam_den = _term_powers(lam, n_max)
    return [
        BiPoly._make(
            {keys[n - m]: s * scale[n - m] * nums[m] for m, s in enumerate(stirling1_row(n))},
            den * lam_den,
        )
        for n in range(n_max + 1)
    ]


def fdpb_rows(k: int, n_max: int, lam: ArgLike = LAM) -> list[BiPoly]:
    """The numbers beta_0^(k) .. beta_(n_max)^(k) at lam, in one sweep; at lam = 0
    they are Kaneko's numbers."""
    return _transform_rows(_kaneko_row(k, n_max), n_max, lam)


def daehee_rows(n_max: int, lam: ArgLike = LAM) -> list[BiPoly]:
    """The Daehee-type numbers at lam, n = 0..n_max, in one sweep; at lam = 0
    they are the Bernoulli numbers."""
    return _transform_rows(_bernoulli_row(n_max), n_max, lam)


def carlitz_rows(n_max: int, lam: ArgLike = LAM) -> list[BiPoly]:
    """Carlitz's numbers at lam, n = 0..n_max, in one sweep.

    Row n is lam^n b_n + n T_(n-1), from the weights of :func:`_carlitz_row`:
    T is the Stirling transform of c_m = B_(m+1)/(m+1) at lam, and b_n, the
    Bernoulli number of the second kind, that of 1/(m+1) at lam = 1.
    """
    nums, den = _bernoulli_row(n_max)
    top = lcm(*range(1, n_max + 2))
    second = _stirling_transform([top // (m + 1) for m in range(n_max + 1)], 1, 1)
    inner = [nums[m + 1] * (top // (m + 1)) for m in range(n_max)]
    tail = [ZERO] + _transform_rows((inner, den * top), n_max - 1, lam)
    keys, scale, lam_den = _term_powers(lam, n_max)
    return [BiPoly._make({keys[n]: scale[n] * second[n]}, top * lam_den) + tail[n] * n
            for n in range(n_max + 1)]


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
    """d/dx of the degree-n polynomial, read off the memoised :func:`fdpb_poly`.

    No command reads it; the name stays for perfbench's tracer label."""
    return fdpb_poly(n, k).derivative_x()


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

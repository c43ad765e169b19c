"""Truncated formal power series in t over Q[L, x].

A :class:`Series` stores exact coefficients of t^0 .. t^N (ordinary
convention, f = sum a_n t^n); everything beyond the truncation order N is
unknown, not zero.  Arithmetic results carry the minimum order of the
operands; division and composition reduce the order according to the
valuation rules documented on each operation.

All the generating functions in this library are built here.  At order N
a product, a quotient, exp (n g_n = sum k f_k g_{n-k}) and log (the
integral of f'/f) each take O(N^2) coefficient products (Brent & Kung,
J. ACM 25, 1978); composition takes about 2 sqrt(N) series products, by
baby steps and giant steps (Paterson & Stockmeyer, SIAM J. Comput. 2,
1973).  The one delicate point is that exponents and logarithms of the form
(1 + lam t)^(mu/lam) and (1/L) log(1 + Lt) are produced by closed-form
coefficient builders (:func:`degenerate_pow`, :func:`lambda_log`) so that
no coefficient ever leaves Q[L, x]; dividing literally by the scalar L
would force a rational-function ring.  :func:`degenerate_pow` takes lam,
the symbol L by default or a rational; at lam = 0 it is exp(mu t).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt

from .ring import LAM, ONE, ZERO, BiPoly, RatLike, _coerce, sum_of_products


class SeriesError(Exception):
    pass


class NonUnitLeadingCoefficient(SeriesError):
    """Divisor's leading coefficient is not a nonzero rational constant."""


class ValuationMismatch(SeriesError):
    """Dividend vanishes to lower order than the divisor."""


class NonzeroConstantTerm(SeriesError):
    """Inner series of a composition must have zero constant term."""


class BadConstantTerm(SeriesError):
    """log needs constant term 1; exp needs constant term 0."""


class OrderExceeded(SeriesError):
    """Requested a coefficient beyond the truncation order."""


class Series:
    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: list[BiPoly | RatLike] | tuple):
        if not coeffs:
            raise ValueError("a series needs at least the t^0 coefficient")
        self._coeffs = tuple(_coerce(c) for c in coeffs)

    @classmethod
    def constant(cls, value: BiPoly | RatLike, order: int) -> Series:
        return cls([value] + [ZERO] * order)

    @classmethod
    def t(cls, order: int) -> Series:
        return cls([ZERO, ONE] + [ZERO] * (order - 1))

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[BiPoly, ...]:
        return self._coeffs

    def coeff(self, n: int) -> BiPoly:
        if n > self.order:
            raise OrderExceeded(f"coefficient {n} beyond truncation order {self.order}")
        return self._coeffs[n]

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; order+1 if all vanish."""
        for n, c in enumerate(self._coeffs):
            if not c.is_zero():
                return n
        return self.order + 1

    def truncate(self, order: int) -> Series:
        if order > self.order:
            raise OrderExceeded(f"cannot extend order {self.order} to {order}")
        return Series(self._coeffs[: order + 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: Series) -> Series:
        n = min(self.order, other.order)
        return Series([self._coeffs[i] + other._coeffs[i] for i in range(n + 1)])

    def __sub__(self, other: Series) -> Series:
        n = min(self.order, other.order)
        return Series([self._coeffs[i] - other._coeffs[i] for i in range(n + 1)])

    def __neg__(self) -> Series:
        return Series([-c for c in self._coeffs])

    def __mul__(self, other: Series | BiPoly | RatLike) -> Series:
        if not isinstance(other, Series):
            c = _coerce(other)
            return Series([a * c for a in self._coeffs])
        n = min(self.order, other.order) + 1
        return Series(_product(self._coeffs[:n], other._coeffs[:n]))

    __rmul__ = __mul__

    def __truediv__(self, other: Series) -> Series:
        return series_div(self, other)

    def __repr__(self) -> str:
        return f"Series({[str(c) for c in self._coeffs]})"


def series_div(f: Series, g: Series) -> Series:
    """Exact quotient q with q * g = f up to order N - valuation(g).

    The divisor must begin with an invertible scalar: its first nonzero
    coefficient has to be a nonzero rational constant.
    """
    v = g.valuation()
    if v > g.order:
        raise NonUnitLeadingCoefficient("division by the zero series")
    lead = g.coeff(v)
    if not lead.is_constant():
        raise NonUnitLeadingCoefficient(f"leading coefficient {lead} is not a scalar")
    if f.valuation() < v:
        raise ValuationMismatch(
            f"dividend valuation {f.valuation()} < divisor valuation {v}"
        )
    n = min(f.order, g.order) - v
    lead_inv = Fraction(1) / lead.constant()
    fs = f.coeffs[v:]
    gs = g.coeffs[v : v + n + 1]
    q: list[BiPoly] = []
    for m in range(n + 1):
        acc = fs[m] - sum_of_products((q[i], gs[m - i]) for i in range(m))
        q.append(acc * lead_inv)
    return Series(q)


def _product(a, b) -> list[BiPoly]:
    """Coefficients of the product of two coefficient sequences of one length."""
    return [
        sum_of_products((a[i], b[m - i]) for i in range(m + 1)) for m in range(len(a))
    ]


def series_compose(outer: Series, inner: Series) -> Series:
    """Substitute inner(t) into outer, exact up to the shared order N.

    Blocks of s = ceil(sqrt(N+1)) outer coefficients are summed against
    inner^0 .. inner^(s-1) and Horner-summed in inner^s, which vanishes to
    order s, so the sum above block j is needed only to order N - (j+1)s.
    """
    if not inner.coeff(0).is_zero():
        raise NonzeroConstantTerm("inner series must have zero constant term")
    n = min(outer.order, inner.order)
    s = isqrt(n) + 1
    step = inner.coeffs[: n + 1]
    powers = [[ONE] + [ZERO] * n]
    while len(powers) <= s:
        powers.append(_product(powers[-1], step))
    giant = powers.pop()[s:]
    c = outer.coeffs[: n + 1]
    above: list[BiPoly] = []
    for j in range(n // s, -1, -1):
        base = j * s
        out = []
        for m in range(n - base + 1):
            pairs = [(c[base + i], powers[i][m]) for i in range(min(s, m + 1))]
            pairs += [(above[i], giant[m - s - i]) for i in range(m - s + 1)]
            out.append(sum_of_products(pairs))
        above = out
    return Series(out)


def series_log(f: Series) -> Series:
    """log f = integral of f'/f: one series division, O(N^2) coefficient products."""
    if f.coeff(0) != ONE:
        raise BadConstantTerm("log needs constant term 1")
    if f.order == 0:
        return Series([ZERO])
    return series_integrate(series_div(series_derivative(f), f))


def series_exp(f: Series) -> Series:
    """g = exp f by n g_n = sum_{k=1}^{n} k f_k g_{n-k} (Brent & Kung), O(N^2)."""
    if not f.coeff(0).is_zero():
        raise BadConstantTerm("exp needs constant term 0")
    df = [c * k for k, c in enumerate(f.coeffs)]
    g = [ONE]
    for m in range(1, f.order + 1):
        g.append(sum_of_products((df[k], g[m - k]) for k in range(1, m + 1)) / m)
    return Series(g)


def series_integrate(f: Series) -> Series:
    """Formal antiderivative from 0; the order grows by one (it is exact)."""
    return Series([ZERO] + [c / (n + 1) for n, c in enumerate(f.coeffs)])


def series_derivative(f: Series) -> Series:
    """Termwise d/dt; the order drops by one, so order 0 has no derivative."""
    if f.order == 0:
        raise OrderExceeded("an order-0 series does not know its t^1 coefficient")
    return Series([c * (n + 1) for n, c in enumerate(f.coeffs[1:])])


def degenerate_pow(mu: BiPoly | RatLike, order: int, lam: BiPoly | RatLike = LAM) -> Series:
    """The series (1 + lam t)^(mu/lam), built without dividing by lam.

    Its EGF coefficient n is the generalized falling factorial
    mu (mu - lam) ... (mu - (n-1) lam); at lam = 0 the series is exp(mu t).
    """
    mu, lam = _coerce(mu), _coerce(lam)
    coeffs = []
    acc = ONE
    for n in range(order + 1):
        coeffs.append(acc / factorial(n))
        acc = acc * (mu - lam * n)
    return Series(coeffs)


def lambda_log(order: int) -> Series:
    """The series (1/L) log(1 + Lt) = sum (-1)^(n-1) L^(n-1) t^n / n."""
    return Series(
        [ZERO] + [BiPoly({(n - 1, 0): Fraction((-1) ** (n - 1), n)}) for n in range(1, order + 1)]
    )


def egf_coeff(f: Series, n: int) -> BiPoly:
    """EGF-normalized coefficient n, i.e. n! times the ordinary one."""
    return f.coeff(n) * factorial(n)


"""Exact arithmetic in Q[L, x].

Every coefficient in the library lives in the bivariate polynomial ring
over the rationals, with two formal variables: the degeneracy parameter
(printed as ``L``) and the polynomial argument ``x``.  Scalars are
ints or ``Fraction``s, read through ``numerator`` and ``denominator``.

A :class:`BiPoly` stores integer numerators over one shared denominator:
a sparse map from term keys to nonzero ``int`` numerators, and one
positive ``int`` denominator.  The key of the term L^l x^d is the single
int ``d << 32 | l``, made from exponents only by :func:`_key`, so
multiplying two terms adds their keys.  The pair is kept canonical (no
zero numerators, and the gcd of the denominator and every numerator is
1), so structural equality and hashing are exact.  Each operation works
in integers and normalises its result once, with a single gcd;
:func:`sum_of_products`, the one product kernel, does the same for a
whole sum of products.  The public methods take and hand out exponent
pairs ``(L-degree, x-degree)`` and ``Fraction`` coefficients.

Values are immutable after construction and safe to share.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm

Rat = Fraction

RatLike = int | Fraction

Key = tuple[int, int]

# the term L^l x^d is stored under the int d << _XBITS | l: the product of
# two terms is the sum of their keys, and descending keys run by x-degree
# then L-degree; L-degrees stay far below 2**_XBITS
_XBITS = 32
_LMASK = (1 << _XBITS) - 1


def _key(l_deg: int, x_deg: int) -> int:
    return x_deg << _XBITS | l_deg


def _canonical(num: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """Drop zero numerators and divide out the common gcd (``den > 0``)."""
    if 0 in num.values():
        num = {key: c for key, c in num.items() if c}
    if not num:
        return num, 1
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {key: c // g for key, c in num.items()}
            den //= g
    return num, den


class _Coefficients(Mapping):
    """Read-only view of a polynomial's coefficients as ``Fraction``."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict[int, int], den: int):
        self._num = num
        self._den = den

    def __getitem__(self, key: Key) -> Fraction:
        return Fraction(self._num[_key(*key)], self._den)

    def __iter__(self):
        return ((key & _LMASK, key >> _XBITS) for key in self._num)

    def __len__(self) -> int:
        return len(self._num)


class BiPoly:
    """Sparse bivariate polynomial with exact rational coefficients.

    Coefficient ``(l_deg, x_deg)`` is ``_num[_key(l_deg, x_deg)] / _den``,
    in the canonical form described in the module docstring.
    """

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, terms: dict[Key, RatLike] | None = None):
        coeffs = {_key(*key): c for key, c in terms.items()} if terms else {}
        if coeffs and min(coeffs) < 0:
            # a key is negative exactly when one of its exponents is
            raise ValueError(f"negative exponent in {sorted(terms)}")
        try:
            den = lcm(*(c.denominator for c in coeffs.values()))
        except AttributeError:
            raise TypeError(f"a coefficient of {terms} is not an int or a Fraction") from None
        num = {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}
        self._num, self._den = _canonical(num, den)

    @classmethod
    def _make(cls, num: dict[int, int], den: int) -> BiPoly:
        """The polynomial num / den, from integer numerators and den > 0."""
        p = object.__new__(cls)
        p._num, p._den = _canonical(num, den)
        return p

    @classmethod
    def const(cls, value: RatLike) -> BiPoly:
        return cls({(0, 0): value})

    @property
    def terms(self) -> dict[Key, Fraction]:
        return dict(self.items())

    def items(self):
        """Sized view of ``((l_deg, x_deg), coeff)`` pairs, built lazily."""
        return _Coefficients(self._num, self._den).items()

    def coeff(self, l_deg: int, x_deg: int) -> Fraction:
        return Fraction(self._num.get(_key(l_deg, x_deg), 0), self._den)

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return all(key == 0 for key in self._num)

    def is_lambda_free(self) -> bool:
        return all(key & _LMASK == 0 for key in self._num)

    def constant(self) -> Fraction:
        """The rational value of a constant polynomial.

        Raises ValueError if any non-constant term is present.
        """
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.coeff(0, 0)

    def lambda_degree(self) -> int:
        return max((key & _LMASK for key in self._num), default=0)

    def x_degree(self) -> int:
        return max(self._num, default=0) >> _XBITS

    def x_coeff(self, x_deg: int) -> BiPoly:
        """Coefficient of x**x_deg, as a polynomial in L only."""
        return BiPoly._make(
            {key & _LMASK: c for key, c in self._num.items() if key >> _XBITS == x_deg},
            self._den,
        )

    def x_coeffs(self) -> list[BiPoly]:
        """The coefficients of x^0 .. x^x_degree(), found in one scan."""
        parts: list[dict[int, int]] = [{} for _ in range(self.x_degree() + 1)]
        for key, c in self._num.items():
            parts[key >> _XBITS][key & _LMASK] = c
        return [BiPoly._make(num, self._den) for num in parts]

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = BiPoly.const(other)
        if isinstance(other, BiPoly):
            return self._den == other._den and self._num == other._num
        return NotImplemented

    def __hash__(self) -> int:
        # computed on first use and kept: memo caches keyed by a BiPoly
        # hash it on every lookup
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self._den, frozenset(self._num.items())))
            return self._hash

    def _plus(self, other: BiPoly, sign: int) -> BiPoly:
        """self + sign * other, over the lcm of the two denominators."""
        den = lcm(self._den, other._den)
        scale_a = den // self._den
        scale_b = sign * (den // other._den)
        num = {key: c * scale_a for key, c in self._num.items()}
        get = num.get
        for key, c in other._num.items():
            num[key] = get(key, 0) + c * scale_b
        return BiPoly._make(num, den)

    def __add__(self, other: BiPoly | RatLike) -> BiPoly:
        return self._plus(_coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> BiPoly:
        return BiPoly._make({key: -c for key, c in self._num.items()}, self._den)

    def __sub__(self, other: BiPoly | RatLike) -> BiPoly:
        return self._plus(_coerce(other), -1)

    def __rsub__(self, other: RatLike) -> BiPoly:
        return _coerce(other) - self

    def __mul__(self, other: BiPoly | RatLike) -> BiPoly:
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            g = gcd(self._den, p)  # den // g and p // g share no factor
            num = self._num if p == g else {key: v * (p // g) for key, v in self._num.items()}
            return BiPoly._make(num, self._den // g * q)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return sum_of_products(((self, other),))

    __rmul__ = __mul__

    def __truediv__(self, scalar: RatLike) -> BiPoly:
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        p, q = scalar.numerator, scalar.denominator
        if not p:
            raise ZeroDivisionError("division by zero")
        if p < 0:
            p, q = -p, -q
        num = self._num if q == 1 else {key: c * q for key, c in self._num.items()}
        return BiPoly._make(num, self._den * p)

    def __pow__(self, n: int) -> BiPoly:
        if n < 0:
            raise ValueError("negative powers are not defined in Q[L, x]")
        return falling_product(self, n, ZERO)

    def eval_at(self, lam: RatLike) -> BiPoly:
        """Substitute a rational value for L; the result is a polynomial in x."""
        if not isinstance(lam, (int, Fraction)):
            raise TypeError(f"lambda {lam!r} is not an int or a Fraction")
        _, l_pow, scale = _term_powers(lam, self.lambda_degree())
        num: dict[int, int] = {}
        for key, c in self._num.items():
            x_key = key & ~_LMASK
            num[x_key] = num.get(x_key, 0) + c * l_pow[key & _LMASK]
        return BiPoly._make(num, self._den * scale)

    def subst_x(self, replacement: BiPoly | RatLike) -> BiPoly:
        """Substitute a polynomial for x (e.g. the shift x -> x + L)."""
        powers = _falling_rows(replacement, self.x_degree(), ZERO)
        return sum_of_products(zip(self.x_coeffs(), powers))

    def derivative_x(self) -> BiPoly:
        return BiPoly._make(
            {
                key - (1 << _XBITS): c * (key >> _XBITS)
                for key, c in self._num.items()
                if key >> _XBITS
            },
            self._den,
        )

    def integrate_x_unit(self) -> BiPoly:
        """Definite integral over x in [0, 1]; result is a polynomial in L."""
        scale = lcm(*((key >> _XBITS) + 1 for key in self._num))
        num: dict[int, int] = {}
        for key, c in self._num.items():
            ld = key & _LMASK
            num[ld] = num.get(ld, 0) + c * (scale // ((key >> _XBITS) + 1))
        return BiPoly._make(num, self._den * scale)

    def __repr__(self) -> str:
        return f"BiPoly({canonical_string(self)!r})"

    def __str__(self) -> str:
        return canonical_string(self)


def _coerce(value: BiPoly | RatLike) -> BiPoly:
    if isinstance(value, BiPoly):
        return value
    return BiPoly.const(value)


def _term_powers(term: BiPoly | RatLike, top: int) -> tuple[list[int], list[int], int]:
    """term^j = nums[j] * (the monomial keyed keys[j]) / den, for j = 0..top.

    The ring's one table of powers of a single term c L^l x^d, such as L,
    x, a rational or 0 (whose 0th power is 1): with c = p/q, nums[j] is
    p^j q^(top - j) and den is q^top, all integers over one denominator.
    A sum of terms raises ValueError.
    """
    term = _coerce(term)
    if len(term._num) > 1:
        raise ValueError(f"not a single term (L, x, a rational, ...): {term}")
    ((key, p),) = term._num.items() or [(0, 0)]
    p_pow, q_pow = [1], [1]
    for _ in range(top):
        p_pow.append(p_pow[-1] * p)
        q_pow.append(q_pow[-1] * term._den)
    nums = [p_pow[j] * q_pow[top - j] for j in range(top + 1)]
    return [key * j for j in range(top + 1)], nums, q_pow[top]


def sum_of_products(pairs: Iterable[tuple[BiPoly, BiPoly]]) -> BiPoly:
    """The sum of a * b over the pairs, normalised once.

    Every product is accumulated in integers over the lcm of the products'
    denominators, so the whole sum costs one gcd, not one per term; the
    product of two terms is keyed by the sum of their keys.  This is the
    ring's one product kernel: BiPoly multiplication, subst_x and every
    series operation go through it.
    """
    pairs = [(a, b) for a, b in pairs if a._num and b._num]
    den = lcm(*(a._den * b._den for a, b in pairs))
    acc: dict[int, int] = {}
    get = acc.get
    for a, b in pairs:
        scale = den // (a._den * b._den)
        ta, tb = a._num.items(), b._num.items()
        if len(ta) > len(tb):
            ta, tb = tb, ta
        for ka, ca in ta:
            ca *= scale
            for kb, cb in tb:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
    return BiPoly._make(acc, den)


ZERO = BiPoly()
ONE = BiPoly.const(1)
LAM = BiPoly({(1, 0): 1})
X = BiPoly({(0, 1): 1})


def grow(rows: list, n: int, step):
    """Row n of a table whose row i is step(row i - 1, i); the missing rows are
    appended to ``rows`` in a loop from its last row, so they cost no stack depth."""
    if n < 0:
        raise ValueError(f"a table has no row {n}")
    while len(rows) <= n:
        rows.append(step(rows[-1], len(rows)))
    return rows[n]


# (mu, lam) -> [(mu|lam)_0, (mu|lam)_1, ...], grown by falling_product
_falling: dict[tuple[BiPoly, BiPoly], list[BiPoly]] = {}


def _falling_rows(mu: BiPoly | RatLike, n: int, lam: BiPoly | RatLike) -> list[BiPoly]:
    """The table's own list (mu|lam)_0, (mu|lam)_1, ..., grown to row n; read, never change it."""
    mu, lam = _coerce(mu), _coerce(lam)
    rows = _falling.setdefault((mu, lam), [ONE])
    grow(rows, n, lambda prev, i: prev * (mu - lam * (i - 1)))
    return rows


def falling_product(mu: BiPoly | RatLike, n: int, lam: BiPoly | RatLike = LAM) -> BiPoly:
    """The degenerate falling factorial (mu|lam)_n = mu (mu - lam) ... (mu - (n-1) lam),
    n! [t^n] (1 + lam t)^(mu/lam); at lam = 0 the power mu^n, which ``**`` and
    subst_x read.  Every (mu, lam) keeps its rows for the life of the process."""
    return _falling_rows(mu, n, lam)[n]


@contextmanager
def _all_digits():
    """Lift the interpreter's limit on int/str conversions (4,300 digits by
    default where it exists), restoring it on exit, so values print exactly."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _term_string(l_deg: int, x_deg: int, num: int, den: int) -> str:
    """One term num/den * L^l_deg * x^x_deg; num/den is reduced here."""
    if den != 1:
        g = gcd(num, den)
        num, den = num // g, den // g
    coeff = str(num) if den == 1 else f"{num}/{den}"
    if l_deg == 0 and x_deg == 0:
        return coeff
    parts = []
    if num != 1 or den != 1:
        parts.append(coeff if num > 0 and den == 1 else f"({coeff})")
    if l_deg:
        parts.append("L" if l_deg == 1 else f"L^{l_deg}")
    if x_deg:
        parts.append("x" if x_deg == 1 else f"x^{x_deg}")
    return "*".join(parts)


@_all_digits()
def canonical_string(p: BiPoly) -> str:
    """Deterministic rendering: terms by x-degree then L-degree, descending."""
    if p.is_zero():
        return "0"
    return " + ".join(
        _term_string(key & _LMASK, key >> _XBITS, p._num[key], p._den)
        for key in sorted(p._num, reverse=True)
    )


@_all_digits()
def parse_poly(text: str) -> BiPoly:
    """Parse the grammar produced by canonical_string."""
    text = text.strip()
    if text == "0":
        return ZERO
    terms: dict[Key, Fraction] = {}
    for term in text.split(" + "):
        coeff = Fraction(1)
        l_deg = 0
        x_deg = 0
        for factor in term.split("*"):
            factor = factor.strip()
            if factor.startswith("(") and factor.endswith(")"):
                coeff *= Fraction(factor[1:-1])
            elif factor == "L":
                l_deg += 1
            elif factor.startswith("L^"):
                l_deg += int(factor[2:])
            elif factor == "x":
                x_deg += 1
            elif factor.startswith("x^"):
                x_deg += int(factor[2:])
            else:
                coeff *= Fraction(factor)
        key = (l_deg, x_deg)
        terms[key] = terms.get(key, 0) + coeff
    return BiPoly(terms)

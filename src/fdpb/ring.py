"""Exact arithmetic in Q[L, x].

Every coefficient in the library lives in the bivariate polynomial ring
over the rationals, with two formal variables: the degeneracy parameter
(printed as ``L``) and the polynomial argument ``x``.  Scalars are
``fractions.Fraction``.

A :class:`BiPoly` stores integer numerators over one shared denominator:
a sparse map from exponent pairs ``(L-degree, x-degree)`` to nonzero
``int`` numerators, and one positive ``int`` denominator.  The pair is
kept canonical (no zero numerators, and the gcd of the denominator and
every numerator is 1), so structural equality and hashing are exact.
Each operation works in integers and normalises its result once, with a
single gcd; :func:`sum_of_products` does the same for a whole sum of
products.  Series multiplication and division, where such sums are the
inner loop, pack each coefficient once (``_pack``) and sum the packed
pairs (``_sum_packed``).
Coefficients are handed out as ``Fraction``.

Values are immutable after construction and safe to share.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Rat = Fraction

RatLike = int | Fraction

Key = tuple[int, int]

# products pack a key (l, x) into the int l << _XBITS | x, so that adding
# two keys is one integer addition; x-degrees stay far below 2**_XBITS
_XBITS = 32
_XMASK = (1 << _XBITS) - 1


def _rat(value: RatLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _canonical(num: dict[Key, int], den: int) -> tuple[dict[Key, int], int]:
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

    def __init__(self, num: dict[Key, int], den: int):
        self._num = num
        self._den = den

    def __getitem__(self, key: Key) -> Fraction:
        return Fraction(self._num[key], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self) -> int:
        return len(self._num)


class BiPoly:
    """Sparse bivariate polynomial with exact rational coefficients.

    Coefficient ``(l_deg, x_deg)`` is ``_num[(l_deg, x_deg)] / _den``,
    in the canonical form described in the module docstring.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: dict[Key, RatLike] | None = None):
        rats = {key: _rat(c) for key, c in terms.items()} if terms else {}
        den = lcm(*(c.denominator for c in rats.values()))
        num = {key: c.numerator * (den // c.denominator) for key, c in rats.items()}
        self._num, self._den = _canonical(num, den)

    @classmethod
    def _make(cls, num: dict[Key, int], den: int) -> BiPoly:
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
        return Fraction(self._num.get((l_deg, x_deg), 0), self._den)

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return all(key == (0, 0) for key in self._num)

    def is_lambda_free(self) -> bool:
        return all(ld == 0 for ld, _ in self._num)

    def constant(self) -> Fraction:
        """The rational value of a constant polynomial.

        Raises ValueError if any non-constant term is present.
        """
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.coeff(0, 0)

    def lambda_degree(self) -> int:
        return max((ld for ld, _ in self._num), default=0)

    def x_degree(self) -> int:
        return max((xd for _, xd in self._num), default=0)

    def x_coeff(self, x_deg: int) -> BiPoly:
        """Coefficient of x**x_deg, as a polynomial in L only."""
        return BiPoly._make(
            {(ld, 0): c for (ld, xd), c in self._num.items() if xd == x_deg}, self._den
        )

    def x_coeffs(self) -> list[BiPoly]:
        """The coefficients of x^0 .. x^x_degree(), found in one scan."""
        parts: list[dict[Key, int]] = [{} for _ in range(self.x_degree() + 1)]
        for (ld, xd), c in self._num.items():
            parts[xd][(ld, 0)] = c
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
        return hash((self._den, frozenset(self._num.items())))

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
            c = _rat(other)
            return BiPoly._make(
                {key: v * c.numerator for key, v in self._num.items()},
                self._den * c.denominator,
            )
        if not isinstance(other, BiPoly):
            return NotImplemented
        return sum_of_products(((self, other),))

    __rmul__ = __mul__

    def __truediv__(self, scalar: RatLike) -> BiPoly:
        return self * (Fraction(1) / _rat(scalar))

    def __pow__(self, n: int) -> BiPoly:
        if n < 0:
            raise ValueError("negative powers are not defined in Q[L, x]")
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def eval_at(self, lam: RatLike | None = None, x: RatLike | None = None) -> BiPoly:
        """Substitute rational values for L and/or x.

        Either, both, or neither substitution may be requested; the result
        is a polynomial in the remaining variables.
        """
        den = self._den
        l_pow = x_pow = None
        if lam is not None:
            l_pow, scale = _scaled_powers(_rat(lam), self.lambda_degree())
            den *= scale
        if x is not None:
            x_pow, scale = _scaled_powers(_rat(x), self.x_degree())
            den *= scale
        num: dict[Key, int] = {}
        for (ld, xd), c in self._num.items():
            if l_pow is not None:
                c *= l_pow[ld]
                ld = 0
            if x_pow is not None:
                c *= x_pow[xd]
                xd = 0
            key = (ld, xd)
            num[key] = num.get(key, 0) + c
        return BiPoly._make(num, den)

    def subst_x(self, replacement: BiPoly | RatLike) -> BiPoly:
        """Substitute a polynomial for x (e.g. the shift x -> x + L)."""
        replacement = _coerce(replacement)
        powers = [ONE]
        for _ in range(self.x_degree()):
            powers.append(powers[-1] * replacement)
        return sum_of_products(zip(self.x_coeffs(), powers))

    def derivative_x(self) -> BiPoly:
        return BiPoly._make(
            {(ld, xd - 1): c * xd for (ld, xd), c in self._num.items() if xd > 0},
            self._den,
        )

    def integrate_x_unit(self) -> BiPoly:
        """Definite integral over x in [0, 1]; result is a polynomial in L."""
        scale = lcm(*(xd + 1 for _, xd in self._num))
        num: dict[Key, int] = {}
        for (ld, xd), c in self._num.items():
            key = (ld, 0)
            num[key] = num.get(key, 0) + c * (scale // (xd + 1))
        return BiPoly._make(num, self._den * scale)

    def div_exact_lambda(self) -> BiPoly:
        """Divide by L, requiring every term to carry a factor of L."""
        if any(ld == 0 for ld, _ in self._num):
            raise ValueError(f"not divisible by L: {self}")
        return BiPoly._make(
            {(ld - 1, xd): c for (ld, xd), c in self._num.items()}, self._den
        )

    def __repr__(self) -> str:
        return f"BiPoly({canonical_string(self)!r})"

    def __str__(self) -> str:
        return canonical_string(self)


def _coerce(value: BiPoly | RatLike) -> BiPoly:
    if isinstance(value, BiPoly):
        return value
    return BiPoly.const(value)


def _scaled_powers(value: Fraction, top: int) -> tuple[list[int], int]:
    """p**d * q**(top - d) for d = 0..top, and q**top, where value = p/q."""
    p, q = value.numerator, value.denominator
    p_pow = [1]
    q_pow = [1]
    for _ in range(top):
        p_pow.append(p_pow[-1] * p)
        q_pow.append(q_pow[-1] * q)
    return [p_pow[d] * q_pow[top - d] for d in range(top + 1)], q_pow[top]


Packed = tuple[list[tuple[int, int]], int]


def _pack(p: BiPoly) -> Packed:
    """p's (packed key, numerator) pairs and its denominator, for _accumulate."""
    return [((l << _XBITS) | x, c) for (l, x), c in p._num.items()], p._den


def _accumulate(pairs: Iterable[tuple[Packed, Packed]], den: int) -> BiPoly:
    """The sum of a * b over packed pairs, over den (a multiple of each da * db)."""
    acc: dict[int, int] = {}
    get = acc.get
    for (ta, da), (tb, db) in pairs:
        if len(ta) > len(tb):
            ta, tb = tb, ta
        scale = den // (da * db)
        for ka, ca in ta:
            ca *= scale
            for kb, cb in tb:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
    return BiPoly._make({(k >> _XBITS, k & _XMASK): c for k, c in acc.items()}, den)


def _sum_packed(pairs: list[tuple[Packed, Packed]]) -> BiPoly:
    """The sum of a * b over pairs of packed polynomials, normalised once."""
    den = lcm(*(da * db for (ta, da), (tb, db) in pairs if ta and tb))
    return _accumulate(pairs, den)


def sum_of_products(pairs: Iterable[tuple[BiPoly, BiPoly]]) -> BiPoly:
    """The sum of a * b over the pairs, normalised once.

    Every product is accumulated in integers over the lcm of the products'
    denominators, so the whole sum costs one gcd, not one per term.  Each
    factor is packed only while its product is summed; series code, which
    reuses every coefficient in many sums, packs them once and calls
    _sum_packed.
    """
    pairs = [(a, b) for a, b in pairs if a._num and b._num]
    den = lcm(*(a._den * b._den for a, b in pairs))
    return _accumulate(((_pack(a), _pack(b)) for a, b in pairs), den)


ZERO = BiPoly()
ONE = BiPoly.const(1)
LAM = BiPoly({(1, 0): 1})
X = BiPoly({(0, 1): 1})


@lru_cache(maxsize=None)
def falling_product(mu: BiPoly | RatLike, n: int) -> BiPoly:
    """Generalized falling factorial mu * (mu - L) * ... * (mu - (n-1) L)."""
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    if n == 0:
        return ONE
    mu = _coerce(mu)
    return falling_product(mu, n - 1) * (mu - LAM * (n - 1))


def _term_string(l_deg: int, x_deg: int, c: Fraction) -> str:
    if l_deg == 0 and x_deg == 0:
        return str(c)
    parts = []
    if c != 1:
        token = str(c)
        if c < 0 or c.denominator != 1:
            token = f"({token})"
        parts.append(token)
    if l_deg:
        parts.append("L" if l_deg == 1 else f"L^{l_deg}")
    if x_deg:
        parts.append("x" if x_deg == 1 else f"x^{x_deg}")
    return "*".join(parts)


def canonical_string(p: BiPoly) -> str:
    """Deterministic rendering: terms by x-degree then L-degree, descending."""
    if p.is_zero():
        return "0"
    keys = sorted(p._num, key=lambda k: (-k[1], -k[0]))
    return " + ".join(
        _term_string(ld, xd, Fraction(p._num[(ld, xd)], p._den)) for ld, xd in keys
    )


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

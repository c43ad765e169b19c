"""Reference model of the ring: the Fraction-dict ``BiPoly``.

This is the arithmetic ``fdpb.ring`` used before it moved to integer
numerators over one shared denominator.  Each coefficient is its own
``Fraction``, normalised on every operation, so it is slow but plainly
correct; the property tests compare the production ring against it.
"""

from __future__ import annotations

from fractions import Fraction

Rat = Fraction

RatLike = int | Fraction


def _rat(value: RatLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class BiPoly:
    """Sparse bivariate polynomial with exact rational coefficients.

    Terms are stored as ``{(l_deg, x_deg): coeff}`` with no zero
    coefficients, so structural equality is canonical.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[int, int], RatLike] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (ld, xd), c in terms.items():
                c = _rat(c)
                if c:
                    clean[(ld, xd)] = c
        self._terms = clean

    @classmethod
    def const(cls, value: RatLike) -> BiPoly:
        return cls({(0, 0): value})

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        return dict(self._terms)

    def items(self):
        """Iterate ``((l_deg, x_deg), coeff)`` pairs without copying."""
        return self._terms.items()

    def coeff(self, l_deg: int, x_deg: int) -> Fraction:
        return self._terms.get((l_deg, x_deg), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(key == (0, 0) for key in self._terms)

    def is_lambda_free(self) -> bool:
        return all(ld == 0 for ld, _ in self._terms)

    def constant(self) -> Fraction:
        """The rational value of a constant polynomial.

        Raises ValueError if any non-constant term is present.
        """
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self._terms.get((0, 0), Fraction(0))

    def lambda_degree(self) -> int:
        return max((ld for ld, _ in self._terms), default=0)

    def x_degree(self) -> int:
        return max((xd for _, xd in self._terms), default=0)

    def x_coeff(self, x_deg: int) -> BiPoly:
        """Coefficient of x**x_deg, as a polynomial in L only."""
        return BiPoly({(ld, 0): c for (ld, xd), c in self._terms.items() if xd == x_deg})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BiPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == BiPoly.const(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: BiPoly | RatLike) -> BiPoly:
        other = _coerce(other)
        terms = dict(self._terms)
        for key, c in other._terms.items():
            prev = terms.get(key)
            terms[key] = c if prev is None else prev + c
        return BiPoly(terms)

    __radd__ = __add__

    def __neg__(self) -> BiPoly:
        return BiPoly({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: BiPoly | RatLike) -> BiPoly:
        return self + (-_coerce(other))

    def __rsub__(self, other: RatLike) -> BiPoly:
        return _coerce(other) - self

    def __mul__(self, other: BiPoly | RatLike) -> BiPoly:
        if isinstance(other, (int, Fraction)):
            c = _rat(other)
            return BiPoly({key: v * c for key, v in self._terms.items()})
        if not isinstance(other, BiPoly):
            return NotImplemented
        terms: dict[tuple[int, int], Fraction] = {}
        for (la, xa), ca in self._terms.items():
            for (lb, xb), cb in other._terms.items():
                key = (la + lb, xa + xb)
                prev = terms.get(key)
                prod = ca * cb
                terms[key] = prod if prev is None else prev + prod
        return BiPoly(terms)

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
        terms: dict[tuple[int, int], Fraction] = {}
        for (ld, xd), c in self._terms.items():
            if lam is not None:
                c = c * _rat(lam) ** ld
                ld = 0
            if x is not None:
                c = c * _rat(x) ** xd
                xd = 0
            key = (ld, xd)
            terms[key] = terms.get(key, Fraction(0)) + c
        return BiPoly(terms)

    def subst_x(self, replacement: BiPoly | RatLike) -> BiPoly:
        """Substitute a polynomial for x (e.g. the shift x -> x + L)."""
        replacement = _coerce(replacement)
        powers: dict[int, BiPoly] = {0: ONE}
        out = ZERO
        for (ld, xd), c in sorted(self._terms.items()):
            while xd not in powers:
                top = max(powers)
                powers[top + 1] = powers[top] * replacement
            out = out + BiPoly({(ld, 0): c}) * powers[xd]
        return out

    def derivative_x(self) -> BiPoly:
        return BiPoly(
            {(ld, xd - 1): c * xd for (ld, xd), c in self._terms.items() if xd > 0}
        )

    def integrate_x_unit(self) -> BiPoly:
        """Definite integral over x in [0, 1]; result is a polynomial in L."""
        out = ZERO
        for (ld, xd), c in self._terms.items():
            out = out + BiPoly({(ld, 0): c / (xd + 1)})
        return out

    def __repr__(self) -> str:
        return f"BiPoly({canonical_string(self)!r})"

    def __str__(self) -> str:
        return canonical_string(self)


def _coerce(value: BiPoly | RatLike) -> BiPoly:
    if isinstance(value, BiPoly):
        return value
    return BiPoly.const(value)


ZERO = BiPoly()
ONE = BiPoly.const(1)
LAM = BiPoly({(1, 0): 1})
X = BiPoly({(0, 1): 1})


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
    keys = sorted(p._terms, key=lambda k: (-k[1], -k[0]))
    return " + ".join(_term_string(ld, xd, p._terms[(ld, xd)]) for ld, xd in keys)


def parse_poly(text: str) -> BiPoly:
    """Parse the grammar produced by canonical_string."""
    text = text.strip()
    if text == "0":
        return ZERO
    out = ZERO
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
        out = out + BiPoly({(l_deg, x_deg): coeff})
    return out

"""Executable identity checks with counterexample reporting.

Every identity is verified as an exact equality of bivariate polynomials
(simultaneously in L and x), never at sampled numeric points.  Each cell
compares two independent routes, so either side can fail on its own: the
addition formula is compared power by power of its shift variable y, the
negative-index formula against a route through Stirling numbers of the
second kind alone, and S1(j, e) L^(j-e) is read off the ring's (x|L)_j, not
from the S1 rows that weight the closed sums.
"""

from __future__ import annotations

from enum import Enum
from math import comb, factorial, lcm
from operator import mul
from typing import Iterator, NamedTuple, Optional

from . import families as fam
from . import fps, umbral
from .ring import (
    LAM,
    ONE,
    X,
    ZERO,
    BiPoly,
    canonical_string,
    falling_product,
    sum_of_products,
)
from .sequences import stirling2


class UnknownIdentity(Exception):
    pass


class EmptyRange(ValueError):
    """The requested (n, k) box leaves an identity nothing to check."""


class Counterexample(NamedTuple):
    n: int
    k: Optional[int]
    lhs: BiPoly
    rhs: BiPoly

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "lhs": canonical_string(self.lhs),
            "rhs": canonical_string(self.rhs),
        }


class Report(NamedTuple):
    identity: IdentityId
    n_max: int
    k_min: int
    k_max: int
    status: str
    counterexample: Optional[Counterexample] = None
    error: Optional[str] = None
    cells: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        out = {
            "identity": self.identity.value,
            "params": {"n_max": self.n_max, "k_min": self.k_min, "k_max": self.k_max},
            "status": self.status,
            "counterexample": self.counterexample.to_dict() if self.counterexample else None,
        }
        return out if self.error is None else {**out, "error": self.error}


Cell = tuple[int, Optional[int], BiPoly, BiPoly]


def _cells_thm1_addition(n_max: int, ks: range) -> Iterator[Cell]:
    # beta_n(x + y) = sum_m C(n, m) beta_m(x) (y|L)_{n-m}, compared power by
    # power of y through the y^e coefficient S1(j, e) L^{j-e} of (y|L)_j; the
    # power e = 0 reads beta_n = beta_n and is left out; the weights have no k
    falling = [falling_product(X, j).x_coeffs() for j in range(n_max + 1)]
    weights = {
        (n, e): [falling[n - m][e] * comb(n, m) for m in range(n - e + 1)]
        for n in range(1, n_max + 1) for e in range(1, n + 1)
    }
    for k in ks:
        betas = [fam.fdpb_poly(m, k) for m in range(n_max + 1)]
        for n in range(1, n_max + 1):
            taylor = betas[n]
            for e in range(1, n + 1):
                taylor = taylor.derivative_x() / e
                yield n, k, taylor, sum_of_products(zip(betas, weights[n, e]))


def _cells_thm1_limit(n_max: int, ks: range) -> Iterator[Cell]:
    for k in ks:
        for n in range(n_max + 1):
            yield n, k, fam.fdpb_poly(n, k).eval_at(lam=0), fam.classical_poly_bernoulli(n, k, X)
    for n in range(n_max + 1):
        target = fam.bernoulli_poly(n)
        yield n, None, fam.carlitz_beta(n, X).eval_at(lam=0), target
        yield n, None, fam.daehee_type_b(n, X).eval_at(lam=0), target


def _cells_thm2(n_max: int, ks: range) -> Iterator[Cell]:
    # sum_l [x^l] (x|L)_n W_l, W_l = sum_{m<l} (-1)^(l-m-1) m! S2(l, m+1)
    # (m+1)^(1-k), so that it shares no table with fdpb_closed; the S2 terms
    # have no k, and per k the weights are integers over den
    terms = [
        [(-1) ** (l - m - 1) * factorial(m) * stirling2(l, m + 1) for m in range(l)]
        for l in range(n_max + 1)
    ]
    falling = [falling_product(X, n).x_coeffs() for n in range(n_max + 1)]
    for k in ks:
        if k > 1:
            den = lcm(*range(1, n_max + 1)) ** (k - 1)
            scale = [den // (m + 1) ** (k - 1) for m in range(n_max)]
        else:
            den = 1
            scale = [(m + 1) ** (1 - k) for m in range(n_max)]
        weights = [BiPoly.const(sum(map(mul, row, scale))) for row in terms]
        for n in range(1, n_max + 1):
            lhs = fam.fdpb_closed(n, k) - fam.fdpb_value(n, k, -1)
            rhs = sum_of_products(zip(falling[n][1:], weights[1:])) / den
            yield n, k, lhs, rhs


def _cells_thm3(n_max: int, ks: range) -> Iterator[Cell]:
    carlitz = [fam.carlitz_beta(l, 1) for l in range(n_max + 1)]
    daehee = [fam.daehee_type_b(j, -LAM) / (j + 1) for j in range(n_max + 1)]
    for n in range(n_max + 1):
        rhs = sum_of_products(
            (carlitz[l] * comb(n, l), daehee[n - l]) for l in range(n + 1)
        )
        yield n, 2, fam.fdpb_closed(n, 2), rhs


def _cells_thm4(n_max: int, ks: range) -> Iterator[Cell]:
    # each family's closed sum, and its table rows at L, against its generating
    # function: fdpb as numbers in L, the other four as polynomials in x (and
    # L); the two classical ones are the fdpb and Daehee closed sums at lam = 0
    for k in ks:
        rows = fam.fdpb_rows(k, n_max)
        for n in range(n_max + 1):
            gf = fam.fdpb_gf(n, k)
            yield n, k, gf, fam.fdpb_closed(n, k)
            yield n, k, fam.classical_poly_bernoulli(n, k, X), fam.fdpb_value(n, k, X, 0)
            yield n, k, gf, rows[n]
    carlitz, daehee = fam.carlitz_rows(n_max), fam.daehee_rows(n_max)
    for n in range(n_max + 1):
        yield n, None, fam.carlitz_beta(n, X), fam.carlitz_value(n, X)
        yield n, None, fam.daehee_type_b(n, X), fam.daehee_value(n, X)
        yield n, None, fam.bernoulli_poly(n), fam.daehee_value(n, X, 0)
        yield n, None, fam.carlitz_beta(n), carlitz[n]
        yield n, None, fam.daehee_type_b(n), daehee[n]


def _cells_thm5(n_max: int, ks: range) -> Iterator[Cell]:
    # the weight of beta_m in row n has no k
    weights = {
        (n, m): -falling_product(ONE, n - m + 1) * comb(n, m - 1)
        - LAM * falling_product(ONE, n - m) * (comb(n, m) * m)
        for n in range(1, n_max + 1) for m in range(1, n)
    }
    for k in ks:
        for n in range(1, n_max + 1):
            rest = sum_of_products((fam.fdpb_closed(m, k), weights[n, m]) for m in range(1, n))
            yield n, k, fam.fdpb_closed(n, k), (fam.fdpb_closed(n, k - 1) + rest) / (n + 1)


def _negative_route(n: int, k: int) -> BiPoly:
    """beta_n^(-k)(x) for k >= 0, through S2 and shifted falling factorials.

    Li_{-k}(z) = sum_j j! S2(k+1, j+1) (z/(1-z))^(j+1), and here z/(1-z)
    is (1+Lt)^(1/L) - 1, so beta_n^(-k)(x) is sum_i c_i (x+i+1|L)_n with
    c_i = sum_(j>=i) (-1)^(j-i) C(j, i) j! S2(k+1, j+1).
    """
    s2 = [factorial(j) * stirling2(k + 1, j + 1) for j in range(k + 1)]
    return sum_of_products(
        (
            BiPoly.const(sum((-1) ** (j - i) * comb(j, i) * s2[j] for j in range(i, k + 1))),
            falling_product(X + (i + 1), n),
        )
        for i in range(k + 1)
    )


def _cells_thm6(n_max: int, ks: range) -> Iterator[Cell]:
    # the second cell is Kaneko's duality B_n^(-k) = B_k^(-n) at L = 0
    for k in (k for k in ks if k >= 0):
        for n in range(n_max + 1):
            yield n, k, _negative_route(n, k), fam.fdpb_poly(n, -k)
            yield (
                n,
                k,
                fam.fdpb_closed(n, -k).eval_at(lam=0),
                fam.fdpb_closed(k, -n).eval_at(lam=0),
            )


def _cells_thm7(n_max: int, ks: range) -> Iterator[Cell]:
    # beta_n(x + L) reads the powers of x + L from the ring's table
    for k in ks:
        for n in range(1, n_max + 1):
            poly = fam.fdpb_poly(n, k)
            lhs = LAM * fam.fdpb_poly(n - 1, k)
            rhs = (poly.subst_x(X + LAM) - poly) / n
            yield n, k, lhs, rhs


def _cells_thm8(n_max: int, ks: range) -> Iterator[Cell]:
    for k in ks:
        for n in range(n_max + 1):
            direct = fam.fdpb_poly(n, k).integrate_x_unit()
            yield n, k, direct, fam.integral_unit_interval(n, k)


def _cells_eq9(n_max: int, ks: range) -> Iterator[Cell]:
    for n in range(1, n_max + 1):
        delta = ONE if n == 1 else ZERO
        yield n, None, fam.carlitz_beta(n, 1) - fam.carlitz_beta(n), delta


def _cells_eq14(n_max: int, ks: range) -> Iterator[Cell]:
    for n in range(n_max + 1):
        yield (
            n,
            1,
            fam.classical_poly_bernoulli(n, 1, X),
            fam.bernoulli_poly(n).subst_x(X + ONE),
        )


def _cells_eq38(n_max: int, ks: range) -> Iterator[Cell]:
    for n in range(n_max + 1):
        lhs = falling_product(X, n).integrate_x_unit()
        yield n, None, lhs, fam._falling_integral(n)


def _cells_deriv(n_max: int, ks: range) -> Iterator[Cell]:
    # beta_n is Sheffer for f(t) = (e^(Lt) - 1)/L, so d/dx beta_n =
    # sum_(l<n) C(n, l) <fbar | x^(n-l)> beta_l, with fbar the compositional
    # inverse (1/L) log(1 + Lt) of f (Roman, The Umbral Calculus, 1984, ch. 2);
    # the weights C(n, l) <fbar | x^(n-l)> = C(n, l) (-L)^(n-l-1) (n-l-1)!
    # have no k
    fbar = fps.lambda_log(n_max)
    pairings = [umbral.pair(fbar, X ** j) for j in range(n_max + 1)]
    weights = [[pairings[n - l] * comb(n, l) for l in range(n)] for n in range(n_max + 1)]
    for k in ks:
        betas = [fam.fdpb_poly(n, k) for n in range(n_max + 1)]
        for n in range(n_max + 1):
            yield n, k, sum_of_products(zip(weights[n], betas)), betas[n].derivative_x()


def _cells_eq60(n_max: int, ks: range) -> Iterator[Cell]:
    for k in ks:
        for n in range(n_max + 1):
            # every L-dependent summand of the right side must cancel
            yield n, k, fam.classical_poly_bernoulli(n, k, X), umbral.eq60_connection(n, k)


def _cells_iterated(n_max: int, ks: range) -> Iterator[Cell]:
    """n = 0..n_max for every k >= 2 of ks, and always for k = 2, 3, 4."""
    k_set = sorted(set(k for k in ks if k >= 2) | {2, 3, 4})
    for k in k_set:
        series = fam.fdpb_iterated_integral(k, n_max)
        for n in range(n_max + 1):
            yield n, k, fps.egf_coeff(series, n), fam.fdpb_closed(n, k)


_CHECKERS = {
    "THM1_ADDITION": _cells_thm1_addition,
    "THM1_LIMIT": _cells_thm1_limit,
    "THM2_DIFFERENCE": _cells_thm2,
    "THM3_K2": _cells_thm3,
    "THM4_CLOSED": _cells_thm4,
    "THM5_RECURRENCE": _cells_thm5,
    "THM6_NEGATIVE": _cells_thm6,
    "THM7_DIFFERENCE_QUOTIENT": _cells_thm7,
    "THM8_INTEGRAL": _cells_thm8,
    "EQ9_DELTA": _cells_eq9,
    "EQ14_SHIFT": _cells_eq14,
    "EQ38_FALLING_INTEGRAL": _cells_eq38,
    "DERIV_FORMULA": _cells_deriv,
    "EQ60_BASIS": _cells_eq60,
    "ITERATED_INTEGRAL": _cells_iterated,
}
# the identities, in the order check_all reports them; each value is its name
IdentityId = Enum("IdentityId", [(name, name) for name in _CHECKERS])


def _coerce_identity(identity: IdentityId | str) -> IdentityId:
    if isinstance(identity, IdentityId):
        return identity
    try:
        return IdentityId(identity)
    except ValueError:
        raise UnknownIdentity(f"unknown identity {identity!r}") from None


def check(
    identity: IdentityId | str,
    n_max: int = 12,
    k_range: tuple[int, int] = (-3, 3),
) -> Report:
    """Verify one identity over the requested (n, k) box.

    Raises EmptyRange when the box is empty or holds no cell of this
    identity, so that no report can pass having checked nothing.  A series
    operation that raises inside the cells fails the report, with the error.
    """
    identity = _coerce_identity(identity)
    k_min, k_max = k_range
    if n_max < 0 or k_min > k_max:
        raise EmptyRange(f"empty box: n <= {n_max}, k in [{k_min}, {k_max}]")
    counterexample = error = n = k = None
    cells = 0
    try:
        for n, k, lhs, rhs in _CHECKERS[identity.value](n_max, range(k_min, k_max + 1)):
            cells += 1
            if lhs != rhs:
                counterexample = Counterexample(n=n, k=k, lhs=lhs, rhs=rhs)
                break
    except fps.SeriesError as exc:
        at = f"after the cell n={n}, k={k}" if cells else "before the first cell"
        error = f"{type(exc).__name__}: {exc} ({at})"
    if not cells and error is None:
        raise EmptyRange(
            f"{identity.value} has no cells to check at n <= {n_max}, k in [{k_min}, {k_max}]"
        )
    status = "pass" if counterexample is None and error is None else "fail"
    return Report(identity, n_max, k_min, k_max, status, counterexample, error, cells)


def check_all(
    n_max: int = 12,
    k_range: tuple[int, int] = (-3, 3),
) -> list[Report]:
    """Run every identity; reports come back in declaration order."""
    return [check(ident, n_max, k_range) for ident in IdentityId]

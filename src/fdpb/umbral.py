"""Linear-functional pairing and basis expansion.

A truncated series f(t) acts as a linear functional on polynomials in x
through <f | x^n> = EGF coefficient n of f.  The degree-graded family of
fully degenerate poly-Bernoulli polynomials is Sheffer for the pair

    g(t) = (1 - e^{-t}) / Li_k(1 - e^{-t}),    f(t) = (e^{Lt} - 1) / L,

so any polynomial expands uniquely in that basis; the expansion
coefficients come out of the pairing <g f^m | p> / m! and, independently,
out of a triangular back-substitution against the monic basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from . import fps
from .ring import ONE, ZERO, BiPoly, canonical_string, sum_of_products
from .families import _polylog_over_z, fdpb_poly
from .sequences import stirling2


class RouteMismatch(Exception):
    """Two supposedly equivalent computation routes disagreed."""

    def __init__(self, message: str, lhs: BiPoly, rhs: BiPoly):
        super().__init__(f"{message}: {lhs} != {rhs}")
        self.lhs = lhs
        self.rhs = rhs


def pair(f: fps.Series, p: BiPoly) -> BiPoly:
    """The pairing <f | p>, linear in both arguments.

    Requires the truncation order of f to cover the x-degree of p.
    """
    deg = p.x_degree()
    if f.order < deg:
        raise fps.OrderExceeded(
            f"functional of order {f.order} paired with degree-{deg} polynomial"
        )
    return sum_of_products((c, fps.egf_coeff(f, j)) for j, c in enumerate(p.x_coeffs()))


def sheffer_invertible(k: int, order: int) -> fps.Series:
    """g(t) = (1 - e^{-t}) / Li_k(1 - e^{-t}); order drops by one.  Li_k(z)/z is
    the classical poly-Bernoulli quotient, read from its fps.longest entry."""
    quotient = fps.longest(_polylog_over_z, k, ZERO, n=order - 1)
    return fps.series_div(fps.Series.constant(ONE, order - 1), quotient)


def sheffer_delta(order: int) -> fps.Series:
    """f(t) = (e^{Lt} - 1) / L, built coefficient-wise in Q[L]."""
    coeffs: list[BiPoly] = [ZERO]
    for n in range(1, order + 1):
        coeffs.append(BiPoly({(n - 1, 0): Fraction(1, factorial(n))}))
    return fps.Series(coeffs)


class BasisExpansion(NamedTuple):
    degree: int
    k: int
    coefficients: tuple[BiPoly, ...]

    def reconstruct(self) -> BiPoly:
        return sum_of_products(
            (a, fdpb_poly(m, self.k)) for m, a in enumerate(self.coefficients)
        )

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "k": self.k,
            "coefficients": [canonical_string(a) for a in self.coefficients],
        }


def sheffer_expand(p: BiPoly, k: int) -> BasisExpansion:
    """Expand p(x) in the degree-graded basis, by two independent routes.

    Route one applies the pairing formula a_m = <g f^m | p> / m!; route
    two peels coefficients off against the monic basis by back
    substitution.  A RouteMismatch is raised if they ever disagree.
    """
    n = p.x_degree()
    # g f^m, carried from m to m + 1 by one product with f
    functional = sheffer_invertible(k, n + 1)
    f = sheffer_delta(n + 1)
    functional_route = []
    for m in range(n + 1):
        if m:
            functional = functional * f
        functional_route.append(pair(functional, p) / factorial(m))
    triangular_route: list[BiPoly] = [ZERO] * (n + 1)
    residue = p
    for m in range(n, -1, -1):
        a = residue.x_coeff(m)
        triangular_route[m] = a
        residue = residue - a * fdpb_poly(m, k)
    if functional_route != triangular_route or not residue.is_zero():
        raise RouteMismatch(
            f"basis-expansion routes disagree for degree {n}, k={k}",
            functional_route,
            triangular_route,
        )
    return BasisExpansion(degree=n, k=k, coefficients=tuple(functional_route))


def eq60_connection(n: int, k: int) -> BiPoly:
    """Assemble sum_m L^{n-m} S2(n, m) beta_m(x); equals the classical
    poly-Bernoulli polynomial, with every L cancelling."""
    return sum_of_products(
        (BiPoly({(n - m, 0): stirling2(n, m)}), fdpb_poly(m, k)) for m in range(n + 1)
    )

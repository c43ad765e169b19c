"""Reference model of the series families: the full quotient x argument product.

These are the bodies ``fdpb.families`` used before each family was split
into an argument-free quotient series and a reader of one coefficient.
Each value multiplies the whole quotient series by the whole argument
series, caches the product per (order, argument) and reads coefficient n
of it, so it computes N + 1 coefficients to hand out one; the tests
compare the production readers against it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from fdpb import fps
from fdpb.ring import ONE, BiPoly
from fdpb.fps import work_order
from fdpb.sequences import bernoulli_series


def _as_arg(arg) -> BiPoly:
    return arg if isinstance(arg, BiPoly) else BiPoly.const(arg)


@lru_cache(maxsize=None)
def _bernoulli_series(order: int, arg: BiPoly) -> fps.Series:
    return bernoulli_series(order) * fps.degenerate_pow(arg, order, 0)


@lru_cache(maxsize=None)
def _carlitz_series(order: int, arg: BiPoly) -> fps.Series:
    denom = fps.degenerate_pow(ONE, order) - fps.Series.constant(ONE, order)
    quot = fps.series_div(fps.Series.t(order), denom)
    return quot * fps.degenerate_pow(arg, order)


@lru_cache(maxsize=None)
def _daehee_series(order: int, arg: BiPoly) -> fps.Series:
    denom = fps.degenerate_pow(ONE, order) - fps.Series.constant(ONE, order)
    quot = fps.series_div(fps.lambda_log(order), denom)
    return quot * fps.degenerate_pow(arg, order)


def _polylog_over_z(k: int, z: fps.Series) -> fps.Series:
    terms = [Fraction(m + 1) ** -k for m in range(z.order + 1)]
    return fps.series_compose(fps.Series(terms), z)


@lru_cache(maxsize=None)
def _poly_bernoulli_series(k: int, order: int, arg: BiPoly) -> fps.Series:
    z = fps.Series.constant(ONE, order) - fps.degenerate_pow(-1, order, 0)
    return _polylog_over_z(k, z) * fps.degenerate_pow(arg, order, 0)


@lru_cache(maxsize=None)
def _fdpb_series(k: int, order: int, arg: BiPoly) -> fps.Series:
    z = fps.Series.constant(ONE, order) - fps.degenerate_pow(-1, order)
    return _polylog_over_z(k, z) * fps.degenerate_pow(arg, order)


def bernoulli_poly(n: int, arg) -> BiPoly:
    return fps.egf_coeff(_bernoulli_series(work_order(n), _as_arg(arg)), n)


def carlitz_beta(n: int, arg) -> BiPoly:
    return fps.egf_coeff(_carlitz_series(work_order(n), _as_arg(arg)), n)


def daehee_type_b(n: int, arg) -> BiPoly:
    return fps.egf_coeff(_daehee_series(work_order(n), _as_arg(arg)), n)


def classical_poly_bernoulli(n: int, k: int, arg) -> BiPoly:
    return fps.egf_coeff(_poly_bernoulli_series(k, work_order(n), _as_arg(arg)), n)


def fdpb_gf(n: int, k: int, arg) -> BiPoly:
    return fps.egf_coeff(_fdpb_series(k, work_order(n), _as_arg(arg)), n)

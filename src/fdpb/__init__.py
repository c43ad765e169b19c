"""Exact-arithmetic toolkit for degenerate Bernoulli-type families.

Numbers and polynomials of the Bernoulli, Carlitz degenerate, Daehee-type
degenerate, poly-Bernoulli and fully degenerate poly-Bernoulli families,
computed exactly over Q[L, x], together with an identity-verification
harness and a small CLI.
"""

from .ring import LAM, ONE, X, ZERO, BiPoly, Rat, canonical_string, parse_poly
from .fps import Series, degenerate_pow, egf_coeff
from .sequences import (
    bernoulli,
    bernoulli_second_kind,
    gen_falling,
    polylog_series,
    stirling1,
    stirling2,
)
from .families import (
    carlitz_beta,
    carlitz_value,
    classical_poly_bernoulli,
    daehee_type_b,
    daehee_value,
    fdpb_closed,
    fdpb_gf,
    fdpb_poly,
    fdpb_value,
)
from .identities import IdentityId, Report, check, check_all

__version__ = "0.1.0"

__all__ = [
    "BiPoly", "Rat", "Series", "LAM", "ONE", "X", "ZERO",
    "canonical_string", "parse_poly", "degenerate_pow", "egf_coeff",
    "bernoulli", "bernoulli_second_kind", "gen_falling", "polylog_series",
    "stirling1", "stirling2",
    "carlitz_beta", "carlitz_value", "classical_poly_bernoulli",
    "daehee_type_b", "daehee_value",
    "fdpb_closed", "fdpb_gf", "fdpb_poly", "fdpb_value",
    "IdentityId", "Report", "check", "check_all",
]

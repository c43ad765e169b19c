"""The two forms of a family: rows and polynomials in L, numbers at a constant lambda.

``table`` reads rows 0..n_max in one sweep (``cli.table_rows``).  At L each
row is one product per coefficient against the S1 rows.  At a constant
lambda, 0 included, the family's numbers come as integer numerators from
the Stirling transform, a falling-factorial recurrence with no S1 row.
Every row must equal the family's closed sum at that n and x = 0, and the
numbers must equal the family's generating function in L evaluated at
lambda, a route that shares only the ring with them.

``poly`` (``cli.polynomial``) reads the same numbers at every constant
lambda, by one Horner sweep over their numerators; its polynomial must
equal the closed sum at x.
"""

from fractions import Fraction

import pytest

from fdpb import families as fam
from fdpb import cli, identities, sequences
from fdpb.cli import FAMILIES
from fdpb.ring import LAM, X, falling_product

LAMBDAS = (LAM, 0, Fraction(1, 2), Fraction(-2, 3), 3)
RATIONALS = LAMBDAS[1:]
KS = range(-3, 4)
N_MAX = 60
N_SERIES = 24


# each family's closed sum at (n, k, arg, lam), the route the CLI's readers
# are checked against; the classical families at lambda = 0
CLOSED = {
    "bernoulli": lambda n, k, arg, lam: fam.daehee_value(n, arg, 0),
    "carlitz": lambda n, k, arg, lam: fam.carlitz_value(n, arg, lam),
    "daehee": lambda n, k, arg, lam: fam.daehee_value(n, arg, lam),
    "polybernoulli": lambda n, k, arg, lam: fam.fdpb_value(n, k, arg, 0),
    "fdpb": lambda n, k, arg, lam: fam.fdpb_value(n, k, arg, lam),
}


def _lam_id(lam) -> str:
    return "L" if lam is LAM else str(lam)


@pytest.mark.parametrize("lam", LAMBDAS, ids=_lam_id)
@pytest.mark.parametrize("family", FAMILIES)
def test_every_row_equals_the_closed_sum(family, lam):
    for k in KS if FAMILIES[family][0] else (None,):
        for n_max in (N_MAX, 0, 7):
            table = cli.table_rows(family, k, n_max, lam)
            assert len(table) == n_max + 1, (k, n_max)
            for n, row in enumerate(table):
                assert row == CLOSED[family](n, k, 0, lam), (k, n_max, n)


@pytest.mark.parametrize("lam", (0, Fraction(1, 2), Fraction(-2, 3), Fraction(3), Fraction(5, 3)),
                         ids=str)
@pytest.mark.parametrize("family", FAMILIES)
def test_rational_poly_equals_the_closed_sum(family, lam):
    # poly's Horner sweep over the numbers against the closed sum at x; the
    # classical families read theirs at 0, whatever lambda is given
    for k in KS if FAMILIES[family][0] else (None,):
        for n in range(N_MAX + 1):
            assert cli.polynomial(family, n, k, lam) == CLOSED[family](n, k, X, lam), (k, n)


@pytest.mark.parametrize("lam", RATIONALS, ids=str)
def test_transform_rows_equal_the_series_evaluated(lam):
    for k in KS:
        rows = fam.constant_rows(fam.fdpb_numbers(k, N_SERIES, lam), lam)
        for n, row in enumerate(rows):
            assert row == fam.fdpb_gf(n, k).eval_at(lam=lam), (k, n)
    for numbers, series in ((fam.carlitz_numbers, fam.carlitz_beta),
                            (fam.daehee_numbers, fam.daehee_type_b)):
        for n, row in enumerate(fam.constant_rows(numbers(N_SERIES, lam), lam)):
            assert row == series(n).eval_at(lam=lam), (series.__name__, n)


@pytest.mark.parametrize("lam", (Fraction(1), Fraction(-2, 3), Fraction(5, 2)), ids=str)
def test_transform_of_powers_is_the_falling_factorial(lam):
    # sum_m S1(n, m) lam^(n-m) y^m = y (y - lam) ... (y - (n-1) lam)
    y, n_max = 7, 12
    u = fam._stirling_transform([y**m for m in range(n_max + 1)], lam.numerator,
                                lam.denominator)
    assert len(u) == n_max + 1
    for n, a in enumerate(u):
        assert Fraction(a, lam.denominator**n) == falling_product(y, n).eval_at(lam).constant()


def test_rational_tables_build_no_stirling_row():
    rows = sequences._STIRLING1
    saved = list(rows)
    del rows[1:]
    try:
        for r in (Fraction(-2, 3), 0):
            for family in FAMILIES:
                cli.table_rows(family, 2, 120, r)
        assert len(rows) == 1, "a table at a constant lambda read S1 rows"
    finally:
        rows[:] = saved


def test_rational_polynomials_build_no_stirling_row():
    rows = sequences._STIRLING1
    saved = list(rows)
    del rows[1:]
    try:
        for r in (Fraction(-2, 3), 0):
            for family in FAMILIES:
                cli.polynomial(family, 120, 2, r)
        assert len(rows) == 1, "a polynomial at a constant lambda read S1 rows"
    finally:
        rows[:] = saved


def test_a_wrong_shift_step_is_caught(monkeypatch):
    # the step i p = 0 of the Horner sweep is a plain shift: the last step of
    # every sweep, and every step at lambda = 0.  A shift that puts its zero
    # at the top instead fails THM4's classical cells at lambda = 0, and the
    # polynomials at a nonzero rational lambda
    step = fam._times_y_minus
    monkeypatch.setattr(fam, "_times_y_minus", lambda acc, c: step(acc, c) if c else [*acc, 0])
    report = identities.check("THM4_CLOSED", n_max=3, k_range=(0, 0))
    assert not report.passed
    ce = report.counterexample
    assert (ce.n, ce.k) == (1, 0)
    assert ce.lhs == fam.classical_poly_bernoulli(1, 0, X)
    with pytest.raises(AssertionError):
        test_rational_poly_equals_the_closed_sum("fdpb", Fraction(1, 2))

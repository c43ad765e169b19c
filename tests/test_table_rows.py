"""The table readers: every row of a family in one sweep.

``table`` reads rows 0..n_max from one reader per family (the third field
of ``cli.FAMILIES``).  At a rational lambda the degenerate families run
the Stirling transform, a falling-factorial recurrence in integers with no
S1 row; at L each row is one product per coefficient against one power
table.  Every row must equal the family's closed sum at that n (the
constant term in x of what ``poly`` prints), and the
transform rows must equal the family's generating function in L
evaluated at lambda, a route that shares only the ring with them.
"""

from fractions import Fraction

import pytest

from fdpb import families as fam
from fdpb import sequences
from fdpb.cli import FAMILIES
from fdpb.ring import LAM, falling_product

LAMBDAS = (LAM, 0, Fraction(1, 2), Fraction(-2, 3), 3)
RATIONALS = LAMBDAS[1:]
KS = range(-3, 4)
N_MAX = 60
N_SERIES = 24


def _lam_id(lam) -> str:
    return "L" if lam is LAM else str(lam)


@pytest.mark.parametrize("lam", LAMBDAS, ids=_lam_id)
@pytest.mark.parametrize("family", FAMILIES)
def test_every_row_equals_the_closed_sum(family, lam):
    takes_k, value, rows = FAMILIES[family]
    for k in KS if takes_k else (None,):
        for n_max in (N_MAX, 0, 7):
            table = rows(k, n_max, lam)
            assert len(table) == n_max + 1, (k, n_max)
            for n, row in enumerate(table):
                assert row == value(n, k, lam).x_coeff(0), (k, n_max, n)


@pytest.mark.parametrize("lam", RATIONALS, ids=str)
def test_transform_rows_equal_the_series_evaluated(lam):
    for k in KS:
        for n, row in enumerate(fam.fdpb_rows(k, N_SERIES, lam)):
            assert row == fam.fdpb_gf(n, k).eval_at(lam=lam), (k, n)
    for rows, series in ((fam.carlitz_rows, fam.carlitz_beta),
                         (fam.daehee_rows, fam.daehee_type_b)):
        for n, row in enumerate(rows(N_SERIES, lam)):
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
        r = Fraction(-2, 3)
        fam.fdpb_rows(2, 120, r)
        fam.daehee_rows(120, r)
        fam.carlitz_rows(120, r)
        assert len(rows) == 1, "a table at a rational lambda read S1 rows"
    finally:
        rows[:] = saved

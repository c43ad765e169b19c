"""The closed sums at a rational lambda against the series in L evaluated there.

The CLI reads every family from its closed sum, which takes ``lam``, the
symbol L or a rational, and at a rational computes in Q[x] from the start.
Each value must be the one the family's generating function gives in
Q[L, x] after ``eval_at(lam=r)``: two independent routes.  The CLI must
reach it without substituting, and without building any series at all.
"""

from fractions import Fraction

import pytest

from fdpb import families as fam
from fdpb.cli import main
from fdpb.ring import BiPoly, X

N_MAX = 32
LAMBDAS = (0, Fraction(1, 2), Fraction(-1, 2), 3, Fraction(-7, 3))
# (the closed sum, the series in L, k)
ROUTES = [
    pytest.param(fam.carlitz_value, fam.carlitz_beta, None, id="carlitz_beta-None"),
    pytest.param(fam.daehee_value, fam.daehee_type_b, None, id="daehee_type_b-None"),
    pytest.param(fam.fdpb_value, fam.fdpb_gf, -2, id="fdpb_value--2"),
]


def _value(route, k, n, arg, **lam):
    return route(n, arg, **lam) if k is None else route(n, k, arg, **lam)


@pytest.mark.parametrize("r", LAMBDAS, ids=str)
@pytest.mark.parametrize("closed, series, k", ROUTES)
def test_built_at_lambda_equals_symbolic_evaluated(closed, series, k, r):
    for arg in (0, X):
        for n in range(N_MAX, -1, -1):
            at_r = _value(closed, k, n, arg, lam=r)
            assert at_r.is_lambda_free(), (n, arg)
            assert at_r == _value(series, k, n, arg).eval_at(lam=r), (n, arg)


def test_rational_commands_never_substitute(monkeypatch, capsys):
    def refuse(self, lam=None, x=None):
        raise AssertionError("a rational --lambda was substituted after the build")

    fam._quotients.clear()
    monkeypatch.setattr(BiPoly, "eval_at", refuse)
    commands = [
        ("poly", "--family", "carlitz", "--n", "20", "--lambda=1/2"),
        ("table", "--family", "daehee", "--n-max", "20", "--lambda=-7/3"),
        ("poly", "--family", "fdpb", "--k", "2", "--n", "20", "--lambda=3"),
        ("table", "--family", "fdpb", "--k", "-1", "--n-max", "20", "--lambda=0"),
        ("poly", "--family", "bernoulli", "--n", "20", "--lambda=1/2"),
        ("table", "--family", "polybernoulli", "--k", "2", "--n-max", "20", "--lambda=3"),
    ]
    try:
        for argv in commands:
            assert main(list(argv)) == 0
        assert capsys.readouterr().out.count("L") == 0
        assert not fam._quotients, "a CLI command built a generating function"
    finally:
        fam._quotients.clear()

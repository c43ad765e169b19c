"""Families built at a rational lambda against the symbolic family evaluated there.

The L-dependent builders the CLI reads take ``lam``, the symbol L or a
rational.  At a rational each computes in Q[x] from the start; the value
must be the one the Q[L, x] build gives after ``eval_at(lam=r)``, and the
CLI must reach it without substituting at all.
"""

from fractions import Fraction

import pytest

from fdpb import families as fam
from fdpb.cli import main
from fdpb.ring import BiPoly, X

N_MAX = 32
LAMBDAS = (0, Fraction(1, 2), Fraction(-1, 2), 3, Fraction(-7, 3))
ROUTES = [(fam.carlitz_beta, None), (fam.daehee_type_b, None), (fam.fdpb_value, -2)]


def _value(route, k, n, arg, **lam):
    return route(n, arg, **lam) if k is None else route(n, k, arg, **lam)


@pytest.mark.parametrize("r", LAMBDAS, ids=str)
@pytest.mark.parametrize("route, k", ROUTES, ids=lambda v: getattr(v, "__name__", str(v)))
def test_built_at_lambda_equals_symbolic_evaluated(route, k, r):
    for arg in (0, X):
        for n in range(N_MAX, -1, -1):
            at_r = _value(route, k, n, arg, lam=r)
            assert at_r.is_lambda_free(), (n, arg)
            assert at_r == _value(route, k, n, arg).eval_at(lam=r), (n, arg)


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
    ]
    try:
        for argv in commands:
            assert main(list(argv)) == 0
        assert capsys.readouterr().out.count("L") == 0
        assert fam._quotients, "the series commands built no quotient"
        for series in fam._quotients.values():
            assert all(c.is_lambda_free() for c in series.coeffs)
    finally:
        fam._quotients.clear()

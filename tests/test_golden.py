"""Byte-exact CLI outputs pinned by a golden file.

``golden_cli.json`` maps each command line below to the stdout it printed
under the Fraction-dict ring, before the integer-numerator ring replaced
it; the two large-n fdpb commands were captured under the scalar
``Fraction`` closed sum, before the integer closed-sum route replaced it,
and the four tables at n-max 28 and 20 under the power-sum series
kernels, before exp, log and composition moved to recurrences and baby
steps and giant steps.  The five ``poly`` commands of the series families
were captured while each family multiplied its whole quotient series by
its whole argument series, before one coefficient was read as one sum.
The last four fdpb and polybernoulli commands were captured under the
falling-factorial expansion and the composed series, before both families
were built from Kaneko's polynomials.  The twelve commands at a rational
or zero lambda at the end were captured while every family was built in
Q[L, x] and only then evaluated at lambda, before lambda was threaded
through the builders.  The nine carlitz, daehee and bernoulli commands
past n = 60 were captured while those families were read from their
generating functions, before they were built from closed sums.  The
verify command at n-max 12 over k in [-2, 4], the benchmark's second
window, was captured while THM8_INTEGRAL still paired (e^t - 1)/t with
each polynomial, before that cell was dropped.  The four tables at
lambda = -2/3, -1/2 and 1/2 before the verify commands were captured while
``table`` read each row from its own closed sum, before the rows of every
family were read in one sweep (the Stirling transform at a rational lambda).
The six ``poly`` commands at lambda = -2/3 and 5/3 before the verify
commands were captured while ``poly`` read the closed sum at every lambda,
before it read one Horner sweep over the family's row at a nonzero
rational lambda.  Changes to the arithmetic core must leave every byte as
it is.
"""

import json
from pathlib import Path

import pytest

from fdpb.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

K_OF = {"polybernoulli": (-2, 3), "fdpb": (-2, 3)}


def _commands() -> list[tuple[str, ...]]:
    out = []
    for family in ("bernoulli", "carlitz", "daehee", "polybernoulli", "fdpb"):
        for k in K_OF.get(family, (None,)):
            k_args = () if k is None else ("--k", str(k))
            for lam in ("--symbolic", "--lambda=3"):
                out.append(("table", "--family", family, *k_args, "--n-max", "8", lam))
    for family in ("fdpb", "polybernoulli"):
        for n, k in ((0, 1), (3, 1), (5, -2), (6, 3), (8, 2)):
            out.append(("poly", "--family", family, "--k", str(k), "--n", str(n)))
    out.append(("poly", "--family", "fdpb", "--k", "2", "--n", "6", "--lambda=-1/2"))
    # large n, so the lcm(1..l+1)^k denominators of the closed sum show
    out.append(
        ("table", "--family", "fdpb", "--k", "-3", "--n-max", "40", "--lambda=-1/2")
    )
    out.append(("poly", "--family", "fdpb", "--k", "3", "--n", "24", "--symbolic"))
    # n-max 28 reaches series order 32 and n-max 20 order 24, where N + 1
    # is a perfect square and composition's last block is full
    for family, k_args, n_max in (
        ("polybernoulli", ("--k", "3"), "28"),
        ("carlitz", (), "28"),
        ("bernoulli", (), "28"),
        ("daehee", (), "20"),
    ):
        out.append(("table", "--family", family, *k_args, "--n-max", n_max, "--symbolic"))
    # the series families' poly path: one coefficient of quotient * argument
    out += [
        ("poly", "--family", "carlitz", "--n", "28", "--symbolic"),
        ("poly", "--family", "carlitz", "--n", "9", "--lambda=-1/2", "--format", "json"),
        ("poly", "--family", "daehee", "--n", "20", "--symbolic"),
        ("poly", "--family", "bernoulli", "--n", "28", "--symbolic"),
        ("poly", "--family", "polybernoulli", "--k", "-3", "--n", "28", "--lambda=1/2",
         "--format", "csv"),
    ]
    # both poly-Bernoulli families at large n, the fdpb ones with n - 1
    # Stirling weights and lcm(1..n+1)^k denominators
    out += [
        ("poly", "--family", "fdpb", "--k", "-3", "--n", "56", "--symbolic",
         "--format", "json"),
        ("poly", "--family", "fdpb", "--k", "2", "--n", "54", "--lambda=-1/2",
         "--format", "csv"),
        ("table", "--family", "polybernoulli", "--k", "-3", "--n-max", "28",
         "--lambda=3", "--format", "csv"),
        ("poly", "--family", "polybernoulli", "--k", "2", "--n", "24", "--symbolic"),
    ]
    # a rational lambda at series order 32, and lambda = 0, where each family
    # meets its classical limit
    out += [
        ("poly", "--family", "carlitz", "--n", "28", "--lambda=3"),
        ("poly", "--family", "daehee", "--n", "30", "--lambda=-7/3", "--format", "json"),
        ("table", "--family", "daehee", "--n-max", "30", "--lambda=-1/2", "--format", "json"),
        ("table", "--family", "carlitz", "--n-max", "30", "--lambda=1/2"),
        ("poly", "--family", "fdpb", "--k", "-1", "--n", "30", "--lambda=3"),
        ("table", "--family", "fdpb", "--k", "3", "--n-max", "30", "--lambda=1/2",
         "--format", "json"),
        ("poly", "--family", "carlitz", "--n", "12", "--lambda=0"),
        ("table", "--family", "carlitz", "--n-max", "12", "--lambda=0", "--format", "json"),
        ("poly", "--family", "daehee", "--n", "12", "--lambda=0", "--format", "csv"),
        ("table", "--family", "daehee", "--n-max", "12", "--lambda=0"),
        ("poly", "--family", "fdpb", "--k", "2", "--n", "12", "--lambda=0"),
        ("table", "--family", "fdpb", "--k", "-2", "--n-max", "12", "--lambda=0"),
    ]
    # carlitz, daehee and bernoulli past n = 60, captured while they were
    # read from their series, before the closed sums over Stirling rows
    out += [
        ("poly", "--family", "carlitz", "--n", "60", "--symbolic"),
        ("poly", "--family", "carlitz", "--n", "64", "--lambda=-3/2", "--format", "json"),
        ("table", "--family", "carlitz", "--n-max", "60", "--symbolic", "--format", "json"),
        ("table", "--family", "carlitz", "--n-max", "64", "--lambda=5/3"),
        ("poly", "--family", "daehee", "--n", "60", "--symbolic", "--format", "csv"),
        ("poly", "--family", "daehee", "--n", "62", "--lambda=2/3"),
        ("table", "--family", "daehee", "--n-max", "60", "--symbolic"),
        ("table", "--family", "daehee", "--n-max", "64", "--lambda=-3", "--format", "json"),
        ("poly", "--family", "bernoulli", "--n", "60"),
    ]
    # tables at a rational lambda with p != +-1 and q != 1, and the one-row
    # table, captured while every row was its own closed sum, before the
    # rows were read in one sweep by the Stirling transform
    out += [
        ("table", "--family", "fdpb", "--k", "2", "--n-max", "60", "--lambda=-2/3",
         "--format", "json"),
        ("table", "--family", "carlitz", "--n-max", "40", "--lambda=-2/3"),
        ("table", "--family", "polybernoulli", "--k", "2", "--n-max", "30", "--lambda=-1/2",
         "--format", "json"),
        ("table", "--family", "fdpb", "--k", "-3", "--n-max", "0", "--lambda=1/2"),
    ]
    # polynomials at a rational lambda with p != +-1 and q != 1, and carlitz's
    # first two, captured while poly read the closed sum at every lambda,
    # before it read one Horner sweep over the family's row
    out += [
        ("poly", "--family", "fdpb", "--k", "-2", "--n", "60", "--lambda=-2/3",
         "--format", "json"),
        ("poly", "--family", "fdpb", "--k", "2", "--n", "60", "--lambda=-2/3",
         "--format", "json"),
        ("poly", "--family", "daehee", "--n", "40", "--lambda=5/3"),
        ("poly", "--family", "carlitz", "--n", "40", "--lambda=-2/3", "--format", "csv"),
        ("poly", "--family", "carlitz", "--n", "0", "--lambda=-2/3"),
        ("poly", "--family", "carlitz", "--n", "1", "--lambda=-2/3"),
    ]
    out.append(("verify", "--suite", "all", "--n-max", "6", "--format", "json"))
    out.append(("verify", "--suite", "all", "--n-max", "12", "--k-min", "-2", "--k-max", "4",
                "--format", "json"))
    return out


COMMANDS = _commands()


def test_golden_covers_every_command():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(" ".join(c) for c in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_golden_bytes(capsys, argv):
    expected = json.loads(GOLDEN.read_text())[" ".join(argv)]
    code = main(list(argv))
    assert code == 0
    assert capsys.readouterr().out == expected

"""Command-line front end.

Three subcommands:

* ``table``  — rows n = 0..n_max of a number family (csv or json)
* ``poly``   — a single polynomial in canonical string form
* ``verify`` — run the identity suite, exit 0 iff everything passes

All output is exact; no floating point anywhere.  Output is
byte-deterministic for fixed flags.  Every value is read from the
families' closed sums, never from a generating function, and a rational
``--lambda`` is handed to them, so they compute at that value from the
start.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import families as fam
from . import identities
from .ring import LAM, BiPoly, X, canonical_string

USAGE_ERROR = 2

FAMILIES = ("bernoulli", "carlitz", "daehee", "polybernoulli", "fdpb")
POLY_FAMILIES = ("polybernoulli", "fdpb")


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"malformed rational {text!r}")


def _family_value(
    family: str, n: int, k: Optional[int], arg: BiPoly | int, lam: Optional[Fraction]
) -> BiPoly:
    """The family's value at arg, built at the rational lam, or in L when it is None."""
    lam = LAM if lam is None else lam
    if family == "bernoulli":
        return fam.bernoulli_value(n, arg)
    if family == "carlitz":
        return fam.carlitz_value(n, arg, lam)
    if family == "daehee":
        return fam.daehee_value(n, arg, lam)
    if family == "polybernoulli":
        return fam.poly_bernoulli_value(n, k, arg)
    if family == "fdpb":
        return fam.fdpb_value(n, k, arg, lam)
    raise ValueError(f"unknown family {family!r}")


def _check_k(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if args.family in POLY_FAMILIES and args.k is None:
        parser.error(f"--k is required for family {args.family!r}")
    if args.family not in POLY_FAMILIES and args.k is not None:
        parser.error(f"--k does not apply to family {args.family!r}")


def _lambda_mode(args: argparse.Namespace) -> str:
    return "symbolic" if args.lam is None else str(args.lam)


def _record(family: str, n: int, k: Optional[int], mode: str, value: str) -> dict:
    rec = {"family": family, "n": n, "lambda": mode, "value": value}
    if k is not None:
        rec["k"] = k
    return rec


def _emit(parser: argparse.ArgumentParser, text: str, out_path: Optional[str]) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        parser.error(f"cannot write --out: {exc}")


def cmd_table(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_k(parser, args)
    if args.n_max < 0:
        parser.error(f"--n-max must be >= 0, got {args.n_max}")
    mode = _lambda_mode(args)
    # the last row first: its row of Kaneko's numbers serves every smaller n
    values = [
        _family_value(args.family, n, args.k, 0, args.lam) for n in range(args.n_max, -1, -1)
    ]
    rows = [
        _record(args.family, n, args.k, mode, canonical_string(value))
        for n, value in enumerate(reversed(values))
    ]
    if args.format == "csv":
        lines = ["n,value"] + [f"{r['n']},{r['value']}" for r in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(rows, indent=2) + "\n"
    _emit(parser, text, args.out)
    return 0


def cmd_poly(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_k(parser, args)
    if args.n < 0:
        parser.error(f"--n must be >= 0, got {args.n}")
    mode = _lambda_mode(args)
    rendered = canonical_string(_family_value(args.family, args.n, args.k, X, args.lam))
    if args.format == "json":
        record = _record(args.family, args.n, args.k, mode, rendered)
        text = json.dumps(record, indent=2) + "\n"
    elif args.format == "csv":
        text = f"n,value\n{args.n},{rendered}\n"
    else:
        text = rendered + "\n"
    _emit(parser, text, args.out)
    return 0


def _format_report(report: identities.Report) -> str:
    head = (
        f"{report.identity.value}: {report.status.upper()} "
        f"(n <= {report.n_max}, k in [{report.k_min}, {report.k_max}])"
    )
    if report.counterexample is None:
        return head
    ce = report.counterexample.to_dict()
    return (
        f"{head}\n  counterexample at n={ce['n']}, k={ce['k']}:"
        f"\n    lhs = {ce['lhs']}\n    rhs = {ce['rhs']}"
    )


def cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    k_range = (args.k_min, args.k_max)
    try:
        if args.suite == "all":
            reports = identities.check_all(n_max=args.n_max, k_range=k_range)
        else:
            reports = [identities.check(args.suite, args.n_max, k_range)]
    except identities.UnknownIdentity:
        parser.error(f"unknown identity suite {args.suite!r}")
    except identities.EmptyRange as exc:
        parser.error(str(exc))
    if args.format == "json":
        sys.stdout.write(identities.reports_to_json(reports) + "\n")
    else:
        for report in reports:
            sys.stdout.write(_format_report(report) + "\n")
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdpb",
        description="Exact tables, polynomials and identity checks for "
        "degenerate Bernoulli-type families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="number-family table for n = 0..n_max")
    table.add_argument("--family", required=True, choices=FAMILIES)
    table.add_argument("--k", type=int, default=None)
    table.add_argument("--n-max", type=int, default=12)
    group = table.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=_parse_rational, default=None,
                       metavar="P/Q")
    group.add_argument("--symbolic", dest="lam", action="store_const", const=None)
    table.add_argument("--format", choices=("json", "csv"), default="csv")
    table.add_argument("--out", default=None)
    table.set_defaults(func=cmd_table)

    poly = sub.add_parser("poly", help="one polynomial in canonical form")
    poly.add_argument("--family", required=True, choices=FAMILIES)
    poly.add_argument("--k", type=int, default=None)
    poly.add_argument("--n", type=int, required=True)
    group = poly.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=_parse_rational, default=None,
                       metavar="P/Q")
    group.add_argument("--symbolic", dest="lam", action="store_const", const=None)
    poly.add_argument("--format", choices=("text", "json", "csv"), default="text")
    poly.add_argument("--out", default=None)
    poly.set_defaults(func=cmd_poly)

    verify = sub.add_parser("verify", help="run identity checks")
    verify.add_argument("--suite", default="all",
                        help='"all" or a single identity name')
    verify.add_argument("--n-max", type=int, default=12)
    verify.add_argument("--k-min", type=int, default=-3)
    verify.add_argument("--k-max", type=int, default=3)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=cmd_verify)

    return parser


def _attach_negative_lambda(argv: Sequence[str]) -> list[str]:
    """Rewrite "--lambda -1/2" as "--lambda=-1/2".

    argparse reads a token that starts with "-" as an option unless it is
    a plain negative decimal, so a negative fraction needs the "=" form.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--lambda" and re.match(r"-\.?\d", token):
            out[-1] = f"--lambda={token}"
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_attach_negative_lambda(argv))
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())

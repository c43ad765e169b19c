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

Options are read against one table, ``OPTIONS``, which also renders
``-h``/``--help``.  Only exact option names are accepted, as
``--opt value`` or ``--opt=value``.  The token after an option is always
its value, so ``--lambda -1/2`` needs no ``=``, and a value that starts
with ``--`` counts as missing.  A repeated option keeps its last value.
A usage error prints the usage line and the error to stderr and exits 2.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional, Sequence

from . import families as fam
from . import identities
from .ring import LAM, BiPoly, X, canonical_string

USAGE_ERROR = 2

FAMILIES = ("bernoulli", "carlitz", "daehee", "polybernoulli", "fdpb")
POLY_FAMILIES = ("polybernoulli", "fdpb")


class UsageError(Exception):
    """A command line that cannot run; ``main`` reports it and exits 2."""


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


def _check_k(args: SimpleNamespace) -> None:
    if args.family in POLY_FAMILIES and args.k is None:
        raise UsageError(f"--k is required for family {args.family!r}")
    if args.family not in POLY_FAMILIES and args.k is not None:
        raise UsageError(f"--k does not apply to family {args.family!r}")


def _lambda_mode(args: SimpleNamespace) -> str:
    return "symbolic" if args.lam is None else str(args.lam)


def _record(family: str, n: int, k: Optional[int], mode: str, value: str) -> dict:
    rec = {"family": family, "n": n, "lambda": mode, "value": value}
    if k is not None:
        rec["k"] = k
    return rec


def _emit(text: str, out_path: Optional[str]) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out: {exc}")


def cmd_table(args: SimpleNamespace) -> int:
    _check_k(args)
    if args.n_max < 0:
        raise UsageError(f"--n-max must be >= 0, got {args.n_max}")
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
    _emit(text, args.out)
    return 0


def cmd_poly(args: SimpleNamespace) -> int:
    _check_k(args)
    if args.n < 0:
        raise UsageError(f"--n must be >= 0, got {args.n}")
    mode = _lambda_mode(args)
    rendered = canonical_string(_family_value(args.family, args.n, args.k, X, args.lam))
    if args.format == "json":
        record = _record(args.family, args.n, args.k, mode, rendered)
        text = json.dumps(record, indent=2) + "\n"
    elif args.format == "csv":
        text = f"n,value\n{args.n},{rendered}\n"
    else:
        text = rendered + "\n"
    _emit(text, args.out)
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


def cmd_verify(args: SimpleNamespace) -> int:
    k_range = (args.k_min, args.k_max)
    try:
        if args.suite == "all":
            reports = identities.check_all(n_max=args.n_max, k_range=k_range)
        else:
            reports = [identities.check(args.suite, args.n_max, k_range)]
    except identities.UnknownIdentity:
        raise UsageError(f"unknown identity suite {args.suite!r}")
    except identities.EmptyRange as exc:
        raise UsageError(str(exc))
    if args.format == "json":
        sys.stdout.write(identities.reports_to_json(reports) + "\n")
    else:
        for report in reports:
            sys.stdout.write(_format_report(report) + "\n")
    return 0 if all(r.passed for r in reports) else 1


_ABOUT = "Exact tables, polynomials and identity checks for degenerate Bernoulli-type families."
COMMANDS = {
    "table": (cmd_table, "number-family table for n = 0..n_max, in L unless --lambda"),
    "poly": (cmd_poly, "one polynomial in canonical form, in L unless --lambda"),
    "verify": (cmd_verify, 'run identity checks; --suite is "all" or one identity name'),
}

REQUIRED = object()  # the default of an option that must be given
_LAMBDA = {"--lambda": ("lam", Fraction, None), "--symbolic": ("lam", None, None)}

# command -> {option: (dest, parse, default)}.  parse is a callable, a
# tuple of choices, or None for a flag, which stores its default.  Options
# that share a dest may not be given together.
OPTIONS = {
    "table": {
        "--family": ("family", FAMILIES, REQUIRED),
        "--k": ("k", int, None),
        "--n-max": ("n_max", int, 12),
        **_LAMBDA,
        "--format": ("format", ("json", "csv"), "csv"),
        "--out": ("out", str, None),
    },
    "poly": {
        "--family": ("family", FAMILIES, REQUIRED),
        "--k": ("k", int, None),
        "--n": ("n", int, REQUIRED),
        **_LAMBDA,
        "--format": ("format", ("text", "json", "csv"), "text"),
        "--out": ("out", str, None),
    },
    "verify": {
        "--suite": ("suite", str, "all"),
        "--n-max": ("n_max", int, 12),
        "--k-min": ("k_min", int, -3),
        "--k-max": ("k_max", int, 3),
        "--format": ("format", ("text", "json"), "text"),
    },
}
_METAVARS = {int: "INT", Fraction: "P/Q", None: ""}
_HELP = ("-h", "--help")


def _metavar(dest: str, parse) -> str:
    return _METAVARS.get(parse, dest.upper())


def _parse(command: str, tokens: Sequence[str]) -> Optional[SimpleNamespace]:
    """The options of command read from tokens, or None when they ask for help."""
    table = OPTIONS[command]
    values = {dest: default for dest, parse, default in table.values() if parse is not None}
    given: dict[str, str] = {}
    tokens = iter(tokens)
    for token in tokens:
        if token in _HELP:
            return None
        option, eq, value = token.partition("=")
        if option not in table:
            raise UsageError(f"unrecognized arguments: {token}")
        dest, parse, default = table[option]
        if given.setdefault(dest, option) != option:
            raise UsageError(f"argument {option}: not allowed with argument {given[dest]}")
        if parse is None:
            if eq:
                raise UsageError(f"argument {option}: ignored explicit argument {value!r}")
            values[dest] = default
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"argument {option}: expected one argument")
        if isinstance(parse, tuple):
            if value not in parse:
                choices = ", ".join(map(repr, parse))
                raise UsageError(
                    f"argument {option}: invalid choice: {value!r} (choose from {choices})"
                )
        else:
            try:
                value = parse(value)
            except (ValueError, ZeroDivisionError):
                raise UsageError(
                    f"argument {option}: invalid {_metavar(dest, parse)} value: {value!r}"
                ) from None
        values[dest] = value
    missing = [o for o, (dest, _, d) in table.items() if d is REQUIRED and dest not in given]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(**values)


def _usage(command: Optional[str]) -> str:
    if command is None:
        return "usage: fdpb {" + ",".join(COMMANDS) + "} ...\n"
    parts = []
    for option, (dest, parse, default) in OPTIONS[command].items():
        part = f"{option} {_metavar(dest, parse)}".rstrip()
        parts.append(part if default is REQUIRED else f"[{part}]")
    return f"usage: fdpb {command} [-h] {' '.join(parts)}\n"


def _help(command: Optional[str]) -> str:
    """The usage line and one row per command (no command) or per option."""
    if command is None:
        about = _ABOUT
        title, rows = "commands", [(name, summary) for name, (_, summary) in COMMANDS.items()]
    else:
        about, title = COMMANDS[command][1], "options"
        rows = [(", ".join(_HELP), "print this help")]
        table = OPTIONS[command]
        for option, (dest, parse, default) in table.items():
            notes = [f"one of {', '.join(parse)}"] if isinstance(parse, tuple) else []
            if default is REQUIRED:
                notes.append("required")
            elif parse is None:
                notes.append("flag")
            else:
                notes.append(f"default: {'none' if default is None else default}")
            others = [o for o, spec in table.items() if spec[0] == dest and o != option]
            if others:
                notes.append(f"not with {', '.join(others)}")
            rows.append((f"{option} {_metavar(dest, parse)}".rstrip(), "; ".join(notes)))
    width = max(len(left) for left, _ in rows)
    body = "".join(f"  {left.ljust(width)}  {right}\n" for left, right in rows)
    return f"{_usage(command)}\n{about}\n\n{title}:\n{body}"


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _HELP:
        sys.stdout.write(_help(None))
        return 0
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        if not argv:
            raise UsageError("the following arguments are required: command")
        if command is None:
            choices = ", ".join(map(repr, COMMANDS))
            raise UsageError(
                f"argument command: invalid choice: {argv[0]!r} (choose from {choices})"
            )
        args = _parse(command, argv[1:])
        if args is None:
            sys.stdout.write(_help(command))
            return 0
        return COMMANDS[command][0](args)
    except UsageError as exc:
        prog = "fdpb" if command is None else f"fdpb {command}"
        sys.stderr.write(f"{_usage(command)}{prog}: error: {exc}\n")
        raise SystemExit(USAGE_ERROR)


if __name__ == "__main__":
    sys.exit(main())

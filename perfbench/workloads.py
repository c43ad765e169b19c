"""Seeded query streams for the three workloads, and how one query runs.

Every query has a ``key``: the CLI argv joined by spaces, or the library
route and its arguments.  The reference digests are keyed the same way.
Each ``*_space`` function lists every query its generator can draw, so
``make_refs.py`` can cover every seed and a test can check the
generators never leave their space.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from fdpb import cli, families, umbral
from fdpb.fps import Series
from fdpb.ring import BiPoly, X
from fdpb.ring import canonical_string as _render_poly  # kept unwrapped when tracing

WORKLOADS = ("verify", "tabulate", "gf-session")

KS = tuple(range(-3, 4))
LAMBDAS = ("1/2", "-1/2", "3")
FORMATS = {"poly": ("text", "json", "csv"), "table": ("csv", "json")}

# verify: the suite at --n-max 12 over a seven-wide k window.  Seed 0 gives
# [-3, 3]; the other window costs about the same, so seeds move the work
# little.  Wider shifts change the run time by up to 20%.
VERIFY_K_MINS = (-3, -2)
VERIFY_N_MAX = 12

# tabulate: a pass holds one ``poly`` and one ``table`` command for every
# family and n below.  k and whether L is symbolic are fixed per command,
# since they set its cost, so every pass costs about the same.  So is the
# format of a symbolic command: its output is the largest, and the format
# moves the memory it takes by about 0.3 MB.  The seed draws the rational
# lambda, the format of a rational command and the order.
TABULATE_NS = {
    "fdpb": (30, 34, 38, 42, 46, 50, 54, 56),
    "polybernoulli": (16, 20, 24, 28),
    "carlitz": (16, 20, 24, 28),
    "bernoulli": (16, 20, 24, 28),
}
K_FAMILIES = ("fdpb", "polybernoulli")

# gf-session: series orders are rounded up to a multiple of 8, so n in
# 7..14 shares the order-16 series and n in 15..22 the order-24 one.
# Order 32 is left out: one cold fdpb_gf call there takes about 2.5 s.
ORDER_NS = {16: range(7, 15), 24: range(15, 23)}
# route -> (order, k) of its cold calls.  Each cold call is paired with a
# call at another n of the same order bucket, which hits the cache entry
# the first of the two fills.  The cost of a cold call depends on its
# order and k, not on n, so these are fixed and every session costs about
# the same; the seed draws the n values and the polynomials.  The call
# order is shuffled once and fixed too: calls share the caches below the
# memo caches, so a call's cost depends on which calls ran before it.
GF_CACHED = {
    "fdpb_gf_0": ((16, -2), (24, 1), (24, 3)),
    "fdpb_gf_x": ((16, 2), (24, -1), (24, -3)),
    "carlitz_beta": ((16, None), (24, None)),
    "daehee_type_b": ((16, None), (24, None)),
    "classical_poly_bernoulli": ((16, 0), (24, 2), (24, -2)),
}
ITERATED = ((2, 8), (3, 10), (4, 12), (2, 14))  # (k, n_max), never cached
SHEFFER_DEGREES = tuple(range(3, 11))
SHEFFER_POOL = 6  # random polynomials per degree
NONZERO = (*range(-9, 0), *range(1, 10))


@dataclass(frozen=True)
class Query:
    key: str
    argv: tuple[str, ...] | None = None  # a CLI command
    call: tuple | None = None  # a library call: (route, *args)


def cli_query(argv: list[str]) -> Query:
    return Query(key=" ".join(argv), argv=tuple(argv))


def lib_query(route: str, *args) -> Query:
    return Query(key=" ".join([route, *map(str, args)]), call=(route, *args))


# ---------------------------------------------------------------- verify

def verify_query(k_min: int) -> Query:
    return cli_query([
        "verify", "--suite", "all", "--n-max", str(VERIFY_N_MAX),
        "--k-min", str(k_min), "--k-max", str(k_min + 6), "--format", "json",
    ])


def verify_space() -> list[Query]:
    return [verify_query(k) for k in VERIFY_K_MINS]


def verify_stream(seed: int) -> list[Query]:
    return [verify_query(VERIFY_K_MINS[seed % len(VERIFY_K_MINS)])]


# -------------------------------------------------------------- tabulate

def tabulate_argv(cmd: str, family: str, n: int, k: int | None,
                  lam: str | None, fmt: str) -> list[str]:
    argv = [cmd, "--family", family]
    if k is not None:
        argv += ["--k", str(k)]
    argv += ["--n" if cmd == "poly" else "--n-max", str(n)]
    # "--lambda -1/2" is rejected by argparse as a missing argument, so the
    # value is always attached with "="
    argv.append("--symbolic" if lam is None else f"--lambda={lam}")
    return argv + ["--format", fmt]


def tabulate_space() -> list[Query]:
    out = []
    for family, ns in TABULATE_NS.items():
        ks = KS if family in K_FAMILIES else (None,)
        for n, k, lam, cmd in product(ns, ks, (None, *LAMBDAS), FORMATS):
            for fmt in FORMATS[cmd]:
                out.append(cli_query(tabulate_argv(cmd, family, n, k, lam, fmt)))
    return out


def tabulate_stream(seed: int) -> list[Query]:
    rng = random.Random(f"tabulate-{seed}")
    out = []
    for family, ns in TABULATE_NS.items():
        for i, (n, cmd) in enumerate(product(ns, FORMATS)):
            k = KS[i % len(KS)] if family in K_FAMILIES else None
            # each n gets one symbolic and one rational command
            lam = None if (i + i // 2) % 2 else rng.choice(LAMBDAS)
            formats = FORMATS[cmd]
            fmt = formats[i // 2 % len(formats)] if lam is None else rng.choice(formats)
            out.append(cli_query(tabulate_argv(cmd, family, n, k, lam, fmt)))
    rng.shuffle(out)
    return out


# ------------------------------------------------------------ gf-session

def sheffer_poly(index: int) -> BiPoly:
    """Seeded random polynomial of x-degree 3 + index // SHEFFER_POOL.

    The polynomials of one degree share their monomials, which set the
    cost of expanding them, and differ in their nonzero coefficients.
    """
    degree = SHEFFER_DEGREES[0] + index // SHEFFER_POOL
    shape = random.Random(f"sheffer-shape-{degree}")
    rng = random.Random(f"sheffer-poly-{index}")
    terms = {}
    for xd in range(degree + 1):
        for ld in range(shape.randint(1, 3)):
            terms[(ld, xd)] = Fraction(rng.choice(NONZERO), rng.randint(1, 4))
    terms[(0, degree)] = Fraction(rng.randint(1, 9))
    return BiPoly(terms)


def _gf_query(route: str, n: int, k: int | None) -> Query:
    args = (n,) if k is None else (n, k)
    return lib_query(route, *args)


def _sheffer_query(degree: int, choice: int) -> Query:
    index = (degree - SHEFFER_DEGREES[0]) * SHEFFER_POOL + choice
    return lib_query("sheffer_expand", index, KS[degree % len(KS)])


def gf_space() -> list[Query]:
    out = [_gf_query(route, n, k)
           for route, cells in GF_CACHED.items() for order, k in cells
           for n in ORDER_NS[order]]
    out += [lib_query("fdpb_iterated_integral", k, n) for k, n in ITERATED]
    out += [_sheffer_query(d, c) for d in SHEFFER_DEGREES for c in range(SHEFFER_POOL)]
    return out


def gf_stream(seed: int) -> list[Query]:
    rng = random.Random(f"gf-session-{seed}")
    out = []
    for route, cells in GF_CACHED.items():
        for order, k in cells:
            cold, warm = rng.sample(ORDER_NS[order], 2)
            out += [_gf_query(route, cold, k), _gf_query(route, warm, k)]
    out += [lib_query("fdpb_iterated_integral", k, n) for k, n in ITERATED]
    out += [_sheffer_query(d, rng.randrange(SHEFFER_POOL)) for d in SHEFFER_DEGREES]
    random.Random("gf-session-order").shuffle(out)  # the same slots in every stream
    return out


STREAMS = {"verify": verify_stream, "tabulate": tabulate_stream, "gf-session": gf_stream}
SPACES = {"verify": verify_space, "tabulate": tabulate_space, "gf-session": gf_space}


# ------------------------------------------------------------- execution

def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv) -> tuple[int, str]:
    """Run ``fdpb <argv>`` in this process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def prepare_call(call: tuple):
    """Turn a library query into (function, args).

    The function is looked up on its module at call time, so a traced run
    reaches the wrapped binding.
    """
    route, *args = call
    if route == "fdpb_gf_0":
        return families.fdpb_gf, (*args, 0)
    if route == "fdpb_gf_x":
        return families.fdpb_gf, (*args, X)
    if route == "sheffer_expand":
        index, k = args
        return umbral.sheffer_expand, (sheffer_poly(index), k)
    if route in ("carlitz_beta", "daehee_type_b", "classical_poly_bernoulli"):
        return getattr(families, route), (*args, X)
    if route == "fdpb_iterated_integral":
        return families.fdpb_iterated_integral, tuple(args)
    raise ValueError(f"unknown route {route!r}")


def render(result) -> str:
    """Canonical text of a library result, the bytes the digest covers."""
    if isinstance(result, BiPoly):
        return _render_poly(result)
    if isinstance(result, Series):
        return "\n".join(_render_poly(c) for c in result.coeffs)
    if isinstance(result, umbral.BasisExpansion):
        return "\n".join(_render_poly(c) for c in result.coefficients)
    raise TypeError(f"cannot render {type(result).__name__}")

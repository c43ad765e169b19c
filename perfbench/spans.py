"""Per-layer tracing of fdpb from outside the package.

A :class:`Tracer` rebinds the public functions of each fdpb module to
wrappers that record one span per call.  Spans nest through a stack: the
time a span's direct children cover is subtracted from its duration to
give its self time.  Only aggregates are kept (calls, self and total
seconds per label), because one pass makes hundreds of thousands of calls.

Every binding of a wrapped function is rebound, in every fdpb module
namespace and in the ``BiPoly`` and ``Series`` classes: ``families``,
``sequences`` and ``identities`` import ``falling_product`` by name, and
``__mul__``/``__rmul__`` are one function bound under two names.
:meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import time

import fdpb
from fdpb import cli, families, fps, identities, ring, sequences, umbral
from fdpb.fps import Series
from fdpb.ring import BiPoly

NAMESPACES = (fdpb, ring, fps, sequences, families, identities, umbral, cli, BiPoly, Series)


def _term_pairs(counts: dict, args: tuple) -> None:
    a, b = args
    size = len(b.items()) if isinstance(b, BiPoly) else 1
    counts["ring.mul.term_pairs"] = counts.get("ring.mul.term_pairs", 0) + len(a.items()) * size


def _identity_label(ident, *rest) -> str:
    try:
        return f"identities.{identities.IdentityId(ident).value}"
    except ValueError:
        return "identities.unknown"


# label -> the functions it covers; the label may be a function of the
# call's arguments
LAYERS = [
    ("ring.mul", [BiPoly.__mul__]),
    ("ring.add", [BiPoly.__add__, BiPoly.__sub__]),
    ("ring.subst_x", [BiPoly.subst_x]),
    ("ring.eval_at", [BiPoly.eval_at]),
    ("ring.falling_product", [ring.falling_product]),
    ("ring.render", [ring.canonical_string]),
    ("fps.mul", [Series.__mul__]),
    ("fps.div", [fps.series_div]),
    ("fps.compose", [fps.series_compose]),
    ("fps.exp", [fps.series_exp]),
    ("fps.log", [fps.series_log]),
    ("fps.degenerate_pow", [fps.degenerate_pow]),
    ("sequences.stirling", [sequences.stirling1, sequences.stirling2]),
    ("sequences.bernoulli", [sequences.bernoulli]),
    ("sequences.bernoulli2", [sequences.bernoulli_second_kind]),
    ("sequences.polylog", [sequences.polylog_series]),
    *[(f"families.{f.__name__}", [f]) for f in (
        families.fdpb_closed, families.fdpb_poly, families.fdpb_gf,
        families.carlitz_beta, families.daehee_type_b,
        families.classical_poly_bernoulli, families.bernoulli_poly,
        families.fdpb_x_derivative, families.fdpb_iterated_integral,
        families.integral_unit_interval,
    )],
    ("umbral.pair", [umbral.pair]),
    ("umbral.sheffer_expand", [umbral.sheffer_expand]),
    ("umbral.eq60_connection", [umbral.eq60_connection]),
    (_identity_label, [identities.check]),
    ("cli", [cli.main]),
]
COUNTERS = {BiPoly.__mul__: _term_pairs}
IDENTITY_IDS = [i.value for i in identities.IdentityId]
# the memo caches defined in the families module, read through the
# originals; ring.falling_product, imported there by name, is not one
FAMILY_CACHES = [f for f in vars(families).values()
                 if hasattr(f, "cache_info") and f.__module__ == families.__name__]


def bindings() -> dict:
    """Every (namespace, name) -> object binding the tracer may touch."""
    return {(ns, name): obj for ns in NAMESPACES for name, obj in vars(ns).items()}


def unchanged(before: dict) -> bool:
    """True when every binding is the same object as in ``before``."""
    after = bindings()
    return after.keys() == before.keys() and all(after[k] is v for k, v in before.items())


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}  # label -> [calls, self_s, total_s]
        self.counts: dict[str, int] = {}
        self._open: list[float] = []  # child time covered, per open span
        self._patched: list[tuple] = []  # (namespace, name, original)

    def wrap(self, label, fn, count=None):
        """``fn`` wrapped to record a span under ``label``."""
        clock, open_, spans, counts = self.clock, self._open, self.spans, self.counts
        label_of = label if callable(label) else None

        def traced(*args, **kwargs):
            name = label_of(*args) if label_of else label
            if count is not None:
                count(counts, args)
            open_.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = open_.pop()
                if open_:
                    open_[-1] += elapsed
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed - inner
                rec[2] += elapsed

        return traced

    def install(self) -> None:
        """Rebind every binding of each layer function to its wrapper."""
        for label, functions in LAYERS:
            for fn in functions:
                wrapper = self.wrap(label, fn, COUNTERS.get(fn))
                for ns in NAMESPACES:
                    for name, obj in list(vars(ns).items()):
                        if obj is fn:
                            self._patched.append((ns, name, fn))
                            setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            ns, name, original = self._patched.pop()
            setattr(ns, name, original)

    def snapshot(self) -> dict:
        """The aggregates so far, plus the families cache counters."""
        infos = [f.cache_info() for f in FAMILY_CACHES]
        return {
            "spans": self.spans,
            "counts": self.counts,
            "cache_hits": sum(i.hits for i in infos),
            "cache_misses": sum(i.misses for i in infos),
            "cache_entries": sum(i.currsize for i in infos),
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum the snapshots of the processes of one pass.

    Cache entries take the maximum, since each process starts cold.
    """
    out = {"spans": {}, "counts": {}, "cache_hits": 0, "cache_misses": 0, "cache_entries": 0}
    for snap in snapshots:
        for name, rec in snap["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(rec):
                acc[i] += v
        for name, v in snap["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + v
        out["cache_hits"] += snap["cache_hits"]
        out["cache_misses"] += snap["cache_misses"]
        out["cache_entries"] = max(out["cache_entries"], snap["cache_entries"])
    return out


def layer_metrics(trace: dict) -> dict[str, float]:
    """The per-layer metrics of one pass, every name present."""
    spans = trace["spans"]
    out: dict[str, float] = {}
    for label, _ in LAYERS:
        if label in ("cli", _identity_label):
            continue
        calls, self_s, _total = spans.get(label, (0, 0.0, 0.0))
        out[f"{label}.calls"] = calls
        out[f"{label}.self_s"] = self_s
        if label == "ring.mul":
            out["ring.mul.term_pairs"] = trace["counts"].get("ring.mul.term_pairs", 0)
    lookups = trace["cache_hits"] + trace["cache_misses"]
    out["families.cache_hit_ratio"] = trace["cache_hits"] / lookups if lookups else 0.0
    out["families.cache_entries"] = trace["cache_entries"]
    for ident in IDENTITY_IDS:
        out[f"identities.{ident}.s"] = spans.get(f"identities.{ident}", (0, 0.0, 0.0))[2]
    out["cli.self_s"] = spans.get("cli", (0, 0.0, 0.0))[1]
    return out

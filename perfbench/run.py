"""fdpb benchmark: run one workload and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload tabulate --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced
    python3 perfbench/run.py --workload verify --trace 1   # per-layer numbers

A run repeats one *pass* -- a fixed unit of work drawn from the seed --
until the next pass would end after ``--seconds``, and reports medians
over passes.  Every query runs in a process forked from this one after
``import fdpb`` and before any fdpb computation, so it starts with cold
memo caches: one process per CLI command (``verify``, ``tabulate``), one
per session (``gf-session``).  At most two processes are alive.

Times of untraced runs are read in reference units (``ref``) with a
:class:`refclock.RefClock` running inside each working process, because
the host's speed drifts too much for raw seconds to compare; raw seconds
are printed beside them.  ``setup_s`` is read with the reference speed
too, and converted to seconds at the fixed speed ``SETUP_RATE``.  The
per-layer times are raw seconds.

Every output is hashed and compared with ``reference_digests.json``; an
exception, a nonzero exit code or a differing digest is a failed query.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 1``
the passes alternate untraced and traced, both without the reference
clock, the metrics are the per-layer ones of the traced passes, and the
tracing overhead is traced minus untraced wall and CPU seconds, as a
median over adjacent pairs of passes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

from refclock import RefClock, measure_rate

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference_digests.json")
SETUP_STARTS = 60  # fresh interpreters timed per run for setup_s
SETUP_RATE = 2000.0  # reference units per second at which setup_s reads seconds
MB = 1024.0  # ru_maxrss is in KiB on Linux


def source_root() -> str:
    """The fdpb sources under the working directory; exit 2 if absent."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "fdpb", "__init__.py")):
        print(f"perfbench: no src/fdpb under {os.getcwd()}; run from the repository root",
              file=sys.stderr)
        sys.exit(2)
    return src


def load_references() -> dict[str, str]:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["digests"]


def measure_setup(src: str, starts: int = SETUP_STARTS) -> tuple[float, float]:
    """Median time from a fresh interpreter to a finished ``import fdpb``.

    Returns it in seconds at the reference speed ``SETUP_RATE``, and in
    raw seconds.  Each start's wall time is multiplied by the reference
    rate measured in this process just before and just after it, three
    samples on each side, so that it reads the same on a slow host and a
    fast one.
    """
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-c", "import fdpb"]
    subprocess.run(cmd, env=env, check=True)  # writes the bytecode cache once
    paced, raw = [], []
    for _ in range(starts):
        rates = [measure_rate() for _ in range(3)]
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        wall = time.perf_counter() - t0
        rates += [measure_rate() for _ in range(3)]
        raw.append(wall)
        paced.append(wall * statistics.fmean(rates) / SETUP_RATE)
    return statistics.median(paced), statistics.median(raw)


def run_in_child(work):
    """Run ``work()`` in a forked child; its result must be JSON-able.

    Returns (result or None, wall seconds, CPU seconds, RSS growth in
    KiB), all of the child, measured from just before the fork to the
    reap.  The growth is the child's peak resident memory minus the peak
    it has just after the fork, which is what it inherits from this
    process, so it counts only the memory the work itself adds.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as fh:
                rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                fh.write(b"%d\n" % rss0)
                fh.flush()
                fh.write(json.dumps(work()).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - t0
    head, _, data = data.partition(b"\n")
    growth = usage.ru_maxrss - int(head or 0)
    ok = os.waitstatus_to_exitcode(status) == 0 and data
    return (json.loads(data) if ok else None), wall, usage.ru_utime + usage.ru_stime, growth


@dataclass
class Pass:
    wall_s: float = 0.0  # raw seconds, of this process around the pass
    cpu_s: float = 0.0  # raw seconds, of the working processes
    wall_ref: float = 0.0  # reference units, of the work in the working processes
    cpu_ref: float = 0.0
    rss_kb: int = 0
    latency_ref: list[float] = field(default_factory=list)  # in stream order
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)

    def add_process(self, cpu: float, readings: dict | None) -> None:
        """Count one working process; ``readings`` are its reference clock's."""
        self.cpu_s += cpu
        if readings:
            self.wall_ref += readings["work"]
            self.cpu_ref += (cpu - readings["spent"]) * readings["rate"]


def _start_clock(paced: bool):
    if not paced:
        return None
    clock = RefClock()
    clock.start()
    return clock


def _readings(clock, t0: float, t1: float, calls=()) -> dict | None:
    """What the parent needs of a child's clock: the work from ``t0`` to
    ``t1`` and each call in ``calls`` in reference units, and the seconds
    and mean rate of the samples, to turn its CPU time into units."""
    if clock is None:
        return None
    clock.stop()
    return {"work": clock.between(t0, t1), "spent": clock.spent(), "rate": clock.rate(),
            "calls": [clock.between(a, b) for a, b in calls]}


def _check(p: Pass, key: str, refs: dict, text_digest: str | None, error: str | None) -> None:
    p.attempted += 1
    if error is not None:
        p.failures.append(f"{key}: {error}")
    elif refs.get(key) is None:
        p.failures.append(f"{key}: no reference digest")
    elif refs[key] != text_digest:
        p.failures.append(f"{key}: output differs from the reference")


def _cli_work(query, tracer, paced):
    from workloads import digest, run_cli
    error = None
    clock = _start_clock(paced)
    t0 = time.perf_counter()
    try:
        code, text = run_cli(query.argv)
        if code != 0:
            error = f"exit code {code}"
    except Exception as exc:  # a failed query, not a failed benchmark
        text, error = "", f"{type(exc).__name__}: {exc}"
    readings = _readings(clock, t0, time.perf_counter())
    return {"digest": digest(text), "error": error, "readings": readings,
            "trace": tracer.snapshot() if tracer else None}


def _session_work(queries, tracer, paced):
    from workloads import digest, prepare_call, render
    results, calls = [], []
    clock = _start_clock(paced)
    start = time.perf_counter()
    for q in queries:
        fn, args = prepare_call(q.call)
        t0 = time.perf_counter()
        try:
            value = fn(*args)
            calls.append((t0, time.perf_counter()))
            results.append([q.key, digest(render(value)), None])
        except Exception as exc:
            calls.append((t0, time.perf_counter()))
            results.append([q.key, None, f"{type(exc).__name__}: {exc}"])
    readings = _readings(clock, start, time.perf_counter(), calls)
    return {"results": results, "readings": readings,
            "trace": tracer.snapshot() if tracer else None}


def run_pass(workload: str, queries, refs: dict, tracer=None, paced=True) -> Pass:
    """One pass over ``queries``; ``tracer`` is installed by the caller.

    A paced pass runs a reference clock in every working process.  A
    process that dies gives no readings, and its queries read 0: they are
    failed queries, so the run is not correct anyway.
    """
    p = Pass()
    t0 = time.perf_counter()
    if workload == "gf-session":
        out, _, cpu, p.rss_kb = run_in_child(lambda: _session_work(queries, tracer, paced))
        if out is None:
            for q in queries:
                _check(p, q.key, refs, None, "session process failed")
            p.latency_ref = [0.0] * len(queries)
        else:
            readings = out["readings"]
            p.add_process(cpu, readings)
            for key, text_digest, error in out["results"]:
                _check(p, key, refs, text_digest, error)
            p.latency_ref = readings["calls"] if readings else []
            if tracer:
                p.traces.append(out["trace"])
    else:
        for q in queries:
            out, _, cpu, rss = run_in_child(lambda: _cli_work(q, tracer, paced))
            p.rss_kb = max(p.rss_kb, rss)
            if out is None:
                p.cpu_s += cpu
                p.latency_ref.append(0.0)
                _check(p, q.key, refs, None, "query process failed")
                continue
            readings = out["readings"]
            p.add_process(cpu, readings)
            if readings:
                p.latency_ref.append(readings["work"])
            _check(p, q.key, refs, out["digest"], out["error"])
            if tracer:
                p.traces.append(out["trace"])
    p.wall_s = time.perf_counter() - t0
    return p


def tail_rank(n: int) -> tuple[int, int]:
    """(index into the sorted sample, percentile it stands for).

    The highest percentile with at least ten samples beyond it; with
    ten samples or fewer there is none, and the maximum is used.
    """
    if n <= 10:
        return n - 1, 100
    return n - 11, (100 * (n - 10)) // n


def query_stats(passes: list[Pass]) -> dict:
    """Each query's latency is its median over the passes."""
    per_query = sorted(map(statistics.median, zip(*(p.latency_ref for p in passes))))
    index, pct = tail_rank(len(per_query))
    return {"p50": statistics.median(per_query), "tail": per_query[index],
            "tail_pct": pct, "queries": len(per_query)}


def run_passes(workload: str, queries, refs: dict, seconds: float, trace: bool):
    """Repeat passes until the next one would end after ``seconds``.

    Traced runs alternate untraced and traced passes, starting untraced,
    and make at least one of each; none of their passes is paced, so the
    pairs compare like with like.
    """
    from spans import Tracer, bindings, unchanged
    plain, traced, restored = [], [], True
    start = time.perf_counter()
    while True:
        tracing = trace and len(traced) < len(plain)
        if tracing:
            tracer, before = Tracer(), bindings()
            tracer.install()
            try:
                traced.append(run_pass(workload, queries, refs, tracer, paced=False))
            finally:
                tracer.uninstall()
            restored &= unchanged(before)
        else:
            plain.append(run_pass(workload, queries, refs, paced=not trace))
        done = plain + traced
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall_s for p in done)
        if (not trace or traced) and elapsed + typical > seconds:
            break
    return plain, traced, restored


def end_to_end(passes: list[Pass], setup_s: float) -> tuple[dict, dict]:
    q = query_stats(passes)
    metrics = {
        "wall_ref": (statistics.median(p.wall_ref for p in passes), "ref"),
        "cpu_ref": (statistics.median(p.cpu_ref for p in passes), "ref"),
        "setup_s": (setup_s, "s"),
        "query_p50_ref": (q["p50"], "ref"),
        "query_tail_ref": (q["tail"], "ref"),
        "peak_rss_mb": (statistics.median(p.rss_kb for p in passes) / MB, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, q


def overhead(traced: list[Pass], plain: list[Pass]) -> dict[str, float]:
    """Tracing overhead: the median over adjacent (untraced, traced) pass
    pairs of traced minus untraced wall and CPU seconds.  Pairing the
    passes keeps slow drift of the host out of the difference."""
    pairs = list(zip(plain, traced))
    return {
        "trace.overhead_s": statistics.median(t.wall_s - u.wall_s for u, t in pairs),
        "trace.overhead_cpu_s": statistics.median(t.cpu_s - u.cpu_s for u, t in pairs),
    }


def per_layer(traced: list[Pass], plain: list[Pass]) -> dict:
    from spans import layer_metrics, merge
    runs = [layer_metrics(merge(p.traces)) for p in traced]
    out = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
    out.update(overhead(traced, plain))
    units = {"calls": "count", "term_pairs": "count", "cache_entries": "count",
             "cache_hit_ratio": "ratio"}
    return {k: {"value": v, "unit": units.get(k.rsplit(".", 1)[1], "s")}
            for k, v in out.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 refs: dict, src: str) -> dict:
    from workloads import STREAMS
    queries = STREAMS[workload](seed)
    setup_s, setup_raw = (None, None) if trace else measure_setup(src)
    plain, traced, restored = run_passes(workload, queries, refs, seconds, trace)
    done = plain + traced
    attempted = sum(p.attempted for p in done)
    failures = [f for p in done for f in p.failures]
    print(f"workload {workload}  seed {seed}  passes {len(plain)} untraced, "
          f"{len(traced)} traced  queries/pass {len(queries)}")
    for line in sorted(set(failures))[:20]:
        print(f"  FAILED {line}")
    print(f"  failed_frac     {len(failures) / attempted:.4f}  ({len(failures)}/{attempted})")
    if trace:
        metrics = per_layer(traced, plain)
        diffs = [t.wall_s - u.wall_s for u, t in zip(plain, traced)]
        print(f"  pass wall {statistics.median(p.wall_s for p in plain):.3f} s untraced, "
              f"{statistics.median(p.wall_s for p in traced):.3f} s traced: overhead "
              f"{metrics['trace.overhead_s']['value']:.3f} s wall (pairs from {min(diffs):.3f} "
              f"to {max(diffs):.3f} s over {len(diffs)}), "
              f"{metrics['trace.overhead_cpu_s']['value']:.3f} s CPU; "
              f"wrapped functions restored: {restored}")
        top = sorted((k for k in metrics if k.endswith("self_s")),
                     key=lambda k: -metrics[k]["value"])[:8]
        for k in top:
            print(f"  {k:<40} {metrics[k]['value']:.4f} s")
    else:
        metrics, q = end_to_end(plain, setup_s)
        for name, m in metrics.items():
            print(f"  {name:<15} {m['value']:.4f} {m['unit']}")
        print(f"  query_tail_ref is p{q['tail_pct']} over {q['queries']} queries, "
              f"each the median of {len(plain)} passes")
        print(f"  raw seconds, not gated: wall_s "
              f"{statistics.median(p.wall_s for p in plain):.4f}, cpu_s "
              f"{statistics.median(p.cpu_s for p in plain):.4f}, setup_s {setup_raw:.4f}")
    return {"correct": not failures and restored, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    src = source_root()
    sys.path[:0] = [HERE, src]
    import fdpb
    if not os.path.abspath(fdpb.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported fdpb from {fdpb.__file__}, not from {src}")
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.workload == "all" and args.trace:
        parser.error("--workload all runs untraced")
    refs = load_references()
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), refs, src)
               for w in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fdpb import families, identities, ring  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_stream_is_deterministic_and_seeded(workload):
    stream = workloads.STREAMS[workload]
    assert stream(5) == stream(5)
    assert stream(0) != stream(1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_stream_stays_inside_the_reference_space(workload):
    space = {q.key for q in workloads.SPACES[workload]()}
    refs = run.load_references()
    assert space <= refs.keys()
    for seed in range(40):
        assert {q.key for q in workloads.STREAMS[workload](seed)} <= space


def test_default_seed_verifies_k_window_minus_3_to_3():
    (query,) = workloads.verify_stream(0)
    assert query.argv[query.argv.index("--k-min") + 1] == "-3"
    assert query.argv[query.argv.index("--k-max") + 1] == "3"


def test_self_time_on_a_nested_span_tree():
    class Clock:
        now = 0.0

        def __call__(self):
            return self.now

    clock = Clock()
    tracer = spans.Tracer(clock=clock)

    def work(seconds):
        clock.now += seconds

    leaf = tracer.wrap("leaf", lambda: work(1))

    def _mid():
        work(2)
        leaf()
        work(3)
        leaf()

    mid = tracer.wrap("mid", _mid)

    def _root():
        work(5)
        mid()
        leaf()
        work(7)

    tracer.wrap("root", _root)()
    assert tracer.spans == {
        "leaf": [3, 3.0, 3.0],
        "mid": [1, 5.0, 7.0],
        "root": [1, 12.0, 20.0],
    }


def test_install_traces_every_binding_and_uninstall_restores_them():
    before = spans.bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        # identities and families hold their own name for falling_product
        assert identities.falling_product is ring.falling_product
        assert identities.falling_product is not before[(identities, "falling_product")]
        ring.BiPoly.const(2) * ring.X
        2 * ring.X  # __rmul__
        families.fdpb_poly(3, 1)
    finally:
        tracer.uninstall()
    assert spans.unchanged(before)
    metrics = spans.layer_metrics(tracer.snapshot())
    assert metrics["ring.mul.calls"] >= 2
    assert metrics["ring.mul.term_pairs"] >= 2
    assert metrics["families.fdpb_closed.calls"] >= 4
    assert set(metrics) >= {f"identities.{i.value}.s" for i in identities.IdentityId}


def test_tail_rank_keeps_ten_samples_beyond():
    assert run.tail_rank(40) == (29, 75)
    assert run.tail_rank(11) == (0, 9)
    assert run.tail_rank(3) == (2, 100)


CHEAP = [
    workloads.cli_query(workloads.tabulate_argv("poly", "bernoulli", 16, None, None, "text")),
    workloads.cli_query(workloads.tabulate_argv("table", "polybernoulli", 16, 2, "1/2", "csv")),
]


@pytest.mark.parametrize("workload,queries", [
    ("tabulate", CHEAP),
    ("gf-session", [workloads.lib_query("fdpb_gf_0", 7, -2),
                    workloads.lib_query("fdpb_iterated_integral", 2, 8)]),
])
def test_corrupted_reference_digest_fails_the_query(workload, queries):
    refs = run.load_references()
    clean = run.run_pass(workload, queries, refs)
    assert clean.attempted == 2 and clean.failures == []
    corrupted = dict(refs, **{queries[1].key: "0" * 64})
    bad = run.run_pass(workload, queries, corrupted)
    assert bad.attempted == 2
    assert len(bad.failures) == 1 and "differs" in bad.failures[0]


def test_a_failing_command_is_a_failed_query():
    query = workloads.cli_query(["poly", "--family", "fdpb", "--n", "3"])  # no --k
    p = run.run_pass("tabulate", [query], {query.key: "0" * 64})
    assert p.failures == [f"{query.key}: exit code 2"]


def test_family_caches_are_the_families_own():
    assert spans.FAMILY_CACHES
    assert all(f.__module__ == families.__name__ for f in spans.FAMILY_CACHES)
    assert ring.falling_product not in spans.FAMILY_CACHES


def test_child_memory_is_growth_over_what_it_inherits():
    _, _, _, small = run.run_in_child(lambda: 0)
    result, _, _, large = run.run_in_child(lambda: len(b"x" * (16 << 20)))
    assert result == 16 << 20
    assert 0 <= small < 4 * 1024  # KiB
    assert large >= 15 * 1024


def test_overhead_pairs_each_traced_pass_with_the_untraced_one_before():
    plain = [run.Pass(wall_s=w, cpu_s=w) for w in (10.0, 20.0, 30.0)]
    traced = [run.Pass(wall_s=w, cpu_s=w - 1) for w in (11.0, 22.0)]
    assert run.overhead(traced, plain) == {"trace.overhead_s": 1.5,
                                           "trace.overhead_cpu_s": 0.5}


def test_ref_clock_takes_samples_out_and_weighs_by_the_samples_around():
    clock = refclock.RefClock()
    clock.samples = [(0.0, 0.001, 1000.0), (1.0, 1.001, 1000.0),
                     (2.0, 2.002, 500.0), (3.0, 3.001, 2000.0)]
    # samples at 1.0 and 2.0 fall inside; 0.0 and 3.0 bracket them
    assert clock.between(0.5, 2.5) == pytest.approx((2.0 - 0.003) * 1125.0)
    # an interval without samples takes the rate of its two neighbours
    assert clock.between(1.5, 1.75) == pytest.approx(0.25 * 750.0)
    assert clock.spent() == pytest.approx(0.005)
    assert clock.rate() == pytest.approx(1125.0)


def test_ref_clock_samples_while_the_work_runs():
    clock = refclock.RefClock()
    clock.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        sum(range(1000))
    t1 = time.perf_counter()
    clock.stop()
    assert len(clock.samples) >= 6  # one at start, one at stop, one per period
    assert 0 < clock.spent() < 0.3
    units = clock.between(t0, t1)
    assert units == pytest.approx((t1 - t0 - clock.spent()) * clock.rate(), rel=0.5)


def test_a_paced_pass_reads_every_query_in_reference_units():
    p = run.run_pass("tabulate", CHEAP, run.load_references())
    assert p.failures == [] and len(p.latency_ref) == 2
    assert all(v > 0 for v in p.latency_ref)
    assert p.wall_ref == pytest.approx(sum(p.latency_ref))
    assert p.cpu_ref > 0


def test_setup_reads_seconds_at_the_reference_speed():
    paced, raw = run.measure_setup(os.path.join(os.path.dirname(HERE), "src"), starts=3)
    assert 0 < raw < 10
    assert paced / raw == pytest.approx(refclock.measure_rate() / run.SETUP_RATE, rel=0.9)

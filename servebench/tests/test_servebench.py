"""Tests of the benchmark's own logic, plus a seconds-long smoke run of each workload."""

import json
import shutil
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from servebench import compare, workloads
from servebench.common import (
    ROOT,
    best_window_rate,
    due_latencies,
    highest_supported_percentile,
    min_samples_for,
    percentile,
)
from servebench.layers import PER_LAYER
from servebench.run import END_TO_END, FIGURES, OWN
from servebench.tracing import Span, Tracer, layer_totals, link_parents, self_times


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert min_samples_for(50.0) == 20
    assert min_samples_for(90.0) == 100
    assert min_samples_for(99.0) == 1000
    with pytest.raises(ValueError):
        percentile(range(99), 90.0)
    assert percentile(range(100), 90.0) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        percentile(range(999), 99.0)
    percentile(range(1000), 99.0)


def test_highest_supported_percentile():
    assert highest_supported_percentile(19) is None
    assert highest_supported_percentile(20) == 50.0
    assert highest_supported_percentile(999) == 90.0
    assert highest_supported_percentile(1000) == 99.0


# ----------------------------------------------------------------------
# Due-time latency
# ----------------------------------------------------------------------
def test_due_latency_charges_a_stall_to_every_delayed_request():
    due = [0.00, 0.01, 0.02, 0.03]
    sent = [0.00, 0.10, 0.101, 0.102]  # the sender stalled for ~0.1 s
    done = [0.001, 0.1005, 0.1015, 0.1025]
    from_due = due_latencies(due, done)
    from_send = due_latencies(sent, done)
    assert from_due == pytest.approx([0.001, 0.0905, 0.0815, 0.0725])
    assert max(from_send) < 0.002  # timing from the send would hide the stall


def test_capacity_is_the_busiest_whole_window():
    done = np.array([0.1, 0.2, 0.3, 1.1, 2.5, 2.6, 2.7, 2.8, 3.9])
    assert best_window_rate(done, 0.0, 4.0, 1.0) == 4.0  # [2, 3) holds four
    assert best_window_rate(done, 0.0, 4.5, 2.0) == 2.5  # [2, 4) holds five; [4, 4.5) is cut
    assert best_window_rate(done[:4], 0.0, 1.5, 2.0) == pytest.approx(4 / 1.5)


class _StallingTransport:
    """Answers instantly, except one request that takes ``stall_s``."""

    def __init__(self, stall_at: int, stall_s: float) -> None:
        self.calls = 0
        self.stall_at = stall_at
        self.stall_s = stall_s

    def request(self, req):
        self.calls += 1
        if self.calls == self.stall_at:
            time.sleep(self.stall_s)
        return req


def test_open_loop_times_requests_from_their_due_time():
    sizes = workloads.Sizes(offered_rps=200.0, open_share=1.0)
    primed = [("us25", 0.5)]
    phase = workloads._wire_phase(
        [_StallingTransport(stall_at=10, stall_s=0.2)], primed, {"us25": 60.0},
        1.0, sizes, (0, 0, 0),
    )
    assert phase.closed_count == 0
    n = phase.latencies.size
    assert n > 100
    # Every request due during the stall waited for it: ~200 rps over
    # 0.2 s puts tens of requests behind the stalled one.
    delayed = int(np.sum(phase.latencies > 0.05))
    assert delayed >= 10
    assert phase.latencies.max() >= 0.19
    assert np.sum(phase.lags > 0.05) >= delayed - 1


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def _span(id, start, end, parent=None, rid=None, tid=1, detached=False, layer="x"):
    return Span(id, f"{layer}.f", layer, rid, tid, start, end, parent, detached)


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 5.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),
        _span(4, 4.0, 8.0, parent=1),  # overlaps span 2: the union [1, 8] is covered
    ]
    assert self_times(spans) == pytest.approx({1: 3.0, 2: 3.0, 3: 1.0, 4: 4.0})


def test_self_time_across_threads_links_by_request_id():
    spans = [
        _span(1, 0.0, 10.0, rid="a", detached=True, layer="server"),
        _span(2, 2.0, 6.0, rid="a", tid=2, layer="router"),
        _span(3, 3.0, 4.0, parent=2, rid="a", tid=2, layer="service"),
        _span(4, 7.0, 9.0, rid="a", tid=1, layer="wire"),  # same thread, not on a stack
        _span(5, 1.0, 2.0, rid="b", tid=2, layer="router"),  # another request
    ]
    link_parents(spans)
    assert [s.parent for s in spans] == [None, 1, 2, 1, None]
    assert self_times(spans) == pytest.approx({1: 4.0, 2: 3.0, 3: 1.0, 4: 2.0, 5: 1.0})
    totals = layer_totals(spans)
    assert totals["server"]["self_s"] == pytest.approx(4.0)
    assert totals["router"]["calls"] == 2


def test_equal_intervals_never_parent_each_other():
    spans = [
        _span(1, 0.0, 1.0, rid="a", detached=True),
        _span(2, 0.0, 1.0, rid="a", detached=True),
    ]
    link_parents(spans)
    assert [s.parent for s in spans] == [None, 1]


def test_tracer_stacks_are_per_thread():
    tracer = Tracer()
    opened, release = threading.Event(), threading.Event()

    def hold():
        with tracer.root("client.request", "a"):
            opened.set()
            release.wait(timeout=10.0)

    holder = threading.Thread(target=hold)
    holder.start()
    assert opened.wait(timeout=10.0)
    span = tracer.open("router.request", "router", "b")
    tracer.close(span)
    release.set()
    holder.join(timeout=10.0)
    assert not holder.is_alive()
    assert span.parent is None  # not nested under the other thread's open span


def test_tracer_wraps_and_restores():
    class Layer:
        def call(self, x):
            return x * 2

        @classmethod
        def build(cls, x):
            return x + 1

    original = Layer.__dict__["call"]
    tracer = Tracer()
    tracer.wrap(Layer, "call", "demo")
    tracer.wrap(Layer, "build", "demo")
    with tracer.root("bench.request", "r1"):
        assert Layer().call(3) == 6
        assert Layer.build(3) == 4
    tracer.uninstall()
    assert Layer.__dict__["call"] is original
    names = sorted(s.name for s in tracer.spans)
    assert names == ["bench.request", "demo.build", "demo.call"]
    root = next(s for s in tracer.spans if s.layer == "root")
    assert all(s.parent == root.id and s.rid == "r1" for s in tracer.spans if s is not root)


# ----------------------------------------------------------------------
# Compare verdicts
# ----------------------------------------------------------------------
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def _verdict(change, better="lower", bound=0.1, parent=PARENT):
    pairs = list(zip(parent, change))
    return compare.verdict(parent, change, pairs, better, bound)[0]


def test_verdict_improved():
    assert _verdict([v * 0.8 for v in PARENT]) == compare.IMPROVED
    assert _verdict([v * 1.2 for v in PARENT], better="higher") == compare.IMPROVED


def test_verdict_within_bound():
    assert _verdict([v * 1.02 for v in PARENT]) == compare.WITHIN
    # A small gain that does not clear the parent's own spread is no claim.
    assert _verdict([v - 0.1 for v in PARENT]) == compare.WITHIN


def test_verdict_worse():
    assert _verdict([v * 1.3 for v in PARENT]) == compare.WORSE
    assert _verdict([v * 0.7 for v in PARENT], better="higher") == compare.WORSE


def test_verdict_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert _verdict([v * 1.05 for v in noisy], parent=noisy) == compare.UNRESOLVED
    # ...unless every change run reads better than every parent run.
    assert _verdict([50.0] * 10, parent=noisy) == compare.IMPROVED


def test_compare_pairs_by_seed():
    parent = [(1, 10.0), (2, 20.0)]
    change = [(2, 21.0), (1, 11.0)]
    assert compare.pairs_of(parent, change) == [(10.0, 11.0), (20.0, 21.0)]


def test_compare_pairs_repeated_seeds_in_order_then_by_position():
    parent = [(1, 10.0), (1, 11.0), (1, 12.0), (5, 50.0)]
    change = [(1, 20.0), (7, 70.0), (1, 21.0)]
    assert compare.pairs_of(parent, change) == [(10.0, 20.0), (11.0, 21.0), (12.0, 70.0)]


def test_error_rate_verdict():
    assert compare.error_verdict([0.0] * 10, [0.0] * 10) == compare.WITHIN
    assert compare.error_verdict([0.0] * 10, [0.0] * 9 + [0.01]) == compare.WORSE
    assert compare.error_verdict([0.02] * 10, [0.0] * 10) == compare.IMPROVED


def _record(seed, value, seconds=30.0, trace=0):
    return {"workload": "cold_fleet", "seed": seed, "seconds": seconds, "trace": trace,
            "sizes": {"fleet_per_corridor": 5},
            "figures": {"plans_per_s": {"value": value, "unit": "plans/s", "better": "higher"},
                        "error_rate": {"value": 0.0, "unit": "fraction", "better": "lower"}}}


SPEC = {"workloads": [{"name": "cold_fleet"}],
        "end_to_end": [{"name": "capacity_rps", "bound": 0.1}]}


def test_compare_rows_take_the_bound_of_the_metric_they_stand_for():
    parent = [_record(s, 10.0 + 0.01 * s) for s in range(10)]
    change = [_record(s, 8.0 + 0.01 * s) for s in range(10)]
    rows = compare.compare(parent, change, SPEC)
    verdicts = {row["figure"]: row["verdict"] for row in rows}
    assert verdicts == {"plans_per_s": compare.WORSE, "error_rate": compare.WITHIN}


def test_compare_refuses_runs_of_another_length(tmp_path):
    parent = [_record(s, 10.0) for s in range(3)]
    change = [_record(s, 10.0, seconds=20.0) for s in range(3)]
    with pytest.raises(ValueError, match="seconds"):
        compare.compare(parent, change, SPEC)
    path = tmp_path / "results.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in parent + [_record(9, 1.0, trace=1)]))
    assert len(compare.load(tmp_path)) == 3  # traced runs are not compared


# ----------------------------------------------------------------------
# The contract file
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(OWN)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, *FIGURES[name]) for name in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    bounds = [m["bound"] for m in spec["end_to_end"]]
    assert all(0 < b <= 0.25 for b in bounds)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(bounds)
    assert spec["command"] == ["python3", "servebench/run.py"]
    assert spec["paths"] == ["servebench"]
    for own in OWN.values():  # every judged figure has a bound to be judged by
        assert all(compare.BOUND_OF.get(n, n) in END_TO_END for n in own if n != "error_rate")


def test_run_without_the_program_exits_nonzero_silently(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "servebench", tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "cold_fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----------------------------------------------------------------------
# Smoke: every workload, both modes, at a seconds-long size
# ----------------------------------------------------------------------
SMOKE = workloads.Sizes(
    setups=1,
    primed_per_corridor=2,
    period_multiples=3,
    offered_rps=700.0,
    fleet_per_corridor=1,
    fleet_periods=2,
    min_rounds=20,
    replan_sources_per_corridor=1,
)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke(name, trace):
    outcome = workloads.WORKLOADS[name](seed=3, seconds=3.0, trace=trace, sizes=SMOKE)
    assert outcome.checks and all(outcome.checks.values()), outcome.checks
    assert outcome.failed == 0 and outcome.attempted > 0
    values = outcome.values
    assert all(np.isfinite(v) for v in values.values())
    if not trace:
        assert set(values) >= set(END_TO_END) | set(OWN[name])
        assert all(values[m] > 0 for m in END_TO_END)
        assert values["error_rate"] == 0
        return
    assert set(values) == {m[0] for m in PER_LAYER}
    if name == "warm_wire":
        assert values["dp.solves"] == 0
        assert values["wire.decode_us_per_req"] > 0
        assert values["queue.windows_calls_per_req"] >= 1
    else:
        assert values["wire.encode_us_per_req"] == 0
        assert values["server.self_us_per_req"] == 0
        assert values["dispatcher.queue_wait_us_p50"] == 0
        assert values["dp.solves"] > 0

"""The observability layer: registry, spans, histograms, exports."""

import json
import math
import sys
import threading

import pytest

from repro import obs
from repro.obs.registry import Histogram, MetricsRegistry


class TestCounters:
    def test_counter_starts_at_zero(self):
        reg = MetricsRegistry()
        assert reg.counter_value("x") == 0

    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.inc("x", 4)
        assert reg.counter_value("x") == 5

    def test_gauge_keeps_latest(self):
        reg = MetricsRegistry()
        reg.gauge("g", 1.0)
        reg.gauge("g", 7.5)
        assert reg.gauge_value("g") == 7.5
        assert reg.gauge_value("missing") is None


class TestHistogram:
    def test_empty_histogram(self):
        h = Histogram()
        assert math.isnan(h.percentile(50.0))
        assert h.snapshot() == {"count": 0}

    def test_single_sample(self):
        h = Histogram()
        h.observe(0.25)
        assert h.count == 1
        assert h.percentile(50.0) == pytest.approx(0.25, rel=0.0)

    def test_percentiles_within_bucket_resolution(self):
        """Log-bucket estimates stay within the bucket growth factor."""
        import random

        rng = random.Random(42)
        samples = [rng.uniform(0.001, 1.0) for _ in range(5000)]
        h = Histogram()
        for s in samples:
            h.observe(s)
        samples.sort()
        for q in (50.0, 90.0, 99.0):
            true = samples[int(q / 100.0 * len(samples)) - 1]
            est = h.percentile(q)
            assert est == pytest.approx(true, rel=h.growth - 1.0)

    def test_percentiles_monotone_and_clamped(self):
        h = Histogram()
        for v in (0.1, 0.2, 0.4, 0.8):
            h.observe(v)
        assert h.percentile(0.0) == pytest.approx(0.1)
        assert h.percentile(100.0) == pytest.approx(0.8)
        assert h.percentile(50.0) <= h.percentile(90.0) <= h.percentile(99.0)

    def test_negative_samples_clamp_to_zero(self):
        h = Histogram()
        h.observe(-1.0)
        assert h.min == 0.0
        assert h.count == 1

    def test_overflow_lands_in_last_bucket(self):
        h = Histogram(base=1e-6, growth=2.0, n_buckets=4)
        h.observe(1e12)
        assert h.counts[-1] == 1

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            Histogram(base=0.0)
        with pytest.raises(ValueError):
            Histogram(growth=1.0)
        with pytest.raises(ValueError):
            Histogram(n_buckets=1)

    def test_invalid_percentile_rejected(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101.0)


class TestSpans:
    def test_span_records_duration(self):
        reg = MetricsRegistry()
        with reg.span("work"):
            pass
        stats = reg.span_stats("work")
        assert stats.count == 1
        assert stats.total_s >= 0.0

    def test_nested_spans_build_dotted_paths(self):
        reg = MetricsRegistry()
        with reg.span("outer"):
            with reg.span("inner"):
                with reg.span("leaf"):
                    pass
            with reg.span("inner"):
                pass
        assert reg.span_paths() == ["outer", "outer.inner", "outer.inner.leaf"]
        assert reg.span_stats("outer.inner").count == 2

    def test_numeric_fields_sum_across_spans(self):
        reg = MetricsRegistry()
        for n in (10, 32):
            with reg.span("expand") as span:
                span.add(transitions=n)
        assert reg.span_stats("expand").fields["transitions"] == 42

    def test_non_numeric_fields_keep_last_value(self):
        reg = MetricsRegistry()
        with reg.span("solve") as span:
            span.add(objective="energy")
        with reg.span("solve") as span:
            span.add(objective="time")
        assert reg.span_stats("solve").fields["objective"] == "time"

    def test_span_recorded_when_body_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("failing"):
                raise RuntimeError("boom")
        assert reg.span_stats("failing").count == 1
        assert not reg._span_stack  # stack unwound

    def test_sibling_after_exception_not_nested(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            with reg.span("a"):
                raise ValueError
        with reg.span("b"):
            pass
        assert reg.span_stats("b") is not None  # not "a.b"


class TestThreads:
    """One registry shared by several threads keeps exact books."""

    def test_spans_nest_on_their_own_thread(self):
        reg = MetricsRegistry()
        a_open, b_open, a_closed = threading.Event(), threading.Event(), threading.Event()

        def thread_a():
            with reg.span("a"):
                a_open.set()
                assert b_open.wait(10.0)
            a_closed.set()  # "a" exits while "b" is still open

        def thread_b():
            assert a_open.wait(10.0)
            with reg.span("b"):
                b_open.set()
                assert a_closed.wait(10.0)

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        with reg.span("later"):
            pass
        assert reg.span_paths() == ["a", "b", "later"]
        assert not reg._span_stack

    def test_concurrent_updates_are_never_lost(self):
        reg = MetricsRegistry()
        n_threads, n_ops = 8, 20_000
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            for _ in range(n_ops):
                reg.inc("c")
                reg.observe("h", 1.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert reg.counter_value("c") == n_threads * n_ops
        assert reg.histogram("h").count == n_threads * n_ops


class TestNoOpMode:
    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("c")
        reg.gauge("g", 1.0)
        reg.observe("h", 0.5)
        with reg.span("s") as span:
            span.add(x=1)
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}, "spans": {}}

    def test_disabled_span_is_shared_null_object(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.span("a") is reg.span("b")

    def test_default_registry_starts_disabled(self):
        assert obs.get_registry() is not None
        # Tests elsewhere may toggle it; the module default itself must
        # boot disabled so library users pay nothing by default.
        from repro.obs import registry as registry_module

        assert registry_module._default_registry.enabled is False

    def test_reenabling_resumes_recording(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("c")
        reg.enabled = True
        reg.inc("c")
        assert reg.counter_value("c") == 1


class TestActiveRegistry:
    def test_use_registry_installs_and_restores(self):
        before = obs.get_registry()
        scoped = MetricsRegistry()
        with obs.use_registry(scoped) as reg:
            assert reg is scoped
            assert obs.get_registry() is scoped
        assert obs.get_registry() is before

    def test_set_registry_none_restores_default(self):
        from repro.obs import registry as registry_module

        previous = obs.set_registry(MetricsRegistry())
        try:
            obs.set_registry(None)
            assert obs.get_registry() is registry_module._default_registry
        finally:
            obs.set_registry(previous)


class TestExports:
    def _populated(self):
        reg = MetricsRegistry()
        reg.inc("cloud.hits", 3)
        reg.gauge("sim.vehicles", 12)
        reg.observe("cloud.request_s", 0.05)
        reg.observe("cloud.request_s", 0.15)
        with reg.span("dp.solve") as span:
            span.add(expanded_transitions=100)
            with reg.span("expand"):
                pass
        return reg

    def test_json_roundtrip(self):
        snap = json.loads(obs.to_json(self._populated()))
        assert snap["counters"]["cloud.hits"] == 3
        assert snap["gauges"]["sim.vehicles"] == 12
        assert snap["histograms"]["cloud.request_s"]["count"] == 2
        assert "dp.solve" in snap["spans"]
        assert "dp.solve.expand" in snap["spans"]
        assert snap["spans"]["dp.solve"]["fields"]["expanded_transitions"] == 100

    def test_json_has_no_nan_literals(self):
        reg = MetricsRegistry()
        with reg.span("empty-fields"):
            pass
        json.loads(obs.to_json(reg))  # must not raise

    def test_csv_rows(self):
        text = obs.to_csv(self._populated())
        lines = text.strip().splitlines()
        assert lines[0] == "kind,name,stat,value"
        assert "counter,cloud.hits,value,3" in lines
        assert any(line.startswith("span,dp.solve.expand,count,") for line in lines)
        assert any(
            line.startswith("span,dp.solve,field.expanded_transitions,100")
            for line in lines
        )

    def test_summary_mentions_every_section(self):
        text = obs.summary(self._populated())
        for token in ("spans", "counters", "gauges", "histograms", "dp.solve.expand"):
            assert token in text

    def test_summary_of_empty_registry(self):
        assert obs.summary(MetricsRegistry()) == "(no metrics recorded)"

    def test_reset_clears_everything(self):
        reg = self._populated()
        reg.reset()
        assert reg.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "spans": {},
        }
        assert reg.enabled


class TestInstrumentation:
    def test_dp_solve_emits_phase_spans(self, us25, coarse_config):
        from repro.core.planner import UnconstrainedDpPlanner

        with obs.use_registry(MetricsRegistry()) as reg:
            planner = UnconstrainedDpPlanner(us25, config=coarse_config)
            solution = planner.plan(start_time_s=0.0, max_trip_time_s=300.0)
        assert reg.span_stats("dp.table_build").count == 1
        solve = reg.span_stats("dp.solve")
        assert solve.count == 1
        assert solve.fields["expanded_transitions"] == solution.expanded_transitions
        n_segments = planner.solver.positions.size - 1
        assert reg.span_stats("dp.solve.expand").count == n_segments
        assert reg.span_stats("dp.solve.select").count == n_segments
        assert reg.span_stats("dp.solve.backtrack").count == 1

    def test_infeasible_solve_flags_span(self, us25, coarse_config):
        from repro.core.planner import UnconstrainedDpPlanner
        from repro.errors import InfeasibleProblemError

        with obs.use_registry(MetricsRegistry()) as reg:
            planner = UnconstrainedDpPlanner(us25, config=coarse_config)
            with pytest.raises(InfeasibleProblemError):
                planner.plan(start_time_s=0.0, max_trip_time_s=5.0)
        assert reg.span_stats("dp.solve").fields["infeasible"] == 1

    def test_simulator_steps_record_metrics(self, plain_road):
        from repro.sim.simulator import CorridorSimulator

        with obs.use_registry(MetricsRegistry()) as reg:
            sim = CorridorSimulator(plain_road, arrivals_s=[0.0, 2.0], seed=1)
            sim.run(until_s=5.0)
        assert reg.counter_value("sim.steps") == 10
        assert reg.histogram("sim.step_s").count == 10
        assert reg.gauge_value("sim.vehicles") is not None

    def test_sae_fit_records_layer_and_epoch_spans(self):
        import numpy as np

        from repro.traffic.sae import SAEPredictor

        rng = np.random.default_rng(0)
        x = rng.random((40, 6))
        y = rng.random(40)
        with obs.use_registry(MetricsRegistry()) as reg:
            SAEPredictor(
                hidden_sizes=(4,), pretrain_epochs=2, finetune_epochs=3
            ).fit(x, y)
        assert reg.span_stats("sae.fit").count == 1
        assert reg.span_stats("sae.fit.pretrain_layer").count == 1
        assert reg.span_stats("sae.fit.finetune_epoch").count == 3
        assert reg.histogram("sae.pretrain.recon_mse").count == 2
        assert reg.histogram("sae.finetune.loss").count == 3

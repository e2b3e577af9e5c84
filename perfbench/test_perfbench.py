"""Tests of the benchmark's own code (run with pytest from the root).

Percentile selection, self-time arithmetic, seed determinism of the
generated inputs, the open-loop generator's lag accounting and the
agreement of ``BENCHMARK.json`` with the metrics ``run.py`` prints.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))

import benchstats  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, covered, self_times  # noqa: E402


# -- percentile selection -----------------------------------------------------

@pytest.mark.parametrize("n, want", [(1000, 99.0), (5000, 99.0),
                                     (500, 98.0), (100, 90.0),
                                     (20, 50.0), (19, 50.0), (3, 50.0)])
def test_tail_percentile_is_highest_with_ten_beyond(n, want):
    assert benchstats.tail_percentile(n) == pytest.approx(want)


@pytest.mark.parametrize("n", [20, 37, 100, 250, 999, 1000, 4096])
def test_tail_leaves_at_least_ten_samples_beyond(n):
    samples = list(range(n))
    value, pct, count = benchstats.tail(samples)
    assert count == n
    assert sum(1 for s in samples if s > value) >= 10
    # ...and it is the highest such percentile up to 99.
    if pct < 99.0:
        assert sum(1 for s in samples if s > value) == 10


def test_percentile_nearest_rank():
    samples = [5, 1, 4, 2, 3]
    assert benchstats.percentile(samples, 50) == 3
    assert benchstats.percentile(samples, 100) == 5
    assert benchstats.percentile(samples, 1) == 1


def test_quartile_spread_matches_statistics_quantiles():
    values = [10, 11, 12, 13, 14]
    assert benchstats.quartile_spread(values) == pytest.approx(
        (13.5 - 10.5) / 12)


# -- self time ----------------------------------------------------------------

def _span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, None)


def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4)
    assert covered([(0, 1), (1, 2)]) == pytest.approx(2)
    assert covered([]) == 0.0


def test_self_time_nested_spans():
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 3.0, 1),
             _span(3, 4.0, 5.0, 1), _span(4, 1.5, 2.5, 2)]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - 2 - 1)
    assert own[2] == pytest.approx(2 - 1)
    assert own[3] == pytest.approx(1)
    assert own[4] == pytest.approx(1)


def test_self_time_overlapping_children_count_once():
    # Two children overlapping each other (threads) and one running
    # past the parent's end: covered time is their clipped union.
    spans = [_span(1, 0.0, 10.0), _span(2, 2.0, 6.0, 1),
             _span(3, 4.0, 8.0, 1), _span(4, 9.0, 12.0, 1)]
    assert self_times(spans)[1] == pytest.approx(10 - 6 - 1)


def test_tracer_links_parents_and_trace_ids():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("outer", trace_id="sess-1")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    assert inner.parent == outer.span_id
    assert inner.trace_id == "sess-1"
    assert self_times(tracer.spans)[outer.span_id] == pytest.approx(2)


def test_instrumentation_is_removed_after_install():
    from repro.core import cohort, stages
    from repro.ingest.workqueue import BoundedWorkQueue

    from spans import Instrumentation

    originals = (stages.RPeakStage.run, cohort.process_cohort,
                 BoundedWorkQueue.put)
    instr = Instrumentation(Tracer())
    instr.install()
    assert stages.RPeakStage.run is not originals[0]
    instr.remove()
    assert (stages.RPeakStage.run, cohort.process_cohort,
            BoundedWorkQueue.put) == originals


# -- seed determinism ------------------------------------------------------------

def _same_chunks(a, b):
    assert [(c.session_id, c.seq, c.arrival_s) for c in a] == \
        [(c.session_id, c.seq, c.arrival_s) for c in b]
    for x, y in zip(a, b):
        for name in x.signals:
            assert np.array_equal(x.signals[name], y.signals[name])


def test_paced_stream_is_seed_deterministic():
    config = workloads.paced_config(3, seconds=0.5, n_devices=2)
    _, first, _, _ = workloads.fleet_inputs(config)
    _, again, _, _ = workloads.fleet_inputs(config)
    _same_chunks(first, again)
    assert (loadgen.schedule(first, workloads.PACED_COMPRESSION)
            == loadgen.schedule(again, workloads.PACED_COMPRESSION))
    _, other, _, _ = workloads.fleet_inputs(
        workloads.paced_config(4, seconds=0.5, n_devices=2))
    # Another seed moves the schedule and re-draws every later round
    # (round 0 keeps each subject's default synthesis, by design).
    assert [c.arrival_s for c in first] != [c.arrival_s for c in other]
    key = ("device-000-r1", 0)
    a = next(c for c in first if (c.session_id, c.seq) == key)
    b = next(c for c in other if (c.session_id, c.seq) == key)
    assert not np.array_equal(a.signals["ecg"], b.signals["ecg"])


def test_cohort_inputs_are_seed_deterministic():
    first = workloads.cohort_inputs(5)
    again = workloads.cohort_inputs(5)
    other = workloads.cohort_inputs(6)
    assert len(first) == 90
    for a, b in zip(first, again):
        assert np.array_equal(a.channel("z"), b.channel("z"))
    assert not np.array_equal(first[0].channel("z"),
                              other[0].channel("z"))


# -- generator lag ---------------------------------------------------------------

class FakeClock:
    """A clock that only moves when slept on (overshooting each sleep
    by ``oversleep``), or by a scripted stall."""

    def __init__(self, oversleep: float = 0.0) -> None:
        self.now = 100.0
        self.oversleep = oversleep

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds + self.oversleep


class _Chunk:
    def __init__(self, seq, arrival_s):
        self.session_id, self.seq, self.arrival_s = "s", seq, arrival_s


def test_paced_source_on_time_has_no_lag():
    clock = FakeClock()
    chunks = [_Chunk(i, 10.0 + 2.0 * i) for i in range(5)]
    source = loadgen.PacedSource(chunks, loadgen.schedule(chunks, 2.0),
                                 clock=clock, sleep=clock.sleep)
    assert list(source) == chunks
    assert source.due[("s", 4)] == pytest.approx(104.0)
    # The first chunk is due at once: asked for on time, no sleep.
    assert source.lag.lags == [0.0] * 4 and source.behind == 1
    assert source.lag.late_share == 0.0 and source.lag.valid


def test_a_blocked_consumer_is_backlog_not_generator_lag():
    # The consumer (the daemon's producer thread, blocked by
    # backpressure) holds the generator past later due times: those
    # chunks go out at once and latency-from-due charges the program;
    # the run stays valid.
    clock = FakeClock()
    chunks = [_Chunk(i, 0.001 * i) for i in range(200)]
    source = loadgen.PacedSource(chunks, loadgen.schedule(chunks, 1.0),
                                 clock=clock, sleep=clock.sleep,
                                 late_after_s=0.005, bound_s=0.05)
    released = []
    for chunk in source:
        released.append(chunk.seq)
        if chunk.seq == 1:
            clock.now += 0.5
    assert released == list(range(200))
    assert source.behind == 1 + 198
    assert source.lag.lags == [0.0]
    assert source.lag.late_share == 0.0 and source.lag.valid
    # Release minus due, what latency is measured from, shows the stall.
    assert clock.now - source.due[("s", 2)] == pytest.approx(0.499)


def test_a_generator_waking_late_marks_the_run_invalid():
    clock = FakeClock(oversleep=0.1)
    chunks = [_Chunk(i, 0.2 * i) for i in range(50)]
    source = loadgen.PacedSource(chunks, loadgen.schedule(chunks, 1.0),
                                 clock=clock, sleep=clock.sleep,
                                 late_after_s=0.005, bound_s=0.05)
    list(source)
    assert source.behind == 1
    assert source.lag.lags == pytest.approx([0.1] * 49)
    assert source.lag.late_share == pytest.approx(1.0)
    assert source.lag.tail_s() > 0.05
    assert not source.lag.valid


def test_lag_account_clamps_early_releases():
    lag = benchstats.LagAccount(late_after_s=0.001, bound_s=0.01)
    assert lag.record(due=5.0, released=4.0) == 0.0
    assert lag.record(due=5.0, released=5.002) == pytest.approx(0.002)
    assert lag.late_share == pytest.approx(0.5)


# -- host-speed calibration -------------------------------------------------------

def test_steps_scale_by_the_mean_of_nearby_samples():
    from hostspeed import REFERENCE_S, WINDOW_S, HostSpeed, Steps

    speed = HostSpeed()
    # A slow host (2x) around t=0, a reference-speed host far later.
    speed.samples = [(-1.0, 2 * REFERENCE_S), (1.0, 2 * REFERENCE_S),
                     (100.0, REFERENCE_S)]
    rates = Steps(speed, per_second=True)
    rates.add(50.0, (0.0, 0.5))
    times = Steps(speed, per_second=False)
    times.add(0.02, (0.0, 0.5))
    times.add(0.01, (100.0 - WINDOW_S, 100.0))
    assert rates.reference() == pytest.approx([100.0])
    assert times.reference() == pytest.approx([0.01, 0.01])
    assert speed.mean_slowness() == pytest.approx(5 / 3)


def test_bracket_samples_on_both_sides():
    from hostspeed import HostSpeed

    speed = HostSpeed(reps=1)
    result, (start, end) = speed.bracket(lambda x: x + 1, 1)
    assert result == 2
    assert [t < start for t, _ in speed.samples] == [True, False]
    assert speed.samples[1][0] > end
    assert speed.slowness((start, end)) > 0


# -- process lifecycle ------------------------------------------------------------

def test_helper_processes_are_stopped_and_reaped():
    import multiprocessing
    import os
    from multiprocessing import resource_tracker

    from repro.core.shm import ShmArena

    with ShmArena(4096):        # starts the resource tracker
        pass
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    run.stop_helper_processes()
    assert resource_tracker._resource_tracker._pid is None
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


# -- the benchmark definition -----------------------------------------------------

def test_benchmark_json_matches_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} <= \
        set(workloads.WORKLOADS)

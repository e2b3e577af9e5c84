"""The cohort-batched kernel tier: many recordings, one BLAS call.

Per-recording dispatch runs the Fig 3 chain one signal at a time, so a
million-recording sweep pays a python-level stage graph, filter-design
lookups and dozens of small numpy calls per recording.  This module
turns the *hot half* of the chain into leading-axis kernels instead:
recordings are grouped by ``(fs, length bucket)`` (the stage
configuration is shared per call), each group is stacked into one
``(n_recordings, n_samples)`` matrix (ragged lengths zero-padded and
tracked), and ECG conditioning, Pan-Tompkins energy shaping, the ICG
derivative and both zero-phase Butterworth passes run *once per group*
through the row-batched kernels of :mod:`repro.dsp.iir`,
:mod:`repro.dsp.fir` and :mod:`repro.dsp.morphology`.  The already
beat-batched point-detection and hemodynamics stages then fan out per
recording on the precomputed rows.

Outputs are **bit-identical** to the per-recording path: every batched
kernel is pinned sample-for-sample against its per-row oracle by the
parity suite (BLAS keeps GEMM reductions independent of the leading
axis; the FIR head patch and per-row FFT-size bucketing reproduce the
exact per-row summation orders), and the sequential Pan-Tompkins
threshold logic runs per row through the very same methods.  Error
behaviour also matches: any failure inside a batched group demotes the
whole group to per-recording dispatch, and row-level failures (e.g.
too few R peaks) raise at the failing recording's input position,
exactly where the serial loop would have raised.

The parity tests compare every result against a plain
``process_recording`` loop, kept in ``tests/oracles/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.cache import FilterDesignCache, default_design_cache
from repro.core.config import PipelineConfig
from repro.core.context import BeatContext
from repro.core.pipeline import (
    BeatToBeatPipeline,
    result_from_context,
)
from repro.core.stages import HemodynamicsStage, PointDetectionStage
from repro.dsp._signal import stack_ragged
from repro.ecg.pan_tompkins import PanTompkinsDetector
from repro.ecg.preprocessing import preprocess_ecg_batch
from repro.errors import ConfigurationError, SignalError
from repro.icg.batch import BeatLandmarks, detect_all_points_batched
from repro.icg.preprocessing import icg_from_impedance_batch

__all__ = [
    "MAX_GROUP_ROWS",
    "MIN_GROUP_ROWS",
    "CohortGroup",
    "CohortPlan",
    "plan_cohort",
    "process_cohort",
]

#: Slab cap: groups larger than this run as consecutive slabs so a
#: 10^4-recording group never materialises one giant matrix (512 rows
#: of 10 s at 250 Hz is ~10 MB per stacked signal — measured fastest
#: on this chain; bigger slabs start thrashing cache, smaller ones
#: repay the per-call fixed overhead the tier exists to amortise).
MAX_GROUP_ROWS = 512

#: Groups smaller than this gain nothing from stacking and go through
#: per-recording dispatch directly.
MIN_GROUP_ROWS = 2


@dataclass(frozen=True)
class CohortGroup:
    """One stackable batch: same rate, same length bucket.

    ``indices`` point into the cohort's input order; ``width`` is the
    longest member (the stacked matrix width).
    """

    fs: float
    indices: tuple
    width: int


@dataclass(frozen=True)
class CohortPlan:
    """How a recording cohort will execute.

    ``groups`` run the batched tier slab-by-slab; ``singles`` (too
    short for the uniform zero-phase pads, missing channels, singleton
    groups) take per-recording dispatch.  Indices across groups and
    singles partition ``range(n_recordings)``.
    """

    groups: tuple
    singles: tuple

    @property
    def n_batched(self) -> int:
        """Recordings the batched tier will stack."""
        return sum(len(g.indices) for g in self.groups)

    @property
    def n_per_recording(self) -> int:
        """Recordings routed through per-recording dispatch."""
        return len(self.singles)


def _min_batchable_length(fs: float, config: PipelineConfig) -> int:
    """Shortest recording the batched chain accepts at ``fs``.

    Conservative bound over every batched kernel's requirement: the
    uniform zero-phase pads (``3 * ntaps`` per filter), Pan-Tompkins'
    two-second learning phase, and the MWI kernel support.  Shorter
    recordings use per-recording dispatch, whose per-signal pads adapt
    (or whose errors are the contract).
    """
    ecg_taps = config.ecg.fir_order + 1
    lp_sections = (config.icg.order + 1) // 2
    need = max(3 * ecg_taps + 1,
               3 * (2 * lp_sections + 1) + 1,
               int(2 * fs),
               max(1, int(round(
                   config.pan_tompkins.integration_window_s * fs))))
    if config.icg.highpass_hz is not None:
        hp_sections = (config.icg.highpass_order + 1) // 2
        need = max(need, 3 * (2 * hp_sections + 1) + 1)
    return need


def plan_cohort(recordings, config: Optional[PipelineConfig] = None,
                max_group_rows: int = MAX_GROUP_ROWS) -> CohortPlan:
    """Group a recording list into stackable cohorts.

    Grouping key is ``(fs, length bucket)`` with power-of-two length
    buckets — recordings in one group are within 2x of each other, so
    zero-padding waste stays bounded.  The stage configuration is
    shared across the call (as in :func:`process_batch`), so it does
    not enter the key.  Groups wider than ``max_group_rows`` are split
    into consecutive slabs.
    """
    config = config or PipelineConfig()
    if max_group_rows < MIN_GROUP_ROWS:
        raise ConfigurationError(
            f"max_group_rows must be >= {MIN_GROUP_ROWS}, "
            f"got {max_group_rows}")
    buckets: dict = {}
    singles: list = []
    min_lengths: dict = {}
    for index, recording in enumerate(recordings):
        fs = float(recording.fs)
        if fs not in min_lengths:
            min_lengths[fs] = _min_batchable_length(fs, config)
        if ("ecg" not in recording.signals or "z" not in recording.signals
                or recording.n_samples < min_lengths[fs]):
            singles.append(index)
            continue
        bucket = 1 << (recording.n_samples - 1).bit_length()
        buckets.setdefault((fs, bucket), []).append(index)
    groups: list = []
    for (fs, _), indices in buckets.items():
        if len(indices) < MIN_GROUP_ROWS:
            singles.extend(indices)
            continue
        for start in range(0, len(indices), max_group_rows):
            slab = indices[start: start + max_group_rows]
            if len(slab) < MIN_GROUP_ROWS:
                # A trailing one-recording slab stacks nothing.
                singles.extend(slab)
                continue
            width = max(recordings[i].n_samples for i in slab)
            groups.append(CohortGroup(fs=fs, indices=tuple(slab),
                                      width=width))
    return CohortPlan(groups=tuple(groups),
                      singles=tuple(sorted(singles)))


#: The stages after the batched front half — beat-level work that is
#: already internally batched per recording.  Stateless, hence shared.
_TAIL_STAGES = (PointDetectionStage(), HemodynamicsStage())


@dataclass
class _RowOutput:
    """Stage-A products for one batched recording.

    ``points``/``failures``/``landmarks`` are filled when the slab's
    beat-landmark detection also ran batched (one detection over the
    group's concatenated ICG rows); rows they are missing for take the
    stage-object tail path instead.
    """

    ecg_filtered: np.ndarray
    r_peaks: Optional[np.ndarray] = None
    icg: Optional[np.ndarray] = None
    error: Optional[Exception] = None
    points: Optional[list] = None
    failures: Optional[list] = None
    landmarks: Optional[BeatLandmarks] = None


def _run_group(group: CohortGroup, recordings, config: PipelineConfig,
               cache: FilterDesignCache) -> dict:
    """Stage A for one slab: batched conditioning + R peaks.

    Mirrors ``EcgConditionStage`` / ``RPeakStage`` /
    ``IcgConditionStage`` exactly — same cached designs, same
    configuration — but over the leading axis.  Returns
    ``{input_index: _RowOutput}``; raises on any group-level failure
    (the caller demotes the slab wholesale).
    """
    fs = group.fs
    members = [recordings[i] for i in group.indices]
    ecg_rows, lengths = stack_ragged(
        [r.channel("ecg") for r in members], width=group.width)
    z_rows, _ = stack_ragged(
        [r.channel("z") for r in members], width=group.width)

    ecg_filtered = preprocess_ecg_batch(
        ecg_rows, fs, lengths=lengths, config=config.ecg,
        taps=cache.ecg_fir_taps(fs, config.ecg))

    detector = PanTompkinsDetector(
        fs, config.pan_tompkins,
        bandpass_sos=cache.pan_tompkins_sos(fs, config.pan_tompkins),
        mwi_kernel=cache.mwi_kernel(fs, config.pan_tompkins))
    peak_lists = detector.detect_batch(ecg_filtered, lengths=lengths)

    icg_rows = icg_from_impedance_batch(
        z_rows, fs, lengths=lengths, config=config.icg,
        lowpass_sos=cache.icg_lowpass_sos(fs, config.icg),
        highpass_sos=cache.icg_highpass_sos(fs, config.icg))

    outputs: dict = {}
    for row, index in enumerate(group.indices):
        valid = int(lengths[row])
        # Copies: slab matrices die with this function, results must
        # not pin them.
        out = _RowOutput(ecg_filtered=ecg_filtered[row, :valid].copy())
        r_peaks = peak_lists[row]
        if r_peaks.size < 2:
            # The exact RPeakStage failure, raised later at this
            # recording's input position.
            out.error = SignalError(
                "fewer than two R peaks detected; cannot delimit beats")
        else:
            out.r_peaks = r_peaks
            out.icg = icg_rows[row, :valid].copy()
        outputs[index] = out
    _batch_tail(group, config, outputs)
    return outputs


def _batch_tail(group: CohortGroup, config: PipelineConfig,
                outputs: dict) -> None:
    """Stage A': one landmark detection over the slab's concatenated
    ICG rows.

    The per-recording tail pays ~40 fixed-size numpy calls per
    ``detect_all_points_batched`` invocation; at ten beats a recording
    that overhead dominates the whole sweep (Amdahl).  Each batchable
    row's valid ICG samples are laid end to end and detected in *one*
    call with explicit beat windows and per-beat origins — beat
    windows never read outside themselves, and origins make every
    output index (including the float ``b0_index``) bit-identical to a
    detection over the row alone.

    Rows whose beats would delegate to the per-beat reference (any
    R-R interval at or below the C-delay screen) keep the stage-object
    tail — the reference detector works in single-recording frames.
    Fills ``points``/``failures``/``landmarks`` on the rows it covers.
    """
    min_c = int(config.points.min_c_delay_s * group.fs)
    rows: list = []
    segments: list = []
    starts: list = []
    stops: list = []
    origins: list = []
    counts: list = []
    offset = 0
    for index in group.indices:
        out = outputs[index]
        if out.error is not None or out.icg is None:
            continue
        r = np.asarray(out.r_peaks, dtype=np.int64)
        if not (np.diff(r) > min_c).all():
            continue
        rows.append(index)
        segments.append(out.icg)
        starts.append(r[:-1] + offset)
        stops.append(r[1:] + offset)
        origins.append(np.full(r.size - 1, offset, dtype=np.int64))
        counts.append(r.size - 1)
        offset += out.icg.size
    if not rows:
        return
    points, failures, landmarks = detect_all_points_batched(
        np.concatenate(segments), group.fs, None, config.points,
        beats=(np.concatenate(starts), np.concatenate(stops)),
        origins=np.concatenate(origins))
    # Failures carry ascending concatenated beat indices; walk them
    # once while slicing the points list and landmark columns back
    # into per-recording runs.
    beat_base = 0
    point_pos = 0
    failure_pos = 0
    for row_i, index in enumerate(rows):
        n_beats = counts[row_i]
        row_failures = []
        while (failure_pos < len(failures)
               and failures[failure_pos][0] < beat_base + n_beats):
            k, message = failures[failure_pos]
            row_failures.append((k - beat_base, message))
            failure_pos += 1
        n_ok = n_beats - len(row_failures)
        out = outputs[index]
        out.points = points[point_pos: point_pos + n_ok]
        out.failures = row_failures
        out.landmarks = BeatLandmarks(
            r=landmarks.r[point_pos: point_pos + n_ok],
            c=landmarks.c[point_pos: point_pos + n_ok],
            b=landmarks.b[point_pos: point_pos + n_ok],
            x=landmarks.x[point_pos: point_pos + n_ok],
            b0=landmarks.b0[point_pos: point_pos + n_ok],
            x0=landmarks.x0[point_pos: point_pos + n_ok],
            pattern_found=landmarks.pattern_found[
                point_pos: point_pos + n_ok],
        )
        point_pos += n_ok
        beat_base += n_beats


def _finish_recording(recording, output: _RowOutput,
                      pipeline: BeatToBeatPipeline):
    """Stage B for one batched recording: the beat-level tail.

    Rebuilds the stage context exactly as ``run_context`` would after
    the third stage, then runs point detection and hemodynamics — the
    same stage objects, so failure modes and outputs cannot drift.
    """
    if output.error is not None:
        raise output.error
    ctx = BeatContext.from_signals(
        recording.channel("ecg"), recording.channel("z"), pipeline.fs,
        pipeline.config, pipeline.cache)
    ctx.ecg_filtered = output.ecg_filtered
    ctx.r_peak_indices = output.r_peaks
    ctx.icg = output.icg
    if output.landmarks is not None:
        # The slab's concatenated tail already detected this row's
        # landmarks; install them and run hemodynamics only.  Rows
        # with zero analysable beats still flow through the stage so
        # it raises the identical SignalError at this position.
        ctx.points = output.points
        ctx.failures = output.failures
        ctx.beat_landmarks = output.landmarks
        ctx = _TAIL_STAGES[1].run(ctx)
    else:
        for stage in _TAIL_STAGES:
            ctx = stage.run(ctx)
    return result_from_context(ctx)


def process_cohort(recordings, config: Optional[PipelineConfig] = None,
                   cache: Optional[FilterDesignCache] = None,
                   max_group_rows: int = MAX_GROUP_ROWS) -> list:
    """Run the published chain over many recordings, cohort-batched.

    The drop-in cohort twin of a serial
    ``pipeline.process_recording`` loop (and of
    ``process_batch(backend="cohort")``, which routes here): results
    arrive in input order, bit-identical, and the first failing
    recording raises at the same input position with the same error.
    ``n_jobs`` has no meaning in this tier — the parallelism lives
    inside the BLAS/FFT kernels.

    Recordings the batched kernels cannot take (too short for the
    uniform zero-phase pads, missing channels, singleton groups) and
    any group whose batched stage fails run per-recording — the
    fallback lattice never trades correctness for speed.
    """
    recordings = list(recordings)
    config = config or PipelineConfig()
    if cache is None:
        cache = default_design_cache()
    # Pipelines per distinct rate, built up front exactly as
    # process_batch's serial path does — construction errors (fs too
    # low for Pan-Tompkins, band edges above Nyquist) surface before
    # any recording is processed, matching the reference.
    pipelines: dict = {}
    for recording in recordings:
        fs = float(recording.fs)
        if fs not in pipelines:
            pipelines[fs] = BeatToBeatPipeline(fs, config, cache=cache)

    plan = plan_cohort(recordings, config, max_group_rows=max_group_rows)
    outputs: dict = {}
    demoted = set(plan.singles)
    for group in plan.groups:
        try:
            outputs.update(_run_group(group, recordings, config, cache))
        except Exception:
            # Any batched-stage failure sends the whole slab through
            # per-recording dispatch, which reproduces the serial
            # behaviour (including the error, at the right position).
            demoted.update(group.indices)

    results = []
    for index, recording in enumerate(recordings):
        pipeline = pipelines[float(recording.fs)]
        if index in demoted:
            results.append(pipeline.process_recording(recording))
        else:
            results.append(_finish_recording(recording, outputs[index],
                                             pipeline))
    return results

"""The Fig 3 chain as composable stages.

Each stage is one box of the paper's flowchart, consuming and
producing fields of a :class:`~repro.core.context.BeatContext`:

========================  ==========================  ==================
stage                     reads                       writes
========================  ==========================  ==================
:class:`EcgConditionStage`  ``ecg``                     ``ecg_filtered``
:class:`RPeakStage`         ``ecg_filtered``            ``r_peak_indices``
:class:`IcgConditionStage`  ``z``                       ``icg``
:class:`PointDetectionStage`  ``icg, r_peak_indices``   ``points, failures``
:class:`HemodynamicsStage`  ``points, z``               ``intervals, z0_ohm,
                                                        hr_bpm,
                                                        beat_hemodynamics``
========================  ==========================  ==================

Filter designs come from the context's
:class:`~repro.core.cache.FilterDesignCache`, so repeated runs with the
same ``(fs, config)`` never redo a design.  A :class:`StageGraph` runs
an ordered stage sequence; :func:`default_stage_graph` builds the
published chain, and :meth:`StageGraph.upto` truncates it for callers
that only need the front of the pipeline (e.g. the study runner stops
after point detection).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.bioimpedance.analysis import mean_impedance
from repro.core.context import BeatContext
from repro.ecg.pan_tompkins import PanTompkinsDetector
from repro.ecg.preprocessing import preprocess_ecg
from repro.errors import ConfigurationError, SignalError
from repro.icg.hemodynamics import (
    HemodynamicsEstimator,
    systolic_intervals,
    systolic_intervals_from_landmarks,
)
from repro.icg.points import detect_all_landmarks
from repro.icg.preprocessing import icg_from_impedance

__all__ = [
    "Stage",
    "EcgConditionStage",
    "RPeakStage",
    "IcgConditionStage",
    "WaveletIcgConditionStage",
    "PointDetectionStage",
    "HemodynamicsStage",
    "StageGraph",
    "default_stage_graph",
]


@runtime_checkable
class Stage(Protocol):
    """One box of the processing chain.

    A stage is any object with a ``name`` and a ``run`` that advances a
    :class:`BeatContext` — reading the fields its predecessors filled
    and writing its own.  Stages must be stateless across calls so one
    graph can serve concurrent batch workers.
    """

    name: str

    def run(self, ctx: BeatContext) -> BeatContext:
        """Advance the context by this stage's computation."""
        ...


class EcgConditionStage:
    """Morphological baseline removal + zero-phase 0.05-40 Hz FIR."""

    name = "ecg_condition"

    def run(self, ctx: BeatContext) -> BeatContext:
        """Fill ``ecg_filtered`` from the raw ECG."""
        config = ctx.config.ecg
        taps = ctx.cache.ecg_fir_taps(ctx.fs, config)
        ctx.ecg_filtered = preprocess_ecg(ctx.ecg, ctx.fs, config,
                                          taps=taps)
        return ctx


class RPeakStage:
    """Pan-Tompkins QRS detection on the conditioned ECG."""

    name = "r_peaks"

    def run(self, ctx: BeatContext) -> BeatContext:
        """Fill ``r_peak_indices``; fails when beats cannot be
        delimited."""
        config = ctx.config.pan_tompkins
        detector = PanTompkinsDetector(
            ctx.fs, config,
            bandpass_sos=ctx.cache.pan_tompkins_sos(ctx.fs, config),
            mwi_kernel=ctx.cache.mwi_kernel(ctx.fs, config))
        r_peaks = detector.detect(ctx.require("ecg_filtered"))
        if r_peaks.size < 2:
            raise SignalError(
                "fewer than two R peaks detected; cannot delimit beats")
        ctx.r_peak_indices = r_peaks
        return ctx


class IcgConditionStage:
    """``ICG = -dZ/dt`` plus the 20 Hz low-pass / 0.8 Hz high-pass."""

    name = "icg_condition"

    def run(self, ctx: BeatContext) -> BeatContext:
        """Fill ``icg`` from the raw impedance trace."""
        config = ctx.config.icg
        ctx.icg = icg_from_impedance(
            ctx.z, ctx.fs, config,
            lowpass_sos=ctx.cache.icg_lowpass_sos(ctx.fs, config),
            highpass_sos=ctx.cache.icg_highpass_sos(ctx.fs, config))
        return ctx


class WaveletIcgConditionStage:
    """Wavelet alternative to :class:`IcgConditionStage` — a one-line
    swap in the stage graph.

    Conditions via VisuShrink denoising plus approximation-band
    suppression (the related-work methods of the paper's refs
    [15]-[17], see
    :func:`repro.icg.preprocessing.condition_icg_wavelet`) instead of
    the 20 Hz low-pass / 0.8 Hz high-pass chain.  It shares the stage
    name ``icg_condition`` so graphs, ``upto`` truncation and
    downstream stages are untouched by the swap; only ``ctx.icg``'s
    provenance changes.
    """

    name = "icg_condition"

    def run(self, ctx: BeatContext) -> BeatContext:
        """Fill ``icg`` from the raw impedance trace via wavelets."""
        ctx.icg = icg_from_impedance(ctx.z, ctx.fs, ctx.config.icg,
                                     method="wavelet")
        return ctx


class PointDetectionStage:
    """Beat-to-beat B/C/X detection between consecutive R peaks.

    Collects per-beat failures instead of raising: whether an empty
    result is fatal is the downstream consumer's decision (the full
    pipeline treats it as an error, the study runner reports NaNs).

    The detection runs the beat-matrix kernels of
    :mod:`repro.icg.batch` and additionally fills
    ``ctx.beat_landmarks`` with the landmark columns, which the
    hemodynamics stage consumes without re-gathering per beat.
    """

    name = "point_detection"

    def run(self, ctx: BeatContext) -> BeatContext:
        """Fill ``points``, ``failures`` and ``beat_landmarks``."""
        points, failures, landmarks = detect_all_landmarks(
            ctx.require("icg"), ctx.fs, ctx.require("r_peak_indices"),
            ctx.config.points)
        ctx.points = points
        ctx.failures = failures
        ctx.beat_landmarks = landmarks
        return ctx


class HemodynamicsStage:
    """Z0, HR, PEP, LVET — the radio payload — plus SV/CO when the
    subject height is configured.

    When the point-detection stage filled ``ctx.beat_landmarks``, the
    systolic intervals and per-beat hemodynamics come from the
    landmark columns in one vectorized pass
    (:func:`~repro.icg.hemodynamics.systolic_intervals_from_landmarks`,
    :meth:`~repro.icg.hemodynamics.HemodynamicsEstimator.estimate_landmarks`);
    a custom point stage that leaves it ``None`` gets the original
    per-beat loops.  Both paths are bit-identical (pinned by the
    batched-parity suite).
    """

    name = "hemodynamics"

    def run(self, ctx: BeatContext) -> BeatContext:
        """Fill ``intervals``, ``z0_ohm``, ``hr_bpm`` and
        ``beat_hemodynamics``; fails when no beat was analysable."""
        points = ctx.require("points")
        if not points:
            raise SignalError(
                f"no ICG beats could be analysed "
                f"({len(ctx.failures or [])} failures)")
        landmarks = ctx.beat_landmarks
        if landmarks is not None:
            ctx.intervals = systolic_intervals_from_landmarks(
                landmarks, ctx.fs)
        else:
            ctx.intervals = systolic_intervals(points, ctx.fs)
        ctx.z0_ohm = mean_impedance(ctx.z)
        rr = np.diff(ctx.require("r_peak_indices")) / ctx.fs
        ctx.hr_bpm = float(60.0 / rr.mean())

        ctx.beat_hemodynamics = []
        if ctx.config.height_cm is not None:
            estimator = HemodynamicsEstimator(
                ctx.fs, ctx.z0_ohm, ctx.config.height_cm,
                z0_calibration=ctx.config.z0_calibration,
                dzdt_calibration=ctx.config.dzdt_calibration)
            icg = ctx.require("icg")
            ctx.beat_hemodynamics = (
                estimator.estimate_landmarks(landmarks, icg)
                if landmarks is not None
                else estimator.estimate_all(points, icg))
        return ctx


class StageGraph:
    """An ordered stage sequence applied to one context.

    The default graph is a straight line (the paper's chain), but any
    stage sequence satisfying the data dependencies works — swap a
    detector, insert a quality gate, or truncate with :meth:`upto`.
    """

    def __init__(self, stages) -> None:
        stages = tuple(stages)
        if not stages:
            raise ConfigurationError("a stage graph needs >= 1 stage")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate stage names in graph: {names}")
        self.stages = stages

    @property
    def stage_names(self) -> tuple:
        """Names of the stages in execution order."""
        return tuple(stage.name for stage in self.stages)

    def run(self, ctx: BeatContext) -> BeatContext:
        """Run every stage, in order, on the context."""
        for stage in self.stages:
            ctx = stage.run(ctx)
        return ctx

    def upto(self, name: str) -> "StageGraph":
        """The sub-graph from the first stage through ``name``."""
        names = self.stage_names
        if name not in names:
            raise ConfigurationError(
                f"no stage {name!r} in graph; have {list(names)}")
        return StageGraph(self.stages[: names.index(name) + 1])


def default_stage_graph(icg_conditioner: str = "filter") -> StageGraph:
    """The published Fig 3 chain as a stage graph.

    ``icg_conditioner`` selects the ICG conditioning box:
    ``"filter"`` (the paper's zero-phase chain, default) or
    ``"wavelet"`` (the related-work
    :class:`WaveletIcgConditionStage`) — the one-line swap the stage
    architecture exists for.
    """
    conditioners = {"filter": IcgConditionStage,
                    "wavelet": WaveletIcgConditionStage}
    if icg_conditioner not in conditioners:
        raise ConfigurationError(
            f"icg_conditioner must be one of "
            f"{sorted(conditioners)}, got {icg_conditioner!r}")
    return StageGraph((
        EcgConditionStage(),
        RPeakStage(),
        conditioners[icg_conditioner](),
        PointDetectionStage(),
        HemodynamicsStage(),
    ))

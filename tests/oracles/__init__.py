"""Reference implementations the parity suites and the perf harness
compare the production chain against.

The library runs one implementation per kernel.  The originals it
replaced live here, unchanged, so every parity assertion keeps
comparing against the same code:

* :func:`_sosfilt_ref` — the per-sample scalar SOS loop the blocked
  scan of :func:`repro.dsp.iir.sosfilt` is pinned to (1e-9), and
  :func:`scalar_sosfilt`, which routes every ``repro.dsp.iir.sosfilt``
  call through it;
* :class:`ReferencePointDetectionStage` and :func:`reference_graph` —
  the Fig 3 chain with the per-beat point-detection loop
  (:func:`repro.icg.points._detect_all_points_ref`) and the per-beat
  hemodynamics it implies (bit-identical);
* :func:`per_recording` — a plain ``process_recording`` loop, the
  oracle of the cohort tier (bit-identical).

Imports only numpy and :mod:`repro`: the perf harness runs where
nothing else is installed.
"""

from __future__ import annotations

import contextlib
from typing import Optional

import numpy as np

from repro.core.cache import FilterDesignCache, default_design_cache
from repro.core.config import PipelineConfig
from repro.core.context import BeatContext
from repro.core.pipeline import BeatToBeatPipeline
from repro.core.stages import (
    EcgConditionStage,
    HemodynamicsStage,
    IcgConditionStage,
    RPeakStage,
    StageGraph,
)
from repro.dsp import iir as _iir
from repro.dsp._signal import as_signal as _as_signal
from repro.dsp.iir import _check_sos, _check_state
from repro.icg.points import _detect_all_points_ref, _validate_all_points_args

__all__ = [
    "_sosfilt_ref",
    "scalar_sosfilt",
    "ReferencePointDetectionStage",
    "reference_graph",
    "reference_pipeline",
    "per_recording",
]


def _sosfilt_ref(sos, x, zi=None):
    """Scalar reference SOS kernel (direct form II transposed).

    The original per-sample Python loop, kept verbatim as the oracle
    the vectorized kernel is validated against (and the baseline the
    perf-regression bench measures speedups from).
    """
    sos = _check_sos(sos)
    x = _as_signal(x)
    n_sections = sos.shape[0]
    state = _check_state(zi, n_sections)
    y = x.copy()
    for s in range(n_sections):
        b0, b1, b2, _, a1, a2 = sos[s]
        w0, w1 = state[s]
        out = np.empty_like(y)
        for n in range(y.size):
            xn = y[n]
            yn = b0 * xn + w0
            w0 = b1 * xn - a1 * yn + w1
            w1 = b2 * xn - a2 * yn
            out[n] = yn
        state[s, 0], state[s, 1] = w0, w1
        y = out
    return y if zi is None else (y, state)


@contextlib.contextmanager
def scalar_sosfilt():
    """Run every ``repro.dsp.iir.sosfilt`` call on the scalar oracle.

    Patches the module attribute, which every caller in the library
    goes through (``sosfiltfilt``, Pan-Tompkins, the streaming
    conditioners).  The row-batched kernels have no scalar twin and
    are not affected.
    """
    vectorized = _iir.sosfilt
    _iir.sosfilt = _sosfilt_ref
    try:
        yield
    finally:
        _iir.sosfilt = vectorized


class ReferencePointDetectionStage:
    """Point detection by the per-beat reference loop.

    Leaves ``beat_landmarks`` at ``None``, so the hemodynamics stage
    takes its per-beat path too.
    """

    name = "point_detection"

    def run(self, ctx: BeatContext) -> BeatContext:
        r_indices, _ = _validate_all_points_args(
            ctx.require("r_peak_indices"), None)
        ctx.points, ctx.failures = _detect_all_points_ref(
            ctx.require("icg"), ctx.fs, r_indices, ctx.config.points)
        ctx.beat_landmarks = None
        return ctx


def reference_graph() -> StageGraph:
    """The published Fig 3 chain with the per-beat point detection."""
    return StageGraph((
        EcgConditionStage(),
        RPeakStage(),
        IcgConditionStage(),
        ReferencePointDetectionStage(),
        HemodynamicsStage(),
    ))


def reference_pipeline(fs: float, config: Optional[PipelineConfig] = None,
                       cache: Optional[FilterDesignCache] = None
                       ) -> BeatToBeatPipeline:
    """A pipeline at ``fs`` running :func:`reference_graph`."""
    return BeatToBeatPipeline(fs, config, cache=cache,
                              graph=reference_graph())


def per_recording(recordings, config: Optional[PipelineConfig] = None,
                  cache: Optional[FilterDesignCache] = None) -> list:
    """Per-recording dispatch, the cohort tier's oracle.

    Pipelines per distinct rate are built up front, so construction
    errors surface before any recording is processed; then a plain
    ``process_recording`` loop runs in input order.
    """
    recordings = list(recordings)
    config = config or PipelineConfig()
    if cache is None:
        cache = default_design_cache()
    pipelines: dict = {}
    for recording in recordings:
        fs = float(recording.fs)
        if fs not in pipelines:
            pipelines[fs] = BeatToBeatPipeline(fs, config, cache=cache)
    return [pipelines[float(r.fs)].process_recording(r)
            for r in recordings]

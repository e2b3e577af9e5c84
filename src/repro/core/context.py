"""The datum passed between pipeline stages.

A :class:`BeatContext` carries one recording through the Fig 3 chain:
it starts with the raw ECG/impedance pair plus the configuration and
filter-design cache, and each stage fills in the fields it owns
(``ecg_filtered``, ``r_peak_indices``, ``icg``, ``points`` ...).
Making the hand-off explicit is what lets stages be rearranged,
replaced or run partially — the study runner, for example, stops after
point detection and derives its own ensemble statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.cache import FilterDesignCache, default_design_cache
from repro.core.config import PipelineConfig
from repro.errors import SignalError

__all__ = ["BeatContext"]


@dataclass
class BeatContext:
    """Mutable per-recording state flowing through the stage graph.

    Stages read the fields earlier stages produced (via
    :meth:`require`, which fails loudly on an out-of-order graph) and
    write their own.  ``None`` marks a field whose producing stage has
    not run yet.
    """

    fs: float
    ecg: np.ndarray
    z: np.ndarray
    config: PipelineConfig = field(default_factory=PipelineConfig)
    cache: FilterDesignCache = field(default_factory=default_design_cache)

    # -- produced by the stages, in chain order -----------------------------
    ecg_filtered: Optional[np.ndarray] = None
    r_peak_indices: Optional[np.ndarray] = None
    icg: Optional[np.ndarray] = None
    points: Optional[list] = None
    #: Array twin of ``points`` (:class:`repro.icg.batch.BeatLandmarks`)
    #: filled by the point-detection stage; ``None`` (a custom point
    #: stage) is treated downstream as "use the per-beat path".
    beat_landmarks: Optional[object] = None
    failures: Optional[list] = None
    intervals: Optional[object] = None       # SystolicIntervals
    z0_ohm: Optional[float] = None
    hr_bpm: Optional[float] = None
    beat_hemodynamics: Optional[list] = None

    @classmethod
    def from_signals(cls, ecg, z, fs: float,
                     config: Optional[PipelineConfig] = None,
                     cache: Optional[FilterDesignCache] = None,
                     ) -> "BeatContext":
        """Validated context from raw ECG (mV) and impedance (ohm)."""
        ecg = np.asarray(ecg, dtype=float)
        z = np.asarray(z, dtype=float)
        if ecg.shape != z.shape or ecg.ndim != 1:
            raise SignalError(
                "ecg and z must be 1-D arrays of equal length")
        return cls(fs=float(fs), ecg=ecg, z=z,
                   config=config or PipelineConfig(),
                   cache=(cache if cache is not None
                          else default_design_cache()))

    def require(self, name: str):
        """The named field, raising when its stage has not run yet."""
        value = getattr(self, name)
        if value is None:
            raise SignalError(
                f"stage input {name!r} not available; the producing "
                f"stage has not run")
        return value

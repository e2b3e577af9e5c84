"""ICG characteristic-point detection (B, C, X) — the paper's core
algorithm (Section IV-C, after Carvalho et al.).

Operates beat-to-beat: the ICG between two consecutive ECG R peaks is
analysed in isolation.

* **C point** — the maximum of the ICG inside the beat.
* **B point** — the opening of the aortic valve.  First the initial
  estimate ``B0`` is found: a line is fit to the ICG samples between
  40 % and 80 % of the C amplitude on the C upstroke, and ``B0`` is that
  line's intersection with the horizontal axis.  If the second
  derivative of the ICG exhibits the ``(+,-,+,-)`` sign pattern to the
  left of C, B is the first minimum of the *third* derivative left of
  ``B0``; otherwise B is the first zero-crossing of the *first*
  derivative left of ``B0``.
* **X point** — the closure of the aortic valve.  The initial estimate
  ``X0`` is the lowest negative minimum right of C (the paper's
  adjustment); X is then the local minimum of the third derivative left
  of ``X0``.  The original Carvalho variant — searching ``X0`` within
  ``RT <= t <= 1.75 RT`` of the R peak, where RT is the ECG R-T
  interval — is provided for the ablation bench (the paper argues the
  T-wave end is unreliable, which is why they changed it).

Derivatives are Savitzky-Golay smoothed (see
:mod:`repro.dsp.derivative`): third derivatives of sampled data are
meaningless without polynomial smoothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dsp import derivative as _derivative
from repro.errors import ConfigurationError, DetectionError, SignalError

__all__ = [
    "PointConfig",
    "BeatPoints",
    "detect_beat_points",
    "detect_all_points",
    "detect_all_landmarks",
]


@dataclass(frozen=True)
class PointConfig:
    """Tunables of the characteristic-point detector.

    ``x_strategy`` selects the paper's X0 ("global": lowest negative
    minimum right of C) or the original Carvalho RT-window variant
    ("rt_window", requires the beat's RT interval).
    """

    line_fit_low: float = 0.40
    line_fit_high: float = 0.80
    derivative_window_s: float = 0.044
    b_pattern_window_s: float = 0.120
    b_search_window_s: float = 0.140
    x_search_window_s: float = 0.100
    x_strategy: str = "global"
    rt_window_factor: float = 1.75
    sign_tolerance_fraction: float = 0.04
    min_c_delay_s: float = 0.04

    def __post_init__(self) -> None:
        if not 0.0 < self.line_fit_low < self.line_fit_high <= 1.0:
            raise ConfigurationError(
                "need 0 < line_fit_low < line_fit_high <= 1")
        if self.x_strategy not in ("global", "rt_window"):
            raise ConfigurationError(
                f"x_strategy must be 'global' or 'rt_window', "
                f"got {self.x_strategy!r}")
        for name in ("derivative_window_s", "b_pattern_window_s",
                     "b_search_window_s", "x_search_window_s",
                     "min_c_delay_s"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.rt_window_factor <= 1.0:
            raise ConfigurationError("rt_window_factor must exceed 1")
        if not 0.0 <= self.sign_tolerance_fraction < 0.5:
            raise ConfigurationError(
                "sign_tolerance_fraction must be in [0, 0.5)")


@dataclass(frozen=True)
class BeatPoints:
    """Detected landmarks of one beat (absolute sample indices).

    ``b0_index``/``x0_index`` are the initial estimates retained for
    analysis; ``pattern_found`` records which B branch fired (True: the
    second-derivative sign pattern was present and the third-derivative
    rule was used).
    """

    r_index: int
    c_index: int
    b_index: int
    x_index: int
    b0_index: float
    x0_index: int
    pattern_found: bool

    def pep_s(self, fs: float) -> float:
        """Pre-ejection period: R to B (paper Section IV-B)."""
        return (self.b_index - self.r_index) / fs

    def lvet_s(self, fs: float) -> float:
        """Left-ventricular ejection time: B to X."""
        return (self.x_index - self.b_index) / fs


def _window_derivative(window_s: float, fs: float) -> int:
    window = max(5, int(round(window_s * fs)) | 1)
    return window


def detect_beat_points(icg, fs: float, r_index: int, next_r_index: int,
                       config: Optional[PointConfig] = None,
                       rt_interval_s: Optional[float] = None) -> BeatPoints:
    """Detect B, C, X within one beat (R peak to next R peak).

    Raises :class:`DetectionError` when the beat cannot be analysed
    (degenerate geometry, C at the window edge, no negative minimum for
    X0, ...).  Callers doing batch work should use
    :func:`detect_all_points`, which collects failures instead.
    """
    icg = np.asarray(icg, dtype=float)
    if icg.ndim != 1:
        raise SignalError(f"expected 1-D ICG, got shape {icg.shape}")
    config = config or PointConfig()
    if not 0 <= r_index < next_r_index <= icg.size:
        raise DetectionError(
            f"invalid beat window [{r_index}, {next_r_index}) for signal "
            f"of {icg.size} samples")
    beat = icg[r_index:next_r_index]
    if beat.size < int(0.25 * fs):
        raise DetectionError("beat window shorter than 250 ms")

    window = _window_derivative(config.derivative_window_s, fs)
    if beat.size <= window:
        raise DetectionError("beat too short for smoothed derivatives")
    d1 = _derivative.savgol_derivative(beat, fs, window, 3, 1)
    d2 = _derivative.savgol_derivative(beat, fs, window, 4, 2)
    d3 = _derivative.savgol_derivative(beat, fs, window, 5, 3)

    # --- C point ---------------------------------------------------------
    min_c = int(config.min_c_delay_s * fs)
    c_local = min_c + int(np.argmax(beat[min_c:]))
    if c_local >= beat.size - 2 or c_local <= 1:
        raise DetectionError("C point fell on the beat-window edge")
    c_amplitude = beat[c_local]
    if c_amplitude <= 0:
        raise DetectionError("beat maximum is not positive; no C wave")

    # --- B0: 40-80 % line fit ---------------------------------------------
    b0_local = _initial_b(beat, d1, c_local, c_amplitude, fs, config)

    # --- B: sign pattern of d2 left of C ---------------------------------
    pattern_start = max(0, c_local - int(config.b_pattern_window_s * fs))
    d2_segment = d2[pattern_start:c_local + 1]
    tolerance = config.sign_tolerance_fraction * float(
        np.max(np.abs(d2_segment), initial=0.0))
    matches = _derivative.sign_pattern_positions(d2_segment, "+-+-",
                                                 tol=tolerance)
    pattern_found = matches.size > 0
    search_lo = max(0, int(np.floor(b0_local))
                    - int(config.b_search_window_s * fs))
    if pattern_found:
        b_local = _first_local_min_left(d3, int(np.floor(b0_local)),
                                        search_lo)
    else:
        d1_tolerance = 0.02 * float(np.max(np.abs(d1[:c_local + 1]),
                                           initial=0.0))
        b_local = _first_zero_cross_left(d1, int(np.floor(b0_local)),
                                         search_lo, tolerance=d1_tolerance)
    if b_local is None:
        raise DetectionError("no B candidate left of B0")
    if b_local >= c_local:
        raise DetectionError("B landed at/after C")

    # --- X0 -----------------------------------------------------------------
    x0_local = _initial_x(beat, c_local, fs, config, rt_interval_s)

    # --- X: local min of d3 left of X0 ------------------------------------
    x_lo = max(c_local + 1, x0_local - int(config.x_search_window_s * fs))
    x_local = _last_local_min_left(d3, x0_local, x_lo)
    if x_local is None:
        # A perfectly smooth trough can leave d3 monotonic over the
        # search window; fall back to X0 itself (the trough).
        x_local = x0_local
    if x_local <= c_local:
        raise DetectionError("X landed at/before C")

    return BeatPoints(
        r_index=int(r_index),
        c_index=int(r_index + c_local),
        b_index=int(r_index + b_local),
        x_index=int(r_index + x_local),
        b0_index=float(r_index + b0_local),
        x0_index=int(r_index + x0_local),
        pattern_found=bool(pattern_found),
    )


def _initial_b(beat: np.ndarray, d1: np.ndarray, c_local: int,
               c_amplitude: float, fs: float, config: PointConfig) -> float:
    """B0 from the 40-80 % upstroke line fit (fractional sample)."""
    low_level = config.line_fit_low * c_amplitude
    high_level = config.line_fit_high * c_amplitude
    # Walk left from C to find the contiguous upstroke region inside the
    # amplitude band.
    idx_high = None
    idx_low = None
    for i in range(c_local, -1, -1):
        if idx_high is None and beat[i] <= high_level:
            idx_high = i
        if beat[i] <= low_level:
            idx_low = i
            break
    if idx_high is None or idx_low is None or idx_high - idx_low < 2:
        raise DetectionError(
            "upstroke too short for the 40-80 % line fit")
    segment = slice(idx_low, idx_high + 1)
    t = np.arange(segment.start, segment.stop, dtype=float)
    slope, intercept = _derivative.fit_line(t, beat[segment])
    if slope <= 0:
        raise DetectionError("upstroke line fit has non-positive slope")
    b0 = _derivative.line_x_intercept(slope, intercept)
    # Clamp into the beat window; a B0 outside means pathological fit.
    if not 0.0 <= b0 <= c_local:
        raise DetectionError(
            f"B0 estimate {b0:.1f} outside [0, C={c_local}]")
    return float(b0)


def _initial_x(beat: np.ndarray, c_local: int, fs: float,
               config: PointConfig, rt_interval_s) -> int:
    """X0: the paper's global negative minimum right of C, or the
    Carvalho RT-window variant."""
    if config.x_strategy == "rt_window":
        if rt_interval_s is None:
            raise DetectionError(
                "x_strategy='rt_window' needs the beat's RT interval")
        lo = int(rt_interval_s * fs)
        hi = int(config.rt_window_factor * rt_interval_s * fs)
        lo = max(lo, c_local + 1)
        hi = min(hi, beat.size)
        if hi - lo < 3:
            raise DetectionError("empty RT search window for X0")
        region = beat[lo:hi]
        x0 = lo + int(np.argmin(region))
    else:
        region = beat[c_local + 1:]
        if region.size < 3:
            raise DetectionError("no room right of C for X0")
        x0 = c_local + 1 + int(np.argmin(region))
    if beat[x0] >= 0:
        raise DetectionError("X0 candidate is not a negative minimum")
    return x0


def _first_local_min_left(signal: np.ndarray, start: int,
                          stop: int) -> int:
    """Nearest strict local minimum at or left of ``start`` (>= stop)."""
    start = min(start, signal.size - 2)
    for i in range(start, max(stop, 1) - 1, -1):
        if 0 < i < signal.size - 1:
            if signal[i] < signal[i - 1] and signal[i] <= signal[i + 1]:
                return i
    return None


def _last_local_min_left(signal: np.ndarray, start: int, stop: int) -> int:
    """Same walk as :func:`_first_local_min_left` (kept separate for
    intent at the call sites: X search vs B search)."""
    return _first_local_min_left(signal, start, stop)


def _first_zero_cross_left(d1: np.ndarray, start: int, stop: int,
                           tolerance: float = 0.0) -> int:
    """Nearest zero of the first derivative left of ``start``.

    Discrete, smoothed derivatives rarely hit exactly zero, so samples
    with ``|d1| <= tolerance`` count as zero — this makes the rule find
    the *flat foot* of the upstroke (the physiological B) instead of
    walking through it to some earlier artifact.
    """
    start = min(start, d1.size - 1)
    for i in range(start, max(stop, 1) - 1, -1):
        if abs(d1[i]) <= tolerance:
            return i
        if i > 0 and d1[i - 1] * d1[i] < 0:
            return i - 1 if abs(d1[i - 1]) < abs(d1[i]) else i
    return None


def _validate_all_points_args(r_indices, rt_intervals_s) -> tuple:
    r_indices = np.asarray(r_indices, dtype=int)
    if r_indices.ndim != 1 or r_indices.size < 2:
        raise SignalError("need at least two R peaks to delimit a beat")
    if rt_intervals_s is not None:
        rt_intervals_s = np.asarray(rt_intervals_s, dtype=float)
        if rt_intervals_s.size != r_indices.size - 1:
            raise ConfigurationError(
                "rt_intervals_s must have one entry per beat "
                f"({r_indices.size - 1}), got {rt_intervals_s.size}")
    return r_indices, rt_intervals_s


def detect_all_points(icg, fs: float, r_indices,
                      config: Optional[PointConfig] = None,
                      rt_intervals_s=None) -> tuple:
    """Detect points for every beat delimited by consecutive R peaks.

    Returns ``(points, failures)``: a list of :class:`BeatPoints` for
    the beats that were successfully analysed and a list of
    ``(beat_number, reason)`` tuples for those that were not.  The last
    R peak only closes the final window; it does not start a beat.

    Runs the beat-batched kernels of :mod:`repro.icg.batch`, which are
    bit-identical to the per-beat reference loop
    :func:`_detect_all_points_ref` (pinned by the batched-parity suite).
    """
    points, failures, _ = detect_all_landmarks(icg, fs, r_indices,
                                               config, rt_intervals_s)
    return points, failures


def detect_all_landmarks(icg, fs: float, r_indices,
                         config: Optional[PointConfig] = None,
                         rt_intervals_s=None) -> tuple:
    """Detection with the landmark columns.

    Returns ``(points, failures, landmarks)`` where ``landmarks`` is
    the :class:`~repro.icg.batch.BeatLandmarks` array twin of
    ``points``.  The single entry point both :func:`detect_all_points`
    and the pipeline's point-detection stage go through, so argument
    validation can never diverge.
    """
    from repro.icg.batch import detect_all_points_batched

    r_indices, rt_intervals_s = _validate_all_points_args(
        r_indices, rt_intervals_s)
    return detect_all_points_batched(icg, fs, r_indices, config,
                                     rt_intervals_s)


def _detect_all_points_ref(icg, fs: float, r_indices,
                           config: Optional[PointConfig] = None,
                           rt_intervals_s=None) -> tuple:
    """The original per-beat loop — the batched path's parity oracle,
    and its fallback for non-monotonic R indices.

    Inputs are assumed validated (see :func:`detect_all_points`).
    """
    points = []
    failures = []
    for k in range(r_indices.size - 1):
        rt = None if rt_intervals_s is None else float(rt_intervals_s[k])
        try:
            points.append(detect_beat_points(
                icg, fs, int(r_indices[k]), int(r_indices[k + 1]),
                config, rt_interval_s=rt))
        except DetectionError as exc:
            failures.append((k, str(exc)))
    return points, failures

"""Beat-batched ICG landmark detection — the zero-copy hot path.

:func:`repro.icg.points.detect_all_points` historically ran a Python
loop over beats, and each beat paid three Savitzky-Golay derivative
passes plus a dozen small searches.  Profiling shows that loop — not
the filter kernels — dominating the post-filter half of the pipeline.
This module performs the same detection over *beat-batched* arrays:

* the three smoothed derivatives are computed **once** for the whole
  recording (one ``np.correlate`` per derivative order; consecutive
  beats tile the signal, so every beat's interior samples fall out of
  the same pass) with the per-beat polynomial edge fits applied as a
  batched patch;
* the C/B/X searches run on an ``(n_beats, max_len)`` strided window
  view of the signal (``sliding_window_view`` over a padded copy), so
  argmax/argmin/threshold walks become masked row reductions instead
  of per-beat Python;
* only the operations whose floating-point result depends on the BLAS
  reduction order (the tiny edge-projection matvecs and the B0 line
  fit) remain per-beat — they are *calls into the identical code* the
  reference loop uses, which is what keeps the batched output
  **bit-identical** to the per-beat oracle
  (:func:`repro.icg.points._detect_all_points_ref`), as pinned by
  ``tests/icg/test_batched_parity.py``.

The contract is strict parity: same :class:`~repro.icg.points.BeatPoints`,
same ``(beat, reason)`` failure tuples in the same order, including the
interpolated values inside the messages.  Two escape hatches keep even
the odd corners faithful: non-monotonic R indices (whose beat windows
can overlap, breaking the shared-derivative trick) fall back to the
reference loop wholesale, and a beat whose geometry would make the
reference raise a non-:class:`~repro.errors.DetectionError` exception
(e.g. an empty C search window from a pathological config) is
delegated to the reference single-beat call so even the exception
surface matches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.dsp._signal import padded_row_view as _padded_row_view
from repro.dsp.derivative import savgol_coefficients
from repro.dsp.kernels import savgol_kernel

__all__ = ["BeatLandmarks", "detect_all_points_batched"]


@dataclass(frozen=True)
class BeatLandmarks:
    """Detected landmarks of every analysable beat, as flat arrays.

    The array twin of a ``list[BeatPoints]``: row ``k`` of every array
    describes the ``k``-th *successful* beat (absolute sample
    indices).  Downstream batched consumers
    (:func:`repro.icg.hemodynamics.systolic_intervals`,
    :meth:`repro.icg.hemodynamics.HemodynamicsEstimator.estimate_landmarks`)
    work on these columns directly instead of re-gathering fields from
    the object list beat by beat.
    """

    r: np.ndarray              #: R-peak index per beat (int)
    c: np.ndarray              #: C-point index per beat (int)
    b: np.ndarray              #: B-point index per beat (int)
    x: np.ndarray              #: X-point index per beat (int)
    b0: np.ndarray             #: initial B estimate (fractional sample)
    x0: np.ndarray             #: initial X estimate (int)
    pattern_found: np.ndarray  #: which B branch fired, per beat (bool)

    @property
    def n_beats(self) -> int:
        """Number of successfully analysed beats."""
        return int(self.r.size)

    def to_points(self) -> list:
        """The equivalent ``list[BeatPoints]`` (the legacy contract)."""
        from repro.icg.points import BeatPoints

        return [
            BeatPoints(r_index=int(self.r[k]), c_index=int(self.c[k]),
                       b_index=int(self.b[k]), x_index=int(self.x[k]),
                       b0_index=float(self.b0[k]),
                       x0_index=int(self.x0[k]),
                       pattern_found=bool(self.pattern_found[k]))
            for k in range(self.r.size)
        ]

    @classmethod
    def from_points(cls, points) -> "BeatLandmarks":
        """Landmarks gathered from a ``list[BeatPoints]`` (used when
        the per-beat reference loop produced the list)."""
        return cls(
            r=np.array([p.r_index for p in points], dtype=np.int64),
            c=np.array([p.c_index for p in points], dtype=np.int64),
            b=np.array([p.b_index for p in points], dtype=np.int64),
            x=np.array([p.x_index for p in points], dtype=np.int64),
            b0=np.array([p.b0_index for p in points], dtype=float),
            x0=np.array([p.x0_index for p in points], dtype=np.int64),
            pattern_found=np.array([p.pattern_found for p in points],
                                   dtype=bool),
        )


# Failure codes, in the order the per-beat reference checks them.
_OK = 0
_FAIL_WINDOW = 1
_FAIL_SHORT = 2
_FAIL_DERIV = 3
_FAIL_RT_NONE = 4
_FAIL_C_EDGE = 5
_FAIL_C_SIGN = 6
_FAIL_UPSTROKE = 7
_FAIL_SLOPE = 8
_FAIL_B0_RANGE = 9
_FAIL_NO_B = 10
_FAIL_B_AFTER_C = 11
_FAIL_X0_ROOM = 12
_FAIL_X0_RT_EMPTY = 13
_FAIL_X0_SIGN = 14
_FAIL_X_BEFORE_C = 15
_DELEGATE = 99            # reproduce via the reference single-beat call

_MESSAGES = {
    _FAIL_SHORT: "beat window shorter than 250 ms",
    _FAIL_DERIV: "beat too short for smoothed derivatives",
    _FAIL_RT_NONE: "x_strategy='rt_window' needs the beat's RT interval",
    _FAIL_C_EDGE: "C point fell on the beat-window edge",
    _FAIL_C_SIGN: "beat maximum is not positive; no C wave",
    _FAIL_UPSTROKE: "upstroke too short for the 40-80 % line fit",
    _FAIL_SLOPE: "upstroke line fit has non-positive slope",
    _FAIL_NO_B: "no B candidate left of B0",
    _FAIL_B_AFTER_C: "B landed at/after C",
    _FAIL_X0_ROOM: "no room right of C for X0",
    _FAIL_X0_RT_EMPTY: "empty RT search window for X0",
    _FAIL_X0_SIGN: "X0 candidate is not a negative minimum",
    _FAIL_X_BEFORE_C: "X landed at/before C",
}


def _set_fail(status: np.ndarray, mask: np.ndarray, code: int) -> None:
    """First failure wins, exactly like the reference's check order."""
    status[(status == _OK) & mask] = code


def _rightmost_true(cond: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray) -> np.ndarray:
    """Per row: the largest column ``j`` with ``lo <= j <= hi`` and
    ``cond[row, j]`` — the vectorized "walk left until hit".

    Returns -1 where no column qualifies (``hi < lo`` is an empty
    range).  ``lo``/``hi`` are inclusive per-row bounds.
    """
    cols = np.arange(cond.shape[1])
    allowed = (cols >= lo[:, None]) & (cols <= hi[:, None])
    return np.where(cond & allowed, cols, -1).max(axis=1)


def _masked_argmax(values: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray:
    """Per row: first index of the maximum over columns ``[lo, hi)`` —
    identical tie-breaking to ``argmax`` on the slice."""
    cols = np.arange(values.shape[1])
    allowed = (cols >= lo[:, None]) & (cols < hi[:, None])
    return np.where(allowed, values, -np.inf).argmax(axis=1)


def _masked_argmin(values: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray:
    cols = np.arange(values.shape[1])
    allowed = (cols >= lo[:, None]) & (cols < hi[:, None])
    return np.where(allowed, values, np.inf).argmin(axis=1)


def _batched_derivatives(icg: np.ndarray, starts: np.ndarray,
                         stops: np.ndarray, window: int,
                         fs: float) -> tuple:
    """The three smoothed derivatives of every beat, in one pass each.

    Returns full-length arrays ``(d1, d2, d3)`` where the slice
    ``[starts[k]:stops[k]]`` holds exactly what
    ``savgol_derivative(icg[starts[k]:stops[k]], ...)`` returns for
    beat ``k`` — interior samples from one global ``np.correlate``
    (bit-identical: each output sample is the same windowed dot
    product either way), beat-edge samples from the same per-beat
    polynomial projections the reference applies.

    Only beats with ``stops - starts > window`` may be passed in, and
    the ``[start, stop)`` windows must be disjoint.
    """
    n = icg.size
    half = window // 2
    m = starts.size
    outs = []
    t_both = np.stack([np.arange(-half, 0, dtype=np.int64),    # j - half
                       np.arange(1, half + 1, dtype=np.int64)])  # j + 1
    offsets = np.arange(half)
    head_idx = (starts[:, None] + offsets[None, :]).ravel()
    tail_idx = (stops[:, None] - half + offsets[None, :]).ravel()
    for deriv in (1, 2, 3):
        polyorder = deriv + 2
        taps = savgol_coefficients(window, polyorder, deriv,
                                   delta=1.0 / fs)
        proj = savgol_kernel(window, polyorder)
        out = np.zeros(n)
        out[half: n - half] = np.correlate(icg, taps, mode="valid")

        # Per-beat head/tail polynomial coefficients.  The (k, window)
        # matvec stays a per-beat call into the very same expression
        # the reference evaluates — a batched GEMM would change the
        # BLAS reduction order and break bit-parity.  (The windows are
        # gathered into one contiguous matrix first; dgemv on a row
        # copy returns the same bits as on the original slice.)
        npow = polyorder + 1
        if deriv == 1:
            edge_wins = np.empty((2 * m, window))
            swin = sliding_window_view(icg, window)
            edge_wins[0::2] = swin[starts]
            edge_wins[1::2] = swin[stops - window]
        head_c = np.empty((m, npow))
        tail_c = np.empty((m, npow))
        for k in range(m):
            head_c[k] = proj @ edge_wins[2 * k]
            tail_c[k] = proj @ edge_wins[2 * k + 1]

        # Off-centre evaluation of the fitted polynomials, vectorized
        # over beats, edge offsets and the head/tail pair.  The
        # accumulation follows the reference's exact operation order —
        # term built by sequential small-integer multiplications,
        # powers of exact integer abscissae, power-by-power summation
        # — so every edge sample matches the scalar loop bit for bit.
        coeffs = np.stack([head_c, tail_c])          # (2, m, npow)
        vals = np.zeros((2, m, half))
        for power in range(deriv, npow):
            term = coeffs[:, :, power]
            for k in range(deriv):
                term = term * (power - k)
            vals += term[:, :, None] * (t_both
                                        ** (power - deriv))[:, None, :]
        vals *= fs ** deriv
        out[head_idx] = vals[0].ravel()
        out[tail_idx] = vals[1].ravel()
        outs.append(out)
    return tuple(outs)


def _pattern_present(d2_rows: np.ndarray, inseg: np.ndarray,
                     tol: np.ndarray) -> np.ndarray:
    """Whether the ``(+,-,+,-)`` sign pattern occurs in each beat's
    second-derivative segment (``inseg`` marks the segment columns).

    Mirrors :func:`repro.dsp.derivative.sign_pattern_positions`:
    samples inside the tolerance band inherit the previous sign, runs
    are length-compressed (hence strictly alternating), and the
    pattern exists iff at least four runs remain starting from the
    first ``+`` run.
    """
    n, width = d2_rows.shape
    cols = np.arange(width)
    raw = np.where(d2_rows > tol[:, None], 1,
                   np.where(d2_rows < -tol[:, None], -1, 0))
    raw = np.where(inseg, raw, 0)
    # Forward-fill zeros from the last nonzero sign within the segment.
    pos = np.where(raw != 0, cols, -1)
    last = np.maximum.accumulate(pos, axis=1)
    rows_idx = np.arange(n)[:, None]
    filled = np.where(last >= 0, raw[rows_idx, np.maximum(last, 0)], 0)
    # Runs = sign changes among the filled samples (leading zeros are
    # skipped, consecutive equal signs merge).
    prev = np.empty_like(filled)
    prev[:, 0] = 0
    prev[:, 1:] = filled[:, :-1]
    n_runs = ((filled != 0) & (filled != prev)).sum(axis=1)
    # Sign of the first run: value at the first nonzero sample.
    any_sign = (filled != 0).any(axis=1)
    first_nz = (filled != 0).argmax(axis=1)
    first_sign = np.where(any_sign, filled[np.arange(n), first_nz], 0)
    # Runs strictly alternate, so "+-+-" exists iff >= 4 runs remain
    # once a leading "-" run is discarded.
    return (n_runs - (first_sign < 0)) >= 4


def detect_all_points_batched(icg: np.ndarray, fs: float,
                              r_indices: np.ndarray,
                              config=None,
                              rt_intervals_s=None, *,
                              beats=None,
                              origins=None) -> tuple:
    """Batched twin of the per-beat detection loop.

    Returns ``(points, failures, landmarks)`` where ``points`` and
    ``failures`` are exactly what the reference loop produces (same
    objects, same order, same messages) and ``landmarks`` is the
    :class:`BeatLandmarks` array view of ``points``.

    The caller (:func:`repro.icg.points.detect_all_points`) owns input
    validation; this function assumes a 1-D float ``icg`` and >= 2
    integer ``r_indices``.

    ``beats`` — an explicit ``(starts, stops)`` pair of per-beat
    window bounds — replaces the consecutive-R-pair derivation.  The
    cohort tier uses it to run *one* detection over several
    recordings' ICG signals laid end to end: beat windows never read
    outside themselves (interior derivative taps live in
    ``[start, stop)``, the edge fits in the window's first/last
    ``window`` samples, and every row reduction below is masked by the
    beat's length), so concatenation cannot change any beat's bits.
    The caller guarantees the windows are in-bounds, disjoint and
    sorted.

    ``origins`` (with ``beats``) gives each beat an integer origin to
    subtract when assembling output indices, so a beat cut from a
    signal placed at offset ``origins[k]`` reports the indices — bit
    for bit, including the float ``b0_index`` — that a detection over
    its own recording alone would have produced.  Delegation to the
    per-beat reference cannot honour foreign origins, so it raises
    instead (the cohort caller screens delegating beats out and treats
    the raise as a demotion signal).
    """
    from repro.icg.points import (
        BeatPoints,
        PointConfig,
        _detect_all_points_ref,
        _window_derivative,
        detect_beat_points,
    )

    config = config or PointConfig()
    icg = np.asarray(icg, dtype=float)
    if beats is None:
        r = np.asarray(r_indices, dtype=np.int64)
        if np.any(np.diff(r) <= 0):
            # Overlapping/odd beat windows break the shared-derivative
            # layout; this is pathological input, not a hot path.
            points, failures = _detect_all_points_ref(
                icg, fs, r, config, rt_intervals_s)
            return points, failures, BeatLandmarks.from_points(points)
        starts = r[:-1]
        stops = r[1:]
    else:
        starts = np.asarray(beats[0], dtype=np.int64)
        stops = np.asarray(beats[1], dtype=np.int64)

    n_signal = icg.size
    lens = stops - starts
    n = starts.size
    if origins is None:
        local_starts = starts
    else:
        local_starts = starts - np.asarray(origins, dtype=np.int64)
    status = np.zeros(n, dtype=np.int64)

    # -- per-beat validity, in the reference's check order ----------------
    _set_fail(status, ~((0 <= starts) & (stops <= n_signal)),
              _FAIL_WINDOW)
    _set_fail(status, lens < int(0.25 * fs), _FAIL_SHORT)
    window = _window_derivative(config.derivative_window_s, fs)
    _set_fail(status, lens <= window, _FAIL_DERIV)
    min_c = int(config.min_c_delay_s * fs)
    # beat[min_c:] empty would make the reference raise numpy's own
    # ValueError from argmax — delegate those beats to it.
    _set_fail(status, min_c >= lens, _DELEGATE)

    active = status == _OK
    c_rel = np.zeros(n, np.int64)
    b_rel = np.zeros(n, np.int64)
    x_rel = np.zeros(n, np.int64)
    b0_rel = np.zeros(n, float)
    x0_rel = np.zeros(n, np.int64)
    pattern = np.zeros(n, bool)

    if active.any():
        width = int(lens[active].max())
        row_starts = np.clip(starts, 0, max(n_signal - 1, 0))

        d1f, d2f, d3f = _batched_derivatives(
            icg, starts[active], stops[active], window, fs)

        def rows_of(signal, row_width):
            # Shared leading-axis gather (also used by the cohort
            # stacker); masked reductions below never read past a
            # beat's length, so the zero extension preserves values.
            return _padded_row_view(signal, row_starts, row_width)

        with np.errstate(all="ignore"):
            rows = rows_of(icg, width)
            rows_d3 = rows_of(d3f, width)

            # -- C point --------------------------------------------------
            c_rel = _masked_argmax(rows, np.full(n, min_c, np.int64),
                                   lens)
            _set_fail(status,
                      active & ((c_rel >= lens - 2) | (c_rel <= 1)),
                      _FAIL_C_EDGE)
            active = status == _OK
            c_amp = icg[np.clip(starts + c_rel, 0, n_signal - 1)]
            _set_fail(status, active & ~(c_amp > 0), _FAIL_C_SIGN)
            active = status == _OK

            # -- B0: the 40-80 % upstroke line fit ------------------------
            # Everything through the B search lives left of C, so the
            # d1/d2 row views are gathered at the C horizon only — a
            # fraction of the full beat width.
            width_up = int(min(max(c_rel[active].max(initial=0) + 1, 1),
                               width))
            rows_up = rows[:, :width_up]
            cols_up = np.arange(width_up)
            upslope = cols_up[None, :] <= c_rel[:, None]  # j in [0, C]
            high_level = config.line_fit_high * c_amp
            low_level = config.line_fit_low * c_amp
            idx_high = np.where((rows_up <= high_level[:, None])
                                & upslope, cols_up, -1).max(axis=1)
            idx_low = np.where((rows_up <= low_level[:, None])
                               & upslope, cols_up, -1).max(axis=1)
            _set_fail(status,
                      active & ((idx_high < 0) | (idx_low < 0)
                                | (idx_high - idx_low < 2)),
                      _FAIL_UPSTROKE)
            active = status == _OK
            slope = np.zeros(n)
            intercept = np.zeros(n)
            for k in np.flatnonzero(active):
                # fit_line's y reductions are length-dependent pairwise
                # sums, so they stay per-beat calls on the identical
                # slice; the abscissa statistics are exact integer
                # arithmetic, so their closed forms match np.mean/np.sum
                # over arange bit for bit.
                lo = int(idx_low[k])
                hi = int(idx_high[k])
                seg = icg[starts[k] + lo: starts[k] + hi + 1]
                size = hi - lo + 1
                t_mean = ((lo + hi) * size / 2) / size
                denom = size * (size * size - 1) / 12
                y_mean = np.add.reduce(seg) / size
                tc = np.arange(lo, hi + 1, dtype=float) - t_mean
                slope[k] = np.add.reduce(tc * (seg - y_mean)) / denom
                intercept[k] = y_mean - slope[k] * t_mean
            _set_fail(status, active & (slope <= 0), _FAIL_SLOPE)
            active = status == _OK
            b0_rel = np.where(slope != 0, -intercept,
                              0.0) / np.where(slope != 0, slope, 1.0)
            _set_fail(status,
                      active & ~((0.0 <= b0_rel) & (b0_rel <= c_rel)),
                      _FAIL_B0_RANGE)
            active = status == _OK

            # -- B: pattern branch selection + leftward search ------------
            rows_d1 = rows_of(d1f, width_up)
            rows_d2 = rows_of(d2f, width_up)
            pattern_lo = np.maximum(
                0, c_rel - int(config.b_pattern_window_s * fs))
            inseg = upslope & (cols_up[None, :] >= pattern_lo[:, None])
            abs_d2 = np.abs(rows_d2)
            tol = config.sign_tolerance_fraction * np.where(
                inseg, abs_d2, 0.0).max(axis=1)
            pattern = _pattern_present(rows_d2, inseg, tol)
            b_start = np.floor(b0_rel).astype(np.int64)
            search_lo = np.maximum(
                0, b_start - int(config.b_search_window_s * fs))
            walk_lo = np.maximum(search_lo, 1)

            # Strict local minima of d3, beat-locally (0 < j < len - 1
            # enforced by the construction and the hi bound).
            lm3 = np.zeros(rows_d3.shape, dtype=bool)
            lm3[:, 1:-1] = ((rows_d3[:, 1:-1] < rows_d3[:, :-2])
                            & (rows_d3[:, 1:-1] <= rows_d3[:, 2:]))
            b_min = _rightmost_true(lm3, walk_lo,
                                    np.minimum(b_start, lens - 2))

            # Zero-cross branch on d1: tolerance hit first, then the
            # sign change with nearest-to-zero resolution.
            abs_d1 = np.abs(rows_d1)
            d1_tol = 0.02 * np.where(upslope, abs_d1, 0.0).max(axis=1)
            hit_a = abs_d1 <= d1_tol[:, None]
            hit = hit_a.copy()
            hit[:, 1:] |= rows_d1[:, :-1] * rows_d1[:, 1:] < 0
            b_cross_at = _rightmost_true(hit, walk_lo,
                                         np.minimum(b_start, lens - 1))
            # Clamp into the gathered width: inactive rows may carry
            # garbage walk bounds (their comparisons are discarded).
            safe = np.minimum(np.maximum(b_cross_at, 1),
                              max(width_up - 1, 0))
            rows_idx = np.arange(n)
            take_prev = (~hit_a[rows_idx, safe]
                         & (abs_d1[rows_idx, safe - 1]
                            < abs_d1[rows_idx, safe]))
            b_cross = np.where(b_cross_at < 0, -1,
                               b_cross_at - take_prev)

            b_rel = np.where(pattern, b_min, b_cross)
            _set_fail(status, active & (b_rel < 0), _FAIL_NO_B)
            active = status == _OK
            _set_fail(status, active & (b_rel >= c_rel),
                      _FAIL_B_AFTER_C)
            active = status == _OK

            # -- X0 -------------------------------------------------------
            if (config.x_strategy == "rt_window"
                    and rt_intervals_s is None):
                # The reference reports the missing RT interval only
                # for beats that survive through the X0 stage.
                _set_fail(status, active, _FAIL_RT_NONE)
                active = status == _OK
            if config.x_strategy == "rt_window" and active.any():
                rt = np.asarray(rt_intervals_s, dtype=float)
                x0_lo = np.maximum(
                    np.trunc(rt * fs).astype(np.int64), c_rel + 1)
                x0_hi = np.minimum(
                    np.trunc(config.rt_window_factor * rt * fs)
                    .astype(np.int64), lens)
                _set_fail(status, active & (x0_hi - x0_lo < 3),
                          _FAIL_X0_RT_EMPTY)
            else:
                x0_lo = c_rel + 1
                x0_hi = lens
                _set_fail(status, active & (lens - (c_rel + 1) < 3),
                          _FAIL_X0_ROOM)
            active = status == _OK
            x0_rel = _masked_argmin(rows, x0_lo, x0_hi)
            x0_val = icg[np.clip(starts + x0_rel, 0, n_signal - 1)]
            _set_fail(status, active & (x0_val >= 0), _FAIL_X0_SIGN)
            active = status == _OK

            # -- X: local min of d3 left of X0, falling back to X0 --------
            x_lo = np.maximum(
                c_rel + 1,
                x0_rel - int(config.x_search_window_s * fs))
            x_min = _rightmost_true(lm3, np.maximum(x_lo, 1),
                                    np.minimum(x0_rel, lens - 2))
            x_rel = np.where(x_min < 0, x0_rel, x_min)
            _set_fail(status, active & (x_rel <= c_rel),
                      _FAIL_X_BEFORE_C)

    # -- assemble points / failures in beat order -------------------------
    points = []
    failures = []
    delegated = False
    for k in range(n):
        code = int(status[k])
        if code == _OK:
            points.append(BeatPoints(
                r_index=int(local_starts[k]),
                c_index=int(local_starts[k] + c_rel[k]),
                b_index=int(local_starts[k] + b_rel[k]),
                x_index=int(local_starts[k] + x_rel[k]),
                b0_index=float(int(local_starts[k]) + float(b0_rel[k])),
                x0_index=int(local_starts[k] + x0_rel[k]),
                pattern_found=bool(pattern[k]),
            ))
        elif code == _DELEGATE:
            if origins is not None:
                # The per-beat reference works in this signal's frame;
                # it cannot report another origin's indices.  The
                # cohort caller screens these beats out up front, so
                # reaching here means the screen and the detection
                # disagree — refuse, and let the caller demote.
                raise ValueError(
                    "cannot delegate a beat to the reference detector "
                    "under per-beat origins")
            rt = (None if rt_intervals_s is None
                  else float(np.asarray(rt_intervals_s)[k]))
            # Reproduce whatever the reference does for this beat —
            # including raising its (non-DetectionError) exception.
            delegated = True
            points.append(detect_beat_points(
                icg, fs, int(starts[k]), int(stops[k]), config,
                rt_interval_s=rt))
        elif code == _FAIL_WINDOW:
            failures.append((k, f"invalid beat window [{int(starts[k])}"
                                f", {int(stops[k])}) for signal of "
                                f"{n_signal} samples"))
        elif code == _FAIL_B0_RANGE:
            failures.append((k, f"B0 estimate {float(b0_rel[k]):.1f} "
                                f"outside [0, C={int(c_rel[k])}]"))
        else:
            failures.append((k, _MESSAGES[code]))
    if delegated:        # a reference-produced point: gather generically
        return points, failures, BeatLandmarks.from_points(points)
    # Landmarks straight from the columns already computed — no second
    # per-beat pass over the points list on the hot path.
    ok = status == _OK
    landmarks = BeatLandmarks(
        r=local_starts[ok],
        c=(local_starts + c_rel)[ok],
        b=(local_starts + b_rel)[ok],
        x=(local_starts + x_rel)[ok],
        b0=(local_starts + b0_rel)[ok],
        x0=(local_starts + x0_rel)[ok],
        pattern_found=pattern[ok],
    )
    return points, failures, landmarks

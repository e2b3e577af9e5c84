"""Pan-Tompkins real-time QRS detection (Pan & Tompkins, 1985).

The paper detects R peaks with this algorithm and anchors the whole
beat-to-beat ICG analysis on them (PEP is measured from the R wave, and
each RR interval delimits the ICG search window).  The implementation
follows the original publication:

1. band-pass ~5-15 Hz (integer-coefficient cascade at 200 Hz; a
   matched Butterworth elsewhere),
2. five-point derivative,
3. squaring,
4. 150 ms moving-window integration (MWI),
5. adaptive dual thresholds with signal/noise running estimates on
   *both* the MWI and band-passed signals, a 200 ms refractory period,
   T-wave discrimination by slope at < 360 ms, and RR-based search-back
   using the two running RR averages.

Detections are finally refined to the R-peak sample on the input signal
within a +-60 ms window so downstream PEP measurements are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dsp import fir as _fir
from repro.dsp import iir as _iir
from repro.errors import ConfigurationError, SignalError

__all__ = ["PanTompkinsConfig", "PanTompkinsDetector", "detect_r_peaks",
           "design_qrs_bandpass_sos", "design_mwi_kernel"]


@dataclass(frozen=True)
class PanTompkinsConfig:
    """Tunables of the detector (defaults follow the 1985 paper)."""

    band_hz: tuple = (5.0, 15.0)
    integration_window_s: float = 0.150
    refractory_s: float = 0.200
    twave_window_s: float = 0.360
    search_back: bool = True
    refine_window_s: float = 0.060

    def __post_init__(self) -> None:
        low, high = self.band_hz
        if not 0.0 < low < high:
            raise ConfigurationError(f"invalid band {self.band_hz}")
        for name in ("integration_window_s", "refractory_s",
                     "twave_window_s", "refine_window_s"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")


def design_qrs_bandpass_sos(fs: float,
                            config: Optional[PanTompkinsConfig] = None,
                            ) -> np.ndarray:
    """SOS of the ~5-15 Hz QRS band-pass for ``(fs, config)``.

    The canonical design expression — the detector's constructor and
    the pipeline's filter-design cache both call this, so the two can
    never drift apart.
    """
    config = config or PanTompkinsConfig()
    low, high = config.band_hz
    return _iir.butter_bandpass(2, low, high, fs)


def design_mwi_kernel(fs: float,
                      config: Optional[PanTompkinsConfig] = None,
                      ) -> np.ndarray:
    """Moving-window-integration kernel (150 ms boxcar) for
    ``(fs, config)`` (canonical, as :func:`design_qrs_bandpass_sos`)."""
    config = config or PanTompkinsConfig()
    width = max(1, int(round(config.integration_window_s * fs)))
    return np.ones(width) / width


class PanTompkinsDetector:
    """Stateful detector bound to a sampling rate.

    Use :meth:`detect` for sample indices or :meth:`detect_times` for
    seconds.  The intermediate signals of the last run are kept on the
    instance (``bandpassed``, ``integrated``) because the embedded
    firmware model re-uses them for its operation counting.
    """

    def __init__(self, fs: float,
                 config: Optional[PanTompkinsConfig] = None,
                 bandpass_sos: Optional[np.ndarray] = None,
                 mwi_kernel: Optional[np.ndarray] = None) -> None:
        if fs < 60.0:
            raise ConfigurationError(
                f"Pan-Tompkins needs fs >= 60 Hz to resolve QRS energy, "
                f"got {fs}")
        self.fs = float(fs)
        self.config = config or PanTompkinsConfig()
        low, high = self.config.band_hz
        if high >= self.fs / 2.0:
            raise ConfigurationError(
                f"band upper edge {high} Hz must sit below fs/2")
        # Pre-designed band-pass sections / MWI kernel (e.g. from the
        # pipeline's filter-design cache) skip the design work; they
        # must match (fs, config) — the caller owns that invariant.
        self._sos = (bandpass_sos if bandpass_sos is not None
                     else design_qrs_bandpass_sos(self.fs, self.config))
        self._mwi_kernel = (mwi_kernel if mwi_kernel is not None
                            else design_mwi_kernel(self.fs, self.config))
        self.bandpassed = None
        self.integrated = None

    # --- stages -----------------------------------------------------------

    def _bandpass(self, x: np.ndarray) -> np.ndarray:
        return _iir.sosfilt(self._sos, x)

    def _derivative(self, x: np.ndarray) -> np.ndarray:
        """Five-point derivative: ``(1/8)(2x[n] + x[n-1] - x[n-3] -
        2x[n-4])``, the original integer-friendly stencil."""
        padded = np.concatenate([np.full(4, x[0]), x])
        return (2.0 * padded[4:] + padded[3:-1] - padded[1:-3]
                - 2.0 * padded[:-4]) / 8.0

    def _integrate(self, x: np.ndarray) -> np.ndarray:
        # The MWI is a plain FIR pass; routing it through apply_fir
        # picks up the FFT path when the window is long (high-rate
        # device modes push the 150 ms kernel past the crossover).
        return _fir.apply_fir(self._mwi_kernel, x)

    # --- thresholding ------------------------------------------------------

    def detect(self, ecg) -> np.ndarray:
        """Detect QRS complexes; returns R-peak sample indices."""
        x = np.asarray(ecg, dtype=float)
        if x.ndim != 1:
            raise SignalError(f"expected 1-D ECG, got shape {x.shape}")
        if x.size < int(2 * self.fs):
            raise SignalError(
                "Pan-Tompkins needs at least two seconds of signal "
                f"({int(2 * self.fs)} samples), got {x.size}")
        bandpassed = self._bandpass(x)
        squared = self._derivative(bandpassed) ** 2
        integrated = self._integrate(squared)
        self.bandpassed = bandpassed
        self.integrated = integrated

        peaks = _local_peaks(integrated,
                             min_distance=int(0.2 * self.fs))
        qrs = self._threshold_pass(integrated, bandpassed, peaks,
                                   *self._peak_features(bandpassed,
                                                        peaks))
        return self._refine(x, qrs)

    def detect_times(self, ecg) -> np.ndarray:
        """Detect QRS complexes; returns R-peak times in seconds."""
        return self.detect(ecg) / self.fs

    def detect_batch(self, ecg_rows, lengths=None) -> list:
        """Row-batched :meth:`detect` over zero-stacked same-rate ECGs.

        ``ecg_rows`` is ``(n_recordings, width)`` with row ``i`` valid
        up to ``lengths[i]``.  The signal-conditioning half of the
        algorithm — band-pass, five-point derivative, squaring, MWI —
        runs batched over the leading axis (bit-identical per row: the
        IIR scan and FIR/FFT kernels are pinned by the batched-kernel
        parity suite, the derivative and squaring are elementwise);
        the sequential threshold logic then runs per row through the
        *same* ``_local_peaks`` / ``_threshold_pass`` / ``_refine``
        methods :meth:`detect` uses, so detections cannot drift from
        the per-recording path.  Returns a list of R-peak index
        arrays, one per row.  Unlike :meth:`detect`, the
        ``bandpassed`` / ``integrated`` scratch attributes are left
        untouched.
        """
        from repro.dsp._signal import check_lengths as _check_lengths

        x = np.asarray(ecg_rows, dtype=float)
        if x.ndim != 2:
            raise SignalError(
                f"expected a 2-D batch of ECG rows, got shape {x.shape}")
        lengths = _check_lengths(x, lengths)
        if lengths.size and int(lengths.min()) < int(2 * self.fs):
            raise SignalError(
                "Pan-Tompkins needs at least two seconds of signal "
                f"({int(2 * self.fs)} samples) in every row, got "
                f"{int(lengths.min())}")
        bandpassed = _iir.sosfilt_batch(self._sos, x, lengths=lengths)
        padded = np.concatenate(
            [np.repeat(bandpassed[:, :1], 4, axis=1), bandpassed], axis=1)
        deriv = (2.0 * padded[:, 4:] + padded[:, 3:-1] - padded[:, 1:-3]
                 - 2.0 * padded[:, :-4]) / 8.0
        squared = deriv ** 2
        integrated = _fir.apply_fir_batch(self._mwi_kernel, squared,
                                          lengths=lengths)
        # Row-batched front half of the threshold logic: the learning-
        # phase statistics (every row is >= the 2 s head, so the head
        # slice is uniform; axis-1 max/mean are bit-equal to the
        # per-row reductions) and the local-maximum candidate mask
        # (pure comparisons).  Only the inherently sequential
        # threshold walk remains per row.
        h = int(2 * self.fs)
        spk_i_rows = 0.3 * np.max(integrated[:, :h], axis=1,
                                  initial=0.0)
        npk_i_rows = 0.1 * np.mean(integrated[:, :h], axis=1)
        abs_head = np.abs(bandpassed[:, :h])
        spk_f_rows = 0.3 * np.max(abs_head, axis=1, initial=0.0)
        npk_f_rows = 0.1 * np.mean(abs_head, axis=1)
        peak_mask = ((integrated[:, 1:-1] > integrated[:, :-2])
                     & (integrated[:, 1:-1] >= integrated[:, 2:]))
        min_distance = int(0.2 * self.fs)
        peaks_per_row = []
        for i in range(x.shape[0]):
            valid = int(lengths[i])
            candidates = np.flatnonzero(
                peak_mask[i, : max(valid - 2, 0)]) + 1
            peaks_per_row.append(
                _local_peaks(integrated[i, :valid],
                             min_distance=min_distance,
                             candidates=candidates))
        features = self._slab_peak_features(bandpassed, lengths,
                                            peaks_per_row)
        qrs_per_row = []
        for i, peaks in enumerate(peaks_per_row):
            valid = int(lengths[i])
            near, slope = (features[i] if features is not None
                           else self._peak_features(
                               bandpassed[i, :valid], peaks))
            qrs_per_row.append(self._threshold_pass(
                integrated[i, :valid], bandpassed[i, :valid], peaks,
                near, slope,
                learning=(float(spk_i_rows[i]), float(npk_i_rows[i]),
                          float(spk_f_rows[i]), float(npk_f_rows[i]))))
        return self._slab_refine(x, lengths, qrs_per_row)

    def _slab_peak_features(self, bandpassed: np.ndarray,
                            lengths: np.ndarray, peaks_per_row: list):
        """Slab-wide :meth:`_peak_features`: one strided gather for
        every interior peak of every row.

        The per-row windows never cross row boundaries (an interior
        peak's window lies inside that row's valid samples), so the
        windowed maxima can be read off one ``sliding_window_view`` of
        the row-flattened ``|bp|`` / ``|diff(bp)|`` matrices — max is
        exact, so the values are bit-equal to the per-row gathers.
        Returns a per-row list of ``(near, slope)`` dicts, or ``None``
        when the slope window degenerates (the per-row fallback
        handles every peak there).
        """
        fs = self.fs
        w_near = int(0.10 * fs)
        w_slope = int(0.075 * fs)
        if w_near < 0 or w_slope < 1:
            return None
        n_rows, width = bandpassed.shape
        abs_bp = np.abs(bandpassed)
        abs_diff = np.abs(np.diff(bandpassed, axis=1))
        counts = [p.size for p in peaks_per_row]
        if sum(counts) == 0:
            return [({}, {}) for _ in peaks_per_row]
        all_peaks = np.concatenate(peaks_per_row)
        row_ids = np.repeat(np.arange(n_rows), counts)
        interior = ((all_peaks >= w_near) & (all_peaks >= w_slope)
                    & (all_peaks >= 1))
        int_rows = row_ids[interior]
        int_peaks = all_peaks[interior]
        near_vals = np.lib.stride_tricks.sliding_window_view(
            abs_bp.ravel(), w_near + 1)[
            int_rows * width + int_peaks - w_near].max(axis=1)
        slope_vals = np.lib.stride_tricks.sliding_window_view(
            abs_diff.ravel(), w_slope)[
            int_rows * (width - 1) + int_peaks - w_slope].max(axis=1)
        bounds = np.searchsorted(int_rows, np.arange(n_rows + 1))
        int_keys = int_peaks.tolist()
        near_list = near_vals.tolist()
        slope_list = slope_vals.tolist()
        features = []
        for i, peaks in enumerate(peaks_per_row):
            s, e = int(bounds[i]), int(bounds[i + 1])
            near = dict(zip(int_keys[s:e], near_list[s:e]))
            slope = dict(zip(int_keys[s:e], slope_list[s:e]))
            if e - s != peaks.size:
                # Boundary-clamped peaks: the same scalar fallback as
                # _peak_features, on this row's slices.
                valid = int(lengths[i])
                row_abs = abs_bp[i, :valid]
                row_diff = abs_diff[i, :valid - 1]
                row_bp = bandpassed[i, :valid]
                for idx in peaks.tolist():
                    if idx in near:
                        continue
                    lo = max(0, idx - w_near)
                    hi = min(valid, idx + 1)
                    near[idx] = (float(np.max(row_abs[lo:hi]))
                                 if hi > lo else 0.0)
                    lo = max(0, idx - w_slope)
                    segment = row_bp[lo: idx + 1]
                    slope[idx] = (float(np.max(row_diff[lo:idx]))
                                  if segment.size > 1 else 0.0)
            features.append((near, slope))
        return features

    def _slab_refine(self, x: np.ndarray, lengths: np.ndarray,
                     qrs_per_row: list) -> list:
        """Slab-wide :meth:`_refine`: one strided argmax over every
        interior search window, per-row fallback for clamped ones.

        Interior windows sit inside their row's valid samples, so the
        row-flattened gather reads exactly the per-row window and
        ``argmax`` keeps the same first-maximum tie-breaking.  The
        per-row dedup walk is unchanged.
        """
        half = int(self.config.refine_window_s * self.fs)
        group_delay = int((self.config.integration_window_s / 2)
                          * self.fs)
        min_sep = int(self.config.refractory_s * self.fs)
        n_rows, width = x.shape
        counts = [len(q) for q in qrs_per_row]
        total = sum(counts)
        snapped = np.zeros(total, dtype=int)
        interior = np.zeros(total, dtype=bool)
        if total:
            all_qrs = np.fromiter(
                (q for row in qrs_per_row for q in row),
                dtype=np.int64, count=total)
            row_ids = np.repeat(np.arange(n_rows), counts)
            centres = all_qrs - group_delay
            valids = lengths[row_ids]
            interior = ((centres - half >= 0)
                        & (centres + half + 1 <= valids))
            if interior.any():
                starts = centres[interior] - half
                windows = np.lib.stride_tricks.sliding_window_view(
                    x.ravel(), 2 * half + 1)[
                    row_ids[interior] * width + starts]
                snapped[interior] = starts + windows.argmax(axis=1)
        detections = []
        pos = 0
        for i, qrs in enumerate(qrs_per_row):
            valid = int(lengths[i])
            refined = []
            for j, idx in enumerate(qrs):
                if interior[pos + j]:
                    refined.append(int(snapped[pos + j]))
                    continue
                centre = int(idx) - group_delay
                lo = max(0, centre - half)
                hi = min(valid, centre + half + 1)
                if hi <= lo:
                    continue
                refined.append(lo + int(np.argmax(x[i, lo:hi])))
            pos += len(qrs)
            out: list = []
            for r in refined:
                if not out or r - out[-1] >= min_sep:
                    out.append(r)
            detections.append(np.asarray(out, dtype=int))
        return detections

    def _peak_features(self, bp: np.ndarray, peaks: np.ndarray) -> tuple:
        """Per-peak band-pass features, batched.

        The threshold pass consults two windowed maxima at every
        fiducial mark — the band-pass peak within the preceding 100 ms
        and the steepest slope within the preceding 75 ms.  Computing
        them per peak cost a handful of small numpy calls each; here
        the interior peaks' windows are gathered into one
        ``(n_peaks, window)`` view and reduced in a single pass (max
        is reduction-order independent, so the values are bit-equal),
        with only boundary-clamped peaks falling back to the scalar
        expression.  Returns ``({peak: bp_peak}, {peak: slope})``.
        """
        fs = self.fs
        n = bp.size
        w_near = int(0.10 * fs)
        w_slope = int(0.075 * fs)
        abs_bp = np.abs(bp)
        abs_diff = np.abs(np.diff(bp))
        near: dict = {}
        slope: dict = {}
        interior = peaks[(peaks >= w_near) & (peaks >= w_slope)
                         & (peaks >= 1)]
        if interior.size and w_near >= 0 and w_slope >= 1:
            rows = np.lib.stride_tricks.sliding_window_view(
                abs_bp, w_near + 1)[interior - w_near]
            near_vals = rows.max(axis=1)
            rows = np.lib.stride_tricks.sliding_window_view(
                abs_diff, w_slope)[interior - w_slope]
            slope_vals = rows.max(axis=1)
            keys = interior.tolist()
            near = dict(zip(keys, near_vals.tolist()))
            slope = dict(zip(keys, slope_vals.tolist()))
        for idx in peaks.tolist():
            if idx in near:
                continue
            lo = max(0, idx - w_near)
            hi = min(n, idx + 1)
            near[idx] = (float(np.max(abs_bp[lo:hi]))
                         if hi > lo else 0.0)
            lo = max(0, idx - w_slope)
            segment = bp[lo: idx + 1]
            slope[idx] = (float(np.max(abs_diff[lo:idx]))
                          if segment.size > 1 else 0.0)
        return near, slope

    def _threshold_pass(self, mwi: np.ndarray, bp: np.ndarray,
                        peaks: np.ndarray, bp_near: dict,
                        bp_slope: dict, learning=None) -> list:
        cfg = self.config
        fs = self.fs
        if learning is None:
            # Initialise estimates from the first two seconds, as the
            # original algorithm's learning phase does.
            head = slice(0, int(2 * fs))
            spk_i = 0.3 * float(np.max(mwi[head], initial=0.0))
            npk_i = 0.1 * float(np.mean(mwi[head]))
            spk_f = 0.3 * float(np.max(np.abs(bp[head]), initial=0.0))
            npk_f = 0.1 * float(np.mean(np.abs(bp[head])))
        else:
            # Precomputed by detect_batch's row-batched reductions
            # (bit-equal to the expressions above).
            spk_i, npk_i, spk_f, npk_f = learning
        threshold_i = npk_i + 0.25 * (spk_i - npk_i)
        threshold_f = npk_f + 0.25 * (spk_f - npk_f)

        qrs: list = []
        rr_recent: list = []      # last 8 RR intervals (samples)
        rr_selective: list = []   # last 8 "regular" RR intervals
        refractory = int(cfg.refractory_s * fs)
        twave_lim = int(cfg.twave_window_s * fs)

        # Every index the walk touches is a fiducial mark, so gather
        # the MWI heights once (vectorized) and run the sequential
        # logic on python scalars — float64 arithmetic rounds the same
        # either way, and the walk drops the per-step ufunc dispatch.
        peak_list = [int(p) for p in peaks]
        mwi_at = dict(zip(peak_list,
                          np.asarray(mwi)[peak_list].tolist()
                          if peak_list else ()))

        def bp_peak_near(idx: int) -> float:
            return bp_near[idx]

        def mean_slope_before(idx: int) -> float:
            return bp_slope[idx]

        def accept(idx: int) -> None:
            nonlocal spk_i, spk_f, threshold_i, threshold_f
            spk_i = 0.125 * mwi_at[idx] + 0.875 * spk_i
            spk_f = 0.125 * bp_peak_near(idx) + 0.875 * spk_f
            if qrs:
                rr = idx - qrs[-1]
                rr_recent.append(rr)
                if len(rr_recent) > 8:
                    rr_recent.pop(0)
                if _rr_is_regular(rr, rr_selective):
                    rr_selective.append(rr)
                    if len(rr_selective) > 8:
                        rr_selective.pop(0)
            qrs.append(idx)
            threshold_i = npk_i + 0.25 * (spk_i - npk_i)
            threshold_f = npk_f + 0.25 * (spk_f - npk_f)

        def reject(idx: int) -> None:
            nonlocal npk_i, npk_f, threshold_i, threshold_f
            npk_i = 0.125 * mwi_at[idx] + 0.875 * npk_i
            npk_f = 0.125 * bp_peak_near(idx) + 0.875 * npk_f
            threshold_i = npk_i + 0.25 * (spk_i - npk_i)
            threshold_f = npk_f + 0.25 * (spk_f - npk_f)

        def search_back(current: int) -> None:
            """RR-miss rule: if no QRS appeared within 166 % of the
            running RR average, claim the best half-threshold peak in
            the gap (original algorithm, using THRESHOLD/2)."""
            nonlocal spk_i
            if not (cfg.search_back and qrs and rr_recent):
                return
            regular = rr_selective or rr_recent
            # sum/len of small-integer RRs is exact, hence bit-equal
            # to np.mean without the reduction-machinery overhead.
            rr_mean = float(sum(regular) / len(regular))
            if current - qrs[-1] <= 1.66 * rr_mean:
                return
            candidates = [p for p in peak_list
                          if qrs[-1] + refractory < p < current - refractory
                          and mwi_at[p] > 0.5 * threshold_i]
            if candidates:
                best = max(candidates, key=mwi_at.__getitem__)
                accept(best)
                spk_i = 0.25 * mwi_at[best] + 0.75 * spk_i

        last_slope = 0.0
        for idx in peak_list:
            search_back(idx)
            if qrs and idx - qrs[-1] < refractory:
                reject(idx)
                continue
            is_signal = (mwi_at[idx] > threshold_i
                         and bp_peak_near(idx) > threshold_f)
            if is_signal and qrs and idx - qrs[-1] < twave_lim:
                # T-wave discrimination: a T wave has less than half the
                # preceding QRS slope.
                slope = mean_slope_before(idx)
                if slope < 0.5 * last_slope:
                    reject(idx)
                    continue
            if is_signal:
                last_slope = mean_slope_before(idx)
                accept(idx)
            else:
                reject(idx)
        return qrs

    def _refine(self, x: np.ndarray, qrs: list) -> np.ndarray:
        """Snap each detection to the R-peak sample of the input signal.

        The MWI peak lags the R wave by roughly half the integration
        window plus the filter delays, so the search window is centred
        slightly *before* the detection index.
        """
        half = int(self.config.refine_window_s * self.fs)
        group_delay = int((self.config.integration_window_s / 2) * self.fs)
        centres = np.asarray(qrs, dtype=int) - group_delay
        w = 2 * half + 1
        interior = (centres - half >= 0) & (centres + half + 1 <= x.size)
        batched: dict = {}
        if w <= x.size and interior.any():
            # One strided argmax over every full-width window; edge
            # windows (clamped at either end) fall back per element.
            starts = centres[interior] - half
            windows = np.lib.stride_tricks.sliding_window_view(x, w)[starts]
            args = starts + windows.argmax(axis=1)
            batched = dict(zip(np.flatnonzero(interior).tolist(),
                               args.tolist()))
        refined = []
        for i, centre in enumerate(centres):
            if i in batched:
                refined.append(batched[i])
                continue
            lo = max(0, centre - half)
            hi = min(x.size, centre + half + 1)
            if hi <= lo:
                continue
            refined.append(lo + int(np.argmax(x[lo:hi])))
        # Deduplicate (refinement can merge neighbours) while keeping order.
        out: list = []
        min_sep = int(self.config.refractory_s * self.fs)
        for r in refined:
            if not out or r - out[-1] >= min_sep:
                out.append(r)
        return np.asarray(out, dtype=int)


def _local_peaks(x: np.ndarray, min_distance: int,
                 candidates=None) -> np.ndarray:
    """Local maxima at least ``min_distance`` samples apart (the
    fiducial-mark stage of the original algorithm).

    ``candidates`` short-circuits the local-maximum scan with indices
    a caller already computed (``detect_batch`` evaluates the
    comparison mask for a whole slab at once); they must equal what
    the scan below would have found.
    """
    if candidates is None:
        candidates = np.flatnonzero(
            (x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:])) + 1
    if candidates.size == 0:
        return candidates
    # One vectorized gather, then a pure-python greedy walk: float64
    # comparisons are bit-identical whether run on numpy or python
    # scalars, and the python loop avoids per-step ufunc dispatch.
    values = x[candidates].tolist()
    selected: list = []
    kept: list = []
    for idx, v in zip(candidates.tolist(), values):
        if selected and idx - selected[-1] < min_distance:
            if v > kept[-1]:
                selected[-1] = idx
                kept[-1] = v
        else:
            selected.append(idx)
            kept.append(v)
    return np.asarray(selected, dtype=int)


def _rr_is_regular(rr: int, rr_selective: list) -> bool:
    """RR acceptance test for the selective average (92-116 % band)."""
    if not rr_selective:
        return True
    # Exact for integer RR intervals: identical to np.mean.
    mean = float(sum(rr_selective) / len(rr_selective))
    return 0.92 * mean <= rr <= 1.16 * mean


def detect_r_peaks(ecg, fs: float,
                   config: Optional[PanTompkinsConfig] = None) -> np.ndarray:
    """Convenience wrapper: R-peak sample indices via Pan-Tompkins."""
    return PanTompkinsDetector(fs, config).detect(ecg)

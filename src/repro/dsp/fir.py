"""FIR filter design (windowed-sinc) and application.

This module provides the linear-phase FIR machinery used by the paper's
ECG chain: a 32nd-order band-pass with cut-offs 0.05 Hz and 40 Hz applied
in zero phase (forward-backward).  Designs follow the classic
windowed-sinc method: an ideal brick-wall impulse response truncated and
shaped by a window from :mod:`repro.dsp.windows`.

Only odd-length (even-order, type-I) designs are produced for high-pass
and band-stop responses, since even-length linear-phase filters force a
null at Nyquist.
"""

from __future__ import annotations

import numpy as np

from repro.dsp import windows as _windows
from repro.dsp._signal import as_signal as _as_signal
from repro.dsp._signal import check_lengths as _check_lengths
from repro.dsp._signal import odd_reflect_pad as _odd_reflect_pad
from repro.dsp._signal import odd_reflect_pad_rows as _odd_reflect_pad_rows
from repro.errors import ConfigurationError, SignalError

__all__ = [
    "design_lowpass",
    "design_highpass",
    "design_bandpass",
    "design_bandstop",
    "apply_fir",
    "apply_fir_batch",
    "filtfilt_fir",
    "filtfilt_fir_batch",
    "group_delay",
    "frequency_response",
    "FFT_CROSSOVER_TAPS",
]

#: Tap count from which ``method="auto"`` takes the FFT convolution
#: path (for signals longer than the kernel).  Measured on the reference
#: interpreter (numpy 2.x, signals of 2k-32k samples): direct wins
#: clearly through ~129 taps, the two trade places around 257, and FFT
#: wins beyond.  Every kernel the published chain builds at clinical
#: rates (the 33-tap ECG FIR, the 150 ms Pan-Tompkins integration
#: window up to ~1.7 kHz) stays direct; longer kernels appear in the
#: high-rate device modes and the resampler's anti-alias filters.  A
#: fixed constant keeps the convolution path — and so every output bit
#: — independent of the host.
FFT_CROSSOVER_TAPS = 256


def _validate_order(order: int) -> int:
    if not isinstance(order, (int, np.integer)):
        raise ConfigurationError(f"filter order must be an integer, got {order!r}")
    if order < 2:
        raise ConfigurationError(f"filter order must be >= 2, got {order}")
    if order % 2:
        raise ConfigurationError(
            f"only even (type-I) FIR orders are supported, got {order}"
        )
    return int(order)


def _validate_cutoff(cutoff_hz: float, fs: float, name: str = "cutoff") -> float:
    if fs <= 0:
        raise ConfigurationError(f"sampling rate must be positive, got {fs}")
    if not 0.0 < cutoff_hz < fs / 2.0:
        raise ConfigurationError(
            f"{name} must lie strictly inside (0, fs/2) = (0, {fs / 2.0}); "
            f"got {cutoff_hz}"
        )
    return float(cutoff_hz)


def _ideal_lowpass(order: int, fc_norm: float) -> np.ndarray:
    """Impulse response of the ideal low-pass, fc as a fraction of fs."""
    n = np.arange(order + 1) - order / 2.0
    return 2.0 * fc_norm * np.sinc(2.0 * fc_norm * n)


def _windowed(h: np.ndarray, window) -> np.ndarray:
    w = _windows.get_window(window, h.size)
    return h * w


def design_lowpass(order: int, cutoff_hz: float, fs: float,
                   window="hamming") -> np.ndarray:
    """Design a linear-phase low-pass FIR of the given (even) order.

    Returns ``order + 1`` taps normalised for unit gain at DC.
    """
    order = _validate_order(order)
    fc = _validate_cutoff(cutoff_hz, fs) / fs
    taps = _windowed(_ideal_lowpass(order, fc), window)
    return taps / taps.sum()


def design_highpass(order: int, cutoff_hz: float, fs: float,
                    window="hamming") -> np.ndarray:
    """Design a linear-phase high-pass FIR by spectral inversion.

    Gain is normalised to exactly one at the Nyquist frequency.
    """
    order = _validate_order(order)
    fc = _validate_cutoff(cutoff_hz, fs) / fs
    low = _windowed(_ideal_lowpass(order, fc), window)
    taps = -low
    taps[order // 2] += 1.0
    # Normalise gain at Nyquist: H(pi) = sum h[n] * (-1)^n
    nyq_gain = np.sum(taps * (-1.0) ** np.arange(taps.size))
    return taps / nyq_gain


def design_bandpass(order: int, low_hz: float, high_hz: float, fs: float,
                    window="hamming") -> np.ndarray:
    """Design a linear-phase band-pass FIR (difference of two low-passes).

    This is the design used by the paper's ECG stage with
    ``order=32, low_hz=0.05, high_hz=40, fs=250``.  Gain is normalised to
    one at the geometric centre of the pass-band.
    """
    order = _validate_order(order)
    lo = _validate_cutoff(low_hz, fs, "low cut-off")
    hi = _validate_cutoff(high_hz, fs, "high cut-off")
    if lo >= hi:
        raise ConfigurationError(
            f"low cut-off ({lo} Hz) must be below high cut-off ({hi} Hz)"
        )
    wide = _ideal_lowpass(order, hi / fs)
    narrow = _ideal_lowpass(order, lo / fs)
    taps = _windowed(wide - narrow, window)
    centre_hz = float(np.sqrt(lo * hi))
    gain = np.abs(frequency_response(taps, np.array([centre_hz]), fs)[1][0])
    if gain <= 0:
        raise ConfigurationError("degenerate band-pass design (zero centre gain)")
    return taps / gain


def design_bandstop(order: int, low_hz: float, high_hz: float, fs: float,
                    window="hamming") -> np.ndarray:
    """Design a linear-phase band-stop FIR (sum of low-pass + high-pass)."""
    order = _validate_order(order)
    lo = _validate_cutoff(low_hz, fs, "low cut-off")
    hi = _validate_cutoff(high_hz, fs, "high cut-off")
    if lo >= hi:
        raise ConfigurationError(
            f"low cut-off ({lo} Hz) must be below high cut-off ({hi} Hz)"
        )
    low = _ideal_lowpass(order, lo / fs)
    wide = _ideal_lowpass(order, hi / fs)
    taps = low - wide
    taps[order // 2] += 1.0
    taps = _windowed(taps, window)
    return taps / taps.sum()  # unit DC gain


def _fft_convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Causal convolution via one real FFT of the next power-of-two
    length, truncated to the input length."""
    full = x.size + taps.size - 1
    nfft = 1 << (full - 1).bit_length()
    spectrum = np.fft.rfft(x, nfft) * np.fft.rfft(taps, nfft)
    return np.fft.irfft(spectrum, nfft)[: x.size]


def _check_taps(taps) -> np.ndarray:
    taps = np.asarray(taps, dtype=float)
    if taps.ndim != 1 or taps.size == 0:
        raise ConfigurationError("taps must be a non-empty 1-D array")
    return taps


def _auto_method(n_taps: int, n_samples: int) -> str:
    """``"fft"`` from :data:`FFT_CROSSOVER_TAPS` taps on, for signals
    longer than the kernel; ``"direct"`` otherwise."""
    if n_taps >= FFT_CROSSOVER_TAPS and n_samples > n_taps:
        return "fft"
    return "direct"


def _resolve_method(method: str, taps: np.ndarray, x: np.ndarray) -> str:
    if method not in ("auto", "direct", "fft"):
        raise ConfigurationError(
            f"method must be 'auto', 'direct' or 'fft', got {method!r}")
    if method != "auto":
        return method
    return _auto_method(taps.size, x.size)


def apply_fir(taps: np.ndarray, x, method: str = "auto") -> np.ndarray:
    """Causal FIR filtering (same length as input).

    ``method`` selects the convolution path: ``"direct"``
    (``np.convolve``), ``"fft"`` (overlap-free single real FFT), or
    ``"auto"`` (default) which switches to FFT from
    :data:`FFT_CROSSOVER_TAPS` taps on, for signals longer than the
    kernel.  Both paths agree to ~1e-13 relative accuracy (asserted at
    1e-9 by the parity suite).
    """
    x = _as_signal(x)
    taps = _check_taps(taps)
    if _resolve_method(method, taps, x) == "fft":
        return _fft_convolve(x, taps)
    return np.convolve(x, taps, mode="full")[: x.size]


def _resolve_method_rows(method: str, taps: np.ndarray,
                         lengths: np.ndarray) -> list:
    """Per-row convolution paths, matching what :func:`apply_fir` would
    resolve for each row's own length."""
    if method not in ("auto", "direct", "fft"):
        raise ConfigurationError(
            f"method must be 'auto', 'direct' or 'fft', got {method!r}")
    if method != "auto":
        return [method] * lengths.size
    return [_auto_method(taps.size, int(n)) for n in lengths]


def apply_fir_batch(taps: np.ndarray, x, lengths=None,
                    method: str = "auto",
                    patch_head: bool = True) -> np.ndarray:
    """Causal FIR filtering over a leading recording axis.

    ``x`` is a ``(n_rows, width)`` matrix of zero-stacked signals, row
    ``i`` valid up to ``lengths[i]``.  The convolution path is resolved
    per row against each row's own length — exactly what
    :func:`apply_fir` would pick — and rows sharing a path (and, on
    the FFT path, a transform size) are processed together:

    * **direct**: one ``np.convolve`` over the row-flattened buffer
      with ``ntaps - 1`` guard zeros between rows.  Interior outputs
      are the same full-window dot products either way (the
      beat-matrix precedent); the first ``ntaps - 1`` outputs of each
      row are boundary dots whose summation tree differs, so they are
      patched per row from a prefix convolution — bit-identical.
    * **fft**: rows bucket by their power-of-two transform length
      (``nfft`` depends on the row length, so ragged rows can resolve
      different sizes); each bucket runs one batched ``rfft``/``irfft``
      — bit-identical to the per-row transforms, since zero tail
      padding is exactly what ``np.fft.rfft(x, nfft)`` does.

    Row ``i``'s first ``lengths[i]`` outputs equal
    ``apply_fir(taps, x[i, :lengths[i]], method)``; columns beyond are
    unspecified.  Requires every row length ``>= taps.size``.

    ``patch_head=False`` skips the per-row boundary patch on the
    direct path, leaving each row's first ``ntaps - 1`` outputs
    unspecified alongside the trailing columns.  Only for callers
    that provably never read the head: :func:`filtfilt_fir_batch`
    pads by ``3 * ntaps`` before both passes, so the head region of
    each pass lies entirely inside trimmed padding — the patch there
    is per-row ``np.convolve`` work (the one remaining per-row loop
    of the batched FIR) spent on samples nothing observes.
    """
    taps = _check_taps(taps)
    lengths = _check_lengths(x, lengths)
    x = np.asarray(x, dtype=float)
    n_rows, width = x.shape
    if lengths.size and int(lengths.min()) < taps.size:
        raise SignalError(
            f"batched FIR needs rows of >= {taps.size} samples; route "
            "shorter recordings through the per-recording path")
    methods = _resolve_method_rows(method, taps, lengths)
    out = np.empty_like(x)
    cols = np.arange(width)[None, :]

    direct = np.flatnonzero([m == "direct" for m in methods])
    if direct.size:
        guard = taps.size - 1
        buf = np.zeros((direct.size, width + guard))
        buf[:, :width] = x[direct]
        buf[:, :width][cols >= lengths[direct, None]] = 0.0
        flat = np.convolve(buf.ravel(), taps, mode="full")
        rows_out = flat[: buf.size].reshape(direct.size, -1)[:, :width]
        # Boundary patch: the first ntaps-1 outputs come from partial
        # windows whose dot products numpy evaluates over fewer terms
        # than the guard-zero-extended windows of the flat pass.
        if patch_head:
            head = min(guard, width)
            for k, row in enumerate(direct):
                prefix = buf[k, : taps.size]
                rows_out[k, :head] = np.convolve(
                    prefix, taps, mode="full")[:head]
        out[direct] = rows_out

    fft_rows = np.flatnonzero([m == "fft" for m in methods])
    if fft_rows.size:
        taps_spectra: dict = {}
        nffts = np.array([
            1 << (int(n) + taps.size - 1 - 1).bit_length()
            for n in lengths[fft_rows]])
        for nfft in np.unique(nffts):
            rows = fft_rows[nffts == nfft]
            take = min(width, int(nfft))
            buf = np.zeros((rows.size, take))
            buf[:] = x[rows, :take]
            buf[cols[:, :take] >= lengths[rows, None]] = 0.0
            if nfft not in taps_spectra:
                taps_spectra[nfft] = np.fft.rfft(taps, int(nfft))
            spectrum = (np.fft.rfft(buf, int(nfft), axis=-1)
                        * taps_spectra[nfft])
            y = np.fft.irfft(spectrum, int(nfft), axis=-1)
            out[rows] = 0.0
            out[rows, :take] = y[:, :take]
    return out


def filtfilt_fir(taps: np.ndarray, x, method: str = "auto") -> np.ndarray:
    """Zero-phase FIR filtering (forward pass then reversed pass).

    The effective magnitude response is ``|H(f)|^2`` and the phase is
    exactly zero; edges are handled by odd reflection padding of three
    filter lengths, mirroring common practice.  ``method`` is the
    convolution path, as in :func:`apply_fir`.
    """
    x = _as_signal(x)
    taps = _check_taps(taps)
    pad = min(3 * taps.size, x.size - 1)
    padded = _odd_reflect_pad(x, pad)
    forward = apply_fir(taps, padded, method=method)
    backward = apply_fir(taps, forward[::-1], method=method)
    result = backward[::-1]
    # Each pass delays by (ntaps-1)/2 on average; for linear-phase taps the
    # two passes cancel exactly, so plain unpadding recovers alignment.
    return result[pad: pad + x.size] if pad else result


def filtfilt_fir_batch(taps: np.ndarray, x, lengths=None,
                       method: str = "auto") -> np.ndarray:
    """Zero-phase FIR filtering over a leading recording axis.

    The row-batched twin of :func:`filtfilt_fir`: per-row odd-reflect
    padding, a forward :func:`apply_fir_batch` pass, a per-row
    reversal gather, the backward pass, and un-padding.  Requires
    every row length to clear the uniform pad (``3 * taps``), so the
    per-row pad expression ``min(3 * ntaps, n - 1)`` collapses to the
    same constant for every row; shorter rows belong on the
    per-recording path.  Row ``i``'s first ``lengths[i]`` outputs are
    bit-identical to ``filtfilt_fir(taps, x[i, :lengths[i]],
    method)``; columns beyond are unspecified.
    """
    taps = _check_taps(taps)
    lengths = _check_lengths(x, lengths)
    x = np.asarray(x, dtype=float)
    n_rows, width = x.shape
    pad = 3 * taps.size
    if lengths.size and int(lengths.min()) <= pad:
        raise SignalError(
            f"batched filtfilt needs rows longer than {pad} samples; "
            "route shorter recordings through the per-recording path")
    padded = _odd_reflect_pad_rows(x, lengths, pad)
    padded_lengths = lengths + 2 * pad
    # Both passes run with patch_head=False: the returned outputs read
    # backward rows [pad, length + pad - 1], which depend on forward
    # rows [pad, length + pad + ntaps - 2] — with pad = 3 * ntaps,
    # neither pass's first ntaps - 1 columns are ever observed, so
    # their per-row boundary patches would be pure dead work.
    forward = apply_fir_batch(taps, padded, padded_lengths,
                              method=method, patch_head=False)
    rows = np.arange(n_rows)[:, None]
    rev_idx = np.maximum(padded_lengths[:, None] - 1
                         - np.arange(padded.shape[1])[None, :], 0)
    reversed_rows = forward[rows, rev_idx]
    # Zero the tails so the backward pass sees zero-stacked rows (the
    # gather clamps trailing indices to column 0).
    cols = np.arange(padded.shape[1])[None, :]
    reversed_rows[cols >= padded_lengths[:, None]] = 0.0
    backward = apply_fir_batch(taps, reversed_rows, padded_lengths,
                               method=method, patch_head=False)
    out_idx = np.maximum(padded_lengths[:, None] - 1 - pad
                         - np.arange(width)[None, :], 0)
    return backward[rows, out_idx]


def group_delay(taps: np.ndarray) -> float:
    """Group delay in samples of a linear-phase FIR: ``(ntaps - 1) / 2``."""
    taps = np.asarray(taps, dtype=float)
    if taps.ndim != 1 or taps.size == 0:
        raise ConfigurationError("taps must be a non-empty 1-D array")
    return (taps.size - 1) / 2.0


def frequency_response(taps: np.ndarray, freqs_hz: np.ndarray, fs: float):
    """Complex frequency response ``H(f)`` of an FIR at given frequencies.

    Returns ``(freqs_hz, H)``.  Direct evaluation of the DTFT; cost is
    O(ntaps * nfreqs), fine for the design sizes used here.
    """
    taps = np.asarray(taps, dtype=float)
    freqs_hz = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
    if fs <= 0:
        raise ConfigurationError(f"sampling rate must be positive, got {fs}")
    omega = 2.0 * np.pi * freqs_hz / fs
    n = np.arange(taps.size)
    h = np.exp(-1j * np.outer(omega, n)) @ taps
    return freqs_hz, h

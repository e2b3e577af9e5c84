"""Butterworth IIR design and second-order-section filtering.

Implements, from scratch on numpy, the classic design flow used by the
paper's ICG stage (zero-phase low-pass Butterworth, fc = 20 Hz):

1. analog Butterworth low-pass prototype (poles on the unit circle),
2. frequency transformation (lp2lp / lp2hp / lp2bp / lp2bs) with
   bilinear pre-warping,
3. bilinear transform to the z-domain,
4. conversion to second-order sections (SOS),
5. direct-form-II-transposed SOS filtering, steady-state initial
   conditions, and zero-phase forward-backward filtering.

The test-suite validates every step against :mod:`scipy.signal`, and
the blocked-scan :func:`sosfilt` against the scalar per-sample loop
kept in ``tests/oracles/``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp._signal import as_signal as _as_signal
from repro.dsp._signal import check_lengths as _check_lengths
from repro.dsp._signal import odd_reflect_pad as _odd_reflect_pad
from repro.dsp._signal import odd_reflect_pad_rows as _odd_reflect_pad_rows
from repro.dsp.kernels import DEFAULT_BLOCK, pole_block_kernel
from repro.errors import ConfigurationError, SignalError

__all__ = [
    "ZpkFilter",
    "butter_prototype",
    "butter_lowpass",
    "butter_highpass",
    "butter_bandpass",
    "butter_bandstop",
    "zpk_to_sos",
    "sosfilt",
    "sosfilt_batch",
    "sosfilt_zi",
    "sosfiltfilt",
    "sosfiltfilt_batch",
    "sos_frequency_response",
]


@dataclass(frozen=True)
class ZpkFilter:
    """A filter in zeros/poles/gain form (analog or digital)."""

    zeros: np.ndarray
    poles: np.ndarray
    gain: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "zeros", np.atleast_1d(np.asarray(self.zeros,
                                                                   complex)))
        object.__setattr__(self, "poles", np.atleast_1d(np.asarray(self.poles,
                                                                   complex)))
        object.__setattr__(self, "gain", float(self.gain))


def _validate_order(order: int) -> int:
    if not isinstance(order, (int, np.integer)):
        raise ConfigurationError(f"filter order must be an integer, got {order!r}")
    if order < 1:
        raise ConfigurationError(f"filter order must be >= 1, got {order}")
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


def butter_prototype(order: int) -> ZpkFilter:
    """Analog low-pass Butterworth prototype with cut-off 1 rad/s.

    Poles sit equally spaced on the left half of the unit circle; there
    are no finite zeros and the gain is one.
    """
    order = _validate_order(order)
    k = np.arange(order)
    poles = np.exp(1j * np.pi * (2.0 * k + order + 1.0) / (2.0 * order))
    # Force exact conjugate symmetry (kills 1e-17 imaginary dust on the
    # real pole of odd orders).
    poles = poles[np.argsort(poles.imag)]
    if order % 2:
        real_idx = order // 2
        poles[real_idx] = poles[real_idx].real
    return ZpkFilter(np.empty(0, complex), poles, 1.0)


def _prewarp(cutoff_hz: float, fs: float) -> float:
    """Map a digital cut-off to the analog frequency the bilinear
    transform will place back exactly at ``cutoff_hz``."""
    return 2.0 * fs * np.tan(np.pi * cutoff_hz / fs)


def _lp2lp(proto: ZpkFilter, warped: float) -> ZpkFilter:
    degree = proto.poles.size - proto.zeros.size
    return ZpkFilter(proto.zeros * warped, proto.poles * warped,
                     proto.gain * warped**degree)


def _lp2hp(proto: ZpkFilter, warped: float) -> ZpkFilter:
    degree = proto.poles.size - proto.zeros.size
    zeros = warped / proto.zeros if proto.zeros.size else np.empty(0, complex)
    poles = warped / proto.poles
    # Gain correction: lim s->inf of prototype over transformed.
    num = np.prod(-proto.zeros) if proto.zeros.size else 1.0
    den = np.prod(-proto.poles)
    gain = proto.gain * float(np.real(num / den))
    zeros = np.concatenate([zeros, np.zeros(degree, complex)])
    return ZpkFilter(zeros, poles, gain)


def _lp2bp(proto: ZpkFilter, w0: float, bw: float) -> ZpkFilter:
    degree = proto.poles.size - proto.zeros.size
    scaled_z = proto.zeros * bw / 2.0
    scaled_p = proto.poles * bw / 2.0
    zeros = np.concatenate([
        scaled_z + np.sqrt(scaled_z**2 - w0**2),
        scaled_z - np.sqrt(scaled_z**2 - w0**2),
        np.zeros(degree, complex),
    ])
    poles = np.concatenate([
        scaled_p + np.sqrt(scaled_p**2 - w0**2),
        scaled_p - np.sqrt(scaled_p**2 - w0**2),
    ])
    return ZpkFilter(zeros, poles, proto.gain * bw**degree)


def _lp2bs(proto: ZpkFilter, w0: float, bw: float) -> ZpkFilter:
    degree = proto.poles.size - proto.zeros.size
    inv_z = (bw / 2.0) / proto.zeros if proto.zeros.size else np.empty(0, complex)
    inv_p = (bw / 2.0) / proto.poles
    zeros = np.concatenate([
        inv_z + np.sqrt(inv_z**2 - w0**2) if inv_z.size else np.empty(0, complex),
        inv_z - np.sqrt(inv_z**2 - w0**2) if inv_z.size else np.empty(0, complex),
        np.full(degree, 1j * w0, complex),
        np.full(degree, -1j * w0, complex),
    ])
    poles = np.concatenate([
        inv_p + np.sqrt(inv_p**2 - w0**2),
        inv_p - np.sqrt(inv_p**2 - w0**2),
    ])
    num = np.prod(-proto.zeros) if proto.zeros.size else 1.0
    den = np.prod(-proto.poles)
    gain = proto.gain * float(np.real(num / den))
    return ZpkFilter(zeros, poles, gain)


def _bilinear(analog: ZpkFilter, fs: float) -> ZpkFilter:
    fs2 = 2.0 * fs
    degree = analog.poles.size - analog.zeros.size
    zeros = (fs2 + analog.zeros) / (fs2 - analog.zeros)
    poles = (fs2 + analog.poles) / (fs2 - analog.poles)
    zeros = np.concatenate([zeros, -np.ones(degree, complex)])
    num = np.prod(fs2 - analog.zeros) if analog.zeros.size else 1.0
    den = np.prod(fs2 - analog.poles)
    gain = analog.gain * float(np.real(num / den))
    return ZpkFilter(zeros, poles, gain)


def butter_lowpass(order: int, cutoff_hz: float, fs: float) -> np.ndarray:
    """Digital Butterworth low-pass as second-order sections.

    The paper's ICG filter is ``butter_lowpass(4, 20.0, 250.0)`` applied
    with :func:`sosfiltfilt` (zero phase).
    """
    cutoff_hz = _validate_cutoff(cutoff_hz, fs)
    proto = butter_prototype(order)
    analog = _lp2lp(proto, _prewarp(cutoff_hz, fs))
    return zpk_to_sos(_bilinear(analog, fs))


def butter_highpass(order: int, cutoff_hz: float, fs: float) -> np.ndarray:
    """Digital Butterworth high-pass as second-order sections."""
    cutoff_hz = _validate_cutoff(cutoff_hz, fs)
    proto = butter_prototype(order)
    analog = _lp2hp(proto, _prewarp(cutoff_hz, fs))
    return zpk_to_sos(_bilinear(analog, fs))


def _band_edges(low_hz: float, high_hz: float, fs: float):
    low = _validate_cutoff(low_hz, fs, "low cut-off")
    high = _validate_cutoff(high_hz, fs, "high cut-off")
    if low >= high:
        raise ConfigurationError(
            f"low cut-off ({low} Hz) must be below high cut-off ({high} Hz)"
        )
    w1 = _prewarp(low, fs)
    w2 = _prewarp(high, fs)
    return np.sqrt(w1 * w2), w2 - w1


def butter_bandpass(order: int, low_hz: float, high_hz: float,
                    fs: float) -> np.ndarray:
    """Digital Butterworth band-pass (final order is ``2 * order``)."""
    w0, bw = _band_edges(low_hz, high_hz, fs)
    proto = butter_prototype(order)
    analog = _lp2bp(proto, w0, bw)
    return zpk_to_sos(_bilinear(analog, fs))


def butter_bandstop(order: int, low_hz: float, high_hz: float,
                    fs: float) -> np.ndarray:
    """Digital Butterworth band-stop (final order is ``2 * order``)."""
    w0, bw = _band_edges(low_hz, high_hz, fs)
    proto = butter_prototype(order)
    analog = _lp2bs(proto, w0, bw)
    return zpk_to_sos(_bilinear(analog, fs))


def _split_conjugates(values: np.ndarray, tol: float = 1e-9):
    """Split into (conjugate pairs, reals); raises on unpaired complexes."""
    remaining = list(values)
    pairs = []
    reals = []
    while remaining:
        v = remaining.pop(0)
        if abs(v.imag) < tol:
            reals.append(v.real)
            continue
        match = None
        for idx, other in enumerate(remaining):
            if abs(other - np.conj(v)) < tol * max(1.0, abs(v)):
                match = idx
                break
        if match is None:
            raise ConfigurationError(
                f"complex value {v} has no conjugate partner; "
                "coefficients would not be real"
            )
        remaining.pop(match)
        pairs.append(v)
    return pairs, reals


def zpk_to_sos(filt: ZpkFilter) -> np.ndarray:
    """Convert zeros/poles/gain to real second-order sections.

    Sections are ordered with poles closest to the unit circle last,
    which keeps intermediate signals well-scaled.  The overall gain is
    folded into the first section.
    """
    zeros = np.asarray(filt.zeros, complex)
    poles = np.asarray(filt.poles, complex)
    if zeros.size > poles.size:
        raise ConfigurationError(
            f"more zeros ({zeros.size}) than poles ({poles.size}); "
            "not a proper filter"
        )
    n_sections = (poles.size + 1) // 2
    if n_sections == 0:
        raise ConfigurationError("filter has no poles")

    pole_pairs, pole_reals = _split_conjugates(poles)
    zero_pairs, zero_reals = _split_conjugates(zeros)

    # Assemble per-section (poles, zeros) groups.  Pair conjugate pole
    # pairs with conjugate zero pairs first (both give real quadratics),
    # then mop up the real ones two at a time.
    sections = []
    pole_pairs.sort(key=lambda p: -abs(p))
    zero_pairs.sort(key=lambda z: -abs(z))
    for pp in pole_pairs:
        if zero_pairs:
            zz = zero_pairs.pop(0)
            sec_zeros = [zz, np.conj(zz)]
        else:
            sec_zeros = []
            while zero_reals and len(sec_zeros) < 2:
                sec_zeros.append(zero_reals.pop(0))
        sections.append(([pp, np.conj(pp)], sec_zeros))
    pole_reals.sort(key=lambda p: -abs(p))
    while pole_reals:
        sec_poles = [pole_reals.pop(0)]
        if pole_reals:
            sec_poles.append(pole_reals.pop(0))
        sec_zeros = []
        while zero_reals and len(sec_zeros) < len(sec_poles):
            sec_zeros.append(zero_reals.pop(0))
        sections.append((sec_poles, sec_zeros))
    if zero_pairs or zero_reals:
        raise ConfigurationError("could not place all zeros into sections")

    sos = np.zeros((len(sections), 6))
    for i, (sec_poles, sec_zeros) in enumerate(sections):
        a = np.real(np.poly(sec_poles)) if sec_poles else np.array([1.0])
        b = np.real(np.poly(sec_zeros)) if sec_zeros else np.array([1.0])
        sos[i, 3: 3 + a.size] = a
        sos[i, 0: b.size] = b
    sos[0, :3] *= filt.gain
    # Order sections so the last has poles closest to the unit circle.
    closeness = [max(abs(abs(np.asarray(p)) - 1.0).min() for p in [sec[0]])
                 for sec in sections]
    order = np.argsort(closeness)[::-1]
    return sos[order]


def _check_sos(sos) -> np.ndarray:
    sos = np.asarray(sos, dtype=float)
    if sos.ndim != 2 or sos.shape[1] != 6:
        raise ConfigurationError(
            f"sos must have shape (n_sections, 6), got {sos.shape}"
        )
    # Same acceptance band as np.allclose(sos[:, 3], 1.0) without its
    # generic broadcasting machinery — this check runs on every filter
    # application, so its constant cost is hot-path overhead.
    a0_error = np.abs(sos[:, 3] - 1.0)
    if not (a0_error <= 1.0e-8 + 1.0e-5).all():
        raise ConfigurationError("sos sections must be normalised (a0 == 1)")
    return sos


def _check_state(zi, n_sections: int) -> np.ndarray:
    state = (np.zeros((n_sections, 2)) if zi is None
             else np.array(zi, dtype=float))
    if state.shape != (n_sections, 2):
        raise ConfigurationError(
            f"zi must have shape ({n_sections}, 2), got {state.shape}"
        )
    return state


def _biquad_block(section: np.ndarray, x: np.ndarray, w0: float,
                  w1: float, block: int) -> tuple:
    """One biquad over the whole signal via the blocked pole scan.

    The zero (FIR) part and the incoming DF2T state fold into a
    forcing term ``f``; the pole recurrence ``y[n] = f[n] - a1 y[n-1]
    - a2 y[n-2]`` is then solved ``block`` samples at a time with the
    cached scan matrices: one triangular matmul for all within-block
    particular responses at once, a cheap 2-vector recursion across
    block boundaries, and one rank-2 update folding the boundary
    states back in.  Python-level iteration count drops from
    ``n_samples`` to ``n_samples / block``.
    """
    b0, b1, b2, _, a1, a2 = section
    n = x.size
    if n == 1:
        y0 = b0 * x[0] + w0
        return (np.array([y0]),
                b1 * x[0] - a1 * y0 + w1,
                b2 * x[0] - a2 * y0)
    f = b0 * x
    f[1:] += b1 * x[:-1]
    f[2:] += b2 * x[:-2]
    f[0] += w0
    f[1] += w1

    H, G = pole_block_kernel(a1, a2, block)
    n_blocks = -(-n // block)
    padded = np.zeros(n_blocks * block)
    padded[:n] = f
    forcing = padded.reshape(n_blocks, block)
    particular = forcing @ H.T
    # Block-boundary states [y[-1], y[-2]]: a first-order recursion of
    # 2-vectors — the only remaining Python loop, n_samples / block
    # iterations of scalar work (kept as plain floats: a 2x2 np.dot per
    # block would cost more in call overhead than the whole matmul).
    m00, m01 = G[block - 1]
    m10, m11 = G[block - 2]
    tails = particular[:, block - 2:].tolist()
    rows = []
    s0 = s1 = 0.0
    for p_penult, p_last in tails:
        rows.append((s0, s1))
        s0, s1 = (m00 * s0 + m01 * s1 + p_last,
                  m10 * s0 + m11 * s1 + p_penult)
    states = np.array(rows)
    y = (particular + states @ G.T).ravel()[:n]
    # Closing DF2T state, read off the last in/out samples.
    w1_out = b2 * x[-1] - a2 * y[-1]
    w0_out = b1 * x[-1] - a1 * y[-1] + b2 * x[-2] - a2 * y[-2]
    return y, w0_out, w1_out


def _biquad_block_rows(section: np.ndarray, x: np.ndarray,
                       w0: np.ndarray, w1: np.ndarray,
                       block: int) -> np.ndarray:
    """Row-batched :func:`_biquad_block` over a leading recording axis.

    ``x`` is ``(n_rows, n)`` with every row a full signal (ragged rows
    zero-stacked to a common width); ``w0``/``w1`` are per-row incoming
    DF2T states.  Every operation is the per-row kernel's operation
    broadcast over rows: the forcing build and boundary recursion are
    elementwise, and the block matmuls are bit-identical under a
    leading batch axis (BLAS keeps the K-reduction order independent
    of M — pinned by the batched-kernel parity suite).  Row ``i``'s
    first ``L_i`` outputs therefore equal the per-row kernel's outputs
    whenever columns beyond ``L_i`` are zero, because the filter is
    causal.  Only ``y`` is returned — batch callers read closing
    states off the valid row ends themselves.
    """
    b0, b1, b2, _, a1, a2 = section
    n_rows, n = x.shape
    f = b0 * x
    f[:, 1:] += b1 * x[:, :-1]
    f[:, 2:] += b2 * x[:, :-2]
    f[:, 0] += w0
    f[:, 1] += w1

    H, G = pole_block_kernel(a1, a2, block)
    n_blocks = -(-n // block)
    padded = np.zeros((n_rows, n_blocks * block))
    padded[:, :n] = f
    forcing = padded.reshape(n_rows, n_blocks, block)
    particular = forcing @ H.T
    m00, m01 = G[block - 1]
    m10, m11 = G[block - 2]
    penult = particular[:, :, block - 2]
    last = particular[:, :, block - 1]
    states = np.empty((n_rows, n_blocks, 2))
    s0 = np.zeros(n_rows)
    s1 = np.zeros(n_rows)
    for k in range(n_blocks):
        states[:, k, 0] = s0
        states[:, k, 1] = s1
        s0, s1 = (m00 * s0 + m01 * s1 + last[:, k],
                  m10 * s0 + m11 * s1 + penult[:, k])
    return (particular + states @ G.T).reshape(n_rows, -1)[:, :n]


def sosfilt_batch(sos, x, zi=None, lengths=None):
    """Causal SOS filtering over a leading recording axis.

    ``x`` is a ``(n_rows, n_samples)`` matrix of zero-stacked signals
    (see :func:`repro.dsp._signal.stack_ragged`); row ``i`` is valid up
    to ``lengths[i]`` (full width when ``lengths`` is omitted).  ``zi``
    accepts per-row initial conditions of shape ``(n_rows, n_sections,
    2)`` or one shared ``(n_sections, 2)`` state.  Returns ``y`` or
    ``(y, zf)`` with ``zf`` read off each row's own last valid
    samples.  Row ``i``'s first ``lengths[i]`` output samples are
    bit-identical to ``sosfilt(sos, x[i, :lengths[i]], ...)``; columns
    beyond a row's length are by-products of the stacked scan and must
    be masked by the caller.
    """
    sos = _check_sos(sos)
    lengths = _check_lengths(x, lengths)
    x = np.asarray(x, dtype=float)
    if x.shape[1] < 2:
        raise SignalError("batched sosfilt needs >= 2 samples per row")
    n_rows = x.shape[0]
    n_sections = sos.shape[0]
    if zi is None:
        state = np.zeros((n_rows, n_sections, 2))
    else:
        state = np.array(zi, dtype=float)
        if state.shape == (n_sections, 2):
            state = np.broadcast_to(state, (n_rows, n_sections, 2)).copy()
        if state.shape != (n_rows, n_sections, 2):
            raise ConfigurationError(
                f"zi must have shape ({n_rows}, {n_sections}, 2) or "
                f"({n_sections}, 2), got {np.shape(zi)}")
    rows = np.arange(n_rows)
    y = x
    for s in range(n_sections):
        b0, b1, b2, _, a1, a2 = sos[s]
        out = _biquad_block_rows(sos[s], y, state[:, s, 0],
                                 state[:, s, 1], DEFAULT_BLOCK)
        if zi is not None:
            # Closing DF2T state at each row's own end, the same
            # expressions as the per-row kernel evaluated per row.
            x_last = y[rows, lengths - 1]
            x_penult = y[rows, lengths - 2]
            y_last = out[rows, lengths - 1]
            y_penult = out[rows, lengths - 2]
            state[:, s, 1] = b2 * x_last - a2 * y_last
            state[:, s, 0] = (b1 * x_last - a1 * y_last
                              + b2 * x_penult - a2 * y_penult)
        y = out
    return y if zi is None else (y, state)


def sosfiltfilt_batch(sos, x, lengths=None) -> np.ndarray:
    """Zero-phase SOS filtering over a leading recording axis.

    The row-batched twin of :func:`sosfiltfilt`: per-row odd-reflect
    padding, steady-state initial conditions scaled by each row's
    first padded sample, a forward scan, a per-row reversal gather,
    the backward scan, and un-padding.  Requires every row length to
    clear the uniform pad (``3 * ntaps``); shorter rows would need
    per-row pad lengths and belong on the per-recording path.  Row
    ``i``'s first ``lengths[i]`` outputs are bit-identical to
    ``sosfiltfilt(sos, x[i, :lengths[i]])``; columns beyond are
    unspecified.
    """
    sos = _check_sos(sos)
    lengths = _check_lengths(x, lengths)
    x = np.asarray(x, dtype=float)
    n_rows, width = x.shape
    ntaps = 2 * sos.shape[0] + 1
    pad = 3 * ntaps
    if lengths.size and int(lengths.min()) <= pad:
        raise SignalError(
            f"batched sosfiltfilt needs rows longer than {pad} samples; "
            "route shorter recordings through the per-recording path")
    padded = _odd_reflect_pad_rows(x, lengths, pad)
    padded_lengths = lengths + 2 * pad
    zi = sosfilt_zi(sos)
    zi_fwd = zi[None, :, :] * padded[:, :1, None]
    forward, _ = sosfilt_batch(sos, padded, zi=zi_fwd,
                               lengths=padded_lengths)
    rows = np.arange(n_rows)[:, None]
    rev_idx = np.maximum(padded_lengths[:, None] - 1
                         - np.arange(padded.shape[1])[None, :], 0)
    reversed_rows = forward[rows, rev_idx]
    zi_bwd = zi[None, :, :] * reversed_rows[:, :1, None]
    backward, _ = sosfilt_batch(sos, reversed_rows, zi=zi_bwd,
                                lengths=padded_lengths)
    out_idx = np.maximum(padded_lengths[:, None] - 1 - pad
                         - np.arange(width)[None, :], 0)
    return backward[rows, out_idx]


def _sosfilt_vec(sos, x, zi=None, block: int = DEFAULT_BLOCK):
    """Vectorized SOS kernel: per-section convolution + blocked scan."""
    sos = _check_sos(sos)
    x = _as_signal(x)
    n_sections = sos.shape[0]
    state = _check_state(zi, n_sections)
    y = x
    for s in range(n_sections):
        y, state[s, 0], state[s, 1] = _biquad_block(
            sos[s], y, state[s, 0], state[s, 1], block)
    return y if zi is None else (y, state)


def sosfilt(sos, x, zi=None):
    """Causal SOS filtering (direct form II transposed).

    Returns ``y`` or ``(y, zf)`` when initial conditions ``zi`` of shape
    ``(n_sections, 2)`` are supplied.  Runs the vectorized blocked-scan
    kernel, which matches the scalar per-sample reference loop in
    ``tests/oracles/`` to ~1e-12 relative accuracy (asserted at 1e-9 by
    the parity suite).
    """
    return _sosfilt_vec(sos, x, zi=zi)


def sosfilt_zi(sos) -> np.ndarray:
    """Steady-state DF2T state for a unit-amplitude constant input.

    Scaling by the first input sample makes step responses start in
    steady state — the trick :func:`sosfiltfilt` relies on to suppress
    edge transients.
    """
    sos = _check_sos(sos)
    zi = np.zeros((sos.shape[0], 2))
    input_level = 1.0
    for s, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        denom = 1.0 + a1 + a2
        if abs(denom) < 1e-300:
            raise ConfigurationError(
                "section has a pole at z = 1; steady state undefined"
            )
        out_level = input_level * (b0 + b1 + b2) / denom
        zi[s, 1] = b2 * input_level - a2 * out_level
        zi[s, 0] = b1 * input_level - a1 * out_level + zi[s, 1]
        input_level = out_level
    return zi


def sosfiltfilt(sos, x) -> np.ndarray:
    """Zero-phase SOS filtering (forward-backward with edge handling).

    This is the application mode the paper uses for both the ECG FIR and
    the ICG Butterworth ("zero-phase ... filter").
    """
    sos = _check_sos(sos)
    x = _as_signal(x)
    ntaps = 2 * sos.shape[0] + 1
    pad = min(3 * ntaps, x.size - 1)
    padded = _odd_reflect_pad(x, pad)
    zi = sosfilt_zi(sos)
    forward, _ = sosfilt(sos, padded, zi=zi * padded[0])
    backward, _ = sosfilt(sos, forward[::-1], zi=zi * forward[-1])
    result = backward[::-1]
    return result[pad: pad + x.size] if pad else result


def sos_frequency_response(sos, freqs_hz, fs: float):
    """Complex frequency response of an SOS cascade at given frequencies."""
    sos = _check_sos(sos)
    if fs <= 0:
        raise ConfigurationError(f"sampling rate must be positive, got {fs}")
    freqs_hz = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
    z = np.exp(1j * 2.0 * np.pi * freqs_hz / fs)
    h = np.ones_like(z, dtype=complex)
    for b0, b1, b2, a0, a1, a2 in sos:
        num = b0 + b1 / z + b2 / z**2
        den = a0 + a1 / z + a2 / z**2
        h *= num / den
    return freqs_hz, h

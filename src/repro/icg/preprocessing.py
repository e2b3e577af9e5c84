"""ICG conditioning: derivative, the paper's 20 Hz low-pass, and the
0.8 Hz respiratory high-pass.

Section IV-A.2: after inspecting the ICG spectrum the authors found no
significant content above 20 Hz and chose a zero-phase low-pass
Butterworth at 20 Hz.  The paper does not state the order; we default
to 4 (a common embedded choice — two biquads) and expose it.

The paper also states the ICG signal spans 0.8-20 Hz while respiration
occupies 0.04-2 Hz; restricting the conditioned signal to its stated
band requires a high-pass at the 0.8 Hz lower edge, otherwise
respiratory minima in late diastole masquerade as X points.  The
high-pass is on by default and can be disabled to study exactly that
failure mode (see the filter-ablation bench).

The ICG itself is defined as ``ICG = -dZ/dt``: the device measures the
demodulated impedance Z(t) and differentiates digitally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dsp import derivative as _derivative
from repro.dsp import iir as _iir
from repro.errors import ConfigurationError, SignalError

__all__ = ["IcgFilterConfig", "design_lowpass_sos", "design_highpass_sos",
           "lowpass", "highpass", "condition_icg",
           "condition_icg_wavelet", "icg_from_impedance",
           "icg_from_impedance_batch"]


@dataclass(frozen=True)
class IcgFilterConfig:
    """Parameters of the ICG conditioning chain.

    ``highpass_hz=None`` disables the respiratory high-pass and leaves
    only the paper's literal 20 Hz low-pass.
    """

    cutoff_hz: float = 20.0
    order: int = 4
    highpass_hz: Optional[float] = 0.8
    highpass_order: int = 2

    def __post_init__(self) -> None:
        if self.cutoff_hz <= 0:
            raise ConfigurationError("cut-off must be positive")
        if self.order < 1 or self.highpass_order < 1:
            raise ConfigurationError("filter orders must be >= 1")
        if self.highpass_hz is not None:
            if not 0.0 < self.highpass_hz < self.cutoff_hz:
                raise ConfigurationError(
                    f"high-pass edge must sit in (0, {self.cutoff_hz}), "
                    f"got {self.highpass_hz}")


def design_lowpass_sos(fs: float,
                       config: Optional[IcgFilterConfig] = None,
                       ) -> np.ndarray:
    """SOS of the low-pass Butterworth for ``(fs, config)``.

    The canonical design expression shared by the direct filtering
    path and the pipeline's filter-design cache.
    """
    config = config or IcgFilterConfig()
    return _iir.butter_lowpass(config.order, config.cutoff_hz, fs)


def design_highpass_sos(fs: float,
                        config: Optional[IcgFilterConfig] = None,
                        ) -> Optional[np.ndarray]:
    """SOS of the respiratory high-pass for ``(fs, config)``; ``None``
    when the high-pass is disabled (canonical, as
    :func:`design_lowpass_sos`)."""
    config = config or IcgFilterConfig()
    if config.highpass_hz is None:
        return None
    return _iir.butter_highpass(config.highpass_order,
                                config.highpass_hz, fs)


def lowpass(icg, fs: float, config: Optional[IcgFilterConfig] = None,
            sos: Optional[np.ndarray] = None) -> np.ndarray:
    """Zero-phase low-pass Butterworth at 20 Hz (paper Section IV-A.2).

    A pre-designed ``sos`` (e.g. from the pipeline's filter-design
    cache) skips the Butterworth design; it must match ``(fs, config)``
    — the caller owns that invariant.
    """
    config = config or IcgFilterConfig()
    if config.cutoff_hz >= fs / 2.0:
        raise ConfigurationError(
            f"cut-off {config.cutoff_hz} Hz does not fit below fs/2 "
            f"= {fs / 2.0} Hz")
    if sos is None:
        sos = design_lowpass_sos(fs, config)
    return _iir.sosfiltfilt(sos, icg)


def highpass(icg, fs: float, config: Optional[IcgFilterConfig] = None,
             sos: Optional[np.ndarray] = None) -> np.ndarray:
    """Zero-phase high-pass at the ICG band's 0.8 Hz lower edge
    (``sos`` as in :func:`lowpass`)."""
    config = config or IcgFilterConfig()
    if config.highpass_hz is None:
        return np.asarray(icg, dtype=float).copy()
    if sos is None:
        sos = design_highpass_sos(fs, config)
    return _iir.sosfiltfilt(sos, icg)


def condition_icg(icg, fs: float,
                  config: Optional[IcgFilterConfig] = None,
                  lowpass_sos: Optional[np.ndarray] = None,
                  highpass_sos: Optional[np.ndarray] = None) -> np.ndarray:
    """Full ICG conditioning: 20 Hz low-pass plus 0.8 Hz high-pass."""
    config = config or IcgFilterConfig()
    return highpass(lowpass(icg, fs, config, sos=lowpass_sos), fs,
                    config, sos=highpass_sos)


def condition_icg_wavelet(icg, fs: float, cutoff_low_hz: float = 0.8,
                          wavelet: str = "db4",
                          threshold_scale: float = 1.0) -> np.ndarray:
    """Wavelet alternative to the filter chain (related-work methods).

    VisuShrink denoising handles broadband/motion noise (replacing the
    20 Hz low-pass) and approximation-band suppression removes the
    respiratory baseline (replacing the 0.8 Hz high-pass) — the
    approach of the paper's references [15]-[17], provided for the
    conditioning ablation bench.
    """
    from repro.dsp import wavelet as _wavelet

    denoised = _wavelet.denoise(icg, wavelet,
                                threshold_scale=threshold_scale)
    return _wavelet.suppress_low_frequency(denoised, fs, cutoff_low_hz,
                                           wavelet)


def icg_from_impedance(z, fs: float,
                       config: Optional[IcgFilterConfig] = None,
                       method: str = "filter",
                       lowpass_sos: Optional[np.ndarray] = None,
                       highpass_sos: Optional[np.ndarray] = None,
                       ) -> np.ndarray:
    """Compute the conditioned ICG from a measured impedance trace.

    ``ICG = -dZ/dt`` (central difference), then the conditioning chain:
    ``method="filter"`` (the paper's zero-phase filters, default) or
    ``method="wavelet"`` (the related-work alternative).
    Differentiation amplifies high-frequency noise, which is precisely
    why the conditioning follows immediately.  Pre-designed sections
    (``lowpass_sos``/``highpass_sos``, filter method only) skip the
    Butterworth designs as in :func:`lowpass`.
    """
    if method not in ("filter", "wavelet"):
        raise ConfigurationError(
            f"method must be 'filter' or 'wavelet', got {method!r}")
    dz = _derivative.central_difference(z, fs, order=1)
    if method == "wavelet":
        config = config or IcgFilterConfig()
        return condition_icg_wavelet(
            -dz, fs, cutoff_low_hz=config.highpass_hz or 0.8)
    return condition_icg(-dz, fs, config, lowpass_sos=lowpass_sos,
                         highpass_sos=highpass_sos)


def icg_from_impedance_batch(z_rows, fs: float, lengths=None,
                             config: Optional[IcgFilterConfig] = None,
                             lowpass_sos: Optional[np.ndarray] = None,
                             highpass_sos: Optional[np.ndarray] = None,
                             ) -> np.ndarray:
    """Row-batched :func:`icg_from_impedance` (filter method only).

    ``z_rows`` is a ``(n_recordings, width)`` matrix of zero-stacked
    same-rate impedance traces, row ``i`` valid up to ``lengths[i]``.
    The central difference runs as one ``np.gradient`` over the
    leading axis — identical elementwise expressions per row — with
    each row's last valid column patched to its own one-sided stencil
    ``(z[L-1] - z[L-2]) / dx`` (the value ``np.gradient`` produces at
    a row's true end; a bitwise no-op for full-width rows).  The
    conditioning chain then runs through
    :func:`repro.dsp.iir.sosfiltfilt_batch`, bit-identical per row.
    Rows shorter than the zero-phase pad raise
    :class:`~repro.errors.SignalError`; the cohort planner routes
    those per-recording.  Columns beyond a row's length are
    unspecified.
    """
    from repro.dsp._signal import check_lengths as _check_lengths

    config = config or IcgFilterConfig()
    if config.cutoff_hz >= fs / 2.0:
        raise ConfigurationError(
            f"cut-off {config.cutoff_hz} Hz does not fit below fs/2 "
            f"= {fs / 2.0} Hz")
    z = np.asarray(z_rows, dtype=float)
    lengths = _check_lengths(z, lengths)
    if lengths.size and int(lengths.min()) < 3:
        raise SignalError(
            "batched ICG derivative needs >= 3 samples per row")
    dx = 1.0 / fs
    dz = np.gradient(z, dx, axis=1)
    rows = np.arange(z.shape[0])
    last = lengths - 1
    dz[rows, last] = (z[rows, last] - z[rows, last - 1]) / dx
    icg = -dz
    if lowpass_sos is None:
        lowpass_sos = design_lowpass_sos(fs, config)
    icg = _iir.sosfiltfilt_batch(lowpass_sos, icg, lengths=lengths)
    if config.highpass_hz is None:
        return icg
    if highpass_sos is None:
        highpass_sos = design_highpass_sos(fs, config)
    return _iir.sosfiltfilt_batch(highpass_sos, icg, lengths=lengths)

"""Memoized filter designs, keyed by ``(fs, config)``.

Every run of the Fig 3 chain needs the same small set of designs: the
ECG band-pass FIR taps, the ICG low-/high-pass Butterworth sections and
the Pan-Tompkins band-pass plus moving-window-integration kernel.
Designing them is pure — a deterministic function of the sampling rate
and a frozen config — yet the monolithic pipeline used to redo the
work for every recording.  Cohort workloads (five subjects, three
positions, four frequencies) paid the full design cost dozens of times
over.

:class:`FilterDesignCache` memoizes each design under a
``(kind, fs, config)`` key.  Config dataclasses are frozen, hence
hashable, so the key is exact: any parameter change produces a fresh
design, identical parameters share one.  Cached arrays are marked
read-only before they are handed out, so a stage can never corrupt a
design another pipeline is using concurrently.  All operations are
thread-safe, so pipelines on different threads may share one cache.

A process-wide default instance is shared by every pipeline that does
not bring its own (:func:`default_design_cache`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dsp import iir as _iir
from repro.dsp.kernels import KernelCache, default_kernel_cache
from repro.ecg.pan_tompkins import (
    PanTompkinsConfig,
    design_mwi_kernel,
    design_qrs_bandpass_sos,
)
from repro.ecg.preprocessing import EcgFilterConfig, design_ecg_fir
from repro.icg.preprocessing import (
    IcgFilterConfig,
    design_highpass_sos,
    design_lowpass_sos,
)

__all__ = ["FilterDesignCache", "default_design_cache",
           "cache_statistics"]


class FilterDesignCache(KernelCache):
    """Thread-safe memo table for filter designs.

    The generic memoization core — lock, hit/miss counters,
    build-outside-the-lock :meth:`get` with the unhashable-key
    fallback, read-only values — is inherited from the DSP layer's
    :class:`~repro.dsp.kernels.KernelCache`; this class adds the typed
    design entry points (:meth:`ecg_fir_taps`,
    :meth:`icg_lowpass_sos`, ...) pipeline code calls.  :meth:`get`
    remains the escape hatch for future stages with their own designs.
    """

    # -- typed entry points (the Fig 3 designs) -----------------------------

    def ecg_fir_taps(self, fs: float,
                     config: EcgFilterConfig) -> np.ndarray:
        """Taps of the paper's 0.05-40 Hz zero-phase ECG FIR."""
        return self.get(("ecg_fir", float(fs), config),
                        lambda: design_ecg_fir(fs, config))

    def icg_lowpass_sos(self, fs: float,
                        config: IcgFilterConfig) -> np.ndarray:
        """SOS of the ICG 20 Hz low-pass Butterworth."""
        return self.get(("icg_lp", float(fs), config),
                        lambda: design_lowpass_sos(fs, config))

    def icg_highpass_sos(self, fs: float, config: IcgFilterConfig,
                         ) -> Optional[np.ndarray]:
        """SOS of the ICG 0.8 Hz high-pass; ``None`` when disabled."""
        if config.highpass_hz is None:
            return None
        return self.get(("icg_hp", float(fs), config),
                        lambda: design_highpass_sos(fs, config))

    def pan_tompkins_sos(self, fs: float,
                         config: PanTompkinsConfig) -> np.ndarray:
        """SOS of the Pan-Tompkins ~5-15 Hz QRS band-pass."""
        return self.get(("pt_bp", float(fs), config),
                        lambda: design_qrs_bandpass_sos(fs, config))

    def mwi_kernel(self, fs: float,
                   config: PanTompkinsConfig) -> np.ndarray:
        """Moving-window-integration kernel (150 ms boxcar)."""
        return self.get(("pt_mwi", float(fs), config),
                        lambda: design_mwi_kernel(fs, config))

    def respiration_lowpass_sos(self, fs: float,
                                cutoff_hz: float,
                                order: int = 4) -> np.ndarray:
        """SOS of the respiration-rate cardiac-rejection low-pass.

        The monitoring/HRV analysis path designs this once per
        ``(fs, cutoff)`` instead of once per trend sample."""
        return self.get(("resp_lp", float(fs), float(cutoff_hz),
                         int(order)),
                        lambda: _iir.butter_lowpass(order, cutoff_hz,
                                                    fs))


_DEFAULT_CACHE = FilterDesignCache()


def default_design_cache() -> FilterDesignCache:
    """The process-wide shared cache used when a pipeline is built
    without an explicit one."""
    return _DEFAULT_CACHE


def cache_statistics() -> dict:
    """Hit/miss counters of both process-wide caches.

    ``designs`` is the filter-design cache above; ``kernels`` is the
    DSP-layer application-kernel cache (blocked SOS scan matrices,
    Savitzky-Golay projections, anti-alias taps — see
    :mod:`repro.dsp.kernels`).  This is the capacity-planning view the
    ``repro cache-stats`` subcommand renders.
    """
    return {"designs": default_design_cache().stats(),
            "kernels": default_kernel_cache().stats()}

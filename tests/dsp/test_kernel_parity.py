"""Vectorized-kernel parity: blocked-scan SOS vs the scalar oracle,
FFT vs direct convolution, and the kernel cache contract.

The vectorized DSP layer must be a pure performance change: every
sample it produces has to match the scalar reference implementation
within 1e-9 relative tolerance, across random filter cascades, signal
lengths straddling the block boundaries, ``zi`` round-trips and the
FFT/direct crossover.
"""

import numpy as np
import pytest

from repro.dsp import fir as _fir
from repro.dsp import iir as _iir
from repro.dsp.kernels import (
    DEFAULT_BLOCK,
    KernelCache,
    default_kernel_cache,
    pole_block_kernel,
    savgol_kernel,
)
from repro.errors import ConfigurationError
from tests.oracles import _sosfilt_ref, scalar_sosfilt

RTOL = 1e-9


def assert_parity(got: np.ndarray, want: np.ndarray) -> None:
    """Max absolute deviation within 1e-9 of the reference's scale."""
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= RTOL * scale


def random_stable_sos(rng, n_sections: int) -> np.ndarray:
    """Random SOS cascade with every pole strictly inside the unit
    circle (radius <= 0.97, so reference rounding stays benign)."""
    sections = []
    for _ in range(n_sections):
        radius = rng.uniform(0.1, 0.97)
        angle = rng.uniform(0.0, np.pi)
        a1 = -2.0 * radius * np.cos(angle)
        a2 = radius * radius
        b0, b1, b2 = rng.standard_normal(3)
        sections.append([b0, b1, b2, 1.0, a1, a2])
    return np.asarray(sections)


# --- blocked-scan sosfilt vs the scalar oracle ---------------------------

@pytest.mark.parametrize("n_sections", [1, 2, 3, 4])
@pytest.mark.parametrize("n_samples", [
    1, 2, 3, DEFAULT_BLOCK - 1, DEFAULT_BLOCK, DEFAULT_BLOCK + 1,
    2 * DEFAULT_BLOCK + 7, 1000,
])
def test_sosfilt_matches_reference_random_cascades(n_sections, n_samples):
    rng = np.random.default_rng(1000 * n_sections + n_samples)
    for trial in range(3):
        sos = random_stable_sos(rng, n_sections)
        x = rng.standard_normal(n_samples)
        assert_parity(_iir._sosfilt_vec(sos, x),
                      _sosfilt_ref(sos, x))


@pytest.mark.parametrize("n_samples", [1, 2, 5, 64, 65, 300])
def test_sosfilt_zi_round_trip_matches_reference(n_samples):
    rng = np.random.default_rng(n_samples)
    sos = random_stable_sos(rng, 3)
    x = rng.standard_normal(n_samples)
    zi = rng.standard_normal((3, 2))
    y_ref, zf_ref = _sosfilt_ref(sos, x, zi=zi.copy())
    y_vec, zf_vec = _iir._sosfilt_vec(sos, x, zi=zi.copy())
    assert_parity(y_vec, y_ref)
    assert_parity(zf_vec, zf_ref)


def test_sosfilt_chunked_equals_one_shot():
    """Filtering in chunks through zf hand-off equals one pass — the
    streaming contract the state computation must preserve."""
    rng = np.random.default_rng(7)
    sos = random_stable_sos(rng, 2)
    x = rng.standard_normal(500)
    whole = _iir.sosfilt(sos, x)
    state = np.zeros((2, 2))
    pieces = []
    for chunk in np.array_split(x, [3, 64, 131, 400]):
        y, state = _iir.sosfilt(sos, chunk, zi=state)
        pieces.append(y)
    assert_parity(np.concatenate(pieces), whole)


@pytest.mark.parametrize("design", [
    lambda: _iir.butter_lowpass(4, 20.0, 250.0),
    lambda: _iir.butter_highpass(2, 0.8, 250.0),
    lambda: _iir.butter_bandpass(2, 5.0, 15.0, 250.0),
    lambda: _iir.butter_bandstop(2, 45.0, 55.0, 250.0),
])
def test_sosfiltfilt_backend_parity_on_paper_designs(design):
    rng = np.random.default_rng(42)
    x = rng.standard_normal(3000)
    sos = design()
    vectorized = _iir.sosfiltfilt(sos, x)
    with scalar_sosfilt():
        reference = _iir.sosfiltfilt(sos, x)
    assert_parity(vectorized, reference)


def test_scalar_sosfilt_patches_and_restores_the_module_attribute():
    """The oracle switch the parity tests rely on: it swaps the module
    attribute every caller resolves, and puts it back even on error."""
    vectorized = _iir.sosfilt
    with scalar_sosfilt():
        assert _iir.sosfilt is _sosfilt_ref
    assert _iir.sosfilt is vectorized
    with pytest.raises(RuntimeError):
        with scalar_sosfilt():
            raise RuntimeError("boom")
    assert _iir.sosfilt is vectorized


# --- FFT vs direct FIR application ---------------------------------------

@pytest.mark.parametrize("n_taps", [
    3, 33, _fir.FFT_CROSSOVER_TAPS - 1, _fir.FFT_CROSSOVER_TAPS,
    _fir.FFT_CROSSOVER_TAPS + 1, 513,
])
@pytest.mark.parametrize("n_samples", [700, 4096, 5000])
def test_apply_fir_fft_matches_direct(n_taps, n_samples):
    rng = np.random.default_rng(n_taps * 7 + n_samples)
    taps = rng.standard_normal(n_taps)
    x = rng.standard_normal(n_samples)
    assert_parity(_fir.apply_fir(taps, x, method="fft"),
                  _fir.apply_fir(taps, x, method="direct"))
    # Whatever auto picks, it must agree too.
    assert_parity(_fir.apply_fir(taps, x),
                  _fir.apply_fir(taps, x, method="direct"))


def test_filtfilt_fir_fft_matches_direct():
    rng = np.random.default_rng(3)
    taps = _fir.design_lowpass(320, 30.0, 1000.0)
    x = rng.standard_normal(6000)
    assert_parity(_fir.filtfilt_fir(taps, x, method="fft"),
                  _fir.filtfilt_fir(taps, x, method="direct"))


def test_apply_fir_auto_crossover_boundary():
    """Auto switches to FFT exactly at :data:`FFT_CROSSOVER_TAPS`, and
    never for signals shorter than the kernel."""
    rng = np.random.default_rng(5)
    long_x = rng.standard_normal(4 * _fir.FFT_CROSSOVER_TAPS)
    below = rng.standard_normal(_fir.FFT_CROSSOVER_TAPS - 1)
    at = rng.standard_normal(_fir.FFT_CROSSOVER_TAPS)
    assert _fir._resolve_method("auto", below, long_x) == "direct"
    assert _fir._resolve_method("auto", at, long_x) == "fft"
    short_x = rng.standard_normal(_fir.FFT_CROSSOVER_TAPS // 2)
    assert _fir._resolve_method("auto", at, short_x) == "direct"
    with pytest.raises(ConfigurationError):
        _fir.apply_fir(at, long_x, method="overlap-save")


# --- kernel cache contract ----------------------------------------------

def test_pole_block_kernel_cached_and_frozen():
    H1, G1 = pole_block_kernel(-1.5, 0.6, block=32)
    H2, G2 = pole_block_kernel(-1.5, 0.6, block=32)
    assert H1 is H2 and G1 is G2
    assert not H1.flags.writeable and not G1.flags.writeable
    assert H1.shape == (32, 32) and G1.shape == (32, 2)


def test_pole_block_kernel_solves_recurrence():
    """H/G reproduce the scalar recurrence from arbitrary state."""
    rng = np.random.default_rng(11)
    a1, a2 = -1.2, 0.5
    block = 16
    H, G = pole_block_kernel(a1, a2, block=block)
    f = rng.standard_normal(block)
    y_prev1, y_prev2 = rng.standard_normal(2)
    expected = np.empty(block)
    p1, p2 = y_prev1, y_prev2
    for n in range(block):
        expected[n] = f[n] - a1 * p1 - a2 * p2
        p1, p2 = expected[n], p1
    got = H @ f + G @ np.array([y_prev1, y_prev2])
    assert_parity(got, expected)


def test_savgol_kernel_shared_between_calls():
    cache = default_kernel_cache()
    first = savgol_kernel(9, 3)
    hits_before = cache.hits
    second = savgol_kernel(9, 3)
    assert first is second
    assert cache.hits == hits_before + 1
    assert not first.flags.writeable


def test_kernel_cache_unhashable_key_falls_back_to_building():
    cache = KernelCache()
    value = cache.get(["not", "hashable"], lambda: np.arange(3.0))
    assert value.tolist() == [0.0, 1.0, 2.0]
    assert len(cache) == 0 and cache.misses == 0


def test_kernel_cache_stats_and_clear():
    cache = KernelCache()
    cache.get("a", lambda: np.ones(2))
    cache.get("a", lambda: np.ones(2))
    assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}
    cache.clear()
    assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}

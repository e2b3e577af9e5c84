"""Leading-axis (row-batched) kernel parity and the shared ragged
stacking helpers.

The cohort tier stands on one claim: running the hot chain over a
``(n_rows, n_samples)`` matrix produces **bit-identical** outputs to
the per-signal calls, row by row, including ragged rows whose zero
tail padding must never leak back into valid samples.  Every batched
kernel is pinned here against its per-row oracle with
``np.array_equal`` — exact equality, not tolerance — across ragged
lengths, FIR method choices and the Pan-Tompkins front half.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp import fir as _fir
from repro.dsp import iir as _iir
from repro.dsp import morphology as _morph
from repro.dsp._signal import (
    check_lengths,
    odd_reflect_pad,
    odd_reflect_pad_rows,
    padded_row_view,
    stack_ragged,
)
from repro.ecg.pan_tompkins import PanTompkinsDetector
from repro.ecg.preprocessing import (
    EcgFilterConfig,
    design_ecg_fir,
    preprocess_ecg,
    preprocess_ecg_batch,
)
from repro.errors import SignalError
from repro.icg.preprocessing import (
    IcgFilterConfig,
    icg_from_impedance,
    icg_from_impedance_batch,
)

FS = 250.0

#: Ragged lengths long enough for every kernel under test (the
#: Pan-Tompkins learning phase needs 2 s = 500 samples at 250 Hz).
RAGGED = [2500, 2100, 3000, 2047, 2500]


def ragged_rows(lengths, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) for n in lengths]


def assert_rows_equal(name, batch, signals, per_row_fn):
    """Each batched row must equal the per-signal call bit-for-bit."""
    for i, s in enumerate(signals):
        want = per_row_fn(s)
        got = batch[i, : s.size] if batch.ndim == 2 else batch[i]
        assert np.array_equal(want, np.asarray(got)), (
            f"{name}: row {i} diverges from the per-signal oracle")


# --- stacking helpers ----------------------------------------------------

def test_stack_ragged_left_aligns_and_zero_pads():
    signals = [np.array([1.0, 2.0, 3.0]), np.array([4.0])]
    matrix, lengths = stack_ragged(signals)
    assert matrix.shape == (2, 3)
    assert lengths.tolist() == [3, 1]
    assert matrix[0].tolist() == [1.0, 2.0, 3.0]
    assert matrix[1].tolist() == [4.0, 0.0, 0.0]


def test_stack_ragged_explicit_width_and_validation():
    matrix, _ = stack_ragged([np.ones(2)], width=5)
    assert matrix.shape == (1, 5)
    with pytest.raises(SignalError):
        stack_ragged([np.ones(4)], width=3)
    with pytest.raises(SignalError):
        stack_ragged([])
    with pytest.raises(SignalError):
        stack_ragged([np.ones((2, 2))])


def test_check_lengths_defaults_and_bounds():
    x = np.zeros((3, 10))
    assert check_lengths(x, None).tolist() == [10, 10, 10]
    assert check_lengths(x, [4, 10, 1]).tolist() == [4, 10, 1]
    with pytest.raises(SignalError):
        check_lengths(x, [4, 10])            # wrong shape
    with pytest.raises(SignalError):
        check_lengths(x, [0, 1, 1])          # below 1
    with pytest.raises(SignalError):
        check_lengths(x, [4, 11, 1])         # beyond width
    with pytest.raises(SignalError):
        check_lengths(np.zeros(10), None)    # not a matrix


@pytest.mark.parametrize("pad", [1, 3, 15])
def test_odd_reflect_pad_rows_matches_scalar(pad):
    signals = ragged_rows([60, 40, 25], seed=3)
    x, lengths = stack_ragged(signals)
    padded = odd_reflect_pad_rows(x, lengths, pad)
    assert padded.shape == (3, x.shape[1] + 2 * pad)
    for i, s in enumerate(signals):
        want = odd_reflect_pad(s, pad)
        assert np.array_equal(padded[i, : want.size], want)
        # Beyond each row's padded extent: zeros, never stale copies.
        assert not padded[i, want.size:].any()


def test_odd_reflect_pad_rows_rejects_short_rows():
    x, lengths = stack_ragged([np.ones(10), np.ones(3)])
    with pytest.raises(SignalError):
        odd_reflect_pad_rows(x, lengths, 5)


def test_padded_row_view_gathers_and_zero_extends():
    signal = np.arange(10.0)
    view = padded_row_view(signal, [0, 4, 8], 4)
    assert view.shape == (3, 4)
    assert view[0].tolist() == [0.0, 1.0, 2.0, 3.0]
    assert view[1].tolist() == [4.0, 5.0, 6.0, 7.0]
    assert view[2].tolist() == [8.0, 9.0, 0.0, 0.0]  # off-the-end zeros


# --- IIR batch kernels ---------------------------------------------------

def test_sosfilt_batch_bitwise_parity_ragged():
    signals = ragged_rows(RAGGED)
    x, lengths = stack_ragged(signals)
    sos = _iir.butter_bandpass(2, 5.0, 15.0, FS)
    y = _iir.sosfilt_batch(sos, x, lengths=lengths)
    assert_rows_equal("sosfilt_batch", y, signals,
                      lambda s: _iir.sosfilt(sos, s))


def test_sosfilt_batch_zi_and_closing_state_parity():
    signals = ragged_rows(RAGGED, seed=11)
    x, lengths = stack_ragged(signals)
    sos = _iir.butter_bandpass(2, 5.0, 15.0, FS)
    zi = _iir.sosfilt_zi(sos)
    y, zf = _iir.sosfilt_batch(sos, x, zi=zi, lengths=lengths)
    for i, s in enumerate(signals):
        want_y, want_zf = _iir.sosfilt(sos, s, zi=zi.copy())
        assert np.array_equal(y[i, : s.size], want_y)
        assert np.array_equal(zf[i], want_zf)


@pytest.mark.parametrize("design", [
    lambda: _iir.butter_lowpass(4, 20.0, FS),
    lambda: _iir.butter_highpass(2, 0.8, FS),
])
def test_sosfiltfilt_batch_bitwise_parity_ragged(design):
    signals = ragged_rows(RAGGED, seed=5)
    x, lengths = stack_ragged(signals)
    sos = design()
    y = _iir.sosfiltfilt_batch(sos, x, lengths=lengths)
    assert_rows_equal("sosfiltfilt_batch", y, signals,
                      lambda s: _iir.sosfiltfilt(sos, s))


def test_sosfiltfilt_batch_rejects_rows_shorter_than_pad():
    sos = _iir.butter_lowpass(4, 20.0, FS)
    x, lengths = stack_ragged([np.ones(100), np.ones(10)])
    with pytest.raises(SignalError):
        _iir.sosfiltfilt_batch(sos, x, lengths=lengths)


# --- FIR batch kernels ---------------------------------------------------

@pytest.mark.parametrize("method", ["auto", "direct", "fft"])
@pytest.mark.parametrize("n_taps", [33, 38])
def test_apply_fir_batch_bitwise_parity_ragged(method, n_taps):
    signals = ragged_rows(RAGGED, seed=n_taps)
    x, lengths = stack_ragged(signals)
    taps = (design_ecg_fir(FS) if n_taps == 33
            else np.ones(n_taps) / n_taps)
    y = _fir.apply_fir_batch(taps, x, lengths=lengths, method=method)
    assert_rows_equal(f"apply_fir_batch[{method}]", y, signals,
                      lambda s: _fir.apply_fir(taps, s, method=method))


def test_apply_fir_batch_ignores_tail_garbage():
    """Padding columns beyond each row's length must not influence the
    valid outputs — the contract that lets upstream kernels leave
    unspecified tails."""
    signals = ragged_rows([400, 250, 333], seed=2)
    taps = design_ecg_fir(FS)
    x, lengths = stack_ragged(signals)
    dirty = x.copy()
    for i, n in enumerate(lengths):
        dirty[i, n:] = 1e300                     # poison the tails
    clean = _fir.apply_fir_batch(taps, x, lengths=lengths)
    poisoned = _fir.apply_fir_batch(taps, dirty, lengths=lengths)
    for i, n in enumerate(lengths):
        assert np.array_equal(clean[i, :n], poisoned[i, :n])


def test_filtfilt_fir_batch_bitwise_parity_ragged():
    signals = ragged_rows(RAGGED, seed=13)
    x, lengths = stack_ragged(signals)
    taps = design_ecg_fir(FS)
    y = _fir.filtfilt_fir_batch(taps, x, lengths=lengths)
    assert_rows_equal("filtfilt_fir_batch", y, signals,
                      lambda s: _fir.filtfilt_fir(taps, s))


# --- morphology / ECG / ICG chains ---------------------------------------

def test_remove_baseline_batch_bitwise_parity_ragged():
    signals = ragged_rows(RAGGED, seed=17)
    x, lengths = stack_ragged(signals)
    y = _morph.remove_baseline_batch(x, FS, lengths=lengths)
    assert_rows_equal("remove_baseline_batch", y, signals,
                      lambda s: _morph.remove_baseline(s, FS))


def test_preprocess_ecg_batch_bitwise_parity_ragged():
    signals = ragged_rows(RAGGED, seed=19)
    x, lengths = stack_ragged(signals)
    config = EcgFilterConfig()
    y = preprocess_ecg_batch(x, FS, lengths=lengths, config=config)
    assert_rows_equal("preprocess_ecg_batch", y, signals,
                      lambda s: preprocess_ecg(s, FS, config))


def synth_ecg(n, seed, fs=FS):
    """Noisy baseline-wandering trace with unambiguous QRS spikes."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs
    x = 0.1 * rng.standard_normal(n) + 0.2 * np.sin(2 * np.pi * 0.3 * t)
    for beat in np.arange(0.4, n / fs - 0.4, 0.8):
        k = int(beat * fs)
        x[k - 2: k + 3] += [0.2, 0.6, 1.4, 0.6, 0.2][: min(5, n - k + 2)]
    return x


def test_detect_batch_bitwise_parity_ragged():
    signals = [synth_ecg(n, 100 + i) for i, n in enumerate(RAGGED)]
    x, lengths = stack_ragged(signals)
    detector = PanTompkinsDetector(FS)
    batched = detector.detect_batch(x, lengths=lengths)
    for i, s in enumerate(signals):
        assert np.array_equal(detector.detect(s), batched[i])


def test_detect_batch_rejects_short_rows():
    x, lengths = stack_ragged([np.zeros(600), np.zeros(300)])
    with pytest.raises(SignalError):
        PanTompkinsDetector(FS).detect_batch(x, lengths=lengths)


@pytest.mark.parametrize("config", [
    IcgFilterConfig(),
    IcgFilterConfig(highpass_hz=None),
])
def test_icg_from_impedance_batch_bitwise_parity_ragged(config):
    rng = np.random.default_rng(23)
    signals = [np.cumsum(rng.standard_normal(n)) * 0.01 + 25.0
               for n in RAGGED]
    x, lengths = stack_ragged(signals)
    y = icg_from_impedance_batch(x, FS, lengths=lengths, config=config)
    assert_rows_equal("icg_from_impedance_batch", y, signals,
                      lambda s: icg_from_impedance(s, FS, config))


# --- property-based ragged sweeps ----------------------------------------

@settings(max_examples=15, deadline=None)
@given(lengths=st.lists(st.integers(min_value=120, max_value=700),
                        min_size=1, max_size=5),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_hypothesis_fir_and_iir_parity(lengths, seed):
    """Random ragged stacks: the core linear kernels stay bit-exact."""
    signals = ragged_rows(lengths, seed=seed)
    x, row_lengths = stack_ragged(signals)
    taps = design_ecg_fir(FS)
    y_fir = _fir.apply_fir_batch(taps, x, lengths=row_lengths)
    assert_rows_equal("hyp fir", y_fir, signals,
                      lambda s: _fir.apply_fir(taps, s))
    sos = _iir.butter_lowpass(4, 20.0, FS)
    y_iir = _iir.sosfilt_batch(sos, x, lengths=row_lengths)
    assert_rows_equal("hyp iir", y_iir, signals,
                      lambda s: _iir.sosfilt(sos, s))
    y_ff = _iir.sosfiltfilt_batch(sos, x, lengths=row_lengths)
    assert_rows_equal("hyp filtfilt", y_ff, signals,
                      lambda s: _iir.sosfiltfilt(sos, s))


@settings(max_examples=10, deadline=None)
@given(lengths=st.lists(st.integers(min_value=520, max_value=1400),
                        min_size=1, max_size=4),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_hypothesis_full_chain_parity(lengths, seed):
    """Random ragged stacks through the full batched front half."""
    ecgs = [synth_ecg(n, seed + i) for i, n in enumerate(lengths)]
    x, row_lengths = stack_ragged(ecgs)
    filtered = preprocess_ecg_batch(x, FS, lengths=row_lengths)
    assert_rows_equal("hyp ecg", filtered, ecgs,
                      lambda s: preprocess_ecg(s, FS))
    detector = PanTompkinsDetector(FS)
    batched = detector.detect_batch(x, lengths=row_lengths)
    for i, s in enumerate(ecgs):
        assert np.array_equal(detector.detect(s), batched[i])

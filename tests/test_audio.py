"""Audio frontend against independent DSP oracles: closed-form resampling
error, FIR frequency response, energy VAD properties, a from-first-principles
MFCC recomputation, and the binary feature-file format."""

import re
import struct

import numpy as np
import pytest

from distillfuse import audio
from distillfuse.audio import (
    FEATURE_MAGIC,
    MfccConfig,
    VadConfig,
    WaveForm,
    design_lowpass_fir,
    fix_length,
    hz_to_mel,
    load_features,
    lowpass_filter,
    mel_filterbank,
    mel_to_hz,
    mfcc_extract,
    read_wav,
    resample,
    save_features,
    vad_segments,
    write_wav,
)
from helpers import vad_segments_reference


def _sine(freq, rate, seconds, amp=0.5):
    t = np.arange(int(rate * seconds)) / rate
    return WaveForm(amp * np.sin(2 * np.pi * freq * t), rate)


# ------------------------------------------------------------- waveform


def test_waveform_validation():
    with pytest.raises(ValueError):
        WaveForm(np.zeros((2, 2)), 8000)
    with pytest.raises(ValueError):
        WaveForm(np.zeros(0), 8000)
    with pytest.raises(ValueError):
        WaveForm(np.zeros(4), 0)


def test_waveform_duration():
    w = WaveForm(np.zeros(8000), 16000)
    assert w.duration == pytest.approx(0.5)


# ------------------------------------------------------------- resample


def test_resample_identity_returns_copy():
    w = _sine(100, 8000, 0.1)
    out = resample(w, 8000)
    np.testing.assert_array_equal(out.samples, w.samples)
    assert out.samples is not w.samples


def test_resample_sine_against_closed_form():
    # linear interpolation of a slow sine stays within its curvature bound
    for freq in (50.0, 100.0, 200.0):
        w = _sine(freq, 8000, 0.25, amp=1.0)
        up = resample(w, 16000)
        t = np.arange(up.samples.size) / 16000
        exact = np.sin(2 * np.pi * freq * t)
        # interior only: the last output samples extrapolate past the input end
        err = np.max(np.abs(up.samples[:-4] - exact[:-4]))
        assert err < 0.01, f"{freq} Hz: max interp error {err}"


def test_resample_output_length_and_rate():
    w = WaveForm(np.zeros(8000), 8000)
    up = resample(w, 16000)
    assert up.sample_rate == 16000
    assert up.samples.size == 16000
    down = resample(w, 4000)
    assert down.samples.size == 4000


def test_resample_rejects_bad_rate():
    with pytest.raises(ValueError):
        resample(_sine(100, 8000, 0.1), 0)


# ------------------------------------------------------------- FIR design


def _response_db(taps, freq, rate):
    n = np.arange(taps.size)
    h = np.sum(taps * np.exp(-2j * np.pi * freq * n / rate))
    return 20.0 * np.log10(abs(h))


def test_fir_unity_dc_gain_and_symmetry():
    taps = design_lowpass_fir(7000.0, 16000, 101)
    assert taps.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(taps, taps[::-1], atol=1e-15)


def test_fir_default_passes_1khz_and_kills_7500hz():
    taps = design_lowpass_fir(7000.0, 16000, 101)
    assert abs(_response_db(taps, 1000.0, 16000)) < 1.0
    assert _response_db(taps, 7500.0, 16000) <= -20.0


def test_fir_attenuation_in_time_domain():
    stop = lowpass_filter(_sine(7500, 16000, 0.2, amp=1.0), 7000.0, 101)
    band = lowpass_filter(_sine(1000, 16000, 0.2, amp=1.0), 7000.0, 101)
    # ignore convolution edges
    core = slice(200, -200)
    stop_rms = np.sqrt(np.mean(stop.samples[core] ** 2))
    band_rms = np.sqrt(np.mean(band.samples[core] ** 2))
    ref = np.sqrt(0.5)  # RMS of a unit sine
    assert 20 * np.log10(stop_rms / ref) <= -20.0
    assert abs(20 * np.log10(band_rms / ref)) < 1.0


def test_fir_response_monotone_regions():
    taps = design_lowpass_fir(7000.0, 16000, 101)
    passband = [_response_db(taps, f, 16000) for f in (100, 2000, 5000)]
    assert all(abs(db) < 1.0 for db in passband)


def test_fir_validation():
    with pytest.raises(ValueError):
        design_lowpass_fir(7000.0, 16000, 100)  # even
    with pytest.raises(ValueError):
        design_lowpass_fir(7000.0, 16000, 1)  # too short
    with pytest.raises(ValueError):
        design_lowpass_fir(8000.0, 16000, 101)  # at Nyquist
    with pytest.raises(ValueError):
        design_lowpass_fir(0.0, 16000, 101)


def test_lowpass_filter_preserves_length_and_rate():
    w = _sine(440, 16000, 0.1)
    out = lowpass_filter(w, 7000.0, 101)
    assert out.samples.size == w.samples.size
    assert out.sample_rate == 16000


# ------------------------------------------------------------- VAD


def test_vad_all_zero_input_has_no_segments():
    assert vad_segments(WaveForm(np.zeros(16000), 16000)) == []


def test_vad_finds_loud_middle():
    rate = 16000
    quiet = np.zeros(int(0.3 * rate))
    loud = 0.5 * np.sin(2 * np.pi * 300 * np.arange(int(0.4 * rate)) / rate)
    w = WaveForm(np.concatenate([quiet, loud, quiet]), rate)
    segs = vad_segments(w)
    assert len(segs) == 1
    start, end = segs[0]
    frame = int(0.025 * rate)
    assert abs(start - 0.3 * rate) <= frame
    assert abs(end - 0.7 * rate) <= frame


def test_vad_scale_invariant():
    rng = np.random.default_rng(30)
    rate = 8000
    x = np.concatenate([
        0.001 * rng.normal(size=rate // 2),
        0.4 * np.sin(2 * np.pi * 200 * np.arange(rate) / rate),
        0.001 * rng.normal(size=rate // 2),
    ])
    w1 = WaveForm(x, rate)
    w2 = WaveForm(x * 173.0, rate)
    assert vad_segments(w1) == vad_segments(w2)


def test_vad_segments_sorted_disjoint_in_range():
    rng = np.random.default_rng(31)
    rate = 8000
    x = rng.normal(size=3 * rate) * (rng.random(3 * rate) > 0.5)
    w = WaveForm(x, rate)
    segs = vad_segments(w)
    prev_end = 0
    for start, end in segs:
        assert 0 <= start < end <= x.size
        assert start >= prev_end
        prev_end = end


def test_vad_whole_clip_voiced():
    w = _sine(250, 8000, 0.5)
    segs = vad_segments(w)
    assert segs and segs[0][0] == 0 and segs[-1][1] == w.samples.size


# The 8 kHz default config frames 200 samples every 80.
@pytest.mark.parametrize("samples", [
    np.full(150, 0.3),                                    # n < frame
    np.full(200, 0.3),                                    # n == frame
    np.random.default_rng(32).normal(size=801),           # one past a hop boundary
    np.zeros(4000),                                       # all zero
    np.concatenate([np.zeros(2000), np.full(1234, 0.5)]),  # voiced to the last sample
    np.concatenate([np.full(500, 0.5), np.zeros(1500), np.full(700, 0.2)]),
], ids=["short", "one-frame", "hop-plus-one", "zeros", "voiced-tail", "two-runs"])
def test_vad_matches_frame_loop_reference_on_edge_cases(samples):
    w = WaveForm(samples, 8000)
    for cfg in (VadConfig(), VadConfig(frame_ms=10.0, hop_ms=10.0)):  # hop < frame, hop == frame
        assert vad_segments(w, cfg) == vad_segments_reference(w, cfg)


def test_vad_matches_frame_loop_reference_on_random_clips():
    rng = np.random.default_rng(33)
    for rate in (8000, 16000, 44100):
        for _ in range(100):
            n = int(rng.integers(1, rate // 2))
            gate = np.repeat(rng.random(-(-n // 256)) < 0.5, 256)[:n]
            x = rng.normal(size=n) * np.where(gate, 1.0, rng.uniform(0.0, 0.2))
            hop_ms = float(rng.uniform(1.0, 15.0))
            cfg = VadConfig(frame_ms=hop_ms * float(rng.uniform(1.0, 3.0)), hop_ms=hop_ms,
                            energy_threshold_ratio=float(rng.uniform(0.05, 0.9)))
            w = WaveForm(x, rate)
            assert vad_segments(w, cfg) == vad_segments_reference(w, cfg), (rate, n, cfg)


def test_vad_config_validation():
    with pytest.raises(ValueError):
        VadConfig(frame_ms=5.0, hop_ms=10.0, energy_threshold_ratio=0.1)
    with pytest.raises(ValueError):
        VadConfig(energy_threshold_ratio=0.0)
    with pytest.raises(ValueError):
        VadConfig(energy_threshold_ratio=1.0)


# ------------------------------------------------------------- mel scale


def test_mel_conversions_roundtrip_and_anchor():
    assert hz_to_mel(0.0) == 0.0
    assert hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0))
    freqs = np.linspace(0, 8000, 50)
    np.testing.assert_allclose(mel_to_hz(hz_to_mel(freqs)), freqs, atol=1e-9)


def test_filterbank_shape_and_triangle_support():
    cfg = MfccConfig()
    fb = mel_filterbank(cfg, 16000)
    assert fb.shape == (26, 257)
    assert np.all(fb >= 0.0)
    assert np.all(fb.sum(axis=1) > 0.0)  # every filter covers at least one bin


def test_filterbank_fmax_beyond_nyquist_rejected():
    for _ in range(2):  # a raise is never cached as a result
        with pytest.raises(ValueError):
            mel_filterbank(MfccConfig(fmax=9000.0), 16000)


def test_cached_filterbank_and_dct_are_read_only():
    cfg = MfccConfig()
    fb = mel_filterbank(cfg, 16000)
    assert mel_filterbank(MfccConfig(), 16000) is fb
    dct = audio._dct_ii_matrix(cfg.n_coeffs, cfg.n_mels)
    for shared in (fb, dct, audio._hamming(cfg.n_fft)):
        with pytest.raises(ValueError):
            shared[0, ...] = 1.0


# ------------------------------------------------------------- MFCC oracle


def _mfcc_brute_force(samples, rate, cfg):
    """From-first-principles recomputation: explicit DFT sums, triangle
    filters from the formula, and an explicit cosine-sum DCT."""
    n = samples.size
    n_frames = 1 + (n - cfg.n_fft) // cfg.hop
    window = np.hamming(cfg.n_fft)
    n_bins = cfg.n_fft // 2 + 1
    # naive DFT: X[k] = sum_t x[t] exp(-2 pi i k t / N)
    t_idx = np.arange(cfg.n_fft)
    dft = np.exp(-2j * np.pi * np.outer(np.arange(n_bins), t_idx) / cfg.n_fft)
    # triangles evaluated straight from the mel-point formula
    mels = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    hz = mel_to_hz(mels)
    bin_freqs = np.arange(n_bins) * rate / cfg.n_fft
    out = np.zeros((n_frames, cfg.n_coeffs))
    for fi in range(n_frames):
        x = samples[fi * cfg.hop : fi * cfg.hop + cfg.n_fft] * window
        mag = np.abs(dft @ x)
        mel_e = np.zeros(cfg.n_mels)
        for j in range(cfg.n_mels):
            w = np.minimum(
                (bin_freqs - hz[j]) / (hz[j + 1] - hz[j]),
                (hz[j + 2] - bin_freqs) / (hz[j + 2] - hz[j + 1]),
            )
            mel_e[j] = np.sum(np.maximum(0.0, w) * mag)
        log_e = np.log(np.maximum(mel_e, cfg.log_floor))
        for i in range(cfg.n_coeffs):
            scale = np.sqrt((1.0 if i == 0 else 2.0) / cfg.n_mels)
            basis = np.cos(np.pi * i * (2 * np.arange(cfg.n_mels) + 1) / (2 * cfg.n_mels))
            out[fi, i] = scale * np.sum(basis * log_e)
    return out


def test_mfcc_matches_brute_force_on_random_clips():
    rng = np.random.default_rng(32)
    cfg = MfccConfig()
    for _ in range(10):
        samples = rng.normal(scale=0.2, size=int(rng.integers(1600, 4000)))
        got = mfcc_extract(WaveForm(samples, 16000), cfg)
        want = _mfcc_brute_force(samples, 16000, cfg)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-6


def test_mfcc_frame_count_formula():
    cfg = MfccConfig()
    for n in (512, 513, 671, 672, 3200):
        w = WaveForm(np.ones(n) * 0.1, 16000)
        assert mfcc_extract(w, cfg).shape[0] == 1 + (n - cfg.n_fft) // cfg.hop


def test_mfcc_rejects_short_input():
    with pytest.raises(ValueError):
        mfcc_extract(WaveForm(np.ones(511), 16000), MfccConfig())


def test_mfcc_all_zero_input_hits_log_floor():
    cfg = MfccConfig()
    frames = mfcc_extract(WaveForm(np.zeros(1600), 16000), cfg)
    # every filter output is floored, so every frame is the DCT of a
    # constant log-floor vector: coefficient 0 carries it, the rest vanish
    expected0 = np.log(cfg.log_floor) * np.sqrt(cfg.n_mels)
    np.testing.assert_allclose(frames[:, 0], expected0, atol=1e-9)
    np.testing.assert_allclose(frames[:, 1:], 0.0, atol=1e-9)


def test_tone_lands_in_expected_mel_band():
    cfg = MfccConfig()
    rate = 16000
    w = _sine(440.0, rate, 0.2, amp=0.8)
    fb = mel_filterbank(cfg, rate)
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, cfg.n_fft)[:: cfg.hop]
    mag = np.abs(np.fft.rfft(frames * np.hamming(cfg.n_fft), axis=1))
    band_energy = (mag @ fb.T).mean(axis=0)
    got_band = int(np.argmax(band_energy))
    # expected: the triangle whose center frequency is nearest 440 Hz
    mels = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    centers = mel_to_hz(mels)[1:-1]
    want_band = int(np.argmin(np.abs(centers - 440.0)))
    assert abs(got_band - want_band) <= 1


def test_mfcc_config_validation():
    with pytest.raises(ValueError):
        MfccConfig(n_fft=0)
    with pytest.raises(ValueError):
        MfccConfig(n_coeffs=27)
    with pytest.raises(ValueError):
        MfccConfig(fmin=7000.0, fmax=7000.0)
    with pytest.raises(ValueError):
        MfccConfig(log_floor=0.0)


# ------------------------------------------------------------- length fixing


def test_fix_length_truncates_keeping_first_frames():
    frames = np.arange(40.0).reshape(10, 4)
    out = fix_length(frames, 6)
    np.testing.assert_array_equal(out, frames[:6])


def test_fix_length_pads_with_zeros_at_end():
    out = fix_length(np.ones((3, 4)), 5)
    assert out.shape == (5, 4)
    np.testing.assert_array_equal(out[:3], np.ones((3, 4)))
    np.testing.assert_array_equal(out[3:], np.zeros((2, 4)))


def test_fix_length_validation():
    with pytest.raises(ValueError):
        fix_length(np.ones((3, 4)), 0)


# ------------------------------------------------------------- WAV files


def test_wav_roundtrip_within_quantization(tmp_path):
    rng = np.random.default_rng(33)
    w = WaveForm(rng.uniform(-0.9, 0.9, size=4000), 16000)
    path = tmp_path / "clip.wav"
    write_wav(path, w)
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert np.max(np.abs(back.samples - w.samples)) <= 1.0 / 32768.0


def test_read_wav_rejects_stereo(tmp_path):
    import wave

    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as f:
        f.setnchannels(2)
        f.setsampwidth(2)
        f.setframerate(8000)
        f.writeframes(b"\x00\x00" * 64)
    with pytest.raises(ValueError):
        read_wav(path)


def test_read_wav_rejects_8bit(tmp_path):
    import wave

    path = tmp_path / "eight.wav"
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(1)
        f.setframerate(8000)
        f.writeframes(b"\x00" * 64)
    with pytest.raises(ValueError):
        read_wav(path)


# ------------------------------------------------------------- feature files


def test_feature_file_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(34)
    frames = rng.normal(size=(17, 13))
    path = tmp_path / "f.bin"
    save_features(path, frames)
    np.testing.assert_array_equal(load_features(path), frames)


@pytest.mark.parametrize("shape", [(13,), (2, 17, 13)], ids=["1-d", "3-d"])
def test_save_features_refuses_frames_not_2d(tmp_path, shape):
    path = tmp_path / "f.bin"
    with pytest.raises(ValueError, match="frames must be 2-d"):
        save_features(path, np.zeros(shape))
    assert list(tmp_path.iterdir()) == []


def test_feature_file_bad_magic(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_features(path)


def test_feature_file_bad_version(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(FEATURE_MAGIC + struct.pack("<III", 99, 1, 1) + b"\x00" * 8)
    with pytest.raises(ValueError, match="version"):
        load_features(path)


def test_feature_file_truncated_payload(tmp_path):
    # cut at every offset, header included: each cut names the file
    whole = tmp_path / "whole.bin"
    save_features(whole, np.random.default_rng(35).normal(size=(2, 13)))
    blob = whole.read_bytes()
    path = tmp_path / "f.bin"
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_features(path)

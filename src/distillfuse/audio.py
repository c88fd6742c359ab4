"""Audio front end: resampling, FIR low-pass, energy VAD, and MFCC features.

Everything operates on mono float64 sample vectors. The feature chain mirrors
a conventional speech front end: resample to a fixed rate, low-pass with a
windowed-sinc FIR, trim silence with a frame-energy gate, then extract MFCCs
(Hamming window, magnitude DFT, triangular mel filterbank, log, DCT-II).
"""

from __future__ import annotations

import functools
import struct
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .files import atomic_write

__all__ = [
    "MfccConfig",
    "VadConfig",
    "WaveForm",
    "design_lowpass_fir",
    "fix_length",
    "hz_to_mel",
    "load_features",
    "lowpass_filter",
    "mel_filterbank",
    "mel_to_hz",
    "mfcc_extract",
    "read_wav",
    "resample",
    "save_features",
    "vad_segments",
    "write_wav",
]

FEATURE_MAGIC = b"DFMF"
FEATURE_VERSION = 1


@dataclass
class WaveForm:
    """A mono clip: 1-D float64 samples at an integer sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError(f"samples must be a non-empty 1-d array, got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def resample(w: WaveForm, target_rate: int) -> WaveForm:
    """Linear-interpolation resample; duration preserved within one sample period."""
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if target_rate == w.sample_rate:
        return WaveForm(w.samples.copy(), w.sample_rate)
    n_out = int(round(w.samples.size * target_rate / w.sample_rate))
    n_out = max(n_out, 1)
    t_in = np.arange(w.samples.size) / w.sample_rate
    t_out = np.arange(n_out) / target_rate
    return WaveForm(np.interp(t_out, t_in, w.samples), target_rate)


def design_lowpass_fir(cutoff_hz: float, sample_rate: int, taps: int = 101) -> np.ndarray:
    """The ``taps`` coefficients of a Hamming-windowed sinc low-pass, normalized
    to unity gain at DC."""
    if taps < 3 or taps % 2 == 0:
        raise ValueError(f"taps must be an odd integer >= 3, got {taps}")
    nyquist = sample_rate / 2.0
    if not (0.0 < cutoff_hz < nyquist):
        raise ValueError(
            f"cutoff {cutoff_hz} Hz must lie in (0, {nyquist}) for rate {sample_rate}"
        )
    m = np.arange(taps) - (taps - 1) / 2.0
    fc = cutoff_hz / sample_rate
    h = 2.0 * fc * np.sinc(2.0 * fc * m)  # np.sinc(x) = sin(pi x) / (pi x)
    h *= np.hamming(taps)
    h /= h.sum()
    return h


def lowpass_filter(w: WaveForm, cutoff_hz: float, taps: int = 101) -> WaveForm:
    """Apply a freshly designed low-pass by direct 'same'-mode convolution."""
    h = design_lowpass_fir(cutoff_hz, w.sample_rate, taps)
    return WaveForm(np.convolve(w.samples, h, mode="same"), w.sample_rate)


@dataclass
class VadConfig:
    frame_ms: float = 25.0
    hop_ms: float = 10.0
    energy_threshold_ratio: float = 0.1

    def __post_init__(self):
        if not (self.frame_ms >= self.hop_ms > 0.0):
            raise ValueError(
                f"need frame_ms >= hop_ms > 0, got frame={self.frame_ms} hop={self.hop_ms}"
            )
        if not (0.0 < self.energy_threshold_ratio < 1.0):
            raise ValueError(
                f"energy_threshold_ratio must lie in (0, 1), got {self.energy_threshold_ratio}"
            )


def vad_segments(w: WaveForm, cfg: VadConfig | None = None) -> list[tuple[int, int]]:
    """Frame-energy voice activity: sample-index segments whose frame RMS
    exceeds ratio * max frame RMS. Scale-invariant; all-zero input yields [].

    Frames start every hop samples; the last few run past the clip's end and
    are measured over the samples that remain.
    """
    cfg = cfg or VadConfig()
    x = w.samples
    n = x.size
    frame = max(1, int(round(cfg.frame_ms * w.sample_rate / 1000.0)))
    hop = max(1, int(round(cfg.hop_ms * w.sample_rate / 1000.0)))
    n_frames = -(-n // hop)
    n_full = (n - frame) // hop + 1 if n >= frame else 0
    mean_sq = np.empty(n_frames)
    if n_full:
        windows = np.lib.stride_tricks.sliding_window_view(x * x, frame)[::hop]
        mean_sq[:n_full] = windows.mean(axis=1)
    for k in range(n_full, n_frames):
        seg = x[k * hop :]
        mean_sq[k] = np.mean(seg * seg)
    rms = np.sqrt(mean_sq)
    peak = rms.max()
    if peak == 0.0:
        return []
    voiced = rms > cfg.energy_threshold_ratio * peak
    edges = np.diff(voiced.astype(np.int8), prepend=0, append=0)
    first = np.flatnonzero(edges == 1)
    last = np.flatnonzero(edges == -1) - 1
    ends = np.minimum(last * hop + frame, n)
    return list(zip((first * hop).tolist(), ends.tolist()))


def hz_to_mel(f):
    """HTK mel scale: m = 2595 * log10(1 + f / 700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class MfccConfig:
    n_fft: int = 512
    hop: int = 160
    n_mels: int = 26
    n_coeffs: int = 13
    fmin: float = 0.0
    fmax: float = 7000.0
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.n_fft <= 0 or self.hop <= 0:
            raise ValueError(f"n_fft and hop must be positive, got {self.n_fft}, {self.hop}")
        if not (1 <= self.n_coeffs <= self.n_mels):
            raise ValueError(f"need 1 <= n_coeffs <= n_mels, got {self.n_coeffs} > {self.n_mels}")
        if not (0.0 <= self.fmin < self.fmax):
            raise ValueError(f"need 0 <= fmin < fmax, got fmin={self.fmin} fmax={self.fmax}")
        if self.log_floor <= 0.0:
            raise ValueError(f"log_floor must be positive, got {self.log_floor}")


def _read_only(a: np.ndarray) -> np.ndarray:
    # The cached arrays are shared by every caller.
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=32)
def mel_filterbank(cfg: MfccConfig, sample_rate: int) -> np.ndarray:
    """Triangular mel filters evaluated at the rfft bin centers.

    Returns a read-only (n_mels, n_fft // 2 + 1) weight matrix; triangle j
    rises from mel point j to j+1 and falls to j+2, with the n_mels + 2 points
    spaced uniformly in mel between fmin and fmax. Built once per distinct
    (cfg, sample_rate).
    """
    if cfg.fmax > sample_rate / 2.0:
        raise ValueError(f"fmax {cfg.fmax} exceeds Nyquist {sample_rate / 2.0}")
    mel_points = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(cfg.n_fft // 2 + 1) * sample_rate / cfg.n_fft
    fb = np.zeros((cfg.n_mels, bin_freqs.size))
    for j in range(cfg.n_mels):
        left, center, right = hz_points[j], hz_points[j + 1], hz_points[j + 2]
        up = (bin_freqs - left) / (center - left)
        down = (right - bin_freqs) / (right - center)
        fb[j] = np.maximum(0.0, np.minimum(up, down))
    return _read_only(fb)


@functools.lru_cache(maxsize=32)
def _dct_ii_matrix(n_coeffs: int, n_mels: int) -> np.ndarray:
    # orthonormal DCT-II: row i, column j = s_i * cos(pi * i * (2j + 1) / (2 J))
    j = np.arange(n_mels)
    i = np.arange(n_coeffs)[:, None]
    mat = np.cos(np.pi * i * (2.0 * j + 1.0) / (2.0 * n_mels))
    mat[0] *= np.sqrt(1.0 / n_mels)
    mat[1:] *= np.sqrt(2.0 / n_mels)
    return _read_only(mat)


@functools.lru_cache(maxsize=32)
def _hamming(n: int) -> np.ndarray:
    return _read_only(np.hamming(n))


def mfcc_extract(w: WaveForm, cfg: MfccConfig | None = None) -> np.ndarray:
    """MFCCs: Hamming-windowed frames -> magnitude rfft -> mel filterbank ->
    log (floored) -> orthonormal DCT-II keeping the first n_coeffs.

    Returns the C-contiguous (n_frames, n_coeffs) float64 frames, full
    windows only: n_frames = 1 + (n - n_fft) // hop.
    """
    cfg = cfg or MfccConfig()
    n = w.samples.size
    if n < cfg.n_fft:
        raise ValueError(f"input of {n} samples is shorter than one window ({cfg.n_fft})")
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, cfg.n_fft)[:: cfg.hop]
    mag = np.abs(np.fft.rfft(frames * _hamming(cfg.n_fft), axis=1))
    fb = mel_filterbank(cfg, w.sample_rate)
    energies = mag @ fb.T
    log_e = np.log(np.maximum(energies, cfg.log_floor))
    dct = _dct_ii_matrix(cfg.n_coeffs, cfg.n_mels)
    return np.ascontiguousarray(log_e @ dct.T)


def fix_length(frames: np.ndarray, target_frames: int = 60) -> np.ndarray:
    """A new (target_frames, n_coeffs) array: the first target_frames rows of
    the 2-d ``frames``, zero-padded at the end if short."""
    if target_frames <= 0:
        raise ValueError(f"target_frames must be positive, got {target_frames}")
    t, c = frames.shape
    if t >= target_frames:
        return frames[:target_frames].copy()
    out = np.zeros((target_frames, c))
    out[:t] = frames
    return out


# ---------------------------------------------------------------- file I/O


def read_wav(path) -> WaveForm:
    """Read a mono 16-bit PCM WAV; samples are int16 values divided by 32768.
    A file that is not one raises ValueError naming it."""
    try:
        with wave.open(str(path), "rb") as f:
            if f.getnchannels() != 1:
                raise ValueError(f"{path}: expected mono, got {f.getnchannels()} channels")
            if f.getsampwidth() != 2:
                raise ValueError(f"{path}: expected 16-bit PCM, got {8 * f.getsampwidth()} bits")
            rate = f.getframerate()
            raw = f.readframes(f.getnframes())
    except (wave.Error, EOFError) as err:
        raise ValueError(f"{path}: not a readable WAV file ({err!r})") from None
    if not raw:
        raise ValueError(f"{path}: WAV file holds no samples")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return WaveForm(samples, rate)


def write_wav(path, w: WaveForm) -> None:
    """Write mono 16-bit PCM; floats scaled by 32768, rounded, and clipped."""
    data = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
    # The 44-byte header ``wave`` writes: PCM fmt chunk (mono, 16-bit), then data.
    atomic_write(path, struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE",
                                   b"fmt ", 16, 1, 1, w.sample_rate, 2 * w.sample_rate, 2, 16,
                                   b"data", len(data)) + data)


def save_features(path, frames: np.ndarray) -> None:
    """Write the (T, n_coeffs) ``frames`` as the binary feature file: magic,
    version, T, n_coeffs, float64 LE. Frames not 2-d raise ValueError."""
    frames = np.asarray(frames)
    if frames.ndim != 2:
        raise ValueError(f"frames must be 2-d, got shape {frames.shape}")
    t, c = frames.shape
    atomic_write(path, FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, t, c)
                 + np.ascontiguousarray(frames, dtype="<f8").tobytes())


def load_features(path) -> np.ndarray:
    """The (T, n_coeffs) float64 frames of a file ``save_features`` wrote. A
    bad magic, version or length raises ValueError naming the file."""
    blob = Path(path).read_bytes()
    if blob[:4] != FEATURE_MAGIC:
        raise ValueError(f"{path}: bad feature-file magic {blob[:4]!r}")
    if len(blob) < 16:
        raise ValueError(f"{path}: truncated feature header ({len(blob)} bytes)")
    version, t, c = struct.unpack_from("<III", blob, 4)
    if version != FEATURE_VERSION:
        raise ValueError(f"{path}: unsupported feature-file version {version}")
    expected = 16 + 8 * t * c
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(blob)}")
    return np.frombuffer(blob, dtype="<f8", offset=16).reshape(t, c).copy()

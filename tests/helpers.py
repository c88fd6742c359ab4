"""Shared test utilities: central finite-difference gradient checking and
reference implementations that vectorized code is compared against.

The numeric gradient is an independent oracle for every analytic backward
pass in the package: perturb one input coordinate at a time by +-h and take
the centered difference of the scalar output.
"""

import numpy as np

from distillfuse.audio import VadConfig, WaveForm
from distillfuse.tensor import Tensor

FD_H = 1e-5
FD_TOL = 1e-6


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Normed relative error ||a - b|| / max(||a||, ||b||, 1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1.0)
    return float(np.linalg.norm(a - b) / denom)


def numeric_grad(f, x: np.ndarray, h: float = FD_H) -> np.ndarray:
    """Central finite differences of scalar-valued f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def check_grads(fn, arrays, tol: float = FD_TOL, h: float = FD_H) -> float:
    """Assert analytic gradients of fn match finite differences.

    fn takes len(arrays) Tensors and returns a scalar Tensor. Returns the
    worst relative error over all inputs (after asserting it is below tol).
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    fn(*tensors).backward()
    worst = 0.0
    for i, t in enumerate(tensors):
        def scalar(x, i=i):
            args = [Tensor(a.copy()) for a in arrays]
            args[i] = Tensor(x.copy())
            return float(fn(*args).data)

        num = numeric_grad(scalar, arrays[i], h)
        assert t.grad is not None, f"input {i} received no gradient"
        err = rel_err(t.grad, num)
        assert err < tol, f"input {i}: analytic vs numeric rel err {err:.3e} >= {tol}"
        worst = max(worst, err)
    return worst


def vad_segments_reference(w: WaveForm, cfg: VadConfig) -> list[tuple[int, int]]:
    """Frame-by-frame energy VAD: one frame's RMS per iteration, then a scan
    for runs of voiced frames. The oracle for ``audio.vad_segments``."""
    n = w.samples.size
    frame = max(1, int(round(cfg.frame_ms * w.sample_rate / 1000.0)))
    hop = max(1, int(round(cfg.hop_ms * w.sample_rate / 1000.0)))
    starts = list(range(0, n, hop))
    rms = np.empty(len(starts))
    for k, s in enumerate(starts):
        seg = w.samples[s : min(s + frame, n)]
        rms[k] = np.sqrt(np.mean(seg * seg))
    peak = rms.max()
    if peak == 0.0:
        return []
    voiced = rms > cfg.energy_threshold_ratio * peak
    segments: list[tuple[int, int]] = []
    k = 0
    while k < len(starts):
        if not voiced[k]:
            k += 1
            continue
        j = k
        while j + 1 < len(starts) and voiced[j + 1]:
            j += 1
        segments.append((starts[k], min(starts[j] + frame, n)))
        k = j + 1
    return segments

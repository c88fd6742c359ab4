"""Shared test utilities: central finite-difference gradient checking and
reference implementations that vectorized code is compared against: the
scalar KL, cross-entropy and blended distillation loss that the batch
tensors' losses in ``distill`` are checked against, frame-by-frame VAD, a
``metrics.txt`` reader, ``tape_node``, the one way tests reach a tensor's
tape node, ``capture_grad``, which records the gradient an interior tape
node receives (backward keeps ``.grad`` only on leaves), ``nan_gradient``,
which gives a loss a NaN gradient, and ``fill_disk``, which makes file
writes fail midway.

The numeric gradient is an independent oracle for every analytic backward
pass in the package: perturb one input coordinate at a time by +-h and take
the centered difference of the scalar output.
"""

import builtins
import errno
from pathlib import Path

import numpy as np

from distillfuse import files
from distillfuse.audio import VadConfig, WaveForm
from distillfuse.distill import PROB_EPS, DistillConfig, LossBreakdown, _check_distribution
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


class CapturedGrad:
    """What one interior node's backward closure received: ``g`` is the array
    object itself, ``before`` a copy taken before the closure ran. Both stay
    None until backward reaches the node."""

    g: np.ndarray | None = None
    before: np.ndarray | None = None


def tape_node(t):
    """The tape node of ``t``: an op result's node; ``t`` itself for a leaf,
    an untaped result or a node. Tests reach tape internals only through it."""
    return getattr(t, "_nd", None) or t


def nan_gradient(loss, logits):
    """``loss`` with its value unchanged and a NaN gradient: d sqrt(s)/ds is
    infinite at s = 0, and 0 * inf gives NaN on the way back to the logits."""
    return loss + (logits * 0.0).sum() ** 0.5


def capture_grad(t) -> CapturedGrad:
    """Wrap the backward closure of interior tensor or node ``t`` so that the
    next backward records the upstream gradient it hands the closure."""
    node = tape_node(t)
    inner = node._backward
    if inner is None:
        raise ValueError("capture_grad needs an interior node (one with a backward closure)")
    seen = CapturedGrad()

    def backward(g, *parents):
        seen.g, seen.before = g, np.array(g, copy=True)
        inner(g, *parents)

    node._backward = backward
    return seen


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


def kl_divergence(p, q, eps: float = PROB_EPS) -> float:
    """sum_x p(x) * ln(p(x) / q(x)), natural log; q is clamped below by eps
    and p(x) = 0 terms contribute exactly zero."""
    p = _check_distribution(p, "p")
    q = _check_distribution(q, "q")
    if p.shape != q.shape:
        raise ValueError(f"p and q shapes differ: {p.shape} vs {q.shape}")
    qc = np.maximum(q, eps)
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / qc[mask])))


def cross_entropy(y, p, eps: float = PROB_EPS) -> float:
    """-sum_i y_i * ln(p_i) for a one-hot y (entries exactly 0 or 1, one 1)."""
    y = np.asarray(y, dtype=np.float64)
    if not (np.all((y == 0.0) | (y == 1.0)) and y.sum() == 1.0):
        raise ValueError("y must be one-hot (entries in {0, 1}, exactly one 1)")
    p = _check_distribution(p, "p")
    if y.shape != p.shape:
        raise ValueError(f"y and p shapes differ: {y.shape} vs {p.shape}")
    return float(-np.log(np.maximum(p[y == 1.0][0], eps)))


def total_loss(p_teacher, q_student, y, cfg: DistillConfig | None = None) -> LossBreakdown:
    """alpha * T^2 * KL(p_teacher || q_student) + (1 - alpha) * CE(y, q_student)."""
    cfg = cfg or DistillConfig()
    t2 = cfg.temperature * cfg.temperature
    kl = t2 * kl_divergence(p_teacher, q_student)
    ce = cross_entropy(y, q_student)
    return LossBreakdown(kl, ce, cfg.alpha * kl + (1.0 - cfg.alpha) * ce)


def parse_metrics_file(path) -> dict[str, float | int | bool]:
    """Read a ``metrics.txt`` back into typed values."""
    out: dict[str, float | int | bool] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            if value in ("true", "false"):
                out[key] = value == "true"
            elif key.startswith(("n", "support")):
                out[key] = int(value)
            else:
                out[key] = float(value)
    return out


class _DiskFillsUp:
    """A file that takes half of the first write, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def fill_disk(monkeypatch, name: str | None = None) -> None:
    """Make ``files.atomic_write`` run out of space halfway through writing
    the file called ``name`` (every file when None); other writes succeed."""
    def fake_open(file, mode):
        f = builtins.open(file, mode)
        return _DiskFillsUp(f) if name is None or Path(file).name.startswith(f".{name}.") else f

    monkeypatch.setattr(files, "open", fake_open, raising=False)

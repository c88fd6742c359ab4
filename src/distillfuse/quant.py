"""8-bit weight quantization: calibration, (de)quantization, and the
straight-through fake-quantize used for quantization-aware training.

Symmetric scheme: scale = max|w| / 127, zero point 0, integer range
[-127, 127]. Asymmetric scheme: scale = (max - min) / 255, zero point
round(-min / scale) clamped to [0, 255]. Rounding is round-half-even
throughout. Quantization applies to weight matrices only, never activations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, _accum, _make

__all__ = [
    "QuantParams",
    "QuantizedMatrix",
    "calibrate",
    "dequantize",
    "fake_quant",
    "quantize",
]


@dataclass(frozen=True)
class QuantParams:
    scale: float
    zero_point: int
    scheme: str

    def __post_init__(self):
        if not 0.0 < self.scale < np.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.scheme not in ("symmetric", "asymmetric"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        lo, hi = self.int_range
        if not lo <= self.zero_point <= hi:
            raise ValueError(f"zero point {self.zero_point} outside [{lo}, {hi}]")

    @property
    def int_range(self) -> tuple[int, int]:
        return (-127, 127) if self.scheme == "symmetric" else (0, 255)


@dataclass
class QuantizedMatrix:
    values: np.ndarray  # int8 (symmetric) or uint8 (asymmetric)
    params: QuantParams

    @property
    def nbytes(self) -> int:
        return self.values.nbytes


def calibrate(w: np.ndarray, scheme: str = "symmetric") -> QuantParams:
    """Derive scale / zero point from the extrema of one weight matrix.

    An all-zero (or constant-zero-range) matrix calibrates to scale 1 so the
    round trip stays well defined.
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights contain NaN or Inf")
    if scheme == "symmetric":
        amax = float(np.max(np.abs(w))) if w.size else 0.0
        scale = amax / 127.0 if amax > 0.0 else 1.0
        return QuantParams(scale, 0, scheme)
    if scheme == "asymmetric":
        lo, hi = float(w.min()), float(w.max())
        if hi == lo:
            scale = 1.0
        else:
            scale = (hi - lo) / 255.0
        zp = int(np.clip(np.round(-lo / scale), 0, 255))
        return QuantParams(scale, zp, scheme)
    raise ValueError(f"unknown scheme {scheme!r}")


def quantize(w: np.ndarray, p: QuantParams) -> QuantizedMatrix:
    """q = clamp(round_half_even(w / scale) + zero_point, int_range)."""
    w = np.asarray(w, dtype=np.float64)
    lo, hi = p.int_range
    q = np.clip(np.round(w / p.scale) + p.zero_point, lo, hi)
    dtype = np.int8 if p.scheme == "symmetric" else np.uint8
    return QuantizedMatrix(q.astype(dtype), p)


def dequantize(qm: QuantizedMatrix) -> np.ndarray:
    """(q - zero_point) * scale as float64."""
    return (qm.values.astype(np.float64) - qm.params.zero_point) * qm.params.scale


def fake_quant(w: Tensor, p: QuantParams) -> Tensor:
    """dequantize(quantize(w)) with a straight-through gradient.

    The gradient passes unchanged wherever the rounded integer landed inside
    the clip range and is zero where it was clipped. Applying fake_quant to
    its own output is an exact no-op.
    """
    lo, hi = p.int_range
    q = np.round(w.data / p.scale) + p.zero_point
    inside = (q >= lo) & (q <= hi)
    out = (np.clip(q, lo, hi) - p.zero_point) * p.scale
    return _make(out, (w,), lambda g, node: _accum(node, g * inside))

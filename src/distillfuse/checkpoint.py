"""Binary model checkpoints.

Layout (all integers little-endian):

    magic "DFCK" | u32 version | str kind | u32 n_meta | (str key, str value)*
    | u32 n_blocks | block*

    block := str name | u8 flag | u32 ndim | u32 dim* | payload
    flag 0 payload := float64-LE raw values
    flag 1 payload := u8 scheme (0 symmetric / 1 asymmetric)
                      | f64 scale | i64 zero_point | int8/uint8 raw values
    str := u32 byte-length | utf-8 bytes

Any structural problem, quantization parameters that ``QuantParams`` rejects
and a repeated meta key or block name included, raises CheckpointError naming
the file and the byte offset.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .files import atomic_write
from .quant import QuantParams, QuantizedMatrix

__all__ = ["Checkpoint", "CheckpointError", "load_checkpoint", "save_checkpoint"]

MAGIC = b"DFCK"
VERSION = 1
MAX_NDIM = 64  # numpy's limit on array dimensions
_SCHEME_CODES = {"symmetric": 0, "asymmetric": 1}
_SCHEME_NAMES = {v: k for k, v in _SCHEME_CODES.items()}


class CheckpointError(ValueError):
    """Checkpoint file is malformed; the message includes the byte offset."""


@dataclass
class Checkpoint:
    kind: str
    meta: dict[str, str]
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    quantized: dict[str, QuantizedMatrix] = field(default_factory=dict)


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    parts = [MAGIC, struct.pack("<I", VERSION), _pack_str(ckpt.kind)]
    parts.append(struct.pack("<I", len(ckpt.meta)))
    for k, v in ckpt.meta.items():
        parts.append(_pack_str(k))
        parts.append(_pack_str(str(v)))
    parts.append(struct.pack("<I", len(ckpt.arrays) + len(ckpt.quantized)))
    for name, arr in ckpt.arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        parts.append(_pack_str(name))
        parts.append(struct.pack("<BI", 0, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    for name, qm in ckpt.quantized.items():
        parts.append(_pack_str(name))
        parts.append(struct.pack("<BI", 1, qm.values.ndim))
        parts.append(struct.pack(f"<{qm.values.ndim}I", *qm.values.shape))
        parts.append(
            struct.pack(
                "<Bdq",
                _SCHEME_CODES[qm.params.scheme],
                qm.params.scale,
                qm.params.zero_point,
            )
        )
        parts.append(qm.values.tobytes())
    atomic_write(path, b"".join(parts))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise CheckpointError(
                f"{self.path}: truncated checkpoint at byte {self.off} "
                f"(needed {n} more bytes, file has {len(self.blob)})"
            )
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def string(self) -> str:
        n = self.u32()
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(
                f"{self.path}: invalid utf-8 string at byte {self.off - n}"
            ) from None


def load_checkpoint(path) -> Checkpoint:
    r = _Reader(Path(path).read_bytes(), path)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic at byte 0, expected {MAGIC!r}")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version} at byte 4")
    kind = r.string()
    meta = {}
    for _ in range(r.u32()):
        key_off, k = r.off, r.string()
        if k in meta:
            raise CheckpointError(f"{path}: repeated meta key {k!r} at byte {key_off}")
        meta[k] = r.string()
    ckpt = Checkpoint(kind, meta)
    for _ in range(r.u32()):
        name_off, name = r.off, r.string()
        if name in ckpt.arrays or name in ckpt.quantized:
            raise CheckpointError(f"{path}: repeated block name {name!r} at byte {name_off}")
        flag_off = r.off
        flag, ndim = struct.unpack("<BI", r.take(5))
        if flag not in (0, 1):
            raise CheckpointError(f"{path}: unknown block flag {flag} at byte {flag_off}")
        if ndim > MAX_NDIM:
            raise CheckpointError(f"{path}: block {name!r} has {ndim} dimensions at byte "
                                  f"{flag_off}, at most {MAX_NDIM} allowed")
        shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim))
        if flag:
            code, scale, zp = struct.unpack("<Bdq", r.take(17))
        raw = r.take(math.prod(shape) * (1 if flag else 8))
        try:  # QuantParams' checks, and a 0 dimension beside ones too big for numpy
            if flag:
                params = QuantParams(scale, zp, _SCHEME_NAMES.get(code, code))
                dtype = np.int8 if params.scheme == "symmetric" else np.uint8
            values = np.frombuffer(raw, dtype=dtype if flag else "<f8").reshape(shape).copy()
        except ValueError as err:
            raise CheckpointError(f"{path}: block {name!r} at byte {flag_off}: {err}") from None
        if flag:
            ckpt.quantized[name] = QuantizedMatrix(values, params)
        else:
            ckpt.arrays[name] = values
    if r.off != len(r.blob):
        raise CheckpointError(f"{path}: {len(r.blob) - r.off} trailing bytes at byte {r.off}")
    return ckpt

"""Model assemblies: the two unimodal teachers and the fused student, plus
checkpoint (de)serialization and whole-model weight quantization.
"""

from __future__ import annotations

import math

import numpy as np

from .checkpoint import Checkpoint, CheckpointError
from .config import RunConfig
from .data import rng_for
from .encoders import BiLstm, ClassifierHead, TextEncoder
from .fusion import FusionParams, MultiHeadFusion, fuse_attention, multi_head_fuse
from .quant import calibrate, dequantize, fake_quant, quantize
from .tensor import Tensor, softmax_np

__all__ = [
    "AudioTeacherModel",
    "StudentModel",
    "TextTeacherModel",
    "load_model",
    "model_from_checkpoint",
    "quantize_model",
]


def _meta(ckpt: Checkpoint, source: str, key: str, parse):
    """``parse(ckpt.meta[key])``; a missing key or a value ``parse`` rejects
    raises CheckpointError naming ``source`` and ``key``."""
    if key not in ckpt.meta:
        raise CheckpointError(f"{source}: missing meta key {key!r}")
    raw = ckpt.meta[key]
    try:
        return parse(raw)
    except ValueError:
        raise CheckpointError(f"{source}: meta key {key!r} has invalid value {raw!r}") from None


def _parse_bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError(raw)
    return raw == "true"


def _int_at_least(lo: int):
    def parse(raw: str) -> int:
        value = int(raw)
        if value < lo:
            raise ValueError(raw)
        return value

    return parse


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


_size = _int_at_least(1)


def _meta_str(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# Meta keys of a TextEncoder, shared by both kinds that hold one. They are
# also TextEncoder's argument names and, vocab_size aside, RunConfig fields.
_ENCODER_META = tuple(
    (k, _size) for k in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_len")
)


def _encoder_meta(vocab_size: int, cfg: RunConfig) -> dict:
    return {"vocab_size": vocab_size, **{k: getattr(cfg, k) for k, _ in _ENCODER_META[1:]}}


def _assign_blocks(named: list[tuple[str, Tensor]], arrays: dict[str, np.ndarray],
                   source: str) -> None:
    names = [n for n, _ in named]
    missing = [n for n in names if n not in arrays]
    extra = [n for n in arrays if n not in set(names)]
    if missing or extra:
        raise CheckpointError(
            f"{source}: parameter blocks do not match model "
            f"(missing {missing[:3]}, unexpected {extra[:3]})"
        )
    for n, p in named:
        if arrays[n].shape != p.data.shape:
            raise CheckpointError(
                f"{source}: block {n!r} has shape {arrays[n].shape}, expected {p.data.shape}"
            )
        if not np.all(np.isfinite(arrays[n])):
            raise CheckpointError(f"{source}: block {n!r} holds non-finite values")
        p.data = np.array(arrays[n], dtype=np.float64)


class _Model:
    """The recipe the three models share: parts, parameters, checkpoints.

    A subclass declares ``META``, its ``(key, parser)`` pairs in the order a
    checkpoint stores them; ``PARTS``, its ``(prefix, attribute)`` pairs in
    parameter order; ``INPUTS``, the ``Batch`` fields its ``forward_logits``
    and ``predict_probs`` take; and ``_assemble``, which builds the parts
    from a generator and the meta values. ``build`` and ``from_checkpoint``
    both construct through ``__init__``; the latter passes no generator, so
    the weights start at zero until the checkpoint's blocks are assigned.

    ``quantized_blocks`` (set by ``quantize_model``) holds int8 blocks by
    parameter name; a checkpoint stores them in place of the float ones. A
    meta key without a parser, the audio teacher's ``quantized``, is written
    from them and not read back: the blocks themselves say what is int8.
    """

    kind = ""
    META: tuple = ()
    PARTS: tuple = ()
    INPUTS: tuple = ()
    quantized_blocks: dict | None = None

    def __init__(self, rng: np.random.Generator | None, **meta):
        self.meta = meta
        self._assemble(rng, **meta)

    def inputs(self, batch) -> tuple:
        return tuple(getattr(batch, f) for f in self.INPUTS)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [named for prefix, attr in self.PARTS
                for named in getattr(self, attr).named_parameters(prefix)]

    def trainable_parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters() if p.requires_grad]

    def forward_with_attention(self, *inputs) -> tuple[Tensor, np.ndarray | None]:
        """(logits, fusion attention weights); a model without fusion has none."""
        return self.forward_logits(*inputs), None

    def to_checkpoint(self) -> Checkpoint:
        values = dict(self.meta, quantized=bool(self.quantized_blocks))
        meta = {k: _meta_str(values[k]) for k, _ in self.META}
        blocks = self.quantized_blocks or {}
        arrays = {n: p.data for n, p in self.named_parameters() if n not in blocks}
        return Checkpoint(self.kind, meta, arrays, dict(blocks))

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint, source: str = "checkpoint"):
        meta = {k: _meta(ckpt, source, k, parse) for k, parse in cls.META if parse}
        try:
            model = cls(None, **meta)
        except ValueError as err:  # sizes that are valid one by one but not together
            raise CheckpointError(f"{source}: {err}") from None
        arrays = dict(ckpt.arrays)
        for name, qm in ckpt.quantized.items():
            arrays[name] = dequantize(qm)
        _assign_blocks(model.named_parameters(), arrays, source)
        model.quantized_blocks = dict(ckpt.quantized) or None
        return model


class TextTeacherModel(_Model):
    """Frozen-base text encoder with trainable low-rank adapters and head."""

    kind = "text-teacher"
    META = _ENCODER_META + (("lora_rank", _int_at_least(0)), ("lora_alpha", _finite_float))
    PARTS = (("", "encoder"), ("head.", "head"))
    INPUTS = ("token_ids", "mask")

    def _assemble(self, rng, **m) -> None:
        self.encoder = TextEncoder(**m, rng=rng)
        for name, p in self.encoder.named_parameters():  # only the adapters train
            p.requires_grad = ".lora_" in name
        self.head = ClassifierHead(m["d_model"], rng=rng)

    @classmethod
    def build(cls, vocab_size: int, cfg: RunConfig) -> "TextTeacherModel":
        alpha = float(cfg.lora_alpha) if cfg.lora_rank else 0.0
        return cls(rng_for(cfg.seed, "text-teacher-init"), **_encoder_meta(vocab_size, cfg),
                   lora_rank=cfg.lora_rank, lora_alpha=alpha)

    def forward_logits(self, ids: np.ndarray, mask: np.ndarray) -> Tensor:
        return self.head.logits(self.encoder.forward(ids, mask))

    def predict_probs(self, ids: np.ndarray, mask: np.ndarray,
                      temperature: float = 1.0) -> np.ndarray:
        logits = self.forward_logits(ids, mask).data
        return softmax_np(logits / temperature, axis=-1)


class AudioTeacherModel(_Model):
    """BiLSTM over MFCC frames; classification from the final-state features."""

    kind = "audio-teacher"
    META = (("input_dim", _size), ("hidden_dim", _size), ("quantized", None))
    PARTS = (("", "bilstm"), ("head.", "head"))
    INPUTS = ("mfcc",)

    def _assemble(self, rng, input_dim: int, hidden_dim: int) -> None:
        self.bilstm = BiLstm(input_dim, hidden_dim, rng=rng)
        self.head = ClassifierHead(2 * hidden_dim, rng=rng)

    @classmethod
    def build(cls, cfg: RunConfig) -> "AudioTeacherModel":
        return cls(rng_for(cfg.seed, "audio-teacher-init"),
                   input_dim=cfg.n_coeffs, hidden_dim=cfg.lstm_hidden)

    def forward_logits(self, mfcc: np.ndarray, transform=None) -> Tensor:
        return self.head.logits(self.bilstm.final_states(mfcc, transform))

    def predict_probs(self, mfcc: np.ndarray, temperature: float = 1.0) -> np.ndarray:
        logits = self.forward_logits(mfcc).data
        return softmax_np(logits / temperature, axis=-1)


def make_fake_quant_transform(scheme: str):
    """Weight transform for QAT: fake-quantize every weight matrix (ndim >= 2),
    recalibrated from the current values on every call; biases pass through."""

    def transform(name: str, p: Tensor):
        if p.data.ndim >= 2:
            return fake_quant(p, calibrate(p.data, scheme))
        return p

    return transform


def quantize_model(model: AudioTeacherModel, scheme: str = "symmetric") -> AudioTeacherModel:
    """Quantize every BiLSTM weight matrix (per-matrix calibration); the
    model's float weights are replaced by their dequantized values and the
    integer blocks are kept for storage/serialization."""
    blocks = {}
    for name, p in model.bilstm.named_parameters():
        if p.data.ndim >= 2:
            qm = quantize(p.data, calibrate(p.data, scheme))
            blocks[name] = qm
            p.data = dequantize(qm)
    model.quantized_blocks = blocks
    return model


def quantized_storage_bytes(model: AudioTeacherModel) -> tuple[int, int]:
    """(quantized storage, float64 storage) for the quantized matrices."""
    if not model.quantized_blocks:
        raise ValueError("model has no quantized blocks")
    q_bytes = sum(qm.nbytes for qm in model.quantized_blocks.values())
    f_bytes = sum(qm.values.size * 8 for qm in model.quantized_blocks.values())
    return q_bytes, f_bytes


class StudentModel(_Model):
    """Fully trainable fused model: text encoder + BiLSTM + attention fusion."""

    kind = "student"
    META = _ENCODER_META + (
        ("input_dim", _size), ("hidden_dim", _size), ("fusion_dim", _size),
        ("multi_head", _parse_bool), ("fusion_heads", _size),
    )
    PARTS = (("text.", "encoder"), ("audio.", "bilstm"), ("fusion.", "fusion"), ("head.", "head"))
    INPUTS = ("token_ids", "mask", "mfcc")

    def _assemble(self, rng, input_dim, hidden_dim, fusion_dim, multi_head, fusion_heads,
                  **encoder) -> None:
        self.encoder = TextEncoder(**encoder, rng=rng)
        self.bilstm = BiLstm(input_dim, hidden_dim, rng=rng)
        d_t, d_a = encoder["d_model"], 2 * hidden_dim
        if multi_head:
            self.fusion = MultiHeadFusion(d_t, d_a, fusion_dim, fusion_heads, rng=rng)
        else:
            self.fusion = FusionParams(d_t, d_a, fusion_dim, rng=rng)
        self.head = ClassifierHead(fusion_dim, rng=rng)

    @property
    def multi_head(self) -> bool:
        return self.meta["multi_head"]

    @classmethod
    def build(cls, vocab_size: int, cfg: RunConfig) -> "StudentModel":
        return cls(rng_for(cfg.seed, "student-init"), **_encoder_meta(vocab_size, cfg),
                   input_dim=cfg.n_coeffs, hidden_dim=cfg.lstm_hidden, fusion_dim=cfg.fusion_dim,
                   multi_head=bool(cfg.multi_head),
                   fusion_heads=cfg.fusion_heads if cfg.multi_head else 1)

    def _fuse(self, ids, mask, mfcc):
        x_t = self.encoder.forward(ids, mask)
        x_a = self.bilstm.mean_states(mfcc)
        if self.multi_head:
            return multi_head_fuse(x_t, x_a, self.fusion)
        return fuse_attention(x_t, x_a, self.fusion)

    def forward_logits(self, ids, mask, mfcc) -> Tensor:
        h_f, _ = self._fuse(ids, mask, mfcc)
        return self.head.logits(h_f)

    def forward_with_attention(self, ids, mask, mfcc) -> tuple[Tensor, np.ndarray]:
        """(logits, weights) with weights shaped (B, H, 2) (H = 1 single-head)."""
        h_f, w = self._fuse(ids, mask, mfcc)
        return self.head.logits(h_f), w.data.reshape(len(w.data), -1, 2)

    def predict_probs(self, ids, mask, mfcc, temperature: float = 1.0) -> np.ndarray:
        return softmax_np(self.forward_logits(ids, mask, mfcc).data / temperature, axis=-1)


_MODEL_KINDS = {
    TextTeacherModel.kind: TextTeacherModel,
    AudioTeacherModel.kind: AudioTeacherModel,
    StudentModel.kind: StudentModel,
}


def model_from_checkpoint(ckpt: Checkpoint, source: str = "checkpoint"):
    if ckpt.kind not in _MODEL_KINDS:
        raise CheckpointError(f"{source}: unknown model kind {ckpt.kind!r}")
    return _MODEL_KINDS[ckpt.kind].from_checkpoint(ckpt, source)


def load_model(path):
    from .checkpoint import load_checkpoint

    return model_from_checkpoint(load_checkpoint(path), str(path))

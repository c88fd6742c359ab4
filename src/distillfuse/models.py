"""Model assemblies: the two unimodal teachers and the fused student, plus
checkpoint (de)serialization and whole-model weight quantization.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import Checkpoint, CheckpointError
from .config import RunConfig
from .data import rng_for
from .encoders import BiLstm, ClassifierHead, TextEncoder
from .fusion import FusionParams, MultiHeadFusion, fuse_attention, multi_head_fuse
from .quant import calibrate, dequantize, fake_quant, quantize
from .tensor import Parameter, Tensor, softmax_np

__all__ = [
    "AudioTeacherModel",
    "StudentModel",
    "TextTeacherModel",
    "load_model",
    "model_from_checkpoint",
    "quantize_model",
]


def _meta(ckpt: Checkpoint, source: str, key: str, parse=int):
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


# Integer meta keys of a TextEncoder, shared by both kinds that hold one.
_ENCODER_META = ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_len")


def _assign_blocks(named: list[tuple[str, Parameter]], arrays: dict[str, np.ndarray],
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


class TextTeacherModel:
    """Frozen-base text encoder with trainable low-rank adapters and head."""

    kind = "text-teacher"

    def __init__(self, encoder: TextEncoder, head: ClassifierHead):
        self.encoder = encoder
        self.head = head

    @classmethod
    def build(cls, vocab_size: int, cfg: RunConfig) -> "TextTeacherModel":
        rng = rng_for(cfg.seed, "text-teacher-init")
        encoder = TextEncoder(
            vocab_size, cfg.d_model, cfg.n_layers, cfg.n_heads, cfg.d_ff,
            cfg.max_len, rng=rng, lora_rank=cfg.lora_rank, lora_alpha=cfg.lora_alpha,
        )
        encoder.freeze_base()
        head = ClassifierHead(cfg.d_model, rng=rng)
        return cls(encoder, head)

    def forward_logits(self, ids: np.ndarray, mask: np.ndarray) -> Tensor:
        return self.head.logits(self.encoder.forward(ids, mask))

    def predict_probs(self, ids: np.ndarray, mask: np.ndarray,
                      temperature: float = 1.0) -> np.ndarray:
        logits = self.forward_logits(ids, mask).data
        return softmax_np(logits / temperature, axis=-1)

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        return self.encoder.named_parameters() + self.head.named_parameters()

    def trainable_parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters() if p.trainable]

    def freeze_all(self) -> None:
        for _, p in self.named_parameters():
            p.freeze()

    def to_checkpoint(self) -> Checkpoint:
        meta = {
            "vocab_size": str(self.encoder.vocab_size),
            "d_model": str(self.encoder.d_model),
            "n_layers": str(self.encoder.n_layers),
            "n_heads": str(self.encoder.n_heads),
            "d_ff": str(self.encoder.d_ff),
            "max_len": str(self.encoder.max_len),
            "lora_rank": str(self.encoder.layers[0].lora_q.rank if self.encoder.layers[0].lora_q else 0),
            "lora_alpha": str(self.encoder.layers[0].lora_q.alpha if self.encoder.layers[0].lora_q else 0.0),
        }
        arrays = {n: p.data for n, p in self.named_parameters()}
        return Checkpoint(self.kind, meta, arrays)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint, source: str = "checkpoint") -> "TextTeacherModel":
        m = {k: _meta(ckpt, source, k) for k in _ENCODER_META + ("lora_rank",)}
        lora_alpha = _meta(ckpt, source, "lora_alpha", float)
        rng = rng_for(0, "rebuild")
        encoder = TextEncoder(
            m["vocab_size"], m["d_model"], m["n_layers"], m["n_heads"], m["d_ff"],
            m["max_len"], rng=rng, lora_rank=m["lora_rank"], lora_alpha=lora_alpha,
        )
        encoder.freeze_base()
        head = ClassifierHead(m["d_model"], rng=rng)
        model = cls(encoder, head)
        _assign_blocks(model.named_parameters(), ckpt.arrays, source)
        return model


class AudioTeacherModel:
    """BiLSTM over MFCC frames; classification from the final-state features."""

    kind = "audio-teacher"

    def __init__(self, bilstm: BiLstm, head: ClassifierHead):
        self.bilstm = bilstm
        self.head = head
        self.quantized_blocks: dict | None = None

    @classmethod
    def build(cls, cfg: RunConfig) -> "AudioTeacherModel":
        rng = rng_for(cfg.seed, "audio-teacher-init")
        bilstm = BiLstm(cfg.n_coeffs, cfg.lstm_hidden, rng=rng)
        head = ClassifierHead(2 * cfg.lstm_hidden, rng=rng)
        return cls(bilstm, head)

    def forward_logits(self, mfcc: np.ndarray, transform=None) -> Tensor:
        return self.head.logits(self.bilstm.final_states(mfcc, transform))

    def predict_probs(self, mfcc: np.ndarray, temperature: float = 1.0) -> np.ndarray:
        logits = self.forward_logits(mfcc).data
        return softmax_np(logits / temperature, axis=-1)

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        return self.bilstm.named_parameters() + self.head.named_parameters()

    def trainable_parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters() if p.trainable]

    def freeze_all(self) -> None:
        for _, p in self.named_parameters():
            p.freeze()

    def to_checkpoint(self) -> Checkpoint:
        meta = {
            "input_dim": str(self.bilstm.input_dim),
            "hidden_dim": str(self.bilstm.hidden_dim),
            "quantized": "true" if self.quantized_blocks else "false",
        }
        if self.quantized_blocks:
            arrays = {
                n: p.data for n, p in self.named_parameters()
                if n not in self.quantized_blocks
            }
            return Checkpoint(self.kind, meta, arrays, dict(self.quantized_blocks))
        return Checkpoint(self.kind, meta, {n: p.data for n, p in self.named_parameters()})

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint, source: str = "checkpoint") -> "AudioTeacherModel":
        input_dim = _meta(ckpt, source, "input_dim")
        hidden_dim = _meta(ckpt, source, "hidden_dim")
        rng = rng_for(0, "rebuild")
        bilstm = BiLstm(input_dim, hidden_dim, rng=rng)
        head = ClassifierHead(2 * hidden_dim, rng=rng)
        model = cls(bilstm, head)
        arrays = dict(ckpt.arrays)
        for name, qm in ckpt.quantized.items():
            arrays[name] = dequantize(qm)
        _assign_blocks(model.named_parameters(), arrays, source)
        if ckpt.quantized:
            model.quantized_blocks = dict(ckpt.quantized)
        return model


def make_fake_quant_transform(scheme: str):
    """Weight transform for QAT: fake-quantize every weight matrix (ndim >= 2),
    recalibrated from the current values on every call; biases pass through."""

    def transform(name: str, p: Parameter):
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


class StudentModel:
    """Fully trainable fused model: text encoder + BiLSTM + attention fusion."""

    kind = "student"

    def __init__(self, encoder: TextEncoder, bilstm: BiLstm, fusion, head: ClassifierHead):
        self.encoder = encoder
        self.bilstm = bilstm
        self.fusion = fusion
        self.head = head

    @property
    def multi_head(self) -> bool:
        return isinstance(self.fusion, MultiHeadFusion)

    @classmethod
    def build(cls, vocab_size: int, cfg: RunConfig) -> "StudentModel":
        rng = rng_for(cfg.seed, "student-init")
        encoder = TextEncoder(
            vocab_size, cfg.d_model, cfg.n_layers, cfg.n_heads, cfg.d_ff,
            cfg.max_len, rng=rng,
        )
        bilstm = BiLstm(cfg.n_coeffs, cfg.lstm_hidden, rng=rng)
        d_t, d_a = cfg.d_model, 2 * cfg.lstm_hidden
        if cfg.multi_head:
            fusion = MultiHeadFusion(d_t, d_a, cfg.fusion_dim, cfg.fusion_heads, rng=rng)
        else:
            fusion = FusionParams(d_t, d_a, cfg.fusion_dim, rng=rng)
        head = ClassifierHead(cfg.fusion_dim, rng=rng)
        return cls(encoder, bilstm, fusion, head)

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
        wdata = w.data
        if not self.multi_head:
            wdata = wdata[:, None, :]
        return self.head.logits(h_f), wdata

    def predict_probs(self, ids, mask, mfcc, temperature: float = 1.0) -> np.ndarray:
        return softmax_np(self.forward_logits(ids, mask, mfcc).data / temperature, axis=-1)

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        out = [("text." + n, p) for n, p in self.encoder.named_parameters()]
        out += [("audio." + n, p) for n, p in self.bilstm.named_parameters()]
        out += [("fusion." + n, p) for n, p in self.fusion.named_parameters()]
        out += self.head.named_parameters()
        return out

    def trainable_parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters() if p.trainable]

    def to_checkpoint(self) -> Checkpoint:
        fusion_heads = self.fusion.n_heads if self.multi_head else 1
        meta = {
            "vocab_size": str(self.encoder.vocab_size),
            "d_model": str(self.encoder.d_model),
            "n_layers": str(self.encoder.n_layers),
            "n_heads": str(self.encoder.n_heads),
            "d_ff": str(self.encoder.d_ff),
            "max_len": str(self.encoder.max_len),
            "input_dim": str(self.bilstm.input_dim),
            "hidden_dim": str(self.bilstm.hidden_dim),
            "fusion_dim": str(self.fusion.d_h),
            "multi_head": "true" if self.multi_head else "false",
            "fusion_heads": str(fusion_heads),
        }
        return Checkpoint(self.kind, meta, {n: p.data for n, p in self.named_parameters()})

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint, source: str = "checkpoint") -> "StudentModel":
        m = {
            k: _meta(ckpt, source, k)
            for k in _ENCODER_META + ("input_dim", "hidden_dim", "fusion_dim", "fusion_heads")
        }
        multi_head = _meta(ckpt, source, "multi_head", _parse_bool)
        rng = rng_for(0, "rebuild")
        encoder = TextEncoder(
            m["vocab_size"], m["d_model"], m["n_layers"], m["n_heads"], m["d_ff"],
            m["max_len"], rng=rng,
        )
        bilstm = BiLstm(m["input_dim"], m["hidden_dim"], rng=rng)
        d_t, d_a = m["d_model"], 2 * m["hidden_dim"]
        if multi_head:
            fusion = MultiHeadFusion(d_t, d_a, m["fusion_dim"], m["fusion_heads"], rng=rng)
        else:
            fusion = FusionParams(d_t, d_a, m["fusion_dim"], rng=rng)
        head = ClassifierHead(m["fusion_dim"], rng=rng)
        model = cls(encoder, bilstm, fusion, head)
        _assign_blocks(model.named_parameters(), ckpt.arrays, source)
        return model


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

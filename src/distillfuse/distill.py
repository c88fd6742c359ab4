"""Knowledge-distillation losses and the student training step.

The student trains against a convex mixture of the two frozen teachers'
output distributions (KL term) blended with ordinary cross-entropy on the
true labels: total = alpha * KL + (1 - alpha) * CE. With a distillation
temperature T != 1 both teacher and student logits are softened by T inside
the KL term, and that term is scaled by T^2 so its gradient magnitude stays
comparable across temperatures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, clamp_min, softmax

__all__ = [
    "DistillConfig",
    "LossBreakdown",
    "combine_teacher_targets",
    "distill_loss_tensors",
    "require_finite_grads",
    "require_finite_loss",
    "student_train_step",
]

PROB_EPS = 1e-12
SUM_TOL = 1e-6


@dataclass
class DistillConfig:
    alpha: float = 0.5
    teacher_mix_beta: float = 0.5
    temperature: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (0.0 <= self.teacher_mix_beta <= 1.0):
            raise ValueError(f"teacher_mix_beta must lie in [0, 1], got {self.teacher_mix_beta}")
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


@dataclass
class LossBreakdown:
    kl_term: float
    ce_term: float
    total: float


def _check_distribution(p: np.ndarray, name: str) -> np.ndarray:
    """``p`` as float64; each row (last axis) needs finite, non-negative entries
    summing to 1 +- SUM_TOL. A NaN or infinite entry makes its row's sum fail."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0.0):
        raise ValueError(f"{name} has negative entries")
    sums = p.sum(axis=-1)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= SUM_TOL))
    if bad.size:
        raise ValueError(f"{name} does not sum to 1 (sum = {sums.flat[bad[0]]}) in row {bad[0]}")
    return p


def combine_teacher_targets(p_text, p_audio, beta: float = 0.5) -> np.ndarray:
    """Convex mixture beta * p_text + (1 - beta) * p_audio (rowwise for 2-d)."""
    if not (0.0 <= beta <= 1.0):
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    p_text = np.asarray(p_text, dtype=np.float64)
    p_audio = np.asarray(p_audio, dtype=np.float64)
    if p_text.shape != p_audio.shape:
        raise ValueError(f"teacher shapes differ: {p_text.shape} vs {p_audio.shape}")
    _check_distribution(p_text, "p_text")
    _check_distribution(p_audio, "p_audio")
    return beta * p_text + (1.0 - beta) * p_audio


def distill_loss_tensors(
    p_mix: np.ndarray,
    student_logits: Tensor,
    y_onehot: np.ndarray,
    cfg: DistillConfig,
) -> tuple[Tensor, LossBreakdown]:
    """Batch-mean distillation loss as a differentiable scalar tensor.

    p_mix and y_onehot are (B, 2) constants; gradients flow only through the
    student logits.
    """
    bsz = student_logits.data.shape[0]
    if p_mix.shape[0] != bsz or y_onehot.shape[0] != bsz:
        raise ValueError(
            f"batch size mismatch: logits {bsz}, targets {p_mix.shape[0]}, labels {y_onehot.shape[0]}"
        )
    t = cfg.temperature
    # entropy part of KL is constant w.r.t. the student
    ent = np.sum(np.where(p_mix > 0.0, p_mix * np.log(np.maximum(p_mix, PROB_EPS)), 0.0))
    q_soft = softmax(student_logits * (1.0 / t), axis=1)
    log_q_soft = clamp_min(q_soft, PROB_EPS).log()
    kl_sum = Tensor(np.float64(ent)) - (Tensor(p_mix) * log_q_soft).sum()
    kl_mean = kl_sum * (t * t / bsz)
    q = softmax(student_logits, axis=1) if t != 1.0 else q_soft
    ce_mean = -(Tensor(y_onehot) * clamp_min(q, PROB_EPS).log()).sum() * (1.0 / bsz)
    total = cfg.alpha * kl_mean + (1.0 - cfg.alpha) * ce_mean
    return total, LossBreakdown(kl_mean.item(), ce_mean.item(), total.item())


def ce_loss_tensor(logits: Tensor, y_onehot: np.ndarray) -> Tensor:
    """Batch-mean cross-entropy of softmax(logits) against one-hot labels."""
    bsz = logits.data.shape[0]
    q = clamp_min(softmax(logits, axis=1), PROB_EPS)
    return -(Tensor(y_onehot) * q.log()).sum() * (1.0 / bsz)


def one_hot(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, 2))
    out[np.arange(labels.size), labels] = 1.0
    return out


def require_finite_loss(value: float, where: str) -> float:
    """Return ``value``; raise FloatingPointError naming ``where`` if it is
    NaN or infinite."""
    if not math.isfinite(value):
        raise FloatingPointError(f"{where}: non-finite training loss {value!r}")
    return value


def require_finite_grads(params, where: str) -> float:
    """Return the global L2 norm of the gradients of ``params``. A parameter
    that backward did not reach raises RuntimeError naming ``where``, and a
    NaN or infinite norm (some entry is, or their squares overflow) raises
    FloatingPointError naming ``where``."""
    if any(p.grad is None for p in params):
        raise RuntimeError(f"{where}: backward did not reach every trainable parameter")
    norm = math.sqrt(sum(float(np.vdot(p.grad, p.grad)) for p in params))
    if not math.isfinite(norm):
        raise FloatingPointError(f"{where}: non-finite gradient norm {norm!r}")
    return norm


def checked_step(loss: Tensor, opt, where: str) -> float:
    """One optimizer step on a scalar loss, returning its value. A NaN or
    infinite loss or gradient norm, or a parameter backward did not reach,
    raises naming ``where`` before any parameter changes."""
    value = require_finite_loss(loss.item(), where)
    opt.zero_grad()
    loss.backward()
    require_finite_grads(opt.params, where)
    opt.step()
    return value


def student_train_step(batch, teachers, student, cfg: DistillConfig, opt,
                       where: str = "student") -> LossBreakdown:
    """One optimizer step of the student against frozen teachers.

    ``teachers`` is (text_teacher, audio_teacher); their parameters receive no
    gradients (they are evaluated outside the tape). With alpha = 0 the
    teacher outputs scale the loss by exactly zero and cannot affect the
    gradient. A NaN or infinite loss, or gradient norm, raises
    FloatingPointError naming ``where`` before any parameter changes.
    """
    n = batch.labels.shape[0]
    if batch.token_ids.shape[0] != n or batch.mfcc.shape[0] != n:
        raise ValueError(
            f"batch size mismatch: text {batch.token_ids.shape[0]}, "
            f"audio {batch.mfcc.shape[0]}, labels {n}"
        )
    text_teacher, audio_teacher = teachers
    p_text = text_teacher.predict_probs(batch.token_ids, batch.mask, temperature=cfg.temperature)
    p_audio = audio_teacher.predict_probs(batch.mfcc, temperature=cfg.temperature)
    p_mix = combine_teacher_targets(p_text, p_audio, cfg.teacher_mix_beta)
    logits = student.forward_logits(batch.token_ids, batch.mask, batch.mfcc)
    loss, breakdown = distill_loss_tensors(p_mix, logits, one_hot(batch.labels), cfg)
    checked_step(loss, opt, where)
    return breakdown

"""Attention-weighted fusion of batches of text and audio vectors.

Each modality is projected into a shared d_h-dimensional space, a shared
scoring row produces one scalar per modality, and a 2-way softmax turns the
scores into convex combination weights over the two projected vectors. The
multi-head variant runs several independent fusion blocks and mixes their
concatenated outputs through an output projection.
"""

from __future__ import annotations

from .encoders import Block, linear, uniform_param, zeros_param
from .tensor import ShapeError, Tensor, _as_tensor, concat, softmax

__all__ = ["FusionParams", "MultiHeadFusion", "fuse_attention", "multi_head_fuse"]


class FusionParams(Block):
    """One fusion block: per-modality projections plus the shared scorer."""

    def __init__(self, d_t: int, d_a: int, d_h: int, *, rng):
        self.w_t = uniform_param(rng, (d_h, d_t), fan_in=d_t)
        self.b_t = zeros_param(d_h)
        self.w_a = uniform_param(rng, (d_h, d_a), fan_in=d_a)
        self.b_a = zeros_param(d_h)
        self.w_e = uniform_param(rng, (1, d_h), fan_in=d_h)
        self.b_e = zeros_param(1)


def fuse_attention(x_t, x_a, p: FusionParams) -> tuple[Tensor, Tensor]:
    """Fuse a (B, d_t) batch of text vectors with a (B, d_a) batch of audio
    vectors, row by row.

    Returns (h_f, weights): h_f = w0 * h_t + w1 * h_a where h_m are the
    projected modality vectors and (w0, w1) is the softmax of their scores.
    h_f is componentwise inside [min(h_t, h_a), max(h_t, h_a)].
    """
    xt, xa = _as_tensor(x_t), _as_tensor(x_a)
    h_t = linear(xt, p.w_t, p.b_t)
    h_a = linear(xa, p.w_a, p.b_a)
    if xt.data.shape[0] != xa.data.shape[0]:
        raise ShapeError(f"text batch {xt.data.shape[0]} != audio batch {xa.data.shape[0]}")
    e = concat([linear(h_t, p.w_e, p.b_e), linear(h_a, p.w_e, p.b_e)], axis=1)
    weights = softmax(e, axis=1)
    return weights[:, 0:1] * h_t + weights[:, 1:2] * h_a, weights


class MultiHeadFusion(Block):
    """H independent fusion blocks; concatenated outputs pass through an
    output projection (d_h, H * d_h). H = 1 with an identity projection and
    zero bias reduces exactly to the single block."""

    def __init__(self, d_t: int, d_a: int, d_h: int, n_heads: int = 4, *, rng):
        if n_heads < 1:
            raise ValueError(f"n_heads must be >= 1, got {n_heads}")
        self.heads = [FusionParams(d_t, d_a, d_h, rng=rng) for _ in range(n_heads)]
        self.w_out = uniform_param(rng, (d_h, n_heads * d_h), fan_in=n_heads * d_h)
        self.b_out = zeros_param(d_h)


def multi_head_fuse(x_t, x_a, mp: MultiHeadFusion) -> tuple[Tensor, Tensor]:
    """Returns (h_f, weights) with weights stacked (B, H, 2): one convex pair
    per head."""
    outs, ws = [], []
    for head in mp.heads:
        h_k, w_k = fuse_attention(x_t, x_a, head)
        outs.append(h_k)
        ws.append(w_k.reshape(w_k.data.shape[0], 1, 2))
    return linear(concat(outs, axis=1), mp.w_out, mp.b_out), concat(ws, axis=1)

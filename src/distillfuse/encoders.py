"""Sequence encoders: a small masked-attention text encoder with optional
low-rank adapters, a bidirectional LSTM for frame features, and a 2-way
classification head.

Weight matrices are stored in (out_features, in_features) orientation and
applied as x @ W.T + b. Initialization is uniform(-1/sqrt(fan_in),
+1/sqrt(fan_in)) for weights and zero for biases, drawn from a caller-supplied
seeded generator.

``TextEncoder.forward`` and the BiLSTM's ``final_states``/``mean_states``
have two forwards. When the call can record a tape (grad mode on and some
weight requiring grad) they run op by op through ``Tensor``. Otherwise they
run on plain numpy arrays with the same float operations in the same order,
so both give bit-identical outputs.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    Parameter,
    ShapeError,
    Tensor,
    concat,
    embedding,
    records_tape,
    softmax,
    softmax_np,
)

__all__ = [
    "BiLstm",
    "ClassifierHead",
    "LoraAdapter",
    "TextEncoder",
    "layer_norm",
    "linear",
    "lora_effective_weight",
    "uniform_param",
    "zeros_param",
]

MASK_NEG = -1e30  # additive stand-in for -inf on padded attention scores


def uniform_param(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Parameter:
    bound = 1.0 / np.sqrt(fan_in)
    return Parameter(rng.uniform(-bound, bound, size=shape))


def zeros_param(shape) -> Parameter:
    return Parameter(np.zeros(shape))


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ W.T (+ b) with W in (out_features, in_features) orientation."""
    out = x @ w.transpose(1, 0)
    return out if b is None else out + b


def layer_norm(x: Tensor, gamma: Parameter, beta: Parameter, eps: float = 1e-5) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / ((var + eps) ** 0.5) * gamma + beta


def _linear_np(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``linear`` on plain arrays, in its op order."""
    out = x @ w.T
    out += b
    return out


def _layer_norm_np(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                   eps: float = 1e-5) -> np.ndarray:
    """``layer_norm`` on plain arrays, in its op order (``** 0.5`` is sqrt)."""
    out = x - x.mean(axis=-1, keepdims=True)
    var = (out * out).mean(axis=-1, keepdims=True)
    var += eps
    out /= np.sqrt(var, out=var)
    out *= gamma
    out += beta
    return out


class LoraAdapter:
    """Low-rank update for a frozen (d_out, d_in) weight: W0 + (alpha/r) B A.

    A is (r, d_in), initialized uniform(+-1/sqrt(d_in)); B is (d_out, r),
    initialized to zero so the adapted weight starts exactly at W0.
    """

    def __init__(self, d_out: int, d_in: int, rank: int = 8, alpha: float = 32.0, *, rng):
        if rank < 1 or rank > min(d_out, d_in):
            raise ValueError(f"rank must lie in [1, {min(d_out, d_in)}], got {rank}")
        self.rank = rank
        self.alpha = float(alpha)
        self.a = uniform_param(rng, (rank, d_in), fan_in=d_in)
        self.b = zeros_param((d_out, rank))

    @property
    def scale(self) -> float:
        return self.alpha / self.rank

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        return [(prefix + "a", self.a), (prefix + "b", self.b)]


def lora_effective_weight(w0: Tensor, adapter: LoraAdapter) -> Tensor:
    """W0 + (alpha / rank) * B @ A; the update must match W0's shape."""
    d_out, d_in = w0.data.shape
    if adapter.b.data.shape[0] != d_out or adapter.a.data.shape[1] != d_in:
        raise ShapeError(
            f"adapter update shape ({adapter.b.data.shape[0]}, {adapter.a.data.shape[1]}) "
            f"does not match base weight {w0.data.shape}"
        )
    return w0 + adapter.scale * (adapter.b @ adapter.a)


class EncoderLayer:
    """Masked multi-head self-attention + position-wise feed-forward, each
    followed by residual + layer normalization."""

    def __init__(self, d_model: int, n_heads: int, d_ff: int, *, rng,
                 lora_rank: int = 0, lora_alpha: float = 32.0):
        d = d_model
        self.n_heads = n_heads
        self.wq = uniform_param(rng, (d, d), fan_in=d)
        self.wk = uniform_param(rng, (d, d), fan_in=d)
        self.wv = uniform_param(rng, (d, d), fan_in=d)
        self.wo = uniform_param(rng, (d, d), fan_in=d)
        self.bq = zeros_param(d)
        self.bk = zeros_param(d)
        self.bv = zeros_param(d)
        self.bo = zeros_param(d)
        self.w1 = uniform_param(rng, (d_ff, d), fan_in=d)
        self.b1 = zeros_param(d_ff)
        self.w2 = uniform_param(rng, (d, d_ff), fan_in=d_ff)
        self.b2 = zeros_param(d)
        self.ln1_g = Parameter(np.ones(d))
        self.ln1_b = zeros_param(d)
        self.ln2_g = Parameter(np.ones(d))
        self.ln2_b = zeros_param(d)
        if lora_rank:
            self.lora_q = LoraAdapter(d, d, lora_rank, lora_alpha, rng=rng)
            self.lora_v = LoraAdapter(d, d, lora_rank, lora_alpha, rng=rng)
        else:
            self.lora_q = None
            self.lora_v = None

    def forward(self, x: Tensor, add_mask: np.ndarray) -> Tensor:
        b, l, d = x.data.shape
        h = self.n_heads
        dh = d // h
        wq = lora_effective_weight(self.wq, self.lora_q) if self.lora_q else self.wq
        wv = lora_effective_weight(self.wv, self.lora_v) if self.lora_v else self.wv
        q = linear(x, wq, self.bq).reshape(b, l, h, dh).transpose(0, 2, 1, 3)
        k = linear(x, self.wk, self.bk).reshape(b, l, h, dh).transpose(0, 2, 1, 3)
        v = linear(x, wv, self.bv).reshape(b, l, h, dh).transpose(0, 2, 1, 3)
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(dh)) + Tensor(add_mask)
        attn = softmax(scores, axis=-1)
        ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, l, d)
        x = layer_norm(x + linear(ctx, self.wo, self.bo), self.ln1_g, self.ln1_b)
        ff = linear(linear(x, self.w1, self.b1).relu(), self.w2, self.b2)
        return layer_norm(x + ff, self.ln2_g, self.ln2_b)

    def forward_np(self, x: np.ndarray, add_mask: np.ndarray) -> np.ndarray:
        """``forward`` on plain arrays, for calls that record no tape."""
        b, l, d = x.shape
        h = self.n_heads
        dh = d // h
        wq = lora_effective_weight(self.wq, self.lora_q).data if self.lora_q else self.wq.data
        wv = lora_effective_weight(self.wv, self.lora_v).data if self.lora_v else self.wv.data
        q = _linear_np(x, wq, self.bq.data).reshape(b, l, h, dh).transpose(0, 2, 1, 3)
        k = _linear_np(x, self.wk.data, self.bk.data).reshape(b, l, h, dh).transpose(0, 2, 1, 3)
        v = _linear_np(x, wv, self.bv.data).reshape(b, l, h, dh).transpose(0, 2, 1, 3)
        scores = q @ k.transpose(0, 1, 3, 2)
        scores *= 1.0 / np.sqrt(dh)
        scores += add_mask
        attn = softmax_np(scores, axis=-1, out=scores)
        ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, l, d)
        y = _linear_np(ctx, self.wo.data, self.bo.data)
        y += x
        x = _layer_norm_np(y, self.ln1_g.data, self.ln1_b.data)
        ff = _linear_np(x, self.w1.data, self.b1.data)
        ff = _linear_np(np.maximum(ff, 0.0, out=ff), self.w2.data, self.b2.data)
        ff += x
        return _layer_norm_np(ff, self.ln2_g.data, self.ln2_b.data)

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        out = [
            (prefix + n, getattr(self, n))
            for n in ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo",
                      "w1", "b1", "w2", "b2", "ln1_g", "ln1_b", "ln2_g", "ln2_b")
        ]
        if self.lora_q:
            out += self.lora_q.named_parameters(prefix + "lora_q.")
            out += self.lora_v.named_parameters(prefix + "lora_v.")
        return out


class TextEncoder:
    """Token + learned positional embeddings, n_layers of masked self-attention
    blocks, pooled by the position-0 ([cls]) hidden state.

    Padded positions are excluded from attention at every layer (score forced
    to -inf before the softmax), so pooled output is invariant to the token
    ids sitting beyond the mask.
    """

    def __init__(self, vocab_size: int, d_model: int = 64, n_layers: int = 2,
                 n_heads: int = 4, d_ff: int = 128, max_len: int = 512, *, rng,
                 lora_rank: int = 0, lora_alpha: float = 32.0):
        if d_model % n_heads != 0:
            raise ValueError(f"d_model {d_model} not divisible by n_heads {n_heads}")
        self.vocab_size = vocab_size
        self.d_model = d_model
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.d_ff = d_ff
        self.max_len = max_len
        self.tok_emb = uniform_param(rng, (vocab_size, d_model), fan_in=d_model)
        self.pos_emb = uniform_param(rng, (max_len, d_model), fan_in=d_model)
        self.layers = [
            EncoderLayer(d_model, n_heads, d_ff, rng=rng,
                         lora_rank=lora_rank, lora_alpha=lora_alpha)
            for _ in range(n_layers)
        ]

    def forward(self, ids: np.ndarray, mask: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        mask = np.asarray(mask, dtype=np.float64)
        if ids.ndim == 1:
            ids, mask = ids[None, :], mask[None, :]
        b, l = ids.shape
        if l > self.max_len:
            raise ValueError(f"sequence length {l} exceeds max_len {self.max_len}")
        if ids.max() >= self.vocab_size or ids.min() < 0:
            raise IndexError(
                f"token id out of range for vocabulary of size {self.vocab_size}"
            )
        add_mask = ((mask - 1.0) * -MASK_NEG)[:, None, None, :]
        if not records_tape(*(p for _, p in self.named_parameters())):
            x = self.tok_emb.data[ids]
            x += self.pos_emb.data[:l]
            for layer in self.layers:
                x = layer.forward_np(x, add_mask)
            return Tensor(x[:, 0, :])
        x = embedding(self.tok_emb, ids) + embedding(self.pos_emb, np.arange(l))
        for layer in self.layers:
            x = layer.forward(x, add_mask)
        return x[:, 0, :]

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        out = [("tok_emb", self.tok_emb), ("pos_emb", self.pos_emb)]
        for i, layer in enumerate(self.layers):
            out += layer.named_parameters(f"layer{i}.")
        return out

    def base_parameters(self) -> list[Parameter]:
        """Everything except the low-rank adapters."""
        return [p for n, p in self.named_parameters() if ".lora_" not in n]

    def freeze_base(self) -> None:
        for p in self.base_parameters():
            p.freeze()


class BiLstm:
    """Bidirectional LSTM over (B, T, input_dim) frame batches.

    Gate order in the packed (4H, .) weights is input, forget, cell, output;
    the cell follows c = f*c + i*g, h = o*tanh(c). ``final_states`` returns
    [h_forward_last, h_backward_last]; ``mean_states`` returns the per-frame
    hidden states averaged over time, both (B, 2H).
    """

    def __init__(self, input_dim: int = 13, hidden_dim: int = 32, *, rng):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        h, d = hidden_dim, input_dim
        self.wx_f = uniform_param(rng, (4 * h, d), fan_in=d)
        self.wh_f = uniform_param(rng, (4 * h, h), fan_in=h)
        self.b_f = zeros_param(4 * h)
        self.wx_b = uniform_param(rng, (4 * h, d), fan_in=d)
        self.wh_b = uniform_param(rng, (4 * h, h), fan_in=h)
        self.b_b = zeros_param(4 * h)

    def _run(self, x: np.ndarray, wx: Tensor, wh: Tensor, b: Tensor,
             reverse: bool) -> tuple[Tensor, Tensor]:
        bsz, t_steps, d = x.shape
        if d != self.input_dim:
            raise ShapeError(f"expected feature dim {self.input_dim}, got {d}")
        if not records_tape(wx, wh, b):
            hs, mean = _lstm_np(np.asarray(x, dtype=np.float64), wx.data, wh.data, b.data,
                                self.hidden_dim, reverse)
            return Tensor(hs), Tensor(mean)
        h = self.hidden_dim
        wx_t = wx.transpose(1, 0)
        wh_t = wh.transpose(1, 0)
        hs = Tensor(np.zeros((bsz, h)))
        cs = Tensor(np.zeros((bsz, h)))
        h_sum = None
        order = range(t_steps - 1, -1, -1) if reverse else range(t_steps)
        for t in order:
            z = Tensor(x[:, t, :]) @ wx_t + hs @ wh_t + b
            i = z[:, 0 * h : 1 * h].sigmoid()
            f = z[:, 1 * h : 2 * h].sigmoid()
            g = z[:, 2 * h : 3 * h].tanh()
            o = z[:, 3 * h : 4 * h].sigmoid()
            cs = f * cs + i * g
            hs = o * cs.tanh()
            h_sum = hs if h_sum is None else h_sum + hs
        return hs, h_sum * (1.0 / t_steps)

    def _weights(self, transform=None):
        names = ("wx_f", "wh_f", "b_f", "wx_b", "wh_b", "b_b")
        if transform is None:
            return {n: getattr(self, n) for n in names}
        return {n: transform(n, getattr(self, n)) for n in names}

    def final_states(self, x: np.ndarray, transform=None) -> Tensor:
        w = self._weights(transform)
        hf, _ = self._run(x, w["wx_f"], w["wh_f"], w["b_f"], reverse=False)
        hb, _ = self._run(x, w["wx_b"], w["wh_b"], w["b_b"], reverse=True)
        return concat([hf, hb], axis=1)

    def mean_states(self, x: np.ndarray, transform=None) -> Tensor:
        w = self._weights(transform)
        _, mf = self._run(x, w["wx_f"], w["wh_f"], w["b_f"], reverse=False)
        _, mb = self._run(x, w["wx_b"], w["wh_b"], w["b_b"], reverse=True)
        return concat([mf, mb], axis=1)

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        return [(n, getattr(self, n)) for n in ("wx_f", "wh_f", "b_f", "wx_b", "wh_b", "b_b")]


def _lstm_np(x: np.ndarray, wx: np.ndarray, wh: np.ndarray, b: np.ndarray, h: int,
             reverse: bool) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM direction on plain arrays: ``BiLstm._run``'s float ops in its
    order, with the three sigmoids done at once, in place, over the packed
    gates once the cell slice's tanh is taken."""
    bsz, t_steps, _ = x.shape
    wx_t, wh_t = wx.T, wh.T
    hs = np.zeros((bsz, h))
    cs = np.zeros((bsz, h))
    h_sum = None
    order = range(t_steps - 1, -1, -1) if reverse else range(t_steps)
    for t in order:
        z = x[:, t, :] @ wx_t
        z += hs @ wh_t
        z += b
        g = np.tanh(z[:, 2 * h : 3 * h])
        z *= 0.5  # sigmoid(z) = 0.5 * (1 + tanh(z / 2)), as Tensor.sigmoid
        np.tanh(z, out=z)
        z += 1.0
        z *= 0.5
        cs = z[:, 1 * h : 2 * h] * cs
        cs += z[:, 0 * h : 1 * h] * g
        hs = z[:, 3 * h : 4 * h] * np.tanh(cs)
        if h_sum is None:
            h_sum = hs.copy()
        else:
            h_sum += hs
    return hs, h_sum * (1.0 / t_steps)


class ClassifierHead:
    """Affine map to 2 logits."""

    def __init__(self, d_in: int, n_classes: int = 2, *, rng):
        self.w = uniform_param(rng, (n_classes, d_in), fan_in=d_in)
        self.b = zeros_param(n_classes)

    def logits(self, features: Tensor) -> Tensor:
        return linear(features, self.w, self.b)

    def named_parameters(self, prefix: str = "head.") -> list[tuple[str, Parameter]]:
        return [(prefix + "w", self.w), (prefix + "b", self.b)]

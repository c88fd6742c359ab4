"""Sequence encoders: a small masked-attention text encoder with optional
low-rank adapters, a bidirectional LSTM for frame features, and a 2-way
classification head.

Weight matrices are stored in (out_features, in_features) orientation and
applied as x @ W.T + b. Initialization is uniform(-1/sqrt(fan_in),
+1/sqrt(fan_in)) for weights and zero for biases, drawn from a caller-supplied
seeded generator.

Each encoder has one forward body, and the type of its operands picks the
mode. On ``Tensor``s every op records the tape; on plain numpy arrays the
same float operations run in the same order with no tape, so both give
bit-identical outputs. ``TextEncoder.forward`` and the BiLSTM's
``final_states``/``mean_states`` hand the body arrays exactly when the call
cannot record a tape: grad mode is off, or no weight requires grad.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    Parameter,
    ShapeError,
    Tensor,
    concat,
    records_tape,
    softmax,
    softmax_np,
)

__all__ = [
    "BiLstm",
    "Block",
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


def uniform_param(rng: np.random.Generator | None, shape: tuple[int, ...],
                  fan_in: int) -> Parameter:
    """Zeros when ``rng`` is None, for weights that are about to be loaded."""
    if rng is None:
        return zeros_param(shape)
    bound = 1.0 / np.sqrt(fan_in)
    return Parameter(rng.uniform(-bound, bound, size=shape))


def zeros_param(shape) -> Parameter:
    return Parameter(np.zeros(shape))


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ W.T (+ b) with W in (out_features, in_features) orientation; all
    Tensors or all arrays."""
    out = x @ w.transpose(1, 0)
    if b is not None:
        out += b  # in place on an array
    return out


def layer_norm(x: Tensor, gamma: Parameter, beta: Parameter, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis; all Tensors or all arrays."""
    out = x - x.mean(axis=-1, keepdims=True)
    var = (out * out).mean(axis=-1, keepdims=True)
    var += eps
    out /= var ** 0.5
    out *= gamma
    out += beta
    return out


# Activations on Tensors or arrays; on an array each runs Tensor's float
# expression. relu and softmax overwrite an array, so pass them a fresh one.


def _relu(x):
    return x.relu() if isinstance(x, Tensor) else np.maximum(x, 0.0, out=x)


def _sigmoid(x):
    return x.sigmoid() if isinstance(x, Tensor) else 0.5 * (1.0 + np.tanh(0.5 * x))


def _tanh(x):
    return x.tanh() if isinstance(x, Tensor) else np.tanh(x)


def _softmax(x):
    return softmax(x, axis=-1) if isinstance(x, Tensor) else softmax_np(x, axis=-1, out=x)


class Block:
    """A part whose weights are named in the order ``__init__`` assigns them:
    a ``Tensor`` attribute by its name, a ``Block`` one as ``attr.`` plus its
    own names, and item i of a list as ``layer0.`` for ``layers`` (a final "s"
    dropped). Anything else, such as sizes or an absent adapter, is skipped."""

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out = []
        for attr, value in vars(self).items():
            if isinstance(value, Tensor):
                out.append((prefix + attr, value))
            elif isinstance(value, Block):
                out += value.named_parameters(f"{prefix}{attr}.")
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    out += item.named_parameters(f"{prefix}{attr.removesuffix('s')}{i}.")
        return out


class LoraAdapter(Block):
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


def lora_effective_weight(w0: Tensor, adapter: LoraAdapter) -> Tensor:
    """W0 + (alpha / rank) * B @ A; the update must match W0's shape."""
    d_out, d_in = w0.data.shape
    if adapter.b.data.shape[0] != d_out or adapter.a.data.shape[1] != d_in:
        raise ShapeError(
            f"adapter update shape ({adapter.b.data.shape[0]}, {adapter.a.data.shape[1]}) "
            f"does not match base weight {w0.data.shape}"
        )
    return w0 + adapter.scale * (adapter.b @ adapter.a)


class EncoderLayer(Block):
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
        self.lora_q = self.lora_v = None
        if lora_rank:
            self.lora_q = LoraAdapter(d, d, lora_rank, lora_alpha, rng=rng)
            self.lora_v = LoraAdapter(d, d, lora_rank, lora_alpha, rng=rng)

    def forward(self, x: Tensor, add_mask: np.ndarray) -> Tensor:
        """One block over ``x``: a Tensor records the tape, a plain array runs
        on the weights' arrays."""
        w = (lambda p: p) if isinstance(x, Tensor) else (lambda p: p.data)
        b, l, d = x.shape
        h = self.n_heads
        dh = d // h
        wq = lora_effective_weight(self.wq, self.lora_q) if self.lora_q else self.wq
        wv = lora_effective_weight(self.wv, self.lora_v) if self.lora_v else self.wv
        q = linear(x, w(wq), w(self.bq)).reshape(b, l, h, dh).transpose(0, 2, 1, 3)
        k = linear(x, w(self.wk), w(self.bk)).reshape(b, l, h, dh).transpose(0, 2, 1, 3)
        v = linear(x, w(wv), w(self.bv)).reshape(b, l, h, dh).transpose(0, 2, 1, 3)
        scores = q @ k.transpose(0, 1, 3, 2)
        scores *= 1.0 / np.sqrt(dh)
        scores += add_mask
        ctx = (_softmax(scores) @ v).transpose(0, 2, 1, 3).reshape(b, l, d)
        x = layer_norm(x + linear(ctx, w(self.wo), w(self.bo)), w(self.ln1_g), w(self.ln1_b))
        ff = linear(_relu(linear(x, w(self.w1), w(self.b1))), w(self.w2), w(self.b2))
        return layer_norm(x + ff, w(self.ln2_g), w(self.ln2_b))


class TextEncoder(Block):
    """Token + learned positional embeddings of (batch, length) ids, n_layers
    of masked self-attention blocks, pooled by the position-0 ([cls]) state.

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
        if ids.ndim != 2 or mask.shape != ids.shape:
            raise ShapeError(f"ids and mask must both be (batch, length), got ids "
                             f"{ids.shape} and mask {mask.shape}")
        l = ids.shape[1]
        if l > self.max_len:
            raise ValueError(f"sequence length {l} exceeds max_len {self.max_len}")
        if ids.max() >= self.vocab_size or ids.min() < 0:
            raise IndexError(f"token id out of range for vocabulary of size {self.vocab_size}")
        add_mask = ((mask - 1.0) * -MASK_NEG)[:, None, None, :]
        taped = records_tape(*(p for _, p in self.named_parameters()))
        w = (lambda p: p) if taped else (lambda p: p.data)
        x = w(self.tok_emb)[ids]
        x += w(self.pos_emb)[:l]
        for layer in self.layers:
            x = layer.forward(x, add_mask)
        return x[:, 0, :] if taped else Tensor(x[:, 0, :])

    def base_parameters(self) -> list[Parameter]:
        """Everything except the low-rank adapters."""
        return [p for n, p in self.named_parameters() if ".lora_" not in n]

    def freeze_base(self) -> None:
        for p in self.base_parameters():
            p.freeze()


class BiLstm(Block):
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
        taped = records_tape(wx, wh, b)
        if not taped:
            x, wx, wh, b = np.asarray(x, dtype=np.float64), wx.data, wh.data, b.data
        wrap = Tensor if taped else np.asarray
        h = self.hidden_dim
        wx_t, wh_t = wx.transpose(1, 0), wh.transpose(1, 0)
        hs, cs = wrap(np.zeros((bsz, h))), wrap(np.zeros((bsz, h)))
        h_sum = None
        order = range(t_steps - 1, -1, -1) if reverse else range(t_steps)
        for t in order:
            z = wrap(x[:, t, :]) @ wx_t
            z += hs @ wh_t
            z += b
            i = _sigmoid(z[:, 0 * h : 1 * h])
            f = _sigmoid(z[:, 1 * h : 2 * h])
            g = _tanh(z[:, 2 * h : 3 * h])
            o = _sigmoid(z[:, 3 * h : 4 * h])
            cs = f * cs
            cs += i * g
            hs = o * _tanh(cs)
            if h_sum is None:
                h_sum = hs
            else:
                h_sum += hs
        mean = h_sum * (1.0 / t_steps)
        return (hs, mean) if taped else (Tensor(hs), Tensor(mean))

    def _directions(self, x: np.ndarray, transform=None):
        """``_run``'s (forward, backward) outputs, each weight first passed
        through ``transform(name, param)`` when one is given."""
        w = {n: transform(n, p) if transform else p for n, p in self.named_parameters()}
        return (self._run(x, w["wx_f"], w["wh_f"], w["b_f"], reverse=False),
                self._run(x, w["wx_b"], w["wh_b"], w["b_b"], reverse=True))

    def final_states(self, x: np.ndarray, transform=None) -> Tensor:
        (hf, _), (hb, _) = self._directions(x, transform)
        return concat([hf, hb], axis=1)

    def mean_states(self, x: np.ndarray, transform=None) -> Tensor:
        (_, mf), (_, mb) = self._directions(x, transform)
        return concat([mf, mb], axis=1)


class ClassifierHead(Block):
    """Affine map to 2 logits."""

    def __init__(self, d_in: int, n_classes: int = 2, *, rng):
        self.w = uniform_param(rng, (n_classes, d_in), fan_in=d_in)
        self.b = zeros_param(n_classes)

    def logits(self, features: Tensor) -> Tensor:
        return linear(features, self.w, self.b)

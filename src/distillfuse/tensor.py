"""Dense float64 tensors with reverse-mode automatic differentiation.

Eager tape-based autodiff: every operation whose operands require gradients
records a backward closure; ``Tensor.backward()`` walks the recorded graph in
reverse topological order and accumulates gradients into the leaves. All math
runs on row-major numpy float64 arrays. Operations where no operand requires a
gradient skip the tape entirely, so inference through frozen models allocates
no graph. Inference through trainable models runs under ``no_grad()``, which
skips the tape for every operation its thread runs until the block exits.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "DomainError",
    "Parameter",
    "ShapeError",
    "Tensor",
    "clamp_min",
    "concat",
    "embedding",
    "no_grad",
    "records_tape",
    "softmax",
    "softmax_np",
]


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class DomainError(ValueError):
    """Operand values lie outside the mathematical domain of the operation."""


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the axes broadcasting expanded to reach ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _accum(t: "Tensor", g: np.ndarray) -> None:
    """Add ``g`` (shaped like ``t``) into ``t.grad``.

    The first write stores a copy of ``g``: callers may pass the same array to
    several parents, or a read-only broadcast view, so ``t`` must never keep
    ``g`` itself. The copy is C order whatever ``g``'s layout; keeping an
    F-ordered layout sends it into BLAS on a different path and changes the
    last bits of results. Later writes add in place into the buffer ``t``
    owns.
    """
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, order="C")
    else:
        t.grad += g
    t._grad_seen = True


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Record no tape in this thread inside the block: every op returns a
    tensor with no parents and ``requires_grad=False``. Nests; the previous
    mode returns when the block exits, by exception too."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def records_tape(*tensors: "Tensor") -> bool:
    """True when an op over ``tensors`` records a tape node: grad mode is on
    in this thread and some tensor requires grad. Code with a plain-numpy
    forward may take it exactly when this is False."""
    return _grad_mode.enabled and any(t.requires_grad for t in tensors)


def _make(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
    out = Tensor(data)
    if not _grad_mode.enabled:
        return out
    live = [p for p in parents if p.requires_grad]
    if live:
        out.requires_grad = True
        out._parents = live
        out._backward = backward
    return out


def _bcast_check(a: "Tensor", b: "Tensor", opname: str) -> None:
    if a.data.shape == b.data.shape:
        return
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(
            f"{opname}: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None


class Tensor:
    """A dense row-major float64 array plus tape hooks for backprop.

    Data is treated as immutable once the tensor is built (only the optimizer
    mutates parameter values, between graph lifetimes); gradients accumulate
    in ``.grad`` as plain float64 arrays of the same shape.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_grad_seen")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: list[Tensor] | tuple[()] = ()
        self._backward = None
        self._grad_seen = False

    # ------------------------------------------------------------------ misc

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single element, got shape {self.data.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -------------------------------------------------------------- backward

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``.grad``.

        ``self`` must hold exactly one element; gradients of leaves not on the
        recorded graph are left untouched.
        """
        if self.data.size != 1:
            raise RuntimeError(
                f"backward requires a scalar tensor, got shape {self.data.shape}"
            )
        # Iterative post-order DFS. A None on the stack marks that the node
        # below it has had all its parents expanded and goes into ``order``.
        order: list[Tensor] = []
        visited: set[Tensor] = set()
        stack: list[Tensor | None] = [self]
        push, pop = stack.append, stack.pop
        while stack:
            node = pop()
            if node is None:
                order.append(pop())
                continue
            if node in visited:
                continue
            visited.add(node)
            push(node)
            push(None)
            for p in node._parents:
                if p not in visited:
                    push(p)
        self.grad = np.ones_like(self.data)
        self._grad_seen = True
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other)
        _bcast_check(self, other, "add")
        out = self.data + other.data

        def backward(g, a=self, b=other):
            if a.requires_grad:
                _accum(a, _unbroadcast(g, a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(g, b.data.shape))

        return _make(out, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = _as_tensor(other)
        _bcast_check(self, other, "sub")
        out = self.data - other.data

        def backward(g, a=self, b=other):
            if a.requires_grad:
                _accum(a, _unbroadcast(g, a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(-g, b.data.shape))

        return _make(out, (self, other), backward)

    def __mul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        _bcast_check(self, other, "mul")
        out = self.data * other.data

        def backward(g, a=self, b=other):
            if a.requires_grad:
                _accum(a, _unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(g * a.data, b.data.shape))

        return _make(out, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _as_tensor(other)
        _bcast_check(self, other, "div")
        out = self.data / other.data

        def backward(g, a=self, b=other):
            if a.requires_grad:
                _accum(a, _unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

        return _make(out, (self, other), backward)

    def __neg__(self) -> "Tensor":
        out = -self.data

        def backward(g, a=self):
            if a.requires_grad:
                _accum(a, -g)

        return _make(out, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        p = float(exponent)
        if p != int(p) and np.any(self.data < 0.0):
            raise DomainError(f"pow: negative base with non-integer exponent {p}")
        out = self.data**p

        def backward(g, a=self, p=p):
            if a.requires_grad:
                _accum(a, g * p * a.data ** (p - 1.0))

        return _make(out, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError(f"matmul: operands must be >= 2-d, got {a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
        if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
            try:
                np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
            except ValueError:
                raise ShapeError(
                    f"matmul: batch dimensions do not broadcast, {a.shape} @ {b.shape}"
                ) from None
        out = a @ b

        def backward(g, ta=self, tb=other):
            if ta.requires_grad:
                _accum(ta, _unbroadcast(g @ tb.data.swapaxes(-1, -2), ta.data.shape))
            if tb.requires_grad:
                _accum(tb, _unbroadcast(ta.data.swapaxes(-1, -2) @ g, tb.data.shape))

        return _make(out, (self, other), backward)

    # ------------------------------------------------------------ activations

    def log(self) -> "Tensor":
        if np.any(self.data <= 0.0):
            raise DomainError("log: non-positive input value")
        out = np.log(self.data)

        def backward(g, a=self):
            if a.requires_grad:
                _accum(a, g / a.data)

        return _make(out, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # 0.5 * (1 + tanh(x / 2)) is overflow-free for any float64 input
        out = 0.5 * (1.0 + np.tanh(0.5 * self.data))

        def backward(g, a=self, y=out):
            if a.requires_grad:
                _accum(a, g * y * (1.0 - y))

        return _make(out, (self,), backward)

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)

        def backward(g, a=self, y=out):
            if a.requires_grad:
                _accum(a, g * (1.0 - y * y))

        return _make(out, (self,), backward)

    def relu(self) -> "Tensor":
        out = np.maximum(self.data, 0.0)

        def backward(g, a=self):
            if a.requires_grad:
                _accum(a, g * (a.data > 0.0))

        return _make(out, (self,), backward)

    # ------------------------------------------------------------ reductions

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g, a=self, axis=axis, keepdims=keepdims):
            if not a.requires_grad:
                return
            gg = np.asarray(g)
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            _accum(a, np.broadcast_to(gg, a.data.shape))

        return _make(np.asarray(out), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else _axis_count(self.data.shape, axis)
        out = self.data.mean(axis=axis, keepdims=keepdims)

        def backward(g, a=self, axis=axis, keepdims=keepdims, count=count):
            if not a.requires_grad:
                return
            gg = np.asarray(g) / count
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            _accum(a, np.broadcast_to(gg, a.data.shape))

        return _make(np.asarray(out), (self,), backward)

    # ---------------------------------------------------------- shape moves

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self.data.reshape(shape)

        def backward(g, a=self):
            if a.requires_grad:
                _accum(a, g.reshape(a.data.shape))

        return _make(out, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(range(self.data.ndim))[::-1]
        out = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(g, a=self, inverse=inverse):
            if a.requires_grad:
                _accum(a, g.transpose(inverse))

        return _make(out, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        out = self.data[key]

        if _is_basic_key(key):
            # A basic key addresses each element at most once: add in place.
            def backward(g, a=self, key=key):
                if a.requires_grad:
                    if a.grad is None:
                        a.grad = np.zeros_like(a.data)
                    a.grad[key] += g
                    a._grad_seen = True
        else:
            def backward(g, a=self, key=key):
                if a.requires_grad:
                    buf = np.zeros_like(a.data)
                    np.add.at(buf, key, g)
                    _accum(a, buf)

        return _make(np.asarray(out), (self,), backward)


def _is_basic_key(key) -> bool:
    """True for keys numpy treats as basic indexing: slices, integers (not
    bools), ``None`` and ``Ellipsis``, alone or in a tuple."""
    for k in key if isinstance(key, tuple) else (key,):
        if k is None or k is Ellipsis or isinstance(k, slice):
            continue
        if isinstance(k, (int, np.integer)) and not isinstance(k, bool):
            continue
        return False
    return True


def _axis_count(shape: tuple[int, ...], axis) -> int:
    if isinstance(axis, int):
        axis = (axis,)
    n = 1
    for ax in axis:
        n *= shape[ax]
    return n


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def softmax_np(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable softmax of a plain array along ``axis``: the max is
    subtracted into ``out`` (a fresh array by default; ``out=x`` works in
    place), which is then exponentiated and normalized in place."""
    x = np.asarray(x, dtype=np.float64)
    out = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max subtracted before exp).

    Output rows are strictly positive and sum to 1 along ``axis``.
    """
    y = softmax_np(x.data, axis)

    def backward(g, a=x, y=y, axis=axis):
        if a.requires_grad:
            dot = (g * y).sum(axis=axis, keepdims=True)
            _accum(a, y * (g - dot))

    return _make(y, (x,), backward)


def clamp_min(x: Tensor, lo: float) -> Tensor:
    """Elementwise max(x, lo); gradient passes only where x was not clamped."""
    out = np.maximum(x.data, lo)

    def backward(g, a=x, lo=lo):
        if a.requires_grad:
            _accum(a, g * (a.data > lo))

    return _make(out, (x,), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; shapes must agree on every other axis."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: empty tensor list")
    base = list(tensors[0].data.shape)
    ax = axis % len(base)
    for t in tensors[1:]:
        other = list(t.data.shape)
        if len(other) != len(base) or any(
            i != ax and other[i] != base[i] for i in range(len(base))
        ):
            raise ShapeError(
                f"concat: shape {t.data.shape} does not match {tensors[0].data.shape} "
                f"outside axis {axis}"
            )
    out = np.concatenate([t.data for t in tensors], axis=ax)
    sizes = [t.data.shape[ax] for t in tensors]

    def backward(g, parts=tensors, sizes=sizes, ax=ax):
        start = 0
        for t, n in zip(parts, sizes):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[ax] = slice(start, start + n)
                _accum(t, g[tuple(sl)])
            start += n

    return _make(out, tuple(tensors), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]``; gradient scatters back into the table rows.

    ``ids`` is a plain integer array (no gradient flows into indices).
    """
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"embedding: id out of range for table with {table.data.shape[0]} rows"
        )
    out = table.data[ids]

    def backward(g, t=table, ids=ids):
        if t.requires_grad:
            buf = np.zeros_like(t.data)
            np.add.at(buf, ids, g)
            _accum(t, buf)

    return _make(out, (table,), backward)


class Parameter(Tensor):
    """A trainable leaf tensor. ``grad`` is kept allocated and zeroed."""

    __slots__ = ("trainable",)

    def __init__(self, data, trainable: bool = True):
        super().__init__(data, requires_grad=trainable)
        self.trainable = trainable
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)
        self._grad_seen = False

    def freeze(self) -> None:
        self.trainable = False
        self.requires_grad = False

    def __repr__(self) -> str:
        return f"Parameter(shape={self.data.shape}, trainable={self.trainable})"

"""Dense float64 tensors with reverse-mode automatic differentiation.

Eager tape-based autodiff: every operation whose operands require gradients
gives its result a ``_Node`` holding the result's shape, its parents' nodes
and a backward closure; ``Tensor.backward()`` walks the nodes in reverse
topological order, accumulates gradients into the leaves and frees each
interior node's gradient once its closure has passed it on. A leaf is its
own node, and its ``.grad`` is None until a backward reaches it. The tape
keeps no op result's data: a closure captures only the arrays its backward
reads (the operands of ``*``, ``/`` and ``@`` that a gradient needs, so
``x * c`` with a constant ``c`` keeps ``c`` but not ``x``; the inputs of
``**`` and ``log``; the outputs of ``sigmoid``, ``tanh``, ``softmax``,
``relu`` and ``clamp_min``), so any other result is freed as soon as the
caller drops it. All math runs on row-major numpy float64 arrays.
Operations where no operand requires a gradient skip the tape entirely, so
inference through frozen models allocates no graph. Inference through
trainable models runs under ``no_grad()``, which skips the tape for every
operation its thread runs until the block exits.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "DomainError",
    "ShapeError",
    "Tensor",
    "clamp_min",
    "concat",
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


def _accum(t: "Tensor", g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` (shaped like ``t``) into ``t.grad``.

    The first write takes ``g`` itself when the caller owns it (``owned``: a
    fresh result no one else holds) and it is C-contiguous, writeable float64.
    Otherwise it stores a C-order copy: callers may pass the same array to
    several parents, a view of it or a read-only broadcast view, and keeping
    an F-ordered layout sends it into BLAS on a different path and changes
    the last bits of results. Later writes add in place into ``t``'s buffer.
    """
    if t.grad is None:
        own = owned and g.dtype == np.float64 and g.flags.c_contiguous and g.flags.writeable
        t.grad = g if own else np.array(g, dtype=np.float64, order="C")
    else:
        t.grad += g


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


class _Node:
    """One recorded op: its result's shape, its parents' nodes (None for a
    parent that needs no gradient), its backward closure, called as
    ``backward(g, *parents)``, and, while backward runs, the gradient flowing
    into its result. It references no op result, so no result's data (a
    leaf parent is its own node)."""

    __slots__ = ("shape", "_parents", "_backward", "grad")

    def __init__(self, shape, parents, backward):
        self.shape = shape
        self._parents = parents
        self._backward = backward
        self.grad = None


def _make(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
    out = Tensor(data)
    if _grad_mode.enabled:
        # a plain loop: this runs once per op, and a comprehension costs more
        nodes = []
        live = False
        for p in parents:
            if p.requires_grad:
                nodes.append(p._nd or p)
                live = True
            else:
                nodes.append(None)
        if live:
            out.requires_grad = True
            out._nd = _Node(out.data.shape, nodes, backward)
    return out


def _add_backward(g, a, b):
    """The backward of ``a + b``: it reads only shapes."""
    if a is not None:
        _accum(a, _unbroadcast(g, a.shape))
    if b is not None:
        _accum(b, _unbroadcast(g, b.shape))


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

    An op result's ``_nd`` is its tape node; a leaf (any tensor built
    directly, model weights included, or an untaped result) has none and is
    its own node, with no parents and no backward.

    ``t += u`` is Python's default ``t = t + u``: it rebinds ``t`` to a new
    result with one add node and never writes into a tensor, so any other
    name for the old ``t`` keeps its values and history. Only the optimizer
    mutates parameter values, between graph lifetimes. A leaf's ``.grad``
    is None until a backward reaches it; gradients then accumulate there in
    one C-order float64 array of the leaf's shape.
    """

    __slots__ = ("data", "grad", "requires_grad", "_nd")
    _parents: tuple = ()
    _backward = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._nd: _Node | None = None

    # ------------------------------------------------------------------ misc

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single element, got shape {self.data.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -------------------------------------------------------------- backward

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``.grad``.

        ``self`` must hold exactly one element; gradients of leaves not on the
        recorded graph are left untouched. Only leaves keep ``.grad``: every
        interior node's, ``self``'s included, is None once its closure has run.
        """
        if self.data.size != 1:
            raise RuntimeError(
                f"backward requires a scalar tensor, got shape {self.data.shape}"
            )
        # Iterative post-order DFS. A None on the stack marks that the node
        # below it has had all its parents expanded and goes into ``order``.
        root = self._nd or self
        order: list = []
        visited: set = set()
        stack: list = [root]
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
                if p is not None and p not in visited:
                    push(p)
        root.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad, *node._parents)
                node.grad = None

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other)
        _bcast_check(self, other, "add")
        return _make(self.data + other.data, (self, other), _add_backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = _as_tensor(other)
        _bcast_check(self, other, "sub")
        out = self.data - other.data

        def backward(g, na, nb):
            if na is not None:
                _accum(na, _unbroadcast(g, na.shape))
            if nb is not None:
                _accum(nb, _unbroadcast(-g, nb.shape), owned=True)

        return _make(out, (self, other), backward)

    def __mul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        _bcast_check(self, other, "mul")
        out = self.data * other.data
        a = self.data if other.requires_grad else None
        b = other.data if self.requires_grad else None

        def backward(g, na, nb):
            if na is not None:
                _accum(na, _unbroadcast(g * b, na.shape), owned=True)
            if nb is not None:
                _accum(nb, _unbroadcast(g * a, nb.shape), owned=True)

        return _make(out, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _as_tensor(other)
        _bcast_check(self, other, "div")
        out = self.data / other.data
        a = self.data if other.requires_grad else None
        b = other.data

        def backward(g, na, nb):
            if na is not None:
                _accum(na, _unbroadcast(g / b, na.shape), owned=True)
            if nb is not None:
                _accum(nb, _unbroadcast(-g * a / (b * b), nb.shape), owned=True)

        return _make(out, (self, other), backward)

    def __neg__(self) -> "Tensor":
        return _make(-self.data, (self,), lambda g, na: _accum(na, -g, owned=True))

    def __pow__(self, exponent: float) -> "Tensor":
        p = float(exponent)
        if p != int(p) and np.any(self.data < 0.0):
            raise DomainError(f"pow: negative base with non-integer exponent {p}")
        a = self.data
        return _make(a**p, (self,), lambda g, na: _accum(na, g * p * a ** (p - 1.0), owned=True))

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
        a = self.data if other.requires_grad else None
        b = other.data if self.requires_grad else None

        def backward(g, na, nb):
            if na is not None:
                _accum(na, _unbroadcast(g @ b.swapaxes(-1, -2), na.shape), owned=True)
            if nb is not None:
                _accum(nb, _unbroadcast(a.swapaxes(-1, -2) @ g, nb.shape), owned=True)

        return _make(out, (self, other), backward)

    # ------------------------------------------------------------ activations

    def log(self) -> "Tensor":
        if np.any(self.data <= 0.0):
            raise DomainError("log: non-positive input value")
        a = self.data
        return _make(np.log(a), (self,), lambda g, na: _accum(na, g / a, owned=True))

    def sigmoid(self) -> "Tensor":
        # 0.5 * (1 + tanh(x / 2)) is overflow-free for any float64 input
        y = 0.5 * (1.0 + np.tanh(0.5 * self.data))
        return _make(y, (self,), lambda g, na: _accum(na, g * y * (1.0 - y), owned=True))

    def tanh(self) -> "Tensor":
        y = np.tanh(self.data)
        return _make(y, (self,), lambda g, na: _accum(na, g * (1.0 - y * y), owned=True))

    def relu(self) -> "Tensor":
        # max(x, 0) > 0 exactly where x > 0, NaN included
        y = np.maximum(self.data, 0.0)
        return _make(y, (self,), lambda g, na: _accum(na, g * (y > 0.0), owned=True))

    # ------------------------------------------------------------ reductions

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g, na):
            gg = np.asarray(g)
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            _accum(na, np.broadcast_to(gg, na.shape))

        return _make(np.asarray(out), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else _axis_count(self.data.shape, axis)
        out = self.data.mean(axis=axis, keepdims=keepdims)

        def backward(g, na):
            gg = np.asarray(g) / count
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            _accum(na, np.broadcast_to(gg, na.shape))

        return _make(np.asarray(out), (self,), backward)

    # ---------------------------------------------------------- shape moves

    def reshape(self, *shape) -> "Tensor":
        out = self.data.reshape(shape)
        return _make(out, (self,), lambda g, na: _accum(na, g.reshape(na.shape)))

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(range(self.data.ndim))[::-1]
        out = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))
        return _make(out, (self,), lambda g, na: _accum(na, g.transpose(inverse)))

    def __getitem__(self, key) -> "Tensor":
        out = self.data[key]

        if _is_basic_key(key):
            # A basic key addresses each element at most once: add in place.
            def backward(g, na):
                if na.grad is None:
                    na.grad = np.zeros(na.shape)
                na.grad[key] += g
        else:
            def backward(g, na):
                buf = np.zeros(na.shape)
                np.add.at(buf, key, g)
                _accum(na, buf, owned=True)

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

    def backward(g, na):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accum(na, y * (g - dot), owned=True)

    y = softmax_np(x.data, axis)
    return _make(y, (x,), backward)


def clamp_min(x: Tensor, lo: float) -> Tensor:
    """Elementwise max(x, lo); gradient passes only where x was not clamped
    (max(x, lo) > lo exactly where x > lo, NaN included)."""
    y = np.maximum(x.data, lo)
    return _make(y, (x,), lambda g, na: _accum(na, g * (y > lo), owned=True))


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

    def backward(g, *nodes):
        start = 0
        for nd, n in zip(nodes, sizes):
            if nd is not None:
                sl = [slice(None)] * g.ndim
                sl[ax] = slice(start, start + n)
                _accum(nd, g[tuple(sl)])
            start += n

    return _make(out, tuple(tensors), backward)


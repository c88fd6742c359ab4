"""Autodiff core: every op's backward pass against finite differences, plus
shape/domain error contracts and graph-traversal behavior."""

import gc
import inspect
import operator
import threading
import weakref

import numpy as np
import pytest

from distillfuse import tensor
from distillfuse.optim import SGD
from distillfuse.tensor import (
    DomainError,
    ShapeError,
    Tensor,
    clamp_min,
    concat,
    no_grad,
    records_tape,
    softmax,
    softmax_np,
)
from helpers import capture_grad, check_grads, rel_err, tape_node


def test_tensor_holds_float64_and_shape():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.data.shape == (2, 2)


def test_item_requires_scalar():
    assert Tensor(3.5).item() == 3.5
    with pytest.raises(ValueError):
        Tensor([1.0, 2.0]).item()


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError):
        (t * 2.0).backward()


# ------------------------------------------------------- elementwise grads


def test_add_mul_sub_div_grads():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4)) + 3.0  # keep divisors away from zero
        check_grads(lambda x, y: ((x + y) * (x - y) / y).sum(), [a, b])


def test_broadcast_grads_row_and_scalar():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 5))
    row = rng.normal(size=(5,))
    check_grads(lambda x, r: (x * r + r).sum(), [a, row])
    check_grads(lambda x: (x * 2.5 + 1.0).sum(), [a])


def test_neg_pow_grads():
    rng = np.random.default_rng(2)
    a = rng.uniform(0.5, 2.0, size=(3, 3))
    check_grads(lambda x: (-x).sum(), [a])
    check_grads(lambda x: (x ** 3.0).sum(), [a])
    check_grads(lambda x: (x ** -1.5).sum(), [a])


def test_pow_negative_base_fractional_exponent_rejected():
    t = Tensor([-1.0], requires_grad=True)
    with pytest.raises(DomainError):
        t ** 0.5
    # integer exponents on negative bases are fine
    assert float((t ** 2.0).data[0]) == 1.0


def test_unary_grads():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 5))
    check_grads(lambda x: x.sigmoid().sum(), [a])
    check_grads(lambda x: x.tanh().sum(), [a])
    pos = rng.uniform(0.1, 3.0, size=(2, 5))
    check_grads(lambda x: x.log().sum(), [pos])


def test_log_domain_error():
    with pytest.raises(DomainError):
        Tensor([0.0]).log()
    with pytest.raises(DomainError):
        Tensor([-1.0]).log()


def test_relu_grad_away_from_kink():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(4, 4))
    a[np.abs(a) < 0.05] = 0.5  # keep clear of the nondifferentiable point
    check_grads(lambda x: x.relu().sum(), [a])


def test_relu_zero_gradient_on_negatives():
    t = Tensor([-2.0, 3.0], requires_grad=True)
    t.relu().sum().backward()
    assert t.grad[0] == 0.0 and t.grad[1] == 1.0


def test_sigmoid_stable_at_extreme_inputs():
    y = Tensor([-800.0, 800.0]).sigmoid().data
    assert np.all(np.isfinite(y))
    assert y[0] == pytest.approx(0.0, abs=1e-300)
    assert y[1] == pytest.approx(1.0)


# ------------------------------------------------------- reductions / shape


def test_sum_mean_axis_keepdims_grads():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 4, 2))
    check_grads(lambda x: x.sum().sum(), [a])
    check_grads(lambda x: x.sum(axis=1).sum(), [a])
    check_grads(lambda x: x.mean(axis=(0, 2), keepdims=True).sum(), [a])
    check_grads(lambda x: x.mean().sum(), [a])


def test_mean_value_matches_numpy():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(4, 6))
    got = Tensor(a).mean(axis=1).data
    np.testing.assert_allclose(got, a.mean(axis=1), rtol=0, atol=0)


def test_reshape_transpose_grads():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 3, 4))
    w = rng.normal(size=(24,))
    check_grads(lambda x, v: (x.reshape(24) * v).sum(), [a, w])
    check_grads(lambda x: (x.transpose(2, 0, 1) * 1.5).sum(), [a])
    check_grads(lambda x: (x.transpose() * 0.5).sum(), [rng.normal(size=(3, 5))])


def test_getitem_grad_scatters_with_repeats():
    t = Tensor(np.arange(4.0), requires_grad=True)
    idx = np.array([0, 0, 2])
    t[idx].sum().backward()
    np.testing.assert_array_equal(t.grad, [2.0, 0.0, 1.0, 0.0])


def test_getitem_slice_grad():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(4, 5))
    check_grads(lambda x: (x[1:3, ::2] ** 2.0).sum(), [a])


BASIC_KEYS = [
    (slice(None), 1),
    np.int64(1),
    (0, slice(None, None, -1)),
    (None, Ellipsis, slice(1, 3)),
    (Ellipsis, -1),
    (slice(None), slice(0, 2), None, 3),
    (1, slice(2, 0, -1), slice(None, None, 2)),
]


@pytest.mark.parametrize("leaf", [Tensor])
def test_overlapping_basic_slices_accumulate(leaf):
    # each key reads an overlapping region; backward adds into the slices of
    # one buffer, so compare against scatters into a zero array
    rng = np.random.default_rng(30)
    data = rng.normal(size=(2, 3, 4))
    weights = [rng.normal(size=data[k].shape) for k in BASIC_KEYS]
    for through_node in (False, True):
        t = leaf(data.copy(), requires_grad=True)
        src = t * 1.0 if through_node else t
        seen = capture_grad(src) if through_node else None
        loss = None
        for k, w in zip(BASIC_KEYS, weights):
            term = (src[k] * w).sum()
            loss = term if loss is None else loss + term
        loss.backward()
        want = np.zeros_like(data)
        for k, w in zip(BASIC_KEYS, weights):
            np.add.at(want, k, w)
        np.testing.assert_allclose(t.grad, want, rtol=0, atol=1e-12)
        if through_node:
            np.testing.assert_allclose(seen.before, want, rtol=0, atol=1e-12)


def test_getitem_advanced_keys_scatter_repeats():
    data = np.arange(12.0).reshape(3, 4)
    cases = [
        (np.array([[True, False, True, False]] * 3), np.where(data % 2 == 0, 1.0, 0.0)),
        ((slice(None), [1, 1, 3]), np.tile([0.0, 2.0, 0.0, 1.0], (3, 1))),
        (([0, 0, 2], [3, 3, 1]), np.array([[0, 0, 0, 2.0], [0] * 4, [0, 1.0, 0, 0]])),
        (np.array([2, 2, 2]), np.array([[0.0] * 4, [0.0] * 4, [3.0] * 4])),
        (True, np.ones((3, 4))),
    ]
    for key, want in cases:
        t = Tensor(data, requires_grad=True)
        t[key].sum().backward()
        np.testing.assert_array_equal(t.grad, want)


def test_shared_upstream_gradient_is_never_mutated():
    # add hands the same g to both parents; the first write must copy it
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    y = x + x
    y_seen = capture_grad(y)
    (y * np.array([1.0, 10.0, 100.0])).sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0, 20.0, 200.0])
    np.testing.assert_array_equal(y_seen.g, [1.0, 10.0, 100.0])
    np.testing.assert_array_equal(y_seen.before, [1.0, 10.0, 100.0])
    assert not np.shares_memory(x.grad, y_seen.g)

    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    y = x * 3.0
    z = y * y + y
    y_seen, z_seen = capture_grad(y), capture_grad(z)
    z.sum().backward()
    np.testing.assert_array_equal(z_seen.before, [1.0, 1.0])
    np.testing.assert_allclose(y_seen.before, 2.0 * y.data + 1.0)
    np.testing.assert_allclose(x.grad, 3.0 * (2.0 * y.data + 1.0))

    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)
    (a + b).sum().backward()
    assert not np.shares_memory(a.grad, b.grad)
    (a * 5.0).sum().backward()
    np.testing.assert_array_equal(a.grad, [6.0, 6.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    # ops that hand their fresh result to a parent without a copy: no stored
    # gradient shares memory with another or with an upstream g, and no
    # upstream g is written to
    rng = np.random.default_rng(33)

    def pos(*shape):
        return rng.uniform(0.5, 2.0, size=shape)

    ids = np.array([2, 0, 2])
    owned_ops = {
        "sub": (lambda p, q: p - q, [pos(3, 4), pos(3, 4)]),
        "sub-broadcast": (lambda p, q: p - q, [pos(3, 4), pos(4)]),
        "mul": (lambda p, q: p * q, [pos(3, 4), pos(4)]),
        "mul-self": (lambda p: p * p, [pos(3, 4)]),
        "truediv": (lambda p, q: p / q, [pos(3, 4), pos(3, 1)]),
        "matmul": (lambda p, q: p @ q, [pos(3, 4), pos(4, 2)]),
        "matmul-batched": (lambda p, q: p @ q, [pos(2, 3, 4), pos(4, 2)]),
        "neg": (lambda p: -p, [pos(3, 4)]),
        "pow": (lambda p: p**3.0, [pos(3, 4)]),
        "log": (lambda p: p.log(), [pos(3, 4)]),
        "sigmoid": (lambda p: p.sigmoid(), [rng.normal(size=(3, 4))]),
        "tanh": (lambda p: p.tanh(), [rng.normal(size=(3, 4))]),
        "relu": (lambda p: p.relu(), [rng.normal(size=(3, 4))]),
        "softmax": (lambda p: softmax(p), [rng.normal(size=(3, 4))]),
        "clamp_min": (lambda p: clamp_min(p, 1.0), [pos(3, 4)]),
        "getitem-id-table": (lambda p: p[ids.reshape(1, 3)], [pos(3, 4)]),
        "getitem-advanced": (lambda p: p[ids], [pos(3, 4)]),
    }
    for name, (op, arrays) in owned_ops.items():
        leaves = [Tensor(arr, requires_grad=True) for arr in arrays]
        u = op(*leaves)
        v = u * rng.normal(size=u.data.shape)
        seen = [capture_grad(u), capture_grad(v)]
        (v + v).sum().backward()
        for sg in seen:
            np.testing.assert_array_equal(sg.g, sg.before, err_msg=name)
        grads = [t.grad for t in leaves]
        for i, g in enumerate(grads):
            assert g.flags.c_contiguous, name
            for other in grads[i + 1 :] + [sg.g for sg in seen]:
                assert not np.shares_memory(g, other), name

    # a transposed node's data is an F-order view: matmul's results are C
    # order and pass as they are; a basic slice's gradient buffer and an
    # advanced key's scatter buffer are C order whatever the node's layout;
    # every stored gradient comes out C order
    x = Tensor(pos(5, 3), requires_grad=True)
    w = Tensor(pos(5, 2), requires_grad=True)
    xt = x.transpose()
    xt_seen = capture_grad(xt)
    (xt @ w).tanh().sum().backward()
    assert all(g.flags.c_contiguous for g in (x.grad, w.grad, xt_seen.g))
    assert not np.shares_memory(x.grad, xt_seen.g)

    x = Tensor(pos(5, 3), requires_grad=True)
    h = x.transpose().tanh()
    h_seen, xt_seen = capture_grad(h), capture_grad(tape_node(h)._parents[0])
    (h[1:] ** 2.0).sum().backward()
    assert h_seen.g.flags.c_contiguous
    assert xt_seen.g.flags.c_contiguous and x.grad.flags.c_contiguous

    x = Tensor(pos(5, 3), requires_grad=True)
    h = x.transpose().tanh()
    assert h.data.flags.f_contiguous and not h.data.flags.c_contiguous
    h_seen = capture_grad(h)
    (h[ids] ** 2.0).sum().backward()
    assert h_seen.g.flags.c_contiguous and x.grad.flags.c_contiguous
    want = np.zeros(h.data.shape)
    np.add.at(want, ids, 2.0 * h.data[ids])
    np.testing.assert_array_equal(h_seen.g, want)


def test_second_backward_through_an_interior_node_starts_from_zero():
    # the first backward's gradient at y must not leak into the second
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = x * 2.0
    y.sum().backward()
    (y * 3.0).sum().backward()
    np.testing.assert_array_equal(x.grad, [8.0])


def test_backward_frees_interior_grads_and_keeps_leaf_grads():
    rng = np.random.default_rng(34)
    x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    frozen = Tensor(rng.normal(size=(2, 3)))
    off_graph = Tensor(rng.normal(size=3), requires_grad=True)
    off_graph.grad = np.full(3, 7.0)
    loss = (((x @ w).tanh() * frozen).sum(axis=1) ** 2.0).mean()
    nodes, stack = set(), [tape_node(loss)]
    while stack:
        node = stack.pop()
        if node not in nodes:
            nodes.add(node)
            stack.extend(p for p in node._parents if p is not None)
    interior = [n for n in nodes if n._backward is not None]
    assert len(interior) == 6 and {x, w} <= nodes

    loss.backward()
    assert all(n.grad is None for n in interior)
    h = np.tanh(x.data @ w.data)
    dz = ((h * frozen.data).sum(axis=1, keepdims=True) * frozen.data) * (1.0 - h * h)
    np.testing.assert_allclose(x.grad, dz @ w.data.T, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(w.grad, x.data.T @ dz, rtol=1e-12, atol=1e-14)
    assert frozen.grad is None
    np.testing.assert_array_equal(off_graph.grad, np.full(3, 7.0))


def test_grad_through_transposed_view_matches_finite_differences():
    # the transposed node's data is a non-C-order view; its gradient buffer
    # is written by copy, by add, and by an in-place slice update
    def fn(x, v):
        xt = x.transpose()
        return ((xt @ v).tanh().sum() + (xt * xt).sum()
                + (xt[1:, ::-2] ** 2.0).sum() + xt[..., 0].sum())

    rng = np.random.default_rng(31)
    check_grads(fn, [rng.normal(size=(5, 3)), rng.normal(size=(5, 2))])


# ------------------------------------------------------- matmul


def test_matmul_grads_2d():
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        check_grads(lambda x, y: (x @ y).sum(), [a, b])


def test_matmul_grads_batched_broadcast():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(5, 2, 3, 4))
    b = rng.normal(size=(1, 4, 6))
    check_grads(lambda x, y: ((x @ y) ** 2.0).sum(), [a, b])


def test_matmul_inner_dim_mismatch():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 2)))


def test_matmul_requires_2d():
    with pytest.raises(ShapeError):
        Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))


def test_matmul_batch_broadcast_mismatch():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 3, 4))) @ Tensor(np.ones((3, 4, 5)))


@pytest.mark.parametrize("a, b", [
    ((2, 1, 3, 4), (5, 3, 4, 2)),
    ((4, 2, 3), (2, 3, 3, 1)),
])
def test_matmul_batch_broadcast_mismatch_names_batch_dims(a, b):
    with pytest.raises(ShapeError, match="batch dimensions"):
        Tensor(np.ones(a)) @ Tensor(np.ones(b))


@pytest.mark.parametrize("a, b, want", [
    ((2, 3, 4), (4, 5), (2, 3, 5)),
    ((3, 4), (2, 4, 5), (2, 3, 5)),
    ((2, 1, 3, 4), (5, 4, 2), (2, 5, 3, 2)),
    ((2, 3, 4), (2, 4, 1), (2, 3, 1)),
])
def test_matmul_batch_shapes_that_broadcast(a, b, want):
    assert (Tensor(np.ones(a)) @ Tensor(np.ones(b))).data.shape == want


@pytest.mark.parametrize("op", ["__add__", "__iadd__", "__sub__", "__mul__", "__truediv__"])
def test_elementwise_shape_mismatch(op):
    fn = getattr(operator, op.strip("_"))
    for a, b in [((2, 3), (3, 2)), ((4,), (5,)), ((2, 3, 4), (2, 1))]:
        with pytest.raises(ShapeError, match="do not broadcast"):
            fn(Tensor(np.ones(a)) + 0.0, Tensor(np.ones(b)))
    for a, b in [((2, 3), (2, 3)), ((2, 3), (3,)), ((2, 1), (1, 4)), ((), (2, 2))]:
        out = fn(Tensor(np.ones(a)) + 0.0, Tensor(np.ones(b)))
        assert out.data.shape == np.broadcast_shapes(a, b)


# ------------------------------------------------------- module functions


def test_softmax_rows_sum_to_one_and_grads():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 4)) * 3.0
    y = softmax(Tensor(a), axis=1).data
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
    w = rng.normal(size=(6, 4))
    check_grads(lambda x, v: (softmax(x, axis=1) * v).sum(), [a, w])
    check_grads(lambda x, v: (softmax(x, axis=0) * v).sum(), [a, w])


def test_softmax_shift_invariance():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 5))
    y1 = softmax(Tensor(a), axis=1).data
    y2 = softmax(Tensor(a + 1000.0), axis=1).data
    np.testing.assert_allclose(y1, y2, atol=1e-12)


def test_softmax_np_matches_the_reference_and_works_in_place():
    # The three-step reference softmax, bit for bit; the input is left alone
    # unless it is passed as ``out``, and the taped softmax's forward is it.
    rng = np.random.default_rng(13)
    a = rng.normal(size=(4, 3, 5)) * 10.0
    for axis in (0, 1, -1):
        e = np.exp(a - a.max(axis=axis, keepdims=True))
        ref = e / e.sum(axis=axis, keepdims=True)
        before = a.copy()
        assert softmax_np(a, axis).tobytes() == ref.tobytes()
        assert a.tobytes() == before.tobytes()
        assert softmax(Tensor(a), axis).data.tobytes() == ref.tobytes()
        buf = a.copy()
        assert softmax_np(buf, axis, out=buf) is buf
        assert buf.tobytes() == ref.tobytes()


def test_records_tape_states_the_make_rule():
    w = Tensor(np.ones(2), requires_grad=True)
    frozen = Tensor(np.ones(2))
    const = Tensor(np.ones(2))
    assert records_tape(w) and records_tape(const, w)
    assert not records_tape(frozen, const) and not records_tape()
    with no_grad():
        assert not records_tape(w, const)
    # whatever it says, an op over the same operands agrees
    for ops in ((w,), (const, w), (frozen, const)):
        assert records_tape(*ops) == _records(concat(list(ops)))
    with no_grad():
        assert not _records(concat([w, const]))


def test_clamp_min_value_and_grad_mask():
    t = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
    y = clamp_min(t, 1.0)
    np.testing.assert_array_equal(y.data, [1.0, 1.0, 2.0])
    y.sum().backward()
    np.testing.assert_array_equal(t.grad, [0.0, 0.0, 1.0])


def test_concat_values_and_grads():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(2, 5))
    got = concat([Tensor(a), Tensor(b)], axis=1).data
    np.testing.assert_array_equal(got, np.concatenate([a, b], axis=1))
    check_grads(lambda x, y: (concat([x, y], axis=1) ** 2.0).sum(), [a, b])


def test_concat_shape_mismatch():
    with pytest.raises(ShapeError):
        concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1)


# ------------------------------------------------------- graph behavior


def test_diamond_graph_accumulates_both_paths():
    x = Tensor(2.0, requires_grad=True)
    y = x * 3.0
    z = (y * y + y).sum()  # dz/dx = (2y + 1) * 3 = 39 at x=2
    z.backward()
    assert x.grad == pytest.approx(39.0)


def test_no_tape_when_nothing_requires_grad():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    c = a @ b + a
    assert tape_node(c)._parents == ()
    assert not c.requires_grad


def _records(t: Tensor) -> bool:
    return t.requires_grad and bool(tape_node(t)._parents)


def test_no_grad_records_nothing_for_trainable_parameters():
    w = Tensor(np.arange(6.0).reshape(2, 3) / 6.0, requires_grad=True)
    v = Tensor(np.ones((3, 2)), requires_grad=True)
    with no_grad():
        outs = [w + 1.0, w * w, w @ v, (w @ v).sum(), w[:, 1:], w.tanh(), w.transpose(),
                softmax(w), concat([w, w], axis=1), v[np.array([0, 2])],
                clamp_min(w, 0.2)]
    for out in outs:
        assert tape_node(out)._parents == () and not out.requires_grad
        assert tape_node(out)._backward is None
    assert _records(w @ v)  # the same op records again outside the block


def test_no_grad_restores_mode_after_exception_and_nesting():
    w = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ShapeError):
        with no_grad():
            w + Tensor(np.ones(3))
    assert _records(w * 2.0)
    with no_grad():
        with no_grad():
            assert not _records(w * 2.0)
        assert not _records(w * 2.0)  # the inner exit keeps the outer mode
    assert _records(w * 2.0)


def test_no_grad_is_per_thread():
    w = Tensor(np.ones(2), requires_grad=True)
    seen = {}

    def worker():
        seen["records"] = _records(w * 2.0)

    with no_grad():
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
        assert not _records(w * 2.0)
    assert not t.is_alive()
    assert seen["records"] is True


def test_deep_chain_does_not_recurse():
    # iterative traversal must survive depths that would blow the stack
    x = Tensor(1.0, requires_grad=True)
    y = x
    for _ in range(5000):
        y = y * 1.0
    y.sum().backward()
    assert x.grad == pytest.approx(1.0)


def test_grad_accumulates_across_backwards():
    x = Tensor(3.0, requires_grad=True)
    (x * 2.0).sum().backward()
    (x * 2.0).sum().backward()
    assert x.grad == pytest.approx(4.0)


# ------------------------------------------------------- +=


# (public op, forward over fresh operands, operand shapes). ``t += u`` rebinds
# ``t`` to ``t + u``. Every public op is named, so an in-place ``+=`` that
# overwrote a buffer a backward reads, or that a view shares, would fail
# test_inplace_add_matches_out_of_place.
_OPS = [
    ("__add__", lambda a, b: a + b, [(2, 3), (2, 3)]),
    ("__radd__", lambda a: 2.0 + a, [(2, 3)]),
    ("__sub__", lambda a, b: a - b, [(2, 3), (3,)]),
    ("__mul__", lambda a, b: a * b, [(2, 3), (3,)]),
    ("__rmul__", lambda a: 2.0 * a, [(2, 3)]),
    ("__truediv__", lambda a, b: a / b, [(2, 3), (2, 3)]),
    ("__neg__", lambda a: -a, [(2, 3)]),
    ("__pow__", lambda a: a ** 3.0, [(2, 3)]),
    ("__matmul__", lambda a, b: a @ b, [(2, 3), (3, 4)]),
    ("log", lambda a: a.log(), [(2, 3)]),
    ("sigmoid", lambda a: a.sigmoid(), [(2, 3)]),
    ("tanh", lambda a: a.tanh(), [(2, 3)]),
    ("relu", lambda a: a.relu(), [(2, 3)]),
    ("sum", lambda a: a.sum(axis=0), [(2, 3)]),
    ("mean", lambda a: a.mean(axis=1, keepdims=True), [(2, 3)]),
    ("reshape", lambda a: a.reshape(3, 2), [(2, 3)]),
    ("transpose", lambda a: a.transpose(1, 0), [(2, 3)]),
    ("__getitem__", lambda a: a[:, 1:], [(2, 3)]),
    ("__getitem__", lambda a: a[[0, 0, 1]], [(2, 3)]),
    ("softmax", lambda a: softmax(a, axis=-1), [(2, 3)]),
    ("clamp_min", lambda a: clamp_min(a, 1.0), [(2, 3)]),
    ("concat", lambda a, b: concat([a, b], axis=0), [(2, 3), (1, 3)]),
    ("__getitem__", lambda a: a[np.array([[0, 2], [2, 1]])], [(3, 2)]),
]
_NOT_OPS = {"__init__", "__repr__", "item", "backward", "no_grad", "records_tape", "softmax_np"}


def test_inplace_table_names_every_public_op():
    methods = {n for n, v in vars(Tensor).items() if inspect.isfunction(v)}
    funcs = {n for n in tensor.__all__ if inspect.isfunction(getattr(tensor, n))}
    assert {name for name, _, _ in _OPS} == (methods | funcs) - _NOT_OPS


def _inplace_case(fn, shapes, target, in_place: bool):
    """Record ``fn`` over fresh results of leaves, then add a leaf to
    operand ``target`` (an index) or the output (``"out"``), with ``+=`` or
    ``+``. Returns the values of every tensor and the gradients of every
    leaf."""
    rng = np.random.default_rng(0)
    leaves = [Tensor(rng.uniform(0.5, 2.0, s), requires_grad=True) for s in shapes]
    operands = [leaf + 0.0 for leaf in leaves]
    out = fn(*operands)
    t = out if target == "out" else operands[target]
    c = Tensor(rng.uniform(-3.0, -2.5, t.shape), requires_grad=True)
    if in_place:
        new = t
        new += c
    else:
        new = t + c
    standing = [*operands, out, new]  # the target included: += must not change it
    sum((v * rng.normal(size=v.shape)).sum() for v in standing).backward()
    return [v.data.copy() for v in standing], [leaf.grad for leaf in [*leaves, c]]


@pytest.mark.parametrize("name, fn, shapes", _OPS, ids=[row[0] for row in _OPS])
def test_inplace_add_matches_out_of_place(name, fn, shapes):
    for target in [*range(len(shapes)), "out"]:
        got_vals, got_grads = _inplace_case(fn, shapes, target, in_place=True)
        want_vals, want_grads = _inplace_case(fn, shapes, target, in_place=False)
        for got, want in zip(got_vals + got_grads, want_vals + want_grads):
            np.testing.assert_array_equal(got, want, err_msg=f"{name}, target {target}")


def _view_of_a_result():
    base = Tensor(np.ones((2, 3)), requires_grad=True) * 2.0
    return base.reshape(3, 2)


@pytest.mark.parametrize("make_self, other", [
    (lambda: Tensor(np.ones((2, 3)), requires_grad=True), np.ones(3)),
    (lambda: Tensor(np.ones((2, 3)), requires_grad=True), np.ones(3)),
    (_view_of_a_result, np.ones(2)),
    (lambda: Tensor(np.ones(3), requires_grad=True) * 2.0, np.ones((2, 3))),
    (lambda: Tensor(np.ones((2, 3)), requires_grad=True) * 2.0, np.ones(3)),
], ids=["parameter", "user-tensor", "view", "result-larger-than-self", "fresh-result"])
def test_inplace_add_never_overwrites(make_self, other):
    p = make_self()
    orig, before = p, p.data.copy()
    p += Tensor(other)
    np.testing.assert_array_equal(orig.data, before)
    assert not np.shares_memory(p.data, orig.data)
    np.testing.assert_array_equal(p.data, before + other)


def test_add_assign_rebinds_and_leaves_the_other_name_alone():
    x = Tensor(np.ones(3), requires_grad=True)
    c = Tensor(np.arange(3.0), requires_grad=True)
    w = np.array([1.0, 2.0, 3.0])
    y = x * 2.0
    r = y
    r += c
    assert r is not y
    np.testing.assert_array_equal(y.data, [2.0, 2.0, 2.0])
    (y * w).sum().backward()  # y's history stops at x
    assert c.grad is None
    np.testing.assert_array_equal(x.grad, 2.0 * w)
    (r * w).sum().backward()
    np.testing.assert_array_equal(c.grad, w)
    np.testing.assert_array_equal(x.grad, 4.0 * w)


# ------------------------------------------------------- what the tape keeps


@pytest.fixture
def no_gc():
    """Run the test with the cyclic collector off, so an array it sees freed
    was freed by reference counting alone."""
    gc.disable()
    yield
    gc.enable()


@pytest.mark.parametrize("consume, x_grad", [
    (lambda y: y.sum(), 2.0),
    (lambda y: y.reshape(6), 2.0),
    (lambda y: y + 1.0, 2.0),
    (lambda y: y.relu(), [[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]),
    (lambda y: y * 3.0, 6.0),
], ids=["sum", "reshape", "add", "relu", "mul-by-constant"])
def test_tape_frees_a_result_no_backward_reads(no_gc, consume, x_grad):
    x = Tensor(np.arange(6.0).reshape(2, 3) - 2.0, requires_grad=True)
    y = x * 2.0
    freed = weakref.ref(y.data)
    loss = consume(y).sum()
    del y
    assert freed() is None
    loss.backward()
    np.testing.assert_array_equal(x.grad, np.broadcast_to(x_grad, (2, 3)))


@pytest.mark.parametrize("op, w_grad", [
    (lambda y, w: y * w, 2.0),
    (lambda y, w: y @ w, 6.0),
], ids=["mul", "matmul"])
def test_tape_keeps_a_saved_operand_until_the_step_ends(no_gc, op, w_grad):
    x = Tensor(np.ones((3, 3)), requires_grad=True)
    w = Tensor(np.arange(9.0).reshape(3, 3), requires_grad=True)
    y = x * 2.0
    kept = weakref.ref(y.data)
    loss = op(y, w).sum()
    del y
    assert kept() is not None
    loss.backward()  # w's gradient reads the saved y
    np.testing.assert_array_equal(w.grad, np.full((3, 3), w_grad))
    assert kept() is not None
    del loss
    assert kept() is None


def test_a_leaf_is_its_own_node_without_referencing_itself():
    x = Tensor(np.ones(2), requires_grad=True)
    y = x * 2.0
    assert tape_node(x) is x and all(r is not x for r in gc.get_referents(x))
    assert tape_node(y) is not y and tape_node(y)._parents == [x, None]


# ------------------------------------------------ trainable leaves


def test_parameter_requires_grad_and_starts_without_grad():
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    assert p.requires_grad and p.grad is None
    assert not Tensor(np.zeros(2)).requires_grad


def test_parameter_zero_grad_resets():
    p = Tensor(np.ones(3), requires_grad=True)
    (p * 2.0).sum().backward()
    np.testing.assert_array_equal(p.grad, 2.0 * np.ones(3))
    SGD([p], 0.1).zero_grad()
    assert p.grad is None


def test_parameter_freeze_stops_gradients():
    p = Tensor(np.ones(3), requires_grad=True)
    p.requires_grad = False
    out = (p * 2.0).sum()
    assert not out.requires_grad


def test_rel_err_helper_is_scale_aware():
    a = np.array([1e8, 2e8])
    assert rel_err(a, a * (1 + 1e-9)) < 1e-6
    assert rel_err(np.zeros(2), np.zeros(2)) == 0.0

"""Autodiff core: every op's backward pass against finite differences, plus
shape/domain error contracts and graph-traversal behavior."""

import threading

import numpy as np
import pytest

from distillfuse.tensor import (
    DomainError,
    Parameter,
    ShapeError,
    Tensor,
    clamp_min,
    concat,
    embedding,
    no_grad,
    records_tape,
    softmax,
    softmax_np,
)
from helpers import check_grads, rel_err


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


@pytest.mark.parametrize("leaf", [Tensor, Parameter])
def test_overlapping_basic_slices_accumulate(leaf):
    # each key reads an overlapping region; backward adds into the slices of
    # one buffer, so compare against scatters into a zero array
    rng = np.random.default_rng(30)
    data = rng.normal(size=(2, 3, 4))
    weights = [rng.normal(size=data[k].shape) for k in BASIC_KEYS]
    for through_node in (False, True):
        t = leaf(data.copy()) if leaf is Parameter else leaf(data.copy(), requires_grad=True)
        src = t * 1.0 if through_node else t
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
            np.testing.assert_allclose(src.grad, want, rtol=0, atol=1e-12)


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
    (y * np.array([1.0, 10.0, 100.0])).sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0, 20.0, 200.0])
    np.testing.assert_array_equal(y.grad, [1.0, 10.0, 100.0])
    assert not np.shares_memory(x.grad, y.grad)

    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    y = x * 3.0
    z = y * y + y
    z.sum().backward()
    np.testing.assert_array_equal(z.grad, [1.0, 1.0])
    np.testing.assert_allclose(y.grad, 2.0 * y.data + 1.0)
    np.testing.assert_allclose(x.grad, 3.0 * (2.0 * y.data + 1.0))

    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)
    (a + b).sum().backward()
    assert not np.shares_memory(a.grad, b.grad)
    (a * 5.0).sum().backward()
    np.testing.assert_array_equal(a.grad, [6.0, 6.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])


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


@pytest.mark.parametrize("op", ["__add__", "__sub__", "__mul__", "__truediv__"])
def test_elementwise_shape_mismatch(op):
    for a, b in [((2, 3), (3, 2)), ((4,), (5,)), ((2, 3, 4), (2, 1))]:
        with pytest.raises(ShapeError, match="do not broadcast"):
            getattr(Tensor(np.ones(a)), op)(Tensor(np.ones(b)))
    for a, b in [((2, 3), (2, 3)), ((2, 3), (3,)), ((2, 1), (1, 4)), ((), (2, 2))]:
        assert getattr(Tensor(np.ones(a)), op)(Tensor(np.ones(b))).data.shape == np.broadcast_shapes(a, b)


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
    w = Parameter(np.ones(2))
    frozen = Parameter(np.ones(2), trainable=False)
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


def test_embedding_gather_and_scatter_grad():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    ids = np.array([[1, 1], [3, 0]])
    out = embedding(table, ids)
    assert out.data.shape == (2, 2, 3)
    np.testing.assert_array_equal(out.data[0, 0], [3.0, 4.0, 5.0])
    out.sum().backward()
    # row 1 was gathered twice, rows 0 and 3 once, row 2 never
    np.testing.assert_array_equal(table.grad[:, 0], [1.0, 2.0, 0.0, 1.0])


def test_embedding_out_of_range():
    table = Tensor(np.ones((4, 3)))
    with pytest.raises(IndexError):
        embedding(table, np.array([4]))
    with pytest.raises(IndexError):
        embedding(table, np.array([-1]))


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
    assert c._parents == ()
    assert not c.requires_grad


def _records(t: Tensor) -> bool:
    return t.requires_grad and bool(t._parents)


def test_no_grad_records_nothing_for_trainable_parameters():
    w = Parameter(np.arange(6.0).reshape(2, 3) / 6.0)
    v = Parameter(np.ones((3, 2)))
    with no_grad():
        outs = [w + 1.0, w * w, w @ v, (w @ v).sum(), w[:, 1:], w.tanh(), w.transpose(),
                softmax(w), concat([w, w], axis=1), embedding(v, np.array([0, 2])),
                clamp_min(w, 0.2)]
    for out in outs:
        assert out._parents == () and not out.requires_grad
        assert out._backward is None
    assert _records(w @ v)  # the same op records again outside the block


def test_no_grad_restores_mode_after_exception_and_nesting():
    w = Parameter(np.ones(2))
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
    w = Parameter(np.ones(2))
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


# ------------------------------------------------------- Parameter


def test_parameter_trainable_with_preallocated_grad():
    p = Parameter(np.zeros((2, 2)))
    assert p.requires_grad and p.trainable
    assert p.grad is not None and p.grad.shape == (2, 2)


def test_parameter_zero_grad_resets():
    p = Parameter(np.ones(3))
    (p * 2.0).sum().backward()
    np.testing.assert_array_equal(p.grad, 2.0 * np.ones(3))
    p.zero_grad()
    np.testing.assert_array_equal(p.grad, np.zeros(3))


def test_parameter_freeze_stops_gradients():
    p = Parameter(np.ones(3))
    p.freeze()
    out = (p * 2.0).sum()
    assert not out.requires_grad
    assert not p.trainable


def test_rel_err_helper_is_scale_aware():
    a = np.array([1e8, 2e8])
    assert rel_err(a, a * (1 + 1e-9)) < 1e-6
    assert rel_err(np.zeros(2), np.zeros(2)) == 0.0

"""Optimizer update rules against independent hand recurrences, and the
plateau scheduler's counting semantics."""

import math

import numpy as np
import pytest

from distillfuse.optim import EPS, SGD, Adam, AdamW, PlateauScheduler, make_optimizer
from distillfuse.tensor import Tensor


def _set_grad(p: Tensor, g) -> None:
    p.grad = np.array(g, dtype=np.float64)


def test_sgd_single_step_arithmetic():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = SGD([p], lr=0.1)
    _set_grad(p, [0.5, -1.0])
    opt.step()
    np.testing.assert_allclose(p.data, [1.0 - 0.05, -2.0 + 0.1], atol=0)


def test_sgd_step_from_real_backward():
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = SGD([p], lr=0.25)
    opt.zero_grad()
    (p ** 2.0).sum().backward()  # gradient 2w = 4
    opt.step()
    assert p.data[0] == pytest.approx(1.0, abs=0)


def test_step_before_backward_raises():
    # no backward at all, or one that reaches p but not q: nothing may move
    p, q = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(2), requires_grad=True)
    for opt in (SGD([p, q], 0.1), Adam([p, q], 0.1), AdamW([p, q], 0.1, weight_decay=0.1)):
        for reach_p in (False, True):
            opt.zero_grad()
            if reach_p:
                (p * 2.0).sum().backward()
            with pytest.raises(RuntimeError, match="every parameter"):
                opt.step()
            np.testing.assert_array_equal(p.data, np.ones(2))


def test_zero_grad_sets_every_gradient_to_none():
    params = [Tensor(np.ones(2), requires_grad=True), Tensor(np.ones((2, 3)), requires_grad=True)]
    opt = Adam(params, 0.1)
    (params[0].sum() + params[1].sum()).backward()
    assert all(p.grad is not None for p in params)
    opt.zero_grad()
    assert all(p.grad is None for p in params)


def test_lr_must_be_positive():
    p = Tensor(np.ones(1), requires_grad=True)
    with pytest.raises(ValueError):
        SGD([p], lr=0.0)
    with pytest.raises(ValueError):
        Adam([p], lr=-1e-3)


def test_adam_first_step_matches_closed_form():
    # after one step the bias corrections cancel: w -= lr * g / (|g| + eps)
    lr, g = 0.1, 0.5
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p], lr)
    _set_grad(p, [g])
    opt.step()
    expected = 1.0 - lr * g / (abs(g) + EPS)
    assert p.data[0] == expected


def test_adam_matches_hand_recurrence_over_steps():
    rng = np.random.default_rng(20)
    w = rng.normal(size=(3,))
    p = Tensor(w.copy(), requires_grad=True)
    lr, b1, b2, eps = 2e-3, 0.9, 0.999, 1e-8
    opt = Adam([p], lr)
    m = np.zeros(3)
    v = np.zeros(3)
    for t in range(1, 8):
        g = rng.normal(size=(3,))
        _set_grad(p, g)
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w = w - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        np.testing.assert_allclose(p.data, w, rtol=0, atol=1e-15)


def test_adamw_zero_decay_identical_to_adam():
    rng = np.random.default_rng(21)
    w0 = rng.normal(size=(4,))
    pa = Tensor(w0.copy(), requires_grad=True)
    pw = Tensor(w0.copy(), requires_grad=True)
    a = Adam([pa], 1e-2)
    aw = AdamW([pw], 1e-2, weight_decay=0.0)
    for _ in range(5):
        g = rng.normal(size=(4,))
        _set_grad(pa, g)
        _set_grad(pw, g)
        a.step()
        aw.step()
        np.testing.assert_array_equal(pa.data, pw.data)


def test_adamw_decay_applied_before_adam_update():
    # with zero gradient the Adam part is a no-op and only decay acts
    p = Tensor(np.array([10.0]), requires_grad=True)
    opt = AdamW([p], lr=0.1, weight_decay=0.5)
    _set_grad(p, [0.0])
    opt.step()
    assert p.data[0] == pytest.approx(10.0 * (1.0 - 0.1 * 0.5), abs=1e-15)


def test_adamw_negative_decay_rejected():
    with pytest.raises(ValueError):
        AdamW([Tensor(np.ones(1), requires_grad=True)], 0.1, weight_decay=-0.01)


def test_frozen_parameters_not_updated():
    p = Tensor(np.ones(2), requires_grad=True)
    q = Tensor(np.ones(2), requires_grad=True)
    q.requires_grad = False
    opt = SGD([p, q], lr=0.5)
    _set_grad(p, [1.0, 1.0])
    opt.step()
    np.testing.assert_array_equal(q.data, np.ones(2))
    np.testing.assert_array_equal(p.data, 0.5 * np.ones(2))


def test_make_optimizer_kinds():
    p = [Tensor(np.ones(1), requires_grad=True)]
    assert isinstance(make_optimizer("sgd", p, 0.1), SGD)
    assert isinstance(make_optimizer("Adam", p, 0.1), Adam)
    opt = make_optimizer("adamw", p, 0.1, weight_decay=0.2)
    assert isinstance(opt, AdamW) and opt.weight_decay == 0.2
    with pytest.raises(ValueError):
        make_optimizer("rmsprop", p, 0.1)


# ------------------------------------------------------- plateau scheduler


def test_plateau_flat_metric_reduces_after_patience():
    sched = PlateauScheduler(factor=0.5, patience=2)
    lr = 1.0
    lr = sched.update(1.0, lr)
    assert lr == 1.0  # first sighting improves on +inf
    lr = sched.update(1.0, lr)
    assert lr == 1.0  # one stale epoch, still within patience
    lr = sched.update(1.0, lr)
    assert lr == 0.5  # second stale epoch triggers the cut


def test_plateau_improvement_resets_counter():
    sched = PlateauScheduler(factor=0.5, patience=2)
    lr = 1.0
    lr = sched.update(1.0, lr)
    lr = sched.update(1.0, lr)   # counter at 1
    lr = sched.update(0.9, lr)   # improvement resets
    lr = sched.update(0.95, lr)  # stale 1
    assert lr == 1.0
    lr = sched.update(0.95, lr)  # stale 2 -> cut
    assert lr == 0.5


def test_plateau_nan_is_never_improvement():
    sched = PlateauScheduler(factor=0.5, patience=1)
    lr = 1.0
    lr = sched.update(float("nan"), lr)
    assert lr == 0.5
    lr = sched.update(float("nan"), lr)
    assert lr == 0.25


def test_plateau_respects_min_lr_and_never_increases():
    sched = PlateauScheduler(factor=0.1, patience=0, min_lr=1e-3)
    lr = 1e-2
    lr = sched.update(1.0, lr)  # establishes best
    lr = sched.update(1.0, lr)
    assert lr == 1e-3  # 1e-3 floor, not 1e-3 * 0.1
    lr = sched.update(1.0, lr)
    assert lr == 1e-3  # floored cut must not raise lr back up


def test_plateau_lr_already_below_floor_stays_put():
    sched = PlateauScheduler(factor=0.5, patience=0, min_lr=1e-2)
    sched.update(1.0, 1e-4)
    assert sched.update(1.0, 1e-4) == 1e-4


def test_plateau_validation():
    with pytest.raises(ValueError):
        PlateauScheduler(factor=0.0)
    with pytest.raises(ValueError):
        PlateauScheduler(factor=1.0)
    with pytest.raises(ValueError):
        PlateauScheduler(patience=-1)


def test_plateau_long_run_monotone_nonincreasing():
    rng = np.random.default_rng(22)
    sched = PlateauScheduler(factor=0.5, patience=2, min_lr=1e-5)
    lr = 0.1
    history = []
    for _ in range(200):
        lr_next = sched.update(float(rng.uniform(0.5, 1.5)), lr)
        assert lr_next <= lr
        assert lr_next >= min(lr, 1e-5)
        lr = lr_next
        history.append(lr)
    assert history[-1] >= 1e-5 or math.isclose(history[-1], 1e-5)

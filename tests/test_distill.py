"""Distillation-loss tests.

KL and cross-entropy are pinned to hand-computed constants, the blended
objective is checked for exact linearity in the mixing coefficient, and the
differentiable batch loss is compared against the scalar reference
implementations row by row.
"""

import types

import numpy as np
import pytest

from distillfuse.distill import (
    DistillConfig,
    ce_loss_tensor,
    checked_step,
    combine_teacher_targets,
    distill_loss_tensors,
    one_hot,
    require_finite_grads,
    student_train_step,
)
from distillfuse.optim import SGD, Adam
from distillfuse.tensor import Tensor, softmax_np

from helpers import check_grads, cross_entropy, kl_divergence, total_loss

LN2 = 0.6931471805599453


def _random_distribution(rng, n=2, floor=1e-6):
    p = rng.uniform(floor, 1.0, size=n)
    return p / p.sum()


class TestKlDivergence:
    def test_identical_distributions_exactly_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = _random_distribution(rng)
            assert kl_divergence(p, p.copy()) == 0.0

    def test_one_hot_vs_uniform_is_ln2(self):
        assert abs(kl_divergence([1.0, 0.0], [0.5, 0.5]) - LN2) < 1e-15

    def test_pinned_value(self):
        # 0.7 ln(0.7/0.5) + 0.3 ln(0.3/0.5)
        v = kl_divergence([0.7, 0.3], [0.5, 0.5])
        assert abs(v - 0.08228287850505178) < 1e-15

    def test_asymmetric(self):
        a = kl_divergence([0.7, 0.3], [0.4, 0.6])
        b = kl_divergence([0.4, 0.6], [0.7, 0.3])
        assert abs(a - b) > 1e-3

    def test_nonnegative_with_equality_iff_equal(self):
        rng = np.random.default_rng(1)
        for i in range(1000):
            p = _random_distribution(rng)
            if i % 3 == 0:
                q = p.copy()
            else:
                q = _random_distribution(rng)
            v = kl_divergence(p, q)
            if np.max(np.abs(p - q)) <= 1e-9:
                assert v == 0.0
            else:
                assert v > 0.0

    def test_zero_p_entries_contribute_nothing(self):
        # 0 * log(0/q) is defined as 0 here
        v = kl_divergence([0.0, 1.0], [0.25, 0.75])
        assert abs(v - np.log(1.0 / 0.75)) < 1e-15

    def test_zero_q_clamped(self):
        # q = 0 where p > 0 would be +inf; the floor keeps it finite
        v = kl_divergence([1.0, 0.0], [0.0, 1.0])
        assert np.isfinite(v)
        assert abs(v - np.log(1e12)) < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError, match="negative"):
            kl_divergence([-0.1, 1.1], [0.5, 0.5])
        with pytest.raises(ValueError, match="sum"):
            kl_divergence([0.5, 0.5], [0.6, 0.6])
        with pytest.raises(ValueError, match="shape"):
            kl_divergence([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_sum_tolerance_band(self):
        # drift below the tolerance is accepted, above it is rejected
        kl_divergence([0.5 + 4e-7, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="sum"):
            kl_divergence([0.5 + 4e-6, 0.5], [0.5, 0.5])


class TestCrossEntropy:
    def test_hand_value(self):
        assert abs(cross_entropy([1.0, 0.0], [0.8, 0.2]) + np.log(0.8)) < 1e-15
        assert abs(cross_entropy([0.0, 1.0], [0.8, 0.2]) + np.log(0.2)) < 1e-15

    def test_perfect_prediction_near_zero(self):
        assert cross_entropy([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_zero_prob_clamped(self):
        v = cross_entropy([0.0, 1.0], [1.0, 0.0])
        assert abs(v - np.log(1e12)) < 1e-3

    def test_one_hot_enforced(self):
        for bad in ([0.5, 0.5], [1.0, 1.0], [0.0, 0.0], [2.0, -1.0]):
            with pytest.raises(ValueError, match="one-hot"):
                cross_entropy(bad, [0.5, 0.5])

    def test_p_validated(self):
        with pytest.raises(ValueError, match="sum"):
            cross_entropy([1.0, 0.0], [0.9, 0.3])
        with pytest.raises(ValueError, match="shape"):
            cross_entropy([1.0, 0.0], [0.2, 0.3, 0.5])


class TestCombineTeacherTargets:
    def test_hand_mixture(self):
        out = combine_teacher_targets([0.8, 0.2], [0.4, 0.6], beta=0.25)
        np.testing.assert_allclose(out, [0.25 * 0.8 + 0.75 * 0.4,
                                         0.25 * 0.2 + 0.75 * 0.6], atol=1e-15)

    def test_endpoints(self):
        p_t = np.array([0.9, 0.1])
        p_a = np.array([0.3, 0.7])
        np.testing.assert_array_equal(combine_teacher_targets(p_t, p_a, 1.0), p_t)
        np.testing.assert_array_equal(combine_teacher_targets(p_t, p_a, 0.0), p_a)

    def test_batch_rows(self):
        rng = np.random.default_rng(3)
        p_t = np.stack([_random_distribution(rng) for _ in range(5)])
        p_a = np.stack([_random_distribution(rng) for _ in range(5)])
        out = combine_teacher_targets(p_t, p_a, 0.5)
        np.testing.assert_allclose(out, 0.5 * (p_t + p_a), atol=1e-15)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_validation(self):
        ok = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="beta"):
            combine_teacher_targets(ok, ok, beta=1.5)
        with pytest.raises(ValueError, match="shapes differ"):
            combine_teacher_targets(ok, np.array([[0.5, 0.5]] * 2))
        with pytest.raises(ValueError, match="sum"):
            combine_teacher_targets(np.array([0.7, 0.7]), ok)
        # one check covers every row: the first bad one, mid-batch, is named
        rows = np.full((5, 2), 0.5)
        rows[2] = [0.6, 0.6]
        rows[3] = [0.9, 0.9]
        with pytest.raises(ValueError, match=r"p_audio does not sum to 1 \(sum = .*1\.2\b.* row 2$"):
            combine_teacher_targets(np.full((5, 2), 0.5), rows)
        # a NaN or infinite entry fails its row's sum test
        rows = np.full((2, 2), 0.5)
        rows[0] = [np.nan, 0.5]
        with pytest.raises(ValueError, match=r"p_text does not sum to 1 \(sum = nan\) in row 0$"):
            combine_teacher_targets(rows, np.full((2, 2), 0.5))
        rows[0], rows[1] = 0.5, [np.inf, 0.5]
        with pytest.raises(ValueError, match=r"p_audio does not sum to 1 \(sum = inf\) in row 1$"):
            combine_teacher_targets(np.full((2, 2), 0.5), rows)


class TestTotalLoss:
    def test_alpha_linearity_and_endpoints(self):
        p = np.array([0.65, 0.35])
        q = np.array([0.55, 0.45])
        y = np.array([1.0, 0.0])
        kl_ref = kl_divergence(p, q)
        ce_ref = cross_entropy(y, q)
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            out = total_loss(p, q, y, DistillConfig(alpha=alpha))
            assert abs(out.kl_term - kl_ref) < 1e-15
            assert abs(out.ce_term - ce_ref) < 1e-15
            assert abs(out.total - (alpha * kl_ref + (1 - alpha) * ce_ref)) < 1e-12
        assert total_loss(p, q, y, DistillConfig(alpha=0.0)).total == ce_ref
        assert total_loss(p, q, y, DistillConfig(alpha=1.0)).total == kl_ref

    def test_temperature_scales_kl_term(self):
        p = np.array([0.6, 0.4])
        q = np.array([0.45, 0.55])
        y = np.array([0.0, 1.0])
        base = total_loss(p, q, y, DistillConfig(temperature=1.0))
        hot = total_loss(p, q, y, DistillConfig(temperature=2.0))
        assert abs(hot.kl_term - 4.0 * base.kl_term) < 1e-12
        assert hot.ce_term == base.ce_term

    def test_config_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            DistillConfig(alpha=1.2)
        with pytest.raises(ValueError, match="alpha"):
            DistillConfig(alpha=-0.1)
        with pytest.raises(ValueError, match="teacher_mix_beta"):
            DistillConfig(teacher_mix_beta=2.0)
        with pytest.raises(ValueError, match="temperature"):
            DistillConfig(temperature=0.0)


class TestSoftmaxNp:
    def test_rows_normalized_and_shift_invariant(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(6, 4)) * 10
        p = softmax_np(z)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(p, softmax_np(z + 123.0), atol=1e-12)

    def test_hand_value(self):
        p = softmax_np(np.array([np.log(1.0), np.log(3.0)]))
        np.testing.assert_allclose(p, [0.25, 0.75], atol=1e-15)


class TestOneHot:
    def test_layout(self):
        out = one_hot(np.array([0, 1, 1, 0]))
        np.testing.assert_array_equal(
            out, [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])


class TestDistillLossTensors:
    def _case(self, seed, bsz=6, temperature=1.0, alpha=0.5):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(bsz, 2)) * 2
        p_mix = np.stack([_random_distribution(rng) for _ in range(bsz)])
        y = one_hot(rng.integers(0, 2, size=bsz))
        cfg = DistillConfig(alpha=alpha, temperature=temperature)
        return logits, p_mix, y, cfg

    def test_terms_match_scalar_references(self):
        for seed in range(8):
            for temperature in (1.0, 2.0, 4.0):
                logits, p_mix, y, cfg = self._case(seed, temperature=temperature)
                _, br = distill_loss_tensors(p_mix, Tensor(logits), y, cfg)
                q_soft = softmax_np(logits / temperature)
                q = softmax_np(logits)
                kl_ref = np.mean([
                    temperature ** 2 * kl_divergence(p_mix[i], q_soft[i])
                    for i in range(len(logits))
                ])
                ce_ref = np.mean([
                    cross_entropy(y[i], q[i]) for i in range(len(logits))
                ])
                assert abs(br.kl_term - kl_ref) < 1e-12
                assert abs(br.ce_term - ce_ref) < 1e-12

    def test_alpha_linearity(self):
        logits, p_mix, y, _ = self._case(3)
        terms = {}
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            cfg = DistillConfig(alpha=alpha)
            _, br = distill_loss_tensors(p_mix, Tensor(logits), y, cfg)
            terms[alpha] = br
            assert abs(br.total - (alpha * br.kl_term + (1 - alpha) * br.ce_term)) < 1e-12
        assert terms[0.0].total == terms[0.0].ce_term
        assert terms[1.0].total == terms[1.0].kl_term
        # kl/ce terms themselves must not move with alpha
        assert terms[0.0].kl_term == terms[1.0].kl_term
        assert terms[0.0].ce_term == terms[1.0].ce_term

    def test_hard_target_rows(self):
        # an exactly one-hot mixture row exercises the 0 * log 0 = 0 branch
        logits = np.array([[0.3, -0.2], [1.0, 0.5]])
        p_mix = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        cfg = DistillConfig(alpha=1.0)
        _, br = distill_loss_tensors(p_mix, Tensor(logits), y, cfg)
        q = softmax_np(logits)
        kl_ref = 0.5 * (kl_divergence(p_mix[0], q[0]) + kl_divergence(p_mix[1], q[1]))
        assert abs(br.kl_term - kl_ref) < 1e-12
        assert np.isfinite(br.total)

    def test_gradients(self):
        for alpha, temperature in ((0.0, 1.0), (0.5, 1.0), (1.0, 1.0),
                                   (0.5, 2.0), (0.7, 4.0)):
            logits, p_mix, y, _ = self._case(11, temperature=temperature,
                                             alpha=alpha)
            cfg = DistillConfig(alpha=alpha, temperature=temperature)
            check_grads(
                lambda t: distill_loss_tensors(p_mix, t, y, cfg)[0], [logits])

    def test_batch_mismatch(self):
        logits, p_mix, y, cfg = self._case(0, bsz=4)
        with pytest.raises(ValueError, match="batch"):
            distill_loss_tensors(p_mix[:3], Tensor(logits), y, cfg)
        with pytest.raises(ValueError, match="batch"):
            distill_loss_tensors(p_mix, Tensor(logits), y[:3], cfg)


class TestCeLossTensor:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(5, 2)) * 3
        y = one_hot(rng.integers(0, 2, size=5))
        v = ce_loss_tensor(Tensor(logits), y).item()
        q = softmax_np(logits)
        ref = np.mean([cross_entropy(y[i], q[i]) for i in range(5)])
        assert abs(v - ref) < 1e-12

    def test_gradients(self):
        rng = np.random.default_rng(17)
        logits = rng.normal(size=(4, 2))
        y = one_hot(rng.integers(0, 2, size=4))
        check_grads(lambda t: ce_loss_tensor(t, y), [logits])


class _StubTeacher:
    """predict_probs returns a fixed distribution, recording the calls."""

    def __init__(self, p0):
        self.p0 = p0
        self.calls = []

    def predict_probs(self, *arrays, temperature=1.0):
        self.calls.append(temperature)
        n = arrays[0].shape[0]
        return np.tile([self.p0, 1.0 - self.p0], (n, 1))


class _StubStudent:
    """Linear logits from the pooled MFCC features; one trainable matrix."""

    def __init__(self, n_coeffs, seed=0):
        rng = np.random.default_rng(seed)
        self.w = Tensor(rng.normal(size=(2, n_coeffs)) * 0.1, requires_grad=True)

    def forward_logits(self, token_ids, mask, mfcc):
        pooled = mfcc.mean(axis=1)  # (B, n_coeffs)
        return Tensor(pooled) @ self.w.transpose(1, 0)

    def parameters(self):
        return [self.w]


def _batch(rng, n=4, n_coeffs=3):
    return types.SimpleNamespace(
        token_ids=np.zeros((n, 5), dtype=np.int64),
        mask=np.ones((n, 5)),
        mfcc=rng.normal(size=(n, 6, n_coeffs)),
        labels=rng.integers(0, 2, size=n),
    )


class TestStudentTrainStep:
    def test_step_updates_student_and_reports_breakdown(self):
        rng = np.random.default_rng(19)
        student = _StubStudent(3)
        before = student.w.data.copy()
        teachers = (_StubTeacher(0.7), _StubTeacher(0.4))
        cfg = DistillConfig(alpha=0.5, temperature=2.0)
        opt = SGD(student.parameters(), lr=0.1)
        br = student_train_step(_batch(rng), teachers, student, cfg, opt)
        assert np.any(student.w.data != before)
        assert np.isfinite(br.total)
        assert abs(br.total - (0.5 * br.kl_term + 0.5 * br.ce_term)) < 1e-12
        # teachers were queried at the distillation temperature
        assert teachers[0].calls == [2.0]
        assert teachers[1].calls == [2.0]

    def test_alpha_zero_ignores_teachers(self):
        # with no distillation weight, swapping the teachers for completely
        # different ones must leave the update bit-identical
        cfg = DistillConfig(alpha=0.0)
        results = []
        for teacher_pair in ((_StubTeacher(0.9), _StubTeacher(0.8)),
                             (_StubTeacher(0.1), _StubTeacher(0.3))):
            rng = np.random.default_rng(23)
            student = _StubStudent(3, seed=5)
            opt = SGD(student.parameters(), lr=0.05)
            student_train_step(_batch(rng), teacher_pair, student, cfg, opt)
            results.append(student.w.data.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_alpha_one_ignores_labels(self):
        cfg = DistillConfig(alpha=1.0)
        results = []
        for flip in (False, True):
            rng = np.random.default_rng(29)
            batch = _batch(rng)
            if flip:
                batch.labels = 1 - batch.labels
            student = _StubStudent(3, seed=7)
            opt = SGD(student.parameters(), lr=0.05)
            student_train_step(batch, (_StubTeacher(0.6), _StubTeacher(0.7)),
                               student, cfg, opt)
            results.append(student.w.data.copy())
        np.testing.assert_array_equal(results[0], results[1])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_raises_before_the_step(self):
        # The logits keep their values but pick up a NaN gradient: the loss
        # is finite, the gradient norm is not, and the weights stay put.
        rng = np.random.default_rng(37)
        student = _StubStudent(3)
        plain = student.forward_logits
        student.forward_logits = lambda *a: plain(*a) + (student.w * 0.0).sum() ** 0.5
        before = student.w.data.copy()
        opt = SGD(student.parameters(), lr=0.1)
        with pytest.raises(FloatingPointError,
                           match="student, epoch 3, batch 4: non-finite gradient norm nan"):
            student_train_step(_batch(rng), (_StubTeacher(0.5), _StubTeacher(0.5)),
                               student, DistillConfig(), opt,
                               where="student, epoch 3, batch 4")
        assert opt.step_count == 0
        np.testing.assert_array_equal(student.w.data, before)

    def test_batch_size_mismatch(self):
        rng = np.random.default_rng(31)
        batch = _batch(rng)
        batch.mfcc = batch.mfcc[:3]
        student = _StubStudent(3)
        opt = SGD(student.parameters(), lr=0.1)
        with pytest.raises(ValueError, match="batch size mismatch"):
            student_train_step(batch, (_StubTeacher(0.5), _StubTeacher(0.5)),
                               student, DistillConfig(), opt)


def test_checked_step_raises_when_backward_misses_a_parameter():
    # the loss reads w but not unused: no parameter may move, w included
    rng = np.random.default_rng(41)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    unused = Tensor(rng.normal(size=2), requires_grad=True)
    before = [w.data.tobytes(), unused.data.tobytes()]
    for opt in (SGD([w, unused], 0.1), Adam([w, unused], 0.1)):
        loss = ce_loss_tensor(Tensor(rng.normal(size=(4, 3))) @ w, one_hot([0, 1, 1, 0]))
        with pytest.raises(RuntimeError, match="^qat, epoch 1, batch 2: backward did not reach"):
            checked_step(loss, opt, "qat, epoch 1, batch 2")
        assert opt.step_count == 0
        assert [w.data.tobytes(), unused.data.tobytes()] == before


def test_require_finite_grads_returns_the_global_norm():
    a, b = Tensor(np.zeros(2), requires_grad=True), Tensor(np.zeros((1, 1)), requires_grad=True)
    a.grad = np.array([3.0, 0.0])
    b.grad = np.full((1, 1), 4.0)
    assert require_finite_grads([a, b], "x") == 5.0
    for bad in (np.nan, np.inf, -np.inf):
        b.grad = np.full((1, 1), bad)
        with pytest.raises(FloatingPointError, match="^stage y: non-finite gradient norm"):
            require_finite_grads([a, b], "stage y")
    b.grad = np.full((1, 1), 1e300)  # finite entries whose squares overflow
    with pytest.raises(FloatingPointError, match="inf"):
        require_finite_grads([a, b], "z")

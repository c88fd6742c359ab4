"""Attention-fusion tests.

The single-block path is checked against a from-scratch numpy oracle at
1e-12 over many random instances; softmax weights must form an exact convex
pair, so the fused vector is componentwise bracketed by the two projected
inputs. The multi-head variant must reduce exactly to a single block when
configured as the identity.
"""

import numpy as np
import pytest

from distillfuse.fusion import (
    FusionParams,
    MultiHeadFusion,
    fuse_attention,
    multi_head_fuse,
)
from distillfuse.tensor import ShapeError, Tensor

from helpers import check_grads


def _oracle(x_t, x_a, p):
    """fuse_attention recomputed with plain numpy, no shared code paths."""
    h_t = x_t @ p.w_t.data.T + p.b_t.data
    h_a = x_a @ p.w_a.data.T + p.b_a.data
    e_t = h_t @ p.w_e.data.T + p.b_e.data
    e_a = h_a @ p.w_e.data.T + p.b_e.data
    m = np.maximum(e_t, e_a)
    z_t = np.exp(e_t - m)
    z_a = np.exp(e_a - m)
    w_t = z_t / (z_t + z_a)
    w_a = z_a / (z_t + z_a)
    return w_t * h_t + w_a * h_a, np.concatenate([w_t, w_a], axis=1)


class TestFuseAttention:
    def test_matches_oracle_many_instances(self):
        # 50 random (params, inputs) instances, elementwise agreement 1e-12
        for seed in range(50):
            rng = np.random.default_rng(seed)
            d_t, d_a, d_h = rng.integers(2, 9, size=3)
            p = FusionParams(int(d_t), int(d_a), int(d_h), rng=rng)
            # break the zero-bias symmetry so the scorer bias participates
            p.b_t.data[:] = rng.normal(size=d_h)
            p.b_a.data[:] = rng.normal(size=d_h)
            p.b_e.data[:] = rng.normal(size=1)
            x_t = rng.normal(size=(4, d_t))
            x_a = rng.normal(size=(4, d_a))
            h_f, w = fuse_attention(x_t, x_a, p)
            h_ref, w_ref = _oracle(x_t, x_a, p)
            np.testing.assert_allclose(h_f.data, h_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(w.data, w_ref, rtol=0, atol=1e-12)

    def test_weights_form_convex_pair(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            p = FusionParams(5, 7, 6, rng=rng)
            _, w = fuse_attention(rng.normal(size=(8, 5)),
                                  rng.normal(size=(8, 7)), p)
            np.testing.assert_allclose(w.data.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert np.all(w.data > 0)

    def test_fused_vector_componentwise_between_projections(self):
        rng = np.random.default_rng(7)
        p = FusionParams(4, 4, 5, rng=rng)
        x_t = rng.normal(size=(16, 4))
        x_a = rng.normal(size=(16, 4))
        h_f, _ = fuse_attention(x_t, x_a, p)
        h_t = x_t @ p.w_t.data.T + p.b_t.data
        h_a = x_a @ p.w_a.data.T + p.b_a.data
        lo = np.minimum(h_t, h_a)
        hi = np.maximum(h_t, h_a)
        assert np.all(h_f.data >= lo - 1e-12)
        assert np.all(h_f.data <= hi + 1e-12)

    def test_scorer_bias_shift_invariance(self):
        # b_e adds the same constant to both modality scores, so the softmax
        # (and hence the fused output) cannot depend on it.
        rng = np.random.default_rng(11)
        p = FusionParams(3, 3, 4, rng=rng)
        x_t = rng.normal(size=(6, 3))
        x_a = rng.normal(size=(6, 3))
        h0, w0 = fuse_attention(x_t, x_a, p)
        p.b_e.data[:] = 137.5
        h1, w1 = fuse_attention(x_t, x_a, p)
        np.testing.assert_allclose(w0.data, w1.data, rtol=0, atol=1e-9)
        np.testing.assert_allclose(h0.data, h1.data, rtol=0, atol=1e-9)

    def test_single_vector_inputs(self):
        # fusion takes (B, d) batches only; one example is a batch of one
        rng = np.random.default_rng(13)
        p = FusionParams(4, 6, 5, rng=rng)
        x_t = rng.normal(size=4)
        x_a = rng.normal(size=6)
        for args in ((x_t, x_a), (x_t, x_a[None]), (x_t[None], x_a)):
            with pytest.raises(ShapeError, match="matmul"):
                fuse_attention(*args, p)
        h_f, w = fuse_attention(x_t[None], x_a[None], p)
        assert h_f.data.shape == (1, 5) and w.data.shape == (1, 2)

    def test_batch_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        p = FusionParams(3, 3, 3, rng=rng)
        with pytest.raises(ValueError, match="batch"):
            fuse_attention(rng.normal(size=(2, 3)), rng.normal(size=(3, 3)), p)

    def test_dominant_modality_saturates_weight(self):
        # Engineer scores so the text branch wins by a huge margin: its
        # weight must approach 1 and the fused vector the text projection.
        rng = np.random.default_rng(17)
        p = FusionParams(2, 2, 2, rng=rng)
        p.w_t.data[:] = np.eye(2)
        p.w_a.data[:] = np.eye(2)
        p.w_e.data[:] = np.array([[1.0, 0.0]])
        x_t = np.array([[50.0, 0.0]])
        x_a = np.array([[-50.0, 0.0]])
        h_f, w = fuse_attention(x_t, x_a, p)
        assert w.data[0, 0] > 1.0 - 1e-12
        np.testing.assert_allclose(h_f.data, x_t, atol=1e-10)

    def test_gradients(self):
        rng = np.random.default_rng(19)
        p = FusionParams(3, 4, 3, rng=rng)
        x_t = rng.normal(size=(2, 3))
        x_a = rng.normal(size=(2, 4))
        names = ("w_t", "b_t", "w_a", "b_a", "w_e", "b_e")
        arrays = [getattr(p, n).data.copy() for n in names]
        proj = rng.normal(size=(2, 3))

        def fn(xt_, xa_, *param_tensors):
            for n, t in zip(names, param_tensors):
                setattr(p, n, t)
            h_f, _ = fuse_attention(xt_, xa_, p)
            return (h_f * Tensor(proj)).sum()

        check_grads(fn, [x_t, x_a, *arrays])


class TestMultiHeadFusion:
    def test_weights_shape_and_convexity(self):
        rng = np.random.default_rng(23)
        mp = MultiHeadFusion(5, 6, 4, n_heads=3, rng=rng)
        x_t = rng.normal(size=(7, 5))
        x_a = rng.normal(size=(7, 6))
        h_f, w = multi_head_fuse(x_t, x_a, mp)
        assert h_f.data.shape == (7, 4)
        assert w.data.shape == (7, 3, 2)
        np.testing.assert_allclose(w.data.sum(axis=2), 1.0, rtol=0, atol=1e-12)

    def test_single_head_identity_reduction(self):
        # One head + identity output projection + zero bias must reproduce
        # the bare block exactly.
        rng = np.random.default_rng(29)
        mp = MultiHeadFusion(4, 5, 3, n_heads=1, rng=rng)
        mp.w_out.data[:] = np.eye(3)
        mp.b_out.data[:] = 0.0
        x_t = rng.normal(size=(5, 4))
        x_a = rng.normal(size=(5, 5))
        h_multi, w_multi = multi_head_fuse(x_t, x_a, mp)
        h_single, w_single = fuse_attention(x_t, x_a, mp.heads[0])
        np.testing.assert_allclose(h_multi.data, h_single.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w_multi.data[:, 0, :], w_single.data,
                                   rtol=0, atol=1e-12)

    def test_duplicate_heads_halved_output_equals_single(self):
        # Two identical heads mixed with W_out = [I/2, I/2] average two equal
        # vectors: the result is the single-head output again.
        rng = np.random.default_rng(31)
        mp = MultiHeadFusion(3, 4, 3, n_heads=2, rng=rng)
        for name, p in mp.heads[0].named_parameters():
            getattr(mp.heads[1], name).data[:] = p.data
        eye = np.eye(3)
        mp.w_out.data[:] = np.concatenate([eye / 2, eye / 2], axis=1)
        mp.b_out.data[:] = 0.0
        x_t = rng.normal(size=(6, 3))
        x_a = rng.normal(size=(6, 4))
        h_multi, _ = multi_head_fuse(x_t, x_a, mp)
        h_single, _ = fuse_attention(x_t, x_a, mp.heads[0])
        np.testing.assert_allclose(h_multi.data, h_single.data, rtol=0, atol=1e-12)

    def test_matches_oracle(self):
        # Full multi-head recomputation in numpy on random instances.
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            mp = MultiHeadFusion(4, 3, 5, n_heads=3, rng=rng)
            x_t = rng.normal(size=(4, 4))
            x_a = rng.normal(size=(4, 3))
            h_f, w = multi_head_fuse(x_t, x_a, mp)
            per_head = [_oracle(x_t, x_a, head) for head in mp.heads]
            cat = np.concatenate([h for h, _ in per_head], axis=1)
            h_ref = cat @ mp.w_out.data.T + mp.b_out.data
            w_ref = np.stack([w_k for _, w_k in per_head], axis=1)
            np.testing.assert_allclose(h_f.data, h_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(w.data, w_ref, rtol=0, atol=1e-12)

    def test_single_vector_inputs(self):
        rng = np.random.default_rng(37)
        mp = MultiHeadFusion(3, 3, 4, n_heads=2, rng=rng)
        x_t, x_a = rng.normal(size=3), rng.normal(size=3)
        with pytest.raises(ShapeError, match="matmul"):
            multi_head_fuse(x_t, x_a, mp)
        h_f, w = multi_head_fuse(x_t[None], x_a[None], mp)
        assert h_f.data.shape == (1, 4) and w.data.shape == (1, 2, 2)

    def test_head_count_validated(self):
        with pytest.raises(ValueError, match="n_heads"):
            MultiHeadFusion(3, 3, 4, n_heads=0, rng=np.random.default_rng(0))

    def test_named_parameters_cover_all_heads(self):
        mp = MultiHeadFusion(3, 3, 4, n_heads=3, rng=np.random.default_rng(0))
        names = [n for n, _ in mp.named_parameters()]
        assert len(names) == 3 * 6 + 2
        assert names[-2:] == ["w_out", "b_out"]
        assert names[0].startswith("head0.")
        assert len(set(names)) == len(names)

    def test_gradients(self):
        rng = np.random.default_rng(41)
        mp = MultiHeadFusion(2, 3, 2, n_heads=2, rng=rng)
        x_t = rng.normal(size=(2, 2))
        x_a = rng.normal(size=(2, 3))
        named = mp.named_parameters()
        arrays = [p.data.copy() for _, p in named]
        proj = rng.normal(size=(2, 2))

        def fn(xt_, xa_, *param_tensors):
            for (name, _), t in zip(named, param_tensors):
                if name.startswith("head"):
                    idx, attr = name.split(".", 1)
                    setattr(mp.heads[int(idx[4:])], attr, t)
                else:
                    setattr(mp, name, t)
            h_f, _ = multi_head_fuse(xt_, xa_, mp)
            return (h_f * Tensor(proj)).sum()

        check_grads(fn, [x_t, x_a, *arrays])

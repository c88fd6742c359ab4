"""Encoder-stack tests: affine layers, low-rank adapters, the masked text
encoder, the bidirectional LSTM, and the classification head.

Recurrent and attention outputs are checked against step-by-step numpy
re-implementations; gradients are checked against central differences. The
plain-numpy forwards taken when no tape can be recorded are checked byte for
byte against the taped forwards of the same weights.
"""

import numpy as np
import pytest

from distillfuse.encoders import (
    MASK_NEG,
    BiLstm,
    Block,
    ClassifierHead,
    LoraAdapter,
    TextEncoder,
    layer_norm,
    linear,
    lora_effective_weight,
    uniform_param,
    zeros_param,
)
from distillfuse import tensor
from distillfuse.models import TextTeacherModel, make_fake_quant_transform
from distillfuse.tensor import ShapeError, Tensor, no_grad, softmax_np

from helpers import FD_TOL, bilstm_reference, check_grads, numeric_grad, rel_err, tape_node


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _count_makes(monkeypatch) -> list:
    """Log every ``tensor._make`` call (one per tensor op, taped or not)."""
    made = []
    make = tensor._make

    def counting(*args):
        made.append(1)
        return make(*args)

    monkeypatch.setattr(tensor, "_make", counting)
    return made


def _taped_and_untaped(fn):
    """(taped, untaped) outputs of ``fn()``: called once in grad mode, where
    it must record a tape, and once under ``no_grad``, where it must not."""
    taped = fn()
    assert taped.requires_grad and tape_node(taped)._parents
    with no_grad():
        untaped = fn()
    assert not untaped.requires_grad
    return taped, untaped


class TestBlock:
    def test_names_follow_assignment_order_and_nesting(self):
        class Leaf(Block):
            def __init__(self):
                self.w = Tensor(np.zeros(2), requires_grad=True)
                self.size = 2

        class Outer(Block):
            def __init__(self):
                self.z = Tensor(np.zeros(1))  # a plain Tensor is a weight too
                self.rate = 0.5
                self.layers = [Leaf(), Leaf()]
                self.absent = None
                self.inner = Leaf()
                self.a = Tensor(np.zeros(3), requires_grad=True)

        outer = Outer()
        named = outer.named_parameters("m.")
        assert [n for n, _ in named] == ["m.z", "m.layer0.w", "m.layer1.w", "m.inner.w", "m.a"]
        assert named[1][1] is outer.layers[0].w and named[3][1] is outer.inner.w
        assert [n for n, _ in Leaf().named_parameters()] == ["w"]


class TestLinear:
    def test_weight_orientation_hand_example(self):
        # W is (out_features, in_features); the op must compute x @ W.T + b.
        x = Tensor(np.array([[1.0, 2.0, 3.0]]))
        w = Tensor(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]))
        b = Tensor(np.array([10.0, 20.0]))
        out = linear(x, w, b)
        np.testing.assert_allclose(out.data, [[11.0, 25.0]], rtol=0, atol=0)

    def test_bias_optional(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(5, 3)))
        out = linear(x, w)
        np.testing.assert_allclose(out.data, x.data @ w.data.T, atol=1e-15)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(2, 4))
        b = rng.normal(size=2)
        check_grads(lambda x_, w_, b_: linear(x_, w_, b_).sum(), [x, w, b])


class TestLayerNorm:
    def test_output_statistics(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(loc=3.0, scale=5.0, size=(4, 6, 8)))
        g = Tensor(np.ones(8), requires_grad=True)
        b = Tensor(np.zeros(8), requires_grad=True)
        out = layer_norm(x, g, b).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        # variance of the normalized features is var/(var+eps), just under 1
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-4)

    def test_hand_row(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
        g = Tensor(np.full(4, 2.0), requires_grad=True)
        b = Tensor(np.full(4, 0.5), requires_grad=True)
        out = layer_norm(x, g, b).data
        centered = np.array([-1.5, -0.5, 0.5, 1.5])
        expected = centered / np.sqrt(1.25 + 1e-5) * 2.0 + 0.5
        np.testing.assert_allclose(out[0], expected, atol=1e-15)

    def test_gamma_beta_affine(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(3, 5)))
        g1 = Tensor(np.ones(5), requires_grad=True)
        b0 = Tensor(np.zeros(5), requires_grad=True)
        base = layer_norm(x, g1, b0).data
        g = Tensor(rng.normal(size=5), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        out = layer_norm(x, g, b).data
        np.testing.assert_allclose(out, base * g.data + b.data, atol=1e-13)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 6))
        g = rng.normal(size=6)
        b = rng.normal(size=6)
        proj = rng.normal(size=(2, 6))
        check_grads(
            lambda x_, g_, b_: (layer_norm(x_, g_, b_) * Tensor(proj)).sum(),
            [x, g, b])


class TestParamInit:
    def test_uniform_bounds_and_seeding(self):
        p1 = uniform_param(np.random.default_rng(42), (50, 60), fan_in=60)
        p2 = uniform_param(np.random.default_rng(42), (50, 60), fan_in=60)
        bound = 1.0 / np.sqrt(60)
        assert np.all(np.abs(p1.data) <= bound)
        assert p1.data.std() > bound / 4  # actually spread out, not degenerate
        np.testing.assert_array_equal(p1.data, p2.data)
        assert p1.requires_grad

    def test_zeros_param(self):
        p = zeros_param((3, 4))
        assert p.data.shape == (3, 4)
        assert not p.data.any()
        assert p.requires_grad


class TestLoraAdapter:
    def test_effective_weight_hand_arithmetic(self):
        rng = np.random.default_rng(0)
        ad = LoraAdapter(2, 3, rank=1, alpha=4.0, rng=rng)
        ad.a.data[:] = np.array([[1.0, 2.0, 3.0]])
        ad.b.data[:] = np.array([[10.0], [20.0]])
        w0 = Tensor(np.zeros((2, 3)))
        eff = lora_effective_weight(w0, ad).data
        # scale = alpha/rank = 4; B @ A = [[10,20,30],[20,40,60]]
        np.testing.assert_allclose(
            eff, [[40.0, 80.0, 120.0], [80.0, 160.0, 240.0]], atol=0)

    def test_zero_b_init_is_identity(self):
        rng = np.random.default_rng(5)
        w0 = Tensor(rng.normal(size=(6, 4)))
        ad = LoraAdapter(6, 4, rank=2, rng=rng)
        eff = lora_effective_weight(w0, ad).data
        np.testing.assert_array_equal(eff, w0.data)

    def test_scale_property(self):
        ad = LoraAdapter(8, 8, rank=4, alpha=32.0, rng=np.random.default_rng(0))
        assert ad.scale == 8.0

    def test_rank_bounds(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="rank"):
            LoraAdapter(4, 6, rank=0, rng=rng)
        with pytest.raises(ValueError, match="rank"):
            LoraAdapter(4, 6, rank=5, rng=rng)
        LoraAdapter(4, 6, rank=4, rng=rng)  # boundary is allowed

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        ad = LoraAdapter(4, 6, rank=2, rng=rng)
        with pytest.raises(ShapeError):
            lora_effective_weight(Tensor(np.zeros((4, 5))), ad)

    def test_named_parameters(self):
        ad = LoraAdapter(4, 6, rank=2, rng=np.random.default_rng(0))
        names = [n for n, _ in ad.named_parameters("x.")]
        assert names == ["x.a", "x.b"]

    def test_gradients_flow_through_update(self):
        rng = np.random.default_rng(9)
        w0 = rng.normal(size=(3, 4))
        a = rng.normal(size=(2, 4))
        b = rng.normal(size=(3, 2))
        x = rng.normal(size=(5, 4))

        def fn(w0_, a_, b_):
            ad = LoraAdapter(3, 4, rank=2, alpha=6.0, rng=np.random.default_rng(0))
            ad.a = a_
            ad.b = b_
            return linear(Tensor(x), lora_effective_weight(w0_, ad)).sum()

        check_grads(fn, [w0, a, b])


class TestTextEncoder:
    def _tiny(self, rng=None, **kw):
        rng = rng or np.random.default_rng(11)
        kw.setdefault("d_model", 8)
        kw.setdefault("n_layers", 1)
        kw.setdefault("n_heads", 2)
        kw.setdefault("d_ff", 16)
        kw.setdefault("max_len", 12)
        return TextEncoder(20, rng=rng, **kw)

    def test_output_shape(self):
        enc = self._tiny()
        ids = np.array([[2, 5, 6, 3, 0], [2, 7, 3, 0, 0]])
        mask = np.array([[1, 1, 1, 1, 0], [1, 1, 1, 0, 0]], dtype=float)
        out = enc.forward(ids, mask)
        assert out.data.shape == (2, 8)

    def test_single_sequence_rejected(self):
        # ids and mask are (batch, length); one sequence is a batch of one
        enc = self._tiny()
        ids = np.array([2, 5, 3])
        for args in ((ids, np.ones(3)), (ids, np.ones((1, 3))), (ids[None], np.ones(3))):
            with pytest.raises(ShapeError, match=r"ids \(\d.*\) and mask \(\d"):
                enc.forward(*args)
        assert enc.forward(ids[None], np.ones((1, 3))).data.shape == (1, 8)

    def test_padding_ids_do_not_affect_output(self):
        # Everything past the mask should be invisible: swapping the padded
        # token ids for arbitrary other ids must leave the pooled vector
        # bit-identical.
        enc = self._tiny()
        mask = np.array([[1, 1, 1, 0, 0, 0]], dtype=float)
        ids_a = np.array([[2, 5, 3, 0, 0, 0]])
        ids_b = np.array([[2, 5, 3, 17, 9, 14]])
        out_a = enc.forward(ids_a, mask).data
        out_b = enc.forward(ids_b, mask).data
        np.testing.assert_array_equal(out_a, out_b)

    def test_pad_invariance_across_lengths(self):
        # A sequence padded out to a longer length pools to (nearly) the same
        # vector; learned positional embeddings only enter at real positions.
        enc = self._tiny()
        ids_short = np.array([[2, 5, 9, 3]])
        out_short = enc.forward(ids_short, np.ones((1, 4))).data
        ids_long = np.array([[2, 5, 9, 3, 0, 0, 0, 0]])
        mask_long = np.array([[1, 1, 1, 1, 0, 0, 0, 0]], dtype=float)
        out_long = enc.forward(ids_long, mask_long).data
        np.testing.assert_allclose(out_short, out_long, atol=1e-12)

    def test_token_id_bounds(self):
        enc = self._tiny()
        with pytest.raises(IndexError):
            enc.forward(np.array([[2, 25, 3]]), np.ones((1, 3)))
        with pytest.raises(IndexError):
            enc.forward(np.array([[2, -1, 3]]), np.ones((1, 3)))

    def test_sequence_length_bound(self):
        enc = self._tiny(max_len=4)
        with pytest.raises(ValueError, match="max_len"):
            enc.forward(np.zeros((1, 5), dtype=int), np.ones((1, 5)))

    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            TextEncoder(10, d_model=6, n_heads=4, rng=np.random.default_rng(0))

    def test_zero_initialized_adapters_are_inert(self):
        ids = np.array([[2, 5, 6, 3]])
        mask = np.ones((1, 4))
        plain = self._tiny(rng=np.random.default_rng(13))
        adapted = self._tiny(rng=np.random.default_rng(13), lora_rank=2)
        # Base weights drawn identically; zero-initialized B keeps the
        # adapted forward exactly on the base trajectory... as long as the
        # extra adapter draws don't shift the base stream. They do (shared
        # rng), so instead copy base weights over explicitly.
        for (_, p_src), (_, p_dst) in zip(
            plain.named_parameters(),
            [(n, p) for n, p in adapted.named_parameters() if ".lora_" not in n],
        ):
            p_dst.data[:] = p_src.data
        np.testing.assert_array_equal(
            plain.forward(ids, mask).data, adapted.forward(ids, mask).data)

    def test_adapter_split_and_freeze(self):
        enc = self._tiny(lora_rank=2)
        named = enc.named_parameters()
        adapters = [n for n, _ in named if ".lora_" in n]
        assert len(adapters) == 4  # q and v adapters, (a, b) each, 1 layer
        assert all(p.requires_grad for _, p in named)  # a bare encoder trains all
        # the text teacher assembles the same encoder with its base frozen
        teacher = TextTeacherModel(np.random.default_rng(11), vocab_size=20, d_model=8,
                                   n_layers=1, n_heads=2, d_ff=16, max_len=12,
                                   lora_rank=2, lora_alpha=32.0)
        frozen = teacher.encoder.named_parameters()
        assert [n for n, _ in frozen] == [n for n, _ in named]
        assert [n for n, p in frozen if p.requires_grad] == adapters

    @pytest.mark.parametrize("lora_rank", [0, 2])
    def test_untaped_forward_equals_taped_bytes(self, lora_rank):
        # Non-zero weights everywhere (LoRA ``b`` included), every mask
        # length from 1 to L, and L below max_len. A head width of 6 makes
        # the 1/sqrt(dh) score scale inexact, so its rounding shows.
        rng = np.random.default_rng(41)
        enc = TextEncoder(30, d_model=12, n_layers=2, n_heads=2, d_ff=16, max_len=12,
                          rng=rng, lora_rank=lora_rank)
        for _, p in enc.named_parameters():
            p.data = rng.normal(size=p.data.shape)
        assert lora_rank == 0 or np.any(enc.layers[0].lora_q.b.data != 0.0)
        l = 9
        ids = rng.integers(0, 30, size=(l, l))
        mask = (np.arange(l)[None, :] < np.arange(1, l + 1)[:, None]).astype(np.float64)
        taped, untaped = _taped_and_untaped(lambda: enc.forward(ids, mask))
        assert untaped.data.tobytes() == taped.data.tobytes()
        # The layer body itself: a plain array in gives the bytes Tensors give.
        layer = enc.layers[0]
        x = rng.normal(size=(l, l, 12))
        add_mask = ((mask - 1.0) * -MASK_NEG)[:, None, None, :]
        on_tensors = layer.forward(Tensor(x), add_mask)
        on_array = layer.forward(x.copy(), add_mask)
        assert on_tensors.requires_grad and isinstance(on_array, np.ndarray)
        assert on_array.tobytes() == on_tensors.data.tobytes()

    def test_frozen_encoder_in_grad_mode_records_no_nodes(self, monkeypatch):
        enc = self._tiny()
        ids = np.array([[2, 5, 6, 3], [2, 7, 3, 0]])
        mask = np.array([[1, 1, 1, 1], [1, 1, 1, 0]], dtype=float)
        made = _count_makes(monkeypatch)
        taped = enc.forward(ids, mask)
        assert taped.requires_grad and made  # trainable: still tapes
        for _, p in enc.named_parameters():
            p.requires_grad = False
        made.clear()
        frozen = enc.forward(ids, mask)
        assert not frozen.requires_grad and not made
        assert frozen.data.tobytes() == taped.data.tobytes()

    def test_untaped_forward_keeps_input_errors(self):
        enc = self._tiny(max_len=4)
        with no_grad():
            with pytest.raises(ValueError, match="max_len"):
                enc.forward(np.zeros((1, 5), dtype=int), np.ones((1, 5)))
            with pytest.raises(IndexError):
                enc.forward(np.array([[2, 25, 3]]), np.ones((1, 3)))

    def test_gradients_through_full_stack(self):
        rng = np.random.default_rng(21)
        enc = TextEncoder(9, d_model=4, n_layers=1, n_heads=2, d_ff=6,
                          max_len=6, rng=rng)
        ids = np.array([[2, 4, 7, 3], [2, 8, 3, 0]])
        mask = np.array([[1, 1, 1, 1], [1, 1, 1, 0]], dtype=float)
        proj = rng.normal(size=(2, 4))
        params = enc.named_parameters()
        arrays = [p.data.copy() for _, p in params]

        def fn(*tensors):
            for (name, p), t in zip(params, tensors):
                p.data = t.data if isinstance(t, Tensor) else t
                if isinstance(t, Tensor):
                    # substitute the leaf tensor into the module
                    setattr_by_name(enc, name, t)
            out = enc.forward(ids, mask)
            return (out * Tensor(proj)).sum()

        def setattr_by_name(module, name, value):
            parts = name.split(".")
            obj = module
            for part in parts[:-1]:
                if part.startswith("layer") and part[5:].isdigit():
                    obj = obj.layers[int(part[5:])]
                else:
                    obj = getattr(obj, part)
            setattr(obj, parts[-1], value)

        worst = check_grads(fn, arrays)
        assert worst < FD_TOL


class TestBiLstm:
    def test_two_frame_hand_unroll(self):
        # Recompute a 2-frame forward+backward pass with plain numpy and the
        # documented packed-gate layout (input, forget, cell, output).
        rng = np.random.default_rng(17)
        h, d = 3, 2
        model = BiLstm(input_dim=d, hidden_dim=h, rng=rng)
        x = rng.normal(size=(1, 2, d))

        def run(wx, wh, b, frames):
            hs = np.zeros(h)
            cs = np.zeros(h)
            seen = []
            for frame in frames:
                z = wx @ frame + wh @ hs + b
                i = _sigmoid(z[0 * h : 1 * h])
                f = _sigmoid(z[1 * h : 2 * h])
                g = np.tanh(z[2 * h : 3 * h])
                o = _sigmoid(z[3 * h : 4 * h])
                cs = f * cs + i * g
                hs = o * np.tanh(cs)
                seen.append(hs)
            return hs, np.mean(seen, axis=0)

        hf, mf = run(model.wx_f.data, model.wh_f.data, model.b_f.data,
                     [x[0, 0], x[0, 1]])
        hb, mb = run(model.wx_b.data, model.wh_b.data, model.b_b.data,
                     [x[0, 1], x[0, 0]])

        final = model.final_states(x).data
        mean = model.mean_states(x).data
        np.testing.assert_allclose(final[0], np.concatenate([hf, hb]), atol=1e-14)
        np.testing.assert_allclose(mean[0], np.concatenate([mf, mb]), atol=1e-14)

    def test_output_shapes(self):
        model = BiLstm(input_dim=5, hidden_dim=4, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(3, 7, 5))
        assert model.final_states(x).data.shape == (3, 8)
        assert model.mean_states(x).data.shape == (3, 8)

    def test_backward_direction_sees_reversed_input(self):
        # The backward pass over x equals a forward pass (with the backward
        # weights) over time-reversed x.
        rng = np.random.default_rng(23)
        model = BiLstm(input_dim=3, hidden_dim=2, rng=rng)
        flipped = BiLstm(input_dim=3, hidden_dim=2, rng=rng)
        for name in ("wx", "wh", "b"):
            setattr(flipped, f"{name}_f", getattr(model, f"{name}_b"))
        x = rng.normal(size=(2, 5, 3))
        hb = model.final_states(x).data[:, 2:]
        hb_via_flip = flipped.final_states(x[:, ::-1, :].copy()).data[:, :2]
        np.testing.assert_array_equal(hb, hb_via_flip)

    @pytest.mark.parametrize("steps", [1, 6])
    @pytest.mark.parametrize("quantized", [False, True], ids=["float", "qat"])
    @pytest.mark.parametrize("states", ["final_states", "mean_states"])
    def test_equals_per_direction_reference_bytes(self, states, quantized, steps):
        # Outputs, taped and untaped, and all six weight gradients match the
        # one-direction-per-loop oracle byte for byte.
        rng = np.random.default_rng(7 + steps)
        model = BiLstm(input_dim=4, hidden_dim=3, rng=rng)
        for _, p in model.named_parameters():
            p.data = rng.normal(size=p.data.shape)
        x = rng.normal(size=(5, steps, 4))
        proj = Tensor(rng.normal(size=(5, 6)))
        transform = make_fake_quant_transform("symmetric") if quantized else None
        which = ("final_states", "mean_states").index(states)
        runs = {
            "model": lambda: getattr(model, states)(x, transform),
            "reference": lambda: bilstm_reference(model, x, transform)[which],
        }
        seen = {}
        for key, run in runs.items():
            taped, untaped = _taped_and_untaped(run)
            for _, p in model.named_parameters():
                p.grad = None
            (taped * proj).sum().backward()
            seen[key] = [taped.data.tobytes(), untaped.data.tobytes()] + [
                p.grad.tobytes() for _, p in model.named_parameters()]
        assert len(seen["model"]) == 8
        assert seen["model"] == seen["reference"]

    def test_feature_dim_checked(self):
        model = BiLstm(input_dim=4, hidden_dim=2, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError, match="feature dim"):
            model.final_states(np.zeros((1, 3, 5)))
        with no_grad(), pytest.raises(ShapeError, match="feature dim"):
            model.mean_states(np.zeros((1, 3, 5)))

    def test_weight_transform_hook(self):
        # A transform that zeroes every weight must produce all-zero states
        # (tanh(0) etc. collapse the recurrence).
        model = BiLstm(input_dim=2, hidden_dim=2, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(1, 3, 2))
        zeroed = model.final_states(
            x, transform=lambda name, p: Tensor(np.zeros_like(p.data)))
        np.testing.assert_array_equal(zeroed.data, np.zeros((1, 4)))

    @pytest.mark.parametrize("bsz", [1, 7, 32])
    @pytest.mark.parametrize("steps", [1, 2, 60])
    def test_untaped_forward_equals_taped_bytes(self, bsz, steps):
        rng = np.random.default_rng(100 * bsz + steps)
        model = BiLstm(input_dim=13, hidden_dim=8, rng=rng)
        for _, p in model.named_parameters():
            p.data = rng.normal(size=p.data.shape)
        x = rng.normal(size=(bsz, steps, 13))
        for transform in (None, make_fake_quant_transform("symmetric")):
            for states in (model.final_states, model.mean_states):
                taped, untaped = _taped_and_untaped(lambda: states(x, transform))
                assert untaped.data.shape == (bsz, 16)
                assert untaped.data.tobytes() == taped.data.tobytes()

    def test_untaped_forward_with_saturated_gates_equals_taped_bytes(self):
        # Biases of +-1e3 push every gate pre-activation to several hundred
        # or more, pinning each sigmoid and tanh at 0 or +-1; the untaped
        # sigmoid must saturate exactly as the taped one.
        rng = np.random.default_rng(43)
        model = BiLstm(input_dim=3, hidden_dim=4, rng=rng)
        for name in ("b_f", "b_b"):
            getattr(model, name).data = rng.choice([-1e3, 1e3], size=16)
        x = rng.normal(size=(5, 7, 3)) * 100.0
        for states in (model.final_states, model.mean_states):
            taped, untaped = _taped_and_untaped(lambda: states(x))
            assert untaped.data.tobytes() == taped.data.tobytes()
            assert np.all(np.abs(untaped.data) <= 1.0)

    def test_records_tape_decides_the_path(self, monkeypatch):
        # Trainable weights in grad mode tape; under no_grad, or with every
        # weight frozen, the forward runs on plain arrays: not one tensor op.
        model = BiLstm(input_dim=3, hidden_dim=2, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 4, 3))
        made = _count_makes(monkeypatch)
        assert model.mean_states(x).requires_grad and made
        made.clear()
        with no_grad():
            model.final_states(x)
            model.mean_states(x)
        assert len(made) == 2  # the two concat calls of the entry points
        for _, p in model.named_parameters():
            p.requires_grad = False
        made.clear()
        assert not model.final_states(x).requires_grad and len(made) == 1

    def test_gradients(self):
        rng = np.random.default_rng(29)
        model = BiLstm(input_dim=2, hidden_dim=2, rng=rng)
        x = rng.normal(size=(2, 3, 2))
        names = ("wx_f", "wh_f", "b_f", "wx_b", "wh_b", "b_b")
        arrays = [getattr(model, n).data.copy() for n in names]
        proj = rng.normal(size=(2, 4))

        def fn(*tensors):
            for n, t in zip(names, tensors):
                setattr(model, n, t)
            return (model.final_states(x) * Tensor(proj)).sum()

        check_grads(fn, arrays)


class TestClassifierHead:
    def test_logits_hand_example(self):
        head = ClassifierHead(3, rng=np.random.default_rng(0))
        head.w.data[:] = np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 1.0]])
        head.b.data[:] = np.array([0.5, -0.5])
        feats = Tensor(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(head.logits(feats).data, [[7.5, 0.5]], atol=0)

    def test_probs_normalized(self):
        rng = np.random.default_rng(2)
        head = ClassifierHead(6, rng=rng)
        feats = Tensor(rng.normal(size=(10, 6)))
        p = softmax_np(head.logits(feats).data, axis=-1)  # as the models' predict_probs
        assert p.shape == (10, 2)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p >= 0)

    def test_named_parameters_prefix(self):
        head = ClassifierHead(4, rng=np.random.default_rng(0))
        assert [n for n, _ in head.named_parameters("audio.")] == [
            "audio.w", "audio.b"]

    def test_gradients(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(2, 3))
        b = rng.normal(size=2)

        def fn(x_, w_, b_):
            # negative log prob of class 0, a typical downstream use
            from distillfuse.tensor import clamp_min, softmax

            p = softmax(linear(x_, w_, b_), axis=-1)
            return (clamp_min(p[:, 0], 1e-12).log() * -1.0).sum()

        check_grads(fn, [x, w, b])

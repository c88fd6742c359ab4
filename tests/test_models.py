"""Model assembly tests: teacher/student construction, probability contracts,
checkpoint round-trips with bit-exact predictions, quantized audio teacher
storage, and the attention-weight surface.
"""

import re
import struct

import numpy as np
import pytest

from distillfuse.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from distillfuse.config import RunConfig
from distillfuse.models import (
    AudioTeacherModel,
    StudentModel,
    TextTeacherModel,
    load_model,
    make_fake_quant_transform,
    model_from_checkpoint,
    quantize_model,
    quantized_storage_bytes,
)
from distillfuse.quant import dequantize


def _tiny_cfg(**kw):
    base = dict(
        d_model=8, n_layers=1, n_heads=2, d_ff=16, max_len=10,
        lstm_hidden=4, n_coeffs=3, lora_rank=2, lora_alpha=8.0,
        fusion_dim=6, fusion_heads=2, seed=1,
    )
    base.update(kw)
    return RunConfig(**base)


def _text_batch(rng, n=3, length=6, vocab=12):
    ids = rng.integers(0, vocab, size=(n, length))
    mask = np.ones((n, length))
    mask[:, length - 2 :] = 0.0
    return ids, mask


def _mfcc_batch(rng, n=3, t=5, c=3):
    return rng.normal(size=(n, t, c))


class TestTextTeacher:
    def test_build_and_probs(self):
        model = TextTeacherModel.build(12, _tiny_cfg())
        rng = np.random.default_rng(0)
        ids, mask = _text_batch(rng)
        p = model.predict_probs(ids, mask)
        assert p.shape == (3, 2)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_base_frozen_adapters_trainable(self):
        model = TextTeacherModel.build(12, _tiny_cfg())
        trainable = model.trainable_parameters()
        # adapters (2 per layer x 2 tensors) + head (w, b)
        assert len(trainable) == 4 + 2
        assert all(not p.requires_grad for p in model.encoder.base_parameters())

    def test_temperature_softens(self):
        model = TextTeacherModel.build(12, _tiny_cfg())
        rng = np.random.default_rng(1)
        ids, mask = _text_batch(rng)
        p1 = model.predict_probs(ids, mask, temperature=1.0)
        p4 = model.predict_probs(ids, mask, temperature=4.0)
        np.testing.assert_allclose(p4.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.abs(p4 - 0.5) <= np.abs(p1 - 0.5) + 1e-12)

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        model = TextTeacherModel.build(12, _tiny_cfg())
        rng = np.random.default_rng(2)
        # move weights off their init so the reload is actually exercised
        for _, p in model.named_parameters():
            p.data = p.data + rng.normal(size=p.data.shape) * 0.01
        ids, mask = _text_batch(rng)
        before = model.predict_probs(ids, mask)
        path = tmp_path / "text.ckpt"
        save_checkpoint(path, model.to_checkpoint())
        back = load_model(path)
        assert isinstance(back, TextTeacherModel)
        after = back.predict_probs(ids, mask)
        np.testing.assert_array_equal(before, after)


class TestAudioTeacher:
    def test_build_and_probs(self):
        model = AudioTeacherModel.build(_tiny_cfg())
        rng = np.random.default_rng(3)
        p = model.predict_probs(_mfcc_batch(rng))
        assert p.shape == (3, 2)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        model = AudioTeacherModel.build(_tiny_cfg())
        rng = np.random.default_rng(4)
        for _, p in model.named_parameters():
            p.data = p.data + rng.normal(size=p.data.shape) * 0.01
        mfcc = _mfcc_batch(rng)
        before = model.predict_probs(mfcc)
        path = tmp_path / "audio.ckpt"
        save_checkpoint(path, model.to_checkpoint())
        back = load_model(path)
        assert isinstance(back, AudioTeacherModel)
        np.testing.assert_array_equal(before, back.predict_probs(mfcc))
        assert back.quantized_blocks is None

    def test_quantize_model_replaces_weights_with_dequantized(self):
        model = AudioTeacherModel.build(_tiny_cfg())
        float_weights = {n: p.data.copy() for n, p in model.bilstm.named_parameters()}
        quantize_model(model, "symmetric")
        assert set(model.quantized_blocks) == {
            n for n, p in model.bilstm.named_parameters() if p.data.ndim >= 2}
        for name, qm in model.quantized_blocks.items():
            got = dict(model.bilstm.named_parameters())[name].data
            np.testing.assert_array_equal(got, dequantize(qm))
            err = np.abs(got - float_weights[name]).max()
            assert err <= qm.params.scale / 2 + 1e-15
        # biases stay float
        assert "b_f" not in model.quantized_blocks

    def test_quantized_checkpoint_round_trip(self, tmp_path):
        model = AudioTeacherModel.build(_tiny_cfg())
        rng = np.random.default_rng(5)
        for _, p in model.named_parameters():
            p.data = p.data + rng.normal(size=p.data.shape) * 0.01
        quantize_model(model, "symmetric")
        mfcc = _mfcc_batch(rng)
        before = model.predict_probs(mfcc)
        path = tmp_path / "audio_q.ckpt"
        save_checkpoint(path, model.to_checkpoint())
        raw = load_checkpoint(path)
        assert raw.meta["quantized"] == "true"
        assert set(raw.quantized) == set(model.quantized_blocks)
        back = load_model(path)
        assert back.quantized_blocks is not None
        np.testing.assert_array_equal(before, back.predict_probs(mfcc))

    def test_storage_accounting(self):
        model = AudioTeacherModel.build(_tiny_cfg())
        with pytest.raises(ValueError, match="no quantized blocks"):
            quantized_storage_bytes(model)
        quantize_model(model)
        q_bytes, f_bytes = quantized_storage_bytes(model)
        n_entries = sum(qm.values.size for qm in model.quantized_blocks.values())
        assert q_bytes == n_entries
        assert f_bytes == 8 * n_entries
        assert q_bytes * 4 < f_bytes

    def test_fake_quant_transform_spares_biases(self):
        model = AudioTeacherModel.build(_tiny_cfg())
        transform = make_fake_quant_transform("symmetric")
        mfcc = _mfcc_batch(np.random.default_rng(6))
        out_fq = model.forward_logits(mfcc, transform=transform)
        out_plain = model.forward_logits(mfcc)
        # fake-quantized forward differs from the float forward...
        assert np.any(out_fq.data != out_plain.data)
        # ...but biases pass through the transform untouched
        b = dict(model.bilstm.named_parameters())["b_f"]
        assert transform("b_f", b) is b


class TestStudent:
    def test_build_multi_and_single_head(self):
        multi = StudentModel.build(12, _tiny_cfg(multi_head=True))
        single = StudentModel.build(12, _tiny_cfg(multi_head=False))
        assert multi.multi_head and not single.multi_head
        rng = np.random.default_rng(7)
        ids, mask = _text_batch(rng)
        mfcc = _mfcc_batch(rng)
        for model in (multi, single):
            p = model.predict_probs(ids, mask, mfcc)
            assert p.shape == (3, 2)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_attention_weights_shape_and_convexity(self):
        rng = np.random.default_rng(8)
        ids, mask = _text_batch(rng)
        mfcc = _mfcc_batch(rng)
        multi = StudentModel.build(12, _tiny_cfg(multi_head=True, fusion_heads=2))
        logits, w = multi.forward_with_attention(ids, mask, mfcc)
        assert logits.data.shape == (3, 2)
        assert w.shape == (3, 2, 2)
        np.testing.assert_allclose(w.sum(axis=2), 1.0, atol=1e-12)
        single = StudentModel.build(12, _tiny_cfg(multi_head=False))
        _, w1 = single.forward_with_attention(ids, mask, mfcc)
        assert w1.shape == (3, 1, 2)
        np.testing.assert_allclose(w1.sum(axis=2), 1.0, atol=1e-12)

    def test_all_parameters_trainable(self):
        model = StudentModel.build(12, _tiny_cfg())
        named = model.named_parameters()
        assert len(model.trainable_parameters()) == len(named)
        prefixes = {n.split(".", 1)[0] for n, _ in named}
        assert prefixes == {"text", "audio", "fusion", "head"}

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        for multi in (True, False):
            model = StudentModel.build(12, _tiny_cfg(multi_head=multi))
            rng = np.random.default_rng(9)
            for _, p in model.named_parameters():
                p.data = p.data + rng.normal(size=p.data.shape) * 0.01
            ids, mask = _text_batch(rng)
            mfcc = _mfcc_batch(rng)
            before = model.predict_probs(ids, mask, mfcc)
            path = tmp_path / f"student_{multi}.ckpt"
            save_checkpoint(path, model.to_checkpoint())
            back = load_model(path)
            assert isinstance(back, StudentModel)
            assert back.multi_head == multi
            np.testing.assert_array_equal(before, back.predict_probs(ids, mask, mfcc))


# Block names of a two-layer text encoder, without and with LoRA adapters
# (the student's encoder has none), of the BiLSTM and of one fusion block.
_LAYER = ["wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo", "w1", "b1", "w2", "b2",
          "ln1_g", "ln1_b", "ln2_g", "ln2_b"]
_ENCODER = ["tok_emb", "pos_emb", *(f"layer{i}.{n}" for i in range(2) for n in _LAYER)]
_LORA_ENCODER = ["tok_emb", "pos_emb", *(
    f"layer{i}.{n}" for i in range(2)
    for n in [*_LAYER, "lora_q.a", "lora_q.b", "lora_v.a", "lora_v.b"])]
_BILSTM = ["wx_f", "wh_f", "b_f", "wx_b", "wh_b", "b_b"]
_FUSION = ["w_t", "b_t", "w_a", "b_a", "w_e", "b_e"]


class TestBlockNames:
    """Each kind's checkpoint block names, in the order a checkpoint stores them."""

    @pytest.mark.parametrize("kind, multi_head, heads, expected", [
        ("text-teacher", False, 1, [*_LORA_ENCODER, "head.w", "head.b"]),
        ("audio-teacher", False, 1, [*_BILSTM, "head.w", "head.b"]),
        ("student", True, 2, [*("text." + n for n in _ENCODER), *("audio." + n for n in _BILSTM),
                              *(f"fusion.head{i}.{n}" for i in range(2) for n in _FUSION),
                              "fusion.w_out", "fusion.b_out", "head.w", "head.b"]),
        ("student", True, 1, [*("text." + n for n in _ENCODER), *("audio." + n for n in _BILSTM),
                              *("fusion.head0." + n for n in _FUSION),
                              "fusion.w_out", "fusion.b_out", "head.w", "head.b"]),
        ("student", False, 1, [*("text." + n for n in _ENCODER), *("audio." + n for n in _BILSTM),
                               *("fusion." + n for n in _FUSION), "head.w", "head.b"]),
    ], ids=["text-teacher", "audio-teacher", "student-2-head", "student-1-head", "student-single"])
    def test_ordered_block_names(self, kind, multi_head, heads, expected):
        cfg = _tiny_cfg(n_layers=2, lora_rank=1, multi_head=multi_head, fusion_heads=heads)
        model = {"text-teacher": lambda: TextTeacherModel.build(12, cfg),
                 "audio-teacher": lambda: AudioTeacherModel.build(cfg),
                 "student": lambda: StudentModel.build(12, cfg)}[kind]()
        assert list(model.to_checkpoint().arrays) == expected
        assert list(model_from_checkpoint(model.to_checkpoint()).to_checkpoint().arrays) == expected

    def test_loading_draws_no_random_numbers(self, tmp_path, monkeypatch):
        cfg = _tiny_cfg()
        models = [TextTeacherModel.build(12, cfg), AudioTeacherModel.build(cfg),
                  StudentModel.build(12, cfg)]
        for i, model in enumerate(models):
            save_checkpoint(tmp_path / f"{i}.ckpt", model.to_checkpoint())

        def no_rng(*args, **kwargs):
            raise AssertionError("a checkpoint load drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        for i, model in enumerate(models):
            back = load_model(tmp_path / f"{i}.ckpt")
            assert type(back) is type(model)
            for (n, p), (m, q) in zip(model.named_parameters(), back.named_parameters()):
                assert n == m
                np.testing.assert_array_equal(p.data, q.data)


class TestDispatch:
    def test_unknown_kind_rejected(self, tmp_path):
        from distillfuse.checkpoint import Checkpoint

        path = tmp_path / "odd.ckpt"
        save_checkpoint(path, Checkpoint("mystery-model", {}))
        with pytest.raises(CheckpointError, match="unknown model kind"):
            load_model(path)

    def test_mismatched_blocks_rejected(self, tmp_path):
        model = AudioTeacherModel.build(_tiny_cfg())
        ckpt = model.to_checkpoint()
        del ckpt.arrays["wx_f"]
        ckpt.arrays["rogue"] = np.zeros(3)
        with pytest.raises(CheckpointError, match="wx_f"):
            model_from_checkpoint(ckpt)

    def test_wrong_shape_rejected(self):
        model = AudioTeacherModel.build(_tiny_cfg())
        ckpt = model.to_checkpoint()
        ckpt.arrays["wx_f"] = np.zeros((2, 2))
        with pytest.raises(CheckpointError, match="shape"):
            model_from_checkpoint(ckpt)


class TestCheckpointValidation:
    # Meta keys each kind's from_checkpoint reads to rebuild the model.
    REQUIRED_META = {
        "text-teacher": ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff",
                         "max_len", "lora_rank", "lora_alpha"),
        "audio-teacher": ("input_dim", "hidden_dim"),
        "student": ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_len",
                    "input_dim", "hidden_dim", "fusion_dim", "multi_head", "fusion_heads"),
    }

    @staticmethod
    def _model(kind):
        cfg = _tiny_cfg()
        return {
            "text-teacher": lambda: TextTeacherModel.build(12, cfg),
            "audio-teacher": lambda: AudioTeacherModel.build(cfg),
            "student": lambda: StudentModel.build(12, cfg),
        }[kind]()

    @staticmethod
    def _save(path, ckpt, meta):
        from distillfuse.checkpoint import Checkpoint

        save_checkpoint(path, Checkpoint(ckpt.kind, meta, ckpt.arrays, ckpt.quantized))
        return path

    @pytest.mark.parametrize("kind", sorted(REQUIRED_META))
    def test_missing_meta_key_names_file_and_key(self, tmp_path, kind):
        ckpt = self._model(kind).to_checkpoint()
        assert set(self.REQUIRED_META[kind]) <= set(ckpt.meta)
        for key in self.REQUIRED_META[kind]:
            meta = {k: v for k, v in ckpt.meta.items() if k != key}
            path = self._save(tmp_path / f"{key}.ckpt", ckpt, meta)
            with pytest.raises(CheckpointError, match=rf"{re.escape(str(path))}: missing meta key '{key}'"):
                load_model(path)

    # Values that do not parse, or parse out of range: sizes must be >= 1,
    # lora_rank >= 0, floats finite. The pairs in IN_RANGE are valid.
    BAD_VALUES = ("4.5x", "0", "-4", "nan", "inf")
    IN_RANGE = {("lora_rank", "0"), ("lora_alpha", "0"), ("lora_alpha", "-4")}

    @pytest.mark.parametrize("kind", sorted(REQUIRED_META))
    def test_unparseable_meta_value_names_file_and_key(self, tmp_path, kind):
        ckpt = self._model(kind).to_checkpoint()
        for key in self.REQUIRED_META[kind]:
            for n, value in enumerate(self.BAD_VALUES):
                if (key, value) in self.IN_RANGE:
                    continue
                meta = dict(ckpt.meta, **{key: value})
                path = self._save(tmp_path / f"{key}-{n}.ckpt", ckpt, meta)
                with pytest.raises(CheckpointError,
                                   match=rf"{re.escape(str(path))}: meta key '{key}' "
                                         rf"has invalid value '{re.escape(value)}'"):
                    load_model(path)

    @pytest.mark.parametrize("kind, key, value, message", [
        ("text-teacher", "n_heads", "3", "d_model 8 not divisible by n_heads 3"),
        ("student", "n_heads", "3", "d_model 8 not divisible by n_heads 3"),
        ("text-teacher", "lora_rank", "9", r"rank must lie in \[1, 8\], got 9"),
    ], ids=["text-n_heads", "student-n_heads", "text-lora_rank"])
    def test_inconsistent_meta_names_file(self, tmp_path, kind, key, value, message):
        """Values valid one by one that the model's constructor rejects
        together raise CheckpointError naming the file."""
        ckpt = self._model(kind).to_checkpoint()
        path = self._save(tmp_path / "odd.ckpt", ckpt, dict(ckpt.meta, **{key: value}))
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: {message}$"):
            load_model(path)

    def test_meta_keys_order_and_strings(self):
        """The meta each kind writes, key order and value strings included;
        a text teacher without adapters stores lora_alpha as 0.0 and a
        single-head student stores fusion_heads as 1."""
        encoder = {"vocab_size": "12", "d_model": "8", "n_layers": "1", "n_heads": "2",
                   "d_ff": "16", "max_len": "10"}
        student = {**encoder, "input_dim": "3", "hidden_dim": "4", "fusion_dim": "6"}
        cases = [
            (TextTeacherModel.build(12, _tiny_cfg()),
             {**encoder, "lora_rank": "2", "lora_alpha": "8.0"}),
            (TextTeacherModel.build(12, _tiny_cfg(lora_rank=0)),
             {**encoder, "lora_rank": "0", "lora_alpha": "0.0"}),
            (AudioTeacherModel.build(_tiny_cfg()),
             {"input_dim": "3", "hidden_dim": "4", "quantized": "false"}),
            (quantize_model(AudioTeacherModel.build(_tiny_cfg())),
             {"input_dim": "3", "hidden_dim": "4", "quantized": "true"}),
            (StudentModel.build(12, _tiny_cfg()),
             {**student, "multi_head": "true", "fusion_heads": "2"}),
            (StudentModel.build(12, _tiny_cfg(multi_head=False)),
             {**student, "multi_head": "false", "fusion_heads": "1"}),
        ]
        for model, meta in cases:
            assert list(model.to_checkpoint().meta.items()) == list(meta.items())

    @pytest.mark.parametrize("kind", sorted(REQUIRED_META))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_rejected(self, tmp_path, kind, bad):
        ckpt = self._model(kind).to_checkpoint()
        ckpt.arrays["head.w"][0, 1] = bad
        path = self._save(tmp_path / "bad.ckpt", ckpt, ckpt.meta)
        with pytest.raises(CheckpointError, match=rf"{re.escape(str(path))}: block 'head.w'"):
            load_model(path)

    def test_non_finite_quantized_block_rejected(self, tmp_path):
        model = quantize_model(AudioTeacherModel.build(_tiny_cfg()))
        ckpt = model.to_checkpoint()
        path = self._save(tmp_path / "bad_q.ckpt", ckpt, ckpt.meta)
        # QuantParams refuses a NaN scale, so write it into the file itself
        p = ckpt.quantized["wh_b"].params
        record = struct.pack("<dq", p.scale, p.zero_point)
        blob = path.read_bytes()
        assert blob.count(record) == 1
        path.write_bytes(blob.replace(record, struct.pack("<dq", np.nan, p.zero_point)))
        with pytest.raises(CheckpointError, match="block 'wh_b'"):
            load_model(path)

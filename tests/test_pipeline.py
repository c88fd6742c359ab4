"""End-to-end pipeline stage tests on a small synthetic corpus: feature
caching, split materialization, the three training loops, QAT export,
evaluation artifacts, the ablation grid, and the single-command full run.
"""

import dataclasses
import re
import types
import wave

import numpy as np
import pytest

from distillfuse import distill, pipeline, tensor
from distillfuse.checkpoint import load_checkpoint, save_checkpoint
from distillfuse.config import RunConfig
from distillfuse.data import synth_generate
from distillfuse.distill import LossBreakdown
from distillfuse.models import (
    AudioTeacherModel,
    StudentModel,
    TextTeacherModel,
    load_model,
)
from distillfuse.pipeline import (
    ABLATION_ALPHAS,
    ablate,
    evaluate_model,
    load_split_examples,
    preprocess,
    quantize_pipeline,
    run_full,
    train_audio_teacher,
    train_student,
    train_text_teacher,
)
from distillfuse.text import load_vocab
from helpers import nan_gradient


def _tiny_cfg(**kw):
    base = dict(
        seed=11, synth_n=24, synth_sample_rate=8000,
        max_len=16, target_frames=20,
        d_model=8, n_layers=1, n_heads=2, d_ff=16, lstm_hidden=4,
        lora_rank=2, lora_alpha=8.0, fusion_dim=6, fusion_heads=2,
        batch_size=4, epochs_text=1, epochs_audio=2, epochs_student=1,
        epochs_qat=1, threads=2,
    )
    base.update(kw)
    return RunConfig(**base)


def _split_ids(manifest, split):
    return sorted(pid for pid, s in manifest.split_of.items() if s == split)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg = _tiny_cfg()
    data_dir = root / "data"
    features_dir = root / "features"
    manifest = synth_generate(cfg.synth_n, cfg.seed, data_dir, cfg.synth_sample_rate)
    preprocess(cfg, data_dir, features_dir)
    return types.SimpleNamespace(
        cfg=cfg, root=root, data=data_dir, features=features_dir,
        manifest=manifest,
    )


@pytest.fixture(scope="module")
def teacher_ckpts(workspace):
    out = workspace.root / "teachers"
    text = train_text_teacher(workspace.cfg, workspace.features, out)
    audio = train_audio_teacher(workspace.cfg, workspace.features, out)
    return text, audio


class _PoolStarted(Exception):
    pass


class TestEffectiveThreads:
    """The preprocess pool's worker count: ``threads``, or one per CPU at 0."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        def pool(max_workers=None):
            sizes.append(max_workers)
            raise _PoolStarted  # the count is all these tests need

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", pool)
        return sizes

    def _preprocess(self, workspace, out, threads):
        cfg = dataclasses.replace(workspace.cfg, threads=threads)
        preprocess(cfg, workspace.data, out)

    def test_explicit_config_value(self, workspace, pool_sizes, tmp_path):
        with pytest.raises(_PoolStarted):
            self._preprocess(workspace, tmp_path / "f", 3)
        assert pool_sizes == [3]

    def test_zero_means_cpu_count(self, workspace, pool_sizes, monkeypatch, tmp_path):
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 5)
        with pytest.raises(_PoolStarted):
            self._preprocess(workspace, tmp_path / "f", 0)
        assert pool_sizes == [5]

    def test_negative_rejected_before_any_file(self, workspace, pool_sizes, tmp_path):
        with pytest.raises(ValueError, match="threads must be >= 0.*got -1"):
            self._preprocess(workspace, tmp_path / "f", -1)
        assert pool_sizes == [] and not (tmp_path / "f").exists()


class TestPreprocess:
    def test_file_inventory(self, workspace):
        ids = sorted(e.participant_id for e in workspace.manifest.entries)
        for pid in ids:
            assert (workspace.features / f"{pid}.dfmf").exists()
            assert (workspace.features / f"{pid}_text.txt").exists()
        assert (workspace.features / "vocab.txt").exists()
        splits = (workspace.features / "splits.csv").read_text().strip().split("\n")
        assert splits[0] == "participant_id,label,split"
        assert len(splits) == 1 + len(ids)
        got = {int(r.split(",")[0]): r.split(",")[2] for r in splits[1:]}
        assert got == workspace.manifest.split_of

    def test_interviewer_speech_removed(self, workspace):
        # interviewer prompts mention cue words from both sets; participant
        # text must come from exactly one set
        from distillfuse.data import TEXT_CUE_WORDS

        pid = workspace.manifest.entries[0].participant_id
        text = (workspace.features / f"{pid}_text.txt").read_text()
        words = set(text.split())
        assert not (words & set(TEXT_CUE_WORDS[0]) and words & set(TEXT_CUE_WORDS[1]))

    def test_vocab_built_from_train_split_only(self, workspace, tmp_path):
        # inject a marker word into a test-split transcript; the rebuilt
        # vocabulary must not contain it
        import shutil

        data2 = tmp_path / "data2"
        shutil.copytree(workspace.data, data2)
        test_pid = _split_ids(workspace.manifest, "test")[0]
        train_pid = _split_ids(workspace.manifest, "train")[0]
        for pid, marker in ((test_pid, "zzonlyintest"), (train_pid, "zzonlyintrain")):
            p = data2 / f"{pid}_TRANSCRIPT.csv"
            p.write_text(p.read_text()
                         + f"900.0\t901.0\tParticipant\t{marker}\n")
        feats2 = tmp_path / "features2"
        preprocess(workspace.cfg, data2, feats2)
        vocab = load_vocab(feats2 / "vocab.txt")
        assert "zzonlyintrain" in vocab.token_to_id
        assert "zzonlyintest" not in vocab.token_to_id

    def test_thread_count_does_not_change_outputs(self, workspace, tmp_path):
        cfg1 = dataclasses.replace(workspace.cfg, threads=1)
        feats1 = tmp_path / "serial"
        preprocess(cfg1, workspace.data, feats1)
        for p in sorted(workspace.features.glob("*.dfmf")):
            assert (feats1 / p.name).read_bytes() == p.read_bytes(), p.name
        assert ((feats1 / "vocab.txt").read_bytes()
                == (workspace.features / "vocab.txt").read_bytes())

    @pytest.mark.parametrize("n_samples, match", [
        (100, r"200 samples after resampling to 16000 Hz are shorter than one window \(512\)"),
        (0, "WAV file holds no samples"),
    ], ids=["too-short", "empty"])
    def test_short_or_empty_wav_names_the_file(self, workspace, tmp_path, n_samples, match):
        import shutil

        data2 = tmp_path / "data2"
        shutil.copytree(workspace.data, data2)
        wav = data2 / f"{workspace.manifest.entries[0].participant_id}_AUDIO.wav"
        with wave.open(str(wav), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(workspace.cfg.synth_sample_rate)
            f.writeframes(np.full(n_samples, 3000, dtype="<i2").tobytes())
        with pytest.raises(ValueError, match=match) as err:
            preprocess(workspace.cfg, data2, tmp_path / "features2")
        assert str(err.value).count(str(wav)) == 1


class _FakeBlas:
    """A stand-in get/set thread-count pair that logs every set."""

    def __init__(self, n=4):
        self.n = n
        self.sets = []

    def get(self):
        return self.n

    def set(self, n):
        self.sets.append(n)
        self.n = n


def _record_blas_counts(monkeypatch, get, fail_on=None):
    """Wrap pipeline.mfcc_extract to log the BLAS thread count each clip
    sees; the ``fail_on``-th clip raises instead."""
    seen = []
    real = pipeline.mfcc_extract

    def recording(*args, **kwargs):
        seen.append(get())
        if len(seen) == fail_on:
            raise RuntimeError("clip failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "mfcc_extract", recording)
    return seen


class TestBlasThreadCap:
    @pytest.fixture
    def fake(self, monkeypatch):
        blas = _FakeBlas()
        monkeypatch.setattr(pipeline, "_blas_thread_funcs", lambda: (blas.get, blas.set))
        return blas

    def test_pool_runs_clips_on_one_blas_thread(self, workspace, fake, monkeypatch,
                                                tmp_path):
        assert workspace.cfg.threads == 2
        seen = _record_blas_counts(monkeypatch, fake.get)
        preprocess(workspace.cfg, workspace.data, tmp_path / "f")
        assert len(seen) == len(workspace.manifest.entries)
        assert set(seen) == {1}
        assert fake.sets == [1, 4] and fake.n == 4

    def test_count_restored_when_a_worker_raises(self, workspace, fake, monkeypatch,
                                                 tmp_path):
        _record_blas_counts(monkeypatch, fake.get, fail_on=3)
        with pytest.raises(RuntimeError, match="clip failed"):
            preprocess(workspace.cfg, workspace.data, tmp_path / "f")
        assert fake.sets == [1, 4] and fake.n == 4

    def test_preprocess_without_a_library(self, workspace, monkeypatch, tmp_path):
        monkeypatch.setattr(pipeline, "_blas_thread_funcs", lambda: None)
        feats = tmp_path / "f"
        preprocess(workspace.cfg, workspace.data, feats)
        for p in sorted(workspace.features.glob("*.dfmf")):
            assert (feats / p.name).read_bytes() == p.read_bytes(), p.name

    def test_loader_finds_no_library(self, tmp_path):
        assert pipeline._blas_thread_funcs(tmp_path / "empty") is None
        junk = tmp_path / "junk"
        (junk / "numpy.libs").mkdir(parents=True)
        (junk / "numpy.libs" / "libscipy_openblas64_-junk.so").write_bytes(b"not a library")
        assert pipeline._blas_thread_funcs(junk) is None

    def test_real_library_capped_in_pool_and_restored(self, workspace, monkeypatch,
                                                      tmp_path):
        funcs = pipeline._blas_thread_funcs()
        if funcs is None:
            pytest.skip("this numpy bundles no OpenBLAS")
        get, _ = funcs
        before = get()
        seen = _record_blas_counts(monkeypatch, get)
        preprocess(workspace.cfg, workspace.data, tmp_path / "f")
        assert set(seen) == {1}
        assert get() == before


class TestLoadSplitExamples:
    def test_shapes_and_labels(self, workspace):
        cfg = workspace.cfg
        labels = {e.participant_id: e.label for e in workspace.manifest.entries}
        for split in ("train", "validation", "test"):
            examples = load_split_examples(cfg, workspace.features, split)
            n = len(_split_ids(workspace.manifest, split))
            assert len(examples.ids) == n
            assert examples.token_ids.shape == (n, cfg.max_len)
            assert examples.mask.shape == (n, cfg.max_len)
            assert examples.mfcc.shape == (n, cfg.target_frames, cfg.n_coeffs)
            assert examples.labels.tolist() == [labels[pid] for pid in examples.ids]

    def test_split_partition_is_disjoint_and_complete(self, workspace):
        seen = []
        for split in ("train", "validation", "test"):
            seen += load_split_examples(workspace.cfg, workspace.features, split).ids
        assert sorted(seen) == sorted(e.participant_id for e in workspace.manifest.entries)

    def test_unknown_or_empty_split_rejected(self, workspace, tmp_path):
        with pytest.raises(ValueError, match="split 'dev' is not train, validation or test"):
            load_split_examples(workspace.cfg, tmp_path, "dev")  # reads nothing
        (tmp_path / "vocab.txt").write_bytes((workspace.features / "vocab.txt").read_bytes())
        (tmp_path / "splits.csv").write_text("participant_id,label,split\n3,0,train\n")
        with pytest.raises(ValueError, match=re.escape(f"split 'test' is empty in {tmp_path}")):
            load_split_examples(workspace.cfg, tmp_path, "test")


class TestSplitsFile:
    @pytest.mark.parametrize("row, message", [
        ("7,1", "expected 3 fields participant_id,label,split, got 2"),
        ("7,1,train,x", "expected 3 fields participant_id,label,split, got 4"),
        ("seven,1,train", "participant_id 'seven' is not an integer"),
        ("7,yes,train", "label 'yes' is not 0 or 1"),
        ("7,2,train", "label '2' is not 0 or 1"),
        ("7,1,tran", "split 'tran' is not train, validation or test"),
        ("3,1,test", "participant_id 3 already on line 3"),
    ])
    def test_malformed_row_names_file_and_line(self, workspace, tmp_path, row, message):
        # line 2 is blank, so the bad row is on line 4 of the file
        import re
        import shutil

        shutil.copy(workspace.features / "vocab.txt", tmp_path)
        path = tmp_path / "splits.csv"
        path.write_text(f"participant_id,label,split\n\n3,0,train\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: {message}")):
            load_split_examples(workspace.cfg, tmp_path, "train")


class TestTeacherTraining:
    def test_text_teacher_artifacts(self, workspace, teacher_ckpts):
        text_ckpt, _ = teacher_ckpts
        assert text_ckpt.name == "text_teacher.ckpt"
        model = load_model(text_ckpt)
        assert isinstance(model, TextTeacherModel)
        log = (text_ckpt.parent / "text_teacher_log.csv").read_text().strip().split("\n")
        assert log[0] == "epoch,train_loss,val_loss,val_accuracy,lr"
        assert len(log) == 1 + workspace.cfg.epochs_text
        first = log[1].split(",")
        assert first[0] == "1"
        assert all(np.isfinite(float(v)) for v in first[1:])

    def test_audio_teacher_artifacts(self, workspace, teacher_ckpts):
        _, audio_ckpt = teacher_ckpts
        assert audio_ckpt.name == "audio_teacher.ckpt"
        model = load_model(audio_ckpt)
        assert isinstance(model, AudioTeacherModel)
        log = (audio_ckpt.parent / "audio_teacher_log.csv").read_text().strip().split("\n")
        assert len(log) == 1 + workspace.cfg.epochs_audio

    def test_training_is_deterministic(self, workspace, teacher_ckpts, tmp_path):
        """Every stage of the shared fit loop, re-run with the same config,
        writes the same checkpoint, epoch log and QAT report bytes."""
        text_ckpt, audio_ckpt = teacher_ckpts
        cfg, features = workspace.cfg, workspace.features
        for run in ("a", "b"):
            out = tmp_path / run
            train_text_teacher(cfg, features, out / "teachers")
            train_audio_teacher(cfg, features, out / "teachers")
            train_student(cfg, features, text_ckpt, audio_ckpt, out / "student")
            quantize_pipeline(cfg, audio_ckpt, features, out / "quant")
        a, b = tmp_path / "a", tmp_path / "b"
        files = sorted(str(p.relative_to(a)) for p in a.rglob("*") if p.is_file())
        assert files == [
            "quant/audio_teacher_quantized.ckpt", "quant/quantization.txt",
            "student/student.ckpt", "student/student_log.csv",
            "teachers/audio_teacher.ckpt", "teachers/audio_teacher_log.csv",
            "teachers/text_teacher.ckpt", "teachers/text_teacher_log.csv",
        ]
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        for ckpt in (text_ckpt, audio_ckpt):
            assert (a / "teachers" / ckpt.name).read_bytes() == ckpt.read_bytes()


class TestStudentTraining:
    def test_student_artifacts(self, workspace, teacher_ckpts, tmp_path):
        text_ckpt, audio_ckpt = teacher_ckpts
        out = tmp_path / "student"
        ckpt = train_student(workspace.cfg, workspace.features, text_ckpt,
                             audio_ckpt, out)
        assert ckpt.name == "student.ckpt"
        model = load_model(ckpt)
        assert isinstance(model, StudentModel)
        assert model.multi_head
        log = (out / "student_log.csv").read_text().strip().split("\n")
        assert log[0] == "epoch,kl_term,ce_term,total,val_loss,val_accuracy,lr"
        assert len(log) == 1 + workspace.cfg.epochs_student
        row = log[1].split(",")
        kl, ce, total = float(row[1]), float(row[2]), float(row[3])
        assert abs(total - (workspace.cfg.alpha * kl
                            + (1 - workspace.cfg.alpha) * ce)) < 1e-9

    def test_single_head_student(self, workspace, teacher_ckpts, tmp_path):
        text_ckpt, audio_ckpt = teacher_ckpts
        cfg = dataclasses.replace(workspace.cfg, multi_head=False)
        ckpt = train_student(cfg, workspace.features, text_ckpt, audio_ckpt,
                             tmp_path / "s1")
        assert not load_model(ckpt).multi_head

    def test_swapped_teacher_checkpoints_rejected(self, workspace, teacher_ckpts,
                                                  tmp_path):
        text_ckpt, audio_ckpt = teacher_ckpts
        with pytest.raises(ValueError, match="teacher checkpoints"):
            train_student(workspace.cfg, workspace.features, audio_ckpt,
                          text_ckpt, tmp_path / "bad")

    def test_wrong_kind_teacher_names_file_and_kind(self, workspace, teacher_ckpts,
                                                     tmp_path):
        text_ckpt, audio_ckpt = teacher_ckpts
        for text, audio, bad, kind in ((audio_ckpt, text_ckpt, audio_ckpt, "audio-teacher"),
                                       (text_ckpt, text_ckpt, text_ckpt, "text-teacher")):
            message = (rf"^{re.escape(str(bad))}: holds kind '{kind}'; "
                       "teacher checkpoints must be a text teacher and an audio teacher$")
            with pytest.raises(ValueError, match=message):
                train_student(workspace.cfg, workspace.features, text, audio, tmp_path / "bad")
        assert not (tmp_path / "bad" / "student.ckpt").exists()

    def test_teacher_targets_computed_once_per_split(self, workspace, teacher_ckpts,
                                                     monkeypatch, tmp_path):
        text_ckpt, audio_ckpt = teacher_ckpts
        cfg = dataclasses.replace(workspace.cfg, epochs_student=3, temperature=2.0)
        rows = {TextTeacherModel: 0, AudioTeacherModel: 0}
        for cls in rows:
            def counting(self, *arrays, real=cls.predict_probs, cls=cls, **kwargs):
                rows[cls] += arrays[0].shape[0]
                return real(self, *arrays, **kwargs)

            monkeypatch.setattr(cls, "predict_probs", counting)
        steps = []
        real_step = pipeline.student_train_step

        def recording(batch, teachers, *args, **kwargs):
            text, audio = teachers
            steps.append((batch,
                          text.predict_probs(batch.token_ids, batch.mask, temperature=2.0),
                          audio.predict_probs(batch.mfcc, temperature=2.0)))
            return real_step(batch, teachers, *args, **kwargs)

        monkeypatch.setattr(pipeline, "student_train_step", recording)
        train_student(cfg, workspace.features, text_ckpt, audio_ckpt, tmp_path)
        n_train = len(load_split_examples(cfg, workspace.features, "train").ids)
        assert n_train % cfg.batch_size == 1  # a one-row batch, scored alone
        assert rows == {TextTeacherModel: n_train, AudioTeacherModel: n_train}
        assert len(steps) == 3 * -(-n_train // cfg.batch_size)

        text, audio = load_model(text_ckpt), load_model(audio_ckpt)
        for batch, p_text, p_audio in steps:
            np.testing.assert_allclose(
                p_text, text.predict_probs(batch.token_ids, batch.mask, temperature=2.0),
                rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                p_audio, audio.predict_probs(batch.mfcc, temperature=2.0), rtol=0, atol=1e-12)


class TestQuantizePipeline:
    def test_artifacts_and_accounting(self, workspace, teacher_ckpts, tmp_path):
        _, audio_ckpt = teacher_ckpts
        out = tmp_path / "quant"
        qckpt = quantize_pipeline(workspace.cfg, audio_ckpt, workspace.features, out)
        assert qckpt.name == "audio_teacher_quantized.ckpt"
        model = load_model(qckpt)
        assert isinstance(model, AudioTeacherModel)
        assert model.quantized_blocks
        report = dict(
            line.split("=", 1)
            for line in (out / "quantization.txt").read_text().strip().split("\n")
        )
        agreement = float(report["agreement"])
        assert 0.0 <= agreement <= 1.0
        q_bytes = int(report["quantized_bytes"])
        f_bytes = int(report["float64_bytes"])
        assert f_bytes == 8 * q_bytes
        assert float(report["storage_ratio"]) == 0.125

    def test_wrong_kind_rejected(self, workspace, teacher_ckpts, tmp_path):
        text_ckpt, _ = teacher_ckpts
        with pytest.raises(ValueError, match="audio-teacher"):
            quantize_pipeline(workspace.cfg, text_ckpt, workspace.features,
                              tmp_path / "q")

    def test_text_checkpoint_names_file_and_kind(self, workspace, teacher_ckpts, tmp_path):
        text_ckpt, _ = teacher_ckpts
        message = (rf"^{re.escape(str(text_ckpt))}: holds kind 'text-teacher'; "
                   "expected an audio-teacher checkpoint$")
        with pytest.raises(ValueError, match=message):
            quantize_pipeline(workspace.cfg, text_ckpt, workspace.features, tmp_path / "q")
        assert not (tmp_path / "q" / "audio_teacher_quantized.ckpt").exists()


def _count_steps(monkeypatch):
    """Log every optimizer step the pipeline's stages take."""
    steps = []
    real = pipeline.make_optimizer

    def counting(*args, **kwargs):
        opt = real(*args, **kwargs)
        step = opt.step

        def counted():
            steps.append(1)
            step()

        opt.step = counted
        return opt

    monkeypatch.setattr(pipeline, "make_optimizer", counting)
    return steps


def _poison_ce(monkeypatch, factor, on_call=2):
    """Scale pipeline.ce_loss_tensor's ``on_call``-th loss by ``factor``."""
    calls = []
    real = pipeline.ce_loss_tensor

    def poisoned(logits, y_onehot):
        calls.append(1)
        loss = real(logits, y_onehot)
        return loss * factor if len(calls) == on_call else loss

    monkeypatch.setattr(pipeline, "ce_loss_tensor", poisoned)


class TestNonFiniteLoss:
    """A NaN or infinite loss stops a stage at once, naming stage, epoch and
    batch, before the optimizer applies anything from that batch."""

    def test_text_teacher(self, workspace, monkeypatch, tmp_path):
        steps = _count_steps(monkeypatch)
        _poison_ce(monkeypatch, float("nan"))
        with pytest.raises(FloatingPointError, match="text teacher, epoch 1, batch 2: .*nan"):
            train_text_teacher(workspace.cfg, workspace.features, tmp_path)
        assert len(steps) == 1
        assert not (tmp_path / "text_teacher.ckpt").exists()

    def test_audio_teacher(self, workspace, monkeypatch, tmp_path):
        steps = _count_steps(monkeypatch)
        _poison_ce(monkeypatch, float("inf"))
        with pytest.raises(FloatingPointError, match="audio teacher, epoch 1, batch 2: .*inf"):
            train_audio_teacher(workspace.cfg, workspace.features, tmp_path)
        assert len(steps) == 1
        assert not (tmp_path / "audio_teacher.ckpt").exists()

    def test_student(self, workspace, teacher_ckpts, monkeypatch, tmp_path):
        text_ckpt, audio_ckpt = teacher_ckpts
        steps = _count_steps(monkeypatch)
        calls = []
        real = distill.distill_loss_tensors

        def poisoned(*args, **kwargs):
            calls.append(1)
            loss, parts = real(*args, **kwargs)
            if len(calls) == 2:
                return loss * float("nan"), LossBreakdown(parts.kl_term, parts.ce_term,
                                                          float("nan"))
            return loss, parts

        monkeypatch.setattr(distill, "distill_loss_tensors", poisoned)
        with pytest.raises(FloatingPointError, match="student, epoch 1, batch 2: .*nan"):
            train_student(workspace.cfg, workspace.features, text_ckpt, audio_ckpt, tmp_path)
        assert len(steps) == 1
        assert not (tmp_path / "student.ckpt").exists()

    def test_qat(self, workspace, teacher_ckpts, monkeypatch, tmp_path):
        _, audio_ckpt = teacher_ckpts
        steps = _count_steps(monkeypatch)
        _poison_ce(monkeypatch, float("nan"))
        with pytest.raises(FloatingPointError, match="QAT, epoch 1, batch 2: .*nan"):
            quantize_pipeline(workspace.cfg, audio_ckpt, workspace.features, tmp_path)
        assert len(steps) == 1
        assert not (tmp_path / "audio_teacher_quantized.ckpt").exists()


@pytest.mark.parametrize("stage, field", [
    ("text teacher", "epochs_text"), ("audio teacher", "epochs_audio"),
    ("student", "epochs_student"), ("QAT", "epochs_qat"),
])
def test_negative_epochs_rejected_before_any_file(workspace, teacher_ckpts, tmp_path,
                                                  stage, field):
    cfg = dataclasses.replace(workspace.cfg, **{field: -1})
    text_ckpt, audio_ckpt = teacher_ckpts
    feats, out = workspace.features, tmp_path / "out"
    run = {
        "text teacher": lambda: train_text_teacher(cfg, feats, out),
        "audio teacher": lambda: train_audio_teacher(cfg, feats, out),
        "student": lambda: train_student(cfg, feats, text_ckpt, audio_ckpt, out),
        "QAT": lambda: quantize_pipeline(cfg, audio_ckpt, feats, out),
    }[stage]
    with pytest.raises(ValueError, match=f"^{stage}: epochs must be >= 0, got -1$"):
        run()
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteGradient:
    """A finite loss with a NaN gradient stops a stage after backward and
    before the optimizer step, naming stage, epoch and batch; no parameter
    changes."""

    @pytest.fixture
    def watch(self, monkeypatch):
        """Poisons the gradient of the second loss, snapshotting the
        optimizer's parameters just before it."""
        seen = types.SimpleNamespace(opts=[], calls=0, before=None)
        real_make = pipeline.make_optimizer

        def recording(*args, **kwargs):
            seen.opts.append(real_make(*args, **kwargs))
            return seen.opts[-1]

        def poison(fn, logits_at):
            def poisoned(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen.calls += 1
                if seen.calls != 2:
                    return out
                seen.before = [p.data.copy() for p in seen.opts[-1].params]
                if isinstance(out, tuple):
                    return (nan_gradient(out[0], args[logits_at]), *out[1:])
                return nan_gradient(out, args[logits_at])
            return poisoned

        monkeypatch.setattr(pipeline, "make_optimizer", recording)
        seen.poison = poison
        return seen

    def _check(self, seen, tmp_path, ckpt_name):
        opt = seen.opts[-1]
        assert opt.step_count == 1
        assert all(np.array_equal(p.data, b) for p, b in zip(opt.params, seen.before))
        assert not (tmp_path / ckpt_name).exists()

    def test_text_teacher(self, workspace, watch, monkeypatch, tmp_path):
        monkeypatch.setattr(pipeline, "ce_loss_tensor", watch.poison(pipeline.ce_loss_tensor, 0))
        with pytest.raises(FloatingPointError,
                           match="text teacher, epoch 1, batch 2: non-finite gradient norm nan"):
            train_text_teacher(workspace.cfg, workspace.features, tmp_path)
        self._check(watch, tmp_path, "text_teacher.ckpt")

    def test_audio_teacher(self, workspace, watch, monkeypatch, tmp_path):
        monkeypatch.setattr(pipeline, "ce_loss_tensor", watch.poison(pipeline.ce_loss_tensor, 0))
        with pytest.raises(FloatingPointError,
                           match="audio teacher, epoch 1, batch 2: non-finite gradient norm nan"):
            train_audio_teacher(workspace.cfg, workspace.features, tmp_path)
        self._check(watch, tmp_path, "audio_teacher.ckpt")

    def test_student(self, workspace, teacher_ckpts, watch, monkeypatch, tmp_path):
        text_ckpt, audio_ckpt = teacher_ckpts
        monkeypatch.setattr(distill, "distill_loss_tensors",
                            watch.poison(distill.distill_loss_tensors, 1))
        with pytest.raises(FloatingPointError,
                           match="student, epoch 1, batch 2: non-finite gradient norm nan"):
            train_student(workspace.cfg, workspace.features, text_ckpt, audio_ckpt, tmp_path)
        self._check(watch, tmp_path, "student.ckpt")

    def test_qat(self, workspace, teacher_ckpts, watch, monkeypatch, tmp_path):
        _, audio_ckpt = teacher_ckpts
        monkeypatch.setattr(pipeline, "ce_loss_tensor", watch.poison(pipeline.ce_loss_tensor, 0))
        with pytest.raises(FloatingPointError,
                           match="QAT, epoch 1, batch 2: non-finite gradient norm nan"):
            quantize_pipeline(workspace.cfg, audio_ckpt, workspace.features, tmp_path)
        self._check(watch, tmp_path, "audio_teacher_quantized.ckpt")


class TestEvaluateModel:
    def test_teacher_eval_artifacts(self, workspace, teacher_ckpts, tmp_path):
        _, audio_ckpt = teacher_ckpts
        out = tmp_path / "eval_audio"
        report = evaluate_model(workspace.cfg, audio_ckpt, workspace.features,
                                "test", out)
        assert report.n == len(_split_ids(workspace.manifest, "test"))
        assert (out / "metrics.txt").exists()
        assert (out / "roc.csv").exists()
        assert not (out / "attention.csv").exists()

    def test_student_eval_writes_attention(self, workspace, teacher_ckpts, tmp_path):
        text_ckpt, audio_ckpt = teacher_ckpts
        ckpt = train_student(workspace.cfg, workspace.features, text_ckpt,
                             audio_ckpt, tmp_path / "s")
        out = tmp_path / "eval_student"
        report = evaluate_model(workspace.cfg, ckpt, workspace.features, "test", out)
        n_test = len(_split_ids(workspace.manifest, "test"))
        assert report.n == n_test
        rows = (out / "attention.csv").read_text().strip().split("\n")
        assert rows[0] == "participant_id,head,weight_text,weight_audio"
        assert len(rows) == 1 + n_test * workspace.cfg.fusion_heads
        for row in rows[1:]:
            pid, head, w_t, w_a = row.split(",")
            assert int(head) in range(workspace.cfg.fusion_heads)
            assert abs(float(w_t) + float(w_a) - 1.0) < 1e-9

    def test_untrained_student_scores_near_chance(self, workspace):
        # an untrained fused model must not exceed chance on the balanced
        # corpus: evaluate over every example and require [0.35, 0.65]
        cfg = workspace.cfg
        vocab_size = load_vocab(workspace.features / "vocab.txt").size
        model = StudentModel.build(vocab_size, cfg)
        hits = n = 0
        for split in ("train", "validation", "test"):
            ex = load_split_examples(cfg, workspace.features, split)
            for i, label in enumerate(ex.labels):
                p = model.predict_probs(ex.token_ids[i][None], ex.mask[i][None],
                                        ex.mfcc[i][None])
                hits += int(p.argmax(axis=1)[0] == label)
                n += 1
        assert 0.35 <= hits / n <= 0.65

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_probability_raises_before_writing(self, workspace,
                                                          teacher_ckpts, tmp_path):
        # finite weights whose logits overflow: saturated gates drive every
        # hidden state to ~1, so both logits are +inf and softmax gives NaN
        _, audio_ckpt = teacher_ckpts
        ckpt = load_checkpoint(audio_ckpt)
        for name in ("b_f", "b_b"):
            ckpt.arrays[name] = np.full_like(ckpt.arrays[name], 50.0)
        ckpt.arrays["head.w"] = np.full_like(ckpt.arrays["head.w"], 1e308)
        path = tmp_path / "overflow.ckpt"
        save_checkpoint(path, ckpt)
        out = tmp_path / "eval"
        with pytest.raises(ValueError, match=r"overflow\.ckpt: non-finite probability"):
            evaluate_model(workspace.cfg, path, workspace.features, "test", out)
        assert not (out / "metrics.txt").exists()
        assert not (out / "roc.csv").exists()

    def test_inference_records_no_tape_and_leaves_grads(self, workspace, teacher_ckpts,
                                                        tmp_path, monkeypatch):
        cfg = workspace.cfg
        student = StudentModel.build(load_vocab(workspace.features / "vocab.txt").size, cfg)
        params = student.trainable_parameters()
        for i, p in enumerate(params):
            p.grad = np.full(p.shape, i + 0.5)
        made = []
        make = tensor._make

        def counting_make(*args):
            out = make(*args)
            made.append(out.requires_grad)
            return out

        monkeypatch.setattr(tensor, "_make", counting_make)
        val = load_split_examples(cfg, workspace.features, "validation")
        pipeline._split_loss_acc(student, val, cfg.batch_size)
        ckpt = tmp_path / "student.ckpt"
        save_checkpoint(ckpt, student.to_checkpoint())
        for path in (ckpt, *teacher_ckpts):
            evaluate_model(cfg, path, workspace.features, "test", tmp_path / path.stem)
        assert made and not any(made)
        for i, p in enumerate(params):
            assert np.all(p.grad == i + 0.5) and p.requires_grad

    def test_eval_is_deterministic(self, workspace, teacher_ckpts, tmp_path):
        _, audio_ckpt = teacher_ckpts
        outs = []
        for sub in ("e1", "e2"):
            evaluate_model(workspace.cfg, audio_ckpt, workspace.features,
                           "test", tmp_path / sub)
            outs.append((tmp_path / sub / "metrics.txt").read_bytes())
        assert outs[0] == outs[1]


class TestAblate:
    def test_grid_rows(self, workspace, teacher_ckpts, tmp_path):
        text_ckpt, audio_ckpt = teacher_ckpts
        table = ablate(workspace.cfg, workspace.features, text_ckpt, audio_ckpt,
                       tmp_path / "ablation")
        rows = table.read_text().strip().split("\n")
        assert rows[0] == "config,accuracy,precision_weighted,recall_weighted,f1_weighted,auc"
        names = [r.split(",")[0] for r in rows[1:]]
        expected = ["text-teacher", "audio-teacher"]
        for mode in ("single", "multi"):
            expected += [f"student-{mode}-alpha{a:g}" for a in ABLATION_ALPHAS]
        assert names == expected
        for r in rows[1:]:
            fields = r.split(",")
            assert len(fields) == 6
            for v in fields[1:5]:
                assert 0.0 <= float(v) <= 1.0
            float(fields[5])  # auc column: a float or parseable nan


class TestRunFull:
    def test_smoke(self, tmp_path):
        cfg = _tiny_cfg(synth_n=20, epochs_audio=1)
        result = run_full(cfg, tmp_path / "run")
        for key in ("data_dir", "features_dir", "text_ckpt", "audio_ckpt",
                    "student_ckpt", "eval_dir"):
            assert result[key].exists(), key
        for report_key in ("student_report", "text_report", "audio_report"):
            assert result[report_key].n >= 1
        assert (result["eval_dir"] / "student" / "metrics.txt").exists()
        assert (result["eval_dir"] / "student" / "attention.csv").exists()

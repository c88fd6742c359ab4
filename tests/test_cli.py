"""Command-line interface tests, driven through main(argv) in-process:
happy paths for each subcommand, required-flag errors on stderr with exit
code 1, config-file/flag precedence, and the resolved-config artifact.
"""

import shutil
import warnings

import numpy as np
import pytest

from distillfuse import distill, pipeline
from distillfuse.audio import load_features, save_features
from distillfuse.checkpoint import load_checkpoint, save_checkpoint
from distillfuse.cli import main
from distillfuse.config import RunConfig, parse_config_file
from distillfuse.models import AudioTeacherModel, TextTeacherModel
from distillfuse.text import load_vocab
from helpers import nan_gradient


TINY = [
    "--synth-n", "24", "--synth-sample-rate", "8000",
    "--max-len", "16", "--target-frames", "20",
    "--d-model", "8", "--n-layers", "1", "--n-heads", "2", "--d-ff", "16",
    "--lstm-hidden", "4", "--lora-rank", "2", "--lora-alpha", "8.0",
    "--fusion-dim", "6", "--fusion-heads", "2",
    "--batch-size", "4", "--epochs-text", "1", "--epochs-audio", "1",
    "--epochs-student", "1", "--epochs-qat", "1", "--threads", "2",
    "--seed", "11",
]


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """synth + preprocess + teachers, shared by the downstream commands."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    feats = root / "features"
    assert main(["synth", *TINY, "--data-dir", str(data)]) == 0
    assert main(["preprocess", *TINY, "--data-dir", str(data),
                 "--features-dir", str(feats)]) == 0
    text_out = root / "text"
    audio_out = root / "audio"
    assert main(["train-text-teacher", *TINY, "--features-dir", str(feats),
                 "--out-dir", str(text_out)]) == 0
    assert main(["train-audio-teacher", *TINY, "--features-dir", str(feats),
                 "--out-dir", str(audio_out)]) == 0
    return {
        "root": root,
        "data": data,
        "feats": feats,
        "text_ckpt": text_out / "text_teacher.ckpt",
        "audio_ckpt": audio_out / "audio_teacher.ckpt",
    }


class TestHappyPaths:
    def test_synth_and_preprocess_outputs(self, prepared):
        assert (prepared["data"] / "labels.csv").exists()
        assert (prepared["feats"] / "vocab.txt").exists()
        assert (prepared["feats"] / "splits.csv").exists()

    def test_teacher_artifacts_and_config_snapshot(self, prepared):
        assert prepared["text_ckpt"].exists()
        assert prepared["audio_ckpt"].exists()
        snap = prepared["text_ckpt"].parent / "config.txt"
        assert snap.exists()
        cfg = parse_config_file(snap)
        assert cfg["d_model"] == "8"
        assert cfg["seed"] == "11"

    def test_train_student_and_evaluate(self, prepared, capsys):
        student_out = prepared["root"] / "student"
        rc = main(["train-student", *TINY,
                   "--features-dir", str(prepared["feats"]),
                   "--text-teacher-ckpt", str(prepared["text_ckpt"]),
                   "--audio-teacher-ckpt", str(prepared["audio_ckpt"]),
                   "--out-dir", str(student_out)])
        assert rc == 0
        ckpt = student_out / "student.ckpt"
        assert ckpt.exists()
        eval_out = prepared["root"] / "eval"
        rc = main(["evaluate", *TINY,
                   "--features-dir", str(prepared["feats"]),
                   "--checkpoint", str(ckpt),
                   "--eval-split", "validation",
                   "--out-dir", str(eval_out)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy=" in out
        assert (eval_out / "metrics.txt").exists()
        assert (eval_out / "attention.csv").exists()

    def test_teacher_evaluated_after_student_leaves_no_attention(self, prepared, tmp_path):
        feats = ["--features-dir", str(prepared["feats"])]
        assert main(["train-student", *TINY, *feats,
                     "--text-teacher-ckpt", str(prepared["text_ckpt"]),
                     "--audio-teacher-ckpt", str(prepared["audio_ckpt"]),
                     "--out-dir", str(tmp_path / "student")]) == 0
        out = tmp_path / "eval"
        for ckpt, attention in ((tmp_path / "student" / "student.ckpt", True),
                                (prepared["audio_ckpt"], False)):
            assert main(["evaluate", *TINY, *feats, "--checkpoint", str(ckpt),
                         "--out-dir", str(out)]) == 0
            assert (out / "attention.csv").exists() == attention
            assert (out / "metrics.txt").exists()

    def test_quantize(self, prepared, capsys):
        out = prepared["root"] / "quant"
        rc = main(["quantize", *TINY,
                   "--features-dir", str(prepared["feats"]),
                   "--checkpoint", str(prepared["audio_ckpt"]),
                   "--out-dir", str(out)])
        assert rc == 0
        assert (out / "audio_teacher_quantized.ckpt").exists()
        text = capsys.readouterr().out
        assert "agreement=" in text
        assert "storage_ratio=" in text

    def test_quantize_accepts_audio_teacher_ckpt_flag(self, prepared):
        out = prepared["root"] / "quant2"
        rc = main(["quantize", *TINY,
                   "--features-dir", str(prepared["feats"]),
                   "--audio-teacher-ckpt", str(prepared["audio_ckpt"]),
                   "--out-dir", str(out)])
        assert rc == 0
        assert (out / "audio_teacher_quantized.ckpt").exists()


class TestErrorPaths:
    def test_missing_required_flag(self, capsys):
        rc = main(["synth", *TINY])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--data-dir" in err

    def test_missing_multiple_flags_all_named(self, tmp_path, capsys):
        rc = main(["train-student", *TINY, "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        for flag in ("--features-dir", "--text-teacher-ckpt",
                     "--audio-teacher-ckpt"):
            assert flag in err

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--no-such-flag", "1"])
        assert exc.value.code == 2

    def test_quantize_requires_some_checkpoint(self, prepared, capsys):
        rc = main(["quantize", *TINY,
                   "--features-dir", str(prepared["feats"]),
                   "--out-dir", str(prepared["root"] / "q_missing")])
        assert rc == 1
        assert "--checkpoint" in capsys.readouterr().err

    def test_bad_checkpoint_file_reports_error(self, prepared, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        rc = main(["evaluate", *TINY,
                   "--features-dir", str(prepared["feats"]),
                   "--checkpoint", str(bad),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "magic" in capsys.readouterr().err

    def test_checkpoint_missing_meta_key_reports_error(self, prepared, tmp_path, capsys):
        ckpt = load_checkpoint(prepared["audio_ckpt"])
        del ckpt.meta["hidden_dim"]
        path = tmp_path / "no_hidden.ckpt"
        save_checkpoint(path, ckpt)
        rc = main(["evaluate", *TINY,
                   "--features-dir", str(prepared["feats"]),
                   "--checkpoint", str(path),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "no_hidden.ckpt: missing meta key 'hidden_dim'" in err

    @pytest.mark.parametrize("command", ["evaluate", "train-student"])
    def test_text_checkpoint_of_another_vocabulary(self, prepared, tmp_path, capsys, command):
        # a text teacher built on the 4 special tokens, as --min-count 30 gives
        cfg = RunConfig(max_len=16, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                        lora_rank=2, lora_alpha=8.0)
        ckpt = tmp_path / "small_vocab.ckpt"
        save_checkpoint(ckpt, TextTeacherModel.build(4, cfg).to_checkpoint())
        vocab = prepared["feats"] / "vocab.txt"
        n = load_vocab(vocab).size
        assert n > 4
        flags = {"evaluate": ["--checkpoint", str(ckpt)],
                 "train-student": ["--text-teacher-ckpt", str(ckpt),
                                   "--audio-teacher-ckpt", str(prepared["audio_ckpt"])]}
        out = tmp_path / "out"
        rc = main([command, *TINY, "--features-dir", str(prepared["feats"]), *flags[command],
                   "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert [ln for ln in err.splitlines() if ln.startswith("error: ")] == [
            f"error: {ckpt}: vocab_size 4 does not match the {n} tokens of {vocab}"]
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, max_len", [
        ("evaluate", "8"), ("evaluate", "32"), ("train-student", "8"), ("train-student", "32"),
    ])
    def test_text_checkpoint_of_another_max_len(self, prepared, tmp_path, capsys, command,
                                                max_len):
        # the teacher was trained at --max-len 16: shorter ids would be scored
        # from truncated text, longer ones fail inside the encoder
        ckpt = prepared["text_ckpt"]
        flags = {"evaluate": ["--checkpoint", str(ckpt)],
                 "train-student": ["--text-teacher-ckpt", str(ckpt),
                                   "--audio-teacher-ckpt", str(prepared["audio_ckpt"])]}
        out = tmp_path / "out"
        rc = main([command, *TINY, "--features-dir", str(prepared["feats"]), *flags[command],
                   "--max-len", max_len, "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {ckpt}: max_len 16 does not match the configured max_len {max_len}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, split, value", [
        ("train-audio-teacher", "train", np.inf), ("evaluate", "test", np.nan),
    ])
    def test_non_finite_features_name_their_file(self, prepared, tmp_path, capsys, command,
                                                 split, value):
        feats = shutil.copytree(prepared["feats"], tmp_path / "feats")
        rows = (feats / "splits.csv").read_text().splitlines()[1:]
        pid = next(r.split(",")[0] for r in rows if r.endswith("," + split))
        path = feats / f"{pid}.dfmf"
        frames = load_features(path)
        frames[3, 1] = value
        save_features(path, frames)
        out = tmp_path / "out"
        rc = main([command, *TINY, "--features-dir", str(feats),
                   "--checkpoint", str(prepared["audio_ckpt"]), "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}: non-finite value in frame 3\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command, stage", [
        ("train-audio-teacher", "audio teacher"), ("train-student", "student"),
    ])
    def test_non_finite_gradient_is_one_error_line(self, prepared, tmp_path, monkeypatch,
                                                   capsys, command, stage):
        real_ce, real_distill = pipeline.ce_loss_tensor, distill.distill_loss_tensors
        monkeypatch.setattr(pipeline, "ce_loss_tensor",
                            lambda logits, y: nan_gradient(real_ce(logits, y), logits))

        def poisoned(p_mix, logits, y, cfg):
            loss, parts = real_distill(p_mix, logits, y, cfg)
            return nan_gradient(loss, logits), parts

        monkeypatch.setattr(distill, "distill_loss_tensors", poisoned)
        out = tmp_path / "out"
        rc = main([command, *TINY, "--features-dir", str(prepared["feats"]),
                   "--text-teacher-ckpt", str(prepared["text_ckpt"]),
                   "--audio-teacher-ckpt", str(prepared["audio_ckpt"]), "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {stage}, epoch 1, batch 1: non-finite gradient norm nan\n")
        assert not out.exists()

    @pytest.mark.parametrize("option, error", [
        (["--temperature", "0"], "temperature must be positive, got 0.0"),
        (["--fusion-heads", "0"], "n_heads must be >= 1, got 0"),
        (["--n-heads", "3"], "d_model 8 not divisible by n_heads 3"),
        (["--optimizer-student", "bogus"], "unknown optimizer kind 'bogus'"),
    ], ids=["temperature", "fusion-heads", "n-heads", "optimizer-student"])
    def test_bad_distillation_option_fails_before_any_teacher_runs(self, prepared, tmp_path,
                                                                   monkeypatch, capsys, option,
                                                                   error):
        calls = []
        for model in (TextTeacherModel, AudioTeacherModel):
            monkeypatch.setattr(model, "predict_probs", lambda *args, _f=model.predict_probs,
                                **kw: calls.append(1) or _f(*args, **kw))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            rc = main(["train-student", *TINY, "--features-dir", str(prepared["feats"]),
                       "--text-teacher-ckpt", str(prepared["text_ckpt"]),
                       "--audio-teacher-ckpt", str(prepared["audio_ckpt"]),
                       *option, "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []
        assert calls == []

    def test_unknown_eval_split_fails_before_reading(self, prepared, tmp_path, capsys):
        rc = main(["evaluate", *TINY, "--features-dir", str(tmp_path / "nowhere"),
                   "--checkpoint", str(prepared["audio_ckpt"]), "--eval-split", "valid",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: split 'valid' is not train, validation or test\n")
        assert not (tmp_path / "out").exists()

    def test_checkpoint_that_is_a_directory_is_named(self, prepared, tmp_path, capsys):
        ckpt = tmp_path / "ckpt_dir"
        ckpt.mkdir()
        rc = main(["evaluate", *TINY, "--features-dir", str(prepared["feats"]),
                   "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ckpt) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, flag", [
        (["train-text-teacher"], "--features-dir"),
        (["evaluate", "--features-dir", "f"], "--checkpoint"),
        (["quantize", "--features-dir", "f"], "--checkpoint"),
        (["ablate", "--features-dir", "f"], "--text-teacher-ckpt"),
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    @pytest.mark.parametrize("out_dir", [True, False], ids=["out-dir", "default-out-dir"])
    def test_missing_option_writes_nothing(self, tmp_path, monkeypatch, capsys, args, flag,
                                           out_dir):
        monkeypatch.chdir(tmp_path)
        rc = main([*args, *TINY, *(["--out-dir", "x"] if out_dir else [])])
        assert rc == 1
        assert flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name, content, message", [
        ("305_AUDIO.wav", b"RIFF\x00\x00\x00", "305_AUDIO.wav: not a readable WAV file"),
        ("305_TRANSCRIPT.csv", b"start_time\tstop_time\tspeaker\tvalue\n1.0\t2.0\tParticipant\n",
         "305_TRANSCRIPT.csv: line 2: expected 4 tab-separated fields, got 3"),
    ], ids=["wav", "transcript"])
    def test_corrupt_input_names_its_file(self, prepared, tmp_path, capsys, name, content,
                                          message):
        data = shutil.copytree(prepared["data"], tmp_path / "data")
        (data / name).write_bytes(content)
        rc = main(["preprocess", *TINY, "--data-dir", str(data),
                   "--features-dir", str(tmp_path / "feats")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data / name}: ")
        assert message in err
        assert "Traceback" not in err

    def test_bad_transcript_writes_no_features(self, prepared, tmp_path, capsys):
        data = shutil.copytree(prepared["data"], tmp_path / "data")
        (data / "305_TRANSCRIPT.csv").write_bytes(
            b"start_time\tstop_time\tspeaker\tvalue\n1.0\t2.0\tParticipant\n")
        feats = tmp_path / "feats"
        rc = main(["preprocess", *TINY, "--data-dir", str(data), "--features-dir", str(feats)])
        assert rc == 1
        assert "305_TRANSCRIPT.csv" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.dfmf"))

    @pytest.mark.parametrize("args", [
        ["--features-dir", "nowhere"],
        ["--epochs-text", "-1"],
    ], ids=["missing-features", "negative-epochs"])
    def test_stage_failing_on_its_inputs_leaves_no_out_dir(self, prepared, tmp_path,
                                                            monkeypatch, capsys, args):
        monkeypatch.chdir(tmp_path)
        rc = main(["train-text-teacher", *TINY, "--features-dir", str(prepared["feats"]),
                   *args, "--out-dir", "x"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_missing_data_dir_reports_error(self, tmp_path, capsys):
        rc = main(["preprocess", *TINY,
                   "--data-dir", str(tmp_path / "nowhere"),
                   "--features-dir", str(tmp_path / "feats")])
        assert rc == 1
        assert "labels" in capsys.readouterr().err


class TestConfigPrecedence:
    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("synth_n = 20\nseed = 1\ndata_dir = {}\n".format(
            tmp_path / "from_file"))
        flag_dir = tmp_path / "from_flag"
        rc = main(["synth", "--config", str(cfg_file),
                   "--data-dir", str(flag_dir), "--synth-sample-rate", "8000"])
        assert rc == 0
        assert flag_dir.exists()
        assert not (tmp_path / "from_file").exists()
        assert (flag_dir / "labels.csv").read_text().count("\n") == 21

    def test_config_file_values_used(self, tmp_path):
        data = tmp_path / "d"
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"synth_n = 22\nsynth_sample_rate = 8000\ndata_dir = {data}\n")
        assert main(["synth", "--config", str(cfg_file)]) == 0
        # 22 participants + header
        assert (data / "labels.csv").read_text().count("\n") == 23

    def test_bad_config_file_reported(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("no_such_key = 5\n")
        rc = main(["synth", "--config", str(cfg_file), "--data-dir",
                   str(tmp_path / "d")])
        assert rc == 1
        assert "no_such_key" in capsys.readouterr().err

    def test_saved_config_reflects_overrides(self, prepared):
        snap = parse_config_file(prepared["text_ckpt"].parent / "config.txt")
        assert snap["epochs_text"] == "1"
        assert snap["features_dir"] == str(prepared["feats"])


class TestDefaultOutDir:
    def test_timestamped_run_directory(self, prepared, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["train-audio-teacher", *TINY,
                   "--features-dir", str(prepared["feats"])])
        assert rc == 0
        runs = list((tmp_path / "runs").iterdir())
        assert len(runs) == 1
        name = runs[0].name
        assert name.endswith("-train-audio-teacher")
        stamp = name.split("-train-audio-teacher")[0]
        # UTC timestamp layout YYYYMMDD-HHMMSS
        from datetime import datetime

        datetime.strptime(stamp, "%Y%m%d-%H%M%S")
        assert (runs[0] / "config.txt").exists()
        assert (runs[0] / "audio_teacher.ckpt").exists()

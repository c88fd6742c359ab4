"""Command-line interface tests, driven through main(argv) in-process:
happy paths for each subcommand, required-flag errors on stderr with exit
code 1, config-file/flag precedence, and the resolved-config artifact.
"""

import numpy as np
import pytest

from distillfuse.checkpoint import load_checkpoint, save_checkpoint
from distillfuse.cli import main
from distillfuse.config import parse_config_file


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

"""``tools/recipes.py``: the five byte-identity recipes, checked without
running them."""

import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import recipes  # noqa: E402

QUICK_START = ("--synth-n 200 --max-len 32 --batch-size 32 --epochs-text 4 --epochs-audio 6 "
               "--epochs-student 15 --optimizer-student adam --fusion-dim 16 --fusion-heads 8")
TEACHERS = ("--text-teacher-ckpt run/teachers/text_teacher.ckpt "
            "--audio-teacher-ckpt run/teachers/audio_teacher.ckpt")


def test_command_lines(tmp_path, monkeypatch):
    calls = []

    def fake_run(cmd, cwd, env, capture_output, text):
        calls.append((cmd, cwd, env))
        return subprocess.CompletedProcess(cmd, 0, stdout=f"{cmd[3]}\n", stderr="")

    monkeypatch.setattr(recipes.subprocess, "run", fake_run)
    out = tmp_path / "out"
    assert recipes.main([str(out)]) == 0
    assert [" ".join(cmd[3:]) for cmd, _, _ in calls] == [
        f"run {QUICK_START} --out-dir run",
        f"quantize {QUICK_START} --features-dir run/features "
        "--checkpoint run/teachers/audio_teacher.ckpt --out-dir quantize",
        f"ablate {QUICK_START} --features-dir run/features {TEACHERS} --out-dir ablate",
        f"train-text-teacher {QUICK_START} --features-dir run/features --lora-rank 0 "
        "--out-dir text-lora-rank-0",
        f"train-student {QUICK_START} --features-dir run/features {TEACHERS} "
        "--temperature 2 --out-dir student-temperature-2",
    ]
    src = str(Path(recipes.__file__).resolve().parents[1] / "src")
    for cmd, cwd, env in calls:
        assert cmd[:3] == [sys.executable, "-m", "distillfuse.cli"]
        assert cwd == out
        assert env["OPENBLAS_NUM_THREADS"] == "1"
        assert env["PYTHONPATH"].split(os.pathsep)[0] == src
    assert (out / "ablate.stdout").read_text() == "ablate\n"


def test_failed_command_stops_the_run(tmp_path, monkeypatch, capsys):
    def fake_run(cmd, cwd, env, capture_output, text):
        return subprocess.CompletedProcess(cmd, 1, stdout="", stderr="error: boom\n")

    monkeypatch.setattr(recipes.subprocess, "run", fake_run)
    assert recipes.main([str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: boom\n"
    assert list(tmp_path.iterdir()) == []


def test_usage():
    assert recipes.main([]) == 2
    assert recipes.main(["a", "b"]) == 2

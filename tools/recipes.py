"""Run the five byte-identity recipes into one output tree.

    python tools/recipes.py OUT

From inside ``OUT``, with ``OPENBLAS_NUM_THREADS=1`` and this checkout's
``src`` first on ``PYTHONPATH``, runs in order: the README quick-start
``distillfuse run``; ``quantize`` on its audio teacher; ``ablate`` on its
features and teachers; ``train-text-teacher --lora-rank 0``; and
``train-student --temperature 2``. Every ``--out-dir`` and input path is
relative to ``OUT``, so even ``config.txt`` is the same from any checkout,
and each command's stdout is kept as ``OUT/<out-dir>.stdout``. Run it from
two checkouts into two directories, then ``tools/compare_runs.py A B`` is
the whole byte check. Exits 1 when a command fails (its stderr is printed),
2 unless given one argument.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

QUICK_START = ["--synth-n", "200", "--max-len", "32", "--batch-size", "32",
               "--epochs-text", "4", "--epochs-audio", "6", "--epochs-student", "15",
               "--optimizer-student", "adam", "--fusion-dim", "16", "--fusion-heads", "8"]
FEATURES = ["--features-dir", "run/features"]
TEACHERS = ["--text-teacher-ckpt", "run/teachers/text_teacher.ckpt",
            "--audio-teacher-ckpt", "run/teachers/audio_teacher.ckpt"]

RECIPES = [
    ["run", *QUICK_START, "--out-dir", "run"],
    ["quantize", *QUICK_START, *FEATURES,
     "--checkpoint", "run/teachers/audio_teacher.ckpt", "--out-dir", "quantize"],
    ["ablate", *QUICK_START, *FEATURES, *TEACHERS, "--out-dir", "ablate"],
    ["train-text-teacher", *QUICK_START, *FEATURES, "--lora-rank", "0",
     "--out-dir", "text-lora-rank-0"],
    ["train-student", *QUICK_START, *FEATURES, *TEACHERS, "--temperature", "2",
     "--out-dir", "student-temperature-2"],
]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: recipes.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    for args in RECIPES:
        done = subprocess.run([sys.executable, "-m", "distillfuse.cli", *args], cwd=out,
                              env=env, capture_output=True, text=True)
        if done.returncode:
            print(done.stderr, end="", file=sys.stderr)
            return 1
        (out / f"{args[-1]}.stdout").write_text(done.stdout, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

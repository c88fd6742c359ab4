"""List the lines of ``src/distillfuse`` that no CLI command runs.

    python tools/linetrace.py OUT

Runs all nine ``distillfuse`` commands at a tiny recipe (40 synthetic
participants, ``--d-model 16``, 1-3 epochs) from inside ``OUT``, in this
process, under ``sys.settrace`` and ``threading.settrace``, so the preprocess
pool's worker threads are traced too. ``train-student`` runs single-head at
temperature 2, ``quantize`` runs once per scheme and ``evaluate`` scores the
asymmetric int8 checkpoint; ``ablate`` and ``run`` cover the multi-head
student. Then prints one line per module, ``name.py: 41-42, 64``, naming the
lines inside functions that no command ran (``none`` when all of them ran).
Module and class bodies are left out, as they run on import. Exits 1 when a
command fails (its error is on stderr), 2 unless given one argument.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
import threading
import types
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PKG = SRC / "distillfuse"

TINY = ["--synth-n", "40", "--d-model", "16", "--d-ff", "32", "--lstm-hidden", "8",
        "--max-len", "32", "--batch-size", "8", "--fusion-dim", "8", "--fusion-heads", "2",
        "--epochs-text", "1", "--epochs-audio", "2", "--epochs-student", "3",
        "--epochs-qat", "1", "--plateau-patience", "1", "--threads", "2"]
FEATURES = ["--features-dir", "features"]
TEACHERS = ["--text-teacher-ckpt", "teachers/text_teacher.ckpt",
            "--audio-teacher-ckpt", "teachers/audio_teacher.ckpt"]

COMMANDS = [
    ["synth", *TINY, "--data-dir", "data"],
    ["preprocess", *TINY, "--data-dir", "data", *FEATURES],
    ["train-text-teacher", *TINY, *FEATURES, "--out-dir", "teachers"],
    ["train-audio-teacher", *TINY, *FEATURES, "--out-dir", "teachers"],
    ["train-student", *TINY, *FEATURES, *TEACHERS, "--no-multi-head", "--temperature", "2",
     "--out-dir", "student"],
    *[["quantize", *TINY, *FEATURES, "--checkpoint", "teachers/audio_teacher.ckpt",
       "--quant-scheme", scheme, "--out-dir", f"quantize-{scheme}"]
      for scheme in ("symmetric", "asymmetric")],
    ["evaluate", *TINY, *FEATURES, "--checkpoint",
     "quantize-asymmetric/audio_teacher_quantized.ckpt", "--out-dir", "evaluate"],
    ["ablate", *TINY, *FEATURES, *TEACHERS, "--out-dir", "ablate"],
    ["run", *TINY, "--out-dir", "run"],
]


def function_lines(path: Path) -> set[int]:
    """The lines that hold bytecode of some function (lambdas and
    comprehensions included) in the source file ``path``."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


def unrun_lines(out, commands) -> dict[str, list[int]]:
    """Run each argument list in ``commands`` through ``distillfuse.cli.main``
    from inside ``out``; return, per module file name, the sorted function
    lines that none of them ran. Raises RuntimeError naming the first
    command that fails."""
    ran: dict[str, set[int]] = {}
    names: dict[str, str | None] = {}  # co_filename -> module file name, or None

    def local(frame, event, arg):
        if event == "line":
            ran[names[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        code = frame.f_code
        name = names.get(code.co_filename, "")
        if name == "":
            path = Path(os.path.realpath(code.co_filename))
            name = names[code.co_filename] = path.name if path.parent == PKG else None
        if name is None:
            return None
        ran.setdefault(name, set()).add(code.co_firstlineno)
        return local

    sys.path.insert(0, str(SRC))
    here, previous = Path.cwd(), sys.gettrace()
    os.chdir(out)
    threading.settrace(call)
    sys.settrace(call)
    try:
        from distillfuse import cli

        for args in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                failed = cli.main(args)
            if failed:
                raise RuntimeError(f"distillfuse {args[0]} failed")
    finally:
        sys.settrace(previous)
        threading.settrace(None)
        os.chdir(here)
        sys.path.remove(str(SRC))
    return {path.name: sorted(function_lines(path) - ran.get(path.name, set()))
            for path in sorted(PKG.glob("*.py"))}


def spans(lines: list[int]) -> str:
    """``[41, 42, 64]`` -> ``"41-42, 64"``; ``[]`` -> ``"none"``."""
    out = []
    for line in lines:
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(f"{a}-{b}" if b > a else f"{a}" for a, b in out) or "none"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: linetrace.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    try:
        unrun = unrun_lines(out, COMMANDS)
    except RuntimeError as err:
        print(err, file=sys.stderr)
        return 1
    for name, lines in unrun.items():
        print(f"{name}: {spans(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

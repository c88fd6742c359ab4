"""``tools/linetrace.py``: a traced run of ``synth`` alone, and the report's
pieces."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import linetrace  # noqa: E402


def _line_of(name: str, text: str) -> int:
    lines = (linetrace.PKG / name).read_text(encoding="utf-8").splitlines()
    (number,) = [i for i, line in enumerate(lines, 1) if text in line]
    return number


def test_synth_alone(tmp_path):
    unrun = linetrace.unrun_lines(tmp_path, [linetrace.COMMANDS[0]])
    assert list(unrun) == sorted(p.name for p in linetrace.PKG.glob("*.py"))
    assert (tmp_path / "data").is_dir()
    assert _line_of("cli.py", "manifest = synth_generate(") not in unrun["cli.py"]
    assert _line_of("cli.py", "manifest = pipeline.preprocess(") in unrun["cli.py"]
    assert _line_of("data.py", "def synth_generate(") not in unrun["data.py"]
    for name, lines in unrun.items():
        assert lines == sorted(set(lines))
        assert set(lines) <= linetrace.function_lines(linetrace.PKG / name), name


def test_function_lines_leave_out_module_and_class_bodies(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("X = 1\n\n\nclass A:\n    y = 2\n\n    def f(self):\n"
                   "        return [i for i in range(3)]\n\n\ng = lambda: 4\n")
    assert linetrace.function_lines(src) == {7, 8, 11}


def test_spans():
    assert linetrace.spans([41, 42, 64, 66, 67, 68]) == "41-42, 64, 66-68"
    assert linetrace.spans([]) == "none"


def test_usage():
    assert linetrace.main([]) == 2
    assert linetrace.main(["a", "b"]) == 2

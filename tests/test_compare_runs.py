"""``tools/compare_runs.py``: one status line per relative path of two
output trees, and a non-zero exit on any difference."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import compare_runs  # noqa: E402


def _tree(root: Path) -> Path:
    (root / "eval" / "student").mkdir(parents=True)
    (root / "eval" / "student" / "metrics.txt").write_bytes(b"accuracy=1.0\n")
    (root / "student.ckpt").write_bytes(bytes(range(256)))
    return root


def test_identical_trees_are_all_equal(tmp_path, capsys):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert compare_runs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "equal\teval/student/metrics.txt",
        "equal\tstudent.ckpt",
    ]


def test_one_flipped_byte_differs(tmp_path, capsys):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    blob = bytearray((b / "student.ckpt").read_bytes())
    blob[100] ^= 0x01
    (b / "student.ckpt").write_bytes(bytes(blob))
    assert compare_runs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "equal\teval/student/metrics.txt",
        "differs\tstudent.ckpt",
    ]


def test_extra_file_on_either_side(tmp_path, capsys):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    (a / "eval" / "roc.csv").write_text("fpr,tpr,threshold\n")
    (b / "run.log").write_text("")
    assert compare_runs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "only in A\teval/roc.csv",
        "equal\teval/student/metrics.txt",
        "only in B\trun.log",
        "equal\tstudent.ckpt",
    ]
    assert compare_runs.main([str(b), str(a)]) == 1


def test_needs_two_directories(tmp_path, capsys):
    a = _tree(tmp_path / "a")
    assert compare_runs.main([str(a)]) == 2
    assert compare_runs.main([str(a), str(tmp_path / "missing")]) == 2
    assert "usage" in capsys.readouterr().err

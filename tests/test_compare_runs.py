"""``tools/compare_runs.py``: one status line per relative path of two
output trees, and a non-zero exit on any difference; with ``--tol``, the
largest numeric difference of each differing file."""

import sys
from pathlib import Path

import numpy as np
import pytest

from distillfuse.audio import save_features
from distillfuse.checkpoint import Checkpoint, save_checkpoint
from distillfuse.quant import QuantParams, quantize

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
    for tol in ("-1", "nan", "x"):
        assert compare_runs.main(["--tol", tol, str(a), str(a)]) == 2
    assert "usage" in capsys.readouterr().err


def _numeric_tree(root: Path, scale: float = 1.0, **edits) -> Path:
    """One file of each format ``--tol`` reads, every value times ``scale``;
    ``edits`` replaces a header, key, meta value or block name."""
    root.mkdir()
    w = np.array([[0.25, -1.5], [3.0, 0.0]]) * scale
    (root / "roc.csv").write_text(
        f"{edits.get('header', 'fpr,tpr')}\n0.0,{0.5 * scale!r}\n{0.75 * scale!r},1.0\n")
    (root / "metrics.txt").write_text(f"{edits.get('key', 'auc')}={0.625 * scale!r}\nn=30\n")
    save_checkpoint(root / "m.ckpt", Checkpoint(
        "student", {"d_model": edits.get("meta", "8")}, arrays={edits.get("block", "w"): w},
        quantized={"q": quantize(w, QuantParams(0.5 * scale, 0, "symmetric"))}))
    save_features(root / "f.dfmf", w)
    return root


def test_tolerance_reads_close_within_and_differs_beyond(tmp_path, capsys):
    a = _numeric_tree(tmp_path / "a")
    b = _numeric_tree(tmp_path / "b", scale=1.0 + 1e-9)
    files = ["f.dfmf", "m.ckpt", "metrics.txt", "roc.csv"]
    assert compare_runs.main(["--tol", "1e-6", str(a), str(b)]) == 0
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert [(status, rel) for status, rel, _ in lines] == [("close", f) for f in files]
    for *_, note in lines:
        gap_abs, gap_rel = (float(part.split("=")[1]) for part in note.split())
        assert 0 < gap_rel <= 1e-9 * 1.01 and 0 < gap_abs <= 3.5e-9
    assert compare_runs.main(["--tol", "1e-12", str(a), str(b)]) == 1
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert [(status, rel) for status, rel, _ in lines] == [("differs", f) for f in files]
    assert compare_runs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"differs\t{f}" for f in files]


@pytest.mark.parametrize("edit, rel", [
    ({"header": "fpr,tpr_"}, "roc.csv"),
    ({"key": "auc_"}, "metrics.txt"),
    ({"meta": "16"}, "m.ckpt"),
    ({"block": "w_"}, "m.ckpt"),
], ids=["csv-header", "metrics-key", "meta-value", "block-name"])
def test_non_numeric_difference_always_differs(tmp_path, capsys, edit, rel):
    a = _numeric_tree(tmp_path / "a")
    b = _numeric_tree(tmp_path / "b", **edit)
    assert compare_runs.main(["--tol", "1e9", str(a), str(b)]) == 1
    assert f"differs\t{rel}" in capsys.readouterr().out.splitlines()

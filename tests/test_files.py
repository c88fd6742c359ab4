"""Every artifact is whole or absent: each writer goes through
``files.atomic_write``, so a write that runs out of space midway leaves the
earlier file byte for byte, or no file, and never a stray temp file; a write
that succeeds produces exactly the expected bytes (text as UTF-8 with LF).
The writer also makes a missing output directory, and only then."""

import dataclasses
import io
import struct
import threading
import wave
from pathlib import Path

import numpy as np
import pytest

from distillfuse import pipeline
from distillfuse.audio import WaveForm, save_features, write_wav
from distillfuse.checkpoint import Checkpoint, save_checkpoint
from distillfuse.config import RunConfig, save_config
from distillfuse.data import synth_generate
from distillfuse.files import atomic_write
from distillfuse.metrics import compute_metrics, emit_report, roc_auc
from distillfuse.text import SPECIAL_TOKENS, Vocabulary, save_vocab
from helpers import fill_disk


def _checkpoint(d, v):
    save_checkpoint(d / "model.ckpt",
                    Checkpoint("k", {"note": "é"}, arrays={"w": np.arange(2.0) + v}))


def _checkpoint_bytes():
    def string(s):
        raw = s.encode("utf-8")
        return struct.pack("<I", len(raw)) + raw

    return (b"DFCK" + struct.pack("<I", 1) + string("k") + struct.pack("<I", 1)
            + string("note") + string("é") + struct.pack("<I", 1) + string("w")
            + struct.pack("<BII", 0, 1, 2) + struct.pack("<2d", 0.0, 1.0))


def _frames(v):
    return np.arange(6.0).reshape(3, 2) + v


def _samples(v):
    return np.array([0.0, 0.5, -0.5, 1.0, -1.0, 0.25 * v])


def _wav_bytes():
    """What the standard library's ``wave`` writer makes of clip 0."""
    buf = io.BytesIO()
    with wave.open(buf, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(8000)
        f.writeframes(np.array([0, 16384, -16384, 32767, -32768, 0], "<i2").tobytes())
    return buf.getvalue()


def _tokens(v):
    return [*SPECIAL_TOKENS, "café", "naïve", *(["über"] if v else [])]


def _config(v):
    return RunConfig(interviewer=["Zoë", "Ellie"][v], seed=v)


def _config_text(cfg):
    def fmt(x):
        return ("true" if x else "false") if isinstance(x, bool) else str(x)

    return "".join(f"{f.name} = {fmt(getattr(cfg, f.name))}\n"
                   for f in dataclasses.fields(cfg))


def _report(d, v, with_roc):
    labels = [1, 0, 0, 1]
    report = compute_metrics([1, 0, 1, 1 - v], labels)
    curve, report.auc = roc_auc([0.9, 0.2, 0.6, 0.8 - 0.7 * v], labels)
    emit_report(report, curve if with_roc else None, d)


_METRICS = ("n=4\naccuracy=0.75\nprecision_class0=1.0\nprecision_class1=0.6666666666666666\n"
            "recall_class0=0.5\nrecall_class1=1.0\nf1_class0=0.6666666666666666\nf1_class1=0.8\n"
            "support_class0=2\nsupport_class1=2\nprecision_weighted=0.8333333333333333\n"
            "recall_weighted=0.75\nf1_weighted=0.7333333333333334\nzero_division=false\n"
            "auc=1.0\n")
_ROC = "fpr,tpr,threshold\n0.0,0.0,inf\n0.0,0.5,0.9\n0.0,1.0,0.8\n0.5,1.0,0.6\n1.0,1.0,0.2\n"


# participants 300..319 of the seed-0 corpus
_LABELS = "Participant_ID,PHQ8_Binary\n" + "".join(
    f"{300 + k},{y}\n" for k, y in enumerate("01010110010100101110"))


# name -> (the file it writes, write(dir, variant), the bytes variant 0 writes)
WRITERS = {
    "save_checkpoint": ("model.ckpt", _checkpoint, _checkpoint_bytes()),
    "save_features": (
        "p.dfmf",
        lambda d, v: save_features(d / "p.dfmf", _frames(v)),
        b"DFMF" + struct.pack("<III", 1, 3, 2) + _frames(0).astype("<f8").tobytes(),
    ),
    "write_wav": (
        "clip.wav",
        lambda d, v: write_wav(d / "clip.wav", WaveForm(_samples(v), 8000)),
        _wav_bytes(),
    ),
    "save_vocab": (
        "vocab.txt",
        lambda d, v: save_vocab(d / "vocab.txt", Vocabulary(_tokens(v))),
        "".join(t + "\n" for t in _tokens(0)).encode("utf-8"),
    ),
    "save_config": (
        "config.txt",
        lambda d, v: save_config(_config(v), d / "config.txt"),
        _config_text(_config(0)).encode("utf-8"),
    ),
    "emit_report-metrics": (
        "metrics.txt",
        lambda d, v: _report(d, v, with_roc=False),
        _METRICS.encode("utf-8"),
    ),
    "emit_report-roc": (
        "roc.csv",
        lambda d, v: _report(d, v, with_roc=True),
        _ROC.encode("utf-8"),
    ),
    "_write_log": (
        "log.csv",
        lambda d, v: pipeline._write_log(d / "log.csv", "epoch,note", ["1,é", f"2,{v}"]),
        "epoch,note\n1,é\n2,0\n".encode("utf-8"),
    ),
    "synth_generate": (
        "labels.csv",
        lambda d, v: synth_generate(20, v, d),
        _LABELS.encode("utf-8"),
    ),
}


def _temp_files(d):
    return sorted(p.name for p in d.rglob("*.tmp"))


@pytest.mark.parametrize("writer", list(WRITERS))
def test_success_writes_the_expected_bytes(writer, tmp_path):
    name, write, expected = WRITERS[writer]
    write(tmp_path, 0)
    assert (tmp_path / name).read_bytes() == expected
    assert _temp_files(tmp_path) == []


@pytest.mark.parametrize("writer", list(WRITERS))
def test_failed_write_keeps_the_earlier_file(writer, tmp_path, monkeypatch):
    name, write, _ = WRITERS[writer]
    write(tmp_path, 0)
    before = (tmp_path / name).read_bytes()
    fill_disk(monkeypatch, name)
    with pytest.raises(OSError, match="No space"):
        write(tmp_path, 1)
    assert (tmp_path / name).read_bytes() == before
    assert _temp_files(tmp_path) == []
    monkeypatch.undo()
    write(tmp_path, 1)
    assert (tmp_path / name).read_bytes() != before


@pytest.mark.parametrize("writer", list(WRITERS))
def test_failed_first_write_leaves_no_file(writer, tmp_path, monkeypatch):
    name, write, _ = WRITERS[writer]
    fill_disk(monkeypatch, name)
    with pytest.raises(OSError, match="No space"):
        write(tmp_path, 0)
    assert not (tmp_path / name).exists()
    assert _temp_files(tmp_path) == []


@pytest.mark.parametrize("writer", list(WRITERS))
def test_writer_makes_its_missing_directory(writer, tmp_path):
    name, write, expected = WRITERS[writer]
    out = tmp_path / "new" / "dir"
    write(out, 0)
    assert (out / name).read_bytes() == expected
    assert _temp_files(tmp_path) == []


def test_missing_parents_are_made(tmp_path):
    atomic_write(tmp_path / "a" / "b" / "c.txt", "x\n")
    assert (tmp_path / "a" / "b" / "c.txt").read_bytes() == b"x\n"
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "a", "a/b", "a/b/c.txt"]


def test_existing_directory_is_not_made_again(tmp_path, monkeypatch):
    def no_mkdir(self, *args, **kwargs):
        raise AssertionError(f"mkdir {self}")

    monkeypatch.setattr(Path, "mkdir", no_mkdir)
    atomic_write(tmp_path / "t.txt", "x")
    assert (tmp_path / "t.txt").read_bytes() == b"x"


def test_two_threads_write_into_one_missing_directory(tmp_path):
    for round_ in range(20):
        out = tmp_path / f"r{round_}" / "out"
        start = threading.Barrier(2)
        errors = []

        def write(name):
            start.wait(timeout=10)
            try:
                atomic_write(out / name, name)
            except BaseException as err:  # noqa: BLE001 - reported below
                errors.append(err)

        threads = [threading.Thread(target=write, args=(n,)) for n in ("a.txt", "b.txt")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert errors == []
        assert sorted(p.name for p in out.iterdir()) == ["a.txt", "b.txt"]
        assert (out / "a.txt").read_text() == "a.txt"


def test_text_is_utf8_with_newlines_unchanged(tmp_path):
    atomic_write(tmp_path / "t.txt", "a\r\nß\n")
    atomic_write(tmp_path / "b.bin", b"\x00\r\n")
    assert (tmp_path / "t.txt").read_bytes() == b"a\r\n\xc3\x9f\n"
    assert (tmp_path / "b.bin").read_bytes() == b"\x00\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.bin", "t.txt"]

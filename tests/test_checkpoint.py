"""Checkpoint format tests: float and quantized round-trips, byte-identical
re-saves, and structural errors that name the offending byte offset.
"""

import math
import re
import struct

import numpy as np
import pytest

from distillfuse.checkpoint import (
    MAGIC,
    VERSION,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from distillfuse.quant import calibrate, quantize
from helpers import fill_disk


def _sample_checkpoint(seed=0):
    rng = np.random.default_rng(seed)
    w1 = rng.normal(size=(4, 3))
    w2 = rng.normal(size=(2, 4, 3))
    qw = rng.normal(size=(5, 5))
    return Checkpoint(
        kind="test-model",
        meta={"seed": "7", "note": "hello world"},
        arrays={"w1": w1, "w2": w2, "scalarish": np.array(3.5)},
        quantized={
            "qsym": quantize(qw, calibrate(qw, "symmetric")),
            "qasym": quantize(qw, calibrate(qw, "asymmetric")),
        },
    )


class TestRoundTrip:
    def test_arrays_bit_exact(self, tmp_path):
        ck = _sample_checkpoint()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, ck)
        back = load_checkpoint(p)
        assert back.kind == "test-model"
        assert back.meta == {"seed": "7", "note": "hello world"}
        assert set(back.arrays) == {"w1", "w2", "scalarish"}
        for name in ck.arrays:
            np.testing.assert_array_equal(back.arrays[name], ck.arrays[name])
            assert back.arrays[name].dtype == np.float64
        assert back.arrays["scalarish"].shape == ()

    def test_quantized_blocks_bit_exact(self, tmp_path):
        ck = _sample_checkpoint()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, ck)
        back = load_checkpoint(p)
        for name in ("qsym", "qasym"):
            orig = ck.quantized[name]
            got = back.quantized[name]
            np.testing.assert_array_equal(got.values, orig.values)
            assert got.values.dtype == orig.values.dtype
            assert got.params.scale == orig.params.scale
            assert got.params.zero_point == orig.params.zero_point
            assert got.params.scheme == orig.params.scheme

    def test_save_load_save_byte_identical(self, tmp_path):
        ck = _sample_checkpoint(3)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, ck)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_checkpoint(self, tmp_path):
        p = tmp_path / "empty.ckpt"
        save_checkpoint(p, Checkpoint(kind="nothing", meta={}))
        back = load_checkpoint(p)
        assert back.kind == "nothing"
        assert back.arrays == {} and back.quantized == {}

    def test_unicode_meta(self, tmp_path):
        p = tmp_path / "u.ckpt"
        save_checkpoint(p, Checkpoint(kind="k", meta={"läbel": "vålue ✓"}))
        assert load_checkpoint(p).meta == {"läbel": "vålue ✓"}

    def test_quantized_payload_quarter_of_float(self, tmp_path):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(64, 64))
        pq = tmp_path / "q.ckpt"
        pf = tmp_path / "f.ckpt"
        save_checkpoint(pq, Checkpoint("m", {}, quantized={
            "w": quantize(w, calibrate(w))}))
        save_checkpoint(pf, Checkpoint("m", {}, arrays={"w": w}))
        # int8 payload is 1/8 the float64 payload; whole-file ratio < 1/4
        assert pq.stat().st_size < pf.stat().st_size / 4


class TestStructuralErrors:
    def test_bad_magic_names_offset(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        ck = _sample_checkpoint()
        save_checkpoint(p, ck)
        blob = bytearray(p.read_bytes())
        blob[:4] = b"XXXX"
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic at byte 0"):
            load_checkpoint(p)

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "v.ckpt"
        save_checkpoint(p, _sample_checkpoint())
        blob = bytearray(p.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version 99 at byte 4"):
            load_checkpoint(p)

    def test_truncated_file_names_offset(self, tmp_path):
        # cut at every offset: each cut names the file and the byte
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, _sample_checkpoint())
        blob = p.read_bytes()
        for n in range(len(blob)):
            p.write_bytes(blob[:n])
            with pytest.raises(CheckpointError, match=rf"^{re.escape(str(p))}: truncated.*at byte"):
                load_checkpoint(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        p = tmp_path / "g.ckpt"
        save_checkpoint(p, _sample_checkpoint())
        p.write_bytes(p.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(CheckpointError, match="3 trailing bytes"):
            load_checkpoint(p)

    def test_unknown_block_flag(self, tmp_path):
        p = tmp_path / "f.ckpt"
        save_checkpoint(p, Checkpoint("m", {}, arrays={"w": np.zeros(2)}))
        blob = bytearray(p.read_bytes())
        # block starts after: magic(4) + version(4) + kind(4+1) + n_meta(4)
        # + n_blocks(4) + name(4+1); flag byte follows
        flag_off = 4 + 4 + 5 + 4 + 4 + 5
        assert blob[flag_off] == 0
        blob[flag_off] = 7
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"flag 7 at byte {flag_off}"):
            load_checkpoint(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.ckpt"
        p.write_bytes(b"")
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(p)

    def test_invalid_utf8_string(self, tmp_path):
        p = tmp_path / "u.ckpt"
        save_checkpoint(p, Checkpoint("zz", {}))
        blob = bytearray(p.read_bytes())
        # kind string bytes start at offset 12 (magic 4 + version 4 + len 4)
        blob[12:14] = b"\xff\xfe"
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="utf-8 string at byte 12"):
            load_checkpoint(p)

    def test_every_bit_flip_loads_or_raises_checkpoint_error(self, tmp_path):
        # v1 has no checksum, so a flip may load; it must never escape as
        # another error (a 0 dimension beside huge ones used to, from numpy)
        p = tmp_path / "flip.ckpt"
        save_checkpoint(p, _sample_checkpoint())
        blob = p.read_bytes()
        for i in range(len(blob)):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[i] ^= 1 << bit
                p.write_bytes(bytes(flipped))
                try:
                    load_checkpoint(p)
                except CheckpointError as err:
                    assert str(err).startswith(f"{p}: ")


def _pack_str(s: str) -> bytes:
    return struct.pack("<I", len(s)) + s.encode()


def _one_block(flag: int, ndim: int, shape: tuple, payload: bytes) -> bytes:
    """A hand-built checkpoint holding one block named 'w'."""
    return (MAGIC + struct.pack("<I", VERSION) + _pack_str("m") + struct.pack("<II", 0, 1)
            + _pack_str("w") + struct.pack(f"<BI{len(shape)}I", flag, ndim, *shape) + payload)


def _quantized_block(scale: float, zero_point: int) -> bytes:
    return _one_block(1, 1, (2,), struct.pack("<Bdq", 0, scale, zero_point) + b"\x01\x02")


CRAFTED = {
    # int64 np.prod of this shape wraps to 0 elements; the true count is 2**64
    "shape-product-overflows": (_one_block(0, 4, (65536,) * 4, b"\x00" * 8), "truncated"),
    "ndim-beyond-numpy": (_one_block(0, 70, (1,) * 70, b"\x00" * 8), "70 dimensions"),
    "zero-scale": (_quantized_block(0.0, 0), "block 'w' at byte .*scale"),
    "nan-scale": (_quantized_block(math.nan, 0), "block 'w' at byte .*scale"),
    "zero-point-out-of-range": (_quantized_block(0.5, 2**62), "block 'w' at byte .*zero point"),
}


@pytest.mark.parametrize("name", CRAFTED)
def test_crafted_block_raises_checkpoint_error_naming_the_file(tmp_path, name):
    blob, match = CRAFTED[name]
    p = tmp_path / f"{name}.ckpt"
    p.write_bytes(blob)
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(p))}: .*{match}"):
        load_checkpoint(p)


def test_repeated_block_name_names_file_name_and_offset(tmp_path):
    # an int8 block must not silently replace the float block of its name
    p = tmp_path / "twice.ckpt"
    q = np.array([0.5, -1.0])
    save_checkpoint(p, Checkpoint("m", {}, arrays={"w": np.zeros(2)},
                                  quantized={"w": quantize(q, calibrate(q, "symmetric"))}))
    # magic(4) + version(4) + kind(4+1) + n_meta(4) + n_blocks(4), then the
    # float block: name(4+1) + flag and ndim(5) + dim(4) + payload(16)
    with pytest.raises(CheckpointError,
                       match=rf"^{re.escape(str(p))}: repeated block name 'w' at byte 51$"):
        load_checkpoint(p)


def test_repeated_meta_key_names_file_key_and_offset(tmp_path):
    p = tmp_path / "twice.ckpt"
    p.write_bytes(MAGIC + struct.pack("<I", VERSION) + _pack_str("m") + struct.pack("<I", 2)
                  + _pack_str("k") + _pack_str("a") + _pack_str("k") + _pack_str("b")
                  + struct.pack("<I", 0))
    with pytest.raises(CheckpointError,
                       match=rf"^{re.escape(str(p))}: repeated meta key 'k' at byte 27$"):
        load_checkpoint(p)


def test_hand_built_block_loads_when_sound(tmp_path):
    p = tmp_path / "sound.ckpt"
    p.write_bytes(_quantized_block(0.5, 0))
    q = load_checkpoint(p).quantized["w"]
    np.testing.assert_array_equal(q.values, [1, 2])
    assert (q.params.scale, q.params.zero_point, q.params.scheme) == (0.5, 0, "symmetric")


class TestAtomicWrite:
    def test_failed_write_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, _sample_checkpoint(0))
        before = path.read_bytes()
        fill_disk(monkeypatch)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, _sample_checkpoint(1))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_failed_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        fill_disk(monkeypatch)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(tmp_path / "model.ckpt", _sample_checkpoint(0))
        assert list(tmp_path.iterdir()) == []

    def test_overwrite_leaves_only_the_new_checkpoint(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, _sample_checkpoint(0))
        save_checkpoint(path, _sample_checkpoint(1))
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        got = load_checkpoint(path)
        np.testing.assert_array_equal(got.arrays["w1"], _sample_checkpoint(1).arrays["w1"])

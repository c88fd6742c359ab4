"""Byte-compare two output trees, file by file.

    python tools/compare_runs.py [--tol X] A B

Prints one line per relative path found under either tree, in sorted order:
``equal``, ``differs``, ``only in A`` or ``only in B``, then the path. Exits 0
when every line is ``equal``, 1 on any difference, 2 unless given two
directories and a finite ``X >= 0``.

With ``--tol X`` above 0, a file whose bytes differ is read by its format:
the cells of a ``.csv``, the values of ``metrics.txt`` and
``quantization.txt``, each block of a ``.ckpt`` by name (an int8 block as its
dequantized values) and the frames of a ``.dfmf``. Its line then adds the
largest absolute and relative difference (``|a - b| / max(|a|, |b|)``) over
the values that differ, and reads ``close`` when either is at most ``X``; a
tree of ``equal`` and ``close`` lines exits 0. A difference that is not a
number always reads ``differs``: a header, a key, a meta value, a block name
or shape, a non-finite value, or a file that does not parse.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from distillfuse.audio import load_features  # noqa: E402
from distillfuse.checkpoint import load_checkpoint  # noqa: E402
from distillfuse.quant import dequantize  # noqa: E402

_KEY_VALUE_FILES = ("metrics.txt", "quantization.txt")


class _NotNumeric(Exception):
    """The two files differ in something other than a number."""


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _cells(path: Path, sep: str) -> list[list[str]]:
    return [line.split(sep) for line in path.read_text(encoding="utf-8").splitlines()]


def _text_pairs(a: Path, b: Path, sep: str) -> list[tuple[float, float]]:
    rows_a, rows_b = _cells(a, sep), _cells(b, sep)
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        raise _NotNumeric
    pairs = []
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a, row_b):
            if x != y:
                try:
                    pairs.append((float(x), float(y)))
                except ValueError:
                    raise _NotNumeric from None
    return pairs


def _array_pairs(a, b) -> list[tuple[float, float]]:
    if a.shape != b.shape:
        raise _NotNumeric
    return list(zip(a.ravel().tolist(), b.ravel().tolist()))


def _checkpoint_blocks(path: Path) -> tuple:
    ckpt = load_checkpoint(path)
    blocks = {**ckpt.arrays, **{n: dequantize(q) for n, q in ckpt.quantized.items()}}
    return ckpt.kind, ckpt.meta, sorted(ckpt.quantized), blocks


def _numeric_pairs(a: Path, b: Path) -> list[tuple[float, float]]:
    """Every pair of values that are read at the same place in ``a`` and
    ``b``; raises _NotNumeric when the two differ in anything else."""
    if a.suffix == ".csv":
        return _text_pairs(a, b, ",")
    if a.name in _KEY_VALUE_FILES:
        return _text_pairs(a, b, "=")
    if a.suffix == ".ckpt":
        *head_a, blocks_a = _checkpoint_blocks(a)
        *head_b, blocks_b = _checkpoint_blocks(b)
        if head_a != head_b or list(blocks_a) != list(blocks_b):
            raise _NotNumeric
        return [pair for n in blocks_a for pair in _array_pairs(blocks_a[n], blocks_b[n])]
    if a.suffix == ".dfmf":
        return _array_pairs(load_features(a), load_features(b))
    raise _NotNumeric


def _measure(a: Path, b: Path) -> tuple[float, float] | None:
    """(largest absolute, largest relative difference) between the values
    of ``a`` and ``b``, or None when they differ in more than numbers."""
    try:
        pairs = _numeric_pairs(a, b)
    except (_NotNumeric, ValueError):  # a file that does not parse included
        return None
    worst_abs = worst_rel = 0.0
    for x, y in pairs:
        if x == y:
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            return None
        gap = abs(x - y)
        worst_abs = max(worst_abs, gap)
        worst_rel = max(worst_rel, gap / max(abs(x), abs(y)))
    return worst_abs, worst_rel


def compare(a, b, tol: float = 0.0) -> list[tuple[str, str, str]]:
    """``(status, relative path, note)`` for every file under ``a`` or ``b``.
    The note is empty except with ``tol`` above 0, for a differing file that
    holds only numbers: it names the largest differences, and the status is
    ``close`` when one is at most ``tol``."""
    a, b = Path(a), Path(b)
    in_a, in_b = _files(a), _files(b)
    out = []
    for rel in sorted(in_a | in_b):
        note = ""
        if rel not in in_b:
            status = "only in A"
        elif rel not in in_a:
            status = "only in B"
        elif (a / rel).read_bytes() == (b / rel).read_bytes():
            status = "equal"
        else:
            status = "differs"
            gaps = _measure(a / rel, b / rel) if tol > 0 else None
            if gaps is not None:
                status = "close" if min(gaps) <= tol else "differs"
                note = f"max_abs={gaps[0]:.3g} max_rel={gaps[1]:.3g}"
        out.append((status, rel, note))
    return out


def main(argv: list[str]) -> int:
    tol = 0.0
    if argv[:1] == ["--tol"] and len(argv) > 1:
        try:
            tol = float(argv[1])
        except ValueError:
            tol = math.nan
        argv = argv[2:]
    if (len(argv) != 2 or not all(Path(d).is_dir() for d in argv)
            or not (math.isfinite(tol) and tol >= 0)):
        print("usage: compare_runs.py [--tol X] A B  (two directories, X >= 0)",
              file=sys.stderr)
        return 2
    lines = compare(*argv, tol=tol)
    for status, rel, note in lines:
        print("\t".join(filter(None, (status, rel, note))))
    return int(any(status not in ("equal", "close") for status, _, _ in lines))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

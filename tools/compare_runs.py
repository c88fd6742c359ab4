"""Byte-compare two output trees, file by file.

    python tools/compare_runs.py A B

Prints one line per relative path found under either tree, in sorted order:
``equal``, ``differs``, ``only in A`` or ``only in B``, then the path. Exits 0
when every line is ``equal``, 1 on any difference, 2 unless given two
directories.
"""

from __future__ import annotations

import sys
from pathlib import Path


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def compare(a, b) -> list[tuple[str, str]]:
    """``(status, relative path)`` for every file under ``a`` or ``b``."""
    a, b = Path(a), Path(b)
    in_a, in_b = _files(a), _files(b)
    out = []
    for rel in sorted(in_a | in_b):
        if rel not in in_b:
            status = "only in A"
        elif rel not in in_a:
            status = "only in B"
        else:
            status = "equal" if (a / rel).read_bytes() == (b / rel).read_bytes() else "differs"
        out.append((status, rel))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print("usage: compare_runs.py A B  (two directories)", file=sys.stderr)
        return 2
    lines = compare(*argv)
    for status, rel in lines:
        print(f"{status}\t{rel}")
    return int(any(status != "equal" for status, _ in lines))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

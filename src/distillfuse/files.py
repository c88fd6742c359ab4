"""The one way the package writes a file: whole or not at all."""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["atomic_write"]


def atomic_write(path, data: str | bytes) -> None:
    """Write ``data`` (a ``str`` as UTF-8, newlines unchanged) to
    ``.<name>.<pid>.tmp`` beside ``path``, then rename it over ``path``, so a
    write that fails midway leaves the earlier file at ``path``, or none.
    Missing parent directories are made when the open finds them missing."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        try:
            f = open(tmp, "wb")
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            f = open(tmp, "wb")
        with f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

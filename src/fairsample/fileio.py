"""Atomic file replacement: write beside the target, then rename over it."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a new file beside ``path`` for writing; on success it becomes ``path``.

    ``mode`` is ``"w"`` or ``"wb"``; ``open_kwargs`` go to :func:`open`.
    The content appears under ``path`` only when the block finishes
    without an exception, through one ``os.replace`` within the directory.
    If the block fails, the temporary file is removed and ``path`` keeps
    its previous content, or stays absent.  This guards against writes
    that fail part-way, not against power loss: nothing is fsynced.
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"mode must be 'w' or 'wb', got {mode!r}")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, mode.replace("w", "x"), **open_kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

"""Atomic file replacement shared by every persisted cache artifact.

The layer-result cache, the trace store and study manifests all write a
whole file to a temporary name in the target directory and rename it
into place.  Readers, in this or any other process, therefore see the
old file or the new one, never a partial write.  There is no ``fsync``:
after a power loss a renamed file may still be torn, and every reader of
these files treats an unreadable file as a miss.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` by temp file and rename (last writer wins)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise

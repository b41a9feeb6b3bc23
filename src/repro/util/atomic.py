"""Atomic file publication: write a sibling temp file, then ``os.replace``.

The result cache (metric series and serve reports alike) and the store
manifest publish files that concurrent readers may open at any moment.  Writing
to a temp file in the destination directory and renaming it over the
target means a reader sees either the old file or the complete new one,
never a torn write; a writer that fails part-way removes its temp file
and leaves the target untouched.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO

__all__ = ["atomic_writer"]


@contextmanager
def atomic_writer(path: Path) -> Iterator[BinaryIO]:
    """Open a binary handle whose contents replace ``path`` on clean exit.

    The temp file lives in ``path``'s directory (so the rename never
    crosses a filesystem) and is named ``<random><suffix>.tmp``.  Any
    exception raised inside the ``with`` block, or by the rename itself,
    unlinks the temp file and propagates.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=f"{path.suffix}.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

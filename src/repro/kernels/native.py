"""Build, cache and load the package's C kernels through :mod:`ctypes`.

Each C kernel is one C99 source file beside its Python module.  It is
compiled on the first call that needs it, never at import, into
``$XDG_CACHE_HOME/repro/kernels`` (default ``~/.cache/repro/kernels``),
or into a per-process temporary directory when that is not writable.
The library's file name is keyed by the source, the flags and the
machine, so an edited source or another architecture never loads a stale
build.  A build is published with ``os.replace`` and then its sha256
sidecar; a library that does not match its sidecar (truncated, empty) is
rebuilt, never loaded, because loading a truncated shared object kills
the process with SIGBUS.  Builds into one cache directory hold an
exclusive lock on it, so processes that start cold together compile each
library once.  Without a compiler, or when the build or the load fails,
:func:`load` returns ``None`` and the caller runs its Python twin.
"""

from __future__ import annotations

import contextlib
import ctypes
import fcntl
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from collections.abc import Iterator, Sequence
from pathlib import Path
from typing import Any

from repro.obs import get_recorder

__all__ = ["find_compiler", "intact", "load"]

# No -ffast-math or -march=native: a kernel must round exactly as Python does.
_FLAGS = ("-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")


def find_compiler() -> str | None:
    return shutil.which("cc") or shutil.which("gcc")


def load(
    source: Path,
    symbol: str,
    argtypes: Sequence[type[ctypes._SimpleCData[Any]]],
    span: str,
) -> ctypes._NamedFuncPointer | None:
    """Load ``symbol`` from ``source``'s library, building it first if needed.

    ``span`` names the build's trace span.  Returns ``None`` when there is
    no compiler or the build or the load fails.
    """
    key = hashlib.sha256(
        b"\0".join([source.read_bytes(), " ".join(_FLAGS).encode(), platform.machine().encode()])
    ).hexdigest()
    name = f"{source.stem}-{key[:20]}.so"
    try:
        return _load(_cache_dir() / name, source, symbol, argtypes, span)
    except OSError:
        pass
    try:
        # The cache is not writable: build for this process only.  A loaded
        # library outlives its deleted file.
        with tempfile.TemporaryDirectory(
            prefix="repro-kernels-", ignore_cleanup_errors=True
        ) as private:
            return _load(Path(private) / name, source, symbol, argtypes, span)
    except OSError:
        return None


def intact(library: Path) -> bool:
    """Whether ``library`` exists and matches its sha256 sidecar."""
    try:
        expected = _sidecar(library).read_text()
        return hashlib.sha256(library.read_bytes()).hexdigest() == expected
    except OSError:
        return False


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro/kernels``, or ``~/.cache/repro/kernels``."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "repro" / "kernels"


def _load(
    library: Path,
    source: Path,
    symbol: str,
    argtypes: Sequence[type[ctypes._SimpleCData[Any]]],
    span: str,
) -> ctypes._NamedFuncPointer | None:
    """Load ``library``, building it first unless an intact copy is there.

    Raises ``OSError`` when the directory is not writable or the load
    fails; returns ``None`` when there is no compiler or the compile fails.
    """
    if not intact(library):
        found = find_compiler()
        if found is None:
            return None
        library.parent.mkdir(parents=True, exist_ok=True)
        with _locked(library.parent):
            # Another process may have published it while this one waited.
            if not intact(library):
                try:
                    _build(found, source, library, span)
                except subprocess.SubprocessError:
                    return None
    function = ctypes.CDLL(str(library))[symbol]
    function.argtypes = list(argtypes)
    function.restype = None
    return function


@contextlib.contextmanager
def _locked(directory: Path) -> Iterator[None]:
    """Hold an exclusive ``flock`` on ``directory`` itself (no lock file)."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


def _sidecar(library: Path) -> Path:
    return library.with_name(library.name + ".sha256")


def _build(compiler: str, source: Path, library: Path, span: str) -> None:
    """Compile ``source`` and publish it, then its sidecar, with ``os.replace``."""
    with tempfile.TemporaryDirectory(prefix=".build-", dir=library.parent) as scratch:
        built = Path(scratch) / library.name
        with get_recorder().span(span, compiler=compiler):
            subprocess.run(
                [compiler, *_FLAGS, "-o", str(built), str(source)],
                check=True,
                capture_output=True,
                timeout=300,
            )
        data = built.read_bytes()
    _publish(library, data)
    _publish(_sidecar(library), hashlib.sha256(data).hexdigest().encode())


def _publish(path: Path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path`` and move it into place."""
    fd, temp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise

"""Native build of the generated RK4 kernel.

``load_rk4`` compiles the C form of a kernel from ``poly`` with the system C
compiler (``cc`` on ``PATH``), caches the shared library per user, and loads
it with ``ctypes``.  Whenever it cannot do so safely it returns None and the
caller keeps the Python kernel, which computes bit-identical results.

* Flags: ``-O2 -ffp-contract=off``.  Without fused multiply-adds and without
  ``-ffast-math`` every C operation rounds exactly like the Python float
  operation it mirrors.
* Cache: ``<tempdir>/nambu_dyn-<uid>/rk4-<crc32>-<len>.so``, keyed by the C
  source, which starts with a comment naming the flags.  The directory is used only if it is a real directory owned by this
  user that nobody else can write to.  A library is built under a fresh name
  and published with ``os.replace``, so readers never see a partial file.
* Identity: each library embeds its kernel source as ``rk4_src``.  A cached
  library whose embedded source differs (a key collision, a stale file) is
  rebuilt rather than used.  A library this process has loaded is reused
  for its source: ``dlopen`` of a path it has opened before returns that
  mapping, even after the file was replaced, so it cannot load the rebuild.

``zlib`` and ``ctypes`` are already loaded by numpy; ``hashlib`` is avoided
because it loads OpenSSL, and ``subprocess`` is imported only to build.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import stat
import tempfile
import zlib
from typing import Callable

__all__ = ["load_rk4", "cache_dir", "check_step_count", "LONG_MAX"]

CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

# The kernel takes its step count as a C ``long``; ctypes would silently wrap
# a larger one, and the kernel would run a different number of steps.
LONG_MAX = 2 ** (8 * ctypes.sizeof(ctypes.c_long) - 1) - 1

# Kernel source -> the library loaded for it in this process.
_loaded: dict[str, ctypes.CDLL] = {}


def cache_dir() -> str:
    """Per-user directory holding the compiled kernels."""
    return os.path.join(tempfile.gettempdir(), f"nambu_dyn-{os.getuid()}")


def _trusted_cache() -> str | None:
    """``cache_dir()``, created if missing, or None if others could write it."""
    if not hasattr(os, "getuid"):
        return None
    path = cache_dir()
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.lstat(path)
    except OSError:
        return None
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid():
        return None
    if st.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        return None
    return path


def _c_string(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _compile(source: str, out: str) -> bool:
    """Build ``source`` into the shared library ``out``; False on failure."""
    cc = shutil.which("cc")
    if cc is None:
        return False
    import subprocess

    unit = f"{source}\nconst char rk4_src[] = {_c_string(source)};\n"
    try:
        subprocess.run(
            [cc, *CFLAGS, "-x", "c", "-", "-o", out],
            input=unit.encode(),
            capture_output=True,
            check=True,
            timeout=120,
        )
    except (OSError, subprocess.SubprocessError):
        return False
    return True


def _open(path: str, source: str):
    """The library at ``path`` if it was built from ``source``, else None."""
    try:
        lib = ctypes.CDLL(path)
        embedded = ctypes.string_at(ctypes.addressof(ctypes.c_char.in_dll(lib, "rk4_src")))
    except (OSError, ValueError):
        return None
    return lib if embedded == source.encode() else None


def _build(directory: str, source: str, path: str):
    """Compile into a fresh file, check it, then publish it at ``path``."""
    fd, tmp = tempfile.mkstemp(prefix="rk4-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        lib = _open(tmp, source) if _compile(source, tmp) else None
        if lib is not None:
            os.replace(tmp, path)
        return lib
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load(source: str):
    """The cached library for ``source``, built first if missing or stale."""
    directory = _trusted_cache()
    if directory is None:
        return None
    data = source.encode()
    path = os.path.join(directory, f"rk4-{zlib.crc32(data):08x}-{len(data)}.so")
    lib = _open(path, source)
    if lib is None:
        try:
            lib = _build(directory, source, path)
        except OSError:
            return None
    return lib


def check_step_count(n) -> None:
    """Reject an RK4 step count outside 0..LONG_MAX, the range of the
    kernel's C ``long``; both kernels call this."""
    if not 0 <= n <= LONG_MAX:
        raise ValueError(f"rk4 step count {n!r} is outside 0..{LONG_MAX} (a C long)")


def load_rk4(source: str, dim: int) -> Callable | None:
    """Native ``rk4(y, dt, n, below) -> (tuple, taken)`` for the C kernel
    ``source``, which defines ``long rk4(double *y, double dt, long n, double
    below)`` over ``dim`` doubles (``poly._rk4_c``).  Returns None when no
    trusted cache, compiler or loadable library is available.
    """
    source = f"/* cc {' '.join(CFLAGS)} */\n{source}"
    lib = _loaded.get(source) or _load(source)
    if lib is None:
        return None
    _loaded[source] = lib
    kernel = lib.rk4
    double = ctypes.c_double
    kernel.argtypes = (ctypes.POINTER(double), double, ctypes.c_long, double)
    kernel.restype = ctypes.c_long
    State = double * dim

    def rk4(y, dt, n, below):
        if len(y) != dim:
            raise ValueError(f"rk4 kernel needs a state of length {dim}, got {len(y)}")
        check_step_count(n)
        buf = State(*y)
        taken = kernel(buf, dt, n, below)
        return tuple(buf[:]), taken

    rk4.native = True
    return rk4

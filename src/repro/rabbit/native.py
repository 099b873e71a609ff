"""Build and load the C aggregation kernel (``fold_kernel.c``).

The ``engine="fast"`` sequential sweep runs its inner loop in C when a
compiler is available: :func:`load_kernel` compiles ``fold_kernel.c``
once per machine into a user cache directory and loads it through
:mod:`ctypes`.  Nothing is installed and no option selects it — when
anything on the way fails (no compiler, a compile error, an unwritable
cache, a library that will not load), :func:`load_kernel` returns
``None`` and :mod:`repro.rabbit.fastseq` runs its Python loop, which
gives the same dendrogram bit for bit.

Cache layout: ``$XDG_CACHE_HOME/repro/native`` (``~/.cache`` when the
variable is unset) holds ``fold_kernel-<key>-<digest>.so``, where the
key hashes the C source, the flags and the compiler's identity
(resolved path, size, mtime), and the digest hashes the library's own
bytes.  A warm load spawns no process: it hashes and maps a file.  A
build compiles in a private temporary directory and installs the
library with an atomic replace, so concurrent builders each install a
complete file.
A library whose bytes no longer match its digest (truncated or
overwritten in place) is deleted and rebuilt, never mapped: mapping a
truncated library kills the process with SIGBUS.

Flags: ``-O2 -fPIC -shared -ffp-contract=off``.  Contraction is off so
the compiler never fuses ``w * inv_2m - d * penalty`` into an FMA,
which rounds once instead of twice; ``-ffast-math`` and
``-march=native`` are never used (reassociation, and a library tied to
one CPU in a shared cache).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

from repro.ioutil import atomic_write_bytes
from repro.obs.trace import span

__all__ = ["CFLAGS", "SOURCE", "cache_dir", "compile_kernel", "load_kernel"]

#: The kernel's C source, shipped next to this module.
SOURCE = Path(__file__).with_name("fold_kernel.c")

#: Compiler flags (see the module docstring for why each is there).
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_ptr = ctypes.c_void_p
_i64 = ctypes.c_int64
_f64 = ctypes.c_double
_SWEEP_ARGTYPES = (
    [_ptr, _ptr, _ptr, _ptr, _i64, _i64]  # indptr indices weights order i j
    + [_ptr] * 4  # dest child sibling comm_deg
    + [_ptr] * 4 + [_i64]  # aoff alen keys ws cap
    + [_ptr] * 3  # pos toplevel vertex_work
    + [_f64, _f64, _ptr]  # two_m merge_threshold ctr
)

_UNSET = object()
_kernel: object = _UNSET


def cache_dir() -> Path:
    """Where built kernels are kept."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "repro" / "native"


def _compiler() -> tuple[str, bytes] | None:
    """The C compiler on ``PATH`` and its identity: resolved path, size
    and mtime, which change whenever the compiler is upgraded.  Asking
    ``cc --version`` instead would spawn a process on every load, and a
    child process inherits this process's RSS high-water mark, which
    then shows up twice in any children-inclusive peak-RSS figure."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return None
    try:
        real = os.path.realpath(cc)
        st = os.stat(real)
    except OSError:
        return None
    return cc, f"{real}\0{st.st_size}\0{st.st_mtime_ns}".encode()


def _open(path: Path):
    """The sweep entry point of the library at *path*, or ``None`` if it
    does not load."""
    try:
        fn = ctypes.CDLL(str(path)).rabbit_fold_sweep
    except (OSError, AttributeError):
        return None
    fn.restype = _i64
    fn.argtypes = _SWEEP_ARGTYPES
    return fn


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:20]


def _intact(path: Path) -> bool:
    """Whether the library still has the bytes its name records (a
    truncated library would crash the process when mapped)."""
    try:
        return _digest(path.read_bytes()) == path.stem.rsplit("-", 1)[-1]
    except OSError:
        return False


def _build(cc: str, directory: Path, stem: str) -> Path | None:
    """Compile :data:`SOURCE` and install it atomically in *directory*
    as ``<stem>-<digest of the library>.so``."""
    try:
        with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
            out = Path(tmp) / "kernel.so"
            subprocess.run(
                [cc, *CFLAGS, "-o", str(out), str(SOURCE)],
                capture_output=True, check=True, timeout=300,
            )
            data = out.read_bytes()
        target = directory / f"{stem}-{_digest(data)}.so"
        atomic_write_bytes(target, data)
    except (OSError, subprocess.SubprocessError):
        return None
    return target


def compile_kernel(directory: Path):
    """Load the kernel cached under *directory*, building it there first
    if it is missing or damaged; ``None`` if that fails."""
    found = _compiler()
    if found is None:
        return None
    cc, identity = found
    try:
        source = SOURCE.read_bytes()
    except OSError:
        return None
    stem = "fold_kernel-" + _digest(
        source + "\0".join(CFLAGS).encode() + b"\0" + identity
    )
    directory = Path(directory)
    for path in sorted(directory.glob(f"{stem}-*.so")):
        if _intact(path):
            fn = _open(path)
            if fn is not None:
                return fn
        with contextlib.suppress(OSError):
            path.unlink(missing_ok=True)
    target = _build(cc, directory, stem)
    return None if target is None else _open(target)


def load_kernel():
    """The process-wide kernel (built on first use), or ``None`` when the
    Python loop has to run instead."""
    global _kernel
    if _kernel is _UNSET:
        with span("rabbit.native.build") as s:
            try:
                directory = cache_dir()
            except RuntimeError:  # no home directory to cache under
                directory = None
            _kernel = None if directory is None else compile_kernel(directory)
            s.set(loaded=_kernel is not None)
    return _kernel

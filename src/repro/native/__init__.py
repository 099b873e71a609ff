"""Build and load the library of C kernels.

Two sources compile into one shared library:

* ``fold_kernel.c`` — the sequential aggregation sweep, the inner loop
  of :mod:`repro.rabbit.fastseq`'s ``engine="fast"`` path;
* ``analysis_kernels.c`` — the CSR SpMV of :func:`repro.analysis.spmv`,
  the k-core peel of :func:`repro.analysis.core_numbers` and the Tarjan
  SCC of :func:`repro.analysis.strongly_connected_components`.

:func:`load_kernel` compiles them once per machine into a user cache
directory and loads the library through :mod:`ctypes`.  Nothing is
installed and no option selects it — when anything on the way fails (no
compiler, a compile error, an unwritable cache, a library that will not
load), :func:`load_kernel` returns ``None`` and every caller runs its
Python or numpy fallback, which gives the same result bit for bit.

Cache layout: ``$XDG_CACHE_HOME/repro/native`` (``~/.cache`` when the
variable is unset) holds ``kernels-<key>-<digest>.so``, where the key
hashes every C source, the flags and the compiler's identity (resolved
path, size, mtime), and the digest hashes the library's own bytes.  A
warm load spawns no process: it hashes and maps a file.  A build
compiles in a private temporary directory and installs the library with
an atomic replace, so concurrent builders each install a complete file.
A library whose bytes no longer match its digest (truncated or
overwritten in place) is deleted and rebuilt, never mapped: mapping a
truncated library kills the process with SIGBUS.

Flags: ``-O2 -fPIC -shared -ffp-contract=off``.  Contraction is off so
the compiler never fuses ``w * inv_2m - d * penalty`` or
``acc += w * x`` into an FMA, which rounds once instead of twice;
``-ffast-math`` and ``-march=native`` are never used (reassociation,
and a library tied to one CPU in a shared cache).
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

__all__ = ["CFLAGS", "SOURCES", "cache_dir", "compile_kernel", "load_kernel"]

#: The C sources, shipped next to this module, in compile order.
SOURCES = tuple(
    Path(__file__).with_name(name)
    for name in ("fold_kernel.c", "analysis_kernels.c")
)

#: Compiler flags (see the module docstring for why each is there).
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_ptr = ctypes.c_void_p
_i64 = ctypes.c_int64
_f64 = ctypes.c_double
#: Each entry point's (restype, argtypes).
_SIGNATURES = {
    "rabbit_fold_sweep": (_i64, (
        [_ptr, _ptr, _ptr, _ptr, _i64, _i64]  # indptr indices weights order i j
        + [_ptr] * 4  # dest child sibling comm_deg
        + [_ptr] * 4 + [_i64]  # aoff alen keys ws cap
        + [_ptr] * 3  # pos toplevel vertex_work
        + [_f64, _f64, _ptr]  # two_m merge_threshold ctr
    )),
    # n indptr indices weights(NULL: unit) x y
    "repro_spmv": (None, [_i64] + [_ptr] * 5),
    # n indptr indices core scratch
    "repro_core_numbers": (None, [_i64] + [_ptr] * 4),
    # n indptr indices labels scratch -> number of components
    "repro_scc": (_i64, [_i64] + [_ptr] * 4),
}

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
    """The library at *path* with every entry point's signature set, or
    ``None`` if it does not load or lacks one of them."""
    try:
        lib = ctypes.CDLL(str(path))
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
    except (OSError, AttributeError):
        return None
    return lib


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
    """Compile :data:`SOURCES` into one library and install it atomically
    in *directory* as ``<stem>-<digest of the library>.so``."""
    try:
        with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
            out = Path(tmp) / "kernel.so"
            subprocess.run(
                [cc, *CFLAGS, "-o", str(out), *map(str, SOURCES)],
                capture_output=True, check=True, timeout=300,
            )
            data = out.read_bytes()
        target = directory / f"{stem}-{_digest(data)}.so"
        atomic_write_bytes(target, data)
    except (OSError, subprocess.SubprocessError):
        return None
    return target


def compile_kernel(directory: Path):
    """Load the library cached under *directory*, building it there first
    if it is missing or damaged; ``None`` if that fails."""
    found = _compiler()
    if found is None:
        return None
    cc, identity = found
    try:
        sources = b"\0".join(path.read_bytes() for path in SOURCES)
    except OSError:
        return None
    stem = "kernels-" + _digest(
        sources + b"\0" + "\0".join(CFLAGS).encode() + b"\0" + identity
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
    """The process-wide library (built on first use), or ``None`` when the
    Python fallbacks have to run instead."""
    global _kernel
    if _kernel is _UNSET:
        with span("native.build") as s:
            try:
                directory = cache_dir()
            except RuntimeError:  # no home directory to cache under
                directory = None
            _kernel = None if directory is None else compile_kernel(directory)
            s.set(loaded=_kernel is not None)
    return _kernel

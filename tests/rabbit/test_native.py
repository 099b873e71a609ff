"""The C kernel's build, cache and fallback: whatever goes wrong on the
way to loading it, the sweep still returns the Python loop's result and
nothing raises."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graph.generators import rmat_graph
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.rabbit import fastseq, native, rabbit_order

SRC = Path(__file__).resolve().parents[2] / "src"

#: Reorders one graph and reports whether the kernel loaded.
SCRIPT = """
import json
from repro.graph.generators import rmat_graph
from repro.rabbit import rabbit_order
from repro.rabbit.native import load_kernel
perm = rabbit_order(rmat_graph(7, edge_factor=6, rng=3)).permutation
print(json.dumps({"native": load_kernel() is not None, "perm": perm.tolist()}))
"""

needs_compiler = pytest.mark.skipif(
    native.load_kernel() is None, reason="no working C compiler here"
)


@pytest.fixture(scope="module")
def python_perm() -> list[int]:
    """The Python loop's permutation of the script's graph."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fastseq, "load_kernel", lambda: None)
        return rabbit_order(rmat_graph(7, edge_factor=6, rng=3)).permutation.tolist()


def run_env(cache_home: Path, path: str | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["XDG_CACHE_HOME"] = str(cache_home)
    if path is not None:
        env["PATH"] = path
    return env


def start(env: dict[str, str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", SCRIPT],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def finish(proc: subprocess.Popen) -> dict:
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


def run(env: dict[str, str]) -> dict:
    return finish(start(env))


def built(cache_home: Path) -> list[Path]:
    return sorted((cache_home / "repro" / "native").glob("*"))


class TestFallback:
    def test_no_compiler_on_path(self, tmp_path, python_perm):
        empty_bin = tmp_path / "bin"
        empty_bin.mkdir()
        got = run(run_env(tmp_path / "cache", path=str(empty_bin)))
        assert got == {"native": False, "perm": python_perm}
        assert built(tmp_path / "cache") == []

    def test_unwritable_cache_dir(self, tmp_path, python_perm):
        # A regular file where the cache root should be: no directory can
        # be made under it, whoever runs the test.
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        got = run(run_env(blocker))
        assert got == {"native": False, "perm": python_perm}
        assert native.compile_kernel(blocker / "repro" / "native") is None

    @needs_compiler
    def test_compile_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(native, "CFLAGS", native.CFLAGS + ("-fno-such-flag",))
        assert native.compile_kernel(tmp_path) is None
        assert list(tmp_path.iterdir()) == []

    @needs_compiler
    def test_corrupt_cached_library_is_rebuilt(self, tmp_path, python_perm):
        cache = tmp_path / "cache"
        assert run(run_env(cache)) == {"native": True, "perm": python_perm}
        (lib,) = built(cache)
        lib.write_bytes(b"\x7fELF but not really a shared object")
        assert run(run_env(cache)) == {"native": True, "perm": python_perm}
        (again,) = built(cache)
        assert again == lib
        assert again.read_bytes().startswith(b"\x7fELF\x02")

    @needs_compiler
    def test_truncated_cached_library_is_rebuilt(self, tmp_path, python_perm):
        cache = tmp_path / "cache"
        run(run_env(cache))
        (lib,) = built(cache)
        data = lib.read_bytes()
        lib.write_bytes(data[: len(data) // 3])
        assert run(run_env(cache)) == {"native": True, "perm": python_perm}
        assert lib.read_bytes() == data

    @needs_compiler
    def test_two_processes_building_at_once(self, tmp_path, python_perm):
        cache = tmp_path / "cache"
        env = run_env(cache)
        procs = [start(env), start(env)]
        results = [finish(p) for p in procs]
        assert results == [{"native": True, "perm": python_perm}] * 2
        # One installed library, no temporary leftovers beside it.
        (lib,) = built(cache)
        assert lib.suffix == ".so"


class TestObservability:
    @needs_compiler
    def test_build_span_sits_outside_the_sweep(self, monkeypatch):
        monkeypatch.setattr(native, "_kernel", native._UNSET)
        g = rmat_graph(7, edge_factor=6, rng=1)
        with trace.capture() as cap:
            rabbit_order(g)
        (build,) = cap.find("rabbit.native.build")
        assert build.attrs["loaded"] is True
        (sweep,) = cap.find("rabbit.seq.aggregate")
        assert sweep.attrs["engine"] == "native"
        assert build not in list(sweep.walk())
        assert sweep.start >= build.end

    def test_span_and_counter_name_the_path(self, monkeypatch):
        monkeypatch.setattr(fastseq, "load_kernel", lambda: None)
        registry = get_registry()
        before = registry.counter("rabbit.seq.runs.fast").value
        with trace.capture() as cap:
            rabbit_order(rmat_graph(6, edge_factor=4, rng=2))
        (sweep,) = cap.find("rabbit.seq.aggregate")
        assert sweep.attrs["engine"] == "fast"
        assert registry.counter("rabbit.seq.runs.fast").value == before + 1

    @needs_compiler
    def test_cli_verbose_shows_the_kernel(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph import save_npz

        path = tmp_path / "g.npz"
        save_npz(rmat_graph(7, edge_factor=6, rng=3), path)
        assert main(["reorder", str(path), "-a", "Rabbit", "--verbose"]) == 0
        assert "engine=native" in capsys.readouterr().out


class TestKernelIdentity:
    @needs_compiler
    def test_warm_cache_reuses_the_library(self, tmp_path):
        native.compile_kernel(tmp_path)
        (lib,) = sorted(tmp_path.glob("*.so"))
        assert lib.name.startswith("fold_kernel-")
        mtime = lib.stat().st_mtime_ns
        assert native.compile_kernel(tmp_path) is not None
        assert sorted(tmp_path.glob("*.so")) == [lib]
        assert lib.stat().st_mtime_ns == mtime

    @needs_compiler
    def test_other_flags_build_under_another_key(self, tmp_path, monkeypatch):
        native.compile_kernel(tmp_path)
        monkeypatch.setattr(native, "CFLAGS", native.CFLAGS + ("-g0",))
        assert native.compile_kernel(tmp_path) is not None
        keys = {p.name.rsplit("-", 1)[0] for p in tmp_path.glob("*.so")}
        assert len(keys) == 2

    def test_flags_keep_ieee_semantics(self):
        assert "-ffp-contract=off" in native.CFLAGS
        assert not any(
            f.startswith(("-ffast-math", "-march", "-Ofast")) for f in native.CFLAGS
        )

"""Tests of the JIT benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest jitbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from jitbench import measure as measure_mod, pipeline  # noqa: E402
from jitbench.measure import measure, measure_traced  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Vertex counts small enough for a few-second test.
TINY = {"web-pagerank": 1024, "hub-procs": 512, "road-traversal": 1024}


@pytest.fixture(autouse=True)
def _quick_setup(monkeypatch):
    """Set up the minimum number of times rather than for seconds."""
    monkeypatch.setattr(measure_mod, "SETUP_SECONDS", 0.0)


def test_spec_names_the_runner_workloads():
    from jitbench.run import WORKLOAD_NAMES

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    assert set(WORKLOAD_NAMES) == set(pipeline.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_untraced_emits_every_end_to_end_metric(name):
    outcome, _ = measure(pipeline.WORKLOADS[name], seed=3, seconds=0.01,
                         n=TINY[name])
    assert outcome.correct, outcome.problems
    assert {k: u for k, (_, u) in outcome.metrics.items()} == END_TO_END
    assert all(np.isfinite(v) and v > 0 for v, _ in outcome.metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_traced_emits_every_per_layer_metric(name):
    outcome, _ = measure_traced(pipeline.WORKLOADS[name], seed=3,
                                seconds=0.01, n=TINY[name])
    assert outcome.correct, outcome.problems
    assert {k: u for k, (_, u) in outcome.metrics.items()} == PER_LAYER
    assert outcome.metrics["obs.self_coverage"][0] > 0.9


def test_seed_fixes_the_inputs():
    wl = pipeline.WORKLOADS["web-pagerank"]
    a, b = pipeline.setup(wl, 7, 512), pipeline.setup(wl, 7, 512)
    c = pipeline.setup(wl, 8, 512)
    assert np.array_equal(a.graph.indices, b.graph.indices)
    assert a.source == b.source
    assert not np.array_equal(a.graph.indices, c.graph.indices)


def test_a_slower_analysis_moves_its_gates():
    """Slowing the analysis on both orders must show in the gated seconds,
    not cancel in a ratio."""
    wl = pipeline.WORKLOADS["web-pagerank"]

    def slow_pagerank(graph, source):
        time.sleep(0.1)
        return pipeline.analyze_pagerank(graph, source)

    fast, _ = measure(wl, seed=3, seconds=0.01, n=1024)
    slow, _ = measure(replace(wl, analyze=slow_pagerank), seed=3,
                      seconds=0.01, n=1024)
    assert slow.correct, slow.problems
    for name in ("baseline_s", "analysis_s", "jit_s"):
        assert slow.metrics[name][0] > fast.metrics[name][0] + 0.03, name


def _swap_two(graph, perm):
    """A faulty permute: π with the entries of a lowest- and a
    highest-degree vertex swapped."""
    deg = graph.degrees()
    lo, hi = int(np.argmin(deg)), int(np.argmax(deg))
    bad = perm.copy()
    bad[[lo, hi]] = bad[[hi, lo]]
    return graph.permute(bad)


@pytest.mark.parametrize("name", ["web-pagerank", "road-traversal"])
def test_negative_control_swapped_pi_fails_the_check(name, monkeypatch):
    monkeypatch.setattr(pipeline, "_permute", _swap_two)
    outcome, _ = measure(pipeline.WORKLOADS[name], seed=3, seconds=0.01,
                         n=TINY[name])
    assert outcome.attempted >= 1
    assert outcome.failed == outcome.attempted
    assert not outcome.correct
    assert any("through pi" in p for p in outcome.problems)


def test_check_rejects_a_non_bijection():
    wl = pipeline.WORKLOADS["web-pagerank"]
    inputs = pipeline.setup(wl, 3, 256)
    _, base = pipeline.run_baseline(wl, inputs)
    run = pipeline.run_jit(wl, inputs)
    bad = run.result.permutation.copy()
    bad[0] = bad[1]
    broken = replace(run, result=replace(run.result, permutation=bad))
    assert pipeline.check_run(wl, base, run) == []
    assert "not a permutation" in pipeline.check_run(wl, base, broken)[0]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "jitbench", tmp_path / "jitbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "web-pagerank",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

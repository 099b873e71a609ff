"""Supervised process pool: round-trips, loss, quarantine, budgets.

These tests drive :class:`repro.parallel.procpool.ProcessPool` with a
trivial arithmetic worker so every supervision path (dead worker, hung
worker, erroring task, poison task, exhausted respawn budget) is
exercised without the detection engine on top.  Timings stay generous
on the slow side (heartbeat timeouts) and tight on the fast side (poll
intervals) because CI runs single-core.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ProcPoolError
from repro.obs.metrics import counter_delta, get_registry
from repro.parallel.procpool import (
    PoolChaosPlan,
    PoolConfig,
    ProcessPool,
    ShmArray,
)


def echo_factory(init, beat):
    def run(payload):
        beat()
        if payload.get("raise"):
            raise ValueError("task asked to fail")
        if payload.get("die"):
            os.kill(os.getpid(), signal.SIGKILL)
        if payload.get("sleep"):
            time.sleep(payload["sleep"])  # beat-less: reads as hung
        return payload["x"] * 2
    return run


def fallback(payload):
    return payload["x"] * 2


CFG = dict(num_workers=2, poll_interval_s=0.01, heartbeat_timeout_s=10.0)


class TestShmArray:
    def test_create_attach_roundtrip_and_destroy(self):
        a = ShmArray.create(64, np.int64)
        a.array[:] = np.arange(64)
        b = ShmArray.attach(a.spec)
        assert np.array_equal(b.array, np.arange(64))
        b.close()
        a.destroy()

    def test_spec_is_picklable_metadata(self):
        a = ShmArray.create(8, np.float64)
        spec = a.spec
        assert spec.shape == (8,) and spec.dtype == "float64"
        a.destroy()


class TestPoolConfig:
    def test_rejects_zero_workers(self):
        with pytest.raises(ProcPoolError, match="num_workers"):
            PoolConfig(num_workers=0)

    def test_rejects_bad_rates(self):
        with pytest.raises(ProcPoolError):
            PoolChaosPlan(kill_rate=1.5)


class TestProcessPool:
    def test_round_trip_in_payload_order(self):
        with ProcessPool(echo_factory, config=PoolConfig(**CFG)) as pool:
            for r in range(3):
                out = pool.run_round(
                    [{"x": i + r} for i in range(7)], round_idx=r
                )
                assert out == [(i + r) * 2 for i in range(7)]

    def test_no_spurious_losses_on_clean_rounds(self):
        registry = get_registry()
        before = registry.counter_values("procpool")
        with ProcessPool(echo_factory, config=PoolConfig(**CFG)) as pool:
            pool.run_round([{"x": i} for i in range(10)])
        delta = counter_delta(before, registry.counter_values("procpool"))
        assert delta.get("procpool.workers.spawned") == 2
        assert "procpool.workers.lost" not in delta

    def test_killed_worker_is_reclaimed_and_replaced(self):
        registry = get_registry()
        before = registry.counter_values("procpool")
        payloads = [{"x": i, "die": i == 3} for i in range(8)]
        with ProcessPool(
            echo_factory, config=PoolConfig(**CFG), fallback=fallback
        ) as pool:
            out = pool.run_round(payloads)
        assert out == [i * 2 for i in range(8)]
        delta = counter_delta(before, registry.counter_values("procpool"))
        # the poison task killed two workers, then ran via the fallback
        assert delta.get("procpool.workers.lost") == 2
        assert delta.get("procpool.leases.reclaimed") == 2
        assert delta.get("procpool.tasks.quarantined") == 1
        assert delta.get("procpool.fallback.tasks") == 1
        assert delta.get("procpool.workers.spawned") == 4  # 2 + 2 respawns

    def test_hung_worker_is_detected_and_lease_rescheduled(self):
        registry = get_registry()
        before = registry.counter_values("procpool")
        cfg = PoolConfig(
            num_workers=1, poll_interval_s=0.01, heartbeat_timeout_s=0.3
        )
        # one wedged task among quick ones; the replacement worker (or
        # the fallback, if the task wedges its second host) finishes it
        payloads = [{"x": 0, "sleep": 1.2}, {"x": 1}, {"x": 2}]
        with ProcessPool(echo_factory, config=cfg, fallback=fallback) as pool:
            out = pool.run_round(payloads)
        assert out == [0, 2, 4]
        delta = counter_delta(before, registry.counter_values("procpool"))
        assert delta.get("procpool.workers.lost", 0) >= 1
        assert delta.get("procpool.leases.reclaimed", 0) >= 1

    def test_persistent_error_routes_to_fallback(self):
        registry = get_registry()
        before = registry.counter_values("procpool")
        cfg = PoolConfig(max_task_retries=1, **CFG)
        with ProcessPool(echo_factory, config=cfg, fallback=fallback) as pool:
            out = pool.run_round([{"x": 5, "raise": True}, {"x": 6}])
        assert out == [10, 12]
        delta = counter_delta(before, registry.counter_values("procpool"))
        assert delta.get("procpool.tasks.retried") == 1
        assert delta.get("procpool.fallback.tasks") == 1

    def test_error_without_fallback_raises(self):
        cfg = PoolConfig(max_task_retries=0, **CFG)
        with pytest.raises(ProcPoolError, match="no\\s+sequential fallback"):
            with ProcessPool(echo_factory, config=cfg) as pool:
                pool.run_round([{"x": 1, "raise": True}])

    def test_exhausted_respawn_budget_finishes_via_fallback(self):
        cfg = PoolConfig(
            num_workers=1,
            poll_interval_s=0.01,
            heartbeat_timeout_s=10.0,
            max_respawns=1,
            poison_deaths=5,  # keep the killer task non-poison
        )
        payloads = [{"x": i, "die": True} for i in range(3)]
        with ProcessPool(echo_factory, config=cfg, fallback=fallback) as pool:
            out = pool.run_round(payloads)
        assert out == [0, 2, 4]

    def test_chaos_kill_campaign_is_absorbed(self):
        registry = get_registry()
        before = registry.counter_values("procpool")
        chaos = PoolChaosPlan(seed=3, kill_rate=1.0, max_kills=2)
        with ProcessPool(
            echo_factory,
            config=PoolConfig(**CFG),
            fallback=fallback,
            chaos=chaos,
        ) as pool:
            for r in range(3):
                out = pool.run_round(
                    [{"x": i} for i in range(6)], round_idx=r
                )
                assert out == [i * 2 for i in range(6)]
        delta = counter_delta(before, registry.counter_values("procpool"))
        assert delta.get("procpool.chaos.kills") == 2
        assert delta.get("procpool.workers.lost", 0) >= 2

    def test_run_round_after_shutdown_raises(self):
        pool = ProcessPool(echo_factory, config=PoolConfig(**CFG))
        with pool:
            pool.run_round([{"x": 1}])
        with pytest.raises(ProcPoolError, match="shut down"):
            pool.run_round([{"x": 2}])

    def test_empty_round_is_a_noop(self):
        with ProcessPool(echo_factory, config=PoolConfig(**CFG)) as pool:
            assert pool.run_round([]) == []


_ORPHAN_PARENT = """
import time
from repro.parallel.procpool import PoolConfig, ProcessPool

def factory(init, beat):
    return lambda payload: payload

pool = ProcessPool(factory, config=PoolConfig(num_workers=2))
pool.start()
assert pool.run_round([1, 2, 3]) == [1, 2, 3]
print(" ".join(str(pid) for pid in pool.worker_pids), flush=True)
time.sleep(120)
"""


def _alive(pid: int) -> bool:
    """True while *pid* runs; an unreaped zombie counts as gone."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    state = next(
        line for line in status.splitlines() if line.startswith("State:")
    )
    return "Z" not in state.split()[1]


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="needs /proc"
)
class TestOrphanedWorkers:
    def test_workers_exit_when_parent_is_sigkilled(self):
        """A SIGKILLed parent runs no cleanup and its pipes stay open in
        the forked siblings, so the workers must notice re-parenting."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        parent = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_PARENT],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select([parent.stdout], [], [], 60.0)
            assert ready, "pool parent never reported its workers"
            pids = [int(p) for p in parent.stdout.readline().split()]
            assert len(pids) == 2 and all(_alive(p) for p in pids)
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        deadline = time.monotonic() + 2.0
        while any(_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [p for p in pids if _alive(p)]
        for pid in survivors:  # do not leak them into later tests
            os.kill(pid, signal.SIGKILL)
        assert survivors == []

"""Fault-tolerant shared-memory process pool.

This is the substrate of the ``par-procs`` ladder rung: a pool of worker
*processes* operating on ``multiprocessing.shared_memory``-backed numpy
arrays, supervised so that real process failure modes — an OOM-killed
worker, a SIGKILL injected by the chaos harness, a wedged child — cannot
lose work:

* **heartbeats** — each worker owns a dedicated beat pipe and beats while
  idle, before and after every task, and (via the ``beat`` callback given
  to the worker factory) inside long tasks.  A worker whose beats stop
  for ``heartbeat_timeout_s`` is *hung*; one whose process exits is
  *dead*; both are declared lost, SIGKILLed, and reaped.
* **leases** — a dispatched task is a lease owned by one worker.  When
  the owner is lost, the lease is reclaimed and the task rescheduled
  with capped exponential backoff under seeded jitter (the
  :func:`~repro.resilience.policy.backoff_delays` conventions).
* **poison quarantine** — a task that kills ``poison_deaths`` workers is
  quarantined: routed to the caller's in-process sequential ``fallback``
  instead of being retried forever.
* **respawn budget** — lost workers are replaced up to ``max_respawns``
  times; when the budget is exhausted and no workers remain, the rest of
  the round runs through the fallback (never losing work) or raises
  :class:`~repro.errors.ProcPoolError` if there is none.
* **graceful shutdown** — ``shutdown(drain=True)`` gives in-flight
  leases one grace window to report before workers are told to exit.

Workers must treat the shared arrays as **read-only**: the parent is the
sole writer, which is what makes worker death harmless (a dead reader
cannot corrupt state) and results independent of which worker ran which
lease.  Workers never touch the parent's metrics registry or heartbeat
runtime — their only channels are the three pipes.

Worker-lifecycle counters (``procpool.workers.spawned`` / ``.lost``,
``procpool.leases.reclaimed``, ``procpool.tasks.quarantined``, plus
retry/fallback/chaos tallies) are emitted through
:mod:`repro.obs.metrics` by the parent.  Worker pids are registered with
:func:`repro.resilience.supervisor.register_child_pids` so the run
supervisor's RSS budget covers the whole worker tree.
"""

from __future__ import annotations

# repro: ignore-file[wall-clock-in-result-path]  supervision infrastructure:
# every clock read here feeds heartbeat/lease/backoff deadlines, never a
# result — round results are bit-identical regardless of timing.

import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection, get_context, resource_tracker, shared_memory
from typing import Any, Callable

import numpy as np

from repro.errors import ProcPoolError
from repro.obs.metrics import get_registry
from repro.resilience.policy import backoff_delays, derive_seed
from repro.resilience.runtime import heartbeat
from repro.resilience.supervisor import register_child_pids, unregister_child_pids

__all__ = [
    "PoolChaosPlan",
    "PoolConfig",
    "ProcessPool",
    "ShmArray",
    "ShmSpec",
]


# ---------------------------------------------------------------------------
# Shared-memory ndarrays.


@dataclass(frozen=True)
class ShmSpec:
    """Picklable address of a shared-memory ndarray (send it to workers
    in a task payload; they attach by name)."""

    name: str
    shape: tuple
    dtype: str


#: Whether this process shares a resource tracker started elsewhere (the
#: creating parent, under fork) or owns a fresh one (a spawned child).
#: Decided once, at the first attach — see :meth:`ShmArray.attach`.
_TRACKER_SHARED: bool | None = None


def _tracker_is_shared() -> bool:
    global _TRACKER_SHARED
    if _TRACKER_SHARED is None:
        _TRACKER_SHARED = (
            getattr(resource_tracker._resource_tracker, "_fd", None)
            is not None
        )
    return _TRACKER_SHARED


class ShmArray:
    """A 1-D numpy array backed by a ``SharedMemory`` segment.

    Keep the :class:`ShmArray` alive as long as ``.array`` is in use:
    dropping it lets ``SharedMemory.__del__`` unmap the segment out from
    under the view, and the next read is a segfault, not an exception.
    """

    __slots__ = ("shm", "array", "owner")

    def __init__(self, shm, array, owner: bool):
        self.shm = shm
        self.array = array
        self.owner = owner

    @classmethod
    def create(cls, length: int, dtype) -> "ShmArray":
        dt = np.dtype(dtype)
        size = max(1, int(length) * dt.itemsize)
        shm = shared_memory.SharedMemory(create=True, size=size)
        array = np.ndarray((int(length),), dtype=dt, buffer=shm.buf)
        return cls(shm, array, owner=True)

    @classmethod
    def attach(cls, spec: ShmSpec) -> "ShmArray":
        shared_tracker = _tracker_is_shared()
        shm = shared_memory.SharedMemory(name=spec.name)
        if not shared_tracker:
            # A spawned child owns a fresh resource tracker which would
            # unlink this segment when the child exits; only the creator
            # may destroy it (Python 3.13's track=False, spelled for
            # 3.11).  Under fork the tracker is *shared* with the parent
            # and attach-registration is a no-op set re-add — there,
            # unregistering would strip the creator's registration.
            resource_tracker.unregister(shm._name, "shared_memory")
        array = np.ndarray(
            tuple(spec.shape), dtype=np.dtype(spec.dtype), buffer=shm.buf
        )
        return cls(shm, array, owner=False)

    @property
    def spec(self) -> ShmSpec:
        return ShmSpec(
            self.shm.name, tuple(self.array.shape), str(self.array.dtype)
        )

    def close(self) -> None:
        """Unmap (all processes); the segment survives until destroyed."""
        self.array = None
        try:
            self.shm.close()
        except BufferError:  # a live view still exports the buffer
            pass

    def destroy(self) -> None:
        """Unmap and, if this process created the segment, unlink it."""
        owner = self.owner
        self.close()
        if owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass


# ---------------------------------------------------------------------------
# Configuration.


@dataclass(frozen=True)
class PoolConfig:
    """Supervision knobs of a :class:`ProcessPool`."""

    num_workers: int = 2
    #: a worker silent for this long is declared hung and killed
    heartbeat_timeout_s: float = 10.0
    #: supervision loop poll cadence
    poll_interval_s: float = 0.02
    #: reschedules of one task after worker-reported errors
    max_task_retries: int = 2
    #: worker deaths that mark a task poison (quarantined to the fallback)
    poison_deaths: int = 2
    #: replacement workers spawned over the pool's lifetime
    max_respawns: int = 8
    backoff_base_s: float = 0.01
    backoff_cap_s: float = 0.25
    #: base for the seeded backoff jitter (derive_seed(seed, round, task))
    seed: int = 0
    start_method: str = "fork"
    #: drain / join window during shutdown
    shutdown_grace_s: float = 2.0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ProcPoolError(
                f"pool num_workers must be >= 1, got {self.num_workers}"
            )
        if self.heartbeat_timeout_s <= 0 or self.poll_interval_s <= 0:
            raise ProcPoolError(
                "heartbeat_timeout_s and poll_interval_s must be positive"
            )
        if self.max_task_retries < 0 or self.max_respawns < 0:
            raise ProcPoolError("retry/respawn budgets must be >= 0")
        if self.poison_deaths < 1:
            raise ProcPoolError(
                f"poison_deaths must be >= 1, got {self.poison_deaths}"
            )
        if self.start_method not in ("fork", "spawn", "forkserver"):
            raise ProcPoolError(
                f"unknown start method {self.start_method!r}"
            )


@dataclass(frozen=True)
class PoolChaosPlan:
    """Seed-replayable worker-kill/hang campaign, applied by the *parent*
    during :meth:`ProcessPool.run_round` (per-round decisions come from
    ``derive_seed(seed, round_idx)``)."""

    seed: int = 0
    #: probability a round SIGKILLs one random busy worker
    kill_rate: float = 0.0
    #: probability a round wedges one task's worker (sleeps beat-less)
    hang_rate: float = 0.0
    #: how long a hung worker sleeps (choose > heartbeat_timeout_s)
    hang_s: float = 30.0
    max_kills: int = 1_000_000
    max_hangs: int = 1_000_000

    def __post_init__(self) -> None:
        for name in ("kill_rate", "hang_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ProcPoolError(f"{name} must be in [0, 1], got {rate}")
        if self.hang_s <= 0:
            raise ProcPoolError(f"hang_s must be positive, got {self.hang_s}")


# ---------------------------------------------------------------------------
# Worker side.


def _pool_worker_main(worker_factory, init_arg, task_r, result_w, beat_w):
    """Worker process entry: build the task function, then serve tasks.

    Runs in the child.  Must never touch the parent's metrics registry or
    resilience runtime (both were inherited across fork); the pipes are
    the only channels.

    A worker exits on its own once its parent is gone.  Pipe EOF/EPIPE
    cannot signal that: every later forked sibling inherits the parent's
    ends of this worker's pipes, so they stay open while any sibling
    lives.  The idle loop therefore watches for re-parenting instead.
    """
    parent = os.getppid()

    def beat() -> None:
        try:
            beat_w.send_bytes(b"b")
        except (BrokenPipeError, OSError):  # parent is gone
            os._exit(0)

    try:
        fn = worker_factory(init_arg, beat)
        result_w.send(("ready", os.getpid()))
        while True:
            if task_r.poll(0.2):
                msg = task_r.recv()
                if msg[0] == "shutdown":
                    result_w.send(("bye",))
                    return
                _, task_id, payload, hang_s = msg
                if hang_s > 0.0:
                    time.sleep(hang_s)  # injected wedge: no beats
                beat()
                try:
                    value = fn(payload)
                except Exception as exc:  # reported, retried by the parent
                    result_w.send(
                        ("err", task_id, f"{type(exc).__name__}: {exc}")
                    )
                else:
                    result_w.send(("ok", task_id, value))
                beat()
            elif os.getppid() != parent:  # orphaned: the parent died
                os._exit(0)
            else:
                beat()
    except (EOFError, BrokenPipeError, OSError, KeyboardInterrupt):
        os._exit(1)


# ---------------------------------------------------------------------------
# Parent side.


class _Task:
    __slots__ = (
        "index",
        "payload",
        "deaths",
        "retries",
        "ready_at",
        "hang_s",
        "done",
        "result",
    )

    def __init__(self, index: int, payload: Any):
        self.index = index
        self.payload = payload
        self.deaths = 0
        self.retries = 0
        self.ready_at = 0.0
        self.hang_s = 0.0
        self.done = False
        self.result = None


class _Worker:
    __slots__ = (
        "id",
        "proc",
        "task_conn",
        "result_conn",
        "beat_conn",
        "last_beat",
        "lease",
    )

    def __init__(self, wid, proc, task_conn, result_conn, beat_conn):
        self.id = wid
        self.proc = proc
        self.task_conn = task_conn
        self.result_conn = result_conn
        self.beat_conn = beat_conn
        self.last_beat = time.monotonic()
        self.lease: _Task | None = None


class ProcessPool:
    """Supervised process pool running *rounds* of tasks (see module
    docstring).

    ``worker_factory(init_arg, beat) -> fn(payload)`` is called once in
    each worker process; ``fn`` is then invoked per task and its return
    value travels back over the result pipe.  ``fallback(payload)``, if
    given, runs quarantined/exhausted tasks in the parent — it must
    compute the same result a worker would.
    """

    def __init__(
        self,
        worker_factory: Callable,
        init_arg: Any = None,
        *,
        config: PoolConfig | None = None,
        fallback: Callable[[Any], Any] | None = None,
        chaos: PoolChaosPlan | None = None,
    ):
        self.worker_factory = worker_factory
        self.init_arg = init_arg
        self.config = config if config is not None else PoolConfig()
        self.fallback = fallback
        self.chaos = chaos
        self._ctx = get_context(self.config.start_method)
        self._workers: list[_Worker] = []
        self._next_worker_id = 0
        self._respawns = 0
        self._chaos_kills = 0
        self._chaos_hangs = 0
        self._registry = get_registry()
        self._closed = False
        self._started = False
        # per-round state
        self._by_id: dict[int, _Task] = {}
        self._pending: deque[_Task] = deque()
        self._remaining = 0
        self._round_idx = 0

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "ProcessPool":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for _ in range(self.config.num_workers):
            self._spawn()

    @property
    def worker_pids(self) -> list[int]:
        return [w.proc.pid for w in self._workers]

    def _spawn(self) -> _Worker:
        task_r, task_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        beat_r, beat_w = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(self.worker_factory, self.init_arg, task_r, result_w, beat_w),
            name=f"repro-pool-worker-{self._next_worker_id}",
            daemon=True,
        )
        proc.start()
        # Parent keeps only its ends; the child inherited its own.
        task_r.close()
        result_w.close()
        beat_w.close()
        worker = _Worker(self._next_worker_id, proc, task_w, result_r, beat_r)
        self._next_worker_id += 1
        self._workers.append(worker)
        register_child_pids([proc.pid])
        self._registry.counter("procpool.workers.spawned").inc()
        return worker

    def _reap(self, worker: _Worker, *, kill: bool = True) -> None:
        if kill and worker.proc.is_alive():
            try:
                os.kill(worker.proc.pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):
                pass
        worker.proc.join(timeout=self.config.shutdown_grace_s)
        for conn_ in (worker.task_conn, worker.result_conn, worker.beat_conn):
            try:
                conn_.close()
            except OSError:
                pass
        unregister_child_pids([worker.proc.pid])
        if worker in self._workers:
            self._workers.remove(worker)

    def shutdown(self, drain: bool = True) -> None:
        """Stop the pool.  With ``drain`` (the default), in-flight leases
        get one ``shutdown_grace_s`` window to report their results
        before workers are told to exit; without it (the exception path)
        workers are torn down immediately."""
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + self.config.shutdown_grace_s
        if drain:
            while (
                any(w.lease is not None for w in self._workers)
                and time.monotonic() < deadline
            ):
                for w in list(self._workers):
                    self._drain(w)
                    if not w.proc.is_alive():
                        w.lease = None
                time.sleep(self.config.poll_interval_s)
        for w in list(self._workers):
            try:
                w.task_conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
        for w in list(self._workers):
            w.proc.join(timeout=max(0.1, deadline - time.monotonic()))
            self._reap(w, kill=True)

    # -- round execution ---------------------------------------------------

    def run_round(self, payloads, *, round_idx: int = 0) -> list:
        """Run every payload to completion; return results in payload
        order.  Never loses work: lost leases are reclaimed, retried, and
        ultimately routed through the fallback; only a missing fallback
        with exhausted budgets raises :class:`~repro.errors.ProcPoolError`.
        """
        if self._closed:
            raise ProcPoolError("process pool is shut down")
        self.start()
        tasks = [_Task(i, p) for i, p in enumerate(payloads)]
        if not tasks:
            return []
        cfg = self.config
        self._by_id = {t.index: t for t in tasks}
        self._pending = deque(tasks)
        self._remaining = len(tasks)
        self._round_idx = round_idx
        kill_armed = False
        rng = None
        if self.chaos is not None:
            rng = np.random.default_rng(derive_seed(self.chaos.seed, round_idx))
            if (
                self._chaos_kills < self.chaos.max_kills
                and rng.random() < self.chaos.kill_rate
            ):
                kill_armed = True
            if (
                self._chaos_hangs < self.chaos.max_hangs
                and rng.random() < self.chaos.hang_rate
            ):
                victim = tasks[int(rng.integers(len(tasks)))]
                victim.hang_s = self.chaos.hang_s
                self._chaos_hangs += 1
                self._registry.counter("procpool.chaos.hangs").inc()
        # A long inter-round gap must not read as every worker hung.
        now = time.monotonic()
        for w in self._workers:
            self._drain(w)
            w.last_beat = now
        while self._remaining > 0:
            heartbeat(0)  # cooperative cancellation point, zero units
            now = time.monotonic()
            if not self._workers:
                # Respawn budget exhausted with work outstanding: finish
                # in-process rather than lose it.
                for task in [t for t in tasks if not t.done]:
                    self._run_fallback(
                        task, reason="no live workers and respawn budget spent"
                    )
                break
            self._dispatch(now)
            if kill_armed:
                busy = [
                    w
                    for w in self._workers
                    if w.lease is not None and w.proc.is_alive()
                ]
                if busy:
                    target = busy[int(rng.integers(len(busy)))]
                    try:
                        os.kill(target.proc.pid, signal.SIGKILL)
                    except (ProcessLookupError, OSError):
                        pass
                    kill_armed = False
                    self._chaos_kills += 1
                    self._registry.counter("procpool.chaos.kills").inc()
            self._wait(cfg.poll_interval_s)
            for w in list(self._workers):
                self._drain(w)
            self._check_lost(time.monotonic())
        results = [t.result for t in tasks]
        self._by_id = {}
        self._pending = deque()
        return results

    def _next_ready(self, now: float) -> _Task | None:
        pending = self._pending
        for _ in range(len(pending)):
            task = pending.popleft()
            if task.ready_at <= now:
                return task
            pending.append(task)
        return None

    def _dispatch(self, now: float) -> None:
        for w in self._workers:
            if w.lease is not None or not w.proc.is_alive():
                continue
            task = self._next_ready(now)
            if task is None:
                return
            try:
                w.task_conn.send(("task", task.index, task.payload, task.hang_s))
            except (BrokenPipeError, OSError):
                # Worker died before the lease landed: not the task's
                # fault — requeue it and let the loss path reap the body.
                self._pending.appendleft(task)
                continue
            w.lease = task
            task.hang_s = 0.0  # an injected hang fires once
            w.last_beat = time.monotonic()

    def _wait(self, timeout: float) -> None:
        conns = []
        for w in self._workers:
            conns.append(w.result_conn)
            conns.append(w.beat_conn)
        if not conns:
            time.sleep(timeout)
            return
        try:
            connection.wait(conns, timeout=timeout)
        except OSError:
            pass

    def _drain(self, worker: _Worker) -> None:
        """Consume every queued beat and result of *worker* (also called
        right before declaring it lost, so a result that raced the loss
        verdict still lands)."""
        try:
            while worker.beat_conn.poll(0):
                worker.beat_conn.recv_bytes()
                worker.last_beat = time.monotonic()
        except (EOFError, OSError):
            pass
        try:
            while worker.result_conn.poll(0):
                msg = worker.result_conn.recv()
                self._handle_result(worker, msg)
        except (EOFError, OSError):
            pass

    def _handle_result(self, worker: _Worker, msg) -> None:
        worker.last_beat = time.monotonic()
        kind = msg[0]
        if kind in ("ready", "bye"):
            return
        task = self._by_id.get(msg[1])
        if task is None or task.done:
            return  # late duplicate from a worker declared lost: harmless
        if worker.lease is task:
            worker.lease = None
        if kind == "ok":
            self._complete(task, msg[2])
        elif kind == "err":
            task.retries += 1
            if task.retries > self.config.max_task_retries:
                self._run_fallback(
                    task, reason=f"retries exhausted after error: {msg[2]}"
                )
            else:
                self._registry.counter("procpool.tasks.retried").inc()
                self._reschedule(task)

    def _complete(self, task: _Task, result) -> None:
        task.done = True
        task.result = result
        self._remaining -= 1

    def _reschedule(self, task: _Task) -> None:
        attempt = task.retries + task.deaths - 1
        delays = backoff_delays(
            attempt + 1,
            base_s=self.config.backoff_base_s,
            cap_s=self.config.backoff_cap_s,
            seed=derive_seed(self.config.seed, self._round_idx, task.index),
        )
        task.ready_at = time.monotonic() + delays[attempt]
        self._pending.append(task)

    def _run_fallback(self, task: _Task, *, reason: str) -> None:
        if self.fallback is None:
            raise ProcPoolError(
                f"pool task {task.index} cannot complete ({reason}) and no "
                "sequential fallback is configured"
            )
        self._registry.counter("procpool.fallback.tasks").inc()
        self._complete(task, self.fallback(task.payload))

    def _check_lost(self, now: float) -> None:
        cfg = self.config
        for worker in list(self._workers):
            alive = worker.proc.is_alive()
            stale = now - worker.last_beat > cfg.heartbeat_timeout_s
            if alive and not stale:
                continue
            # Last chance: a result may be queued behind the silence.
            self._drain(worker)
            lease = worker.lease
            worker.lease = None
            self._registry.counter("procpool.workers.lost").inc()
            self._reap(worker, kill=True)
            if lease is not None and not lease.done:
                self._registry.counter("procpool.leases.reclaimed").inc()
                lease.deaths += 1
                if lease.deaths >= cfg.poison_deaths:
                    self._registry.counter("procpool.tasks.quarantined").inc()
                    self._run_fallback(
                        lease,
                        reason=f"poison task killed {lease.deaths} workers",
                    )
                else:
                    self._reschedule(lease)
            if self._respawns < cfg.max_respawns:
                self._respawns += 1
                self._spawn()

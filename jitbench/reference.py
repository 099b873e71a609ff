"""A fixed reference kernel that measures how fast the host is right now.

The speed of a shared host drifts by about ±20 % over minutes, so raw
seconds from two runs of the same code can differ by more than any useful
bound.  The benchmark therefore times this kernel next to every measured
phase and reports each phase as *reference seconds*:

    reference seconds = measured seconds * REFERENCE_S / kernel seconds

that is, the seconds the phase would take on a host where the kernel takes
exactly ``REFERENCE_S``.  The kernel seconds are its mean over the run, so
one scale factor applies to all of a run's phases.  A uniform slowdown of
the host slows the phase and the kernel alike and cancels; a slowdown of
the library's code does not, because the kernel calls no code of
``repro``.

The kernel mixes the two kinds of work the pipeline does: a memory-bound
gather and ``bincount`` over random slots (the shape of ``spmv`` on a
random-order graph) and a pure-Python loop over dicts and lists (the shape
of the scalar fold path in detection).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["REFERENCE_S", "time_kernel", "to_reference"]

#: The kernel's time on the host described in README.md, rounded; reference
#: seconds read close to that host's wall-clock seconds.
REFERENCE_S = 0.025

_N, _SLOTS, _LOOP = 1 << 16, 1 << 20, 40_000

_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def _kernel_arrays() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    global _arrays
    if _arrays is None:
        rng = np.random.default_rng(0)
        rows = np.sort(rng.integers(0, _N, _SLOTS))
        cols = rng.integers(0, _N, _SLOTS)
        _arrays = (rows, cols, rng.random(_N))
    return _arrays


def _kernel() -> float:
    rows, cols, x = _kernel_arrays()
    y = np.bincount(rows, weights=x[cols], minlength=_N)
    y = np.bincount(rows, weights=y[cols], minlength=_N)
    best: dict[int, float] = {}
    order: list[int] = []
    for i in range(_LOOP):
        key = (i * 7919) & 4095
        if best.get(key, -1.0) < i:
            best[key] = float(i)
            order.append(key)
    return float(y[0]) + len(order)


def time_kernel(calls: int = 1) -> list[float]:
    """Seconds of each of *calls* runs of the kernel."""
    _kernel_arrays()
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return times


def to_reference(seconds: float, kernel_times: list[float]) -> float:
    """*seconds*, measured while the kernel took *kernel_times*, in
    reference seconds.  The kernel's mean is used, not its median: the
    host switches between a fast and a slow state for seconds at a time,
    and a phase that lasts seconds averages over the states as the mean
    does."""
    return seconds * REFERENCE_S / statistics.fmean(kernel_times)

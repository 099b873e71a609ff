"""Run one workload of the JIT reordering benchmark.

    python3 jitbench/run.py --workload web-pagerank --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: it imports ``repro`` from ``src/``.
It prints a host record, a human-readable metric table and, as its last
line, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones (see jitbench/README.md).  The exit code
is 0 when every output check passed, 1 when one failed, and 2 on a usage
error or when ``src/repro`` is missing.
"""

import os

# One thread per BLAS/OpenMP pool, set before numpy loads; pool workers
# inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

WORKLOAD_NAMES = ("web-pagerank", "hub-procs", "road-traversal")


def _stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker the process pool started,
    waiting for it to exit, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: {src / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]

    from jitbench.measure import host_record, measure, measure_traced
    from jitbench.pipeline import WORKLOADS

    workload = WORKLOADS[args.workload]
    # A terminated run unwinds, so the process pool reaps its workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        run = measure_traced if args.trace else measure
        outcome, graph = run(workload, args.seed, args.seconds)
    finally:
        _stop_resource_tracker()

    print("host " + json.dumps(host_record(workload, graph)))
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    error_rate = outcome.failed / max(outcome.attempted, 1)
    print(f"{'error_rate':<32} {error_rate:.6g} ({outcome.failed}/"
          f"{outcome.attempted} operations failed)")
    for name, (value, unit) in {**outcome.metrics, **outcome.notes}.items():
        shown = "never" if value == float("inf") else f"{value:.6g}"
        print(f"{name:<32} {shown} {unit}")
    print(json.dumps(outcome.to_json()))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer accounting of one traced JIT pipeline run.

The trace of a run is the ``bench.jit`` span forest: the benchmark's own
``bench.*`` spans around each public call, with the spans the library
already emits (``rabbit.*``, ``resilience.*``, ``analysis.*``) nested
inside.  Each span is charged to one layer; a layer's *self time* is the
sum of its spans' durations minus the time their children cover, so the
self times of all layers add up to the root span's duration.
"""

from __future__ import annotations

from repro.obs.trace import Span

__all__ = ["LAYERS", "layer_of", "self_times", "spans_total"]

#: Layers that self time is charged to; ``bench`` is the root's own time
#: (the benchmark's glue between calls).
LAYERS = ("graph", "rabbit", "parallel", "resilience", "analysis", "bench")


def layer_of(s: Span, supervised: bool) -> str:
    """The layer a span's self time belongs to."""
    name = s.name
    if name == "bench.jit":
        return "bench"
    if name == "bench.permute":
        return "graph"
    if name == "bench.reorder":
        # The supervised call's own time is the supervisor's; otherwise it
        # is rabbit_order's glue around detection and ordering.
        return "resilience" if supervised else "rabbit"
    if name.startswith("rabbit.procs.") or (
        name == "rabbit.detect" and s.attrs.get("parallel")
    ):
        return "parallel"
    head = name.split(".", 1)[0]
    # The rest are analysis.* spans, bench.analysis and the per-analysis
    # bench spans.
    return head if head in ("rabbit", "resilience") else "analysis"


def self_times(root: Span, supervised: bool) -> dict[str, float]:
    """Self seconds per layer over *root*'s subtree."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in root.walk():
        own = s.duration - sum(c.duration for c in s.children)
        totals[layer_of(s, supervised)] += own
    return totals


def spans_total(root: Span, name: str, **attrs) -> float:
    """Summed duration of the spans named *name* under *root* whose
    attributes include *attrs*."""
    return sum(
        s.duration
        for s in root.find(name)
        if all(s.attrs.get(k) == v for k, v in attrs.items())
    )

"""Every Rabbit Order configuration rejects a negative or infinite edge
weight with the same error, before it builds any engine state."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import CSRGraph
from repro.rabbit import community_detection_eager, rabbit_order

CONFIGS = {
    "fast": lambda g: rabbit_order(g),
    "dict": lambda g: rabbit_order(g, engine="dict"),
    "interleave": lambda g: rabbit_order(g, parallel=True),
    "procs": lambda g: rabbit_order(
        g, parallel=True, executor="procs", num_threads=2
    ),
    "eager": community_detection_eager,
}

BAD_WEIGHTS = {
    "negative": ([1.0, -3.0], "edge weights must be non-negative"),
    "infinite": ([1.0, np.inf], "edge weights must be finite"),
}


@pytest.mark.parametrize("bad", sorted(BAD_WEIGHTS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_bad_weight_rejected_alike(config, bad):
    weights, message = BAD_WEIGHTS[bad]
    path = CSRGraph.from_edges([0, 1], [1, 2], weights=weights)
    with pytest.raises(GraphFormatError) as info:
        CONFIGS[config](path)
    assert str(info.value) == message

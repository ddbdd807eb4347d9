"""Host speed, measured with a fixed reference workload.

On a small shared host the same work runs up to about 1.6 times slower
for a minute or two at a time, so a run's wall times follow the
neighbours' load more than the program.  ``reference()`` times a fixed
toy discrete-event loop (a heap of events, seeded random draws, dict
counters, attribute updates, string formatting and sorts: the kind of
interpreter work greenlinks does) that imports nothing from greenlinks,
so no change to the program can move it.  A time measured between two
references is scaled by ``REFERENCE_S / reference``: it reads as the
seconds the work would take on a host where the reference takes
``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

# Nominal reference time: about its median on a 2-vCPU KVM guest of an
# Intel Xeon (Sapphire Rapids) host with CPython 3.11.
REFERENCE_S = 0.1

_NODES = 300
_EVENTS = 20_000


class _Node:
    __slots__ = ("name", "up", "load", "seen")

    def __init__(self, name: str):
        self.name = name
        self.up = True
        self.load = 0.0
        self.seen: dict[tuple[str, str], int] = {}


def reference() -> float:
    """Seconds the reference workload takes now."""
    gc.collect()
    rng = random.Random(1)
    nodes = [_Node(f"n{i}") for i in range(_NODES)]
    queue = [(rng.expovariate(1.0), i, i % _NODES) for i in range(500)]
    heapq.heapify(queue)
    rows: list[str] = []
    seq = len(queue)
    start = time.perf_counter()
    for _ in range(_EVENTS):
        t, _, k = heapq.heappop(queue)
        node = nodes[k]
        if rng.random() < 0.05:
            node.up = not node.up
        dest = nodes[rng.randrange(_NODES)]
        key = (node.name, dest.name)
        node.seen[key] = node.seen.get(key, 0) + 1
        node.load += 0.5 * (t - node.load)
        if node.up and dest.up:
            rows.append(f"{t:.6f},{node.name},{dest.name},{node.load:.3f}")
        seq += 1
        heapq.heappush(queue, (t + rng.expovariate(2.0), seq, rng.randrange(_NODES)))
        if len(rows) > 4000:
            rows.sort()
            rows.clear()
    return time.perf_counter() - start

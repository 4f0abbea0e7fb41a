"""The host's current speed, sampled between requests with a fixed kernel.

The benchmark's host shares its CPUs with other tenants, and a fixed piece of
pure-Python work takes anywhere from 1× to 2× its best time, in stretches
that last from seconds to minutes.  Every wall time the benchmark reports is
therefore rescaled to a reference host speed: the benchmark runs ``kernel``
(which does not touch sigmaprod) every ``INTERVAL_S`` of busy time, and a
request that took ``dt`` seconds while the kernel took ``k`` seconds around it
is reported as ``dt * REFERENCE_S / k``.  A change to the program moves the
rescaled times exactly as it moves the wall times; a slow stretch of the host
moves the request and the kernel alike and cancels.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.004  # the kernel's time at the reference speed
INTERVAL_S = 0.1     # busy time between two samples
WINDOW = 4           # samples on each side of a request that set its speed


class _Node:
    __slots__ = ("key", "pair")

    def __init__(self, key, pair):
        self.key = key
        self.pair = pair


def kernel():
    """Fixed interpreter work of the kinds sigmaprod does: small objects,
    dicts keyed by strings and tuples, JSON, Fractions, sorting."""
    nodes = [_Node(i, (i % 7, i % 11)) for i in range(1200)]
    by_name = {f"k{n.key}": n.pair for n in nodes}
    back = json.loads(json.dumps({k: list(v) for k, v in by_name.items()}))
    total = sum(a * b for a, b in back.values())
    frac = sum((Fraction(a + 1, b + 2) for a, b in list(back.values())[:150]), Fraction(0))
    seen = {tuple(sorted((i % 5, i % 3, i % 4))) for i in range(1000)}
    counts: dict = {}
    for i in range(1500):
        key = (i % 17, i % 13)
        counts[key] = counts.get(key, 0) + (i * i) % 7
    return total, frac, len(seen), len(counts)


def sample() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Speed:
    """Kernel samples in the order taken; ``scale(m)`` rescales a wall time
    measured after the first ``m`` samples."""

    def __init__(self):
        self.samples: list = []

    def take(self):
        self.samples.append(sample())

    def scale(self, m: int) -> float:
        window = self.samples[max(0, m - WINDOW):m + WINDOW]
        return REFERENCE_S / statistics.median(window)

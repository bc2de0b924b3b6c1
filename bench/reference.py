"""The host's speed, measured by a fixed reference kernel next to each timing.

The speed of a shared virtual machine is set by its other tenants and
changes by up to a factor of two within seconds and over minutes (see
README, finding 3). A time measured once therefore says as much about the
host as about the code. The benchmark runs this kernel right before and
right after every timed command and every set-up, and reports each time
scaled to the speed at which the kernel takes REFERENCE_S:

    scaled = measured * REFERENCE_S / mean(kernel before, kernel after)

The kernel does the kinds of work fluxline's commands and imports spend
their time on: numpy calls on small arrays, float-to-text formatting and
plain interpreted Python. The host's slowdowns do not hit all three alike,
and the mix tracked the workloads better than any one of them. The kernel
belongs to the benchmark; a change to fluxline cannot make it faster or
slower.
"""

from __future__ import annotations

import random
from time import perf_counter

import numpy as np

# the kernel's median time on the host the baseline was measured on
REFERENCE_S = 0.1

_ARRAY = np.linspace(0.0, 1.0, 2000)
_RNG = random.Random(0)
_VALUES = [_RNG.random() * 10.0 for _ in range(20000)]


def seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(1500):
        acc += float(np.sum(np.sin(_ARRAY) * _ARRAY + i))
    text = "\n".join(
        ",".join(f"{x:.17g}" for x in _VALUES[i:i + 5]) for i in range(0, len(_VALUES), 5)
    )
    total = 0
    for i in range(300000):
        total += i * i
    elapsed = perf_counter() - t0
    if not (acc > 0.0 and text and total > 0):
        raise RuntimeError("reference kernel produced no result")
    return elapsed


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two kernel passes into reference seconds."""
    return REFERENCE_S / ((before + after) / 2.0)

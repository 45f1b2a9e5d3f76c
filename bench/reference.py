"""A fixed computation that does not use rulefuse, timed between ops.

On a shared-host 2-vCPU Xeon virtual machine the host's speed drifts by a
third within seconds to minutes (medians of this reference over 2 s
windows range from 15 to 24 ms), so raw op times from runs a few minutes
apart spread by more than any useful bound.  The reference drifts with
the host, and no change to rulefuse can move it.  A fixed number of
slices is timed around every op, and the op's time divided by the median
slice time around it is the op's cost in reference units: it tracks the
program rather than the host.  Its mix is like the workloads': many
small numpy calls (as in the BLSTM) and interpreter-bound Python on
sets, dicts and tuples (as in subset construction and tracing).
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
_W = _RNG.standard_normal((24, 64)) * 0.3
_X = _RNG.standard_normal((400, 24))


def reference_slice() -> float:
    """About 20 ms of fixed work on a 2 GHz core."""
    h = np.zeros(16)
    c = np.zeros(16)
    for x in _X:
        z = x @ _W
        gate = 1.0 / (1.0 + np.exp(-z[:48]))
        c = gate[16:32] * c + gate[:16] * np.tanh(z[48:])
        h = gate[32:48] * np.tanh(c)
    seen: dict[frozenset, int] = {}
    for i in range(20000):
        key = frozenset((i % 31, i % 29, i % 13))
        seen[key] = seen.get(key, 0) + len(key)
    return float(h.sum()) + len(seen)


def time_slices(n: int) -> list[float]:
    """Times of `n` reference slices run back to back."""
    times = []
    for _ in range(n):
        start = time.perf_counter()
        reference_slice()
        times.append(time.perf_counter() - start)
    return times

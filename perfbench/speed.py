"""A fixed pure-Python task that measures how fast the host runs right now.

The host this benchmark was written on is shared: its speed drifts by a
quarter or more, in spells of seconds to minutes, with other tenants' load,
and every piece of Python code slows together.  run.py times this task
between items and scales each measured time by NOMINAL_S / (median time of
the task runs nearest to it), so the figures read as if the host ran at the
speed it had when NOMINAL_S was measured.  The task uses no hyperforge code, so a
change to the program cannot move it; it does the kind of work hyperforge
does (dicts and lists of small ints, a graph search, sorting, joining
strings), because such code and a pure arithmetic loop react differently
to the host's spells.
"""

from __future__ import annotations

import bisect
import statistics
import time

# A fixed graph of 3000 vertices and 6000 edges from a linear congruential
# generator; it does not depend on the benchmark's --seed.
_N = 3000
_EDGES = []
_x = 12345
for _ in range(6000):
    _x = (1103515245 * _x + 12345) % 2**31
    _a = _x % _N
    _x = (1103515245 * _x + 12345) % 2**31
    _EDGES.append((_a, _x % _N))

# Median time of task() on the host the benchmark was written on (2 cores,
# Python 3.11.7), over several minutes.
NOMINAL_S = 0.0056


def task():
    """Components and degree order of the fixed graph; about 6 ms."""
    adj: dict[int, list[int]] = {}
    for a, b in _EDGES:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = set()
    components = 0
    for v in adj:
        if v in seen:
            continue
        components += 1
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    order = sorted((len(nbrs), v) for v, nbrs in adj.items())
    return components, ",".join(str(v) for _, v in order[:500])


# factor_at() takes the median of this many task runs nearest in time.
NEAR = 8


class Speed:
    """Times task() on each call and gives the scale for measured times."""

    def __init__(self):
        self.starts = []
        self.times = []

    def __call__(self):
        t0 = time.perf_counter()
        task()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def factor(self):
        """The scale from every task run so far."""
        return NOMINAL_S / statistics.median(self.times)

    def factor_at(self, t):
        """The scale for a time measured from perf_counter() value t, from
        the NEAR task runs around t (the runs are in time order)."""
        i = bisect.bisect(self.starts, t)
        lo = max(0, min(i - NEAR // 2, len(self.starts) - NEAR))
        return NOMINAL_S / statistics.median(self.times[lo:lo + NEAR])

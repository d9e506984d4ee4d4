"""Counting shortest walks by adjacency-matrix powers, exactly.

Raising the 0-1 adjacency matrix to successive powers (native Python integers,
so counts never overflow) until the source-to-sink entry first becomes nonzero
gives the shortest length as the power and the number of shortest paths as the
entry.  It is kept as an independent cross-check of the direct graph
enumeration and of the transfer iteration.
"""

from __future__ import annotations

from .digraph import Digraph


def count_shortest_walks(g: Digraph, source: int, target: int) -> tuple[int, int] | None:
    """Smallest k >= 1 with a source-to-target walk, plus the exact walk count at that k.

    Only the source row of each successive power is carried (entry for entry it
    equals the full matrix power, and the row is all we inspect).  A shortest
    path is simple, so the search stops after power n - 1.
    """
    n = g.n
    if not (1 <= source <= n and 1 <= target <= n):
        raise ValueError(f"vertices must lie in 1..{n}")
    row = [0] * n
    row[source - 1] = 1
    for k in range(1, n):
        nxt = [0] * n
        for i0, val in enumerate(row):
            if val:
                for j in g.out(i0 + 1):
                    nxt[j - 1] += val
        row = nxt
        if row[target - 1]:
            return k, row[target - 1]
    return None

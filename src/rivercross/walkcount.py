"""Counting shortest walks by adjacency-matrix powers, exactly.

The source rows of the 0-1 adjacency matrix's powers (native integers, so
counts never overflow), as `digraph.walk_rows` yields them, first reach the
target at the shortest length, and that entry counts the shortest paths.  The
search gives up at the support fixpoint, which is sound on any digraph (see
`walk_rows`), or, as a fallback for supports that cycle, after power n - 1, or
n for a closed walk: a shortest path is simple, a shortest closed walk a cycle.
`count --method matrix` meets half these rows on a puzzle's state graph.
"""

from __future__ import annotations

from .digraph import Digraph, walk_rows


def count_shortest_walks(g: Digraph, source: int, target: int) -> tuple[int, int] | None:
    """Smallest k >= 1 with a source-to-target walk, plus the exact walk count at that k."""
    n = g.n
    if not (1 <= source <= n and 1 <= target <= n):
        raise ValueError(f"vertices must lie in 1..{n}")
    last = n if source == target else n - 1
    for k, (counts, _, settled) in enumerate(walk_rows(g, source), start=1):
        if counts[target]:
            return k, counts[target]
        if settled or k == last:
            return None

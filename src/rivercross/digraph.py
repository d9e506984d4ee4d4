"""Directed graphs with unit-weight edges.

Vertices are numbered 1..n.  By convention the source of interest is vertex 1
and the sink is vertex n, but every function takes explicit endpoints.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple


@dataclass(frozen=True)
class Digraph:
    """Adjacency structure: neighbors[i-1] is the sorted tuple of out-neighbors of vertex i."""

    neighbors: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.neighbors)

    def out(self, v: int) -> tuple[int, ...]:
        return self.neighbors[v - 1]

    @classmethod
    def build(cls, neighbor_sets: Iterable[Iterable[int]]) -> "Digraph":
        """Construct from any iterable of out-neighbor collections, deduplicating and sorting."""
        rows = [tuple(sorted(set(row))) for row in neighbor_sets]
        n = len(rows)
        for i, row in enumerate(rows, start=1):
            for j in row:
                if not 1 <= j <= n:
                    raise ValueError(f"vertex {i} has out-neighbor {j} outside 1..{n}")
        return cls(tuple(rows))

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(1, self.n + 1) for j in self.out(i)]

    def reversed(self) -> "Digraph":
        rows: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges():
            rows[j - 1].append(i)
        return Digraph.build(rows)


class PathList(NamedTuple):
    """All shortest source-to-sink paths, each a vertex tuple of the same minimal length."""

    length: int
    paths: tuple[tuple[int, ...], ...]


def shortest_distance(g: Digraph, source: int, target: int) -> int | None:
    """Minimal edge count of a walk from source to target, or None if unreachable."""
    _check_vertex(g, source)
    return distances_to(g, target)[source]


def distances_to(g: Digraph, target: int) -> list[int | None]:
    """Distance from every vertex to the target; entry 0 is unused padding."""
    _check_vertex(g, target)
    rev = g.reversed()
    dist: list[int | None] = [None] * (g.n + 1)
    dist[target] = 0
    queue = deque([target])
    while queue:
        u = queue.popleft()
        for v in rev.out(u):
            if dist[v] is None:
                dist[v] = dist[u] + 1  # type: ignore[operator]
                queue.append(v)
    return dist


def all_shortest_paths(g: Digraph, source: int, target: int) -> PathList | None:
    """Enumerate every simple path of minimal length from source to target.

    Distance labels toward the target are computed first; the search then only
    follows edges that step exactly one unit closer, so no dead end is ever
    explored and the work is linear in the size of the output.  Paths come out
    sorted lexicographically by vertex sequence.
    """
    _check_vertex(g, source)
    dist = distances_to(g, target)
    if dist[source] is None:
        return None
    length = dist[source]
    paths: list[tuple[int, ...]] = []
    path = [source]

    def descend(u: int) -> None:
        if u == target:
            paths.append(tuple(path))
            return
        here = dist[u]
        for v in g.out(u):
            if dist[v] is not None and dist[v] == here - 1:  # type: ignore[operator]
                path.append(v)
                descend(v)
                path.pop()

    descend(source)
    return PathList(length, tuple(paths))


def _check_vertex(g: Digraph, v: int) -> None:
    if not 1 <= v <= g.n:
        raise ValueError(f"vertex {v} outside 1..{g.n}")

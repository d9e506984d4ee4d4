"""Directed graphs with unit-weight edges, and the DAG of their shortest paths.

Vertices are numbered 1..n.  By convention the source of interest is vertex 1
and the sink vertex n, as `meet_in_the_middle` assumes; the other functions
take their endpoints as arguments or read them off a `PathCount`, the
shortest-path DAG that `count_shortest_paths` builds once and that
`unrank_shortest_path` and `shortest_paths` read.

The rows of the adjacency matrix's powers from a source (`walk_rows`, in
native integers, so counts never overflow) have two readers: on any digraph
`count_shortest_walks` reads them forward, and on a puzzle's state graph
`meet_in_the_middle` meets half as many with their mirrors.  Both give up at
the support fixpoint that `walk_rows` flags as settled, which is sound on any
digraph, or, as a fallback for supports that cycle, once they have covered
every length through n - 1, or n for a closed walk: a shortest path is
simple, and a shortest closed walk a cycle.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple


class Digraph(NamedTuple):
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


class PathCount(NamedTuple):
    """The DAG of shortest source-to-target paths of a digraph, counted but not listed.

    Only the vertices on a shortest source-to-target path carry labels.  For
    such a v, `steps[v]` holds the out-neighbors one step further along such
    a path, in `g.out` order; these are the DAG's edges.  `ways[v]` is the
    number of shortest v-to-target paths, so `count` is `ways[source]`.  Every
    other vertex has empty `steps` and zero `ways`, and entry 0 of both is
    unused padding.  `unrank_shortest_path` reads the k-th path off them,
    and `shortest_paths` lists them all.
    """

    source: int
    target: int
    length: int
    steps: list[tuple[int, ...]]
    ways: list[int]

    @property
    def count(self) -> int:
        return self.ways[self.source]


def _search(g: Digraph, source: int, target: int) -> tuple[list[int], list[int | None]]:
    """Breadth-first search from the source: the vertices in the order reached, and `dist`.

    It stops once the target's whole layer is reached, so an unreachable target leaves in
    `order` every vertex the source reaches.  `dist[v]` is None for a vertex not reached.
    """
    _check_vertex(g, source)
    _check_vertex(g, target)
    dist: list[int | None] = [None] * (g.n + 1)
    dist[source] = 0
    order = [source]  # the queue: it grows while it is read
    for u in order:
        if dist[u] == dist[target]:
            break
        for w in g.out(u):
            if dist[w] is None:
                dist[w] = dist[u] + 1  # type: ignore[operator]
                order.append(w)
    return order, dist


def shortest_distance(g: Digraph, source: int, target: int) -> int | None:
    """Minimal edge count of a walk from source to target, or None if unreachable."""
    return _search(g, source, target)[1][target]


def count_shortest_paths(g: Digraph, source: int, target: int) -> PathCount | None:
    """Build the shortest source-to-target DAG and count its paths, or None if unreachable.

    One walk back along the search's order, which is by distance, takes each vertex's steps,
    the out-neighbors one layer further that reach the target, and sums their `ways` (Brandes,
    2001): one big-integer addition per DAG edge, reading only rows nearer than the target.
    """
    order, dist = _search(g, source, target)
    length = dist[target]
    if length is None:
        return None
    steps: list[tuple[int, ...]] = [()] * (g.n + 1)
    ways = [0] * (g.n + 1)
    ways[target] = 1
    for v in reversed(order):
        further = dist[v] + 1  # type: ignore[operator]
        if further <= length:
            steps[v] = tuple([w for w in g.out(v) if dist[w] == further and ways[w]])
            ways[v] = sum(map(ways.__getitem__, steps[v]))
    return PathCount(source, target, length, steps, ways)


def unrank_shortest_path(counted: PathCount, k: int) -> tuple[int, ...]:
    """The k-th shortest path, counting from 0, in the order `shortest_paths` lists them.

    From the source, walk the steps of the DAG in order and subtract their
    `ways` until k falls inside one of them (Kreher and Stinson,
    Combinatorial Algorithms, 1999, ch. 2-3).
    Raises IndexError unless 0 <= k < counted.count.
    """
    if not 0 <= k < counted.count:
        raise IndexError(f"rank {k} outside 0..{counted.count - 1}")
    source, target, _, steps, ways = counted
    v = source
    path = [v]
    while v != target:
        for w in steps[v]:
            if k < ways[w]:
                break
            k -= ways[w]
        path.append(w)
        v = w
    return tuple(path)


def shortest_paths(counted: PathCount) -> Iterator[tuple[int, ...]]:
    """Every shortest path, one at a time: the k-th is `unrank_shortest_path(counted, k)`.

    The walk follows only the steps of the DAG, each exactly one unit closer to
    the target, so no dead end is ever explored and each path costs its length.
    It keeps an explicit stack, so path length is not bounded by the
    recursion limit.  Paths come out sorted lexicographically by vertex sequence.
    """
    source, target, _, steps, _ = counted
    path: list[int] = []
    branches = [iter((source,))]  # branches[i]: untried steps after path[:i]
    while branches:
        v = next(branches[-1], None)
        if v is None:
            branches.pop()
            del path[-1:]  # and the vertex it stepped from, if any
        elif v == target:
            yield (*path, v)
        else:
            path.append(v)
            branches.append(iter(steps[v]))


def walk_rows(g: Digraph, source: int) -> Iterator[tuple[list[int], list[int], bool]]:
    """Row k of the k-th adjacency power from the source, for k = 1, 2, ... without end.

    A row is `(counts, support, settled)`: `counts[v]` walks of length k end at
    v (entry 0 is padding), `support` lists the v with `counts[v] > 0`, and
    `settled` says the support is empty or equals the support two rows back.
    Each support is the out-neighbourhood of the one before, so on any digraph
    the later supports then stay empty or alternate between the last two.
    A source outside 1..n raises ValueError at the call, before any row is read.
    """
    _check_vertex(g, source)
    return _walk_rows(g, source)


def _walk_rows(g: Digraph, source: int) -> Iterator[tuple[list[int], list[int], bool]]:
    out = ((),) + g.neighbors  # out[v]: the out-neighbours of vertex v
    counts, support = [0] * len(out), [source]
    counts[source] = 1
    before, before_support = [], []  # the counts and support two rows back; none before row 2
    while True:
        nxt, grown = [0] * len(out), []
        for v in support:
            c = counts[v]
            for w in out[v]:
                x = nxt[w]
                if not x:
                    grown.append(w)
                nxt[w] = x + c
        settled = not grown or (len(grown) == len(before_support)
                                and all(map(before.__getitem__, grown)))
        yield nxt, grown, settled
        before, before_support, counts, support = counts, support, nxt, grown


def count_shortest_walks(g: Digraph, source: int, target: int) -> tuple[int, int] | None:
    """Smallest k >= 1 with a source-to-target walk, plus the exact walk count at that k.

    The paper's count: the first power A^k whose (source, target) entry is
    nonzero gives the length, and that entry the number of shortest walks.
    None once the rows give up, as the module docstring says.
    """
    rows = walk_rows(g, source)
    _check_vertex(g, target)
    last = g.n if source == target else g.n - 1
    for k, (counts, _, settled) in enumerate(rows, start=1):
        if counts[target]:
            return k, counts[target]
        if settled or k == last:
            return None


def meet_in_the_middle(rows: Iterator[tuple[list[int], list[int], bool]]) -> tuple[int, int]:
    """Count the shortest 1-to-n walks of a state graph from half the rows of `walk_rows(g, 1)`.

    The graph must come from `puzzle.species_graph`: u -> v is an edge exactly
    when n+1-v -> n+1-u is one, and every edge flips the boat, so 1-to-n walks
    have odd length, and A^(2k-1)[1,n] = sum over v of A^(k-1)[1,v] * A^k[1,n+1-v].
    Returns (k, count) after k rows: count walks of length 2k-1, 0 if none.
    A settled row k decides: later rows alternate between rows k-2 and k-1,
    which met at row k-1 and, swapped (alike, as the mirror is an involution),
    at row k.  The fallback length n - 1 is covered once 2k-1 >= n-1.
    """
    before, before_support = (0, 1), (1,)  # row 0: the source alone
    for k, (counts, support, settled) in enumerate(rows, start=1):
        mirror = len(counts)  # n + 1
        count = sum(before[v] * counts[mirror - v] for v in before_support)
        if count or settled or 2 * k - 1 >= mirror - 2:
            return k, count
        before, before_support = counts, support


def _check_vertex(g: Digraph, v: int) -> None:
    if not 1 <= v <= g.n:
        raise ValueError(f"vertex {v} outside 1..{g.n}")

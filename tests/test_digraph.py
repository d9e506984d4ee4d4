import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivercross.digraph import (
    Digraph,
    count_shortest_paths,
    shortest_distance,
    shortest_paths,
    unrank_shortest_path,
)

from reference import bfs_distance, random_digraph


def g_from_edges(n, edges):
    rows = [[] for _ in range(n)]
    for i, j in edges:
        rows[i - 1].append(j)
    return Digraph.build(rows)


def listed(g, source, target):
    """(length, paths) listed off the counted distance DAG, or None if the target is unreachable."""
    counted = count_shortest_paths(g, source, target)
    return None if counted is None else (counted.length, list(shortest_paths(counted)))


class TestBuild:
    def test_dedup_and_sort(self):
        g = Digraph.build([[3, 2, 2], [], [1]])
        assert g.out(1) == (2, 3)
        assert g.n == 3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Digraph.build([[4], []])


class TestShortestDistance:
    def test_same_vertex_is_zero(self):
        g = g_from_edges(3, [(1, 2)])
        assert shortest_distance(g, 1, 1) == 0

    def test_two_vertex_edge(self):
        g = g_from_edges(2, [(1, 2)])
        assert shortest_distance(g, 1, 2) == 1

    def test_unreachable(self):
        g = g_from_edges(3, [(2, 3)])
        assert shortest_distance(g, 1, 3) is None

    def test_prefers_short_route(self):
        g = g_from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert shortest_distance(g, 1, 4) == 1


class TestAllShortestPaths:
    def test_single_edge(self):
        g = g_from_edges(2, [(1, 2)])
        assert listed(g, 1, 2) == (1, [(1, 2)])

    def test_unreachable_is_none(self):
        g = g_from_edges(3, [(3, 2)])
        assert listed(g, 1, 3) is None

    def test_diamond_counts_both_routes(self):
        g = g_from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
        assert listed(g, 1, 4) == (2, [(1, 2, 4), (1, 3, 4)])

    def test_longer_route_excluded(self):
        g = g_from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 3)])
        assert listed(g, 1, 4) == (2, [(1, 3, 4)])

    def test_paths_sorted_and_simple(self):
        g = random_digraph(15, 0.3, seed=3)
        found = listed(g, 1, 15)
        if found is None:
            pytest.skip("seed gave an unreachable sink")
        length, paths = found
        assert paths == sorted(paths)
        for path in paths:
            assert len(set(path)) == len(path)
            assert len(path) - 1 == length

    def test_lists_lazily(self):
        # 2**500 paths: only those asked for are built, each in rank order.
        k = 500
        g = diamond_chain(k)
        counted = count_shortest_paths(g, 1, g.n)
        first = tuple(v for i in range(k) for v in (3 * i + 1, 3 * i + 2)) + (3 * k + 1,)
        head = list(itertools.islice(shortest_paths(counted), 3))
        assert head[0] == first
        assert head == [unrank_shortest_path(counted, rank) for rank in range(3)]


class TestRandomDigraph:
    def test_p_one_is_complete(self):
        g = random_digraph(5, 1.0, seed=0)
        assert all(len(g.out(v)) == 4 for v in range(1, 6))
        assert shortest_distance(g, 1, 5) == 1

    def test_p_zero_is_empty(self):
        g = random_digraph(5, 0.0, seed=0)
        assert all(g.out(v) == () for v in range(1, 6))
        assert shortest_distance(g, 1, 5) is None

    def test_seed_reproducible(self):
        assert random_digraph(12, 0.4, seed=9) == random_digraph(12, 0.4, seed=9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            random_digraph(1, 0.5, seed=0)
        with pytest.raises(ValueError):
            random_digraph(5, 1.5, seed=0)


def brute_force_shortest_paths(g, source, target):
    """Oracle: breadth-first enumeration of simple paths, keeping the minimal layer."""
    frontier = [(source,)]
    while frontier:
        hits = [p for p in frontier if p[-1] == target]
        if hits:
            return sorted(hits)
        frontier = [
            p + (v,)
            for p in frontier
            for v in g.out(p[-1])
            if v not in p
        ]
    return None


def test_enumeration_matches_brute_force_on_small_graphs():
    for seed in range(12):
        g = random_digraph(8, 0.3, seed=seed)
        expected = brute_force_shortest_paths(g, 1, 8)
        found = listed(g, 1, 8)
        if expected is None:
            assert found is None
        else:
            assert found == (len(expected[0]) - 1, expected)


def test_enumeration_on_every_three_vertex_graph():
    for g in every_three_vertex_graph():
        expected = brute_force_shortest_paths(g, 1, 3)
        found = listed(g, 1, 3)
        if expected is None:
            assert found is None
        else:
            assert found[1] == expected


def every_three_vertex_graph():
    pairs = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    for bits in range(2 ** len(pairs)):
        yield g_from_edges(3, [e for k, e in enumerate(pairs) if bits >> k & 1])


def diamond_chain(k):
    """k diamonds in a row: 2**k shortest paths of length 2k through 3k + 1 vertices.

    Diamond i joins vertex 3i + 1 to 3i + 4 through 3i + 2 (upper) or 3i + 3 (lower).
    """
    edges = []
    for i in range(k):
        a = 3 * i + 1
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 3), (a + 2, a + 3)]
    return g_from_edges(3 * k + 1, edges)


class TestCountAndUnrank:
    def test_unranking_lists_the_enumeration(self):
        graphs = [random_digraph(8, 0.3, seed=seed) for seed in range(12)]
        graphs += [random_digraph(12, p, seed=seed) for p in (0.2, 0.35) for seed in range(6)]
        graphs += [random_digraph(15, 0.3, seed=3), *every_three_vertex_graph()]
        for g in graphs:
            expected = brute_force_shortest_paths(g, 1, g.n)
            counted = count_shortest_paths(g, 1, g.n)
            if expected is None:
                assert counted is None
                continue
            assert (counted.length, counted.count) == (len(expected[0]) - 1, len(expected))
            assert_steps_are_the_dag(g, counted)
            ranked = [unrank_shortest_path(counted, k) for k in range(counted.count)]
            assert ranked == list(shortest_paths(counted)) == expected

    def test_source_is_target(self):
        g = g_from_edges(3, [(1, 2), (2, 1)])
        counted = count_shortest_paths(g, 2, 2)
        assert (counted.length, counted.count) == (0, 1)
        assert unrank_shortest_path(counted, 0) == (2,)
        assert list(shortest_paths(counted)) == [(2,)]

    @pytest.mark.parametrize("k", [-1, 2])
    def test_rank_out_of_range(self, k):
        counted = count_shortest_paths(g_from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)]), 1, 4)
        with pytest.raises(IndexError):
            unrank_shortest_path(counted, k)

    def test_diamond_chain_ranks_read_as_binary(self):
        # Rank k takes the lower route through diamond i exactly when bit
        # k - 1 - i of k is set, the first diamond being the most significant.
        k = 500
        g = diamond_chain(k)
        counted = count_shortest_paths(g, 1, g.n)
        assert (counted.length, counted.count) == (2 * k, 2 ** k)
        for rank in (0, 1, 2 ** k // 3, 2 ** k - 1):
            middles = unrank_shortest_path(counted, rank)[1::2]
            assert middles == tuple(3 * i + 2 + (rank >> (k - 1 - i) & 1) for i in range(k))


def assert_steps_are_the_dag(g, counted):
    """`steps` holds exactly the edges one step closer by plain BFS, and `ways` sums over them."""
    dist = {v: bfs_distance(g, v, counted.target) for v in range(1, g.n + 1)}
    for v, d in dist.items():
        in_dag = d is not None and 0 < d <= counted.length
        closer = tuple(w for w in g.out(v) if in_dag and dist[w] == d - 1)
        assert counted.steps[v] == closer, v
        if in_dag:
            assert counted.ways[v] == sum(counted.ways[w] for w in closer) > 0, v


def test_long_chain_within_the_recursion_limit():
    n = 1500
    assert n > sys.getrecursionlimit()
    g = Digraph.build([[v + 1] if v < n else [] for v in range(1, n + 1)])
    chain = tuple(range(1, n + 1))
    counted = count_shortest_paths(g, 1, n)
    assert (counted.length, counted.count) == (n - 1, 1)
    assert list(shortest_paths(counted)) == [chain]
    assert unrank_shortest_path(counted, 0) == chain


@st.composite
def digraphs_with_endpoints(draw):
    """A digraph on 1..8 vertices, any ordered pair an edge or not, and two endpoints.

    The target is drawn as an offset from the source, so equal endpoints are
    one case among n rather than the most common one.
    """
    n = draw(st.integers(1, 8))
    pairs = itertools.product(range(1, n + 1), repeat=2)
    edges = [pair for pair in pairs if draw(st.booleans())]
    source = draw(st.integers(1, n))
    target = (source - 1 + draw(st.integers(0, n - 1))) % n + 1
    return g_from_edges(n, edges), source, target


@settings(derandomize=True, deadline=None, max_examples=150)
@given(digraphs_with_endpoints())
def test_count_matches_plain_bfs_and_brute_force(case):
    g, source, target = case
    distance = bfs_distance(g, source, target)
    counted = count_shortest_paths(g, source, target)
    assert (counted is None) == (distance is None)
    assert shortest_distance(g, source, target) == distance
    if counted is None:
        return
    expected = brute_force_shortest_paths(g, source, target)
    assert (counted.length, counted.count) == (distance, len(expected))
    assert_steps_are_the_dag(g, counted)
    ranked = [unrank_shortest_path(counted, k) for k in range(counted.count)]
    assert ranked == list(shortest_paths(counted)) == expected

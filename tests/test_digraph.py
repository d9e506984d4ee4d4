import pytest

from rivercross.digraph import Digraph, PathList, all_shortest_paths, shortest_distance

from reference import random_digraph


def g_from_edges(n, edges):
    rows = [[] for _ in range(n)]
    for i, j in edges:
        rows[i - 1].append(j)
    return Digraph.build(rows)


class TestBuild:
    def test_dedup_and_sort(self):
        g = Digraph.build([[3, 2, 2], [], [1]])
        assert g.out(1) == (2, 3)
        assert g.n == 3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Digraph.build([[4], []])

    def test_reversed(self):
        g = g_from_edges(3, [(1, 2), (2, 3), (1, 3)])
        assert g.reversed().out(3) == (1, 2)


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
        assert all_shortest_paths(g, 1, 2) == PathList(1, ((1, 2),))

    def test_unreachable_is_none(self):
        g = g_from_edges(3, [(3, 2)])
        assert all_shortest_paths(g, 1, 3) is None

    def test_diamond_counts_both_routes(self):
        g = g_from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
        found = all_shortest_paths(g, 1, 4)
        assert found == PathList(2, ((1, 2, 4), (1, 3, 4)))

    def test_longer_route_excluded(self):
        g = g_from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 3)])
        found = all_shortest_paths(g, 1, 4)
        assert found.paths == ((1, 3, 4),)

    def test_paths_sorted_and_simple(self):
        g = random_digraph(15, 0.3, seed=3)
        found = all_shortest_paths(g, 1, 15)
        if found is None:
            pytest.skip("seed gave an unreachable sink")
        assert list(found.paths) == sorted(found.paths)
        for path in found.paths:
            assert len(set(path)) == len(path)
            assert len(path) - 1 == found.length


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
        found = all_shortest_paths(g, 1, 8)
        if expected is None:
            assert found is None
        else:
            assert list(found.paths) == expected
            assert found.length == len(expected[0]) - 1


def test_enumeration_on_every_three_vertex_graph():
    pairs = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    for bits in range(2 ** len(pairs)):
        edges = [e for k, e in enumerate(pairs) if bits >> k & 1]
        g = g_from_edges(3, edges)
        expected = brute_force_shortest_paths(g, 1, 3)
        found = all_shortest_paths(g, 1, 3)
        if expected is None:
            assert found is None
        else:
            assert list(found.paths) == expected

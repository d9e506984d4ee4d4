import collections
import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivercross import McParams, digraph, mc_graph
from rivercross.digraph import (
    Digraph,
    count_shortest_paths,
    count_shortest_walks,
    meet_in_the_middle,
    shortest_distance,
    shortest_paths,
    unrank_shortest_path,
    walk_rows,
)

from reference import (
    adjacency_matrix,
    bfs_distance,
    mat_mul,
    random_digraph,
    random_mirrored_digraph,
    symbolic_adjacency,
    symbolic_shortest_paths,
)


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


class TestShortestPaths:
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
    """`steps` holds exactly the DAG's edges in `g.out` order, and `ways` counts paths over them.

    By plain BFS from both ends, v lies on a shortest path when its distances
    from the source and to the target add up to the length; its steps are its
    out-neighbors on such a path one layer further from the source.  Every
    other vertex, and the padding at index 0, has no steps and no ways.
    """
    source, target, length = counted.source, counted.target, counted.length
    reach = {v: bfs_distance(g, source, v) for v in range(1, g.n + 1)}
    rest = {v: bfs_distance(g, v, target) for v in range(1, g.n + 1)}
    on_dag = {v for v in reach if None not in (reach[v], rest[v]) and reach[v] + rest[v] == length}
    assert len(counted.steps) == len(counted.ways) == g.n + 1
    assert (counted.steps[0], counted.ways[0]) == ((), 0)
    for v in range(1, g.n + 1):
        if v not in on_dag:
            assert (counted.steps[v], counted.ways[v]) == ((), 0), v
            continue
        further = tuple(w for w in g.out(v) if w in on_dag and reach[w] == reach[v] + 1)
        assert counted.steps[v] == further, v
        # On the DAG these are also the out-neighbors one step closer to the target.
        assert further == tuple(w for w in g.out(v) if rest[w] == rest[v] - 1), v
        expected_ways = 1 if v == target else sum(counted.ways[w] for w in further)
        assert counted.ways[v] == expected_ways > 0, v


class CountedRows(tuple):
    """Adjacency rows that count how often each row is read and the whole tuple iterated."""

    def __new__(cls, rows):
        self = super().__new__(cls, rows)
        self.reads = collections.Counter()
        self.iterations = 0
        return self

    def __getitem__(self, i):
        self.reads[i + 1] += 1  # rows are 0-based, vertices 1-based
        return super().__getitem__(i)

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("seed", range(6))
def test_count_reads_only_rows_nearer_than_the_target(seed):
    g = random_digraph(40, 0.08, seed=seed)
    counted_rows = CountedRows(g.neighbors)
    source, target = 1, g.n
    counted = count_shortest_paths(Digraph(counted_rows), source, target)
    length = bfs_distance(g, source, target)  # 2 to 7 on these seeds
    assert counted.length == length
    reach = (bfs_distance(g, source, v) for v in range(1, g.n + 1))
    nearer = {v for v, d in enumerate(reach, start=1) if d is not None and d < length}
    assert set(counted_rows.reads) <= nearer
    assert max(counted_rows.reads.values(), default=0) <= 2
    assert counted_rows.iterations == 0


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


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda g: count_shortest_paths(g, 0, 2), "vertex 0 outside 1..2", id="source"),
    pytest.param(lambda g: count_shortest_paths(g, 1, 3), "vertex 3 outside 1..2", id="target"),
    pytest.param(lambda g: shortest_distance(g, -1, 1), "vertex -1 outside 1..2", id="distance"),
    pytest.param(lambda g: walk_rows(g, 3), "vertex 3 outside 1..2", id="walk_rows"),
    pytest.param(lambda g: count_shortest_walks(g, 0, 2), "vertex 0 outside 1..2",
                 id="walks_source"),
    pytest.param(lambda g: count_shortest_walks(g, 1, 3), "vertex 3 outside 1..2",
                 id="walks_target"),
])
def test_vertices_outside_the_graph_raise(call, message):
    with pytest.raises(ValueError) as raised:
        call(g_from_edges(2, [(1, 2)]))
    assert str(raised.value) == message


def recursive_walk_count(g, u, target, k):
    """Oracle: count walks by explicit recursion over the remaining length."""
    if k == 0:
        return 1 if u == target else 0
    return sum(recursive_walk_count(g, v, target, k - 1) for v in g.out(u))


def complete_digraph(n):
    return Digraph.build([[j for j in range(1, n + 1) if j != i] for i in range(1, n + 1)])


class TestAdjacency:
    def test_matrix_matches_edges(self):
        g = Digraph.build([[2, 3], [3], []])
        assert adjacency_matrix(g) == [[0, 1, 1], [0, 0, 1], [0, 0, 0]]

    def test_matrix_power_counts_walks(self):
        for seed in range(6):
            g = random_digraph(8, 0.3, seed=seed)
            mat = adjacency_matrix(g)
            power = mat
            for k in range(1, 9):
                if k > 1:
                    power = mat_mul(power, mat)
                for s in (1, 4):
                    for t in (2, 8):
                        assert power[s - 1][t - 1] == recursive_walk_count(g, s, t, k)

    def test_power_on_complete_graph(self):
        g = complete_digraph(5)
        mat = adjacency_matrix(g)
        power = mat
        for k in range(2, 7):
            power = mat_mul(power, mat)
        assert power[0][1] == recursive_walk_count(g, 1, 2, 6)


class TestCountShortestWalks:
    def test_classic_instance(self):
        g, _ = mc_graph(McParams(3, 3, 2, 0))
        assert count_shortest_walks(g, 1, g.n) == (11, 4)

    def test_five_five_boat_three(self):
        g, _ = mc_graph(McParams(5, 5, 3, 0))
        k, count = count_shortest_walks(g, 1, g.n)
        assert count == 25
        assert k == shortest_distance(g, 1, g.n)

    def test_complete_graph_one_step(self):
        g = complete_digraph(4)
        assert count_shortest_walks(g, 1, 4) == (1, 1)

    def test_unreachable_is_none(self):
        g = Digraph.build([[], [1]])
        assert count_shortest_walks(g, 1, 2) is None

    def test_first_power_matches_bfs_distance(self):
        for seed in range(10):
            g = random_digraph(12, 0.25, seed=seed)
            expected = shortest_distance(g, 1, 12)
            got = count_shortest_walks(g, 1, 12)
            if expected is None or expected == 0:
                continue
            assert got is not None and got[0] == expected

    def test_count_matches_enumeration(self):
        for seed in (1, 7, 42, 99, 123):
            g = random_digraph(30, 0.2, seed=seed)
            found = listed(g, 1, 30)
            got = count_shortest_walks(g, 1, 30)
            if found is None:
                assert got is None
            else:
                assert got == (found[0], len(found[1]))

    def test_exact_beyond_64_bits(self):
        width, layers = 8, 22
        rows = [tuple(range(2, 2 + width))]
        for layer in range(layers - 1):
            base = 2 + (layer + 1) * width
            rows.extend(tuple(range(base, base + width)) for _ in range(width))
        n = width * layers + 2
        rows.extend((n,) for _ in range(width))
        rows.append(())
        g = Digraph.build(rows)
        k, count = count_shortest_walks(g, 1, n)
        assert k == layers + 1
        assert count == width**layers  # independent product formula for a layered graph
        assert count > 2**64


def all_powers_walk_count(g, source, target):
    """Oracle: the first of the powers 1..n with a nonzero entry, with no early exit."""
    mat = adjacency_matrix(g)
    power = mat
    for k in range(1, g.n + 1):
        if k > 1:
            power = mat_mul(power, mat)
        if power[source - 1][target - 1]:
            return k, power[source - 1][target - 1]
    return None


class TestClosedWalks:
    def test_directed_three_cycle(self):
        g = Digraph.build([[2], [3], [1]])
        assert count_shortest_walks(g, 1, 1) == (3, 1)

    def test_one_vertex_self_loop(self):
        g = Digraph.build([[1]])
        assert count_shortest_walks(g, 1, 1) == (1, 1)

    def test_no_cycle_through_source(self):
        assert count_shortest_walks(Digraph.build([[2], []]), 1, 1) is None
        assert count_shortest_walks(Digraph.build([[]]), 1, 1) is None


class TestFixpointExit:
    """The support-fixpoint exit never cuts a search short, on digraphs that are not reversible."""

    def test_matches_all_powers_on_random_digraphs(self):
        for seed in range(40):
            n = 4 + seed % 9
            g = random_digraph(n, (0.08, 0.15, 0.25)[seed % 3], seed=seed)
            for source in range(1, n + 1):
                for target in range(1, n + 1):
                    assert count_shortest_walks(g, source, target) == all_powers_walk_count(
                        g, source, target), (seed, source, target)

    def test_settled_supports_alternate(self):
        settled = 0
        for seed in range(20):
            g = random_digraph(10, 0.15, seed=seed)
            rows = walk_rows(g, 1)
            supports = [{1}]
            for _, support, done in itertools.islice(rows, 2 ** g.n):  # supports may cycle for ever
                supports.append(set(support))
                if done:
                    break
            else:
                continue
            settled += 1
            for _ in range(6):
                supports.append(set(next(rows)[1]))
                assert supports[-1] == (supports[-3] if supports[-2] else set()), seed
        assert settled >= 10


class TestMeetInTheMiddle:
    """Half the rows, met with their mirror images, count what the forward walk counts."""

    def test_matches_all_powers_on_mirrored_digraphs(self):
        solvable = 0
        for seed in range(40):
            g = random_mirrored_digraph(6 + seed % 8, (0.04, 0.07, 0.1)[seed % 3], seed=seed)
            assert any(u not in g.out(v) for u, v in g.edges()), seed  # not reversible
            k, count = meet_in_the_middle(walk_rows(g, 1))
            assert ((2 * k - 1, count) if count else None) == all_powers_walk_count(g, 1, g.n), seed
            solvable += count > 0
        assert 10 <= solvable <= 30

    def test_matches_forward_walk_on_mc_grid(self, monkeypatch):
        forward = []  # the rows count_shortest_walks computes

        def counted(*args):
            for row in walk_rows(*args):
                forward.append(row)
                yield row

        monkeypatch.setattr(digraph, "walk_rows", counted)
        unsolvable = 0
        for m, c, b, d in itertools.product(range(1, 13), range(1, 13), range(2, 6), range(3)):
            if m - c < d:
                continue
            g, _ = mc_graph(McParams(m, c, b, d))
            forward.clear()
            expected = count_shortest_walks(g, 1, g.n)
            k, count = meet_in_the_middle(walk_rows(g, 1))
            if expected is None:
                # An unsolvable instance computes the rows the forward walk computes.
                assert (count, k) == (0, len(forward)), (m, c, b, d)
                unsolvable += 1
            else:
                assert (2 * k - 1, count) == expected, (m, c, b, d)  # (L+1)/2 rows
        assert unsolvable == 231


class TestSymbolic:
    def test_single_edge_entry(self):
        g = Digraph.build([[2], []])
        mat = symbolic_adjacency(g)
        assert mat[0][1] == {((1, 2),): 1}
        assert symbolic_shortest_paths(g, 1, 2) == (1, [(1, 2)])

    def test_classic_reconstruction(self):
        g, _ = mc_graph(McParams(3, 3, 2, 0))
        sym = symbolic_shortest_paths(g, 1, g.n)
        assert sym == listed(g, 1, g.n)
        assert sym[0] == 11 and len(sym[1]) == 4

    def test_matches_enumeration_on_random_graphs(self):
        for seed in range(8):
            g = random_digraph(12, 0.3, seed=seed)
            assert symbolic_shortest_paths(g, 1, 12) == listed(g, 1, 12)

    def test_unreachable_is_none(self):
        g = Digraph.build([[], [1]])
        assert symbolic_shortest_paths(g, 1, 2) is None

    def test_minimal_power_monomials_have_unit_coefficients(self):
        g, _ = mc_graph(McParams(3, 3, 2, 0))
        k, _ = count_shortest_walks(g, 1, g.n)
        n = g.n
        row = [dict() for _ in range(n)]
        row[0] = {(): 1}
        for _ in range(k):
            nxt = [dict() for _ in range(n)]
            for i0, entry in enumerate(row):
                for j in g.out(i0 + 1):
                    cell = nxt[j - 1]
                    for mono, coeff in entry.items():
                        grown = tuple(sorted(mono + ((i0 + 1, j),)))
                        cell[grown] = cell.get(grown, 0) + coeff
            row = nxt
        assert set(row[n - 1].values()) == {1}

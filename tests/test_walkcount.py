import itertools

from rivercross import McParams, digraph, mc_graph
from rivercross.digraph import (
    Digraph,
    count_shortest_walks,
    meet_in_the_middle,
    shortest_distance,
    walk_rows,
)

from reference import (
    adjacency_matrix,
    mat_mul,
    random_digraph,
    random_mirrored_digraph,
    symbolic_adjacency,
    symbolic_shortest_paths,
)
from test_digraph import listed


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

import itertools

import pytest

from rivercross import (
    BankState,
    FamilySpec,
    McParams,
    Move,
    ParamError,
    SpeciesPuzzle,
    Strategy,
    applicability,
    build_strategy,
    family_counts,
    mc_graph,
    mc_species,
    path_to_moves,
    solve_mc,
    solve_species,
    species_graph,
    spell_out,
    validate_params,
    wolf_goat_cabbage,
)
from rivercross import puzzle
from rivercross.digraph import count_shortest_paths, unrank_shortest_path
from rivercross.puzzle import MAX_CROSSINGS, species_loads
from rivercross.transfer import solve_by_transfer
from rivercross.digraph import count_shortest_walks

from classic import CLASSIC, CLASSIC_SOLUTIONS
from reference import reference_species_graph, reference_state_ok
from test_transfer import verdict_puzzles


def grid_instances(m_max=6, c_max=6, b_max=5, d_max=2):
    for m, c, b, d in itertools.product(
        range(1, m_max + 1), range(1, c_max + 1), range(2, b_max + 1), range(0, d_max + 1)
    ):
        p = McParams(m, c, b, d)
        if m - c >= d:
            yield p


def legal_vectors(p):
    """Oracle: bank vectors satisfying both outnumbering rules, by direct inequality."""
    out = []
    for m in range(p.missionaries + 1):
        for c in range(p.cannibals + 1):
            if m > 0 and c > 0 and m - c < p.safety_margin:
                continue
            fm, fc = p.missionaries - m, p.cannibals - c
            if fm > 0 and fc > 0 and fm - fc < p.safety_margin:
                continue
            out.append((m, c))
    return out


def oracle_successors(p, s):
    """Oracle: states one legal crossing away from s, by direct inequality."""
    legal = set(legal_vectors(p))
    sign = -1 if s.boat == 1 else 1
    out = set()
    for e1 in range(p.boat_capacity + 1):
        for e2 in range(p.boat_capacity - e1 + 1):
            if e1 + e2 == 0 or (e1 > 0 and e2 > 0 and e1 - e2 < p.safety_margin):
                continue
            nxt = (s.missionaries + sign * e1, s.cannibals + sign * e2)
            if nxt in legal:
                out.add(BankState(*nxt, 1 - s.boat))
    return out


def is_legal_state(p, s):
    """Whether s lies in the box with both banks safe, by the oracle's own check."""
    return reference_state_ok(mc_species(p), (s.missionaries, s.cannibals), s.boat == 1)


def boat_loads(p):
    return species_loads(mc_species(p))


def legal_moves(p, s):
    """The crossings out of s with the states they lead to, read off the state graph, by load."""
    graph, states = mc_graph(p)
    successors = (states[w - 1] for w in graph.out(states.index(s) + 1))
    return sorted((path_to_moves((s, nxt))[0], nxt) for nxt in successors)


class TestValidateParams:
    def test_classic_ok(self):
        validate_params(CLASSIC)

    def test_boat_too_small(self):
        with pytest.raises(ParamError) as err:
            validate_params(McParams(3, 3, 1, 0))
        assert err.value.code == "boat-capacity"

    def test_margin_breaks_initial_state(self):
        with pytest.raises(ParamError) as err:
            validate_params(McParams(3, 3, 2, 1))
        assert err.value.code == "initial-state"

    def test_population_minimums(self):
        with pytest.raises(ParamError) as err:
            validate_params(McParams(0, 3, 2, 0))
        assert err.value.code == "missionaries"
        with pytest.raises(ParamError) as err:
            validate_params(McParams(3, 0, 2, 0))
        assert err.value.code == "cannibals"


def _no_compile(sp):
    raise AssertionError(f"compiled {sp.amounts} before the size check")


class TestSizeLimits:
    """`validate_params` owns both limits, so every entry point refuses before it compiles."""

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: mc_graph(McParams(99999, 1, 2, 0)), id="mc_graph"),
        pytest.param(lambda: solve_mc(McParams(99999, 1, 2, 0)), id="solve_mc"),
        pytest.param(lambda: applicability(McParams(99999, 1, 2, 0)), id="applicability"),
        pytest.param(lambda: build_strategy(McParams(99999, 1, 2, 0), Strategy.BIG_BOAT_1),
                     id="build_strategy"),
        # Member 1, (1, 1, 2, 0), is well-posed; member 400 has a box of 160,801.
        pytest.param(lambda: family_counts(FamilySpec(0, 2, 0, 400)), id="family_counts"),
    ])
    def test_state_box_refused_before_any_compile(self, monkeypatch, call):
        monkeypatch.setattr(puzzle, "species_graph", _no_compile)
        with pytest.raises(ParamError) as err:
            call()
        assert err.value.code == "state-box"

    def test_crossing_bound_refused_before_any_compile(self, monkeypatch):
        monkeypatch.setattr(puzzle, "species_graph", _no_compile)
        with pytest.raises(ParamError) as err:
            mc_graph(McParams(300, 300, 600, -600))  # inside the box limit
        assert err.value.code == "crossing-bound"
        assert str(err.value) == ("crossing bound 2(M+1)(C+1)L = 16416901200, L = 90600 loads, "
                                  f"is above the limit {MAX_CROSSINGS}")

    def test_the_box_is_checked_first(self):
        for p in (McParams(400, 400, 2, 0), McParams(400, 400, 800, 0)):
            with pytest.raises(ParamError) as err:
                validate_params(p)
            assert err.value.code == "state-box"

    @pytest.mark.parametrize("p, admitted", [
        (McParams(315, 315, 8, 0), True),       # a bound of 8.8 million
        (McParams(86, 86, 9, 0), True),         # the benchmark's largest
        (McParams(54, 54, 54, -54), True),      # 9.3 million
        (McParams(55, 55, 55, -55), False),     # 10,003,840
        (McParams(80, 80, 160, -160), False),   # 86 million
        (McParams(100, 100, 200, 0), False),    # 208 million
    ])
    def test_documented_instances(self, p, admitted):
        if admitted:
            validate_params(p)
        else:
            with pytest.raises(ParamError, match="^crossing bound"):
                validate_params(p)

    def test_bound_counts_each_load_that_fits(self, monkeypatch):
        """Under a low limit, an instance is refused exactly when its bound, counted load by
        load, is above it, and the message names that bound and L."""
        monkeypatch.setattr(puzzle, "MAX_CROSSINGS", 4000)
        for m, c, b in itertools.product(range(1, 9), range(1, 9), range(2, 19)):
            loads = sum(1 <= x + y <= b for x in range(m + 1) for y in range(c + 1))
            bound = 2 * (m + 1) * (c + 1) * loads
            p = McParams(m, c, b, -20)
            if bound > 4000:
                with pytest.raises(ParamError, match=f"= {bound}, L = {loads} loads, .* 4000$"):
                    validate_params(p)
            else:
                validate_params(p)


class TestLegalState:
    def test_initial_state_legal(self):
        assert is_legal_state(CLASSIC, BankState(3, 3, 1))

    def test_outnumbered_start_bank(self):
        assert not is_legal_state(CLASSIC, BankState(1, 2, 0))

    def test_empty_start_bank_side(self):
        assert is_legal_state(CLASSIC, BankState(0, 2, 0))

    def test_out_of_range_rejected(self):
        # A return crossing that would put a fourth missionary on the start bank.
        path = (BankState(3, 3, 1), BankState(3, 2, 0), BankState(4, 2, 1))
        with pytest.raises(ValueError, match="index 1"):
            spell_out(CLASSIC, path)

    def test_margin_applies_to_both_banks(self):
        p = McParams(5, 3, 3, 1)
        assert is_legal_state(p, BankState(4, 3, 1))       # start 4-3 >= 1, far bank has no cannibals
        assert not is_legal_state(p, BankState(3, 3, 1))   # start surplus 0 below margin
        assert not is_legal_state(p, BankState(4, 1, 0))   # far bank 1,2 outnumbered

    def test_mirror_symmetry(self):
        for p in grid_instances(4, 4, 3, 2):
            for m in range(p.missionaries + 1):
                for c in range(p.cannibals + 1):
                    for b in (0, 1):
                        mirrored = BankState(p.missionaries - m, p.cannibals - c, 1 - b)
                        assert is_legal_state(p, BankState(m, c, b)) == is_legal_state(p, mirrored)


class TestBoatLoads:
    def test_classic_loads(self):
        assert set(boat_loads(CLASSIC)) == {(1, 0), (2, 0), (0, 1), (0, 2), (1, 1)}

    def test_margin_one_excludes_balanced_pair(self):
        assert set(boat_loads(McParams(5, 3, 2, 1))) == {(1, 0), (2, 0), (0, 1), (0, 2)}

    def test_boat_three_margin_one(self):
        assert set(boat_loads(McParams(9, 3, 3, 1))) == {
            (1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3), (2, 1)
        }

    def test_margin_two_boat_two_loses_all_mixed(self):
        assert set(boat_loads(McParams(9, 3, 2, 2))) == {(1, 0), (2, 0), (0, 1), (0, 2)}

    def test_sorted_output(self):
        loads = boat_loads(McParams(9, 3, 4, 1))
        assert list(loads) == sorted(loads)

    def test_no_load_exceeds_a_species(self):
        assert boat_loads(McParams(2, 1, 5, 0)) == ((0, 1), (1, 0), (1, 1), (2, 0), (2, 1))


class TestLegalMoves:
    def test_initial_successors(self):
        got = legal_moves(CLASSIC, BankState(3, 3, 1))
        assert got == [
            (Move(0, 1, True), BankState(3, 2, 0)),
            (Move(0, 2, True), BankState(3, 1, 0)),
            (Move(1, 1, True), BankState(2, 2, 0)),
        ]

    def test_goal_state_offers_only_back_moves(self):
        got = legal_moves(CLASSIC, BankState(0, 0, 0))
        assert all(not mv.forward for mv, _ in got)

    def test_far_bank_state(self):
        got = legal_moves(CLASSIC, BankState(0, 1, 0))
        targets = [s for _, s in got]
        assert targets == [BankState(0, 2, 1), BankState(0, 3, 1), BankState(1, 1, 1)]

    def test_never_produces_illegal_state(self):
        for p in grid_instances():
            graph, states = mc_graph(p)
            legal = set(legal_vectors(p))
            for i, j in graph.edges():
                a, b = states[i - 1], states[j - 1]
                assert (a.missionaries, a.cannibals) in legal
                assert (b.missionaries, b.cannibals) in legal
                (mv,) = path_to_moves((a, b))
                assert 0 < mv.missionaries + mv.cannibals <= p.boat_capacity

    def test_rejects_illegal_source(self):
        assert not is_legal_state(CLASSIC, BankState(1, 3, 1))
        with pytest.raises(ValueError):
            legal_moves(CLASSIC, BankState(1, 3, 1))
        path = (BankState(3, 3, 1), BankState(1, 3, 0))
        with pytest.raises(ValueError, match="index 0"):
            spell_out(CLASSIC, path)


class TestMcGraph:
    def test_vertex_bookends(self):
        graph, states = mc_graph(CLASSIC)
        assert states[0] == BankState(3, 3, 1)
        assert states[-1] == BankState(0, 0, 0)

    def test_vertex_count_doubles_legal_vectors(self):
        for p in grid_instances(5, 5, 4, 2):
            graph, states = mc_graph(p)
            assert graph.n == 2 * len(legal_vectors(p))
            assert len(states) == graph.n

    def test_44_has_26_vertices(self):
        graph, _ = mc_graph(McParams(4, 4, 2, 0))
        assert graph.n == 26

    def test_edges_match_legal_moves(self):
        for p in (CLASSIC, *grid_instances(4, 4, 3, 2)):
            graph, states = mc_graph(p)
            index = {s: v for v, s in enumerate(states, start=1)}
            for v, s in enumerate(states, start=1):
                expected = sorted(index[nxt] for nxt in oracle_successors(p, s))
                assert list(graph.out(v)) == expected

    def test_complement_involution_on_edges(self):
        for p in grid_instances(4, 4, 3, 1):
            graph, states = mc_graph(p)
            index = {s: v for v, s in enumerate(states, start=1)}
            edges = {(states[i - 1], states[j - 1]) for i, j in graph.edges()}
            for a, b in edges:
                mb = BankState(p.missionaries - b.missionaries,
                               p.cannibals - b.cannibals, 1 - b.boat)
                ma = BankState(p.missionaries - a.missionaries,
                               p.cannibals - a.cannibals, 1 - a.boat)
                assert (mb, ma) in edges


class TestSolveMc:
    def test_classic_solutions_exact(self):
        crossings, solutions = solve_mc(CLASSIC)
        assert crossings == 11
        assert solutions == CLASSIC_SOLUTIONS

    def test_unsolvable_is_none(self):
        assert solve_mc(McParams(4, 4, 2, 0)) is None

    def test_everyone_fits(self):
        crossings, solutions = solve_mc(McParams(2, 2, 4, 0))
        assert crossings == 1
        assert solutions[0] == (BankState(2, 2, 1), BankState(0, 0, 0))

    def test_single_pair(self):
        crossings, solutions = solve_mc(McParams(1, 1, 2, 0))
        assert crossings == 1 and len(solutions) == 1

    def test_solutions_are_valid_paths(self):
        for p in grid_instances(4, 4, 3, 1):
            result = solve_mc(p)
            if result is None:
                continue
            crossings, solutions = result
            assert crossings % 2 == 1
            for sol in solutions:
                spell_out(p, sol)
                moves = path_to_moves(sol)
                assert [mv.forward for mv in moves] == [i % 2 == 0 for i in range(len(moves))]

    def test_enumeration_sorted_and_matched_by_dag(self):
        # shortest_paths yields paths in vertex order and vertices are
        # numbered in state order, so the solver needs no sort; the order of
        # CLASSIC_SOLUTIONS and of the goldens rests on this.  The count on the
        # distance DAG equals the enumeration's length, the walk count and the
        # transfer count, and unranking returns the enumerated solution at every
        # index of a small set, and at both ends and the middle of a large one.
        wgc = wolf_goat_cabbage()
        cases = itertools.chain(
            ((mc_graph(p), solve_mc(p), mc_species(p)) for p in grid_instances(8, 8, 5, 2)),
            [(species_graph(wgc), solve_species(wgc), wgc)])
        solvable = 0
        for (graph, states), enumerated, sp in cases:
            counted = count_shortest_paths(graph, 1, graph.n)
            walks = count_shortest_walks(graph, 1, graph.n)
            outcome = solve_by_transfer(sp)
            if counted is None:
                assert enumerated is None and walks is None and not outcome.solvable
                continue
            solvable += 1
            crossings, solutions = enumerated
            assert list(solutions) == sorted(solutions), sp.amounts
            assert ((counted.length, counted.count) == (crossings, len(solutions)) == walks
                    == (outcome.crossings, outcome.count)), sp.amounts
            n = counted.count
            for k in range(n) if n <= 500 else (0, n // 2, n - 1):
                path = unrank_shortest_path(counted, k)
                assert tuple(states[v - 1] for v in path) == solutions[k], (sp.amounts, k)
        assert solvable == 227 + 1  # the grid, then wolf-goat-cabbage

    def test_solution_set_closed_under_involution(self):
        for p in (CLASSIC, McParams(5, 5, 3, 0), McParams(6, 1, 3, 1)):
            result = solve_mc(p)
            assert result is not None
            _, solutions = result
            mc, cc = p.missionaries, p.cannibals
            flipped = {
                tuple(BankState(mc - s.missionaries, cc - s.cannibals, 1 - s.boat)
                      for s in reversed(sol))
                for sol in solutions
            }
            assert flipped == set(solutions)


class TestSpeciesPuzzles:
    def test_wolf_goat_cabbage(self):
        result = solve_species(wolf_goat_cabbage())
        assert result is not None
        crossings, solutions = result
        assert crossings == 7
        assert len(solutions) == 2

    def test_mc_instance_equals_direct_graph(self):
        direct, states = mc_graph(CLASSIC)
        via_species, raw = species_graph(mc_species(CLASSIC))
        assert direct == via_species
        assert states == tuple(BankState(v[0], v[1], f) for v, f in raw)

    def test_single_species_trivial(self):
        sp = SpeciesPuzzle(
            names=("sheep",),
            amounts=(2,),
            boat_capacity=2,
            bank_rule=lambda v, boat: True,
            boat_rule=lambda load: True,
        )
        result = solve_species(sp)
        assert result is not None and result[0] == 1

    def test_illegal_initial_position_rejected(self):
        sp = SpeciesPuzzle(
            names=("a",),
            amounts=(1,),
            boat_capacity=2,
            bank_rule=lambda v, boat: v[0] == 0,
            boat_rule=lambda load: True,
        )
        with pytest.raises(ValueError):
            species_graph(sp)
        with pytest.raises(ValueError, match="initial position"):
            solve_by_transfer(sp)

    def test_negative_amount_rejected_before_the_rule(self):
        asked = []
        sp = SpeciesPuzzle(
            names=("a", "b"),
            amounts=(3, -1),
            boat_capacity=2,
            bank_rule=lambda v, boat: asked.append(v) or True,
            boat_rule=lambda load: True,
        )
        with pytest.raises(ValueError, match="amounts must be non-negative"):
            species_graph(sp)
        assert asked == []

    def test_boat_dependent_illegal_start_rejected_by_transfer(self):
        # Legal once the boat has left, so the far-side states alone look fine.
        sp = SpeciesPuzzle(
            names=("a",),
            amounts=(2,),
            boat_capacity=2,
            bank_rule=lambda v, boat: v[0] != 2 or not boat,
            boat_rule=lambda load: True,
        )
        with pytest.raises(ValueError, match="initial position"):
            solve_by_transfer(sp)


def three_species(boat_side: bool) -> SpeciesPuzzle:
    """Unequal amounts, so the three radices differ; optionally a bank rule that reads the boat."""

    def bank_rule(v, boat_present):
        if boat_side and boat_present:
            return True
        return not (v[1] and v[2] > v[0])

    return SpeciesPuzzle(
        names=("a", "b", "c"),
        amounts=(3, 1, 2),
        boat_capacity=2,
        bank_rule=bank_rule,
        boat_rule=lambda load: load[0] >= load[2],
    )


def boat_side_pairs() -> SpeciesPuzzle:
    """Cannibals may outnumber missionaries only on the bank where the boat is."""
    return SpeciesPuzzle(
        names=("missionaries", "cannibals"),
        amounts=(4, 3),
        boat_capacity=2,
        bank_rule=lambda v, boat: boat or not (0 < v[0] < v[1]),
        boat_rule=lambda load: True,
    )


class TestCompiledGraph:
    """`species_graph` against a direct-loop oracle: same rows, same numbering, same states."""

    def test_mc_grid(self):
        instances = 0
        for p in grid_instances(8, 8, 5, 2):
            sp = mc_species(p)
            assert species_graph(sp) == reference_species_graph(sp), p
            instances += 1
        assert instances == 340

    def test_other_puzzles_with_and_without_empty_crossings(self):
        puzzles = [wolf_goat_cabbage(), three_species(False), three_species(True),
                   boat_side_pairs()]
        puzzles += [mc_species(p) for p in grid_instances(4, 4, 3, 1)]
        for sp in puzzles:
            for empty in (False, True):
                variant = sp._replace(allow_empty_boat=empty)
                assert species_graph(variant) == reference_species_graph(variant), (
                    sp.names, sp.amounts, empty)

    def test_boat_side_rule_changes_the_graph(self):
        # The oracle comparison means something only if the boat side matters here.
        with_boat, without = three_species(True), three_species(False)
        assert species_graph(with_boat)[1] != species_graph(without)[1]


class TestMirror:
    """The palindromic numbering that `digraph.meet_in_the_middle` relies on."""

    def test_complements_mirror_vertices_and_edges(self):
        puzzles = list(verdict_puzzles())
        puzzles += [sp._replace(allow_empty_boat=empty)
                    for sp in (wolf_goat_cabbage(), boat_side_pairs(),
                               three_species(False), three_species(True))
                    for empty in (False, True)]
        for sp in puzzles:
            graph, states = species_graph(sp)
            n = graph.n
            for v, (vec, flag) in enumerate(states, start=1):
                complement = tuple(a - e for a, e in zip(sp.amounts, vec))
                assert states[n - v] == (complement, 1 - flag), (sp.amounts, v)
            edges = set(graph.edges())
            for u, v in edges:
                assert (n + 1 - v, n + 1 - u) in edges, (sp.amounts, u, v)
                assert states[u - 1][1] != states[v - 1][1], (sp.amounts, u, v)
        assert len(puzzles) == 936 + 8


class TestBridges:
    def test_check_rejects_wrong_start(self):
        with pytest.raises(ValueError, match="index 0"):
            spell_out(CLASSIC, (BankState(2, 2, 1), BankState(0, 0, 0)))

    def test_check_rejects_illegal_jump(self):
        path = (BankState(3, 3, 1), BankState(0, 0, 0))
        with pytest.raises(ValueError, match="index 0"):
            spell_out(CLASSIC, path)

    def test_check_rejects_repeat(self):
        # A complete, legal script that loops back to the initial state once.
        path = (BankState(3, 3, 1), BankState(2, 2, 0), *CLASSIC_SOLUTIONS[0])
        with pytest.raises(ValueError, match="index 2: state \\(3, 3, 1\\) repeats"):
            spell_out(CLASSIC, path)

    def test_check_rejects_boat_staying_put(self):
        path = (BankState(3, 3, 1), BankState(2, 2, 1))
        with pytest.raises(ValueError, match="index 0"):
            spell_out(CLASSIC, path)

    def test_check_rejects_incomplete_path(self):
        with pytest.raises(ValueError, match="index 2: .*not the goal"):
            spell_out(CLASSIC, CLASSIC_SOLUTIONS[0][:3])


class TestSpellOut:
    def test_first_crossing_phrase(self):
        text = spell_out(CLASSIC, CLASSIC_SOLUTIONS[0])
        first = text.split("\n")[0]
        assert "1 missionary and 1 cannibal cross" in first

    def test_line_count(self):
        text = spell_out(CLASSIC, CLASSIC_SOLUTIONS[0])
        assert len(text.split("\n")) == 12  # 11 crossings plus the completion line

    def test_single_crossing_instance(self):
        p = McParams(1, 1, 2, 0)
        _, solutions = solve_mc(p)
        lines = spell_out(p, solutions[0]).split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("1. 1 missionary and 1 cannibal cross")

    def test_invalid_path_names_index(self):
        bad = list(CLASSIC_SOLUTIONS[0])
        bad[5] = BankState(1, 3, 0)
        with pytest.raises(ValueError, match="index 4"):
            spell_out(CLASSIC, tuple(bad))

    def test_deterministic(self):
        a = spell_out(CLASSIC, CLASSIC_SOLUTIONS[1])
        b = spell_out(CLASSIC, CLASSIC_SOLUTIONS[1])
        assert a == b

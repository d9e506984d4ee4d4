"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every expectation is exact; there are no tolerances anywhere.
"""

import itertools
from collections import deque
from fractions import Fraction

from rivercross import (
    BankState,
    FamilySpec,
    McParams,
    conjecture_report,
    family_counts,
    fit_linear_recurrence,
    mc_graph,
    mc_species,
    rational_gf,
    series_coefficients,
    solve_by_transfer,
    solve_mc,
    solve_species,
    validate_params,
    wolf_goat_cabbage,
)
from rivercross.digraph import Digraph, shortest_distance
from rivercross.strategies import (
    Strategy,
    applicability,
    build_strategy,
    validate_solution,
)
from rivercross.transfer import cleanup, transfer_trace
from rivercross.digraph import count_shortest_walks

from classic import (
    CLASSIC,
    CLASSIC_F,
    CLASSIC_G,
    CLASSIC_SOLUTIONS,
    FIB_FAMILY_TERMS,
    SURPLUS9_GF_DEN,
    SURPLUS9_GF_NUM,
    fibonacci,
)


def verdict(number, text):
    print(f"ACCEPTANCE {number:2d}: PASS - {text}")


def test_criterion_01_classic_instance():
    result = solve_mc(CLASSIC)
    assert result is not None
    crossings, solutions = result
    assert crossings == 11
    assert len(solutions) == 4
    assert solutions == CLASSIC_SOLUTIONS
    verdict(1, "classic instance: exactly the 4 known 11-crossing solutions, byte-exact")


def test_criterion_02_five_five_boat_three():
    result = solve_mc(McParams(5, 5, 3, 0))
    assert result is not None
    _, solutions = result
    assert len(solutions) == 25
    verdict(2, "(5,5,3,0): exactly 25 shortest solutions")


def test_criterion_03_four_four_unsolvable_three_ways():
    p = McParams(4, 4, 2, 0)
    assert solve_mc(p) is None
    graph, _ = mc_graph(p)
    assert count_shortest_walks(graph, 1, graph.n) is None
    outcome = solve_by_transfer(mc_species(p))
    assert not outcome.solvable
    assert outcome.states_bound == 13
    assert outcome.iterations_run <= 14
    verdict(3, "(4,4,2,0): unsolvable by all 3 methods; 13 legal states, done by stage 14")


def test_criterion_04_transfer_trace_reproduced():
    trace = transfer_trace(mc_species(CLASSIC), 6)
    assert trace.initial == CLASSIC_F[0]
    for i in range(1, 6):
        assert trace.steps[i - 1][0] == CLASSIC_G[i], f"g{i}"
        assert trace.steps[i - 1][1] == CLASSIC_F[i], f"f{i}"
    g6 = trace.steps[5][0]
    assert g6 == CLASSIC_G[6]
    assert g6[(3, 2)] == 1619  # leading coefficient recomputed, not the misprinted 619
    assert g6[(0, 1)] == 28 and g6[(0, 0)] == 4  # anchored tail
    verdict(4, "transfer trace g1..f5 coefficient-exact; g6 leads with 1619, ends +28*x2+4")


def test_criterion_05_fibonacci_family():
    assert family_counts(FamilySpec(5, 3, 1, 8)) == list(FIB_FAMILY_TERMS)
    report = conjecture_report(FamilySpec(5, 3, 1, 14), max_order=3)
    rec = report.recurrence
    assert rec is not None and rec.order == 2
    assert rec.coefficients == (Fraction(1), Fraction(1))
    assert report.valid_from_term == 3
    for i, term in enumerate(report.counts, start=1):
        if i >= 3:
            assert term == fibonacci(i + 4), f"term {i}"
    verdict(5, "family (surplus 5, boat 3, margin 1): a(i)=a(i-1)+a(i-2) from i=3, "
               "values F(i+4) through i=14")


def test_criterion_06_constant_361():
    for i in (7, 8, 9):
        result = solve_mc(McParams(i, i, 4, 0))
        assert result is not None
        crossings, solutions = result
        assert crossings == 2 * i - 3
        assert len(solutions) == 361
    verdict(6, "(i,i,4,0) for i=7,8,9: exactly 361 solutions in 2i-3 crossings")


def test_criterion_07_equal_population_cutoffs():
    for n in range(1, 9):
        assert (solve_mc(McParams(n, n, 2, 0)) is not None) == (n <= 3)
        assert (solve_mc(McParams(n, n, 3, 0)) is not None) == (n <= 5)
    verdict(7, "equal populations: boat 2 solvable iff n<=3, boat 3 iff n<=5 (n=1..8)")


def test_criterion_08_surplus_nine_generating_function():
    # a(n) for n+9 missionaries, n cannibals, boat 2, margin 0; n = 0..14.
    counts = family_counts(FamilySpec(9, 2, 0, 15), start=0)
    assert all(v is not None for v in counts)
    rec = None
    for offset in range(len(counts)):
        usable = min(4, (len(counts) - offset - 2) // 2)
        if usable < 1:
            break
        rec = fit_linear_recurrence(counts, usable, offset)
        if rec is not None:
            break
    assert rec is not None
    gf = rational_gf(rec, counts)
    assert series_coefficients(gf, 15) == counts  # covers the required n = 0..11
    # The derived coefficients agree with the classic published form exactly.
    assert gf.denominator == SURPLUS9_GF_DEN
    assert gf.numerator == SURPLUS9_GF_NUM
    verdict(8, "surplus-9 family: fitted GF reproduces a(0..11) and beyond; "
               "denominator 4x^4-384x^3+337x^2-39x+1 confirmed")


def test_criterion_09_three_way_agreement_grid():
    instances = 0
    for m, c, b, d in itertools.product(range(1, 7), range(1, 7), range(2, 6), range(0, 3)):
        p = McParams(m, c, b, d)
        if m - c < d:
            continue
        validate_params(p)
        instances += 1
        enum = solve_mc(p)
        graph, _ = mc_graph(p)
        walks = count_shortest_walks(graph, 1, graph.n)
        outcome = solve_by_transfer(mc_species(p))
        if enum is None:
            assert walks is None and not outcome.solvable, p
        else:
            crossings, solutions = enum
            assert walks == (crossings, len(solutions)), p
            assert outcome.solvable, p
            assert (outcome.crossings, outcome.count) == (crossings, len(solutions)), p
    assert instances == 184
    verdict(9, f"three-way agreement on all {instances} grid instances "
               "(M,C in 1..6, B in 2..5, d in 0..2)")


def test_criterion_10_strategy_soundness_sweep():
    built = 0
    for m in range(1, 31):
        for c in range(1, 31):
            for b in range(2, 13):
                for d in range(0, 4):
                    if m - c < d:
                        continue
                    p = McParams(m, c, b, d)
                    for strategy in applicability(p):
                        moves = build_strategy(p, strategy)
                        assert moves is not None
                        violation = validate_solution(p, moves)
                        assert violation is None, (p, strategy, violation)
                        built += 1
                        if strategy is Strategy.ZERO_MARGIN_EQUAL_BIG_BOAT:
                            assert len(moves) == 2 * m - 3, p
    for n in range(7, 11):
        p = McParams(n, n, 4, 0)
        moves = build_strategy(p, Strategy.ZERO_MARGIN_EQUAL_BIG_BOAT)
        graph, _ = mc_graph(p)
        assert len(moves) == shortest_distance(graph, 1, graph.n) == 2 * n - 3
    verdict(10, f"{built} strategy builds on the sweep grid all validate; "
                "equal-population big-boat schedule is 2n-3 and BFS-optimal for n=7..10")


def test_criterion_11_property_suites():
    # Complement-reversal involution closes each solution set.
    for p in (CLASSIC, McParams(5, 5, 3, 0), McParams(6, 1, 3, 1)):
        _, solutions = solve_mc(p)
        flipped = {
            tuple(BankState(p.missionaries - s.missionaries,
                            p.cannibals - s.cannibals, 1 - s.boat)
                  for s in reversed(sol))
            for sol in solutions
        }
        assert flipped == set(solutions)

    # Clean-up is idempotent and linear and preserves legal coefficients.
    sp = mc_species(CLASSIC)
    a = {(3, 3): 2, (1, 2): 4, (3, 0): 1, (4, 0): 9}
    b = {(3, 3): 5, (0, 2): 3, (2, 3): 9}
    ca, cb = cleanup(a, sp, True), cleanup(b, sp, True)
    assert cleanup(ca, sp, True) == ca
    merged = dict(a)
    for k, v in b.items():
        merged[k] = merged.get(k, 0) + v
    summed = dict(ca)
    for k, v in cb.items():
        summed[k] = summed.get(k, 0) + v
    assert cleanup(merged, sp, True) == summed
    assert ca[(3, 3)] == 2 and cb[(3, 3)] == 5

    # Odd crossing parity on every solution over the small grid.
    for m, c, b_, d in itertools.product(range(1, 6), range(1, 6), range(2, 5), range(0, 3)):
        if m - c < d:
            continue
        result = solve_mc(McParams(m, c, b_, d))
        if result is not None:
            assert result[0] % 2 == 1

    # Exact big-integer counting on a layered graph with more than 2^64 paths.
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
    assert count == width**layers
    assert count > 2**64
    verdict(11, "involution closure, clean-up idempotence/linearity, odd parity, "
                f"and exact count {count} (> 2^64) on the layered graph")


def brute_force_species_count(sp):
    """Independent oracle: BFS over raw state tuples, then count minimal paths by DP."""
    start = (sp.amounts, 1)
    goal = (tuple(0 for _ in sp.amounts), 0)

    def neighbors(state):
        vec, flag = state
        out = []
        for load in itertools.product(range(sp.boat_capacity + 1), repeat=len(vec)):
            total = sum(load)
            if total > sp.boat_capacity:
                continue
            if total == 0 and not sp.allow_empty_boat:
                continue
            if total > 0 and not sp.boat_rule(load):
                continue
            if flag == 1:
                nxt = tuple(v - l for v, l in zip(vec, load))
            else:
                nxt = tuple(v + l for v, l in zip(vec, load))
            if any(x < 0 or x > a for x, a in zip(nxt, sp.amounts)):
                continue
            here = sp.bank_rule(nxt, flag == 0)
            far = sp.bank_rule(tuple(a - x for a, x in zip(sp.amounts, nxt)), flag == 1)
            if here and far:
                out.append((nxt, 1 - flag))
        return out

    dist = {start: 0}
    ways = {start: 1}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for nxt in neighbors(state):
            if nxt not in dist:
                dist[nxt] = dist[state] + 1
                ways[nxt] = ways[state]
                queue.append(nxt)
            elif dist[nxt] == dist[state] + 1:
                ways[nxt] += ways[state]
    if goal not in dist:
        return None
    return dist[goal], ways[goal]


def test_criterion_12_wolf_goat_cabbage():
    puzzle = wolf_goat_cabbage()
    result = solve_species(puzzle)
    assert result is not None
    crossings, solutions = result
    assert crossings == 7
    assert len(solutions) == 2
    assert brute_force_species_count(puzzle) == (7, 2)
    outcome = solve_by_transfer(puzzle)
    assert outcome.solvable and (outcome.crossings, outcome.count) == (7, 2)
    verdict(12, "wolf-goat-cabbage: 7 crossings, 2 shortest solutions, "
                "confirmed by brute force and transfer")

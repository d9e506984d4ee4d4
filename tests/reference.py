"""Reference implementations that tests compare the package against.

Dense adjacency-matrix powers and their symbolic counterpart, which labels
every edge so each monomial of a matrix entry reconstructs one concrete path,
plus seeded random digraph generators, and a species puzzle's states, state
graph and transfer stage computed by direct loops over loads and banks, and a
recurrence fit that solves every order in turn by Gauss-Jordan elimination, tried
at every offset in turn as a family's conjecture does.  From
the package this module takes only data types, never a rule or a kernel, so a
fault in the package cannot hide behind an oracle that shares it.
"""

import random
from fractions import Fraction
from collections import deque
from itertools import product

from rivercross.digraph import Digraph
from rivercross.puzzle import SpeciesPuzzle
from rivercross.transfer import Polynomial

# A symbolic matrix entry: formal sum of edge-label products, stored as a map
# from a sorted tuple of edges (with multiplicity) to an integer coefficient.
Monomial = tuple[tuple[int, int], ...]
SymEntry = dict[Monomial, int]


def random_digraph(n: int, edge_probability: float, seed: int) -> Digraph:
    """Random digraph: each ordered pair (i, j), i != j, is an edge with the given probability.

    Driven by the Mersenne Twister (random.Random) seeded with `seed`; pairs are
    drawn in row-major order, so output is reproducible across runs and platforms.
    """
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if not 0 <= edge_probability <= 1:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    rows = []
    for i in range(1, n + 1):
        rows.append(tuple(j for j in range(1, n + 1)
                          if j != i and rng.random() < edge_probability))
    return Digraph(tuple(rows))


def random_mirrored_digraph(half: int, edge_probability: float, seed: int) -> Digraph:
    """Random digraph on n = 2*half vertices, mirrored like a puzzle's state graph.

    Each vertex gets a side, with 1 and n apart and v and n+1-v apart.  Each
    ordered pair (u, v) across the sides is drawn, in row-major order, as an
    edge with the given probability, and an edge u -> v brings its mirror
    n+1-v -> n+1-u, so the graph is mirror-closed and bipartite.  No reverse
    edge is added, so a graph with edges is, with few exceptions, not reversible.
    """
    rng = random.Random(seed)
    n = 2 * half
    side = [0, 0] + [rng.randrange(2) for _ in range(half - 1)]  # side[v] for v <= half
    side += [1 - side[n + 1 - v] for v in range(half + 1, n + 1)]
    rows: list[set[int]] = [set() for _ in range(n)]
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if side[u] != side[v] and rng.random() < edge_probability:
                rows[u - 1].add(v)
                rows[n - v].add(n + 1 - u)
    return Digraph.build(rows)


def adjacency_matrix(g: Digraph) -> list[list[int]]:
    """Dense 0-1 adjacency matrix; entry [i-1][j-1] is 1 iff edge i -> j."""
    n = g.n
    mat = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in g.out(i):
            mat[i - 1][j - 1] = 1
    return mat


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Exact integer matrix product."""
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        row = a[i]
        acc = out[i]
        for k, val in enumerate(row):
            if val:
                brow = b[k]
                for j in range(n):
                    if brow[j]:
                        acc[j] += val * brow[j]
    return out


def symbolic_adjacency(g: Digraph) -> list[list[SymEntry]]:
    """Adjacency matrix over formal edge labels: entry (i, j) is the label of edge i -> j."""
    n = g.n
    mat: list[list[SymEntry]] = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(1, n + 1):
        for j in g.out(i):
            mat[i - 1][j - 1] = {((i, j),): 1}
    return mat


def symbolic_shortest_paths(
        g: Digraph, source: int, target: int) -> tuple[int, list[tuple[int, ...]]] | None:
    """Reconstruct all shortest paths, as (length, sorted paths), from the symbolic matrix power.

    The power k comes from the numeric count; the source row of the symbolic
    matrix is then raised to the same power.  Every monomial of the target
    entry is a squarefree edge set forming a single chain, which is decoded
    back into a vertex path.
    """
    k = bfs_distance(g, source, target)
    if k is None:
        return None
    n = g.n
    row: list[SymEntry] = [{} for _ in range(n)]
    row[source - 1] = {(): 1}
    for _ in range(k):
        nxt: list[SymEntry] = [{} for _ in range(n)]
        for i0, entry in enumerate(row):
            if not entry:
                continue
            for j in g.out(i0 + 1):
                edge = (i0 + 1, j)
                cell = nxt[j - 1]
                for mono, coeff in entry.items():
                    grown = tuple(sorted(mono + (edge,)))
                    cell[grown] = cell.get(grown, 0) + coeff
        row = nxt
    entry = row[target - 1]
    paths = sorted(_chain(mono, source, target, k) for mono in entry)
    return k, paths


def _chain(mono: Monomial, source: int, target: int, length: int) -> tuple[int, ...]:
    """Order a monomial's edge set into the unique source-to-target chain it encodes."""
    successor: dict[int, int] = {}
    for a, b in mono:
        if a in successor:
            raise RuntimeError(f"monomial {mono} does not chain: vertex {a} repeats")
        successor[a] = b
    path = [source]
    at = source
    for _ in range(length):
        if at not in successor:
            raise RuntimeError(f"monomial {mono} does not chain at vertex {at}")
        at = successor.pop(at)
        path.append(at)
    if at != target or successor:
        raise RuntimeError(f"monomial {mono} does not terminate at {target}")
    return tuple(path)


def bfs_distance(g: Digraph, source: int, target: int) -> int | None:
    """Length of a shortest source-to-target path by plain breadth-first search, or None."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if v == target:
            return dist[v]
        for w in g.out(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return None


def reference_loads(sp: SpeciesPuzzle) -> list[tuple[int, ...]]:
    """Every load the boat may carry, by a loop over all vectors up to the capacity."""
    loads = []
    for load in product(range(sp.boat_capacity + 1), repeat=len(sp.amounts)):
        size = sum(load)
        if size > sp.boat_capacity or (size == 0 and not sp.allow_empty_boat):
            continue
        if size == 0 or sp.boat_rule(load):
            loads.append(load)
    return loads


def reference_state_ok(sp: SpeciesPuzzle, vec: tuple[int, ...], boat_on_start: bool) -> bool:
    """Whether `vec` lies in the box and both banks pass the bank rule."""
    if any(not 0 <= v <= a for v, a in zip(vec, sp.amounts)):
        return False
    far = tuple(a - v for a, v in zip(sp.amounts, vec))
    return sp.bank_rule(vec, boat_on_start) and sp.bank_rule(far, not boat_on_start)


def reference_crossings(sp: SpeciesPuzzle, vec: tuple[int, ...], forward: bool) -> list[tuple[int, ...]]:
    """Start-bank populations after each load crosses from `vec`, if the leaving bank holds it."""
    out = []
    for load in reference_loads(sp):
        if forward:
            after = tuple(v - e for v, e in zip(vec, load))
        else:
            after = tuple(v + e for v, e in zip(vec, load))
        if all(0 <= v <= a for v, a in zip(after, sp.amounts)):
            out.append(after)
    return out


def reference_states(sp: SpeciesPuzzle) -> list[tuple[tuple[int, ...], int]]:
    """Every legal (populations, boat flag) state, in lexicographic order."""
    return [(vec, flag)
            for vec in product(*(range(a + 1) for a in sp.amounts))
            for flag in (0, 1)
            if reference_state_ok(sp, vec, flag == 1)]


def reference_species_graph(sp: SpeciesPuzzle) -> tuple[Digraph, tuple]:
    """The state graph by direct loops: initial, the other legal states in order, then the goal."""
    initial = (tuple(sp.amounts), 1)
    goal = (tuple(0 for _ in sp.amounts), 0)
    if not reference_state_ok(sp, *initial):
        raise ValueError("initial position violates the bank rule")
    states = (initial, *(s for s in reference_states(sp) if s not in (initial, goal)), goal)
    number = {state: v for v, state in enumerate(states, start=1)}
    rows = []
    for vec, flag in states:
        after = ((nxt, 1 - flag) for nxt in reference_crossings(sp, vec, flag == 1))
        rows.append(tuple(sorted(number[s] for s in after if s in number)))
    return Digraph(tuple(rows)), states


def reference_transfer_step(poly: Polynomial, sp: SpeciesPuzzle, forward: bool) -> Polynomial:
    """One crossing: shift every monomial by every load, then drop illegal monomials and zeros.

    Forward crossings subtract load vectors and keep states with the boat on
    the far side; return crossings add and keep those with the boat back at
    the start.
    """
    acc: Polynomial = {}
    for mono, coeff in poly.items():
        for shifted in reference_crossings(sp, mono, forward):
            acc[shifted] = acc.get(shifted, 0) + coeff
    return {mono: coeff for mono, coeff in acc.items()
            if coeff and reference_state_ok(sp, mono, not forward)}


def reference_reachable(graph: Digraph, states: tuple) -> set[tuple[tuple[int, ...], int]]:
    """Every state reachable from the initial one, by breadth-first search over the crossings of
    `reference_species_graph`, whose graph and states the caller passes as built."""
    seen = {1}
    queue = deque([1])
    while queue:
        for w in graph.out(queue.popleft()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return {states[v - 1] for v in seen}


def reference_fit_recurrence(seq, max_order: int, offset: int = 0):
    """Minimal-order recurrence fitting seq[offset:], as (order, coefficients, offset, initial), or None.

    Each order from 1 to max_order is solved exactly on every window but the
    last two terms, which are held out; a solution whose last coefficient is 0
    is skipped, and the first one that holds across the whole tail is the fit.
    The caller keeps len(seq) >= 2 * max_order + offset + 2 and offset >= 0.
    """
    tail = [Fraction(v) for v in seq[offset:]]
    hi = len(tail)
    for order in range(1, max_order + 1):
        rows = [[tail[n - j] for j in range(1, order + 1)] + [tail[n]]
                for n in range(order, hi - 2)]
        coeffs = _solve_exact(rows, order)
        if coeffs is None or coeffs[-1] == 0:
            continue
        if all(tail[n] == sum(c * tail[n - j] for j, c in enumerate(coeffs, start=1))
               for n in range(order, hi)):
            return order, tuple(coeffs), offset, tuple(int(v) for v in tail[:order])
    return None


def reference_conjecture_fit(counts, max_order: int):
    """The fit `conjecture_report` makes, as (fit, valid_from_term), or None.

    `counts` is a family's terms, None for an unsolvable one.  Every offset is
    tried in turn with the most orders its tail allows, and the first fit wins;
    `fit` is as `reference_fit_recurrence` gives it.
    """
    if all(v is None for v in counts):
        return None
    numeric = [0 if v is None else v for v in counts]
    for offset in range(len(numeric)):
        usable = min(max_order, (len(numeric) - offset - 2) // 2)
        if usable < 1:
            break
        fit = reference_fit_recurrence(numeric, usable, offset)
        if fit is not None:
            return fit, offset + 1
    return None


def _solve_exact(rows: list[list[Fraction]], ncols: int) -> list[Fraction] | None:
    """Gauss-Jordan over the rationals on an augmented system; free variables become 0."""
    mat = [row[:] for row in rows]
    pivot_of_col: dict[int, int] = {}
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivot_of_col[col] = r
        r += 1
    for row in mat[r:]:
        if row[-1] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for col, prow in pivot_of_col.items():
        solution[col] = mat[prow][-1]
    return solution

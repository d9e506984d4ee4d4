"""Reference implementations that tests compare the package against.

Dense adjacency-matrix powers and their symbolic counterpart, which labels
every edge so each monomial of a matrix entry reconstructs one concrete path,
plus a seeded random digraph generator, and the transfer stage computed
directly, without the successor table.
"""

import random

from rivercross.digraph import Digraph, PathList
from rivercross.puzzle import SpeciesPuzzle, _shifted
from rivercross.transfer import Polynomial, cleanup
from rivercross.walkcount import count_shortest_walks

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


def symbolic_shortest_paths(g: Digraph, source: int, target: int) -> PathList | None:
    """Reconstruct all shortest paths from the symbolic matrix power.

    The power k comes from the numeric count; the source row of the symbolic
    matrix is then raised to the same power.  Every monomial of the target
    entry is a squarefree edge set forming a single chain, which is decoded
    back into a vertex path.
    """
    hit = count_shortest_walks(g, source, target)
    if hit is None:
        return None
    k, _ = hit
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
    return PathList(k, tuple(paths))


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


def reference_transfer_step(poly: Polynomial, sp: SpeciesPuzzle, forward: bool) -> Polynomial:
    """One crossing: shift every monomial by every load, then clean up the sum.

    Forward crossings subtract load vectors and clean with the boat on the far
    side; return crossings add and clean with the boat back at the start.
    """
    acc: Polynomial = {}
    for mono, coeff in poly.items():
        for shifted in _shifted(sp, mono, forward):
            acc[shifted] = acc.get(shifted, 0) + coeff
    return cleanup(acc, sp, boat_on_start=not forward)

"""Every small dependency relation, checked exhaustively.

Random draws can miss a corner case; the small-scope hypothesis (Jackson,
*Software Abstractions*, 2006) is that most faults show on some small
input. The family here is every 0/1 matrix on at most 3 nodes, diagonal
included (1 + 2 + 16 + 512 = 531 of them), and every loop-free digraph on
4 nodes (2**12 = 4,096). Each is built as a dependency matrix four ways:
from an unchecked graph, from explicit rows, from packed masks, and from a
pickle round trip of the graph-built one. Every route must close to the
boolean-power closure and condense alike; on at most 3 nodes, every
symptom set is localized against the docstring definitions.
"""

import pickle
from itertools import combinations, product

import pytest

from depmat.graph import EDGE_KINDS, ActivityGraph
from depmat.localization import candidate_set, independent_faults
from depmat.matrices import DependencyMatrix, condense_sccs, dependency_matrix, transitive_closure

from oracles import closure_by_powers


def _matrices(n: int, loops: bool):
    """Every n x n 0/1 matrix, as lists of rows; with ``loops=False`` the
    diagonal stays zero."""
    cells = [(i, j) for i in range(n) for j in range(n) if loops or i != j]
    for bits in product((0, 1), repeat=len(cells)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), bit in zip(cells, bits):
            rows[i][j] = bit
        yield rows


def _routes(ids: tuple[str, ...], rows: list[list[int]]) -> dict[str, DependencyMatrix]:
    """The matrix of ``rows`` from each builder. The graph's edges take
    every kind in turn: the dependency matrix counts them all."""
    n = len(ids)
    pairs = [(i, j) for i, row in enumerate(rows) for j, bit in enumerate(row) if bit]
    kinds = [sorted(EDGE_KINDS)[k % len(EDGE_KINDS)] for k in range(len(pairs))]
    edges = ([f"e{k}" for k in range(len(pairs))], [i for i, _ in pairs], [j for _, j in pairs], [1] * len(pairs))
    g = ActivityGraph.from_columns((ids, [None] * n, ["auto"] * n), (*edges, kinds))
    from_graph = dependency_matrix(g)
    masks = tuple(sum(bit << j for j, bit in enumerate(row)) for row in rows)
    return {
        "graph": from_graph,
        "rows": DependencyMatrix(ids, tuple(map(tuple, rows))),
        "masks": DependencyMatrix.from_masks(ids, masks),
        "pickled": pickle.loads(pickle.dumps(from_graph)),
    }


def _check_condensation(ids, rows, reach, condensed) -> None:
    """Components are the classes of mutual reachability, ordered by first
    member; edges join the components of every raw edge between two."""
    classes = []
    for i in range(len(ids)):
        if not any(i in members for members in classes):
            classes.append([j for j in range(len(ids)) if j == i or reach[i][j] and reach[j][i]])
    assert condensed.components == tuple(tuple(ids[j] for j in members) for members in classes)
    comp = [condensed.component_of[v] for v in ids]
    edges = {(comp[i], comp[j]) for i, row in enumerate(rows) for j, bit in enumerate(row) if bit}
    assert condensed.edges == tuple(sorted((c, d) for c, d in edges if c != d))


def _check_localization(ids, reach, closure) -> None:
    """Every non-empty symptom set: a candidate set is the symptom and all
    it reaches; a symptom is independent iff its candidate set is itself
    alone and no other symptom's candidate set holds it."""
    candidates = {s: {s} | {ids[j] for j, bit in enumerate(reach[i]) if bit} for i, s in enumerate(ids)}
    for s in ids:
        assert candidate_set(closure, s) == candidates[s]
    for size in range(1, len(ids) + 1):
        for symptoms in combinations(ids, size):
            expected = {
                s for s in symptoms
                if candidates[s] == {s} and not any(s in candidates[t] for t in symptoms if t != s)
            }
            assert independent_faults(closure, symptoms) == expected, symptoms


@pytest.mark.parametrize(
    "n, loops",
    [(0, True), (1, True), (2, True), (3, True), (4, False)],
    ids=["0-nodes", "1-node", "2-nodes", "3-nodes", "4-nodes-loop-free"],
)
def test_every_small_matrix_closes_condenses_and_localizes_alike_on_every_route(n, loops):
    ids = tuple("abcd"[:n])
    for rows in _matrices(n, loops):
        reach = closure_by_powers(rows)
        routes = _routes(ids, rows)
        assert routes["pickled"]._graph is not None
        for name, matrix in routes.items():
            assert [list(row) for row in matrix.rows] == rows, name
            closure = transitive_closure(matrix)
            assert [list(row) for row in closure.rows] == reach, (name, rows)
        condensed = {name: condense_sccs(matrix) for name, matrix in routes.items()}
        assert all(c == condensed["graph"] for c in condensed.values()), rows
        _check_condensation(ids, rows, reach, condensed["graph"])
        if n <= 3:
            _check_localization(ids, reach, transitive_closure(routes["graph"]))

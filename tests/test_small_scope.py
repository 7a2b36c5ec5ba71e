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

Every 3-node graph whose ordered pairs each hold no edge, a scheduling edge
of weight 1 or 2, a dummy edge or a dependency-only edge (5**6 = 15,625)
is scheduled against the enumeration oracles. A state machine mixes the
library's calls on one graph with copies, pickles and re-parses, in any
order: each answer must equal the same call's on a fresh graph.
"""

import copy
import pickle
import random
from itertools import combinations, product

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from depmat.fileio import export_dot, parse_graph, serialize_graph
from depmat.graph import (
    EDGE_DEPENDENCY_ONLY,
    EDGE_DUMMY,
    EDGE_KINDS,
    EDGE_SCHEDULING,
    SCHEDULING_KINDS,
    ActivityGraph,
    CyclicScheduleError,
    scheduling_subgraph,
    validate,
)
from depmat.localization import VIEWS, candidate_set, independent_faults, localize
from depmat.matrices import (
    DependencyMatrix,
    adjacency_matrix,
    condense_sccs,
    dependency_matrix,
    incidence_matrix,
    transitive_closure,
)
from depmat.schedule import classify_activities, compute_schedule

from oracles import (
    closure_by_powers,
    cpm_by_enumeration,
    critical_paths_by_enumeration,
    graph_succ,
    has_cycle,
    random_kinded_digraph,
)


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


# what an ordered pair of nodes may hold: (kind, weight) of one edge, or none
PAIR_EDGES = (None, (EDGE_SCHEDULING, 1), (EDGE_SCHEDULING, 2), (EDGE_DUMMY, 0), (EDGE_DEPENDENCY_ONLY, 1))


def test_every_3_node_graph_schedules_as_enumeration_does_or_names_its_cycle():
    ids = ("a", "b", "c")
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    cyclic = 0
    for held in product(PAIR_EDGES, repeat=len(pairs)):
        edges = [(f"e{k}", i, j, weight, kind) for k, ((i, j), (kind, weight)) in enumerate(
            (pair, edge) for pair, edge in zip(pairs, held) if edge
        )]
        g = ActivityGraph.from_columns((ids, [None] * 3, ["auto"] * 3), list(zip(*edges)) or [()] * 5)
        if has_cycle(ids, graph_succ(g, SCHEDULING_KINDS)):
            cyclic += 1
            with pytest.raises(CyclicScheduleError):
                compute_schedule(g)
            continue
        schedule = compute_schedule(g)
        duration, earliest, latest, critical = cpm_by_enumeration(g)
        assert (schedule.duration, schedule.earliest, schedule.latest) == (duration, earliest, latest), held
        assert set(schedule.critical_nodes) == critical, held
        assert schedule.paths == critical_paths_by_enumeration(g), held
    assert cyclic == 11_961


def _answer(call, g):
    """``call(g)``, or the type and message of the ValueError it raises."""
    try:
        return call(g)
    except ValueError as exc:
        return type(exc), str(exc)


# one library call per name, each answer comparable with ``==``
CALLS = {
    "schedule": lambda g: (compute_schedule(g), compute_schedule(g).paths),
    "classify": classify_activities,
    "closure": lambda g: transitive_closure(dependency_matrix(g)),
    "condense": lambda g: condense_sccs(dependency_matrix(g)),
    "validate": validate,
    "dot": export_dot,
    "serialize": serialize_graph,
    "scheduling-subgraph": scheduling_subgraph,
    "incidence": incidence_matrix,
    "adjacency": adjacency_matrix,
    "order": lambda g: g.scheduling_order,
}

# the ways to carry a graph on, each keeping or dropping what it derived
CARRIES = {
    "shallow-copy": copy.copy,
    "deep-copy": copy.deepcopy,
    "pickle": lambda g: pickle.loads(pickle.dumps(g)),
    "re-parse": lambda g: parse_graph(serialize_graph(g)),
}


class CallOrders(RuleBasedStateMachine):
    """Library calls on one small graph, carried on by copies, pickles and
    re-parses between them: every answer equals that of a fresh graph of
    the same columns, whatever the graph derived and kept before."""

    @initialize(seed=st.integers(0, 2**32 - 1))
    def draw_graph(self, seed):
        self.graph = g = random_kinded_digraph(random.Random(seed), max_nodes=6)
        nodes = (g.node_ids, g.node_labels, g.node_kinds)
        self.columns = nodes, (g.edge_ids, g.edge_tails, g.edge_heads, g.edge_weights, g.edge_kinds), g.unit

    def _check(self, call):
        assert _answer(call, self.graph) == _answer(call, ActivityGraph.from_columns(*self.columns))

    @rule(name=st.sampled_from(sorted(CALLS)))
    def call(self, name):
        self._check(CALLS[name])

    @rule(view=st.sampled_from(sorted(VIEWS)), picks=st.sets(st.integers(0, 5), min_size=1, max_size=3))
    def localize(self, view, picks):
        ids = self.graph.node_ids
        symptoms = sorted({ids[i % len(ids)] for i in picks})
        self._check(lambda g: localize(g, symptoms, view))

    @rule(name=st.sampled_from(sorted(CARRIES)))
    def carry(self, name):
        self.graph = CARRIES[name](self.graph)


TestCallOrders = CallOrders.TestCase
TestCallOrders.settings = settings(max_examples=300, stateful_step_count=12, deadline=None)

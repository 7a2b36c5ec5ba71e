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
is scheduled against the enumeration oracles, and localized, injected and
validated against definitions built on BFS and ``has_cycle``; so is every
2-node graph whose ordered pairs each hold up to two parallel such edges
(15**2 = 225), which also goes through ``cpm`` and ``validate`` on the
command line. A state machine mixes the library's calls on one graph with
copies, pickles and re-parses, in any order: each answer must equal the
same call's on a fresh graph.
"""

import copy
import pickle
import random
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from depmat.cli import main
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
from depmat.simulation import inject

from oracles import (
    bfs_hops,
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


def _every_3_node_graph():
    """Each 3-node graph of the ``PAIR_EDGES`` family, with what its pairs hold."""
    ids = ("a", "b", "c")
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    for held in product(PAIR_EDGES, repeat=len(pairs)):
        edges = [(f"e{k}", i, j, weight, kind) for k, ((i, j), (kind, weight)) in enumerate(
            (pair, edge) for pair, edge in zip(pairs, held) if edge
        )]
        yield held, ActivityGraph.from_columns((ids, [None] * 3, ["auto"] * 3), list(zip(*edges)) or [()] * 5)


def test_every_3_node_graph_schedules_as_enumeration_does_or_names_its_cycle():
    cyclic = 0
    for held, g in _every_3_node_graph():
        if has_cycle(g.node_ids, graph_succ(g, SCHEDULING_KINDS)):
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


def _expected_report(ids, reach, critical, scc, symptoms):
    """``localize``'s all-edges answer by definition: ``reach[s]`` maps each
    node that s depends on, s included, to its hop count. A candidate
    explains the symptoms that reach it and ranks by ``RANK_KEYS``."""
    explains = {v: tuple(s for s in symptoms if v in reach[s]) for v in ids}
    distance = {v: min((reach[s][v] for s in explains[v]), default=None) for v in ids}
    ranked = sorted(
        (v for v in ids if explains[v]),
        key=lambda v: (-len(explains[v]), not critical[v], distance[v], ids.index(v)),
    )
    independent = tuple(
        s for s in symptoms if set(reach[s]) == {s} and not any(s in reach[t] for t in symptoms if t != s)
    )
    return (
        tuple(ranked),
        tuple(explains[v] for v in ranked),
        tuple(critical[v] for v in ranked),
        tuple(distance[v] for v in ranked),
        tuple(scc[v] for v in ranked),
        independent,
        len({v for v in ids if explains[v] or critical[v]}),
    )


def test_every_3_node_graph_localizes_injects_and_validates_by_definition():
    """On each 3-node graph of the family: ``localize`` (all-edges view) on
    every symptom set against ``_expected_report``, with criticality from
    ``cpm_by_enumeration`` or, on a scheduling cycle, the declared kinds (all
    auto, so none critical) and components as classes of mutual
    reachability, numbered by first member; ``inject`` with certain
    detection from every root against the nodes that reach it, in node
    order; ``validate``'s cycle warnings against ``has_cycle`` in each view."""
    symptom_sets = [s for size in (1, 2, 3) for s in combinations("abc", size)]
    for held, g in _every_3_node_graph():
        ids, succ = g.node_ids, graph_succ(g)
        reach = {v: bfs_hops(succ, v) for v in ids}
        scheduling_cycle = has_cycle(ids, graph_succ(g, SCHEDULING_KINDS))
        critical_set = set() if scheduling_cycle else cpm_by_enumeration(g)[3]
        critical = {v: v in critical_set for v in ids}
        mutual = {frozenset(w for w in ids if w in reach[v] and v in reach[w]) for v in ids}
        classes = sorted(mutual, key=min)  # "a" < "b" < "c": by first member
        scc = {v: c for c, members in enumerate(classes) for v in members}
        for symptoms in symptom_sets:
            report = localize(g, symptoms)
            actual = (
                tuple(ids[v] for v in report.ranked), report.explains, report.critical,
                report.distances, report.sccs, report.independent, report.nodes_examined,
            )
            assert actual == _expected_report(ids, reach, critical, scc, symptoms), (held, symptoms)
        for root in ids:
            expected = tuple(v for v in ids if root in reach[v])
            assert inject(g, root, 1.0, seed=7).symptoms == expected, (held, root)
        warned = {issue.code for issue in validate(g).warnings}
        assert ("scheduling-cycle" in warned) == scheduling_cycle, held
        assert bool(warned & {"scheduling-cycle", "dependency-only-cycle"}) == has_cycle(ids, succ), held


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


# what an ordered pair of 2 nodes may hold: up to two parallel edges from ``PAIR_EDGES``
PARALLEL_PAIR_EDGES = [held for size in (0, 1, 2) for held in combinations_with_replacement(PAIR_EDGES[1:], size)]


def _every_2_node_graph_with_parallel_edges():
    """Each 2-node graph whose ordered pairs each hold a multiset of at most
    two ``PAIR_EDGES`` edges (15 choices per pair, 225 graphs), with what
    its pairs hold."""
    ids = ("a", "b")
    for held in product(PARALLEL_PAIR_EDGES, repeat=2):
        ends = [(i, 1 - i, kind, weight) for i, edges in enumerate(held) for kind, weight in edges]
        edges = [(f"e{k}", i, j, weight, kind) for k, (i, j, kind, weight) in enumerate(ends)]
        yield held, ActivityGraph.from_columns((ids, [None] * 2, ["auto"] * 2), list(zip(*edges)) or [()] * 5)


def test_every_2_node_graph_with_parallel_edges_schedules_localizes_injects_and_validates_by_definition():
    """The 3-node checks on the parallel-edge family: the schedule against
    the enumeration oracles, whose paths are distinct node sequences, so
    parallel tight edges give one path; ``localize`` on every symptom set,
    ``inject`` from every root and ``validate``'s cycle warnings against the
    definitions."""
    assert len(PARALLEL_PAIR_EDGES) == 15
    tight_pairs = 0
    for held, g in _every_2_node_graph_with_parallel_edges():
        ids, succ = g.node_ids, graph_succ(g)
        scheduling_cycle = has_cycle(ids, graph_succ(g, SCHEDULING_KINDS))
        if scheduling_cycle:
            with pytest.raises(CyclicScheduleError):
                compute_schedule(g)
            critical_set = set()
        else:
            schedule = compute_schedule(g)
            duration, earliest, latest, critical_set = cpm_by_enumeration(g)
            assert (schedule.duration, schedule.earliest, schedule.latest) == (duration, earliest, latest), held
            assert set(schedule.critical_nodes) == critical_set, held
            assert schedule.paths == critical_paths_by_enumeration(g), held
            if held[0] in {((EDGE_SCHEDULING, 1),) * 2, ((EDGE_SCHEDULING, 2),) * 2} and not held[1]:
                tight_pairs += 1
                assert schedule.paths == (("a", "b"),), held
        reach = {v: bfs_hops(succ, v) for v in ids}
        critical = {v: v in critical_set for v in ids}
        mutual = {frozenset(w for w in ids if w in reach[v] and v in reach[w]) for v in ids}
        scc = {v: c for c, members in enumerate(sorted(mutual, key=min)) for v in members}
        for symptoms in (("a",), ("b",), ("a", "b")):
            report = localize(g, symptoms)
            actual = (
                tuple(ids[v] for v in report.ranked), report.explains, report.critical,
                report.distances, report.sccs, report.independent, report.nodes_examined,
            )
            assert actual == _expected_report(ids, reach, critical, scc, symptoms), (held, symptoms)
        for root in ids:
            assert inject(g, root, 1.0, seed=7).symptoms == tuple(v for v in ids if root in reach[v]), (held, root)
        warned = {issue.code for issue in validate(g).warnings}
        assert ("scheduling-cycle" in warned) == scheduling_cycle, held
        assert bool(warned & {"scheduling-cycle", "dependency-only-cycle"}) == has_cycle(ids, succ), held
    assert tight_pairs == 2


def test_every_2_node_graph_with_parallel_edges_exits_as_its_scheduling_view_says(tmp_path, capsys):
    """``cpm`` exits 2 with no stdout exactly on a scheduling cycle, else 0;
    ``validate`` exits 0, for the family holds no structural error."""
    cyclic = 0
    for k, (held, g) in enumerate(_every_2_node_graph_with_parallel_edges()):
        path = tmp_path / f"g{k}.json"
        path.write_bytes(serialize_graph(g))
        scheduling_cycle = has_cycle(g.node_ids, graph_succ(g, SCHEDULING_KINDS))
        cyclic += scheduling_cycle
        code, out = main(["cpm", str(path)]), capsys.readouterr().out
        assert (code, out == "") == ((2, True) if scheduling_cycle else (0, False)), held
        assert main(["validate", str(path)]) == 0, held
        capsys.readouterr()
    assert cyclic == 12 * 12  # both pairs hold a scheduling or dummy edge

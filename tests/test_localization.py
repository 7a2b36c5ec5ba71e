import random
import time

import pytest

import depmat.cli
import depmat.graph
import depmat.localization
import depmat.schedule
import depmat.simulation
from depmat.graph import (
    Activity,
    ActivityEdge,
    CyclicScheduleError,
    UnknownNodeError,
    build_graph,
    scheduling_subgraph,
    validate,
)
from depmat.localization import (
    Candidate,
    VIEW_ALL,
    VIEW_SCHEDULING,
    annotate_matrix,
    candidate_set,
    independent_faults,
    localize,
)
from depmat.matrices import (
    AlreadyClosedError,
    DependencyMatrix,
    DimensionMismatchError,
    NotClosedError,
    dependency_matrix,
    transitive_closure,
)
from depmat.schedule import classify_activities, compute_schedule
from depmat.simulation import GeneratorParams, inject, run_experiment

from conftest import ROBOT_PATH
from oracles import (
    bfs_hops,
    closure_by_powers,
    cpm_by_enumeration,
    graph_succ,
    random_digraph_rows,
    random_kinded_digraph,
    random_mixed_graph,
    with_self_loops,
)


def closed_zero(n=2):
    ids = tuple(f"v{i}" for i in range(n))
    zero = tuple((0,) * n for _ in range(n))
    return transitive_closure(DependencyMatrix(ids, zero, closed=False))


def chain_v0_depends_on_v1():
    # v0 -> v1: v0 depends on v1
    return build_graph(
        [Activity("v0"), Activity("v1")],
        [ActivityEdge("x", "v0", "v1", 1)],
    )


def test_candidate_set_robot_all_edges(robot):
    closure = transitive_closure(dependency_matrix(robot))
    assert candidate_set(closure, "v4") == {"v0", "v1", "v2", "v3", "v4"}


def test_candidate_set_robot_scheduling_view(robot):
    closure = transitive_closure(dependency_matrix(scheduling_subgraph(robot)))
    assert candidate_set(closure, "v4") == {"v4"}
    assert candidate_set(closure, "v2") == {"v2", "v3", "v4"}


def test_candidate_set_zero_matrix():
    assert candidate_set(closed_zero(3), "v1") == {"v1"}


def test_candidate_set_requires_closure(robot):
    with pytest.raises(NotClosedError):
        candidate_set(dependency_matrix(robot), "v0")


def test_candidate_set_unknown_node(robot):
    closure = transitive_closure(dependency_matrix(robot))
    with pytest.raises(UnknownNodeError):
        candidate_set(closure, "zz")


def test_localize_robot_scheduling_view_single_symptom(robot):
    report = localize(robot, ["v2"], view=VIEW_SCHEDULING)
    assert [c.node for c in report.candidates] == ["v2", "v3", "v4"]
    assert all(c.explains == ("v2",) for c in report.candidates)
    by_node = {c.node: c for c in report.candidates}
    assert by_node["v2"].is_critical and by_node["v3"].is_critical
    assert not by_node["v4"].is_critical
    assert by_node["v2"].min_distance == 0
    assert report.independent == ()
    assert report.nodes_examined == 5  # cs(v2) plus the seeded criticals v0, v1


def test_localize_robot_all_edges_ranking(robot):
    report = localize(robot, ["v4"], view=VIEW_ALL)
    assert [c.node for c in report.candidates] == ["v0", "v1", "v3", "v2", "v4"]
    # confirm the ordering is forced by the BFS-hop oracle
    hops = bfs_hops(graph_succ(robot), "v4")
    assert hops == {"v4": 0, "v0": 1, "v3": 2, "v1": 2, "v2": 3}
    by_node = {c.node: c for c in report.candidates}
    for node, c in by_node.items():
        assert c.min_distance == hops[node]
        assert c.explains == ("v4",)
        assert c.scc == 0  # the whole digraph is one strongly connected component
    assert report.independent == ()
    assert report.nodes_examined == 5


def test_localize_single_node_graph():
    g = build_graph([Activity("v0")], [])
    report = localize(g, ["v0"])
    assert len(report.candidates) == 1
    c = report.candidates[0]
    assert c.node == "v0" and c.explains == ("v0",) and c.min_distance == 0
    assert report.independent == ("v0",)
    assert report.nodes_examined == 1


def test_localize_input_checks(robot):
    with pytest.raises(ValueError):
        localize(robot, [])
    with pytest.raises(ValueError):
        localize(robot, ["v0", "v0"])
    with pytest.raises(UnknownNodeError):
        localize(robot, ["zz"])
    # each symptom in order: the repeat is found before the unknown node
    closure = transitive_closure(dependency_matrix(robot))
    for check in (lambda s: localize(robot, s), lambda s: independent_faults(closure, s)):
        with pytest.raises(ValueError, match="^duplicate symptom: v0$"):
            check(["v0", "v0", "zz"])
    with pytest.raises(ValueError):
        localize(robot, ["v0"], view="sideways")


def test_localize_multi_symptom_explains_ranking(robot):
    report = localize(robot, ["v2", "v4"], view=VIEW_SCHEDULING)
    by_node = {c.node: c for c in report.candidates}
    # v4 is explained by both symptoms, v2/v3 only by v2
    assert by_node["v4"].explains == ("v2", "v4")
    assert report.candidates[0].node == "v4"  # explains-count outranks criticality


def test_independent_faults_zero_matrix():
    assert independent_faults(closed_zero(2), ("v0", "v1")) == {"v0", "v1"}


def test_independent_faults_chain_shared_cause_disqualifies():
    closure = transitive_closure(dependency_matrix(chain_v0_depends_on_v1()))
    assert independent_faults(closure, ("v0", "v1")) == set()


def test_independent_faults_disconnected_components():
    # two components; each symptom is the dependency-free end of its chain
    g = build_graph(
        [Activity("v0"), Activity("v1"), Activity("v2"), Activity("v3")],
        [ActivityEdge("x", "v1", "v0", 1), ActivityEdge("y", "v3", "v2", 1)],
    )
    closure = transitive_closure(dependency_matrix(g))
    assert independent_faults(closure, ("v0", "v2")) == {"v0", "v2"}


def test_independent_faults_match_definition():
    found = 0
    for seed in range(300):
        rnd = random.Random(80_000 + seed)
        rows = random_digraph_rows(rnd)
        for i, row in enumerate(rows):  # self-loops as well as cycles
            row[i] = int(rnd.random() < 0.15)
        ids = tuple(f"n{i}" for i in range(len(rows)))
        closure = DependencyMatrix(ids, closure_by_powers(rows), closed=True)
        symptoms = rnd.sample(ids, rnd.randint(1, len(ids)))
        expected = {
            s
            for s in symptoms
            if candidate_set(closure, s) == {s}
            and not any(s in candidate_set(closure, t) for t in symptoms if t != s)
        }
        assert independent_faults(closure, symptoms) == expected
        found += bool(expected)
    assert found > 50


def test_independent_faults_is_linear_in_symptoms():
    ids = tuple(f"n{i}" for i in range(4096))
    closure = DependencyMatrix.from_masks(ids, (0,) * len(ids), closed=True)
    start = time.process_time()
    assert independent_faults(closure, ids) == set(ids)
    assert time.process_time() - start < 0.5


def test_independent_faults_requires_closure(robot):
    with pytest.raises(NotClosedError):
        independent_faults(dependency_matrix(robot), ("v0",))


def test_annotate_zero_matrix_diagonal_only():
    g = build_graph([Activity("v0"), Activity("v1")], [])
    report = localize(g, ["v0"])
    annotated = annotate_matrix(dependency_matrix(g), report)
    assert annotated.independent_marks == ("v0",)
    assert annotated.suspect_cells == ()


def test_annotate_robot_all_edges(robot):
    report = localize(robot, ["v4"], view=VIEW_ALL)
    annotated = annotate_matrix(dependency_matrix(robot), report)
    assert annotated.suspect_cells == (("v4", "v0"),)
    assert annotated.independent_marks == ()


def test_annotate_robot_scheduling_view(robot):
    view = scheduling_subgraph(robot)
    report = localize(robot, ["v4"], view=VIEW_SCHEDULING)
    annotated = annotate_matrix(dependency_matrix(view), report)
    assert annotated.independent_marks == ("v4",)
    assert annotated.suspect_cells == ()


def test_annotate_rejects_mismatch_and_closure(robot):
    report = localize(robot, ["v4"])
    other = dependency_matrix(build_graph([Activity("v0")], []))
    with pytest.raises(DimensionMismatchError):
        annotate_matrix(other, report)
    with pytest.raises(AlreadyClosedError):
        annotate_matrix(transitive_closure(dependency_matrix(robot)), report)


def test_soundness_symptom_always_candidate():
    for seed in range(100):
        rnd = random.Random(seed)
        g = random_mixed_graph(rnd)
        ids = list(g.node_ids)
        symptoms = rnd.sample(ids, rnd.randint(1, len(ids)))
        report = localize(g, symptoms)
        ranked = {c.node for c in report.candidates}
        for s in symptoms:
            assert s in ranked
        by_node = {c.node: c for c in report.candidates}
        for s in symptoms:
            assert s in by_node[s].explains


def test_completeness_under_propagation():
    for seed in range(100):
        rnd = random.Random(70_000 + seed)
        g = random_mixed_graph(rnd)
        closure = transitive_closure(dependency_matrix(g))
        for root in g.node_ids:
            scenario = inject(g, root, 1.0, seed=seed)
            for s in scenario.symptoms:
                assert root in candidate_set(closure, s)
            report = localize(g, scenario.symptoms)
            by_node = {c.node: c for c in report.candidates}
            assert by_node[root].explains == scenario.symptoms


def test_localize_is_deterministic(robot):
    for symptoms in (["v4"], ["v2", "v4"], ["v0", "v1", "v2", "v3", "v4"]):
        assert localize(robot, symptoms) == localize(robot, symptoms)


def test_view_consistency_scheduling_subset_of_all():
    for seed in range(100):
        rnd = random.Random(80_000 + seed)
        g = random_mixed_graph(rnd)
        ids = list(g.node_ids)
        symptoms = rnd.sample(ids, rnd.randint(1, min(3, len(ids))))
        all_nodes = {c.node for c in localize(g, symptoms, view=VIEW_ALL).candidates}
        sched_nodes = {
            c.node for c in localize(g, symptoms, view=VIEW_SCHEDULING).candidates
        }
        assert sched_nodes <= all_nodes


def test_nodes_examined_accounting():
    for seed in range(100):
        rnd = random.Random(90_000 + seed)
        g = random_mixed_graph(rnd)
        ids = list(g.node_ids)
        symptoms = rnd.sample(ids, rnd.randint(1, len(ids)))
        report = localize(g, symptoms)
        # independent recount: union of closure-oracle candidate sets plus
        # the critical seed set
        rows = [list(r) for r in dependency_matrix(g).rows]
        closed = closure_by_powers(rows)
        union = set()
        for s in symptoms:
            i = g.position(s)
            union.add(s)
            union.update(g.node_ids[j] for j, v in enumerate(closed[i]) if v)
        kinds = classify_activities(g).kinds
        criticals = {v for v in g.node_ids if kinds[v] == "critical"}
        assert report.nodes_examined == len(union | criticals)
        assert report.nodes_examined <= len(g.activities)


def test_localize_all_edges_with_cyclic_schedule_falls_back():
    # scheduling cycle: localize(all_edges) must not raise; declared kinds win
    g = build_graph(
        [Activity("v0", declared_kind="critical"), Activity("v1")],
        [ActivityEdge("x", "v0", "v1", 1), ActivityEdge("y", "v1", "v0", 1)],
    )
    report = localize(g, ["v1"], view=VIEW_ALL)
    by_node = {c.node: c for c in report.candidates}
    assert by_node["v0"].is_critical
    assert not by_node["v1"].is_critical
    from depmat.graph import CyclicScheduleError

    with pytest.raises(CyclicScheduleError):
        localize(g, ["v1"], view=VIEW_SCHEDULING)


def test_localize_with_precomputed_schedule_matches():
    for seed in range(80):
        rnd = random.Random(140_000 + seed)
        g = random_mixed_graph(rnd, max_nodes=12)
        # localize reads the schedule g keeps, and inject leaves g its
        # dependency condensation
        schedule = compute_schedule(g)
        inject(g, g.node_ids[seed % len(g.node_ids)], 1.0, seed)
        for view in (VIEW_ALL, VIEW_SCHEDULING):
            symptoms = rnd.sample(list(g.node_ids), rnd.randint(1, len(g.node_ids)))
            twin = build_graph(g.activities, g.edges, unit=g.unit)
            assert localize(g, symptoms, view) == localize(twin, symptoms, view)
        assert compute_schedule(g) is schedule


def test_twin_graphs_get_their_own_schedules(robot):
    twin = build_graph(robot.activities, robot.edges, unit=robot.unit)
    assert twin == robot
    mine, theirs = compute_schedule(robot), compute_schedule(twin)
    assert mine is not theirs and mine == theirs
    assert compute_schedule(robot) is mine and compute_schedule(twin) is theirs


def test_repeated_localize_schedules_the_graph_once(robot, monkeypatch):
    scheduled = []
    forward_pass = depmat.schedule.forward_pass

    def counting(g):
        scheduled.append(g)
        return forward_pass(g)

    monkeypatch.setattr(depmat.schedule, "forward_pass", counting)
    g = build_graph(robot.activities, robot.edges, unit=robot.unit)
    reports = {localize(g, ["v4"], view=view) for view in (VIEW_ALL, VIEW_SCHEDULING) * 10}
    assert len(reports) == 2
    assert scheduled == [g]


def test_pipeline_condenses_each_view_at_most_once(monkeypatch):
    passes = []
    tarjan = depmat.graph._tarjan

    def counting(succ):
        passes.append(succ)
        return tarjan(succ)

    monkeypatch.setattr(depmat.graph, "_tarjan", counting)
    for seed in range(60):
        rnd = random.Random(150_000 + seed)
        make = random_mixed_graph if seed % 2 else random_kinded_digraph
        g = make(rnd, max_nodes=12)
        passes.clear()
        validate(g)
        for _ in range(2):
            symptoms = rnd.sample(list(g.node_ids), rnd.randint(1, len(g.node_ids)))
            for view in (VIEW_ALL, VIEW_SCHEDULING):
                try:
                    compute_schedule(g)
                    localize(g, symptoms, view=view)
                except CyclicScheduleError:
                    pass
            inject(g, rnd.choice(g.node_ids), 0.5, seed)
        views = (g.dependency_view, g.scheduling_view[0])
        assert all(sum(p is view for p in passes) <= 1 for view in views)
        assert all(any(p is view for view in views) for p in passes)


def localize_by_oracles(g, symptoms, view):
    """(candidates, independent, nodes_examined) from the boolean-power
    closure, one BFS per symptom and the all-paths CPM oracle."""
    ids = list(g.node_ids)
    pos = {v: i for i, v in enumerate(ids)}
    succ = graph_succ(g, None if view == VIEW_ALL else ("scheduling", "dummy"))
    closed = closure_by_powers([[1 if w in succ[v] else 0 for w in ids] for v in ids])
    reach = {
        s: {s} | {ids[j] for j, x in enumerate(closed[pos[s]]) if x} for s in symptoms
    }
    hops = {s: bfs_hops(succ, s) for s in symptoms}
    scc: dict[str, int] = {}
    for v in ids:  # first unnumbered node is its component's first member
        if v not in scc:
            number = max(scc.values(), default=-1) + 1
            for w in ids:
                if w == v or (closed[pos[v]][pos[w]] and closed[pos[w]][pos[v]]):
                    scc[w] = number
    critical = cpm_by_enumeration(g)[3]
    candidates = []
    for v in ids:
        explains = tuple(s for s in symptoms if v in reach[s])
        if explains:
            candidates.append(
                Candidate(v, explains, v in critical, min(hops[s][v] for s in explains), scc[v])
            )

    # most explained symptoms, critical, nearest, input order
    candidates.sort(key=lambda c: (-len(c.explains), not c.is_critical, c.min_distance, pos[c.node]))
    independent = tuple(
        s for s in symptoms
        if reach[s] == {s} and not any(s in reach[t] for t in symptoms if t != s)
    )
    union = {c.node for c in candidates}
    return tuple(candidates), independent, len(union | critical)


def test_localize_matches_oracles():
    for seed in range(300):
        rnd = random.Random(110_000 + seed)
        g = random_mixed_graph(rnd, max_nodes=12)
        if seed >= 150:  # unvalidated, with dependency-only self-loops
            g = with_self_loops(rnd, g)
        ids = list(g.node_ids)
        for view in (VIEW_ALL, VIEW_SCHEDULING):
            symptoms = rnd.sample(ids, rnd.randint(1, len(ids)))
            report = localize(g, symptoms, view=view)
            candidates, independent, examined = localize_by_oracles(g, symptoms, view)
            assert report.candidates == candidates
            assert report.independent == independent
            assert report.nodes_examined == examined
            assert report.symptoms == tuple(symptoms)
            if view == VIEW_ALL:
                closure = transitive_closure(dependency_matrix(g))
                assert independent_faults(closure, symptoms) == set(independent)


def test_candidates_with_one_mask_share_explains():
    """Candidates that explain the same symptoms hold one ``explains`` tuple,
    and every tuple still lists, in symptom order, the symptoms whose
    closure-oracle candidate set holds the node."""
    shared = 0
    for seed in range(120):
        rnd = random.Random(130_000 + seed)
        g = random_mixed_graph(rnd, max_nodes=14)
        ids = list(g.node_ids)
        pos = {v: i for i, v in enumerate(ids)}
        for view in (VIEW_ALL, VIEW_SCHEDULING):
            succ = graph_succ(g, None if view == VIEW_ALL else ("scheduling", "dummy"))
            closed = closure_by_powers([[1 if w in succ[v] else 0 for w in ids] for v in ids])
            symptoms = rnd.sample(ids, rnd.randint(1, len(ids)))
            report = localize(g, symptoms, view=view)
            by_set = {}
            for c in report.candidates:
                assert c.explains == tuple(
                    s for s in symptoms if s == c.node or closed[pos[s]][pos[c.node]]
                )
                assert by_set.setdefault(c.explains, c.explains) is c.explains
            shared += len(by_set) < len(report.candidates)
    assert shared  # some reports do have candidates with equal sets


def test_report_columns_are_its_candidates_in_rank_order(robot):
    report = localize(robot, ["v2", "v4"])
    candidates = report.candidates
    assert [report.node_ids[v] for v in report.ranked] == [c.node for c in candidates]
    assert report.explains == tuple(c.explains for c in candidates)
    assert [mask.bit_count() for mask in report.masks] == [len(c.explains) for c in candidates]
    assert report.critical == tuple(c.is_critical for c in candidates)
    assert report.distances == tuple(c.min_distance for c in candidates)
    assert report.sccs == tuple(c.scc for c in candidates)


def test_text_output_and_trials_build_no_candidate_records(monkeypatch, capsys):
    """``localize`` text output and ``run_trial`` read the report's columns:
    they build no ``Candidate`` and no ``explains`` tuple; JSON output
    builds the tuples but no ``Candidate``."""

    def refused(*fields):
        raise AssertionError("a Candidate was built")

    reports = []

    def keeping(*args, **kwargs):
        reports.append(localize(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(depmat.localization, "Candidate", refused)
    monkeypatch.setattr(depmat.cli, "localize", keeping)
    monkeypatch.setattr(depmat.simulation, "localize", keeping)
    assert depmat.cli.main(["localize", str(ROBOT_PATH), "--symptoms", "v2,v4"]) == 0
    assert run_experiment(GeneratorParams(node_count=40, layer_count=4, edge_density=0.3, seed=3), 5, 0.8).rows
    assert len(reports) == 6
    assert not any({"explains", "candidates"} & r.__dict__.keys() for r in reports)
    assert depmat.cli.main(["localize", str(ROBOT_PATH), "--symptoms", "v2,v4", "--format", "json"]) == 0
    assert "explains" in reports[-1].__dict__ and "candidates" not in reports[-1].__dict__
    capsys.readouterr()

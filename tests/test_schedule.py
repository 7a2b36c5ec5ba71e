import copy
import dataclasses
import itertools
import pickle
import random
import weakref

import pytest

import depmat.graph
import depmat.schedule
from depmat.cli import main
from depmat.fileio import export_dot, serialize_graph
from depmat.graph import (
    Activity,
    ActivityEdge,
    ActivityGraph,
    CyclicScheduleError,
    EDGE_DUMMY,
    EDGE_KINDS,
    GraphBuildError,
    KIND_CRITICAL,
    KIND_NON_CRITICAL,
    SCHEDULING_KINDS,
    build_graph,
    scheduling_subgraph,
    validate,
)
from depmat.localization import VIEW_SCHEDULING, localize
from depmat.matrices import adjacency_matrix, condense_sccs, dependency_matrix, incidence_matrix, transitive_closure
from depmat.schedule import (
    EmptyGraphError,
    backward_pass,
    classify_activities,
    compute_schedule,
    forward_pass,
)
from depmat.simulation import GeneratorParams, generate_graph, inject, run_experiment

from oracles import (
    bfs_hops,
    cpm_by_enumeration,
    critical_paths_by_enumeration,
    graph_succ,
    has_cycle,
    lowest_cyclic_component,
    random_dag,
    random_kinded_digraph,
    random_mixed_graph,
    series_diamonds,
    unchecked_graph,
)


def test_forward_pass_robot(robot):
    view = scheduling_subgraph(robot)
    assert view.node_ids == ("v0", "v1", "v2", "v3", "v4")
    assert forward_pass(view) == (0, 2, 9, 15, 14)


def test_backward_pass_robot(robot):
    view = scheduling_subgraph(robot)
    assert view.node_ids == ("v0", "v1", "v2", "v3", "v4")
    assert backward_pass(view, 15) == (0, 2, 9, 15, 15)


def test_passes_trivial_cases():
    single = build_graph([Activity("v0")], [])
    assert forward_pass(single) == (0,)
    assert backward_pass(single, 0) == (0,)
    chain = build_graph(
        [Activity("v0"), Activity("v1"), Activity("v2")],
        [ActivityEdge("x", "v0", "v1", 2), ActivityEdge("y", "v1", "v2", 3)],
    )
    assert forward_pass(chain) == (0, 2, 5)
    assert backward_pass(chain, 5) == (0, 2, 5)


def test_forward_pass_rejects_cycle():
    g = build_graph(
        [Activity("v0"), Activity("v1")],
        [ActivityEdge("x", "v0", "v1", 1), ActivityEdge("y", "v1", "v0", 1)],
    )
    with pytest.raises(CyclicScheduleError):
        forward_pass(g)


def test_schedule_robot(robot):
    s = compute_schedule(robot)
    assert s.duration == 15
    assert s.critical_nodes == ("v0", "v1", "v2", "v3")
    assert s.slack == {"v0": 0, "v1": 0, "v2": 0, "v3": 0, "v4": 1}
    assert s.paths == (("v0", "v1", "v2", "v3"),)


def test_schedule_single_node():
    s = compute_schedule(build_graph([Activity("v0")], []))
    assert s.duration == 0
    assert s.critical_nodes == ("v0",)
    assert s.paths == (("v0",),)


def test_schedule_diamond_two_critical_paths():
    g = build_graph(
        [Activity("v0"), Activity("v1"), Activity("v2"), Activity("v3")],
        [
            ActivityEdge("a", "v0", "v1", 5),
            ActivityEdge("b", "v0", "v2", 5),
            ActivityEdge("c", "v1", "v3", 1),
            ActivityEdge("d", "v2", "v3", 1),
        ],
    )
    s = compute_schedule(g)
    assert s.duration == 6
    assert s.critical_nodes == ("v0", "v1", "v2", "v3")
    assert s.paths == (("v0", "v1", "v3"), ("v0", "v2", "v3"))


def test_schedule_empty_graph():
    with pytest.raises(EmptyGraphError):
        compute_schedule(build_graph([], []))


def test_schedule_cyclic_scheduling_view():
    g = build_graph(
        [Activity("v0"), Activity("v1")],
        [ActivityEdge("x", "v0", "v1", 1), ActivityEdge("y", "v1", "v0", 1)],
    )
    with pytest.raises(CyclicScheduleError):
        compute_schedule(g)


def test_graph_and_its_schedule_form_no_cycle(robot):
    # a dropped graph and its schedule are freed at once, not left for the
    # cyclic collector: a simulated experiment drops one graph per trial
    g = build_graph(robot.activities, robot.edges, unit=robot.unit)
    schedule = compute_schedule(g)
    assert compute_schedule(g) is schedule
    freed = weakref.ref(g), weakref.ref(schedule)
    del g, schedule
    assert [ref() for ref in freed] == [None, None]


def test_scheduled_graph_pickles_and_each_copy_gets_its_own_schedule(robot):
    g = build_graph(robot.activities, robot.edges, unit=robot.unit)
    schedule = compute_schedule(g)
    assert compute_schedule(g) is compute_schedule(g) is schedule
    assert schedule.paths == (("v0", "v1", "v2", "v3"),)  # read before pickling
    restored = pickle.loads(pickle.dumps(g))
    assert restored == g
    own = compute_schedule(restored)
    assert own is not schedule and own == schedule and own.paths == schedule.paths
    assert compute_schedule(restored) is own
    clone = copy.deepcopy(g)
    own = compute_schedule(clone)
    assert own is not schedule and own == schedule and own.paths == schedule.paths
    assert compute_schedule(clone) is own
    # a shallow copy shares the schedule, which holds nothing of the graph
    assert compute_schedule(copy.copy(g)) is schedule
    assert compute_schedule(g) is schedule


def _read_derived_facts(g: ActivityGraph) -> None:
    validate(g)
    compute_schedule(g).paths
    g.dependency_condensation


@pytest.mark.parametrize("form", ["columns", "records"])
def test_pickle_carries_only_the_form_the_graph_was_built_in(form):
    generated = generate_graph(
        GeneratorParams(node_count=1000, layer_count=20, edge_density=0.05, feedback_edge_fraction=0.02, seed=7)
    )
    g = generated if form == "columns" else build_graph(generated.activities, generated.edges)
    fresh = pickle.dumps(g)
    _read_derived_facts(g)
    after = pickle.dumps(g)
    assert len(after) <= len(fresh)
    restored = pickle.loads(after)
    # one form whichever way the graph was built: its columns and unit
    assert restored.__dict__.keys() == {field.name for field in dataclasses.fields(ActivityGraph)}
    assert restored == g
    assert restored.dependency_view == g.dependency_view
    assert restored.scheduling_view == g.scheduling_view
    assert restored.dependency_condensation == g.dependency_condensation
    assert compute_schedule(restored) == compute_schedule(g)
    assert compute_schedule(restored).paths == compute_schedule(g).paths


def _read_matrix_facts(d) -> None:
    transitive_closure(d).rows
    condense_sccs(d).component_of
    d.rows, d.position(d.node_ids[-1]), d.entry(d.node_ids[0], d.node_ids[-1])


# (value of a graph, reading every fact it caches), per frozen result class
VALUES = {
    "graph": (lambda g: g, lambda g: (_read_derived_facts(g), g.activities, g.edges, g.position("n5"))),
    "dependency-matrix": (dependency_matrix, _read_matrix_facts),
    "closure": (lambda g: transitive_closure(dependency_matrix(g)), lambda d: (d.rows, d.position("n5"))),
    "incidence-matrix": (incidence_matrix, lambda m: m.rows),
    "adjacency-matrix": (adjacency_matrix, lambda m: m.rows),
    "condensed-graph": (lambda g: condense_sccs(dependency_matrix(g)), lambda c: c.component_of),
    "schedule": (compute_schedule, lambda s: (s.paths, s.earliest, s.latest, s.slack)),
    "classification": (classify_activities, lambda c: (c.kinds, c.overrides)),
    "localization-report": (lambda g: localize(g, ["n5", "n150"]), lambda r: (r.explains, r.candidates)),
}


@pytest.mark.parametrize("name", VALUES)
def test_every_value_pickles_its_fields_alone_and_a_shallow_copy_shares_every_fact(name):
    g = generate_graph(
        GeneratorParams(node_count=200, layer_count=10, edge_density=0.1, feedback_edge_fraction=0.05, seed=1)
    )
    make, read = VALUES[name]
    value = make(g)
    fresh = pickle.dumps(value)
    read(value)
    assert pickle.dumps(value) == fresh
    restored = pickle.loads(fresh)
    assert restored == value and copy.deepcopy(value) == value
    if name == "dependency-matrix":
        assert restored._graph == g and restored._condensation == value._condensation
    clone = copy.copy(value)
    assert clone == value and clone.__dict__.keys() == value.__dict__.keys()
    assert all(clone.__dict__[key] is fact for key, fact in value.__dict__.items())


def test_build_rejects_the_edge_no_column_could_hold():
    # an edge to an undeclared node has no head position, so no graph has one
    with pytest.raises(GraphBuildError) as exc:
        build_graph((Activity("v0"), Activity("v1")), (ActivityEdge("a", "v0", "v1", 1), ActivityEdge("b", "v0", "zz", 2)))
    assert [(i.code, i.message) for i in exc.value.issues] == [("unknown-endpoint", "edge b: unknown node 'zz'")]
    assert exc.value.loci == ("edges[1]",)


def test_schedule_columns_follow_node_ids_when_an_unvalidated_graph_repeats_one():
    g = unchecked_graph((Activity("a"), Activity("a"), Activity("b")), (ActivityEdge("x", "a", "b", 3),))
    assert not validate(g).ok
    s = compute_schedule(g)  # per position: the edge leaves the second "a"
    assert s.node_earliest == (0, 0, 3) and s.node_latest == (3, 0, 3) and s.node_slack == (3, 0, 0)
    assert s.critical_nodes == ("a", "b")
    assert classify_activities(g).node_classes == (KIND_NON_CRITICAL, KIND_CRITICAL, KIND_CRITICAL)


def count_tarjan_passes(monkeypatch) -> list:
    passes = []
    tarjan = depmat.graph._tarjan

    def counting(succ):
        passes.append(succ)
        return tarjan(succ)

    monkeypatch.setattr(depmat.graph, "_tarjan", counting)
    return passes


def test_schedule_and_scheduling_view_localize_share_one_tarjan_pass(robot, monkeypatch):
    passes = count_tarjan_passes(monkeypatch)
    g = build_graph(robot.activities, robot.edges, unit=robot.unit)
    compute_schedule(g)
    for symptoms in (["v4"], ["v2", "v4"], ["v1"]):
        localize(g, symptoms, view=VIEW_SCHEDULING)
    assert len(passes) == 1


def test_validate_then_schedule_makes_one_tarjan_pass_per_view(robot, monkeypatch):
    passes = count_tarjan_passes(monkeypatch)
    g = build_graph(robot.activities, robot.edges, unit=robot.unit)
    validate(g)
    compute_schedule(g)
    assert len(passes) == 2


_PIPELINE = {
    "localize": lambda g, node: localize(g, [node]),
    "closure": lambda g, node: transitive_closure(dependency_matrix(g)),
    "condense": lambda g, node: condense_sccs(dependency_matrix(g)),
    "inject": lambda g, node: inject(g, node, 0.5, 7),
    "validate": lambda g, node: validate(g),
    "schedule": lambda g, node: compute_schedule(g),
}


@pytest.mark.parametrize(
    "fresh, node",
    [
        (lambda robot: build_graph(robot.activities, robot.edges, unit=robot.unit), "v4"),
        (lambda robot: generate_graph(GeneratorParams(12, 3, 0.4, feedback_edge_fraction=0.5)), "n11"),
    ],
    ids=["robot", "dependency-only-cycles"],
)
def test_every_call_order_condenses_each_view_at_most_once(robot, monkeypatch, fresh, node):
    """Whatever the order of the library calls, a fresh graph's dependency
    view and scheduling view are each condensed at most once: the matrices
    read the graph's condensation rather than making their own."""
    sample = fresh(robot)
    assert len(sample.dependency_condensation.components) < len(sample.node_ids)  # a dependency cycle
    passes = count_tarjan_passes(monkeypatch)
    g = fresh(robot)
    dependency_matrix(g)
    assert passes == []
    for order in itertools.permutations(_PIPELINE):
        g = fresh(robot)
        passes.clear()
        for name in order:
            _PIPELINE[name](g, node)
        views = (g.dependency_view, g.scheduling_view[0])
        assert [sum(p is view for p in passes) for view in views] == [1, 1], order
        assert len(passes) == 2, order


def test_scheduling_self_loop_is_a_cycle():
    g = unchecked_graph(  # build_graph rejects the self-loop
        (Activity("a"), Activity("b"), Activity("c")),
        (
            ActivityEdge("x", "a", "b", 2),
            ActivityEdge("y", "b", "b", 1),
            ActivityEdge("z", "b", "c", 3),
        ),
    )
    with pytest.raises(CyclicScheduleError) as raised:
        compute_schedule(g)
    assert raised.value.cycle == ("b", "b")


def test_cycle_witness_is_shortest_through_lowest_cyclic_component():
    cyclic = acyclic = 0
    for seed in range(400):
        rnd = random.Random(75_000 + seed)
        ids = [f"n{i}" for i in range(rnd.randint(1, 9))]
        density = rnd.uniform(0.02, 0.3)
        edges = []
        for tail in ids:
            for head in ids:  # self-loops too
                if rnd.random() < density:
                    kind = rnd.choice(sorted(EDGE_KINDS))
                    weight = 0 if kind == EDGE_DUMMY else rnd.randint(0, 9)
                    edges.append(ActivityEdge(f"e{len(edges)}", tail, head, weight, kind))
        g = unchecked_graph([Activity(v) for v in ids], edges)
        succ = graph_succ(g, SCHEDULING_KINDS)
        component = lowest_cyclic_component(ids, succ)
        if component is None:
            rank = {ids[v]: k for k, v in enumerate(g.scheduling_order)}
            assert sorted(rank) == sorted(ids)
            assert all(rank[v] < rank[w] for v in ids for w in succ[v])
            acyclic += 1
            continue
        with pytest.raises(CyclicScheduleError) as raised:
            compute_schedule(g)
        cycle = raised.value.cycle
        start = component[0]
        assert cycle[0] == cycle[-1] == start and set(cycle) <= set(component)
        assert all(w in succ[v] for v, w in zip(cycle, cycle[1:]))
        back = [bfs_hops(succ, w).get(start) for w in succ[start]]
        assert len(cycle) - 1 == 1 + min(d for d in back if d is not None)
        cyclic += 1
    assert cyclic > 100 and acyclic > 50


def test_acyclic_view_runs_no_cycle_search(robot, monkeypatch):
    def forbidden(*args):
        raise AssertionError("cycle search on an acyclic scheduling view")

    monkeypatch.setattr(depmat.graph, "strongly_connected_components", forbidden)
    monkeypatch.setattr(depmat.graph, "shortest_cycle_through", forbidden)
    monkeypatch.setattr(depmat.graph, "scheduling_subgraph", forbidden)
    g = build_graph(robot.activities, robot.edges, unit=robot.unit)  # nothing cached yet
    assert compute_schedule(g).duration == 15
    assert localize(g, ["v4"], view=VIEW_SCHEDULING).candidates


def test_classify_robot(robot):
    c = classify_activities(robot)
    assert c.kinds == {
        "v0": KIND_CRITICAL,
        "v1": KIND_CRITICAL,
        "v2": KIND_CRITICAL,
        "v3": KIND_CRITICAL,
        "v4": KIND_NON_CRITICAL,
    }
    assert c.overrides == ()


def test_schedule_classify_localize_and_export_share_one_forward_pass(robot, monkeypatch):
    scheduled = []

    def counting(g):
        scheduled.append(g)
        return forward_pass(g)

    monkeypatch.setattr(depmat.schedule, "forward_pass", counting)
    g = build_graph(robot.activities, robot.edges, unit=robot.unit)  # nothing cached yet
    schedule = compute_schedule(g)
    assert classify_activities(g).kinds["v0"] == KIND_CRITICAL
    assert localize(g, ["v4"]).candidates
    assert b"doublecircle" in export_dot(g)
    assert compute_schedule(g) is schedule
    assert scheduled == [g]


def test_classify_all_zero_weights():
    g = build_graph(
        [Activity("v0"), Activity("v1")],
        [ActivityEdge("x", "v0", "v1", 0)],
    )
    c = classify_activities(g)
    assert set(c.kinds.values()) == {KIND_CRITICAL}


def test_classify_override_is_flagged(robot):
    activities = [
        Activity(a.id, a.label, KIND_CRITICAL if a.id == "v4" else a.declared_kind)
        for a in robot.activities
    ]
    g = build_graph(activities, robot.edges, unit=robot.unit)
    s = compute_schedule(g)
    assert s.critical_nodes == ("v0", "v1", "v2", "v3")  # schedule itself unchanged
    c = classify_activities(g)
    assert c.kinds["v4"] == KIND_CRITICAL
    assert c.overrides == ("v4",)


def test_matching_declaration_is_not_an_override(robot):
    activities = [
        Activity(a.id, a.label, KIND_CRITICAL if a.id == "v0" else a.declared_kind)
        for a in robot.activities
    ]
    g = build_graph(activities, robot.edges, unit=robot.unit)
    c = classify_activities(g)
    assert c.overrides == ()


def test_schedule_matches_enumeration_oracle():
    # mixed graphs are scheduled whole: dependency-only edges must be ignored
    for sample, seed in itertools.product((random_dag, random_mixed_graph), range(60)):
        g = sample(random.Random(seed))
        duration, earliest, latest, critical = cpm_by_enumeration(g)
        s = compute_schedule(g)
        assert s.duration == duration
        assert s.earliest == earliest
        assert s.latest == latest
        assert set(s.critical_nodes) == critical
        assert s.paths == critical_paths_by_enumeration(g)


def test_cyclic_view_witness_is_shared():
    checked = 0
    for seed in range(300):
        rnd = random.Random(70_000 + seed)
        g = random_kinded_digraph(rnd)
        if not has_cycle(g.node_ids, graph_succ(g, SCHEDULING_KINDS)):
            continue
        with pytest.raises(CyclicScheduleError) as expected:
            scheduling_subgraph(g)
        cycle = expected.value.cycle
        assert cycle[0] == cycle[-1]
        succ = graph_succ(g, SCHEDULING_KINDS)
        assert all(cycle[i + 1] in succ[cycle[i]] for i in range(len(cycle) - 1))
        symptoms = [rnd.choice(g.node_ids)]
        for call in (
            lambda: compute_schedule(g),
            lambda: forward_pass(g),
            lambda: backward_pass(g, 0),
            lambda: localize(g, symptoms, view=VIEW_SCHEDULING),
        ):
            with pytest.raises(CyclicScheduleError) as raised:
                call()
            assert raised.value.cycle == cycle
        checked += 1
    assert checked > 50


def test_duration_monotone_in_edge_weights():
    for seed in range(100):
        rnd = random.Random(40_000 + seed)
        g = random_dag(rnd)
        if not g.edges:
            continue
        base = compute_schedule(g).duration
        bump = rnd.randrange(len(g.edges))
        edges = [
            ActivityEdge(e.id, e.tail, e.head, e.weight + (3 if i == bump else 0), e.kind)
            for i, e in enumerate(g.edges)
        ]
        assert compute_schedule(build_graph(g.activities, edges)).duration >= base


def test_precedence_consistent_dummy_edges_are_neutral():
    # a dummy edge whose tail is not scheduled after its head never moves the
    # duration and can only add zero-slack nodes
    added = 0
    for seed in range(200):
        rnd = random.Random(50_000 + seed)
        g = random_dag(rnd)
        s = compute_schedule(g)
        closure = transitive_closure(dependency_matrix(g))
        nodes = g.node_ids
        pairs = [
            (u, v)
            for u in nodes
            for v in nodes
            if u != v
            and s.earliest[u] <= s.earliest[v]
            and not closure.entry(v, u)  # adding u -> v must not close a cycle
        ]
        if not pairs:
            continue
        u, v = pairs[rnd.randrange(len(pairs))]
        edges = list(g.edges) + [ActivityEdge("dummy0", u, v, 0, EDGE_DUMMY)]
        s2 = compute_schedule(build_graph(g.activities, edges))
        assert s2.duration == s.duration
        assert set(s2.critical_nodes) >= set(s.critical_nodes)
        added += 1
    assert added > 100


def test_critical_paths_sum_to_duration():
    for seed in range(100):
        g = random_dag(random.Random(60_000 + seed))
        s = compute_schedule(g)
        weight = {}
        for e in g.edges:
            key = (e.tail, e.head)
            weight[key] = max(weight.get(key, 0), e.weight)
        for path in s.paths:
            total = sum(weight[(path[i], path[i + 1])] for i in range(len(path) - 1))
            assert total == s.duration
            assert all(s.slack[v] == 0 for v in path)


def test_critical_paths_enumerated_only_when_read(monkeypatch):
    calls = []
    enumerate_paths = depmat.schedule._critical_paths
    monkeypatch.setattr(
        depmat.schedule, "_critical_paths", lambda s: calls.append(s) or enumerate_paths(s)
    )
    s = compute_schedule(series_diamonds(6))
    assert calls == []
    assert len(s.paths) == 2**6
    assert s.paths is s.paths
    assert len(calls) == 1
    assert s == compute_schedule(series_diamonds(6))


def test_localize_export_and_experiment_never_enumerate_paths(monkeypatch, tmp_path, capsys):
    def forbidden(*args):
        raise AssertionError("critical paths enumerated")

    monkeypatch.setattr(depmat.schedule, "_critical_paths", forbidden)
    g = series_diamonds(40)
    report = localize(g, ["d0", "d120"])
    assert all(c.is_critical for c in report.candidates)
    path = tmp_path / "diamonds.json"
    path.write_bytes(serialize_graph(g))
    assert main(["export", str(path), "--symptoms", "d0,d60"]) == 0
    assert capsys.readouterr().out.count("shape=doublecircle") == 121
    assert main(["localize", str(path), "--symptoms", "d3"]) == 0
    report = run_experiment(GeneratorParams(40, 5, 0.3, feedback_edge_fraction=0.2, seed=9), 6, 0.7)
    assert len(report.rows) == 6

import random

import pytest
from hypothesis import given, settings, strategies as st

import depmat.graph
from depmat.graph import (
    Activity,
    ActivityEdge,
    ActivityGraph,
    CyclicScheduleError,
    EDGE_DEPENDENCY_ONLY,
    EDGE_DUMMY,
    EDGE_KINDS,
    EDGE_SCHEDULING,
    GraphBuildError,
    MAX_WEIGHT,
    NODE_KINDS,
    SCHEDULING_KINDS,
    build_graph,
    condensation,
    scheduling_subgraph,
    strongly_connected_components,
    validate,
)

from oracles import (
    bfs_hops,
    closure_by_powers,
    graph_succ,
    has_cycle,
    random_digraph_rows,
    random_kinded_digraph,
    random_mixed_graph,
    unchecked_graph,
)


def codes(exc_or_report):
    issues = exc_or_report.issues
    return {i.code for i in issues}


def build_issues(activities, edges):
    """The issues ``build_graph`` rejects the records for: the errors
    ``validate`` lists for them."""
    with pytest.raises(GraphBuildError) as exc:
        build_graph(activities, edges)
    return exc.value.issues


def test_build_robot_fixture(robot):
    assert [a.id for a in robot.activities] == ["v0", "v1", "v2", "v3", "v4"]
    assert [e.id for e in robot.edges] == list("abcdefghi")
    assert robot.unit == "s"
    assert robot.dependency_view[robot.position("v3")][0] == robot.position("v1")


def test_build_single_node():
    g = build_graph([Activity("v0")], [])
    assert g.node_ids == ("v0",)
    assert g.edges == ()


def test_build_rejects_self_loop():
    with pytest.raises(GraphBuildError) as exc:
        build_graph([Activity("v0")], [ActivityEdge("x", "v0", "v0", 1)])
    assert "self-loop" in codes(exc.value)


def test_build_rejects_duplicate_ids():
    with pytest.raises(GraphBuildError) as exc:
        build_graph([Activity("v0"), Activity("v0")], [])
    assert "duplicate-id" in codes(exc.value)
    with pytest.raises(GraphBuildError) as exc:
        build_graph(
            [Activity("v0"), Activity("v1")],
            [ActivityEdge("x", "v0", "v1", 1), ActivityEdge("x", "v1", "v0", 1)],
        )
    assert "duplicate-id" in codes(exc.value)


def test_build_rejects_unknown_endpoint():
    with pytest.raises(GraphBuildError) as exc:
        build_graph([Activity("v0")], [ActivityEdge("x", "v0", "zz", 1)])
    assert "unknown-endpoint" in codes(exc.value)


def test_build_rejects_bad_weights():
    nodes = [Activity("v0"), Activity("v1")]
    with pytest.raises(GraphBuildError) as exc:
        build_graph(nodes, [ActivityEdge("x", "v0", "v1", -1)])
    assert "negative-weight" in codes(exc.value)
    with pytest.raises(GraphBuildError) as exc:
        build_graph(nodes, [ActivityEdge("x", "v0", "v1", 1.5)])
    assert "invalid-weight" in codes(exc.value)
    with pytest.raises(GraphBuildError) as exc:
        build_graph(nodes, [ActivityEdge("x", "v0", "v1", True)])
    assert "invalid-weight" in codes(exc.value)


def test_build_rejects_a_weight_above_the_bound_at_its_edge():
    with pytest.raises(GraphBuildError) as exc:
        build_graph([Activity("v0"), Activity("v1")], [ActivityEdge("x", "v0", "v1", MAX_WEIGHT + 1)])
    assert exc.value.loci == ("edges[0]",)
    assert str(exc.value) == "weight-too-large: edge x: weight is above 2**64"
    assert build_graph([Activity("v0"), Activity("v1")], [ActivityEdge("x", "v0", "v1", MAX_WEIGHT)])


@pytest.mark.parametrize(
    "weight,kind,expected",
    [
        (-(10**5000), EDGE_SCHEDULING, ("negative-weight", "edge x: weight is negative")),
        (10**5000, EDGE_SCHEDULING, ("weight-too-large", "edge x: weight is above 2**64")),
        (10**5000, EDGE_DUMMY, ("weight-too-large", "edge x: weight is above 2**64")),
        (MAX_WEIGHT + 1, EDGE_SCHEDULING, ("weight-too-large", "edge x: weight is above 2**64")),
        (MAX_WEIGHT + 1, EDGE_DUMMY, ("weight-too-large", "edge x: weight is above 2**64")),
    ],
    ids=["minus-10e5000", "10e5000", "10e5000-dummy", "2e64+1", "2e64+1-dummy"],
)
def test_validate_reports_an_out_of_bound_weight_without_formatting_it(weight, kind, expected):
    # a weight past the interpreter's digit limit cannot be formatted at all
    issues = build_issues((Activity("v0"), Activity("v1")), (ActivityEdge("x", "v0", "v1", weight, kind),))
    assert [(i.code, i.message) for i in issues] == [expected]


@pytest.mark.parametrize(
    "activities, edges, message, ids",
    [
        ((Activity(10**5000),), (), "activity id <int> is not a valid token", ("<int>",)),
        (
            (Activity("a"), Activity("b")),
            (ActivityEdge("x", "a", 10**5000, 1),),
            "edge x: unknown node <int>",
            ("x", "<int>"),
        ),
        ((Activity("a", declared_kind=10**5000),), (), "activity a: unknown kind <int>", ("a",)),
        (
            (Activity("a"), Activity("b")),
            (ActivityEdge("x", "a", "b", 1, 10**5000),),
            "edge x: unknown kind <int>",
            ("x",),
        ),
    ],
    ids=["node-id", "edge-head", "node-kind", "edge-kind"],
)
def test_validate_names_a_value_that_has_no_text_by_its_type(activities, edges, message, ids):
    # an int past the interpreter's digit limit cannot be formatted at all
    issues = build_issues(activities, edges)
    assert [(i.message, i.ids) for i in issues] == [(message, ids)]


@pytest.mark.parametrize(
    "activities, unit, locus, message",
    [
        ((Activity("a", label=5),), "ms", "nodes[0]", "activity a: label must be a string"),
        (
            (Activity("a"), Activity("b", label="x\ud800")),
            "ms",
            "nodes[1]",
            "activity b: label must not contain a lone surrogate",
        ),
        ((Activity("a"),), 5, "unit", "unit must be a non-empty string"),
        ((Activity("a"),), "", "unit", "unit must be a non-empty string"),
        ((Activity("a"),), "m\udfffs", "unit", "unit must not contain a lone surrogate"),
    ],
    ids=["label-int", "label-surrogate", "unit-int", "unit-empty", "unit-surrogate"],
)
def test_build_rejects_a_label_or_unit_that_a_file_cannot_carry(activities, unit, locus, message):
    with pytest.raises(GraphBuildError) as exc:
        build_graph(activities, [], unit=unit)
    assert exc.value.loci == (locus,)
    code = "invalid-unit" if locus == "unit" else "invalid-label"
    assert [(i.code, i.message) for i in exc.value.issues] == [(code, message)]
    assert validate(unchecked_graph(activities, [], unit)).errors == exc.value.issues


@st.composite
def _unchecked_records(draw):
    """Activities, edges among declared ids and a unit, each free to break
    a rule that ``unchecked_graph`` can hold: self-loops, repeated ids,
    weights that are bool, float, negative or above the bound, unknown
    kinds, odd labels, non-zero dummy edges and bad units."""
    labels = st.one_of(st.none(), st.text(max_size=2), st.just("x\ud800"), st.integers(), st.booleans())
    node_kinds = st.sampled_from([*sorted(NODE_KINDS), "odd", 7])
    ids = draw(st.lists(st.sampled_from(["a", "b", "c", "1x"]), min_size=1, max_size=4))
    activities = [Activity(i, draw(labels), draw(node_kinds)) for i in ids]
    weights = st.one_of(
        st.integers(0, 3), st.booleans(), st.floats(allow_nan=False), st.integers(max_value=-1),
        st.integers(MAX_WEIGHT, MAX_WEIGHT + 2),
    )
    edge_ids, ends = st.sampled_from(["e", "f", "g", "2e"]), st.sampled_from(ids)
    edge_kinds = st.sampled_from([*sorted(EDGE_KINDS), "odd", None])
    edges = [
        ActivityEdge(draw(edge_ids), draw(ends), draw(ends), draw(weights), draw(edge_kinds))
        for _ in range(draw(st.integers(0, 5)))
    ]
    return activities, edges, draw(st.sampled_from(["ms", "", "m\udfffs", 5, None]))


@given(_unchecked_records())
@settings(max_examples=300, deadline=None)
def test_validate_lists_what_build_graph_raises_without_building_a_record(records):
    try:
        build_graph(*records)
        issues = ()
    except GraphBuildError as exc:
        issues = exc.issues
    report = validate(unchecked_graph(*records))
    assert report.errors == issues

    def no_record(*args, **kwargs):
        raise AssertionError("a record built")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(depmat.graph, "Activity", no_record)
        patch.setattr(depmat.graph, "ActivityEdge", no_record)
        assert validate(unchecked_graph(*records)) == report


def test_build_graph_passes_its_records_through_the_gate_once(robot, monkeypatch):
    calls, gate = [], depmat.graph._checked_graph
    monkeypatch.setattr(depmat.graph, "_checked_graph", lambda *columns: calls.append(columns) or gate(*columns))
    build_graph(robot.activities, robot.edges, robot.unit)
    assert len(calls) == 1
    with pytest.raises(GraphBuildError):
        build_graph([Activity("a"), Activity("a")], [ActivityEdge("x", "a", "a", -1)])
    assert len(calls) == 2


def test_build_rejects_nonzero_dummy():
    with pytest.raises(GraphBuildError) as exc:
        build_graph(
            [Activity("v0"), Activity("v1")],
            [ActivityEdge("x", "v0", "v1", 3, EDGE_DUMMY)],
        )
    assert "dummy-nonzero" in codes(exc.value)


def test_build_accepts_zero_weight_dummy():
    g = build_graph(
        [Activity("v0"), Activity("v1")],
        [ActivityEdge("x", "v0", "v1", 0, EDGE_DUMMY)],
    )
    assert g.edges[0].kind == EDGE_DUMMY


def test_build_rejects_bad_id_tokens():
    with pytest.raises(GraphBuildError) as exc:
        build_graph([Activity("0abc")], [])
    assert "invalid-id" in codes(exc.value)
    with pytest.raises(GraphBuildError) as exc:
        build_graph([Activity("")], [])
    assert "invalid-id" in codes(exc.value)


def test_build_rejects_unknown_kinds():
    with pytest.raises(GraphBuildError) as exc:
        build_graph([Activity("v0", declared_kind="weird")], [])
    assert "invalid-kind" in codes(exc.value)


def test_build_collects_all_errors():
    with pytest.raises(GraphBuildError) as exc:
        build_graph(
            [Activity("v0"), Activity("v0")],
            [ActivityEdge("x", "v0", "v0", -2)],
        )
    assert {"duplicate-id", "self-loop", "negative-weight"} <= codes(exc.value)


def test_scheduling_subgraph_robot(robot):
    sub = scheduling_subgraph(robot)
    assert [e.id for e in sub.edges] == list("abcdefg")
    assert sub.activities == robot.activities
    assert sub.unit == robot.unit


def test_scheduling_subgraph_no_edges_identity():
    g = build_graph([Activity("v0"), Activity("v1")], [])
    assert scheduling_subgraph(g) == g


def test_scheduling_subgraph_two_cycle():
    g = build_graph(
        [Activity("v0"), Activity("v1")],
        [ActivityEdge("x", "v0", "v1", 1), ActivityEdge("y", "v1", "v0", 1)],
    )
    with pytest.raises(CyclicScheduleError) as exc:
        scheduling_subgraph(g)
    cycle = exc.value.cycle
    assert cycle[0] == cycle[-1]
    assert set(cycle) == {"v0", "v1"}
    assert "scheduling cycle" in str(exc.value)


def test_scheduling_subgraph_ignores_dependency_only_cycles(robot):
    scheduling_subgraph(robot)  # h and i close cycles but are dependency_only


def test_validate_robot(robot):
    report = validate(robot)
    assert report.ok
    messages = [i.message for i in report.warnings]
    assert "dependency-only cycle: v0->v4->v0" in messages
    assert "multiple sinks in scheduling view: v3, v4" in messages
    assert not any(i.code == "multiple-sources" for i in report.warnings)


def test_validate_empty_graph():
    report = validate(build_graph((), ()))
    assert report.ok
    assert report.issues == ()


def test_validate_unknown_endpoint_not_ok():
    issues = build_issues((Activity("v0"),), (ActivityEdge("x", "v0", "zz", 1),))
    assert "unknown-endpoint" in {i.code for i in issues}


@pytest.mark.parametrize(
    "activities, edges, code",
    [
        ((Activity("a", None, []),), (), "invalid-kind"),
        ((Activity("a"), Activity("b")), (ActivityEdge("e", "a", "b", 1, {}),), "invalid-kind"),
        ((Activity([]),), (), "invalid-id"),
        ((Activity("a"),), (ActivityEdge("e", [], "a", 1),), "unknown-endpoint"),
        # an int past the digit limit: no message may format it
        ((Activity(10**5000),), (), "invalid-id"),
        ((Activity("a", None, 10**5000),), (), "invalid-kind"),
        ((Activity("a"),), (ActivityEdge("e", "a", 10**5000, 1),), "unknown-endpoint"),
    ],
)
def test_validate_unhashable_fields_are_issues(activities, edges, code):
    assert code in {i.code for i in build_issues(activities, edges)}


@pytest.mark.parametrize(
    "tail, head, entry",
    [(0, 5, "<int>"), (-1, 0, "<int>"), ("b", 1, "<str>"), (True, 1, "<bool>")],
    ids=["past-the-end", "negative", "node-id-string", "bool"],
)
def test_validate_reports_a_position_outside_the_node_list_as_an_unknown_endpoint(tail, head, entry):
    """A tail or head that is not an int in ``range(len(node_ids))`` is
    never indexed, counted from the end or taken for a node id."""
    nodes = (["a", "b"], [None, None], ["auto", "auto"])
    graph = ActivityGraph.from_columns(nodes, (["e"], [tail], [head], [1], ["scheduling"]))
    report = validate(graph)  # returns a report rather than raising
    assert not report.ok
    assert [(i.code, i.message, i.ids) for i in report.issues] == [
        ("unknown-endpoint", f"edge e: unknown node {entry}", ("e", entry))
    ]


def test_validate_isolated_node():
    g = build_graph(
        [Activity("v0"), Activity("v1"), Activity("v2")],
        [ActivityEdge("x", "v0", "v1", 1)],
    )
    report = validate(g)
    assert any(i.code == "isolated-node" and i.ids == ("v2",) for i in report.warnings)


def test_validate_scheduling_cycle_warning():
    g = build_graph(
        [Activity("v0"), Activity("v1")],
        [ActivityEdge("x", "v0", "v1", 1), ActivityEdge("y", "v1", "v0", 2)],
    )
    report = validate(g)
    assert report.ok
    assert any(i.code == "scheduling-cycle" for i in report.warnings)


def test_validate_dependency_only_cycle_witness():
    g = build_graph(
        [Activity("a"), Activity("b")],
        [
            ActivityEdge("x", "a", "b", 1),
            ActivityEdge("y", "b", "a", 1, EDGE_DEPENDENCY_ONLY),
        ],
    )
    report = validate(g)
    assert any(
        i.code == "dependency-only-cycle" and i.message == "dependency-only cycle: a->b->a"
        for i in report.warnings
    )


def test_validate_scheduling_cycle_warning_matches_oracle():
    for seed in range(300):
        g = random_kinded_digraph(random.Random(80_000 + seed))
        succ = graph_succ(g, SCHEDULING_KINDS)
        report = validate(g)
        warned = [i for i in report.warnings if i.code == "scheduling-cycle"]
        assert bool(warned) == has_cycle(g.node_ids, succ)
        for issue in warned:
            cycle = issue.message.removeprefix("scheduling cycle: ").split("->")
            assert cycle[0] == cycle[-1]
            assert all(cycle[i + 1] in succ[cycle[i]] for i in range(len(cycle) - 1))


def test_subgraph_matches_kind_filter_and_oracle():
    for seed in range(200):
        rnd = random.Random(seed)
        g = random_mixed_graph(rnd)
        expected_edges = tuple(e for e in g.edges if e.kind in SCHEDULING_KINDS)
        succ = graph_succ(g, SCHEDULING_KINDS)
        assert not has_cycle(g.node_ids, succ)
        sub = scheduling_subgraph(g)
        assert sub.edges == expected_edges
        assert sub.activities == g.activities


def test_scheduling_subgraph_agrees_with_cycle_oracle():
    # over arbitrary digraphs: subgraph succeeds iff the filtered edges are acyclic
    for seed in range(200):
        rnd = random.Random(10_000 + seed)
        n = rnd.randint(1, 10)
        nodes = [Activity(f"n{i}") for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(n):
                if i != j and rnd.random() < 0.25:
                    edges.append(ActivityEdge(f"e{len(edges)}", f"n{i}", f"n{j}", rnd.randint(0, 9)))
        g = build_graph(nodes, edges)
        cyclic = has_cycle(g.node_ids, graph_succ(g, SCHEDULING_KINDS))
        if cyclic:
            with pytest.raises(CyclicScheduleError):
                scheduling_subgraph(g)
        else:
            scheduling_subgraph(g)


def test_strongly_connected_components_partition():
    ids = ["a", "b", "c", "d"]
    succ = {"a": ["b"], "b": ["a"], "c": ["d"], "d": []}
    comps = strongly_connected_components(ids, succ)
    assert comps == [["a", "b"], ["c"], ["d"]]



def test_strongly_connected_components_match_mutual_reachability():
    for seed in range(300):
        rnd = random.Random(seed)
        ids = [f"x{i}" for i in rnd.sample(range(40), rnd.randint(0, 25))]
        density = rnd.uniform(0.0, 0.3)
        succ = {v: [w for w in ids if rnd.random() < density] for v in ids}  # self-loops too
        reach = {v: set(bfs_hops(succ, v)) for v in ids}
        comps = strongly_connected_components(ids, succ)
        position = {v: i for i, v in enumerate(ids)}
        assert sorted(v for comp in comps for v in comp) == sorted(ids)
        for comp in comps:
            assert comp == sorted(comp, key=position.__getitem__)
            assert {w for w in ids if w in reach[comp[0]] and comp[0] in reach[w]} == set(comp)
        assert [position[c[0]] for c in comps] == sorted(position[c[0]] for c in comps)


def _cyclic_successors(rnd):
    """Random digraph rows with cycles and self-loops, as position lists."""
    rows = random_digraph_rows(rnd)
    for i, row in enumerate(rows):
        row[i] = int(rnd.random() < 0.2)
    return rows, [[j for j, v in enumerate(row) if v] for row in rows]


def test_pull_of_raw_rows_is_the_closure():
    for seed in range(150):
        rows, succ = _cyclic_successors(random.Random(5000 + seed))
        masks = [sum(v << j for j, v in enumerate(row)) for row in rows]
        closed = [sum(v << j for j, v in enumerate(row)) for row in closure_by_powers(rows)]
        assert condensation(succ).pull(masks) == closed


def test_one_hot_pull_is_reverse_reachability():
    for seed in range(100):
        _, succ = _cyclic_successors(random.Random(5500 + seed))
        n, cond = len(succ), condensation(succ)
        reach = [bfs_hops(dict(enumerate(succ)), v) for v in range(n)]
        for r in range(n):
            seeds = [int(v == r) for v in range(n)]
            assert cond.pull(seeds) == [int(r in reach[v]) for v in range(n)]


def test_push_is_per_source_bfs():
    for seed in range(150):
        rnd = random.Random(6000 + seed)
        _, succ = _cyclic_successors(rnd)
        sources = rnd.sample(range(len(succ)), rnd.randint(1, len(succ)))
        reached = [bfs_hops(dict(enumerate(succ)), s) for s in sources]
        expected = [sum(1 << i for i, hops in enumerate(reached) if v in hops) for v in range(len(succ))]
        assert condensation(succ).push(sources) == expected


def test_acyclic_condensation_numbers_each_node_by_its_position():
    for seed in range(100):
        rnd = random.Random(7000 + seed)
        n = rnd.randint(0, 12)
        rank = rnd.sample(range(n), n)  # a random topological order
        succ = [[w for w in range(n) if rank[v] < rank[w] and rnd.random() < 0.3] for v in range(n)]
        cond = condensation(succ)
        assert cond.components == [[v] for v in range(n)]
        assert cond.component_of == list(range(n))
        place = {c: k for k, c in enumerate(cond.order)}
        assert sorted(place) == list(range(n))
        assert all(place[v] < place[w] for v in range(n) for w in succ[v])


def test_condensation_keeps_the_view_it_condensed(robot):
    g = build_graph(robot.activities, robot.edges, unit=robot.unit)
    assert g.dependency_condensation.succ is g.dependency_view
    assert g.scheduling_condensation.succ is g.scheduling_view[0]
    succ = [[1], [0], []]
    assert condensation(succ).succ is succ


def test_strongly_connected_components_condenses_once(monkeypatch):
    calls = []

    def counting(name):
        original = getattr(depmat.graph, name)

        def wrapper(succ):
            calls.append(name)
            return original(succ)

        return wrapper

    for name in ("condensation", "_tarjan"):
        monkeypatch.setattr(depmat.graph, name, counting(name))
    comps = strongly_connected_components(["a", "b", "c"], {"a": ["b"], "b": ["a", "c"], "c": ["c"]})
    assert comps == [["a", "b"], ["c"]]
    assert calls == ["condensation", "_tarjan"]


def _view_reference(g, kinds):
    """Per tail position, (head positions, weights) of the edges of the
    given kinds, read straight off the edge list."""
    position = {v: i for i, v in enumerate(g.node_ids)}
    heads = [[] for _ in g.node_ids]
    weights = [[] for _ in g.node_ids]
    for e in g.edges:
        if e.kind in kinds and e.tail in position and e.head in position:
            heads[position[e.tail]].append(position[e.head])
            weights[position[e.tail]].append(e.weight)
    return [tuple(x) for x in heads], [tuple(x) for x in weights]


def test_views_match_edge_list_reference():
    for seed in range(200):
        rnd = random.Random(40_000 + seed)
        base = random_mixed_graph(rnd, 12)
        edges = list(base.edges)
        # parallel copies of existing edges, and dummy twins of scheduling
        # edges (same direction, so the scheduling view stays acyclic)
        for e in rnd.sample(base.edges, min(len(base.edges), 4)):
            kind = EDGE_DUMMY if e.kind == EDGE_SCHEDULING and rnd.random() < 0.5 else e.kind
            weight = 0 if kind == EDGE_DUMMY else e.weight + rnd.randint(0, 2)
            edges.insert(rnd.randint(0, len(edges)), ActivityEdge(f"p{len(edges)}", e.tail, e.head, weight, kind))
        g = build_graph(base.activities, edges)
        assert g.dependency_view == _view_reference(g, EDGE_KINDS)[0]
        assert g.scheduling_view == _view_reference(g, SCHEDULING_KINDS)
        rank = {v: i for i, v in enumerate(g.scheduling_order)}
        assert sorted(rank) == list(range(len(g.node_ids)))
        assert all(rank[v] < rank[w] for v, heads in enumerate(g.scheduling_view[0]) for w in heads)
        assert g.dependency_view is g.dependency_view and g.scheduling_view is g.scheduling_view


def test_build_rejects_every_edge_with_an_undeclared_endpoint():
    # no column can hold such an edge, so no graph has one
    with pytest.raises(GraphBuildError) as exc:
        build_graph(
            (Activity("a"), Activity("b")),
            (
                ActivityEdge("x", "a", "b", 2),
                ActivityEdge("y", "a", "zz", 3),
                ActivityEdge("z", "zz", "b", 4, EDGE_DEPENDENCY_ONLY),
                ActivityEdge("w", "b", "a", 5, EDGE_DEPENDENCY_ONLY),
            ),
        )
    assert [(i.code, i.ids) for i in exc.value.issues] == [
        ("unknown-endpoint", ("y", "zz")),
        ("unknown-endpoint", ("z", "zz")),
    ]
    assert exc.value.loci == ("edges[1]", "edges[2]")


def test_graph_is_immutable(robot):
    with pytest.raises(Exception):
        robot.unit = "h"

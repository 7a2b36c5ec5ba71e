import csv
import dataclasses
import io
import json
import pickle
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import depmat.graph
from depmat import fileio
from depmat.fileio import (
    ParseError,
    Records,
    SchemaError,
    dumps_json,
    export_dot,
    matrix_csv,
    matrix_text,
    parse_graph,
    serialize_graph,
)
from depmat.graph import (
    Activity,
    ActivityEdge,
    ActivityGraph,
    EDGE_DEPENDENCY_ONLY,
    EDGE_DUMMY,
    EDGE_KINDS,
    EDGE_SCHEDULING,
    GraphBuildError,
    KIND_AUTO,
    MAX_WEIGHT,
    NODE_KINDS,
    UnknownNodeError,
    ValidationIssue,
    build_graph,
    shown,
    validate,
)
from depmat.localization import VIEW_SCHEDULING, localize
from depmat.matrices import (
    AdjacencyMatrix,
    DependencyMatrix,
    IncidenceMatrix,
    adjacency_matrix,
    dependency_matrix,
    incidence_matrix,
    transitive_closure,
)
from depmat.simulation import GeneratorParams, generate_graph

import oracles
from conftest import GOLDENS


def test_parse_robot(robot):
    assert len(robot.activities) == 5
    assert len(robot.edges) == 9
    assert robot.unit == "s"
    kinds = {e.id: e.kind for e in robot.edges}
    assert kinds["h"] == EDGE_DEPENDENCY_ONLY and kinds["i"] == EDGE_DEPENDENCY_ONLY
    assert all(kinds[x] == EDGE_SCHEDULING for x in "abcdefg")


def test_parse_minimal_document():
    g = parse_graph('{"format_version":1,"nodes":[{"id":"v0"}],"edges":[]}')
    assert g.node_ids == ("v0",)
    assert g.unit == "ms"


def test_parse_negative_weight_names_edge():
    doc = {
        "format_version": 1,
        "nodes": [{"id": "v0"}, {"id": "v1"}],
        "edges": [{"id": "bad", "from": "v0", "to": "v1", "weight": -1}],
    }
    with pytest.raises(SchemaError) as exc:
        parse_graph(json.dumps(doc))
    assert "bad" in str(exc.value)
    assert exc.value.locus == "edges[0].weight"


def test_parse_rejects_float_and_bool_weights():
    base = {
        "format_version": 1,
        "nodes": [{"id": "v0"}, {"id": "v1"}],
    }
    for weight in (1.5, True):
        doc = dict(base, edges=[{"id": "x", "from": "v0", "to": "v1", "weight": weight}])
        with pytest.raises(SchemaError):
            parse_graph(json.dumps(doc))


def _one_edge_document(weight: str) -> str:
    return (
        '{"format_version": 1, "nodes": [{"id": "v0"}, {"id": "v1"}],'
        f' "edges": [{{"id": "x", "from": "v0", "to": "v1", "weight": {weight}}}]}}'
    )


def test_weight_bound_is_inclusive_at_2_pow_64():
    assert parse_graph(_one_edge_document(str(2**64))).edges[0].weight == 2**64
    for weight in (str(2**64 + 1), "9" * 4300):
        with pytest.raises(SchemaError) as exc:
            parse_graph(_one_edge_document(weight))
        assert str(exc.value) == "edges[0].weight: edge 'x': weight must be at most 2**64"


def test_library_graph_at_the_weight_bound_round_trips():
    g = build_graph([Activity("v0"), Activity("v1")], [ActivityEdge("x", "v0", "v1", 2**64)])
    assert parse_graph(serialize_graph(g)) == g


def test_integer_literal_past_the_digit_limit_is_a_parse_error():
    for data in (_one_edge_document("9" * 5000), _one_edge_document("9" * 5000).encode()):
        with pytest.raises(ParseError) as exc:
            parse_graph(data)
        assert (exc.value.line, exc.value.column) == (1, 1)
        assert str(exc.value) == "line 1 column 1: integer literal longer than 4300 digits"


def test_parse_rejects_unknown_fields():
    with pytest.raises(SchemaError) as exc:
        parse_graph('{"format_version":1,"nodes":[],"edges":[],"colour":1}')
    assert "colour" in str(exc.value)
    with pytest.raises(SchemaError):
        parse_graph('{"format_version":1,"nodes":[{"id":"a","size":2}],"edges":[]}')
    with pytest.raises(SchemaError):
        parse_graph(
            '{"format_version":1,"nodes":[{"id":"a"}],'
            '"edges":[{"id":"e","from":"a","to":"a","weight":1,"cost":3}]}'
        )


def test_parse_rejects_bad_version_and_kinds():
    with pytest.raises(SchemaError):
        parse_graph('{"format_version":2,"nodes":[],"edges":[]}')
    with pytest.raises(SchemaError):
        parse_graph('{"format_version":1,"nodes":[{"id":"a","kind":"odd"}],"edges":[]}')
    with pytest.raises(SchemaError):
        parse_graph(
            '{"format_version":1,"nodes":[{"id":"a"},{"id":"b"}],'
            '"edges":[{"id":"e","from":"a","to":"b","weight":1,"kind":"odd"}]}'
        )


def test_parse_missing_fields():
    with pytest.raises(SchemaError):
        parse_graph('{"nodes":[],"edges":[]}')
    with pytest.raises(SchemaError):
        parse_graph('{"format_version":1,"edges":[]}')
    with pytest.raises(SchemaError):
        parse_graph('{"format_version":1,"nodes":[{}],"edges":[]}')


def test_parse_syntax_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_graph('{"format_version": 1,\n  "nodes": [}]}')
    assert exc.value.line == 2
    assert exc.value.column > 0


def test_parse_build_errors_carry_locus():
    doc = {
        "format_version": 1,
        "nodes": [{"id": "v0"}],
        "edges": [{"id": "x", "from": "v0", "to": "zz", "weight": 1}],
    }
    with pytest.raises(SchemaError) as exc:
        parse_graph(json.dumps(doc))
    assert exc.value.locus == "edges[0]"
    assert "zz" in str(exc.value)


@pytest.mark.parametrize(
    "nodes,edge_ids,locus",
    [
        pytest.param(["a", "b", "a"], ["e"], "nodes[2]", id="node"),
        pytest.param(["a", "b", "a"], ["a"], "nodes[2]", id="node-named-like-an-edge"),
        pytest.param(["a", "b"], ["x", "x"], "edges[1]", id="edge"),
    ],
)
def test_duplicate_id_is_located_at_the_later_copy(nodes, edge_ids, locus):
    doc = {
        "format_version": 1,
        "nodes": [{"id": v} for v in nodes],
        "edges": [{"id": e, "from": "a", "to": "b", "weight": 1} for e in edge_ids],
    }
    with pytest.raises(SchemaError) as exc:
        parse_graph(json.dumps(doc))
    assert exc.value.locus == locus
    assert str(exc.value).startswith(f"{locus}: duplicate ")


@pytest.mark.parametrize(
    "document,locus",
    [
        pytest.param('{"format_version":1,"nodes":[],"edges":[],"x\\ny":1}', "'x\\ny'", id="document-key"),
        pytest.param(
            '{"format_version":1,"nodes":[{"id":"a","x\\ny":1}],"edges":[]}', "nodes[0].'x\\ny'", id="node-key"
        ),
        pytest.param(
            '{"format_version":1,"nodes":[{"id":"a"}],"edges":[{"id":"e","from":"a","to":"a","weight":1,"x\\ny":1}]}',
            "edges[0].'x\\ny'",
            id="edge-key",
        ),
        pytest.param(
            '{"format_version":1,"nodes":[],"edges":[],"a\\r\\u2028b":1,"a\\r\\u2028b":2}',
            "'a\\r\\u2028b'",
            id="duplicate-key",
        ),
    ],
)
def test_unprintable_key_is_quoted_in_its_locus(document, locus):
    with pytest.raises(SchemaError) as exc:
        parse_graph(document)
    assert exc.value.locus == locus
    assert len(str(exc.value).splitlines()) == 1


def test_unprintable_ids_keep_each_issue_on_one_line():
    node, edge = Activity("a\nb", declared_kind="odd\n"), ActivityEdge("e\nf", "a\nb", "a\nb", 1, EDGE_DUMMY)
    with pytest.raises(GraphBuildError) as exc:
        build_graph([node], [edge])
    codes = [i.code for i in exc.value.issues]
    assert codes == ["invalid-id", "invalid-kind", "invalid-id", "dummy-nonzero", "self-loop"]
    assert [len(i.message.splitlines()) for i in exc.value.issues] == [1] * len(codes)
    assert exc.value.issues[4].message == "edge 'e\\nf': self-loop on 'a\\nb'"
    with pytest.raises(UnknownNodeError, match=r"^unknown node: 'x\\ty'$"):
        build_graph([Activity("a")], []).position("x\ty")


def test_printable_text_is_shown_as_it_is():
    assert [shown(t) for t in ("v0", "caf\u00e9 au lait", "", 5)] == ["v0", "caf\u00e9 au lait", "", "5"]
    assert shown("a\u2028b") == "'a\\u2028b'"


def test_reference_records_skip_structural_validation():
    doc = {
        "format_version": 1,
        "nodes": [{"id": "v0"}],
        "edges": [{"id": "x", "from": "v0", "to": "zz", "weight": 1}],
    }
    activities, edges, unit = oracles.reference_records(json.dumps(doc))
    assert len(activities) == 1 and len(edges) == 1 and unit == "ms"


def test_serialize_robot_is_canonical(robot, robot_bytes):
    assert serialize_graph(robot) == robot_bytes


@pytest.mark.parametrize(
    "unit,label,locus",
    [
        pytest.param("\ud800", None, "unit", id="unit"),
        pytest.param("ms", "x\udfffy", "nodes[1].label", id="label"),
        pytest.param("\udc00s", "\ud800", "unit", id="unit-first"),
    ],
)
def test_lone_surrogate_in_text_is_a_schema_error(unit, label, locus):
    # json.loads decodes the escape, but UTF-8 cannot encode the result, so
    # the graph could not be written back
    doc = {"format_version": 1, "unit": unit, "nodes": [{"id": "a"}, {"id": "b", "label": label}], "edges": []}
    for data in (json.dumps(doc), json.dumps(doc).encode("ascii")):
        with pytest.raises(SchemaError) as exc:
            parse_graph(data)
        assert exc.value.locus == locus
        assert str(exc.value) == f"{locus}: {locus.rpartition('.')[2]} must not contain a lone surrogate"


def test_escaped_surrogate_pair_round_trips():
    data = '{"format_version": 1, "unit": "\\ud83d\\ude00", "nodes": [{"id": "a", "label": "\\ud83d\\ude00"}], "edges": []}'
    g = parse_graph(data)
    assert g.unit == g.activities[0].label == "\U0001F600"
    assert parse_graph(serialize_graph(g)) == g


def test_round_trip_robot(robot):
    assert parse_graph(serialize_graph(robot)) == robot


def test_serialize_empty_graph_round_trips():
    g = build_graph([], [])
    data = serialize_graph(g)
    assert parse_graph(data) == g
    assert json.loads(data) == {
        "format_version": 1,
        "unit": "ms",
        "nodes": [],
        "edges": [],
    }


def test_round_trip_generated_graphs():
    for seed in range(100):
        params = GeneratorParams(
            node_count=5 + seed % 20,
            layer_count=1 + seed % 5,
            edge_density=0.2 + (seed % 7) * 0.1,
            max_weight=1 + seed % 11,
            feedback_edge_fraction=(seed % 4) * 0.1,
            seed=seed,
        )
        g = generate_graph(params)
        assert parse_graph(serialize_graph(g)) == g


_token = st.from_regex(r"[A-Za-z_][A-Za-z0-9_-]{0,7}", fullmatch=True)
_label = st.one_of(st.none(), st.text(min_size=0, max_size=12))


@st.composite
def graphs(draw):
    node_ids = draw(st.lists(_token, min_size=1, max_size=6, unique=True))
    activities = [
        Activity(
            node_id,
            draw(_label),
            draw(st.sampled_from(["auto", "critical", "non_critical"])),
        )
        for node_id in node_ids
    ]
    edge_count = draw(st.integers(0, 8))
    edges = []
    for k in range(edge_count):
        tail, head = draw(st.sampled_from(node_ids)), draw(st.sampled_from(node_ids))
        if tail == head:
            continue
        kind = draw(st.sampled_from([EDGE_SCHEDULING, EDGE_DEPENDENCY_ONLY, EDGE_DUMMY]))
        weight = 0 if kind == EDGE_DUMMY else draw(st.integers(0, 10**6))
        edges.append(ActivityEdge(f"e{k}", tail, head, weight, kind))
    unit = draw(st.sampled_from(["ms", "s", "ticks"]))
    return build_graph(activities, edges, unit=unit)


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_round_trip_is_identity(g):
    assert parse_graph(serialize_graph(g)) == g


def _outcome(route, data):
    """A route's graph with both its views, or its error as parse_graph
    reports it: the exception type and its text, locus first."""
    try:
        g = route(data)
    except (ParseError, SchemaError) as exc:
        return type(exc).__name__, str(exc)
    except GraphBuildError as exc:
        return "SchemaError", f"{exc.loci[0]}: {exc.issues[0].message}{exc.more}"
    return g, g.dependency_view, g.scheduling_view


def _record_route(data):
    return build_graph(*oracles.reference_records(data))


def _column_checks_pass(data) -> bool:
    try:
        return fileio._checked_columns(*fileio._decode(data)) is not None
    except (ParseError, SchemaError):
        return False


def _assert_routes_agree(data):
    column, record = _outcome(parse_graph, data), _outcome(_record_route, data)
    assert column == record
    assert _column_checks_pass(data) == isinstance(record[0], ActivityGraph)


@pytest.mark.parametrize(
    "path", sorted((GOLDENS / "bad_documents").glob("*.json")), ids=lambda p: p.stem
)
def test_bad_document_fails_the_column_checks_as_it_fails_the_records(path):
    _assert_routes_agree(path.read_bytes())


@pytest.mark.parametrize(
    "path", sorted((GOLDENS / "bad_documents").glob("*.json")), ids=lambda p: p.stem
)
def test_a_bad_document_is_decoded_once(path, monkeypatch):
    decoded = []
    loads = json.loads

    def counting(*args, **kwargs):
        decoded.append(args[0])
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    try:  # two of them parse, and fail only later: an empty graph and a scheduling cycle
        parse_graph(path.read_bytes())
    except (ParseError, SchemaError):
        pass
    assert len(decoded) == (0 if path.stem == "invalid_utf8" else 1)


_ODD_VALUES = st.sampled_from(["odd", "", None, 1, True, ["critical"], {}])
_MUTATIONS = (
    "duplicate-node-id", "duplicate-edge-id", "unknown-endpoint", "self-loop", "dummy-nonzero",
    "bad-node-kind", "bad-edge-kind", "weight-at-bound", "weight-above-bound", "lone-surrogate",
    "non-object-node", "non-object-edge", "duplicate-key", "bool-weight", "float-weight",
    "negative-weight", "invalid-id", "non-string-endpoint", "non-string-label", "unknown-field",
    "missing-field",
)


# the mutations a document's records can carry past its schema checks
_RECORD_MUTATIONS = (
    "duplicate-node-id", "duplicate-edge-id", "unknown-endpoint", "self-loop", "dummy-nonzero",
    "weight-at-bound", "invalid-id",
)


@st.composite
def _documents(draw, mutations=_MUTATIONS):
    """A valid graph document, or one with exactly one of ``mutations``."""
    ids = draw(st.lists(_token, min_size=2, max_size=6, unique=True))
    nodes = []
    for v in ids:
        node = {"id": v}
        if draw(st.booleans()):
            node["label"] = draw(_label)
        if draw(st.booleans()):
            node["kind"] = draw(st.sampled_from(sorted(NODE_KINDS)))
        nodes.append(node)
    edges = []
    for k in range(draw(st.integers(0, 8))):
        tail, head = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
        edge = {"id": f"e{k}", "from": tail, "to": head, "weight": draw(st.integers(0, 10**6))}
        if draw(st.booleans()):
            edge["kind"] = draw(st.sampled_from(sorted(EDGE_KINDS)))
        if edge.get("kind") == EDGE_DUMMY:
            edge["weight"] = 0
        edges.append(edge)

    mutation = draw(st.sampled_from((None, *mutations)))
    fresh = {"id": "m", "from": ids[0], "to": ids[1], "weight": 1}  # "m" is no other edge's id
    node_at = draw(st.integers(0, len(nodes)))
    edge_at = draw(st.integers(0, len(edges)))
    added = {
        "duplicate-edge-id": {**fresh, "id": edges[0]["id"]} if edges else None,
        "unknown-endpoint": {**fresh, draw(st.sampled_from(["from", "to"])): "_undeclared"},
        "non-string-endpoint": {**fresh, draw(st.sampled_from(["from", "to"])): draw(_ODD_VALUES)},
        "self-loop": {**fresh, "to": ids[0]},
        "dummy-nonzero": {**fresh, "kind": EDGE_DUMMY, "weight": draw(st.integers(1, 10))},
        "bad-edge-kind": {**fresh, "kind": draw(_ODD_VALUES)},
        "weight-at-bound": {**fresh, "weight": MAX_WEIGHT},
        "weight-above-bound": {**fresh, "weight": MAX_WEIGHT + 1},
        "bool-weight": {**fresh, "weight": draw(st.booleans())},
        "float-weight": {**fresh, "weight": 1.0},
        "negative-weight": {**fresh, "weight": -1},
        "non-object-edge": draw(_ODD_VALUES),
    }
    if mutation == "duplicate-edge-id" and not edges:
        edges += [fresh, dict(fresh)]
    elif mutation in added:
        edges.insert(edge_at, added[mutation])
    elif mutation == "duplicate-node-id":
        nodes.insert(node_at, {"id": draw(st.sampled_from(ids))})
    elif mutation == "bad-node-kind":
        nodes[node_at - 1]["kind"] = draw(_ODD_VALUES)
    elif mutation == "non-string-label":  # falsy ones too: 0, false, [] and {}
        nodes[node_at - 1]["label"] = draw(st.sampled_from([0, 1, False, True, [], {}, ["x"]]))
    elif mutation == "lone-surrogate":
        nodes[node_at - 1]["label"] = "x\ud800"
    elif mutation == "non-object-node":
        nodes.insert(node_at, draw(_ODD_VALUES))
    elif mutation == "invalid-id":
        item = draw(st.sampled_from(nodes + edges))
        item["id"] = draw(st.sampled_from(["1c", "a b", "", "x\ny"]))
    elif mutation == "unknown-field":
        draw(st.sampled_from(nodes + edges))["extra"] = 1
    elif mutation == "missing-field":
        item = draw(st.sampled_from(nodes + edges))
        del item[draw(st.sampled_from(sorted(item.keys() & {"id", "from", "to", "weight"})))]
    text = json.dumps({"format_version": 1, "unit": "ms", "nodes": nodes, "edges": edges})
    if mutation == "duplicate-key":
        text = text.replace('{"id": ', '{"id": "dup", "id": ', 1)
    return text.encode()


@given(_documents())
@settings(max_examples=400, deadline=None)
def test_column_checks_agree_with_the_record_route(data):
    _assert_routes_agree(data)


_texts = st.text(st.one_of(st.characters(), st.sampled_from("\ud800\udc00\udfff")), max_size=4)


@st.composite
def _graph_records(draw):
    """Activities, edges and a unit with arbitrary labels and units (any
    text, lone surrogates included, or a value that is not a string)."""
    labels = st.one_of(st.none(), _texts, st.integers(), st.booleans())
    ids = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=4))
    activities = [Activity(i, draw(labels), draw(st.sampled_from(sorted(NODE_KINDS)))) for i in ids]
    ends = st.sampled_from(ids or ["a"])
    edges = [
        ActivityEdge(f"e{k}", draw(ends), draw(ends), draw(st.integers(0, 3)), draw(st.sampled_from(sorted(EDGE_KINDS))))
        for k in range(draw(st.integers(0, 4)))
    ]
    return activities, edges, draw(st.one_of(_texts, st.integers(), st.none()))


@given(_graph_records())
@settings(max_examples=300, deadline=None)
def test_a_graph_validate_accepts_round_trips(records):
    try:
        g = build_graph(*records)
    except GraphBuildError:
        return
    if validate(g).ok:
        assert parse_graph(serialize_graph(g)) == g


def test_validate_does_not_check_a_loaded_graph_again(monkeypatch):
    data = (GOLDENS / "matrix_100n_seed5" / "graph.json").read_bytes()
    passes, verdict = [], depmat.graph._verdict
    monkeypatch.setattr(depmat.graph, "_verdict", lambda *columns: passes.append(columns) or verdict(*columns))
    assert validate(parse_graph(data)).ok and validate(build_graph(*oracles.reference_records(data))).ok
    assert len(passes) == 1  # build_graph's own; none by validate


def test_build_graph_walks_no_item_of_valid_records(monkeypatch):
    records = oracles.reference_records((GOLDENS / "matrix_100n_seed5" / "graph.json").read_bytes())

    def no_walk(*args):
        raise AssertionError("valid records walked item by item")

    monkeypatch.setattr(depmat.graph, "_item_faults", no_walk)
    assert validate(build_graph(*records)).ok


@given(_documents(_RECORD_MUTATIONS).map(oracles.reference_records))
@settings(max_examples=300, deadline=None)
def test_build_graph_keeps_valid_records_as_its_view_and_rejects_the_rest(document):
    activities, edges, unit = document
    nodes = [[getattr(a, name) for a in activities] for name in ("id", "label", "declared_kind")]
    columns = [[getattr(e, name) for e in edges] for name in ("id", "tail", "head", "weight", "kind")]
    _, errors, loci = depmat.graph._verdict(nodes, columns, unit)
    try:
        g = build_graph(activities, edges, unit=unit)
    except GraphBuildError as exc:
        assert exc.issues == tuple(errors) and exc.loci == tuple(loci)
        return
    assert not errors
    assert g.activities == tuple(activities) and g.edges == tuple(edges)
    restored = pickle.loads(pickle.dumps(g))
    # the pickle holds only the columns and the unit; the views come from them
    assert restored.__dict__.keys() == {field.name for field in dataclasses.fields(ActivityGraph)}
    assert restored.activities == g.activities and restored.edges == g.edges
    assert parse_graph(serialize_graph(g)) == g


def _without(item: dict, keys) -> dict:
    return {key: value for key, value in item.items() if key not in keys}


_MISSING_EDGE_FIELDS = st.sampled_from([{"id"}, {"from"}, {"to"}, {"weight"}, {"from", "to"}, {"to", "weight"}])

# Faults an item can carry; each document below takes several, some on one item.
_NODE_FAULTS = {
    "not-object": lambda node, draw: draw(_ODD_VALUES),
    "unknown-field": lambda node, draw: {**node, "extra": 1},
    "missing-id": lambda node, draw: _without(node, {"id"}),
    "id-not-string": lambda node, draw: {**node, "id": draw(st.sampled_from([5, None, [], True]))},
    "id-bad-token": lambda node, draw: {**node, "id": draw(st.sampled_from(["1a", "", "a b"]))},
    "label-not-string": lambda node, draw: {**node, "label": draw(st.sampled_from([0, 5, False, [], {}]))},
    "label-surrogate": lambda node, draw: {**node, "label": "x\ud800"},
    "kind": lambda node, draw: {**node, "kind": draw(_ODD_VALUES)},
}
_EDGE_FAULTS = {
    "not-object": lambda edge, draw: draw(_ODD_VALUES),
    "unknown-field": lambda edge, draw: {**edge, "extra": 1},
    "missing-fields": lambda edge, draw: _without(edge, draw(_MISSING_EDGE_FIELDS)),
    "id-not-string": lambda edge, draw: {**edge, "id": draw(st.sampled_from([5, None, []]))},
    "id-bad-token": lambda edge, draw: {**edge, "id": draw(st.sampled_from(["1a", ""]))},
    "endpoint-not-string": lambda edge, draw: {**edge, draw(st.sampled_from(["from", "to"])): draw(_ODD_VALUES)},
    "endpoint-undeclared": lambda edge, draw: {**edge, draw(st.sampled_from(["from", "to"])): "zz"},
    "self-loop": lambda edge, draw: {**edge, "to": edge.get("from")},
    "weight": lambda edge, draw: {**edge, "weight": draw(st.sampled_from([True, 1.0, -1, MAX_WEIGHT + 1, "1"]))},
    "dummy-nonzero": lambda edge, draw: {**edge, "kind": EDGE_DUMMY, "weight": draw(st.sampled_from([2, 2**64]))},
    "kind": lambda edge, draw: {**edge, "kind": draw(_ODD_VALUES)},
}


@st.composite
def _multi_fault_documents(draw):
    """A graph document with one to five faults, across items and inside
    one item; a duplicate id repeats an earlier item's id."""
    ids = draw(st.lists(_token, min_size=2, max_size=5, unique=True))
    nodes = [{"id": v, **({"kind": draw(st.sampled_from(sorted(NODE_KINDS)))} if draw(st.booleans()) else {})}
             for v in ids]
    edges = []
    for k in range(draw(st.integers(1, 5))):
        tail, head = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
        edges.append({"id": f"e{k}", "from": tail, "to": head, "weight": draw(st.integers(0, 9))})
        if draw(st.booleans()):
            edges[-1]["kind"] = draw(st.sampled_from([EDGE_SCHEDULING, EDGE_DEPENDENCY_ONLY]))
    for _ in range(draw(st.integers(1, 5))):
        items, faults = draw(st.sampled_from([(nodes, _NODE_FAULTS), (edges, _EDGE_FAULTS)]))
        i = draw(st.integers(0, len(items) - 1))
        name = draw(st.sampled_from(sorted(faults) + ["duplicate-id"]))
        if not isinstance(items[i], dict):
            continue
        if name == "duplicate-id":
            if i and isinstance(items[i - 1], dict) and "id" in items[i - 1]:
                items[i] = {**items[i], "id": items[i - 1]["id"]}
        else:
            items[i] = faults[name](items[i], draw)
    unit = draw(st.sampled_from(["ms", "ms", "ms", "", 5]))
    return json.dumps({"format_version": 1, "unit": unit, "nodes": nodes, "edges": edges}).encode()


def _first_error(data: bytes) -> str | None:
    try:
        parse_graph(data)
    except (ParseError, SchemaError) as exc:
        return str(exc)
    return None


def _lenient_records(data: bytes):
    """Every object item of the document as a record, whatever its fields
    hold: what ``build_graph`` may be given by a library caller."""
    doc = json.loads(data)
    nodes, edges = ([item for item in doc[array] if type(item) is dict] for array in ("nodes", "edges"))
    activities = [Activity(n.get("id"), n.get("label"), n.get("kind", KIND_AUTO)) for n in nodes]
    fields = (("id", None), ("from", None), ("to", None), ("weight", None), ("kind", EDGE_SCHEDULING))
    edges = [ActivityEdge(*(e.get(key, default) for key, default in fields)) for e in edges]
    return activities, edges, doc["unit"]


# the codes whose order inside one record follows the file's field order
_FIELD_ORDERED = {"invalid-label", "invalid-kind", "invalid-weight", "negative-weight", "weight-too-large",
                  "unknown-endpoint"}


def _by_record(issues, loci) -> dict[str, list[ValidationIssue]]:
    records: dict[str, list[ValidationIssue]] = {}
    for issue, locus in zip(issues, loci):
        records.setdefault(locus, []).append(issue)
    return records


@given(_multi_fault_documents())
@example(b'{"format_version": 1, "unit": "ms", "nodes": [{"id": "a"}], "edges": [{"id": "e", "weight": 1}]}')
@settings(max_examples=600, deadline=None)
def test_several_faults_raise_the_first_error_and_list_the_issues_the_reference_does(data):
    assert _first_error(data) == oracles.reference_first_error(data)
    activities, edges, unit = _lenient_records(data)
    expected, expected_loci = oracles._structural_errors(activities, edges, unit)
    try:
        build_graph(activities, edges, unit=unit)
        issues, loci = (), ()
    except GraphBuildError as exc:
        issues, loci = exc.issues, exc.loci
    records, reference = _by_record(issues, loci), _by_record(expected, expected_loci)
    assert list(records) == list(reference)  # the same records, in the same order
    for locus, found in records.items():
        if sum(issue.code in _FIELD_ORDERED for issue in found) < 2:
            assert found == reference[locus]
        else:  # two or more fields of one record are at fault
            assert sorted(map(repr, found)) == sorted(map(repr, reference[locus]))


@pytest.mark.parametrize(
    "path", sorted((GOLDENS / "bad_documents").glob("*.json")), ids=lambda p: p.stem
)
def test_a_structural_schema_error_carries_the_issues_build_graph_lists(path):
    data = path.read_bytes()
    try:
        parse_graph(data)
    except SchemaError as exc:
        try:
            build_graph(*oracles.reference_records(data))
        except GraphBuildError as build_error:
            assert exc.issues == build_error.issues and exc.locus == build_error.loci[0]
        except SchemaError:  # a schema error: no record is built, and no issue carried
            assert exc.issues == ()
        else:
            raise AssertionError("parse_graph rejected what build_graph accepts")
    except ParseError:
        pass


def test_matrix_csv_robot_dependency(robot):
    expected = (
        ",v0,v1,v2,v3,v4\n"
        "v0,0,1,0,1,1\n"
        "v1,0,0,1,0,1\n"
        "v2,0,0,0,1,1\n"
        "v3,0,1,0,0,0\n"
        "v4,1,0,0,0,0\n"
    )
    assert matrix_csv(dependency_matrix(robot)) == expected


def test_matrix_csv_reimports_with_matching_dimensions(robot):
    for matrix, cols in (
        (incidence_matrix(robot), 9),
        (adjacency_matrix(robot), 5),
        (dependency_matrix(robot), 5),
    ):
        rows = list(csv.reader(io.StringIO(matrix_csv(matrix))))
        assert len(rows) == 6  # header + 5 node rows
        assert all(len(row) == cols + 1 for row in rows)


def csv_writer_reference(matrix) -> str:
    """The matrix rendered cell by cell through ``csv.writer``."""
    cols = matrix.edge_ids if isinstance(matrix, IncidenceMatrix) else matrix.node_ids
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["", *cols])
    for label, row in zip(matrix.node_ids, matrix.rows):
        writer.writerow([label, *row])
    return buffer.getvalue()


AWKWARD_LABELS = ("a,b", 'say "hi"', "cr\rhere", "lf\nhere", " lead", "ünï ✓", "", "plain")


def awkward_matrices(labels):
    n = len(labels)
    rnd = random.Random(n)
    square = tuple(tuple(rnd.randint(0, 1) for _ in range(n)) for _ in range(n))
    weights = tuple(tuple(rnd.choice((0, 0, 3, 12)) for _ in range(n)) for _ in range(n))
    incidence = tuple(tuple(rnd.choice((0, 7)) for _ in range(n)) for _ in range(n))
    return (
        IncidenceMatrix(labels, tuple(reversed(labels)), incidence),
        IncidenceMatrix(labels, (), tuple(() for _ in labels)),
        AdjacencyMatrix(labels, weights),
        DependencyMatrix(labels, square),
        transitive_closure(DependencyMatrix(labels, square)),
    )


def test_matrix_csv_quotes_labels_as_csv_writer_does():
    for matrix in awkward_matrices(AWKWARD_LABELS):
        assert matrix_csv(matrix) == csv_writer_reference(matrix)


def test_matrix_csv_single_and_empty_matrices():
    assert matrix_csv(DependencyMatrix((), ())) == '""\n'
    assert matrix_csv(AdjacencyMatrix((), ())) == '""\n'
    assert matrix_csv(IncidenceMatrix(("",), (), ((),))) == '""\n""\n'
    for labels in ((), ("",), ("x",), (" ",)):
        for matrix in awkward_matrices(labels):
            assert matrix_csv(matrix) == csv_writer_reference(matrix)


@given(st.lists(st.text(max_size=6), max_size=8, unique=True))
@settings(max_examples=100, deadline=None)
def test_matrix_csv_matches_csv_writer_for_any_labels(labels):
    for matrix in awkward_matrices(tuple(labels)):
        assert matrix_csv(matrix) == csv_writer_reference(matrix)


@pytest.mark.parametrize("builder", [incidence_matrix, adjacency_matrix, dependency_matrix])
def test_matrix_csv_matches_csv_writer_on_generated_graphs(builder):
    for seed in range(20):
        g = generate_graph(
            GeneratorParams(node_count=1 + seed * 4, layer_count=1 + seed % 5,
                            edge_density=0.3, feedback_edge_fraction=0.2, seed=seed)
        )
        matrix = builder(g)
        assert matrix_csv(matrix) == csv_writer_reference(matrix)
        if builder is dependency_matrix:
            closed = transitive_closure(matrix)
            assert matrix_csv(closed) == csv_writer_reference(closed)


_EDGE_WIDTHS = (0, 1, 7, 8, 9, 63, 64, 65, 70)


@st.composite
def _width_and_masks(draw, square: bool):
    """A width of 0-70 cells and masks of at most that many bits, each
    all zeros, all ones or any: ``width`` of them when ``square``."""
    width = draw(st.one_of(st.sampled_from(_EDGE_WIDTHS), st.integers(0, 70)))
    full = (1 << width) - 1
    mask = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    size = {"min_size": width, "max_size": width} if square else {"max_size": 6}
    return width, draw(st.lists(mask, **size))


@given(_width_and_masks(square=True))
@example((0, []))
@example((1, [1]))
@example((64, [0] * 64))
@example((65, [(1 << 65) - 1] * 65))
@settings(max_examples=100, deadline=None)
def test_matrix_csv_from_masks_matches_csv_writer(width_and_masks):
    width, masks = width_and_masks
    labels = tuple(AWKWARD_LABELS[i] if i < len(AWKWARD_LABELS) else f"n{i}" for i in range(width))
    for closed in (False, True):
        matrix = DependencyMatrix.from_masks(labels, tuple(masks), closed=closed)
        assert matrix_csv(matrix) == csv_writer_reference(matrix)


@given(_width_and_masks(square=True), st.lists(st.booleans(), max_size=3))
@example((0, []), [])
@example((1, [1]), [True])
@example((2, [(1 << 2) - 1, 0]), [False, True])
@example((64, [1 << 63] * 64), [True, True, True])
@settings(max_examples=200, deadline=None)
def test_dumps_json_renders_mask_rows_as_their_digit_lists(width_and_masks, wrappers):
    width, masks = width_and_masks
    value = DependencyMatrix.from_masks(tuple(f"n{i}" for i in range(width)), tuple(masks))
    expected = [[mask >> j & 1 for j in range(width)] for mask in masks]
    for in_list in wrappers:  # at depth 0 to 3, under a list or a dict key
        value, expected = ([value], [expected]) if in_list else ({"rows": value}, {"rows": expected})
    assert dumps_json(value) == json.dumps(expected, indent=2, ensure_ascii=False)


@given(st.lists(st.text(max_size=6), max_size=8, unique=True), st.lists(st.booleans(), max_size=3))
@example(list(AWKWARD_LABELS), [False])
@example([], [True])
@example(["x"], [True, False, True])
@settings(max_examples=100, deadline=None)
def test_dumps_json_renders_every_matrix_as_its_rows(labels, wrappers):
    """Every kind, zero-edge incidence and empty matrices included."""
    for matrix in awkward_matrices(tuple(labels)):
        value, expected = matrix, matrix.rows
        for in_list in wrappers:  # at depth 0 to 3, under a list or a dict key
            value, expected = ([value], [expected]) if in_list else ({"rows": value}, {"rows": expected})
        assert dumps_json(value) == json.dumps(expected, indent=2, ensure_ascii=False)


def text_reference(matrix):
    """Cell-by-cell aligned table: each column as wide as its widest cell
    or label, two spaces apart, trailing blanks stripped."""
    col_labels = matrix.edge_ids if isinstance(matrix, IncidenceMatrix) else matrix.node_ids
    table = [["", *col_labels]] + [[label, *map(str, row)] for label, row in zip(matrix.node_ids, matrix.rows)]
    widths = [max(len(line[j]) for line in table) for j in range(len(table[0]))]
    return "".join(
        "  ".join(
            cell.ljust(widths[0]) if j == 0 else cell.rjust(widths[j]) for j, cell in enumerate(line)
        ).rstrip() + "\n"
        for line in table
    )


@pytest.mark.parametrize("builder", [incidence_matrix, adjacency_matrix, dependency_matrix])
def test_matrix_text_matches_cell_reference(builder):
    for seed in range(20):
        g = generate_graph(
            GeneratorParams(node_count=1 + seed * 4, layer_count=1 + seed % 5, edge_density=0.3,
                            max_weight=1 + 10 ** (seed % 4), feedback_edge_fraction=0.2, seed=seed)
        )
        matrix = builder(g)
        assert matrix_text(matrix) == text_reference(matrix)
        if builder is dependency_matrix:
            closed = transitive_closure(matrix)
            assert matrix_text(closed) == text_reference(closed)
    for matrix in (IncidenceMatrix(("a", "bb"), (), ((), ())), AdjacencyMatrix((), ())):
        assert matrix_text(matrix) == text_reference(matrix)


def test_matrix_text_alignment(robot):
    text = matrix_text(dependency_matrix(robot))
    lines = text.splitlines()
    assert len(lines) == 6
    assert lines[1].split() == ["v0", "0", "1", "0", "1", "1"]
    assert not any(line != line.rstrip() for line in lines)


def test_export_dot_robot(robot):
    dot = export_dot(robot).decode()
    assert dot.startswith("digraph activities {")
    assert 'v0 -> v1 [label="2"]' in dot
    assert 'v4 -> v0 [label="2", style=dashed];' in dot
    assert "v0 [shape=doublecircle];" in dot
    assert "v4 [shape=circle];" in dot


def test_export_dot_marks_critical_nodes_from_the_graphs_own_schedule(robot):
    g = build_graph(robot.activities, robot.edges, unit=robot.unit)  # nothing cached yet
    lines = export_dot(g).decode().splitlines()
    assert [line for line in lines if "doublecircle" in line] == [f"  v{i} [shape=doublecircle];" for i in range(4)]
    assert "  v4 [shape=circle];" in lines


def test_export_dot_draws_no_shapes_on_a_scheduling_cycle():
    g = parse_graph((GOLDENS / "bad_documents" / "scheduling_cycle.json").read_bytes())
    assert "shape=" not in export_dot(g).decode()


def test_export_dot_empty_graph():
    dot = export_dot(build_graph([], [])).decode()
    assert dot == "digraph activities {\n  rankdir=LR;\n}\n"


def test_export_dot_marks_independent_symptom(robot):
    report = localize(robot, ["v4"], view=VIEW_SCHEDULING)
    dot = export_dot(robot, report).decode()
    v4_line = next(line for line in dot.splitlines() if line.strip().startswith("v4 ["))
    assert "color=red" in v4_line
    assert "independent fault" in v4_line


def test_export_dot_quotes_hyphenated_ids():
    g = build_graph(
        [Activity("a-1"), Activity("b")],
        [ActivityEdge("x", "a-1", "b", 2)],
    )
    dot = export_dot(g).decode()
    assert '"a-1" -> b [label="2"];' in dot


def test_export_dot_dummy_edges_dotted():
    g = build_graph(
        [Activity("a"), Activity("b")],
        [ActivityEdge("x", "a", "b", 0, EDGE_DUMMY)],
    )
    assert "style=dotted" in export_dot(g).decode()


_json_text = st.one_of(st.text(), st.text(alphabet='"\\/\n\t\x00\x1f\x7f\u2028é中\U0001f600a'))
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**100),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    _json_text,
)
_json_keys = st.one_of(_json_text, st.integers(), st.floats(), st.booleans(), st.none())
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_json_keys, inner, max_size=5),
    ),
    max_leaves=25,
)


@given(_json_values)
@settings(max_examples=100, deadline=None)
def test_dumps_json_matches_indented_json_dumps(value):
    assert dumps_json(value) == json.dumps(value, indent=2, ensure_ascii=False)


_json_containers = st.one_of(
    st.lists(_json_scalars, min_size=1, max_size=4).map(tuple),
    st.lists(_json_scalars, min_size=1, max_size=4),
    st.dictionaries(_json_keys, _json_scalars, min_size=1, max_size=4),
    _json_values,
)


@st.composite
def _json_sharing_objects(draw):
    """A value whose leaves are drawn from a few container objects, so the
    same object recurs at one depth and at several, in lists and dicts."""
    pool = draw(st.lists(_json_containers, min_size=1, max_size=3))
    return draw(
        st.recursive(
            st.sampled_from(pool),
            lambda inner: st.one_of(
                st.lists(inner, min_size=1, max_size=5),
                st.lists(inner, min_size=1, max_size=5).map(tuple),
                st.dictionaries(_json_keys, inner, min_size=1, max_size=5),
            ),
            max_leaves=25,
        )
    )


@given(_json_sharing_objects())
@settings(max_examples=150, deadline=None)
def test_dumps_json_with_shared_objects_matches_json_dumps(value):
    assert dumps_json(value) == json.dumps(value, indent=2, ensure_ascii=False)


_record_keys = st.one_of(_json_keys, st.text(alphabet='%s"\\\n\x00\x1f\u2028é中', max_size=4))


@st.composite
def _record_lists(draw):
    """Records of 0-5 rows whose columns are each of one kind: one scalar
    type, mixed int and bool, None, floats, or nested values among which one
    tuple object recurs in several rows. A column may be one row longer."""
    shared = draw(st.lists(_json_scalars, min_size=1, max_size=3).map(tuple))
    kinds = [
        st.integers(),
        st.booleans(),
        _json_text,
        st.one_of(st.integers(), st.booleans()),
        st.none(),
        st.floats(),
        st.one_of(st.just(shared), st.just((shared, 1)), _json_values),
    ]
    keys = draw(st.lists(_record_keys, min_size=1, max_size=4))
    rows = draw(st.integers(0, 5))
    columns = [draw(st.lists(draw(st.sampled_from(kinds)), min_size=rows, max_size=rows + 1)) for _ in keys]
    return Records(keys, columns)


def _as_dicts(records: Records) -> list[dict]:
    return [dict(zip(records.keys, row)) for row in zip(*records.columns)]


@given(_record_lists())
@settings(max_examples=200, deadline=None)
def test_dumps_json_renders_records_as_their_list_of_dicts(records):
    listed = _as_dicts(records)
    for value, expected in (
        (records, listed),
        ({"unit": "ms", "nodes": records, "end": [records]}, {"unit": "ms", "nodes": listed, "end": [listed]}),
        ([records, 0, [records]], [listed, 0, [listed]]),
    ):
        assert dumps_json(value) == json.dumps(expected, indent=2, ensure_ascii=False)


_tuple_members = st.one_of(_json_text, st.integers(), st.booleans())


@st.composite
def _tuple_column_records(draw):
    """Records of 0-5 rows with one or more columns of tuples of str, int
    and bool, some empty, some one object recurring in several rows; the
    other columns are of one scalar type. With ``nested``, one tuple holds a
    list. A column may be one row longer."""
    pool = draw(st.lists(st.lists(_tuple_members, max_size=3).map(tuple), min_size=1, max_size=3))
    tuples = st.one_of(st.sampled_from(pool), st.lists(_tuple_members, max_size=3).map(tuple))
    keys = draw(st.lists(_record_keys, min_size=1, max_size=5))
    at = draw(st.sets(st.integers(0, len(keys) - 1), min_size=1))
    rows = draw(st.integers(0, 5))
    scalars = st.sampled_from([st.integers(), st.booleans(), _json_text])
    columns = [
        draw(st.lists(tuples if i in at else draw(scalars), min_size=rows, max_size=rows + 1)) for i in range(len(keys))
    ]
    if draw(st.booleans()) and rows:
        column = columns[min(at)]
        column[draw(st.integers(0, rows - 1))] = ("x", [1, "y"])
    return Records(keys, columns)


@given(_tuple_column_records())
@settings(max_examples=300, deadline=None)
def test_dumps_json_renders_tuple_columns_as_their_list_of_dicts(records):
    listed = _as_dicts(records)
    for value, expected in (
        (records, listed),
        ({"nodes": records, "end": [records]}, {"nodes": listed, "end": [listed]}),
        ([[[records]], 0], [[[listed]], 0]),
    ):
        assert dumps_json(value) == json.dumps(expected, indent=2, ensure_ascii=False)


def test_a_tuple_column_is_rendered_once_per_distinct_tuple_and_not_as_records(monkeypatch):
    calls, encoded = [], []
    append, encoder = fileio._append_json, fileio._encoder
    monkeypatch.setattr(fileio, "_append_json", lambda obj, *rest: calls.append(obj) or append(obj, *rest))
    monkeypatch.setattr(
        fileio, "_encoder", lambda depth: SimpleNamespace(encode=lambda obj: encoded.append(obj) or encoder(depth).encode(obj))
    )
    shared = ("a", 1, True)
    records = Records(("node", "explains", "ids"), (["x", "y", "z"], [shared, (), shared], [(), ("b",), tuple("b")]))
    assert dumps_json(records) == json.dumps(_as_dicts(records), indent=2, ensure_ascii=False)
    assert calls == [records]  # no record went through its dict
    assert encoded == [shared, ("b",), ("b",)]  # two equal tuples are two objects
    nested = Records(("node", "explains"), (["x", "y"], [shared, ("a", ["b"])]))
    calls.clear()
    assert dumps_json(nested) == json.dumps(_as_dicts(nested), indent=2, ensure_ascii=False)
    assert len(calls) > 1  # a tuple that holds a list: every record as its dict


@pytest.mark.parametrize(
    "records",
    [
        Records(("id",), ([],)),
        Records(("id", "slack"), ((), (1, 2))),
        Records(("only",), (["a", "b"],)),
        Records(("a%", "a%"), ([1, 2], [True, False])),
        Records(("k", "k"), ([1], ["x", "y"])),
        Records((), ()),
        Records((), ([1, 2],)),
    ],
)
def test_dumps_json_renders_zero_rows_a_single_key_and_repeated_keys(records):
    for value in (records, {"nodes": records}, [records]):
        assert dumps_json(value) == json.dumps(value, default=_as_dicts, indent=2, ensure_ascii=False)

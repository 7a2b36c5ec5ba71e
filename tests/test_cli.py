import copy
import json
import os
import random
import subprocess
import sys
import time
from itertools import compress

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import depmat.graph
import depmat.matrices
import depmat.schedule
from depmat import cli, fileio, simulation
from depmat.cli import main
from depmat.fileio import ParseError, SchemaError, serialize_graph
from depmat.graph import (
    ActivityGraph,
    EDGE_DUMMY,
    EDGE_KINDS,
    NODE_KINDS,
    Activity,
    ActivityEdge,
    CyclicScheduleError,
    GraphBuildError,
    KIND_NON_CRITICAL,
    UnknownNodeError,
    build_graph,
    shown,
)
from depmat.matrices import MAX_DENSE_NODES, CapacityError, DependencyMatrix
from depmat.schedule import EmptyGraphError, classify_activities, compute_schedule
from depmat.simulation import GeneratorParams, InvalidParamsError, generate_graph

from conftest import GOLDENS, REPO_ROOT, ROBOT_PATH
from oracles import bfs_hops, graph_succ, series_diamonds

ROBOT = str(ROBOT_PATH)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cpm_robot(capsys):
    code, out, err = run(capsys, "cpm", ROBOT)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "duration: 15 s"
    assert "critical nodes: v0, v1, v2, v3" in lines
    assert "critical path: v0 -> v1 -> v2 -> v3" in lines


def test_cpm_json(capsys):
    code, out, _ = run(capsys, "cpm", ROBOT, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["duration"] == 15
    assert payload["critical_nodes"] == ["v0", "v1", "v2", "v3"]
    assert payload["critical_paths"] == [["v0", "v1", "v2", "v3"]]
    slack = {n["id"]: n["slack"] for n in payload["nodes"]}
    assert slack == {"v0": 0, "v1": 0, "v2": 0, "v3": 0, "v4": 1}


def test_matrix_dependency_default_text(capsys):
    code, out, _ = run(capsys, "matrix", "--kind", "dependency", ROBOT)
    assert code == 0
    grid = [line.split() for line in out.splitlines()]
    assert grid[0] == ["v0", "v1", "v2", "v3", "v4"]
    assert grid[1] == ["v0", "0", "1", "0", "1", "1"]
    assert grid[4] == ["v3", "0", "1", "0", "0", "0"]
    assert grid[5] == ["v4", "1", "0", "0", "0", "0"]


def test_matrix_dependency_csv(capsys):
    code, out, _ = run(capsys, "matrix", "--kind", "dependency", ROBOT, "--format", "csv")
    assert code == 0
    assert out == (
        ",v0,v1,v2,v3,v4\n"
        "v0,0,1,0,1,1\n"
        "v1,0,0,1,0,1\n"
        "v2,0,0,0,1,1\n"
        "v3,0,1,0,0,0\n"
        "v4,1,0,0,0,0\n"
    )


def test_matrix_incidence_csv(capsys):
    code, out, _ = run(capsys, "matrix", "--kind", "incidence", ROBOT, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == ",a,b,c,d,e,f,g,h,i"
    assert out.splitlines()[4] == "v3,0,0,0,0,0,0,0,6,0"


def test_matrix_closure_json(capsys):
    code, out, _ = run(capsys, "matrix", "--kind", "closure", ROBOT, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed"] is True
    assert payload["rows"] == [[1] * 5 for _ in range(5)]


def test_localize_text(capsys):
    code, out, _ = run(capsys, "localize", ROBOT, "--symptoms", "v4")
    assert code == 0
    ranked = [line.split()[1] for line in out.splitlines()[3:8]]
    assert ranked == ["v0", "v1", "v3", "v2", "v4"]
    assert "independent: (none)" in out
    assert "nodes examined: 5 of 5" in out


def test_localize_json(capsys):
    code, out, _ = run(
        capsys, "localize", ROBOT, "--symptoms", "v2,v4", "--view", "scheduling",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["view"] == "scheduling_only"
    assert payload["candidates"][0]["node"] == "v4"
    assert payload["candidates"][0]["explains"] == ["v2", "v4"]


def test_localize_unknown_symptom_exits_2(capsys):
    code, out, err = run(capsys, "localize", ROBOT, "--symptoms", "zz")
    assert code == 2
    assert "zz" in err
    assert out == ""


def test_validate_robot_ok(capsys):
    code, out, _ = run(capsys, "validate", ROBOT)
    assert code == 0
    assert "ok: yes" in out
    assert "dependency-only cycle: v0->v4->v0" in out


def test_validate_bad_graph_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"format_version":1,"nodes":[{"id":"v0"}],'
        '"edges":[{"id":"x","from":"v0","to":"zz","weight":1}]}'
    )
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 3
    assert "ok: no" in out
    assert "zz" in out


@pytest.mark.parametrize(
    "path, passes_expected",
    [
        (ROBOT, 0),
        (str(GOLDENS / "matrix_100n_seed5" / "graph.json"), 0),
        (str(GOLDENS / "bad_documents" / "self_loop.json"), 1),
    ],
    ids=["robot", "100n", "self_loop"],
)
def test_validate_checks_the_structure_once(path, passes_expected, capsys, monkeypatch):
    # a valid file is judged by the column checks alone, with no item walk
    passes = []
    walk = depmat.graph._item_faults

    def counting(nodes, edges):
        passes.append(1)
        return walk(nodes, edges)

    monkeypatch.setattr(depmat.graph, "_item_faults", counting)
    monkeypatch.setattr(fileio, "_item_faults", counting)
    code, _, _ = run(capsys, "validate", path)
    assert code in (0, 3) and len(passes) == passes_expected


def test_validate_of_a_valid_file_builds_no_record(capsys, monkeypatch):
    def no_walk(*args):
        raise AssertionError("items walked for a valid file")

    monkeypatch.setattr(depmat.graph, "_item_faults", no_walk)
    monkeypatch.setattr(fileio, "_item_faults", no_walk)
    for path in (ROBOT, str(GOLDENS / "matrix_100n_seed5" / "graph.json")):
        for options in ([], ["--format", "json"]):
            code, out, err = run(capsys, "validate", path, *options)
            assert (code, err) == (0, "") and out


@pytest.mark.parametrize(
    "fault, codes",
    [({"to": "nope"}, (2, 3, 3)), ({"weight": -1}, (2, 2, 2))],
    ids=["unknown_endpoint", "negative_weight"],
)
def test_a_faulted_file_walks_each_item_through_its_rules_once(fault, codes, tmp_path, capsys, monkeypatch):
    """A file whose last edge breaks a rule is walked once: one rule-list
    call per node and per edge, and no Activity or ActivityEdge record."""
    doc = json.loads(ROBOT_PATH.read_text())
    doc["edges"][-1].update(fault)
    path = tmp_path / "faulted.json"
    path.write_text(json.dumps(doc))
    calls = []

    def counted(name):
        rules = getattr(depmat.graph, name)
        return lambda *fields: calls.append(name) or rules(*fields)

    for name in ("_node_faults", "_edge_faults"):
        rules = counted(name)
        for module in (depmat.graph, fileio):  # wherever a walk may look the rules up
            monkeypatch.setattr(module, name, rules, raising=False)

    def no_records(*args, **kwargs):
        raise AssertionError("record built")

    monkeypatch.setattr(Activity, "__init__", no_records)
    monkeypatch.setattr(ActivityEdge, "__init__", no_records)
    for argv, code in zip((["cpm"], ["validate"], ["validate", "--format", "json"]), codes):
        calls.clear()
        assert run(capsys, argv[0], str(path), *argv[1:])[0] == code
        assert (calls.count("_node_faults"), calls.count("_edge_faults")) == (len(doc["nodes"]), len(doc["edges"]))


def _every_command_on(path: str, symptoms: str) -> list[list[str]]:
    commands = [["cpm", path], ["cpm", path, "--format", "json"], ["validate", path]]
    commands += [["validate", path, "--format", "json"], ["export", path]]
    commands += [["export", path, "--symptoms", symptoms]]
    commands += [["localize", path, "--symptoms", symptoms, "--format", fmt] for fmt in ("text", "json")]
    kinds = ("incidence", "adjacency", "dependency", "closure")
    commands += [["matrix", path, "--kind", kind, "--format", fmt] for kind in kinds for fmt in _MATRIX_SUFFIX]
    return commands


def test_no_command_builds_records_for_a_valid_file(capsys, monkeypatch):
    """Every command reads a valid file's graph as its columns only."""
    argvs = _every_command_on(ROBOT, "v4")
    argvs += _every_command_on(str(MATRIX_GOLDENS / "graph.json"), "n10,n40,n71,n95")
    argvs.append(["simulate", "--nodes", "40", "--layers", "4", "--trials", "5", "--seed", "3"])
    expected = [run(capsys, *argv) for argv in argvs]
    assert all(code == 0 and out and not err for code, out, err in expected)

    def no_records(graph):
        raise AssertionError("records built for a valid file")

    monkeypatch.setattr(ActivityGraph, "activities", property(no_records))
    monkeypatch.setattr(ActivityGraph, "edges", property(no_records))
    for argv, before in zip(argvs, expected):
        assert run(capsys, *argv) == before, argv


def test_validate_json_format(capsys):
    code, out, _ = run(capsys, "validate", ROBOT, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert any(i["code"] == "dependency-only-cycle" for i in payload["issues"])


def test_parse_error_exits_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"format_version": 1,')
    code, _, err = run(capsys, "cpm", str(broken))
    assert code == 2
    assert "line" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "cpm", "no-such-file.json")
    assert code == 2
    assert "error:" in err


def test_usage_error_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["matrix", ROBOT, "--kind", "bogus"]) == 2
    capsys.readouterr()


def test_simulate_text_runs(capsys):
    code, out, _ = run(
        capsys, "simulate", "--nodes", "15", "--layers", "3", "--trials", "4",
        "--seed", "5",
    )
    assert code == 0
    assert "hit_rate=1.0000" in out


def test_simulate_deterministic_output(capsys):
    argv = [
        "simulate", "--nodes", "30", "--layers", "5", "--density", "0.2",
        "--trials", "6", "--detect-prob", "0.8", "--seed", "11",
        "--format", "json",
    ]
    code_a, out_a, _ = run(capsys, *argv)
    code_b, out_b, _ = run(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads(out_a)
    assert payload["aggregates"]["hit_rate"] == 1.0


def test_simulate_csv(capsys):
    code, out, _ = run(
        capsys, "simulate", "--nodes", "10", "--layers", "2", "--trials", "3",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("trial,seed,root,")
    assert len(lines) == 4


def test_simulate_weight_bound_is_one_draw(capsys):
    # a bound above 2**64 cannot be drawn from one 64-bit output
    code, out, err = run(capsys, "simulate", "--nodes", "12", "--trials", "2", "--wmax", str(2**64 + 1))
    assert (code, out) == (2, "")
    assert "max_weight" in err
    code, out, err = run(capsys, "simulate", "--nodes", "12", "--trials", "2", "--wmax", str(2**64))
    assert (code, err) == (0, "")


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_format_version_must_be_exact_int(tmp_path, capsys, version):
    path = tmp_path / "version.json"
    path.write_text(f'{{"format_version":{version},"nodes":[{{"id":"a"}}],"edges":[]}}')
    for argv in (["validate", str(path)], ["cpm", str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "format_version" in err


@pytest.mark.parametrize("command", [["localize", "--symptoms", "d0,d61"], ["export"], ["export", "--symptoms", "d5"]])
def test_exponentially_many_critical_paths_do_not_slow_localize(tmp_path, capsys, command):
    path = tmp_path / "diamonds.json"
    path.write_bytes(serialize_graph(series_diamonds(40)))  # 2**40 critical paths
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert (code, err) == (0, "")
    assert out


def test_simulate_bad_params_exit_2(capsys):
    code, _, err = run(capsys, "simulate", "--nodes", "0")
    assert code == 2
    assert "node_count" in err


@pytest.mark.parametrize("nodes,layers", [("20000", "2"), ("1000000000", "1")])
def test_simulate_above_size_bound_exits_2_without_drawing(capsys, monkeypatch, nodes, layers):
    def no_draws(seed):
        raise AssertionError("drew for a graph above the size bound")

    monkeypatch.setattr(simulation, "stream", no_draws)
    code, out, err = run(capsys, "simulate", "--nodes", nodes, "--layers", layers, "--trials", "1")
    assert (code, out) == (2, "")
    assert "internal error" not in err
    assert "at most 1048576" in err


def test_export_symptoms_schedules_once(capsys, monkeypatch):
    scheduled = []
    forward_pass = depmat.schedule.forward_pass

    def counting(g):
        scheduled.append(g)
        return forward_pass(g)

    monkeypatch.setattr(depmat.schedule, "forward_pass", counting)
    code, out, err = run(capsys, "export", ROBOT, "--symptoms", "v4,v2")
    assert (code, err) == (0, "")
    assert len(scheduled) == 1


def test_export_symptoms_on_a_scheduling_cycle_keeps_the_verdict(tmp_path, capsys, monkeypatch):
    # one Tarjan pass finds the cycle for export and localize alike; the
    # other is the dependency condensation
    doc = {
        "format_version": 1,
        "nodes": [{"id": "a"}, {"id": "b"}],
        "edges": [
            {"id": "x", "from": "a", "to": "b", "weight": 1},
            {"id": "y", "from": "b", "to": "a", "weight": 1},
        ],
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    passes = []
    tarjan = depmat.graph._tarjan

    def counting(succ):
        passes.append(succ)
        return tarjan(succ)

    monkeypatch.setattr(depmat.graph, "_tarjan", counting)
    code, out, err = run(capsys, "export", str(path), "--symptoms", "a")
    assert (code, err) == (0, "")
    assert out == (
        "digraph activities {\n  rankdir=LR;\n  a;\n  b;\n"
        '  a -> b [label="1"];\n  b -> a [label="1"];\n}\n'
    )
    assert len(passes) == 2


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", ROBOT)
    assert code == 0
    assert out.startswith("digraph activities {")
    assert 'v0 -> v1 [label="2"]' in out
    assert "style=dashed" in out


def test_export_with_symptom_marks(capsys):
    code, out, _ = run(
        capsys, "export", ROBOT, "--symptoms", "v4", "--view", "scheduling"
    )
    assert code == 0
    assert "independent fault" in out


@pytest.mark.parametrize("symptoms", ["", ","])
def test_export_with_an_empty_symptom_set_exits_2(capsys, symptoms):
    """``--symptoms ""`` is an empty set, as in ``localize``, not a missing
    option: it never prints the unmarked graph."""
    code, out, err = run(capsys, "export", ROBOT, "--symptoms", symptoms)
    assert (code, out, err) == (2, "", "error: symptom set must be non-empty\n")


def test_cyclic_schedule_exits_2(tmp_path, capsys):
    doc = {
        "format_version": 1,
        "nodes": [{"id": "a"}, {"id": "b"}],
        "edges": [
            {"id": "x", "from": "a", "to": "b", "weight": 1},
            {"id": "y", "from": "b", "to": "a", "weight": 1},
        ],
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "cpm", str(path))
    assert code == 2
    assert "scheduling cycle" in err


def test_validate_scheduling_cycle_inside_dependency_cycle(tmp_path, capsys):
    doc = {
        "format_version": 1,
        "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "edges": [
            {"id": "x", "from": "b", "to": "c", "weight": 1},
            {"id": "y", "from": "c", "to": "b", "weight": 1},
            {"id": "z", "from": "a", "to": "b", "weight": 1, "kind": "dependency_only"},
            {"id": "w", "from": "b", "to": "a", "weight": 1, "kind": "dependency_only"},
        ],
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 0
    assert err == ""
    assert "warning: scheduling cycle: b->c->b" in out.splitlines()


def test_deep_nesting_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "cpm", str(path))
    assert code == 2
    assert out == ""
    assert "internal error" not in err


def test_duplicate_key_exits_2(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(
        '{"format_version":1,"nodes":[{"id":"v0"},{"id":"v1"}],'
        '"edges":[{"id":"x","from":"v0","to":"v1","weight":3,"weight":5}]}'
    )
    code, out, err = run(capsys, "cpm", str(path))
    assert code == 2
    assert out == ""
    assert "internal error" not in err
    assert "duplicate key 'weight'" in err


@pytest.mark.parametrize(
    "document",
    [
        pytest.param('{"format_version": 1, "nodes": [], "edges": [], "x\\ny": 1}', id="document-key"),
        pytest.param('{"format_version": 1, "nodes": [{"id": "a", "x\\ny": 1}], "edges": []}', id="node-key"),
        pytest.param(
            '{"format_version": 1, "nodes": [{"id": "a"}, {"id": "b"}],'
            ' "edges": [{"id": "e", "from": "a", "to": "b", "weight": 1, "x\\ny": 1}]}',
            id="edge-key",
        ),
        pytest.param(
            '{"format_version": 1, "nodes": [], "edges": [], "a\\r\\u2028b": 1, "a\\r\\u2028b": 2}',
            id="duplicate-key",
        ),
        pytest.param('{"format_version": 1, "nodes": [{"id": "a\\nb"}], "edges": []}', id="node-id"),
        pytest.param(
            '{"format_version": 1, "nodes": [{"id": "a"}],'
            ' "edges": [{"id": "e\\nf", "from": "a", "to": "a", "weight": 1, "kind": "dummy"}]}',
            id="edge-id",
        ),
    ],
)
def test_unprintable_key_or_id_gives_one_error_line(tmp_path, capsys, document):
    path = tmp_path / "doc.json"
    path.write_text(document)
    code, out, err = run(capsys, "cpm", str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "unit,duration_line",
    [("m\ns", "duration: 2 'm\\ns'"), ("µs", "duration: 2 µs")],
    ids=["line-break", "printable"],
)
def test_cpm_prints_the_unit_on_the_duration_line(tmp_path, capsys, unit, duration_line):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "format_version": 1, "unit": unit, "nodes": [{"id": "a"}, {"id": "b"}],
        "edges": [{"id": "e", "from": "a", "to": "b", "weight": 2}],
    }))
    code, out, err = run(capsys, "cpm", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == duration_line
    assert len(out.splitlines()) == 3 + 2 + 1


@pytest.mark.parametrize("argv", [["cpm"], ["cpm", "--format", "json"], ["validate"]], ids=" ".join)
def test_integer_literal_past_the_digit_limit_gives_one_error_line(tmp_path, capsys, argv):
    path = tmp_path / "doc.json"
    path.write_text(
        '{"format_version": 1, "nodes": [{"id": "a"}, {"id": "b"}],'
        f' "edges": [{{"id": "e", "from": "a", "to": "b", "weight": {"9" * 5000}}}]}}'
    )
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "set_int_max_str_digits" not in err


def test_validate_text_prints_one_line_per_issue(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(
        '{"format_version": 1, "nodes": [{"id": "a\\nb"}],'
        ' "edges": [{"id": "e\\nf", "from": "a\\nb", "to": "a\\nb", "weight": 1, "kind": "dummy"}]}'
    )
    code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (3, "")
    assert out.splitlines() == [
        "error: activity id 'a\\nb' is not a valid token",
        "error: edge id 'e\\nf' is not a valid token",
        "error: dummy edge 'e\\nf' has non-zero weight 1",
        "error: edge 'e\\nf': self-loop on 'a\\nb'",
        "ok: no",
    ]


def test_localize_symptom_with_a_line_break_gives_one_error_line(capsys):
    code, out, err = run(capsys, "localize", ROBOT, "--symptoms", "v4\nv0")
    assert (code, out, err) == (2, "", "error: unknown node: 'v4\\nv0'\n")


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(graph):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "compute_schedule", broken)
    code, out, err = run(capsys, "cpm", ROBOT)
    assert (code, out, err) == (1, "", "internal error: boom\n")


@pytest.fixture(scope="module")
def above_dense_cap(tmp_path_factory):
    g = generate_graph(
        GeneratorParams(
            node_count=5000, layer_count=50, edge_density=0.02,
            feedback_edge_fraction=0.1, seed=3,
        )
    )
    assert len(g.activities) > MAX_DENSE_NODES
    path = tmp_path_factory.mktemp("large") / "large.json"
    path.write_bytes(serialize_graph(g))
    return g, str(path)


@pytest.fixture(scope="module")
def overridden_chain(tmp_path_factory):
    """A 40,000-node scheduling chain, every node declared non-critical: the
    chain is the critical path, so every node's declared kind overrides."""
    n = 40_000
    g = build_graph(
        [Activity(f"n{i}", declared_kind=KIND_NON_CRITICAL) for i in range(n)],
        [ActivityEdge(f"e{i}", f"n{i}", f"n{i + 1}", 1) for i in range(n - 1)],
    )
    path = tmp_path_factory.mktemp("chain") / "chain.json"
    path.write_bytes(serialize_graph(g))
    return n, str(path)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cpm_with_every_node_overridden_is_not_quadratic(capsys, overridden_chain, fmt):
    n, path = overridden_chain
    start = time.process_time()
    code, out, err = run(capsys, "cpm", path, "--format", fmt)
    elapsed = time.process_time() - start
    assert code == 0, err
    if fmt == "json":
        nodes = json.loads(out)["nodes"]
        assert len(nodes) == n and all(node["override"] for node in nodes)
    else:
        lines = out.splitlines()  # duration, header, one row per node, ...
        assert lines[2 + n].startswith("critical nodes: ")
        assert all(row.endswith("non_critical (override)") for row in lines[2 : 2 + n])
    assert elapsed < 8.0


def test_localize_above_dense_cap(capsys, above_dense_cap):
    g, path = above_dense_cap
    symptoms = ["n4999", "n2500", "n17"]
    code, out, err = run(
        capsys, "localize", path, "--symptoms", ",".join(symptoms), "--format", "json"
    )
    assert code == 0, err
    succ = graph_succ(g)
    nearest: dict[str, int] = {}
    for s in symptoms:
        for v, d in bfs_hops(succ, s).items():
            nearest[v] = min(d, nearest.get(v, d))
    candidates = json.loads(out)["candidates"]
    assert {c["node"]: c["min_distance"] for c in candidates} == nearest


def test_simulate_above_dense_cap(capsys):
    code, out, err = run(
        capsys, "simulate", "--nodes", "5000", "--layers", "50", "--density", "0.02",
        "--trials", "1",
    )
    assert code == 0, err
    assert "hit_rate=1.0000" in out


def test_matrix_above_dense_cap_exits_2(capsys, above_dense_cap):
    _, path = above_dense_cap
    for kind in ("incidence", "adjacency", "dependency", "closure"):
        for fmt in ("text", "csv", "json"):
            code, out, err = run(capsys, "matrix", path, "--kind", kind, "--format", fmt)
            assert code == 2, (kind, fmt)
            assert out == ""
            assert f"capped at {MAX_DENSE_NODES}" in err


@pytest.fixture(scope="module")
def generated_path(tmp_path_factory):
    g = generate_graph(
        GeneratorParams(
            node_count=40, layer_count=5, edge_density=0.2, feedback_edge_fraction=0.2, seed=11
        )
    )
    path = tmp_path_factory.mktemp("generated") / "generated.json"
    path.write_bytes(serialize_graph(g))
    return str(path)


_FILE_JSON_COMMANDS = [
    ("validate",),
    ("matrix", "--kind", "incidence"),
    ("matrix", "--kind", "adjacency"),
    ("matrix", "--kind", "dependency"),
    ("matrix", "--kind", "closure"),
    ("cpm",),
    ("localize", "--view", "all"),
    ("localize", "--view", "scheduling"),
]


@pytest.mark.parametrize("command", _FILE_JSON_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("source", ["robot", "generated"])
def test_json_output_is_indented_json_dumps(capsys, generated_path, source, command):
    path, symptoms = (ROBOT, "v4,v2") if source == "robot" else (generated_path, "n39,n20,n3")
    argv = [command[0], path, *command[1:], "--format", "json"]
    if command[0] == "localize":
        argv += ["--symptoms", symptoms]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"


def test_simulate_json_is_indented_json_dumps(capsys):
    code, out, err = run(capsys, "simulate", "--seed", "42", "--format", "json")
    assert code == 0, err
    assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize(
    "document",
    [
        '{"format_version":1,"nodes":[{"id":"a","kind":[]}],"edges":[]}',
        '{"format_version":1,"nodes":[{"id":"a"},{"id":"b"}],'
        '"edges":[{"id":"e","from":"a","to":"b","weight":1,"kind":{}}]}',
    ],
    ids=["node-kind-list", "edge-kind-object"],
)
@pytest.mark.parametrize("command", ["validate", "cpm", "matrix"])
def test_non_string_kind_exits_2(tmp_path, capsys, document, command):
    path = tmp_path / "kind.json"
    path.write_text(document)
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert "internal error" not in err
    assert ".kind: unknown" in err


_ROBOT_DOC = json.loads(ROBOT_PATH.read_text())
_FUZZ_ARGV = [
    ("validate",),
    ("validate", "--format", "json"),
    ("cpm", "--format", "json"),
    ("matrix",),
    ("matrix", "--kind", "closure", "--format", "json"),
    ("localize", "--symptoms", "v4"),
    ("localize", "--symptoms", "v1,v3", "--view", "scheduling", "--format", "json"),
    ("export",),
    ("export", "--symptoms", "v4"),
]
_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _slots(holder, key):
    """Every (container, key) position below ``holder[key]``, itself included."""
    yield holder, key
    value = holder[key]
    if isinstance(value, (dict, list)):
        for k in list(value.keys() if isinstance(value, dict) else range(len(value))):
            yield from _slots(value, k)


@st.composite
def _mutated_robot(draw):
    holder = [copy.deepcopy(_ROBOT_DOC)]
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_slots(holder, 0))))
        action = draw(st.sampled_from(["replace", "drop", "duplicate"]))
        if action == "replace" or container is holder:
            container[key] = draw(_junk)
        elif action == "drop":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        else:
            container[key] = draw(_junk)
    return json.dumps(holder[0]).encode()


@given(st.one_of(_mutated_robot(), st.binary(max_size=120)))
@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_fuzzed_input_never_exits_1(tmp_path_factory, capsys, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_bytes(data)
    for argv in _FUZZ_ARGV:
        code, _, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code in (0, 2, 3), (argv, err)
        assert "internal error" not in err, (argv, err)


_OVER_BOUND = (2**64 + 1, 9 * 10**4299)  # the second has 4,300 digits
_extreme_text = st.one_of(
    st.sampled_from(["m\ns", " ", "\x00", "µs", "日本語"]), st.text(min_size=1, max_size=40)
)
# The documented input errors a file that validates may still meet.
_DOCUMENTED_ERRORS = (
    "error: scheduling cycle: ",
    "error: cannot schedule a graph with no activities\n",
    "error: unknown node: ",
    "error: graph has ",
)


@st.composite
def _extreme_document(draw):
    """Schema-valid documents with extreme weights, unicode units and
    labels, isolated nodes and parallel edges, but no self-loops."""
    n = draw(st.integers(0, 6))
    nodes = [
        {
            "id": f"n{i}",
            "label": draw(st.none() | _extreme_text),
            "kind": draw(st.sampled_from(sorted(NODE_KINDS))),
        }
        for i in range(n)
    ]
    weights = (0, 1, 2**64) + (_OVER_BOUND if draw(st.booleans()) else ())
    edges = []
    for k in range(draw(st.integers(0, 8)) if n > 1 else 0):
        tail, head = draw(st.permutations(range(n)))[:2]
        kind = draw(st.sampled_from(sorted(EDGE_KINDS)))
        weight = 0 if kind == EDGE_DUMMY else draw(st.sampled_from(weights) | st.integers(0, 9))
        edges.append({"id": f"e{k}", "from": f"n{tail}", "to": f"n{head}", "weight": weight, "kind": kind})
    return {"format_version": 1, "unit": draw(_extreme_text), "nodes": nodes, "edges": edges}


@given(_extreme_document())
@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_a_file_validate_accepts_runs_everywhere(tmp_path_factory, capsys, doc):
    """If ``validate`` exits 0, every other subcommand exits 0 or with a
    documented input error; a weight above 2**64 fails ``validate``."""
    path = tmp_path_factory.getbasetemp() / "extreme.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    over = [i for i, e in enumerate(doc["edges"]) if e["weight"] > 2**64]
    if over:
        i = over[0]
        assert (code, err) == (2, f"error: edges[{i}].weight: edge 'e{i}': weight must be at most 2**64\n")
        return
    if code != 0:
        return
    runs = [("cpm",), ("cpm", "--format", "json"), ("export",)]
    runs += [("matrix", "--kind", kind, "--format", fmt)
             for kind in ("incidence", "adjacency", "dependency", "closure")
             for fmt in ("text", "csv", "json")]
    if doc["nodes"]:
        runs.append(("localize", "--symptoms", "n0"))
    outputs = {}
    for argv in runs:
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 0 or (code == 2 and err.startswith(_DOCUMENTED_ERRORS)), (argv, err)
        assert len(err.splitlines()) <= 1, (argv, err)
        outputs[argv] = out
    if outputs[("cpm",)]:  # one line per record: duration, header, nodes, critical nodes, paths
        paths = json.loads(outputs[("cpm", "--format", "json")])["critical_paths"]
        assert len(outputs[("cpm",)].splitlines()) == 3 + len(doc["nodes"]) + len(paths)


MATRIX_GOLDENS = GOLDENS / "matrix_100n_seed5"
_MATRIX_SUFFIX = {"text": "txt", "csv": "csv", "json": "json"}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("kind", ["incidence", "adjacency", "dependency", "closure"])
def test_matrix_output_matches_golden(capsys, kind, fmt):
    """A generated 100-node graph with feedback cycles (two strongly
    connected components of 7 and 3 nodes), every matrix kind and format."""
    code, out, err = run(
        capsys, "matrix", str(MATRIX_GOLDENS / "graph.json"), "--kind", kind, "--format", fmt
    )
    assert (code, err) == (0, "")
    assert out.encode() == (MATRIX_GOLDENS / f"{kind}.{_MATRIX_SUFFIX[fmt]}").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", ["dependency", "closure"])
def test_matrix_renders_dependency_rows_from_masks(capsys, monkeypatch, kind, fmt):
    """CSV and JSON read the packed masks; unpacking ``rows`` would be an
    n x n detour, so here it raises rather than let a fallback pass."""

    def unpacked(matrix):
        raise AssertionError("DependencyMatrix.rows computed")

    monkeypatch.setattr(DependencyMatrix, "rows", property(unpacked))
    code, out, err = run(
        capsys, "matrix", str(MATRIX_GOLDENS / "graph.json"), "--kind", kind, "--format", fmt
    )
    assert (code, err) == (0, "")
    assert out.encode() == (MATRIX_GOLDENS / f"{kind}.{_MATRIX_SUFFIX[fmt]}").read_bytes()


def count_calls(monkeypatch, module, name) -> list:
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("path", [ROBOT, str(MATRIX_GOLDENS / "graph.json")], ids=["robot", "matrix_100n_seed5"])
def test_closure_condenses_the_graph_view_in_one_pass_without_unpacking(capsys, monkeypatch, path, fmt):
    """The closure condenses the successor lists its matrix was packed
    from: one Tarjan pass, and no row unpacked into successor lists. The
    raw dependency matrix condenses nothing."""
    passes = count_calls(monkeypatch, depmat.graph, "_tarjan")
    unpacked = count_calls(monkeypatch, depmat.matrices, "_set_bits")
    assert run(capsys, "matrix", path, "--kind", "closure", "--format", fmt)[0] == 0
    assert (len(passes), len(unpacked)) == (1, 0)
    assert run(capsys, "matrix", path, "--kind", "dependency", "--format", fmt)[0] == 0
    assert (len(passes), len(unpacked)) == (1, 0)


_SIMULATE = ["simulate", "--nodes", "15", "--layers", "3", "--trials", "4", "--seed", "5"]


@pytest.mark.parametrize(
    "argv",
    _every_command_on(ROBOT, "v4")
    + [["localize", ROBOT, "--symptoms", "v2,v4", "--view", "scheduling", "--format", "json"]]
    + [_SIMULATE + ["--format", fmt] for fmt in ("text", "csv", "json")],
    ids=lambda argv: " ".join(argv).replace(ROBOT, "robot.json"),
)
def test_a_second_call_through_the_shared_parser_prints_the_same(capsys, argv):
    """``main`` parses every call with one parser; a usage error and an
    input error parsed in between leave no trace on the next call."""
    assert cli.build_parser() is cli.build_parser()
    first = run(capsys, *argv)
    code, out, err = run(capsys, "matrix", ROBOT, "--kind", "bogus")
    assert (code, out) == (2, "") and err.startswith("usage: depmat matrix")
    code, out, err = run(capsys, "cpm", "no-such-file.json")
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert run(capsys, *argv) == first
    assert first[0] == 0 and first[1]


LOCALIZE_GOLDENS = GOLDENS / "localize_100n_seed5"
_LOCALIZE_SYMPTOMS = ",".join(f"n{i}" for i in range(1, 100, 2))


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("view", ["all", "scheduling"])
def test_localize_output_matches_golden(capsys, view, fmt):
    """50 symptoms on the 100-node matrix golden's graph: many candidates
    explain the same symptom set, so the output repeats ``explains`` lists."""
    code, out, err = run(
        capsys, "localize", str(MATRIX_GOLDENS / "graph.json"), "--symptoms", _LOCALIZE_SYMPTOMS,
        "--view", view, "--format", fmt,
    )
    assert (code, err) == (0, "")
    assert out.encode() == (LOCALIZE_GOLDENS / f"{view}.{_MATRIX_SUFFIX[fmt]}").read_bytes()


SCHEDULE_GOLDENS = GOLDENS / "schedule_100n_seed5"


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["cpm"], "cpm.txt"),
        (["cpm", "--format", "json"], "cpm.json"),
        (["export"], "export.dot"),
        (["export", "--symptoms", _LOCALIZE_SYMPTOMS], "export_symptoms.dot"),
    ],
    ids=["cpm-text", "cpm-json", "export", "export-symptoms"],
)
def test_schedule_output_matches_golden(capsys, argv, golden):
    """``cpm`` in both formats and ``export`` with and without symptoms on
    the 100-node matrix golden's graph: ten critical nodes, one path."""
    code, out, err = run(capsys, argv[0], str(MATRIX_GOLDENS / "graph.json"), *argv[1:])
    assert (code, err) == (0, "")
    assert out.encode() == (SCHEDULE_GOLDENS / golden).read_bytes()


def _cpm_by_node_records(graph: ActivityGraph) -> tuple[str, str]:
    """``cpm``'s JSON and text output as it was rendered from one dict and
    one table row per node, looked up by id in the schedule's dicts."""
    schedule = compute_schedule(graph)
    classification = classify_activities(graph)
    overrides = set(classification.overrides)
    payload = {
        "unit": graph.unit,
        "duration": schedule.duration,
        "nodes": [
            {
                "id": v,
                "earliest": schedule.earliest[v],
                "latest": schedule.latest[v],
                "slack": schedule.slack[v],
                "class": classification.kinds[v],
                "override": v in overrides,
            }
            for v in graph.node_ids
        ],
        "critical_nodes": schedule.critical_nodes,
        "critical_paths": schedule.paths,
    }
    header = ("node", "earliest", "latest", "slack", "class")
    table = [
        (
            v,
            str(schedule.earliest[v]),
            str(schedule.latest[v]),
            str(schedule.slack[v]),
            classification.kinds[v] + (" (override)" if v in overrides else ""),
        )
        for v in graph.node_ids
    ]
    widths = [max(map(len, column)) for column in zip(header, *table)]
    lines = [f"duration: {schedule.duration} {shown(graph.unit)}"]
    lines += ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in (header, *table)]
    lines.append("critical nodes: " + ", ".join(schedule.critical_nodes))
    lines += ["critical path: " + " -> ".join(path) for path in schedule.paths]
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n", "\n".join(lines) + "\n"


def test_cpm_renders_as_it_did_from_per_node_records(tmp_path, capsys):
    """On 200 generated graphs with random declared kinds and units, both
    ``cpm`` formats equal the per-node rendering byte for byte, and the
    id-keyed schedule and classification views are their columns by id."""
    rnd = random.Random(19)
    path = tmp_path / "graph.json"
    for _ in range(200):
        nodes = rnd.randint(1, 40)
        params = GeneratorParams(
            node_count=nodes,
            layer_count=rnd.randint(1, min(nodes, 6)),
            edge_density=rnd.uniform(0.05, 0.6),
            max_weight=rnd.choice((1, 9, 2**64)),
            feedback_edge_fraction=rnd.uniform(0, 0.3),
            seed=rnd.randrange(2**32),
        )
        generated = generate_graph(params)
        kinds = [rnd.choice(sorted(NODE_KINDS)) for _ in generated.node_ids]
        graph = ActivityGraph.from_columns(
            (generated.node_ids, generated.node_labels, kinds),
            (generated.edge_ids, generated.edge_tails, generated.edge_heads, generated.edge_weights, generated.edge_kinds),
            unit=rnd.choice(("ms", "días", "h\tr")),
        )
        path.write_bytes(serialize_graph(graph))
        expected_json, expected_text = _cpm_by_node_records(graph)
        assert run(capsys, "cpm", str(path), "--format", "json") == (0, expected_json, "")
        assert run(capsys, "cpm", str(path)) == (0, expected_text, "")

        schedule, classification = compute_schedule(graph), classify_activities(graph)
        ids = graph.node_ids
        assert schedule.earliest == dict(zip(ids, schedule.node_earliest))
        assert schedule.latest == dict(zip(ids, schedule.node_latest))
        assert schedule.slack == dict(zip(ids, schedule.node_slack))
        assert classification.kinds == dict(zip(ids, classification.node_classes))
        assert classification.overrides == tuple(compress(ids, classification.node_overrides))


BAD_DOCUMENTS = GOLDENS / "bad_documents"
_BAD_DOCUMENT_RUNS = json.loads((GOLDENS / "bad_documents.json").read_text())
_BAD_DOCUMENT_ARGV = {
    "cpm": ["cpm"],
    "validate-text": ["validate"],
    "validate-json": ["validate", "--format", "json"],
}


@pytest.mark.parametrize(
    "name,command",
    [(name, command) for name, runs in _BAD_DOCUMENT_RUNS.items() for command in runs],
)
def test_bad_document_matches_golden(capsys, name, command):
    """Every schema error and every structural error a file can carry: the
    exit code and stderr of ``cpm`` (each error at its locus), and the whole
    output of ``validate`` in both formats."""
    expected = _BAD_DOCUMENT_RUNS[name][command]
    subcommand, *options = _BAD_DOCUMENT_ARGV[command]
    code, out, err = run(capsys, subcommand, str(BAD_DOCUMENTS / f"{name}.json"), *options)
    actual = {"code": code, "stdout": out, "stderr": err}
    assert {key: actual[key] for key in expected} == expected


# the bad documents that load: their exit 2 is cpm's alone, and the
# scheduling cycle's other commands have cases of their own
_LOADING_BAD_DOCUMENTS = {"empty_graph", "scheduling_cycle"}
_CYCLE = str(BAD_DOCUMENTS / "scheduling_cycle.json")
_ABOVE_CAP = "<4,097-node file>"  # stands for the path of the ``just_above_dense_cap`` file
_EXIT_2_ARGV = [
    *(["cpm", str(BAD_DOCUMENTS / f"{name}.json")] for name in _BAD_DOCUMENT_RUNS),
    *(
        [*command[:1], str(BAD_DOCUMENTS / f"{name}.json"), *command[1:]]
        for name in _BAD_DOCUMENT_RUNS if name not in _LOADING_BAD_DOCUMENTS
        for command in (["matrix"], ["localize", "--symptoms", "a"], ["export"])
    ),
    *(
        ["matrix", _ABOVE_CAP, "--kind", kind, "--format", fmt]
        for kind in ("incidence", "adjacency", "dependency", "closure") for fmt in ("text", "csv", "json")
    ),
    *(
        [command, ROBOT, "--symptoms", symptoms]
        for command in ("localize", "export") for symptoms in ("nope", "v1,nope", "v4,v4", "", ",")
    ),
    ["localize", _CYCLE, "--symptoms", "a", "--view", "scheduling"],
    ["export", _CYCLE, "--symptoms", "a", "--view", "scheduling"],
    ["simulate", "--nodes", "0"],
    ["simulate", "--nodes", "20000", "--layers", "2"],
    *([*command, str(REPO_ROOT / "no_such_graph.json"), *options] for command, options in (
        (["cpm"], []), (["validate"], []), (["matrix"], []), (["localize"], ["--symptoms", "a"]), (["export"], [])
    )),
]


@pytest.fixture(scope="module")
def just_above_dense_cap(tmp_path_factory):
    g = generate_graph(GeneratorParams(node_count=MAX_DENSE_NODES + 1, layer_count=40, edge_density=0.01, seed=2))
    assert len(g.node_ids) == MAX_DENSE_NODES + 1
    path = tmp_path_factory.mktemp("cap") / "just_above.json"
    path.write_bytes(serialize_graph(g))
    return str(path)


@pytest.mark.parametrize("argv", _EXIT_2_ARGV, ids=lambda argv: " ".join(map(os.path.basename, argv)))
def test_every_input_error_exits_2_before_any_stdout_byte(capsys, request, argv):
    """Every input error is raised before the first byte of output: the bad
    documents, the dense cap, unknown, repeated and empty symptom sets, the
    empty graph and the scheduling cycle, simulator bounds, a missing file."""
    if _ABOVE_CAP in argv:
        argv = [request.getfixturevalue("just_above_dense_cap") if a == _ABOVE_CAP else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("name", ["edge_to_lone_surrogate", "node_id_lone_surrogate"])
def test_validate_json_with_a_lone_surrogate_encodes_as_utf8_and_re_encodes(capsys, name):
    code, out, err = run(capsys, "validate", str(BAD_DOCUMENTS / f"{name}.json"), "--format", "json")
    assert (code, err) == (3, "")
    assert out == json.dumps(json.loads(out.encode("utf-8")), indent=2, ensure_ascii=False) + "\n"


def test_validate_json_escapes_only_the_ids_that_hold_a_lone_surrogate(tmp_path, capsys):
    """An id with a lone surrogate is written as its ``repr``, as in its
    message, wherever an issue lists it; any other id, printable or not,
    is written as it is."""
    edges = [
        {"id": "f\ud800", "from": "a", "to": "a", "weight": 1},
        {"id": "g", "from": "a", "to": "x\ny", "weight": 1},
    ]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"format_version": 1, "nodes": [{"id": "a"}], "edges": edges}))
    code, out, err = run(capsys, "validate", str(path), "--format", "json")
    assert (code, err) == (3, "")
    issues = json.loads(out.encode("utf-8"))["issues"]
    assert [(issue["code"], issue["ids"]) for issue in issues] == [
        ("invalid-id", ["'f\\ud800'"]),
        ("self-loop", ["'f\\ud800'"]),
        ("unknown-endpoint", ["g", "x\ny"]),
    ]


@pytest.mark.parametrize(
    "error",
    [
        ParseError,
        SchemaError,
        GraphBuildError,
        UnknownNodeError,
        CyclicScheduleError,
        CapacityError,
        EmptyGraphError,
        InvalidParamsError,
    ],
)
def test_input_errors_are_value_errors(error):
    """``main`` maps ValueError and OSError to exit 2; an input error reaches
    that exit only as a ValueError."""
    assert issubclass(error, ValueError)


SIMULATE_GOLDENS = GOLDENS / "simulate"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("policy", ["critical_only", "uniform"])
def test_simulate_output_matches_golden(capsys, policy, fmt):
    code, out, err = run(
        capsys, "simulate", "--nodes", "100", "--layers", "8", "--density", "0.1",
        "--feedback", "0.05", "--trials", "30", "--detect-prob", "0.9", "--seed", "9",
        "--root-policy", policy, "--format", fmt,
    )
    assert (code, err) == (0, "")
    assert out.encode() == (SIMULATE_GOLDENS / f"{policy}.{_MATRIX_SUFFIX[fmt]}").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--nodes", "100", "--layers", "8", "--density", "0.1",
         "--feedback", "0.05", "--trials", "30", "--detect-prob", "0.9",
         "--seed", "9", "--format", "json"],
        ["matrix", str(MATRIX_GOLDENS / "graph.json"), "--kind", "closure", "--format", "csv"],
        ["localize", str(MATRIX_GOLDENS / "graph.json"), "--symptoms", "n10,n40,n71,n95",
         "--format", "json"],
    ],
    ids=lambda argv: argv[0],
)
def test_output_is_byte_identical_across_processes(argv):
    """Separate interpreters with different string hash seeds print the
    same bytes."""
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-m", "depmat", *argv], env=env, capture_output=True, check=True
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0]


def test_importing_the_cli_loads_every_module():
    """A fresh interpreter's ``import depmat.cli`` loads all eight modules:
    the benchmark's tracer (``bench/tracing.py``) looks up the functions it
    wraps, ``depmat.simulation``'s and ``depmat.rng``'s among them, in
    ``sys.modules`` right after that import."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, depmat.cli; print(' '.join(sorted(m for m in sys.modules if m.startswith('depmat.'))))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True, text=True)
    modules = "cli fileio graph localization matrices rng schedule simulation"
    assert result.stdout.split() == [f"depmat.{name}" for name in modules.split()]

"""Command-line interface.

Exit codes: 0 success, 1 internal error, 2 usage or input error,
3 validation failed (the ``validate`` subcommand found errors).
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from operator import attrgetter
from typing import Sequence

from .fileio import (
    Records,
    SchemaError,
    dumps_json,
    export_dot,
    matrix_csv,
    matrix_fields,
    matrix_text,
    parse_graph,
    text_table,
)
from .graph import LONE_SURROGATE, ActivityGraph, ValidationReport, shown, validate
from .localization import RANK_KEYS, VIEW_ALL, VIEW_SCHEDULING, localize
from .matrices import adjacency_matrix, dependency_matrix, incidence_matrix, transitive_closure
from .schedule import classify_activities, compute_schedule
from .simulation import GeneratorParams, run_experiment

_VIEWS = {"all": VIEW_ALL, "scheduling": VIEW_SCHEDULING}


def _load(path: str) -> ActivityGraph:
    with open(path, "rb") as handle:
        return parse_graph(handle.read())


def _emit_json(payload: dict) -> None:
    print(dumps_json(payload))


def _encodable(value):
    """``value``, or its ``repr`` (as the message shows it) when it
    holds a lone surrogate, which has no UTF-8 encoding."""
    return repr(value) if isinstance(value, str) and LONE_SURROGATE.search(value) else value


def cmd_validate(args) -> int:
    try:
        report = validate(_load(args.file))
    except SchemaError as exc:
        if not exc.issues:  # a schema error: validate has nothing to list
            raise
        report = ValidationReport(exc.issues)  # the structural errors validate would list
    if args.format == "json":
        fields = ("severity", "code", "message", "ids")
        columns = [list(map(attrgetter(name), report.issues)) for name in fields]
        columns[3] = [tuple(map(_encodable, ids)) for ids in columns[3]]
        issues = Records(fields, columns)
        _emit_json({"ok": report.ok, "issues": issues})
    else:
        for issue in report.issues:
            print(f"{issue.severity}: {issue.message}")
        print(f"ok: {'yes' if report.ok else 'no'}")
    return 0 if report.ok else 3


def cmd_matrix(args) -> int:
    graph = _load(args.file)
    if args.kind == "incidence":
        matrix = incidence_matrix(graph)
    elif args.kind == "adjacency":
        matrix = adjacency_matrix(graph)
    elif args.kind == "dependency":
        matrix = dependency_matrix(graph)
    else:
        matrix = transitive_closure(dependency_matrix(graph))
    if args.format == "json":
        _emit_json({"kind": args.kind, "unit": graph.unit, **matrix_fields(matrix)})
    else:
        print((matrix_csv if args.format == "csv" else matrix_text)(matrix), end="")
    return 0


def cmd_cpm(args) -> int:
    graph = _load(args.file)
    schedule = compute_schedule(graph)
    classification = classify_activities(graph)
    times = (schedule.node_earliest, schedule.node_latest, schedule.node_slack)
    classes, overrides = classification.node_classes, classification.node_overrides
    if args.format == "json":
        _emit_json(
            {
                "unit": graph.unit,
                "duration": schedule.duration,
                "nodes": Records(
                    ("id", "earliest", "latest", "slack", "class", "override"),
                    (graph.node_ids, *times, classes, overrides),
                ),
                "critical_nodes": schedule.critical_nodes,
                "critical_paths": schedule.paths,
            }
        )
        return 0
    print(f"duration: {schedule.duration} {shown(graph.unit)}")
    header = ("node", "earliest", "latest", "slack", "class")
    shown_classes = (kind + " (override)" if flag else kind for kind, flag in zip(classes, overrides))
    rows = list(zip(*(map(str, column) for column in times), shown_classes))
    print(text_table(header, graph.node_ids, rows), end="")
    print("critical nodes: " + ", ".join(schedule.critical_nodes))
    for path in schedule.paths:
        print("critical path: " + " -> ".join(path))
    return 0


def cmd_localize(args) -> int:
    graph = _load(args.file)
    symptoms = [s for s in args.symptoms.split(",") if s]
    report = localize(graph, symptoms, view=_VIEWS[args.view])
    nodes = [graph.node_ids[v] for v in report.ranked]
    if args.format == "json":
        _emit_json(
            {
                "view": report.view,
                "symptoms": report.symptoms,
                "candidates": Records(
                    ("node", "explains", "is_critical", "min_distance", "scc"),
                    (nodes, report.explains, report.critical, report.distances, report.sccs),
                ),
                "independent": report.independent,
                "nodes_examined": report.nodes_examined,
                "node_count": len(report.node_ids),
                "policy": RANK_KEYS,
            }
        )
        return 0
    print(f"view: {report.view}")
    print("symptoms: " + ", ".join(report.symptoms))
    header = ("rank", "node", "explains", "critical", "distance", "scc")
    columns = zip(nodes, report.masks, report.critical, report.distances, report.sccs)
    table = [
        (node, str(mask.bit_count()), "yes" if critical else "no", str(distance), str(scc))
        for node, mask, critical, distance, scc in columns
    ]
    print(text_table(header, list(map(str, range(1, len(table) + 1))), table), end="")
    print("independent: " + (", ".join(report.independent) or "(none)"))
    print(f"nodes examined: {report.nodes_examined} of {len(report.node_ids)}")
    return 0


def cmd_simulate(args) -> int:
    params = GeneratorParams(
        node_count=args.nodes,
        layer_count=args.layers,
        edge_density=args.density,
        max_weight=args.wmax,
        feedback_edge_fraction=args.feedback,
        seed=args.seed,
    )
    report = run_experiment(params, args.trials, args.detect_prob, args.root_policy)
    if args.format == "json":
        _emit_json(report.to_json_dict())
    elif args.format == "csv":
        print(report.to_csv(), end="")
    else:
        print(report.to_text(), end="")
    return 0


def cmd_export(args) -> int:
    graph = _load(args.file)
    report = None
    if args.symptoms is not None:
        symptoms = [s for s in args.symptoms.split(",") if s]
        report = localize(graph, symptoms, view=_VIEWS[args.view])
    sys.stdout.write(export_dot(graph, report).decode("utf-8"))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: ``parse_args`` keeps no state
    between calls, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="depmat",
        description="Activity-graph dependency matrices, critical paths, "
        "fault localization and fault-injection simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph file and report issues")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("matrix", help="print a matrix view of the graph")
    p.add_argument("file")
    p.add_argument(
        "--kind",
        choices=("incidence", "adjacency", "dependency", "closure"),
        default="dependency",
    )
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("cpm", help="critical-path schedule of the graph")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_cpm)

    p = sub.add_parser("localize", help="rank fault root-cause candidates")
    p.add_argument("file")
    p.add_argument("--symptoms", required=True, help="comma-separated node ids")
    p.add_argument("--view", choices=("all", "scheduling"), default="all")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("simulate", help="seeded fault-injection experiment")
    p.add_argument("--nodes", type=int, default=20)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--feedback", type=float, default=0.1)
    p.add_argument("--wmax", type=int, default=9)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--detect-prob", type=float, default=1.0)
    p.add_argument(
        "--root-policy", choices=("critical_only", "uniform"), default="critical_only"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("export", help="render the graph as DOT")
    p.add_argument("file")
    p.add_argument("--symptoms", help="mark localization results for these symptoms")
    p.add_argument("--view", choices=("all", "scheduling"), default="all")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every input error subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # unexpected; keep the message terse
        print(f"internal error: {exc}", file=sys.stderr)
        return 1

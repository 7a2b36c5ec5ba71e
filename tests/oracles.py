"""Brute-force oracles and seeded samplers used to cross-check the library.

Everything here is deliberately naive (explicit enumeration, boolean
matrix powers, stdlib ``random``) and shares no code with the
implementations under test, apart from the frozen splitmix64 stream that
the generator reference must replay.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Sequence

from depmat.fileio import ParseError, SchemaError, _decode
from depmat.graph import (
    Activity,
    ActivityEdge,
    ActivityGraph,
    EDGE_DEPENDENCY_ONLY,
    EDGE_DUMMY,
    EDGE_KINDS,
    EDGE_SCHEDULING,
    ID_PATTERN,
    KIND_AUTO,
    LONE_SURROGATE,
    MAX_WEIGHT,
    NODE_KINDS,
    SEVERITY_ERROR,
    ValidationIssue,
    build_graph,
    shown,
)
from depmat.rng import SplitMix64


def bool_matmul(a, b):
    n = len(a)
    return [
        [1 if any(a[i][k] and b[k][j] for k in range(n)) else 0 for j in range(n)]
        for i in range(n)
    ]


def closure_by_powers(rows):
    """Entrywise OR of the boolean powers D^1 .. D^n."""
    n = len(rows)
    acc = [list(r) for r in rows]
    power = [list(r) for r in rows]
    for _ in range(n - 1):
        power = bool_matmul(power, rows)
        for i in range(n):
            for j in range(n):
                acc[i][j] = 1 if acc[i][j] or power[i][j] else 0
    return [[1 if v else 0 for v in row] for row in acc]


def bfs_hops(succ, start):
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in succ.get(v, ()):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def lowest_cyclic_component(nodes, succ):
    """Members, in input order, of the strongly connected component that
    holds a cycle (two or more members, or a self-loop) and has the
    lowest-position first member, by mutual BFS reachability; None when
    the digraph is acyclic. Every member of such a component lies on a
    cycle, so the first node on a cycle is that component's first member."""
    reach = {v: bfs_hops(succ, v) for v in nodes}
    for v in nodes:
        if any(v in reach[w] for w in succ.get(v, ())):
            return [w for w in nodes if w in reach[v] and v in reach[w]]
    return None


def has_cycle(nodes, succ):
    """Three-color DFS cycle detection."""
    color = {v: 0 for v in nodes}

    def visit(v):
        color[v] = 1
        for w in succ.get(v, ()):
            if color[w] == 1:
                return True
            if color[w] == 0 and visit(w):
                return True
        color[v] = 2
        return False

    return any(color[v] == 0 and visit(v) for v in nodes)


def _path_sums_ending(node, in_edges):
    sums = [0]
    for tail, weight in in_edges.get(node, ()):
        for s in _path_sums_ending(tail, in_edges):
            sums.append(s + weight)
    return sums


def _path_sums_starting(node, out_edges):
    sums = [0]
    for head, weight in out_edges.get(node, ()):
        for s in _path_sums_starting(head, out_edges):
            sums.append(s + weight)
    return sums


def cpm_by_enumeration(g: ActivityGraph):
    """(duration, earliest, latest, critical set) by enumerating every
    directed path explicitly, no memoization."""
    in_edges: dict[str, list[tuple[str, int]]] = {}
    out_edges: dict[str, list[tuple[str, int]]] = {}
    for e in g.edges:
        if e.kind in ("scheduling", "dummy"):
            in_edges.setdefault(e.head, []).append((e.tail, e.weight))
            out_edges.setdefault(e.tail, []).append((e.head, e.weight))
    earliest = {v: max(_path_sums_ending(v, in_edges)) for v in g.node_ids}
    duration = max(earliest.values())
    latest = {v: duration - max(_path_sums_starting(v, out_edges)) for v in g.node_ids}
    critical = {v for v in g.node_ids if earliest[v] == latest[v]}
    return duration, earliest, latest, critical


def critical_paths_by_enumeration(g: ActivityGraph):
    """Every source-to-sink path over scheduling and dummy edges whose
    weight equals the duration, as distinct node sequences sorted by node
    input positions."""
    out_edges: dict[str, list[tuple[str, int]]] = {v: [] for v in g.node_ids}
    has_in = set()
    for e in g.edges:
        if e.kind in ("scheduling", "dummy"):
            out_edges[e.tail].append((e.head, e.weight))
            has_in.add(e.head)
    duration = cpm_by_enumeration(g)[0]
    found = set()

    def walk(path, total):
        if not out_edges[path[-1]]:
            if total == duration:
                found.add(tuple(path))
            return
        for head, weight in out_edges[path[-1]]:
            walk(path + [head], total + weight)

    for v in g.node_ids:
        if v not in has_in:
            walk([v], 0)
    position = {v: i for i, v in enumerate(g.node_ids)}
    return tuple(sorted(found, key=lambda p: [position[v] for v in p]))


def random_digraph_rows(rnd: random.Random, max_nodes: int = 12):
    """Random boolean adjacency rows with a zero diagonal."""
    n = rnd.randint(1, max_nodes)
    density = rnd.uniform(0.05, 0.5)
    return [
        [1 if i != j and rnd.random() < density else 0 for j in range(n)]
        for i in range(n)
    ]


def random_dag(rnd: random.Random, max_nodes: int = 10, max_weight: int = 9) -> ActivityGraph:
    """Random scheduling DAG: edges follow a random topological order."""
    n = rnd.randint(1, max_nodes)
    order = list(range(n))
    rnd.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    density = rnd.uniform(0.1, 0.6)
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rank[i] < rank[j] and rnd.random() < density:
                edges.append(
                    ActivityEdge(f"e{len(edges)}", f"n{i}", f"n{j}", rnd.randint(0, max_weight))
                )
    return build_graph([Activity(f"n{i}") for i in range(n)], edges)


def random_mixed_graph(rnd: random.Random, max_nodes: int = 10) -> ActivityGraph:
    """Random DAG plus dependency-only edges in arbitrary directions, so the
    full digraph may contain cycles while the scheduling view stays acyclic."""
    base = random_dag(rnd, max_nodes)
    edges = list(base.edges)
    n = len(base.activities)
    for _ in range(rnd.randint(0, max(1, n))):
        i, j = rnd.randrange(n), rnd.randrange(n)
        if i == j:
            continue
        edges.append(
            ActivityEdge(
                f"e{len(edges)}", f"n{i}", f"n{j}", rnd.randint(0, 9), EDGE_DEPENDENCY_ONLY
            )
        )
    return build_graph(base.activities, edges)


def unchecked_graph(activities, edges, unit: str = "ms") -> ActivityGraph:
    """The graph of the records with no structural check
    (``ActivityGraph.from_columns``), so self-loops, cycles and repeated ids
    stay representable. Every endpoint must be declared; a repeated id
    stands for its last node."""
    ids = [a.id for a in activities]
    position = dict(zip(ids, range(len(ids))))
    nodes = (ids, [a.label for a in activities], [a.declared_kind for a in activities])
    columns = [(e.id, position[e.tail], position[e.head], e.weight, e.kind) for e in edges]
    return ActivityGraph.from_columns(nodes, list(zip(*columns)) or [()] * 5, unit)


def with_self_loops(rnd: random.Random, g: ActivityGraph) -> ActivityGraph:
    """``g`` unvalidated, plus dependency-only self-loops on a random subset
    of its nodes; the scheduling view is unchanged."""
    edges = list(g.edges)
    for v in g.node_ids:
        if rnd.random() < 0.4:
            edges.append(ActivityEdge(f"e{len(edges)}", v, v, rnd.randint(0, 9), EDGE_DEPENDENCY_ONLY))
    return unchecked_graph(g.activities, edges, g.unit)


def series_diamonds(k: int) -> ActivityGraph:
    """k equal-weight diamonds in series, 3k + 1 nodes ``d0..d{3k}``: every
    node is critical and there are 2**k critical paths."""
    edges = []
    for i in range(k):
        a, b, c, d = (f"d{3 * i + j}" for j in range(4))
        for tail, head in ((a, b), (a, c), (b, d), (c, d)):
            edges.append(ActivityEdge(f"e{len(edges)}", tail, head, 1, EDGE_SCHEDULING))
    return build_graph([Activity(f"d{i}") for i in range(3 * k + 1)], edges)


def random_kinded_digraph(rnd: random.Random, max_nodes: int = 10) -> ActivityGraph:
    """Random digraph whose edges take any kind in any direction, so the
    scheduling view itself may be cyclic."""
    n = rnd.randint(1, max_nodes)
    density = rnd.uniform(0.05, 0.4)
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rnd.random() < density:
                kind = rnd.choice((EDGE_SCHEDULING, EDGE_DEPENDENCY_ONLY, EDGE_DUMMY))
                weight = 0 if kind == EDGE_DUMMY else rnd.randint(0, 9)
                edges.append(ActivityEdge(f"e{len(edges)}", f"n{i}", f"n{j}", weight, kind))
    return build_graph([Activity(f"n{i}") for i in range(n)], edges)


def graph_succ(g: ActivityGraph, kinds=None):
    """Successor map over the given edge kinds (all kinds by default)."""
    succ: dict[str, list[str]] = {v: [] for v in g.node_ids}
    for e in g.edges:
        if kinds is None or e.kind in kinds:
            succ[e.tail].append(e.head)
    return succ


def generate_graph_by_pair_lists(params) -> ActivityGraph:
    """The layered generator as plain O(n^2) loops: every ordered pair is
    tested for consecutive layers, and feedback picks index an explicit
    list of every later-to-earlier pair. Same draw sequence as
    ``depmat.simulation.generate_graph``."""
    rng = SplitMix64(params.seed)
    n = params.node_count
    ids = [f"n{i}" for i in range(n)]
    layer = [i * params.layer_count // n for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if layer[j] == layer[i] + 1 and rng.random() < params.edge_density:
                weight = 1 + rng.below(params.max_weight)
                edges.append(ActivityEdge(f"e{len(edges)}", ids[i], ids[j], weight, EDGE_SCHEDULING))
    back_pairs = [(i, j) for i in range(n) for j in range(n) if layer[i] > layer[j]]
    wanted = min(int(params.feedback_edge_fraction * len(edges)), len(back_pairs))
    chosen = set()
    while len(chosen) < wanted:
        pick = rng.below(len(back_pairs))
        if pick in chosen:
            continue
        chosen.add(pick)
        i, j = back_pairs[pick]
        weight = 1 + rng.below(params.max_weight)
        edges.append(ActivityEdge(f"e{len(edges)}", ids[i], ids[j], weight, EDGE_DEPENDENCY_ONLY))
    return build_graph([Activity(v) for v in ids], edges)


# The loader and structural walk as they stood before every input rule moved
# into one per-item rule list in ``depmat.graph``: the reference that the
# first error ``parse_graph`` raises and the issues ``build_graph`` lists are
# checked against.


_NODE_FIELDS = {"id", "label", "kind"}
_EDGE_FIELDS = {"id", "from", "to", "weight", "kind"}


def reference_records(data: bytes | str) -> tuple[list[Activity], list[ActivityEdge], str]:
    """The activities, edges and unit of ``data``, each item parsed by its
    own function and no structural rule checked; raises the first schema
    error, as ``parse_graph`` did when each item was parsed so."""
    doc, unit = _decode(data)
    arrays = []
    for name, parse in (("nodes", _parse_node), ("edges", _parse_edge)):
        items = _get(doc, name, "$")
        if not isinstance(items, list):
            raise SchemaError(f"{name} must be an array", name)
        arrays.append([parse(item, i) for i, item in enumerate(items)])
    return (*arrays, unit)


def reference_first_error(data: bytes) -> str | None:
    """The text of the error ``parse_graph`` raised for ``data`` when each
    item was parsed by its own function, or None when it was accepted."""
    try:
        errors, loci = _structural_errors(*reference_records(data))
    except (ParseError, SchemaError) as exc:
        return str(exc)
    if errors:
        more = f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""
        return f"{loci[0]}: {errors[0].message}{more}"
    return None


def _get(mapping: dict, key: str, locus: str, index: int | None = None):
    """``mapping[key]``; a missing key is reported at ``locus``, or at
    ``locus[index]`` for an array item."""
    if key not in mapping:
        if index is not None:
            locus = f"{locus}[{index}]"
        raise SchemaError(f"missing required field {key!r}", locus)
    return mapping[key]


def _unknown_field(item: dict, fields: set, locus: str) -> SchemaError:
    key = next(k for k in item if k not in fields)
    return SchemaError(f"unknown field {key!r}", f"{locus}.{shown(key)}")


def _parse_node(item, i: int) -> Activity:
    """One ``nodes[i]`` entry; its locus is formatted only for an error."""
    if not isinstance(item, dict):
        raise SchemaError("node must be an object", f"nodes[{i}]")
    if not item.keys() <= _NODE_FIELDS:
        raise _unknown_field(item, _NODE_FIELDS, f"nodes[{i}]")
    node_id = _get(item, "id", "nodes", i)
    if not isinstance(node_id, str):
        raise SchemaError("id must be a string", f"nodes[{i}].id")
    label = item.get("label")
    if label is not None and not isinstance(label, str):
        raise SchemaError("label must be a string", f"nodes[{i}].label")
    if label is not None and LONE_SURROGATE.search(label):
        raise SchemaError("label must not contain a lone surrogate", f"nodes[{i}].label")
    kind = item.get("kind", KIND_AUTO)
    if not isinstance(kind, str) or kind not in NODE_KINDS:
        raise SchemaError(f"unknown node kind {kind!r}", f"nodes[{i}].kind")
    return Activity(node_id, label, kind)


def _parse_edge(item, i: int) -> ActivityEdge:
    """One ``edges[i]`` entry; its locus is formatted only for an error."""
    if not isinstance(item, dict):
        raise SchemaError("edge must be an object", f"edges[{i}]")
    if not item.keys() <= _EDGE_FIELDS:
        raise _unknown_field(item, _EDGE_FIELDS, f"edges[{i}]")
    edge_id = _get(item, "id", "edges", i)
    if not isinstance(edge_id, str):
        raise SchemaError("id must be a string", f"edges[{i}].id")
    tail = _get(item, "from", "edges", i)
    head = _get(item, "to", "edges", i)
    if not isinstance(tail, str):
        raise SchemaError("from must be a string", f"edges[{i}].from")
    if not isinstance(head, str):
        raise SchemaError("to must be a string", f"edges[{i}].to")
    weight = _get(item, "weight", "edges", i)
    if isinstance(weight, bool) or not isinstance(weight, int):
        raise SchemaError(
            f"edge {edge_id!r}: weight must be an integer number of time units",
            f"edges[{i}].weight",
        )
    if weight < 0:
        raise SchemaError(f"edge {edge_id!r}: weight must be non-negative", f"edges[{i}].weight")
    if weight > MAX_WEIGHT:
        raise SchemaError(f"edge {edge_id!r}: weight must be at most 2**64", f"edges[{i}].weight")
    kind = item.get("kind", EDGE_SCHEDULING)
    if not isinstance(kind, str) or kind not in EDGE_KINDS:
        raise SchemaError(f"unknown edge kind {kind!r}", f"edges[{i}].kind")
    return ActivityEdge(edge_id, tail, head, weight, kind)


def _structural_errors(
    activities: Sequence[Activity], edges: Sequence[ActivityEdge], unit: str
) -> tuple[list, list[str]]:
    """Every structural error of the records, and every label or unit that
    a graph file cannot carry, and, in a parallel list, the item it is on
    (or ``unit``); a duplicate id is on its later copy."""
    issues: list[ValidationIssue] = []
    loci: list[str] = []

    def err(code: str, message: str, *ids: str, locus: str = "") -> None:
        issues.append(ValidationIssue(SEVERITY_ERROR, code, message, tuple(ids)))
        loci.append(locus or f"{array}[{i}]")  # the item the loops below are checking

    if not isinstance(unit, str) or not unit:
        err("invalid-unit", "unit must be a non-empty string", locus="unit")
    elif LONE_SURROGATE.search(unit):
        err("invalid-unit", "unit must not contain a lone surrogate", locus="unit")

    array = "nodes"
    seen_nodes: set[str] = set()
    for i, a in enumerate(activities):
        if not isinstance(a.id, str) or not ID_PATTERN.match(a.id):
            err("invalid-id", f"activity id {_named(a.id, repr)} is not a valid token", _named(a.id, str))
        elif a.id in seen_nodes:
            err("duplicate-id", f"duplicate activity id: {a.id}", a.id)
        else:
            seen_nodes.add(a.id)
        if not isinstance(a.declared_kind, str) or a.declared_kind not in NODE_KINDS:
            err("invalid-kind", f"activity {_named(a.id)}: unknown kind {_named(a.declared_kind, repr)}", a.id)
        if not isinstance(a.label, (str, type(None))):
            err("invalid-label", f"activity {_named(a.id)}: label must be a string", a.id)
        elif a.label and LONE_SURROGATE.search(a.label):
            err("invalid-label", f"activity {_named(a.id)}: label must not contain a lone surrogate", a.id)

    declared = {a.id for a in activities if isinstance(a.id, str)}
    array = "edges"
    seen_edges: set[str] = set()
    for i, e in enumerate(edges):
        if not isinstance(e.id, str) or not ID_PATTERN.match(e.id):
            err("invalid-id", f"edge id {_named(e.id, repr)} is not a valid token", _named(e.id, str))
        elif e.id in seen_edges:
            err("duplicate-id", f"duplicate edge id: {e.id}", e.id)
        else:
            seen_edges.add(e.id)
        if not isinstance(e.kind, str) or e.kind not in EDGE_KINDS:
            err("invalid-kind", f"edge {_named(e.id)}: unknown kind {_named(e.kind, repr)}", e.id)
        if not isinstance(e.weight, int) or isinstance(e.weight, bool):
            err("invalid-weight", f"edge {_named(e.id)}: weight must be an integer", e.id)
        elif e.weight < 0:  # no message formats an unbounded weight
            err("negative-weight", f"edge {_named(e.id)}: weight is negative", e.id)
        elif e.weight > MAX_WEIGHT:
            err("weight-too-large", f"edge {_named(e.id)}: weight is above 2**64", e.id)
        elif e.kind == EDGE_DUMMY and e.weight != 0:
            err("dummy-nonzero", f"dummy edge {_named(e.id)} has non-zero weight {e.weight}", e.id)
        for endpoint in (e.tail, e.head):
            if not isinstance(endpoint, str) or endpoint not in declared:
                message = f"edge {_named(e.id)}: unknown node {_named(endpoint, repr)}"
                err("unknown-endpoint", message, e.id, _named(endpoint, str))
        if e.tail == e.head:
            err("self-loop", f"edge {_named(e.id)}: self-loop on {_named(e.tail)}", e.id)
    return issues, loci


def _named(value, form=shown) -> str:
    """``form(value)`` for a str; any other value, which may have no text
    form at all (an int past the digit limit), by its type's name."""
    return form(value) if isinstance(value, str) else f"<{type(value).__name__}>"

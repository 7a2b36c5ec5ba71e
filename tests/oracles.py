"""Brute-force oracles and seeded samplers used to cross-check the library.

Everything here is deliberately naive (explicit enumeration, boolean
matrix powers, stdlib ``random``) and shares no code with the
implementations under test, apart from the frozen splitmix64 stream that
the generator reference must replay.
"""

from __future__ import annotations

import random
from collections import deque

from depmat.graph import (
    Activity,
    ActivityEdge,
    ActivityGraph,
    EDGE_DEPENDENCY_ONLY,
    EDGE_DUMMY,
    EDGE_SCHEDULING,
    build_graph,
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

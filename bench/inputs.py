"""Seeded input generators and independent oracles for the benchmark.

Nothing here imports depmat: the generators write graph documents that
depmat parses, and the oracles recompute the answers with plain BFS and a
longest-path DP so a wrong result from depmat cannot agree with itself.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Edge:
    tail: int
    head: int
    weight: int
    kind: str


@dataclass(frozen=True)
class Project:
    """A generated layered project graph; node i is named ``a{i}``."""

    node_count: int
    edges: tuple[Edge, ...]

    def ids(self) -> list[str]:
        return [f"a{i}" for i in range(self.node_count)]

    def lines(self):
        """The graph in depmat's JSON format, one node or edge per line."""
        n, last = self.node_count, len(self.edges) - 1
        yield '{"format_version": 1, "unit": "ms", "nodes": ['
        for i in range(n):
            yield f'{{"id": "a{i}"}}' + ("," if i < n - 1 else "")
        yield '], "edges": ['
        for k, e in enumerate(self.edges):
            yield (
                f'{{"id": "e{k}", "from": "a{e.tail}", "to": "a{e.head}", '
                f'"weight": {e.weight}, "kind": "{e.kind}"}}' + ("," if k < last else "")
            )
        yield "]}"

    def write(self, path) -> tuple[int, str]:
        """Write the document line by line, so its text is never held
        whole; returns the byte count and SHA-256."""
        sha = hashlib.sha256()
        size = 0
        with open(path, "wb") as handle:
            for line in self.lines():
                data = (line + "\n").encode("ascii")
                sha.update(data)
                size += len(data)
                handle.write(data)
        return size, sha.hexdigest()

    def successors(self) -> list[list[int]]:
        """Heads of each node's edges of every kind."""
        succ: list[list[int]] = [[] for _ in range(self.node_count)]
        for e in self.edges:
            succ[e.tail].append(e.head)
        return succ


def _sampled_pairs(rng: random.Random, tails: range, heads: range, p: float):
    """Each (tail, head) pair independently with probability p, in row-major
    order, by geometric skipping: time is linear in the pairs chosen."""
    total = len(tails) * len(heads)
    log_q = math.log1p(-p)
    k = -1
    while True:
        k += 1 + int(math.log(1.0 - rng.random()) / log_q)
        if k >= total:
            return
        yield tails[k // len(heads)], heads[k % len(heads)]


def layered_project(
    rng: random.Random,
    node_count: int,
    layer_count: int,
    density: float,
    feedback: float,
    dummy: float = 0.0,
) -> Project:
    """Layered graph of the simulator's family: scheduling edges join
    consecutive layers only (so the scheduling view is acyclic), weights
    1..9; a ``dummy`` share of them are weight-0 dummy edges; then
    ``feedback`` times the edge count of distinct dependency-only edges run
    from a later layer back to an earlier one."""
    bounds = [i * node_count // layer_count for i in range(layer_count + 1)]
    layers = [range(bounds[i], bounds[i + 1]) for i in range(layer_count)]
    layer_of = [0] * node_count
    for index, members in enumerate(layers):
        for v in members:
            layer_of[v] = index
    edges: list[Edge] = []
    for upper, lower in zip(layers, layers[1:]):
        for tail, head in _sampled_pairs(rng, upper, lower, density):
            if rng.random() < dummy:
                edges.append(Edge(tail, head, 0, "dummy"))
            else:
                edges.append(Edge(tail, head, rng.randint(1, 9), "scheduling"))
    wanted = round(feedback * len(edges))
    seen: set[tuple[int, int]] = set()
    while len(seen) < wanted:
        tail, head = rng.randrange(node_count), rng.randrange(node_count)
        if layer_of[tail] > layer_of[head] and (tail, head) not in seen:
            seen.add((tail, head))
            edges.append(Edge(tail, head, rng.randint(1, 9), "dependency_only"))
    return Project(node_count, tuple(edges))


def relabeled(project: Project, rng: random.Random) -> Project:
    """The same graph with its nodes renumbered and its edges reordered at
    random: other bytes and input order, the same structure."""
    perm = list(range(project.node_count))
    rng.shuffle(perm)
    edges = [Edge(perm[e.tail], perm[e.head], e.weight, e.kind) for e in project.edges]
    rng.shuffle(edges)
    return Project(project.node_count, tuple(edges))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- oracles -------------------------------------------------------------


def reach_masks(succ: list[list[int]]) -> list[int]:
    """Bit j of entry i is set iff a path of length >= 1 runs from i to j,
    by one BFS per node."""
    masks = []
    for start in range(len(succ)):
        seen: set[int] = set()
        queue = deque(succ[start])
        while queue:
            v = queue.popleft()
            if v not in seen:
                seen.add(v)
                queue.extend(succ[v])
        masks.append(sum(1 << v for v in seen))
    return masks


def predecessors(succ: list[list[int]]) -> list[list[int]]:
    pred: list[list[int]] = [[] for _ in succ]
    for tail, heads in enumerate(succ):
        for head in heads:
            pred[head].append(tail)
    return pred


def dependents(pred: list[list[int]], root: int) -> list[int]:
    """Nodes other than ``root`` with a path to it (reverse BFS), sorted."""
    seen = {root}
    queue = deque([root])
    while queue:
        for v in pred[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    seen.discard(root)
    return sorted(seen)


def closure_rows(masks: list[int]) -> list[str]:
    """Each reachability mask as a row of '0'/'1' characters, column j at
    index j."""
    n = len(masks)
    return [format(mask, f"0{n}b")[::-1] for mask in masks]


def closure_csv(ids: list[str], rows: list[str]) -> str:
    """The text depmat's ``matrix --kind closure --format csv`` must print
    for these closure rows."""
    lines = ["," + ",".join(ids)]
    lines.extend(label + "," + ",".join(row) for label, row in zip(ids, rows))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Cpm:
    duration: int
    earliest: list[int]
    latest: list[int]
    slack: list[int]
    critical: list[int]


def longest_path_schedule(project: Project) -> Cpm:
    """Earliest/latest event times over the scheduling and dummy edges by a
    longest-path DP in Kahn order."""
    n = project.node_count
    sched = [e for e in project.edges if e.kind != "dependency_only"]
    out: list[list[Edge]] = [[] for _ in range(n)]
    indegree = [0] * n
    for e in sched:
        out[e.tail].append(e)
        indegree[e.head] += 1
    order = [v for v in range(n) if indegree[v] == 0]
    for v in order:
        for e in out[v]:
            indegree[e.head] -= 1
            if indegree[e.head] == 0:
                order.append(e.head)
    if len(order) != n:
        raise ValueError("generated scheduling view is cyclic")
    earliest = [0] * n
    for v in order:
        for e in out[v]:
            earliest[e.head] = max(earliest[e.head], earliest[v] + e.weight)
    duration = max(earliest)
    latest = [duration] * n
    for v in reversed(order):
        for e in out[v]:
            latest[v] = min(latest[v], latest[e.head] - e.weight)
    slack = [lt - et for lt, et in zip(latest, earliest)]
    return Cpm(duration, earliest, latest, slack, [v for v in range(n) if slack[v] == 0])

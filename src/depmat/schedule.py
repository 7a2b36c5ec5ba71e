"""Critical-path schedule over the acyclic scheduling view.

Event times live on nodes, durations on edges: earliest(v) is the longest
scheduling-path distance from any source, latest(v) the latest event time
that still meets the project duration. Zero slack marks a node critical.
All arithmetic is exact integer arithmetic in the graph's declared unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    ActivityGraph,
    KIND_AUTO,
    KIND_CRITICAL,
    KIND_NON_CRITICAL,
    SCHEDULING_KINDS,
)


class EmptyGraphError(ValueError):
    pass


@dataclass(frozen=True)
class Schedule:
    """Earliest/latest event times, slack, project duration, the critical
    node set (input order) and every critical path (lexicographic by node
    input position)."""

    earliest: dict[str, int]
    latest: dict[str, int]
    slack: dict[str, int]
    duration: int
    critical_nodes: tuple[str, ...]
    paths: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Classification:
    """Final critical/non-critical class per node; ``overrides`` lists the
    nodes whose declared kind changed the computed class."""

    kinds: dict[str, str]
    overrides: tuple[str, ...]


def forward_pass(g: ActivityGraph) -> dict[str, int]:
    """Earliest event times: longest scheduling-path distance from the
    sources (sources start at 0). Node input order is preserved."""
    earliest = {v: 0 for v in g.node_ids}
    for v in g.scheduling_order:
        for e in g.out_edges(v):
            if e.kind in SCHEDULING_KINDS:
                candidate = earliest[v] + e.weight
                if candidate > earliest[e.head]:
                    earliest[e.head] = candidate
    return {v: earliest[v] for v in g.node_ids}


def backward_pass(g: ActivityGraph, duration: int) -> dict[str, int]:
    """Latest event times; every sink is seeded with the project duration."""
    latest = {v: duration for v in g.node_ids}
    for v in reversed(g.scheduling_order):
        for e in g.out_edges(v):
            if e.kind in SCHEDULING_KINDS:
                candidate = latest[e.head] - e.weight
                if candidate < latest[v]:
                    latest[v] = candidate
    return {v: latest[v] for v in g.node_ids}


def compute_schedule(g: ActivityGraph) -> Schedule:
    """Full critical-path analysis of the scheduling view.

    Raises EmptyGraphError for node-less graphs and CyclicScheduleError when
    the scheduling view is cyclic.
    """
    if not g.activities:
        raise EmptyGraphError("cannot schedule a graph with no activities")
    earliest = forward_pass(g)
    duration = max(earliest.values())
    latest = backward_pass(g, duration)
    slack = {v: latest[v] - earliest[v] for v in g.node_ids}
    critical = tuple(v for v in g.node_ids if slack[v] == 0)
    paths = _critical_paths(g, earliest, slack, duration)
    return Schedule(earliest, latest, slack, duration, critical, paths)


def _critical_paths(
    g: ActivityGraph,
    earliest: dict[str, int],
    slack: dict[str, int],
    duration: int,
) -> tuple[tuple[str, ...], ...]:
    """Enumerate every source->sink path of zero-slack nodes whose tight
    scheduling edges sum to the duration, depth-first in node input order."""
    position = {v: i for i, v in enumerate(g.node_ids)}
    out = {v: [e for e in g.out_edges(v) if e.kind in SCHEDULING_KINDS] for v in g.node_ids}
    has_predecessor = {e.head for edges in out.values() for e in edges}

    def tight_successors(v: str) -> list[str]:
        heads = {
            e.head
            for e in out[v]
            if slack[e.head] == 0 and earliest[v] + e.weight == earliest[e.head]
        }
        return sorted(heads, key=position.__getitem__)

    starts = [v for v in g.node_ids if v not in has_predecessor and slack[v] == 0]
    paths: list[tuple[str, ...]] = []
    for start in starts:
        stack: list[tuple[str, tuple[str, ...]]] = [(start, (start,))]
        while stack:
            v, acc = stack.pop()
            if not out[v]:
                if earliest[v] == duration:
                    paths.append(acc)
                continue
            for head in reversed(tight_successors(v)):
                stack.append((head, acc + (head,)))
    return tuple(paths)


def classify_activities(g: ActivityGraph, schedule: Schedule) -> Classification:
    """Zero slack classifies a node critical; a non-auto declared kind is
    applied last, and listed as an override when it flips the computed
    class."""
    kinds: dict[str, str] = {}
    overrides: list[str] = []
    for a in g.activities:
        computed = KIND_CRITICAL if schedule.slack[a.id] == 0 else KIND_NON_CRITICAL
        if a.declared_kind != KIND_AUTO and a.declared_kind != computed:
            kinds[a.id] = a.declared_kind
            overrides.append(a.id)
        else:
            kinds[a.id] = computed
    return Classification(kinds, tuple(overrides))

"""Critical-path schedule over the acyclic scheduling view.

Event times live on nodes, durations on edges: earliest(v) is the longest
scheduling-path distance from any source, latest(v) the latest event time
that still meets the project duration. Zero slack marks a node critical.
All arithmetic is exact integer arithmetic in the graph's declared unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .graph import ActivityGraph, KIND_AUTO, KIND_CRITICAL, KIND_NON_CRITICAL


class EmptyGraphError(ValueError):
    pass


@dataclass(frozen=True)
class Schedule:
    """Earliest/latest event times, slack, project duration, the critical
    node set (input order) and every critical path (lexicographic by node
    input position). It keeps the graph's node ids and scheduling view,
    which ``paths`` reads, but not the graph."""

    earliest: dict[str, int]
    latest: dict[str, int]
    slack: dict[str, int]
    duration: int
    critical_nodes: tuple[str, ...]
    node_ids: tuple[str, ...] = field(repr=False, compare=False)
    scheduling_view: tuple[list[tuple[int, ...]], list[tuple[int, ...]]] = field(repr=False, compare=False)

    @cached_property
    def paths(self) -> tuple[tuple[str, ...], ...]:
        """Enumerated on first read only: their number can grow
        exponentially with the node count."""
        return _critical_paths(self)


@dataclass(frozen=True)
class Classification:
    """Final critical/non-critical class per node; ``overrides`` lists the
    nodes whose declared kind changed the computed class."""

    kinds: dict[str, str]
    overrides: tuple[str, ...]


def forward_pass(g: ActivityGraph) -> dict[str, int]:
    """Earliest event times: longest scheduling-path distance from the
    sources (sources start at 0). Node input order is preserved."""
    heads, weights = g.scheduling_view
    earliest = [0] * len(heads)
    for v in g.scheduling_order:
        for w, weight in zip(heads[v], weights[v]):
            candidate = earliest[v] + weight
            if candidate > earliest[w]:
                earliest[w] = candidate
    return dict(zip(g.node_ids, earliest))


def backward_pass(g: ActivityGraph, duration: int) -> dict[str, int]:
    """Latest event times; every sink is seeded with the project duration."""
    heads, weights = g.scheduling_view
    latest = [duration] * len(heads)
    for v in reversed(g.scheduling_order):
        for w, weight in zip(heads[v], weights[v]):
            candidate = latest[w] - weight
            if candidate < latest[v]:
                latest[v] = candidate
    return dict(zip(g.node_ids, latest))


def compute_schedule(g: ActivityGraph) -> Schedule:
    """Critical-path analysis of the scheduling view; one Schedule per graph,
    kept in the graph's ``__dict__`` beside its cached views. The schedule
    holds none of the graph but objects the graph already holds, so the two
    form no reference cycle.

    Raises EmptyGraphError for node-less graphs and CyclicScheduleError when
    the scheduling view is cyclic.
    """
    kept = g.__dict__.get("_schedule")
    if kept is not None:
        return kept
    if not g.node_ids:
        raise EmptyGraphError("cannot schedule a graph with no activities")
    earliest = forward_pass(g)
    duration = max(earliest.values())
    latest = backward_pass(g, duration)
    slack = {v: latest[v] - earliest[v] for v in g.node_ids}
    critical = tuple(v for v in g.node_ids if slack[v] == 0)
    schedule = Schedule(earliest, latest, slack, duration, critical, g.node_ids, g.scheduling_view)
    g.__dict__["_schedule"] = schedule
    return schedule


def _critical_paths(s: Schedule) -> tuple[tuple[str, ...], ...]:
    """Enumerate every source->sink path of zero-slack nodes whose tight
    scheduling edges sum to the duration, depth-first in node input order."""
    ids = s.node_ids
    heads, weights = s.scheduling_view
    early = [s.earliest[v] for v in ids]
    tight = [s.slack[v] == 0 for v in ids]
    has_predecessor = {w for successors in heads for w in successors}
    starts = [v for v in range(len(ids)) if v not in has_predecessor and tight[v]]
    paths: list[tuple[str, ...]] = []
    path: list[int] = []  # path[d]: the node being tried at depth d
    pending = [iter(starts)]  # per depth, the nodes still to try there
    while pending:
        v = next(pending[-1], None)
        del path[len(pending) - 1 :]
        if v is None:
            pending.pop()
            continue
        path.append(v)
        if heads[v]:
            successors = {
                w for w, weight in zip(heads[v], weights[v]) if tight[w] and early[v] + weight == early[w]
            }
            pending.append(iter(sorted(successors)))
        elif early[v] == s.duration:
            paths.append(tuple(ids[u] for u in path))
    return tuple(paths)


def classify_activities(g: ActivityGraph) -> Classification:
    """Zero slack in ``compute_schedule(g)`` classifies a node critical; a
    non-auto declared kind is applied last, and listed as an override when
    it flips the computed class."""
    schedule = compute_schedule(g)
    kinds: dict[str, str] = {}
    overrides: list[str] = []
    for v, declared in zip(g.node_ids, g.node_kinds):
        computed = KIND_CRITICAL if schedule.slack[v] == 0 else KIND_NON_CRITICAL
        if declared != KIND_AUTO and declared != computed:
            kinds[v] = declared
            overrides.append(v)
        else:
            kinds[v] = computed
    return Classification(kinds, tuple(overrides))

"""Critical-path schedule over the acyclic scheduling view.

Event times live on nodes, durations on edges: earliest(v) is the longest
scheduling-path distance from any source, latest(v) the latest event time
that still meets the project duration. Zero slack marks a node critical.
All arithmetic is exact integer arithmetic in the graph's declared unit.
"""

from __future__ import annotations

from dataclasses import field
from functools import cached_property
from itertools import compress
from operator import ne, not_, sub

from .graph import ActivityGraph, KIND_AUTO, KIND_CRITICAL, KIND_NON_CRITICAL, Value, record


class EmptyGraphError(ValueError):
    pass


def _by_id(column: str) -> cached_property:
    """The id-keyed dict of a per-position ``column``, built on first read."""
    return cached_property(lambda self: dict(zip(self.node_ids, getattr(self, column))))


@record
class Schedule(Value):
    """Per node position (node input order): earliest and latest event
    times and slack, whose id-keyed dicts are ``earliest``, ``latest`` and
    ``slack``; the duration, the critical nodes (input order) and every
    critical path (lexicographic by node input position). It keeps the
    graph's node ids and scheduling view, which ``paths`` reads, not the graph."""

    node_earliest: tuple[int, ...]
    node_latest: tuple[int, ...]
    node_slack: tuple[int, ...]
    duration: int
    critical_nodes: tuple[str, ...]
    node_ids: tuple[str, ...] = field(repr=False)
    scheduling_view: tuple[list[tuple[int, ...]], list[tuple[int, ...]]] = field(repr=False, compare=False)
    earliest, latest, slack = _by_id("node_earliest"), _by_id("node_latest"), _by_id("node_slack")

    @cached_property
    def paths(self) -> tuple[tuple[str, ...], ...]:
        """Enumerated on first read only: their number can grow
        exponentially with the node count."""
        return _critical_paths(self)


@record
class Classification(Value):
    """Per node position, the final critical/non-critical class and whether
    the declared kind changed it; ``kinds`` and ``overrides`` by id."""

    node_classes: tuple[str, ...]
    node_overrides: tuple[bool, ...]
    node_ids: tuple[str, ...] = field(repr=False)
    kinds = _by_id("node_classes")

    @cached_property
    def overrides(self) -> tuple[str, ...]:
        return tuple(compress(self.node_ids, self.node_overrides))


def forward_pass(g: ActivityGraph) -> tuple[int, ...]:
    """Earliest event times per node position (node input order): longest
    scheduling-path distance from the sources (sources start at 0)."""
    heads, weights = g.scheduling_view
    earliest = [0] * len(heads)
    for v in g.scheduling_order:
        for w, weight in zip(heads[v], weights[v]):
            candidate = earliest[v] + weight
            if candidate > earliest[w]:
                earliest[w] = candidate
    return tuple(earliest)


def backward_pass(g: ActivityGraph, duration: int) -> tuple[int, ...]:
    """Latest event times per node position; every sink starts at the duration."""
    heads, weights = g.scheduling_view
    latest = [duration] * len(heads)
    for v in reversed(g.scheduling_order):
        for w, weight in zip(heads[v], weights[v]):
            candidate = latest[w] - weight
            if candidate < latest[v]:
                latest[v] = candidate
    return tuple(latest)


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
    duration = max(earliest)
    latest = backward_pass(g, duration)
    slack = tuple(map(sub, latest, earliest))
    critical = tuple(compress(g.node_ids, map(not_, slack)))
    fields = (earliest, latest, slack, duration, critical, g.node_ids, g.scheduling_view)
    schedule = Schedule._made(zip(Schedule.__dataclass_fields__, fields))
    g.__dict__["_schedule"] = schedule
    return schedule


def _critical_paths(s: Schedule) -> tuple[tuple[str, ...], ...]:
    """Enumerate every source->sink path of zero-slack nodes whose tight
    scheduling edges sum to the duration, depth-first in node input order."""
    ids = s.node_ids
    heads, weights = s.scheduling_view
    early = s.node_earliest
    tight = list(map(not_, s.node_slack))
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
    slack = compute_schedule(g).node_slack
    computed = [KIND_NON_CRITICAL if s else KIND_CRITICAL for s in slack]
    classes = tuple(c if d == KIND_AUTO else d for c, d in zip(computed, g.node_kinds))
    fields = (classes, tuple(map(ne, classes, computed)), g.node_ids)
    return Classification._made(zip(Classification.__dataclass_fields__, fields))

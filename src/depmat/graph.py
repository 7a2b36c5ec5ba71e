"""Weighted activity digraph: construction, validation, scheduling view.

Nodes are project activities, directed edges carry exact integer time
weights in a declared unit (default milliseconds). Edge kinds separate the
acyclic scheduling structure consumed by critical-path analysis from
feedback dependencies that participate only in the dependency matrix:

* ``scheduling``       — timed precedence, acyclic as a set wherever a
                         schedule is needed
* ``dependency_only``  — dependency edge excluded from scheduling; may
                         close cycles (feedback)
* ``dummy``            — zero-weight logical precedence, scheduled

A cycle of scheduling and dummy edges does not stop ``build_graph``:
``validate`` reports it as a warning, and only a schedule
(``scheduling_order``, hence CPM and ``localize``'s scheduling view)
raises ``CyclicScheduleError`` for it.

Every input rule is written here once. One gate, ``_checked_graph``,
accepts valid columns a whole column at a time and is the only code that
marks a graph checked: the loader, ``build_graph`` and ``validate`` all go
through it. One walk, ``_item_faults``, names each fault of columns that
fail it, both as the loader reports it and as ``validate`` lists it.

One Tarjan pass over node positions (``condensation``) answers every
order and component question about a view, and one sweep of its
``Condensation`` (``pull`` or ``push``) every reachability question. A
graph condenses each view at most once and keeps every derived fact; a
dependency matrix built from it reads that condensation, not its own.

Node order and edge order are significant: they fix matrix row/column
order everywhere downstream.
"""

from __future__ import annotations

import re
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from operator import attrgetter, eq, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

ID_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*\Z")
# a lone surrogate decodes from a JSON escape but has no UTF-8 encoding
LONE_SURROGATE = re.compile(r"[\ud800-\udfff]")

KIND_AUTO = "auto"
KIND_CRITICAL = "critical"
KIND_NON_CRITICAL = "non_critical"
NODE_KINDS = frozenset({KIND_AUTO, KIND_CRITICAL, KIND_NON_CRITICAL})

EDGE_SCHEDULING = "scheduling"
EDGE_DEPENDENCY_ONLY = "dependency_only"
EDGE_DUMMY = "dummy"
EDGE_KINDS = frozenset({EDGE_SCHEDULING, EDGE_DEPENDENCY_ONLY, EDGE_DUMMY})
SCHEDULING_KINDS = frozenset({EDGE_SCHEDULING, EDGE_DUMMY})

# Largest edge weight any graph may carry, built or parsed.
MAX_WEIGHT = 2**64

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

MISSING = object()  # the value of a required field that a graph document leaves out


@dataclass(frozen=True)
class ValidationIssue:
    severity: str
    code: str
    message: str
    ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def errors(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity == SEVERITY_ERROR)

    @property
    def warnings(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity == SEVERITY_WARNING)


class GraphBuildError(ValueError):
    """Graph construction rejected; carries every error-severity issue, the
    ``nodes[i]``, ``edges[i]`` or ``unit`` locus of each, and ``more``:
    `` (+N more)`` after the first of several issues, or empty."""

    def __init__(self, issues: Iterable[ValidationIssue], loci: Iterable[str] = ()):
        self.issues = tuple(issues)
        self.loci = tuple(loci)
        self.more = f" (+{len(self.issues) - 1} more)" if len(self.issues) > 1 else ""
        first = self.issues[0]
        super().__init__(f"{first.code}: {first.message}{self.more}")


class CyclicScheduleError(ValueError):
    """The scheduling view contains a cycle; carries one witness cycle."""

    def __init__(self, cycle: Sequence[str]):
        self.cycle = tuple(cycle)
        super().__init__("scheduling cycle: " + "->".join(self.cycle))


class UnknownNodeError(ValueError):
    def __init__(self, node: str):
        self.node = node
        super().__init__(f"unknown node: {shown(node)}")


def shown(value) -> str:
    """``value`` as text, or its ``repr`` when some of it is not printable,
    so that a line break in an id or key cannot split a message line."""
    text = str(value)
    return text if text.isprintable() else repr(text)


@dataclass(frozen=True)
class Activity:
    """A unit of project work. ``declared_kind`` overrides the computed
    critical/non-critical classification but never the schedule itself."""

    id: str
    label: str | None = None
    declared_kind: str = KIND_AUTO


@dataclass(frozen=True)
class ActivityEdge:
    """Directed edge ``tail -> head``: tail depends on head, and in the
    scheduling view tail precedes head by ``weight`` time units."""

    id: str
    tail: str
    head: str
    weight: int
    kind: str = EDGE_SCHEDULING


class Value:
    """A frozen dataclass whose state is its fields, made unchecked by ``_made``:
    a pickle or deep copy carries only them, and a shallow copy shares every fact."""

    @classmethod
    def _made(cls, pairs=(), /, **fields):
        value = cls.__new__(cls)
        value.__dict__.update(pairs, **fields)
        return value

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def __copy__(self):
        return self._made(self.__dict__)


class NodePositions:
    """``position``: a node id's position in ``node_ids``."""

    @cached_property
    def _positions(self) -> dict[str, int]:
        return dict(zip(self.node_ids, range(len(self.node_ids))))

    def position(self, node: str) -> int:
        try:
            return self._positions[node]
        except KeyError:
            raise UnknownNodeError(node) from None


@dataclass(frozen=True, init=False)
class ActivityGraph(Value, NodePositions):
    """Immutable activity digraph; safe to share across threads. Passes
    walk only its integer views; ``position`` maps an id to its position.

    Its fields are position columns, each a tuple (the declared
    ``node_kinds``; ``edge_tails`` and ``edge_heads`` as node positions),
    and ``unit``; its ``activities`` and ``edges`` records are a view built
    on first read. Records become a graph only through ``build_graph``."""

    node_ids: tuple[str, ...]
    node_labels: tuple[str | None, ...]
    node_kinds: tuple[str, ...]
    edge_ids: tuple[str, ...]
    edge_tails: tuple[int, ...]
    edge_heads: tuple[int, ...]
    edge_weights: tuple[int, ...]
    edge_kinds: tuple[str, ...]
    unit: str

    @classmethod
    def from_columns(cls, nodes: Sequence[Sequence], edges: Sequence[Sequence], unit: str = "ms") -> ActivityGraph:
        """The graph of node columns (ids, labels, declared kinds) and edge
        columns (ids, tail and head positions, weights, kinds), unchecked."""
        return cls._made(zip(cls.__dataclass_fields__, (*map(tuple, (*nodes, *edges)), unit)))

    @cached_property
    def activities(self) -> tuple[Activity, ...]:
        return tuple(map(Activity, self.node_ids, self.node_labels, self.node_kinds))

    @cached_property
    def edges(self) -> tuple[ActivityEdge, ...]:
        ids = self.node_ids
        columns = zip(self.edge_ids, self.edge_tails, self.edge_heads, self.edge_weights, self.edge_kinds)
        return tuple(ActivityEdge(e, ids[t], ids[h], w, k) for e, t, h, w, k in columns)

    @cached_property
    def dependency_view(self) -> list[tuple[int, ...]]:
        """Per node position, the head positions of its edges of every kind,
        in edge order."""
        heads: list[list[int]] = [[] for _ in self.node_ids]
        for tail, head in zip(self.edge_tails, self.edge_heads):
            heads[tail].append(head)
        # kept as long as the graph: exact-size tuples, all empty ones ``()``
        return [tuple(h) for h in heads]

    @cached_property
    def scheduling_view(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """Per node position, the head positions and, in a parallel list,
        the weights of its scheduling and dummy edges, in edge order."""
        heads: list[list[int]] = [[] for _ in self.node_ids]
        weights: list[list[int]] = [[] for _ in self.node_ids]
        edges = zip(self.edge_tails, self.edge_heads, self.edge_weights)
        for tail, head, weight in compress(edges, map(SCHEDULING_KINDS.__contains__, self.edge_kinds)):
            heads[tail].append(head)
            weights[tail].append(weight)
        return [tuple(h) for h in heads], [tuple(w) for w in weights]

    @property
    def scheduling_order(self) -> tuple[int, ...]:
        """Node positions in a topological order of the scheduling view,
        each before its successors: the order of its condensation. When a
        component is cyclic (two or more members, or one with an edge to
        itself), raises CyclicScheduleError with the shortest cycle through
        the first member of the lowest such one."""
        order, cycle = self._scheduling_outcome
        if cycle:
            raise CyclicScheduleError(cycle)
        return order

    @cached_property
    def _scheduling_outcome(self) -> tuple[tuple[int, ...], tuple[str, ...]]:
        # (order, ()) or ((), cycle), kept either way: a raised error is not cached
        cond = self.scheduling_condensation
        heads = cond.succ
        for comp in cond.components:
            if len(comp) > 1 or comp[0] in heads[comp[0]]:
                cycle = shortest_cycle_through(comp[0], set(comp), heads)
                return (), tuple(self.node_ids[v] for v in cycle)
        # acyclic: component c is the one node at position c
        return tuple(cond.order), ()

    @cached_property
    def dependency_condensation(self) -> Condensation:
        """``condensation(self.dependency_view)``, computed once per graph."""
        return condensation(self.dependency_view)

    @cached_property
    def scheduling_condensation(self) -> Condensation:
        """``condensation(self.scheduling_view[0])``, computed once per graph."""
        return condensation(self.scheduling_view[0])


def build_graph(activities: Iterable[Activity], edges: Iterable[ActivityEdge], unit: str = "ms") -> ActivityGraph:
    """The graph of the records, kept as its ``activities`` and ``edges``
    view (order preserved); raises GraphBuildError on any structural error
    and on any label or unit that a graph file cannot carry. The graph
    holds that it has none, so ``validate`` does not look again."""
    activities, edges = tuple(activities), tuple(edges)
    nodes = [tuple(map(attrgetter(name), activities)) for name in ("id", "label", "declared_kind")]
    columns = [tuple(map(attrgetter(name), edges)) for name in ("id", "tail", "head", "weight", "kind")]
    graph, errors, loci = _verdict(nodes, columns, unit)
    if graph is None:
        raise GraphBuildError(errors, loci)
    graph.__dict__.update(activities=activities, edges=edges)
    return graph


def _checked_graph(nodes: Sequence[Sequence], edges: Sequence[Sequence], unit) -> ActivityGraph | None:
    """The graph of node columns (ids, labels, kinds) and edge columns (ids,
    tail and head ids, weights, kinds), holding that it is checked, when
    they and ``unit`` break no input rule and repeat no id; else None. Each
    check is made over a whole column. No other code marks a graph checked."""
    (node_ids, labels, node_kinds), (edge_ids, tails, heads, weights, edge_kinds) = nodes, edges
    with suppress(TypeError):  # an unhashable value, or a non-string where a string belongs
        position = dict(zip(node_ids, range(len(node_ids))))
        tails, heads = (tuple(map(position.get, ends)) for ends in (tails, heads))  # None: undeclared
        if (
            not _unit_faults(unit)
            and all(map(ID_PATTERN.match, chain(node_ids, edge_ids)))  # TypeError on a non-string
            and len(position) == len(node_ids) and len(set(edge_ids)) == len(edge_ids)
            and {str, type(None)}.issuperset(map(type, labels))
            and not LONE_SURROGATE.search("".join(filter(None, labels)))
            and NODE_KINDS.issuperset(node_kinds)
            and None not in tails and None not in heads  # an undeclared or non-string endpoint
            and not any(map(eq, tails, heads))
            and {int}.issuperset(map(type, weights))  # no bool, no float
            and 0 <= min(weights, default=0) and max(weights, default=0) <= MAX_WEIGHT
            and EDGE_KINDS.issuperset(edge_kinds)
            and not any(compress(weights, map(EDGE_DUMMY.__eq__, edge_kinds)))
        ):
            graph = ActivityGraph.from_columns(nodes, (edge_ids, tails, heads, weights, edge_kinds), unit)
            graph.__dict__["_checked"] = True  # not ``_positions``: only a lookup by id needs it
            return graph
    return None


def _verdict(nodes: Sequence[Sequence], edges: Sequence[Sequence], unit) -> tuple[ActivityGraph | None, list, list]:
    """``_checked_graph`` of the columns, or None, then every error it has
    and, in a parallel list, the item each is on (``nodes[i]``, ``edges[i]``
    or ``unit``). Columns that pass the gate are not walked item by item."""
    graph = _checked_graph(nodes, edges, unit)
    if graph is not None:
        return graph, [], []
    issues = _unit_faults(unit)
    found = [(issue, f"{array}[{i}]") for array, i, _, _, issue in _item_faults(zip(*nodes), zip(*edges)) if issue]
    return None, issues + [issue for issue, _ in found], ["unit"] * len(issues) + [locus for _, locus in found]


def _item_faults(nodes: Iterable[Sequence], edges: Iterable[Sequence]) -> Iterator[tuple]:
    """Per rule that an item breaks, in document order: the item's array and
    index, then the ``_node_faults`` tuple. ``nodes`` and ``edges`` yield each
    item's field values in file order, ``edges`` read only once every node is
    walked. A duplicate id comes first, at its later copy."""
    declared: set[str] = set()
    for array, noun, items in ("nodes", "activity", nodes), ("edges", "edge", edges):
        first: dict = {}  # each valid id's first position
        for i, (item_id, *rest) in enumerate(items):
            faults = list(_id_faults(item_id, noun))
            if not any(issue for *_, issue in faults) and first.setdefault(item_id, i) != i:
                faults.insert(0, ("", None, _error("duplicate-id", f"duplicate {noun} id: {item_id}", item_id)))
            rules = _edge_faults(item_id, *rest, declared) if array == "edges" else _node_faults(item_id, *rest)
            yield from ((array, i, *fault) for fault in chain(faults, rules))
            if array == "nodes" and isinstance(item_id, str):
                declared.add(item_id)


def _error(code: str, message: str, *ids) -> ValidationIssue:
    return ValidationIssue(SEVERITY_ERROR, code, message, ids)


def _unit_faults(unit) -> list[ValidationIssue]:
    """The fault of a unit that a graph file cannot carry, if any."""
    if not isinstance(unit, str) or not unit:
        return [_error("invalid-unit", "unit must be a non-empty string")]
    if LONE_SURROGATE.search(unit):
        return [_error("invalid-unit", "unit must not contain a lone surrogate")]
    return []


def _node_faults(node_id, label, kind) -> Iterator[tuple]:
    """Per rule that a node's label or kind breaks, in the loader's order: its
    locus suffix, the loader's message template (which only the loader formats,
    with the item's fields) or None, and the ValidationIssue or None. A field
    that a document leaves out is MISSING. ``_id_faults`` checks the id."""
    if not isinstance(label, (str, type(None))) or label and LONE_SURROGATE.search(label):
        fault = "label must " + ("be a string" if not isinstance(label, str) else "not contain a lone surrogate")
        yield ".label", fault, _error("invalid-label", f"activity {_named(node_id)}: {fault}", node_id)
    if not isinstance(kind, str) or kind not in NODE_KINDS:
        message = f"activity {_named(node_id)}: unknown kind {_named(kind, repr)}"
        yield ".kind", "unknown node kind {kind!r}", _error("invalid-kind", message, node_id)


def _edge_faults(edge_id, tail, head, weight, kind, declared) -> Iterator[tuple]:
    """``_node_faults`` for an edge, its endpoints among ``declared`` ids."""
    if kind == EDGE_DUMMY and type(weight) is not bool and isinstance(weight, int) and 0 < weight <= MAX_WEIGHT:
        message = f"dummy edge {_named(edge_id)} has non-zero weight {weight}"
        yield "", None, _error("dummy-nonzero", message, edge_id)
    for field, end in ("from", tail), ("to", head):
        if end is MISSING:
            yield "", f"missing required field {field!r}", None
    for field, end in ("from", tail), ("to", head):
        if end is not MISSING and (not isinstance(end, str) or end not in declared):
            message = f"edge {_named(edge_id)}: unknown node {_named(end, repr)}"
            issue = _error("unknown-endpoint", message, edge_id, _named(end, str))
            yield f".{field}", None if isinstance(end, str) else f"{field} must be a string", issue
    if weight is MISSING:
        yield "", "missing required field 'weight'", None
    elif isinstance(weight, bool) or not isinstance(weight, int):
        issue = _error("invalid-weight", f"edge {_named(edge_id)}: weight must be an integer", edge_id)
        yield ".weight", "edge {id!r}: weight must be an integer number of time units", issue
    elif weight < 0:  # no message formats an unbounded weight
        issue = _error("negative-weight", f"edge {_named(edge_id)}: weight is negative", edge_id)
        yield ".weight", "edge {id!r}: weight must be non-negative", issue
    elif weight > MAX_WEIGHT:
        issue = _error("weight-too-large", f"edge {_named(edge_id)}: weight is above 2**64", edge_id)
        yield ".weight", "edge {id!r}: weight must be at most 2**64", issue
    if not isinstance(kind, str) or kind not in EDGE_KINDS:
        message = f"edge {_named(edge_id)}: unknown kind {_named(kind, repr)}"
        yield ".kind", "unknown edge kind {kind!r}", _error("invalid-kind", message, edge_id)
    if tail == head:
        yield "", None, _error("self-loop", f"edge {_named(edge_id)}: self-loop on {_named(tail)}", edge_id)


def _id_faults(item_id, noun: str) -> Iterator[tuple]:
    if item_id is MISSING:
        yield "", "missing required field 'id'", None
    elif not isinstance(item_id, str) or not ID_PATTERN.match(item_id):
        message = f"{noun} id {_named(item_id, repr)} is not a valid token"
        issue = _error("invalid-id", message, _named(item_id, str))
        yield ".id", None if isinstance(item_id, str) else "id must be a string", issue


def _named(value, form=shown) -> str:
    """``form(value)`` for a str; any other value, which may have no text
    form at all (an int past the digit limit), by its type's name, and a
    ``_NoPosition`` by its entry's."""
    if isinstance(value, str):
        return form(value)
    return f"<{type(value.entry if isinstance(value, _NoPosition) else value).__name__}>"


class _NoPosition:
    """A tail or head entry of a graph that is no node position, where
    ``validate`` walks an endpoint id: equal only to itself, so it is an
    unknown endpoint and never taken for a node id."""

    __slots__ = ("entry",)

    def __init__(self, entry):
        self.entry = entry


def validate(g: ActivityGraph) -> ValidationReport:
    """Every structural error of the graph's columns or, when there is
    none, every advisory warning (never raises). A graph from
    ``build_graph`` or ``parse_graph`` holds that it has none; any other
    passes through ``_checked_graph`` and builds no record. A tail or head
    that is not an int (bool excluded) in ``range(len(g.node_ids))`` is an
    unknown endpoint of its edge."""
    errors = []
    if not g.__dict__.get("_checked"):
        ids, n = g.node_ids, len(g.node_ids)
        ends = (
            [ids[v] if type(v) is not bool and isinstance(v, int) and 0 <= v < n else _NoPosition(v) for v in column]
            for column in (g.edge_tails, g.edge_heads)
        )
        edges = (g.edge_ids, *ends, g.edge_weights, g.edge_kinds)
        errors = _verdict((g.node_ids, g.node_labels, g.node_kinds), edges, g.unit)[1]
    return ValidationReport(tuple(errors) if errors else tuple(_warnings(g)))


def _warnings(g: ActivityGraph) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []

    def warn(code: str, message: str, *ids: str) -> None:
        issues.append(ValidationIssue(SEVERITY_WARNING, code, message, tuple(ids)))

    ids = g.node_ids
    succ_all = g.dependency_view
    succ_sched = g.scheduling_view[0]
    touched = {w for heads in succ_all for w in heads}
    for i, (v, heads) in enumerate(zip(ids, succ_all)):
        if not heads and i not in touched:
            warn("isolated-node", f"isolated node: {v}", v)

    has_predecessor = {w for heads in succ_sched for w in heads}
    sources = [v for i, v in enumerate(ids) if i not in has_predecessor]
    sinks = [v for v, heads in zip(ids, succ_sched) if not heads]
    if len(sources) > 1:
        warn("multiple-sources", "multiple sources in scheduling view: " + ", ".join(sources), *sources)
    if len(sinks) > 1:
        warn("multiple-sinks", "multiple sinks in scheduling view: " + ", ".join(sinks), *sinks)

    # every scheduling cycle lies inside one dependency component
    on_sched_cycle = {v for sub in g.scheduling_condensation.components if len(sub) >= 2 for v in sub}
    for comp in g.dependency_condensation.components:
        if len(comp) < 2:
            continue
        members = set(comp)
        start = next((v for v in comp if v in on_sched_cycle), None)
        if start is not None:
            cycle = shortest_cycle_through(start, members, succ_sched)
            kind = "scheduling"
        else:
            cycle = shortest_cycle_through(comp[0], members, succ_all)
            kind = "dependency-only"
        warn(f"{kind}-cycle", f"{kind} cycle: " + "->".join(ids[v] for v in cycle), *(ids[v] for v in comp))
    return issues


def scheduling_subgraph(g: ActivityGraph) -> ActivityGraph:
    """Project onto scheduling and dummy edges; all nodes kept.

    Raises CyclicScheduleError (with one witness cycle) when the projected
    edge set is cyclic.
    """
    g.scheduling_order  # raises CyclicScheduleError with the witness
    kept = list(map(SCHEDULING_KINDS.__contains__, g.edge_kinds))
    edges = (g.edge_ids, g.edge_tails, g.edge_heads, g.edge_weights, g.edge_kinds)
    return ActivityGraph.from_columns(
        (g.node_ids, g.node_labels, g.node_kinds), [compress(column, kept) for column in edges], g.unit
    )


def strongly_connected_components(ids: Sequence, succ) -> list[list]:
    """Strongly connected components of the successors ``succ[v]`` of each
    ``v`` in ``ids``: components sorted by the input position of their first
    member, members in input order."""
    position = {v: i for i, v in enumerate(ids)}
    heads = [[position[w] for w in succ[v]] for v in ids]
    return [[ids[i] for i in comp] for comp in condensation(heads).components]


class Condensation(NamedTuple):
    """Strongly connected components over node positions, numbered by their
    lowest member (members ascending), with ``component_of[v]`` the number
    of ``v``'s, and ``order``, each component after all its predecessors:
    Tarjan's emission order, reversed. ``pull`` and ``push`` answer every
    reachability question over ``succ``, the very view it condensed, with
    one sweep of ``order`` along the members' own edges, O(n + m) ORs: the
    members of a component share one result; an edge inside changes nothing."""

    components: list[list[int]]
    component_of: list[int]
    order: list[int]
    succ: Sequence[Sequence[int]]

    def pull(self, seeds: Sequence[int]) -> list[int]:
        """Per position, the OR of the ``seeds`` of every position it
        reaches, itself included."""
        comp_of, succ = self.component_of, self.succ
        reached = [0] * len(self.components)
        for c in reversed(self.order):
            mask = 0
            for v in self.components[c]:
                mask |= seeds[v]
                for w in succ[v]:
                    mask |= reached[comp_of[w]]
            reached[c] = mask
        return [reached[c] for c in comp_of]

    def push(self, sources: Sequence[int]) -> list[int]:
        """Per position, the bitmask of the ``sources`` that reach it, bit
        ``i`` for ``sources[i]``."""
        comp_of, succ = self.component_of, self.succ
        reached = [0] * len(self.components)
        for bit, s in enumerate(sources):
            reached[comp_of[s]] |= 1 << bit
        for c in self.order:
            mask = reached[c]
            for v in self.components[c]:
                for w in succ[v]:
                    reached[comp_of[w]] |= mask
        return [reached[c] for c in comp_of]


def condensation(succ: Sequence[Sequence[int]]) -> Condensation:
    """Condensation of ``succ`` from one Tarjan pass; O(n + m)."""
    emitted = _tarjan(succ)
    n = len(succ)
    if len(emitted) == n:  # every component one node: component v is node v
        components, comp_of = [[v] for v in range(n)], list(range(n))
    else:
        components = sorted(emitted, key=itemgetter(0))  # members ascend, so by lowest member
        comp_of = [0] * n
        for c, comp in enumerate(components):
            for v in comp:
                comp_of[v] = c
    order = [comp_of[comp[0]] for comp in reversed(emitted)]
    return Condensation(components, comp_of, order, succ)


def _tarjan(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative, over positions ``0..len(succ)-1``:
    components in emission order, each after every component it reaches;
    members ascending.

    ``low`` doubles as the visited and on-stack test: -1 until a node is
    reached, and once a component is emitted its members' lowlinks are
    raised past every DFS index, so an edge into an emitted component never
    lowers a lowlink.
    """
    low = [-1] * len(succ)
    emitted = len(succ)  # above every DFS index
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(len(succ)):
        if low[root] >= 0:
            continue
        low[root] = counter
        stack.append(root)
        work: list[tuple[int, Iterator[int], int]] = [(root, iter(succ[root]), counter)]
        counter += 1
        while work:
            v, children, index = work[-1]
            for w in children:
                if low[w] < 0:
                    low[w] = counter
                    stack.append(w)
                    work.append((w, iter(succ[w]), counter))
                    counter += 1
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                work.pop()
                if low[v] != index:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    continue
                if stack[-1] == v:
                    stack.pop()
                    low[v] = emitted
                    components.append([v])
                    continue
                start = len(stack) - 1
                while stack[start] != v:
                    start -= 1
                component = stack[start:]
                del stack[start:]
                for w in component:
                    low[w] = emitted
                component.sort()
                components.append(component)
    return components


def shortest_cycle_through(start, members: set, succ) -> tuple:
    """Shortest directed cycle through `start` inside `members`, found by
    BFS. The caller guarantees such a cycle exists. Returned as a node
    sequence whose first and last entries are `start`."""
    parent: dict = {}
    dist = {start: 0}
    queue = deque([start])
    best = None
    while queue:
        v = queue.popleft()
        if best is not None and dist[v] >= dist[best]:
            break
        for w in succ[v]:
            if w == start:
                if best is None or dist[v] < dist[best]:
                    best = v
            elif w in members and w not in dist:
                dist[w] = dist[v] + 1
                parent[w] = v
                queue.append(w)
    assert best is not None, "no cycle through start"
    path = [best]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    return tuple(path + [start])

"""Back-tracking fault localization over the dependency relation.

A symptom at node s is explained by anything s transitively depends on,
i.e. everything reachable from s along dependency edges (edge m -> n reads
"m depends on n", so walking from effect toward cause follows edges
forward). Candidates are ranked in one fixed order, ``RANK_KEYS``: most
explained symptoms first, then critical before non-critical, then nearest
to a symptom, then input order. Symptoms whose fault cannot have
propagated from or to anything else are flagged independent: such faults
sit on the matrix diagonal.

``localize`` works on the adjacency lists, never on a dense matrix:
the view's condensation, which the graph keeps for either view, gives the
component ids and, by one ``push`` of the symptoms, each node's explained
symptoms as a bitmask; one multi-source BFS gives the hop distances, and
candidates are ranked as positions. The report keeps its candidates as
columns in rank order, masks included, so it runs in O(n + m) set
operations on the masks; the ``explains`` tuples (one per distinct mask)
and the ``Candidate`` records are built only when read.
``candidate_set`` and ``independent_faults`` answer the same questions
from an explicit closure matrix; ``independent_faults`` reads each
symptom row once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .graph import ActivityGraph, CyclicScheduleError, KIND_CRITICAL, Value
from .matrices import (
    AlreadyClosedError,
    DependencyMatrix,
    DimensionMismatchError,
    NotClosedError,
    unpack_mask,
)
from .schedule import classify_activities

VIEW_ALL = "all_edges"
VIEW_SCHEDULING = "scheduling_only"
VIEWS = frozenset({VIEW_ALL, VIEW_SCHEDULING})

# The candidate order, most significant key first; input order is total,
# so no ties survive.
RANK_KEYS = ("explains", "critical", "distance", "input_order")


@dataclass(frozen=True)
class Candidate:
    node: str
    explains: tuple[str, ...]
    is_critical: bool
    min_distance: int
    scc: int


@dataclass(frozen=True)
class LocalizationReport(Value):
    """The candidates are columns in rank order: ``ranked`` their node
    positions, ``masks`` their explained symptoms (bit i for
    ``symptoms[i]``), then ``critical``, ``distances`` and ``sccs``; the
    ``explains`` and ``candidates`` views are built on first read."""

    symptoms: tuple[str, ...]
    ranked: tuple[int, ...]
    masks: tuple[int, ...]
    critical: tuple[bool, ...]
    distances: tuple[int, ...]
    sccs: tuple[int, ...]
    independent: tuple[str, ...]
    nodes_examined: int
    view: str
    node_ids: tuple[str, ...]

    @cached_property
    def explains(self) -> tuple[tuple[str, ...], ...]:
        """Per candidate, the symptoms it explains: one tuple per distinct
        mask, shared by every candidate with that mask."""
        explained = {mask: tuple(compress(self.symptoms, unpack_mask(mask))) for mask in set(self.masks)}
        return tuple(map(explained.__getitem__, self.masks))

    @cached_property
    def candidates(self) -> tuple[Candidate, ...]:
        nodes = map(self.node_ids.__getitem__, self.ranked)
        return tuple(map(Candidate, nodes, self.explains, self.critical, self.distances, self.sccs))


@dataclass(frozen=True)
class AnnotatedMatrix:
    """Raw dependency matrix plus localization marks: independent faults on
    the diagonal, direct symptom->candidate edges as suspect paths."""

    matrix: DependencyMatrix
    independent_marks: tuple[str, ...]
    suspect_cells: tuple[tuple[str, str], ...]


def candidate_set(closure: DependencyMatrix, symptom: str) -> set[str]:
    """The symptom plus everything it transitively depends on."""
    if not closure.closed:
        raise NotClosedError("candidate_set requires a transitive closure")
    row = closure.masks[closure.position(symptom)]
    out = set(compress(closure.node_ids, unpack_mask(row)))
    out.add(symptom)
    return out


def independent_faults(closure: DependencyMatrix, symptoms: tuple[str, ...] | list[str]) -> set[str]:
    """Symptoms that are their own sole explanation.

    A symptom s is independent iff its candidate set is exactly {s} (s
    depends on nothing, so its fault cannot have propagated in) and no
    other symptom's candidate set contains s (s cannot explain anyone
    else's fault). Shared explanations disqualify both sides.
    """
    if not closure.closed:
        raise NotClosedError("independent_faults requires a transitive closure")
    ordered, positions = _symptom_positions(closure, symptoms)
    once = twice = 0  # nodes in at least one, in at least two symptom rows
    for i in positions:
        row = closure.masks[i]
        twice |= once & row
        once |= row
    independent: set[str] = set()
    for s, i in zip(ordered, positions):
        row, bit = closure.masks[i], 1 << i
        # s's row may hold only s itself (a self-loop), and then s is in
        # another symptom's row iff it is in two rows
        if not row & ~bit and not (twice if row else once) & bit:
            independent.add(s)
    return independent


def _symptom_positions(owner, symptoms) -> tuple[tuple[str, ...], list[int]]:
    """The symptoms and their positions by ``owner.position``; the first
    unknown (UnknownNodeError) or repeated (ValueError) symptom raises."""
    ordered = tuple(symptoms)
    if not ordered:
        raise ValueError("symptom set must be non-empty")
    positions: list[int] = []
    seen: set[int] = set()
    for s in ordered:
        v = owner.position(s)
        if v in seen:
            raise ValueError(f"duplicate symptom: {s}")
        seen.add(v)
        positions.append(v)
    return ordered, positions


def _hops_from_nearest(succ: list[tuple[int, ...]], sources: list[int]) -> dict[int, int]:
    """Multi-source BFS: each reachable node's hop count from the nearest
    source."""
    dist = dict.fromkeys(sources, 0)
    queue = deque(sources)
    while queue:
        v = queue.popleft()
        for w in succ[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def localize(g: ActivityGraph, symptoms, view: str = VIEW_ALL) -> LocalizationReport:
    """Rank root-cause candidates for the observed symptoms.

    The dependency relation comes from all edges or from the scheduling
    subgraph per ``view``. Criticality is always computed on the scheduling
    view; when that view is cyclic and ``view`` is ``all_edges``, declared
    kinds are used instead (with ``scheduling_only`` the cycle is a hard
    error). The schedule and the view's condensation are the graph's own.
    ``nodes_examined`` counts the nodes that are candidates or critical,
    each once: the critical nodes plus every node a symptom transitively
    depends on.

    A candidate's ``min_distance`` is its hop count from the nearest
    symptom that explains it. Only explaining symptoms have a path to it,
    so this is its distance in one BFS started from all symptoms at once.
    """
    if view not in VIEWS:
        raise ValueError(f"unknown view: {view!r}")
    ordered, sources = _symptom_positions(g, symptoms)

    cond = g.dependency_condensation if view == VIEW_ALL else g.scheduling_condensation

    try:
        critical = [kind == KIND_CRITICAL for kind in classify_activities(g).node_classes]
    except CyclicScheduleError:
        if view == VIEW_SCHEDULING:
            raise
        critical = [kind == KIND_CRITICAL for kind in g.node_kinds]

    masks = cond.push(sources)
    hops = _hops_from_nearest(cond.succ, sources)
    ranked = tuple(sorted(  # by RANK_KEYS, which cli prints as the policy
        (v for v, mask in enumerate(masks) if mask),
        key=lambda v: (-masks[v].bit_count(), not critical[v], hops[v], v),
    ))
    independent = tuple(  # a self-loop on s still leaves its candidate set {s}
        s for bit, (s, v) in enumerate(zip(ordered, sources))
        if masks[v] == 1 << bit and all(w == v for w in cond.succ[v])
    )
    examined = sum(1 for v, mask in enumerate(masks) if mask or critical[v])
    return LocalizationReport(
        symptoms=ordered,
        ranked=ranked,
        masks=tuple(map(masks.__getitem__, ranked)),
        critical=tuple(map(critical.__getitem__, ranked)),
        distances=tuple(map(hops.__getitem__, ranked)),
        sccs=tuple(map(cond.component_of.__getitem__, ranked)),
        independent=independent,
        nodes_examined=examined,
        view=view,
        node_ids=g.node_ids,
    )


def annotate_matrix(d: DependencyMatrix, report: LocalizationReport) -> AnnotatedMatrix:
    """Mark the raw matrix with the report's findings: independent symptoms
    on the diagonal, each symptom's direct edge to a candidate (always a
    shortest symptom-to-candidate path) as a suspect cell."""
    if d.closed:
        raise AlreadyClosedError("annotation expects the raw matrix, not a closure")
    if d.node_ids != report.node_ids:
        raise DimensionMismatchError(
            "matrix nodes do not match the report's graph: "
            f"{len(d.node_ids)} vs {len(report.node_ids)}"
        )
    candidate_nodes = {report.node_ids[v] for v in report.ranked}
    suspects: list[tuple[str, str]] = []
    for s in report.symptoms:
        row = d.masks[d.position(s)]
        for head in compress(d.node_ids, unpack_mask(row)):
            if head in candidate_nodes:
                suspects.append((s, head))
    return AnnotatedMatrix(
        matrix=d,
        independent_marks=report.independent,
        suspect_cells=tuple(suspects),
    )

"""Matrix views of an activity graph and the reachability machinery.

Three dense views share the graph's node/edge order:

* incidence   — node x edge, each edge's weight at its tail row
* adjacency   — node x node, max edge weight per ordered pair
* dependency  — node x node boolean support of all edges, plus its
                transitive closure (Warshall) whose diagonal marks cycle
                membership

Dense representation is capped at MAX_DENSE_NODES nodes; bigger inputs
are rejected rather than silently thrashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graph import ActivityGraph, UnknownNodeError, strongly_connected_components

MAX_DENSE_NODES = 4096


class CapacityError(ValueError):
    pass


class AlreadyClosedError(ValueError):
    pass


class NotClosedError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class IncidenceMatrix:
    node_ids: tuple[str, ...]
    edge_ids: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AdjacencyMatrix:
    node_ids: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DependencyMatrix:
    """Boolean node x node matrix; entry (m, n) = 1 iff m depends on n.

    ``closed=False`` is the raw single-edge support (all-zero diagonal).
    ``closed=True`` marks a transitive closure: entry (m, n) = 1 iff a
    directed path of length >= 1 runs from m to n, so a diagonal 1 means
    the node lies on a cycle.
    """

    node_ids: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    closed: bool = False

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.node_ids)}

    def position(self, node: str) -> int:
        try:
            return self._positions[node]
        except KeyError:
            raise UnknownNodeError(node) from None

    def entry(self, tail: str, head: str) -> int:
        return self.rows[self.position(tail)][self.position(head)]


@dataclass(frozen=True)
class CondensedGraph:
    """Strongly connected components and the acyclic component digraph.

    Components are ordered by the input position of their first member;
    ``edges`` holds deduplicated (tail component, head component) index
    pairs.
    """

    components: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def component_of(self) -> dict[str, int]:
        return {v: i for i, comp in enumerate(self.components) for v in comp}


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def unpack_mask(mask: int) -> bytes:
    """Bits of a non-negative int, least significant first, one byte (0 or
    1) per bit; ``max(1, mask.bit_length())`` bytes long. Goes through
    ``bin`` so the work stays in C rather than a shift per bit."""
    return bin(mask)[:1:-1].encode("ascii").translate(_BIT_BYTES)


def _check_capacity(count: int) -> None:
    if count > MAX_DENSE_NODES:
        raise CapacityError(
            f"graph has {count} nodes; dense matrices are capped at {MAX_DENSE_NODES}"
        )


def incidence_matrix(g: ActivityGraph) -> IncidenceMatrix:
    """Node x edge matrix with each edge's weight in its tail row; every
    other entry in the column is zero."""
    _check_capacity(len(g.activities))
    edge_ids = tuple(e.id for e in g.edges)
    rows = tuple(
        tuple(e.weight if e.tail == a.id else 0 for e in g.edges)
        for a in g.activities
    )
    return IncidenceMatrix(g.node_ids, edge_ids, rows)


def adjacency_matrix(g: ActivityGraph) -> AdjacencyMatrix:
    """Square weight matrix; parallel edges collapse to their max weight
    (longest-path semantics). Includes dependency-only edges."""
    _check_capacity(len(g.activities))
    n = len(g.activities)
    pos = {a.id: i for i, a in enumerate(g.activities)}
    grid = [[0] * n for _ in range(n)]
    for e in g.edges:
        i, j = pos[e.tail], pos[e.head]
        if e.weight > grid[i][j]:
            grid[i][j] = e.weight
    return AdjacencyMatrix(g.node_ids, tuple(tuple(r) for r in grid))


def dependency_matrix(g: ActivityGraph) -> DependencyMatrix:
    """Boolean support of all edges, any kind; diagonal is all zero."""
    _check_capacity(len(g.activities))
    n = len(g.activities)
    pos = {a.id: i for i, a in enumerate(g.activities)}
    grid = [[0] * n for _ in range(n)]
    for e in g.edges:
        grid[pos[e.tail]][pos[e.head]] = 1
    return DependencyMatrix(g.node_ids, tuple(tuple(r) for r in grid), closed=False)


def transitive_closure(d: DependencyMatrix) -> DependencyMatrix:
    """Warshall's boolean closure over paths of length >= 1.

    Rows are packed into int bitmasks, so the k-loop is an O(n^2) sweep of
    word-wide ORs rather than an O(n^3) scalar loop.
    """
    if d.closed:
        raise AlreadyClosedError("matrix is already a transitive closure")
    n = len(d.node_ids)
    masks = [sum(1 << j for j, v in enumerate(row) if v) for row in d.rows]
    for k in range(n):
        bit = 1 << k
        row_k = masks[k]
        for i in range(n):
            if masks[i] & bit:
                masks[i] |= row_k
    rows = tuple(tuple(unpack_mask(m).ljust(n, b"\x00")) for m in masks)
    return DependencyMatrix(d.node_ids, rows, closed=True)


def condense_sccs(d: DependencyMatrix) -> CondensedGraph:
    """Tarjan SCC partition of the raw dependency digraph plus its acyclic
    condensation edges."""
    if d.closed:
        raise AlreadyClosedError("condensation expects the raw matrix, not a closure")
    n = len(d.node_ids)
    succ = {
        d.node_ids[i]: [d.node_ids[j] for j in range(n) if d.rows[i][j]]
        for i in range(n)
    }
    components = tuple(
        tuple(comp) for comp in strongly_connected_components(d.node_ids, succ)
    )
    comp_of = {v: i for i, comp in enumerate(components) for v in comp}
    edge_set = {
        (comp_of[d.node_ids[i]], comp_of[d.node_ids[j]])
        for i in range(n)
        for j in range(n)
        if d.rows[i][j] and comp_of[d.node_ids[i]] != comp_of[d.node_ids[j]]
    }
    return CondensedGraph(components, tuple(sorted(edge_set)))

"""Matrix views of an activity graph and the reachability machinery.

Three dense views share the graph's node/edge order:

* incidence   — node x edge, each edge's weight at its tail row
* adjacency   — node x node, max edge weight per ordered pair
* dependency  — node x node boolean support of all edges, plus its
                transitive closure whose diagonal marks cycle membership

A dependency matrix stores each row as one packed int (bit j of row i is
entry (i, j)). The closure is one ``Condensation.pull`` of the raw rows
(Purdom 1970, Nuutila 1995): O(n + m) word-wide ORs, and only the n x n
output itself is quadratic. A matrix from a graph keeps it as the declared
``_graph`` and reads its ``dependency_condensation``; any other condenses
its 1 bits once, on first use. Public constructors check their input and
store tuples; builders call the unchecked ``Value._made``.

One gate, ``_checked_positions``, serves the three builders: at most
MAX_DENSE_NODES nodes, and each edge tail and head a node position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_

from .graph import ActivityGraph, Condensation, NodePositions, Value, condensation

MAX_DENSE_NODES = 4096


class CapacityError(ValueError):
    pass


class AlreadyClosedError(ValueError):
    pass


class NotClosedError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


def _check_shape(kind: str, rows, n: int, width: int) -> None:
    if len(rows) != n or any(map(width.__ne__, map(len, rows))):
        raise DimensionMismatchError(f"{kind} matrix rows must be {n} x {width}")


@dataclass(frozen=True, init=False)
class IncidenceMatrix(Value):
    node_ids: tuple[str, ...]
    edge_ids: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, node_ids, edge_ids, rows):
        self.__dict__.update(node_ids=tuple(node_ids), edge_ids=tuple(edge_ids), rows=tuple(map(tuple, rows)))
        _check_shape("incidence", self.rows, len(self.node_ids), len(self.edge_ids))


@dataclass(frozen=True, init=False)
class AdjacencyMatrix(Value):
    node_ids: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, node_ids, rows):
        self.__dict__.update(node_ids=tuple(node_ids), rows=tuple(map(tuple, rows)))
        _check_shape("adjacency", self.rows, len(self.node_ids), len(self.node_ids))


@dataclass(frozen=True, init=False)
class DependencyMatrix(Value, NodePositions):
    """Boolean node x node matrix; entry (m, n) = 1 iff m depends on n.

    ``closed=False`` is the raw single-edge support (all-zero diagonal).
    ``closed=True`` marks a transitive closure: entry (m, n) = 1 iff a
    directed path of length >= 1 runs from m to n, so a diagonal 1 means
    the node lies on a cycle.

    Rows are stored packed: bit j of ``masks[i]`` is entry (i, j). The
    constructor packs explicit rows (any truthy cell is a 1); ``from_masks``
    takes packed rows, each in ``range(1 << n)``. The CSV and JSON renderers
    read the masks; ``rows`` unpacks them, once, only for library callers
    that want int tuples. ``dependency_matrix`` gives ``_made`` its graph as
    the declared ``_graph`` field, read for its ``dependency_condensation``.
    """

    node_ids: tuple[str, ...]
    masks: tuple[int, ...]
    closed: bool = False
    _graph: ActivityGraph | None = field(default=None, compare=False, repr=False)

    def __init__(self, node_ids, rows, closed: bool = False):
        _check_shape("dependency", rows, len(node_ids), len(node_ids))
        masks = tuple(sum(1 << j for j, v in enumerate(row) if v) for row in rows)
        self.__dict__.update(node_ids=tuple(node_ids), masks=masks, closed=closed)

    @classmethod
    def from_masks(cls, node_ids, masks: tuple[int, ...], closed: bool = False) -> DependencyMatrix:
        """A matrix over already packed rows: one per node, none negative
        and none with a bit at or above the node count."""
        node_ids, masks = tuple(node_ids), tuple(masks)
        n = len(node_ids)
        if len(masks) != n or masks and not (0 <= min(masks) and max(masks) >> n == 0):
            raise DimensionMismatchError(f"dependency matrix masks must be {n} rows of {n} bits")
        return cls._made(node_ids=node_ids, masks=masks, closed=closed)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        n = len(self.node_ids)
        return tuple(tuple(unpack_mask(m).ljust(n, b"\x00")) for m in self.masks)

    @cached_property
    def _condensation(self) -> Condensation:
        """The condensation ``transitive_closure`` and ``condense_sccs``
        read: the graph's own, else that of the rows' 1 bits."""
        if self._graph is not None:
            return self._graph.dependency_condensation
        return condensation([_set_bits(m) for m in self.masks])

    def entry(self, tail: str, head: str) -> int:
        return self.masks[self.position(tail)] >> self.position(head) & 1


@dataclass(frozen=True)
class CondensedGraph(Value):
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


def _set_bits(mask: int) -> list[int]:
    """Positions of the 1 bits of a non-negative int, ascending. ``find``
    skips each run of zeros at C speed, so a sparse row costs about one
    step per set bit."""
    digits = bin(mask)[:1:-1]
    out = []
    j = digits.find("1")
    while j >= 0:
        out.append(j)
        j = digits.find("1", j + 1)
    return out


def _checked_positions(g: ActivityGraph) -> int:
    """The node count, once it is at most MAX_DENSE_NODES and every edge
    tail and head is a node position: the gate of every matrix builder."""
    n = len(g.node_ids)
    if n > MAX_DENSE_NODES:
        raise CapacityError(f"graph has {n} nodes; dense matrices are capped at {MAX_DENSE_NODES}")
    if any(ends and not 0 <= min(ends) <= max(ends) < n for ends in (g.edge_tails, g.edge_heads)):
        raise DimensionMismatchError(f"matrix edge tails and heads must be node positions below {n}")
    return n


def incidence_matrix(g: ActivityGraph) -> IncidenceMatrix:
    """Node x edge matrix with each edge's weight in its tail row; every
    other entry in the column is zero."""
    rows = _weight_rows(g, range(len(g.edge_ids)), len(g.edge_ids))
    return IncidenceMatrix._made(node_ids=g.node_ids, edge_ids=g.edge_ids, rows=rows)


def adjacency_matrix(g: ActivityGraph) -> AdjacencyMatrix:
    """Square weight matrix; parallel edges collapse to their max weight
    (longest-path semantics). Includes dependency-only edges."""
    return AdjacencyMatrix._made(node_ids=g.node_ids, rows=_weight_rows(g, g.edge_heads, len(g.node_ids)))


def _weight_rows(g: ActivityGraph, columns, width: int) -> tuple[tuple[int, ...], ...]:
    """Per node position, ``width`` cells, each the largest of 0 and the
    weights of the node's edges in that column (``columns``, per edge)."""
    cells: list[list[tuple[int, int]]] = [[] for _ in range(_checked_positions(g))]
    for tail, column, weight in zip(g.edge_tails, columns, g.edge_weights):
        cells[tail].append((column, weight))
    rows = []
    for row_cells in cells:  # one row list at a time, beside the finished tuples
        row = [0] * width
        for column, weight in row_cells:
            if weight > row[column]:
                row[column] = weight
        rows.append(tuple(row))
    return tuple(rows)


def dependency_matrix(g: ActivityGraph) -> DependencyMatrix:
    """Boolean support of all edges, any kind; all-zero diagonal. Keeps ``g``."""
    bit = [1 << j for j in range(_checked_positions(g))].__getitem__
    masks = tuple(reduce(or_, map(bit, heads), 0) for heads in g.dependency_view)
    return DependencyMatrix._made(node_ids=g.node_ids, masks=masks, closed=False, _graph=g)


def transitive_closure(d: DependencyMatrix) -> DependencyMatrix:
    """Boolean closure over paths of length >= 1: each row pulls the raw
    rows of everything it reaches (``Condensation.pull``), its own
    included. A member of a cycle reaches itself through the cycle, a
    self-loop through its own raw bit."""
    if d.closed:
        raise AlreadyClosedError("matrix is already a transitive closure")
    return DependencyMatrix._made(node_ids=d.node_ids, masks=tuple(d._condensation.pull(d.masks)), closed=True)


def condense_sccs(d: DependencyMatrix) -> CondensedGraph:
    """Tarjan SCC partition of the raw dependency digraph plus its acyclic
    condensation edges."""
    if d.closed:
        raise AlreadyClosedError("condensation expects the raw matrix, not a closure")
    cond = d._condensation
    ids, comp_of, succ = d.node_ids, cond.component_of, cond.succ
    components = tuple(tuple(ids[i] for i in comp) for comp in cond.components)
    edges = {(comp_of[v], comp_of[w]) for v, heads in enumerate(succ) for w in heads}
    return CondensedGraph(components, tuple(sorted((c, s) for c, s in edges if c != s)))

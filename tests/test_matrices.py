import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depmat.graph import EDGE_DUMMY, EDGE_KINDS, Activity, ActivityEdge, ActivityGraph, build_graph
from depmat.localization import annotate_matrix, localize
from depmat.matrices import (
    AdjacencyMatrix,
    AlreadyClosedError,
    CapacityError,
    DependencyMatrix,
    DimensionMismatchError,
    IncidenceMatrix,
    MAX_DENSE_NODES,
    adjacency_matrix,
    condensation,
    condense_sccs,
    dependency_matrix,
    incidence_matrix,
    transitive_closure,
    unpack_mask,
)

from oracles import bfs_hops, closure_by_powers, random_digraph_rows, random_mixed_graph

FIG6_ROWS = (
    (0, 1, 0, 1, 1),
    (0, 0, 1, 0, 1),
    (0, 0, 0, 1, 1),
    (0, 1, 0, 0, 0),
    (1, 0, 0, 0, 0),
)


def chain_graph():
    return build_graph(
        [Activity("v0"), Activity("v1"), Activity("v2")],
        [ActivityEdge("x", "v0", "v1", 2), ActivityEdge("y", "v1", "v2", 3)],
    )


def rows_to_matrix(rows, ids=None):
    ids = ids or tuple(f"n{i}" for i in range(len(rows)))
    return DependencyMatrix(tuple(ids), tuple(tuple(r) for r in rows), closed=False)


def test_incidence_robot(robot):
    m = incidence_matrix(robot)
    assert m.node_ids == ("v0", "v1", "v2", "v3", "v4")
    assert m.edge_ids == tuple("abcdefghi")
    assert m.rows == (
        (3, 1, 2, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 7, 4, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 6, 5, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 6, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 2),
    )


def test_incidence_no_edges():
    g = build_graph([Activity("v0"), Activity("v1")], [])
    m = incidence_matrix(g)
    assert m.edge_ids == ()
    assert m.rows == ((), ())


def test_incidence_chain():
    m = incidence_matrix(chain_graph())
    assert m.rows == ((2, 0), (0, 3), (0, 0))


def test_incidence_column_property():
    for seed in range(100):
        g = random_mixed_graph(random.Random(seed))
        m = incidence_matrix(g)
        for j, e in enumerate(g.edges):
            column = [m.rows[i][j] for i in range(len(m.node_ids))]
            tail_row = m.node_ids.index(e.tail)
            assert column[tail_row] == e.weight
            assert all(v == 0 for i, v in enumerate(column) if i != tail_row)
            assert sum(column) == e.weight


def test_adjacency_robot(robot):
    m = adjacency_matrix(robot)
    idx = {v: i for i, v in enumerate(m.node_ids)}

    def entry(a, b):
        return m.rows[idx[a]][idx[b]]

    expected = {
        ("v0", "v1"): 2,
        ("v0", "v3"): 3,
        ("v0", "v4"): 1,
        ("v1", "v2"): 7,
        ("v1", "v4"): 4,
        ("v2", "v3"): 6,
        ("v2", "v4"): 5,
        ("v3", "v1"): 6,
        ("v4", "v0"): 2,
    }
    for a in m.node_ids:
        for b in m.node_ids:
            assert entry(a, b) == expected.get((a, b), 0)


def test_adjacency_empty_graph():
    m = adjacency_matrix(build_graph([], []))
    assert m.rows == ()
    assert m.node_ids == ()


def test_adjacency_parallel_edges_take_max():
    g = build_graph(
        [Activity("m"), Activity("n")],
        [ActivityEdge("x", "m", "n", 4), ActivityEdge("y", "m", "n", 9)],
    )
    assert adjacency_matrix(g).rows == ((0, 9), (0, 0))


def test_weight_matrices_match_a_cell_by_cell_reference():
    # parallel edges in random weight order, so the larger may come first
    for seed in range(100):
        rnd = random.Random(seed)
        base = random_mixed_graph(rnd)
        extra = [
            ActivityEdge(f"p{k}", e.tail, e.head, rnd.randint(0, 9), e.kind)
            for k, e in enumerate(base.edges) if e.kind != EDGE_DUMMY and rnd.random() < 0.5
        ]
        g = build_graph(base.activities, rnd.sample([*base.edges, *extra], len(base.edges) + len(extra)))
        ids = g.node_ids
        assert adjacency_matrix(g).rows == tuple(
            tuple(max((e.weight for e in g.edges if (e.tail, e.head) == (v, w)), default=0) for w in ids)
            for v in ids
        )
        assert incidence_matrix(g).rows == tuple(tuple(e.weight if e.tail == v else 0 for e in g.edges) for v in ids)


def test_dependency_robot_matches_published_matrix(robot):
    m = dependency_matrix(robot)
    assert m.rows == FIG6_ROWS
    assert not m.closed


def test_dependency_no_edges_and_chain():
    g = build_graph([Activity("v0"), Activity("v1")], [])
    assert dependency_matrix(g).rows == ((0, 0), (0, 0))
    m = dependency_matrix(chain_graph())
    assert m.rows == ((0, 1, 0), (0, 0, 1), (0, 0, 0))


def test_closure_robot_is_all_ones(robot):
    closed = transitive_closure(dependency_matrix(robot))
    assert closed.closed
    assert closed.rows == tuple((1,) * 5 for _ in range(5))
    assert [list(r) for r in closed.rows] == closure_by_powers([list(r) for r in FIG6_ROWS])


def test_closure_zero_matrix():
    m = rows_to_matrix([[0, 0], [0, 0]])
    assert transitive_closure(m).rows == ((0, 0), (0, 0))


def test_closure_chain_adds_composition():
    closed = transitive_closure(dependency_matrix(chain_graph()))
    assert closed.rows == ((0, 1, 1), (0, 0, 1), (0, 0, 0))
    assert all(closed.rows[i][i] == 0 for i in range(3))


def test_closure_rejects_closed_input(robot):
    closed = transitive_closure(dependency_matrix(robot))
    with pytest.raises(AlreadyClosedError):
        transitive_closure(closed)


def test_closure_matches_power_oracle():
    for seed in range(200):
        rows = random_digraph_rows(random.Random(seed))
        closed = transitive_closure(rows_to_matrix(rows))
        assert [list(r) for r in closed.rows] == closure_by_powers(rows)


def test_unpack_mask_least_significant_bit_first():
    assert unpack_mask(0) == b"\x00"
    assert unpack_mask(0b1101) == bytes([1, 0, 1, 1])
    bits = unpack_mask((1 << 5000) | (1 << 7))
    assert len(bits) == 5001
    assert [j for j, b in enumerate(bits) if b] == [7, 5000]


def test_closure_idempotent_as_reachability():
    for seed in range(50):
        rows = random_digraph_rows(random.Random(1000 + seed))
        closed = transitive_closure(rows_to_matrix(rows))
        again = transitive_closure(
            DependencyMatrix(closed.node_ids, closed.rows, closed=False)
        )
        assert again.rows == closed.rows


def test_closure_diagonal_marks_cycle_membership():
    for seed in range(100):
        rows = random_digraph_rows(random.Random(2000 + seed))
        matrix = rows_to_matrix(rows)
        closed = transitive_closure(matrix)
        condensed = condense_sccs(matrix)
        for i, node in enumerate(matrix.node_ids):
            on_big_scc = len(condensed.components[condensed.component_of[node]]) >= 2
            assert bool(closed.rows[i][i]) == on_big_scc


def test_condense_robot_single_component(robot):
    condensed = condense_sccs(dependency_matrix(robot))
    assert condensed.components == (("v0", "v1", "v2", "v3", "v4"),)
    assert condensed.edges == ()


def test_condense_chain():
    condensed = condense_sccs(dependency_matrix(chain_graph()))
    assert condensed.components == (("v0",), ("v1",), ("v2",))
    assert condensed.edges == ((0, 1), (1, 2))


def test_condense_two_disjoint_two_cycles():
    rows = [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
    condensed = condense_sccs(rows_to_matrix(rows))
    assert condensed.components == (("n0", "n1"), ("n2", "n3"))
    assert condensed.edges == ()


def test_condensation_is_acyclic():
    from oracles import has_cycle

    for seed in range(100):
        rows = random_digraph_rows(random.Random(3000 + seed))
        condensed = condense_sccs(rows_to_matrix(rows))
        succ = {}
        for a, b in condensed.edges:
            succ.setdefault(a, []).append(b)
        assert not has_cycle(range(len(condensed.components)), succ)


def test_condensation_order_is_topological():
    for seed in range(100):
        rnd = random.Random(3500 + seed)
        rows = random_digraph_rows(rnd)
        for i, row in enumerate(rows):  # self-loops as well as cycles
            row[i] = int(rnd.random() < 0.2)
        succ = [[j for j, v in enumerate(row) if v] for row in rows]
        cond = condensation(succ)
        assert sorted(cond.order) == list(range(len(cond.components)))
        place = {c: k for k, c in enumerate(cond.order)}
        for v, heads in enumerate(succ):  # edges between two components run forward
            c = cond.component_of[v]
            for d in {cond.component_of[w] for w in heads} - {c}:
                assert place[c] < place[d]


def test_condense_partition_matches_reachability_oracle():
    for seed in range(150):
        rows = random_digraph_rows(random.Random(4000 + seed))
        n = len(rows)
        matrix = rows_to_matrix(rows)
        closed = closure_by_powers(rows)
        condensed = condense_sccs(matrix)
        for i in range(n):
            for j in range(n):
                mutual = i == j or bool(closed[i][j] and closed[j][i])
                same_component = (
                    condensed.component_of[matrix.node_ids[i]]
                    == condensed.component_of[matrix.node_ids[j]]
                )
                assert same_component == mutual


def test_condense_rejects_closed_matrix(robot):
    closed = transitive_closure(dependency_matrix(robot))
    with pytest.raises(AlreadyClosedError):
        condense_sccs(closed)


def test_capacity_limit():
    g = build_graph([Activity(f"n{i}") for i in range(MAX_DENSE_NODES + 1)], [])
    with pytest.raises(CapacityError):
        dependency_matrix(g)
    with pytest.raises(CapacityError):
        adjacency_matrix(g)
    with pytest.raises(CapacityError):
        incidence_matrix(g)


@given(
    st.integers(0, 40),
    st.sampled_from([0.0, 0.02, 0.08, 0.3, 1.0]),
    st.integers(0, 2**32),
)
@example(65, 0.3, 1)
@example(70, 1.0, 2)
@settings(max_examples=30, deadline=None)
def test_closure_matches_power_oracle_across_words(n, density, seed):
    """Random square 0/1 matrices, diagonal 1s included; the examples are
    wide enough that the packed rows span more than one 64-bit word."""
    rnd = random.Random(seed)
    rows = [[1 if rnd.random() < density else 0 for _ in range(n)] for _ in range(n)]
    closed = transitive_closure(rows_to_matrix(rows))
    assert closed.closed
    assert [list(r) for r in closed.rows] == closure_by_powers(rows)


@given(st.integers(60, 200), st.sampled_from([0.005, 0.01, 0.03]), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_sparse_wide_closure_matches_bfs_oracle(n, density, seed):
    """Sparse matrices of one to four 64-bit words per row, diagonal 1s
    included: each closure row is the set of nodes reached by a walk of
    one or more edges."""
    rnd = random.Random(seed)
    rows = [[1 if rnd.random() < density else 0 for _ in range(n)] for _ in range(n)]
    succ = {i: [j for j in range(n) if rows[i][j]] for i in range(n)}
    closed = transitive_closure(rows_to_matrix(rows))
    for i in range(n):
        reached = set()
        for j in succ[i]:
            reached |= set(bfs_hops(succ, j))
        assert closed.rows[i] == tuple(int(j in reached) for j in range(n))


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 130])
def test_rows_round_trip_through_masks(n):
    rnd = random.Random(n)
    rows = tuple(tuple(rnd.randint(0, 1) for _ in range(n)) for _ in range(n))
    assert rows_to_matrix(rows).rows == rows


def test_masks_are_rows_least_significant_bit_first():
    m = DependencyMatrix(("a", "b", "c"), ((0, 1, 1), (0, 0, 0), (1, 0, 0)))
    assert m.masks == (0b110, 0, 0b001)
    assert m.entry("a", "c") == 1 and m.entry("c", "a") == 1 and m.entry("b", "a") == 0
    assert DependencyMatrix(("a",), ((1,),)).masks == (1,)
    assert DependencyMatrix((), ()).masks == ()
    assert dependency_matrix(chain_graph()).masks == (0b010, 0b100, 0)


def test_truthy_cells_pack_to_one():
    m = DependencyMatrix(("a", "b"), ((2, True), (0, -1)))
    assert m.masks == (0b11, 0b10)
    assert m.rows == ((1, 1), (0, 1))


def test_non_square_rows_are_rejected():
    with pytest.raises(DimensionMismatchError):
        DependencyMatrix(("a", "b"), ((0, 1),))
    with pytest.raises(DimensionMismatchError):
        DependencyMatrix(("a", "b"), ((0, 1), (0, 1, 0)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: IncidenceMatrix(("a", "b"), ("e",), ((), (1,))),
        lambda: IncidenceMatrix(("a", "b"), ("e",), ((1,),)),
        lambda: AdjacencyMatrix(("a", "b"), ((1,), (0, 0, 0))),
        lambda: AdjacencyMatrix(("a", "b"), ((0, 1), (0, 1), (0, 1))),
    ],
    ids=["incidence-short-row", "incidence-too-few", "adjacency-ragged", "adjacency-too-many"],
)
def test_weight_rows_that_are_not_one_cell_per_column_label_are_rejected(build):
    with pytest.raises(DimensionMismatchError):
        build()


def test_matrices_built_from_lists_equal_the_tuple_built_ones_and_hash(robot):
    d = dependency_matrix(robot)
    pairs = [
        (DependencyMatrix(list(d.node_ids), [list(row) for row in d.rows]), DependencyMatrix(d.node_ids, d.rows)),
        (DependencyMatrix.from_masks(list(d.node_ids), list(d.masks)), d),
        (IncidenceMatrix(["a"], ["e"], [[1]]), IncidenceMatrix(("a",), ("e",), ((1,),))),
        (AdjacencyMatrix(["a", "b"], [[0, 2], [0, 0]]), AdjacencyMatrix(("a", "b"), ((0, 2), (0, 0)))),
    ]
    for listed, tupled in pairs:
        assert listed == tupled and hash(listed) == hash(tupled)
    marked = annotate_matrix(pairs[0][0], localize(robot, ["v0"]))
    assert marked == annotate_matrix(d, localize(robot, ["v0"]))


@pytest.mark.parametrize(
    "masks",
    [(0b111, -1), (0b100, 0), (0, -1), (1 << 70, 0), (0,), (0, 0, 0)],
    ids=["wide-and-negative", "bit-at-n", "negative", "far-bit", "too-few", "too-many"],
)
def test_from_masks_rejects_masks_that_are_not_n_rows_of_n_bits(masks):
    with pytest.raises(DimensionMismatchError):
        DependencyMatrix.from_masks(("a", "b"), masks)


def test_from_masks_takes_every_row_of_n_bits():
    assert DependencyMatrix.from_masks(("a", "b"), (0b11, 0b10)).rows == ((1, 1), (0, 1))
    assert DependencyMatrix.from_masks((), ()).rows == ()


def test_closure_of_a_self_loop_marks_the_diagonal():
    closed = transitive_closure(rows_to_matrix([[1, 1, 0], [0, 0, 0], [0, 0, 0]]))
    assert closed.rows == ((1, 1, 0), (0, 0, 0), (0, 0, 0))


def test_condensation_edges_match_reachability_oracle():
    for seed in range(100):
        rows = random_digraph_rows(random.Random(5000 + seed), max_nodes=20)
        matrix = rows_to_matrix(rows)
        condensed = condense_sccs(matrix)
        comp = [condensed.component_of[v] for v in matrix.node_ids]
        expected = {
            (comp[i], comp[j])
            for i, row in enumerate(rows)
            for j, v in enumerate(row)
            if v and comp[i] != comp[j]
        }
        assert condensed.edges == tuple(sorted(expected))


@st.composite
def _unchecked_digraph(draw):
    """A graph of up to 12 nodes whose edges, of any kind, may repeat a
    pair, close cycles or loop on one node (``from_columns``, unchecked)."""
    n = draw(st.integers(0, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40)) if n else []
    pairs += [pairs[i] for i in draw(st.lists(st.integers(0, len(pairs) - 1), max_size=8))] if pairs else []
    kinds = draw(st.lists(st.sampled_from(sorted(EDGE_KINDS)), min_size=len(pairs), max_size=len(pairs)))
    nodes = ([f"n{i}" for i in range(n)], [None] * n, ["auto"] * n)
    edges = ([f"e{k}" for k in range(len(pairs))], [t for t, _ in pairs], [h for _, h in pairs], [1] * len(pairs))
    return ActivityGraph.from_columns(nodes, (*edges, kinds))


@given(_unchecked_digraph())
@settings(max_examples=150, deadline=None)
def test_closing_the_graph_view_matches_closing_the_unpacked_masks(g):
    """A matrix from a graph reads the graph's own dependency condensation;
    one from the same masks unpacks them. Both close and condense alike."""
    packed = dependency_matrix(g)
    assert packed._condensation is g.dependency_condensation
    unpacked = DependencyMatrix.from_masks(g.node_ids, packed.masks)
    closed = transitive_closure(packed)
    assert closed.masks == transitive_closure(unpacked).masks
    assert [list(r) for r in closed.rows] == closure_by_powers([list(r) for r in packed.rows])
    assert condense_sccs(packed) == condense_sccs(unpacked)


@pytest.mark.parametrize("builder", [dependency_matrix, adjacency_matrix, incidence_matrix])
@pytest.mark.parametrize(
    "tail, head",
    [(0, 2), (0, -1), (2, 0), (-1, 0)],
    ids=["head-past-the-end", "head-negative", "tail-past-the-end", "tail-negative"],
)
def test_dependency_matrix_rejects_a_head_outside_the_node_list(builder, tail, head):
    """Every matrix builder rejects an edge end that is not a node position
    of an unchecked graph, rather than wrapping it round or failing late."""
    nodes = (["a", "b"], [None, None], ["auto", "auto"])
    g = ActivityGraph.from_columns(nodes, (["e"], [tail], [head], [1], ["scheduling"]))
    with pytest.raises(DimensionMismatchError, match="tails and heads must be node positions below 2"):
        builder(g)

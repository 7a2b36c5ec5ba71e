import dataclasses
import itertools
import json
import random

import pytest

import depmat.graph
import depmat.schedule
from depmat import simulation
from depmat.fileio import serialize_graph
from depmat.graph import (
    Activity,
    ActivityEdge,
    EDGE_DEPENDENCY_ONLY,
    EDGE_SCHEDULING,
    GraphBuildError,
    UnknownNodeError,
    build_graph,
    scheduling_subgraph,
    validate,
)
from depmat.matrices import dependency_matrix
from depmat.rng import SplitMix64, derive_seed, stream
from depmat.schedule import compute_schedule
from depmat.simulation import (
    MAX_GENERATED_SIZE,
    GeneratorParams,
    InvalidParamsError,
    ROOT_CRITICAL_ONLY,
    ROOT_UNIFORM,
    TrialRow,
    generate_graph,
    inject,
    run_experiment,
    run_trial,
)

from conftest import GOLDENS
from oracles import (
    closure_by_powers,
    generate_graph_by_pair_lists,
    graph_succ,
    random_mixed_graph,
    with_self_loops,
)


def small_params(**overrides) -> GeneratorParams:
    base = dict(
        node_count=12,
        layer_count=4,
        edge_density=0.5,
        max_weight=9,
        feedback_edge_fraction=0.15,
        seed=1,
    )
    base.update(overrides)
    return GeneratorParams(**base)


def chain_graph():
    # v0 depends on v1 depends on v2
    return build_graph(
        [Activity("v0"), Activity("v1"), Activity("v2")],
        [ActivityEdge("x", "v0", "v1", 1), ActivityEdge("y", "v1", "v2", 1)],
    )


def test_generate_single_node():
    g = generate_graph(GeneratorParams(node_count=1, layer_count=1, edge_density=1.0))
    assert g.node_ids == ("n0",)
    assert g.edges == ()


def test_generate_matches_frozen_golden():
    params = GeneratorParams(
        node_count=6, layer_count=3, edge_density=0.8, max_weight=9,
        feedback_edge_fraction=0.0, seed=42,
    )
    golden = (GOLDENS / "generated_6n_seed42.json").read_bytes()
    assert serialize_graph(generate_graph(params)) == golden


def test_generate_matches_pair_list_reference():
    for seed in range(200):
        rnd = random.Random(seed)
        n = rnd.randint(1, 40)
        params = GeneratorParams(
            node_count=n,
            layer_count=rnd.randint(1, n),
            edge_density=rnd.uniform(0.05, 1.0),
            max_weight=rnd.randint(1, 9),
            feedback_edge_fraction=rnd.uniform(0.0, 0.95),
            seed=seed,
        )
        assert serialize_graph(generate_graph(params)) == serialize_graph(
            generate_graph_by_pair_lists(params)
        )
    # every pair or none a hit; weight bounds with no rejection, about half
    # the draws rejected, and the full 64 bits; more pair draws than one
    # 4,096-output block (200 nodes in 2 layers draw 10,000)
    shapes = [(30, 4), (200, 2), (150, 3)]
    for k, (density, max_weight, (n, layers)) in enumerate(
        itertools.product((1.0, 1e-300, 0.5), (1, 2**63 + 1, 2**64), shapes)
    ):
        params = GeneratorParams(
            node_count=n, layer_count=layers, edge_density=density,
            max_weight=max_weight, feedback_edge_fraction=0.3, seed=7_000 + k,
        )
        assert serialize_graph(generate_graph(params)) == serialize_graph(
            generate_graph_by_pair_lists(params)
        )


def test_generate_is_deterministic():
    params = small_params()
    a, b = generate_graph(params), generate_graph(params)
    assert a == b


def test_generate_structural_contract():
    for seed in range(50):
        params = small_params(seed=seed)
        g = generate_graph(params)
        assert validate(g).ok
        scheduling_subgraph(g)  # acyclic by construction
        layer = {f"n{i}": i * params.layer_count // params.node_count
                 for i in range(params.node_count)}
        scheduling = [e for e in g.edges if e.kind == EDGE_SCHEDULING]
        feedback = [e for e in g.edges if e.kind == EDGE_DEPENDENCY_ONLY]
        for e in scheduling:
            assert layer[e.head] == layer[e.tail] + 1
            assert 1 <= e.weight <= params.max_weight
        for e in feedback:
            assert layer[e.tail] > layer[e.head]
        assert len(feedback) == int(params.feedback_edge_fraction * len(scheduling))


def test_generate_rejects_bad_params():
    bad = [
        dict(node_count=0),
        dict(layer_count=0),
        dict(layer_count=13),
        dict(edge_density=0.0),
        dict(edge_density=1.2),
        dict(max_weight=0),
        dict(feedback_edge_fraction=1.0),
        dict(feedback_edge_fraction=-0.1),
        dict(seed=-1),
        dict(seed=2**64),
    ]
    for overrides in bad:
        with pytest.raises(InvalidParamsError):
            generate_graph(small_params(**overrides))


def test_generated_graphs_validate():
    rnd = random.Random(60_000)
    for seed in range(300):
        n = rnd.randint(1, 120)
        params = GeneratorParams(
            node_count=n,
            layer_count=rnd.randint(1, n),
            edge_density=rnd.choice((1.0, 1e-300, rnd.uniform(0.01, 1.0))),
            max_weight=rnd.choice((1, 9, 2**63 + 1, 2**64, rnd.randint(1, 1000))),
            feedback_edge_fraction=rnd.choice((0.0, rnd.uniform(0.0, 0.99))),
            seed=rnd.getrandbits(64),
        )
        assert validate(generate_graph(params)).errors == ()


_COLUMNS = (
    "node_ids", "node_labels", "node_kinds",
    "edge_ids", "edge_tails", "edge_heads", "edge_weights", "edge_kinds",
)


def test_generated_columns_are_those_of_its_records():
    rnd = random.Random(61_000)
    for _ in range(300):
        n = rnd.randint(1, 60)
        params = GeneratorParams(
            node_count=n,
            layer_count=rnd.randint(1, n),
            edge_density=rnd.choice((1.0, rnd.uniform(0.01, 1.0))),
            max_weight=rnd.choice((1, 9, 2**64, rnd.randint(1, 1000))),
            feedback_edge_fraction=rnd.choice((0.0, rnd.uniform(0.0, 0.99))),
            seed=rnd.getrandbits(64),
        )
        g = generate_graph(params)
        twin = build_graph(g.activities, g.edges)  # columns derived from the records
        assert g == twin
        assert [getattr(g, c) for c in _COLUMNS] == [getattr(twin, c) for c in _COLUMNS]
        assert g.dependency_view == twin.dependency_view
        assert g.scheduling_view == twin.scheduling_view


def test_generator_size_bound(monkeypatch):
    # checked before any draw: node_count first, then the per-layer pair sum
    GeneratorParams(5000, 50, 0.02).check()  # the largest fixture: 495,000
    GeneratorParams(MAX_GENERATED_SIZE, 1, 0.5).check()
    GeneratorParams(2 * 1023, 2, 0.5).check()  # 1023**2 + 2046 == 2**20 - 1
    for n, layers in ((MAX_GENERATED_SIZE + 1, 1), (10**9, 1), (2 * 1024, 2), (20_000, 2)):
        with pytest.raises(InvalidParamsError, match="at most"):
            GeneratorParams(n, layers, 0.5).check()

    def no_layer_sums(n, layers):
        raise AssertionError("summed the layers of an oversized node count")

    monkeypatch.setattr(simulation, "_layer_starts", no_layer_sums)
    with pytest.raises(InvalidParamsError, match="node_count must be at most"):
        GeneratorParams(10**9, 10**9, 0.5).check()


def test_experiment_schedules_each_graph_once(monkeypatch):
    scheduled = []
    forward_pass = depmat.schedule.forward_pass

    def counting(g):
        scheduled.append(g)
        return forward_pass(g)

    monkeypatch.setattr(depmat.schedule, "forward_pass", counting)
    for root_policy in (ROOT_CRITICAL_ONLY, ROOT_UNIFORM):
        scheduled.clear()
        run_experiment(small_params(), 6, 0.9, root_policy)
        assert len({id(g) for g in scheduled}) == len(scheduled) == 6


def test_trial_makes_one_tarjan_pass_per_view(monkeypatch):
    passes = []
    tarjan = depmat.graph._tarjan

    def counting(succ):
        passes.append(succ)
        return tarjan(succ)

    monkeypatch.setattr(depmat.graph, "_tarjan", counting)
    for root_policy in (ROOT_CRITICAL_ONLY, ROOT_UNIFORM):
        passes.clear()
        run_experiment(small_params(feedback_edge_fraction=0.5), 6, 0.9, root_policy)
        assert len(passes) == 12


def test_inject_full_chain():
    g = chain_graph()
    scenario = inject(g, "v2", 1.0, seed=5)
    assert scenario.symptoms == ("v0", "v1", "v2")
    assert scenario.root == "v2"


def test_inject_root_without_dependents():
    scenario = inject(chain_graph(), "v0", 1.0, seed=5)
    assert scenario.symptoms == ("v0",)


def test_inject_robot_root_v3_hits_everyone(robot):
    scenario = inject(robot, "v3", 1.0, seed=9)
    assert scenario.symptoms == ("v0", "v1", "v2", "v3", "v4")


def test_inject_checks_inputs(robot):
    with pytest.raises(UnknownNodeError):
        inject(robot, "zz", 1.0, seed=0)
    with pytest.raises(InvalidParamsError):
        inject(robot, "v0", 0.0, seed=0)
    with pytest.raises(InvalidParamsError):
        inject(robot, "v0", 1.5, seed=0)


def test_inject_full_detection_equals_affected_set():
    for seed in range(40):
        g = generate_graph(small_params(seed=seed))
        rows = [list(r) for r in dependency_matrix(g).rows]
        closed = closure_by_powers(rows)
        for root in list(g.node_ids)[::3]:
            j = g.position(root)
            affected = {
                g.node_ids[i] for i in range(len(rows)) if closed[i][j]
            } | {root}
            scenario = inject(g, root, 1.0, seed=seed)
            assert set(scenario.symptoms) == affected
            assert scenario.symptoms == tuple(
                v for v in g.node_ids if v in affected
            )


def test_inject_matches_reverse_reachability_oracle():
    # cyclic graphs and partial detection: one draw per dependent, node order;
    # from seed 60 on, unvalidated graphs with dependency-only self-loops,
    # whose records plus an edge to an undeclared id build_graph rejects
    for seed in range(120):
        rnd = random.Random(50_000 + seed)
        g = random_mixed_graph(rnd, max_nodes=12)
        if seed >= 60:
            g = with_self_loops(rnd, g)
            undeclared = ActivityEdge(f"e{len(g.edges)}", rnd.choice(g.node_ids), "zz", 1, EDGE_DEPENDENCY_ONLY)
            with pytest.raises(GraphBuildError) as exc:
                build_graph(g.activities, (*g.edges, undeclared))
            assert [i.ids for i in exc.value.issues if i.code == "unknown-endpoint"] == [(undeclared.id, "zz")]
        ids = g.node_ids
        succ = graph_succ(g)
        closed = closure_by_powers([[1 if w in succ[v] else 0 for w in ids] for v in ids])
        for j, root in enumerate(ids):
            for detect_prob in (0.3, 0.9, 1.0, 1e-12):
                rng = SplitMix64(seed)
                expected = tuple(
                    v for i, v in enumerate(ids)
                    if v == root or (closed[i][j] and rng.random() < detect_prob)
                )
                assert inject(g, root, detect_prob, seed=seed).symptoms == expected


def test_inject_draws_once_per_affected_node_but_the_root(monkeypatch):
    taken = 0

    def counting_stream(seed):
        nonlocal taken
        for u in stream(seed):
            taken += 1
            yield u

    monkeypatch.setattr(simulation, "stream", counting_stream)
    root_only = 0
    for seed in range(60):
        rnd = random.Random(70_000 + seed)
        g = random_mixed_graph(rnd, max_nodes=12)
        if seed % 2:
            g = with_self_loops(rnd, g)
        ids = g.node_ids
        succ = graph_succ(g)
        closed = closure_by_powers([[1 if w in succ[v] else 0 for w in ids] for v in ids])
        for j, root in enumerate(ids):
            affected = {i for i in range(len(ids)) if closed[i][j]} | {j}
            taken = 0
            inject(g, root, 0.5, seed=seed)
            assert taken == len(affected) - 1
            root_only += len(affected) == 1
    assert root_only  # roots nothing depends on take no draw


def test_inject_root_always_self_detects():
    for seed in range(30):
        g = generate_graph(small_params(seed=seed))
        root = g.node_ids[seed % len(g.node_ids)]
        scenario = inject(g, root, 0.3, seed=seed)
        assert root in scenario.symptoms
        assert set(scenario.symptoms) <= set(g.node_ids)


def test_run_trial_chain():
    g = chain_graph()
    metrics = run_trial(g, inject(g, "v2", 1.0, seed=1))
    assert metrics.hit
    assert metrics.root_rank == 1  # v2 explains all three symptoms
    assert metrics.candidates == 3
    assert metrics.examined_baseline == 3


def test_run_trial_single_node():
    g = build_graph([Activity("n0")], [])
    metrics = run_trial(g, inject(g, "n0", 1.0, seed=1))
    assert metrics.root_rank == 1
    assert metrics.examined_localizer == metrics.examined_baseline == 1


def test_run_trial_robot(robot):
    metrics = run_trial(robot, inject(robot, "v3", 1.0, seed=2))
    assert metrics.hit
    assert metrics.candidates == 5


def test_experiment_single_trial_reduces_to_run_trial():
    params = small_params(seed=77)
    report = run_experiment(params, trials=1, detect_prob=1.0, root_policy=ROOT_UNIFORM)
    row = report.rows[0]
    trial_seed = derive_seed(params.seed, 0)
    assert row.seed == trial_seed
    graph = generate_graph(dataclasses.replace(params, seed=derive_seed(trial_seed, 0)))
    scenario = inject(graph, row.root, 1.0, derive_seed(trial_seed, 2))
    assert TrialRow(*row[:4], *run_trial(graph, scenario)) == row


def test_experiment_is_deterministic():
    params = small_params(seed=3)
    a = run_experiment(params, trials=8, detect_prob=0.7)
    b = run_experiment(params, trials=8, detect_prob=0.7)
    assert a == b
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
    assert a.to_csv() == b.to_csv()
    assert a.to_text() == b.to_text()


def test_experiment_hit_rate_is_one_under_propagation():
    for detect_prob in (0.5, 1.0):
        report = run_experiment(small_params(seed=8), trials=20, detect_prob=detect_prob)
        assert report.hit_rate == 1.0
        assert all(r.hit for r in report.rows)


def test_experiment_ratio_and_bounds():
    report = run_experiment(small_params(seed=21), trials=20, detect_prob=0.9)
    assert report.mean_examined_ratio >= 1.0
    for row in report.rows:
        assert row.examined_localizer <= row.examined_baseline
        assert row.examined_baseline == 12


def test_experiment_root_policies():
    params = small_params(seed=13)
    crit = run_experiment(params, trials=10, detect_prob=1.0, root_policy=ROOT_CRITICAL_ONLY)
    for index, row in enumerate(crit.rows):
        trial_seed = derive_seed(params.seed, index)
        graph = generate_graph(dataclasses.replace(params, seed=derive_seed(trial_seed, 0)))
        assert row.root in compute_schedule(graph).critical_nodes
    with pytest.raises(InvalidParamsError):
        run_experiment(params, trials=0, detect_prob=1.0)
    with pytest.raises(InvalidParamsError):
        run_experiment(params, trials=1, detect_prob=0.0)
    with pytest.raises(InvalidParamsError):
        run_experiment(params, trials=1, detect_prob=1.0, root_policy="everywhere")


def test_experiment_rows_sorted_by_trial():
    report = run_experiment(small_params(seed=4), trials=10, detect_prob=1.0)
    assert [r.trial for r in report.rows] == list(range(10))

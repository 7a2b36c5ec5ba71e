"""Seeded fault-injection simulator.

Generates layered activity graphs, injects a root fault, propagates
symptoms to every node that transitively depends on the root (each
detected independently with a fixed probability; the root always
self-detects), and measures how many nodes critical-first localization
examines against an exhaustive scan of all nodes.

Everything is a pure function of its inputs and a 64-bit seed. Per-trial
seeds are positions in the experiment seed's splitmix64 stream
(`rng.derive_seed`), so trials are independent and order-insensitive; the
graph, root-choice and symptom-detection substreams of a trial are derived
the same way from the trial seed (indices 0, 1, 2).
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from dataclasses import asdict
from itertools import accumulate, pairwise
from operator import mul
from typing import NamedTuple

from .graph import (
    ActivityGraph,
    EDGE_DEPENDENCY_ONLY,
    EDGE_SCHEDULING,
    KIND_AUTO,
    MAX_WEIGHT,
    Value,
    record,
)
from .localization import VIEW_ALL, localize
from .rng import SplitMix64, bounded, derive_seed, stream, threshold
from .schedule import compute_schedule

ROOT_CRITICAL_ONLY = "critical_only"
ROOT_UNIFORM = "uniform"
ROOT_POLICIES = frozenset({ROOT_CRITICAL_ONLY, ROOT_UNIFORM})

# Largest node count plus candidate pair count a generator run may draw
# for; every pair costs a draw and the edges are kept in memory.
MAX_GENERATED_SIZE = 2**20

BASELINE_DESCRIPTION = "exhaustive scan of every node"
PROPAGATION_DESCRIPTION = (
    "deterministic reachability over the dependency closure with Bernoulli "
    "detection; the injected root always self-detects"
)


class InvalidParamsError(ValueError):
    pass


@record
class GeneratorParams(Value):
    """Layered-graph generator parameters.

    Nodes are spread over ``layer_count`` contiguous layers; scheduling
    edges join consecutive layers only (each candidate pair independently
    with probability ``edge_density``), so the scheduling view is acyclic
    by construction. Feedback edges are dependency-only, run from a later
    layer back to an earlier one, and may create cycles; their count is
    ``floor(feedback_edge_fraction * scheduling edge count)``. The node
    count plus the candidate pair count (the sum of |layer k| * |layer
    k+1|) is at most MAX_GENERATED_SIZE.
    """

    node_count: int
    layer_count: int
    edge_density: float
    max_weight: int = 9
    feedback_edge_fraction: float = 0.0
    seed: int = 0

    def check(self) -> None:
        if self.node_count < 1:
            raise InvalidParamsError("node_count must be >= 1")
        if not 1 <= self.layer_count <= self.node_count:
            raise InvalidParamsError("layer_count must be in [1, node_count]")
        if not 0.0 < self.edge_density <= 1.0:
            raise InvalidParamsError("edge_density must be in (0, 1]")
        if self.max_weight < 1:
            raise InvalidParamsError("max_weight must be >= 1")
        if self.max_weight > MAX_WEIGHT:
            raise InvalidParamsError("max_weight must be at most 2**64")
        if not 0.0 <= self.feedback_edge_fraction < 1.0:
            raise InvalidParamsError("feedback_edge_fraction must be in [0, 1)")
        if not 0 <= self.seed < 2**64:
            raise InvalidParamsError("seed must fit in 64 bits")
        # the node count first, so summing the layers stays cheap
        if self.node_count > MAX_GENERATED_SIZE:
            raise InvalidParamsError(f"node_count must be at most {MAX_GENERATED_SIZE}")
        sizes = [b - a for a, b in pairwise(_layer_starts(self.node_count, self.layer_count))]
        if self.node_count + sum(map(mul, sizes, sizes[1:])) > MAX_GENERATED_SIZE:
            raise InvalidParamsError(
                f"node_count plus candidate pairs must be at most {MAX_GENERATED_SIZE}"
            )


@record
class FaultScenario(Value):
    root: str
    symptoms: tuple[str, ...]


class TrialMetrics(NamedTuple):
    """One trial's localization cost; ``root_rank`` is 0 on a miss."""

    candidates: int
    root_rank: int
    examined_localizer: int
    examined_baseline: int
    hit: bool


class TrialRow(NamedTuple):
    """One trial: its index, seed, root and symptom count, then its
    ``TrialMetrics``. Field names are the JSON keys and the CSV header."""

    trial: int
    seed: int
    root: str
    symptoms: int
    candidates: int
    root_rank: int
    examined_localizer: int
    examined_baseline: int
    hit: bool


@record
class ExperimentReport(Value):
    """The trial rows of one experiment and what it ran with; the trial
    count and the aggregates are read off the rows. The mean examined
    ratio is mean(baseline) / mean(localizer)."""

    params: GeneratorParams
    detect_prob: float
    root_policy: str
    rows: tuple[TrialRow, ...]

    @property
    def trials(self) -> int:
        return len(self.rows)

    @property
    def hit_rate(self) -> float:
        return sum(1 for r in self.rows if r.hit) / self.trials

    @property
    def mean_root_rank(self) -> float:
        return statistics.fmean(r.root_rank for r in self.rows)

    @property
    def median_root_rank(self) -> float:
        return float(statistics.median(r.root_rank for r in self.rows))

    @property
    def mean_examined_ratio(self) -> float:
        baseline = sum(r.examined_baseline for r in self.rows)
        return baseline / sum(r.examined_localizer for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "params": asdict(self.params),
            "model": {
                "propagation": PROPAGATION_DESCRIPTION,
                "baseline": BASELINE_DESCRIPTION,
            },
            "trials": self.trials,
            "detect_prob": self.detect_prob,
            "root_policy": self.root_policy,
            "aggregates": {
                "hit_rate": self.hit_rate,
                "mean_root_rank": self.mean_root_rank,
                "median_root_rank": self.median_root_rank,
                "mean_examined_ratio": self.mean_examined_ratio,
            },
            "rows": [r._asdict() for r in self.rows],
        }

    def to_csv(self) -> str:
        """The JSON rows under a header of their keys; ``hit`` as true/false."""
        lines = [TrialRow._fields]
        for row in self.rows:
            lines.append([str(v).lower() if isinstance(v, bool) else str(v) for v in row])
        return "".join(",".join(line) + "\n" for line in lines)

    def to_text(self) -> str:
        p = self.params
        lines = [
            "fault-injection experiment",
            f"  graph: nodes={p.node_count} layers={p.layer_count} "
            f"density={p.edge_density} feedback={p.feedback_edge_fraction} "
            f"wmax={p.max_weight} seed={p.seed}",
            f"  run: trials={self.trials} detect_prob={self.detect_prob} "
            f"root_policy={self.root_policy}",
            f"  propagation model: {PROPAGATION_DESCRIPTION}",
            f"  baseline: {BASELINE_DESCRIPTION}",
            "aggregates:",
            f"  hit_rate={self.hit_rate:.4f}",
            f"  mean_root_rank={self.mean_root_rank:.4f}",
            f"  median_root_rank={self.median_root_rank:.4f}",
            f"  mean_examined_ratio={self.mean_examined_ratio:.4f}",
        ]
        return "\n".join(lines) + "\n"


def _layer_starts(n: int, layers: int) -> list[int]:
    """First node of each layer, plus n as the end of the last one."""
    return [-(-k * n // layers) for k in range(layers + 1)]


def generate_graph(params: GeneratorParams) -> ActivityGraph:
    """Deterministic layered activity graph for the given params.

    Node i ("n{i}") sits in layer ``i * layer_count // node_count``. Pair
    and weight draws interleave in a single splitmix64 stream, in node
    order; feedback pairs are then drawn from the same stream by rejection
    from the row-major list of all later-to-earlier layer pairs, which is
    indexed arithmetically rather than built. A pair draw u is a hit when
    ``random()`` on it is below the density, tested as ``u < threshold``.
    """
    params.check()
    draws = stream(params.seed)
    hit_below = threshold(params.edge_density)
    n, layers = params.node_count, params.layer_count
    ids = [f"n{i}" for i in range(n)]
    layer = [i * layers // n for i in range(n)]
    layer_start = _layer_starts(n, layers)

    tails, heads, weights = [], [], []  # the edge columns
    for i in range(n):
        if layer[i] + 1 == layers:
            continue
        # zip reads the range first, so it stops without taking a draw
        for j, u in zip(range(layer_start[layer[i] + 1], layer_start[layer[i] + 2]), draws):
            if u < hit_below:
                tails.append(i)
                heads.append(j)
                weights.append(1 + bounded(draws, params.max_weight))
    scheduling_edges = len(tails)  # the feedback edges follow them

    # Feedback pick p indexes the later-to-earlier pairs (i, j) listed row
    # by row, j ascending; row i holds every node before i's layer.
    row_start = list(accumulate((layer_start[layer[i]] for i in range(n)), initial=0))
    pair_count = row_start[n]
    wanted = int(params.feedback_edge_fraction * scheduling_edges)
    chosen: set[int] = set()
    while len(chosen) < min(wanted, pair_count):
        pick = bounded(draws, pair_count)
        if pick in chosen:
            continue
        chosen.add(pick)
        i = bisect_right(row_start, pick) - 1
        tails.append(i)
        heads.append(pick - row_start[i])
        weights.append(1 + bounded(draws, params.max_weight))

    # valid by construction: ids, kinds and weights need no check
    kinds = [EDGE_SCHEDULING] * scheduling_edges + [EDGE_DEPENDENCY_ONLY] * (len(tails) - scheduling_edges)
    edge_ids = [f"e{k}" for k in range(len(tails))]
    return ActivityGraph._of_columns((ids, [None] * n, [KIND_AUTO] * n), (edge_ids, tails, heads, weights, kinds))


def inject(g: ActivityGraph, root: str, detect_prob: float, seed: int) -> FaultScenario:
    """Propagate a fault at ``root`` to every node that transitively
    depends on it: the nodes that pull the root's one-hot seed through
    ``g.dependency_condensation``. Each affected node except the
    root joins the symptom set independently with probability
    ``detect_prob``: one `rng.stream` draw each, in node order. The root
    always self-detects."""
    r = g.position(root)
    if not 0.0 < detect_prob <= 1.0:
        raise InvalidParamsError("detect_prob must be in (0, 1]")
    seeds = [0] * len(g.node_ids)
    seeds[r] = 1
    affected = g.dependency_condensation.pull(seeds)
    draws = stream(seed)
    detected_below = threshold(detect_prob)
    symptoms = tuple(
        node for v, node in enumerate(g.node_ids)
        if v == r or (affected[v] and next(draws) < detected_below)
    )
    return FaultScenario._made(root=root, symptoms=symptoms)


def run_trial(g: ActivityGraph, scenario: FaultScenario) -> TrialMetrics:
    """Localize the scenario's symptoms (all-edges view) and compare the
    examined-node cost against the exhaustive baseline."""
    report = localize(g, scenario.symptoms, view=VIEW_ALL)
    ranked, root = report.ranked, g.position(scenario.root)
    hit = root in ranked
    return TrialMetrics(
        candidates=len(ranked),
        root_rank=ranked.index(root) + 1 if hit else 0,
        examined_localizer=report.nodes_examined,
        examined_baseline=len(g.node_ids),
        hit=hit,
    )


def run_experiment(
    params: GeneratorParams,
    trials: int,
    detect_prob: float,
    root_policy: str = ROOT_CRITICAL_ONLY,
) -> ExperimentReport:
    """Run seeded independent trials, one report row each.

    Trial i derives its seed from the experiment seed, then a fresh graph,
    root choice (uniform over critical nodes or over all nodes) and
    injection stream from the trial seed. The root pool and localization
    share the graph's one schedule, injection and localization its one
    dependency condensation.
    """
    params.check()
    if trials < 1:
        raise InvalidParamsError("trials must be >= 1")
    if not 0.0 < detect_prob <= 1.0:
        raise InvalidParamsError("detect_prob must be in (0, 1]")
    if root_policy not in ROOT_POLICIES:
        raise InvalidParamsError(f"unknown root policy: {root_policy!r}")

    rows: list[TrialRow] = []
    for index in range(trials):
        trial_seed = derive_seed(params.seed, index)
        graph = generate_graph(params._made(vars(params), seed=derive_seed(trial_seed, 0)))  # params checked above
        root_rng = SplitMix64(derive_seed(trial_seed, 1))
        pool = compute_schedule(graph).critical_nodes if root_policy == ROOT_CRITICAL_ONLY else graph.node_ids
        root = pool[root_rng.below(len(pool))]
        scenario = inject(graph, root, detect_prob, derive_seed(trial_seed, 2))
        metrics = run_trial(graph, scenario)
        rows.append(TrialRow(index, trial_seed, root, len(scenario.symptoms), *metrics))
    return ExperimentReport(params, detect_prob, root_policy, tuple(rows))

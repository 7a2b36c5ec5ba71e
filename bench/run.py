"""depmat benchmark: end-to-end metrics per workload, per-layer metrics from
a traced run.

    python3 bench/run.py --workload simulate --seed 1 --seconds 25 --trace 0

Each workload is a closed loop with one client, in this process, with no
threads: it calls ``depmat.cli.main(argv)`` with stdout captured, on input
files it writes itself under ``.bench_work/``. Every op's output is checked
against an independent oracle outside the timed region. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs a fixed op list once
untraced and once traced (see tracing.py) and prints the per-layer
metrics. The last line of stdout is the JSON result. See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import process_time
from typing import Callable

import inputs
from tracing import SPANNED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = ROOT / "tests" / "goldens" / "benchmark_report.json"
SETUP_REPEATS = 5


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[str], str | None]  # error message, or None when correct


def _json_check(validate):
    """Wrap a check of the parsed JSON output so bad JSON is a failure."""

    def check(out: str) -> str | None:
        try:
            return validate(json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"

    return check


# --- workloads ------------------------------------------------------------


class Simulate:
    """The criterion-7 experiment family: each op is a fresh 10-trial
    simulate run with its own seed."""

    name = "simulate"
    kinds = ("simulate",)
    trace_rounds = 3
    ARGS = [
        "simulate", "--nodes", "200", "--layers", "10", "--density", "0.05",
        "--feedback", "0.02", "--detect-prob", "0.9",
        "--root-policy", "critical_only",
    ]
    TRIALS = 10

    def __init__(self, seed: int):
        self.seed = seed
        argvs = [self.round(r)[0].argv for r in range(self.trace_rounds)]
        self.input_digest = inputs.digest(json.dumps(argvs).encode())
        self.info = {"nodes": 200, "trials_per_op": self.TRIALS, "files": []}
        self.paths = []

    def _op(self, tag: str) -> Op:
        op_seed = random.Random(f"simulate:{self.seed}:{tag}").getrandbits(63)
        argv = self.ARGS + [
            "--trials", str(self.TRIALS), "--seed", str(op_seed), "--format", "json"
        ]
        return Op("simulate", argv, _json_check(lambda doc: self._validate(doc, op_seed)))

    def warmup(self) -> list[Op]:
        return [self._op("warmup")]

    def round(self, index: int) -> list[Op]:
        return [self._op(str(index))]

    def _validate(self, doc: dict, op_seed: int) -> str | None:
        rows = doc["rows"]
        if doc["params"]["seed"] != op_seed or doc["trials"] != self.TRIALS:
            return "params not echoed"
        if [r["trial"] for r in rows] != list(range(self.TRIALS)):
            return "wrong trial rows"
        for r in rows:
            if not r["hit"]:
                return f"trial {r['trial']} missed its root"
            if not 1 <= r["root_rank"] <= r["candidates"]:
                return f"trial {r['trial']}: root_rank out of range"
            if r["examined_localizer"] > r["examined_baseline"]:
                return f"trial {r['trial']}: localizer examined more than the baseline"
        ranks = [r["root_rank"] for r in rows]
        expected = {
            "hit_rate": sum(r["hit"] for r in rows) / len(rows),
            "mean_root_rank": statistics.fmean(ranks),
            "median_root_rank": float(statistics.median(ranks)),
            "mean_examined_ratio": sum(r["examined_baseline"] for r in rows)
            / sum(r["examined_localizer"] for r in rows),
        }
        if doc["aggregates"] != expected:
            return "aggregates do not recompute from the rows"
        return None

    def extra_ops(self) -> list[Op]:
        """Checked once per traced run: the seed-42, 100-trial experiment
        must match the repo's golden report."""
        golden = json.loads(GOLDEN.read_text())
        argv = self.ARGS + ["--trials", "100", "--seed", "42", "--format", "json"]
        return [Op("golden", argv, _json_check(
            lambda doc: None if doc == golden else "differs from the golden report"
        ))]


class Analyst:
    """One 1,000-activity file, queried by localize and closure export in
    alternation. The graph's structure is fixed; the seed draws its node
    numbering and edge order and the queries."""

    name = "analyst"
    kinds = ("localize", "matrix")
    trace_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        project = inputs.relabeled(
            inputs.layered_project(random.Random("analyst"), 1000, 20, 0.05, 0.02),
            random.Random(f"analyst:{seed}"),
        )
        self.path = WORK / f"analyst-{seed}.json"
        self.paths = [self.path]
        size, self.input_digest = project.write(self.path)
        self.info = {
            "nodes": project.node_count,
            "files": [{"edges": len(project.edges), "bytes": size,
                       "sha256": self.input_digest}],
        }
        succ = project.successors()
        self.pred = inputs.predecessors(succ)
        self.ids = project.ids()
        self.masks = inputs.reach_masks(succ)
        rows = inputs.closure_rows(self.masks)
        self.expected_csv = inputs.closure_csv(self.ids, rows)
        # Each round asks one query rooted among the 5% of nodes with the
        # fewest dependents and three rooted in the half with the most, so
        # every run asks the same mix of small and large symptom sets.
        n = project.node_count
        dependent_count = [col.count("1") - (rows[j][j] == "1") for j, col in enumerate(zip(*rows))]
        ranked = sorted(range(n), key=lambda v: (dependent_count[v], v))
        self.small, self.large = ranked[:n // 20], ranked[n // 2:]

    def _localize(self, tag: str, stratum: list[int]) -> Op:
        rng = random.Random(f"analyst:{self.seed}:{tag}")
        root = rng.choice(stratum)
        symptoms = sorted([root] + [v for v in inputs.dependents(self.pred, root)
                                    if rng.random() < 0.9])
        expected = 0
        for s in symptoms:
            expected |= self.masks[s] | (1 << s)
        argv = ["localize", str(self.path), "--symptoms",
                ",".join(self.ids[s] for s in symptoms), "--format", "json"]
        return Op("localize", argv, _json_check(
            lambda doc: self._validate_localize(doc, symptoms, expected)))

    def _validate_localize(self, doc: dict, symptoms: list[int], expected: int) -> str | None:
        if doc["symptoms"] != [self.ids[s] for s in symptoms]:
            return "symptoms not echoed"
        got = 0
        for c in doc["candidates"]:
            got |= 1 << int(c["node"][1:])
        if got != expected or len(doc["candidates"]) != bin(expected).count("1"):
            return "candidate set differs from BFS reachability"
        return None

    def _matrix(self) -> Op:
        argv = ["matrix", str(self.path), "--kind", "closure", "--format", "csv"]
        return Op("matrix", argv, lambda out: None if out == self.expected_csv
                  else "closure CSV differs from BFS reachability")

    def warmup(self) -> list[Op]:
        return [self._localize("warmup", self.small), self._matrix()]

    def round(self, index: int) -> list[Op]:
        roots = [self.small, self.large, self.large, self.large]
        random.Random(f"analyst:{self.seed}:order:{index}").shuffle(roots)
        ops = []
        for k, stratum in enumerate(roots):
            ops.append(self._localize(f"{index}:{k}", stratum))
            ops.append(self._matrix())
        return ops

    def extra_ops(self) -> list[Op]:
        return []


class CpmLarge:
    """Critical-path schedules of four 20,000-activity files, in turn. Their
    structures are fixed, because the number of critical paths, and with it
    an op's time and memory, has a heavy tail over generated structures; the
    seed draws each file's node numbering and edge order."""

    name = "cpm-large"
    kinds = ("cpm",)
    trace_rounds = 1
    FILES = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.paths, self.oracles, files = [], [], []
        for k in range(self.FILES):
            project = inputs.relabeled(
                inputs.layered_project(
                    random.Random(f"cpm-large:{k}"), 20000, 200, 0.03, 0.02, dummy=0.05
                ),
                random.Random(f"cpm-large:{seed}:{k}"),
            )
            path = WORK / f"cpm-large-{seed}-{k}.json"
            size, sha = project.write(path)
            self.paths.append(path)
            self.oracles.append(inputs.longest_path_schedule(project))
            files.append({"edges": len(project.edges), "bytes": size, "sha256": sha})
        self.ids = project.ids()
        self.input_digest = inputs.digest("".join(f["sha256"] for f in files).encode())
        self.info = {"nodes": project.node_count, "files": files}

    def _op(self, k: int) -> Op:
        oracle = self.oracles[k]
        return Op("cpm", ["cpm", str(self.paths[k]), "--format", "json"],
                  _json_check(lambda doc: self._validate(doc, oracle)))

    def _validate(self, doc: dict, oracle: inputs.Cpm) -> str | None:
        nodes = doc["nodes"]
        if doc["duration"] != oracle.duration:
            return "duration differs from the longest-path DP"
        if [v["id"] for v in nodes] != self.ids:
            return "node order differs"
        for field in ("earliest", "latest", "slack"):
            if [v[field] for v in nodes] != getattr(oracle, field):
                return f"{field} differs from the longest-path DP"
        if doc["critical_nodes"] != [self.ids[v] for v in oracle.critical]:
            return "critical set differs from the longest-path DP"
        return None

    def warmup(self) -> list[Op]:
        return [self._op(0)]

    def round(self, index: int) -> list[Op]:
        return [self._op(k) for k in range(self.FILES)]

    def extra_ops(self) -> list[Op]:
        return []


WORKLOADS = {w.name: w for w in (Simulate, Analyst, CpmLarge)}


# --- running ops ----------------------------------------------------------


def execute(cli, argv: list[str]) -> tuple[float, int, str]:
    """One op: latency in seconds, exit code, and the captured stdout (or
    stderr, when the exit code is not 0)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = process_time()
        code = cli.main(argv)
        latency = process_time() - start
    return latency, code, (out if code == 0 else err).getvalue()


def verdict(op: Op, code: int, out: str) -> str | None:
    return f"exit code {code}: {out.strip()[:200]}" if code != 0 else op.check(out)


class Tally:
    """Checked ops and the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, op: Op, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.kind}: {error}")


def set_up(workload, tally: Tally):
    """Import depmat.cli afresh and run the untimed warm-up ops."""
    for name in [m for m in sys.modules if m == "depmat" or m.startswith("depmat.")]:
        del sys.modules[name]
    start = process_time()
    cli = importlib.import_module("depmat.cli")
    results = [(op, execute(cli, op.argv)) for op in workload.warmup()]
    elapsed = process_time() - start
    for op, (_, code, out) in results:
        tally.record(op, verdict(op, code, out))
    return cli, elapsed


def run_extra(workload, cli, tally: Tally) -> None:
    for op in workload.extra_ops():
        _, code, out = execute(cli, op.argv)
        tally.record(op, verdict(op, code, out))


def _ms(latencies: list[float], percentile: int) -> float:
    """A percentile of the latencies, in milliseconds."""
    if len(latencies) == 1:
        return latencies[0] * 1000.0
    return statistics.quantiles(latencies, n=100)[percentile - 1] * 1000.0


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload, seconds: float) -> dict:
    """Closed loop over whole rounds until the ops have taken ``seconds``
    of process time. The set-ups are spread evenly over the run, so their
    median samples the same stretch of time as the ops."""
    tally = Tally()
    rss_inputs = _peak_rss_mib()
    setups: list[float] = []
    latencies: dict[str, list[float]] = {k: [] for k in workload.kinds}
    symptom_counts = []
    timed = 0.0
    index = 0
    while timed < seconds:
        for op in workload.round(index):
            if len(setups) < SETUP_REPEATS and timed >= len(setups) * seconds / SETUP_REPEATS:
                cli, setup_s = set_up(workload, tally)
                setups.append(setup_s)
            latency, code, out = execute(cli, op.argv)
            tally.record(op, verdict(op, code, out))
            latencies[op.kind].append(latency)
            timed += latency
            if op.kind == "localize":
                symptom_counts.append(op.argv[3].count(",") + 1)
            del out
        index += 1
    peak = _peak_rss_mib()

    every = [t for kind in workload.kinds for t in latencies[kind]]
    kind_p75 = [_ms(latencies[k], 75) for k in workload.kinds]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p75_ms": (_ms(every, 75), "ms"),
        "kind_a_p75_ms": (kind_p75[0], "ms"),
        "kind_b_p75_ms": (kind_p75[-1], "ms"),
        "peak_rss_mib": (peak, "MiB"),
        "success_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
    }
    detail = {
        "ops": {k: len(v) for k, v in latencies.items()},
        "ops_per_s": len(every) / timed,
        "p50_ms": {k: _ms(v, 50) for k, v in latencies.items()},
        "p75_ms": dict(zip(workload.kinds, kind_p75)),
        "latencies_s": latencies,
        "timed_s": timed,
        "rounds": index,
        "setup_runs_s": setups,
        "rss_after_inputs_mib": rss_inputs,
        "error_rate": tally.failed / tally.attempted,
    }
    if symptom_counts:
        detail["symptoms"] = {
            "min": min(symptom_counts),
            "p50": statistics.median(symptom_counts),
            "max": max(symptom_counts),
        }
    return {"tally": tally, "metrics": metrics, "detail": detail}


def traced_run(workload) -> dict:
    """Run the first ``trace_rounds`` rounds untraced and traced, op by op,
    and require identical stdout from both."""
    tally = Tally()
    cli, _ = set_up(workload, tally)
    tracer = Tracer()
    overhead = 0.0
    stdout_bytes = 0
    ops = [op for r in range(workload.trace_rounds) for op in workload.round(r)]
    for index, op in enumerate(ops):
        plain_s, plain_code, plain_out = execute(cli, op.argv)
        tracer.op = index
        with tracer.installed():
            traced_s, code, out = execute(cli, op.argv)
        error = verdict(op, code, out)
        if error is None and (code, out) != (plain_code, plain_out):
            error = "stdout differs with tracing on"
        tally.record(op, error)
        overhead += traced_s - plain_s
        stdout_bytes += len(out.encode())
    run_extra(workload, cli, tally)
    tracer.write(WORK / f"spans-{workload.name}-{workload.seed}.json")

    calls, self_s, counters = tracer.calls(), tracer.self_times(), tracer.counters
    metrics = {}
    for module, attr in SPANNED:
        name = f"{module}.{attr}"
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    trials = counters["simulation.trials"]
    scanned = counters["localization.scanned"]
    metrics.update({
        "matrices.closure_cells": (counters["matrices.closure_cells"], "count"),
        "schedule.topo_passes": (counters["schedule.topo_passes"], "count"),
        "schedule.critical_paths": (counters["schedule.critical_paths"], "count"),
        "fileio.input_bytes": (counters["fileio.input_bytes"], "bytes"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "localization.candidates": (counters["localization.candidates"], "count"),
        "localization.examined_ratio": (
            counters["localization.examined"] / scanned if scanned else 0.0, "ratio"),
        "simulation.trials": (trials, "count"),
        "simulation.hit_rate": (counters["simulation.hits"] / trials if trials else 0.0, "ratio"),
        "rng.draws": (counters["rng.draws"], "count"),
        "trace.ops": (len(ops), "count"),
        "trace.overhead_s": (overhead, "s"),
    })
    return {"tally": tally, "metrics": metrics, "detail": {"ops": len(ops)}}


# --- reporting ------------------------------------------------------------


def _commit() -> str:
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    sources = sorted((SRC / "depmat").glob("*.py"))
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "src_sha256": inputs.digest(b"".join(p.read_bytes() for p in sources)),
    }


def remove_inputs(workload) -> None:
    """Delete the workload's generated input files."""
    for path in workload.paths:
        path.unlink(missing_ok=True)


def prepare() -> bool:
    """Put the checkout's depmat sources first on the import path and make
    the work directory; False, with a message, when there are no sources."""
    if not (SRC / "depmat" / "cli.py").is_file():
        print(f"error: depmat sources not found under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True
    WORK.mkdir(exist_ok=True)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare():
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    try:
        result = traced_run(workload) if args.trace else timed_run(workload, args.seconds)
    finally:
        remove_inputs(workload)
    tally = result["tally"]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "loop": "closed, 1 client",
        "machine": machine(),
        "inputs": dict(workload.info, sha256=workload.input_digest),
        "detail": result["detail"],
        "errors": tally.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    out = WORK / f"result-{workload.name}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:42s} {value!r:>24} {unit}")
    print("record " + json.dumps({k: record[k] for k in ("machine", "inputs", "detail", "errors")}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

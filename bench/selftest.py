"""Self-test of the benchmark itself.

    python3 bench/selftest.py

For each workload: one seed must give identical input bytes and identical
exact counts in two traced runs, another seed must give other inputs, and
every traced op must pass its check. Exits 1 on any failure.
"""

from __future__ import annotations

import sys

import run

EXACT = (
    "rng.draws",
    "schedule.critical_paths",
    "localization.candidates",
    "localization.examined_ratio",
    "simulation.hit_rate",
)


def check(name: str, seed: int = 11) -> list[str]:
    workload = run.WORKLOADS[name]
    first, second, other = workload(seed), workload(seed), workload(seed + 1)
    failures = []
    if first.input_digest != second.input_digest:
        failures.append("the same seed gave different inputs")
    if first.input_digest == other.input_digest:
        failures.append("another seed gave the same inputs")
    results = [run.traced_run(w) for w in (first, second)]
    for w in (first, other):
        run.remove_inputs(w)
    for result in results:
        failures.extend(result["tally"].errors)
    for key in EXACT:
        values = [r["metrics"][key][0] for r in results]
        if values[0] != values[1]:
            failures.append(f"{key} differs between runs: {values}")
    counts = {key: results[0]["metrics"][key][0] for key in EXACT}
    print(f"{name}: inputs {first.input_digest[:16]}, counts {counts}")
    return [f"{name}: {f}" for f in failures]


def main() -> int:
    if not run.prepare():
        return 2
    failures = [f for name in run.WORKLOADS for f in check(name)]
    for failure in failures:
        print("FAIL", failure)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

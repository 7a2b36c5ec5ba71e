"""Per-layer spans and counters, recorded from outside depmat.

``Tracer.installed()`` rebinds every binding of the traced functions in
each loaded ``depmat.*`` module namespace (so ``depmat.graph.X`` and
``depmat.matrices.X`` are both caught when one module imported the other's
function) and restores them on exit. Spans stay in memory; self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function) pairs that get a span per call.
SPANNED = (
    ("cli", "main"),
    ("fileio", "parse_graph"),
    ("fileio", "matrix_csv"),
    ("graph", "build_graph"),
    ("graph", "scheduling_subgraph"),
    ("graph", "strongly_connected_components"),
    ("matrices", "dependency_matrix"),
    ("matrices", "transitive_closure"),
    ("matrices", "condense_sccs"),
    ("schedule", "compute_schedule"),
    ("schedule", "forward_pass"),
    ("schedule", "backward_pass"),
    ("schedule", "classify_activities"),
    ("localization", "localize"),
    ("localization", "candidate_set"),
    ("localization", "independent_faults"),
    ("simulation", "run_experiment"),
    ("simulation", "generate_graph"),
    ("simulation", "inject"),
    ("simulation", "run_trial"),
)

# Counted without spans: too frequent, or private helpers whose time
# belongs to their caller.
COUNTED = (("schedule", "_topological_order", "schedule.topo_passes"),)


def _observe(tracer: "Tracer", name: str, args: tuple, result) -> None:
    """Counters read off a traced call's arguments and result."""
    c = tracer.counters
    if name == "matrices.transitive_closure":
        c["matrices.closure_cells"] += len(args[0].node_ids) ** 2
    elif name == "schedule.compute_schedule":
        c["schedule.critical_paths"] += len(result.paths)
    elif name == "fileio.parse_graph":
        c["fileio.input_bytes"] += len(args[0])
    elif name == "localization.localize":
        c["localization.candidates"] += len(result.candidates)
        c["localization.examined"] += result.nodes_examined
        c["localization.scanned"] += len(result.node_ids)
    elif name == "simulation.run_trial":
        c["simulation.trials"] += 1
        c["simulation.hits"] += int(result.hit)


class Tracer:
    """Span recorder for one traced run. ``op`` is the id stamped on new
    spans; set it before each op."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []

    def _spanned(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            _observe(self, name, args, result)
            return result

        return wrapper

    def _counted(self, fn, counter: str):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        modules = [
            m for name, m in sys.modules.items()
            if name == "depmat" or name.startswith("depmat.")
        ]
        replacements = {}
        for module, attr in SPANNED:
            fn = getattr(sys.modules[f"depmat.{module}"], attr)
            replacements[id(fn)] = self._spanned(fn, f"{module}.{attr}")
        for module, attr, counter in COUNTED:
            fn = getattr(sys.modules[f"depmat.{module}"], attr, None)
            if fn is not None:
                replacements[id(fn)] = self._counted(fn, counter)
        rebound = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    rebound.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)])
        rng_class = sys.modules["depmat.rng"].SplitMix64
        next_u64 = rng_class.next_u64
        rng_class.next_u64 = self._counted(next_u64, "rng.draws")
        try:
            yield self
        finally:
            rng_class.next_u64 = next_u64
            for module, attr, value in rebound:
                setattr(module, attr, value)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus time covered by child spans."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        totals: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, own):
            totals[s[0]] += t
        return totals

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s[0]] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans},
                handle,
            )

"""Span tracing of the ``iotnet`` layers, installed from outside the package.

Each traced function is replaced, at every ``iotnet`` module attribute that
refers to it, by a wrapper that records a span (group, function, start, end,
parent).  Calls between modules go through those attributes, so nested layer
calls become child spans.  A layer's self time is its spans' durations minus
the time their direct children cover.  Wrappers are installed only around
traced rounds and removed afterwards, so untraced rounds run the package
untouched.  A function that cannot be found is reported as missing instead of
failing the run.  The root span ``cli`` wraps each ``iotnet.cli.main`` call, so
its self time is the operation wall time that no other span covers.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from collections import defaultdict

# group -> (module, function) pairs; the group is the metric prefix
GROUPS: dict[str, tuple[tuple[str, str], ...]] = {
    "network.enumerate_paths": (("network", "enumerate_paths"),),
    "network.path_costs": (("network", "path_costs"),),
    "network.other": (("network", "markov_model_from_network"),
                      ("network", "reprice"), ("network", "load_network")),
    "fixtures": (("fixtures", "synthetic30"), ("fixtures", "risk30")),
    "spectral.build_rb_prior": (("spectral", "build_rb_prior"),),
    "imitation.expand_target": (("imitation", "expand_target"),),
    "imitation.prior": (("imitation", "imitation_prior_markov"),
                        ("imitation", "imitation_prior_paths")),
    "imitation.solve_iot": (("imitation", "solve_iot"),),
    "imitation.edge_usage_from_law": (("imitation", "edge_usage_from_law"),),
    "imitation.evaluate_objective_terms": (("imitation",
                                            "evaluate_objective_terms"),),
    "bridge.sinkhorn": (("bridge", "sinkhorn_markov"),
                        ("bridge", "sinkhorn_path")),
    "bridge.path_law": (("bridge", "markov_path_law"),
                        ("bridge", "path_law_from_endpoint")),
    "oracle.lp_ot": (("oracle", "lp_ot"),),
    "scenario": (("scenario", "load_scenario"), ("scenario", "run_scenario"),
                 ("scenario", "run_risk_scenario"),
                 ("scenario", "run_imitation_scenario"),
                 ("scenario", "plan_report"), ("scenario", "emit_report")),
    "fileio.load": (("fileio", "load_marginal"),
                    ("fileio", "load_path_distribution"),
                    ("fileio", "load_step_weights")),
    "fileio.write_plan": (("fileio", "write_plan"),),
    "fileio.read_plan": (("fileio", "read_plan"),),
    "robust.worst_case_certificate": (("robust", "worst_case_certificate"),),
    # the command's own code: argument parsing, and each handler's inline
    # work such as aligning a plan's paths with a target
    "cli.parser": (("cli", "build_parser"),),
    "cli.command": (("cli", "_cmd_solve"), ("cli", "_cmd_scenario"),
                    ("cli", "_cmd_robust_cert")),
}
ROOT = "cli"


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.rounds = 0
        self.paths = 0
        self.iterations = 0
        self.cost_calls = 0
        self.cost_distinct = 0
        self._cost_keys: set = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "iotnet"
                                         or name.startswith("iotnet."))]
        missing = []
        for group, targets in GROUPS.items():
            for mod_name, fn_name in targets:
                try:
                    fn = getattr(importlib.import_module(f"iotnet.{mod_name}"),
                                 fn_name)
                except (ImportError, AttributeError):
                    missing.append(f"iotnet.{mod_name}.{fn_name}")
                    continue
                wrapper = self._wrap(group, fn_name, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patched.append((module, attr, value))
                            setattr(module, attr, wrapper)
        self.missing = missing

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def begin_round(self) -> None:
        self.rounds += 1
        self._cost_keys = set()

    # -- spans --------------------------------------------------------------

    def _open(self, group: str, fn_name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": group, "fn": fn_name, "parent": parent,
                           "start": time.perf_counter(), "end": None})
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def root(self, fn, *args):
        """Call ``fn`` under a root span (one per benchmark operation)."""
        index = self._open(ROOT, fn.__name__)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, group: str, fn_name: str, fn):
        def traced(*args, **kwargs):
            index = self._open(group, fn_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self._count(group, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn_name
        return traced

    def _count(self, group: str, args: tuple, result) -> None:
        if group == "network.enumerate_paths":
            self.paths += result.size
        elif group == "bridge.sinkhorn":
            self.iterations += int(result.iterations)
        elif group == "network.path_costs":
            # distinct cost vectors over one space, per round
            key = (id(args[0]), hashlib.blake2b(result.tobytes(),
                                                digest_size=16).digest())
            self.cost_calls += 1
            if key not in self._cost_keys:
                self._cost_keys.add(key)
                self.cost_distinct += 1

    # -- summaries ----------------------------------------------------------

    def _child_time(self) -> dict[int, float]:
        child = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        return child

    def self_times(self) -> dict[str, float]:
        child = self._child_time()
        out = defaultdict(float)
        for k, span in enumerate(self.spans):
            out[span["name"]] += span["end"] - span["start"] - child[k]
        return out

    def calls(self) -> dict[str, int]:
        out = defaultdict(int)
        for span in self.spans:
            out[span["name"]] += 1
        return out

    def coverage(self) -> list[float]:
        """Share of each root span's wall time covered by its child spans."""
        child = self._child_time()
        out = []
        for k, span in enumerate(self.spans):
            if span["name"] == ROOT:
                wall = span["end"] - span["start"]
                out.append(child[k] / wall if wall > 0 else 1.0)
        return out

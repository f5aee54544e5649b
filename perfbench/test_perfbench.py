"""Self-tests of the benchmark at minimal size.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [p for p in (ROOT, os.path.join(ROOT, "src")) if p not in sys.path]

import iotnet.cli  # noqa: E402
import iotnet.network  # noqa: E402
from perfbench import checks, inputs, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def _call(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return iotnet.cli.main(argv)


def _solved_synthetic(tmp_path, alpha: float = 80.0):
    wl = workloads.alpha_sweep(str(tmp_path), seed=3, alphas=(alpha,))
    op = next(op for op in wl.ops if "synthetic30" in op.label)
    os.makedirs(op.out_dir)
    assert _call(op.argv) == 0
    return op


def test_plan_check_passes_and_catches_a_corrupted_plan(tmp_path):
    op = _solved_synthetic(tmp_path)
    assert op.check() == ([], {})

    plan_file = os.path.join(op.out_dir, "plan.txt")
    with open(plan_file, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    # move one path's mass onto a path from another start node
    rows = [k for k, line in enumerate(lines) if ">" in line.split("\t")[0]]
    first = lines[rows[0]].split("\t")
    other = next(k for k in rows
                 if lines[k].split(">")[0] != first[0].split(">")[0])
    moved = lines[other].split("\t")
    moved[1] = repr(float(moved[1]) + float(first[1]))
    first[1] = "0.0"
    lines[rows[0]], lines[other] = "\t".join(first), "\t".join(moved)
    with open(plan_file, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    problems, _ = op.check()
    assert any("start marginal" in p for p in problems)


def test_certificate_check_catches_a_bound_violation(tmp_path):
    op = _solved_synthetic(tmp_path)
    plan_file = os.path.join(op.out_dir, "plan.txt")
    paths = checks.parse_plan(plan_file)["paths"]
    nominal = sum(p * c for p, c in paths.values()) / sum(p for p, _ in paths.values())
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"nominal_cost": nominal,
                                "worst_case_cost": nominal + 1.0}))
    assert checks.check_certificate(str(cert), plan_file) == []
    cert.write_text(json.dumps({"nominal_cost": nominal,
                                "worst_case_cost": nominal - 1.0}))
    assert checks.check_certificate(str(cert), plan_file)


def test_on_plan_certificate_runs_and_passes_its_check(tmp_path):
    op = _solved_synthetic(tmp_path)
    on_plan = next(f for f in op.follow if f.label.endswith("on-plan"))
    os.makedirs(on_plan.out_dir)
    on_plan.prepare()
    assert _call(on_plan.argv) == 0
    problems, observed = on_plan.check()
    assert problems == [] and len(observed["target_sha256"]) == 64


def test_inputs_depend_on_the_seed_only(tmp_path):
    def hashes(seed: int, sub: str) -> dict:
        work = tmp_path / sub
        work.mkdir()
        wl = workloads.alpha_sweep(str(work), seed=seed, alphas=(10.0,))
        return {k: inputs.sha256_file(v) for k, v in wl.inputs.items()}

    base = hashes(5, "a")
    assert hashes(5, "b") == base
    changed = {k for k, v in hashes(6, "c").items() if base[k] != v}
    # the uniform target lives on the fixed path space; the masses move
    assert changed == {"risk30_nu0", "risk30_nuT", "risk30_rq",
                       "synthetic30_nu0", "synthetic30_nuT"}


def test_keyed_weights_ignore_enumeration_order():
    path = (1, 2, 2, 5)
    assert inputs.keyed_weight(4, path) == inputs.keyed_weight(4, path)
    assert 0.5 <= inputs.keyed_weight(4, path) < 1.5
    assert inputs.keyed_weight(4, path) != inputs.keyed_weight(5, path)


def test_tracer_records_layers_and_restores_the_package(tmp_path):
    wl = workloads.alpha_sweep(str(tmp_path), seed=1, alphas=(80.0,))
    original = iotnet.network.path_costs
    tracer = Tracer()
    tracer.install()
    tracer.begin_round()
    try:
        for op in wl.ops:
            os.makedirs(op.out_dir)
            with contextlib.redirect_stdout(io.StringIO()):
                code = tracer.root(iotnet.cli.main, op.argv)
            assert code == 0
        on_plan = wl.ops[-1].follow[-1]
        os.makedirs(on_plan.out_dir)
        on_plan.prepare()
        with contextlib.redirect_stdout(io.StringIO()):
            assert tracer.root(iotnet.cli.main, on_plan.argv) == 0
    finally:
        tracer.uninstall()
    assert iotnet.network.path_costs is original
    assert iotnet.cli.enumerate_paths is iotnet.network.enumerate_paths
    assert tracer.missing == []
    names = {span["name"] for span in tracer.spans}
    assert {"cli", "network.enumerate_paths", "network.path_costs",
            "spectral.build_rb_prior", "bridge.sinkhorn",
            "fileio.write_plan", "fileio.read_plan",
            "robust.worst_case_certificate"} <= names
    assert min(tracer.coverage()) > 0.9
    self_s = tracer.self_times()
    total = sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == "cli")
    assert abs(sum(self_s.values()) - total) < 1e-6
    assert tracer.iterations > 0 and tracer.paths > 0


def test_a_renamed_function_is_reported_not_fatal(monkeypatch):
    from perfbench import tracing
    monkeypatch.setitem(tracing.GROUPS, "network.gone",
                        (("network", "no_such_function"),))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["iotnet.network.no_such_function"]

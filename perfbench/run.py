"""Benchmark of the ``iot`` command line: scenario runs and an alpha sweep.

Usage, from the repository root::

    python3 perfbench/run.py --workload risk30-t5 --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 32

Each workload is a closed loop with one caller: ``iotnet.cli.main(argv)`` is
called in this process, one operation after another, on inputs generated from
``--seed``, and every output is checked.  Rounds repeat until the next one
would overrun ``--seconds``; timings are medians over rounds.  The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  Details -- environment, input hashes, every
refused or wrong operation, spans -- go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 15
SETUP_CODE = "import iotnet, iotnet.cli"


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


if not os.path.isfile(os.path.join(SRC, "iotnet", "__init__.py")):
    _die(f"no iotnet package under {SRC}; run from a full checkout")
sys.path[:0] = [ROOT, SRC]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import iotnet.cli  # noqa: E402
from perfbench import inputs  # noqa: E402
from perfbench.tracing import GROUPS, ROOT as ROOT_SPAN, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------


def run_op(op, tracer: Tracer | None) -> dict:
    """Run one ``iot`` call and classify it.

    ``ok``: exit 0 and outputs pass their check.  ``refused``: exit 1 or 2
    with an ``error:`` message (the program's own honest failure).
    ``wrong``: exit 0 but a check failed.  ``crashed``: anything else.
    """
    shutil.rmtree(op.out_dir, ignore_errors=True)
    os.makedirs(op.out_dir)
    if op.prepare is not None:
        op.prepare()
    out, err = io.StringIO(), io.StringIO()
    crash = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                code = iotnet.cli.main(op.argv)
            else:
                code = tracer.root(iotnet.cli.main, op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # noqa: BLE001 - a crash is a result to report
        code, crash = None, traceback.format_exc(limit=4)
    elapsed = time.perf_counter() - start

    last = (err.getvalue().strip().splitlines() or [""])[-1]
    found = re.search(r"\bpaths=(\d+)", out.getvalue())
    result = {"label": op.label, "kind": op.kind, "seconds": elapsed,
              "code": code, "observed": {},
              "paths": int(found.group(1)) if found else None}
    if code == 0:
        try:
            problems, result["observed"] = op.check()
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        result["status"] = "wrong" if problems else "ok"
        result["problems"] = problems
    elif code in (1, 2) and last.startswith("error:"):
        # warnings may precede the message; the CLI's error line is last
        result["status"] = "refused"
        result["problems"] = [last]
    else:
        result["status"] = "crashed"
        result["problems"] = [crash or f"exit code {code!r}: {err.getvalue()!r}"]
    return result


def run_round(workload, tracer: Tracer | None) -> list[dict]:
    results = []
    for op in workload.ops:
        res = run_op(op, tracer)
        results.append(res)
        if res["status"] == "ok":
            results.extend(run_op(follow, tracer) for follow in op.follow)
    return results


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters importing the package and its CLI."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)   # compiles bytecode
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def timed_rounds(workload, seconds: float, traced: bool):
    """Rounds until the next would overrun; alternates tracing when traced."""
    rounds = []          # (traced?, wall seconds of its calls, results)
    tracer = Tracer() if traced else None
    deadline = time.perf_counter() + seconds
    lengths = []
    while True:
        use = traced and len(rounds) % 2 == 1
        if use:
            tracer.install()
            tracer.begin_round()
        begin = time.perf_counter()
        try:
            results = run_round(workload, tracer if use else None)
        finally:
            if use:
                tracer.uninstall()
        lengths.append(time.perf_counter() - begin)
        rounds.append((use, sum(r["seconds"] for r in results), results))
        need_traced = traced and not any(u for u, _, _ in rounds)
        if not need_traced and (time.perf_counter() + statistics.median(lengths)
                                > deadline):
            return rounds, tracer


def call_seconds(workload, rounds) -> float:
    """Each primary call's median over rounds, geometric mean over the round's
    primary calls.  A plain median over a sweep's calls would sit between its
    two clusters of call times (one per network) and swing with the noisiest
    call on either side.

    Reported, not a result metric: on ``alpha-sweep`` the short calls spread
    past the largest bound allowed (see NOTES.md), and on the scenario
    workloads it equals ``round_s``."""
    calls = {}
    for _, _, res in rounds:
        for r in res:
            if r["kind"] == workload.primary:
                calls.setdefault(r["label"], []).append(r["seconds"])
    return statistics.geometric_mean(
        [statistics.median(times) for times in calls.values()])


def end_to_end(rounds, setup, ok_ratio: float) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "round_s": (statistics.median(t for _, t, _ in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "ok_ratio": (ok_ratio, "ratio"),
    }


def per_layer(rounds, tracer: Tracer) -> dict:
    plain = [t for used, t, _ in rounds if not used]
    traced = [t for used, t, _ in rounds if used]
    n = tracer.rounds
    self_s = tracer.self_times()
    calls = tracer.calls()
    out = {f"{group}.self_s": (self_s.get(group, 0.0) / n, "s")
           for group in GROUPS}
    out[f"{ROOT_SPAN}.self_s"] = (self_s.get(ROOT_SPAN, 0.0) / n, "s")
    for group in ("network.path_costs", "imitation.edge_usage_from_law"):
        out[f"{group}.calls"] = (calls.get(group, 0) / n, "count")
    out["network.path_costs.useful_ratio"] = (
        tracer.cost_distinct / max(tracer.cost_calls, 1), "ratio")
    out["network.paths"] = (tracer.paths / n, "count")
    out["bridge.sinkhorn.iterations"] = (tracer.iterations / n, "count")
    out["trace.overhead_s"] = (statistics.median(traced)
                               - statistics.median(plain), "s")
    out["trace.coverage_min"] = (min(tracer.coverage()), "ratio")
    out["trace.missing_wrappers"] = (len(tracer.missing), "count")
    return out


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "network_seed": inputs.NETWORK_SEED,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    work = os.path.join(WORK, f"run-{name}-s{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workload = WORKLOADS[name](work, seed)
        hashes = {k: inputs.sha256_file(v) for k, v in sorted(workload.inputs.items())}
        setup = [] if traced else measure_setup()
        rounds, tracer = timed_rounds(workload, seconds, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    everything = [r for _, _, res in rounds for r in res]
    bad = [r for r in everything if r["status"] in ("wrong", "crashed")]
    refused = [r for r in everything if r["status"] == "refused"]
    ok_ratio = sum(r["status"] == "ok" for r in everything) / len(everything)
    metrics = (per_layer(rounds, tracer) if traced
               else end_to_end(rounds, setup, ok_ratio))
    detail = {
        "workload": name, "primary": workload.primary, "seed": seed,
        "seconds": seconds, "trace": traced,
        "environment": environment(seed),
        "input_sha256": hashes,
        "rounds": len(rounds), "ops_per_round": len(rounds[0][2]),
        "paths": {r["label"]: r["paths"] for r in everything if r["paths"]},
        "refused": sorted({(r["label"], r["problems"][0]) for r in refused}),
        "wrong_or_crashed": [(r["label"], r["problems"]) for r in bad],
        "observations": sorted({(r["label"], json.dumps(r["observed"],
                                                        sort_keys=True))
                                for r in everything if r["observed"]}),
        "call_s": call_seconds(workload, rounds),
        "failed_ratio": 1.0 - ok_ratio,
        "setup_samples_s": setup,
        "round_samples_s": [t for _, t, _ in rounds],
    }
    if traced:
        detail["missing_wrappers"] = tracer.missing
        detail["coverage"] = tracer.coverage()
    stem = os.path.join(WORK, "results", f"{name}-s{seed}-t{int(traced)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    if traced:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return {"detail": detail, "metrics": metrics,
            "attempted": len(everything), "failed": len(bad)}


ALIASES = {   # primary call kind -> workload-specific names of the metrics
    "scenario": {"round_s": "scenario_s", "call_s": "scenario_s"},
    "solve": {"round_s": "sweep_s", "call_s": "solve_p50_s"},
}


def print_report(res: dict) -> None:
    d = res["detail"]
    print(f"# {d['workload']} seed={d['seed']} rounds={d['rounds']} "
          f"ops/round={d['ops_per_round']} "
          f"paths={sorted(set(d['paths'].values()))}")
    for label, why in d["refused"]:
        print(f"#   refused: {label}: {why}")
    for label, problems in d["wrong_or_crashed"]:
        print(f"#   FAILED: {label}: {problems}")
    aliases = ALIASES[d["primary"]]
    for key, (value, unit) in res["metrics"].items():
        alias = f" ({aliases[key]})" if key in aliases else ""
        print(f"#   {key}{alias} = {value:.6g} {unit}")
    if not d["trace"]:
        print(f"#   call_s ({aliases['call_s']}) = {d['call_s']:.6g} s "
              f"(reported, not a result metric)")
        print(f"#   failed_ratio = {d['failed_ratio']:.6g} ratio")


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload, each in a fresh interpreter, reported by name."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(traced))],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines if line.startswith("#")))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            code = proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(res)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

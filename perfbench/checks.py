"""Output checks for every benchmark operation, written without the solver.

Each check reads the files an ``iot`` call wrote, with parsers of its own,
and returns a list of problems (empty when the output is right).  Only
relations that hold for every correct output are checked: marginals rebuilt
from a plan's ``[paths]`` section, the objective identity, the LP lower bound,
monotone re-pricing and the certificate bound.
"""

from __future__ import annotations

import csv
import json
import math
import os

PLAN_MARGINAL_TOL = 1e-6
REL_TOL = 1e-9
# scenario usage reports hide flows below this mass (iotnet DISPLAY_THRESHOLD)
USAGE_DISPLAY_THRESHOLD = 1e-4


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _leq(a: float, b: float, rel: float = REL_TOL) -> bool:
    return a <= b + rel * max(1.0, abs(a), abs(b))


def parse_plan(path: str) -> dict:
    """Sections of a plan file: meta, objective and ``{path: (prob, cost)}``."""
    meta, objective, paths = {}, {}, {}
    section = None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("["):
                section = line
                continue
            cols = line.split("\t")
            if section == "[meta]":
                meta[cols[0]] = cols[1]
            elif section == "[objective]":
                objective[cols[0]] = float(cols[1])
            elif section == "[paths]":
                nodes = tuple(int(v) for v in cols[0].split(">"))
                paths[nodes] = (float(cols[1]), float(cols[2]))
    return {"meta": meta, "objective": objective, "paths": paths}


def endpoint_marginals(paths: dict, n: int) -> tuple[list[float], list[float]]:
    start = [0.0] * n
    end = [0.0] * n
    for nodes, (prob, _) in paths.items():
        start[nodes[0] - 1] += prob
        end[nodes[-1] - 1] += prob
    return start, end


def check_plan(plan_file: str, nu0: list[float], nuT: list[float],
               alpha: float) -> list[str]:
    if not os.path.exists(plan_file):
        return [f"no plan file {os.path.basename(plan_file)}"]
    plan = parse_plan(plan_file)
    problems = []
    paths = plan["paths"]
    if not paths:
        return ["plan has no [paths] entries"]
    start, end = endpoint_marginals(paths, len(nu0))
    gap0 = max(abs(a - b) for a, b in zip(start, nu0))
    gapT = max(abs(a - b) for a, b in zip(end, nuT))
    if gap0 > PLAN_MARGINAL_TOL:
        problems.append(f"start marginal off by {gap0:.3g}")
    if gapT > PLAN_MARGINAL_TOL:
        problems.append(f"end marginal off by {gapT:.3g}")
    obj = plan["objective"]
    cost = math.fsum(p * c for p, c in paths.values())
    if not _close(cost, obj["expected_cost"], 1e-6):
        problems.append(f"expected_cost {obj['expected_cost']!r} != "
                        f"sum over [paths] {cost!r}")
    if not _close(obj["total"], obj["expected_cost"] + alpha * obj["kl_to_target"]):
        problems.append("objective total != expected_cost + alpha*kl_to_target")
    if not _close(float(plan["meta"].get("alpha", "nan")), alpha):
        problems.append("plan alpha differs from the requested alpha")
    return problems


def check_certificate(cert_file: str, plan_file: str) -> list[str]:
    if not os.path.exists(cert_file):
        return ["no certificate file"]
    with open(cert_file, encoding="utf-8") as fh:
        cert = json.load(fh)
    problems = []
    if not _leq(cert["nominal_cost"], cert["worst_case_cost"]):
        problems.append(f"worst_case_cost {cert['worst_case_cost']!r} < "
                        f"nominal_cost {cert['nominal_cost']!r}")
    paths = parse_plan(plan_file)["paths"]
    mass = math.fsum(p for p, _ in paths.values())
    nominal = math.fsum(p * c for p, c in paths.values()) / mass
    if not _close(cert["nominal_cost"], nominal):
        problems.append(f"nominal_cost {cert['nominal_cost']!r} != plan cost "
                        f"{nominal!r}")
    return problems


def read_summary(out_dir: str) -> dict[str, str]:
    with open(os.path.join(out_dir, "report_summary.txt"), encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("\t", 1) for line in fh if line.strip())


def _usage_marginals(out_dir: str, horizon: int,
                     n: int) -> tuple[list[float], list[float]]:
    start = [0.0] * n
    end = [0.0] * n
    for t, side, col in ((0, start, "from"), (horizon - 1, end, "to")):
        with open(os.path.join(out_dir, f"report_usage_t{t}.csv"),
                  encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                side[int(row[col]) - 1] += float(row["mass"])
    return start, end


def check_scenario(out_dir: str, kind: str, horizon: int, alpha: float,
                   nu0: list[float], nuT: list[float]) -> tuple[list[str], dict]:
    """Problems, plus observations that are reported but not checked."""
    if not os.path.exists(os.path.join(out_dir, "report_summary.txt")):
        return ["no report_summary.txt"], {}
    s = read_summary(out_dir)
    num = {k: float(v) for k, v in s.items() if k != "scenario"}
    problems = []
    if s.get("scenario") != kind:
        problems.append(f"summary kind {s.get('scenario')!r} != {kind!r}")
    if not _leq(num["lp_optimal_cost"], num["imitation_cost"]):
        problems.append("lp_optimal_cost > imitation_cost")
    if not _close(num["lp_optimal_cost"], num["optimal_cost"], 1e-7):
        problems.append("optimal plan cost != lp_optimal_cost")
    if not _close(num["imitation_objective_total"],
                  num["imitation_cost"] + alpha * num["imitation_kl_to_target"]):
        problems.append("objective total != imitation_cost + alpha*kl")

    # the report hides flows below the display threshold: allow one hidden
    # flow per possible edge of a node
    slack = USAGE_DISPLAY_THRESHOLD * len(nu0)
    start, end = _usage_marginals(out_dir, horizon, len(nu0))
    gap0 = max(abs(a - b) for a, b in zip(start, nu0))
    gapT = max(abs(a - b) for a, b in zip(end, nuT))
    if gap0 > slack or gapT > slack:
        problems.append(f"usage report marginals off by {max(gap0, gapT):.3g}")

    observed = {}
    if kind == "risk":
        for plan in ("imitation", "optimal"):
            if not _leq(num[f"{plan}_cost"], num[f"{plan}_cost_after"]):
                problems.append(f"{plan} plan got cheaper under the disaster")
        problems += _check_disaster_rows(out_dir, num)
        observed["direction_holds"] = (num["imitation_cost_after"]
                                       <= num["optimal_cost_after"])
    return problems, observed


def _check_disaster_rows(out_dir: str, num: dict[str, float]) -> list[str]:
    with open(os.path.join(out_dir, "report_disaster.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    for plan in ("imitation", "optimal"):
        after = math.fsum(float(r[f"{plan}_after"]) for r in rows)
        if not _close(after, num[f"{plan}_cost_after"]):
            problems.append(f"disaster rows do not sum to {plan}_cost_after")
        if any(not _leq(float(r[f"{plan}_before"]), float(r[f"{plan}_after"]))
               for r in rows):
            problems.append(f"a destination got cheaper under the disaster "
                            f"({plan} plan)")
    return problems

"""Logistics scenario engine: load a spec, solve the plans, write reports.

Two scenario kinds:

* ``imitation`` — rule-based (non-Markov) costs, a path-form target blended
  toward uniform; compares the target itself, the cost-optimal LP plan, and
  the imitation plan.
* ``risk`` — per-edge (Markov) costs and a raw step-weight target encoding
  risk aversion (disrupted edges nearly forbidden, maritime lanes strongly
  preferred, everything else neutral); after solving, a disaster multiplies
  the affected edges' costs and both fixed plans are re-priced, per
  destination, to show who actually pays.

Scenario files are JSON.  The ``network`` field is a file path or a builtin
name (``builtin:synthetic30`` / ``builtin:risk30``, seeded by ``--seed``);
builtins come with supplies, demands, and — for the risk variant — the
affected edge set, all overridable in the file.

The cost-optimal plan is the path LP solved by the :func:`~iotnet.oracle.lp_ot`
oracle on the cheapest path of each (start, end) pair, scattered back to the
full space (:func:`cheapest_path_lp`).  The reduction is exact: moving a pair's
mass onto its cheapest path keeps both marginals and never raises the cost.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import fixtures
from .errors import ValidationError
from .fileio import _read_json, atomic_write_text, fmt, load_path_distribution
from .imitation import (ImitationTarget, IOTProblem, TransportPlan,
                        edge_usage_from_law, solve_iot)
from .network import (CostModel, EdgeKind, Network, PathSpace, enumerate_paths,
                      load_network, markov_model_from_network, path_costs,
                      path_vector, reprice)
from .oracle import DenseCoupling, lp_ot

DISPLAY_THRESHOLD = 1e-4  # hide flows below 0.01% of a step's mass


@dataclass(frozen=True)
class RiskWeights:
    affected: float = 1e-5
    maritime: float = 100.0
    regular: float = 1.0


@dataclass(frozen=True)
class DisasterSpec:
    edges: tuple[tuple[int, int], ...]
    multiplier: float = 10.0


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    network_ref: str | dict
    horizon: int
    alpha: float
    beta: float = 0.0
    supply: dict[int, float] | None = None
    demand: dict[int, float] | None = None
    q_star_ref: str | None = None
    rq_file_ref: str | None = None
    normalize_rows: bool = False
    risk_weights: RiskWeights = field(default_factory=RiskWeights)
    affected: tuple[tuple[int, int], ...] | None = None
    disaster: DisasterSpec | None = None
    base_dir: str = "."


@dataclass(frozen=True)
class PlanReport:
    """Display-ready view of one plan on one cost model."""

    label: str
    total_cost: float
    per_destination_cost: dict[int, float]
    per_destination_mass: dict[int, float]
    edge_usage: dict[tuple[int, int, int], float]


@dataclass(frozen=True)
class DisasterRow:
    node: int
    mass: float
    imitation_before: float
    imitation_after: float
    optimal_before: float
    optimal_after: float

    @property
    def imitation_delta(self) -> float:
        return self.imitation_after - self.imitation_before

    @property
    def optimal_delta(self) -> float:
        return self.optimal_after - self.optimal_before


@dataclass(frozen=True)
class DisasterResult:
    multiplier: float
    edges: tuple[tuple[int, int], ...]
    rows: tuple[DisasterRow, ...]
    imitation_total_before: float
    imitation_total_after: float
    optimal_total_before: float
    optimal_total_after: float


@dataclass(frozen=True)
class ScenarioResult:
    kind: str
    alpha: float
    beta: float
    space: PathSpace
    imitation_plan: TransportPlan
    reports: dict[str, PlanReport]
    lp_objective: float
    disaster: DisasterResult | None = None


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def _mass_map(obj: object, what: str) -> dict[int, float]:
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object of node -> mass")
    out: dict[int, float] = {}
    for key, val in obj.items():
        node = int(key)
        mass = float(val)
        if mass < 0:
            raise ValidationError(f"{what}: negative mass at node {node}")
        if mass > 0:
            out[node] = mass
    if not out:
        raise ValidationError(f"{what} carries no mass")
    return out


def load_scenario(path: str) -> ScenarioSpec:
    """Parse and validate a scenario file.

    Top level: ``{"network", "supply", "demand", "T", "alpha",
    "scenario": {...}, "disaster": {"edges": [[i,j], ...], "multiplier"}}``.
    The ``scenario`` object carries ``"kind"`` — ``"imitation"`` with
    ``"q_star"`` (a path-distribution file, or ``"builtin"``) and ``"beta"``,
    or ``"risk"`` with either ``"rq_file"`` (explicit step weights) or
    ``"affected"`` + optional ``"weights"`` to build them; ``"normalize_rows"``
    opts into row-stochastic risk weights.  Supply and demand may be omitted
    for builtin networks, which carry their own.
    """
    doc = _read_json(path, "scenario")
    if not isinstance(doc, dict):
        raise ValidationError(f"scenario {path}: expected a JSON object")
    try:
        network_ref = doc["network"]
        horizon = int(doc["T"])
        alpha = float(doc["alpha"])
        block = doc["scenario"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"scenario {path}: need network/T/alpha/scenario: {exc}") from exc
    if not isinstance(block, dict) or "kind" not in block:
        raise ValidationError(f"scenario {path}: 'scenario' needs a 'kind'")
    kind = str(block["kind"]).lower()
    if kind == "riskprior":
        kind = "risk"
    if kind not in ("imitation", "risk"):
        raise ValidationError(f"scenario {path}: unknown kind {block['kind']!r}")
    if horizon < 1:
        raise ValidationError(f"scenario {path}: T must be >= 1, got {horizon}")

    supply = _mass_map(doc["supply"], "supply") if "supply" in doc else None
    demand = _mass_map(doc["demand"], "demand") if "demand" in doc else None
    if (supply is None) != (demand is None):
        raise ValidationError(
            f"scenario {path}: give both supply and demand, or neither")
    if supply is not None:
        s, d = sum(supply.values()), sum(demand.values())
        if not math.isclose(s, d, rel_tol=1e-9, abs_tol=0.0):
            raise ValidationError(
                f"scenario {path}: supply total {s!r} != demand total {d!r}")

    beta = float(block.get("beta", 0.0))
    q_star_ref = block.get("q_star")
    rq_file_ref = block.get("rq_file")
    normalize_rows = bool(block.get("normalize_rows", False))
    weights = RiskWeights()
    affected = None
    wdoc = block.get("weights", {})
    unknown = set(wdoc) - {"affected", "maritime", "regular"}
    if unknown:
        raise ValidationError(
            f"scenario {path}: unknown risk weight keys {sorted(unknown)}")
    if wdoc:
        weights = RiskWeights(affected=float(wdoc.get("affected", 1e-5)),
                              maritime=float(wdoc.get("maritime", 100.0)),
                              regular=float(wdoc.get("regular", 1.0)))
    if "affected" in block:
        affected = tuple(sorted((int(i), int(j)) for i, j in block["affected"]))
    if kind == "imitation" and (rq_file_ref or "affected" in block):
        raise ValidationError(f"scenario {path}: rq_file/affected belong to "
                              "the risk kind")
    if kind == "risk" and q_star_ref is not None:
        raise ValidationError(f"scenario {path}: q_star belongs to the "
                              "imitation kind")

    disaster = None
    if "disaster" in doc:
        ddoc = doc["disaster"]
        edges = tuple(sorted((int(i), int(j)) for i, j in ddoc.get("edges", [])))
        disaster = DisasterSpec(edges=edges,
                                multiplier=float(ddoc.get("multiplier", 10.0)))

    return ScenarioSpec(kind=kind, network_ref=network_ref, horizon=horizon,
                        alpha=alpha, beta=beta, supply=supply, demand=demand,
                        q_star_ref=q_star_ref, rq_file_ref=rq_file_ref,
                        normalize_rows=normalize_rows, risk_weights=weights,
                        affected=affected, disaster=disaster,
                        base_dir=os.path.dirname(os.path.abspath(path)))


def _resolve(spec: ScenarioSpec, seed: int) -> tuple[Network, CostModel, dict, dict,
                                                     "fixtures.SyntheticFixture | None"]:
    """Network, ruled model, supply, demand; builtin fixture when applicable."""
    ref = spec.network_ref
    fixture = None
    if isinstance(ref, str) and ref.startswith("builtin:"):
        name = ref.split(":", 1)[1]
        if name == "synthetic30":
            fixture = fixtures.synthetic30(seed)
        elif name == "risk30":
            fixture = fixtures.risk30(seed)
        else:
            raise ValidationError(f"unknown builtin network {name!r}")
        network, ruled = fixture.network, fixture.ruled
        supply = spec.supply or dict(fixture.supply)
        demand = spec.demand or dict(fixture.demand)
    elif isinstance(ref, dict):
        from .network import network_from_dict
        network, ruled = network_from_dict(ref)
        supply, demand = spec.supply, spec.demand
    else:
        network, ruled = load_network(os.path.join(spec.base_dir, str(ref)))
        supply, demand = spec.supply, spec.demand
    if supply is None or demand is None:
        raise ValidationError("scenario needs supply and demand (builtins provide "
                              "defaults; files must state them)")
    for name, masses in (("supply", supply), ("demand", demand)):
        for node in masses:
            if not (1 <= node <= network.n):
                raise ValidationError(f"{name} references unknown node {node}")
    return network, ruled, supply, demand, fixture


def build_risk_matrix(network: Network, model: CostModel,
                      affected: tuple[tuple[int, int], ...],
                      weights: RiskWeights) -> np.ndarray:
    """Step weights over existing pairs: affected / maritime / regular."""
    from .network import _resolve_step
    n = network.n
    aff = set(affected)
    out = np.zeros((n, n))
    for (i, j) in network.edge_pairs():
        if (i, j) in aff:
            w = weights.affected
        else:
            kind = _resolve_step(model, network, i, j).kind
            w = weights.maritime if kind is EdgeKind.MARITIME else weights.regular
        out[i - 1, j - 1] = w
    return out


# ---------------------------------------------------------------------------
# reporting helpers
# ---------------------------------------------------------------------------


def _per_destination(space: PathSpace, law: np.ndarray,
                     costs: np.ndarray) -> tuple[dict[int, float], dict[int, float]]:
    cost_by_dest: dict[int, float] = {}
    mass_by_dest: dict[int, float] = {}
    for end in np.unique(space.ends).tolist():
        mask = space.ends == end
        dest_law = law[mask]
        mass = float(dest_law.sum())
        if mass <= 0:
            continue
        mass_by_dest[end] = mass
        cost_by_dest[end] = float(dest_law @ costs[mask])
    return cost_by_dest, mass_by_dest


def plan_report(label: str, space: PathSpace, law: np.ndarray,
                costs: np.ndarray,
                edge_usage: dict[tuple[int, int, int], float] | None = None
                ) -> PlanReport:
    """Report of ``law``; ``edge_usage``, when given, is its known edge usage."""
    cost_by_dest, mass_by_dest = _per_destination(space, law, costs)
    if edge_usage is None:
        edge_usage = edge_usage_from_law(space, law)
    return PlanReport(label=label, total_cost=float(law @ costs),
                      per_destination_cost=cost_by_dest,
                      per_destination_mass=mass_by_dest,
                      edge_usage=edge_usage)


def cheapest_path_lp(space: PathSpace, costs: np.ndarray, nu0: np.ndarray,
                     nuT: np.ndarray) -> DenseCoupling:
    """Cost-optimal plan: :func:`lp_ot` on the cheapest path of each endpoint pair.

    Exact, because moving a (start, end) pair's mass onto its cheapest path
    keeps both marginals and cannot raise the cost, so the path LP has an
    optimum on those paths alone: an ``n x n`` transport problem.  Ties go to
    the lowest path index, the column Bland's rule tries first.  The plan is
    returned on the full space.
    """
    pair = space.starts * (space.n + 1) + space.ends
    order = np.lexsort((costs, pair))  # stable: equal costs keep path order
    first = np.ones(order.size, dtype=bool)
    first[1:] = pair[order[1:]] != pair[order[:-1]]
    keep = np.sort(order[first])
    sub = PathSpace(horizon=space.horizon, n=space.n,
                    paths=tuple(space.paths[k] for k in keep.tolist()))
    law = np.zeros(space.size)
    law[keep] = lp_ot(sub, costs[keep], nu0, nuT).probabilities
    return DenseCoupling(probabilities=law, objective=float(costs @ law))


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def run_imitation_scenario(spec: ScenarioSpec, *, seed: int = 0,
                           tol: float = 1e-10,
                           max_iter: int = 100_000) -> ScenarioResult:
    if spec.kind != "imitation":
        raise ValidationError(f"expected an imitation scenario, got {spec.kind!r}")
    network, ruled, supply, demand, fixture = _resolve(spec, seed)
    nu0, nuT = fixtures.marginals(network.n, supply, demand)
    space = enumerate_paths(network, spec.horizon, sorted(supply), sorted(demand),
                            ruled)

    if spec.q_star_ref in (None, "builtin"):
        if fixture is None:
            raise ValidationError("imitation scenario needs q_star (builtin "
                                  "networks can default to the built-in one)")
        q_table = fixtures.synthetic_q_star(fixture)
    else:
        horizon, q_table = load_path_distribution(
            os.path.join(spec.base_dir, spec.q_star_ref))
        if horizon != spec.horizon:
            raise ValidationError(
                f"q_star horizon {horizon} != scenario horizon {spec.horizon}")
    q_star = path_vector(space, q_table, "q_star")

    problem = IOTProblem(network=network, cost_model=ruled, path_space=space,
                         nu0=nu0, nuT=nuT, alpha=spec.alpha,
                         target=ImitationTarget.paths(q_star, blend=spec.beta))
    plan = solve_iot(problem, tol=tol, max_iter=max_iter)
    costs = plan.path_costs
    lp = cheapest_path_lp(space, costs, nu0, nuT)

    reports = {
        "target": plan_report("target", space, q_star, costs),
        "optimal": plan_report("optimal", space, lp.probabilities, costs),
        "imitation": plan_report("imitation", space, plan.path_law, costs,
                                 plan.edge_usage),
    }
    return ScenarioResult(kind=spec.kind, alpha=spec.alpha, beta=spec.beta,
                          space=space, imitation_plan=plan, reports=reports,
                          lp_objective=lp.objective)


def run_risk_scenario(spec: ScenarioSpec, *, seed: int = 0, tol: float = 1e-10,
                      max_iter: int = 100_000) -> ScenarioResult:
    if spec.kind != "risk":
        raise ValidationError(f"expected a risk scenario, got {spec.kind!r}")
    network, ruled, supply, demand, fixture = _resolve(spec, seed)
    nu0, nuT = fixtures.marginals(network.n, supply, demand)
    model = markov_model_from_network(network, ruled)
    space = enumerate_paths(network, spec.horizon, sorted(supply), sorted(demand),
                            model)

    affected = spec.affected
    if affected is None:
        affected = fixture.affected if fixture is not None else ()
    initial = None
    if spec.rq_file_ref is not None:
        from .fileio import load_step_weights
        initial, matrix = load_step_weights(
            os.path.join(spec.base_dir, spec.rq_file_ref), network)
    else:
        if not affected:
            raise ValidationError("risk scenario needs an rq_file or an "
                                  "affected edge set (inline or from the "
                                  "builtin risk fixture)")
        matrix = build_risk_matrix(network, model, affected, spec.risk_weights)
    if spec.normalize_rows:
        rowsum = matrix.sum(axis=1, keepdims=True)
        matrix = np.divide(matrix, rowsum, out=np.zeros_like(matrix),
                           where=rowsum > 0)
    problem = IOTProblem(network=network, cost_model=model, path_space=space,
                         nu0=nu0, nuT=nuT, alpha=spec.alpha,
                         target=ImitationTarget.markov(matrix, initial,
                                                       stochastic=False))
    plan = solve_iot(problem, tol=tol, max_iter=max_iter)
    costs = plan.path_costs
    lp = cheapest_path_lp(space, costs, nu0, nuT)

    reports = {
        "optimal": plan_report("optimal", space, lp.probabilities, costs),
        "imitation": plan_report("imitation", space, plan.path_law, costs,
                                 plan.edge_usage),
    }

    disaster = spec.disaster
    if disaster is None:
        multiplier = (fixture.disaster_multiplier if fixture is not None
                      else fixtures.DISASTER_MULTIPLIER)
        disaster = DisasterSpec(edges=tuple(affected), multiplier=multiplier)
    elif not disaster.edges:
        disaster = DisasterSpec(edges=tuple(affected),
                                multiplier=disaster.multiplier)
    if not disaster.edges:
        return ScenarioResult(kind=spec.kind, alpha=spec.alpha, beta=spec.beta,
                              space=space, imitation_plan=plan, reports=reports,
                              lp_objective=lp.objective)
    repriced = reprice(model, disaster.edges, disaster.multiplier)
    costs_after = path_costs(space, repriced, network)

    def totals(law: np.ndarray) -> tuple[float, float]:
        return float(law @ costs), float(law @ costs_after)

    imi_b, imi_a = totals(plan.path_law)
    opt_b, opt_a = totals(lp.probabilities)
    rows = []
    imi_cb, _ = _per_destination(space, plan.path_law, costs)
    imi_ca, _ = _per_destination(space, plan.path_law, costs_after)
    opt_cb, _ = _per_destination(space, lp.probabilities, costs)
    opt_ca, _ = _per_destination(space, lp.probabilities, costs_after)
    for node in sorted(demand):
        mass = demand[node] / float(sum(supply.values()))
        rows.append(DisasterRow(node=node, mass=mass,
                                imitation_before=imi_cb.get(node, 0.0),
                                imitation_after=imi_ca.get(node, 0.0),
                                optimal_before=opt_cb.get(node, 0.0),
                                optimal_after=opt_ca.get(node, 0.0)))
    disaster_result = DisasterResult(multiplier=disaster.multiplier,
                                     edges=tuple(disaster.edges),
                                     rows=tuple(rows),
                                     imitation_total_before=imi_b,
                                     imitation_total_after=imi_a,
                                     optimal_total_before=opt_b,
                                     optimal_total_after=opt_a)
    return ScenarioResult(kind=spec.kind, alpha=spec.alpha, beta=spec.beta,
                          space=space, imitation_plan=plan, reports=reports,
                          lp_objective=lp.objective, disaster=disaster_result)


def run_scenario(spec: ScenarioSpec, *, seed: int = 0, tol: float = 1e-10,
                 max_iter: int = 100_000) -> ScenarioResult:
    runner = run_imitation_scenario if spec.kind == "imitation" else run_risk_scenario
    return runner(spec, seed=seed, tol=tol, max_iter=max_iter)


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def emit_report(result: ScenarioResult, out_dir: str,
                threshold: float = DISPLAY_THRESHOLD) -> list[str]:
    """Write report files; returns the paths written.

    ``report_usage_t{t}.csv`` — the imitation plan's edge usage per step,
    flows below ``threshold`` hidden.  ``report_summary.txt`` — costs and
    objective decomposition for every plan.  ``report_disaster.csv`` — per
    destination before/after re-pricing (risk scenarios).
    """
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    plan = result.imitation_plan
    usage = result.reports["imitation"].edge_usage
    for t in range(result.space.horizon):
        lines = ["from,to,mass"]
        for (step, i, j), mass in usage.items():
            if step == t and mass >= threshold:
                lines.append(f"{i},{j},{fmt(mass)}")
        path = os.path.join(out_dir, f"report_usage_t{t}.csv")
        atomic_write_text(path, "\n".join(lines) + "\n")
        written.append(path)

    lines = [f"scenario\t{result.kind}"]
    lines.append(f"paths\t{result.space.size}")
    lines.append(f"alpha\t{fmt(result.alpha)}")
    if result.kind == "imitation":
        lines.append(f"beta\t{fmt(result.beta)}")
    lines.append(f"lp_optimal_cost\t{fmt(result.lp_objective)}")
    for label in sorted(result.reports):
        lines.append(f"{label}_cost\t{fmt(result.reports[label].total_cost)}")
    obj = plan.objective
    lines.append(f"imitation_kl_to_target\t{fmt(obj.kl_to_target)}")
    lines.append(f"imitation_objective_total\t{fmt(obj.total)}")
    if result.disaster is not None:
        d = result.disaster
        lines.append(f"disaster_multiplier\t{fmt(d.multiplier)}")
        lines.append(f"disaster_edges\t{len(d.edges)}")
        lines.append(f"imitation_cost_after\t{fmt(d.imitation_total_after)}")
        lines.append(f"optimal_cost_after\t{fmt(d.optimal_total_after)}")
    path = os.path.join(out_dir, "report_summary.txt")
    atomic_write_text(path, "\n".join(lines) + "\n")
    written.append(path)

    if result.disaster is not None:
        lines = ["node,demand_mass,imitation_before,imitation_after,"
                 "imitation_delta,optimal_before,optimal_after,optimal_delta"]
        for row in result.disaster.rows:
            lines.append(",".join([str(row.node), fmt(row.mass),
                                   fmt(row.imitation_before),
                                   fmt(row.imitation_after),
                                   fmt(row.imitation_delta),
                                   fmt(row.optimal_before),
                                   fmt(row.optimal_after),
                                   fmt(row.optimal_delta)]))
        path = os.path.join(out_dir, "report_disaster.csv")
        atomic_write_text(path, "\n".join(lines) + "\n")
        written.append(path)
    return written

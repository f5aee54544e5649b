"""The benchmark workloads: seeded inputs plus the ``iot`` calls of one round.

A round is a list of operations, each one ``iot`` command line with the check
of its outputs.  An operation may carry follow-ups that run only when it
succeeded (certificates of a solved plan), and a follow-up may prepare an
input from that output before it is timed.  Path counts are those of
``NETWORK_SEED`` (see ``inputs``), the same for every benchmark seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import checks, inputs

ALPHAS = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0)
SWEEP_HORIZON = 3
CERT_EPSILON = 0.1


@dataclass
class Op:
    kind: str                       # "scenario", "solve" or "robust-cert"
    label: str
    argv: list[str]
    out_dir: str
    # returns (problems, observations); called only after a zero exit code
    check: Callable[[], tuple[list[str], dict]]
    follow: list["Op"] = field(default_factory=list)
    # writes an input derived from an earlier output; runs untimed
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    name: str
    primary: str                    # the kind timed by call_s
    ops: list[Op]
    inputs: dict[str, str] = field(default_factory=dict)   # name -> file


def _scenario_workload(name: str, work: str, seed: int, *, network: str,
                       horizon: int, alpha: float, kind: str) -> Workload:
    rng = np.random.default_rng(seed)
    fx = inputs.fixture(network)
    supply, demand = inputs.masses(fx, rng)
    files = {}
    if kind == "risk":
        files["rq_file"] = inputs.write_json(
            os.path.join(work, "risk_weights.json"),
            inputs.risk_step_weights(fx, rng))
        block = {"kind": "risk", "rq_file": "risk_weights.json"}
    else:
        files["q_star"] = inputs.write_keyed_q(
            os.path.join(work, "q_star.json"), seed, horizon,
            inputs.feasible_paths(fx, horizon))
        block = {"kind": "imitation", "q_star": "q_star.json", "beta": 0.1}
    files["spec"] = inputs.write_scenario(
        os.path.join(work, "scenario.json"), network=network, horizon=horizon,
        alpha=alpha, supply=supply, demand=demand, block=block)
    nu0, nuT = inputs.marginal_vectors(fx.network.n, supply, demand)
    out = os.path.join(work, "out")
    op = Op(kind="scenario", label=f"scenario {network} T={horizon}",
            argv=["scenario", "--spec", files["spec"], "--seed",
                  str(inputs.NETWORK_SEED), "--out-dir", out],
            out_dir=out,
            check=lambda: checks.check_scenario(out, kind, horizon, alpha,
                                                nu0, nuT))
    return Workload(name=name, primary="scenario", ops=[op], inputs=files)


def risk30_t5(work: str, seed: int) -> Workload:
    return _scenario_workload("risk30-t5", work, seed, network="risk30",
                              horizon=5, alpha=40.0, kind="risk")


def imitation30_t4(work: str, seed: int) -> Workload:
    return _scenario_workload("imitation30-t4", work, seed,
                              network="synthetic30", horizon=4, alpha=50.0,
                              kind="imitation")


def alpha_sweep(work: str, seed: int, alphas=ALPHAS) -> Workload:
    """Each alpha on risk30 (Markov route) and on synthetic30 (path route).

    Every synthetic30 plan that solves is read back by ``iot robust-cert``
    twice: against the uniform target it was solved with, and against a
    seeded target on the plan file's own paths.
    """
    rng = np.random.default_rng(seed)
    risk, synth = inputs.fixture("risk30"), inputs.fixture("synthetic30")
    files = {}
    setups = {}
    for name, fx in (("risk30", risk), ("synthetic30", synth)):
        supply, demand = inputs.masses(fx, rng)
        files[f"{name}_nu0"], files[f"{name}_nuT"] = inputs.write_marginals(
            work, name, fx.network.n, supply, demand)
        setups[name] = inputs.marginal_vectors(fx.network.n, supply, demand)
    files["risk30_rq"] = inputs.write_json(
        os.path.join(work, "risk30_rq.json"), inputs.risk_step_weights(risk, rng))
    files["synthetic30_q"] = inputs.write_uniform_q(
        os.path.join(work, "synthetic30_q.json"), SWEEP_HORIZON,
        inputs.feasible_paths(synth, SWEEP_HORIZON))

    def solve(name: str, alpha: float, extra: list[str]) -> Op:
        out = os.path.join(work, f"solve-{name}-a{alpha:g}")
        plan = os.path.join(out, "plan.txt")
        nu0, nuT = setups[name]
        argv = ["solve", "--network", f"builtin:{name}", "--seed",
                str(inputs.NETWORK_SEED), "--horizon", str(SWEEP_HORIZON),
                "--alpha", repr(alpha), "--nu0", files[f"{name}_nu0"],
                "--nuT", files[f"{name}_nuT"], "--out-dir", out] + extra
        return Op(kind="solve", label=f"solve {name} alpha={alpha:g}",
                  argv=argv, out_dir=out,
                  check=lambda: (checks.check_plan(plan, nu0, nuT, alpha), {}))

    def cert(plan: str, alpha: float, target: str, q_file: str) -> Op:
        out = os.path.dirname(plan) + f"-cert-{target}"
        cert_file = os.path.join(out, "robust_cert.json")
        return Op(kind="robust-cert",
                  label=f"robust-cert synthetic30 alpha={alpha:g} {target}",
                  argv=["robust-cert", "--plan", plan, "--q-file", q_file,
                        "--epsilon", repr(CERT_EPSILON), "--out-dir", out],
                  out_dir=out,
                  check=lambda: (checks.check_certificate(cert_file, plan),
                                 {"target_sha256": inputs.sha256_file(q_file)}))

    ops = []
    for alpha in alphas:
        ops.append(solve("risk30", alpha,
                         ["--cost", "markov", "--rq-file", files["risk30_rq"]]))
        op = solve("synthetic30", alpha, ["--cost", "ruled"])
        plan = os.path.join(op.out_dir, "plan.txt")
        q_plan = op.out_dir + "-q.json"
        on_plan = cert(plan, alpha, "on-plan", q_plan)
        on_plan.prepare = lambda plan=plan, q_plan=q_plan: inputs.write_keyed_q(
            q_plan, seed, SWEEP_HORIZON, checks.parse_plan(plan)["paths"])
        op.follow = [cert(plan, alpha, "uniform", files["synthetic30_q"]),
                     on_plan]
        ops.append(op)
    return Workload(name="alpha-sweep", primary="solve", ops=ops, inputs=files)


WORKLOADS = {
    "risk30-t5": risk30_t5,
    "imitation30-t4": imitation30_t4,
    "alpha-sweep": alpha_sweep,
}

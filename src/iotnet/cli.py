"""Command-line interface for the transport solvers.

Subcommands: ``rbwalk`` (spectral walk prior of a network), ``bridge``
(Schrodinger system against an explicit prior), ``solve`` (the full
imitation-regularized transport problem), ``approx`` (best Markov fit of a
path prior), ``robust-cert`` (worst-case cost certificate of a saved plan),
``scenario`` (logistics scenario files plus report emission), and
``oracle check`` (self-verification against the brute-force solvers).

Exit codes: 0 success; 1 bad input or infeasible problem (and usage errors);
2 iteration budget exhausted.  Every output file is written atomically, all
floats in shortest round-trip form, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import fixtures
from .approx import fit_markov, fitted_prior
from .bridge import (MarkovPrior, markov_path_law, path_law_from_endpoint,
                     sinkhorn_markov, sinkhorn_path)
from .chain import count_walks, logs, walks
from .errors import ConvergenceError, InfeasibleError, ValidationError
from .fileio import (atomic_write_text, digits, float_texts, fmt, load_marginal,
                     load_path_distribution, load_prior, load_step_weights,
                     naming, parse_field, path_strings, read_plan,
                     save_path_distribution, write_plan)
from .imitation import ImitationTarget, IOTProblem, solve_iot
from .network import (RULED, CostModel, Network, PathSpace, enumerate_paths,
                      load_network, markov_model_from_network, row_join)
from .oracle import dense_ipf, lp_ot
from .robust import worst_case_certificate
from .scenario import emit_report, load_scenario, run_scenario
from .spectral import build_rb_prior


class _Parser(argparse.ArgumentParser):
    """argparse subclass exiting 1 on usage errors (2 means non-convergence)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _common_flags() -> argparse.ArgumentParser:
    """Shared flags, accepted before or after the subcommand.

    Defaults are SUPPRESS and get resolved after parsing: a subparser's
    default would otherwise clobber a value given before the subcommand.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for builtin networks and samplers (default 0)")
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                        help="solver stopping tolerance (default per command)")
    common.add_argument("--max-iter", type=int, default=argparse.SUPPRESS,
                        dest="max_iter",
                        help="iteration budget for iterative solvers")
    common.add_argument("--out-dir", default=argparse.SUPPRESS, dest="out_dir",
                        help="directory for output files (default .)")
    return common


def _resolve_common(args: argparse.Namespace, *, tol_default: float = 1e-10) -> None:
    args.seed = getattr(args, "seed", 0)
    args.tol = getattr(args, "tol", tol_default)
    args.max_iter = getattr(args, "max_iter", 100_000)
    args.out_dir = getattr(args, "out_dir", ".")
    if args.seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {args.seed}")
    if args.tol <= 0:
        raise ValidationError(f"--tol must be positive, got {args.tol}")
    if args.max_iter < 1:
        raise ValidationError(f"--max-iter must be >= 1, got {args.max_iter}")


def _out_path(args: argparse.Namespace, name: str) -> str:
    given = getattr(args, "out", None)
    if given:
        return given if os.path.isabs(given) else os.path.join(args.out_dir, given)
    return os.path.join(args.out_dir, name)


def _dump_json(path: str, doc: dict) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# network references
# ---------------------------------------------------------------------------


@dataclass
class _NetworkBundle:
    network: Network
    model: CostModel    # the network's own: ruled, or Markov for ``tiny``
    nu0: np.ndarray | None = None
    nuT: np.ndarray | None = None
    horizon: int | None = None


def _load_network_ref(ref: str, seed: int) -> _NetworkBundle:
    """A network and its cost model from a file path or a ``builtin:`` name."""
    if ref.startswith("builtin:"):
        name = ref.split(":", 1)[1]
        if name == "tiny":
            fx = fixtures.tiny_fixture()
            return _NetworkBundle(network=fx.network, model=fx.model,
                                  nu0=fx.nu0, nuT=fx.nuT,
                                  horizon=fx.space.horizon)
        fx = fixtures.builtin(name, seed)
        nu0, nuT = fx.marginals()
        return _NetworkBundle(network=fx.network, model=fx.ruled,
                              nu0=nu0, nuT=nuT, horizon=fx.horizon)
    network, ruled = load_network(ref)
    return _NetworkBundle(network=network, model=ruled)


def _pick_model(bundle: _NetworkBundle, choice: str) -> CostModel:
    """The ``--cost`` model; a Markov one is derived from the ruled one here,
    only when asked for."""
    ruled = bundle.model.mode == RULED
    if choice == "markov" and ruled:
        return markov_model_from_network(bundle.network, bundle.model)
    if choice == "ruled" and not ruled:
        raise ValidationError("this network has no rule-based cost model; "
                              "use --cost markov")
    return bundle.model


def _marginal(args_value: str | None, fallback: np.ndarray | None, n: int,
              flag: str) -> np.ndarray:
    if args_value is not None:
        return load_marginal(args_value, n)
    if fallback is not None:
        return fallback
    raise ValidationError(f"{flag} is required for this network")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_rbwalk(args: argparse.Namespace) -> int:
    _resolve_common(args, tol_default=1e-12)
    bundle = _load_network_ref(args.network, args.seed)
    prior = build_rb_prior(_pick_model(bundle, "markov"), args.alpha, bundle.network.n,
                           tol=args.tol, max_iter=args.max_iter)
    out = _out_path(args, "rbwalk.json")
    _dump_json(out, {
        "alpha": args.alpha,
        "n": bundle.network.n,
        "spectral_radius": prior.spectral_radius,
        "left_vector": prior.left_vector.tolist(),
        "right_vector": prior.right_vector.tolist(),
        "node_weights": prior.node_weights.tolist(),
        "transitions": prior.transitions.tolist(),
    })
    print(f"spectral_radius={fmt(prior.spectral_radius)} n={bundle.network.n} "
          f"wrote {out}")
    return 0


def _cmd_bridge(args: argparse.Namespace) -> int:
    _resolve_common(args)
    prior = load_prior(args.prior)
    markov = isinstance(prior, MarkovPrior)
    if markov:
        n, horizon = prior.n, args.horizon
        if horizon is None:
            if prior.log_steps.ndim == 2:
                raise ValidationError(
                    "--horizon is required for a markov prior with one matrix")
            horizon = len(prior.log_steps)
    else:
        n, horizon = prior.path_space.n, prior.path_space.horizon
        if args.horizon is not None and args.horizon != horizon:
            raise ValidationError(
                f"--horizon {args.horizon} != prior horizon {horizon}")
    nu0, nuT = load_marginal(args.nu0, n), load_marginal(args.nuT, n)
    tuning = {"tol": args.tol, "max_iter": args.max_iter}
    solution = (sinkhorn_markov(prior, nu0, nuT, horizon, **tuning) if markov
                else sinkhorn_path(prior, nu0, nuT, **tuning))

    out = _out_path(args, "bridge.json")
    _dump_json(out, {
        "horizon": horizon,
        "n": n,
        "iterations": solution.iterations,
        "residual": solution.residual,
        "phi0": np.exp(solution.log_phi0).tolist(),
        "phiT": np.exp(solution.log_phiT).tolist(),
        "phihat0": np.exp(solution.log_phihat0).tolist(),
        "phihatT": np.exp(solution.log_phihatT).tolist(),
        "endpoint_coupling": solution.endpoint_coupling.tolist(),
    })
    written = [out]
    if args.emit_paths:
        if markov:
            # the law's support: walks over the used steps between the supports
            steps = solution.transitions > 0
            support = (np.flatnonzero(nu0) + 1, np.flatnonzero(nuT) + 1)
            if count_walks(steps, horizon, *support)[0] > 1_000_000:
                raise ValidationError("path law support is too large to "
                                      "enumerate; drop --emit-paths")
            rows = walks(steps, horizon, *support)
            law = markov_path_law(solution, nu0,
                                  PathSpace(horizon=horizon, n=n, array=rows))
        else:
            law = path_law_from_endpoint(solution, prior)
            rows, law = prior.path_space.array[law > 0], law[law > 0]
        paths_out = out[:-5] + "_paths.json" if out.endswith(".json") \
            else out + "_paths.json"
        save_path_distribution(paths_out, horizon,
                               dict(zip(map(tuple, rows.tolist()), law.tolist())))
        written.append(paths_out)
    print(f"iterations={solution.iterations} residual={fmt(solution.residual)} "
          f"wrote {' '.join(written)}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    _resolve_common(args)
    bundle = _load_network_ref(args.network, args.seed)
    network = bundle.network
    model = _pick_model(bundle, args.cost)
    horizon = args.horizon if args.horizon is not None else bundle.horizon
    if horizon is None:
        raise ValidationError("--horizon is required for this network")
    nu0 = _marginal(args.nu0, bundle.nu0, network.n, "--nu0")
    nuT = _marginal(args.nuT, bundle.nuT, network.n, "--nuT")

    if args.q_file is not None:
        _, rows, probs = load_path_distribution(args.q_file)
        target = ImitationTarget.paths(rows, probs, blend=args.beta)
    elif args.rq_file is not None:
        initial, matrix = load_step_weights(args.rq_file, network)
        target = ImitationTarget.markov(matrix, initial, blend=args.beta)
    else:
        target = ImitationTarget.uniform()

    problem = IOTProblem(network=network, cost_model=model, horizon=horizon,
                         nu0=nu0, nuT=nuT, alpha=args.alpha, target=target)
    # listed before the solve on either route: the plan writer reads it, and a
    # refusal of the space names no q-file
    problem.space
    if args.q_file is not None:
        with naming("path distribution", args.q_file):
            problem.target_log_law
    plan = solve_iot(problem, force_path=args.force_path, tol=args.tol,
                     max_iter=args.max_iter)
    out = _out_path(args, "plan.txt")
    write_plan(out, plan)
    obj = plan.objective
    print(f"paths={plan.path_space.size} expected_cost={fmt(obj.expected_cost)} "
          f"kl_to_target={fmt(obj.kl_to_target)} total={fmt(obj.total)} "
          f"wrote {out}")
    return 0


def _cmd_approx(args: argparse.Namespace) -> int:
    _resolve_common(args)
    prior = load_prior(args.prior)
    if isinstance(prior, MarkovPrior):
        raise ValidationError("the prior is already Markov; nothing to fit")
    with naming("prior", args.prior):
        fit = fit_markov(prior)
    chain = fitted_prior(fit)
    out = _out_path(args, "approx.json")
    _dump_json(out, {
        "type": "markov",
        "initial": chain.initial.tolist(),
        "matrix": np.exp(chain.log_steps).tolist(),
        "fit_residual": fit.residual,
        "gauge_component": fit.gauge_component,
        "horizon": fit.horizon,
    })
    print(f"residual={fmt(fit.residual)} gauge_component={fmt(fit.gauge_component)} "
          f"wrote {out}")
    return 0


def _cmd_robust_cert(args: argparse.Namespace) -> int:
    _resolve_common(args)
    plan = read_plan(args.plan)
    rows, law, costs = plan["paths"]
    alpha = args.alpha
    with naming("plan", args.plan):
        total = float(law.sum())
        if not (0.999999 <= total <= 1.000001):
            raise ValidationError(f"probabilities sum to {total!r}, expected 1")
        if alpha is None:
            if "alpha" not in plan["meta"]:
                raise ValidationError("plan file carries no alpha; pass --alpha")
            alpha = parse_field("alpha", float, plan["meta"]["alpha"])
    law = law / total

    q_horizon, q_rows, q_probs = load_path_distribution(args.q_file)
    with naming("path distribution", args.q_file):
        if q_horizon != rows.shape[1] - 1:
            raise ValidationError(f"horizon {q_horizon} != plan horizon {rows.shape[1] - 1}")
    # Q is the q-file's law: its probabilities over their total (a file
    # without mass is refused below).  Target paths the plan file lacks (the
    # writer drops p < PLAN_PROB_FLOOR) add nothing to E_P[C] or KL(P || Q):
    # skip them
    q_probs = q_probs / (q_probs.sum() or 1.0)
    at = row_join(q_rows, rows)
    q = np.bincount(at[at >= 0], weights=q_probs[at >= 0], minlength=len(rows))

    cert = worst_case_certificate(law, costs, logs(q), alpha, args.epsilon)
    out = _out_path(args, "robust_cert.json")
    finite = np.isfinite(cert.maximizer)
    text = json.dumps({
        "alpha": alpha,
        "epsilon": cert.epsilon,
        "nominal_cost": cert.nominal_cost,
        "kl_term": cert.kl_term,
        "worst_case_cost": cert.worst_case_cost,
        "maximizer": None,
    }, indent=2, sort_keys=True)
    # the map's lines as json.dumps(indent=2, sort_keys=True) writes them: a
    # path string needs no escape, and its values are repr's
    entries = sorted(zip(path_strings(rows[finite]), float_texts(cert.maximizer[finite])))
    listed = ('{\n    "' + ',\n    "'.join(map('": '.join, entries)) + "\n  }"
              if entries else "{}")
    atomic_write_text(out, text.replace('"maximizer": null', '"maximizer": ' + listed, 1)
                      + "\n")
    print(f"nominal_cost={fmt(cert.nominal_cost)} "
          f"worst_case_cost={fmt(cert.worst_case_cost)} wrote {out}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    _resolve_common(args)
    spec = load_scenario(args.spec)
    result = run_scenario(spec, seed=args.seed, tol=args.tol,
                          max_iter=args.max_iter)
    written = emit_report(result, args.out_dir)
    opt = result.reports["optimal"].total_cost
    imi = result.reports["imitation"].total_cost
    line = (f"kind={result.kind} paths={digits(result.paths)} "
            f"optimal_cost={fmt(opt)} imitation_cost={fmt(imi)}")
    if result.disaster is not None:
        line += (f" imitation_after={fmt(result.disaster.imitation_total_after)}"
                 f" optimal_after={fmt(result.disaster.optimal_total_after)}")
    print(line)
    print(f"wrote {len(written)} report files to {args.out_dir}")
    return 0


def _oracle_problem(args: argparse.Namespace) -> tuple[IOTProblem, bool]:
    """The fixture's problem against the uniform target, and whether the
    LP bound is checked on it."""
    name = args.fixture
    if name == "four":
        network, model = fixtures.four_node_fixture()
        horizon = 3
        # the end marginal follows the walks' ends, with node 1's count doubled
        ends = enumerate_paths(network, horizon, [1], [1, 2, 3, 4], model).ends
        counts = np.bincount(ends, minlength=network.n + 1)[1:].astype(float)
        counts[0] *= 2.0
        nuT = counts / counts.sum()
        nu0 = np.zeros(network.n)
        nu0[0] = 1.0
    else:
        ref = _load_network_ref(f"builtin:{name}", args.seed)
        network, model, horizon, nu0, nuT = (ref.network, ref.model, ref.horizon,
                                             ref.nu0, ref.nuT)
    default = 80.0 if name in ("synthetic30", "risk30") else 0.5
    problem = IOTProblem(network=network, cost_model=model, horizon=horizon,
                         nu0=nu0, nuT=nuT, target=ImitationTarget.uniform(),
                         alpha=args.alpha if args.alpha is not None else default)
    return problem, name in ("tiny", "four")


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    _resolve_common(args)
    problem, run_lp = _oracle_problem(args)
    plan = solve_iot(problem, tol=args.tol, max_iter=args.max_iter)
    space, costs, nu0, nuT = plan.path_space, plan.path_costs, problem.nu0, problem.nuT

    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"{'ok' if ok else 'FAIL'} {name} ({detail})")
        if not ok:
            failures += 1

    weights = np.exp(-(costs - costs.min()) / problem.alpha + plan.target_log_probs)
    ipf = dense_ipf(space, weights, nu0, nuT, tol=args.tol,
                    max_iter=args.max_iter)
    tv = 0.5 * float(np.abs(plan.path_law - ipf.probabilities).sum())
    report("ipf-vs-bridge", tv <= 1e-8, f"tv={fmt(tv)}")

    gap = max(float(np.abs(np.bincount(nodes - 1, weights=plan.path_law,
                                       minlength=space.n) - nu).max())
              for nodes, nu in ((space.starts, nu0), (space.ends, nuT)))
    report("marginal-gaps", gap <= 1e-8, f"sup={fmt(gap)}")

    if run_lp:
        lp = lp_ot(space, costs, nu0, nuT)
        expected = float(plan.path_law @ costs)
        report("lp-lower-bound", lp.objective <= expected + 1e-9,
               f"lp={fmt(lp.objective)} plan={fmt(expected)}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The ``iot`` parser, built once per process.

    Parsing leaves it unchanged (the shared flags default to SUPPRESS and
    are resolved on each call's namespace), so every ``main`` call reuses it.
    Each subcommand names its handler, which ``main`` looks up at call time,
    so a handler replaced on this module after the first call still runs.
    """
    common = _common_flags()
    parser = _Parser(prog="iot", parents=[common],
                     description="Imitation-regularized optimal transport on "
                                 "directed logistics networks.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser("rbwalk", parents=[common],
                       help="spectral walk prior of a network's cost structure")
    p.add_argument("--network", required=True,
                   help="network JSON file or builtin:NAME")
    p.add_argument("--alpha", type=float, required=True,
                   help="inverse tilt strength (temperature)")
    p.add_argument("--out", help="output file (default rbwalk.json)")
    p.set_defaults(handler="_cmd_rbwalk")

    p = sub.add_parser("bridge", parents=[common],
                       help="solve the Schrodinger system for a prior")
    p.add_argument("--prior", required=True, help="prior JSON file")
    p.add_argument("--nu0", required=True, help="start marginal JSON file")
    p.add_argument("--nuT", required=True, help="end marginal JSON file")
    p.add_argument("--horizon", type=int,
                   help="steps (required for single-matrix markov priors)")
    p.add_argument("--emit-paths", action="store_true", dest="emit_paths",
                   help="also write the full path law")
    p.add_argument("--out", help="output file (default bridge.json)")
    p.set_defaults(handler="_cmd_bridge")

    p = sub.add_parser("solve", parents=[common],
                       help="solve an imitation-regularized transport problem")
    p.add_argument("--network", required=True,
                   help="network JSON file or builtin:NAME")
    p.add_argument("--nu0", help="start marginal JSON file")
    p.add_argument("--nuT", help="end marginal JSON file")
    p.add_argument("--alpha", type=float, required=True,
                   help="regularization strength")
    p.add_argument("--horizon", type=int, help="number of steps")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--q-file", dest="q_file",
                       help="path-form imitation target (JSON)")
    group.add_argument("--rq-file", dest="rq_file",
                       help="step-weight imitation target (JSON)")
    p.add_argument("--beta", type=float, default=0.0,
                   help="blend weight toward the uniform path law")
    p.add_argument("--force-path", action="store_true", dest="force_path",
                   help="use the explicit path-space route even when a "
                        "Markov factorization exists")
    p.add_argument("--cost", choices=("auto", "ruled", "markov"), default="auto",
                   help="cost model: rule-based or per-edge table")
    p.add_argument("--out", help="plan file (default plan.txt)")
    p.set_defaults(handler="_cmd_solve")

    p = sub.add_parser("approx", parents=[common],
                       help="fit the best Markov chain to a path prior")
    p.add_argument("--prior", required=True, help="path-form prior JSON file")
    p.add_argument("--out", help="output file (default approx.json)")
    p.set_defaults(handler="_cmd_approx")

    p = sub.add_parser("robust-cert", parents=[common],
                       help="worst-case cost certificate for a saved plan")
    p.add_argument("--plan", required=True, help="plan file from `iot solve`")
    p.add_argument("--q-file", required=True, dest="q_file",
                   help="reference path distribution (JSON)")
    p.add_argument("--alpha", type=float,
                   help="ball shape parameter (default: the plan's alpha)")
    p.add_argument("--epsilon", type=float, required=True,
                   help="ball radius")
    p.add_argument("--out", help="output file (default robust_cert.json)")
    p.set_defaults(handler="_cmd_robust_cert")

    p = sub.add_parser("scenario", parents=[common],
                       help="run a logistics scenario file and emit reports")
    p.add_argument("--spec", required=True, help="scenario JSON file")
    p.set_defaults(handler="_cmd_scenario")

    p = sub.add_parser("oracle", parents=[common],
                       help="brute-force self-verification")
    osub = p.add_subparsers(dest="oracle_command", metavar="CHECK")
    osub.required = True
    pc = osub.add_parser("check", parents=[common],
                         help="cross-check the solvers on a fixture")
    pc.add_argument("--fixture", required=True,
                    choices=("tiny", "four", "synthetic30", "risk30"))
    pc.add_argument("--alpha", type=float,
                    help="regularization strength (default per fixture)")
    pc.set_defaults(handler="_cmd_oracle_check")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.handler](args)
    except (ValidationError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

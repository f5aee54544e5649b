"""Imitation-regularized optimal transport on directed logistics networks.

The package solves endpoint-constrained path-distribution problems of the form
``min E_P[cost] + alpha * KL(P || target)`` by reduction to a Schrodinger
bridge: tilt the target by the path costs, then match the endpoint marginals
with Sinkhorn scaling.  Markov structure is exploited when it exists (the
Gibbs edge weights times the target's step weights are bridged as a Markov
prior, and the plan is read off the solution chain without paths), and
explicit path enumeration handles rule-based, non-additive costs
(both in ``imitation``); ``chain`` holds the step products every pass along
a chain is made of.  ``spectral`` builds the maximum-entropy-rate walk
for ``iot rbwalk``; no solve needs it.  ``approx`` fits the best Markov chain to
a non-Markov solution, ``robust`` certifies worst-case costs over an entropic
ball of cost perturbations, ``oracle`` provides brute-force reference solvers,
and ``scenario`` runs end-to-end logistics studies.
"""

from .approx import (MarkovFit, fit_markov, fit_objective_error, fitted_prior,
                     markov_plan_from_fit)
from .bridge import (BridgeSolution, MarkovPrior, PathPrior, markov_path_law,
                     marginalize_prior, path_kl, path_law_from_endpoint,
                     sinkhorn_markov, sinkhorn_path)
from .errors import (ConvergenceError, InfeasibleError, IOTError,
                     ValidationError)
from .fileio import (atomic_write_text, load_marginal, load_path_distribution,
                     load_prior, load_step_weights, read_plan,
                     save_path_distribution, write_plan)
from .imitation import (ImitationTarget, IOTProblem, ObjectiveTerms,
                        TransportPlan, blend_log_law, edge_usage_from_law,
                        evaluate_objective_terms, expand_target,
                        imitation_prior_markov, imitation_prior_paths,
                        plan_from_law, solve_iot)
from .network import (CostModel, Edge, EdgeKind, Network, Node, PathSpace,
                      build_network, enumerate_paths, load_network,
                      log_weight_matrix, markov_model_from_network,
                      network_from_dict, network_to_dict, path_costs,
                      path_vector, reprice, save_network, strongly_connected,
                      unreachable_nodes)
from .oracle import DenseCoupling, dense_ipf, lp_ot
from .robust import (RobustCertificate, RobustEquivalenceReport,
                     robust_equivalence_check, robust_membership,
                     worst_case_certificate)
from .scenario import (DisasterResult, DisasterSpec, PlanReport, RiskWeights,
                       ScenarioResult, ScenarioSpec, build_risk_matrix,
                       emit_report, load_scenario, run_scenario)
from .spectral import RBPrior, build_rb_prior, perron, rb_walk

__version__ = "0.1.0"

__all__ = [
    "BridgeSolution", "ConvergenceError", "CostModel", "DenseCoupling",
    "DisasterResult", "DisasterSpec", "Edge", "EdgeKind",
    "IOTError", "IOTProblem", "ImitationTarget", "InfeasibleError",
    "MarkovFit", "MarkovPrior", "Network", "Node", "ObjectiveTerms",
    "PathPrior", "PathSpace", "PlanReport", "RBPrior", "RiskWeights",
    "RobustCertificate", "RobustEquivalenceReport", "ScenarioResult",
    "ScenarioSpec", "TransportPlan", "ValidationError", "atomic_write_text",
    "blend_log_law", "build_network", "build_rb_prior",
    "build_risk_matrix", "dense_ipf", "edge_usage_from_law", "emit_report",
    "enumerate_paths", "evaluate_objective_terms", "expand_target",
    "fit_markov", "fit_objective_error", "fitted_prior",
    "imitation_prior_markov", "imitation_prior_paths", "load_marginal",
    "load_network", "load_path_distribution", "load_prior", "load_scenario",
    "load_step_weights", "log_weight_matrix", "lp_ot", "marginalize_prior",
    "markov_model_from_network", "markov_path_law", "markov_plan_from_fit",
    "network_from_dict", "network_to_dict", "path_costs", "path_kl",
    "path_law_from_endpoint", "path_vector", "perron", "plan_from_law",
    "rb_walk", "read_plan", "reprice", "robust_equivalence_check",
    "robust_membership", "run_scenario", "save_network",
    "save_path_distribution", "sinkhorn_markov", "sinkhorn_path", "solve_iot",
    "strongly_connected", "unreachable_nodes", "worst_case_certificate",
    "write_plan",
]

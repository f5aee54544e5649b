"""Seeded inputs for the benchmark workloads.

Every file here is a pure function of the benchmark seed and is built without
calling the solver under test: marginals and step weights come from the
builtin fixtures' own supplies, demands and risk matrix, and
path-form targets are seeded weights keyed by the path string over the
enumerated feasible set.  The builtin networks themselves are always built
with ``NETWORK_SEED``, so every benchmark seed solves the same graph and path
space and only the masses and weights move; this keeps the work per call the
same across seeds.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from iotnet import fixtures
from iotnet.fileio import format_path, save_path_distribution
from iotnet.network import enumerate_paths, markov_model_from_network
from iotnet.scenario import RiskWeights, build_risk_matrix

NETWORK_SEED = 0
MASS_JITTER = 0.25      # supplies and demands scaled by U(1 - j, 1 + j)
WEIGHT_JITTER = 0.2     # risk step weights scaled by U(1 - j, 1 + j)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_json(path: str, doc: object) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def fixture(name: str) -> fixtures.SyntheticFixture:
    builder = {"risk30": fixtures.risk30, "synthetic30": fixtures.synthetic30}[name]
    return builder(NETWORK_SEED)


def masses(fx: fixtures.SyntheticFixture,
           rng: np.random.Generator) -> tuple[dict[int, float], dict[int, float]]:
    """Jittered supplies and demands on the fixture's own supports.

    Supports are kept, so the feasible path space does not depend on the seed;
    demands are rescaled to the supply total so the two balance exactly.
    """
    supply = {node: float(mass) * rng.uniform(1 - MASS_JITTER, 1 + MASS_JITTER)
              for node, mass in sorted(fx.supply.items())}
    raw = {node: float(mass) * rng.uniform(1 - MASS_JITTER, 1 + MASS_JITTER)
           for node, mass in sorted(fx.demand.items())}
    scale = sum(supply.values()) / sum(raw.values())
    demand = {node: mass * scale for node, mass in raw.items()}
    return supply, demand


def marginal_vectors(n: int, supply: dict[int, float],
                     demand: dict[int, float]) -> tuple[list[float], list[float]]:
    total = sum(supply.values())
    nu0 = [0.0] * n
    nuT = [0.0] * n
    for node, mass in supply.items():
        nu0[node - 1] = mass / total
    for node, mass in demand.items():
        nuT[node - 1] = mass / total
    return nu0, nuT


def risk_step_weights(fx: fixtures.SyntheticFixture,
                      rng: np.random.Generator) -> dict:
    """Sparse rq-file: the fixture's own risk matrix, each weight jittered."""
    matrix = build_risk_matrix(
        fx.network, markov_model_from_network(fx.network, fx.ruled),
        fx.affected, RiskWeights())
    rows, cols = np.nonzero(matrix)
    jitter = rng.uniform(1 - WEIGHT_JITTER, 1 + WEIGHT_JITTER, rows.size)
    return {"default": 0.0,
            "entries": [[int(i) + 1, int(j) + 1, float(w * u)] for i, j, w, u
                        in zip(rows, cols, matrix[rows, cols], jitter)]}


def feasible_paths(fx: fixtures.SyntheticFixture, horizon: int):
    return enumerate_paths(fx.network, horizon, sorted(fx.supply),
                           sorted(fx.demand), fx.ruled).paths


def keyed_weight(seed: int, path: tuple[int, ...]) -> float:
    """A weight in [0.5, 1.5) fixed by the seed and the path string alone."""
    digest = hashlib.blake2b(f"{seed}:{format_path(path)}".encode(),
                             digest_size=8).digest()
    return 0.5 + int.from_bytes(digest, "big") / 2.0 ** 64


def write_keyed_q(path: str, seed: int, horizon: int, paths) -> str:
    weights = {p: keyed_weight(seed, p) for p in paths}
    total = sum(weights.values())
    save_path_distribution(path, horizon, {p: w / total for p, w in weights.items()})
    return path


def write_uniform_q(path: str, horizon: int, paths) -> str:
    prob = 1.0 / len(paths)
    save_path_distribution(path, horizon, {p: prob for p in paths})
    return path


def write_scenario(path: str, *, network: str, horizon: int, alpha: float,
                   supply: dict[int, float], demand: dict[int, float],
                   block: dict) -> str:
    return write_json(path, {
        "network": f"builtin:{network}", "T": horizon, "alpha": alpha,
        "supply": {str(k): v for k, v in supply.items()},
        "demand": {str(k): v for k, v in demand.items()},
        "scenario": block,
    })


def write_marginals(directory: str, stem: str, n: int, supply: dict[int, float],
                    demand: dict[int, float]) -> tuple[str, str]:
    nu0, nuT = marginal_vectors(n, supply, demand)
    return (write_json(os.path.join(directory, f"{stem}_nu0.json"), nu0),
            write_json(os.path.join(directory, f"{stem}_nuT.json"), nuT))

"""The outcome models evaluated unit by unit, as the tests' reference, and
the tests' check of a balanced design's covariance.

`simulation.ClusterModel` evaluates a model only through its per-cluster
outcome sums.  The functions below evaluate the same models on the units,
from the adjacency matrix (`louvain_reference.adjacency`), as
`AnalysisModelParams` and `SimModelParams` write them, with the
interference level `gamma` given as the engines give it; the tests require
the two to agree.
"""

import numpy as np

import covdesign as cd
from louvain_reference import adjacency


def eval_analysis(params, graph, z):
    """Y_i = alpha_i + beta_i z_i + gamma sum_{j~i} z_j for a unit treatment `z`."""
    z = np.asarray(z, dtype=np.float64)
    return params.alpha + params.beta * z + params.gamma * (adjacency(graph) @ z)


def unit_gate(params, graph):
    """The analysis model's GATE unit by unit: mean(beta_i + gamma d_i)."""
    return float(np.mean(params.beta + params.gamma * graph.degrees))


def eval_sim(params, graph, z, noise, gamma):
    """A simulation model for a unit treatment `z`; `noise` holds one
    standard normal per unit, drawn by the caller for one replication."""
    z = np.asarray(z, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    deg = graph.degrees.astype(np.float64)
    nbr = adjacency(graph) @ z
    frac = np.divide(nbr, deg, out=np.zeros_like(nbr), where=deg > 0)
    dbar = graph.mean_degree
    rel_degree = deg / dbar if dbar > 0 else np.zeros_like(deg)
    if params.kind == "linear":
        return (params.alpha + params.beta * z + params.c * rel_degree
                + params.sigma * noise + gamma * frac)
    return ((params.alpha + params.sigma * noise) * rel_degree
            * (1.0 + params.beta * z + gamma * frac))


def unit_outcomes(model, graph, z, noise, gamma):
    if isinstance(model, cd.AnalysisModelParams):
        return eval_analysis(cd.with_gamma(model, gamma), graph, z)
    return eval_sim(model, graph, z, noise, gamma)


def is_valid_covariance(cov, atol=1e-9):
    """Check the balanced-design covariance constraints (symmetry, PSD,
    diagonal 1/4, off-diagonals within [-1/4, 1/4])."""
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        return False
    if not np.allclose(cov, cov.T, atol=atol):
        return False
    if np.max(np.abs(np.diag(cov) - 0.25)) > atol:
        return False
    if np.max(np.abs(cov)) > 0.25 + atol:
        return False
    eigmin = float(np.linalg.eigvalsh((cov + cov.T) / 2.0).min())
    return eigmin > -atol

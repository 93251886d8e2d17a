"""Potential-outcome models and their oracle average treatment effects."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graph import Graph

__all__ = [
    "AnalysisModelParams",
    "SimModelParams",
    "gate_analysis",
    "gate_sim",
    "with_gamma",
]


@dataclass(frozen=True)
class AnalysisModelParams:
    """Linear-in-neighborhood model: Y_i = alpha_i + beta_i z_i + gamma * sum_{j~i} z_j.

    Base levels and direct effects may vary per unit; the interference
    coefficient is a single scalar.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            values = getattr(self, name)
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"{name} must be finite, got {float(values[bad[0]])!r} "
                                 f"for unit {bad[0]}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma!r}")

    @classmethod
    def uniform(cls, n: int, alpha: float = 0.0, beta: float = 1.0, gamma: float = 1.0):
        return cls(np.full(n, float(alpha)), np.full(n, float(beta)), float(gamma))


def check_units(graph: Graph, model=None, clustering=None) -> None:
    """Refuse a clustering or an analysis model sized for another graph."""
    if clustering is not None and clustering.n != graph.n:
        raise ValueError(f"clustering covers {clustering.n} units, graph has {graph.n}")
    if isinstance(model, AnalysisModelParams):
        for name in ("alpha", "beta"):
            shape = np.shape(getattr(model, name))
            if shape != (graph.n,):
                raise ValueError(f"model {name} has shape {shape}, graph has {graph.n} units")


@dataclass(frozen=True)
class SimModelParams:
    """Scalar-parameter simulation models with degree-normalized interference.

    linear:
        Y_i = alpha + beta z_i + c d_i/dbar + sigma eps_i + gamma nbr_i/d_i
    multiplicative:
        Y_i = (alpha + sigma eps_i) (d_i/dbar) (1 + beta z_i + gamma nbr_i/d_i)

    where nbr_i is the treated-neighbor count and dbar the mean degree of the
    graph the model runs on.  For isolated nodes the normalized interference
    term is defined as 0.
    """

    kind: str
    alpha: float = 1.0
    beta: float = 1.0
    c: float = 0.5
    sigma: float = 0.1
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "multiplicative"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        for name in ("alpha", "beta", "c", "sigma", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


def with_gamma(params, gamma: float):
    """Copy of a model parameter set with the interference coefficient replaced."""
    return replace(params, gamma=float(gamma))


def gate_analysis(params: AnalysisModelParams, graph: Graph) -> float:
    """Global average treatment effect under the analysis model: mean(beta_i + gamma d_i)."""
    check_units(graph, params)
    return float(np.mean(params.beta + params.gamma * graph.degrees))


def gate_sim(params: SimModelParams) -> float:
    """Oracle effect for the simulation models: beta+gamma, or alpha*(beta+gamma)."""
    if params.kind == "linear":
        return params.beta + params.gamma
    return params.alpha * (params.beta + params.gamma)

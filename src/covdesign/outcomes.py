"""Potential-outcome model parameters.

A model's oracle effect (the GATE) and its outcomes are taken from its
per-cluster law, `simulation.ClusterModel`, alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "AnalysisModelParams",
    "SimModelParams",
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


def check_units(n: int, model=None, clustering=None) -> None:
    """Refuse a clustering or an analysis model sized for another graph of
    `n` units."""
    if clustering is not None and clustering.n != n:
        raise ValueError(f"clustering covers {clustering.n} units, graph has {n}")
    if isinstance(model, AnalysisModelParams):
        for name in ("alpha", "beta"):
            shape = np.shape(getattr(model, name))
            if shape != (n,):
                raise ValueError(f"model {name} has shape {shape}, graph has {n} units")


@dataclass(frozen=True)
class SimModelParams:
    """Scalar-parameter simulation models with degree-normalized interference.

    The interference coefficient gamma is not a parameter: the engines take
    it from their gamma grid.

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

    def __post_init__(self):
        if self.kind not in ("linear", "multiplicative"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        for name in ("alpha", "beta", "c", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


def with_gamma(params: AnalysisModelParams, gamma: float) -> AnalysisModelParams:
    """Copy of an analysis model with the interference coefficient replaced."""
    return replace(params, gamma=float(gamma))

"""Closed-form bias/variance, the variance bound, and the design objective.

All cluster-level quantities run through the contact matrix C (ordered
cross-endpoint counts), the cluster degree vector d = C 1, and the
treatment covariance matrix.  The enumeration-based variance oracle lives
here as well so the closed forms can be checked against an independent
computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterLaw, ClusterSummary, Clustering
from .designs import Design, pattern_blocks
from .graph import Graph
from .outcomes import AnalysisModelParams, check_units

__all__ = [
    "h_vector",
    "bias_closed_form",
    "omega_from_model",
    "variance_bound",
    "objective_terms",
    "ExactVariance",
    "variance_exact",
]


def _check_array(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """`value` as float64 of the given shape, every entry finite."""
    value = np.asarray(value, dtype=np.float64)
    if value.shape != shape:
        raise ValueError(f"{name} is {value.shape}, expected {shape}")
    bad = np.argwhere(~np.isfinite(value))
    if bad.size:
        index = tuple(int(i) for i in bad[0])
        raise ValueError(f"{name} must be finite, got {float(value[index])!r} at {index}")
    return value


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _bias_core(summary: ClusterSummary, cov: np.ndarray) -> float:
    """4 tr(C Cov) - sum(C); C is symmetric, so tr(C Cov) = <C, Cov>."""
    cov = _check_array("covariance", cov, (summary.k, summary.k))
    return float(4.0 * np.vdot(summary.contact, cov) - summary.total)


def _variance_core(summary: ClusterSummary, cov: np.ndarray, omega: float) -> float:
    """d' Cov d + (1/4) (1'd)^2, the variance bound's design part; omega >= 0."""
    _check_finite("omega", omega)
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    cov = _check_array("covariance", cov, (summary.k, summary.k))
    d = summary.cluster_degrees
    return float(np.vdot(d @ cov, d) + 0.25 * d.sum() ** 2)


def h_vector(params: AnalysisModelParams, graph: Graph | ClusterLaw,
             clustering: Clustering) -> np.ndarray:
    """Per-cluster sums of (beta_i - gamma * d_i), the linear coefficient of
    the centered estimator in the cluster treatment vector; the degrees d
    are read from the graph or from its `ClusterLaw`."""
    check_units(graph.n, params, clustering)
    per_unit = params.beta - params.gamma * graph.degrees.astype(np.float64)
    return np.bincount(clustering.assignment, per_unit, minlength=clustering.k)


def bias_closed_form(summary: ClusterSummary, cov: np.ndarray, gamma: float) -> float:
    """(gamma/n) * (4 trace(C Cov) - sum(C)): the exact estimator bias under
    the analysis model, which depends on the design only through Cov."""
    _check_finite("gamma", gamma)
    return gamma / summary.n * _bias_core(summary, cov)


def omega_from_model(summary: ClusterSummary, h: np.ndarray, gamma: float) -> float:
    """Smallest omega with |h_k| <= omega * gamma * d_k for all clusters.

    Infinite when some cluster has zero degree mass but a nonzero h_k,
    in which case no comparability constant exists.
    """
    _check_finite("gamma", gamma)
    if gamma == 0.0:
        raise ValueError("omega is undefined for gamma = 0")
    h = _check_array("h", h, (summary.k,))
    d = summary.cluster_degrees
    ratios = np.zeros_like(h)
    positive = d > 0
    ratios[positive] = np.abs(h[positive]) / (abs(gamma) * d[positive])
    if np.any(~positive & (h != 0.0)):
        return float("inf")
    return float(ratios.max()) if ratios.size else 0.0


def variance_bound(summary: ClusterSummary, cov: np.ndarray, gamma: float,
                   omega: float) -> float:
    """Upper bound on the estimator variance:
    (8 gamma^2 (omega^2+4) / n^2) * d' (Cov + (1/4) 11') d."""
    _check_finite("gamma", gamma)
    return 8.0 * gamma**2 * (omega**2 + 4.0) / summary.n**2 * _variance_core(summary, cov, omega)


def objective_terms(summary: ClusterSummary, cov: np.ndarray,
                    omega: float) -> tuple[float, float]:
    """Scale-free squared-bias and variance-bound terms of the design objective.

    The common gamma^2/n^2 multiplier of the mean-squared-error bound is
    dropped: it involves only the unknown interference strength and does
    not move the minimizer.
    """
    variance_term = 8.0 * (omega**2 + 4.0) * _variance_core(summary, cov, omega)
    return _bias_core(summary, cov) ** 2, variance_term


@dataclass(frozen=True)
class ExactVariance:
    """Enumerated variance of the adjusted estimator plus its decomposition.

    `linear_term`, `cross_term` and `quad_term` are Var[h't],
    Cov[h't, t'Ct] and Var[t'Ct] of the enumerated distribution; the
    decomposition identity states
    variance == (4/n^2) (linear + 4 gamma cross + 4 gamma^2 quad).
    """

    variance: float
    linear_term: float
    cross_term: float
    quad_term: float
    gamma: float
    n: int

    @property
    def three_term_sum(self) -> float:
        return (4.0 / self.n**2) * (
            self.linear_term
            + 4.0 * self.gamma * self.cross_term
            + 4.0 * self.gamma**2 * self.quad_term
        )


def variance_exact(summary: ClusterSummary, h: np.ndarray, gamma: float,
                   design: Design) -> ExactVariance:
    """Variance of (2/n)(h't + 2 gamma t'Ct) by full enumeration.

    Sums over the design's exact outcome distribution, so it is an oracle
    independent of any closed-form variance expression.  Designs that
    cannot enumerate raise DesignEnumerationError.
    """
    if design.k != summary.k:
        raise ValueError(f"design has K={design.k}, summary has K={summary.k}")
    _check_finite("gamma", gamma)
    h = _check_array("h", h, (summary.k,))
    patterns, probs = design.exact_distribution()
    u = np.empty(patterns.shape[0])
    q = np.empty(patterns.shape[0])
    for rows in pattern_blocks(patterns.shape[0]):
        t = patterns[rows]
        np.matmul(t, h, out=u[rows])
        np.einsum("mj,mj->m", t @ summary.contact, t, out=q[rows])
    estimates = (2.0 / summary.n) * (u + 2.0 * gamma * q)
    mean_u = probs @ u
    mean_q = probs @ q
    mean_est = probs @ estimates
    return ExactVariance(
        variance=float(probs @ (estimates - mean_est) ** 2),
        linear_term=float(probs @ (u - mean_u) ** 2),
        cross_term=float(probs @ ((u - mean_u) * (q - mean_q))),
        quad_term=float(probs @ (q - mean_q) ** 2),
        gamma=float(gamma),
        n=summary.n,
    )

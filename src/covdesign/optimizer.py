"""Projected gradient descent over the unit-row correlation root.

The decision variable is a K x K matrix R with unit-norm rows, so the
Gram matrix A = R R^T is a legal Gaussian correlation matrix and the
induced treatment covariance X = arcsin(A)/(2 pi) automatically satisfies
the balanced-design constraints (diagonal 1/4, off-diagonals in
[-1/4, 1/4]).  Steps use an adaptive-moment update followed by row
renormalization, which is the Frobenius projection back onto the
constraint set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import objective_terms
from .clustering import ClusterSummary

__all__ = [
    "OptimizerConfig",
    "OptTrace",
    "OptimizationError",
    "project_rows",
    "covariance_from_root",
    "objective_from_root",
    "gradient_from_root",
    "optimize",
]

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class OptimizerConfig:
    iterations: int = 2000
    step_size: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    moment_epsilon: float = 1e-8
    clamp_epsilon: float = 1e-6
    omega: float = 1.0
    seed: int = 0
    trace_stride: int = 10

    def __post_init__(self):
        for name in ("step_size", "omega", "clamp_epsilon", "beta1", "beta2", "moment_epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.iterations < 1 or self.step_size <= 0 or self.trace_stride < 1:
            raise ValueError("iterations, step_size and trace_stride must be positive")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("moment decay rates must lie in (0, 1)")
        if self.moment_epsilon <= 0 or self.clamp_epsilon <= 0 or self.omega < 0:
            raise ValueError("epsilons must be positive and omega nonnegative")


@dataclass
class OptTrace:
    """Objective trajectory recorded every `trace_stride` iterations.

    The first entry is the starting point and the last entry always
    corresponds to the returned matrix.
    """

    iterations: list[int] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    bias_term: list[float] = field(default_factory=list)
    variance_term: list[float] = field(default_factory=list)
    clamped: list[int] = field(default_factory=list)
    roots: list[np.ndarray] = field(default_factory=list)

    def append(self, iteration: int, f: float, bias: float, variance: float,
               n_clamped: int, root: np.ndarray | None = None) -> None:
        self.iterations.append(iteration)
        self.objective.append(f)
        self.bias_term.append(bias)
        self.variance_term.append(variance)
        self.clamped.append(n_clamped)
        if root is not None:
            self.roots.append(root.copy())

    def rows(self):
        return zip(self.iterations, self.objective, self.bias_term,
                   self.variance_term, self.clamped)


class OptimizationError(RuntimeError):
    def __init__(self, message: str, trace: OptTrace):
        super().__init__(message)
        self.trace = trace


def project_rows(r: np.ndarray) -> np.ndarray:
    """Normalize each row to unit 2-norm; numerically zero rows fall back
    to the corresponding standard basis row."""
    r = np.asarray(r, dtype=np.float64)
    out = r.copy()
    norms = np.linalg.norm(out, axis=1)
    zero = norms < 1e-12
    if np.any(zero):
        out[zero] = np.eye(r.shape[0])[zero]
        norms = np.linalg.norm(out, axis=1)
    return out / norms[:, None]


def covariance_from_root(r: np.ndarray) -> np.ndarray:
    """Treatment covariance arcsin(R R^T)/(2 pi) with the diagonal pinned
    at exactly 1/4 (unit rows make it 1/4 up to rounding)."""
    r = np.asarray(r, dtype=np.float64)
    gram = np.clip(r @ r.T, -1.0, 1.0)
    cov = np.arcsin(gram) / _TWO_PI
    np.fill_diagonal(cov, 0.25)
    return cov


def _clamped_gram(r: np.ndarray, clamp_epsilon: float) -> tuple[np.ndarray, int]:
    gram = r @ r.T
    off = ~np.eye(gram.shape[0], dtype=bool)
    limit = 1.0 - clamp_epsilon
    n_clamped = int(np.count_nonzero(np.abs(gram[off]) > limit))
    clamped = np.clip(gram, -limit, limit)
    np.fill_diagonal(clamped, 1.0)
    return clamped, n_clamped


def objective_from_root(r: np.ndarray, summary: ClusterSummary, omega: float,
                        clamp_epsilon: float = 1e-6):
    """Objective value at a root matrix, with its two terms and the count of
    off-diagonal Gram entries saturating the arcsine clamp.

    The Gram diagonal is treated as fixed at 1 (the projection pins it),
    so the induced covariance diagonal is 1/4 regardless of row norms;
    this matches the gradient, which carries no diagonal contribution.
    """
    gram, n_clamped = _clamped_gram(np.asarray(r, dtype=np.float64), clamp_epsilon)
    cov = np.arcsin(gram) / _TWO_PI
    np.fill_diagonal(cov, 0.25)
    bias_term, variance_term = objective_terms(summary, cov, omega)
    return bias_term + variance_term, bias_term, variance_term, n_clamped


def gradient_from_root(r: np.ndarray, summary: ClusterSummary, omega: float,
                       clamp_epsilon: float = 1e-6) -> np.ndarray:
    """Chain-rule gradient of the objective with respect to the root.

    With X = arcsin(A)/(2 pi):  dF/dX = 8 (4 tr(C X) - S) C + 8 (omega^2+4) d d';
    dX/dA is the elementwise arcsine derivative, zeroed on the diagonal
    because the projection fixes it; and dA/dR contributes 2 G_A R for the
    symmetric G_A.
    """
    r = np.asarray(r, dtype=np.float64)
    gram, _ = _clamped_gram(r, clamp_epsilon)
    cov = np.arcsin(gram) / _TWO_PI
    np.fill_diagonal(cov, 0.25)
    c = summary.contact
    d = summary.cluster_degrees
    g_cov = (8.0 * (4.0 * np.trace(c @ cov) - summary.total) * c
             + 8.0 * (omega**2 + 4.0) * np.outer(d, d))
    with np.errstate(divide="ignore"):
        deriv = 1.0 / (_TWO_PI * np.sqrt(1.0 - gram**2))
    np.fill_diagonal(deriv, 0.0)
    gradient = 2.0 * (g_cov * deriv) @ r
    if not np.all(np.isfinite(gradient)):
        raise FloatingPointError("non-finite gradient; arcsine clamp failed")
    return gradient


def optimize(summary: ClusterSummary, config: OptimizerConfig = OptimizerConfig(),
             r0: np.ndarray | None = None,
             collect_roots: bool = False) -> tuple[np.ndarray, OptTrace]:
    """Minimize the design objective over unit-row roots.

    Starts from the identity (the independent design) unless a warm start
    is given.  Individual steps may transiently increase the objective
    (adaptive step plus projection), but the final value is required to
    improve on - or match - the starting value; a violation raises with
    the trace attached.  Deterministic for a fixed configuration.  With
    `collect_roots` the trace keeps a copy of the root at every recorded
    iteration so constraint satisfaction can be audited afterwards.
    """
    k = summary.k
    if r0 is None:
        r = np.eye(k)
    else:
        r0 = np.asarray(r0, dtype=np.float64)
        if r0.shape != (k, k):
            raise ValueError(f"warm start is {r0.shape}, expected ({k}, {k})")
        r = project_rows(r0)

    trace = OptTrace()
    f0, b0, v0, c0 = objective_from_root(r, summary, config.omega, config.clamp_epsilon)
    trace.append(0, f0, b0, v0, c0, r if collect_roots else None)

    m = np.zeros((k, k))
    v = np.zeros((k, k))
    for step in range(1, config.iterations + 1):
        g = gradient_from_root(r, summary, config.omega, config.clamp_epsilon)
        m = config.beta1 * m + (1.0 - config.beta1) * g
        v = config.beta2 * v + (1.0 - config.beta2) * g * g
        m_hat = m / (1.0 - config.beta1**step)
        v_hat = v / (1.0 - config.beta2**step)
        r = project_rows(r - config.step_size * m_hat / (np.sqrt(v_hat) + config.moment_epsilon))
        if step % config.trace_stride == 0 or step == config.iterations:
            f, b, vt, nc = objective_from_root(r, summary, config.omega, config.clamp_epsilon)
            if not np.isfinite(f):
                raise OptimizationError(f"objective became non-finite at step {step}", trace)
            trace.append(step, f, b, vt, nc, r if collect_roots else None)

    final = trace.objective[-1]
    if not final <= f0 * (1.0 + 1e-12) + 1e-12:
        raise OptimizationError(
            f"final objective {final} did not improve on start {f0}", trace
        )
    return r, trace

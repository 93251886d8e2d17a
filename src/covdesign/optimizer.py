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

from .analysis import _bias_core, objective_terms
from .clustering import ClusterSummary
from .designs import arcsin_covariance

__all__ = [
    "OptimizerConfig",
    "OptTrace",
    "OptimizationError",
    "covariance_from_root",
    "evaluate_root",
    "optimize",
]


# Adam's moment decay rates and denominator epsilon
BETA1 = 0.9
BETA2 = 0.999
MOMENT_EPSILON = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    iterations: int = 2000
    step_size: float = 0.01
    clamp_epsilon: float = 1e-6
    omega: float = 1.0
    trace_stride: int = 10

    def __post_init__(self):
        for name in ("step_size", "omega", "clamp_epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.iterations < 1 or self.step_size <= 0 or self.trace_stride < 1:
            raise ValueError("iterations, step_size and trace_stride must be positive")
        if self.clamp_epsilon <= 0 or self.omega < 0:
            raise ValueError("clamp_epsilon must be positive and omega nonnegative")


@dataclass
class OptTrace:
    """Objective trajectory recorded every `trace_stride` iterations.

    The first entry is the starting point and the last entry always
    corresponds to the returned matrix.  `grad_norm` is the gradient's norm.
    """

    iterations: list[int] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    bias_term: list[float] = field(default_factory=list)
    variance_term: list[float] = field(default_factory=list)
    clamped: list[int] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)
    roots: list[np.ndarray] = field(default_factory=list)

    def append(self, iteration: int, f: float, bias: float, variance: float,
               n_clamped: int, grad_norm: float, root: np.ndarray | None = None) -> None:
        self.iterations.append(iteration)
        self.objective.append(f)
        self.bias_term.append(bias)
        self.variance_term.append(variance)
        self.clamped.append(n_clamped)
        self.grad_norm.append(grad_norm)
        if root is not None:
            self.roots.append(root.copy())

    def rows(self):
        return zip(self.iterations, self.objective, self.bias_term,
                   self.variance_term, self.clamped, self.grad_norm)


class OptimizationError(RuntimeError):
    def __init__(self, message: str, trace: OptTrace):
        super().__init__(message)
        self.trace = trace


def _normalize_rows(r: np.ndarray) -> np.ndarray:
    """Scale each row of `r` to unit 2-norm in place; numerically zero rows
    become the corresponding standard basis row."""
    norms = np.sqrt(np.einsum("ij,ij->i", r, r))
    zero = norms < 1e-12
    if np.any(zero):
        r[zero] = np.eye(r.shape[0])[zero]
        norms[zero] = 1.0
    r /= norms[:, None]
    return r


def covariance_from_root(r: np.ndarray) -> np.ndarray:
    """Treatment covariance arcsin(R R^T)/(2 pi) with the diagonal pinned
    at exactly 1/4 (unit rows make it 1/4 up to rounding)."""
    r = np.asarray(r, dtype=np.float64)
    return arcsin_covariance(np.clip(r @ r.T, -1.0, 1.0))


class _Step:
    """The objective's constants and the K x K buffers of one evaluation.

    With X = arcsin(A)/(2 pi) of the Gram matrix A = R R^T clamped to
    |A_ij| <= 1 - clamp_epsilon, dF/dX = a C + Q, where a = 8 (4 tr(C X) - S)
    and Q = 8 (omega^2+4) d d'; tr(C X) = <C, X> as C is symmetric.  dX/dA is
    elementwise and dA/dR gives 2 G_A R; the 2 is folded into the slope
    1/(pi sqrt(1 - A^2)).  diag(A) plays no part: the projection pins it at 1.
    """

    def __init__(self, summary: ClusterSummary, omega: float, clamp_epsilon: float):
        d = summary.cluster_degrees
        k = summary.k
        self.summary, self.omega = summary, omega
        self.q = np.outer(8.0 * (omega**2 + 4.0) * d, d)
        self.limit = 1.0 - clamp_epsilon
        self.gram, self.cov, self.d_cov, self.grad = (np.empty((k, k)) for _ in range(4))

    def run(self, r: np.ndarray, terms: bool):
        """Write the gradient at `r` into ``self.grad``; with `terms`, return
        ``(f, bias_term, variance_term, n_clamped)``, where ``n_clamped``
        counts the off-diagonal Gram entries the clamp moved."""
        gram = np.matmul(r, r.T, out=self.gram)
        if terms:
            over = np.abs(gram) > self.limit
            n_clamped = int(np.count_nonzero(over)) - int(np.count_nonzero(np.diagonal(over)))
        np.clip(gram, -self.limit, self.limit, out=gram)
        cov = arcsin_covariance(gram, out=self.cov)
        d_cov = np.multiply(self.summary.contact, 8.0 * _bias_core(self.summary, cov),
                            out=self.d_cov)
        d_cov += self.q
        # pi sqrt(1 - A^2) = 1 / (2 dX/dA), built in gram's buffer
        denom = np.multiply(gram, gram, out=gram)
        np.subtract(1.0, denom, out=denom)
        np.sqrt(denom, out=denom)
        denom *= np.pi
        d_cov /= denom
        np.fill_diagonal(d_cov, 0.0)
        np.matmul(d_cov, r, out=self.grad)
        if terms:
            bias_term, variance_term = objective_terms(self.summary, cov, self.omega)
            return bias_term + variance_term, bias_term, variance_term, n_clamped


def evaluate_root(r: np.ndarray, summary: ClusterSummary, omega: float,
                  clamp_epsilon: float = 1e-6):
    """``(f, bias_term, variance_term, n_clamped, gradient)`` at a root, all
    from one Gram matrix A = R R^T clamped to |A_ij| <= 1 - clamp_epsilon
    (``n_clamped`` counts the off-diagonal entries it moved); see `_Step`.
    The gradient is unchecked.
    """
    step = _Step(summary, omega, clamp_epsilon)
    return (*step.run(np.ascontiguousarray(r, dtype=np.float64), True), step.grad)


def _finite(gradient: np.ndarray) -> np.ndarray:
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
        r = np.array(r0, dtype=np.float64, order="C")
        if r.shape != (k, k):
            raise ValueError(f"warm start is {r.shape}, expected ({k}, {k})")
        if not np.all(np.isfinite(r)):
            raise ValueError("warm start has NaN or inf entries")
        _normalize_rows(r)

    evaluator = _Step(summary, config.omega, config.clamp_epsilon)
    g = evaluator.grad
    trace = OptTrace()
    f0, b0, v0, c0 = evaluator.run(r, True)
    trace.append(0, f0, b0, v0, c0, float(np.linalg.norm(g)), r if collect_roots else None)

    # moments scaled by 1/(1 - beta): m <- beta1 m + g, v <- beta2 v + g*g, and
    # the step lr m_hat / (sqrt(v_hat) + eps) becomes alpha_t m / (sqrt(v) + eps_t)
    m = np.zeros((k, k))
    v = np.zeros((k, k))
    work = np.empty((k, k))
    for step in range(1, config.iterations + 1):
        if not math.isfinite(np.vdot(g, g)):
            _finite(g)
        m *= BETA1
        m += g
        v *= BETA2
        v += np.multiply(g, g, out=work)
        c1 = (1.0 - BETA1**step) / (1.0 - BETA1)
        c2 = (1.0 - BETA2**step) / (1.0 - BETA2)
        np.sqrt(v, out=work)
        work += MOMENT_EPSILON * math.sqrt(c2)
        np.divide(m, work, out=work)
        work *= config.step_size * math.sqrt(c2) / c1
        r -= work
        _normalize_rows(r)
        traced = step % config.trace_stride == 0 or step == config.iterations
        terms = evaluator.run(r, traced)
        if traced:
            f, b, vt, nc = terms
            if not np.isfinite(f):
                raise OptimizationError(f"objective became non-finite at step {step}", trace)
            trace.append(step, f, b, vt, nc, float(np.linalg.norm(g)),
                         r if collect_roots else None)

    final = trace.objective[-1]
    if not final <= f0 * (1.0 + 1e-12) + 1e-12:
        raise OptimizationError(
            f"final objective {final} did not improve on start {f0}", trace
        )
    return r, trace

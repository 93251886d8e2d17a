"""Riemannian Barzilai-Borwein descent over a low-rank unit-row root.

The decision variable is a K x p matrix R with unit-norm rows, so the
Gram matrix A = R R^T is a legal Gaussian correlation matrix and the
induced treatment covariance X = arcsin(A)/(2 pi) automatically satisfies
the balanced-design constraints (diagonal 1/4, off-diagonals in
[-1/4, 1/4]).  The unit-row matrices form the oblique manifold; steps
follow its Riemannian gradient, row renormalization is the retraction,
and the step sizes are Barzilai-Borwein steps safeguarded by a
nonmonotone Armijo backtrack (Grippo, Lampariello & Lucidi 1986).  The
rank p is a rule of K (Burer-Monteiro; Boumal, Voroninski & Bandeira
2016), not a setting.  The arcsine's slope is infinite at +-1, where plain BB
stalls, so the descent runs in stages under a falling clamp of the Gram
entries (`SCHEDULE`) and ends once it stalls under the last.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .analysis import objective_terms
from .clustering import ClusterSummary
from .designs import arcsin_covariance, nonzero_columns

__all__ = [
    "OptimizerConfig",
    "OptTrace",
    "OptimizationError",
    "evaluate_root",
    "optimize",
    "rank_for",
]


# the arcsine clamp: Gram entries are held within +-(1 - CLAMP_EPSILON)
CLAMP_EPSILON = 1e-6
# clamp continuation: (fraction of the budget at which the stage ends, its
# clamp epsilon); the result is scored under the last stage's, CLAMP_EPSILON
SCHEDULE = ((1 / 3, 1e-2), (2 / 3, 1e-4), (1.0, CLAMP_EPSILON))
# a stage ends, and in the last stage the run, once its best design-dependent
# part g fell by at most STALL g over the last WINDOW evaluations
WINDOW = 100
STALL = 1e-3
# a trace row every TRACE_STRIDE evaluations
TRACE_STRIDE = 10
# nonmonotone Armijo test: sufficient-decrease constant, and how many
# accepted values of f the reference maximum looks back over
ARMIJO = 1e-4
MEMORY = 10
# the first step moves the root by FIRST_STEP in Frobenius norm
FIRST_STEP = 0.1
# seed of the row-normalized Gaussian start used when p < K
START_SEED = 0
# rows per strip of the Gram matrix in one evaluation
STRIP = 64


def rank_for(k: int) -> int:
    """Columns of the root for K clusters: min(K, max(32, ceil(sqrt(2K))))."""
    return min(k, max(32, math.isqrt(2 * k - 1) + 1))


@dataclass(frozen=True)
class OptimizerConfig:
    iterations: int = 2000
    omega: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega!r}")
        if self.iterations < 1 or self.omega < 0:
            raise ValueError("iterations must be positive and omega nonnegative")


@dataclass
class OptTrace:
    """Objective trajectory: the current iterate every `TRACE_STRIDE`
    evaluations, then the returned iterate.

    `iterations` holds the evaluation count of each row, `step` the step
    size that accepted the row's iterate (0 at the start), `clamped` the
    count of its off-diagonal Gram entries beyond the final clamp
    1 - CLAMP_EPSILON, counted from the row's root, `grad_norm` the norm of
    its Riemannian gradient, `design_term` the design-dependent part of f and
    `epsilon` the clamp that f (and so every column but `clamped`) was taken
    under.  `objective_initial` is the value the result may not exceed: f
    under CLAMP_EPSILON at the warm start, or at the independent design I/4.
    `stages` holds each `SCHEDULE` stage's (epsilon, evaluations used), and
    `stop` why the last one ended: "stall", "budget" or "zero-gradient".
    """

    iterations: list[int] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    bias_term: list[float] = field(default_factory=list)
    variance_term: list[float] = field(default_factory=list)
    clamped: list[int] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)
    step: list[float] = field(default_factory=list)
    design_term: list[float] = field(default_factory=list)
    epsilon: list[float] = field(default_factory=list)
    objective_initial: float = math.nan
    evaluations: int = 0
    stages: list[tuple[float, int]] = field(default_factory=list)
    stop: str = ""

    def append(self, iteration: int, point: "_Point", floor: float, epsilon: float,
               root: np.ndarray) -> None:
        self.iterations.append(iteration)
        self.objective.append(point.f)
        self.bias_term.append(point.bias)
        self.variance_term.append(point.variance)
        self.clamped.append(_clamp_count(root))
        self.grad_norm.append(math.sqrt(point.gg))
        self.step.append(point.step)
        self.design_term.append(point.f - floor)
        self.epsilon.append(epsilon)

    # the trace file's columns, in the order of `rows`
    COLUMNS = ("iteration", "objective", "bias_term", "variance_term", "clamped", "grad_norm",
               "step", "g", "epsilon")

    def rows(self):
        return zip(self.iterations, self.objective, self.bias_term, self.variance_term,
                   self.clamped, self.grad_norm, self.step, self.design_term, self.epsilon)


class OptimizationError(ValueError):
    """Raised when f turns non-finite or the result is worse than `objective_initial`."""


def _clamp_count(r: np.ndarray) -> int:
    """Off-diagonal entries of R R^T beyond the arcsine clamp 1 - CLAMP_EPSILON."""
    gram = r @ r.T
    np.abs(gram, out=gram)
    limit = 1.0 - CLAMP_EPSILON
    return int(np.count_nonzero(gram > limit)) - int(np.count_nonzero(np.diagonal(gram) > limit))


def _normalize_rows(r: np.ndarray) -> np.ndarray:
    """Scale each row of `r` to unit 2-norm in place; a numerically zero row i
    becomes the standard basis row e_(i mod p)."""
    norms = np.sqrt(np.einsum("ij,ij->i", r, r))
    zero = norms < 1e-12
    if np.any(zero):
        r[zero] = np.eye(r.shape[1])[np.flatnonzero(zero) % r.shape[1]]
        norms[zero] = 1.0
    r /= norms[:, None]
    return r


class _Step:
    """The objective's constants and the buffers of one evaluation at a
    K x p root, laid out in strips of `STRIP` rows over the upper triangle.

    With X = arcsin(A)/(2 pi) of the Gram matrix A = R R^T clamped to
    |A_ij| <= `limit` (1 - CLAMP_EPSILON unless reset), dF/dX = a C + Q, where
    a = 8 (4 tr(C X) - S) and Q = 8 (omega^2+4) d d'; tr(C X) = <C, X> as C
    is symmetric.  dX/dA is elementwise and dA/dR gives 2 G_A R; the 2 is
    folded into the slope 1/(pi sqrt(1 - A^2)), and its 1/pi into a and Q.
    diag(A) plays no part: the retraction pins it at 1.

    Strip (i0, i1) holds rows i0:i1 and columns i0:K of A, so an evaluation
    maps about K^2/2 entries.  The entries right of a strip's diagonal block
    stand for their mirror images too, so they count twice: `<C, X>` is read
    against a strip of C with them doubled, and `d'Xd` as d_s'(X_s w_s) with
    the matching entries of w_s = d[i0:] doubled.  The gradient's slope
    a C + Q is read from undoubled strips of C and Q whose diagonal entries
    are zeroed, so the slope is 0 on the diagonal; it adds each strip's
    slope block times R and the transpose of its off-block part times R_s.
    The products cost K^2 p / 2 each.
    """

    def __init__(self, summary: ClusterSummary, omega: float, p: int):
        d = summary.cluster_degrees
        k = summary.k
        self.summary, self.omega = summary, omega
        self.strips = [(i0, min(i0 + STRIP, k)) for i0 in range(0, k, STRIP)]
        self.c2, self.w, self.c, self.q = [], [], [], []
        for i0, i1 in self.strips:
            c = np.array(summary.contact[i0:i1, i0:])
            c2 = c.copy()
            c2[:, i1 - i0:] *= 2.0
            w = d[i0:].copy()
            w[i1 - i0:] *= 2.0
            q = np.outer(8.0 * (omega**2 + 4.0) / np.pi * d[i0:i1], d[i0:])
            # the gradient's strips carry no diagonal: its slope there is 0
            np.fill_diagonal(c, 0.0)
            np.fill_diagonal(q, 0.0)
            self.c2.append(c2)
            self.w.append(w)
            self.c.append(c)
            self.q.append(q)
        self.limit = 1.0 - CLAMP_EPSILON
        self.gram = [np.empty((i1 - i0, k - i0)) for i0, i1 in self.strips]
        # one buffer, seen per strip, for the covariance and then the slope
        work = np.empty(self.gram[0].size)
        self.work = [work[:g.size].reshape(g.shape) for g in self.gram]
        self.part = np.empty((k, p))
        self.grad = np.empty((k, p))
        self.bias = math.nan

    def objective(self, r: np.ndarray):
        """``(f, bias_term, variance_term)`` at `r`; keeps the clamped Gram
        strips for `gradient`."""
        d = self.summary.cluster_degrees
        cx = dxd = 0.0
        for (i0, i1), gram, cov, c2, w in zip(self.strips, self.gram, self.work, self.c2,
                                              self.w):
            np.matmul(r[i0:i1], r[i0:].T, out=gram)
            np.clip(gram, -self.limit, self.limit, out=gram)
            arcsin_covariance(gram, out=cov)
            cx += float(np.vdot(c2, cov))
            dxd += float(d[i0:i1] @ (cov @ w))
        self.bias = bias = 4.0 * cx - self.summary.total
        variance_term = 8.0 * (self.omega**2 + 4.0) * (dxd + 0.25 * d.sum() ** 2)
        return bias * bias + variance_term, bias * bias, variance_term

    def gradient(self, r: np.ndarray) -> np.ndarray:
        """The Euclidean gradient at `r`, the root of the last `objective`
        call, written into ``self.grad``; consumes the Gram strips."""
        grad, part = self.grad, self.part
        grad.fill(0.0)
        a = 8.0 * self.bias / np.pi
        for (i0, i1), gram, slope, c, q in zip(self.strips, self.gram, self.work, self.c,
                                               self.q):
            m = i1 - i0
            np.multiply(c, a, out=slope)
            slope += q
            # sqrt(1 - A^2) = 1 / (2 pi dX/dA), built in the strip's buffer
            denom = np.multiply(gram, gram, out=gram)
            np.subtract(1.0, denom, out=denom)
            np.sqrt(denom, out=denom)
            slope /= denom
            # rows i0:i1, then the off-block part's mirror image on rows i1:K
            grad[i0:i1] += np.matmul(slope, r[i0:], out=part[:m])
            grad[i1:] += np.matmul(slope[:, m:].T, r[i0:i1], out=part[i1:])
        return grad


def evaluate_root(r: np.ndarray, summary: ClusterSummary, omega: float):
    """``(f, bias_term, variance_term, n_clamped, gradient)`` at a K x p root,
    from the Gram matrix A = R R^T clamped to |A_ij| <= 1 - CLAMP_EPSILON
    (``n_clamped`` counts the off-diagonal entries it moved), evaluated as
    `optimize` does; see `_Step`.  The gradient is the Euclidean one, K x p,
    and unchecked.
    """
    r = np.ascontiguousarray(r, dtype=np.float64)
    step = _Step(summary, omega, r.shape[1])
    terms = step.objective(r)
    return (*terms, _clamp_count(r), step.gradient(r))


@dataclass
class _Point:
    """An accepted iterate's values: f and its terms, the Riemannian
    gradient `rg` with its squared norm, and the step that reached it."""

    f: float
    bias: float
    variance: float
    rg: np.ndarray
    gg: float
    step: float


def _point(r: np.ndarray, grad: np.ndarray, terms, step: float) -> _Point:
    """Project the Euclidean gradient onto the tangent space at `r`:
    G - diag(<G_i, R_i>) R."""
    rg = grad - np.einsum("ij,ij->i", grad, r)[:, None] * r
    gg = float(np.vdot(rg, rg))
    if not math.isfinite(gg):
        raise FloatingPointError("non-finite gradient; arcsine clamp failed")
    return _Point(*terms, rg, gg, step)


def _start(k: int, r0: np.ndarray | None) -> np.ndarray:
    """The identity when `rank_for(k)` is K, else a row-normalized Gaussian
    K x p from `START_SEED`; a warm start keeps its nonzero columns."""
    if r0 is None:
        p = rank_for(k)
        if p == k:
            return np.eye(k)
        return _normalize_rows(np.random.default_rng(START_SEED).standard_normal((k, p)))
    r = np.array(r0, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] != k or r.shape[1] > k:
        raise ValueError(f"warm start is {r.shape}, expected ({k}, p) with p <= {k}")
    if not np.all(np.isfinite(r)):
        raise ValueError("warm start has NaN or inf entries")
    # row-major, as every other root is: the row sums then add in one order
    r = np.ascontiguousarray(nonzero_columns(r))
    if r.shape[1] == 0:
        raise ValueError("warm start is all zeros")
    return _normalize_rows(r)


def optimize(summary: ClusterSummary, config: OptimizerConfig = OptimizerConfig(),
             r0: np.ndarray | None = None) -> tuple[np.ndarray, OptTrace]:
    """Minimize the design objective over unit-row K x p roots.

    Starts from `_start`.  `config.iterations` is the budget of trial
    evaluations.  The search runs in the stages of `SCHEDULE`: stage i clamps
    the Gram entries to +-(1 - epsilon_i) and ends once the evaluations reach
    its fraction of the budget, once its best design-dependent part g fell by
    at most STALL g over the last WINDOW evaluations, or at a zero Riemannian
    gradient.  Each stage starts afresh (step, memory and best) from the
    previous stage's best iterate, re-evaluated under its own clamp.  Each
    trial point R - alpha g, renormalized, is accepted once f falls ARMIJO
    alpha |g|^2 below the largest of the stage's last MEMORY accepted values,
    and alpha halves otherwise; only an accepted trial has its gradient
    formed.  An accepted step sets the next alpha to the Barzilai-Borwein
    step |<s,s>/<s,y>| or |<s,y>/<y,y>|, alternately.  Returns the last
    stage's best accepted iterate, or the start where that is no better under
    the final clamp; a result above `trace.objective_initial` raises
    OptimizationError.  Deterministic for a fixed configuration.
    """
    k, omega = summary.k, config.omega
    start_r = best_r = _start(k, r0)
    step = _Step(summary, omega, best_r.shape[1])
    floor = 2.0 * (omega**2 + 4.0) * summary.total**2
    trace = OptTrace()
    # the start scored under 1 - CLAMP_EPSILON, the clamp the result is scored under
    terms = step.objective(start_r)
    start = _point(start_r, step.gradient(start_r), terms, 0.0)
    trace.objective_initial = (start.f if r0 is not None
                               else sum(objective_terms(summary, 0.25 * np.eye(k), omega)))
    evaluation = 0
    for fraction, epsilon in SCHEDULE:
        end = round(fraction * config.iterations)
        first = evaluation
        step.limit = 1.0 - epsilon
        # f changed with the clamp: the step, the memory and the best restart
        # an iterate is never written to once accepted: the best needs no copy
        r = best_r
        terms = step.objective(r)
        cur = best = _point(r, step.gradient(r), terms, 0.0)
        recent = deque([cur.f], maxlen=MEMORY)
        window = deque([cur.f - floor], maxlen=WINDOW + 1)
        alpha = FIRST_STEP / math.sqrt(cur.gg) if cur.gg > 0 else 0.0
        accepted = 0
        trace.stop = "budget"
        while evaluation < end:
            if cur.gg == 0.0:
                trace.stop = "zero-gradient"
                break
            if evaluation % TRACE_STRIDE == 0:
                trace.append(evaluation, cur, floor, epsilon, r)
            trial = r - alpha * cur.rg
            _normalize_rows(trial)
            evaluation += 1
            terms = step.objective(trial)
            if not math.isfinite(terms[0]):
                raise OptimizationError(f"objective became non-finite at evaluation {evaluation}")
            if terms[0] <= max(recent) - ARMIJO * alpha * cur.gg:
                new = _point(trial, step.gradient(trial), terms, alpha)
                s, y = trial - r, new.rg - cur.rg
                sy = abs(float(np.vdot(s, y)))
                accepted += 1
                if sy > 0.0:
                    alpha = (float(np.vdot(s, s)) / sy if accepted % 2
                             else sy / float(np.vdot(y, y)))
                r, cur = trial, new
                recent.append(cur.f)
                if cur.f < best.f:
                    best, best_r = cur, r
            else:
                alpha *= 0.5
            window.append(best.f - floor)
            if len(window) > WINDOW and window[0] - window[-1] <= STALL * window[-1]:
                trace.stop = "stall"
                break
        trace.stages.append((epsilon, evaluation - first))
    trace.evaluations = evaluation
    best, best_r = min((start, start_r), (best, best_r), key=lambda pair: pair[0].f)
    trace.append(evaluation, best, floor, epsilon, best_r)

    if not best.f <= trace.objective_initial * (1.0 + 1e-12) + 1e-12:
        raise OptimizationError(
            f"final objective {best.f} did not improve on start {trace.objective_initial}")
    return best_r, trace

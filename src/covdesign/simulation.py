"""Monte Carlo and exact-enumeration comparison of randomization designs.

Both run one estimator kernel on per-cluster outcome sums (`ClusterModel`)
for batches of cluster draws: sampled blocks of `BLOCK` replications, or a
design's full pattern distribution in blocks of `designs.PATTERN_BLOCK`
rows.  Each sampled block draws from its own generator seeded by (base
seed, design content key, gamma index, block index), so a design's draws
and noise ignore the other designs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._memory import bytes_text, physical_memory
from .clustering import ClusterLaw, Clustering, cluster_law
from .designs import Design, pattern_blocks
from .estimators import ESTIMATOR_KINDS, cluster_estimates
from .graph import Graph
from .outcomes import AnalysisModelParams, SimModelParams, check_units

__all__ = [
    "SimConfig",
    "ReportCell",
    "SimReport",
    "run_mc",
    "run_exact",
]

# replications per seeded stream: amortizes per-call overhead while the
# multiplicative model's units x block temporaries stay near 6 MB at n = 11.6k
BLOCK = 64


# bytes per (gamma, design, replication, estimator) cell of run_mc's result
# arrays: a float64 estimate and a bool degeneracy flag
CELL_BYTES = 9


def _check_inputs(law: ClusterLaw, designs, model, gammas, estimators) -> None:
    """The refusals `run_mc` (through `SimConfig`) and `run_exact` share."""
    check_units(law.n, model)
    if not gammas:
        raise ValueError("gamma grid must be nonempty")
    if not all(math.isfinite(g) for g in gammas):
        raise ValueError(f"gammas must be finite, got {list(gammas)}")
    for label, items in (("design", designs), ("estimator", estimators)):
        if not items:
            raise ValueError(f"at least one {label} is required")
    # SimReport.cell finds a cell by design name, gamma and estimator, so each must be unique
    for label, values in (("design name", [name for name, _ in designs]),
                          ("gamma", [float(g) for g in gammas]),
                          ("estimator", list(estimators))):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"duplicate {label} {value!r}")
    for kind in estimators:
        if kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator {kind!r}; valid: {ESTIMATOR_KINDS}")
    for name, design in designs:
        if design.k != law.k:
            raise ValueError(f"design {name!r} has K={design.k}, clustering has K={law.k}")


@dataclass(frozen=True)
class SimConfig:
    law: ClusterLaw
    designs: tuple[tuple[str, Design], ...]
    model: SimModelParams | AnalysisModelParams
    gammas: tuple[float, ...]
    estimators: tuple[str, ...] = ("ht", "dim")
    replications: int = 10_000
    base_seed: int = 0

    def __post_init__(self):
        if self.replications < 2:
            raise ValueError("replications must be at least 2 (a standard deviation needs "
                             f"two draws), got {self.replications}")
        if self.base_seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.base_seed}")
        _check_inputs(self.law, self.designs, self.model, self.gammas, self.estimators)
        need = (len(self.gammas) * len(self.designs) * self.replications
                * len(self.estimators) * CELL_BYTES)
        memory = physical_memory()
        if memory is not None and need > memory:
            raise ValueError(
                f"{self.replications} replications need {bytes_text(need)} of results "
                f"(gammas x designs x replications x estimators x {CELL_BYTES} B), more "
                f"than this machine's {bytes_text(memory)} of memory"
            )


@dataclass(frozen=True)
class ReportCell:
    design: str
    gamma: float
    estimator: str
    bias: float
    sd: float
    mse: float
    se_bias: float
    se_sd: float
    se_mse: float
    mean_estimate: float
    oracle: float
    replications: int
    valid: int
    degenerate_fraction: float


@dataclass(frozen=True)
class SimReport:
    kind: str
    cells: tuple[ReportCell, ...]
    designs: tuple[str, ...]
    gammas: tuple[float, ...]
    estimators: tuple[str, ...]
    meta: dict = field(default_factory=dict)

    def cell(self, design: str, gamma: float, estimator: str) -> ReportCell:
        for c in self.cells:
            if c.design == design and c.gamma == gamma and c.estimator == estimator:
                return c
        raise KeyError((design, gamma, estimator))

    def minima(self) -> dict[str, str | None]:
        """Design with the smallest MSE per (estimator, gamma) cell group;
        None where every MSE of the group is undefined."""
        best: dict[str, str | None] = {}
        for estimator in self.estimators:
            for gamma in self.gammas:
                cells = [c for c in self.cells if c.estimator == estimator
                         and c.gamma == gamma and not np.isnan(c.mse)]
                winner = min(cells, key=lambda c: c.mse, default=None)
                best[f"{estimator}|gamma={gamma:g}"] = None if winner is None else winner.design
        return best

    def to_dict(self) -> dict:
        """The report as JSON values: an undefined (NaN) statistic is None."""
        return {
            "kind": self.kind,
            "designs": list(self.designs),
            "gammas": list(self.gammas),
            "estimators": list(self.estimators),
            "cells": [{key: None if isinstance(value, float) and math.isnan(value) else value
                       for key, value in vars(c).items()} for c in self.cells],
            "minima": self.minima(),
            "meta": self.meta,
        }


# The multiplicative model holds the neighbour counts and the cluster
# indicator as dense arrays up to `DENSE_CELLS` unit x cluster cells, and
# up to `DENSE_LIMIT` cells where at most `DENSE_FILL` cells hold each
# nonzero count; otherwise as scipy CSR arrays.  One B = 64 product took
# 2.2 ms dense and 3.7 ms CSR at 16 % fill (11,600 x 200), and 3.6 ms dense
# and 0.4 ms CSR at 1 % fill (6,000 x 600), on one OpenBLAS thread.
DENSE_CELLS = 1 << 16
DENSE_FILL = 8
DENSE_LIMIT = 1 << 24
# float32 holds every integer below 2^24 exactly
EXACT_FLOAT32 = 1 << 24


def _neighbour_counts(law: ClusterLaw, dtype):
    """``(indicator, counts)``: the K x n cluster indicator and the n x K
    neighbour counts N of `law`, dense or scipy CSR arrays."""
    assign, k, n = law.clustering.assignment, law.k, law.n
    indptr, indices, counts = law.neighbours
    cells = n * k
    if cells <= DENSE_CELLS or cells <= min(DENSE_FILL * counts.size, DENSE_LIMIT):
        indicator = np.zeros((k, n), dtype=dtype)
        indicator[assign, np.arange(n)] = 1.0
        dense = np.zeros((n, k), dtype=dtype)
        dense[np.repeat(np.arange(n), np.diff(indptr)), indices] = counts
        return indicator, dense
    import scipy.sparse as sp

    indicator = sp.csr_array((np.ones(n, dtype=dtype), (assign, np.arange(n))), shape=(k, n))
    return indicator, sp.csr_array((counts.astype(dtype), indices, indptr), shape=(n, k))


class ClusterModel:
    """An outcome model reduced to the law of its per-cluster outcome sums.

    For cluster draws t (B x K), Y = baseline + t * direct + gamma t @ spill,
    plus, for the noisy models, one normal per cluster with the exact law
    of the summed unit noise: N(0, sigma^2 n_a) for `linear`, and given t,
    N(0, sigma^2 sum_{i in a} rel_i^2 (1 + beta t_a + gamma f_i)^2) for
    `multiplicative`, where f_i = (N t)_i / d_i over the unit x cluster
    neighbour counts N of the `ClusterLaw`.  Every K x K sum over the units
    is one of the law's contact matrices.  The multiplicative noise's sums
    over N are integer sums; they run in float32, exactly, when every
    cluster's sum of squared degrees is below 2^24.
    """

    def __init__(self, model, law: ClusterLaw):
        assign, k = law.clustering.assignment, law.k
        deg = law.degrees.astype(np.float64)
        self.sizes = law.clustering.sizes.astype(np.float64)
        self.kind = getattr(model, "kind", "analysis")
        self.sigma = getattr(model, "sigma", 0.0)
        self.noisy = self.sigma > 0.0
        # the base level: the noise-free outcome under global control
        if self.kind == "analysis":
            self.baseline = np.bincount(assign, model.alpha, minlength=k)
            self.direct = np.bincount(assign, model.beta, minlength=k)
            self.spill = law.summary.contact
            return
        dbar = law.mean_degree
        rel = deg / dbar if dbar > 0 else np.zeros_like(deg)
        if self.kind == "linear":
            self.baseline = np.bincount(assign, model.alpha + model.c * rel, minlength=k)
            self.direct = model.beta * self.sizes
            self.spill = law.inverse_contact.T
        else:
            self.baseline = np.bincount(assign, model.alpha * rel, minlength=k)
            # rel_i f_i = (N t)_i / dbar, so the mean needs only the contacts
            exact32 = np.bincount(assign, deg * deg, minlength=k).max() < EXACT_FLOAT32
            self.dtype = np.float32 if exact32 else np.float64
            indicator, counts = _neighbour_counts(law, self.dtype)
            self.scale = 1.0 / dbar if dbar > 0 else 0.0
            self.beta, self.counts, self.indicator = model.beta, counts, indicator
            self.direct = model.beta * self.baseline
            self.spill = model.alpha * self.scale * law.summary.contact
            self.rel_sq = np.bincount(assign, (deg * self.scale) ** 2, minlength=k)
            self.cross = self.scale**2 * law.degree_contact.T

    def oracle(self, gamma: float) -> float:
        """The GATE: the noise-free mean unit effect of global treatment
        against global control, (Y(1) - Y(0)).sum() / n."""
        return float((self.direct.sum() + gamma * self.spill.sum()) / self.sizes.sum())

    def sums(self, t: np.ndarray, gamma: float, noise: np.ndarray | None = None):
        """Outcome sums (B x K); `noise` holds one standard normal per cluster
        and draw, and a noise-free model ignores it."""
        y = self.baseline + t * self.direct + gamma * (t @ self.spill)
        if self.noisy:
            y += self.sigma * self._noise_scale(t, gamma) * noise
        return y

    def _noise_scale(self, t, gamma):
        if self.kind == "linear":
            return np.sqrt(self.sizes)
        # sum_{i in a} (rel_i (1 + beta t_a) + gamma (N t)_i / dbar)^2, expanded
        lift = 1.0 + self.beta * t
        reach = self.counts @ t.T.astype(self.dtype, copy=False)
        reach *= reach
        spread = (self.indicator @ reach).T.astype(np.float64, copy=False)
        var = (self.rel_sq * lift**2 + 2.0 * gamma * lift * (t @ self.cross)
               + (gamma * self.scale) ** 2 * spread)
        return np.sqrt(np.maximum(var, 0.0))


def _warn_undefined(name, gamma, estimator, valid, draws) -> None:
    warnings.warn(f"design {name!r}, estimator {estimator!r}, gamma {gamma:g}: {valid} of "
                  f"{draws} draws are valid, so its bias, sd and mse are undefined")


def _aggregate_cell(name, gamma, estimator, values, degenerate, oracle) -> ReportCell:
    reps = values.size
    valid = values[~degenerate]
    m = valid.size
    if m < 2:
        _warn_undefined(name, gamma, estimator, m, reps)
        return ReportCell(name, gamma, estimator, float("nan"), float("nan"),
                          float("nan"), float("nan"), float("nan"), float("nan"),
                          float("nan"), oracle, reps, m, 1.0 - m / reps)
    mean = float(valid.mean())
    sd = float(valid.std(ddof=1))
    sq_dev = (valid - oracle) ** 2
    mse = float(sq_dev.mean())
    return ReportCell(
        design=name,
        gamma=gamma,
        estimator=estimator,
        bias=mean - oracle,
        sd=sd,
        mse=mse,
        se_bias=sd / np.sqrt(m),
        se_sd=sd / np.sqrt(2.0 * (m - 1)),
        se_mse=float(sq_dev.std(ddof=1)) / np.sqrt(m),
        mean_estimate=mean,
        oracle=oracle,
        replications=reps,
        valid=m,
        degenerate_fraction=1.0 - m / reps,
    )


def run_mc(config: SimConfig) -> SimReport:
    """Monte Carlo table of bias / SD / MSE for every design, gamma and
    estimator in the configuration.

    Bias is measured against the model's oracle effect, `ClusterModel.oracle`.  Each design draws
    its own treatments and noise per replication from its block streams, so
    the table is deterministic for a fixed base seed.
    """
    law = ClusterModel(config.model, config.law)
    reps, kinds = config.replications, config.estimators
    designs = [(design.stream_key(), design) for _, design in config.designs]
    values = np.empty((len(config.gammas), len(designs), reps, len(kinds)))
    degenerate = np.empty(values.shape, dtype=bool)
    for block, start in enumerate(range(0, reps, BLOCK)):
        rows = slice(start, min(start + BLOCK, reps))
        for g_idx, gamma in enumerate(config.gammas):
            for d_idx, (key, design) in enumerate(designs):
                # the leading 1 of the spawn key keeps the streams of earlier versions
                rng = np.random.default_rng(np.random.SeedSequence(
                    config.base_seed, spawn_key=(1, key, g_idx, block)))
                t = design.sample_many(rng, rows.stop - start)
                noise = rng.standard_normal(t.shape) if law.noisy else None
                values[g_idx, d_idx, rows], degenerate[g_idx, d_idx, rows] = cluster_estimates(
                    t, law.sums(t, gamma, noise), law.sizes, law.baseline, kinds)

    cells = []
    for g_idx, gamma in enumerate(config.gammas):
        oracle = law.oracle(gamma)
        for d_idx, (name, _) in enumerate(config.designs):
            for e_idx, estimator in enumerate(config.estimators):
                cells.append(_aggregate_cell(
                    name, gamma, estimator, values[g_idx, d_idx, :, e_idx],
                    degenerate[g_idx, d_idx, :, e_idx], oracle,
                ))
    return SimReport(
        kind="monte-carlo",
        cells=tuple(cells),
        designs=tuple(name for name, _ in config.designs),
        gammas=tuple(config.gammas),
        estimators=tuple(config.estimators),
        meta={
            "replications": reps,
            "base_seed": config.base_seed,
            "engine": "cluster-sums",
            "streams": {"per": ["design", "gamma", "block"], "block": BLOCK},
        },
    )


def run_exact(graph: Graph, clustering: Clustering,
              designs: tuple[tuple[str, Design], ...],
              model: AnalysisModelParams,
              estimators: tuple[str, ...] = ("ht",),
              gammas: tuple[float, ...] | None = None) -> SimReport:
    """Exact bias / SD / MSE by summing over each design's full outcome
    distribution (noise-free analysis model only).

    Degenerate difference-in-means outcomes (all clusters treated or all
    control) are excluded from that estimator's aggregates with their
    probability mass reported, mirroring the Monte Carlo handling.
    """
    if isinstance(model, SimModelParams):
        raise ValueError("exact enumeration requires the noise-free analysis model")
    gammas = tuple(gammas) if gammas is not None else (model.gamma,)
    clustered = cluster_law(graph, clustering)
    _check_inputs(clustered, designs, model, gammas, estimators)

    law = ClusterModel(model, clustered)
    dists = [(name, design.exact_distribution()) for name, design in designs]
    cells = []
    for gamma in gammas:
        oracle = law.oracle(gamma)
        for name, (patterns, probs) in dists:
            # row blocks keep the B x K outcome temporaries small; every
            # estimate depends on its own pattern only
            values = np.empty((patterns.shape[0], len(estimators)))
            degenerate = np.empty(values.shape, dtype=bool)
            for rows in pattern_blocks(patterns.shape[0]):
                t = patterns[rows]
                values[rows], degenerate[rows] = cluster_estimates(
                    t, law.sums(t, gamma), law.sizes, law.baseline, estimators)
            for e_idx, estimator in enumerate(estimators):
                ok = ~degenerate[:, e_idx]
                est, weights = values[ok, e_idx], probs[ok]
                total = float(weights.sum())
                if total <= 0.0:
                    _warn_undefined(name, gamma, estimator, int(np.count_nonzero(weights)),
                                    patterns.shape[0])
                    mean = var = mse = float("nan")
                else:
                    mean = float(weights @ est) / total
                    var = float(weights @ (est - mean) ** 2) / total
                    mse = float(weights @ (est - oracle) ** 2) / total
                cells.append(ReportCell(
                    design=name, gamma=gamma, estimator=estimator,
                    bias=mean - oracle, sd=float(np.sqrt(var)), mse=mse,
                    se_bias=0.0, se_sd=0.0, se_mse=0.0,
                    mean_estimate=mean, oracle=oracle,
                    replications=patterns.shape[0], valid=int(weights.size),
                    degenerate_fraction=float(1.0 - total),
                ))
    return SimReport(
        kind="exact",
        cells=tuple(cells),
        designs=tuple(name for name, _ in designs),
        gammas=gammas,
        estimators=tuple(estimators),
    )

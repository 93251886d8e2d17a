"""Effect estimators for balanced (probability-1/2) treatment assignments.

Each sees the units only through per-cluster outcome sums and the treated
count, so one kernel serves clusters and units (each its own cluster) alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EstimateRecord", "cluster_estimates", "ht", "ht_adjusted", "dim",
           "ESTIMATOR_KINDS"]

ESTIMATOR_KINDS = ("ht", "ht_adjusted", "dim")


@dataclass(frozen=True)
class EstimateRecord:
    value: float
    kind: str
    degenerate: bool = False


def cluster_estimates(t: np.ndarray, y: np.ndarray, sizes: np.ndarray,
                      baseline: np.ndarray | None = None,
                      kinds: tuple[str, ...] = ESTIMATOR_KINDS):
    """Estimates for a batch of cluster draws, one row per draw.

    `t` (B x K) holds 0/1 cluster treatments, `y` (B x K) the per-cluster
    outcome sums, `sizes` (K) the units per cluster and `baseline` (K) the
    per-cluster sums of known base levels (needed by ``ht_adjusted``).
    Returns ``(values, degenerate)``, each B x len(kinds); a degenerate
    ``dim`` (an empty arm) has value NaN.
    """
    t = np.asarray(t, dtype=np.float64)
    n = np.sum(sizes)
    treated = t @ sizes
    values = np.empty((t.shape[0], len(kinds)))
    degenerate = np.zeros(values.shape, dtype=bool)
    for e, kind in enumerate(kinds):
        if kind in ("ht", "ht_adjusted"):
            centered = y if kind == "ht" else y - baseline
            values[:, e] = 2.0 / n * np.einsum("bk,bk->b", 2.0 * t - 1.0, centered)
        elif kind == "dim":
            degenerate[:, e] = (treated == 0.0) | (treated == n)
            with np.errstate(invalid="ignore", divide="ignore"):
                values[:, e] = (np.einsum("bk,bk->b", t, y) / treated
                                - np.einsum("bk,bk->b", 1.0 - t, y) / (n - treated))
            values[degenerate[:, e], e] = np.nan
        else:
            raise ValueError(f"unknown estimator {kind!r}; valid: {ESTIMATOR_KINDS}")
    return values, degenerate


def _unit_estimate(kind: str, z, y, alpha=None) -> EstimateRecord:
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    values, degenerate = cluster_estimates(z[None, :], y[None, :], np.ones(z.size),
                                           alpha, (kind,))
    return EstimateRecord(float(values[0, 0]), kind, bool(degenerate[0, 0]))


def ht(z: np.ndarray, y: np.ndarray) -> EstimateRecord:
    """Inverse-probability estimator for marginal treatment probability 1/2.

    With both group propensities equal to 1/2 the weights collapse to
    (2/n) * sum((2 z_i - 1) * y_i).
    """
    return _unit_estimate("ht", z, y)


def ht_adjusted(z: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> EstimateRecord:
    """Base-level-adjusted variant: the plain estimator applied to y - alpha."""
    return _unit_estimate("ht_adjusted", z, y, alpha)


def dim(z: np.ndarray, y: np.ndarray) -> EstimateRecord:
    """Difference in group means; degenerate when either group is empty."""
    return _unit_estimate("dim", z, y)

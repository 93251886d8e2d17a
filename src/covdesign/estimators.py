"""Effect estimators for balanced (probability-1/2) treatment assignments.

Each sees the units only through per-cluster outcome sums and the treated
count, so one kernel serves clusters and units (each its own cluster) alike.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cluster_estimates", "ESTIMATOR_KINDS"]

ESTIMATOR_KINDS = ("ht", "ht_adjusted", "dim")


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


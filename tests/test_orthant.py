"""Oracles for the sign-probability machinery.

The quadrivariate orthant value, the all-positive entry of the 4x4
pattern probabilities, is checked against an independent single-integral
oracle on one-factor correlation structures, against permutation symmetry,
against Monte Carlo on generic matrices, against a 20-digit mpmath oracle
where a pair correlation is near +-1, and the pattern probabilities against
an adaptive-quadrature reference on random and rank-deficient blocks.
"""

import itertools

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from covdesign.orthant import sign_pattern_probabilities
from conftest import random_unit_rows


def orthant(corr):
    """P(X > 0) for X ~ N(0, corr), corr 4x4: the all-treated pattern, index 15."""
    return sign_pattern_probabilities(corr)[15]


def sign_moment(corr):
    """E[s_1 ... s_K], the product of all K signs, from the pattern probabilities."""
    k = np.shape(corr)[0]
    signs = np.where(((np.arange(2**k)[:, None] >> np.arange(k)) & 1) == 1, 1.0, -1.0)
    return sign_pattern_probabilities(corr) @ np.prod(signs, axis=1)


def one_factor_orthant(lam):
    """P(X > 0) for corr = lam lam' + diag(1 - lam^2), by 1-d quadrature."""
    lam = np.asarray(lam, dtype=float)
    scale = lam / np.sqrt(1.0 - lam**2)

    def f(u):
        return np.prod(norm.cdf(scale * u)) * norm.pdf(u)

    value, _ = integrate.quad(f, -12, 12, epsabs=1e-13, limit=400)
    return value


def test_independent_orthant_is_one_sixteenth():
    assert orthant(np.eye(4)) == pytest.approx(1 / 16, abs=1e-13)


def test_one_factor_oracle_agreement():
    rng = np.random.default_rng(7)
    for _ in range(4):
        lam = rng.uniform(-0.9, 0.9, size=4)
        corr = np.outer(lam, lam)
        np.fill_diagonal(corr, 1.0)
        assert orthant(corr) == pytest.approx(
            one_factor_orthant(lam), abs=1e-11
        )


def test_permutation_invariance():
    root = random_unit_rows(4, seed=5)
    corr = root @ root.T
    np.fill_diagonal(corr, 1.0)
    base = orthant(corr)
    for perm in ((1, 0, 3, 2), (3, 2, 1, 0)):
        p = np.asarray(perm)
        assert orthant(corr[np.ix_(p, p)]) == pytest.approx(base, abs=1e-12)


def test_monte_carlo_agreement():
    root = random_unit_rows(4, seed=12)
    corr = root @ root.T
    np.fill_diagonal(corr, 1.0)
    n = 400_000
    draws = np.random.default_rng(0).standard_normal((n, 4)) @ root.T
    hits = np.all(draws > 0, axis=1)
    p_hat = hits.mean()
    se = np.sqrt(p_hat * (1 - p_hat) / n)
    assert abs(orthant(corr) - p_hat) < 4 * se


def test_quad_moment_independent_case_is_zero():
    assert sign_moment(np.eye(4)) == pytest.approx(0.0, abs=1e-12)


def test_pair_moment_closed_form():
    def pair_moment(r):
        return sign_moment(np.array([[1.0, r], [r, 1.0]]))

    assert pair_moment(0.5) == pytest.approx(1 / 3, abs=1e-15)
    assert pair_moment(1.0) == pytest.approx(1.0)
    assert pair_moment(-1.0) == pytest.approx(-1.0)


class TestPatternProbabilities:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_sums_to_one_and_nonnegative(self, k):
        root = random_unit_rows(k, seed=20 + k)
        probs = sign_pattern_probabilities(root @ root.T)
        assert probs.sum() == pytest.approx(1.0, abs=1e-11)
        assert probs.min() > -1e-11

    def test_bivariate_closed_form(self):
        r = 0.37
        probs = sign_pattern_probabilities(np.array([[1.0, r], [r, 1.0]]))
        p_pp = 0.25 + np.arcsin(r) / (2 * np.pi)
        assert probs[3] == pytest.approx(p_pp, abs=1e-14)   # both treated
        assert probs[0] == pytest.approx(p_pp, abs=1e-14)   # both control
        assert probs[1] == pytest.approx(0.5 - p_pp, abs=1e-14)

    def test_perfectly_correlated_pair_forbids_disagreement(self):
        corr = np.array([[1.0, 1.0, 0.2], [1.0, 1.0, 0.2], [0.2, 0.2, 1.0]])
        probs = sign_pattern_probabilities(corr)
        idx = np.arange(8)
        disagree = ((idx >> 0) & 1) != ((idx >> 1) & 1)
        assert np.abs(probs[disagree]).max() < 1e-12

    def test_enumerated_covariance_matches_arcsine_map(self):
        root = random_unit_rows(5, seed=31)
        corr = root @ root.T
        np.fill_diagonal(corr, 1.0)
        probs = sign_pattern_probabilities(corr)
        patterns = ((np.arange(32)[:, None] >> np.arange(5)) & 1).astype(float)
        mean = probs @ patterns
        centered = patterns - mean
        cov = (centered * probs[:, None]).T @ centered
        assert np.abs(mean - 0.5).max() < 1e-11
        assert np.abs(cov - np.arcsin(corr) / (2 * np.pi)).max() < 1e-11

    def test_third_moments_vanish(self):
        root = random_unit_rows(3, seed=9)
        corr = root @ root.T
        np.fill_diagonal(corr, 1.0)
        probs = sign_pattern_probabilities(corr)
        signs = np.where(((np.arange(8)[:, None] >> np.arange(3)) & 1) == 1, 1.0, -1.0)
        for sub in itertools.combinations(range(3), 3):
            triple = np.prod(signs[:, sub], axis=1)
            assert probs @ triple == pytest.approx(0.0, abs=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="K <= 5"):
            sign_pattern_probabilities(np.eye(6))


# ------------------------------------------------------------ references

PAIRS4 = list(itertools.combinations(range(4), 2))


def mpmath_orthant(corr):
    """Plackett's path integral for P(X > 0) in 20-digit arithmetic, with the
    conditional correlations from the recursive partial-correlation formula."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        c = [[mp.mpf(float(x)) for x in row] for row in corr]

        def ratio(num, var_a, var_b):
            return max(-1, min(1, num / mp.sqrt(var_a * var_b)))

        def partial(a, b, z, th):
            return ratio(th * c[a][b] - th * c[a][z] * th * c[b][z],
                         1 - (th * c[a][z]) ** 2, 1 - (th * c[b][z]) ** 2)

        def integrand(th):
            total = 0
            for i, j in PAIRS4:
                k, l = sorted({0, 1, 2, 3} - {i, j})
                kj, lj = partial(k, j, i, th), partial(l, j, i, th)
                rho = ratio(partial(k, l, i, th) - kj * lj, 1 - kj**2, 1 - lj**2)
                r = c[i][j]
                total += (r / (2 * mp.pi * mp.sqrt(1 - (th * r) ** 2))
                          * (mp.mpf(1) / 4 + mp.asin(rho) / (2 * mp.pi)))
            return total

        return float(mp.mpf(1) / 16 + mp.quad(integrand, [0, 1]))


def quad_orthant(corr):
    """The same path integral by adaptive scipy quadrature, with the
    conditional correlations from a 2x2 solve at every node."""
    eye = np.eye(4)

    def integrand(theta):
        sigma = eye + theta * (corr - eye)
        total = 0.0
        for i, j in PAIRS4:
            k, l = sorted({0, 1, 2, 3} - {i, j})
            s12 = sigma[np.ix_((k, l), (i, j))]
            cond = sigma[np.ix_((k, l), (k, l))] - s12 @ np.linalg.solve(
                sigma[np.ix_((i, j), (i, j))], s12.T)
            rho = cond[0, 1] / np.sqrt(cond[0, 0] * cond[1, 1])
            r = corr[i, j]
            total += (r / (2 * np.pi * np.sqrt(1 - (theta * r) ** 2))
                      * (0.25 + np.arcsin(rho) / (2 * np.pi)))
        return total

    value, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    return 1.0 / 16.0 + value


def quad_pattern_probabilities(corr):
    """Character expansion over {-1, +1}^K with quad_orthant's fourth moments."""
    k = corr.shape[0]
    signs = np.where(((np.arange(2**k)[:, None] >> np.arange(k)) & 1) == 1, 1.0, -1.0)
    probs = np.ones(2**k)
    for i, j in itertools.combinations(range(k), 2):
        probs += signs[:, i] * signs[:, j] * 2 * np.arcsin(corr[i, j]) / np.pi
    for sub in itertools.combinations(range(k), 4):
        block = corr[np.ix_(sub, sub)]
        m4 = (16 * quad_orthant(block) - 1
              - 2 / np.pi * sum(np.arcsin(block[i, j]) for i, j in PAIRS4))
        probs += np.prod(signs[:, sub], axis=1) * m4
    return probs / 2**k


def near_singular(eps, sign, seed):
    """4x4 correlation whose pair (0, 1) sits at sign * (1 - eps)."""
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((4, 4))
    root /= np.linalg.norm(root, axis=1, keepdims=True)
    away = root[1] - (root[1] @ root[0]) * root[0]
    away /= np.linalg.norm(away)
    root[1] = sign * ((1 - eps) * root[0] + np.sqrt(eps * (2 - eps)) * away)
    corr = root @ root.T
    np.fill_diagonal(corr, 1.0)
    return corr


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("eps", [1e-6, 1e-7, 1e-8])
def test_near_singular_pair_matches_mpmath(eps, sign):
    corr = near_singular(eps, sign, seed=40)
    assert abs(corr[0, 1]) == pytest.approx(1 - eps, abs=1e-15)
    assert orthant(corr) == pytest.approx(mpmath_orthant(corr), abs=1e-12)


@pytest.mark.parametrize("rank", [2, 3, 5])
def test_pattern_probabilities_match_quad_reference(rank):
    for seed in range(2):
        rng = np.random.default_rng([rank, seed])
        root = rng.standard_normal((5, rank))
        root /= np.linalg.norm(root, axis=1, keepdims=True)
        corr = root @ root.T
        np.fill_diagonal(corr, 1.0)
        np.testing.assert_allclose(sign_pattern_probabilities(corr),
                                   quad_pattern_probabilities(corr), rtol=0, atol=1e-12)

"""The fused optimizer step against the three-product formulas it replaced.

`evaluate_root` forms one Gram matrix per iterate and reads tr(C X) as the
elementwise sum <C, X>.  The reference below keeps the earlier path: a
clamped Gram for the objective, a second one for the gradient, and
tr(C X) as a matrix product, evaluated separately on traced steps.  Both
must agree to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import covdesign as cd
from conftest import random_unit_rows, unit_rows
from covdesign.optimizer import BETA1, BETA2, MOMENT_EPSILON

RTOL = 1e-12


def ref_clamped_gram(r, clamp_epsilon):
    gram = r @ r.T
    off = ~np.eye(gram.shape[0], dtype=bool)
    limit = 1.0 - clamp_epsilon
    n_clamped = int(np.count_nonzero(np.abs(gram[off]) > limit))
    clamped = np.clip(gram, -limit, limit)
    np.fill_diagonal(clamped, 1.0)
    return clamped, n_clamped


def ref_objective(r, summary, omega, clamp_epsilon=1e-6):
    gram, n_clamped = ref_clamped_gram(np.asarray(r, dtype=np.float64), clamp_epsilon)
    cov = np.arcsin(gram) / (2.0 * np.pi)
    np.fill_diagonal(cov, 0.25)
    d = summary.cluster_degrees
    bias_term = (4.0 * np.trace(summary.contact @ cov) - summary.total) ** 2
    variance_term = 8.0 * (omega**2 + 4.0) * (d @ cov @ d + 0.25 * d.sum() ** 2)
    return bias_term + variance_term, bias_term, variance_term, n_clamped


def ref_gradient(r, summary, omega, clamp_epsilon=1e-6):
    gram, _ = ref_clamped_gram(r, clamp_epsilon)
    cov = np.arcsin(gram) / (2.0 * np.pi)
    np.fill_diagonal(cov, 0.25)
    c = summary.contact
    d = summary.cluster_degrees
    g_cov = (8.0 * (4.0 * np.trace(c @ cov) - summary.total) * c
             + 8.0 * (omega**2 + 4.0) * np.outer(d, d))
    with np.errstate(divide="ignore"):
        deriv = 1.0 / (2.0 * np.pi * np.sqrt(1.0 - gram**2))
    np.fill_diagonal(deriv, 0.0)
    return 2.0 * (g_cov * deriv) @ r


def ref_optimize(summary, config):
    """The optimize loop as it was: a gradient per step, and the objective
    evaluated again on every traced step."""
    k = summary.k
    r = np.eye(k)
    rows = [(0, *ref_objective(r, summary, config.omega, config.clamp_epsilon))]
    m = np.zeros((k, k))
    v = np.zeros((k, k))
    for step in range(1, config.iterations + 1):
        g = ref_gradient(r, summary, config.omega, config.clamp_epsilon)
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1**step)
        v_hat = v / (1.0 - BETA2**step)
        r = unit_rows(r - config.step_size * m_hat / (np.sqrt(v_hat) + MOMENT_EPSILON))
        if step % config.trace_stride == 0 or step == config.iterations:
            rows.append((step, *ref_objective(r, summary, config.omega, config.clamp_epsilon)))
    return r, rows


def near_identical_rows(k, seed):
    """Unit-row root whose first rows differ by ~1e-4, so their Gram entries
    sit within 1e-6 of +1 and -1 and the arcsine clamp fires."""
    rng = np.random.default_rng(seed)
    r = random_unit_rows(k, seed=seed)
    r[1] = r[0] + 1e-4 * rng.standard_normal(k)
    r[2] = -r[0] + 1e-4 * rng.standard_normal(k)
    return unit_rows(r)


def roots_for(k):
    return [np.eye(k), random_unit_rows(k, seed=31), random_unit_rows(k, seed=32),
            near_identical_rows(k, seed=33)]


@pytest.fixture(scope="module", params=["sbm4", "sbm5", "acceptance"])
def summary(request):
    if request.param == "acceptance":
        return request.getfixturevalue("acceptance_fixture")[2]
    graph, clustering = request.getfixturevalue(request.param)
    return cd.build_cluster_summary(graph, clustering)


def close(a, b):
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


@pytest.mark.parametrize("omega", [0.0, 1.0, 2.5])
def test_evaluator_matches_three_product_reference(summary, omega):
    clamps = []
    for r in roots_for(summary.k):
        f, bias, variance, n_clamped, grad = cd.evaluate_root(r, summary, omega)
        ref_f, ref_bias, ref_variance, ref_clamped = ref_objective(r, summary, omega)
        ref_grad = ref_gradient(r, summary, omega)
        assert close(f, ref_f) and close(bias, ref_bias) and close(variance, ref_variance)
        assert n_clamped == ref_clamped
        assert np.linalg.norm(grad - ref_grad) <= RTOL * np.linalg.norm(ref_grad)
        clamps.append(n_clamped)
    assert clamps[-1] > 0


def test_clamp_count_ignores_the_diagonal(sbm4):
    graph, clustering = sbm4
    summary = cd.build_cluster_summary(graph, clustering)
    # off the unit sphere (as in a finite-difference probe) one diagonal entry
    # lies above the clamp limit and one below; only the pair (0, 1) counts
    r = np.eye(4)
    r[0, 0], r[1, 0], r[1, 1] = 1.000005, 0.999999, 0.0
    assert cd.evaluate_root(r, summary, 1.0)[3] == ref_objective(r, summary, 1.0)[3] == 2


def test_trace_matches_reference_loop(summary):
    config = cd.OptimizerConfig(iterations=300, trace_stride=10)
    root, trace = cd.optimize(summary, config, collect_roots=True)
    ref_root, ref_rows = ref_optimize(summary, config)
    assert len(trace.iterations) == len(ref_rows) == 31
    for row, ref, r in zip(trace.rows(), ref_rows, trace.roots):
        step, f, bias, variance, n_clamped, grad_norm = row
        assert step == ref[0] and n_clamped == ref[4]
        assert close(f, ref[1]) and close(bias, ref[2]) and close(variance, ref[3])
        # near the clamp the gradient is too steep to compare across the two
        # runs' iterates (1e-13 apart); compare it at the recorded iterate
        assert close(grad_norm, np.linalg.norm(ref_gradient(r, summary, config.omega)))
    assert np.abs(root - ref_root).max() <= RTOL
    assert max(trace.clamped) > 0


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)),
              elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
def test_every_unit_row_root_gives_a_valid_covariance(raw):
    k = raw.shape[0]
    root = np.zeros((k, k))
    width = min(k, raw.shape[1])
    root[:, :width] = raw[:, :width]
    r = unit_rows(root)
    assert cd.is_valid_covariance(cd.covariance_from_root(r))

"""The fused optimizer step and loop against plain-numpy references.

`evaluate_root` forms the upper triangle of one Gram matrix per iterate, in
strips of `STRIP` rows, and reads tr(C X) as the elementwise sum <C, X>.
The reference below keeps the earlier path: a full clamped Gram for the
objective, a second one for the gradient, and tr(C X) as a matrix product.
`optimize`'s Riemannian Barzilai-Borwein loop is checked against a
written-out reference of the same method.  Both must agree to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import covdesign as cd
from conftest import captured_roots, random_unit_rows, unit_rows
from covdesign.optimizer import CLAMP_EPSILON, SCHEDULE, STALL, STRIP, WINDOW, _Step
from unit_reference import is_valid_covariance

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


def ref_optimize(summary, iterations, omega=1.0, r0=None):
    """Riemannian BB descent from the identity (or from `r0`, row-normalized),
    written out, in the stages of `SCHEDULE`.  Stage i evaluates f with the
    Gram entries clamped to +-(1 - epsilon_i); it restarts from the previous
    stage's best iterate with a fresh step, memory and best, and runs until
    round(fraction_i * iterations) evaluations in all, until its best
    design-dependent part g fell by at most STALL g over the last WINDOW
    evaluations, or until a zero gradient.  Within a stage: accept a trial
    once f falls 1e-4 alpha |g|^2 below the largest of the stage's last 10
    accepted values, else halve alpha; after an acceptance alternate the BB
    steps <s,s>/|<s,y>| and |<s,y>|/<y,y>, and keep alpha when <s,y> is 0.
    Returns every stage start and accepted iterate as (evaluation, root, f,
    epsilon), the last stage's best (root, f), why the run stopped, and the
    evaluations it used.

    Near the arcsine clamp a BB step turns a difference in the last bit of
    the gradient into one about ten times larger every ten evaluations, so
    the reference takes f and the gradient from the optimizer's `_Step`
    (checked above against the three-product formulas) and forms each inner
    product and row norm with the same numpy primitive as `optimize`: what it
    pins is the loop."""
    floor = 2.0 * (omega**2 + 4.0) * summary.total**2

    def tangent(r, epsilon):
        step = _Step(summary, omega, r.shape[1])
        step.limit = 1.0 - epsilon
        f = step.objective(r)[0]
        g = step.gradient(r)
        return f, g - np.einsum("ij,ij->i", g, r)[:, None] * r

    best_r = (np.eye(summary.k) if r0 is None
              else r0 / np.sqrt(np.einsum("ij,ij->i", r0, r0))[:, None])
    iterates, evaluation = [], 0
    for fraction, epsilon in SCHEDULE:
        r = best_r
        f, g = tangent(r, epsilon)
        best_f, accepted, bests = f, [f], [f - floor]
        iterates.append((evaluation, r, f, epsilon))
        alpha = 0.1 / np.sqrt(np.vdot(g, g))
        stop = "budget"
        while evaluation < round(fraction * iterations):
            if np.vdot(g, g) == 0.0:
                stop = "zero-gradient"
                break
            trial = r - alpha * g
            trial = trial / np.sqrt(np.einsum("ij,ij->i", trial, trial))[:, None]
            evaluation += 1
            f_trial, g_trial = tangent(trial, epsilon)
            if f_trial <= max(accepted[-10:]) - 1e-4 * alpha * np.vdot(g, g):
                s, y = trial - r, g_trial - g
                sy = abs(np.vdot(s, y))
                if sy > 0.0:
                    alpha = np.vdot(s, s) / sy if len(accepted) % 2 else sy / np.vdot(y, y)
                r, g = trial, g_trial
                accepted.append(f_trial)
                iterates.append((evaluation, r, f_trial, epsilon))
                if f_trial < best_f:
                    best_f, best_r = f_trial, r
            else:
                alpha /= 2.0
            bests.append(best_f - floor)
            if len(bests) > WINDOW and bests[-WINDOW - 1] - bests[-1] <= STALL * bests[-1]:
                stop = "stall"
                break
    return iterates, (best_r, best_f), stop, evaluation


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


@pytest.mark.parametrize("epsilon", [eps for _, eps in SCHEDULE])
def test_step_under_each_stage_clamp_matches_three_product_reference(summary, epsilon):
    for r in roots_for(summary.k):
        step = _Step(summary, 1.0, r.shape[1])
        step.limit = 1.0 - epsilon
        f, bias, variance = step.objective(r)
        ref_f, ref_bias, ref_variance, _ = ref_objective(r, summary, 1.0, epsilon)
        ref_grad = ref_gradient(r, summary, 1.0, epsilon)
        assert close(f, ref_f) and close(bias, ref_bias) and close(variance, ref_variance)
        assert np.linalg.norm(step.gradient(r) - ref_grad) <= RTOL * np.linalg.norm(ref_grad)


def test_clamp_count_ignores_the_diagonal(sbm4):
    graph, clustering = sbm4
    summary = cd.build_cluster_summary(graph, clustering)
    # off the unit sphere (as in a finite-difference probe) one diagonal entry
    # lies above the clamp limit and one below; only the pair (0, 1) counts
    r = np.eye(4)
    r[0, 0], r[1, 0], r[1, 1] = 1.000005, 0.999999, 0.0
    assert cd.evaluate_root(r, summary, 1.0)[3] == ref_objective(r, summary, 1.0)[3] == 2


def assert_trace_matches_reference_loop(summary, iterations, r0=None):
    with captured_roots() as roots:
        root, trace = cd.optimize(summary, cd.OptimizerConfig(iterations=iterations), r0=r0)
    iterates, (best_r, best_f), stop, evaluations = ref_optimize(summary, iterations, r0=r0)
    assert (trace.stop, trace.evaluations) == (stop, evaluations)
    assert sum(n for _, n in trace.stages) == evaluations
    assert trace.iterations == list(range(0, evaluations, 10)) + [evaluations]
    assert sum(step > 0 for step in trace.step[:-1]) > 0
    for evaluation, r, f, epsilon in zip(trace.iterations[:-1], roots, trace.objective,
                                         trace.epsilon):
        # the iterate current at this evaluation: the last one accepted by then,
        # or the start of a stage that began there
        _, ref_r, ref_f, ref_epsilon = [a for a in iterates if a[0] <= evaluation][-1]
        assert np.abs(r - ref_r).max() <= RTOL
        assert close(f, ref_f)
        assert epsilon == ref_epsilon
    assert np.abs(root - best_r).max() <= RTOL
    assert close(trace.objective[-1], best_f)
    assert trace.epsilon[-1] == CLAMP_EPSILON
    assert np.array_equal(roots[-1], root)
    return trace


def test_trace_matches_reference_loop(summary):
    trace = assert_trace_matches_reference_loop(summary, 300)
    assert max(trace.clamped) > 0


def test_trace_matches_reference_loop_through_a_stall(summary):
    trace = assert_trace_matches_reference_loop(summary, 2000)
    assert trace.stop == "stall"


@pytest.mark.parametrize("p", [1, 3, 7])
def test_rank_p_root_evaluates_as_its_zero_padded_square(acceptance_fixture, p):
    summary = acceptance_fixture[2]
    k = summary.k
    r = unit_rows(np.random.default_rng(p).standard_normal((k, p)))
    r[1] = unit_rows(r[:1] + 1e-4 * np.random.default_rng(9).standard_normal(p))[0]
    padded = np.zeros((k, k))
    padded[:, :p] = r
    *low, grad = cd.evaluate_root(r, summary, 1.0)
    *full, full_grad = cd.evaluate_root(padded, summary, 1.0)
    assert grad.shape == (k, p)
    for a, b in zip(low[:3], full[:3]):
        assert close(a, b)
    assert low[3] == full[3] > 0
    assert np.abs(full_grad[:, :p] - grad).max() <= RTOL * np.abs(grad).max()
    assert np.all(full_grad[:, p:] == 0.0)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)),
              elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
def test_every_unit_row_root_gives_a_valid_covariance(raw):
    k = raw.shape[0]
    root = np.zeros((k, k))
    width = min(k, raw.shape[1])
    root[:, :width] = raw[:, :width]
    r = unit_rows(root)
    assert is_valid_covariance(cd.SignGaussianDesign(r).covariance())


# ------------------------------------------------- more than one strip

MULTI_STRIP_K = [STRIP + 1, 2 * STRIP, 2 * STRIP + 2]


@pytest.fixture(scope="module", params=MULTI_STRIP_K)
def wide_summary(request):
    graph, clustering = cd.generate_sbm([3] * request.param, 0.8, 0.02, seed=request.param)
    return cd.build_cluster_summary(graph, clustering)


def straddling_rows(k, p, seed):
    """Unit-row K x p root with rows 0 and K - 1 within ~1e-4 of opposite,
    then rows STRIP - 1 and STRIP within ~1e-4 of each other, so the arcsine
    clamp fires on pairs that lie in different strips (only the second pair
    at K = STRIP + 1, where row K - 1 is row STRIP)."""
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((k, p))
    r[k - 1] = -r[0] + 1e-4 * rng.standard_normal(p)
    r[STRIP] = r[STRIP - 1] + 1e-4 * rng.standard_normal(p)
    return unit_rows(r)


@pytest.mark.parametrize("omega", [0.0, 1.0])
def test_multi_strip_evaluator_matches_three_product_reference(wide_summary, omega):
    k = wide_summary.k
    for p in (7, k):
        for r in (unit_rows(np.random.default_rng(p).standard_normal((k, p))),
                  straddling_rows(k, p, seed=p + 1)):
            f, bias, variance, n_clamped, grad = cd.evaluate_root(r, wide_summary, omega)
            ref_f, ref_bias, ref_variance, ref_clamped = ref_objective(r, wide_summary, omega)
            ref_grad = ref_gradient(r, wide_summary, omega)
            assert close(f, ref_f) and close(bias, ref_bias) and close(variance, ref_variance)
            assert n_clamped == ref_clamped
            assert np.linalg.norm(grad - ref_grad) <= RTOL * np.linalg.norm(ref_grad)
        assert n_clamped == (2 if k == STRIP + 1 else 4)


def test_multi_strip_trace_matches_reference_loop():
    k = 2 * STRIP + 2
    graph, clustering = cd.generate_sbm([3] * k, 0.8, 0.02, seed=k)
    summary = cd.build_cluster_summary(graph, clustering)
    r0 = unit_rows(np.random.default_rng(5).standard_normal((k, 12)))
    assert_trace_matches_reference_loop(summary, 100, r0=r0)


@pytest.mark.parametrize("k", [12, 2 * STRIP + 2])
def test_traced_clamp_count_is_that_of_the_traced_root(k):
    graph, clustering = cd.generate_sbm([3] * k, 0.8, 0.02, seed=k)
    summary = cd.build_cluster_summary(graph, clustering)
    with captured_roots() as roots:
        _, trace = cd.optimize(summary, cd.OptimizerConfig(iterations=200))
    assert len(roots) == len(trace.clamped)
    assert trace.clamped == [ref_clamped_gram(r, 1e-6)[1] for r in roots]


def test_arcsin_covariance_pins_only_a_strips_own_diagonal():
    gram = np.random.default_rng(2).uniform(-1.0, 1.0, (3, 7))
    out = np.empty((3, 7))
    cov = cd.designs.arcsin_covariance(gram, out=out)
    expected = np.arcsin(gram) / (2.0 * np.pi)
    expected[[0, 1, 2], [0, 1, 2]] = 0.25
    assert cov is out
    assert np.array_equal(cov, expected)

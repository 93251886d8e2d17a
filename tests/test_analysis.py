import dataclasses
import re

import numpy as np
import pytest

import covdesign as cd
from conftest import random_unit_rows
from unit_reference import is_valid_covariance


@pytest.fixture
def uniform_model():
    return cd.AnalysisModelParams.uniform(4, alpha=0.0, beta=1.0, gamma=1.0)


class TestHVector:
    def test_single_cluster_path(self, single_cluster, uniform_model):
        graph, clustering, _ = single_cluster
        h = cd.h_vector(uniform_model, graph, clustering)
        assert np.array_equal(h, [-2.0])

    def test_per_cluster_sums(self, path_graph, path_clustering):
        params = cd.AnalysisModelParams(np.zeros(4), np.array([1.0, 2, 3, 4]), 0.5)
        h = cd.h_vector(params, path_graph, path_clustering)
        # cluster 0: (1 - 0.5*1) + (2 - 0.5*2); cluster 1: (3 - 1) + (4 - 0.5)
        assert np.allclose(h, [1.5, 5.5])

    def test_clustering_of_another_graph(self, sbm4):
        graph, _ = sbm4
        clustering = cd.Clustering(np.arange(22) % 4, 4)
        with pytest.raises(ValueError, match="^clustering covers 22 units, graph has 20$"):
            cd.h_vector(cd.AnalysisModelParams.uniform(graph.n), graph, clustering)

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_model_of_another_size(self, sbm4, field):
        graph, clustering = sbm4
        params = dataclasses.replace(cd.AnalysisModelParams.uniform(graph.n),
                                     **{field: np.ones(graph.n + 1)})
        with pytest.raises(ValueError,
                           match=rf"^model {field} has shape \(21,\), graph has 20 units$"):
            cd.h_vector(params, graph, clustering)


class TestBiasClosedForm:
    def test_path_independent_design(self, path_summary):
        assert cd.bias_closed_form(path_summary, 0.25 * np.eye(2), 1.0) == pytest.approx(-0.5)

    def test_perfect_correlation_kills_bias(self, sbm4):
        graph, clustering = sbm4
        summary = cd.build_cluster_summary(graph, clustering)
        cov = 0.25 * np.ones((4, 4))
        assert cd.bias_closed_form(summary, cov, 2.0) == pytest.approx(0.0, abs=1e-10)

    def test_single_cluster_is_always_unbiased(self, single_cluster):
        _, _, summary = single_cluster
        assert cd.bias_closed_form(summary, np.array([[0.25]]), 3.0) == 0.0

    def test_dimension_mismatch(self, path_summary):
        with pytest.raises(ValueError, match="expected"):
            cd.bias_closed_form(path_summary, np.eye(3) / 4, 1.0)

    def test_linear_in_gamma(self, path_summary):
        cov = cd.CompleteDesign(2).covariance()
        b1 = cd.bias_closed_form(path_summary, cov, 1.0)
        b2 = cd.bias_closed_form(path_summary, cov, 2.0)
        assert b2 == pytest.approx(2 * b1)


class TestOmegaFromModel:
    def test_zero_when_h_vanishes(self, path_graph, path_clustering, path_summary):
        params = cd.AnalysisModelParams(
            np.zeros(4), 1.0 * path_graph.degrees.astype(float), 1.0
        )
        h = cd.h_vector(params, path_graph, path_clustering)
        assert np.allclose(h, 0.0)
        assert cd.omega_from_model(path_summary, h, 1.0) == 0.0

    def test_single_cluster_value(self, single_cluster, uniform_model):
        graph, clustering, summary = single_cluster
        h = cd.h_vector(uniform_model, graph, clustering)
        assert cd.omega_from_model(summary, h, 1.0) == pytest.approx(1 / 3)

    def test_gamma_zero_is_an_error(self, path_summary):
        with pytest.raises(ValueError, match="gamma"):
            cd.omega_from_model(path_summary, np.zeros(2), 0.0)

    def test_edgeless_cluster_with_effect_gives_infinity(self):
        graph = cd.Graph(3, [(0, 1)])
        clustering = cd.Clustering([0, 0, 1], 2)
        summary = cd.build_cluster_summary(graph, clustering)
        params = cd.AnalysisModelParams.uniform(3)
        h = cd.h_vector(params, graph, clustering)
        assert cd.omega_from_model(summary, h, 1.0) == np.inf


class TestVarianceExact:
    def test_single_cluster_two_point_enumeration(self, single_cluster, uniform_model):
        graph, clustering, summary = single_cluster
        h = cd.h_vector(uniform_model, graph, clustering)
        exact = cd.variance_exact(summary, h, 1.0, cd.BernoulliDesign(1))
        assert exact.variance == pytest.approx(6.25, abs=1e-12)
        assert exact.linear_term == pytest.approx(1.0, abs=1e-12)
        assert exact.cross_term == pytest.approx(-3.0, abs=1e-12)
        assert exact.quad_term == pytest.approx(9.0, abs=1e-12)
        assert exact.three_term_sum == pytest.approx(exact.variance, abs=1e-12)

    def test_gamma_zero_reduces_to_linear_term(self, path_summary, path_graph,
                                               path_clustering):
        params = cd.AnalysisModelParams.uniform(4, gamma=0.0)
        h = cd.h_vector(params, path_graph, path_clustering)
        exact = cd.variance_exact(path_summary, h, 0.0, cd.CompleteDesign(2))
        assert exact.variance == pytest.approx(
            4.0 / path_summary.n**2 * exact.linear_term, abs=1e-14
        )

    def test_monte_carlo_cross_check(self, path_summary, path_graph, path_clustering,
                                     uniform_model):
        h = cd.h_vector(uniform_model, path_graph, path_clustering)
        design = cd.BernoulliDesign(2)
        exact = cd.variance_exact(path_summary, h, 1.0, design)
        draws = design.sample_many(np.random.default_rng(3), 1_000_000)
        q = np.einsum("mi,ij,mj->m", draws, path_summary.contact, draws)
        est = 0.5 * (draws @ h + 2.0 * q)
        var_hat = est.var(ddof=1)
        # variance of the sample variance, normal-free estimate via 4th moments
        centered = est - est.mean()
        se = np.sqrt((np.mean(centered**4) - var_hat**2) / est.size)
        assert abs(exact.variance - var_hat) <= 3 * se

    def test_k_cap_enforced(self):
        k = cd.designs.MAX_EXACT_K + 1
        graph = cd.Graph(k, [(i, i + 1) for i in range(k - 1)])
        summary = cd.build_cluster_summary(graph, cd.Clustering(np.arange(k), k))
        with pytest.raises(cd.DesignEnumerationError, match="^K=17 exceeds enumeration cap 16$"):
            cd.variance_exact(summary, np.zeros(k), 1.0, cd.BernoulliDesign(k))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_gamma_refused(self, sbm4, bad):
        summary = cd.build_cluster_summary(*sbm4)
        with pytest.raises(ValueError, match=f"^gamma must be finite, got {bad!r}$"):
            cd.variance_exact(summary, np.zeros(4), bad, cd.BernoulliDesign(4))

    def test_k_mismatch(self, path_summary):
        with pytest.raises(ValueError, match="K="):
            cd.variance_exact(path_summary, np.zeros(2), 1.0, cd.BernoulliDesign(3))

    def test_h_length_mismatch_names_both_sizes(self, path_summary):
        with pytest.raises(ValueError, match=r"^h is \(3,\), expected \(2,\)$"):
            cd.variance_exact(path_summary, np.zeros(3), 1.0, cd.BernoulliDesign(2))


CLOSED_FORMS = {
    "bias-gamma": ("gamma", lambda s, x: cd.bias_closed_form(s, 0.25 * np.eye(2), x)),
    "omega-gamma": ("gamma", lambda s, x: cd.omega_from_model(s, np.ones(2), x)),
    "bound-gamma": ("gamma", lambda s, x: cd.variance_bound(s, 0.25 * np.eye(2), x, 1.0)),
    "bound-omega": ("omega", lambda s, x: cd.variance_bound(s, 0.25 * np.eye(2), 1.0, x)),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("case", sorted(CLOSED_FORMS))
def test_closed_forms_refuse_non_finite_parameters(path_summary, case, bad):
    name, call = CLOSED_FORMS[case]
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad!r}$"):
        call(path_summary, bad)


NON_FINITE_ARRAYS = {
    "bias": ("covariance", lambda s, x: cd.bias_closed_form(s, x, 1.0)),
    "bound": ("covariance", lambda s, x: cd.variance_bound(s, x, 1.0, 1.0)),
    "objective": ("covariance", lambda s, x: cd.objective_terms(s, x, 1.0)),
    "omega": ("h", lambda s, x: cd.omega_from_model(s, x[0], 1.0)),
    "exact": ("h", lambda s, x: cd.variance_exact(s, x[0], 1.0, cd.BernoulliDesign(2))),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("case", sorted(NON_FINITE_ARRAYS))
def test_closed_forms_refuse_non_finite_arrays(path_summary, case, bad):
    """The first non-finite entry of a covariance or of h is named with its index."""
    name, call = NON_FINITE_ARRAYS[case]
    x = 0.25 * np.eye(2)
    x[0, 1] = bad
    index = "(1,)" if name == "h" else "(0, 1)"
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {bad!r} at "
                                         rf"{re.escape(index)}$"):
        call(path_summary, x)


class TestVarianceBound:
    def test_single_cluster_hand_value(self, single_cluster):
        _, _, summary = single_cluster
        bound = cd.variance_bound(summary, np.array([[0.25]]), 1.0, 1.0)
        assert bound == pytest.approx(45.0)
        assert bound >= 6.25

    def test_gamma_zero_gives_zero(self, path_summary):
        assert cd.variance_bound(path_summary, 0.25 * np.eye(2), 0.0, 1.0) == 0.0

    def test_monotone_under_degree_weighting(self, path_summary):
        low = cd.variance_bound(path_summary, 0.25 * np.eye(2), 1.0, 1.0)
        high = cd.variance_bound(path_summary, 0.25 * np.ones((2, 2)), 1.0, 1.0)
        assert high > low

    def test_negative_omega_rejected(self, path_summary):
        with pytest.raises(ValueError, match="omega"):
            cd.variance_bound(path_summary, 0.25 * np.eye(2), 1.0, -0.1)


class TestObjective:
    def test_single_cluster_value(self, single_cluster):
        _, _, summary = single_cluster
        bias_term, variance_term = cd.objective_terms(summary, np.array([[0.25]]), 1.0)
        assert bias_term == 0.0
        assert variance_term == pytest.approx(720.0)
        assert sum(cd.objective_terms(summary, np.array([[0.25]]), 1.0)) == pytest.approx(720.0)

    def test_path_independent_value(self, path_summary):
        # independent arithmetic: (4*1-6)^2 = 4; 40 * (d'Xd + (sum d)^2/4)
        # with d = (3,3), X = I/4: 40 * (4.5 + 9) = 540
        assert sum(cd.objective_terms(path_summary, 0.25 * np.eye(2), 1.0)) == pytest.approx(544.0)

    def test_full_correlation_zeroes_bias_term(self, sbm5):
        graph, clustering = sbm5
        summary = cd.build_cluster_summary(graph, clustering)
        bias_term, _ = cd.objective_terms(summary, 0.25 * np.ones((5, 5)), 1.0)
        assert bias_term == pytest.approx(0.0, abs=1e-15)

    def test_restores_mse_bound_when_rescaled(self, sbm4):
        graph, clustering = sbm4
        summary = cd.build_cluster_summary(graph, clustering)
        root = random_unit_rows(4, seed=23)
        cov = cd.SignGaussianDesign(root).covariance()
        for gamma, omega in [(0.5, 1.0), (2.0, 0.3)]:
            f = sum(cd.objective_terms(summary, cov, omega))
            bias = cd.bias_closed_form(summary, cov, gamma)
            bound = cd.variance_bound(summary, cov, gamma, omega)
            assert gamma**2 / summary.n**2 * f == pytest.approx(
                bias**2 + bound, rel=1e-12
            )


def test_is_valid_covariance_flags_violations():
    good = 0.25 * np.eye(3)
    assert is_valid_covariance(good)
    bad_diag = good.copy(); bad_diag[0, 0] = 0.3
    assert not is_valid_covariance(bad_diag)
    bad_range = good.copy(); bad_range[0, 1] = bad_range[1, 0] = 0.3
    assert not is_valid_covariance(bad_range)
    not_psd = np.array([[0.25, 0.25, -0.25],
                        [0.25, 0.25, 0.25],
                        [-0.25, 0.25, 0.25]])
    assert not is_valid_covariance(not_psd)
import dataclasses

import numpy as np
import pytest

import covdesign as cd
from covdesign.simulation import ClusterModel


def singleton_outcomes(model, graph, z, noise=None):
    """Per-unit outcomes under the unit treatment `z`, read off the engine:
    with one cluster per unit, `ClusterModel`'s cluster sums are the units'
    outcomes (for the linear model, `noise` included)."""
    law = ClusterModel(model, graph, cd.Clustering(np.arange(graph.n), graph.n))
    t = np.asarray(z, dtype=np.float64)[None, :]
    noise = np.zeros(graph.n) if noise is None else np.asarray(noise, dtype=np.float64)
    return law.sums(t, model.gamma, noise[None, :])[0]


class TestEvalAnalysis:
    """The analysis model's unit outcomes, through singleton clusters."""

    def test_global_control_returns_base_levels(self, path_graph):
        params = cd.AnalysisModelParams(np.arange(4.0), np.ones(4), 2.0)
        y = singleton_outcomes(params, path_graph, np.zeros(4))
        assert np.array_equal(y, np.arange(4.0))

    def test_global_treatment(self, path_graph):
        params = cd.AnalysisModelParams(np.arange(4.0), np.full(4, 2.0), 0.5)
        y = singleton_outcomes(params, path_graph, np.ones(4))
        assert np.allclose(y, np.arange(4.0) + 2.0 + 0.5 * path_graph.degrees)

    def test_path_hand_evaluation(self, path_graph):
        params = cd.AnalysisModelParams.uniform(4, alpha=0.0, beta=1.0, gamma=1.0)
        y = singleton_outcomes(params, path_graph, np.array([1.0, 1.0, 0.0, 0.0]))
        assert np.array_equal(y, [2, 2, 1, 0])

    def test_linearity_in_gamma_and_beta(self, path_graph):
        rng = np.random.default_rng(1)
        z = rng.integers(0, 2, 4).astype(float)
        alpha, beta = rng.standard_normal(4), rng.standard_normal(4)
        y = lambda g: singleton_outcomes(cd.AnalysisModelParams(alpha, beta, g), path_graph, z)
        assert np.allclose(y(2.0) - y(1.0), y(1.0) - y(0.0), atol=1e-14)
        yb = lambda b: singleton_outcomes(cd.AnalysisModelParams(alpha, b, 1.0), path_graph, z)
        e0 = np.zeros(4); e0[0] = 1.0
        assert np.allclose(yb(beta + 2 * e0) - yb(beta + e0), yb(beta + e0) - yb(beta),
                           atol=1e-14)


class TestAnalysisModelParams:
    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_unit_values(self, field, bad):
        params = cd.AnalysisModelParams.uniform(4)
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad!r} for unit 2$"):
            dataclasses.replace(params, **{field: np.array([0.0, 1.0, bad, 2.0])})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_gamma(self, bad):
        with pytest.raises(ValueError, match=f"^gamma must be finite, got {bad!r}$"):
            cd.AnalysisModelParams.uniform(4, gamma=bad)

    def test_keeps_its_arrays(self):
        alpha, beta = np.zeros(3), np.ones(3, dtype=np.float32)
        params = cd.AnalysisModelParams(alpha, beta, 1.0)
        assert params.alpha is alpha and params.beta is beta


class TestGateAnalysis:
    def test_no_interference(self, path_graph):
        params = cd.AnalysisModelParams.uniform(4, beta=1.0, gamma=0.0)
        assert cd.gate_analysis(params, path_graph) == 1.0

    def test_path_hand_sum(self, path_graph):
        params = cd.AnalysisModelParams.uniform(4, beta=1.0, gamma=1.0)
        assert cd.gate_analysis(params, path_graph) == pytest.approx(2.5, abs=1e-15)

    def test_pure_interference_equals_mean_degree(self, path_graph):
        params = cd.AnalysisModelParams.uniform(4, beta=0.0, gamma=1.0)
        assert cd.gate_analysis(params, path_graph) == path_graph.mean_degree

    def test_matches_difference_of_extreme_evaluations(self):
        graph, _ = cd.generate_sbm([6, 6], 0.5, 0.2, seed=8)
        rng = np.random.default_rng(2)
        params = cd.AnalysisModelParams(rng.standard_normal(12), rng.standard_normal(12), 0.7)
        diff = np.mean(singleton_outcomes(params, graph, np.ones(12))
                       - singleton_outcomes(params, graph, np.zeros(12)))
        assert cd.gate_analysis(params, graph) == pytest.approx(diff, abs=1e-13)

    def test_model_of_another_size(self, sbm4):
        graph, _ = sbm4
        params = cd.AnalysisModelParams.uniform(graph.n + 1)
        with pytest.raises(ValueError, match=r"^model alpha has shape \(21,\), graph has 20 units$"):
            cd.gate_analysis(params, graph)


class TestEvalSim:
    """The simulation models' unit outcomes, through singleton clusters."""

    def test_linear_control_no_noise(self, path_graph):
        params = cd.SimModelParams("linear", sigma=0.0)
        y = singleton_outcomes(params, path_graph, np.zeros(4), np.zeros(4))
        assert np.allclose(y, 1.0 + 0.5 * path_graph.degrees / 1.5)

    def test_multiplicative_fully_treated(self, path_graph):
        params = cd.SimModelParams("multiplicative", sigma=0.0,
                                   beta=1.0, gamma=0.5)
        y = singleton_outcomes(params, path_graph, np.ones(4), np.zeros(4))
        assert np.allclose(y, (path_graph.degrees / 1.5) * (1 + 1 + 0.5))

    def test_linear_path_hand_values(self, path_graph):
        params = cd.SimModelParams("linear", alpha=1, beta=1,
                                   c=0.5, sigma=0.0, gamma=1.0)
        y = singleton_outcomes(params, path_graph, np.array([1.0, 0, 0, 0]), np.zeros(4))
        assert y[0] == pytest.approx(1 + 1 + 0.5 / 1.5, abs=1e-12)
        assert y[1] == pytest.approx(1 + 0.5 * 2 / 1.5 + 0.5, abs=1e-12)

    def test_isolated_node_contributes_zero_in_multiplicative(self):
        graph = cd.Graph(3, [(0, 1)])
        params = cd.SimModelParams("multiplicative", sigma=0.0)
        for z in ([0, 0, 0], [1, 1, 1], [1, 0, 1]):
            y = singleton_outcomes(params, graph, np.array(z, dtype=float), np.zeros(3))
            assert y[2] == 0.0

    def test_isolated_node_interference_term_is_zero_in_linear(self):
        graph = cd.Graph(3, [(0, 1)])
        params = cd.SimModelParams("linear", sigma=0.0, gamma=5.0)
        y = singleton_outcomes(params, graph, np.array([1.0, 1.0, 1.0]), np.zeros(3))
        assert y[2] == params.alpha + params.beta  # no degree, no interference

    def test_noise_enters_as_given(self, path_graph):
        params = cd.SimModelParams("linear", sigma=0.3)
        noise = np.array([1.0, -1.0, 2.0, 0.0])
        base = singleton_outcomes(params, path_graph, np.zeros(4), np.zeros(4))
        assert np.allclose(singleton_outcomes(params, path_graph, np.zeros(4), noise) - base,
                           0.3 * noise)

    def test_rejects_unknown_kind(self, path_graph):
        with pytest.raises(ValueError, match="kind"):
            cd.SimModelParams("cubic")

    @pytest.mark.parametrize("field", ["alpha", "beta", "c", "sigma", "gamma"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_parameters(self, path_graph, field, bad):
        params = cd.SimModelParams("linear")
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            dataclasses.replace(params, **{field: bad})


class TestGateSim:
    def test_linear_value(self, path_graph):
        params = cd.SimModelParams("linear", beta=1.0, gamma=0.5)
        assert cd.gate_sim(params) == 1.5

    def test_multiplicative_value(self, path_graph):
        params = cd.SimModelParams("multiplicative",
                                   alpha=1.0, beta=1.0, gamma=2.0)
        assert cd.gate_sim(params) == 3.0

    def test_null_effects(self, path_graph):
        params = cd.SimModelParams("linear", beta=0.0, gamma=0.0)
        assert cd.gate_sim(params) == 0.0

    def test_with_gamma_replaces_only_gamma(self, path_graph):
        params = cd.SimModelParams("linear", gamma=1.0)
        bumped = cd.with_gamma(params, 2.0)
        assert bumped.gamma == 2.0 and bumped.beta == params.beta

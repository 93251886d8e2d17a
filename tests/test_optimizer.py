import math
import types

import numpy as np
import pytest

import covdesign as cd
from covdesign.designs import arcsin_covariance
from covdesign.optimizer import CLAMP_EPSILON, SCHEDULE, _normalize_rows, rank_for
from conftest import captured_roots, random_unit_rows, unit_rows
from unit_reference import is_valid_covariance


class TestProjectRows:
    def test_three_four_five(self):
        out = unit_rows(np.array([[3.0, 4.0], [0.0, 2.0]]))
        assert np.allclose(out[0], [0.6, 0.8])

    def test_unit_rows_are_a_fixed_point(self):
        r = random_unit_rows(4, seed=0)
        assert np.abs(unit_rows(r) - r).max() <= 1e-15

    def test_zero_row_falls_back_to_basis_vector(self):
        r = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        out = unit_rows(r)
        assert np.array_equal(out[1], [0.0, 1.0, 0.0])
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_in_place_helper_agrees_and_matches_the_norm_division(self):
        r = 3.0 * random_unit_rows(6, seed=3)
        r[2] = 0.0
        r[4] = 1e-13
        expected = r.copy()
        expected[[2, 4]] = np.eye(6)[[2, 4]]
        expected /= np.linalg.norm(expected, axis=1)[:, None]
        out = unit_rows(r)
        assert not np.shares_memory(out, r)
        helper = r.copy()
        assert _normalize_rows(helper) is helper
        assert np.array_equal(helper, out)
        assert np.abs(out - expected).max() <= 1e-15


class TestCovarianceFromRoot:
    def test_identity(self):
        assert np.allclose(cd.SignGaussianDesign(np.eye(3)).covariance(), 0.25 * np.eye(3))

    def test_identical_rows_hit_quarter(self):
        r = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert cd.SignGaussianDesign(r).covariance()[0, 1] == pytest.approx(0.25)

    def test_half_inner_product(self):
        r = np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        assert cd.SignGaussianDesign(r).covariance()[0, 1] == pytest.approx(1 / 12, abs=1e-15)

    def test_constraints_hold_for_random_roots(self):
        for seed in range(3):
            cov = cd.SignGaussianDesign(random_unit_rows(5, seed=seed)).covariance()
            assert is_valid_covariance(cov)

    def test_arcsin_covariance_into_a_buffer_equals_the_allocating_call(self):
        r = random_unit_rows(5, seed=4)
        gram = np.clip(r @ r.T, -1.0, 1.0)
        buf = np.full((5, 5), np.nan)
        assert arcsin_covariance(gram, out=buf) is buf
        assert np.array_equal(buf, arcsin_covariance(gram))
        assert np.array_equal(arcsin_covariance(gram.copy(), out=gram), buf)


class TestGradient:
    def test_matches_central_finite_differences(self, sbm4):
        graph, clustering = sbm4
        summary = cd.build_cluster_summary(graph, clustering)
        r = random_unit_rows(4, seed=100)
        grad = cd.evaluate_root(r, summary, 1.0)[4]
        rng = np.random.default_rng(5)
        step = 1e-5
        for _ in range(20):
            i, j = rng.integers(0, 4, size=2)
            basis = np.zeros((4, 4))
            basis[i, j] = step
            f_plus = cd.evaluate_root(r + basis, summary, 1.0)[0]
            f_minus = cd.evaluate_root(r - basis, summary, 1.0)[0]
            fd = (f_plus - f_minus) / (2 * step)
            denom = max(abs(fd), abs(grad[i, j]), 1e-12 * np.abs(grad).max())
            assert abs(fd - grad[i, j]) / denom <= 1e-4

    def test_edgeless_graph_is_stationary(self):
        graph = cd.Graph(4, np.empty((0, 2), dtype=np.int64))
        summary = cd.build_cluster_summary(graph, cd.Clustering([0, 0, 1, 1], 2))
        grad = cd.evaluate_root(np.eye(2), summary, 1.0)[4]
        assert np.array_equal(grad, np.zeros((2, 2)))

    def test_variance_part_scales_with_omega_weight(self, sbm4):
        # the omega weight enters as (omega^2 + 4): 4, 8, 16 along this series
        graph, clustering = sbm4
        summary = cd.build_cluster_summary(graph, clustering)
        r = random_unit_rows(4, seed=101)
        g0 = cd.evaluate_root(r, summary, 0.0)[4]
        g2 = cd.evaluate_root(r, summary, 2.0)[4]
        g12 = cd.evaluate_root(r, summary, np.sqrt(12.0))[4]
        assert np.allclose(g12 - g2, 2.0 * (g2 - g0), rtol=1e-12)
        v0 = cd.evaluate_root(r, summary, 0.0)[2]
        v2 = cd.evaluate_root(r, summary, 2.0)[2]
        assert v2 == pytest.approx(2.0 * v0, rel=1e-14)


class TestOptimize:
    def test_edgeless_objective_is_flat_and_start_is_returned(self):
        graph = cd.Graph(4, np.empty((0, 2), dtype=np.int64))
        summary = cd.build_cluster_summary(graph, cd.Clustering([0, 1, 2, 3], 4))
        root, trace = cd.optimize(summary, cd.OptimizerConfig(iterations=50))
        assert np.array_equal(root, np.eye(4))
        assert trace.objective[0] == 0.0 and trace.objective[-1] == 0.0
        assert trace.stop == "zero-gradient" and trace.evaluations == 0

    def test_the_last_stage_clamps_at_clamp_epsilon(self, path_summary):
        assert SCHEDULE[-1] == (1.0, CLAMP_EPSILON)
        assert [eps for _, eps in SCHEDULE] == sorted((eps for _, eps in SCHEDULE),
                                                      reverse=True)
        root, trace = cd.optimize(path_summary, cd.OptimizerConfig(iterations=60))
        assert [eps for eps, _ in trace.stages] == [eps for _, eps in SCHEDULE]
        assert trace.epsilon[-1] == CLAMP_EPSILON
        assert trace.objective[-1] == cd.evaluate_root(root, path_summary, 1.0)[0]

    def test_path_graph_improves_within_500_iterations(self, path_summary):
        _, trace = cd.optimize(path_summary, cd.OptimizerConfig(iterations=500))
        assert trace.objective[-1] < trace.objective[0]

    def test_two_joined_clusters_matches_sweep_oracle(self):
        # two clusters, every edge crossing: complete bipartite on 5 + 5
        edges = [(u, v) for u in range(5) for v in range(5, 10)]
        graph = cd.Graph(10, edges)
        clustering = cd.Clustering([0] * 5 + [1] * 5, 2)
        summary = cd.build_cluster_summary(graph, clustering)

        # 1-d oracle: sweep the pair correlation r and minimize directly
        rs = np.linspace(-1.0, 1.0, 40001)
        best_f = np.inf
        best_r = None
        for r in rs:
            cov = np.array([[0.25, np.arcsin(r) / (2 * np.pi)],
                            [np.arcsin(r) / (2 * np.pi), 0.25]])
            f = sum(cd.objective_terms(summary, cov, 1.0))
            if f < best_f:
                best_f, best_r = f, r
        # the minimizer saturates at full anti-correlation: the degree-weighted
        # variance term outweighs the bias term on every two-cluster instance
        assert best_r == pytest.approx(-1.0, abs=1e-4)

        root, trace = cd.optimize(summary, cd.OptimizerConfig(iterations=2000))
        gram = root @ root.T
        assert gram[0, 1] < -0.99
        assert trace.objective[-1] == pytest.approx(best_f, rel=1e-3)

    def test_constraints_hold_at_every_traced_iterate(self, sbm5):
        graph, clustering = sbm5
        summary = cd.build_cluster_summary(graph, clustering)
        with captured_roots() as roots:
            cd.optimize(summary, cd.OptimizerConfig(iterations=300))
        for r in roots:
            assert np.abs(np.linalg.norm(r, axis=1) - 1.0).max() <= 1e-12
            cov = cd.SignGaussianDesign(r).covariance()
            assert np.abs(np.diag(cov) - 0.25).max() == 0.0
            assert np.abs(cov).max() <= 0.25 + 1e-12

    def test_objective_decomposition_identity_along_trace(self, sbm5):
        graph, clustering = sbm5
        summary = cd.build_cluster_summary(graph, clustering)
        _, trace = cd.optimize(summary, cd.OptimizerConfig(iterations=200))
        for f, bias, variance in zip(trace.objective, trace.bias_term,
                                     trace.variance_term):
            assert f == pytest.approx(bias + variance, abs=1e-10 * max(1.0, f))

    def test_deterministic_rerun_is_bitwise_identical(self, sbm4):
        graph, clustering = sbm4
        summary = cd.build_cluster_summary(graph, clustering)
        config = cd.OptimizerConfig(iterations=150)
        r1, t1 = cd.optimize(summary, config)
        r2, t2 = cd.optimize(summary, config)
        assert np.array_equal(r1, r2)
        assert t1.objective == t2.objective

    def test_warm_start_shape_checked(self, path_summary):
        with pytest.raises(ValueError, match="expected"):
            cd.optimize(path_summary, r0=np.eye(3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_warm_start_is_refused_before_a_step(self, path_summary, bad):
        r0 = np.eye(2)
        r0[1, 0] = bad
        with pytest.raises(ValueError, match="^warm start has NaN or inf entries$"):
            cd.optimize(path_summary, cd.OptimizerConfig(iterations=5), r0=r0)

    def test_warm_start_is_left_unmodified(self, sbm4):
        graph, clustering = sbm4
        summary = cd.build_cluster_summary(graph, clustering)
        r0 = 2.0 * random_unit_rows(4, seed=7)
        before = r0.copy()
        root, _ = cd.optimize(summary, cd.OptimizerConfig(iterations=30), r0=r0)
        assert np.array_equal(r0, before)
        assert not np.shares_memory(root, r0)

    def test_collected_roots_are_distinct_snapshots(self, sbm4):
        graph, clustering = sbm4
        summary = cd.build_cluster_summary(graph, clustering)
        with captured_roots() as roots:
            root, _ = cd.optimize(summary, cd.OptimizerConfig(iterations=40))
        roots = roots + [root]
        assert len(roots) == 6
        for i, a in enumerate(roots):
            assert not any(np.shares_memory(a, b) for b in roots[i + 1:])
        assert not np.array_equal(roots[0], roots[1])
        assert np.array_equal(roots[-2], root)

    def test_nan_contact_stops_at_step_one(self, sbm4):
        graph, clustering = sbm4
        law = cd.cluster_law(graph, clustering)
        contact = law.contact.copy()
        contact[0, 1] = contact[1, 0] = np.nan
        # the optimizer reads these four of a law; a law's contact follows from N
        bad = types.SimpleNamespace(contact=contact, cluster_degrees=law.cluster_degrees,
                                    total=law.total, k=law.k)
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            cd.optimize(bad, cd.OptimizerConfig(iterations=1))

    def test_trace_final_entry_matches_returned_root(self, path_summary):
        with captured_roots() as roots:
            root, trace = cd.optimize(path_summary, cd.OptimizerConfig(iterations=123))
        assert trace.iterations[-1] == 123
        assert np.array_equal(roots[-1], root)
        f, _, _, _ = cd.evaluate_root(root, path_summary, 1.0)[:4]
        assert trace.objective[-1] == f


class TestRank:
    @pytest.mark.parametrize("k, p", [(1, 1), (16, 16), (32, 32), (33, 32), (200, 32),
                                      (512, 32), (513, 33), (600, 35)])
    def test_rule(self, k, p):
        assert rank_for(k) == p == min(k, max(32, math.ceil(math.sqrt(2 * k))))

    def test_above_32_clusters_starts_from_a_fixed_gaussian_root(self):
        graph, clustering = cd.generate_sbm([3] * 40, 0.8, 0.05, seed=4)
        summary = cd.build_cluster_summary(graph, clustering)
        with captured_roots() as roots:
            root, trace = cd.optimize(summary, cd.OptimizerConfig(iterations=30))
        assert root.shape == (40, 32) and roots[0].shape == (40, 32)
        assert not np.allclose(roots[0] @ roots[0].T, np.eye(40))
        assert np.array_equal(root, cd.optimize(summary, cd.OptimizerConfig(iterations=30))[0])
        # the result is held to f at the independent design, not at the start
        independent = sum(cd.objective_terms(summary, 0.25 * np.eye(40), 1.0))
        assert trace.objective_initial == independent != trace.objective[0]
        assert trace.objective[-1] <= independent

    def test_warm_start_keeps_its_nonzero_columns(self, sbm5):
        summary = cd.build_cluster_summary(*sbm5)
        r0 = np.zeros((5, 5))
        r0[:, [1, 3]] = np.random.default_rng(2).standard_normal((5, 2))
        root, trace = cd.optimize(summary, cd.OptimizerConfig(iterations=40), r0=r0)
        assert root.shape == (5, 2)
        # held to f at the warm start under the final clamp, not the first stage's
        assert trace.objective_initial == cd.evaluate_root(unit_rows(r0[:, [1, 3]]),
                                                           summary, 1.0)[0]
        assert trace.epsilon[0] == SCHEDULE[0][1] != CLAMP_EPSILON
        assert trace.objective_initial != trace.objective[0]

    @pytest.mark.parametrize("shape", [(5, 6), (4, 4), (5,)])
    def test_warm_start_shape_names_both(self, sbm5, shape):
        summary = cd.build_cluster_summary(*sbm5)
        with pytest.raises(ValueError, match=rf"^warm start is \({shape[0]},.*\), "
                                             r"expected \(5, p\) with p <= 5$"):
            cd.optimize(summary, r0=np.ones(shape))

    def test_all_zero_warm_start_is_refused(self, sbm5):
        summary = cd.build_cluster_summary(*sbm5)
        with pytest.raises(ValueError, match="^warm start is all zeros$"):
            cd.optimize(summary, r0=np.zeros((5, 5)))

    def test_returns_the_best_accepted_iterate(self, sbm5):
        summary = cd.build_cluster_summary(*sbm5)
        root, trace = cd.optimize(summary, cd.OptimizerConfig(iterations=300))
        assert trace.objective[-1] == min(trace.objective)
        assert trace.objective[-1] == cd.evaluate_root(root, summary, 1.0)[0]
        assert trace.evaluations == 300 and trace.step[0] == 0.0
        floor = 2.0 * 5.0 * summary.total**2
        assert trace.design_term == [f - floor for f in trace.objective]


class TestOptimizerConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            cd.OptimizerConfig(iterations=0)
        with pytest.raises(ValueError):
            cd.OptimizerConfig(omega=-0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["omega"])
    def test_non_finite_value_names_field(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cd.OptimizerConfig(**{name: value})

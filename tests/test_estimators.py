import numpy as np
import pytest

import covdesign as cd
from unit_reference import eval_analysis


class TestHT:
    def test_all_treated_plug_in(self):
        y = np.array([1.0, 2.0, 3.0])
        assert cd.ht(np.ones(3), y).value == pytest.approx(2 * y.mean())

    def test_symmetric_cancellation(self):
        assert cd.ht(np.array([1.0, 0.0]), np.array([5.0, 5.0])).value == 0.0

    def test_path_hand_value(self, path_graph):
        params = cd.AnalysisModelParams.uniform(4)
        z = np.array([1.0, 1.0, 0.0, 0.0])
        y = eval_analysis(params, path_graph, z)
        assert cd.ht(z, y).value == pytest.approx(1.5, abs=1e-15)

    def test_linear_in_outcomes(self):
        rng = np.random.default_rng(0)
        z = rng.integers(0, 2, 10).astype(float)
        y1, y2 = rng.standard_normal(10), rng.standard_normal(10)
        lhs = cd.ht(z, 2.0 * y1 - 3.0 * y2).value
        rhs = 2.0 * cd.ht(z, y1).value - 3.0 * cd.ht(z, y2).value
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestHTAdjusted:
    def test_zero_adjustment_is_identity(self):
        rng = np.random.default_rng(1)
        z = rng.integers(0, 2, 8).astype(float)
        y = rng.standard_normal(8)
        assert cd.ht_adjusted(z, y, np.zeros(8)).value == cd.ht(z, y).value

    def test_perfect_adjustment_gives_zero(self):
        rng = np.random.default_rng(2)
        alpha = rng.standard_normal(8)
        for _ in range(5):
            z = rng.integers(0, 2, 8).astype(float)
            assert cd.ht_adjusted(z, alpha, alpha).value == 0.0

    def test_shift_invariance_vs_unadjusted(self, path_graph):
        z = np.array([1.0, 1.0, 0.0, 0.0])
        params = cd.AnalysisModelParams.uniform(4)
        y = eval_analysis(params, path_graph, z) + 10.0
        assert cd.ht_adjusted(z, y, np.full(4, 10.0)).value == pytest.approx(1.5)

    def test_equals_ht_of_difference(self):
        rng = np.random.default_rng(3)
        z = rng.integers(0, 2, 16).astype(float)
        y, alpha = rng.standard_normal(16), rng.standard_normal(16)
        assert cd.ht_adjusted(z, y, alpha).value == cd.ht(z, y - alpha).value


class TestDIM:
    def test_two_units(self):
        rec = cd.dim(np.array([1.0, 0.0]), np.array([3.0, 1.0]))
        assert rec.value == 2.0 and not rec.degenerate

    def test_empty_control_group_is_degenerate(self):
        rec = cd.dim(np.ones(4), np.arange(4.0))
        assert rec.degenerate and np.isnan(rec.value)

    def test_empty_treated_group_is_degenerate(self):
        assert cd.dim(np.zeros(4), np.arange(4.0)).degenerate

    def test_path_hand_means(self):
        rec = cd.dim(np.array([1.0, 1, 0, 0]), np.array([2.0, 2, 1, 0]))
        assert rec.value == pytest.approx(1.5)

    def test_constant_shift_cancels_exactly(self):
        rng = np.random.default_rng(4)
        z = np.array([1.0, 0, 1, 0, 0])
        y = rng.standard_normal(5)
        assert cd.dim(z, y + 7.5).value == pytest.approx(cd.dim(z, y).value, abs=1e-12)

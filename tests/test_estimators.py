import numpy as np
import pytest

import covdesign as cd
from unit_reference import eval_analysis


def estimate(kind, z, y, alpha=None):
    """The unit-level estimate `kind`: the kernel with one cluster per unit.
    Returns (value, degenerate)."""
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    values, degenerate = cd.cluster_estimates(z[None], y[None], np.ones(z.size), alpha,
                                              (kind,))
    return values[0, 0], degenerate[0, 0]


def ht(z, y):
    return estimate("ht", z, y)[0]


def ht_adjusted(z, y, alpha):
    return estimate("ht_adjusted", z, y, alpha)[0]


class TestHT:
    def test_all_treated_plug_in(self):
        y = np.array([1.0, 2.0, 3.0])
        assert ht(np.ones(3), y) == pytest.approx(2 * y.mean())

    def test_symmetric_cancellation(self):
        assert ht(np.array([1.0, 0.0]), np.array([5.0, 5.0])) == 0.0

    def test_path_hand_value(self, path_graph):
        params = cd.AnalysisModelParams.uniform(4)
        z = np.array([1.0, 1.0, 0.0, 0.0])
        y = eval_analysis(params, path_graph, z)
        assert ht(z, y) == pytest.approx(1.5, abs=1e-15)

    def test_linear_in_outcomes(self):
        rng = np.random.default_rng(0)
        z = rng.integers(0, 2, 10).astype(float)
        y1, y2 = rng.standard_normal(10), rng.standard_normal(10)
        lhs = ht(z, 2.0 * y1 - 3.0 * y2)
        rhs = 2.0 * ht(z, y1) - 3.0 * ht(z, y2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestHTAdjusted:
    def test_zero_adjustment_is_identity(self):
        rng = np.random.default_rng(1)
        z = rng.integers(0, 2, 8).astype(float)
        y = rng.standard_normal(8)
        assert ht_adjusted(z, y, np.zeros(8)) == ht(z, y)

    def test_perfect_adjustment_gives_zero(self):
        rng = np.random.default_rng(2)
        alpha = rng.standard_normal(8)
        for _ in range(5):
            z = rng.integers(0, 2, 8).astype(float)
            assert ht_adjusted(z, alpha, alpha) == 0.0

    def test_shift_invariance_vs_unadjusted(self, path_graph):
        z = np.array([1.0, 1.0, 0.0, 0.0])
        params = cd.AnalysisModelParams.uniform(4)
        y = eval_analysis(params, path_graph, z) + 10.0
        assert ht_adjusted(z, y, np.full(4, 10.0)) == pytest.approx(1.5)

    def test_equals_ht_of_difference(self):
        rng = np.random.default_rng(3)
        z = rng.integers(0, 2, 16).astype(float)
        y, alpha = rng.standard_normal(16), rng.standard_normal(16)
        assert ht_adjusted(z, y, alpha) == ht(z, y - alpha)


class TestDIM:
    def test_two_units(self):
        value, degenerate = estimate("dim", np.array([1.0, 0.0]), np.array([3.0, 1.0]))
        assert value == 2.0 and not degenerate

    def test_empty_control_group_is_degenerate(self):
        value, degenerate = estimate("dim", np.ones(4), np.arange(4.0))
        assert degenerate and np.isnan(value)

    def test_empty_treated_group_is_degenerate(self):
        assert estimate("dim", np.zeros(4), np.arange(4.0))[1]

    def test_path_hand_means(self):
        value, _ = estimate("dim", np.array([1.0, 1, 0, 0]), np.array([2.0, 2, 1, 0]))
        assert value == pytest.approx(1.5)

    def test_constant_shift_cancels_exactly(self):
        rng = np.random.default_rng(4)
        z = np.array([1.0, 0, 1, 0, 0])
        y = rng.standard_normal(5)
        assert estimate("dim", z, y + 7.5)[0] == pytest.approx(estimate("dim", z, y)[0],
                                                               abs=1e-12)

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import covdesign as cd
from covdesign.estimators import ESTIMATOR_KINDS
from covdesign.simulation import ClusterModel
from conftest import random_unit_rows
from unit_reference import eval_analysis, eval_sim, unit_gate, unit_outcomes

# the interference level of the unit-loop checks
GAMMA = 1.3


def unit_estimates(kinds, z, y, baseline):
    """Reference estimators evaluated unit by unit: (value, degenerate) pairs."""
    out = []
    signed = 2.0 * z - 1.0
    for kind in kinds:
        if kind == "ht":
            out.append((2.0 * np.mean(signed * y), False))
        elif kind == "ht_adjusted":
            out.append((2.0 * np.mean(signed * (y - baseline)), False))
        else:
            treated = z == 1.0
            if treated.sum() in (0, z.size):
                out.append((np.nan, True))
            else:
                out.append((y[treated].mean() - y[~treated].mean(), False))
    return out


def test_engine_fast_path_matches_estimator_functions():
    # the cluster-sum kernel on per-cluster sums equals the estimators
    # evaluated on the units
    rng = np.random.default_rng(42)
    assignment = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 3, 3, 3])
    sizes = np.bincount(assignment)
    for t in (rng.integers(0, 2, 4).astype(float), np.ones(4), np.zeros(4)):
        z = t[assignment]
        y = rng.standard_normal(12)
        baseline = rng.standard_normal(12)
        values, degenerate = cd.cluster_estimates(
            t[None, :], np.bincount(assignment, y)[None, :], sizes,
            np.bincount(assignment, baseline))
        expected = unit_estimates(ESTIMATOR_KINDS, z, y, baseline)
        for got_value, got_degen, (value, degen) in zip(values[0], degenerate[0], expected):
            assert got_degen == degen
            if not degen:
                assert got_value == pytest.approx(value, abs=1e-14)


def _models(graph, sigma):
    rng = np.random.default_rng(5)
    analysis = cd.AnalysisModelParams(rng.standard_normal(graph.n),
                                      rng.standard_normal(graph.n), GAMMA)
    return [analysis] + [cd.SimModelParams(kind, alpha=1.2, beta=0.7, c=0.5, sigma=sigma)
                         for kind in ("linear", "multiplicative")]


def _isolated_unit_graph():
    # unit 4 has no neighbour: its interference fraction is defined as 0
    return cd.Graph(5, [(0, 1), (1, 2), (2, 3)]), cd.Clustering([0, 0, 1, 1, 1], 2)


@pytest.mark.parametrize("fixture", ["sbm4", "isolated"])
def test_cluster_sums_match_unit_loop_without_noise(fixture, sbm4):
    graph, clustering = sbm4 if fixture == "sbm4" else _isolated_unit_graph()
    k = clustering.k
    rng = np.random.default_rng(6)
    t = np.vstack([rng.integers(0, 2, (30, k)), np.ones(k), np.zeros(k)]).astype(float)
    for model in _models(graph, sigma=0.0):
        law = ClusterModel(model, cd.cluster_law(graph, clustering))
        values, degenerate = cd.cluster_estimates(t, law.sums(t, GAMMA), law.sizes,
                                                  law.baseline)
        baseline = unit_outcomes(model, graph, np.zeros(graph.n), np.zeros(graph.n), GAMMA)
        for row in range(t.shape[0]):
            z = t[row][clustering.assignment]
            y = unit_outcomes(model, graph, z, np.zeros(graph.n), GAMMA)
            for e, (value, degen) in enumerate(
                    unit_estimates(ESTIMATOR_KINDS, z, y, baseline)):
                assert degenerate[row, e] == degen
                if not degen:
                    assert values[row, e] == pytest.approx(value, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("fixture", ["sbm4", "isolated"])
def test_cluster_noise_scale_matches_summed_unit_noise(fixture, sbm4):
    # given t, the summed unit noise of cluster a is normal with variance
    # sum_{i in a} (d y_i / d eps_i)^2; read those slopes off eval_sim
    graph, clustering = sbm4 if fixture == "sbm4" else _isolated_unit_graph()
    k = clustering.k
    t = np.random.default_rng(7).integers(0, 2, (20, k)).astype(float)
    for model in _models(graph, sigma=0.8)[1:]:
        law = ClusterModel(model, cd.cluster_law(graph, clustering))
        scale = law.sums(t, GAMMA, np.ones(t.shape)) - law.sums(t, GAMMA, np.zeros(t.shape))
        for row in range(t.shape[0]):
            z = t[row][clustering.assignment]
            slope = (eval_sim(model, graph, z, np.ones(graph.n), GAMMA)
                     - eval_sim(model, graph, z, np.zeros(graph.n), GAMMA))
            expected = np.sqrt(np.bincount(clustering.assignment, slope**2, minlength=k))
            assert np.allclose(scale[row], expected, rtol=1e-12, atol=1e-12)


def unit_mc(graph, clustering, design, model, gamma, reps, seed):
    """Reference Monte Carlo: unit-level outcomes and estimators, one draw
    at a time.  Returns per estimator (mean, sd, se_mean, se_sd)."""
    rng = np.random.default_rng(seed)
    baseline = unit_outcomes(model, graph, np.zeros(graph.n), np.zeros(graph.n), gamma)
    rows = []
    for t in design.sample_many(rng, reps):
        z = t[clustering.assignment]
        y = unit_outcomes(model, graph, z, rng.standard_normal(graph.n), gamma)
        rows.append(unit_estimates(ESTIMATOR_KINDS, z, y, baseline))
    out = {}
    for e, kind in enumerate(ESTIMATOR_KINDS):
        v = np.array([r[e][0] for r in rows if not r[e][1]])
        sd = v.std(ddof=1)
        out[kind] = (v.mean(), sd, sd / np.sqrt(v.size), sd / np.sqrt(2.0 * (v.size - 1)))
    return out


def test_noisy_engine_matches_unit_loop_within_standard_error(sbm4):
    graph, clustering = sbm4
    designs = (("ber", cd.BernoulliDesign(4)),
               ("ocd", cd.SignGaussianDesign(random_unit_rows(4, seed=8))))
    for model in _models(graph, sigma=0.8)[1:]:
        report = cd.run_mc(cd.SimConfig(
            law=cd.cluster_law(graph, clustering), designs=designs, model=model,
            gammas=(0.5, 2.0), estimators=ESTIMATOR_KINDS, replications=3000,
            base_seed=9))
        for name, design in designs:
            for gamma in (0.5, 2.0):
                ref = unit_mc(graph, clustering, design, model, gamma, 2000, seed=10)
                for kind, (mean, sd, se_mean, se_sd) in ref.items():
                    cell = report.cell(name, gamma, kind)
                    assert abs(cell.mean_estimate - mean) <= 4 * np.hypot(cell.se_bias,
                                                                          se_mean)
                    assert abs(cell.sd - sd) <= 4 * np.hypot(cell.se_sd, se_sd)


def unit_exact(graph, clustering, design, model, gamma):
    """Reference enumeration over patterns x units: per estimator
    (bias, sd, mse, degenerate mass)."""
    patterns, probs = design.exact_distribution()
    model = cd.with_gamma(model, gamma)
    oracle = unit_gate(model, graph)
    out = {}
    rows = [unit_estimates(ESTIMATOR_KINDS, z, eval_analysis(model, graph, z), model.alpha)
            for z in patterns[:, clustering.assignment]]
    for e, kind in enumerate(ESTIMATOR_KINDS):
        ok = np.array([not r[e][1] for r in rows])
        est = np.array([r[e][0] for r in rows])[ok]
        w = probs[ok]
        total = w.sum()
        mean = w @ est / total
        out[kind] = (mean - oracle, np.sqrt(w @ (est - mean) ** 2 / total),
                     w @ (est - oracle) ** 2 / total, 1.0 - total)
    return out


@pytest.mark.parametrize("fixture", ["sbm4", "path"])
def test_exact_engine_matches_unit_enumeration(fixture, sbm4, path_graph,
                                               path_clustering):
    graph, clustering = sbm4 if fixture == "sbm4" else (path_graph, path_clustering)
    summary = cd.build_cluster_summary(graph, clustering)
    k = clustering.k
    designs = (("ber", cd.BernoulliDesign(k)), ("cr", cd.CompleteDesign(k)),
               ("ibr", cd.BlockDesign(k, cd.build_ibr_blocks(summary, 2))),
               ("ocd", cd.SignGaussianDesign(random_unit_rows(k, seed=11))))
    model = _models(graph, sigma=0.0)[0]
    report = cd.run_exact(graph, clustering, designs, model, estimators=ESTIMATOR_KINDS,
                          gammas=(0.5, 2.0))
    for name, design in designs:
        for gamma in (0.5, 2.0):
            for kind, ref in unit_exact(graph, clustering, design, model, gamma).items():
                cell = report.cell(name, gamma, kind)
                got = (cell.bias, cell.sd, cell.mse, cell.degenerate_fraction)
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-13), (name, gamma, kind)


class _FixedDesign(cd.Design):
    """Always draws clusters 0 and 2; `tag` only changes the stream key."""

    kind = "fixed"
    k = 4

    def __init__(self, tag: bytes):
        self.tag = tag

    def sample_many(self, rng, size):
        return np.tile([1.0, 0.0, 1.0, 0.0], (size, 1))

    def _stream_material(self):
        return self.tag


def small_config(graph, clustering, designs, model, **kw):
    defaults = dict(gammas=(1.0,), estimators=("ht",), replications=500, base_seed=0)
    defaults.update(kw)
    return cd.SimConfig(law=cd.cluster_law(graph, clustering), designs=designs,
                        model=model, **defaults)


@pytest.fixture
def sbm_setup(sbm4):
    graph, clustering = sbm4
    summary = cd.build_cluster_summary(graph, clustering)
    return graph, clustering, summary


class TestRunMc:
    def test_oversized_run_is_refused_by_its_size(self, sbm_setup, monkeypatch):
        import covdesign.simulation as simulation

        graph, clustering, _ = sbm_setup
        model = cd.SimModelParams("linear")
        designs = (("ber", cd.BernoulliDesign(4)),)
        monkeypatch.setattr(simulation, "physical_memory", lambda: 2**30)
        # 2**30 bytes hold 119,304,647 cells of 9 B; nothing is allocated here
        small_config(graph, clustering, designs, model, replications=119_304_647)
        with pytest.raises(ValueError, match=r"^119304648 replications need 1\.0 GiB .* "
                                             r"than this machine's 1\.0 GiB of memory$"):
            small_config(graph, clustering, designs, model, replications=119_304_648)
        with pytest.raises(ValueError, match=r"need 8\.2 TiB of results"):
            small_config(graph, clustering, designs, model, replications=10**12)

    def test_no_interference_means_no_bias(self, sbm_setup):
        graph, clustering, _ = sbm_setup
        model = cd.SimModelParams("linear", sigma=0.1)
        report = cd.run_mc(small_config(
            graph, clustering, (("ber", cd.BernoulliDesign(4)),), model,
            gammas=(0.0,), replications=4000,
        ))
        cell = report.cells[0]
        assert abs(cell.bias) <= 3 * cell.se_bias

    def test_bias_matches_closed_form_under_analysis_model(self, sbm_setup):
        graph, clustering, summary = sbm_setup
        model = cd.AnalysisModelParams.uniform(graph.n, gamma=1.0)
        design = cd.BernoulliDesign(4)
        report = cd.run_mc(small_config(
            graph, clustering, (("ber", design),), model, replications=20_000,
        ))
        cell = report.cells[0]
        expected = cd.bias_closed_form(summary, design.covariance(), 1.0)
        assert abs(cell.bias - expected) <= 3 * cell.se_bias

    def test_same_seed_is_bitwise_identical(self, sbm_setup):
        graph, clustering, _ = sbm_setup
        model = cd.SimModelParams("multiplicative")
        designs = (("ber", cd.BernoulliDesign(4)), ("cr", cd.CompleteDesign(4)))
        config = small_config(graph, clustering, designs, model,
                              estimators=("ht", "dim"), gammas=(0.5, 2.0))
        assert cd.run_mc(config).cells == cd.run_mc(config).cells

    def test_identical_design_listed_twice_gives_identical_rows(self, sbm_setup):
        graph, clustering, _ = sbm_setup
        model = cd.SimModelParams("linear")
        designs = (("first", cd.CompleteDesign(4)), ("second", cd.CompleteDesign(4)))
        report = cd.run_mc(small_config(graph, clustering, designs, model))
        a, b = report.cells
        assert (a.bias, a.sd, a.mse) == (b.bias, b.sd, b.mse)

    def test_mse_identity_per_cell(self, sbm_setup):
        graph, clustering, _ = sbm_setup
        model = cd.SimModelParams("linear")
        designs = (("ber", cd.BernoulliDesign(4)), ("cr", cd.CompleteDesign(4)))
        report = cd.run_mc(small_config(graph, clustering, designs, model,
                                        estimators=("ht", "dim"), replications=700))
        for cell in report.cells:
            expected = cell.bias**2 + cell.sd**2 * (cell.valid - 1) / cell.valid
            assert cell.mse == pytest.approx(expected, rel=1e-10)

    def test_degenerate_draws_are_counted_not_dropped_silently(self, path_graph,
                                                               path_clustering):
        model = cd.AnalysisModelParams.uniform(4)
        report = cd.run_mc(cd.SimConfig(
            law=cd.cluster_law(path_graph, path_clustering),
            designs=(("ber", cd.BernoulliDesign(2)),), model=model,
            gammas=(1.0,), estimators=("dim",), replications=2000, base_seed=1,
        ))
        cell = report.cells[0]
        # both clusters same arm w.p. 1/2
        assert cell.valid + round(cell.degenerate_fraction * cell.replications) == 2000
        assert abs(cell.degenerate_fraction - 0.5) < 0.05

    def test_dim_always_degenerate_on_single_cluster(self, single_cluster):
        graph, clustering, _ = single_cluster
        model = cd.AnalysisModelParams.uniform(4)
        with pytest.warns(UserWarning, match="0 of 50 draws are valid"):
            report = cd.run_mc(cd.SimConfig(
                law=cd.cluster_law(graph, clustering),
                designs=(("ber", cd.BernoulliDesign(1)),), model=model,
                gammas=(1.0,), estimators=("dim",), replications=50, base_seed=0,
            ))
        cell = report.cells[0]
        assert cell.degenerate_fraction == 1.0 and np.isnan(cell.mse)

    def test_noise_follows_design_stream_key(self, sbm_setup):
        # two designs with the same draws but different stream keys draw
        # their noise from different streams, so their rows differ
        graph, clustering, _ = sbm_setup
        model = cd.SimModelParams("linear", sigma=1.0)
        designs = (("a", _FixedDesign(b"a")), ("b", _FixedDesign(b"b")))
        report = cd.run_mc(small_config(graph, clustering, designs, model,
                                        replications=300))
        assert report.cells[0].mean_estimate != report.cells[1].mean_estimate

    def test_block_streams_are_keyed_by_design_gamma_and_block(self, sbm_setup):
        # each block of each (design, gamma) cell draws from its own generator,
        # spawn key (1, design key, gamma index, block): treatments first, then noise
        graph, clustering, _ = sbm_setup
        model = cd.SimModelParams("linear", sigma=1.0)
        design = cd.BernoulliDesign(4)
        gammas, reps = (0.5, 2.0), cd.simulation.BLOCK + 5
        report = cd.run_mc(small_config(graph, clustering, (("ber", design),), model,
                                        gammas=gammas, replications=reps, base_seed=3))
        law = ClusterModel(model, cd.cluster_law(graph, clustering))
        for g_idx, gamma in enumerate(gammas):
            blocks = []
            for block, size in enumerate((cd.simulation.BLOCK, 5)):
                rng = np.random.default_rng(np.random.SeedSequence(
                    3, spawn_key=(1, design.stream_key(), g_idx, block)))
                t = design.sample_many(rng, size)
                y = law.sums(t, gamma, rng.standard_normal(t.shape))
                blocks.append(cd.cluster_estimates(t, y, law.sizes, law.baseline, ("ht",))[0])
            assert report.cells[g_idx].mean_estimate == float(np.concatenate(blocks).mean())

    def test_k_mismatch_rejected(self, sbm_setup):
        graph, clustering, _ = sbm_setup
        model = cd.SimModelParams("linear")
        with pytest.raises(ValueError, match="K="):
            small_config(graph, clustering, (("ber", cd.BernoulliDesign(3)),), model)

    def test_negative_seed_rejected(self, sbm_setup):
        graph, clustering, _ = sbm_setup
        model = cd.SimModelParams("linear")
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            small_config(graph, clustering, (("ber", cd.BernoulliDesign(4)),), model,
                         base_seed=-1)

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_non_finite_gamma_rejected(self, sbm_setup, bad):
        graph, clustering, _ = sbm_setup
        model = cd.SimModelParams("linear")
        with pytest.raises(ValueError, match="gammas must be finite"):
            small_config(graph, clustering, (("ber", cd.BernoulliDesign(4)),), model,
                         gammas=(1.0, bad))

    def test_duplicate_design_name_rejected(self, sbm_setup):
        graph, clustering, _ = sbm_setup
        model = cd.SimModelParams("linear")
        designs = (("ber", cd.BernoulliDesign(4)), ("cr", cd.CompleteDesign(4)),
                   ("ber", cd.CompleteDesign(4)))
        with pytest.raises(ValueError, match="^duplicate design name 'ber'$"):
            small_config(graph, clustering, designs, model)

    def test_duplicate_gamma_rejected(self, sbm_setup):
        graph, clustering, _ = sbm_setup
        model = cd.SimModelParams("linear")
        with pytest.raises(ValueError, match=r"^duplicate gamma 1\.0$"):
            small_config(graph, clustering, (("ber", cd.BernoulliDesign(4)),), model,
                         gammas=(1, 0.5, 1.0))

    def test_unknown_estimator_rejected(self, sbm_setup):
        graph, clustering, _ = sbm_setup
        model = cd.SimModelParams("linear")
        with pytest.raises(ValueError, match="estimator"):
            small_config(graph, clustering, (("ber", cd.BernoulliDesign(4)),),
                         model, estimators=("hajek",))

    @pytest.mark.parametrize("reps", [0, 1])
    def test_fewer_than_two_replications_rejected(self, sbm_setup, reps):
        # one draw has no standard deviation: its cells would be NaN
        graph, clustering, _ = sbm_setup
        model = cd.SimModelParams("linear")
        with pytest.raises(ValueError, match=rf"^replications must be at least 2 \(a standard "
                                             rf"deviation needs two draws\), got {reps}$"):
            small_config(graph, clustering, (("ber", cd.BernoulliDesign(4)),), model,
                         replications=reps)

    @pytest.mark.parametrize("estimators, message", [
        ((), "at least one estimator is required"),
        (("ht", "dim", "ht"), "duplicate estimator 'ht'"),
    ])
    def test_empty_or_repeated_estimators_rejected(self, sbm_setup, estimators, message):
        graph, clustering, _ = sbm_setup
        designs = (("ber", cd.BernoulliDesign(4)),)
        with pytest.raises(ValueError, match=f"^{message}$"):
            small_config(graph, clustering, designs,
                         cd.SimModelParams("linear"), estimators=estimators)
        with pytest.raises(ValueError, match=f"^{message}$"):
            cd.run_exact(graph, clustering, designs, cd.AnalysisModelParams.uniform(graph.n),
                         estimators=estimators)


    @pytest.mark.parametrize("kind", ["linear", "multiplicative"])
    def test_every_model_field_moves_the_cells(self, sbm_setup, kind):
        """A `SimModelParams` field that no cell reads would be a setting
        that does nothing; multiplicative `c` is the one known such field."""
        graph, clustering, _ = sbm_setup
        model = cd.SimModelParams(kind)
        base = cd.run_mc(small_config(graph, clustering, (("ber", cd.BernoulliDesign(4)),),
                                      model, replications=50)).cells
        for field in dataclasses.fields(model):
            if field.name == "kind" or (kind, field.name) == ("multiplicative", "c"):
                continue
            bumped = dataclasses.replace(model, **{field.name: getattr(model, field.name) + 0.5})
            cells = cd.run_mc(small_config(graph, clustering,
                                           (("ber", cd.BernoulliDesign(4)),), bumped,
                                           replications=50)).cells
            assert cells != base, field.name

    def test_linear_oracle_counts_only_units_with_a_neighbour(self):
        """Two triangles and two isolated units, one cluster each: an isolated
        unit gets no interference, so the GATE is beta + gamma 6/8, and ber's
        ht, unbiased when every neighbour shares its unit's cluster, matches it."""
        graph = cd.Graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        clustering = cd.Clustering([0, 0, 0, 1, 1, 1, 2, 3], 4)
        model = cd.SimModelParams("linear", beta=1.0, sigma=0.0)
        report = cd.run_mc(small_config(graph, clustering, (("ber", cd.BernoulliDesign(4)),),
                                        model, replications=20_000))
        cell = report.cells[0]
        assert cell.oracle == pytest.approx(1.0 + 1.0 * 6 / 8, rel=1e-15)
        assert abs(cell.bias) <= 3 * cell.se_bias


class TestRunExact:
    def test_path_bernoulli_matches_closed_form(self, path_graph, path_clustering,
                                                path_summary):
        model = cd.AnalysisModelParams.uniform(4)
        design = cd.BernoulliDesign(2)
        report = cd.run_exact(path_graph, path_clustering, (("ber", design),), model)
        cell = report.cells[0]
        assert cell.bias == pytest.approx(-0.5, abs=1e-12)
        assert cell.bias == pytest.approx(
            cd.bias_closed_form(path_summary, design.covariance(), 1.0), abs=1e-12
        )

    def test_single_cluster_bias_and_variance(self, single_cluster):
        graph, clustering, _ = single_cluster
        model = cd.AnalysisModelParams.uniform(4)
        report = cd.run_exact(graph, clustering, (("ber", cd.BernoulliDesign(1)),),
                              model, estimators=("ht",))
        cell = report.cells[0]
        assert cell.bias == pytest.approx(0.0, abs=1e-12)
        assert cell.sd**2 == pytest.approx(6.25, abs=1e-12)

    def test_complete_design_cross_checks_closed_form(self, path_graph,
                                                      path_clustering, path_summary):
        model = cd.AnalysisModelParams.uniform(4)
        design = cd.CompleteDesign(2)
        report = cd.run_exact(path_graph, path_clustering, (("cr", design),), model)
        expected = cd.bias_closed_form(path_summary, design.covariance(), 1.0)
        assert report.cells[0].bias == pytest.approx(expected, abs=1e-12)

    def test_bias_scales_linearly_in_gamma(self, sbm_setup):
        graph, clustering, _ = sbm_setup
        model = cd.AnalysisModelParams.uniform(graph.n)
        report = cd.run_exact(graph, clustering, (("ber", cd.BernoulliDesign(4)),),
                              model, gammas=(1.0, 2.0))
        b1 = report.cell("ber", 1.0, "ht").bias
        b2 = report.cell("ber", 2.0, "ht").bias
        assert b2 == pytest.approx(2.0 * b1, rel=1e-12)

    def test_mc_converges_to_exact(self, path_graph, path_clustering):
        model = cd.AnalysisModelParams.uniform(4)
        designs = (("ber", cd.BernoulliDesign(2)), ("cr", cd.CompleteDesign(2)))
        exact = cd.run_exact(path_graph, path_clustering, designs, model,
                             estimators=("ht", "dim"))
        mc = cd.run_mc(cd.SimConfig(
            law=cd.cluster_law(path_graph, path_clustering), designs=designs,
            model=model, gammas=(1.0,), estimators=("ht", "dim"),
            replications=100_000, base_seed=4,
        ))
        for cell in mc.cells:
            ref = exact.cell(cell.design, cell.gamma, cell.estimator)
            assert abs(cell.bias - ref.bias) <= 4 * cell.se_bias
            assert abs(cell.sd - ref.sd) <= 4 * cell.se_sd
            assert abs(cell.mse - ref.mse) <= 4 * cell.se_mse

    def test_degenerate_mass_reported_for_dim(self, path_graph, path_clustering):
        model = cd.AnalysisModelParams.uniform(4)
        report = cd.run_exact(path_graph, path_clustering,
                              (("ber", cd.BernoulliDesign(2)),), model,
                              estimators=("dim",))
        assert report.cells[0].degenerate_fraction == pytest.approx(0.5)

    def test_rejects_noisy_model(self, path_graph, path_clustering):
        model = cd.SimModelParams("linear")
        with pytest.raises(ValueError, match="analysis model"):
            cd.run_exact(path_graph, path_clustering,
                         (("ber", cd.BernoulliDesign(2)),), model)

    def test_rejects_oversized_k(self):
        graph, clustering = cd.generate_sbm([2] * 18, 0.9, 0.05, seed=0)
        model = cd.AnalysisModelParams.uniform(graph.n)
        with pytest.raises(ValueError, match="cap"):
            cd.run_exact(graph, clustering, (("ber", cd.BernoulliDesign(18)),), model)


class TestEngineInputs:
    """`SimConfig` (and so `run_mc`) and `run_exact` refuse the same inputs
    with the same message."""

    @staticmethod
    def engines(graph, clustering, model, gammas=(1.0,), k=None):
        designs = (("ber", cd.BernoulliDesign(k or clustering.k)),)
        return (lambda: cd.SimConfig(law=cd.cluster_law(graph, clustering), designs=designs,
                                     model=model, gammas=gammas),
                lambda: cd.run_exact(graph, clustering, designs, model, gammas=gammas))

    def refused(self, message, *args, **kw):
        for engine in self.engines(*args, **kw):
            with pytest.raises(ValueError, match=message):
                engine()

    @pytest.mark.parametrize("gammas, message", [
        ((float("nan"),), r"^gammas must be finite, got \[nan\]$"),
        ((1.0, 1.0), r"^duplicate gamma 1\.0$"),
        ((), r"^gamma grid must be nonempty$"),
    ], ids=["nan", "duplicate", "empty"])
    def test_bad_gamma_grid(self, sbm4, gammas, message):
        graph, clustering = sbm4
        self.refused(message, graph, clustering, cd.AnalysisModelParams.uniform(graph.n),
                     gammas)

    def test_design_of_another_k(self, sbm4):
        graph, clustering = sbm4
        self.refused(r"^design 'ber' has K=3, clustering has K=4$", graph, clustering,
                     cd.AnalysisModelParams.uniform(graph.n), k=3)

    def test_clustering_of_another_graph(self, sbm4):
        graph, _ = sbm4
        clustering = cd.Clustering(np.repeat(np.arange(4), 4), 4)
        self.refused(r"^clustering covers 16 units, graph has 20$", graph, clustering,
                     cd.AnalysisModelParams.uniform(graph.n))

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_model_of_another_size(self, sbm4, field):
        graph, clustering = sbm4
        model = cd.AnalysisModelParams.uniform(graph.n)
        model = dataclasses.replace(model, **{field: np.ones(graph.n - 1)})
        self.refused(rf"^model {field} has shape \(19,\), graph has 20 units$", graph,
                     clustering, model)


class TestReportShape:
    def test_compare_designs_minima_and_table(self, sbm_setup):
        graph, clustering, summary = sbm_setup
        model = cd.SimModelParams("linear")
        designs = (
            ("ber", cd.BernoulliDesign(4)),
            ("cr", cd.CompleteDesign(4)),
            ("ibr-2", cd.BlockDesign(4, cd.build_ibr_blocks(summary, 2))),
        )
        report = cd.run_mc(small_config(
            graph, clustering, designs, model, gammas=(0.5, 1.0), replications=400,
        ))
        assert len(report.cells) == 3 * 2
        minima = report.minima()
        assert set(minima) == {"ht|gamma=0.5", "ht|gamma=1"}
        assert all(v in report.designs for v in minima.values())
        as_dict = report.to_dict()
        assert as_dict["kind"] == "monte-carlo"
        assert len(as_dict["cells"]) == 6

    def test_undefined_exact_cell_warns_and_is_null(self):
        # one cluster: every pattern leaves dim degenerate, so no mass is valid
        graph, _ = cd.generate_sbm([6, 6], 0.6, 0.3, seed=5)
        clustering = cd.Clustering(np.zeros(12, dtype=np.int64), 1)
        model = cd.AnalysisModelParams.uniform(12, gamma=1.0)
        with pytest.warns(UserWarning, match=r"^design 'ber', estimator 'dim', gamma 1: 0 of 2 "
                                             r"draws are valid, so its bias, sd and mse are "
                                             r"undefined$"):
            report = cd.run_exact(graph, clustering, (("ber", cd.BernoulliDesign(1)),), model,
                                  estimators=("ht", "dim"))
        ht, dim = report.to_dict()["cells"]
        assert np.isnan(report.cell("ber", 1.0, "dim").bias)
        assert dim["bias"] is dim["sd"] is dim["mse"] is dim["mean_estimate"] is None
        assert None not in ht.values()
        json.dumps(report.to_dict(), allow_nan=False)

    def test_group_of_undefined_mses_has_no_minimum(self):
        # one cluster: dim is degenerate under every draw of ber and of cr
        graph, _ = cd.generate_sbm([6, 6], 0.6, 0.3, seed=5)
        clustering = cd.Clustering(np.zeros(12, dtype=np.int64), 1)
        designs = (("ber", cd.BernoulliDesign(1)), ("cr", cd.CompleteDesign(1)))
        with pytest.warns(UserWarning, match="0 of 50 draws are valid"):
            report = cd.run_mc(small_config(graph, clustering, designs,
                                            cd.SimModelParams("linear"),
                                            estimators=("ht", "dim"), replications=50))
        assert report.minima()["dim|gamma=1"] is None
        assert report.minima()["ht|gamma=1"] in ("ber", "cr")
        assert report.to_dict()["minima"]["dim|gamma=1"] is None

    def test_cell_lookup_raises_on_missing(self, sbm_setup):
        graph, clustering, _ = sbm_setup
        model = cd.SimModelParams("linear")
        report = cd.run_mc(small_config(
            graph, clustering, (("ber", cd.BernoulliDesign(4)),), model,
            replications=50,
        ))
        with pytest.raises(KeyError):
            report.cell("cr", 1.0, "ht")


def unit_baseline(model, graph):
    """Per-unit base levels, read from `ClusterModel` over one cluster per unit."""
    return ClusterModel(model, cd.cluster_law(graph, cd.Clustering(np.arange(graph.n), graph.n))).baseline


class TestBaselineLevels:
    def test_analysis_model_uses_alpha(self, path_graph):
        model = cd.AnalysisModelParams(np.arange(4.0), np.ones(4), 1.0)
        assert np.array_equal(unit_baseline(model, path_graph), np.arange(4.0))

    def test_linear_model_baseline(self, path_graph):
        model = cd.SimModelParams("linear", alpha=1.0, c=0.5)
        expected = 1.0 + 0.5 * path_graph.degrees / path_graph.mean_degree
        assert np.allclose(unit_baseline(model, path_graph), expected)

    def test_multiplicative_model_baseline(self, path_graph):
        model = cd.SimModelParams("multiplicative", alpha=2.0)
        expected = 2.0 * path_graph.degrees / path_graph.mean_degree
        assert np.allclose(unit_baseline(model, path_graph), expected)


@st.composite
def noiseless_cases(draw):
    """A random graph and partition, a noise-free outcome model of each
    kind, an interference level and a batch of cluster draws."""
    n = draw(st.integers(1, 20))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    labels = np.unique(labels, return_inverse=True)[1]  # no empty cluster
    graph, clustering = cd.Graph(n, edges), cd.Clustering(labels, labels.max() + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha, beta, c = rng.uniform(-2.0, 2.0, 3)
    models = [cd.AnalysisModelParams(rng.standard_normal(n), rng.standard_normal(n), 0.0)]
    models += [cd.SimModelParams(kind, alpha=alpha, beta=beta, c=c, sigma=0.0)
               for kind in ("linear", "multiplicative")]
    t = rng.integers(0, 2, (draw(st.integers(1, 8)), clustering.k)).astype(float)
    return graph, clustering, models, rng.uniform(-3.0, 3.0), t


@settings(max_examples=100, deadline=None)
@given(noiseless_cases())
def test_cluster_sums_are_unit_outcome_sums(case):
    graph, clustering, models, gamma, t = case
    assign, k = clustering.assignment, clustering.k
    for model in models:
        sums = ClusterModel(model, cd.cluster_law(graph, clustering)).sums(t, gamma)
        for row in range(t.shape[0]):
            y = unit_outcomes(model, graph, t[row][assign], np.zeros(graph.n), gamma)
            assert np.allclose(sums[row], np.bincount(assign, y, minlength=k),
                               rtol=1e-10, atol=1e-10)



@pytest.mark.parametrize("kind", ["linear", "multiplicative"])
def test_one_model_reads_the_mean_degree_of_each_graph(kind, path_graph, path_clustering,
                                                       sbm4):
    """A `SimModelParams` holds no graph property: run on two graphs with
    different mean degrees, its cluster sums match the unit reference on each."""
    model = cd.SimModelParams(kind, alpha=1.2, beta=0.7, c=0.5, sigma=0.0)
    cases = [(path_graph, path_clustering), sbm4]
    assert path_graph.mean_degree != sbm4[0].mean_degree
    rng = np.random.default_rng(3)
    for graph, clustering in cases:
        assign, k = clustering.assignment, clustering.k
        t = rng.integers(0, 2, (8, k)).astype(float)
        sums = ClusterModel(model, cd.cluster_law(graph, clustering)).sums(t, GAMMA)
        for row in range(t.shape[0]):
            y = eval_sim(model, graph, t[row][assign], np.zeros(graph.n), GAMMA)
            assert np.allclose(sums[row], np.bincount(assign, y, minlength=k),
                               rtol=1e-12, atol=1e-12)

def _noisy_models(graph):
    models = [cd.AnalysisModelParams.uniform(graph.n, alpha=0.4, beta=1.1, gamma=0.9)]
    return models + [cd.SimModelParams(kind, alpha=1.2, beta=0.7, c=0.5, sigma=0.8)
                     for kind in ("linear", "multiplicative")]


@pytest.mark.parametrize("fixture", ["sbm4", "isolated", "planted"])
def test_dense_and_csr_counts_give_the_same_sums(fixture, sbm4, monkeypatch):
    """Dense neighbour counts and CSR ones give equal sums; the linear and
    analysis models build no neighbour counts at all."""
    graph, clustering = {"sbm4": sbm4, "isolated": _isolated_unit_graph(),
                         "planted": cd.generate_sbm([20] * 10, 0.3, 0.02, seed=7)}[fixture]
    rng = np.random.default_rng(8)
    t = rng.integers(0, 2, (40, clustering.k)).astype(float)
    noise = rng.standard_normal(t.shape)
    for model in _noisy_models(graph):
        sums = {}
        for cells in (0, 1 << 62):
            # 0 turns off both the size and the density rule: CSR
            monkeypatch.setattr(cd.simulation, "DENSE_CELLS", cells)
            monkeypatch.setattr(cd.simulation, "DENSE_LIMIT", cells)
            sums[cells] = ClusterModel(model, cd.cluster_law(graph, clustering)).sums(t, 1.3, noise)
        assert np.array_equal(sums[0], sums[1 << 62])


@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_float32_noise_scale_is_bitwise_the_float64_one(dense, seed, monkeypatch):
    """Below the 2^24 bound the multiplicative model's sums over the
    neighbour counts run in float32 and give the float64 results bit for
    bit."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(5, 40, rng.integers(4, 12))
    graph, clustering = cd.generate_sbm(sizes, 0.6, 0.05, seed=seed)
    model = cd.SimModelParams("multiplicative", alpha=1.2, beta=0.7, sigma=0.8)
    t = rng.integers(0, 2, (64, clustering.k)).astype(float)
    noise = rng.standard_normal(t.shape)
    # dense by the size rule, or CSR with both the size and the density rule off
    monkeypatch.setattr(cd.simulation, "DENSE_CELLS", 1 << 62 if dense else 0)
    monkeypatch.setattr(cd.simulation, "DENSE_LIMIT", 1 << 62 if dense else 0)
    law = ClusterModel(model, cd.cluster_law(graph, clustering))
    assert law.dtype == np.float32
    assert isinstance(law.counts, np.ndarray) == dense
    monkeypatch.setattr(cd.simulation, "EXACT_FLOAT32", 0)
    wide = ClusterModel(model, cd.cluster_law(graph, clustering))
    assert wide.dtype == np.float64
    assert np.array_equal(law.cross, wide.cross)
    for gamma in (0.0, 1.3, -2.1):
        assert np.array_equal(law.sums(t, gamma, noise), wide.sums(t, gamma, noise))


@pytest.mark.parametrize("hub, dtype", [(4095, np.float32), (4097, np.float64)])
def test_a_cluster_with_squared_degrees_beyond_2_to_24_keeps_float64(hub, dtype):
    """A star's hub of degree 4,097 has d^2 > 2^24, so its sums stay float64;
    a hub of degree 4,095 with its leaves stays below the bound."""
    graph = cd.Graph(hub + 1, [(0, leaf) for leaf in range(1, hub + 1)])
    clustering = cd.Clustering(np.arange(hub + 1) % 2, 2)
    model = cd.SimModelParams("multiplicative", sigma=0.8)
    law = ClusterModel(model, cd.cluster_law(graph, clustering))
    assert law.dtype == dtype
    t = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    z = t[:, clustering.assignment]
    spread = law.sums(t, 1.3, np.ones(t.shape)) - law.sums(t, 1.3, np.zeros(t.shape))
    for row in range(t.shape[0]):
        slope = (eval_sim(model, graph, z[row], np.ones(graph.n), 1.3)
                 - eval_sim(model, graph, z[row], np.zeros(graph.n), 1.3))
        assert np.allclose(spread[row], np.sqrt(np.bincount(clustering.assignment, slope**2)),
                           rtol=1e-12, atol=0.0)

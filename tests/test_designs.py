import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import covdesign as cd
from covdesign.designs import DesignEnumerationError, enumerate_patterns
from conftest import paired_root, random_unit_rows, unit_rows
from unit_reference import is_valid_covariance


def exact_moments(design):
    patterns, probs = design.exact_distribution()
    mean = probs @ patterns
    centered = patterns - mean
    cov = (centered * probs[:, None]).T @ centered
    return mean, cov, probs


def empirical_cov_with_se(draws):
    mean = draws.mean(axis=0)
    centered = draws - mean
    n = draws.shape[0]
    cov = centered.T @ centered / n
    second = (centered**2).T @ (centered**2) / n
    se = np.sqrt(np.maximum(second - cov**2, 0.0) / n)
    return cov, se


class _ZeroGenerator:
    """Stub generator hitting the sign function exactly at zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


class TestBernoulli:
    def test_exact_distribution_and_covariance(self):
        design = cd.BernoulliDesign(3)
        mean, cov, probs = exact_moments(design)
        assert probs.sum() == pytest.approx(1.0)
        assert np.allclose(mean, 0.5)
        assert np.allclose(cov, design.covariance())
        assert np.allclose(design.covariance(), 0.25 * np.eye(3))

    def test_single_cluster_marginal(self):
        design = cd.BernoulliDesign(1)
        draws = design.sample_many(np.random.default_rng(0), 1_000_000)
        p_hat = draws.mean()
        assert abs(p_hat - 0.5) <= 3 * np.sqrt(0.25 / 1_000_000)

    def test_empirical_covariance_k5(self):
        design = cd.BernoulliDesign(5)
        draws = design.sample_many(np.random.default_rng(1), 1_000_000)
        cov, se = empirical_cov_with_se(draws)
        assert np.all(np.abs(cov - design.covariance()) <= 3 * se + 1e-12)

    def test_fixed_seed_reproduces_draws(self):
        design = cd.BernoulliDesign(4)
        a = [design.sample_many(np.random.default_rng(9), 1)[0] for _ in range(3)]
        b = [design.sample_many(np.random.default_rng(9), 1)[0] for _ in range(3)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestComplete:
    def test_k2_support_and_covariance(self):
        design = cd.CompleteDesign(2)
        patterns, probs = design.exact_distribution()
        assert sorted(map(tuple, patterns.tolist())) == [(0.0, 1.0), (1.0, 0.0)]
        assert np.allclose(probs, 0.5)
        _, cov, _ = exact_moments(design)
        assert np.allclose(cov, [[0.25, -0.25], [-0.25, 0.25]])
        assert np.allclose(design.covariance(), cov)

    def test_even_k_every_draw_is_half_treated(self):
        design = cd.CompleteDesign(4)
        draws = design.sample_many(np.random.default_rng(2), 2000)
        assert np.all(draws.sum(axis=1) == 2)

    def test_odd_k_long_run_average(self):
        design = cd.CompleteDesign(3)
        draws = design.sample_many(np.random.default_rng(3), 1_000_000)
        counts = draws.sum(axis=1)
        se = counts.std(ddof=1) / np.sqrt(counts.size)
        assert abs(counts.mean() - 1.5) <= 3 * se
        assert set(np.unique(counts)) == {1.0, 2.0}

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_enumerated_covariance_matches_formula(self, k):
        design = cd.CompleteDesign(k)
        mean, cov, _ = exact_moments(design)
        assert np.allclose(mean, 0.5, atol=1e-12)
        assert np.allclose(cov, design.covariance(), atol=1e-12)


class TestIbrBlocks:
    def test_sorted_by_size_descending(self):
        sizes = [10, 9, 8, 7]
        assignment = np.repeat(np.arange(4), sizes)
        graph = cd.Graph(int(sum(sizes)), [(0, 1)])
        summary = cd.build_cluster_summary(graph, cd.Clustering(assignment, 4))
        assert cd.build_ibr_blocks(summary, 2) == ((0, 1), (2, 3))

    def test_descending_order_with_shuffled_sizes(self):
        sizes = [7, 10, 8, 9]
        assignment = np.repeat(np.arange(4), sizes)
        graph = cd.Graph(int(sum(sizes)), [(0, 1)])
        summary = cd.build_cluster_summary(graph, cd.Clustering(assignment, 4))
        assert cd.build_ibr_blocks(summary, 2) == ((1, 3), (2, 0))

    def test_remainder_forms_smaller_block(self):
        assignment = np.repeat(np.arange(5), 2)
        graph = cd.Graph(10, [(0, 1)])
        summary = cd.build_cluster_summary(graph, cd.Clustering(assignment, 5))
        blocks = cd.build_ibr_blocks(summary, 2)
        assert tuple(len(b) for b in blocks) == (2, 2, 1)

    def test_equal_sizes_give_consecutive_ids(self):
        assignment = np.repeat(np.arange(4), 3)
        graph = cd.Graph(12, [(0, 1)])
        summary = cd.build_cluster_summary(graph, cd.Clustering(assignment, 4))
        assert cd.build_ibr_blocks(summary, 2) == ((0, 1), (2, 3))

    def test_rejects_odd_block_size(self, path_summary):
        with pytest.raises(ValueError, match="even"):
            cd.build_ibr_blocks(path_summary, 3)


def per_block_sample_many(design, rng, size):
    """BlockDesign.sample_many as one call per block: odd blocks draw their
    treated count first, and ranked uniforms pick the treated clusters."""
    t = np.empty((size, design.k))
    for block in design.blocks:
        m = len(block)
        count = np.full(size, m // 2)
        if m % 2:
            count += rng.integers(0, 2, size)
        ranks = np.argsort(np.argsort(rng.random((size, m)), axis=1), axis=1)
        t[:, list(block)] = ranks < count[:, None]
    return t


class TestBlockDesign:
    @pytest.mark.parametrize("make", [
        lambda: cd.BlockDesign(11, [(0, 1), (2, 3), (4, 5, 6), (7, 8), (9,), (10,)]),
        lambda: cd.BlockDesign(13, [(3, 0, 1, 2), (4, 5, 6, 7), (8, 9), (10, 11), (12,)]),
        lambda: cd.BlockDesign(9, [(0, 1, 2, 3), (4, 5), (6, 7, 8)]),
        lambda: cd.CompleteDesign(8),
        lambda: cd.CompleteDesign(7),
    ])
    def test_batched_runs_draw_what_one_call_per_block_draws(self, make):
        design = make()
        for seed, size in [(0, 1), (1, 64), (2, 257)]:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(design.sample_many(rng, size),
                                  per_block_sample_many(design, ref_rng, size))
            assert rng.random() == ref_rng.random()

    def test_pairs_have_exactly_one_treated(self):
        design = cd.BlockDesign(4, [(0, 1), (2, 3)])
        draws = design.sample_many(np.random.default_rng(4), 2000)
        assert np.all(draws[:, 0] + draws[:, 1] == 1)
        assert np.all(draws.sum(axis=1) == 2)

    def test_pair_covariance_by_enumeration(self):
        design = cd.BlockDesign(2, [(0, 1)])
        _, cov, _ = exact_moments(design)
        assert np.allclose(cov, [[0.25, -0.25], [-0.25, 0.25]])

    def test_cross_block_independence_empirically(self):
        design = cd.BlockDesign(4, [(0, 1), (2, 3)])
        draws = design.sample_many(np.random.default_rng(5), 1_000_000)
        cov, se = empirical_cov_with_se(draws)
        cross = np.ix_([0, 1], [2, 3])
        assert np.all(np.abs(cov[cross]) <= 3 * se[cross] + 1e-12)

    def test_odd_and_singleton_blocks(self):
        design = cd.BlockDesign(6, [(0, 1, 2), (3,), (4, 5)])
        mean, cov, probs = exact_moments(design)
        assert probs.sum() == pytest.approx(1.0)
        assert np.allclose(mean, 0.5, atol=1e-12)
        assert np.allclose(cov, design.covariance(), atol=1e-12)
        # odd block off-diagonal is -1/(4m), singleton is independent
        assert cov[0, 1] == pytest.approx(-1 / 12)
        assert np.allclose(cov[3, :3], 0.0, atol=1e-12)

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError, match="partition"):
            cd.BlockDesign(4, [(0, 1), (1, 2)])


class TestSignGaussian:
    def test_identity_root_is_independent(self):
        design = cd.SignGaussianDesign(np.eye(4))
        assert np.allclose(design.covariance(), 0.25 * np.eye(4))
        draws = design.sample_many(np.random.default_rng(6), 1_000_000)
        cov, se = empirical_cov_with_se(draws)
        assert np.all(np.abs(cov - 0.25 * np.eye(4)) <= 3 * se + 1e-12)

    def test_half_correlation_pair(self):
        root = np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        design = cd.SignGaussianDesign(root)
        assert design.covariance()[0, 1] == pytest.approx(1 / 12, abs=1e-15)
        draws = design.sample_many(np.random.default_rng(7), 1_000_000)
        cov, se = empirical_cov_with_se(draws)
        assert abs(cov[0, 1] - 1 / 12) <= 3 * se[0, 1]

    def test_identical_rows_always_agree(self):
        root = np.array([[1.0, 0.0], [1.0, 0.0]])
        design = cd.SignGaussianDesign(root)
        draws = design.sample_many(np.random.default_rng(8), 5000)
        assert np.all(draws[:, 0] == draws[:, 1])
        assert design.covariance()[0, 1] == pytest.approx(0.25)

    def test_ties_at_zero_count_as_treated(self):
        design = cd.SignGaussianDesign(np.eye(3))
        assert np.array_equal(design.sample_many(_ZeroGenerator(), 1)[0], np.ones(3))

    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValueError, match="unit 2-norm"):
            cd.SignGaussianDesign(np.array([[2.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_root(self, bad):
        root = np.eye(3)
        root[1, 2] = bad
        with pytest.raises(ValueError, match="root has NaN or inf"):
            cd.SignGaussianDesign(root)

    def test_caller_root_changes_do_not_reach_design(self):
        root = random_unit_rows(3, seed=12)
        design = cd.SignGaussianDesign(root)
        cov, key = design.covariance(), design.stream_key()
        root[:] = np.eye(3)
        assert np.array_equal(design.covariance(), cov)
        assert design.stream_key() == key
        with pytest.raises(ValueError):
            design.root[0, 0] = 0.0

    def test_zero_padded_root_and_its_trimmed_form_are_one_design(self):
        rng = np.random.default_rng(14)
        trimmed = rng.standard_normal((6, 3))
        trimmed /= np.linalg.norm(trimmed, axis=1, keepdims=True)
        padded = np.zeros((6, 6))
        padded[:, [0, 2, 5]] = trimmed
        low, square = cd.SignGaussianDesign(trimmed), cd.SignGaussianDesign(padded)
        assert square.root.shape == (6, 3)
        assert np.array_equal(low.covariance(), square.covariance())
        assert np.array_equal(low.sample_many(np.random.default_rng(2), 500),
                              square.sample_many(np.random.default_rng(2), 500))
        assert low.stream_key() == square.stream_key()
        assert cd.make_design("ocd", 6, root=padded).stream_key() == low.stream_key()

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_rejects_a_root_that_is_not_k_by_p_with_p_at_most_k(self, shape):
        root = np.zeros(shape)
        root[..., 0] = 1.0
        with pytest.raises(ValueError, match=rf"^root is \({shape[0]},.*expected K x p with "
                                             rf"p <= K$"):
            cd.SignGaussianDesign(root)

    def test_exact_distribution_matches_covariance(self):
        root = random_unit_rows(5, seed=13)
        design = cd.SignGaussianDesign(root)
        mean, cov, probs = exact_moments(design)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.abs(mean - 0.5).max() < 1e-10
        assert np.abs(cov - design.covariance()).max() < 1e-10

    def test_block_structured_root_enumerates_at_k12(self):
        design = cd.SignGaussianDesign(paired_root(12))
        patterns, probs = design.exact_distribution()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        mean, cov, _ = exact_moments(design)
        assert np.allclose(mean, 0.5, atol=1e-12)
        assert np.allclose(cov, design.covariance(), atol=1e-12)

    @staticmethod
    def chain_root(k, chains):
        """Root whose Gram couples each chain's clusters only to their
        neighbours along the chain, which lists cluster indices."""
        root, dim = np.zeros((k, k)), 0
        for chain in chains:
            for pos, cluster in enumerate(chain[:-1]):
                root[cluster, dim + pos: dim + pos + 2] = 0.8, 0.6
            root[chain[-1], dim + len(chain) - 1] = 1.0
            dim += len(chain)
        return root

    def test_components_are_found_along_chains(self, monkeypatch):
        import covdesign.designs as designs_module

        sizes = []
        real = designs_module.sign_pattern_probabilities
        monkeypatch.setattr(designs_module, "sign_pattern_probabilities",
                            lambda corr: sizes.append(len(corr)) or real(corr))
        # cluster 0 sits three links away from the chain's first cluster
        design = cd.SignGaussianDesign(self.chain_root(9, [[7, 2, 5, 0], [1, 8, 3, 6, 4]]))
        mean, cov, probs = exact_moments(design)
        assert sorted(sizes) == [4, 5]
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(cov - design.covariance()).max() < 1e-12
        with pytest.raises(DesignEnumerationError, match="component of size 6"):
            cd.SignGaussianDesign(self.chain_root(6, [[5, 0, 3, 1, 4, 2]])).exact_distribution()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_identical_or_opposite_rows_in_a_coupled_block_refuse_enumeration(self, sign):
        root = random_unit_rows(5, seed=3)
        root[3] = sign * root[1]
        with pytest.raises(DesignEnumerationError, match="clusters 1 and 3 have identical "
                                                         "or opposite root rows"):
            cd.SignGaussianDesign(root).exact_distribution()
        # a block of three needs only pair moments, which allow |r| = 1
        small = random_unit_rows(3, seed=3)
        small[2] = sign * small[0]
        _, probs = cd.SignGaussianDesign(small).exact_distribution()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_generic_large_root_refuses_enumeration(self):
        root = random_unit_rows(6, seed=14)
        with pytest.raises(DesignEnumerationError, match="exceeds"):
            cd.SignGaussianDesign(root).exact_distribution()


class TestMarginalsAcrossDesigns:
    @pytest.mark.parametrize("factory", [
        cd.BernoulliDesign,
        cd.CompleteDesign,
        lambda k: cd.BlockDesign(k, [range(k)]),
        lambda k: cd.SignGaussianDesign(np.eye(k)),
    ])
    def test_every_design_refuses_enumeration_above_the_cap(self, factory):
        design = factory(cd.designs.MAX_EXACT_K + 1)
        with pytest.raises(DesignEnumerationError, match="^K=17 exceeds enumeration cap 16$"):
            design.exact_distribution()

    @pytest.mark.parametrize("factory", [
        lambda: cd.BernoulliDesign(5),
        lambda: cd.CompleteDesign(5),
        lambda: cd.BlockDesign(5, [(0, 1), (2, 3), (4,)]),
        lambda: cd.SignGaussianDesign(random_unit_rows(5, seed=15)),
    ])
    def test_treatment_frequency_is_half(self, factory):
        design = factory()
        n = 1_000_000
        draws = design.sample_many(np.random.default_rng(16), n)
        freq = draws.mean(axis=0)
        assert np.all(np.abs(freq - 0.5) <= 3 * np.sqrt(0.25 / n))

    @pytest.mark.parametrize("factory", [
        lambda: cd.BernoulliDesign(4),
        lambda: cd.CompleteDesign(4),
        lambda: cd.BlockDesign(4, [(0, 1), (2, 3)]),
        lambda: cd.SignGaussianDesign(random_unit_rows(4, seed=17)),
    ])
    def test_empirical_covariance_matches_exact(self, factory):
        design = factory()
        draws = design.sample_many(np.random.default_rng(18), 1_000_000)
        cov, se = empirical_cov_with_se(draws)
        assert np.all(np.abs(cov - design.covariance()) <= 3 * se + 1e-9)

    @pytest.mark.parametrize("factory", [
        lambda: cd.BernoulliDesign(4),
        lambda: cd.CompleteDesign(5),
        lambda: cd.BlockDesign(5, [(0, 1), (2, 3), (4,)]),
        lambda: cd.SignGaussianDesign(random_unit_rows(4, seed=22)),
    ])
    def test_per_draw_sampler_agrees_with_exact_covariance(self, factory):
        # one-row batches: a draw must not depend on the batch it lands in
        design = factory()
        rng = np.random.default_rng(23)
        draws = np.stack([design.sample_many(rng, 1)[0] for _ in range(30_000)])
        cov, se = empirical_cov_with_se(draws)
        assert np.all(np.abs(draws.mean(0) - 0.5) <= 4 * np.sqrt(0.25 / 30_000))
        assert np.all(np.abs(cov - design.covariance()) <= 4 * se + 1e-9)

    @pytest.mark.parametrize("factory", [
        lambda: cd.BernoulliDesign(4),
        lambda: cd.CompleteDesign(4),
        lambda: cd.CompleteDesign(5),
        lambda: cd.BlockDesign(5, [(0, 1), (2, 3), (4,)]),
        lambda: cd.SignGaussianDesign(random_unit_rows(4, seed=19)),
    ])
    def test_covariance_constraints(self, factory):
        assert is_valid_covariance(factory().covariance())


class TestMakeDesign:
    @pytest.mark.parametrize("kind", ["bernoulli", "BER", "complete", "optimized"])
    def test_aliases_are_refused(self, kind):
        with pytest.raises(ValueError, match=f"^unknown design kind '{kind}'"):
            cd.make_design(kind, 2)

    def test_exact_kinds(self, path_summary):
        assert cd.make_design("ber", 2).kind == "ber"
        assert cd.make_design("cr", 2).kind == "cr"
        assert cd.make_design("ibr", 2, summary=path_summary).kind == "ibr"
        assert cd.make_design("ocd", 2, root=np.eye(2)).kind == "ocd"

    def test_unknown_kind_lists_valid_kinds(self):
        with pytest.raises(ValueError, match="ber, cr, ibr, ocd"):
            cd.make_design("stratified", 4)

    def test_ocd_requires_root(self):
        with pytest.raises(ValueError, match="root"):
            cd.make_design("ocd", 4)

    def test_root_shape_checked(self):
        with pytest.raises(ValueError, match="expected"):
            cd.make_design("ocd", 4, root=np.eye(3))

    def test_rank_p_root_is_accepted_and_p_above_k_refused(self):
        root = np.zeros((4, 2))
        root[:, 0] = 1.0
        assert cd.make_design("ocd", 4, root=root).root.shape == (4, 1)
        wide = np.zeros((4, 5))
        wide[:, 0] = 1.0
        with pytest.raises(ValueError, match=r"^root matrix is \(4, 5\), expected \(4, p\) "
                                             r"with p <= 4$"):
            cd.make_design("ocd", 4, root=wide)


@pytest.mark.parametrize("factory", [
    lambda: cd.BernoulliDesign(3),
    lambda: cd.CompleteDesign(3),
    lambda: cd.BlockDesign(3, [(0, 1), (2,)]),
    lambda: cd.SignGaussianDesign(paired_root(3)),
])
def test_exact_distribution_is_built_once_and_read_only(factory):
    design = factory()
    patterns, probs = design.exact_distribution()
    again = design.exact_distribution()
    assert again[0] is patterns and again[1] is probs
    for array in (patterns, probs):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_orthant_quadrature_runs_once_per_component(monkeypatch, sbm5):
    import covdesign.designs as designs_module

    calls = []
    real = designs_module.sign_pattern_probabilities

    def counting(gram):
        calls.append(gram.shape[0])
        return real(gram)

    monkeypatch.setattr(designs_module, "sign_pattern_probabilities", counting)
    graph, clustering = sbm5
    summary = cd.build_cluster_summary(graph, clustering)
    root = np.zeros((5, 5))
    root[:3, :3] = random_unit_rows(3, seed=20)
    root[3:, 3:] = random_unit_rows(2, seed=21)
    design = cd.SignGaussianDesign(root)
    model = cd.AnalysisModelParams.uniform(graph.n)
    cd.run_exact(graph, clustering, (("ocd", design),), model, gammas=(0.5, 2.0))
    for gamma in (0.5, 2.0):
        cd.variance_exact(summary, cd.h_vector(model, graph, clustering), gamma, design)
    assert sorted(calls) == [2, 3]


def test_enumerate_patterns_bit_order():
    patterns = enumerate_patterns(3)
    assert patterns.shape == (8, 3)
    assert np.array_equal(patterns[5], [1, 0, 1])  # 5 = 0b101


@st.composite
def enumerable_designs(draw):
    """A ber, cr or ibr design on K <= 10 clusters (ibr blocks of 2 or 4,
    odd remainders included), or an ocd design whose unit-row root is block
    diagonal with blocks of at most five clusters."""
    kind = draw(st.sampled_from(["ber", "cr", "ibr", "ocd"]))
    k = draw(st.integers(1, 10))
    if kind == "ibr":
        sizes = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
        clustering = cd.Clustering(np.repeat(np.arange(k), sizes), k)
        summary = cd.build_cluster_summary(cd.Graph(sum(sizes), []), clustering)
        return cd.make_design("ibr", k, summary=summary,
                              block_size=draw(st.sampled_from([2, 4])))
    if kind != "ocd":
        return cd.make_design(kind, k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    root, start = np.zeros((k, k)), 0
    while start < k:
        stop = min(k, start + draw(st.integers(1, 5)))
        root[start:stop, start:stop] = rng.standard_normal((stop - start,) * 2)
        start = stop
    return cd.SignGaussianDesign(unit_rows(root))


@settings(max_examples=100, deadline=None)
@given(enumerable_designs())
def test_exact_distribution_is_a_distribution_with_the_design_covariance(design):
    mean, cov, probs = exact_moments(design)
    assert probs.min() >= -1e-12
    assert abs(probs.sum() - 1.0) <= 1e-10
    assert np.allclose(mean, 0.5, rtol=0, atol=1e-10)
    assert np.allclose(cov, design.covariance(), rtol=0, atol=1e-10)

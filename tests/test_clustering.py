import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import covdesign as cd
import louvain_reference


def modularity(graph, parts, resolution=1.0):
    """Plain-definition modularity used as a brute-force oracle."""
    two_m = 2.0 * graph.num_edges
    adj = louvain_reference.adjacency(graph).toarray()
    q = 0.0
    for part in parts:
        for u in part:
            for v in part:
                q += adj[u, v] - resolution * graph.degrees[u] * graph.degrees[v] / two_m
    return q / two_m


def all_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for i, part in enumerate(smaller):
            yield smaller[:i] + [part + [first]] + smaller[i + 1 :]
        yield [[first]] + smaller


def adjusted_rand_index(a, b):
    a, b = np.asarray(a), np.asarray(b)
    table = np.zeros((a.max() + 1, b.max() + 1), dtype=np.int64)
    np.add.at(table, (a, b), 1)
    comb2 = lambda x: x * (x - 1) // 2
    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(a.size)
    expected = sum_rows * sum_cols / total
    max_index = (sum_rows + sum_cols) / 2
    return (sum_cells - expected) / (max_index - expected)


class TestLouvain:
    def test_two_disjoint_triangles(self, two_triangles):
        graph, planted = two_triangles
        clustering = cd.louvain(graph, resolution=1.0, seed=0)
        assert clustering.k == 2
        assert adjusted_rand_index(clustering.assignment, planted.assignment) == 1.0

    def test_complete_graph_collapses_to_one_cluster(self):
        graph = cd.Graph(4, list(itertools.combinations(range(4), 2)))
        clustering = cd.louvain(graph, resolution=1.0, seed=0)
        assert clustering.k == 1
        # brute-force oracle: the single cluster maximizes modularity over
        # all 15 partitions of four nodes
        best = max(all_partitions(list(range(4))), key=lambda p: modularity(graph, p))
        assert len(best) == 1

    def test_recovers_planted_sbm_partition(self):
        graph, planted = cd.generate_sbm([20] * 10, 0.3, 0.02, seed=7)
        clustering = cd.louvain(graph, resolution=1.0, seed=7)
        assert adjusted_rand_index(clustering.assignment, planted.assignment) >= 0.9

    def test_fixed_seed_is_bit_reproducible(self):
        graph, _ = cd.generate_sbm([10, 10, 10], 0.4, 0.05, seed=5)
        a = cd.louvain(graph, resolution=1.0, seed=3)
        b = cd.louvain(graph, resolution=1.0, seed=3)
        assert a == b

    def test_cluster_count_nondecreasing_in_resolution(self):
        graph, _ = cd.generate_sbm([20] * 10, 0.3, 0.02, seed=11)
        ks = [cd.louvain(graph, resolution=r, seed=1).k for r in (2.0, 5.0, 10.0)]
        assert ks[0] <= ks[1] <= ks[2]

    def test_edgeless_graph_returns_singletons(self, tmp_path):
        graph = cd.Graph(5, np.empty((0, 2), dtype=np.int64))
        clustering = cd.louvain(graph, resolution=1.0, seed=0)
        assert clustering.k == 5

    def test_bad_resolution(self, two_triangles):
        with pytest.raises(ValueError):
            cd.louvain(two_triangles[0], resolution=0.0, seed=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_resolution_is_refused(self, two_triangles, bad):
        with pytest.raises(ValueError, match="resolution must be positive and finite"):
            cd.louvain(two_triangles[0], resolution=bad, seed=0)

    def test_negative_seed_is_refused_by_name(self, two_triangles):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            cd.louvain(two_triangles[0], seed=-1)


def dense_modularity(graph, assignment, resolution=1.0):
    """Modularity from the dense adjacency: (1/2m) sum over same-cluster pairs
    of A_ij - resolution * k_i k_j / 2m."""
    two_m = 2.0 * graph.num_edges
    k = graph.degrees.astype(float)
    same = assignment[:, None] == assignment[None, :]
    adj = louvain_reference.adjacency(graph).toarray()
    return (adj - resolution * np.outer(k, k) / two_m)[same].sum() / two_m


# Mean modularity of networkx 3.6.1's louvain_communities (the implementation
# covdesign used before its own) over seeds 0..63 at resolution 1, recorded
# before networkx was dropped.  The fixtures are the generate_sbm arguments.
NETWORKX_MODULARITY = {
    "acceptance": (([20] * 10, 0.3, 0.02, 11), 0.5325),
    "planted": (([20] * 10, 0.3, 0.02, 7), 0.5061),
    "sbm4": (([5] * 4, 0.6, 0.15, 2), 0.3705),
    "sbm5": (([4] * 5, 0.6, 0.15, 3), 0.3018),
    "sbm12": (([4] * 12, 0.5, 0.08, 4), 0.3924),
}


@pytest.mark.parametrize("name", sorted(NETWORKX_MODULARITY))
def test_mean_modularity_within_one_percent_of_networkx(name):
    (blocks, p_in, p_out, seed), reference = NETWORKX_MODULARITY[name]
    graph, _ = cd.generate_sbm(blocks, p_in, p_out, seed=seed)
    mean = np.mean([dense_modularity(graph, cd.louvain(graph, 1.0, seed=s).assignment)
                    for s in range(64)])
    assert abs(mean - reference) <= 0.01 * reference, (mean, reference)


@pytest.mark.parametrize("name", sorted(NETWORKX_MODULARITY))
@pytest.mark.parametrize("resolution", [1.0, 2.0])
def test_louvain_equals_sparse_matrix_reference_on_fixtures(name, resolution):
    blocks, p_in, p_out, seed = NETWORKX_MODULARITY[name][0]
    graph, _ = cd.generate_sbm(blocks, p_in, p_out, seed=seed)
    for s in range(8):
        assert (cd.louvain(graph, resolution, seed=s)
                == louvain_reference.louvain(graph, resolution, seed=s)), s


@st.composite
def louvain_cases(draw):
    """A graph on up to 30 nodes, isolated ones allowed, with a resolution
    and a seed."""
    n = draw(st.integers(2, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=120, unique=True))
    resolution = draw(st.sampled_from([0.5, 1.0, 2.0, 3.7]))
    return cd.Graph(n, edges), resolution, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(louvain_cases())
def test_louvain_equals_sparse_matrix_reference(case):
    graph, resolution, seed = case
    assert (cd.louvain(graph, resolution, seed=seed)
            == louvain_reference.louvain(graph, resolution, seed=seed))


@settings(max_examples=100, deadline=None)
@given(louvain_cases())
def test_csr_arrays_are_the_adjacency(case):
    graph = case[0]
    indptr, indices = graph.csr
    reference = louvain_reference.adjacency(graph)
    assert np.array_equal(indptr, reference.indptr)
    assert np.array_equal(indices, reference.indices)


def test_dense_modularity_matches_brute_force_oracle(two_triangles):
    graph, planted = two_triangles
    parts = [list(np.flatnonzero(planted.assignment == c)) for c in range(planted.k)]
    assert np.isclose(dense_modularity(graph, planted.assignment), modularity(graph, parts))


class TestClusteringType:
    def test_partition_sizes_sum_to_n(self):
        clustering = cd.Clustering([0, 1, 1, 2, 0], 3)
        assert clustering.sizes.sum() == clustering.n
        assert np.array_equal(np.flatnonzero(clustering.assignment == 1), [1, 2])

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError, match="empty"):
            cd.Clustering([0, 0, 2, 2], 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cd.Clustering([0, 3], 2)

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError, match="^cluster ids must be nonnegative, got -1$"):
            cd.Clustering([-1, 0, 1], 2)

    @pytest.mark.parametrize("ids", [[0.7, 1.2], [0.0, 1.0], [True, False]])
    def test_rejects_non_integer_ids(self, ids):
        with pytest.raises(ValueError, match="^cluster ids must be integers, got dtype"):
            cd.Clustering(ids, 2)


class TestClusteringIO:
    def test_round_trip(self, tmp_path):
        clustering = cd.Clustering([0, 0, 1, 1, 2], 3)
        path = tmp_path / "c.txt"
        cd.write_clustering(clustering, path)
        assert cd.read_clustering(path) == clustering

    def test_basic_parse(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 0\n1 0\n2 1\n3 1\n")
        clustering = cd.read_clustering(path)
        assert np.array_equal(clustering.assignment, [0, 0, 1, 1])
        assert clustering.k == 2

    def test_missing_unit_named_in_error(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 0\n1 0\n3 1\n")
        with pytest.raises(ValueError, match="unit 2"):
            cd.read_clustering(path, n=4)

    def test_missing_unit_is_found_without_listing_every_unit(self, tmp_path):
        # without n the file's largest id sets the size: the refusal stops at
        # unit 1 instead of building a list of the 3,999,999 missing units
        path = tmp_path / "c.txt"
        path.write_text("0 0\n4000000 1\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r": no cluster assignment for unit 1$"):
                cd.read_clustering(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20

    def test_duplicate_unit_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 0\n0 1\n")
        with pytest.raises(ValueError, match="duplicate"):
            cd.read_clustering(path)

    def test_duplicate_unit_names_its_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\n0 0\n1 0\n0 1\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: duplicate assignment for unit 0$"):
            cd.read_clustering(path)

    # the edge-list parser's integers only: no digit separators, plus signs
    # or non-ASCII digits, which Python's int() would take
    @pytest.mark.parametrize("line", ["1 a", "x 0", "1.5 0", "1 2.0", "1_0 0", "+1 0",
                                      "\u0661 0", "1 +0", "1 0_0"])
    def test_non_integer_token_names_its_line(self, tmp_path, line):
        path = tmp_path / "c.txt"
        path.write_text(f"0 0\n\n{line}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: non-integer id in '{re.escape(line)}'$"):
            cd.read_clustering(path)

    def test_negative_unit_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 0\n1 0\n-1 1\n")
        with pytest.raises(ValueError, match=r":3: negative unit id"):
            cd.read_clustering(path)

    def test_non_contiguous_ids_remapped_with_warning(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 3\n1 3\n2 7\n")
        with pytest.warns(UserWarning, match="remapped"):
            clustering = cd.read_clustering(path)
        assert np.array_equal(clustering.assignment, [0, 0, 1])
        assert clustering.k == 2

    def test_negative_cluster_ids_remapped_with_warning(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 -2\n1 5\n2 -2\n")
        with pytest.warns(UserWarning, match="remapped"):
            clustering = cd.read_clustering(path)
        assert np.array_equal(clustering.assignment, [0, 1, 0])


class TestClusterSummary:
    def test_path_graph_hand_count(self, path_summary):
        assert np.array_equal(path_summary.contact, [[2, 1], [1, 2]])
        assert np.array_equal(path_summary.cluster_degrees, [3, 3])
        assert path_summary.total == 6

    def test_two_triangles_no_cross_edges(self, two_triangles):
        summary = cd.build_cluster_summary(*two_triangles)
        assert np.array_equal(summary.contact, np.diag([6.0, 6.0]))
        assert np.array_equal(summary.cluster_degrees, [6, 6])

    def test_single_cluster_totals(self, path_graph):
        summary = cd.build_cluster_summary(path_graph, cd.Clustering([0] * 4, 1))
        assert summary.contact.shape == (1, 1)
        assert summary.contact[0, 0] == 2 * path_graph.num_edges
        assert summary.cluster_degrees[0] == 2 * path_graph.num_edges

    def test_invariants_on_random_instances(self):
        for seed in range(3):
            graph, _ = cd.generate_sbm([8, 8, 8], 0.4, 0.1, seed=seed)
            clustering = cd.louvain(graph, resolution=1.0, seed=seed)
            summary = cd.build_cluster_summary(graph, clustering)
            assert np.array_equal(summary.contact, summary.contact.T)
            assert np.array_equal(summary.contact.sum(axis=1), summary.cluster_degrees)
            assert summary.total == 2 * graph.num_edges
            assert summary.sizes.sum() == graph.n

    def test_coverage_mismatch(self, path_graph):
        with pytest.raises(ValueError, match="covers"):
            cd.build_cluster_summary(path_graph, cd.Clustering([0, 0, 1], 2))


@st.composite
def graphs_and_partitions(draw):
    """A graph whose edges join units 0..m-1, so units m.. are isolated,
    and a partition of all its units."""
    m = draw(st.integers(2, 30))
    n = m + draw(st.integers(0, 3))
    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    k = draw(st.integers(1, n))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    labels = np.unique(labels, return_inverse=True)[1]  # no empty cluster
    return cd.Graph(n, edges), cd.Clustering(labels, labels.max() + 1)


@settings(max_examples=200, deadline=None)
@given(graphs_and_partitions())
def test_summary_invariants_on_random_partitions(case):
    graph, clustering = case
    summary = cd.build_cluster_summary(graph, clustering)
    contact = summary.contact
    assert np.array_equal(contact, contact.T)
    cluster_degrees = np.bincount(clustering.assignment, weights=graph.degrees,
                                  minlength=clustering.k)
    assert np.array_equal(contact.sum(axis=1), cluster_degrees)
    assert np.array_equal(summary.cluster_degrees, cluster_degrees)
    assert contact.sum() == summary.total == 2 * graph.num_edges
    reference = np.zeros(contact.shape)
    for u, v in graph.edges:
        reference[clustering.assignment[u], clustering.assignment[v]] += 1.0
        reference[clustering.assignment[v], clustering.assignment[u]] += 1.0
    assert np.array_equal(contact, reference)


@settings(max_examples=200, deadline=None)
@given(graphs_and_partitions(), st.integers(0, 2**32 - 1))
def test_contact_matrix_is_the_per_edge_sum(case, seed):
    """The law built from the neighbour counts N: its contact matrix counts
    both orientations i -> j of every edge in cell (a, b) of i in a and j in
    b, its degrees are the graph's, and `weighted(w)` adds w_i there."""
    graph, clustering = case
    law = cd.cluster_law(graph, clustering)
    weights = np.random.default_rng(seed).uniform(-2.0, 3.0, graph.n)
    contact = np.zeros((clustering.k, clustering.k))
    reference = np.zeros((clustering.k, clustering.k))
    for u, v in graph.edges:
        a, b = clustering.assignment[u], clustering.assignment[v]
        contact[a, b] += 1.0
        contact[b, a] += 1.0
        reference[a, b] += weights[u]
        reference[b, a] += weights[v]
    assert np.array_equal(law.contact, contact)
    assert np.array_equal(law.degrees, graph.degrees)
    # the loop adds one w_i per edge, `weighted` one w_i N_ib per nonzero count
    np.testing.assert_allclose(law.weighted(weights), reference, rtol=1e-12, atol=1e-12)
    assert np.array_equal(law.weighted(np.ones(graph.n)), law.contact)


def test_contact_matrix_refuses_weights_of_another_length(two_triangles):
    law = cd.cluster_law(*two_triangles)
    with pytest.raises(ValueError, match="weights have shape \\(5,\\), graph has 6 units"):
        law.weighted(np.ones(5))

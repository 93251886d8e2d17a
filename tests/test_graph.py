import tracemalloc

import numpy as np
import pytest

import covdesign as cd
import covdesign.graph as graph_module
from covdesign.graph import GraphFormatError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadEdgeList:
    def test_path_graph(self, tmp_path):
        g = cd.load_edge_list(write(tmp_path, "g.el", "0 1\n1 2\n2 3\n"))
        assert g.n == 4
        assert g.num_edges == 3
        assert np.array_equal(g.degrees, [1, 2, 2, 1])

    def test_self_loop_dropped_with_warning(self, tmp_path):
        path = write(tmp_path, "g.el", "0 1\n2 2\n1 2\n")
        with pytest.warns(UserWarning, match=r"1 self-loop"):
            g = cd.load_edge_list(path)
        assert g.n == 3
        assert g.num_edges == 2

    def test_duplicate_and_reversed_duplicate_dropped(self, tmp_path):
        path = write(tmp_path, "g.el", "0 1\n1 0\n0 1\n1 2\n")
        with pytest.warns(UserWarning, match=r"2 duplicate"):
            g = cd.load_edge_list(path)
        assert g.num_edges == 2

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        g = cd.load_edge_list(write(tmp_path, "g.el", "# header\n\n0 1\n"))
        assert g.num_edges == 1

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write(tmp_path, "g.el", "0 1\n1 2 3\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            cd.load_edge_list(path)

    def test_non_integer_reports_line_number(self, tmp_path):
        with pytest.raises(GraphFormatError, match="line 1"):
            cd.load_edge_list(write(tmp_path, "g.el", "a b\n"))

    def test_empty_edge_set_is_an_error(self, tmp_path):
        with pytest.raises(GraphFormatError, match="empty edge set"):
            cd.load_edge_list(write(tmp_path, "g.el", "# nothing\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cd.load_edge_list(tmp_path / "nope.el")

    def test_first_appearance_remap_keeps_labels(self, tmp_path):
        g = cd.load_edge_list(write(tmp_path, "g.el", "5 9\n9 7\n"))
        assert g.n == 3
        assert np.array_equal(g.labels, [5, 9, 7])
        assert np.array_equal(g.edges, [[0, 1], [1, 2]])

    def test_contiguous_ids_have_no_label_table(self, tmp_path):
        g = cd.load_edge_list(write(tmp_path, "g.el", "0 1\n1 2\n"))
        assert g.labels is None


class TestMatrixMarket:
    def test_pattern_symmetric(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n% comment\n4 4 3\n1 2\n2 3\n3 4\n"
        g = cd.load_edge_list(write(tmp_path, "g.mtx", text))
        assert g.n == 4
        assert np.array_equal(g.degrees, [1, 2, 2, 1])

    def test_auto_detects_header(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n2 3\n"
        g = cd.load_edge_list(write(tmp_path, "g.mtx", text))
        assert g.n == 3

    def test_general_kind_dedupes_both_orientations(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate pattern general\n3 3 3\n1 2\n2 1\n2 3\n"
        with pytest.warns(UserWarning, match="duplicate"):
            g = cd.load_edge_list(write(tmp_path, "g.mtx", text))
        assert g.num_edges == 2

    def test_isolated_nodes_survive_via_declared_dimension(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n5 5 1\n1 2\n"
        g = cd.load_edge_list(write(tmp_path, "g.mtx", text))
        assert g.n == 5
        assert g.degrees[4] == 0

    def test_rectangular_rejected(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate pattern general\n3 4 1\n1 2\n"
        with pytest.raises(GraphFormatError, match="square"):
            cd.load_edge_list(write(tmp_path, "g.mtx", text))

    def test_out_of_range_entry(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 3\n"
        with pytest.raises(GraphFormatError, match="outside"):
            cd.load_edge_list(write(tmp_path, "g.mtx", text))

    def test_size_whose_keys_overflow_int64_is_refused_unallocated(self, tmp_path):
        text = ("%%MatrixMarket matrix coordinate pattern symmetric\n% c\n"
                "1000000000000 1000000000000 1\n1 2\n")
        path = write(tmp_path, "g.mtx", text)
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError,
                               match=r"line 3: declared size 1000000000000 x 1000000000000 "
                                     r"is too large: edge keys"):
                cd.load_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_size_beyond_physical_memory_is_refused(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph_module, "physical_memory", lambda: 2**30)
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n1000000000 1000000000 1\n1 2\n"
        with pytest.raises(GraphFormatError) as info:
            cd.load_edge_list(write(tmp_path, "g.mtx", text))
        assert str(info.value) == (
            "line 2: declared size 1000000000 x 1000000000 needs 7.5 GiB for its degree "
            "vector alone, more than this machine's 1.0 GiB of memory")

    @pytest.mark.parametrize("size_line", ["3 x 2", "3 3 1.5", "3.0 3 2"])
    def test_non_integer_size_line_names_line(self, tmp_path, size_line):
        text = f"%%MatrixMarket matrix coordinate pattern symmetric\n% c\n{size_line}\n1 2\n"
        with pytest.raises(GraphFormatError, match="line 3: non-integer size"):
            cd.load_edge_list(write(tmp_path, "g.mtx", text))


def test_save_then_load_is_identity(tmp_path):
    g, _ = cd.generate_sbm([6, 6], 0.5, 0.2, seed=9)
    path = tmp_path / "round.el"
    cd.save_edge_list(g, path)
    reloaded = cd.load_edge_list(path)
    assert reloaded == g
    assert np.array_equal(reloaded.degrees, g.degrees)


def test_degree_conservation():
    for seed in range(4):
        g, _ = cd.generate_sbm([7, 5, 9], 0.4, 0.1, seed=seed)
        assert g.degrees.sum() == 2 * g.num_edges


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loops"):
            cd.Graph(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            cd.Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            cd.Graph(2, [(0, 5)])


class TestExpandTreatment:
    """A cluster draw t reaches the units as t[clustering.assignment]."""

    def test_two_blocks(self):
        clustering = cd.Clustering([0, 0, 1, 1], 2)
        z = np.array([1.0, 0.0])[clustering.assignment]
        assert np.array_equal(z, [1, 1, 0, 0])

    def test_interleaved(self):
        clustering = cd.Clustering([0, 1, 0, 1], 2)
        z = np.array([0.0, 1.0])[clustering.assignment]
        assert np.array_equal(z, [0, 1, 0, 1])

    def test_global_extremes(self):
        clustering = cd.Clustering([0, 1, 2, 0], 3)
        assert np.array_equal(np.ones(3)[clustering.assignment], np.ones(4))
        assert np.array_equal(np.zeros(3)[clustering.assignment], np.zeros(4))


class TestGenerateSbm:
    def test_deterministic_limits_two_triangles(self):
        g, clustering = cd.generate_sbm([3, 3], 1.0, 0.0, seed=0)
        summary = cd.build_cluster_summary(g, clustering)
        assert np.array_equal(summary.contact, np.diag([6.0, 6.0]))

    def test_complete_graph(self):
        g, _ = cd.generate_sbm([2, 2], 1.0, 1.0, seed=0)
        assert np.array_equal(g.degrees, [3, 3, 3, 3])

    def test_edge_counts_within_three_binomial_sigma(self):
        # 10 blocks of 20: 1900 within pairs at 0.3, 18000 cross pairs at 0.02
        g, clustering = cd.generate_sbm([20] * 10, 0.3, 0.02, seed=7)
        summary = cd.build_cluster_summary(g, clustering)
        within = np.trace(summary.contact) / 2
        cross = (summary.total - np.trace(summary.contact)) / 2
        mean_w, sigma_w = 1900 * 0.3, np.sqrt(1900 * 0.3 * 0.7)
        mean_c, sigma_c = 18000 * 0.02, np.sqrt(18000 * 0.02 * 0.98)
        assert abs(within - mean_w) <= 3 * sigma_w
        assert abs(cross - mean_c) <= 3 * sigma_c

    def test_seed_determinism(self):
        a, _ = cd.generate_sbm([5, 5], 0.5, 0.1, seed=42)
        b, _ = cd.generate_sbm([5, 5], 0.5, 0.1, seed=42)
        c, _ = cd.generate_sbm([5, 5], 0.5, 0.1, seed=43)
        assert a == b
        assert a != c

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            cd.generate_sbm([], 0.5, 0.1, seed=0)
        with pytest.raises(ValueError):
            cd.generate_sbm([3], 0.1, 0.5, seed=0)

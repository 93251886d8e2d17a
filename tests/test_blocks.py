"""Block-wise passes against one-block evaluation: the edge-list scan over
`graph.SCAN_BLOCK`-byte blocks and the enumeration oracles over
`designs.PATTERN_BLOCK`-row blocks, and the memory the blocks save."""

import tracemalloc
import warnings

import numpy as np
import pytest

import covdesign as cd
import covdesign.designs as designs_module
import covdesign.graph as graph_module
from covdesign.graph import GraphFormatError

WHOLE = 1 << 40  # a block larger than any input: the one-block evaluation


def parse(path, block, monkeypatch):
    """(n, edges, labels, warning) or the error message, scanning `block`-byte blocks."""
    monkeypatch.setattr(graph_module, "SCAN_BLOCK", block)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            graph = cd.load_edge_list(path)
        except GraphFormatError as exc:
            return str(exc)
    labels = None if graph.labels is None else graph.labels.tolist()
    return (graph.n, graph.edges.tolist(), labels,
            [str(w.message) for w in caught])


def spans(data: bytes, block: int, monkeypatch):
    monkeypatch.setattr(graph_module, "SCAN_BLOCK", block)
    return list(graph_module._blocks(data, 0))


def assert_blockwise_matches_whole(path, monkeypatch, blocks):
    whole = parse(path, WHOLE, monkeypatch)
    for block in blocks:
        assert parse(path, block, monkeypatch) == whole, block
    return whole


def test_blocks_tile_the_input_and_end_at_line_breaks(monkeypatch):
    data = b"0 1\n1 2\r\n2 3\r3 4\n\n4 5"
    for block in range(1, len(data) + 2):
        cuts = spans(data, block, monkeypatch)
        assert [lo for lo, _ in cuts] == [0] + [hi for _, hi in cuts[:-1]]
        assert cuts[-1][1] == len(data)
        assert all(data[hi - 1] in b"\r\n" for _, hi in cuts[:-1])


def test_crlf_split_across_two_blocks(tmp_path, monkeypatch):
    data = b"0 1\r\n1 2\r\n2 3\r\n"
    # a 4-byte block ends at the first CR, so the next block opens with its LF
    cuts = spans(data, 4, monkeypatch)
    assert cuts[0] == (0, 4) and data[4:5] == b"\n"
    path = tmp_path / "g.el"
    path.write_bytes(data)
    assert parse(path, 4, monkeypatch) == (4, [[0, 1], [1, 2], [2, 3]], None, [])
    bad = tmp_path / "bad.el"
    bad.write_bytes(data + b"3\r\n")
    assert parse(bad, 4, monkeypatch) == "line 4: expected 'u v', got '3'"


@pytest.mark.parametrize("name, text", [
    ("g.el", "0 1\n# 5 6 7 comment\n1 2\n  #x\n2 3\n"),
    ("g.mtx", "%%MatrixMarket matrix coordinate pattern general\n% head\n4 4 3\n"
              "1 2\n% 7 body comment\n2 3\n  %\n3 4\n"),
])
def test_comment_line_at_every_block_boundary(tmp_path, monkeypatch, name, text):
    path = tmp_path / name
    path.write_text(text)
    whole = assert_blockwise_matches_whole(path, monkeypatch, range(1, len(text) + 1))
    assert whole[1] == [[0, 1], [1, 2], [2, 3]]


def test_line_longer_than_a_block(tmp_path, monkeypatch):
    data = b"0 1\n1" + b" " * 1000 + b"2\n2 3\n"
    cuts = spans(data, 16, monkeypatch)
    assert max(hi - lo for lo, hi in cuts) > 1000
    path = tmp_path / "g.el"
    path.write_bytes(data)
    assert parse(path, 16, monkeypatch) == (4, [[0, 1], [1, 2], [2, 3]], None, [])


@pytest.mark.parametrize("fmt", ["plain", "mm"])
def test_malformed_line_in_a_later_block_keeps_its_line_number(tmp_path, monkeypatch, fmt):
    body = "".join(f"{i + 1} {i + 2}\n" for i in range(1000))
    if fmt == "plain":
        text, bad, message = body + "7 8 9\n", 1001, "expected 'u v', got '7 8 9'"
    else:
        text = "%%MatrixMarket matrix coordinate pattern general\n2000 2000 1001\n" + body + "1 x\n"
        bad, message = 1003, "non-integer entry in '1 x'"
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert len(spans(text.encode(), 64, monkeypatch)) > 100
    assert parse(path, 64, monkeypatch) == f"line {bad}: {message}"
    assert parse(path, WHOLE, monkeypatch) == f"line {bad}: {message}"


def generated_file(tmp_path, fmt, seed):
    """A random graph file with self-loops, duplicates, comments, blank lines
    and mixed line ends."""
    rng = np.random.default_rng(seed)
    n = 60
    pairs = rng.integers(0, n, (400, 2))
    pairs = np.concatenate([pairs, pairs[:40, ::-1]])
    if fmt == "plain":
        ids = rng.choice(10**9, n, replace=False) if seed % 2 else np.arange(1, n + 1)
        lines = [f"{ids[a]} {ids[b]}" for a, b in pairs]
        comment, head = "#", []
    else:
        lines = [f"{a + 1}\t{b + 1} 0.5" for a, b in pairs]
        comment = "%"
        head = ["%%MatrixMarket matrix coordinate real general", f"{n} {n} {len(lines)}"]
    for pos in rng.choice(len(lines), 30, replace=False):
        lines.insert(pos, rng.choice([f"{comment} 1 2 3", "", "   "]))
    ends = rng.choice(["\n", "\r\n", "\r"], len(head) + len(lines))
    path = tmp_path / f"{fmt}{seed}.txt"
    path.write_text("".join(line + end for line, end in zip(head + lines, ends)), newline="")
    return path


@pytest.mark.parametrize("fmt", ["plain", "mm"])
@pytest.mark.parametrize("seed", [1, 2])
def test_generated_files_match_the_one_block_scan(tmp_path, monkeypatch, fmt, seed):
    path = generated_file(tmp_path, fmt, seed)
    n, edges, labels, caught = assert_blockwise_matches_whole(
        path, monkeypatch, [1, 2, 3, 7, 64, 1000])
    assert len(edges) > 300 and len(caught) == 1 and "self-loop" in caught[0]
    assert (labels is None) == (fmt == "mm")


@pytest.fixture(scope="module")
def k16():
    graph, clustering = cd.generate_sbm(np.linspace(13, 17, 16).round().astype(int),
                                        0.5, 0.02, seed=8)
    summary = cd.build_cluster_summary(graph, clustering)
    root = np.zeros((16, 16))
    rng = np.random.default_rng(9)
    for lo in range(0, 16, 4):
        block = rng.standard_normal((4, 4))
        root[lo:lo + 4, lo:lo + 4] = block / np.linalg.norm(block, axis=1, keepdims=True)
    designs = (("ber", cd.BernoulliDesign(16)), ("cr", cd.CompleteDesign(16)),
               ("ibr", cd.make_design("ibr", 16, summary=summary, block_size=2)),
               ("ocd", cd.SignGaussianDesign(root)))
    for _, design in designs:
        design.exact_distribution()
    model = cd.AnalysisModelParams.uniform(graph.n, alpha=1.0, beta=1.0, gamma=0.5)
    return graph, clustering, summary, designs, model


def exact_cells(k16, block, monkeypatch):
    graph, clustering, _, designs, model = k16
    monkeypatch.setattr(designs_module, "PATTERN_BLOCK", block)
    report = cd.run_exact(graph, clustering, designs, model,
                          estimators=("ht", "ht_adjusted", "dim"), gammas=(0.5, 2.0))
    return np.array([[c.bias, c.sd, c.mse, c.mean_estimate, c.degenerate_fraction]
                     for c in report.cells])


def variance_terms(k16, block, monkeypatch):
    graph, clustering, summary, designs, model = k16
    monkeypatch.setattr(designs_module, "PATTERN_BLOCK", block)
    h = cd.h_vector(model, graph, clustering)
    out = []
    for _, design in designs:
        v = cd.variance_exact(summary, h, 2.0, design)
        out.append([v.variance, v.linear_term, v.cross_term, v.quad_term])
    return np.array(out)


@pytest.mark.parametrize("block", [333, 4096])
def test_blocked_enumeration_matches_whole_array(k16, monkeypatch, block):
    whole = exact_cells(k16, WHOLE, monkeypatch)
    assert whole[:, :4].min() != whole[:, :4].max()
    np.testing.assert_allclose(exact_cells(k16, block, monkeypatch), whole,
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(variance_terms(k16, block, monkeypatch),
                               variance_terms(k16, WHOLE, monkeypatch),
                               rtol=1e-12, atol=0.0)


def traced_peak(fn):
    """Peak traced allocation of a call, after one untraced warm-up call
    (a first call may import modules, which tracemalloc would count)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_peak_memory_stays_below_ten_times_the_file(tmp_path):
    rng = np.random.default_rng(4)
    pairs = rng.integers(0, 50_000, (90_000, 2))
    path = tmp_path / "big.el"
    path.write_text("".join(f"{u} {v}\n" for u, v in pairs.tolist()))
    size = path.stat().st_size
    assert 0.9e6 < size < 1.2e6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        peak = traced_peak(lambda: cd.load_edge_list(path))
    # the whole-file scan peaked at 18.5x the file size
    assert peak < 10 * size


def test_run_exact_peak_memory_stays_below_one_pattern_matrix(k16):
    graph, clustering, _, designs, model = k16
    patterns, _ = dict(designs)["ber"].exact_distribution()
    peak = traced_peak(lambda: cd.run_exact(
        graph, clustering, designs, model, estimators=("ht", "ht_adjusted", "dim"),
        gammas=(0.5, 2.0)))
    # whole-array evaluation held several 2^16 x 16 float64 temporaries at
    # once, about 3.7 pattern matrices (31 MB)
    assert peak < patterns.nbytes

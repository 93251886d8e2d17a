"""The cluster law: written by `cluster`, read by the commands after it only
when it matches their graph and partition, and otherwise rebuilt in memory."""

import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import covdesign as cd
from covdesign import cli
from covdesign.cli import main
from covdesign.clustering import LAW_FORMAT, read_law, write_law
from covdesign.manifest import file_digest

MODELS = {
    "linear": {"kind": "linear", "alpha": 1.0, "beta": 1.0, "c": 0.5, "sigma": 0.1},
    "multiplicative": {"kind": "multiplicative", "alpha": 1.0, "beta": 1.0, "sigma": 0.1},
    "analysis": {"kind": "analysis", "alpha": 1.0, "beta": 1.0},
}


def run(argv):
    return main([str(a) for a in argv])


def law_fields(law):
    """Every array of a `ClusterLaw`, by name."""
    indptr, indices, counts = law.neighbours
    return {"assignment": law.clustering.assignment, "contact": law.contact,
            "cluster_degrees": law.cluster_degrees, "sizes": law.sizes,
            "degrees": law.degrees, "indptr": indptr, "indices": indices, "counts": counts}


@pytest.fixture
def clustered(tmp_path):
    """A graph with an isolated unit, clustered by the `cluster` command."""
    graph, _ = cd.generate_sbm([8] * 5, 0.6, 0.08, seed=3)
    edges = graph.edges[(graph.edges != 0).all(axis=1)]  # unit 0 keeps no neighbour
    header = f"%%MatrixMarket matrix coordinate pattern symmetric\n{graph.n} {graph.n} {len(edges)}\n"
    graph_path = tmp_path / "g.mtx"
    graph_path.write_text(header + "".join(f"{v + 1} {u + 1}\n" for u, v in edges))
    clusters = tmp_path / "c.txt"
    assert run(["cluster", "--graph", graph_path, "--resolution", "2", "--seed", "1",
                "--out", clusters]) == 0
    return tmp_path, graph_path, clusters


def run_all(tmp, graph_path, clusters):
    """optimize, then simulate with every model and analyze, all into one
    directory that is removed after; returns the output files' bytes by
    name, the manifests' law records and the warnings."""
    out = tmp / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["optimize", "--graph", graph_path, "--clusters", clusters, "--iters", "60",
                    "--out", out / "root.csv"]) == 0
        for kind, model in MODELS.items():
            config = tmp / f"{kind}.json"
            config.write_text(json.dumps({
                "graph": str(graph_path), "clustering": str(clusters), "model": model,
                "designs": [{"kind": "ber"}, {"kind": "ocd", "root": str(out / "root.csv")}],
                "gammas": [0.5, 2.0], "replications": 70, "seed": 3,
                "out_dir": str(out / kind)}))
            assert run(["simulate", "--config", config]) == 0
        # the isolated unit's cluster has no edges, so no omega follows from the model
        assert run(["analyze", "--graph", graph_path, "--clusters", clusters, "--design", "ocd",
                    "--root", out / "root.csv", "--omega", "1", "--out", out / "analyze.json"]) == 0
    files, laws = {}, []
    for path in sorted(out.rglob("*")):
        if path.name.endswith(".manifest.json"):
            laws.append(json.loads(path.read_text())["law"])
        elif path.is_file():
            files[str(path.relative_to(out))] = path.read_bytes()
    shutil.rmtree(out)
    return files, laws, [str(w.message) for w in caught]


def test_cluster_writes_the_law_and_lists_it(clustered):
    tmp, graph_path, clusters = clustered
    law_path = tmp / "c.txt.law.npz"
    manifest = json.loads((tmp / "c.txt.manifest.json").read_text())
    assert manifest["outputs"] == [str(clusters), str(law_path)]
    assert set(manifest["timings_s"]) == {"digest", "parse", "cluster", "law"}
    # the file holds the partition and N; everything else follows from them
    with np.load(law_path) as stored:
        assert sorted(stored.files) == ["assignment", "counts", "format", "graph_sha256",
                                        "indices", "indptr", "partition_sha256"]
    stored, reason = read_law(law_path, file_digest(graph_path), file_digest(clusters))
    assert reason is None
    built = cd.cluster_law(cd.load_edge_list(graph_path), cd.read_clustering(clusters))
    for name, value in law_fields(built).items():
        assert np.array_equal(law_fields(stored)[name], value), name
    assert (stored.n, stored.k, stored.total) == (built.n, built.k, built.total)
    assert stored.mean_degree == built.mean_degree


def test_cluster_law_holds_the_neighbour_counts():
    graph, clustering = cd.generate_sbm([6, 7, 5], 0.5, 0.2, seed=8)
    indptr, indices, counts = cd.cluster_law(graph, clustering).neighbours
    dense = np.zeros((graph.n, clustering.k), dtype=np.int64)
    for u, v in graph.edges:
        dense[u, clustering.assignment[v]] += 1
        dense[v, clustering.assignment[u]] += 1
    rows = np.repeat(np.arange(graph.n), np.diff(indptr))
    assert np.array_equal(rows * clustering.k + indices, np.flatnonzero(dense))
    assert np.array_equal(counts, dense[dense > 0])


def test_a_matching_law_is_read_and_gives_the_outputs_of_a_parse(clustered):
    tmp, graph_path, clusters = clustered
    read = run_all(tmp, graph_path, clusters)
    assert read[1] == [{"source": "read", "reason": None}] * 4 and read[2] == []
    (tmp / "c.txt.law.npz").unlink()
    built = run_all(tmp, graph_path, clusters)
    assert built[1] == [{"source": "built", "reason": "missing"}] * 4 and built[2] == []
    assert read[0] == built[0]


def test_manifests_time_the_law_apart_from_the_parse(clustered):
    tmp, graph_path, clusters = clustered
    argv = ["optimize", "--graph", graph_path, "--clusters", clusters, "--iters", "20",
            "--out", tmp / "root.csv"]
    assert run(argv) == 0
    timings = json.loads((tmp / "root.csv.manifest.json").read_text())["timings_s"]
    assert set(timings) == {"digest", "law", "read", "optimize"}
    (tmp / "c.txt.law.npz").unlink()
    assert run(argv) == 0
    timings = json.loads((tmp / "root.csv.manifest.json").read_text())["timings_s"]
    assert set(timings) == {"digest", "parse", "read", "optimize"}


def _edit_partition(tmp, graph_path, clusters):
    """Move a unit of a cluster of several to another cluster with an id of
    as many digits, keeping the file's size and every cluster non-empty."""
    rows = [line.split() for line in clusters.read_text().splitlines()]
    ids = [cid for _, cid in rows]
    moved = next(r for r in rows if ids.count(r[1]) > 1)
    moved[1] = next(cid for cid in ids if cid != moved[1] and len(cid) == len(moved[1]))
    clusters.write_text("".join(f"{u} {c}\n" for u, c in rows))


def _other_graph(tmp, graph_path, clusters):
    graph = cd.load_edge_list(graph_path)
    edges = graph.edges[1:]
    header = graph_path.read_text().splitlines()[0]
    graph_path.write_text(f"{header}\n{graph.n} {graph.n} {len(edges)}\n"
                          + "".join(f"{v + 1} {u + 1}\n" for u, v in edges))


def _truncate(tmp, graph_path, clusters):
    law = tmp / "c.txt.law.npz"
    law.write_bytes(law.read_bytes()[:len(law.read_bytes()) // 2])


def _old_tag(tmp, graph_path, clusters):
    """The law file of version 0.13.0 (format 1) for the same two files: its
    tag, the digests, and the contact matrices and degrees it also stored."""
    graph = cd.load_edge_list(graph_path)
    law = cd.cluster_law(graph, cd.read_clustering(clusters))
    deg = graph.degrees.astype(np.float64)
    indptr, indices, counts = law.neighbours
    with open(tmp / "c.txt.law.npz", "wb") as fh:
        np.savez(fh, format="covdesign cluster law 1", graph_sha256=file_digest(graph_path),
                 partition_sha256=file_digest(clusters), assignment=law.clustering.assignment,
                 contact=law.contact.astype(np.int64), degrees=graph.degrees,
                 inverse_contact=law.weighted(1.0 / np.maximum(deg, 1.0)),
                 degree_contact=law.weighted(deg), indptr=indptr, indices=indices,
                 counts=counts)
    assert LAW_FORMAT != "covdesign cluster law 1"


@pytest.mark.parametrize("edit, reason", [
    (_edit_partition, "stale"), (_other_graph, "stale"), (_truncate, "unreadable"),
    (_old_tag, "stale")], ids=["partition-edited", "other-graph", "truncated", "old-tag"])
def test_a_law_that_does_not_match_is_rebuilt_and_never_rewritten(clustered, edit, reason):
    tmp, graph_path, clusters = clustered
    law_path = tmp / "c.txt.law.npz"
    before = clusters.stat().st_size
    edit(tmp, graph_path, clusters)
    assert clusters.stat().st_size == before
    stored = law_path.read_bytes()
    files, laws, caught = run_all(tmp, graph_path, clusters)
    assert law_path.read_bytes() == stored
    assert laws == [{"source": "built", "reason": reason}] * 4
    # one warning per command: optimize, three simulates and analyze
    assert caught == [f"{law_path}: {reason} cluster law not used; built from the graph "
                      "and partition instead"] * 5
    law_path.unlink()
    assert run_all(tmp, graph_path, clusters)[0] == files


def test_commands_after_cluster_neither_parse_nor_read_the_partition(clustered, monkeypatch):
    tmp, graph_path, clusters = clustered

    def refuse(*args, **kwargs):
        raise AssertionError("parsed with a matching law")

    monkeypatch.setattr(cli, "load_edge_list", refuse)
    monkeypatch.setattr(cli, "read_clustering", refuse)
    assert run_all(tmp, graph_path, clusters)[1] == [{"source": "read", "reason": None}] * 4


SCIPY_PROBE = """
import json, sys
import numpy as np
import covdesign as cd
from covdesign import cli
from covdesign.clustering import write_law
from covdesign.manifest import file_digest

def planted(blocks, size, p_in, cross, seed):
    # an SBM drawn in O(m): each block's pairs with probability p_in, and
    # `cross` uniform pairs of units, those inside one block dropped
    rng = np.random.default_rng(seed)
    n = blocks * size
    iu, ju = np.triu_indices(size, k=1)
    keep = rng.random((blocks, iu.size)) < p_in
    offset = (np.arange(blocks) * size)[:, None]
    pairs = rng.integers(0, n, (cross, 2))
    pairs = pairs[pairs[:, 0] // size != pairs[:, 1] // size]
    u = np.concatenate([(iu + offset)[keep], pairs.min(axis=1)])
    v = np.concatenate([(ju + offset)[keep], pairs.max(axis=1)])
    key = np.unique(u * n + v)
    return cd.Graph(n, np.column_stack([key // n, key % n])), cd.Clustering(
        np.repeat(np.arange(blocks), size), blocks)

graph, clustering = planted(*json.loads(sys.argv[1]))
cd.save_edge_list(graph, "g.el")
cd.write_clustering(clustering, "c.txt")
write_law(cd.cluster_law(graph, clustering), "c.txt.law.npz", file_digest("g.el"),
          file_digest("c.txt"))
cells = graph.n * clustering.k
fill = cd.cluster_law(graph, clustering).neighbours[2].size / cells
del graph, clustering
json.dump({"graph": "g.el", "clustering": "c.txt", "designs": [{"kind": "ber"}],
           "model": {"kind": "multiplicative", "sigma": 0.1}, "gammas": [1.0],
           "replications": 2, "out_dir": "out"}, open("sim.json", "w"))
def refuse(*args, **kwargs):
    raise AssertionError("parsed with a matching law")
cli.load_edge_list = cli.read_clustering = refuse
before = "scipy.sparse" in sys.modules
code = cli.main(["simulate", "--config", "sim.json"])
print(json.dumps([cells, round(fill, 3), code, before, "scipy.sparse" in sys.modules]))
"""


@pytest.mark.parametrize("shape, sparse", [
    ((200, 58, 0.5, 200_000, 5), False),  # 11,600 x 200 at campus fill (about 16 %)
    ((60, 20, 0.3, 1_500, 4), True),  # 1,200 x 60 at about 5 % fill
], ids=["campus-density", "sparse"])
def test_multiplicative_simulate_loads_scipy_only_for_sparse_counts(tmp_path, shape, sparse):
    src = str(Path(cd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(shape)], env=env,
                         cwd=tmp_path, capture_output=True, text=True, timeout=300, check=True)
    cells, fill, code, before, after = json.loads(out.stdout.splitlines()[-1])
    assert cells > cd.simulation.DENSE_CELLS
    assert (fill < 1 / cd.simulation.DENSE_FILL) == sparse
    assert [code, before, after] == [0, False, sparse]

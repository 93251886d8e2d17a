import argparse
import json
import math
import re

import numpy as np
import pytest

import covdesign as cd
from covdesign import cli
from covdesign.cli import main
from covdesign.optimizer import CLAMP_EPSILON, SCHEDULE


@pytest.fixture
def workspace(tmp_path):
    graph, clustering = cd.generate_sbm([5, 5, 5, 5], 0.6, 0.1, seed=6)
    graph_path = tmp_path / "toy.el"
    cd.save_edge_list(graph, graph_path)
    clusters_path = tmp_path / "clusters.txt"
    cd.write_clustering(clustering, clusters_path)
    return tmp_path, graph, clustering, graph_path, clusters_path


def run(argv):
    return main([str(a) for a in argv])


class TestCluster:
    def test_writes_clustering_and_manifest(self, workspace, capsys):
        tmp, graph, _, graph_path, _ = workspace
        out = tmp / "louvain.txt"
        assert run(["cluster", "--graph", graph_path, "--resolution", "1.0",
                    "--seed", "3", "--out", out]) == 0
        clustering = cd.read_clustering(out, n=graph.n)
        assert clustering.k >= 2
        manifest = json.loads((tmp / "louvain.txt.manifest.json").read_text())
        assert manifest["command"] == "cluster"
        assert manifest["resolved_config"]["seed"] == 3
        assert str(graph_path) in manifest["input_digests"]

    def test_missing_graph_file_names_path(self, tmp_path, capsys):
        code = run(["cluster", "--graph", tmp_path / "absent.el",
                    "--seed", "1", "--out", tmp_path / "c.txt"])
        assert code != 0
        assert "absent.el" in capsys.readouterr().err

    def test_rerun_from_manifest_is_byte_identical(self, workspace):
        tmp, _, _, graph_path, _ = workspace
        out = tmp / "c.txt"
        run(["cluster", "--graph", graph_path, "--seed", "2", "--out", out])
        first = out.read_bytes()
        out.unlink()
        assert run(["cluster", "--from-manifest", tmp / "c.txt.manifest.json"]) == 0
        assert out.read_bytes() == first

    def test_resolution_sweep_grows_cluster_count(self, tmp_path):
        graph, _ = cd.generate_sbm([20] * 10, 0.3, 0.02, seed=11)
        graph_path = tmp_path / "sweep.el"
        cd.save_edge_list(graph, graph_path)
        ks = []
        for resolution in (2.0, 5.0, 10.0):
            out = tmp_path / f"c{resolution:g}.txt"
            assert run(["cluster", "--graph", graph_path, "--resolution",
                        resolution, "--seed", "1", "--out", out]) == 0
            ks.append(cd.read_clustering(out, n=graph.n).k)
        assert ks[0] <= ks[1] <= ks[2]


class TestOptimize:
    def test_writes_root_sidecar_and_trace(self, workspace):
        tmp, _, _, graph_path, clusters_path = workspace
        out = tmp / "root.csv"
        assert run(["optimize", "--graph", graph_path, "--clusters", clusters_path,
                    "--iters", "200", "--out", out]) == 0
        root = np.loadtxt(out, delimiter=",")
        assert np.allclose(np.linalg.norm(root, axis=1), 1.0, atol=1e-12)
        sidecar = json.loads((tmp / "root.csv.json").read_text())
        assert sidecar["omega"] == 1.0
        assert sidecar["objective_final"] <= sidecar["objective_initial"]
        trace_lines = (tmp / "root.csv.trace.csv").read_text().strip().splitlines()
        assert trace_lines[0] == ("iteration,objective,bias_term,variance_term,clamped,"
                                  "grad_norm,step,g,epsilon")
        final = trace_lines[-1].split(",")
        assert float(final[1]) == pytest.approx(sidecar["objective_final"])
        assert float(final[5]) > 0.0 and float(final[6]) > 0.0
        summary = cd.build_cluster_summary(*workspace[1:3])
        floor = 2.0 * (1.0 + 4.0) * summary.total ** 2
        assert float(final[7]) == pytest.approx(float(final[1]) - floor)
        assert float(final[8]) == CLAMP_EPSILON
        assert {float(line.split(",")[8]) for line in trace_lines[1:]} == {
            eps for _, eps, _ in SCHEDULE}
        # the sidecar's f is the root file's, under the final clamp
        assert cd.evaluate_root(root, summary, 1.0)[0] == sidecar["objective_final"]
        assert "seed" not in sidecar and "step_size" not in sidecar
        assert sidecar["rank"] == 4 and sidecar["evaluations"] == 200
        manifest = json.loads((tmp / "root.csv.manifest.json").read_text())
        assert "seed" not in manifest["resolved_config"]
        assert manifest["seeds"] == {}
        assert manifest["rank"] == 4 and manifest["evaluations"] == 200

    @pytest.mark.parametrize("iters, stop", [(2000, "stall"), (50, "budget")])
    def test_records_why_and_when_the_search_stopped(self, tmp_path, acceptance_fixture,
                                                     capsys, iters, stop):
        graph, clustering, _ = acceptance_fixture
        cd.save_edge_list(graph, tmp_path / "g.el")
        cd.write_clustering(clustering, tmp_path / "c.txt")
        out = tmp_path / "root.csv"
        assert run(["optimize", "--graph", tmp_path / "g.el", "--clusters", tmp_path / "c.txt",
                    "--iters", iters, "--out", out]) == 0
        sidecar = json.loads((tmp_path / "root.csv.json").read_text())
        manifest = json.loads((tmp_path / "root.csv.manifest.json").read_text())
        used = sidecar["evaluations"]
        assert sidecar["stop"] == manifest["stop"] == stop
        assert sidecar["stages"] == manifest["stages"]
        assert [(s["epsilon"], s["dtype"]) for s in sidecar["stages"]] == [
            (eps, np.dtype(dtype).name) for _, eps, dtype in SCHEDULE]
        assert sum(s["evaluations"] for s in sidecar["stages"]) == used
        assert used < 2000 if stop == "stall" else used == 50
        assert f"{used} of {iters} evaluations, stop: {stop})" in capsys.readouterr().out

    def test_low_rank_warm_start_is_written_zero_padded(self, workspace):
        tmp, _, _, graph_path, clusters_path = workspace
        warm = np.zeros((4, 4))
        warm[:, 1:3] = np.random.default_rng(3).standard_normal((4, 2))
        np.savetxt(tmp / "warm.csv", warm, delimiter=",")
        out = tmp / "root.csv"
        assert run(["optimize", "--graph", graph_path, "--clusters", clusters_path,
                    "--iters", "50", "--warm-start", tmp / "warm.csv", "--out", out]) == 0
        root = np.loadtxt(out, delimiter=",")
        assert root.shape == (4, 4)
        assert np.all(root[:, 2:] == 0.0) and np.all(root[:, :2] != 0.0)
        assert json.loads((tmp / "root.csv.json").read_text())["rank"] == 2

    @pytest.mark.parametrize("p", [1, 3, 6])
    def test_root_file_is_the_padded_savetxt_output(self, tmp_path, p):
        k = 6
        root = np.random.default_rng(p).standard_normal((k, p))
        root[0, 0], root[-1, -1] = -0.0, 5e-324
        root[1, -1] = -2.2250738585072014e-309
        padded = np.zeros((k, k))
        padded[:, :p] = root
        np.savetxt(tmp_path / "savetxt.csv", padded, fmt="%.17g", delimiter=",")
        cli._write_root(tmp_path / "root.csv", root, k)
        assert (tmp_path / "root.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()

    def test_manifest_records_the_numerics_and_still_reruns(self, workspace, monkeypatch):
        tmp, _, _, graph_path, clusters_path = workspace
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp / "root.csv"
        assert run(["optimize", "--graph", graph_path, "--clusters", clusters_path,
                    "--iters", "20", "--out", out]) == 0
        path = tmp / "root.csv.manifest.json"
        numerics = json.loads(path.read_text())["numerics"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert numerics == {
            "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                        "MKL_NUM_THREADS": None},
        }
        assert "numerics" not in json.loads(path.read_text())["resolved_config"]
        assert run(["optimize", "--from-manifest", path]) == 0

    @pytest.mark.parametrize("key, value", [("step_size", 0.01), ("trace_stride", 10),
                                            ("clamp_epsilon", 1e-6)])
    def test_manifest_with_a_removed_optimizer_key_is_refused_by_name(self, workspace, capsys,
                                                                      key, value):
        tmp, _, _, graph_path, clusters_path = workspace
        run(["optimize", "--graph", graph_path, "--clusters", clusters_path,
             "--iters", "20", "--out", tmp / "root.csv"])
        path = tmp / "root.csv.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["resolved_config"][key] = value
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["optimize", "--from-manifest", path]) == 2
        assert capsys.readouterr().err == (f"error: manifest {path}: unknown optimize "
                                           f"config key {key!r}\n")

    def test_seed_flag_is_gone(self, workspace, capsys):
        tmp, _, _, graph_path, clusters_path = workspace
        with pytest.raises(SystemExit):
            run(["optimize", "--graph", graph_path, "--clusters", clusters_path,
                 "--seed", "3", "--out", tmp / "root.csv"])
        assert "--seed" in capsys.readouterr().err

    def test_manifest_with_seed_is_refused_by_name(self, workspace, capsys):
        tmp, _, _, graph_path, clusters_path = workspace
        out = tmp / "root.csv"
        run(["optimize", "--graph", graph_path, "--clusters", clusters_path,
             "--iters", "20", "--out", out])
        path = tmp / "root.csv.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["resolved_config"]["seed"] = 0
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["optimize", "--from-manifest", path]) != 0
        assert "'seed'" in capsys.readouterr().err

    def test_non_integer_matrix_market_size_line(self, workspace, capsys):
        tmp, _, _, _, clusters_path = workspace
        graph_path = tmp / "bad.mtx"
        graph_path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n3 x 2\n1 2\n")
        assert run(["optimize", "--graph", graph_path, "--clusters", clusters_path,
                    "--out", tmp / "root.csv"]) != 0
        assert "line 2: non-integer size" in capsys.readouterr().err

    def test_warm_start_k_mismatch_reports_both(self, workspace, capsys):
        tmp, _, _, graph_path, clusters_path = workspace
        bad = tmp / "warm.csv"
        np.savetxt(bad, np.eye(3), delimiter=",")
        assert run(["optimize", "--graph", graph_path, "--clusters", clusters_path,
                    "--warm-start", bad, "--out", tmp / "r.csv"]) == 2
        assert capsys.readouterr().err == ("error: warm start is (3, 3), "
                                           "expected (4, p) with p <= 4\n")
        assert not list(tmp.glob("r.csv*"))

    def test_non_finite_warm_start_is_refused_before_a_step(self, workspace, capsys):
        tmp, _, _, graph_path, clusters_path = workspace
        warm = np.eye(4)
        warm[2, 1] = np.nan
        np.savetxt(tmp / "warm.csv", warm, delimiter=",")
        assert run(["optimize", "--graph", graph_path, "--clusters", clusters_path,
                    "--warm-start", tmp / "warm.csv", "--out", tmp / "r.csv"]) == 2
        assert capsys.readouterr().err == "error: warm start has NaN or inf entries\n"
        assert not list(tmp.glob("r.csv*"))

    def test_unparsable_warm_start_names_its_file(self, workspace, capsys):
        tmp, _, _, graph_path, clusters_path = workspace
        bad = tmp / "warm.json"
        bad.write_text('{"root": [[1.0]]}\n')
        assert run(["optimize", "--graph", graph_path, "--clusters", clusters_path,
                    "--warm-start", bad, "--out", tmp / "r.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: could not convert string")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("iters", [10, 30])
    def test_warm_start_from_a_converged_root_keeps_its_objective(self, tmp_path, iters):
        # the short clamp stages end on roots that score worse under the final
        # clamp than this converged start, so the start is returned
        graph, clustering = cd.generate_sbm([12] * 10, 0.5, 0.05, seed=3)
        cd.save_edge_list(graph, tmp_path / "g.el")
        cd.write_clustering(clustering, tmp_path / "c.txt")
        base = ["optimize", "--graph", tmp_path / "g.el", "--clusters", tmp_path / "c.txt"]
        assert run([*base, "--iters", 2000, "--out", tmp_path / "root.csv"]) == 0
        assert run([*base, "--iters", iters, "--warm-start", tmp_path / "root.csv",
                    "--out", tmp_path / "warm.csv"]) == 0
        converged = json.loads((tmp_path / "root.csv.json").read_text())
        sidecar = json.loads((tmp_path / "warm.csv.json").read_text())
        assert sidecar["objective_final"] == sidecar["objective_initial"]
        assert sidecar["objective_initial"] == pytest.approx(converged["objective_final"],
                                                             rel=1e-12)
        root = np.loadtxt(tmp_path / "warm.csv", delimiter=",")
        summary = cd.build_cluster_summary(graph, clustering)
        assert cd.evaluate_root(root, summary, 1.0)[0] == sidecar["objective_final"]

    def test_cold_start_that_cannot_reach_the_independent_design_is_refused(self, tmp_path,
                                                                            capsys):
        # rank 32 < K = 40: one evaluation from the Gaussian start stays above f(I/4)
        graph, clustering = cd.generate_sbm([8] * 40, 0.6, 0.02, seed=5)
        cd.save_edge_list(graph, tmp_path / "g.el")
        cd.write_clustering(clustering, tmp_path / "c.txt")
        assert run(["optimize", "--graph", tmp_path / "g.el", "--clusters", tmp_path / "c.txt",
                    "--iters", 1, "--out", tmp_path / "r.csv"]) == 2
        assert re.fullmatch(r"error: final objective \S+ did not improve on start \S+\n",
                            capsys.readouterr().err)
        assert not list(tmp_path.glob("r.csv*"))

    def test_rerun_from_manifest_is_byte_identical(self, workspace):
        tmp, _, _, graph_path, clusters_path = workspace
        out = tmp / "root.csv"
        run(["optimize", "--graph", graph_path, "--clusters", clusters_path,
             "--iters", "150", "--out", out])
        artifacts = [out, tmp / "root.csv.json", tmp / "root.csv.trace.csv"]
        first = [p.read_bytes() for p in artifacts]
        for p in artifacts:
            p.unlink()
        assert run(["optimize", "--from-manifest", tmp / "root.csv.manifest.json"]) == 0
        assert [p.read_bytes() for p in artifacts] == first


def write_sim_config(tmp, graph_path, clusters_path, root_rel="root.csv", **overrides):
    cfg = {
        "graph": graph_path.name,
        "clustering": clusters_path.name,
        "designs": [
            {"kind": "ber"},
            {"kind": "cr"},
            {"kind": "ibr", "block_size": 2},
            {"kind": "ocd", "root": root_rel},
        ],
        "model": {"kind": "linear", "alpha": 1, "beta": 1, "c": 0.5, "sigma": 0.1},
        "gammas": [0.5, 1.0, 2.0],
        "replications": 120,
        "seed": 7,
        "estimators": ["ht", "dim"],
        "out_dir": "simout",
    }
    cfg.update(overrides)
    path = tmp / "sim.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    @pytest.fixture
    def prepared(self, workspace):
        tmp, _, _, graph_path, clusters_path = workspace
        run(["optimize", "--graph", graph_path, "--clusters", clusters_path,
             "--iters", "100", "--out", tmp / "root.csv"])
        return tmp, graph_path, clusters_path

    def test_table_shape_matches_roster_and_gamma_grid(self, prepared):
        tmp, graph_path, clusters_path = prepared
        cfg = write_sim_config(tmp, graph_path, clusters_path)
        assert run(["simulate", "--config", cfg]) == 0
        csv_path = tmp / "simout" / "report_linear_ht.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "method"
        assert len(lines[0].split(",")) == 1 + 3 * 3
        methods = [ln.split(",")[0] for ln in lines[1:]]
        assert methods == ["ber", "cr", "ibr-2", "ocd"]
        bundle = json.loads((tmp / "simout" / "report.json").read_text())
        assert set(bundle["minima"]) == {
            f"{e}|gamma={g:g}" for e in ("ht", "dim") for g in (0.5, 1.0, 2.0)
        }
        assert "workers" not in bundle["meta"]["config"]

    def test_bundle_keeps_the_model_only_in_the_config_echo(self, prepared):
        tmp, graph_path, clusters_path = prepared
        cfg = write_sim_config(tmp, graph_path, clusters_path, replications=30)
        assert run(["simulate", "--config", cfg]) == 0
        meta = json.loads((tmp / "simout" / "report.json").read_text())["meta"]
        assert "model" not in meta
        assert meta["config"]["model"] == json.loads(cfg.read_text())["model"]

    def test_reps_override_echoed(self, prepared):
        tmp, graph_path, clusters_path = prepared
        cfg = write_sim_config(tmp, graph_path, clusters_path)
        assert run(["simulate", "--config", cfg, "--reps", "60"]) == 0
        bundle = json.loads((tmp / "simout" / "report.json").read_text())
        assert bundle["meta"]["replications"] == 60

    def test_unknown_design_lists_valid_kinds(self, prepared, capsys):
        tmp, graph_path, clusters_path = prepared
        cfg = write_sim_config(tmp, graph_path, clusters_path)
        raw = json.loads(cfg.read_text())
        raw["designs"] = [{"kind": "matched-pairs"}]
        cfg.write_text(json.dumps(raw))
        assert run(["simulate", "--config", cfg]) != 0
        assert "ber, cr, ibr, ocd" in capsys.readouterr().err

    def test_workers_do_not_change_outputs(self, prepared):
        tmp, graph_path, clusters_path = prepared
        cfg = write_sim_config(tmp, graph_path, clusters_path,
                               replications=80, out_dir="w1")
        assert run(["simulate", "--config", cfg]) == 0
        with pytest.warns(UserWarning, match="runs serially"):
            assert run(["simulate", "--config", cfg, "--workers", "2",
                        "--out-dir", tmp / "w2"]) == 0
        for name in ("report_linear_ht.csv", "report_linear_dim.csv", "report.json"):
            assert (tmp / "w1" / name).read_bytes() == (tmp / "w2" / name).read_bytes()
        manifest = json.loads((tmp / "w2" / "simulate.manifest.json").read_text())
        assert "workers" not in manifest["resolved_config"]

    def test_rerun_from_manifest_is_byte_identical(self, prepared):
        tmp, graph_path, clusters_path = prepared
        cfg = write_sim_config(tmp, graph_path, clusters_path, replications=50)
        run(["simulate", "--config", cfg])
        out = tmp / "simout"
        names = ["report_linear_ht.csv", "report_linear_dim.csv", "report.json"]
        first = [(out / n).read_bytes() for n in names]
        for n in names:
            (out / n).unlink()
        assert run(["simulate", "--from-manifest", out / "simulate.manifest.json"]) == 0
        assert [(out / n).read_bytes() for n in names] == first

    def test_serial_by_default(self, prepared):
        tmp, graph_path, clusters_path = prepared
        cfg = write_sim_config(tmp, graph_path, clusters_path, replications=30)
        assert run(["simulate", "--config", cfg]) == 0
        manifest = json.loads((tmp / "simout" / "simulate.manifest.json").read_text())
        assert "workers" not in manifest["resolved_config"]
        bundle = json.loads((tmp / "simout" / "report.json").read_text())
        assert bundle["meta"]["engine"] == "cluster-sums"
        assert bundle["meta"]["streams"] == {"per": ["design", "gamma", "block"],
                                             "block": cd.simulation.BLOCK}

    @pytest.mark.parametrize("key", ["workers", "shared_noise", "replication", "graph_format"])
    def test_unknown_config_key_is_refused_by_name(self, prepared, capsys, key):
        tmp, graph_path, clusters_path = prepared
        cfg = write_sim_config(tmp, graph_path, clusters_path, **{key: 1})
        assert run(["simulate", "--config", cfg]) != 0
        assert f"config {cfg}: unknown simulate config key '{key}'" in capsys.readouterr().err
        assert not (tmp / "simout").exists()

    @pytest.mark.parametrize("where, spec, key", [
        ("design", {"kind": "ibr", "blocksize": 4}, "blocksize"),
        ("model", {"kind": "analysis", "sigma": 0.1}, "sigma"),
        ("model", {"kind": "linear", "noise": 0.1}, "noise"),
        ("model", {"kind": "linear", "gamma": 5.0}, "gamma"),
        ("model", {"kind": "analysis", "gamma": 5.0}, "gamma"),
        ("design", {"kind": "cr", "root": "eye.csv"}, "root"),
        ("design", {"kind": "ber", "block_size": 7}, "block_size"),
        ("design", {"kind": "ocd", "root": "root.csv", "block_size": 2}, "block_size"),
    ])
    def test_unknown_nested_key_is_refused_by_name(self, prepared, capsys, where, spec, key):
        tmp, graph_path, clusters_path = prepared
        cfg = write_sim_config(tmp, graph_path, clusters_path)
        raw = json.loads(cfg.read_text())
        if where == "design":
            raw["designs"].append(spec)
        else:
            raw[where] = spec
        cfg.write_text(json.dumps(raw))
        assert run(["simulate", "--config", cfg]) != 0
        assert f"unknown {where} key '{key}'" in capsys.readouterr().err

    def test_manifest_with_workers_is_refused_by_name(self, prepared, capsys):
        tmp, graph_path, clusters_path = prepared
        cfg = write_sim_config(tmp, graph_path, clusters_path, replications=30)
        assert run(["simulate", "--config", cfg]) == 0
        path = tmp / "simout" / "simulate.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["resolved_config"]["workers"] = 1
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["simulate", "--from-manifest", path]) != 0
        assert (f"manifest {path}: unknown simulate config key 'workers'"
                in capsys.readouterr().err)

    def test_oversized_run_is_refused_by_its_size(self, prepared, capsys):
        tmp, graph_path, clusters_path = prepared
        cfg = write_sim_config(tmp, graph_path, clusters_path, replications=10**12)
        assert run(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        # 3 gammas x 4 designs x 10^12 replications x 2 estimators x 9 B
        assert err.startswith("error: 1000000000000 replications need 196.5 TiB of results")
        assert err.count("\n") == 1
        assert not (tmp / "simout").exists()

    def test_non_finite_model_parameter_names_field(self, prepared, capsys):
        tmp, graph_path, clusters_path = prepared
        cfg = write_sim_config(tmp, graph_path, clusters_path, replications=30)
        raw = json.loads(cfg.read_text())
        raw["model"]["sigma"] = float("nan")
        cfg.write_text(json.dumps(raw))
        assert run(["simulate", "--config", cfg]) != 0
        assert "sigma must be finite" in capsys.readouterr().err
        assert not (tmp / "simout" / "report.json").exists()

    def test_inline_clustering_spec_is_refused(self, prepared, capsys):
        # partitions come from `cluster`: its file is what an ocd root is built
        # from, and its manifest records the Louvain seed
        tmp, graph_path, clusters_path = prepared
        cfg = write_sim_config(tmp, graph_path, clusters_path,
                               clustering={"resolution": 1.0, "seed": 3})
        assert run(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err == (f"error: config {cfg}: clustering must be a "
                                           "string, got {'resolution': 1.0, 'seed': 3}\n")
        assert not (tmp / "simout").exists()

    def test_manifest_with_model_gamma_is_refused_by_name(self, prepared, capsys):
        tmp, graph_path, clusters_path = prepared
        cfg = write_sim_config(tmp, graph_path, clusters_path, replications=30)
        assert run(["simulate", "--config", cfg]) == 0
        path = tmp / "simout" / "simulate.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["resolved_config"]["model"]["gamma"] = 2.0
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["simulate", "--from-manifest", path]) == 2
        assert capsys.readouterr().err == f"error: manifest {path}: unknown model key 'gamma'\n"


# model keys that a run reads nothing of, each with the reason it is still accepted
UNREAD_MODEL_KEYS = {
    ("multiplicative", "c"): "the benchmark's multiplicative config sends it",
}


@pytest.mark.parametrize("kind, key", [(kind, key) for kind, spec in cli._MODELS.items()
                                       for key in spec if key != "kind"])
def test_every_model_key_moves_the_report(workspace, kind, key):
    """A model key that `simulate` accepts changes the report's cells when it
    changes; the keys of `UNREAD_MODEL_KEYS` are the listed exceptions."""
    tmp, _, _, graph_path, clusters_path = workspace
    base = {"alpha": 1.0, "beta": 1.0, "c": 0.5, "sigma": 0.1}
    cells = []
    for bump in (0.0, 1.0):
        model = {"kind": kind, **{k: v + bump * (k == key) for k, v in base.items()
                                  if k in cli._MODELS[kind]}}
        cfg = write_sim_config(tmp, graph_path, clusters_path, designs=[{"kind": "ber"}],
                               model=model, gammas=[1.0], replications=30,
                               estimators=["ht"])
        assert run(["simulate", "--config", cfg]) == 0
        cells.append(json.loads((tmp / "simout" / "report.json").read_text())["cells"])
    assert (cells[0] == cells[1]) == ((kind, key) in UNREAD_MODEL_KEYS)


class TestAnalyze:
    def test_exact_diagnostics_match_library(self, workspace, capsys):
        tmp, graph, clustering, graph_path, clusters_path = workspace
        assert run(["analyze", "--graph", graph_path, "--clusters", clusters_path,
                    "--design", "cr", "--gamma", "1.5", "--beta", "1.0"]) == 0
        result = json.loads(capsys.readouterr().out)
        summary = cd.build_cluster_summary(graph, clustering)
        expected_bias = cd.bias_closed_form(
            summary, cd.CompleteDesign(4).covariance(), 1.5
        )
        assert result["bias"] == pytest.approx(expected_bias, rel=1e-12)
        assert result["variance"]["method"] == "exact"
        assert result["variance_bound"] >= result["variance"]["value"]
        assert result["objective"]["f"] == pytest.approx(
            result["objective"]["bias_term"] + result["objective"]["variance_term"]
        )

    def test_writes_json_file(self, workspace):
        tmp, _, _, graph_path, clusters_path = workspace
        out = tmp / "analysis.json"
        assert run(["analyze", "--graph", graph_path, "--clusters", clusters_path,
                    "--design", "ber", "--out", out]) == 0
        assert json.loads(out.read_text())["design"] == "ber"

    def test_ibr_block_size_defaults_to_two(self, workspace, capsys):
        tmp, _, _, graph_path, clusters_path = workspace
        outputs = []
        for extra in ([], ["--block-size", "2"], ["--block-size", "4"]):
            assert run(["analyze", "--graph", graph_path, "--clusters", clusters_path,
                        "--design", "ibr", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != outputs[2]

    @pytest.mark.parametrize("flag, value", [("--gamma", "nan"), ("--beta", "inf"),
                                             ("--omega", "-inf")])
    def test_non_finite_parameter_is_refused_by_flag(self, workspace, capsys, flag, value):
        tmp, _, _, graph_path, clusters_path = workspace
        assert run(["analyze", "--graph", graph_path, "--clusters", clusters_path,
                    "--design", "cr", f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: command line: {flag} must be a finite number, "
                                f"got {value}\n")
        assert captured.out == ""

    def test_non_enumerable_design_falls_back_to_monte_carlo(self, tmp_path, capsys):
        # six coupled clusters: the correlated design cannot enumerate exactly
        graph, clustering = cd.generate_sbm([4] * 6, 0.6, 0.15, seed=21)
        graph_path = tmp_path / "g.el"
        clusters_path = tmp_path / "c.txt"
        cd.save_edge_list(graph, graph_path)
        cd.write_clustering(clustering, clusters_path)
        summary = cd.build_cluster_summary(graph, clustering)
        root, _ = cd.optimize(summary, cd.OptimizerConfig(iterations=100))
        root_path = tmp_path / "root.csv"
        np.savetxt(root_path, root, fmt="%.17g", delimiter=",")
        assert run(["analyze", "--graph", graph_path, "--clusters", clusters_path,
                    "--design", "ocd", "--root", root_path,
                    "--mc-reps", "3000"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["variance"]["method"] == "monte-carlo"
        assert result["variance"]["se"] > 0
        assert result["variance_bound"] >= result["variance"]["value"] \
            - 5 * result["variance"]["se"]

    def test_identical_root_rows_fall_back_to_monte_carlo(self, workspace, capsys):
        tmp, _, _, graph_path, clusters_path = workspace
        root = np.random.default_rng(5).standard_normal((4, 4))
        root /= np.linalg.norm(root, axis=1, keepdims=True)
        root[1] = root[0]
        root_path = tmp / "root.csv"
        np.savetxt(root_path, root, fmt="%.17g", delimiter=",")
        assert run(["analyze", "--graph", graph_path, "--clusters", clusters_path,
                    "--design", "ocd", "--root", root_path, "--mc-reps", "500"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["variance"]["method"] == "monte-carlo"
        assert result["variance"]["replications"] == 500

    @pytest.fixture
    def isolated_cluster(self, tmp_path):
        """Two triangles and node 7 alone: Louvain puts node 7 in cluster 2,
        which has no edges but a nonzero h."""
        graph_path = tmp_path / "g.mtx"
        graph_path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n7 7 6\n"
                              "2 1\n3 1\n3 2\n5 4\n6 4\n6 5\n")
        clusters_path = tmp_path / "c.txt"
        assert run(["cluster", "--graph", graph_path, "--seed", "1",
                    "--out", clusters_path]) == 0
        assert cd.read_clustering(clusters_path).k == 3
        return graph_path, clusters_path

    def test_edgeless_cluster_without_omega_is_refused_by_name(self, isolated_cluster, capsys):
        graph_path, clusters_path = isolated_cluster
        capsys.readouterr()
        assert run(["analyze", "--graph", graph_path, "--clusters", clusters_path,
                    "--design", "ber"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: cluster 2 has no edges, so no finite omega bounds "
                                "|h_k| by omega·gamma·d_k; pass --omega\n")
        assert captured.out == ""

    def test_edgeless_cluster_with_omega_writes_null_omega_star(self, isolated_cluster, capsys):
        graph_path, clusters_path = isolated_cluster
        capsys.readouterr()
        assert run(["analyze", "--graph", graph_path, "--clusters", clusters_path,
                    "--design", "ber", "--omega", "1"]) == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        result = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert result["omega_star"] is None
        assert result["omega_used"] == 1.0

    def test_gamma_zero_with_omega_writes_null_omega_star(self, workspace, capsys):
        # no interference: no omega is implied, and the bias and the bound are 0
        tmp, _, _, graph_path, clusters_path = workspace
        assert run(["analyze", "--graph", graph_path, "--clusters", clusters_path,
                    "--design", "cr", "--gamma", "0", "--omega", "1"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["omega_star"] is None
        assert result["omega_used"] == 1.0
        assert result["bias"] == 0.0
        assert result["variance_bound"] == 0.0


class TestReport:
    def test_undefined_cells_are_null_in_strict_json(self, tmp_path, capsys):
        # one cluster: dim never sees a treated and a control cluster at once
        graph, _ = cd.generate_sbm([6, 6], 0.6, 0.3, seed=5)
        cd.save_edge_list(graph, tmp_path / "g.el")
        cd.write_clustering(cd.Clustering(np.zeros(12, dtype=np.int64), 1), tmp_path / "c.txt")
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({
            "graph": "g.el", "clustering": "c.txt", "designs": [{"kind": "ber"}],
            "model": {"kind": "linear", "alpha": 1}, "estimators": ["ht", "dim"],
            "replications": 50, "out_dir": "simout"}))
        with pytest.warns(UserWarning) as caught:
            assert run(["simulate", "--config", cfg]) == 0
        assert [str(w.message) for w in caught] == [
            f"design 'ber', estimator 'dim', gamma {g}: 0 of 50 draws are valid, so its "
            "bias, sd and mse are undefined" for g in ("0.5", "1", "2")]

        def refuse(token):
            raise ValueError(f"report.json holds {token}")

        path = tmp_path / "simout" / "report.json"
        bundle = json.loads(path.read_text(), parse_constant=refuse)
        for cell in bundle["cells"]:
            undefined = [cell[key] is None for key in ("bias", "sd", "mse", "mean_estimate")]
            assert all(undefined) if cell["estimator"] == "dim" else not any(undefined)
        capsys.readouterr()
        assert run(["report", "--bundle", path, "--estimator", "dim"]) == 0
        assert f"{'ber':<12}{'nan':>14}{'nan':>10}{'nan':>9}" in capsys.readouterr().out

    def test_group_of_undefined_mses_is_null_and_unstarred(self, tmp_path, capsys):
        # one cluster: dim is degenerate under every draw of ber and of cr
        graph, _ = cd.generate_sbm([6, 6], 0.6, 0.3, seed=5)
        cd.save_edge_list(graph, tmp_path / "g.el")
        cd.write_clustering(cd.Clustering(np.zeros(12, dtype=np.int64), 1), tmp_path / "c.txt")
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({
            "graph": "g.el", "clustering": "c.txt", "designs": [{"kind": "ber"}, {"kind": "cr"}],
            "model": {"kind": "linear"}, "gammas": [1.0], "estimators": ["ht", "dim"],
            "replications": 50, "out_dir": "simout"}))
        with pytest.warns(UserWarning):
            assert run(["simulate", "--config", cfg]) == 0
        path = tmp_path / "simout" / "report.json"
        minima = json.loads(path.read_text())["minima"]
        assert minima["dim|gamma=1"] is None and minima["ht|gamma=1"] in ("ber", "cr")
        capsys.readouterr()
        assert run(["report", "--bundle", path, "--estimator", "dim"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:4]
        assert [row.split()[0] for row in rows] == ["ber", "cr"]
        assert not any("*" in row for row in rows)

    def test_renders_table_with_minimum_flag(self, workspace, capsys):
        tmp, _, _, graph_path, clusters_path = workspace
        run(["optimize", "--graph", graph_path, "--clusters", clusters_path,
             "--iters", "100", "--out", tmp / "root.csv"])
        cfg = write_sim_config(tmp, graph_path, clusters_path, replications=40)
        run(["simulate", "--config", cfg])
        capsys.readouterr()
        assert run(["report", "--bundle", tmp / "simout" / "report.json",
                    "--estimator", "ht"]) == 0
        out = capsys.readouterr().out
        assert "estimator: ht" in out
        assert "ber" in out and "ocd" in out and "*" in out

    def test_missing_bundle(self, tmp_path, capsys):
        assert run(["report", "--bundle", tmp_path / "nope.json"]) != 0
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["designs", "gammas", "estimators", "cells"])
    def test_bundle_missing_key_is_named(self, tmp_path, capsys, key):
        bundle = {"designs": ["ber"], "gammas": [1.0], "estimators": ["ht"], "cells": []}
        del bundle[key]
        path = tmp_path / "report.json"
        path.write_text(json.dumps(bundle))
        assert run(["report", "--bundle", path]) == 2
        assert capsys.readouterr().err == (
            f"error: bundle {path}: bundle is missing key {key!r}\n")

    def test_unknown_estimator_lists_the_bundle_estimators(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"designs": [], "gammas": [], "cells": [],
                                    "estimators": ["ht", "dim"]}))
        assert run(["report", "--bundle", path, "--estimator", "dimm"]) == 2
        assert capsys.readouterr().err == (
            f"error: bundle {path} has no estimator 'dimm'; it holds: ht, dim\n")


# ------------------------------------------------------------- boundaries

def _sim(edit):
    """A simulate run from a valid config changed by `edit`."""
    def make(tmp, graph_path, clusters_path):
        cfg = {"graph": graph_path.name, "clustering": clusters_path.name,
               "designs": [{"kind": "ber"}, {"kind": "ibr", "block_size": 2}],
               "model": {"kind": "linear", "alpha": 1}, "replications": 20,
               "out_dir": "simout"}
        path = tmp / "sim.json"
        path.write_text(json.dumps(edit(cfg)))
        return ["simulate", "--config", path], f"config {path}: ", tmp / "simout"
    return make


def _cluster_manifest(edit):
    """A cluster re-run from a manifest whose resolved config `edit` changed."""
    def make(tmp, graph_path, clusters_path):
        out = tmp / "c.txt"
        assert run(["cluster", "--graph", graph_path, "--seed", "1", "--out", out]) == 0
        path = tmp / "c.txt.manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest["resolved_config"])
        path.write_text(json.dumps(manifest))
        out.unlink()
        return ["cluster", "--from-manifest", path], f"manifest {path}: ", out
    return make


def _bundle(bundle):
    """A report on a bundle file holding `bundle`."""
    def make(tmp, graph_path, clusters_path):
        path = tmp / "report.json"
        path.write_text(json.dumps(bundle))
        return ["report", "--bundle", path], f"bundle {path} ", tmp / "out.txt"
    return make


# one well-formed cell of a bundle that has one design, gamma and estimator
CELL = {"design": "ber", "gamma": 0.5, "estimator": "ht", "bias": 0.1, "sd": 0.2, "mse": 0.05}


def _one_cell_bundle(**changes):
    return _bundle({"designs": ["ber"], "gammas": [0.5], "estimators": ["ht"],
                    "cells": [CELL], **changes})


def _clusters(content: bytes):
    """An optimize run on a clustering file holding `content`."""
    def make(tmp, graph_path, clusters_path):
        path = tmp / "c.txt"
        path.write_bytes(content)
        return (["optimize", "--graph", graph_path, "--clusters", path, "--out", tmp / "out.txt"],
                "", tmp / "out.txt")
    return make


def _flags(*argv):
    """A run from flags; GRAPH and CLUSTERS are the workspace's files, OUT
    the output, and any other upper-case word a missing file of that name."""
    def make(tmp, graph_path, clusters_path):
        paths = {"GRAPH": graph_path, "CLUSTERS": clusters_path, "OUT": tmp / "out.txt"}
        return ([paths.get(a, tmp / a.lower() if a.isupper() else a) for a in argv],
                "", tmp / "out.txt")
    return make


# case -> (run, message); {src} is the run's config or manifest prefix,
# {tmp} the workspace
BOUNDARY = {
    "gammas-number": (_sim(lambda c: {**c, "gammas": 0.5}),
                      "{src}gammas must be a list of numbers, got 0.5"),
    "gammas-string": (_sim(lambda c: {**c, "gammas": ["x"]}),
                      "{src}gammas[0] must be a number, got 'x'"),
    "model-string": (_sim(lambda c: {**c, "model": "linear"}),
                     "{src}model must be an object, got 'linear'"),
    "model-kind": (_sim(lambda c: {**c, "model": {"kind": "quadratic"}}),
                   "{src}unknown model kind 'quadratic'; valid: linear, multiplicative, "
                   "analysis"),
    "designs-object": (_sim(lambda c: {**c, "designs": {"kind": "ber"}}),
                       "{src}designs must be a list of objects, got {{'kind': 'ber'}}"),
    "estimators-string": (_sim(lambda c: {**c, "estimators": "ht"}),
                          "{src}estimators must be a list of strings, got 'ht'"),
    "replications-float": (_sim(lambda c: {**c, "replications": 50.7}),
                           "{src}replications must be an integer, got 50.7"),
    "seed-bool": (_sim(lambda c: {**c, "seed": True}),
                  "{src}seed must be an integer, got True"),
    "clustering-list": (_sim(lambda c: {**c, "clustering": [1, 2]}),
                        "{src}clustering must be a string, got [1, 2]"),
    "block-size-string": (_sim(lambda c: {**c, "designs": [{"kind": "ibr",
                                                            "block_size": "two"}]}),
                          "{src}designs[0].block_size must be an integer, got 'two'"),
    "alpha-list": (_sim(lambda c: {**c, "model": {"kind": "linear", "alpha": [1]}}),
                   "{src}model.alpha must be a number, got [1]"),
    "missing-model": (_sim(lambda c: {k: v for k, v in c.items() if k != "model"}),
                      "{src}simulate config is missing required key 'model'"),
    "config-list": (_sim(lambda c: [1]), "{src}simulate config must be an object, got [1]"),
    "config-seed-negative": (_sim(lambda c: {**c, "seed": -1}),
                             "seed must be non-negative, got -1"),
    "duplicate-design": (_sim(lambda c: {**c, "designs": [{"kind": "ber"}, {"kind": "ber"}]}),
                         "duplicate design name 'ber'"),
    "duplicate-gamma": (_sim(lambda c: {**c, "gammas": [1, 0.5, 1.0]}),
                        "duplicate gamma 1.0"),
    "replications-one": (_sim(lambda c: {**c, "replications": 1}),
                         "replications must be at least 2 (a standard deviation needs two "
                         "draws), got 1"),
    "estimators-empty": (_sim(lambda c: {**c, "estimators": []}),
                         "at least one estimator is required"),
    "duplicate-estimator": (_sim(lambda c: {**c, "estimators": ["ht", "ht"]}),
                            "duplicate estimator 'ht'"),
    "bundle-missing-cell": (_bundle({"designs": ["ber"], "gammas": [0.5],
                                     "estimators": ["ht"], "cells": []}),
                            "{src}has no cell for design 'ber', gamma 0.5 and estimator 'ht'"),
    "bundle-cell-number": (_one_cell_bundle(cells=[1]),
                           "bundle {tmp}/report.json: bundle.cells[0] must be an object, got 1"),
    "bundle-not-an-object": (_bundle([1, 2]),
                             "bundle {tmp}/report.json: bundle must be an object, got [1, 2]"),
    "bundle-cell-without-gamma": (_one_cell_bundle(cells=[{k: v for k, v in CELL.items()
                                                           if k != "gamma"}]),
                                  "bundle {tmp}/report.json: bundle.cells[0] is missing key "
                                  "'gamma'"),
    "bundle-minima-list": (_one_cell_bundle(minima=[1]),
                           "bundle {tmp}/report.json: bundle.minima must be an object, got [1]"),
    "bundle-estimators-string": (_one_cell_bundle(estimators="ht"),
                                 "bundle {tmp}/report.json: bundle.estimators must be a list of "
                                 "strings, got 'ht'"),
    "manifest-without-out": (_cluster_manifest(lambda c: c.pop("out")),
                             "{src}cluster config is missing required key 'out'"),
    "manifest-graph-format": (_cluster_manifest(lambda c: c.update(graph_format="auto")),
                              "{src}unknown cluster config key 'graph_format'"),
    "analysis-alpha-nan": (_sim(lambda c: {**c, "model": {"kind": "analysis",
                                                         "alpha": float("nan")}}),
                           "alpha must be finite, got nan for unit 0"),
    "flag-analyze-missing-design": (_flags("analyze", "--graph", "GRAPH",
                                           "--clusters", "CLUSTERS", "--out", "OUT"),
                                    "--design is required"),
    "manifest-resolution-string": (_cluster_manifest(lambda c: c.update(resolution="high")),
                                   "{src}resolution must be a number, got 'high'"),
    "flag-seed-negative": (_flags("cluster", "--graph", "GRAPH", "--seed", "-1",
                                  "--out", "OUT"),
                           "seed must be non-negative, got -1"),
    # the workspace's four clusters enumerate exactly, so no Monte Carlo runs
    "flag-analyze-exact-seed-negative": (_flags("analyze", "--graph", "GRAPH", "--clusters",
                                                "CLUSTERS", "--design", "ber", "--seed", "-1",
                                                "--out", "OUT"),
                                         "seed must be non-negative, got -1"),
    "flag-analyze-exact-mc-reps-one": (_flags("analyze", "--graph", "GRAPH", "--clusters",
                                              "CLUSTERS", "--design", "cr", "--mc-reps", "1",
                                              "--out", "OUT"),
                                       "replications must be at least 2 (a standard "
                                       "deviation needs two draws), got 1"),
    "flag-analyze-gamma-zero": (_flags("analyze", "--graph", "GRAPH", "--clusters", "CLUSTERS",
                                       "--design", "cr", "--gamma", "0", "--out", "OUT"),
                                "omega is undefined for gamma = 0"),
    "flag-resolution-nan": (_flags("cluster", "--graph", "GRAPH", "--resolution", "nan",
                                   "--seed", "1", "--out", "OUT"),
                            "resolution must be positive and finite, got nan"),
    "flag-missing": (_flags("optimize", "--graph", "GRAPH", "--out", "OUT"),
                     "--clusters is required (or pass --from-manifest)"),
    # 18 digits always fit int64, 20 do not
    "clustering-id-too-long": (_clusters(b"0 0\n1 999999999999999999\n2 99999999999999999999\n"),
                               "{tmp}/c.txt:3: id too large in '2 99999999999999999999'"),
    "clustering-not-utf8": (_clusters(b"0 0\n1 0\n2 \xff\n"),
                            "{tmp}/c.txt: not UTF-8: 'utf-8' codec can't decode byte 0xff in "
                            "position 10: invalid start byte"),
    "absent-graph": (_flags("cluster", "--graph", "G.EL", "--seed", "1", "--out", "OUT"),
                     "file not found: {tmp}/g.el"),
    "absent-clustering": (_flags("optimize", "--graph", "GRAPH", "--clusters", "C.TXT",
                                 "--out", "OUT"),
                          "file not found: {tmp}/c.txt"),
    "absent-warm-start": (_flags("optimize", "--graph", "GRAPH", "--clusters", "CLUSTERS",
                                 "--warm-start", "W.CSV", "--out", "OUT"),
                          "file not found: {tmp}/w.csv"),
    "design-alias": (_sim(lambda c: {**c, "designs": [{"kind": "bernoulli"}]}),
                     "{src}unknown design kind 'bernoulli'; valid: ber, cr, ibr, ocd"),
    "design-kind-list": (_sim(lambda c: {**c, "designs": [{"kind": ["ber"]}]}),
                         "{src}unknown design kind ['ber']; valid: ber, cr, ibr, ocd"),
    "model-kind-list": (_sim(lambda c: {**c, "model": {"kind": ["linear"]}}),
                        "{src}unknown model kind ['linear']; valid: linear, multiplicative, "
                        "analysis"),
    "flag-analyze-design-case": (_flags("analyze", "--graph", "GRAPH", "--clusters",
                                        "CLUSTERS", "--design", "Ber", "--out", "OUT"),
                                 "command line: unknown design kind 'Ber'; valid: ber, cr, "
                                 "ibr, ocd"),
    # ber reads no root, so the missing file is never opened
    "flag-analyze-unread-root": (_flags("analyze", "--graph", "GRAPH", "--clusters",
                                        "CLUSTERS", "--design", "ber", "--root", "MISSING.CSV",
                                        "--out", "OUT"),
                                 "command line: unknown design key 'root'"),
    "flag-analyze-unread-block-size": (_flags("analyze", "--graph", "GRAPH", "--clusters",
                                              "CLUSTERS", "--design", "ocd", "--root",
                                              "ROOT.CSV", "--block-size", "2", "--out", "OUT"),
                                       "command line: unknown design key 'block_size'"),
    "absent-root": (_sim(lambda c: {**c, "designs": [{"kind": "ocd", "root": "r.csv"}]}),
                    "file not found: {tmp}/r.csv"),
    "absent-config": (_flags("simulate", "--config", "SIM.JSON"),
                      "file not found: {tmp}/sim.json"),
    "absent-manifest": (_flags("cluster", "--from-manifest", "M.JSON"),
                        "file not found: {tmp}/m.json"),
    "absent-bundle": (_flags("report", "--bundle", "REPORT.JSON"),
                      "file not found: {tmp}/report.json"),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY))
def test_bad_input_is_one_error_line_naming_it(workspace, capsys, case):
    tmp, _, _, graph_path, clusters_path = workspace
    make, message = BOUNDARY[case]
    argv, src, output = make(tmp, graph_path, clusters_path)
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message.format(src=src, tmp=tmp)}\n"
    assert not output.exists()


@pytest.mark.parametrize("command, flag", [("cluster", "--from-manifest"),
                                           ("simulate", "--config"),
                                           ("report", "--bundle")])
def test_invalid_json_names_its_file(tmp_path, capsys, command, flag):
    bad = tmp_path / "bad.json"
    bad.write_text("{'graph': 1}")
    assert run([command, flag, bad]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {bad}: invalid JSON: Expecting property name")


@pytest.mark.parametrize("command, flag", [("cluster", "--from-manifest"),
                                           ("simulate", "--config"),
                                           ("report", "--bundle")])
def test_json_that_is_not_utf8_names_its_file(tmp_path, capsys, command, flag):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"graph": \xff}')
    assert run([command, flag, bad]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 10: "
        "invalid start byte\n")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_text_refuses_nan_and_infinity(value):
    assert cd.manifest.json_text({"b": 1, "a": [0.5]}) == '{\n  "a": [\n    0.5\n  ],\n  "b": 1\n}\n'
    with pytest.raises(ValueError):
        cd.manifest.json_text({"f": value})


def test_manifest_resolved_config_has_exactly_the_table_keys(workspace):
    from covdesign.cli import _CONFIG

    tmp, _, _, graph_path, clusters_path = workspace
    assert run(["cluster", "--graph", graph_path, "--seed", "1", "--out", tmp / "c.txt"]) == 0
    assert run(["optimize", "--graph", graph_path, "--clusters", clusters_path,
                "--iters", "5", "--out", tmp / "root.csv"]) == 0
    cfg = write_sim_config(tmp, graph_path, clusters_path, replications=10)
    raw = json.loads(cfg.read_text())
    for key in ("gammas", "seed", "estimators", "out_dir"):
        del raw[key]  # filled in from the table
    cfg.write_text(json.dumps(raw))
    assert run(["simulate", "--config", cfg]) == 0
    for command, path in (("cluster", tmp / "c.txt.manifest.json"),
                          ("optimize", tmp / "root.csv.manifest.json"),
                          ("simulate", tmp / "simulation-out" / "simulate.manifest.json")):
        manifest = json.loads(path.read_text())
        assert set(manifest["resolved_config"]) == set(_CONFIG[command]), command


# the flags each command takes besides one per key of its table
EXTRA_FLAGS = {"cluster": {"--from-manifest"}, "optimize": {"--from-manifest"},
               "simulate": {"--from-manifest", "--config", "--workers"}, "analyze": set()}


def test_each_command_has_one_flag_per_table_key():
    from covdesign.cli import _CONFIG, build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {command: {a.option_strings[0]: a.dest for a in parser._actions
                       if a.option_strings[0] not in ("-h", "--help")}
             for command, parser in sub.choices.items()}
    assert flags["cluster"].keys() == {"--graph", "--resolution", "--seed", "--out",
                                       "--from-manifest"}
    assert flags["optimize"].keys() == {"--graph", "--clusters", "--omega", "--iters",
                                        "--warm-start", "--out", "--from-manifest"}
    assert flags["simulate"].keys() == {"--reps", "--seed", "--out-dir", "--from-manifest",
                                        "--config", "--workers"}
    assert flags["analyze"].keys() == {"--graph", "--clusters", "--design", "--block-size",
                                       "--root", "--gamma", "--beta", "--omega", "--mc-reps",
                                       "--seed", "--out"}
    assert flags["report"].keys() == {"--bundle", "--estimator"}
    for command, extra in EXTRA_FLAGS.items():
        keys = {dest for flag, dest in flags[command].items() if flag not in extra}
        assert keys == (set(_CONFIG[command]) if command != "simulate"
                        else {"replications", "seed", "out_dir"}), command

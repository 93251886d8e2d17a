import ast
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import covdesign
import covdesign.cli  # noqa: F401  (REMOVED names a cli helper)

# names that went with the unit-level outcome path, the optimizer's views of
# evaluate_root, the second paths to Cov[t] and f, the unit-level estimator
# wrappers, the test-only covariance check, the single-matrix orthant entry
# points, the base levels outside ClusterModel, the balanced blocks'
# treated-count table, the design kind aliases, the unit-level oracles, the
# second JSON writer, the second report table, and the second cluster-level
# view beside the cluster law with its edge walk, with the module that held each
REMOVED = {
    "outcomes": ("eval_sim", "eval_analysis", "gate_sim", "gate_analysis"),
    "graph": ("expand_treatment",),
    "optimizer": ("objective_from_root", "gradient_from_root", "project_rows",
                  "covariance_from_root"),
    "analysis": ("objective_f", "is_valid_covariance"),
    "estimators": ("EstimateRecord", "ht", "ht_adjusted", "dim"),
    "orthant": ("sign_pair_moment", "orthant_quadrivariate", "sign_quad_moment", "_as_batch"),
    "simulation": ("baseline_levels",),
    "designs": ("_balanced_subset_probs", "_ALIASES"),
    "manifest": ("write_manifest",),
    "cli": ("_report_table",),
    "clustering": ("ClusterSummary", "contact_matrix"),
}

LAZY = ("networkx", "scipy.integrate", "scipy.sparse", "scipy.sparse.csgraph", "multiprocessing")


def test_import_loads_no_enumeration_or_clustering_only_module():
    """`import covdesign` (and the CLI) must not pay for modules that only
    large graphs' Monte Carlo needs (scipy's sparse matrices), nor for
    scipy's quadrature and graph routines, networkx or multiprocessing,
    which covdesign no longer uses."""
    src = str(Path(covdesign.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import json, sys, covdesign, covdesign.cli; "
            f"print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert json.loads(out.stdout) == []


def test_enumeration_loads_no_quadrature_or_graph_routines():
    """Exact enumeration of a correlated block design (run_exact and
    variance_exact) is plain numpy: it must load neither scipy's adaptive
    quadrature nor its sparse matrices or graph routines."""
    src = str(Path(covdesign.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """
import json, sys
import numpy as np
import covdesign as cd
graph, clustering = cd.generate_sbm([3] * 6, 0.6, 0.1, seed=2)
root = np.zeros((6, 6))
for block in (slice(0, 4), slice(4, 6)):
    r = np.random.default_rng(block.start).standard_normal((block.stop - block.start,) * 2)
    root[block, block] = r / np.linalg.norm(r, axis=1, keepdims=True)
design = cd.SignGaussianDesign(root)
model = cd.AnalysisModelParams.uniform(graph.n)
cd.run_exact(graph, clustering, (("ocd", design),), model, gammas=(1.0,))
summary = cd.build_cluster_summary(graph, clustering)
cd.variance_exact(summary, cd.h_vector(model, graph, clustering), 1.0, design)
print(json.dumps([m for m in ("scipy.integrate", "scipy.sparse", "scipy.sparse.csgraph")
                  if m in sys.modules]))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert json.loads(out.stdout) == []


def test_small_graph_pipeline_loads_no_sparse_matrices(tmp_path):
    """Below `simulation.DENSE_CELLS` unit x cluster cells the whole pipeline
    is plain numpy: `cluster`, `optimize`, `simulate` with each outcome
    model, `analyze`, `run_exact` and `variance_exact` must not load
    `scipy.sparse`."""
    src = str(Path(covdesign.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """
import json, sys
import numpy as np
import covdesign as cd
from covdesign.cli import main
graph, planted = cd.generate_sbm([4] * 6, 0.7, 0.1, seed=3)
cd.save_edge_list(graph, "g.el")
steps = [main(["cluster", "--graph", "g.el", "--seed", "1", "--out", "c.txt"])]
clustering = cd.read_clustering("c.txt", n=graph.n)
steps.append(main(["optimize", "--graph", "g.el", "--clusters", "c.txt", "--iters", "30",
                   "--out", "root.csv"]))
for kind, extra in (("linear", {"c": 0.5, "sigma": 0.1}),
                    ("multiplicative", {"c": 0.5, "sigma": 0.1}), ("analysis", {})):
    with open(kind + ".json", "w") as fh:
        json.dump({"graph": "g.el", "clustering": "c.txt", "gammas": [1.0],
                   "designs": [{"kind": "ber"}, {"kind": "ocd", "root": "root.csv"}],
                   "model": {"kind": kind, "alpha": 1, "beta": 1, **extra},
                   "replications": 70, "seed": 2, "out_dir": kind}, fh)
    steps.append(main(["simulate", "--config", kind + ".json"]))
steps.append(main(["analyze", "--graph", "g.el", "--clusters", "c.txt", "--design", "ocd",
                   "--root", "root.csv", "--out", "a.json"]))
design = cd.make_design("cr", planted.k)
model = cd.AnalysisModelParams.uniform(graph.n)
cd.run_exact(graph, planted, (("cr", design),), model)
summary = cd.build_cluster_summary(graph, planted)
cd.variance_exact(summary, cd.h_vector(model, graph, planted), 1.0, design)
print(json.dumps([steps, "scipy.sparse" in sys.modules]))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [[0] * 6, False]


def test_linear_model_loads_no_sparse_matrices_above_the_dense_limit():
    """Every K x K sum of the `linear` model is a `ClusterLaw.weighted` sum,
    so its Monte Carlo loads no `scipy.sparse` even where the neighbour
    counts are too many and too sparse to be dense; the `multiplicative`
    model's noise still needs the sparse counts there."""
    src = str(Path(covdesign.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """
import json, sys
import covdesign as cd
graph, clustering = cd.generate_sbm([20] * 60, 0.3, 0.002, seed=4)
cells, nonzero = graph.n * clustering.k, cd.cluster_law(graph, clustering).neighbours[2].size
assert cells > cd.simulation.DENSE_CELLS and cells > cd.simulation.DENSE_FILL * nonzero
loaded = []
for kind in ("linear", "multiplicative"):
    model = cd.SimModelParams(kind, c=0.5, sigma=0.1)
    cd.run_mc(cd.SimConfig(law=cd.cluster_law(graph, clustering),
                           designs=(("ber", cd.make_design("ber", clustering.k)),),
                           model=model, gammas=(1.0,), replications=8))
    loaded.append("scipy.sparse" in sys.modules)
print(json.dumps(loaded))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert json.loads(out.stdout) == [False, True]


def test_scipy_is_imported_only_for_the_sparse_neighbour_counts():
    """The one `import scipy...` under the package is the one in
    `simulation._neighbour_counts`, which only the multiplicative model's
    noise calls, and which loads it only for counts too many and too sparse
    to hold dense."""
    sites = []
    for path in sorted(Path(covdesign.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in ast.walk(tree):
            for node in ast.iter_child_nodes(scope):
                names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
                if any(name.split(".")[0] == "scipy" for name in names):
                    sites.append((path.stem, getattr(scope, "name", None)))
    assert sites == [("simulation", "_neighbour_counts")]


def test_public_surface():
    """Every exported name resolves, and the removed names are gone from the
    package, from their modules, for `neighbor_sums` and `adjacency` from
    `Graph`, for `members` from `Clustering`, for the summary and the stored
    weighted contact matrices from `ClusterLaw`, for `for_graph`, the stored
    `mean_degree` and the unread `gamma` from `SimModelParams`, for the
    test-only root collection from `optimize` and `OptTrace`, and for the
    unread `trace` from `OptimizationError`, a ValueError like every other
    refusal."""
    assert [name for name in covdesign.__all__ if not hasattr(covdesign, name)] == []
    for module, names in REMOVED.items():
        for name in names:
            assert name not in covdesign.__all__
            assert not hasattr(covdesign, name)
            assert not hasattr(getattr(covdesign, module), name)
    for name in ("neighbor_sums", "adjacency", "_adjacency"):
        assert not hasattr(covdesign.Graph, name)
    assert not hasattr(covdesign.Clustering, "members")
    for name in ("summary", "inverse_contact", "degree_contact"):
        assert not hasattr(covdesign.ClusterLaw, name)
    assert not hasattr(covdesign.SimModelParams, "for_graph")
    fields = {f.name for f in dataclasses.fields(covdesign.SimModelParams)}
    assert "mean_degree" not in fields and "gamma" not in fields
    assert "roots" not in {f.name for f in dataclasses.fields(covdesign.OptTrace)}
    assert "collect_roots" not in inspect.signature(covdesign.optimize).parameters
    assert issubclass(covdesign.OptimizationError, ValueError)
    assert not hasattr(covdesign.OptimizationError("refused"), "trace")


def test_readme_entry_points_resolve():
    """Every backticked name in README's "Library entry points" paragraph
    is an attribute of `covdesign`."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library entry points\n\n")[1]
    paragraph = section.split("\n\n")[0]
    names = [name for name in re.findall(r"`([^`]+)`", paragraph)
             if name.isidentifier()]
    assert "cluster_estimates" in names
    assert [name for name in names if not hasattr(covdesign, name)] == []

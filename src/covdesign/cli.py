"""Command-line pipeline: cluster -> optimize -> simulate -> analyze/report.

Every command resolves its configuration (CLI > config file > defaults),
executes, and writes a manifest next to its outputs.  Passing
``--from-manifest`` re-runs a command from a previously written manifest,
reproducing its primary outputs byte for byte.  Config files and manifests
are read strictly: a key the command does not know is refused by name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .analysis import (
    bias_closed_form,
    h_vector,
    objective_terms,
    omega_from_model,
    variance_bound,
    variance_exact,
)
from .clustering import build_cluster_summary, louvain, read_clustering, write_clustering
from .designs import DesignEnumerationError, make_design
from .graph import GraphFormatError, load_edge_list
from .manifest import build_manifest, load_manifest, write_manifest
from .optimizer import OptimizerConfig, optimize
from .outcomes import AnalysisModelParams, SimModelParams
from . import simulation  # called through the module, so wrappers on run_mc see the calls

__all__ = ["main"]

_FLOAT_FMT = "%.17g"


def _fail(message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _load_graph(path, fmt="auto"):
    try:
        return load_edge_list(path, fmt)
    except FileNotFoundError:
        raise _fail(f"graph file not found: {path}")
    except GraphFormatError as exc:
        raise _fail(str(exc))


def _load_clustering(path, n):
    try:
        return read_clustering(path, n=n)
    except FileNotFoundError:
        raise _fail(f"clustering file not found: {path}")
    except ValueError as exc:
        raise _fail(str(exc))


def _read_root(path) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except FileNotFoundError:
        raise _fail(f"root matrix file not found: {path}")


def _format_float(x: float) -> str:
    return _FLOAT_FMT % x


def _absolute(path, base: Path | None = None) -> str:
    p = Path(path)
    if p.is_absolute():
        return str(p)
    return str(((base or Path.cwd()) / p).resolve())


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            _format_float(v) if isinstance(v, float) else str(v) for v in row
        ))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _require(ns, *names):
    for name in names:
        if getattr(ns, name.replace("-", "_")) is None:
            raise _fail(f"--{name} is required (or pass --from-manifest)")


def _refuse_unknown(spec: dict, known, what: str, source: str) -> None:
    """Fail on the first key of `spec` outside `known`, naming it."""
    for key in spec:
        if key not in known:
            raise _fail(f"{source}: unknown {what} key {key!r}")


def _config_digest(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


# ---------------------------------------------------------------- cluster

def _resolve_cluster(ns) -> dict:
    _require(ns, "graph", "seed", "out")
    return {
        "graph": _absolute(ns.graph),
        "graph_format": ns.format,
        "resolution": float(ns.resolution),
        "seed": int(ns.seed),
        "out": _absolute(ns.out),
    }


def _run_cluster(cfg: dict) -> dict:
    timings = {}
    t0 = time.perf_counter()
    graph = _load_graph(cfg["graph"], cfg["graph_format"])
    timings["load"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    clustering = louvain(graph, resolution=cfg["resolution"], seed=cfg["seed"])
    timings["cluster"] = time.perf_counter() - t0
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    write_clustering(clustering, out)
    outputs = [out]
    if graph.labels is not None:
        nodemap = out.with_suffix(out.suffix + ".nodemap")
        nodemap.write_text(
            "".join(f"{i} {lab}\n" for i, lab in enumerate(graph.labels)),
            encoding="utf-8",
        )
        outputs.append(nodemap)
    manifest = build_manifest("cluster", cfg, [cfg["graph"]], outputs,
                              {"louvain": cfg["seed"]}, timings)
    write_manifest(manifest, str(out) + ".manifest.json")
    print(f"wrote {out} (K={clustering.k})")
    return manifest


# --------------------------------------------------------------- optimize

def _resolve_optimize(ns) -> dict:
    _require(ns, "graph", "clusters", "out")
    return {
        "graph": _absolute(ns.graph),
        "graph_format": ns.format,
        "clustering": _absolute(ns.clusters),
        "omega": float(ns.omega),
        "iterations": int(ns.iters),
        "step_size": float(ns.lr),
        "trace_stride": int(ns.trace_stride),
        "clamp_epsilon": float(ns.clamp_eps),
        "warm_start": _absolute(ns.warm_start) if ns.warm_start else None,
        "out": _absolute(ns.out),
    }


def _run_optimize(cfg: dict) -> dict:
    timings = {}
    t0 = time.perf_counter()
    graph = _load_graph(cfg["graph"], cfg["graph_format"])
    clustering = _load_clustering(cfg["clustering"], graph.n)
    summary = build_cluster_summary(graph, clustering)
    inputs = [cfg["graph"], cfg["clustering"]]
    r0 = None
    if cfg["warm_start"]:
        r0 = _read_root(cfg["warm_start"])
        if r0.shape != (summary.k, summary.k):
            raise _fail(
                f"warm start has K={r0.shape[0]} but clustering has K={summary.k}"
            )
        inputs.append(cfg["warm_start"])
    timings["load"] = time.perf_counter() - t0

    config = OptimizerConfig(
        iterations=cfg["iterations"],
        step_size=cfg["step_size"],
        clamp_epsilon=cfg["clamp_epsilon"],
        omega=cfg["omega"],
        trace_stride=cfg["trace_stride"],
    )
    t0 = time.perf_counter()
    root, trace = optimize(summary, config, r0=r0)
    timings["optimize"] = time.perf_counter() - t0

    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(out, root, fmt=_FLOAT_FMT, delimiter=",")
    trace_path = out.with_suffix(out.suffix + ".trace.csv")
    _write_csv(trace_path,
               ["iteration", "objective", "bias_term", "variance_term", "clamped",
                "grad_norm"],
               trace.rows())
    sidecar = {
        "k": summary.k,
        "omega": cfg["omega"],
        "iterations": cfg["iterations"],
        "step_size": cfg["step_size"],
        "objective_initial": trace.objective[0],
        "objective_final": trace.objective[-1],
        "bias_term_final": trace.bias_term[-1],
        "variance_term_final": trace.variance_term[-1],
        "clamped_final": trace.clamped[-1],
        "config_digest": _config_digest(cfg),
    }
    sidecar_path = out.with_suffix(out.suffix + ".json")
    sidecar_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    manifest = build_manifest("optimize", cfg, inputs,
                              [out, sidecar_path, trace_path],
                              {}, timings)
    write_manifest(manifest, str(out) + ".manifest.json")
    reduction = 1.0 - trace.objective[-1] / trace.objective[0] if trace.objective[0] else 0.0
    print(f"wrote {out} (f: {trace.objective[0]:.6g} -> {trace.objective[-1]:.6g}, "
          f"reduction {100 * reduction:.2f}%)")
    return manifest


# --------------------------------------------------------------- simulate

_SIM_DEFAULTS = {
    "graph_format": "auto",
    "gammas": [0.5, 1.0, 2.0],
    "replications": 10_000,
    "seed": 0,
    "estimators": ["ht", "dim"],
    "out_dir": "simulation-out",
}
_SIM_REQUIRED = ("graph", "clustering", "designs", "model")
# the keys each command's resolver writes; config files and manifests may
# hold no others
_CONFIG_KEYS = {
    "cluster": ("graph", "graph_format", "resolution", "seed", "out"),
    "optimize": ("graph", "graph_format", "clustering", "omega", "iterations", "step_size",
                 "trace_stride", "clamp_epsilon", "warm_start", "out"),
    "simulate": _SIM_REQUIRED + tuple(_SIM_DEFAULTS),
}
_DESIGN_KEYS = ("kind", "name", "block_size", "root")
_SIM_MODEL_KEYS = ("kind", "alpha", "beta", "c", "sigma", "gamma")
_MODEL_KEYS = {"linear": _SIM_MODEL_KEYS, "multiplicative": _SIM_MODEL_KEYS,
               "analysis": ("kind", "alpha", "beta", "gamma")}


def _check_config_keys(cfg: dict, command: str, source: str) -> None:
    """Refuse unknown keys of a config and of `simulate`'s nested specs (an
    unknown model kind is left to `_build_model`, which lists the valid ones)."""
    _refuse_unknown(cfg, _CONFIG_KEYS[command], f"{command} config", source)
    if command != "simulate":
        return
    for spec in cfg.get("designs", ()):
        _refuse_unknown(spec, _DESIGN_KEYS, "design", source)
    model = cfg.get("model", {})
    if model.get("kind") in _MODEL_KEYS:
        _refuse_unknown(model, _MODEL_KEYS[model["kind"]], "model", source)
    if isinstance(cfg.get("clustering"), dict):
        _refuse_unknown(cfg["clustering"], ("resolution", "seed"), "clustering", source)


def _resolve_simulate(ns) -> dict:
    try:
        with open(ns.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise _fail(f"config file not found: {ns.config}")
    _check_config_keys(cfg, "simulate", f"config {ns.config}")
    for key, default in _SIM_DEFAULTS.items():
        cfg.setdefault(key, default)
    for key in _SIM_REQUIRED:
        if key not in cfg:
            raise _fail(f"config is missing required key {key!r}")
    if ns.reps is not None:
        cfg["replications"] = int(ns.reps)
    if ns.seed is not None:
        cfg["seed"] = int(ns.seed)
    # relative paths in the config count from the config file's directory
    # (a CLI --out-dir counts from the working directory instead); the
    # manifest stores them absolute so re-runs work from anywhere
    base = Path(ns.config).resolve().parent
    cfg["graph"] = _absolute(cfg["graph"], base)
    if isinstance(cfg["clustering"], str):
        cfg["clustering"] = _absolute(cfg["clustering"], base)
    for spec in cfg["designs"]:
        if "root" in spec:
            spec["root"] = _absolute(spec["root"], base)
    if ns.out_dir is not None:
        cfg["out_dir"] = _absolute(ns.out_dir)
    else:
        cfg["out_dir"] = _absolute(cfg["out_dir"], base)
    return cfg


def _build_model(spec: dict, graph):
    kind = spec.get("kind")
    if kind in ("linear", "multiplicative"):
        return SimModelParams.for_graph(
            graph, kind,
            alpha=spec.get("alpha", 1.0), beta=spec.get("beta", 1.0),
            c=spec.get("c", 0.5), sigma=spec.get("sigma", 0.1),
            gamma=spec.get("gamma", 1.0),
        )
    if kind == "analysis":
        n = graph.n
        return AnalysisModelParams(
            alpha=np.full(n, float(spec.get("alpha", 0.0))),
            beta=np.full(n, float(spec.get("beta", 1.0))),
            gamma=float(spec.get("gamma", 1.0)),
        )
    raise _fail(f"unknown model kind {kind!r}; valid: linear, multiplicative, analysis")


def _build_designs(specs, summary):
    designs = []
    for spec in specs:
        block_size = int(spec.get("block_size", 2))
        root = _read_root(spec["root"]) if "root" in spec else None
        try:
            design = make_design(spec.get("kind", ""), summary.k, summary=summary,
                                 block_size=block_size, root=root)
        except ValueError as exc:
            raise _fail(str(exc))
        default = f"ibr-{block_size}" if design.kind == "ibr" else design.kind
        designs.append((spec.get("name", default), design))
    return tuple(designs)


def _run_simulate(cfg: dict) -> dict:
    timings = {}
    t0 = time.perf_counter()
    graph = _load_graph(cfg["graph"], cfg["graph_format"])
    inputs = [cfg["graph"]]
    if isinstance(cfg["clustering"], str):
        clustering = _load_clustering(cfg["clustering"], graph.n)
        inputs.append(cfg["clustering"])
    else:
        spec = cfg["clustering"]
        clustering = louvain(graph, resolution=float(spec.get("resolution", 1.0)),
                             seed=int(spec.get("seed", 0)))
    summary = build_cluster_summary(graph, clustering)
    designs = _build_designs(cfg["designs"], summary)
    inputs += [spec["root"] for spec in cfg["designs"] if "root" in spec]
    model = _build_model(cfg["model"], graph)
    timings["load"] = time.perf_counter() - t0

    sim_config = simulation.SimConfig(
        graph=graph,
        clustering=clustering,
        designs=designs,
        model=model,
        gammas=tuple(float(g) for g in cfg["gammas"]),
        estimators=tuple(cfg["estimators"]),
        replications=int(cfg["replications"]),
        base_seed=int(cfg["seed"]),
    )
    t0 = time.perf_counter()
    report = simulation.run_mc(sim_config)
    timings["simulate"] = time.perf_counter() - t0

    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    model_kind = cfg["model"]["kind"]
    for estimator in report.estimators:
        path = out_dir / f"report_{model_kind}_{estimator}.csv"
        _write_csv(path, *(_report_table(report, estimator)))
        outputs.append(path)
    bundle = report.to_dict()
    bundle["meta"]["model"] = cfg["model"]
    # the output location stays out of the echo so outputs are byte-identical
    # wherever they are written (it lives in the manifest)
    bundle["meta"]["config"] = {k: v for k, v in cfg.items() if k != "out_dir"}
    bundle_path = out_dir / "report.json"
    bundle_path.write_text(json.dumps(bundle, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    outputs.append(bundle_path)
    manifest = build_manifest("simulate", cfg, inputs, outputs,
                              {"base_seed": cfg["seed"]}, timings)
    write_manifest(manifest, out_dir / "simulate.manifest.json")
    print(f"wrote {bundle_path} ({len(report.cells)} cells)")
    return manifest


def _report_table(report: simulation.SimReport, estimator: str):
    header = ["method"]
    for gamma in report.gammas:
        tag = f"{gamma:g}"
        header += [f"bias_{tag}", f"sd_{tag}", f"mse_{tag}"]
    rows = []
    for design in report.designs:
        row: list = [design]
        for gamma in report.gammas:
            cell = report.cell(design, gamma, estimator)
            row += [cell.bias, cell.sd, cell.mse]
        rows.append(row)
    return header, rows


# ---------------------------------------------------------------- analyze

def _run_analyze(ns) -> dict:
    graph = _load_graph(ns.graph, ns.format)
    clustering = _load_clustering(ns.clusters, graph.n)
    summary = build_cluster_summary(graph, clustering)
    root = _read_root(ns.root) if ns.root else None
    try:
        design = make_design(ns.design, summary.k, summary=summary,
                             block_size=ns.block_size, root=root)
    except ValueError as exc:
        raise _fail(str(exc))
    model = AnalysisModelParams.uniform(graph.n, alpha=0.0, beta=ns.beta,
                                        gamma=ns.gamma)
    h = h_vector(model, graph, clustering)
    cov = design.covariance()
    omega_star = omega_from_model(summary, h, ns.gamma)
    omega = ns.omega if ns.omega is not None else omega_star
    bias = bias_closed_form(summary, cov, ns.gamma)
    variance: dict = {}
    if summary.k <= ns.exact_max_k:
        try:
            exact = variance_exact(summary, h, ns.gamma, design, k_max=ns.exact_max_k)
            variance = {"value": exact.variance, "method": "exact", "se": 0.0}
        except DesignEnumerationError:
            pass
    if not variance:
        report = simulation.run_mc(simulation.SimConfig(
            graph=graph, clustering=clustering, designs=(("design", design),),
            model=model, gammas=(ns.gamma,), estimators=("ht_adjusted",),
            replications=ns.mc_reps, base_seed=ns.seed,
        ))
        cell = report.cells[0]
        variance = {"value": cell.sd**2, "method": "monte-carlo",
                    "se": 2.0 * cell.sd * cell.se_sd, "replications": ns.mc_reps}
    bias_term, variance_term = objective_terms(summary, cov, omega)
    result = {
        "design": ns.design,
        "k": summary.k,
        "n": graph.n,
        "gamma": ns.gamma,
        "beta": ns.beta,
        "bias": bias,
        "variance": variance,
        "variance_bound": variance_bound(summary, cov, ns.gamma, omega),
        "omega_star": omega_star,
        "omega_used": omega,
        "objective": {"f": bias_term + variance_term,
                      "bias_term": bias_term, "variance_term": variance_term},
    }
    text = json.dumps(result, indent=2, sort_keys=True)
    if ns.out:
        Path(ns.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {ns.out}")
    else:
        print(text)
    return result


# ----------------------------------------------------------------- report

def _run_report(ns) -> None:
    try:
        with open(ns.bundle, "r", encoding="utf-8") as fh:
            bundle = json.load(fh)
    except FileNotFoundError:
        raise _fail(f"bundle file not found: {ns.bundle}")
    cells = {(c["design"], c["gamma"], c["estimator"]): c for c in bundle["cells"]}
    minima = bundle.get("minima", {})
    estimators = bundle["estimators"] if ns.estimator is None else [ns.estimator]
    lines = []
    for estimator in estimators:
        lines.append(f"estimator: {estimator}")
        head = f"{'method':<12}" + "".join(
            f"{'bias(g=%g)' % g:>14}{'sd':>10}{'mse':>10}" for g in bundle["gammas"]
        )
        lines.append(head)
        for design in bundle["designs"]:
            row = f"{design:<12}"
            for gamma in bundle["gammas"]:
                c = cells[(design, gamma, estimator)]
                flag = "*" if minima.get(f"{estimator}|gamma={gamma:g}") == design else " "
                row += f"{c['bias']:>14.4f}{c['sd']:>10.4f}{c['mse']:>9.4f}{flag}"
            lines.append(row)
        lines.append("(* = minimum MSE in its column group)")
    print("\n".join(lines))


# ------------------------------------------------------------------- main

def _add_common_graph_args(p, required=True):
    p.add_argument("--graph", required=required, help="edge list or MatrixMarket file")
    p.add_argument("--format", default="auto",
                   choices=["auto", "edgelist", "plain-edge-list", "matrix-market"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covdesign",
        description="design and validate cluster-level randomized network experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="partition a graph with Louvain")
    _add_common_graph_args(p, required=False)
    p.add_argument("--resolution", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--from-manifest", default=None)

    p = sub.add_parser("optimize", help="optimize the treatment-covariance root")
    _add_common_graph_args(p, required=False)
    p.add_argument("--clusters", default=None)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--trace-stride", type=int, default=10)
    p.add_argument("--clamp-eps", type=float, default=1e-6)
    p.add_argument("--warm-start", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--from-manifest", default=None)

    p = sub.add_parser("simulate", help="Monte Carlo design comparison from a config file")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    # accepted only because the benchmark harness still passes it; it has no
    # effect and is recorded nowhere, and goes once the harness stops passing it
    p.add_argument("--workers", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--from-manifest", default=None)

    p = sub.add_parser("analyze", help="closed-form and oracle diagnostics for one design")
    _add_common_graph_args(p)
    p.add_argument("--clusters", required=True)
    p.add_argument("--design", required=True)
    p.add_argument("--block-size", type=int, default=2)
    p.add_argument("--root", default=None)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=None,
                   help="comparability constant (default: smallest feasible)")
    p.add_argument("--exact-max-k", type=int, default=16)
    p.add_argument("--mc-reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("report", help="render a simulation bundle as a table")
    p.add_argument("--bundle", required=True)
    p.add_argument("--estimator", default=None)

    return parser


def _config_from_manifest(path, expected_command: str) -> dict:
    manifest = load_manifest(path)
    if manifest["command"] != expected_command:
        raise _fail(f"manifest {path} was written by {manifest['command']!r}, "
                    f"not {expected_command!r}")
    _check_config_keys(manifest["resolved_config"], expected_command, f"manifest {path}")
    return manifest["resolved_config"]


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if ns.command == "cluster":
            cfg = (_config_from_manifest(ns.from_manifest, "cluster")
                   if ns.from_manifest else _resolve_cluster(ns))
            _run_cluster(cfg)
        elif ns.command == "optimize":
            cfg = (_config_from_manifest(ns.from_manifest, "optimize")
                   if ns.from_manifest else _resolve_optimize(ns))
            _run_optimize(cfg)
        elif ns.command == "simulate":
            if ns.workers not in (None, 1):
                warnings.warn("simulate --workers has no effect: the process pool was "
                              "removed and simulate runs serially", stacklevel=2)
            if ns.from_manifest:
                cfg = _config_from_manifest(ns.from_manifest, "simulate")
            else:
                if not ns.config:
                    raise _fail("simulate needs --config or --from-manifest")
                cfg = _resolve_simulate(ns)
            _run_simulate(cfg)
        elif ns.command == "analyze":
            _run_analyze(ns)
        elif ns.command == "report":
            _run_report(ns)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

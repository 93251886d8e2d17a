"""Command-line pipeline: cluster -> optimize -> simulate -> analyze/report.

Every command but `report` resolves its configuration (CLI > config file >
defaults) and executes; `cluster`, `optimize` and `simulate` also write a
manifest next to their outputs.  Passing ``--from-manifest`` re-runs one of
these from a previously written manifest, reproducing its primary outputs
byte for byte.  One table (`_CONFIG`) gives every key of each command's
resolved config with its type and default; the command-line flags are
made from it, and flags, config files and manifests are checked against it
by name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
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
from .clustering import (
    cluster_law,
    louvain,
    read_clustering,
    read_law,
    write_clustering,
    write_law,
)
from .designs import DesignEnumerationError, make_design
from .graph import load_edge_list
from .manifest import build_manifest, json_text, load_manifest, numerics, read_json, write_json
from . import manifest  # digests through the module, so wrappers on file_digest see them
from .optimizer import OptimizerConfig, OptTrace, optimize
from .outcomes import AnalysisModelParams, SimModelParams
from . import simulation  # called through the module, so wrappers on run_mc see the calls

__all__ = ["main"]

_FLOAT_FMT = "%.17g"


def _fail(message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _law_path(clustering_path) -> str:
    return str(clustering_path) + ".law.npz"


def _load(cfg: dict, paths, timings: dict):
    """``(digests, law, source)``: the digests of `paths` (the config's graph
    and clustering first), and the cluster law, read from the partition's
    law file when it matches both digests and else built from the parsed
    files, never written.  `source` says which, and why."""
    t0 = time.perf_counter()
    digests = manifest.input_digests(paths)
    timings["digest"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    path = _law_path(cfg["clustering"])
    law, reason = read_law(path, digests[cfg["graph"]], digests[cfg["clustering"]])
    if law is not None:
        timings["law"] = time.perf_counter() - t0
        return digests, law, {"source": "read", "reason": None}
    if reason != "missing":
        warnings.warn(f"{path}: {reason} cluster law not used; built from the graph and "
                      "partition instead", stacklevel=2)
    graph = load_edge_list(cfg["graph"])
    law = cluster_law(graph, read_clustering(cfg["clustering"], n=graph.n))
    timings["parse"] = time.perf_counter() - t0
    return digests, law, {"source": "built", "reason": reason}


def _read_root(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _absolute(path, base: Path | None = None) -> str:
    p = Path(path)
    return str(p if p.is_absolute() else ((base or Path.cwd()) / p).resolve())


def _write_root(path, root: np.ndarray, k: int) -> None:
    """`root` zero-padded to K columns, byte for byte as `np.savetxt` writes
    the padded matrix with `_FLOAT_FMT`; only the K x p entries are formatted."""
    row = ",".join([_FLOAT_FMT] * root.shape[1]) + ",0" * (k - root.shape[1]) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(row % tuple(r) for r in root))


def _write_csv(path, header, rows) -> None:
    cells = ([_FLOAT_FMT % v if isinstance(v, float) else str(v) for v in row] for row in rows)
    lines = [",".join(line) + "\n" for line in (header, *cells)]
    Path(path).write_text("".join(lines), encoding="utf-8")


# ----------------------------------------------------------------- config
#
# A type is float (JSON integers pass), `_FINITE` (a float that is not NaN or
# infinite), int, str, None, dict (any object), `[t]` (a list of t), a tuple
# of alternatives, a `_Spec` (a nested object's key types and the keys it
# requires) or a plain dict of `_Spec`s by kind (`_DESIGNS`, `_MODELS`: a
# nested object whose keys are the ones its kind reads).  No bool passes as a
# number.  Nested specs get no defaults: the library constructors own them.

class _Spec(dict):
    def __init__(self, what: str, required=(), **types):
        super().__init__(types)
        self.what, self.required = what, required


_REQUIRED = object()
_FINITE = "finite"
_DESIGNS = {kind: _Spec("design", kind=str, name=str, **reads) for kind, reads in (
    ("ber", {}), ("cr", {}), ("ibr", {"block_size": int}), ("ocd", {"root": str}))}
# the multiplicative model does not read `c`; the benchmark's configs still send it
_SIM_MODEL = _Spec("model", kind=str, alpha=float, beta=float, c=float, sigma=float)
_MODELS = {"linear": _SIM_MODEL, "multiplicative": _SIM_MODEL,
           "analysis": _Spec("model", kind=str, alpha=float, beta=float)}
_OPT = OptimizerConfig
# a report bundle (`SimReport.to_dict`); a cell's floats are null where undefined
_STATS = ("bias", "sd", "mse")
_CELL = _Spec("cell", required=("design", "gamma", "estimator", *_STATS), design=str,
              gamma=float, estimator=str, replications=int, valid=int,
              **dict.fromkeys((*_STATS, "se_bias", "se_sd", "se_mse", "mean_estimate",
                               "oracle", "degenerate_fraction"), (float, None)))
_BUNDLE = _Spec("bundle", required=("designs", "gammas", "estimators", "cells"), kind=str,
                designs=[str], gammas=[float], estimators=[str], cells=[_CELL], minima=dict,
                meta=dict)

# every key of each command's resolved config: (type, default)
_CONFIG = {
    "cluster": {
        "graph": (str, _REQUIRED), "resolution": (float, 1.0), "seed": (int, _REQUIRED),
        "out": (str, _REQUIRED),
    },
    "optimize": {
        "graph": (str, _REQUIRED), "clustering": (str, _REQUIRED),
        "omega": (float, _OPT.omega), "iterations": (int, _OPT.iterations),
        "warm_start": ((str, None), None), "out": (str, _REQUIRED),
    },
    "simulate": {
        "graph": (str, _REQUIRED), "clustering": (str, _REQUIRED),
        "designs": ([_DESIGNS], _REQUIRED),
        "model": (_MODELS, _REQUIRED), "gammas": ([float], [0.5, 1.0, 2.0]),
        "replications": (int, simulation.SimConfig.replications),
        "seed": (int, simulation.SimConfig.base_seed),
        "estimators": ([str], list(simulation.SimConfig.estimators)),
        "out_dir": (str, "simulation-out"),
    },
    "analyze": {
        "graph": (str, _REQUIRED), "clustering": (str, _REQUIRED), "design": (str, _REQUIRED),
        "block_size": ((int, None), None), "root": ((str, None), None),
        "gamma": (_FINITE, 1.0), "beta": (_FINITE, 1.0), "omega": (_FINITE, None),
        "mc_reps": (int, 100_000), "seed": (int, 0),
        "out": ((str, None), None),
    },
}
# the commands that write a manifest, and so can re-run from one
_MANIFESTED = ("cluster", "optimize", "simulate")
# the only keys simulate takes as flags; the rest come from its --config file
_SIMULATE_FLAGS = ("replications", "seed", "out_dir")
# flag names that are not the key with "-" for "_"
_FLAGS = {"clustering": "clusters", "iterations": "iters", "replications": "reps"}
_TYPE_NAMES = {float: "a number", _FINITE: "a finite number", int: "an integer",
               str: "a string", None: "null", dict: "an object"}


def _describe(typ) -> str:
    if isinstance(typ, list):
        return "a list of " + _describe(typ[0]).split()[-1] + "s"
    if isinstance(typ, tuple):
        return " or ".join(map(_describe, typ))
    return "an object" if isinstance(typ, dict) else _TYPE_NAMES[typ]


def _fits(value, typ) -> bool:
    """Whether `value` has the outer shape of `typ`."""
    if isinstance(typ, tuple):
        return any(_fits(value, t) for t in typ)
    if isinstance(typ, (list, dict)):
        return isinstance(value, list if isinstance(typ, list) else dict)
    if typ is None:
        return value is None
    if typ is _FINITE:
        return _fits(value, float) and math.isfinite(value)
    return not isinstance(value, bool) and isinstance(value, (int, float) if typ is float else typ)


def _refuse_unknown(spec: dict, known, what: str, source: str) -> None:
    """Fail on the first key of `spec` outside `known`, naming it."""
    for key in spec:
        if key not in known:
            raise _fail(f"{source}: unknown {what} key {key!r}")


def _check(value, typ, name: str, source: str) -> None:
    """Refuse `value` unless it is a `typ`, naming it `name`."""
    if isinstance(typ, tuple):
        typ = next((t for t in typ if _fits(value, t)), typ)
    elif type(typ) is dict and isinstance(value, dict):
        kind = value.get("kind")
        if not isinstance(kind, str) or kind not in typ:
            what = next(iter(typ.values())).what
            raise _fail(f"{source}: unknown {what} kind {kind!r}; valid: {', '.join(typ)}")
        typ = typ[kind]
    if not _fits(value, typ):
        raise _fail(f"{source}: {name} must be {_describe(typ)}, got {value!r}")
    if isinstance(typ, list):
        for i, item in enumerate(value):
            _check(item, typ[0], f"{name}[{i}]", source)
    elif isinstance(typ, _Spec):
        _refuse_unknown(value, typ, typ.what, source)
        for key in typ.required:
            if key not in value:
                raise _fail(f"{source}: {name} is missing key {key!r}")
        for key, item in value.items():
            _check(item, typ[key], f"{name}.{key}", source)


def _checked(cfg, command: str, source: str) -> dict:
    """`cfg` checked against `command`'s table and completed with its
    defaults.  Refuses, in this order: a non-object, an unknown key, a
    missing required key, a value of the wrong type.  Converts nothing."""
    table, what = _CONFIG[command], f"{command} config"
    flags = source == "command line"
    if not isinstance(cfg, dict):
        raise _fail(f"{source}: {what} must be an object, got {cfg!r}")
    _refuse_unknown(cfg, table, what, source)
    for key, (_, default) in table.items():
        if default is _REQUIRED and key not in cfg:
            hint = " (or pass --from-manifest)" if command in _MANIFESTED else ""
            raise _fail(f"{_flag(key)} is required{hint}" if flags
                        else f"{source}: {what} is missing required key {key!r}")
    for key, value in cfg.items():
        _check(value, table[key][0], _flag(key) if flags else key, source)
    return {**{key: default for key, (_, default) in table.items()}, **cfg}


def _flag(key: str) -> str:
    return "--" + _FLAGS.get(key, key.replace("_", "-"))


def _absolute_paths(cfg: dict, base: Path | None = None) -> dict:
    for key in ("graph", "clustering", "warm_start", "out", "out_dir"):
        if isinstance(cfg.get(key), str):
            cfg[key] = _absolute(cfg[key], base)
    for spec in cfg.get("designs", ()):
        if "root" in spec:
            spec["root"] = _absolute(spec["root"], base)
    return cfg


def _resolve(command: str, ns) -> dict:
    """The checked config of a manifest, of a `simulate` config file under its
    flags, or of the other commands' flags.  Paths come out absolute: a
    config file's count from its directory, flags' from the working directory."""
    if getattr(ns, "from_manifest", None):
        record = load_manifest(ns.from_manifest)
        if record["command"] != command:
            raise _fail(f"manifest {ns.from_manifest} was written by "
                        f"{record['command']!r}, not {command!r}")
        return _checked(record["resolved_config"], command, f"manifest {ns.from_manifest}")
    flags = {k: v for k, v in vars(ns).items() if k in _CONFIG[command] and v is not None}
    if command != "simulate":
        return _absolute_paths(_checked(flags, command, "command line"))
    if not ns.config:
        raise _fail("simulate needs --config or --from-manifest")
    cfg = _checked(read_json(ns.config), command, f"config {ns.config}")
    return {**_absolute_paths(cfg, Path(ns.config).resolve().parent), **_absolute_paths(flags)}


# ---------------------------------------------------------------- cluster

def _run_cluster(cfg: dict) -> dict:
    timings = {}
    t0 = time.perf_counter()
    digests = manifest.input_digests([cfg["graph"]])
    timings["digest"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    graph = load_edge_list(cfg["graph"])
    timings["parse"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    clustering = louvain(graph, resolution=cfg["resolution"], seed=cfg["seed"])
    timings["cluster"] = time.perf_counter() - t0
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    write_clustering(clustering, out)
    outputs = [out]
    if graph.labels is not None:
        nodemap = out.with_suffix(out.suffix + ".nodemap")
        nodemap.write_text("".join(f"{i} {lab}\n" for i, lab in enumerate(graph.labels)),
                           encoding="utf-8")
        outputs.append(nodemap)
    t0 = time.perf_counter()
    law_path = _law_path(out)
    write_law(cluster_law(graph, clustering), law_path, digests[cfg["graph"]],
              manifest.file_digest(out))
    outputs.append(law_path)
    timings["law"] = time.perf_counter() - t0
    record = build_manifest("cluster", cfg, digests, outputs, {"louvain": cfg["seed"]},
                            timings)
    write_json(record, str(out) + ".manifest.json")
    print(f"wrote {out} (K={clustering.k})")
    return record


# --------------------------------------------------------------- optimize

def _run_optimize(cfg: dict) -> dict:
    timings = {}
    inputs = [cfg["graph"], cfg["clustering"], *filter(None, [cfg["warm_start"]])]
    digests, law, source = _load(cfg, inputs, timings)
    t0 = time.perf_counter()
    r0 = _read_root(cfg["warm_start"]) if cfg["warm_start"] else None
    timings["read"] = time.perf_counter() - t0

    config = OptimizerConfig(iterations=cfg["iterations"], omega=cfg["omega"])
    t0 = time.perf_counter()
    root, trace = optimize(law, config, r0=r0)
    timings["optimize"] = time.perf_counter() - t0

    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    # zero-padded to K x K: the same Gram, and the same design once read back
    _write_root(out, root, law.k)
    trace_path = out.with_suffix(out.suffix + ".trace.csv")
    _write_csv(trace_path, OptTrace.COLUMNS, trace.rows())
    results = {"rank": root.shape[1], "evaluations": trace.evaluations, "stop": trace.stop,
               "stages": [{"epsilon": epsilon, "evaluations": n, "dtype": dtype}
                          for epsilon, n, dtype in trace.stages]}
    sidecar = {
        "k": law.k,
        "omega": cfg["omega"],
        "iterations": cfg["iterations"],
        **results,
        "objective_initial": trace.objective_initial,
        "objective_final": trace.objective[-1],
        "bias_term_final": trace.bias_term[-1],
        "variance_term_final": trace.variance_term[-1],
        "clamped_final": trace.clamped[-1],
        "config_digest": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode("utf-8")).hexdigest()[:16],
    }
    sidecar_path = out.with_suffix(out.suffix + ".json")
    write_json(sidecar, sidecar_path)
    record = build_manifest("optimize", cfg, digests, [out, sidecar_path, trace_path], {},
                            timings, **results, law=source, numerics=numerics())
    write_json(record, str(out) + ".manifest.json")
    start, final = trace.objective_initial, trace.objective[-1]
    reduction = 1.0 - final / start if start else 0.0
    print(f"wrote {out} (f: {start:.6g} -> {final:.6g}, reduction {100 * reduction:.2f}%, "
          f"rank {root.shape[1]}, {trace.evaluations} of {cfg['iterations']} evaluations, "
          f"stop: {trace.stop})")
    return record


# --------------------------------------------------------------- simulate

def _build_design(spec: dict, law):
    """``(name, design)`` of a design spec checked against `_DESIGNS`, which
    holds only the keys its kind reads."""
    block_size = spec.get("block_size", 2)
    root = _read_root(spec["root"]) if "root" in spec else None
    design = make_design(spec["kind"], law.k, summary=law,
                         block_size=block_size, root=root)
    return spec.get("name", f"ibr-{block_size}" if design.kind == "ibr" else design.kind), design


def _run_simulate(cfg: dict) -> dict:
    timings = {}
    inputs = [cfg["graph"], cfg["clustering"], *(s["root"] for s in cfg["designs"] if "root" in s)]
    digests, law, source = _load(cfg, inputs, timings)
    t0 = time.perf_counter()
    designs = tuple(_build_design(spec, law) for spec in cfg["designs"])
    params = {k: v for k, v in cfg["model"].items() if k != "kind"}
    model_kind = cfg["model"]["kind"]
    model = (AnalysisModelParams.uniform(law.n, **params) if model_kind == "analysis"
             else SimModelParams(model_kind, **params))
    timings["read"] = time.perf_counter() - t0

    sim_config = simulation.SimConfig(
        law=law, designs=designs, model=model,
        gammas=tuple(float(g) for g in cfg["gammas"]), estimators=tuple(cfg["estimators"]),
        replications=cfg["replications"], base_seed=cfg["seed"],
    )
    t0 = time.perf_counter()
    report = simulation.run_mc(sim_config)
    timings["simulate"] = time.perf_counter() - t0
    results = {}
    if report.counts is not None:
        results["neighbour_counts"], timings["counts"] = report.counts

    bundle = report.to_dict()
    # the output location stays out of the echo so outputs are byte-identical
    # wherever they are written (it lives in the manifest)
    bundle["meta"]["config"] = {k: v for k, v in cfg.items() if k != "out_dir"}
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle_path = out_dir / "report.json"
    outputs = []
    for estimator in report.estimators:
        path = out_dir / f"report_{model_kind}_{estimator}.csv"
        _write_csv(path, *_table(bundle, estimator, f"bundle {bundle_path}"))
        outputs.append(path)
    write_json(bundle, bundle_path)
    outputs.append(bundle_path)
    record = build_manifest("simulate", cfg, digests, outputs, {"base_seed": cfg["seed"]},
                            timings, law=source, **results)
    write_json(record, out_dir / "simulate.manifest.json")
    print(f"wrote {bundle_path} ({len(report.cells)} cells)")
    return record


def _table(bundle: dict, estimator: str, source: str):
    """Header and rows of `estimator`'s bias, sd and mse per design and gamma in
    a report bundle, with NaN for null; refuses a missing cell by name."""
    cells = {(c["design"], c["gamma"], c["estimator"]): c for c in bundle["cells"]}
    rows = []
    for design in bundle["designs"]:
        row = [design]
        for gamma in bundle["gammas"]:
            cell = cells.get((design, gamma, estimator))
            if cell is None:
                raise _fail(f"{source} has no cell for design {design!r}, "
                            f"gamma {gamma:g} and estimator {estimator!r}")
            row += [math.nan if cell[stat] is None else cell[stat] for stat in _STATS]
        rows.append(row)
    return ["method", *(f"{s}_{g:g}" for g in bundle["gammas"] for s in _STATS)], rows


# ---------------------------------------------------------------- analyze

def _run_analyze(cfg: dict) -> dict:
    spec = {"kind": cfg["design"],
            **{key: cfg[key] for key in ("block_size", "root") if cfg[key] is not None}}
    _check(spec, _DESIGNS, "design", "command line")
    _, law, _ = _load(cfg, [cfg["graph"], cfg["clustering"]], {})
    _, design = _build_design(spec, law)
    gamma = cfg["gamma"]
    model = AnalysisModelParams.uniform(law.n, alpha=0.0, beta=cfg["beta"], gamma=gamma)
    h = h_vector(model, law, law.clustering)
    cov = design.covariance()
    # gamma = 0 implies no omega: omega_from_model refuses it unless --omega is given
    omega_star = (math.inf if gamma == 0.0 and cfg["omega"] is not None
                  else omega_from_model(law, h, gamma))
    if not math.isfinite(omega_star):
        if cfg["omega"] is None:
            cluster = np.flatnonzero((law.cluster_degrees == 0) & (h != 0.0))[0]
            raise ValueError(f"cluster {cluster} has no edges, so no finite omega bounds "
                             "|h_k| by omega·gamma·d_k; pass --omega")
        omega_star = None  # JSON has no infinity
    omega = cfg["omega"] if cfg["omega"] is not None else omega_star
    bias = bias_closed_form(law, cov, gamma)
    # built first so that the seed and --mc-reps are checked on both branches
    mc_config = simulation.SimConfig(
        law=law, designs=(("design", design),),
        model=model, gammas=(gamma,), estimators=("ht_adjusted",),
        replications=cfg["mc_reps"], base_seed=cfg["seed"],
    )
    try:
        exact = variance_exact(law, h, gamma, design)
        variance = {"value": exact.variance, "method": "exact", "se": 0.0}
    except DesignEnumerationError:
        cell = simulation.run_mc(mc_config).cells[0]
        variance = {"value": cell.sd**2, "method": "monte-carlo",
                    "se": 2.0 * cell.sd * cell.se_sd, "replications": cfg["mc_reps"]}
    bias_term, variance_term = objective_terms(law, cov, omega)
    result = {
        "design": cfg["design"],
        "k": law.k,
        "n": law.n,
        "gamma": gamma,
        "beta": cfg["beta"],
        "bias": bias,
        "variance": variance,
        "variance_bound": variance_bound(law, cov, gamma, omega),
        "omega_star": omega_star,
        "omega_used": omega,
        "objective": {"f": bias_term + variance_term,
                      "bias_term": bias_term, "variance_term": variance_term},
    }
    if cfg["out"]:
        write_json(result, cfg["out"])
        print(f"wrote {cfg['out']}")
    else:
        print(json_text(result), end="")
    return result


# ----------------------------------------------------------------- report

def _run_report(ns) -> None:
    bundle, source = read_json(ns.bundle), f"bundle {ns.bundle}"
    _check(bundle, _BUNDLE, "bundle", source)
    if ns.estimator is not None and ns.estimator not in bundle["estimators"]:
        raise _fail(f"{source} has no estimator {ns.estimator!r}; "
                    f"it holds: {', '.join(bundle['estimators'])}")
    minima = bundle.get("minima", {})
    lines = []
    for estimator in bundle["estimators"] if ns.estimator is None else [ns.estimator]:
        lines.append(f"estimator: {estimator}")
        lines.append(f"{'method':<12}" + "".join(
            f"{'bias(g=%g)' % g:>14}{'sd':>10}{'mse':>10}" for g in bundle["gammas"]))
        for design, *stats in _table(bundle, estimator, source)[1]:
            flags = ("*" if minima.get(f"{estimator}|gamma={g:g}") == design else " "
                     for g in bundle["gammas"])
            lines.append(f"{design:<12}" + "".join(
                f"{bias:>14.4f}{sd:>10.4f}{mse:>9.4f}{flag}"
                for bias, sd, mse, flag in zip(stats[::3], stats[1::3], stats[2::3], flags)))
        lines.append("(* = minimum MSE in its column group)")
    print("\n".join(lines))


# ------------------------------------------------------------------- main

_HELP = {
    "cluster": "partition a graph with Louvain",
    "optimize": "optimize the treatment-covariance root",
    "simulate": "Monte Carlo design comparison from a config file",
    "analyze": "closed-form and oracle diagnostics for one design",
}
_ARG_TYPES = {float: float, _FINITE: float, int: int, str: str, (str, None): str,
              (int, None): int}


def build_parser() -> argparse.ArgumentParser:
    """One flag per `_CONFIG` key (simulate: `_SIMULATE_FLAGS`), named by `_flag`."""
    parser = argparse.ArgumentParser(
        prog="covdesign",
        description="design and validate cluster-level randomized network experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, table in _CONFIG.items():
        p = sub.add_parser(command, help=_HELP[command])
        for key in _SIMULATE_FLAGS if command == "simulate" else table:
            p.add_argument(_flag(key), dest=key, type=_ARG_TYPES[table[key][0]])
        if command in _MANIFESTED:
            p.add_argument("--from-manifest")
        if command == "simulate":
            p.add_argument("--config", help="JSON config file")
            # accepted only because the benchmark harness still passes it; it has no
            # effect and is recorded nowhere, and goes once the harness stops passing it
            p.add_argument("--workers", type=int, help=argparse.SUPPRESS)

    p = sub.add_parser("report", help="render a simulation bundle as a table")
    p.add_argument("--bundle", required=True)
    p.add_argument("--estimator", default=None)

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if ns.command == "simulate" and ns.workers not in (None, 1):
            warnings.warn("simulate --workers has no effect: the process pool was "
                          "removed and simulate runs serially", stacklevel=2)
        if ns.command in _CONFIG:
            {"cluster": _run_cluster, "optimize": _run_optimize, "simulate": _run_simulate,
             "analyze": _run_analyze}[ns.command](_resolve(ns.command, ns))
        else:
            _run_report(ns)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except FileNotFoundError as exc:
        return _fail(f"file not found: {exc.filename}").code
    except (ValueError, OSError) as exc:
        return _fail(str(exc)).code
    return 0


if __name__ == "__main__":
    sys.exit(main())

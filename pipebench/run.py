"""Benchmark of the covdesign pipeline: cluster -> optimize -> simulate.

    python3 pipebench/run.py --workload campus --seed 1 --seconds 36 --trace 0

Run from the repository root.  The inputs are generated from ``--seed``
(untimed) under ``.pipebench/``; each round then runs in a fresh
interpreter (worker.py) that drives the CLI in-process, with BLAS pinned
to one thread and ``simulate --workers 1``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced round with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import sbm  # noqa: E402

GAMMAS = (0.5, 2.0)
SIM_MODELS = {
    "linear": {"kind": "linear", "alpha": 1.0, "beta": 1.0, "c": 0.5, "sigma": 0.1},
    "multiplicative": {"kind": "multiplicative", "alpha": 1.0, "beta": 1.0, "c": 0.5,
                       "sigma": 0.1},
    "analysis": {"kind": "analysis", "alpha": 1.0, "beta": 1.0},
}
WORKLOADS = {
    # Stanford3 scale: parsing, Louvain and unit-level Monte Carlo dominate
    "campus": dict(sizes=np.linspace(38, 78, 200).round().astype(int), p_in=0.5,
                   p_out=0.003, fmt="plain", resolution=10.0, iterations=2000,
                   replications=300, models=("linear", "multiplicative"),
                   estimators=("ht", "dim"), enumerate=False),
    # K ~ 600: the optimizer's O(K^3) step and the K^2 ocd draw dominate
    "wide": dict(sizes=np.linspace(8, 12, 600).round().astype(int), p_in=0.7,
                 p_out=0.0008, fmt="matrix-market", resolution=50.0, iterations=200,
                 replications=100, models=("linear", "multiplicative"),
                 estimators=("ht", "dim"), enumerate=False),
    # K = 16: enumeration oracles, orthant quadrature and per-replication cost
    "exact": dict(sizes=np.linspace(13, 17, 16).round().astype(int), p_in=0.5,
                  p_out=0.01, fmt="plain", resolution=4.0, iterations=2000,
                  replications=1000, models=("analysis", "multiplicative"),
                  estimators=("ht", "ht_adjusted", "dim"), enumerate=True),
}
SETUP_SAMPLES = 3  # setup-only interpreters per timed run, besides each round's own
END_TO_END = ("setup_s", "pipeline_s", "peak_rss_mb", "f_design_drop")
# Per-command times are per-layer metrics, taken from the untraced round of a
# traced run: the host's speed swings by up to 1.8x between minutes, which
# moves the short commands (40 ms on exact) by more than any allowed bound.
STAGES = ("cluster_s", "optimize_s", "validate_s")
UNITS = {"peak_rss_mb": "MB", "f_design_drop": "fraction"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us")):
        if name.endswith(suffix) or f"{suffix}." in name or f"{suffix}_" in name:
            return unit
    return "count"


class Workload:
    def __init__(self, name: str, seed: int, threads: int):
        self.name = name
        self.seed = seed
        self.threads = threads
        self.cfg = WORKLOADS[name]
        self.work = ROOT / ".pipebench" / f"{name}-{seed}"
        self.out = self.work / "out"  # emptied before every round
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(threads)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def generate(self) -> None:
        """Write the graph, the planted partition and the simulate configs."""
        cfg = self.cfg
        self.work.mkdir(parents=True, exist_ok=True)
        edges, planted = sbm.sample_sbm(cfg["sizes"], cfg["p_in"], cfg["p_out"], self.seed)
        n = planted.size
        self.inputs = checks.Inputs(n, edges)
        if cfg["fmt"] == "plain":
            self.graph_file = "graph.el"
            sbm.write_plain(edges, self.work / self.graph_file)
        else:
            self.graph_file = "graph.mtx"
            sbm.write_matrix_market(edges, n, self.work / self.graph_file)
        (self.work / "planted.txt").write_text(
            "".join(f"{i} {c}\n" for i, c in enumerate(planted.tolist())), encoding="ascii")
        designs = [{"kind": "ber"}, {"kind": "cr"}, {"kind": "ibr", "block_size": 2},
                   {"kind": "ocd", "root": "out/root.csv"}]
        if cfg["enumerate"]:
            designs.append({"kind": "ocd", "root": "out/block_root.csv", "name": "ocd-block"})
        for model in cfg["models"]:
            config = {"graph": self.graph_file, "clustering": "out/clusters.txt",
                      "designs": designs, "model": SIM_MODELS[model],
                      "gammas": list(GAMMAS), "replications": cfg["replications"],
                      "seed": self.seed, "estimators": list(cfg["estimators"]),
                      "out_dir": f"out/sim-{model}"}
            (self.work / f"sim-{model}.json").write_text(json.dumps(config, indent=1),
                                                         encoding="utf-8")

    def ops_per_round(self) -> int:
        cfg = self.cfg
        exact = 1 + 4 * len(GAMMAS) if cfg["enumerate"] else 0
        return 2 + len(cfg["models"]) + exact

    def spawn(self, mode: str, trace: bool) -> dict:
        """Run worker.py once and return its result."""
        spec = {"mode": mode, "trace": trace, "work": str(self.work), "out": str(self.out),
                "graph_file": self.graph_file, "seed": self.seed,
                "resolution": self.cfg["resolution"], "iterations": self.cfg["iterations"],
                "models": list(self.cfg["models"]), "workers": self.threads,
                "enumerate": self.cfg["enumerate"], "gammas": list(GAMMAS),
                "estimators": list(self.cfg["estimators"]),
                "analysis": {k: SIM_MODELS["analysis"][k] for k in ("alpha", "beta")}}
        spec_path = self.work / "spec.json"
        result_path = self.work / "result.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        result_path.unlink(missing_ok=True)
        if mode == "round":
            shutil.rmtree(self.out, ignore_errors=True)
            self.out.mkdir()
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                               str(result_path)], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=170)
        if proc.returncode != 0 or not result_path.exists():
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(result_path.read_text(encoding="utf-8"))

    def check(self, result: dict) -> int:
        """Check one round's outputs; return the number of failed operations."""
        out, inputs = self.out, self.inputs
        problems: dict[str, list[str]] = {}
        for o in result["ops"]:
            problems[o["name"]] = [o["error"] or "returned non-zero"] if not o["ok"] else []

        def add(op, fn):
            if op != "cluster" and inputs.labels is None:
                problems[op] = problems.get(op) or ["no valid partition to check against"]
            elif not problems.get(op):
                try:
                    problems[op] = fn()
                except (OSError, ValueError, KeyError) as exc:
                    problems[op] = [f"unreadable output: {exc!r}"]

        add("cluster", lambda: inputs.read_partition(out / "clusters.txt"))
        result["f_design_drop"] = float("nan")

        def root():
            found, result["f_design_drop"] = checks.check_root(inputs, out)
            return found

        add("optimize", root)
        exact_cells = None
        if self.cfg["enumerate"]:
            cells = result.get("exact", {}).get("cells", [])
            exact_cells = {(c["design"], c["gamma"], c["estimator"]): c for c in cells}
            add("run_exact", lambda: checks.check_run_exact(
                cells, SIM_MODELS["analysis"], inputs, out))
            for entry in result.get("exact", {}).get("variance", []):
                add(f"variance_exact:{entry['design']}:{entry['gamma']:g}",
                    lambda entry=entry: checks.check_variance_exact(entry, cells))
        for model in self.cfg["models"]:
            add(f"simulate:{model}", lambda model=model: checks.check_simulation(
                SIM_MODELS[model], inputs, out, f"sim-{model}",
                exact_cells if model == "analysis" else None))
        failed = 0
        for op, found in problems.items():
            if found:
                failed += 1
                print(f"FAILED {self.name} seed={self.seed} {op}: " + "; ".join(found[:5]),
                      file=sys.stderr)
        return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS threads and simulate --workers; timed runs use 1 "
                             "(other values are for reference figures only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "covdesign" / "__init__.py").is_file():
        print(f"error: no covdesign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = Workload(args.workload, args.seed, args.threads)
    wl.generate()
    attempted = failed = 0
    rounds = []
    setups = []

    def run_round(trace: bool) -> dict:
        nonlocal attempted, failed
        result = wl.spawn("round", trace)
        attempted += wl.ops_per_round()
        failed += wl.check(result) + wl.ops_per_round() - len(result["ops"])
        rounds.append(result)
        return result

    try:
        if args.trace:
            plain = run_round(trace=False)
            traced = run_round(trace=True)
        else:
            start = time.perf_counter()
            setups = [wl.spawn("setup", trace=False)["setup_s"] for _ in range(SETUP_SAMPLES)]
            last = 0.0
            while not rounds or time.perf_counter() - start + last <= args.seconds:
                t0 = time.perf_counter()
                run_round(trace=False)
                last = time.perf_counter() - t0
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = dict(traced["layers"])
        metrics["clustering.k"] = wl.inputs.k
        metrics["trace.overhead_s"] = traced["pipeline_s"] - plain["pipeline_s"]
        metrics.update((f"stage.{name}", plain[name]) for name in STAGES)
    else:
        setups += [r["setup_s"] for r in rounds]
        metrics = {"setup_s": statistics.median(setups)}
        for name in END_TO_END[1:]:
            metrics[name] = statistics.median(r[name] for r in rounds)
    print(f"{args.workload} seed={args.seed}: {len(rounds)} round(s), "
          f"{len(setups)} setup sample(s), K={wl.inputs.k}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

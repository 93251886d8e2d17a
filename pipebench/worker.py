"""One benchmark round in a fresh interpreter.

Usage: ``python3 worker.py SPEC.json RESULT.json``.  The parent process
(run.py) writes the spec and sets the BLAS thread count in this process's
environment before numpy loads.  In ``setup`` mode the round stops after
``import covdesign`` and the first ``load_edge_list``; in ``round`` mode
it drives the real CLI in-process for cluster, optimize and one simulate
per outcome model, then, for workloads with enumeration, ``run_exact`` and
``variance_exact``.  Every figure is written to RESULT.json; correctness
checks are made by the parent from the files the program wrote.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ENUMERATED = ("ber", "cr", "ibr-2", "ocd-block")


def _block_root(k: int, max_block: int, seed: int):
    """Block-diagonal unit-row root: consecutive clusters in blocks of at
    most ``max_block``, each block a row-normalized Gaussian matrix."""
    import numpy as np

    rng = np.random.default_rng([seed, 5])
    root = np.zeros((k, k))
    for start in range(0, k, max_block):
        stop = min(k, start + max_block)
        block = rng.standard_normal((stop - start, stop - start))
        root[start:stop, start:stop] = block / np.linalg.norm(block, axis=1, keepdims=True)
    return root


class Round:
    def __init__(self, spec: dict, work: Path):
        self.spec = spec
        self.work = work
        self.out = Path(spec["out"])
        self.ops: list[dict] = []
        self.tracer = None

    def op(self, name: str, phase: str, fn):
        """Run one operation; it fails when it raises or returns False."""
        t0 = time.perf_counter()
        try:
            ok, value = bool(fn()), None
        except Exception as exc:  # an operation's failure is counted, not fatal
            ok, value = False, f"{type(exc).__name__}: {exc}"
        self.ops.append({"name": name, "phase": phase, "ok": ok, "error": value,
                         "seconds": time.perf_counter() - t0})
        return ok

    def cli(self, name: str, phase: str, argv: list[str]):
        from covdesign.cli import main

        def run():
            if self.tracer is None:
                return main(argv) == 0
            with self.tracer.span(f"cli.{argv[0]}"):
                return main(argv) == 0

        return self.op(name, phase, run)

    def exact(self, cd, graph, result: dict):
        """Enumeration oracles for every enumerable design of the workload."""
        import numpy as np

        spec = self.spec
        model = cd.AnalysisModelParams.uniform(graph.n, **spec["analysis"])
        exact = {"cells": [], "variance": []}
        result["exact"] = exact
        state = {}

        def run_exact():
            clustering = cd.read_clustering(self.out / "clusters.txt", n=graph.n)
            summary = cd.build_cluster_summary(graph, clustering)
            root = np.loadtxt(self.out / "block_root.csv", delimiter=",", ndmin=2)
            designs = (
                ("ber", cd.make_design("ber", summary.k)),
                ("cr", cd.make_design("cr", summary.k)),
                ("ibr-2", cd.make_design("ibr", summary.k, summary=summary, block_size=2)),
                ("ocd-block", cd.make_design("ocd", summary.k, root=root)),
            )
            state.update(clustering=clustering, summary=summary, designs=dict(designs))
            report = cd.run_exact(graph, clustering, designs, model,
                                  estimators=tuple(spec["estimators"]),
                                  gammas=tuple(spec["gammas"]))
            exact["cells"] = [vars(c) for c in report.cells]
            return True

        self.op("run_exact", "validate", run_exact)
        for gamma in spec["gammas"]:
            for name in ENUMERATED:
                def one(name=name, gamma=gamma):
                    h = cd.h_vector(cd.with_gamma(model, gamma), graph, state["clustering"])
                    v = cd.variance_exact(state["summary"], h, gamma, state["designs"][name])
                    exact["variance"].append({
                        "design": name, "gamma": gamma, "variance": v.variance,
                        "three_term_sum": v.three_term_sum})
                    return True

                self.op(f"variance_exact:{name}:{gamma:g}", "validate", one)

    def run(self) -> dict:
        spec, work, out = self.spec, self.work, self.out
        t0 = time.perf_counter()
        import covdesign as cd
        import covdesign.cli  # noqa: F401  (the namespace the tracer wraps)

        if spec["trace"]:
            from spans import Tracer, install

            self.tracer = Tracer()
            install(self.tracer, cd)
        graph = cd.load_edge_list(work / spec["graph_file"])
        result = {"setup_s": time.perf_counter() - t0}
        if spec["mode"] == "setup":
            return result

        self.cli("cluster", "cluster", [
            "cluster", "--graph", str(work / spec["graph_file"]),
            "--resolution", repr(spec["resolution"]), "--seed", str(spec["seed"]),
            "--out", str(out / "clusters.txt")])
        self.cli("optimize", "optimize", [
            "optimize", "--graph", str(work / spec["graph_file"]),
            "--clusters", str(out / "clusters.txt"), "--iters", str(spec["iterations"]),
            "--out", str(out / "root.csv")])
        if spec["enumerate"]:
            import numpy as np

            try:
                k = int(np.loadtxt(out / "clusters.txt", dtype=np.int64, usecols=1).max()) + 1
            except (OSError, ValueError):
                k = 0  # no partition: the commands that need one fail on their own
            if k:
                np.savetxt(out / "block_root.csv", _block_root(k, 5, spec["seed"]),
                           fmt="%.17g", delimiter=",")
        for model in spec["models"]:
            self.cli(f"simulate:{model}", "validate", [
                "simulate", "--config", str(work / f"sim-{model}.json"),
                "--workers", str(spec["workers"])])
        if spec["enumerate"]:
            self.exact(cd, graph, result)
        result["pipeline_s"] = time.perf_counter() - t0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["ops"] = self.ops
        for phase in ("cluster", "optimize", "validate"):
            result[f"{phase}_s"] = sum(o["seconds"] for o in self.ops if o["phase"] == phase)
        if self.tracer is not None:
            from spans import layer_metrics

            self.tracer.dump(work / "spans.jsonl")
            result["layers"] = layer_metrics(self.tracer)
        return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = Round(spec, Path(spec["work"])).run()
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory spans around covdesign's public functions, installed from outside.

The tracer replaces a function attribute in the namespace that calls it
(``covdesign.cli.louvain``, ``covdesign.optimizer.gradient_from_root``,
``Design`` subclass methods, ...) with a wrapper that records a span:
name, parent span, start, end and an optional work count.  No program
source changes.  An attribute the program no longer has is skipped, so a
renamed function shows up as a layer metric of 0 rather than a crash.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        # each span: [name, parent index or -1, start, end, count]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, count: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, count])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, count: int = 1):
        idx = self._open(name, count)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Record a span per call of ``owner.attr``.  ``name`` is a string or
        a function of the call's positional arguments; so is ``count``."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = tracer._open(label, count(args) if count else 1)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        setattr(owner, attr, traced)

    def totals(self):
        """Per span name: (calls, summed work count, total s, total self s)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, _, start, end, count) in enumerate(self.spans):
            acc = out.setdefault(name, [0, 0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += count
            acc[2] += end - start
            acc[3] += end - start - child[i]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end, count in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "start": start,
                                     "end": end, "count": count}) + "\n")


def install(tracer: Tracer, cd) -> None:
    """Wrap the public functions of every covdesign layer the pipeline runs."""
    cli, designs, optimizer, simulation = cd.cli, cd.designs, cd.optimizer, cd.simulation
    for ns in (cli, cd):
        tracer.wrap(ns, "load_edge_list", "graph.parse")
        tracer.wrap(ns, "read_clustering", "clustering.read")
        tracer.wrap(ns, "build_cluster_summary", "clustering.summary")
    tracer.wrap(cd.graph.Graph, "neighbor_sums", "graph.neighbor_sums")
    tracer.wrap(cli, "louvain", "clustering.louvain")
    tracer.wrap(cli, "optimize", "optimizer.optimize")
    tracer.wrap(optimizer, "gradient_from_root", "optimizer.gradient")
    tracer.wrap(optimizer, "objective_from_root", "optimizer.objective")
    tracer.wrap(optimizer, "project_rows", "optimizer.project")
    tracer.wrap(optimizer, "objective_terms", "analysis.objective_terms")
    tracer.wrap(cd, "variance_exact", "analysis.variance_exact")
    for cls in (designs.BernoulliDesign, designs.CompleteDesign,
                designs.BlockDesign, designs.SignGaussianDesign):
        tracer.wrap(cls, "sample", f"designs.sample.{cls.kind}")
        tracer.wrap(cls, "exact_distribution", f"designs.exact_distribution.{cls.kind}")
    tracer.wrap(designs, "sign_pattern_probabilities", "orthant.sign_patterns")
    tracer.wrap(simulation, "eval_sim", lambda a: f"outcomes.eval_sim.{a[0].kind}")
    tracer.wrap(simulation, "eval_analysis", "outcomes.eval_analysis")
    tracer.wrap(simulation, "run_mc",
                lambda a: f"simulation.run_mc.{getattr(a[0].model, 'kind', 'analysis')}",
                count=lambda a: a[0].replications * len(a[0].designs) * len(a[0].gammas))
    tracer.wrap(cd, "run_exact", "simulation.run_exact")
    tracer.wrap(cd.manifest, "file_digest", "manifest.digest")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the spans; a layer that did not run reads 0."""
    t = tracer.totals()

    def calls(name):
        return t.get(name, [0, 0, 0.0, 0.0])[0]

    def total(name):
        return t.get(name, [0, 0, 0.0, 0.0])[2]

    def mean(name):
        return total(name) / calls(name) if calls(name) else 0.0

    def self_time(prefix):
        return sum(v[3] for k, v in t.items() if k.startswith(prefix))

    iterations = calls("optimizer.gradient")
    reps = {m: t.get(f"simulation.run_mc.{m}", [0, 0])[1]
            for m in ("linear", "multiplicative", "analysis")}
    all_reps = sum(reps.values())
    m = {
        "graph.parse_s": total("graph.parse"),
        "graph.parse_calls": calls("graph.parse"),
        "graph.neighbor_sums_us": 1e6 * mean("graph.neighbor_sums"),
        "graph.neighbor_sums_calls": calls("graph.neighbor_sums"),
        "clustering.louvain_s": total("clustering.louvain"),
        "clustering.read_s": total("clustering.read"),
        "clustering.summary_ms": 1e3 * total("clustering.summary"),
        "optimizer.gradient_ms": 1e3 * mean("optimizer.gradient"),
        "optimizer.objective_ms": 1e3 * mean("optimizer.objective"),
        "optimizer.project_ms": 1e3 * mean("optimizer.project"),
        "optimizer.self_ms_per_iter": (1e3 * self_time("optimizer.optimize") / iterations
                                       if iterations else 0.0),
        "optimizer.iterations": iterations,
        "analysis.objective_terms_ms": 1e3 * mean("analysis.objective_terms"),
        "analysis.variance_exact_ms": 1e3 * total("analysis.variance_exact"),
        "orthant.sign_patterns_ms": 1e3 * total("orthant.sign_patterns"),
        "orthant.calls": calls("orthant.sign_patterns"),
        "outcomes.eval_analysis_us": 1e6 * mean("outcomes.eval_analysis"),
        "simulation.replications": all_reps,
        "simulation.self_us_per_rep": (1e6 * self_time("simulation.run_mc.") / all_reps
                                       if all_reps else 0.0),
        "simulation.run_exact_s": total("simulation.run_exact"),
        "manifest.digest_ms": 1e3 * total("manifest.digest"),
    }
    for kind in ("ber", "cr", "ibr", "ocd"):
        m[f"designs.sample_us.{kind}"] = 1e6 * mean(f"designs.sample.{kind}")
        m[f"designs.exact_distribution_ms.{kind}"] = 1e3 * total(
            f"designs.exact_distribution.{kind}")
    for model in ("linear", "multiplicative"):
        m[f"outcomes.eval_sim_us.{model}"] = 1e6 * mean(f"outcomes.eval_sim.{model}")
    for model, count in reps.items():
        m[f"simulation.rep_us.{model}"] = (
            1e6 * total(f"simulation.run_mc.{model}") / count if count else 0.0)
    for command in ("cluster", "optimize", "simulate"):
        m[f"cli.self_s.{command}"] = self_time(f"cli.{command}")
    return m

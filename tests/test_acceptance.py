"""End-to-end validation gates for the library.

One test per gate, each printing a single summary line with its measured
numbers.  Gates 6 and 8 carry thresholds that the shipped objective
provably cannot meet on this benchmark fixture; they are implemented
exactly as stated and left red rather than weakened, with the measured
values printed and the mathematical reason noted in their docstrings.
"""

import json
import time

import numpy as np
import pytest

import covdesign as cd
from covdesign.cli import main as cli_main
from conftest import captured_roots, paired_root, random_unit_rows


def _announce(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _enumeration_cases():
    """Fixture graphs (K <= 12) crossed with all four design families."""
    cases = []
    path = (cd.Graph(4, [(0, 1), (1, 2), (2, 3)]), cd.Clustering([0, 0, 1, 1], 2),
            "path")
    triangles = (cd.Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
                 cd.Clustering([0, 0, 0, 1, 1, 1], 2), "triangles")
    sbm4 = (*cd.generate_sbm([5, 5, 5, 5], 0.6, 0.15, seed=2), "sbm4")
    sbm5 = (*cd.generate_sbm([4, 4, 4, 4, 4], 0.6, 0.15, seed=3), "sbm5")
    sbm12 = (*cd.generate_sbm([4] * 12, 0.5, 0.08, seed=4), "sbm12")
    for graph, clustering, tag in (path, triangles, sbm4, sbm5, sbm12):
        summary = cd.build_cluster_summary(graph, clustering)
        k = summary.k
        root = paired_root(k) if k > 5 else random_unit_rows(k, seed=40 + k)
        designs = (
            ("ber", cd.BernoulliDesign(k)),
            ("cr", cd.CompleteDesign(k)),
            ("ibr", cd.BlockDesign(k, cd.build_ibr_blocks(summary, 2))),
            ("ocd", cd.SignGaussianDesign(root)),
        )
        cases.append((tag, graph, clustering, summary, designs))
    return cases


def test_gate_1_sign_sampling_matches_arcsine_identity():
    """Paired Gaussian signs realize covariance 2 arcsin(r)/pi at every r."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 1_000_000
    worst = 0.0
    for r in (-0.9, -0.5, 0.0, 0.5, 0.9):
        g1 = rng.standard_normal(n)
        g2 = rng.standard_normal(n)
        s1 = np.where(g1 >= 0, 1.0, -1.0)
        s2 = np.where(r * g1 + np.sqrt(1 - r * r) * g2 >= 0, 1.0, -1.0)
        product = s1 * s2
        cov_hat = product.mean() - s1.mean() * s2.mean()
        se = product.std(ddof=1) / np.sqrt(n)
        target = 2.0 * np.arcsin(r) / np.pi
        if r == 0.5:
            assert target == pytest.approx(1 / 3, abs=1e-15)
        worst = max(worst, abs(cov_hat - target) / se)
        assert abs(cov_hat - target) <= 3 * se, (r, cov_hat, target, se)
    elapsed = time.perf_counter() - start
    _announce("1 sign-sampling fidelity", True,
              f"max |z| {worst:.2f} over 5 correlations, {elapsed:.1f}s")
    assert elapsed < 10.0


def test_gate_2_enumerated_bias_matches_closed_form():
    """Full-distribution bias equals the trace formula for every design."""
    start = time.perf_counter()
    worst = 0.0
    for tag, graph, clustering, summary, designs in _enumeration_cases():
        model = cd.AnalysisModelParams.uniform(graph.n, alpha=0.0, beta=1.0,
                                               gamma=0.8)
        report = cd.run_exact(graph, clustering, designs, model,
                              estimators=("ht",))
        for name, design in designs:
            enumerated = report.cell(name, 0.8, "ht").bias
            closed = cd.bias_closed_form(summary, design.covariance(), 0.8)
            worst = max(worst, abs(enumerated - closed))
            assert abs(enumerated - closed) <= 1e-10, (tag, name)
    elapsed = time.perf_counter() - start
    _announce("2 bias oracle", True,
              f"max |enumerated - closed form| {worst:.2e}, {elapsed:.1f}s")
    assert elapsed < 5.0


def test_gate_3_enumerated_variance_matches_three_term_decomposition():
    """Enumerated variance equals its linear/cross/quadratic decomposition."""
    start = time.perf_counter()
    worst = 0.0
    for tag, graph, clustering, summary, designs in _enumeration_cases():
        model = cd.AnalysisModelParams.uniform(graph.n, alpha=0.0, beta=1.0,
                                               gamma=0.8)
        h = cd.h_vector(model, graph, clustering)
        report = cd.run_exact(graph, clustering, designs, model,
                              estimators=("ht_adjusted",))
        for name, design in designs:
            exact = cd.variance_exact(summary, h, 0.8, design)
            gap = abs(exact.variance - exact.three_term_sum)
            worst = max(worst, gap)
            assert gap <= 1e-10, (tag, name)
            # the independent vectorized enumeration agrees
            sd = report.cell(name, 0.8, "ht_adjusted").sd
            assert sd**2 == pytest.approx(exact.variance, abs=1e-10), (tag, name)
    elapsed = time.perf_counter() - start
    _announce("3 variance oracle", True,
              f"max decomposition gap {worst:.2e}, {elapsed:.1f}s")
    assert elapsed < 5.0


def test_gate_4_bounds_dominate_exact_variance_and_mse():
    """With the smallest feasible comparability constant, the variance bound
    covers the exact variance and the squared bias plus bound covers MSE."""
    checked = 0
    for tag, graph, clustering, summary, designs in _enumeration_cases():
        model = cd.AnalysisModelParams.uniform(graph.n, alpha=0.0, beta=1.0,
                                               gamma=0.8)
        h = cd.h_vector(model, graph, clustering)
        omega_star = cd.omega_from_model(summary, h, 0.8)
        report = cd.run_exact(graph, clustering, designs, model, estimators=("ht",))
        for name, design in designs:
            cov = design.covariance()
            exact = cd.variance_exact(summary, h, 0.8, design)
            bound = cd.variance_bound(summary, cov, 0.8, omega_star)
            cell = report.cell(name, 0.8, "ht")
            assert bound >= exact.variance - 1e-12, (tag, name)
            assert cell.bias**2 + bound >= cell.mse - 1e-12, (tag, name)
            checked += 1
    _announce("4 variance/MSE bounds", True, f"{checked} design-fixture pairs")


def test_gate_5_gradient_matches_finite_differences():
    """Analytic root gradient agrees with central differences, away from the
    arcsine clamp."""
    summaries = {
        2: cd.build_cluster_summary(cd.Graph(4, [(0, 1), (1, 2), (2, 3)]),
                                    cd.Clustering([0, 0, 1, 1], 2)),
        4: cd.build_cluster_summary(*cd.generate_sbm([5] * 4, 0.6, 0.15, seed=2)),
        8: cd.build_cluster_summary(*cd.generate_sbm([5] * 8, 0.5, 0.08, seed=8)),
    }
    step = 1e-5
    worst = 0.0
    for k, summary in summaries.items():
        root = random_unit_rows(k, seed=50 + k)
        grad = cd.evaluate_root(root, summary, 1.0)[4]
        scale = np.abs(grad).max()
        rng = np.random.default_rng(60 + k)
        for _ in range(20):
            i, j = rng.integers(0, k, size=2)
            basis = np.zeros((k, k))
            basis[i, j] = step
            f_plus = cd.evaluate_root(root + basis, summary, 1.0)[0]
            f_minus = cd.evaluate_root(root - basis, summary, 1.0)[0]
            fd = (f_plus - f_minus) / (2 * step)
            rel = abs(fd - grad[i, j]) / max(abs(fd), abs(grad[i, j]), 1e-12 * scale)
            worst = max(worst, rel)
            assert rel <= 1e-4, (k, i, j, rel)
    _announce("5 gradient vs finite differences", True,
              f"max relative error {worst:.2e} over K in (2, 4, 8)")


def test_gate_6_optimizer_behavior_on_benchmark_fixture(acceptance_fixture):
    """Constraint satisfaction holds at every traced iterate and the
    objective improves; the stated 50% total-reduction target is kept as-is
    although it is unreachable for this objective: the variance-bound term
    d' (1/4) 11' d is the same for every covariance and already accounts
    for ~90% of the starting value here, capping the possible reduction
    near 10%.  The reducible (design-dependent) part drops by ~87%.
    """
    _, _, summary = acceptance_fixture
    config = cd.OptimizerConfig(iterations=2000)
    start = time.perf_counter()
    with captured_roots() as roots:
        root, trace = cd.optimize(summary, config)
    elapsed = time.perf_counter() - start

    for r in roots:
        assert np.abs(np.linalg.norm(r, axis=1) - 1.0).max() <= 1e-12
        cov = cd.SignGaussianDesign(r).covariance()
        assert np.abs(np.diag(cov) - 0.25).max() == 0.0
        assert np.abs(cov).max() <= 0.25 + 1e-12

    f0, f_final = trace.objective[0], trace.objective[-1]
    floor = 8.0 * (config.omega**2 + 4.0) * 0.25 * summary.cluster_degrees.sum() ** 2
    reduction = 1.0 - f_final / f0
    reducible = 1.0 - (f_final - floor) / (f0 - floor)
    ok = reduction >= 0.5
    _announce("6 optimizer improvement", ok,
              f"total reduction {reduction:.1%} (target 50%); "
              f"design-independent floor is {floor / f0:.1%} of start; "
              f"reducible part cut {reducible:.1%}; "
              f"{len(roots)} iterates constraint-clean; {elapsed:.1f}s")
    assert elapsed < 30.0
    assert f_final < f0
    assert reduction >= 0.5, (
        f"total objective reduction {reduction:.1%} < 50%: the term "
        f"8(omega^2+4) d'(11'/4)d = {floor:.4g} is design-independent and is "
        f"{floor / f0:.1%} of the starting objective {f0:.4g}, so no "
        f"covariance can reach the stated target (max possible "
        f"{1 - floor / f0:.1%}); the design-dependent part fell {reducible:.1%}"
    )


def test_gate_7_sampled_covariance_realizes_arcsine_target(optimized_root):
    """A million draws of the optimized design reproduce arcsin(RR')/2pi."""
    root, _ = optimized_root
    design = cd.SignGaussianDesign(root)
    target = design.covariance()
    start = time.perf_counter()
    draws = design.sample_many(np.random.default_rng(777), 1_000_000)
    n = draws.shape[0]
    centered = draws - draws.mean(axis=0)
    cov_hat = centered.T @ centered / n
    second = (centered**2).T @ (centered**2) / n
    se = np.sqrt(np.maximum(second - cov_hat**2, 1e-30) / n)
    z = np.abs(cov_hat - target) / se
    elapsed = time.perf_counter() - start
    _announce("7 optimized-design covariance", bool(np.all(z <= 3.0)),
              f"max |z| {z.max():.2f} over {target.size} entries, {elapsed:.1f}s")
    assert np.all(z <= 3.0)
    assert elapsed < 30.0


def test_gate_8_desk_scale_design_comparison(acceptance_fixture, optimized_root):
    """Monte Carlo comparison on the benchmark fixture at strong interference.

    The two MSE orderings hold decisively.  The bias-magnitude ordering
    against independent assignment is kept as stated although the bound-
    optimal design on this fixture is net anti-correlated (no cluster pair
    is contact-heavy enough for positive correlation to pay), which makes
    its bias slightly larger in magnitude, not smaller.
    """
    graph, clustering, summary = acceptance_fixture
    root, _ = optimized_root
    designs = (
        ("ber", cd.BernoulliDesign(summary.k)),
        ("cr", cd.CompleteDesign(summary.k)),
        ("ibr-2", cd.BlockDesign(summary.k, cd.build_ibr_blocks(summary, 2))),
        ("ocd", cd.SignGaussianDesign(root)),
    )
    start = time.perf_counter()
    failures = []
    for kind in ("linear", "multiplicative"):
        model = cd.SimModelParams(kind, alpha=1.0, beta=1.0,
                                  c=0.5, sigma=0.1)
        report = cd.run_mc(cd.SimConfig(
            law=cd.cluster_law(graph, clustering), designs=designs, model=model,
            gammas=(2.0,), estimators=("ht",), replications=10_000, base_seed=99,
        ))
        ber = report.cell("ber", 2.0, "ht")
        cr = report.cell("cr", 2.0, "ht")
        ocd = report.cell("ocd", 2.0, "ht")
        print(f"  {kind}: " + "; ".join(
            f"{c.design} bias {c.bias:+.3f} sd {c.sd:.3f} mse {c.mse:.3f}"
            for c in (ber, cr, ocd)))
        for other, label in ((ber, "ber"), (cr, "cr")):
            sep = 3.0 * np.hypot(ocd.se_mse, other.se_mse)
            if not ocd.mse < other.mse - sep:
                failures.append(f"{kind}: mse(ocd)={ocd.mse:.3f} not below "
                                f"mse({label})={other.mse:.3f} by 3 se ({sep:.3f})")
        sep = 3.0 * np.hypot(ocd.se_bias, ber.se_bias)
        if not abs(ocd.bias) < abs(ber.bias) - sep:
            failures.append(f"{kind}: |bias(ocd)|={abs(ocd.bias):.3f} not below "
                            f"|bias(ber)|={abs(ber.bias):.3f} by 3 se ({sep:.3f})")
    elapsed = time.perf_counter() - start
    _announce("8 design comparison", not failures,
              f"{6 - len(failures)}/6 ordering clauses hold, {elapsed:.0f}s"
              + (f"; failing: {failures}" if failures else ""))
    assert elapsed < 300.0
    assert not failures, failures


def test_gate_9_pipeline_reruns_are_byte_identical(tmp_path, acceptance_fixture):
    """Every stage re-run from its manifest reproduces its primary outputs
    byte for byte."""
    graph, _, _ = acceptance_fixture
    graph_path = tmp_path / "bench.el"
    cd.save_edge_list(graph, graph_path)

    def run(argv):
        assert cli_main([str(a) for a in argv]) == 0

    clusters = tmp_path / "c.txt"
    run(["cluster", "--graph", graph_path, "--resolution", "1.0", "--seed", "3",
         "--out", clusters])
    root = tmp_path / "root.csv"
    run(["optimize", "--graph", graph_path, "--clusters", clusters,
         "--iters", "300", "--out", root])
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "graph": "bench.el",
        "clustering": "c.txt",
        "designs": [{"kind": "ber"}, {"kind": "cr"},
                    {"kind": "ibr", "block_size": 2},
                    {"kind": "ocd", "root": "root.csv"}],
        "model": {"kind": "linear", "alpha": 1, "beta": 1, "c": 0.5, "sigma": 0.1},
        "gammas": [2.0],
        "replications": 300,
        "seed": 12,
        "estimators": ["ht"],
        "out_dir": "sim-out",
    }))
    run(["simulate", "--config", config, "--workers", "1"])

    sim_out = tmp_path / "sim-out"
    primaries = {
        clusters: tmp_path / "c.txt.manifest.json",
        root: tmp_path / "root.csv.manifest.json",
        sim_out / "report_linear_ht.csv": sim_out / "simulate.manifest.json",
        sim_out / "report.json": sim_out / "simulate.manifest.json",
    }
    before = {p: p.read_bytes() for p in primaries}

    for manifest, command in ((tmp_path / "c.txt.manifest.json", "cluster"),
                              (tmp_path / "root.csv.manifest.json", "optimize"),
                              (sim_out / "simulate.manifest.json", "simulate")):
        run([command, "--from-manifest", manifest])
    after = {p: p.read_bytes() for p in primaries}
    assert before == after
    _announce("9 manifest reruns", True, "cluster/optimize/simulate byte-identical")


def _planted_contact_fixture():
    """20 clusters of 10 units: edges inside a cluster with probability 0.5,
    between the clusters of each planted pair (2i, 2i+1) with 0.4, and
    between any other two clusters with 0.01 (seed 5)."""
    k, size = 20, 10
    label = np.arange(k * size) // size
    u, v = np.triu_indices(k * size, 1)
    a, b = label[u], label[v]
    prob = np.where(a == b, 0.5, np.where(a // 2 == b // 2, 0.4, 0.01))
    keep = np.random.default_rng(5).random(u.size) < prob
    graph = cd.Graph(k * size, np.column_stack([u[keep], v[keep]]))
    clustering = cd.Clustering(label, k)
    return graph, clustering, cd.build_cluster_summary(graph, clustering)


def test_gate_10_optimizer_finds_planted_contact_pairs():
    """Where cluster pairs carry heavy contact, positive correlation pays:
    the default root and a rank-5 warm-started root both correlate every
    planted pair, and both cut the bias and the MSE of independent and
    complete randomization by more than 3 Monte Carlo standard errors."""
    graph, clustering, summary = _planted_contact_fixture()
    start = time.perf_counter()
    root, _ = cd.optimize(summary)
    low, _ = cd.optimize(summary, r0=np.random.default_rng(5).standard_normal((summary.k, 5)))
    assert low.shape == (summary.k, 5)
    ocds = {"ocd": cd.SignGaussianDesign(root), "ocd-rank5": cd.SignGaussianDesign(low)}
    pairs = (np.arange(0, summary.k, 2), np.arange(1, summary.k, 2))
    planted = {name: design.covariance()[pairs] for name, design in ocds.items()}
    designs = (("ber", cd.BernoulliDesign(summary.k)), ("cr", cd.CompleteDesign(summary.k)),
               *ocds.items())
    failures = [f"{name}: planted pair covariance {cov.min():.3f} <= 0"
                for name, cov in planted.items() if cov.min() <= 0.0]
    for kind in ("linear", "multiplicative"):
        model = cd.SimModelParams(kind, alpha=1.0, beta=1.0,
                                  c=0.5, sigma=0.1)
        report = cd.run_mc(cd.SimConfig(
            law=cd.cluster_law(graph, clustering), designs=designs, model=model,
            gammas=(2.0,), estimators=("ht",), replications=10_000, base_seed=99,
        ))
        cells = {name: report.cell(name, 2.0, "ht") for name, _ in designs}
        print(f"  {kind}: " + "; ".join(f"{c.design} bias {c.bias:+.3f} mse {c.mse:.3f}"
                                        for c in cells.values()))
        ber, cr = cells["ber"], cells["cr"]
        for name in ocds:
            ocd = cells[name]
            sep = 3.0 * np.hypot(ocd.se_bias, ber.se_bias)
            if not abs(ocd.bias) < abs(ber.bias) - sep:
                failures.append(f"{kind}: |bias({name})|={abs(ocd.bias):.3f} not below "
                                f"|bias(ber)|={abs(ber.bias):.3f} by 3 se ({sep:.3f})")
            for other in (ber, cr):
                sep = 3.0 * np.hypot(ocd.se_mse, other.se_mse)
                if not ocd.mse < other.mse - sep:
                    failures.append(f"{kind}: mse({name})={ocd.mse:.3f} not below "
                                    f"mse({other.design})={other.mse:.3f} by 3 se ({sep:.3f})")
    elapsed = time.perf_counter() - start
    _announce("10 planted contact pairs", not failures,
              "min planted-pair covariance "
              + ", ".join(f"{name} {cov.min():.4f}" for name, cov in planted.items())
              + f"; closed-form bias at gamma 1: ber "
              f"{cd.bias_closed_form(summary, 0.25 * np.eye(summary.k), 1.0):.2f}, "
              + ", ".join(f"{name} {cd.bias_closed_form(summary, d.covariance(), 1.0):.2f}"
                          for name, d in ocds.items())
              + f"; {elapsed:.1f}s" + (f"; failing: {failures}" if failures else ""))
    assert elapsed < 60.0
    assert not failures, failures

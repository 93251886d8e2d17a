"""Optional full-scale reproduction run on a real social network.

Skipped unless COVDESIGN_FB_EDGELIST points at the socfb-Stanford3 edge
file (plain edge list or MatrixMarket, see README).  This is a
long-running mode: it executes the whole pipeline (Louvain at resolution
10, covariance optimization, Monte Carlo comparison at strong
interference) and checks only that the optimized design beats independent
assignment on MSE; exact table values are not asserted since clustering
seeds and optimizer hyperparameters are free here.
"""

import os

import numpy as np
import pytest

import covdesign as cd

DATASET = os.environ.get("COVDESIGN_FB_EDGELIST")
REPS = int(os.environ.get("COVDESIGN_FB_REPS", "10000"))

pytestmark = pytest.mark.skipif(
    not DATASET, reason="set COVDESIGN_FB_EDGELIST to run the full-scale mode"
)


def test_full_scale_mse_ordering_at_strong_interference():
    graph = cd.load_edge_list(DATASET)
    clustering = cd.louvain(graph, resolution=10.0, seed=1)
    summary = cd.build_cluster_summary(graph, clustering)
    print(f"n={graph.n} |E|={graph.num_edges} K={clustering.k}")

    root, trace = cd.optimize(summary, cd.OptimizerConfig(iterations=2000))
    print(f"objective {trace.objective[0]:.4g} -> {trace.objective[-1]:.4g}")

    designs = (
        ("ber", cd.BernoulliDesign(summary.k)),
        ("ocd", cd.SignGaussianDesign(root)),
    )
    for kind in ("linear", "multiplicative"):
        model = cd.SimModelParams(kind, alpha=1.0, beta=1.0,
                                  c=0.5, sigma=0.1)
        report = cd.run_mc(cd.SimConfig(
            law=cd.cluster_law(graph, clustering), designs=designs, model=model,
            gammas=(2.0,), estimators=("ht",), replications=REPS, base_seed=1,
        ))
        ber = report.cell("ber", 2.0, "ht")
        ocd = report.cell("ocd", 2.0, "ht")
        print(f"{kind}: ber mse {ber.mse:.3f} (bias {ber.bias:+.3f}), "
              f"ocd mse {ocd.mse:.3f} (bias {ocd.bias:+.3f})")
        assert ocd.mse < ber.mse - 3 * np.hypot(ocd.se_mse, ber.se_mse)

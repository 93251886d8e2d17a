"""Correctness checks on the files covdesign wrote, computed apart from it.

Nothing here imports covdesign.  The contact matrix is rebuilt from the
generated edge list, design covariances are derived from each design's
definition, and closed forms for the Horvitz-Thompson (``ht``) bias are
evaluated directly on the edge list.  Each check returns a list of
problems; an empty list means the check passed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Monte Carlo cells may sit this many standard errors from their reference
MC_Z = 5.0
# "equal to rounding" for deterministic quantities
RTOL = 1e-9
# arcsine clamp of the optimizer's objective (the CLI's --clamp-eps default)
CLAMP_EPS = 1e-6
OMEGA = 1.0


class Inputs:
    """The generated graph and the program's partition of it."""

    def __init__(self, n: int, edges: np.ndarray):
        self.n = n
        self.edges = edges
        self.m = edges.shape[0]
        self.degree = np.bincount(edges.ravel(), minlength=n).astype(np.float64)
        self.labels = None
        self.k = 0
        self.contact = None

    def read_partition(self, path) -> list[str]:
        self.labels = None
        rows = np.loadtxt(path, dtype=np.int64, ndmin=2)
        if rows.shape[1] != 2 or not np.array_equal(np.sort(rows[:, 0]), np.arange(self.n)):
            return [f"{path}: units are not exactly 0..{self.n - 1} once each"]
        labels = np.empty(self.n, dtype=np.int64)
        labels[rows[:, 0]] = rows[:, 1]
        if labels.min() != 0 or np.any(np.bincount(labels) == 0):
            return [f"{path}: cluster ids are not 0..K-1 with every cluster non-empty"]
        self.labels = labels
        self.k = int(labels.max()) + 1
        a, b = labels[self.edges[:, 0]], labels[self.edges[:, 1]]
        half = np.bincount(a * self.k + b, minlength=self.k**2).reshape(self.k, self.k)
        self.contact = (half + half.T).astype(np.float64)
        problems = []
        if not np.array_equal(self.contact.sum(axis=1),
                              np.bincount(labels, weights=self.degree, minlength=self.k)):
            problems.append("contact rows do not sum to the cluster degrees")
        if self.contact.sum() != 2 * self.m:
            problems.append("contact total is not 2|E|")
        return problems

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)


def root_covariance(root: np.ndarray, clamp: float = 1.0) -> np.ndarray:
    """arcsin(R R^T) / 2 pi, off-diagonals clipped at +-clamp, diagonal 1/4."""
    gram = np.clip(root @ root.T, -clamp, clamp)
    cov = np.arcsin(gram) / (2.0 * np.pi)
    np.fill_diagonal(cov, 0.25)
    return cov


def balanced_block(m: int) -> np.ndarray:
    """Covariance of complete randomization over m units: m/2 treated for
    even m, a fair coin between the two middle counts for odd m."""
    if m == 1:
        return np.full((1, 1), 0.25)
    counts = [m // 2] if m % 2 == 0 else [m // 2, m // 2 + 1]
    pair = np.mean([c * (c - 1) for c in counts]) / (m * (m - 1))
    cov = np.full((m, m), pair - 0.25)
    np.fill_diagonal(cov, 0.25)
    return cov


def design_covariance(name: str, inputs: Inputs, out: Path) -> np.ndarray:
    k = inputs.k
    if name == "ber":
        return 0.25 * np.eye(k)
    if name == "cr":
        return balanced_block(k)
    if name == "ibr-2":
        # pairs of clusters taken in order of decreasing size, ties by id
        sizes = inputs.sizes()
        order = sorted(range(k), key=lambda c: (-int(sizes[c]), c))
        cov = np.zeros((k, k))
        for i in range(0, k, 2):
            idx = np.asarray(order[i:i + 2])
            cov[np.ix_(idx, idx)] = balanced_block(idx.size)
        return cov
    root_file = {"ocd": "root.csv", "ocd-block": "block_root.csv"}[name]
    return root_covariance(np.loadtxt(out / root_file, delimiter=",", ndmin=2))


def objective(inputs: Inputs, cov: np.ndarray) -> float:
    """f(X) = (4 sum C*X - sum C)^2 + 8(w^2+4)(d'Xd + (sum d)^2/4)."""
    c = inputs.contact
    d = c.sum(axis=1)
    s = c.sum()
    return float((4.0 * np.sum(c * cov) - s) ** 2
                 + 8.0 * (OMEGA**2 + 4.0) * (d @ cov @ d + 0.25 * s * s))


def check_root(inputs: Inputs, out: Path) -> tuple[list[str], float]:
    """Root and objective checks; also returns the design-dependent drop of f."""
    root = np.loadtxt(out / "root.csv", delimiter=",", ndmin=2)
    side = json.loads((out / "root.csv.json").read_text(encoding="utf-8"))
    k = inputs.k
    problems = []
    if root.shape != (k, k):
        return [f"root is {root.shape}, expected ({k}, {k})"], float("nan")
    if np.max(np.abs(np.linalg.norm(root, axis=1) - 1.0)) > RTOL:
        problems.append("root rows are not unit vectors")
    cov = root_covariance(root)
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12):
        problems.append("covariance is not symmetric")
    if np.max(np.abs(np.diag(cov) - 0.25)) > 1e-12 or np.max(np.abs(cov)) > 0.25 + 1e-12:
        problems.append("covariance leaves diagonal 1/4 or off-diagonals within 1/4")
    if np.linalg.eigvalsh(cov).min() < -RTOL:
        problems.append("covariance is not positive semidefinite")
    f_final = objective(inputs, root_covariance(root, 1.0 - CLAMP_EPS))
    f_start = objective(inputs, 0.25 * np.eye(k))
    for label, mine, theirs in (("final", f_final, side["objective_final"]),
                                ("start", f_start, side["objective_initial"])):
        if abs(mine - theirs) > RTOL * abs(mine):
            problems.append(f"{label} objective {theirs!r} != independent {mine!r}")
    if side["objective_final"] > side["objective_initial"]:
        problems.append("final objective is worse than the start")
    fixed = 2.0 * (OMEGA**2 + 4.0) * inputs.contact.sum() ** 2
    drop = 1.0 - (side["objective_final"] - fixed) / (side["objective_initial"] - fixed)
    return problems, drop


def ht_bias(model: dict, gamma: float, inputs: Inputs, cov: np.ndarray) -> float:
    """Closed-form bias of the ht estimator under a design covariance."""
    u, v = inputs.edges[:, 0], inputs.edges[:, 1]
    x_edge = cov[inputs.labels[u], inputs.labels[v]]
    contact_x = 2.0 * x_edge.sum()  # sum of C * X
    if model["kind"] == "linear":
        per_unit = x_edge * (1.0 / inputs.degree[u] + 1.0 / inputs.degree[v])
        return float(gamma * (4.0 / inputs.n * per_unit.sum() - 1.0))
    if model["kind"] == "multiplicative":
        return float(model["alpha"] * gamma * (4.0 * contact_x / (2.0 * inputs.m) - 1.0))
    return float(gamma / inputs.n * (4.0 * contact_x - 2.0 * inputs.m))


def check_simulation(model: dict, inputs: Inputs, out: Path, sim_dir: str,
                     exact_cells=None) -> list[str]:
    """ht bias of every Monte Carlo cell against its closed form; with
    exact cells, every cell's bias and SD against enumeration."""
    report = json.loads((out / sim_dir / "report.json").read_text(encoding="utf-8"))
    problems = []
    covs = {}
    for cell in report["cells"]:
        tag = f"{sim_dir} {cell['design']} gamma={cell['gamma']:g} {cell['estimator']}"
        if not np.isfinite(cell["bias"]) or not np.isfinite(cell["se_bias"]):
            problems.append(f"{tag}: non-finite cell")
            continue
        if cell["estimator"] == "ht":
            if cell["design"] not in covs:
                covs[cell["design"]] = design_covariance(cell["design"], inputs, out)
            ref = ht_bias(model, cell["gamma"], inputs, covs[cell["design"]])
            if abs(cell["bias"] - ref) > MC_Z * cell["se_bias"] + RTOL * (abs(ref) + 1.0):
                problems.append(f"{tag}: bias {cell['bias']:.6g} vs closed form {ref:.6g} "
                                f"(se {cell['se_bias']:.3g})")
        if exact_cells is None:
            continue
        ref = exact_cells.get((cell["design"], cell["gamma"], cell["estimator"]))
        if ref is None:
            continue
        for key, se in (("bias", "se_bias"), ("sd", "se_sd")):
            if abs(cell[key] - ref[key]) > MC_Z * cell[se] + RTOL * abs(ref[key]):
                problems.append(f"{tag}: {key} {cell[key]:.6g} vs enumerated "
                                f"{ref[key]:.6g} (se {cell[se]:.3g})")
    return problems


def check_run_exact(cells: list[dict], model: dict, inputs: Inputs,
                    out: Path) -> list[str]:
    problems = []
    if not cells:
        return ["run_exact returned no cells"]
    for cell in cells:
        tag = f"run_exact {cell['design']} gamma={cell['gamma']:g} {cell['estimator']}"
        if cell["estimator"] != "dim" and abs(cell["degenerate_fraction"]) > RTOL:
            problems.append(f"{tag}: probabilities sum to {1 - cell['degenerate_fraction']!r}")
        if cell["estimator"] == "ht":
            cov = design_covariance(cell["design"], inputs, out)
            ref = ht_bias(model, cell["gamma"], inputs, cov)
            scale = cell["gamma"] * 2.0 * inputs.m / inputs.n
            if abs(cell["bias"] - ref) > RTOL * scale:
                problems.append(f"{tag}: bias {cell['bias']!r} vs closed form {ref!r}")
    return problems


def check_variance_exact(entry: dict, cells: list[dict]) -> list[str]:
    var = entry["variance"]
    problems = []
    if abs(var - entry["three_term_sum"]) > RTOL * abs(var):
        problems.append(f"variance {var!r} != three-term sum {entry['three_term_sum']!r}")
    match = [c for c in cells if c["design"] == entry["design"]
             and c["gamma"] == entry["gamma"] and c["estimator"] == "ht_adjusted"]
    if not match:
        problems.append("no run_exact ht_adjusted cell to compare")
    elif abs(match[0]["sd"] ** 2 - var) > RTOL * abs(var):
        problems.append(f"variance {var!r} != run_exact ht_adjusted {match[0]['sd'] ** 2!r}")
    return problems

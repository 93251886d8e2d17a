from contextlib import contextmanager

import numpy as np
import pytest

import covdesign as cd
from covdesign import optimizer
from covdesign.optimizer import _normalize_rows

# the desk-scale benchmark instance used by the validation suite:
# 10 planted clusters of 20 nodes, dense inside (0.3), sparse across (0.02)
ACCEPTANCE_SBM = dict(blocks=[20] * 10, p_in=0.3, p_out=0.02, seed=11)


@pytest.fixture
def path_graph():
    return cd.Graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def path_clustering():
    return cd.Clustering([0, 0, 1, 1], 2)


@pytest.fixture
def path_summary(path_graph, path_clustering):
    return cd.build_cluster_summary(path_graph, path_clustering)


@pytest.fixture
def single_cluster(path_graph):
    clustering = cd.Clustering([0, 0, 0, 0], 1)
    return path_graph, clustering, cd.build_cluster_summary(path_graph, clustering)


@pytest.fixture
def two_triangles():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    graph = cd.Graph(6, edges)
    clustering = cd.Clustering([0, 0, 0, 1, 1, 1], 2)
    return graph, clustering


@pytest.fixture(scope="session")
def sbm4():
    graph, clustering = cd.generate_sbm([5, 5, 5, 5], 0.6, 0.15, seed=2)
    return graph, clustering


@pytest.fixture(scope="session")
def sbm5():
    graph, clustering = cd.generate_sbm([4, 4, 4, 4, 4], 0.6, 0.15, seed=3)
    return graph, clustering


@pytest.fixture(scope="session")
def sbm12():
    graph, clustering = cd.generate_sbm([4] * 12, 0.5, 0.08, seed=4)
    return graph, clustering


@pytest.fixture(scope="session")
def acceptance_fixture():
    graph, clustering = cd.generate_sbm(**ACCEPTANCE_SBM)
    return graph, clustering, cd.build_cluster_summary(graph, clustering)


@pytest.fixture(scope="session")
def optimized_root(acceptance_fixture):
    _, _, summary = acceptance_fixture
    root, trace = cd.optimize(summary, cd.OptimizerConfig(iterations=2000))
    return root, trace


@contextmanager
def captured_roots():
    """A list that receives a copy of the root of every row `optimize`
    appends to its trace, in order, while the context is open."""
    roots = []
    append = optimizer.OptTrace.append

    def keep(trace, iteration, point, floor, epsilon, root):
        roots.append(root.copy())
        append(trace, iteration, point, floor, epsilon, root)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer.OptTrace, "append", keep)
        yield roots


def unit_rows(r) -> np.ndarray:
    """A copy of `r` with unit-norm rows, projected as a warm start is."""
    return _normalize_rows(np.array(r, dtype=np.float64))


def random_unit_rows(k: int, seed: int, max_offdiag: float = 0.95) -> np.ndarray:
    """Random unit-row root whose Gram off-diagonals stay away from +-1."""
    rng = np.random.default_rng(seed)
    while True:
        r = unit_rows(rng.standard_normal((k, k)))
        gram = r @ r.T
        if np.max(np.abs(gram[~np.eye(k, dtype=bool)]), initial=0.0) < max_offdiag:
            return r


def paired_root(k: int) -> np.ndarray:
    """Unit-row root whose Gram is block diagonal: perfectly anti-correlated
    pairs (0,1), (2,3), ... plus an independent remainder."""
    root = np.zeros((k, k))
    for pair in range(k // 2):
        root[2 * pair, pair] = 1.0
        root[2 * pair + 1, pair] = -1.0
    for rest in range(2 * (k // 2), k):
        root[rest, rest] = 1.0
    return root

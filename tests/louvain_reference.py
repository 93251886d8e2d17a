"""Louvain on scipy sparse matrices, as covdesign ran it before its numpy
version: the tests' reference for `clustering.louvain`.

Each level moves nodes over the off-diagonal CSR weights and aggregates
the communities by ``Pᵀ A P``.  `clustering.louvain` runs the same move
rule, visit order and neighbour order on numpy arrays; the tests require
equal partitions.
"""

import numpy as np
import scipy.sparse as sp

import covdesign as cd


def _local_moves(weights, strength, m, resolution, rng):
    n = weights.shape[0]
    links = (weights - sp.diags(weights.diagonal())).tocsr()
    links.eliminate_zeros()
    indptr, indices, data = links.indptr.tolist(), links.indices, links.data
    k = strength.tolist()
    community = np.arange(n)
    total = strength.copy()
    to_community = np.zeros(n)
    scale = resolution / (2.0 * m)
    order = [u for u in rng.permutation(n).tolist() if indptr[u] < indptr[u + 1]]
    moved = True
    while moved:
        moved = False
        for u in order:
            lo, hi = indptr[u], indptr[u + 1]
            ku, own = k[u], community[u]
            total[own] -= ku
            near = community[indices[lo:hi]]
            np.add.at(to_community, near, data[lo:hi])
            score = to_community[near] - scale * ku * total[near]
            stay = to_community[own] - scale * ku * total[own]
            to_community[near] = 0.0
            best = score.argmax()
            if score[best] > stay:
                own = community[u] = near[best]
                moved = True
            total[own] += ku
    return np.unique(community, return_inverse=True)[1]


def _modularity(weights, strength, m, resolution):
    return weights.diagonal().sum() / (2 * m) - resolution * np.sum(strength**2) / (4 * m * m)


def adjacency(graph):
    """The symmetric CSR adjacency, built from both edge directions as the
    scipy version built `Graph.adjacency`."""
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    return sp.csr_matrix((np.ones(2 * graph.num_edges), (np.concatenate([u, v]),
                                                         np.concatenate([v, u]))),
                         shape=(graph.n, graph.n))


def louvain(graph, resolution=1.0, seed=0):
    """`clustering.louvain` by sparse matrix algebra."""
    if graph.num_edges == 0:
        return cd.Clustering(np.arange(graph.n), graph.n)
    rng = np.random.default_rng(seed)
    m = float(graph.num_edges)
    weights = adjacency(graph)
    strength = graph.degrees.astype(np.float64)
    assignment = np.arange(graph.n)
    quality = _modularity(weights, strength, m, resolution)
    while True:
        community = _local_moves(weights, strength, m, resolution, rng)
        assignment = community[assignment]
        indicator = sp.csr_matrix((np.ones(community.size), (np.arange(community.size), community)))
        weights = (indicator.T @ weights @ indicator).tocsr()
        strength = np.asarray(weights.sum(axis=1)).ravel()
        previous, quality = quality, _modularity(weights, strength, m, resolution)
        if quality - previous <= 1e-7:
            break
    first = np.unique(assignment, return_index=True)[1]
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return cd.Clustering(rank[assignment], first.size)

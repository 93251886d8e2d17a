"""Cluster partitions and the cluster-level contact summary."""

from __future__ import annotations

import warnings
import zipfile
from dataclasses import dataclass

import numpy as np

from .graph import _INTEGER, _MAX_DIGITS, Graph
from .outcomes import check_units

__all__ = [
    "Clustering",
    "ClusterSummary",
    "louvain",
    "contact_matrix",
    "build_cluster_summary",
    "ClusterLaw",
    "cluster_law",
    "read_law",
    "write_law",
    "read_clustering",
    "write_clustering",
]


class Clustering:
    """Partition of nodes 0..n-1 into clusters 0..K-1 (no empty cluster)."""

    __slots__ = ("assignment", "k")

    def __init__(self, assignment: np.ndarray, k: int):
        assignment = np.asarray(assignment)
        if assignment.ndim != 1 or assignment.size == 0:
            raise ValueError("assignment must be a nonempty 1-d vector")
        if assignment.dtype.kind not in "iu":
            raise ValueError(f"cluster ids must be integers, got dtype {assignment.dtype}")
        assignment = assignment.astype(np.int64, copy=False)
        if assignment.min() < 0:
            raise ValueError(f"cluster ids must be nonnegative, got {assignment.min()}")
        counts = np.bincount(assignment, minlength=k)
        if assignment.max() >= k or counts.size != k or np.any(counts == 0):
            raise ValueError("cluster ids must cover 0..K-1 with no empty cluster")
        assignment.setflags(write=False)
        self.assignment = assignment
        self.k = int(k)

    @property
    def n(self) -> int:
        return self.assignment.size

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Clustering)
            and self.k == other.k
            and np.array_equal(self.assignment, other.assignment)
        )

    def __repr__(self) -> str:
        return f"Clustering(n={self.n}, k={self.k})"


@dataclass(frozen=True)
class ClusterSummary:
    """Cluster-level view of a clustered graph.

    ``contact[a, b]`` counts ordered cross-endpoint pairs, i.e. both
    orientations of every undirected edge, so the matrix is symmetric,
    its diagonal is twice the within-cluster edge count, its row sums
    equal the cluster degree vector, and its grand total is 2|E|.
    """

    contact: np.ndarray
    cluster_degrees: np.ndarray
    sizes: np.ndarray
    n: int
    total: float

    @property
    def k(self) -> int:
        return self.contact.shape[0]


def contact_matrix(graph: Graph, clustering: Clustering, weights=None) -> np.ndarray:
    """The K x K sum over both orientations i -> j of every edge: cell (a, b)
    adds ``weights[i]`` for i in cluster a and j in cluster b, or counts
    the orientations when `weights` is None."""
    check_units(graph.n, clustering=clustering)
    k = clustering.k
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    key = clustering.assignment[u] * k
    key += clustering.assignment[v]
    if weights is None:
        forward = backward = np.bincount(key, minlength=k * k)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (graph.n,):
            raise ValueError(f"weights have shape {weights.shape}, graph has {graph.n} units")
        forward = np.bincount(key, weights[u], minlength=k * k)
        backward = np.bincount(key, weights[v], minlength=k * k)
    return np.add(forward.reshape(k, k), backward.reshape(k, k).T, dtype=np.float64)


def build_cluster_summary(graph: Graph, clustering: Clustering) -> ClusterSummary:
    """Count directed cross/within-cluster edge endpoints for a partition."""
    return _summary(contact_matrix(graph, clustering), clustering.sizes, graph.n)


def _summary(contact: np.ndarray, sizes: np.ndarray, n: int) -> ClusterSummary:
    contact.setflags(write=False)
    degrees = contact.sum(axis=1)
    degrees.setflags(write=False)
    return ClusterSummary(contact=contact, cluster_degrees=degrees, sizes=sizes, n=n,
                          total=float(contact.sum()))


@dataclass(frozen=True)
class ClusterLaw:
    """All that the designs, the closed forms and the outcome models read of
    a clustered graph: the partition, its summary, the unit degrees d, the
    contact matrices weighted by 1/d and by d (`contact_matrix`; 0 for an
    isolated unit), and the n x K neighbour counts N (N_ib: neighbours of
    unit i in cluster b) as the CSR triplet ``(indptr, indices, counts)``.
    """

    clustering: Clustering
    summary: ClusterSummary
    degrees: np.ndarray
    inverse_contact: np.ndarray
    degree_contact: np.ndarray
    neighbours: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def n(self) -> int:
        return self.summary.n

    @property
    def k(self) -> int:
        return self.clustering.k

    @property
    def mean_degree(self) -> float:
        return self.summary.total / self.n  # the total counts every edge twice


def cluster_law(graph: Graph, clustering: Clustering) -> ClusterLaw:
    """The `ClusterLaw` of a graph and a partition of its units."""
    summary = build_cluster_summary(graph, clustering)
    deg = graph.degrees.astype(np.float64)
    inverse = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    assign, k = clustering.assignment, clustering.k
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    cells, counts = np.unique(np.concatenate([u * k + assign[v], v * k + assign[u]]),
                              return_counts=True)
    neighbours = (np.searchsorted(cells, np.arange(graph.n + 1) * k),
                  (cells % k).astype(np.int32), counts.astype(np.int32))
    return ClusterLaw(clustering, summary, graph.degrees,
                      contact_matrix(graph, clustering, inverse),
                      contact_matrix(graph, clustering, deg), neighbours)


# the tag of the law file's layout; a file with another tag is rebuilt, not read
LAW_FORMAT = "covdesign cluster law 1"


def write_law(law: ClusterLaw, path, graph_digest: str, partition_digest: str) -> None:
    """Store `law` with the sha256 digests of the graph and partition files
    it was built from."""
    indptr, indices, counts = law.neighbours
    with open(path, "wb") as fh:
        np.savez(fh, format=LAW_FORMAT, graph_sha256=graph_digest,
                 partition_sha256=partition_digest, assignment=law.clustering.assignment,
                 contact=law.summary.contact.astype(np.int64), degrees=law.degrees,
                 inverse_contact=law.inverse_contact, degree_contact=law.degree_contact,
                 indptr=indptr, indices=indices, counts=counts)


def read_law(path, graph_digest: str, partition_digest: str):
    """``(law, None)`` for the law stored at `path`, or ``(None, reason)``
    when it cannot be used: "missing", "unreadable", or "stale" when it
    carries another format tag or was built from files with other digests."""
    try:
        with open(path, "rb") as fh:  # np.load leaves the file open when it is not a zip
            stored = np.load(fh, allow_pickle=False)
            for key, value in (("format", LAW_FORMAT), ("graph_sha256", graph_digest),
                               ("partition_sha256", partition_digest)):
                if str(stored[key]) != value:
                    return None, "stale"
            contact = stored["contact"].astype(np.float64)
            clustering = Clustering(stored["assignment"], contact.shape[0])
            return ClusterLaw(
                clustering, _summary(contact, clustering.sizes, clustering.n),
                stored["degrees"], stored["inverse_contact"], stored["degree_contact"],
                (stored["indptr"], stored["indices"], stored["counts"])), None
    except FileNotFoundError:
        return None, "missing"
    except (OSError, EOFError, IndexError, KeyError, ValueError, zipfile.BadZipFile):
        return None, "unreadable"


def _local_moves(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 strength: np.ndarray, m: float, resolution: float,
                 rng: np.random.Generator) -> np.ndarray:
    """One Louvain level: move nodes between communities until none moves.

    The level's weights are CSR arrays without the diagonal, each row's
    neighbours ascending.  Nodes are visited in one random order, sweep
    after sweep.  Node u, taken out of its community, joins the
    neighbouring community c with the largest gain
    ``w_to_c/m - resolution·tot_c·k_u/(2m²)`` if that beats returning to
    its own; scores here are the gains times m, and of equal scores the
    first in neighbour order wins.  Returns community ids relabelled to
    0..K'-1.
    """
    n = strength.size
    indptr = indptr.tolist()
    k = strength.tolist()
    community = np.arange(n)
    total = strength.copy()
    to_community = np.zeros(n)  # weight from u to each community, reset after each node
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


def _aggregate(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
               diagonal: np.ndarray, community: np.ndarray):
    """The next level's ``(indptr, indices, data, diagonal)``: every
    community one node, its internal weight (old diagonal included) on the
    diagonal, the weights between two communities summed, neighbours
    ascending."""
    k = int(community.max()) + 1
    rows = np.repeat(community, np.diff(indptr))
    cols = community[indices]
    inside = rows == cols
    diagonal = np.bincount(community, diagonal, minlength=k)
    diagonal += np.bincount(rows[inside], data[inside], minlength=k)
    key = rows[~inside] * k + cols[~inside]
    key, slot = np.unique(key, return_inverse=True)
    data = np.bincount(slot, data[~inside], minlength=key.size)
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // k, minlength=k), out=indptr[1:])
    return indptr, key % k, data, diagonal


def _modularity(diagonal: np.ndarray, strength: np.ndarray, m: float,
                resolution: float) -> float:
    """Modularity of the partition whose communities are the nodes of a level
    with internal weights `diagonal` and strengths `strength`."""
    return diagonal.sum() / (2 * m) - resolution * np.sum(strength**2) / (4 * m * m)


def louvain(graph: Graph, resolution: float = 1.0, seed: int = 0) -> Clustering:
    """Louvain community detection (Blondel et al., J. Stat. Mech. 2008,
    P10008), deterministic for a fixed seed.

    Each level runs local moves in one order drawn from
    ``np.random.default_rng(seed)``, then aggregates every community into
    one node, with intra-community weight on the diagonal.  Levels stop
    once one raises modularity by at most 1e-7.  The resolution parameter
    multiplies the expected-edges term of the modularity gain, so larger
    values produce more, smaller communities.  Cluster ids are ordered by
    smallest member.  A graph with no edges returns singleton clusters.
    Runs on numpy arrays from `Graph.csr`; all weights are integers, so
    every sum is exact.
    """
    if not 0 < resolution < np.inf:  # a NaN or infinite resolution never converges
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if graph.num_edges == 0:
        return Clustering(np.arange(graph.n), graph.n)
    rng = np.random.default_rng(seed)
    m = float(graph.num_edges)
    indptr, indices = graph.csr
    data = np.ones(indices.size)
    diagonal = np.zeros(graph.n)
    strength = graph.degrees.astype(np.float64)
    assignment = np.arange(graph.n)
    quality = _modularity(diagonal, strength, m, resolution)
    while True:
        community = _local_moves(indptr, indices, data, strength, m, resolution, rng)
        assignment = community[assignment]
        indptr, indices, data, diagonal = _aggregate(indptr, indices, data, diagonal,
                                                     community)
        strength = np.bincount(community, strength, minlength=diagonal.size)
        previous, quality = quality, _modularity(diagonal, strength, m, resolution)
        if quality - previous <= 1e-7:
            break
    # stable ids: order communities by their smallest member
    first = np.unique(assignment, return_index=True)[1]
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return Clustering(rank[assignment], first.size)


def write_clustering(clustering: Clustering, path) -> None:
    """Write one ``unit_id cluster_id`` row per unit, sorted by unit."""
    with open(path, "w", encoding="utf-8") as fh:
        for unit, cid in enumerate(clustering.assignment):
            fh.write(f"{unit} {cid}\n")


def read_clustering(path, n: int | None = None) -> Clustering:
    """Read a ``unit_id cluster_id`` file back into a Clustering.

    Every unit 0..n-1 must appear exactly once (n inferred from the file
    when not given).  Non-contiguous cluster ids are remapped to 0..K-1 in
    sorted order with a warning.
    """
    path = str(path)
    seen: dict[int, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                text = raw.strip()
                if not text or text.startswith("#"):
                    continue
                tokens = text.split()
                if len(tokens) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 'unit_id cluster_id'")
                if not all(_INTEGER.fullmatch(t) for t in tokens):
                    raise ValueError(f"{path}:{lineno}: non-integer id in {text!r}")
                # every id of up to _MAX_DIGITS digits fits the int64 assignment
                if any(len(t.lstrip("-")) > _MAX_DIGITS for t in tokens):
                    raise ValueError(f"{path}:{lineno}: id too large in {text!r}")
                unit, cid = int(tokens[0]), int(tokens[1])
                if unit < 0:
                    raise ValueError(f"{path}:{lineno}: negative unit id in {text!r}")
                if unit in seen:
                    raise ValueError(f"{path}:{lineno}: duplicate assignment for unit {unit}")
                seen[unit] = cid
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None
    if not seen:
        raise ValueError(f"{path}: empty clustering file")
    size = n if n is not None else max(seen) + 1
    missing = next((u for u in range(size) if u not in seen), None)
    if missing is not None:
        raise ValueError(f"{path}: no cluster assignment for unit {missing}")
    extra = next((u for u in seen if u >= size), None)
    if extra is not None:
        raise ValueError(f"{path}: unit {extra} outside 0..{size - 1}")
    raw_ids = np.array([seen[u] for u in range(size)], dtype=np.int64)
    unique, assignment = np.unique(raw_ids, return_inverse=True)
    if unique.size != unique.max() + 1 or unique.min() != 0:
        warnings.warn(
            f"{path}: non-contiguous cluster ids remapped to 0..{unique.size - 1}",
            stacklevel=2,
        )
    return Clustering(assignment, unique.size)

"""Undirected simple graphs: file IO and synthetic generators."""

from __future__ import annotations

import re
import warnings
from typing import NoReturn

import numpy as np

from ._memory import bytes_text, physical_memory

__all__ = [
    "Graph",
    "GraphFormatError",
    "load_edge_list",
    "save_edge_list",
    "generate_sbm",
]


class GraphFormatError(ValueError):
    """Raised when a graph file cannot be parsed."""


class Graph:
    """Immutable undirected simple graph on nodes 0..n-1.

    Edges are stored as a (m, 2) array of pairs with u < v, sorted
    lexicographically and free of duplicates and self-loops.  Node degrees
    are precomputed; isolated nodes are legal and retained.
    """

    __slots__ = ("n", "edges", "degrees", "labels", "_csr")

    def __init__(self, n: int, edges: np.ndarray, labels: np.ndarray | None = None):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if n <= 0:
            raise ValueError("graph must have at least one node")
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValueError("edge endpoint outside 0..n-1")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ValueError("self-loops are not allowed")
        key = _edge_keys(edges, n)
        if np.any(key[1:] == key[:-1]):
            raise ValueError("duplicate edges are not allowed")
        self._fill(n, key, labels)

    @classmethod
    def _from_keys(cls, n: int, key: np.ndarray, labels: np.ndarray | None = None) -> Graph:
        """The graph of sorted, distinct edge keys ``lo·n + hi`` with lo < hi,
        taken as given: the parser's keys are canonical by construction."""
        graph = cls.__new__(cls)
        graph._fill(n, key, labels)
        return graph

    def _fill(self, n: int, key: np.ndarray, labels: np.ndarray | None) -> None:
        edges = np.empty((key.size, 2), dtype=np.int64)
        np.floor_divide(key, n, out=edges[:, 0])
        np.remainder(key, n, out=edges[:, 1])
        edges.setflags(write=False)
        degrees = np.bincount(edges.ravel(), minlength=n).astype(np.int64)
        degrees.setflags(write=False)
        self.n = int(n)
        self.edges = edges
        self.degrees = degrees
        self.labels = None if labels is None else np.asarray(labels)
        self._csr = None

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def mean_degree(self) -> float:
        return 2.0 * self.num_edges / self.n

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the symmetric adjacency, built lazily and
        cached: the neighbours of u, ascending, are
        ``indices[indptr[u]:indptr[u + 1]]``."""
        if self._csr is None:
            u, v = self.edges[:, 0], self.edges[:, 1]
            key = np.concatenate([u * self.n + v, v * self.n + u])
            key.sort()
            indices = np.remainder(key, self.n, out=key)
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(self.degrees, out=indptr[1:])
            indices.setflags(write=False)
            indptr.setflags(write=False)
            self._csr = indptr, indices
        return self._csr

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.edges, other.edges)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"


# ASCII whitespace as ``str.split`` sees it; CR and LF also end a line
_SPACE = " \t\n\r\v\f\x1c\x1d\x1e\x1f"
_IS_SPACE = np.zeros(256, dtype=bool)
_IS_SPACE[[ord(c) for c in _SPACE]] = True
_TOKEN = re.compile(f"[^{re.escape(_SPACE)}]+")
_INTEGER = re.compile(r"-?[0-9]+")
_LINE_END = re.compile(rb"\r\n|\r|\n")
_LEADING_SPACE = re.compile(b"[" + re.escape(_SPACE.encode()) + b"]*")
_MAX_DIGITS = 18  # every id of up to 18 characters fits in int64
_DIGITS = b"0123456789"
_DIGITS_AND_SPACE = _DIGITS + b" \t\r\n"
# 10^1 .. 10^18: a value's decimal length is one more than the powers at or below it
_POWERS = 10 ** np.arange(1, _MAX_DIGITS + 1, dtype=np.int64)
# bytes per scan block: the scan's temporaries, up to about 23 B per input
# byte, stay near 1.5 MB however large the file
SCAN_BLOCK = 1 << 16


def _lines(data: bytes, lineno: int = 1):
    """Yield ``(lineno, line, end)`` for each line of `data`, split at CR, LF
    or CRLF as text mode splits; `end` is the offset after the line break."""
    pos = 0
    for match in _LINE_END.finditer(data):
        yield lineno, data[pos:match.start()], match.end()
        pos, lineno = match.end(), lineno + 1
    if pos < len(data):
        yield lineno, data[pos:], len(data)


def _leading_pairs(buf: np.ndarray, comment: str, exact: bool) -> np.ndarray | None:
    """The first two tokens of every line that is neither blank nor a comment.

    `buf` holds the file's bytes.  Lines end at CR or LF, and a comment
    line's first token starts with `comment`.  Returns an (m, 2) int64
    array, or None when a line has fewer than two tokens (more than two
    with `exact`) or one of its first two tokens is not a string of at
    most 18 ASCII digits.
    """
    space = np.concatenate(([True], _IS_SPACE[buf], [True]))
    step = np.diff(space.view(np.int8))
    starts = np.flatnonzero(step == -1)
    ends = np.flatnonzero(step == 1)
    if starts.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    line = np.searchsorted(np.flatnonzero((buf == 10) | (buf == 13)), starts)
    first = np.flatnonzero(np.diff(line, prepend=-1))
    count = np.diff(first, append=starts.size)
    keep = buf[starts[first]] != ord(comment)
    first, count = first[keep], count[keep]
    if np.any(count != 2) if exact else np.any(count < 2):
        return None
    tokens = np.column_stack([first, first + 1]).ravel()
    lo = starts[tokens]
    length = ends[tokens] - lo
    if length.size and length.max() > _MAX_DIGITS:
        return None
    other = np.flatnonzero(~space[1:-1] & (buf - np.uint8(48) > 9))
    if other.size:
        chosen = np.zeros(starts.size, dtype=bool)
        chosen[tokens] = True
        if chosen[np.searchsorted(starts, other, side="right") - 1].any():
            return None
    value = np.zeros(tokens.size, dtype=np.int64)
    for j in range(int(length.max(initial=0))):
        live = np.flatnonzero(length > j)
        value[live] = value[live] * 10 + (buf[lo[live] + j] - np.uint8(48))
    return value.reshape(-1, 2)


def _blocks(data: bytes, start: int):
    """Yield ``(lo, hi)`` spans that tile ``data[start:]``, each of about
    `SCAN_BLOCK` bytes and cut just after a CR or LF, so no line is split.
    A line longer than a block makes its block longer."""
    size = len(data)
    lf = cr = -1  # next LF / CR at or after the last search point, or `size`
    lo = start
    while lo < size:
        hi = lo + SCAN_BLOCK
        if hi >= size:
            yield lo, size
            return
        if lf < hi - 1:
            lf = data.find(b"\n", hi - 1)
            lf = size if lf < 0 else lf
        if cr < hi - 1:
            cr = data.find(b"\r", hi - 1)
            cr = size if cr < 0 else cr
        hi = min(min(lf, cr) + 1, size)
        yield lo, hi
        lo = hi


def _scan_pairs(data: bytes, start: int, comment: str, exact: bool) -> np.ndarray | None:
    """`_leading_pairs` of ``data[start:]``, one block at a time; None when
    any block is rejected."""
    parts = []
    for lo, hi in _blocks(data, start):
        pairs = _leading_pairs(np.frombuffer(data, np.uint8, hi - lo, lo), comment, exact)
        if pairs is None:
            return None
        parts.append(pairs)
    return np.concatenate(parts) if parts else np.empty((0, 2), dtype=np.int64)


def _read_pairs(path: str, data: bytes, start: int, skiprows: int) -> np.ndarray | None:
    """The ``u v`` pairs of ``data[start:]``, the file's lines after the
    first `skiprows`, read by numpy's C reader; None unless those bytes are
    ASCII digits, spaces, tabs, CRs and LFs only, every line that is not
    blank holds exactly two ids, and every id has at most 18 digits and no
    leading zero.  Every other input, valid or not, goes to `_scan_pairs`.
    """
    body = data[start:] if start else data
    if body.translate(None, _DIGITS_AND_SPACE):
        return None
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            pairs = np.loadtxt(path, dtype=np.int64, ndmin=2, comments=None,
                               skiprows=skiprows)
        except (ValueError, OverflowError):
            return None
    if pairs.shape[1] != 2 or pairs.max() >= _POWERS[-1]:
        return None
    # equal counts prove that no id was written with a leading zero
    lengths = np.searchsorted(_POWERS, pairs, side="right").sum() + pairs.size
    if len(body) - len(body.translate(None, _DIGITS)) != lengths:
        return None
    return pairs


def _raise_first_bad_line(data: bytes, lineno: int, size: int | None) -> NoReturn:
    """Re-scan a rejected plain list (`size` None) or MatrixMarket body line
    by line, and raise the error of its first bad line."""
    comment = "#" if size is None else "%"
    for lineno, line, _ in _lines(data, lineno):
        text = line.decode("utf-8", "replace").strip(_SPACE)
        if not text or text.startswith(comment):
            continue
        tokens = _TOKEN.findall(text)
        if size is None:
            if len(tokens) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'u v', got {text!r}")
            if not all(_INTEGER.fullmatch(t) for t in tokens):
                raise GraphFormatError(f"line {lineno}: non-integer node id in {text!r}")
            if any(t.startswith("-") for t in tokens):
                raise GraphFormatError(f"line {lineno}: negative node id in {text!r}")
            if any(len(t) > _MAX_DIGITS for t in tokens):
                raise GraphFormatError(f"line {lineno}: node id too large in {text!r}")
            continue
        if len(tokens) < 2:
            raise GraphFormatError(f"line {lineno}: expected 'i j [value]', got {text!r}")
        if not all(_INTEGER.fullmatch(t) for t in tokens[:2]):
            raise GraphFormatError(f"line {lineno}: non-integer entry in {text!r}")
        a, b = int(tokens[0]) - 1, int(tokens[1]) - 1
        if a < 0 or b < 0 or a >= size or b >= size:
            raise GraphFormatError(f"line {lineno}: entry ({a + 1}, {b + 1}) outside 1..{size}")
        if any(len(t) > _MAX_DIGITS for t in tokens[:2]):
            raise GraphFormatError(f"line {lineno}: index too large in {text!r}")
    # not reached: every line the vectorized scan rejects fails a check above
    raise GraphFormatError("malformed edge list")


def _id_space(ids: np.ndarray) -> tuple[int, np.ndarray, np.ndarray | None]:
    """Map plain-list node ids to 0..n-1 in place; returns ``(n, ids, labels)``.

    0-based ids stay put and 1-based ids shift down; anything else is
    renumbered in order of first appearance.  ``labels`` holds the original
    id of every node, or None when the ids were already 0..n-1.
    """
    top = int(ids.max())
    if top <= ids.size:  # only then can the ids be exactly 0..n-1 or 1..n
        present = np.bincount(ids, minlength=top + 1).astype(bool)
        if present.all():
            return top + 1, ids, None
        if not present[0] and present[1:].all():
            ids -= 1
            return top, ids, np.arange(1, top + 1, dtype=np.int64)
    # one stable sort groups equal ids, each group ordered by appearance
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    first = np.empty(ids.size, dtype=bool)
    first[0] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=first[1:])
    unique = sorted_ids[first]
    del sorted_ids
    by_appearance = np.argsort(order[first])
    position = np.empty(unique.size, dtype=np.int64)
    position[by_appearance] = np.arange(unique.size)
    group = np.cumsum(first)
    group -= 1
    ids[order] = position[group]
    return unique.size, ids, unique[by_appearance]


def _parse_plain_edge_list(path: str, data: bytes) -> tuple[int, np.ndarray, np.ndarray | None]:
    pairs = _read_pairs(path, data, 0, 0)
    if pairs is None:
        pairs = _scan_pairs(data, 0, "#", exact=True)
    if pairs is None:
        _raise_first_bad_line(data, 1, None)
    if pairs.size == 0:
        return 0, pairs, None
    n, ids, labels = _id_space(pairs.ravel())
    return n, ids.reshape(-1, 2), labels


def _parse_matrix_market(path: str, data: bytes) -> tuple[int, np.ndarray, None]:
    header = None
    for lineno, line, end in _lines(data):
        text = line.decode("utf-8", "replace").strip()
        if not text:
            continue
        if header is None:  # the caller found the %%MatrixMarket banner here
            fields = text.split()
            if len(fields) < 5 or fields[1] != "matrix" or fields[2] != "coordinate":
                raise GraphFormatError(f"line {lineno}: unsupported header {text!r}")
            header = fields
            if fields[3] not in ("pattern", "integer", "real"):
                raise GraphFormatError(f"line {lineno}: unsupported field {fields[3]!r}")
            if fields[4] not in ("symmetric", "general"):
                raise GraphFormatError(f"line {lineno}: unsupported symmetry {fields[4]!r}")
            continue
        if text.startswith("%"):
            continue
        tokens = text.split()
        if len(tokens) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'rows cols nnz'")
        if not all(_INTEGER.fullmatch(t) for t in tokens):
            raise GraphFormatError(f"line {lineno}: non-integer size in {text!r}")
        rows, cols, _ = (int(t) for t in tokens)
        if rows != cols:
            raise GraphFormatError(f"line {lineno}: matrix must be square, got {rows}x{cols}")
        _check_size(rows, lineno)
        break
    else:
        raise GraphFormatError("truncated MatrixMarket file")
    pairs = _read_pairs(path, data, end, lineno)
    if pairs is None:
        pairs = _scan_pairs(data, end, "%", exact=False)
    if pairs is None or (pairs.size and (pairs.min() < 1 or pairs.max() > rows)):
        _raise_first_bad_line(data[end:], lineno + 1, rows)
    pairs -= 1
    return rows, pairs, None


def _check_size(n: int, lineno: int) -> None:
    """Refuse a declared node count that cannot be held: its edge keys
    ``lo·n + hi`` must fit in int64, and its degree vector in memory."""
    if n * n >= 2**63:
        raise GraphFormatError(
            f"line {lineno}: declared size {n} x {n} is too large: edge keys "
            f"lo*n + hi need n^2 < 2^63")
    memory = physical_memory()
    if memory is not None and 8 * n > memory:
        raise GraphFormatError(
            f"line {lineno}: declared size {n} x {n} needs {bytes_text(8 * n)} for its "
            f"degree vector alone, more than this machine's {bytes_text(memory)} of memory")


def _edge_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    """Sorted keys ``lo·n + hi`` of the pairs' canonical ``lo <= hi`` forms."""
    u, v = pairs[:, 0], pairs[:, 1]
    key = np.minimum(u, v)
    key *= n
    key += np.maximum(u, v)
    key.sort()
    return key


def load_edge_list(path) -> Graph:
    """Load a graph from a plain edge list or MatrixMarket file.

    A file whose first non-blank line starts with ``%%MatrixMarket`` is
    read as MatrixMarket, any other as a plain list.

    Plain lists: one ``u v`` pair per line, separated by ASCII whitespace,
    each id a string of at most 18 ASCII digits; ``#`` comments ignored.
    0-based ids are kept, 1-based ids shift down by one, and any other ids
    are remapped to 0..n-1 in order of first appearance (original ids kept
    in ``Graph.labels``).  MatrixMarket: 1-based coordinate entries,
    ``pattern``/``symmetric`` kinds accepted; the declared dimension fixes
    n, so isolated nodes survive.  Self-loops and duplicate edges are
    dropped with a counted warning.  A malformed line raises
    ``GraphFormatError`` naming its line number.
    """
    path = str(path)
    with open(path, "rb") as fh:
        data = fh.read()
    start = _LEADING_SPACE.match(data).end()
    at_line_start = start == 0 or data[start - 1] in b"\r\n"
    if at_line_start and data.startswith(b"%%MatrixMarket", start):
        n, pairs, labels = _parse_matrix_market(path, data)
    else:
        n, pairs, labels = _parse_plain_edge_list(path, data)
    del data
    loop = pairs[:, 0] == pairs[:, 1]
    self_loops = int(np.count_nonzero(loop))
    key = _edge_keys(pairs[~loop] if self_loops else pairs, n)
    del pairs, loop
    distinct = np.empty(key.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(key[1:], key[:-1], out=distinct[1:])
    duplicates = key.size - int(np.count_nonzero(distinct))
    if duplicates:
        key = key[distinct]
    del distinct
    if self_loops or duplicates:
        warnings.warn(
            f"{path}: dropped {self_loops} self-loop(s) and {duplicates} duplicate edge(s)",
            stacklevel=2,
        )
    if key.size == 0:
        raise GraphFormatError(f"{path}: empty edge set")
    return Graph._from_keys(n, key, labels=labels)


def save_edge_list(graph: Graph, path) -> None:
    """Write the canonical plain edge-list form (sorted ``u v`` lines)."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in graph.edges:
            fh.write(f"{u} {v}\n")


def generate_sbm(blocks, p_in: float, p_out: float, seed: int):
    """Sample a stochastic block model graph with its planted partition.

    Every within-block pair is an edge with probability `p_in`, every
    cross-block pair with probability `p_out`.  Deterministic for a fixed
    seed.  Returns ``(Graph, Clustering)`` where the clustering is the
    planted block structure.
    """
    from .clustering import Clustering

    sizes = [int(b) for b in blocks]
    if not sizes or any(b <= 0 for b in sizes):
        raise ValueError("blocks must be a nonempty list of positive sizes")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ValueError("require 0 <= p_out <= p_in <= 1")
    n = sum(sizes)
    assignment = np.repeat(np.arange(len(sizes)), sizes)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(assignment[iu] == assignment[ju], p_in, p_out)
    keep = rng.random(iu.size) < prob
    edges = np.column_stack([iu[keep], ju[keep]])
    return Graph(n, edges), Clustering(assignment, len(sizes))


"""Property tests: the vectorized edge-list parser against a line-by-line
reference parser with the same semantics."""

import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import covdesign as cd
from covdesign import graph as graph_module
from covdesign.graph import GraphFormatError

BAD_PLAIN_LINES = ["7", "1 2 3", "1.5 2", "2 1.5", "-3 4", "4 -3", "x 1"]
EOLS = ["\n", "\r\n", "\r"]
SEPARATORS = [" ", "\t", "  ", " \t "]


def reference_parse(text: str, fmt: str, path: str):
    """Parse one line at a time with Python's int().

    Returns ``(n, edges, labels, warning)`` or the GraphFormatError message.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    header, size, seen, pairs, loops = False, None, {}, [], 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if fmt == "plain":
            if line.startswith("#"):
                continue
            if len(tokens) != 2:
                return f"line {lineno}: expected 'u v', got {line!r}"
            try:
                a, b = int(tokens[0]), int(tokens[1])
            except ValueError:
                return f"line {lineno}: non-integer node id in {line!r}"
            if a < 0 or b < 0:
                return f"line {lineno}: negative node id in {line!r}"
            seen.setdefault(a)
            seen.setdefault(b)
        else:
            if not header:
                header = True
                continue
            if line.startswith("%"):
                continue
            if size is None:
                size = int(tokens[0])
                continue
            if len(tokens) < 2:
                return f"line {lineno}: expected 'i j [value]', got {line!r}"
            try:
                a, b = int(tokens[0]) - 1, int(tokens[1]) - 1
            except ValueError:
                return f"line {lineno}: non-integer entry in {line!r}"
            if a < 0 or b < 0 or a >= size or b >= size:
                return f"line {lineno}: entry ({a + 1}, {b + 1}) outside 1..{size}"
        if a == b:
            loops += 1
        else:
            pairs.append((a, b))
    labels = None
    if fmt == "plain":
        ids = sorted(seen)
        size = len(ids)
        if ids and ids[0] == 0 and ids[-1] == size - 1:
            index = {node: node for node in ids}
        elif ids and ids[0] == 1 and ids[-1] == size:
            index = {node: node - 1 for node in ids}
            labels = ids
        else:
            index = {node: pos for pos, node in enumerate(seen)}
            labels = list(seen)
        pairs = [(index[a], index[b]) for a, b in pairs]
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs})
    warning = None
    if loops or len(pairs) > len(edges):
        warning = (f"{path}: dropped {loops} self-loop(s) and "
                   f"{len(pairs) - len(edges)} duplicate edge(s)")
    if not edges:
        return f"{path}: empty edge set"
    return size, edges, labels, warning


def parse_outcome(path: Path):
    """``(n, edges, labels, warning)`` of `load_edge_list`, or its error message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            graph = cd.load_edge_list(path)
        except GraphFormatError as exc:
            return str(exc)
    warning = str(caught[0].message) if caught else None
    labels = None if graph.labels is None else graph.labels.tolist()
    return graph.n, [tuple(e) for e in graph.edges.tolist()], labels, warning


def vectorized_parse(text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_bytes(text.encode("utf-8"))
        return str(path), parse_outcome(path)


def assemble(draw, lines, bad_lines, comment):
    """Interleave comment and blank lines and maybe one malformed line, then
    join everything with one line ending."""
    out = []
    for line in lines:
        extra = draw(st.sampled_from(["", "", "", "blank", "comment"]))
        if extra == "blank":
            out.append(draw(st.sampled_from(["", "  ", "\t"])))
        elif extra == "comment":
            out.append(draw(st.sampled_from([comment, f"{comment} café 1 2", f"  {comment}x"])))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        out.append(pad + line + draw(st.sampled_from(["", " ", "\t"])))
    bad = draw(st.one_of(st.none(), st.sampled_from(bad_lines)))
    if bad is not None:
        out.insert(draw(st.integers(0, len(out))), bad)
    eol = draw(st.sampled_from(EOLS))
    return eol.join(out) + draw(st.sampled_from(["", eol]))


@st.composite
def plain_files(draw):
    n = draw(st.integers(2, 12))
    space = draw(st.sampled_from(["zero", "one", "scattered"]))
    if space == "scattered":
        ids = draw(st.lists(st.integers(0, 10**12), min_size=n, max_size=n, unique=True))
    else:
        ids = list(range(space == "one", n + (space == "one")))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=25))
    if draw(st.booleans()):  # a path through every node pins the id space
        order = draw(st.permutations(range(n)))
        pairs += list(zip(order, order[1:]))
    if pairs and draw(st.booleans()):  # duplicates and reversed duplicates
        pairs += [p[::-1] for p in draw(st.lists(st.sampled_from(pairs), max_size=5))]
    pairs = draw(st.permutations(pairs))
    lines = [f"{ids[a]}{draw(st.sampled_from(SEPARATORS))}{ids[b]}" for a, b in pairs]
    return assemble(draw, lines, BAD_PLAIN_LINES, "#")


@st.composite
def matrix_market_files(draw):
    size = draw(st.integers(1, 10))
    field = draw(st.sampled_from(["pattern", "integer", "real"]))
    symmetry = draw(st.sampled_from(["symmetric", "general"]))
    node = st.integers(1, size)
    pairs = draw(st.lists(st.tuples(node, node), max_size=25))
    value = {"pattern": "", "integer": " 3", "real": " 0.5e-1"}[field]
    lines = [f"{a}{draw(st.sampled_from(SEPARATORS))}{b}{value}" for a, b in pairs]
    bad = ["3", "1.5 2", "-3 1", f"{size + 1} 1", f"1 {size + 1}", "0 1"]
    body = assemble(draw, lines, bad, "%")
    eol = draw(st.sampled_from(EOLS))
    head = [f"%%MatrixMarket matrix coordinate {field} {symmetry}"]
    if draw(st.booleans()):
        head.append("% generated")
    head.append(f"{size} {size} {len(pairs)}")
    return eol.join(head) + eol + body


@settings(max_examples=400, deadline=None)
@given(plain_files())
def test_plain_parser_matches_reference(text):
    path, result = vectorized_parse(text)
    assert result == reference_parse(text, "plain", path)


@settings(max_examples=300, deadline=None)
@given(matrix_market_files())
def test_matrix_market_parser_matches_reference(text):
    path, result = vectorized_parse(text)
    assert result == reference_parse(text, "mm", path)


def test_reference_and_parser_agree_on_a_hand_case():
    text = "# ids 5, 9, 7\r\n5 9\r\n\r\n9\t7\r\n7 7\r\n9 5\r\n"
    path, result = vectorized_parse(text)
    assert result == (3, [(0, 1), (1, 2)], [5, 9, 7],
                      f"{path}: dropped 1 self-loop(s) and 1 duplicate edge(s)")
    assert result == reference_parse(text, "plain", path)


def test_bad_line_after_crlf_lines_is_numbered_like_text_mode():
    path, result = vectorized_parse("0 1\r\n1 2\r3 4\n\n5 6 7\n")
    assert result == "line 5: expected 'u v', got '5 6 7'"


def test_overlong_id_is_rejected_with_its_line():
    path, result = vectorized_parse("0 1\n1 1234567890123456789\n")
    assert result == "line 2: node id too large in '1 1234567890123456789'"
    header = "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n"
    path, result = vectorized_parse(header + "1 2\n0000000000000000002 3\n")
    assert result == "line 4: index too large in '0000000000000000002 3'"



def _digit_token(draw, value: int, clean: bool) -> str:
    """`value` as written, or unless `clean` maybe zero-padded to 18
    characters or beyond."""
    return str(value).zfill(0 if clean else draw(st.sampled_from([0, 0, 0, 18, 19, 21])))


@st.composite
def digit_only_files(draw):
    """Plain lists and MatrixMarket pattern files whose body is ASCII digits,
    spaces, tabs, CRs and LFs only: 0-based, 1-based, sparse and 18- to
    20-digit ids, padded ids, trailing spaces, blank lines, lines of three
    tokens, every line ending, and empty bodies.  Half of them hold no padded
    id and no third token, so that the fast path takes them whole."""
    matrix_market, clean = draw(st.booleans()), draw(st.booleans())
    n = draw(st.integers(1, 8))
    space = "one" if matrix_market else draw(st.sampled_from(["zero", "one", "sparse", "long"]))
    if space in ("zero", "one"):
        ids = list(range(space == "one", n + (space == "one")))
    else:
        low, high = (0, 10**12) if space == "sparse" else (10**17, 10**19 + 10)
        ids = draw(st.lists(st.integers(low, high), min_size=n, max_size=n, unique=True))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        third = not clean and draw(st.integers(0, 4)) == 0
        tokens = [_digit_token(draw, draw(st.sampled_from(ids)), clean)
                  for _ in range(3 if third else 2)]
        lines.append(draw(st.sampled_from(["", " ", "\t"]))
                     + draw(st.sampled_from([" ", "\t", "  ", " \t"])).join(tokens)
                     + draw(st.sampled_from(["", " ", "\t "])))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    eol = draw(st.sampled_from(EOLS))
    body = eol.join(lines) + draw(st.sampled_from(["", eol]))
    if not matrix_market:
        return body
    head = ["%%MatrixMarket matrix coordinate pattern symmetric", f"{n} {n} {len(lines)}"]
    return eol.join(head) + eol + body


@settings(max_examples=400, deadline=None)
@given(digit_only_files())
def test_digit_only_fast_path_matches_the_scanner(text):
    """numpy's C reader, where it is taken, gives what the scanner gives:
    the same n, edges, labels, warning or error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_bytes(text.encode("ascii"))
        fast = parse_outcome(path)
        with mock.patch.object(graph_module, "_read_pairs", return_value=None):
            assert parse_outcome(path) == fast


def test_digit_only_bodies_skip_the_scanner(tmp_path):
    path = tmp_path / "g.txt"
    scanned = mock.patch.object(graph_module, "_scan_pairs",
                                side_effect=AssertionError("scanned"))
    for text in ("0 1\n1 2\r\n\n2\t0 \n",
                 "%%MatrixMarket matrix coordinate pattern symmetric\n% c\n3 3 2\n2 1\n3 2\n"):
        path.write_text(text)
        with scanned:
            assert cd.load_edge_list(path).num_edges in (2, 3)
    # a leading zero, a comment and a value column each go to the scanner
    for text in ("0 01\n1 2\n", "# c\n0 1\n",
                 "%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 5\n"):
        path.write_text(text)
        with scanned, pytest.raises(AssertionError, match="scanned"):
            cd.load_edge_list(path)

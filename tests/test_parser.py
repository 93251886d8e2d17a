"""Property tests: the vectorized edge-list parser against a line-by-line
reference parser with the same semantics."""

import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

import covdesign as cd
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


def vectorized_parse(text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                graph = cd.load_edge_list(path)
            except GraphFormatError as exc:
                return str(path), str(exc)
        warning = str(caught[0].message) if caught else None
        labels = None if graph.labels is None else graph.labels.tolist()
        return str(path), (graph.n, [tuple(e) for e in graph.edges.tolist()], labels, warning)


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


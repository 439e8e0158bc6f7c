"""Text and JSON formats for matrices, diagrams, presentations, bases, signed graphs.

Text formats are line-oriented; blank lines and lines starting with '#' are
ignored.  Vertices and generators are 1-based on disk and 0-based in memory.

matrix        first line n, then n rows of n integers
              JSON: {"n": n, "rows": [[...], ...]}
diagram       first line n, then one "i j w" line per arrow i -> j of weight w
              JSON: {"n": n, "edges": [[i, j, w], ...]}
presentation  first line "generators n", then one "(s1 s2 s3 s2)^2" line per relation
              JSON: {"generators": n, "relations": [{"word": [...], "exponent": e}, ...]}
basis         one vector per line, n integers in simple-root coordinates
signed graph  first line n, then one "i j +" or "i j -" line per signed edge
"""

from __future__ import annotations

import functools
import json
import re

from .diagram import Diagram
from .exchange import ExchangeMatrix
from .presentation import Presentation, Relation
from .roots import SignedGraph

__all__ = [
    "FormatError",
    "load_matrix",
    "dump_matrix",
    "load_diagram",
    "dump_diagram",
    "load_presentation",
    "dump_presentation",
    "load_basis",
    "dump_basis",
    "load_signed_graph",
    "dump_signed_graph",
]

FORMAT_VERSION = "3"


class FormatError(ValueError):
    """Malformed input text for one of the on-disk formats."""


def _loader(parse):
    """`parse`, raising FormatError and nothing else on malformed text.

    A value class refusing what was read (ValueError) and JSON of the wrong
    shape (TypeError, LookupError, AttributeError, OverflowError) both become
    FormatError.
    """

    @functools.wraps(parse)
    def load(text: str):
        try:
            return parse(text)
        except FormatError:
            raise
        except ValueError as exc:
            raise FormatError(str(exc)) from None
        except (TypeError, LookupError, AttributeError, OverflowError) as exc:
            raise FormatError(f"malformed input ({type(exc).__name__}: {exc})") from None

    return load


def _data_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _ints(line: str, context: str) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        raise FormatError(f"expected integers in {context}: {line!r}") from None


def _int(value, what: str) -> int:
    """An integer read from JSON; a float, bool, string or null is malformed, never truncated."""
    if type(value) is not int:
        raise FormatError(f"{what} must be an integer, not {json.dumps(value)}")
    return value


def _maybe_json(text: str):
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from None
    return None


@_loader
def load_matrix(text: str) -> ExchangeMatrix:
    data = _maybe_json(text)
    if data is not None:
        try:
            n, rows = _int(data["n"], "matrix JSON n"), data["rows"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"matrix JSON needs 'n' and 'rows': {exc}") from None
        if n < 1:
            raise FormatError(f"matrix JSON needs a positive size n, not {n}")
        if len(rows) != n or any(len(r) != n for r in rows):
            raise FormatError(f"matrix JSON rows do not form an {n} x {n} array")
        return ExchangeMatrix([[_int(x, "matrix entry") for x in r] for r in rows])
    lines = _data_lines(text)
    if not lines:
        raise FormatError("empty matrix input")
    head = _ints(lines[0], "matrix size line")
    if len(head) != 1 or head[0] < 1:
        raise FormatError(f"first matrix line must be the positive size n: {lines[0]!r}")
    n = head[0]
    if len(lines) != n + 1:
        raise FormatError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        row = _ints(line, "matrix row")
        if len(row) != n:
            raise FormatError(f"matrix row has {len(row)} entries, expected {n}: {line!r}")
        rows.append(row)
    return ExchangeMatrix(rows)


def dump_matrix(matrix: ExchangeMatrix, as_json: bool = False) -> str:
    if as_json:
        return json.dumps({"n": matrix.n, "rows": [list(r) for r in matrix.entries]})
    lines = [str(matrix.n)]
    width = max((len(str(x)) for row in matrix.entries for x in row), default=1)
    for row in matrix.entries:
        lines.append(" ".join(str(x).rjust(width) for x in row))
    return "\n".join(lines) + "\n"


@_loader
def load_diagram(text: str) -> Diagram:
    data = _maybe_json(text)
    if data is not None:
        try:
            n, edges = _int(data["n"], "diagram JSON n"), data["edges"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"diagram JSON needs 'n' and 'edges': {exc}") from None
        if n < 1:
            raise FormatError(f"diagram JSON needs a positive vertex count, not {n}")
        return _build_diagram(n, [tuple(_int(x, "diagram edge entry") for x in e) for e in edges])
    lines = _data_lines(text)
    if not lines:
        raise FormatError("empty diagram input")
    head = _ints(lines[0], "diagram size line")
    if len(head) != 1 or head[0] < 1:
        raise FormatError(f"first diagram line must be the positive vertex count: {lines[0]!r}")
    edges = []
    for line in lines[1:]:
        row = _ints(line, "diagram edge")
        if len(row) != 3:
            raise FormatError(f"diagram edge needs 'i j w': {line!r}")
        edges.append(tuple(row))
    return _build_diagram(head[0], edges)


def _build_diagram(n: int, edges) -> Diagram:
    converted = []
    for i, j, w in edges:
        if not (1 <= i <= n and 1 <= j <= n):
            raise FormatError(f"diagram edge ({i}, {j}) out of range for {n} vertices")
        converted.append((i - 1, j - 1, w))
    return Diagram(n, converted)


def dump_diagram(diagram: Diagram, as_json: bool = False) -> str:
    edges = [[i + 1, j + 1, w] for (i, j, w) in diagram.edges]
    if as_json:
        return json.dumps({"n": diagram.n, "edges": edges})
    lines = [str(diagram.n)]
    for i, j, w in edges:
        lines.append(f"{i} {j} {w}")
    return "\n".join(lines) + "\n"


_RELATION_RE = re.compile(r"^\(\s*((?:[sS]\d+\s*)+)\)\s*\^\s*(\d+)$")
_GENERATORS_RE = re.compile(r"^generators\s+(\d+)$", re.IGNORECASE)


@_loader
def load_presentation(text: str) -> Presentation:
    data = _maybe_json(text)
    if data is not None:
        try:
            n = _int(data["generators"], "presentation JSON generators")
            raw = data["relations"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"presentation JSON needs 'generators' and 'relations': {exc}") from None
        rels = []
        for item in raw:
            word = tuple(_int(x, "relation letter") - 1 for x in item["word"])
            rels.append(Relation(word, _int(item["exponent"], "relation exponent"), str(item.get("tag", "file"))))
        return Presentation(n, rels)
    lines = _data_lines(text)
    if not lines:
        raise FormatError("empty presentation input")
    m = _GENERATORS_RE.match(lines[0])
    if not m:
        raise FormatError(f"first presentation line must be 'generators n': {lines[0]!r}")
    n = int(m.group(1))
    rels = []
    for line in lines[1:]:
        pm = _RELATION_RE.match(line)
        if not pm:
            raise FormatError(f"bad relation line, expected '(s1 s2 ...)^e': {line!r}")
        word = tuple(int(tok[1:]) - 1 for tok in pm.group(1).split())
        rels.append(Relation(word, int(pm.group(2)), "file"))
    return Presentation(n, rels)


def dump_presentation(presentation: Presentation, as_json: bool = False) -> str:
    if as_json:
        return json.dumps(
            {
                "generators": presentation.n,
                "relations": [
                    {
                        "word": [x + 1 for x in rel.word],
                        "exponent": rel.exponent,
                        "tag": rel.tag,
                    }
                    for rel in presentation.relations
                ],
            }
        )
    lines = [f"generators {presentation.n}", *map(str, presentation.relations)]
    return "\n".join(lines) + "\n"


@_loader
def load_basis(text: str) -> list[tuple[int, ...]]:
    lines = _data_lines(text)
    if not lines:
        raise FormatError("empty basis input")
    vectors = [tuple(_ints(line, "basis vector")) for line in lines]
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise FormatError("basis vectors have inconsistent lengths")
    return vectors


def dump_basis(vectors) -> str:
    lines = [" ".join(str(x) for x in v) for v in vectors]
    return "\n".join(lines) + "\n"


@_loader
def load_signed_graph(text: str) -> SignedGraph:
    lines = _data_lines(text)
    if not lines:
        raise FormatError("empty signed graph input")
    head = lines[0].split()
    if len(head) == 1:
        n = _ints(lines[0], "signed graph size line")[0]
        if n < 1:
            raise FormatError(f"vertex count must be positive: {lines[0]!r}")
        body = lines[1:]
    else:
        # headerless file: infer the vertex count from the largest index
        body = lines
        indices = []
        for line in body:
            parts = line.split()
            if len(parts) == 3:
                indices.extend(_ints(" ".join(parts[:2]), "signed edge"))
        if not indices:
            raise FormatError("signed graph input has no parsable edges")
        n = max(indices)
    edges = []
    for line in body:
        parts = line.split()
        if len(parts) != 3 or parts[2] not in ("+", "-"):
            raise FormatError(f"signed edge needs 'i j +' or 'i j -': {line!r}")
        i, j = _ints(" ".join(parts[:2]), "signed edge")
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise FormatError(f"signed edge ({i}, {j}) out of range for {n} vertices")
        a, b = (i - 1, j - 1) if i < j else (j - 1, i - 1)
        edges.append((a, b, 1 if parts[2] == "+" else -1))
    return SignedGraph(n, tuple(edges))


def dump_signed_graph(graph: SignedGraph) -> str:
    lines = [str(graph.n)]
    for i, j, s in graph.edges:
        lines.append(f"{i + 1} {j + 1} {'+' if s > 0 else '-'}")
    return "\n".join(lines) + "\n"

"""Text and JSON serialization for every on-disk object kind.

Every format round-trips; the text forms use 1-based vertex/generator indices.
A golden file pins the presentation text emitted for the oriented 4-cycle.
"""

import pathlib

import pytest

from cluster_presents.diagram import Diagram, diagram_of
from cluster_presents.dynkin import standard_diagram, standard_exchange_matrix
from cluster_presents.exchange import ExchangeMatrix
from cluster_presents.formats import (
    FormatError,
    dump_basis,
    dump_diagram,
    dump_matrix,
    dump_presentation,
    dump_signed_graph,
    load_basis,
    load_diagram,
    load_matrix,
    load_presentation,
    load_signed_graph,
)
from cluster_presents.presentation import full_presentation, reduced_presentation
from cluster_presents.roots import SignedGraph


DATA = pathlib.Path(__file__).parent / "data"
FOUR_CYCLE_MATRIX = ExchangeMatrix(
    [[0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1], [1, 0, -1, 0]]
)


# ------------------------------------------------------------ round trips


def test_matrix_round_trip_text_and_json():
    for matrix in (FOUR_CYCLE_MATRIX, standard_exchange_matrix("B/C3")):
        assert load_matrix(dump_matrix(matrix)) == matrix
        assert load_matrix(dump_matrix(matrix, as_json=True)) == matrix


def test_matrix_text_shape():
    text = dump_matrix(standard_exchange_matrix("A2"))
    assert text.splitlines()[0] == "2"
    assert text.endswith("\n")


def test_diagram_round_trip_text_and_json():
    for diagram in (diagram_of(FOUR_CYCLE_MATRIX), standard_diagram("F4")):
        assert load_diagram(dump_diagram(diagram)) == diagram
        assert load_diagram(dump_diagram(diagram, as_json=True)) == diagram


def test_diagram_text_uses_one_based_vertices():
    text = dump_diagram(Diagram(2, [(0, 1, 3)]))
    assert text == "2\n1 2 3\n"


def test_presentation_round_trip_text_and_json():
    pres = reduced_presentation(diagram_of(FOUR_CYCLE_MATRIX))
    parsed = load_presentation(dump_presentation(pres))
    assert parsed.n == pres.n
    assert [(r.word, r.exponent) for r in parsed.relations] == [
        (r.word, r.exponent) for r in pres.relations
    ]
    # JSON keeps the tags as well
    parsed_json = load_presentation(dump_presentation(pres, as_json=True))
    assert parsed_json == pres


def test_basis_round_trip():
    vectors = [(1, 0, -2), (0, 1, 1), (3, -1, 0)]
    assert load_basis(dump_basis(vectors)) == vectors


def test_signed_graph_round_trip():
    graph = SignedGraph(4, ((0, 1, 1), (1, 2, -1), (0, 3, -1)))
    assert load_signed_graph(dump_signed_graph(graph)) == graph


def test_signed_graph_headerless_input():
    graph = load_signed_graph("1 2 +\n2 3 -\n")
    assert graph.n == 3
    assert graph.edges == ((0, 1, 1), (1, 2, -1))


def test_comments_and_blank_lines_ignored():
    text = "# seed matrix\n\n2\n# rows follow\n0 1\n-1 0\n"
    assert load_matrix(text) == standard_exchange_matrix("A2")


# ------------------------------------------------------------ golden file


def test_four_cycle_presentation_golden_bytes():
    golden = (DATA / "d4_cycle_full.pres").read_text()
    pres = full_presentation(diagram_of(FOUR_CYCLE_MATRIX))
    assert dump_presentation(pres) == golden
    parsed = load_presentation(golden)
    assert parsed.n == 4
    assert [(r.word, r.exponent) for r in parsed.relations] == [
        (r.word, r.exponent) for r in pres.relations
    ]


# ------------------------------------------------------------ malformed input


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x\n",
        "2\n0 1\n",  # missing row
        "2\n0 1\n-1 0 0\n",  # ragged row
        "2\n0 one\n-1 0\n",
        '{"n": 2}',
        '{"n": 2, "rows": [[0, 1]]}',
        "{not json",
    ],
)
def test_matrix_parse_errors(text):
    with pytest.raises(FormatError):
        load_matrix(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "0\n",
        "3\n1 2\n",  # edge missing weight
        "3\n1 4 1\n",  # vertex out of range
        "3\n1 1 1\n",  # loop
        "3\n1 2 1\n2 1 1\n",  # both directions
        '{"n": 3}',
    ],
)
def test_diagram_parse_errors(text):
    with pytest.raises(FormatError):
        load_diagram(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "gens 2\n",
        "generators 2\n(s1)^2\n",  # s2 lacks an involution
        "generators 2\n(s1)^2\n(s2)^2\n(s3)^2\n",  # out of range
        "generators 2\n(s1)^2\n(s2)^2\ns1 s2^3\n",  # missing parentheses
        "generators 2\n(s1)^2\n(s2)^2\n(s1 s2)^\n",
    ],
)
def test_presentation_parse_errors(text):
    with pytest.raises(FormatError):
        load_presentation(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1 0\n0 1 1\n",  # inconsistent lengths
        "1 x\n",
    ],
)
def test_basis_parse_errors(text):
    with pytest.raises(FormatError):
        load_basis(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "0\n",
        "3\n1 2 ?\n",
        "3\n1 4 +\n",
        "3\n1 1 +\n",
        "3\n1 2 +\n2 1 -\n",  # duplicate edge
    ],
)
def test_signed_graph_parse_errors(text):
    with pytest.raises(FormatError):
        load_signed_graph(text)


@pytest.mark.parametrize(
    "loader, text",
    [
        (load_matrix, '{"n": 2, "rows": [[0, 1.9], [-1, 0]]}'),
        (load_matrix, '{"n": 2, "rows": [[0, true], [-1, 0]]}'),
        (load_matrix, '{"n": 2, "rows": [[0, "1"], [-1, 0]]}'),
        (load_matrix, '{"n": 2, "rows": [[0, null], [-1, 0]]}'),
        (load_matrix, '{"n": 2.0, "rows": [[0, 1], [-1, 0]]}'),
        (load_matrix, '{"n": true, "rows": [[0]]}'),
        (load_diagram, '{"n": 2, "edges": [[1, 2, 1.5]]}'),
        (load_diagram, '{"n": 2, "edges": [[1, true, 1]]}'),
        (load_diagram, '{"n": 2.5, "edges": [[1, 2, 1]]}'),
        (load_presentation, '{"generators": 1.0, "relations": [{"word": [1], "exponent": 2}]}'),
        (load_presentation, '{"generators": 1, "relations": [{"word": [1.2], "exponent": 2}]}'),
        (load_presentation, '{"generators": 1, "relations": [{"word": [true], "exponent": 2}]}'),
        (load_presentation, '{"generators": 1, "relations": [{"word": [1], "exponent": 2.7}]}'),
        (load_presentation, '{"generators": 1, "relations": [{"word": [1], "exponent": "2"}]}'),
    ],
)
def test_json_integers_are_read_strictly(loader, text):
    with pytest.raises(FormatError, match="must be an integer"):
        loader(text)


def test_signed_graph_header_without_edges_is_empty_graph():
    assert load_signed_graph("3\n") == SignedGraph(3, ())

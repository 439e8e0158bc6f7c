"""Presentation builder: involutions, pairwise orders, cycle relations, witnesses."""

import pytest

from cluster_presents import diagram, presentation
from cluster_presents.diagram import Diagram, DiagramError, diagram_of, mutate_diagram
from cluster_presents.dynkin import standard_diagram
from cluster_presents.exchange import ExchangeMatrix
from cluster_presents.presentation import (
    Presentation,
    Relation,
    bond_order,
    cycle_word,
    full_presentation,
    inverse_mutation_witness_words,
    mutation_witness_words,
    reduced_presentation,
)
from cluster_presents.diagram import chordless_cycles


FOUR_CYCLE = diagram_of(
    ExchangeMatrix([[0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1], [1, 0, -1, 0]])
)
WEIGHTED_TRIANGLE = Diagram(3, [(0, 1, 2), (1, 2, 2), (2, 0, 1)])


def test_bond_order_table():
    assert [bond_order(w) for w in (0, 1, 2, 3)] == [2, 3, 4, 6]
    with pytest.raises(ValueError):
        bond_order(4)


def test_relation_letters_expand_exponent():
    rel = Relation((0, 1), 3, "R2")
    assert rel.letters() == (0, 1, 0, 1, 0, 1)


def test_relation_prints_in_file_syntax():
    assert str(Relation((0, 1, 2, 1), 2, "R3a")) == "(s1 s2 s3 s2)^2"
    assert str(Relation((4,), 3)) == "(s5)^3"


def test_presentation_validates_letters_and_involutions():
    with pytest.raises(ValueError):
        Presentation(2, [Relation((0,), 2)])  # s2 has no involution
    with pytest.raises(ValueError):
        Presentation(1, [Relation((0,), 2), Relation((), 1)])
    with pytest.raises(ValueError, match=r"out of range in \(s1 s3\)\^2$"):
        Presentation(2, [Relation((0,), 2), Relation((1,), 2), Relation((0, 2), 2)])
    # refused at s2 at once, without walking the other generators
    with pytest.raises(ValueError, match=r"^missing involution relation for s2$"):
        Presentation(10**9, [Relation((0,), 2)])


def test_presentation_refuses_a_relator_too_long_to_expand():
    # the enumerator expands (w)^e to len(w) * e letters
    involutions = [Relation((0,), 2), Relation((1,), 2)]
    longest = presentation._MAX_RELATOR_LENGTH
    assert Presentation(2, [*involutions, Relation((0, 1), longest // 2)])
    with pytest.raises(ValueError, match=r"^relation \(s1 s2\)\^50001 expands to more than 100000 letters$"):
        Presentation(2, [*involutions, Relation((0, 1), longest // 2 + 1)])
    with pytest.raises(ValueError, match=r"^relation \(s2\)\^99999999999 expands to more than 100000 letters$"):
        Presentation(2, [*involutions, Relation((1,), 99999999999)])


@pytest.mark.parametrize("builder", [full_presentation, reduced_presentation])
def test_presentations_enumerate_the_chordless_cycles_once(monkeypatch, builder):
    calls = []

    def counted(d):
        calls.append(d)
        return chordless_cycles(d)

    # the validator looks the name up in diagram, the builders in presentation
    monkeypatch.setattr(diagram, "chordless_cycles", counted)
    monkeypatch.setattr(presentation, "chordless_cycles", counted)
    builder(FOUR_CYCLE)
    assert calls == [FOUR_CYCLE]


def test_cycle_words_around_four_cycle():
    (cycle,) = chordless_cycles(FOUR_CYCLE)
    assert cycle_word(cycle, 0) == (0, 1, 2, 3, 2, 1)
    assert cycle_word(cycle, 1) == (1, 2, 3, 0, 3, 2)
    assert cycle_word(cycle, 2) == (2, 3, 0, 1, 0, 3)
    assert cycle_word(cycle, 3) == (3, 0, 1, 2, 1, 0)
    # word length is 2d - 2
    assert all(len(cycle_word(cycle, a)) == 6 for a in range(4))


def test_tree_presentation_has_no_cycle_relations():
    p = full_presentation(standard_diagram("A3"))
    assert p.n == 3
    by_tag = {}
    for rel in p.relations:
        by_tag.setdefault(rel.tag, []).append(rel)
    assert len(by_tag["R1"]) == 3
    orders = {rel.word: rel.exponent for rel in by_tag["R2"]}
    assert orders == {(0, 1): 3, (0, 2): 2, (1, 2): 3}
    assert set(by_tag) == {"R1", "R2"}
    # with no cycles the reduced presentation is identical
    assert reduced_presentation(standard_diagram("A3")) == p


def test_four_cycle_full_presentation():
    p = full_presentation(FOUR_CYCLE)
    r1 = [rel for rel in p.relations if rel.tag == "R1"]
    r2 = {rel.word: rel.exponent for rel in p.relations if rel.tag == "R2"}
    r3 = [(rel.word, rel.exponent) for rel in p.relations if rel.tag == "R3a"]
    assert len(r1) == 4
    assert r2 == {(0, 1): 3, (0, 2): 2, (0, 3): 3, (1, 2): 3, (1, 3): 2, (2, 3): 3}
    assert r3 == [
        ((0, 1, 2, 3, 2, 1), 2),
        ((1, 2, 3, 0, 3, 2), 2),
        ((2, 3, 0, 1, 0, 3), 2),
        ((3, 0, 1, 2, 1, 0), 2),
    ]
    assert len(p.relations) == 4 + 6 + 4


def test_weighted_triangle_exponents():
    p = full_presentation(WEIGHTED_TRIANGLE)
    r3 = [(rel.word, rel.exponent) for rel in p.relations if rel.tag == "R3b"]
    # weight omitted by r(a) sits between vertices a-1 and a: (1, 2, 2) here
    assert r3 == [((0, 1, 2, 1), 3), ((1, 2, 0, 2), 2), ((2, 0, 1, 0), 2)]
    r2 = {rel.word: rel.exponent for rel in p.relations if rel.tag == "R2"}
    assert r2 == {(0, 1): 4, (1, 2): 4, (0, 2): 3}


def test_reduced_triangle_anchors_at_weight_two():
    p = reduced_presentation(WEIGHTED_TRIANGLE)
    (rel,) = [r for r in p.relations if r.tag == "R3-reduced"]
    # admissible anchors are 1 and 2; rotation (1, 2, 0) beats (2, 0, 1)
    assert rel.word == (1, 2, 0, 2)
    assert rel.exponent == 2


def test_reduced_four_cycle_single_relation():
    p = reduced_presentation(FOUR_CYCLE)
    r3 = [r for r in p.relations if r.tag == "R3-reduced"]
    assert [(r.word, r.exponent) for r in r3] == [((0, 1, 2, 3, 2, 1), 2)]


def test_presentation_rejects_invalid_diagram():
    non_oriented = Diagram(3, [(0, 1, 1), (0, 2, 1), (2, 1, 1)])
    with pytest.raises(DiagramError):
        full_presentation(non_oriented)
    with pytest.raises(DiagramError):
        reduced_presentation(non_oriented)


@pytest.mark.parametrize("weight", [4, 7])
def test_presentation_rejects_weight_above_three(weight):
    # no local finite-type check sees a lone edge, but no bond order fits it
    heavy = Diagram(2, [(0, 1, weight)])
    with pytest.raises(DiagramError, match="admits no presentation"):
        full_presentation(heavy)
    with pytest.raises(DiagramError, match="admits no presentation"):
        reduced_presentation(heavy)


def test_witness_words_conjugate_arrow_sources():
    # only vertex 3 has an arrow into 0 on the oriented 4-cycle
    assert mutation_witness_words(FOUR_CYCLE, 0) == ((0,), (1,), (2,), (0, 3, 0))
    # at vertex 2 the arrow 1 -> 2 makes t_1 the conjugated generator
    assert mutation_witness_words(FOUR_CYCLE, 2) == ((0,), (2, 1, 2), (2,), (3,))


def test_inverse_witness_words_follow_mutated_arrows():
    mutated = mutate_diagram(FOUR_CYCLE, 0)
    # the mutated diagram has the single arrow 0 -> 3 out of vertex 0
    assert inverse_mutation_witness_words(mutated, 0) == ((0,), (1,), (2,), (0, 3, 0))


def test_witness_words_index_errors():
    with pytest.raises(IndexError):
        mutation_witness_words(FOUR_CYCLE, 4)
    with pytest.raises(IndexError):
        inverse_mutation_witness_words(FOUR_CYCLE, -1)

"""The value classes' one contract: frozen slotted dataclasses, equal by value,
validated on construction and by dataclasses.replace, with pinned reprs."""

import dataclasses
from fractions import Fraction

import pytest

from cluster_presents import (
    CompanionBasis,
    Diagram,
    DiagramError,
    ExchangeMatrix,
    Presentation,
    QuasiCartanMatrix,
    Relation,
    RootSystem,
    SignedGraph,
    build_root_system,
)

A2 = build_root_system("A2")

# A constructor of one value, its repr, and a replacement with what it gives:
# the error validation raises, or a check of the value built.
CASES = {
    "Diagram": (lambda: Diagram(2, [(0, 1, 1)]), "Diagram(2, [(0, 1, 1)])",
                {"edges": [(0, 0, 1)]}, DiagramError),
    "ExchangeMatrix": (lambda: ExchangeMatrix([[0, 1], [-1, 0]]), "ExchangeMatrix([[0, 1], [-1, 0]])",
                       {"entries": [[0, 1], [1, 0]]}, ValueError),
    "QuasiCartanMatrix": (lambda: QuasiCartanMatrix([[2, -1], [-1, 2]]), "QuasiCartanMatrix([[2, -1], [-1, 2]])",
                          {"entries": [[2, -1], [-1, 0]]}, ValueError),
    "Presentation": (lambda: Presentation(1, [Relation((0,), 2)]), "Presentation(n=1, relations=1)",
                     {"n": 2}, ValueError),
    # equality is identity, so one value is the cached system; replacing its
    # Cartan matrix closes the roots again
    "RootSystem": (lambda: build_root_system("A2"), "RootSystem(A2, 6 roots)",
                   {"label": "B/C2", "cartan": [[2, -2], [-1, 2]]},
                   lambda system: len(system.roots) == 8 and system.n == 2 and system.symmetriser == (1, 2)),
    "CompanionBasis": (lambda: CompanionBasis(A2, [(1, 0), (0, 1)]), "CompanionBasis(A2, [(1, 0), (0, 1)])",
                       {"vectors": [(1, 0, 0)]}, ValueError),
}


@pytest.mark.parametrize("name", CASES)
def test_value_class_contract(name):
    make, text, changes, outcome = CASES[name]
    value = make()
    cls = type(value)
    assert cls.__name__ == name
    assert cls.__dataclass_params__.frozen and "__slots__" in vars(cls)
    with pytest.raises(AttributeError):
        setattr(value, dataclasses.fields(value)[0].name, None)
    assert not hasattr(value, "__dict__")
    twin = make()
    assert twin == value and hash(twin) == hash(value)
    assert repr(value) == text
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            dataclasses.replace(value, **changes)
    else:
        assert outcome(dataclasses.replace(value, **changes))


def test_companion_bases_are_equal_only_in_one_root_system():
    copy = RootSystem(A2.label, A2.cartan)
    assert copy != A2 and copy.roots == A2.roots
    vectors = [(1, 0), (0, 1)]
    assert CompanionBasis(copy, vectors) != CompanionBasis(A2, vectors)
    assert CompanionBasis(A2, vectors) == CompanionBasis(A2, [[1, 0], [0, 1]])


def test_matrices_are_equal_by_entries_not_symmetriser():
    B = ExchangeMatrix([[0, 1], [-1, 0]])
    assert [f.name for f in dataclasses.fields(B) if f.compare] == ["entries"]
    assert B[0, 1] == 1 and B.n == 2


@pytest.mark.parametrize("make", [
    lambda: ExchangeMatrix([[0, 1.9], [-1, 0]]),  # not truncated to 1
    lambda: ExchangeMatrix([["0", "1"], ["-1", "0"]]),
    lambda: ExchangeMatrix([[0, Fraction(1)], [-1, 0]]),
    lambda: QuasiCartanMatrix([[2, -1.0], [-1, 2]]),
    lambda: RootSystem("bad", [[2, -1.5], [-1, 2]]),
], ids=["float", "string", "Fraction", "quasi-Cartan", "Cartan"])
def test_matrices_refuse_non_integer_entries(make):
    with pytest.raises(ValueError, match="^matrix entries must be integers$"):
        make()


@pytest.mark.parametrize("make, error, message", [
    (lambda: Diagram(2, [(0, 1, 1.9)]), DiagramError, "vertex count and edge entries"),  # not weight 1
    (lambda: Diagram(2, [(0, 1.5, 1)]), DiagramError, "vertex count and edge entries"),
    (lambda: Diagram(2.5, []), DiagramError, "vertex count and edge entries"),
    (lambda: Diagram("2", []), DiagramError, "vertex count and edge entries"),
    (lambda: Presentation(2.0, [Relation((0,), 2), Relation((1,), 2)]), ValueError,
     "generator count and relation letters"),
    (lambda: Presentation("2", [Relation((0,), 2), Relation((1,), 2)]), ValueError,
     "generator count and relation letters"),
    (lambda: Relation((0, 1), 2.5), ValueError, "relation letters and exponent"),
    (lambda: Relation((0, 0.5), 2), ValueError, "relation letters and exponent"),
    (lambda: CompanionBasis(A2, [(1.9, 0), (0, 1)]), ValueError, "basis coordinates"),  # not the simple roots
    (lambda: CompanionBasis(A2, [(1, Fraction(0)), (0, 1)]), ValueError, "basis coordinates"),
    (lambda: SignedGraph(3, ((0.5, 2, -1),)), ValueError, "vertex count and signed edge entries"),
    (lambda: SignedGraph(2, ((0.0, 1.0, 1),)), ValueError, "vertex count and signed edge entries"),  # not 1 2 +
    (lambda: SignedGraph(2, ((0, 1, 1.0),)), ValueError, "vertex count and signed edge entries"),
    (lambda: SignedGraph(2.5, ()), ValueError, "vertex count and signed edge entries"),
    (lambda: SignedGraph("2", ()), ValueError, "vertex count and signed edge entries"),
    (lambda: SignedGraph(2, ((0, 1, Fraction(1)),)), ValueError, "vertex count and signed edge entries"),
], ids=["diagram-weight", "diagram-vertex", "diagram-count", "diagram-string", "presentation-count",
        "presentation-string", "relation-exponent",
        "relation-letter", "basis-float", "basis-Fraction", "signed-vertex", "signed-float-edge",
        "signed-sign", "signed-count", "signed-string", "signed-Fraction"])
def test_value_constructors_refuse_non_integers(make, error, message):
    with pytest.raises(error, match=f"^{message} must be integers$"):
        make()


def test_value_constructors_keep_integer_values_as_ints():
    relation = Relation([0, 1], 3)
    assert relation == Relation((0, 1), 3) and hash(relation) == hash(Relation((0, 1), 3))
    assert Diagram(2, [(0, 1, True)]) == Diagram(2, [(0, 1, 1)])
    assert type(Diagram(True, []).n) is int
    assert CompanionBasis(A2, [(True, 0), (0, 1)]).vectors == ((1, 0), (0, 1))
    assert type(SignedGraph(True, ()).n) is int
    assert SignedGraph(2, [(False, True, True)]).edges == ((0, 1, 1),)

"""The value classes' one contract: frozen slotted dataclasses, equal by value,
validated on construction and by dataclasses.replace, with pinned reprs."""

import dataclasses

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
                   {"label": "B/C2", "cartan": [[2, -2], [-1, 2]], "symmetriser": [1, 2]},
                   lambda system: len(system.roots) == 8 and system.n == 2),
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
    copy = RootSystem(A2.label, A2.cartan, A2.symmetriser)
    assert copy != A2 and copy.roots == A2.roots
    vectors = [(1, 0), (0, 1)]
    assert CompanionBasis(copy, vectors) != CompanionBasis(A2, vectors)
    assert CompanionBasis(A2, vectors) == CompanionBasis(A2, [[1, 0], [0, 1]])


def test_matrices_are_equal_by_entries_not_symmetriser():
    B = ExchangeMatrix([[0, 1], [-1, 0]])
    scaled = ExchangeMatrix([[0, 1], [-1, 0]], symmetriser=(2, 2))
    assert scaled.symmetriser != B.symmetriser
    assert scaled == B and hash(scaled) == hash(B)
    assert B[0, 1] == 1 and B.n == 2

"""The value classes' one contract: frozen slotted dataclasses, equal by value,
validated on construction and by dataclasses.replace, with pinned reprs; and
a value derived from a checked one equal to what the constructor builds."""

import dataclasses
import random
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
from cluster_presents.diagram import _relabel, diagram_of, mutate_diagram
from cluster_presents.dynkin import labels_of_rank, standard_exchange_matrix
from cluster_presents.exchange import _mutate_entries, is_two_finite, mutate_matrix
from cluster_presents.roots import (_carried_simple_roots, _relabeled, companion_basis, is_companion_basis,
                                    mutate_companion)

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


# ------------------------------------------------------------ derived values
#
# A value a step derives from a checked value (a mutated matrix, a mutated or
# relabeled diagram, a reflected basis) is built without the constructor's
# checks; each must be the value that the checked constructor builds.


def _assert_matrix_as_constructed(derived, entries):
    checked = ExchangeMatrix(entries)
    assert (derived.entries, derived.symmetriser, derived.n) == (checked.entries, checked.symmetriser, checked.n)
    assert all(type(row) is tuple for row in derived.entries)


def _assert_diagram_as_constructed(derived):
    checked = Diagram(derived.n, derived.edges)
    assert type(derived.edges) is tuple
    assert (derived.edges, derived._weights, derived._out, derived._in) == (
        checked.edges, checked._weights, checked._out, checked._in)


def _assert_basis_as_constructed(derived):
    assert derived.vectors == CompanionBasis(derived.system, derived.vectors).vectors
    assert type(derived.vectors) is tuple and all(type(v) is tuple for v in derived.vectors)


def _mutate_and_compare(B, diagram, k):
    """B and its diagram mutated at k, each compared with the constructors';
    the diagram is None once its rule has broken down (no finite type)."""
    mutated = mutate_matrix(B, k)
    _assert_matrix_as_constructed(mutated, _mutate_entries(B.entries, k))
    _assert_diagram_as_constructed(diagram_of(mutated))
    if diagram is not None:
        try:
            diagram = mutate_diagram(diagram, k)
        except DiagramError:
            diagram = None
        else:
            _assert_diagram_as_constructed(diagram)
    return mutated, diagram


@pytest.mark.parametrize("label", [label for n in range(1, 9) for label in labels_of_rank(n)])
def test_walks_derive_the_constructors_values(label):
    rng = random.Random(label)
    B = standard_exchange_matrix(label)
    diagram = diagram_of(B)
    basis = _carried_simple_roots(build_root_system(label))
    for _ in range(25):
        k = rng.randrange(B.n)
        basis = mutate_companion(basis, k, diagram)
        _assert_basis_as_constructed(basis)
        B, diagram = _mutate_and_compare(B, diagram, k)
        perm = rng.sample(range(B.n), B.n)
        _assert_diagram_as_constructed(_relabel(diagram, perm))
        _assert_basis_as_constructed(_relabeled(basis, perm))
    assert is_companion_basis(basis, B) == (True, None)
    _assert_basis_as_constructed(companion_basis(diagram))


def test_a_disconnected_walk_keeps_each_components_least_symmetriser():
    # B/C3 + G2: the components' least symmetrisers differ, and neither may
    # take the other's scale
    rows = [[0] * 5 for _ in range(5)]
    for block, offset in ((standard_exchange_matrix("B/C3"), 0), (standard_exchange_matrix("G2"), 3)):
        for i, row in enumerate(block.entries):
            rows[offset + i][offset:offset + block.n] = row
    B = ExchangeMatrix(rows)
    assert B.symmetriser == (2, 1, 1, 3, 1)
    diagram = diagram_of(B)
    rng = random.Random(53)
    for _ in range(300):
        B, diagram = _mutate_and_compare(B, diagram, rng.randrange(5))
        assert B.symmetriser == (2, 1, 1, 3, 1)


def test_mutations_of_no_finite_type_derive_the_constructors_values():
    # d_i in {1, 2, 3, 6}; every start has a pair with |B_ij B_ji| > 3, so it
    # is no matrix of finite type, and its entries grow as it is mutated
    rng = random.Random(1517)
    mutations = 0
    while mutations < 18000:
        n = rng.randrange(2, 6)
        d = [rng.choice((1, 2, 3, 6)) for _ in range(n)]
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                c = rng.choice((0, 1, 2, 3)) * rng.choice((-1, 1))
                rows[i][j], rows[j][i] = c * d[j], -c * d[i]
        B = ExchangeMatrix(rows)
        if is_two_finite(B):
            continue
        diagram = diagram_of(B)
        for _ in range(12):
            B, diagram = _mutate_and_compare(B, diagram, rng.randrange(n))
            mutations += 1

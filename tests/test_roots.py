"""Root systems, companion bases, and signed graphs.

The coordinate-based root systems are checked against independent Euclidean
realizations: explicit simple-root vectors in R^m, closed under reflection
with exact rational arithmetic, compared for Cartan integers, root counts,
and a coordinate-to-vector bijection.
"""

import random
import re
import time
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_

import pytest

from cluster_presents import coset, diagram as diagram_module, dynkin, roots
from cluster_presents.diagram import _canonical_search
from cluster_presents.diagram import (Diagram, NotFiniteTypeError, chordless_cycles, diagram_of, mutate_diagram,
                                      mutation_class)
from cluster_presents.exchange import ExchangeMatrix, _bareiss, _freeze, determinant, mutate_matrix
from cluster_presents.presentation import Relation, _relations, full_presentation, mutation_witness_words
from cluster_presents.roots import (
    CompanionBasis,
    RootSystem,
    _coroot_pairings,
    companion_bases,
    companion_basis,
    SignedGraph,
    build_root_system,
    companion_matrix,
    cycle_sign_condition,
    is_companion_basis,
    local_switch,
    mutate_companion,
    signed_graph,
    simple_root_basis,
)


def _pairing(system, v, w):
    """The symmetric form (v, w), through w's image under it (roots._form)."""
    return sum(a * b for a, b in zip(v, roots._form(system, w)[0]))


def _copairing(system, v, w):
    """The coroot pairing (v, w^check), by the kernels of companion_matrix."""
    form, norm = roots._form(system, w)
    return roots._coroot(v, w, sum(a * b for a, b in zip(v, form)), norm)


def _reflect(system, beta, v):
    """v reflected in the root beta, by the kernels of mutate_companion."""
    return roots._reflect(v, *roots._reflector(system, beta))[1]


def _relations_hold(basis, relations):
    """Do the reflections in the basis satisfy every relation?  The
    certificates' lower bound: _first_failing on the companion matrix."""
    return roots._first_failing(_coroot_pairings(basis), relations) is None


# ------------------------------------------------------ Euclidean oracle


def _euclidean_simple_roots(label):
    """Simple roots as Euclidean vectors, indexed in this package's vertex order."""
    family, n = re.fullmatch(r"(B/C|[A-G])(\d+)", label).groups()
    n = int(n)
    F = Fraction
    if family == "A":
        m = n + 1
        return [_sub(_unit(m, i), _unit(m, i + 1)) for i in range(n)]
    if family == "B/C":
        # short root first, then the chain of long roots
        return [_unit(n, 0)] + [_sub(_unit(n, i + 1), _unit(n, i)) for i in range(n - 1)]
    if family == "C":
        # long root first, then the chain of short roots
        return [_add(_unit(n, 0), _unit(n, 0))] + [_sub(_unit(n, i + 1), _unit(n, i)) for i in range(n - 1)]
    if family == "D":
        chain = [_sub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
        return chain + [_add(_unit(n, n - 2), _unit(n, n - 1))]
    if family == "G":
        return [
            _vec(F(1), F(-1), F(0)),
            _vec(F(-2), F(1), F(1)),
        ]
    if family == "F":
        return [
            _vec(F(0), F(1), F(-1), F(0)),
            _vec(F(0), F(0), F(1), F(-1)),
            _vec(F(0), F(0), F(0), F(1)),
            _vec(F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2)),
        ]
    if family == "E":
        a1 = _vec(F(1, 2), *[F(-1, 2)] * 6, F(1, 2))
        a2 = _vec(F(1), F(1), *[F(0)] * 6)
        chain = [_vec(*[F(0)] * 8) for _ in range(6)]
        for t in range(6):  # e_{t+2} - e_{t+1}
            v = [F(0)] * 8
            v[t] = F(-1)
            v[t + 1] = F(1)
            chain[t] = tuple(v)
        branch = [a1] + chain[: n - 2] + [a2]
        return branch
    raise AssertionError(f"no Euclidean table for {label}")


def _unit(m, i):
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(m))


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _vec(*xs):
    return tuple(Fraction(x) for x in xs)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _euclidean_root_closure(simples):
    roots = set(simples)
    frontier = list(roots)
    while frontier:
        nxt = []
        for beta in frontier:
            for alpha in simples:
                coeff = 2 * _dot(beta, alpha) / _dot(alpha, alpha)
                image = tuple(b - coeff * a for b, a in zip(beta, alpha))
                if image not in roots:
                    roots.add(image)
                    nxt.append(image)
        frontier = nxt
    return roots


EUCLIDEAN_LABELS = [
    "A1", "A2", "A3", "A4", "B/C2", "B/C3", "B/C4", "C3", "D4", "D5", "G2", "F4", "E6", "E7", "E8",
]


@pytest.mark.parametrize("label", EUCLIDEAN_LABELS)
def test_cartan_matrix_matches_euclidean_gram(label):
    simples = _euclidean_simple_roots(label)
    n = len(simples)
    gram = [
        [2 * _dot(simples[i], simples[j]) / _dot(simples[i], simples[i]) for j in range(n)]
        for i in range(n)
    ]
    assert gram == [list(row) for row in dynkin.cartan_matrix(label)]


@pytest.mark.parametrize("label", EUCLIDEAN_LABELS)
def test_roots_biject_with_euclidean_closure(label):
    system = build_root_system(label)
    simples = _euclidean_simple_roots(label)
    euclidean = _euclidean_root_closure(simples)
    assert len(system.roots) == len(euclidean)
    images = set()
    for coords in system.roots:
        vec = tuple(
            sum(c * s[t] for c, s in zip(coords, simples))
            for t in range(len(simples[0]))
        )
        assert vec in euclidean
        images.add(vec)
    assert images == euclidean


def test_root_counts_match_family_formulas():
    for n in range(1, 6):
        assert len(build_root_system(f"A{n}").roots) == n * (n + 1)
    for n in range(2, 6):
        assert len(build_root_system(f"B/C{n}").roots) == 2 * n * n
    for n in range(4, 7):
        assert len(build_root_system(f"D{n}").roots) == 2 * n * (n - 1)


def test_large_root_systems_have_their_family_counts():
    # n(n + 1), 2n(n - 1) and 2n^2 roots, far beyond the classes' ranks
    assert len(build_root_system("A40").roots) == 1640
    assert len(build_root_system("D30").roots) == 1740
    assert len(build_root_system("B/C30").roots) == 1800


def test_root_system_refuses_a_cartan_matrix_of_infinite_type():
    # the affine A1 form (x - y)^2 is not definite: closing under reflections would never end
    with pytest.raises(ValueError, match="not of finite type"):
        RootSystem("affine", [[2, -2], [-2, 2]])
    with pytest.raises(ValueError, match="not of finite type"):
        RootSystem("hyperbolic", [[2, -3], [-3, 2]])
    with pytest.raises(ValueError, match="diagonal 2"):
        RootSystem("no Cartan matrix", [[3, -1], [-1, 3]])
    with pytest.raises(ValueError, match="^matrix is not symmetrisable$"):
        RootSystem("no symmetriser", [[2, -1, -1], [-1, 2, -1], [-2, -1, 2]])


def _root_lengths(label):
    """(a_i, a_i)/2 per simple root, from the classification, short roots at 1."""
    family, n = dynkin.parse_label(label)
    return {"A": (1,) * n, "D": (1,) * n, "E": (1,) * n, "B": (1,) + (2,) * (n - 1), "B/C": (1,) + (2,) * (n - 1),
            "C": (2,) + (1,) * (n - 1), "F": (2, 2, 1, 1), "G": (1, 3)}[family]


def test_every_catalogue_label_builds_a_root_system():
    for n in range(1, 11):
        for label in dynkin.labels_of_rank(n) + ((f"B{n}", f"C{n}") if n > 1 else ()):
            system = RootSystem(label, dynkin.cartan_matrix(label))
            assert len(system.roots) == len(build_root_system(label).roots) > 0
            # the computed symmetriser is the root lengths' table
            assert system.symmetriser == build_root_system(label).symmetriser == _root_lengths(label), label


def test_b_and_c_cartan_matrices_are_transposes():
    b3 = dynkin.cartan_matrix("B3")
    c3 = dynkin.cartan_matrix("C3")
    assert [list(r) for r in c3] == [[b3[j][i] for j in range(3)] for i in range(3)]


def test_roots_closed_under_negation_and_reflection():
    system = build_root_system("D4")
    for root in system.roots:
        assert system.is_root(tuple(-x for x in root))
        for i in range(system.n):
            # s_i subtracts (cartan row i) . root from coordinate i
            coeff = sum(a * x for a, x in zip(system.cartan[i], root))
            assert system.is_root(tuple(x - coeff if j == i else x for j, x in enumerate(root)))


def _form_by_entries(system, w):
    """w's image under the form and its norm, entry by entry:
    form_i = sum_j d_i cartan[i][j] w_j and (w, w) = sum_i w_i form_i."""
    n = system.n
    form = tuple(sum(system.symmetriser[i] * system.cartan[i][j] * w[j] for j in range(n)) for i in range(n))
    return form, sum(w[i] * form[i] for i in range(n))


@pytest.mark.parametrize("label", [*(label for n in range(1, 9) for label in dynkin.labels_of_rank(n)),
                                   "B/C10", "A30"])
def test_each_root_carries_its_form_and_norm(label):
    system = build_root_system(label)
    assert set(system._forms) == set(system.roots)
    for root, (form, norm) in system._forms.items():
        assert type(form) is tuple
        assert (form, norm) == _form_by_entries(system, root), (label, root)


# ------------------------------------------------------ pairings


def test_pairing_values_and_symmetry():
    g2 = build_root_system("G2")
    a0, a1 = g2.simple_root(0), g2.simple_root(1)
    assert _pairing(g2, a0, a0) == 2
    assert _pairing(g2, a1, a1) == 6
    assert _pairing(g2, a0, a1) == _pairing(g2, a1, a0) == -3
    rng = random.Random(31)
    system = build_root_system("B/C3")
    for _ in range(50):
        v = rng.choice(system.roots)
        w = rng.choice(system.roots)
        assert _pairing(system, v, w) == _pairing(system, w, v)


def test_copairing_recovers_cartan_entries():
    for label in ("A3", "B/C3", "G2", "F4"):
        system = build_root_system(label)
        for i in range(system.n):
            for j in range(system.n):
                assert (
                    _copairing(system, system.simple_root(i), system.simple_root(j))
                    == system.cartan[j][i]
                )


def test_copairing_rejects_isotropic_and_marks_nonintegral():
    system = build_root_system("A2")
    with pytest.raises(ValueError):
        _copairing(system, (1, 0), (0, 0))
    # 2 (v, w) / (w, w) = 2 * (-2) / 8 = -1/2; (2, 0) is no root, so its
    # form and norm are computed, not stored
    with pytest.raises(ValueError, match="not integral"):
        _copairing(system, (0, 1), (2, 0))
    assert not system.is_root((2, 0))
    assert roots._form(system, (2, 0)) == _form_by_entries(system, (2, 0)) == ((4, -2), 8)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def test_coroot_pairings_raise_copairings_errors_in_its_order():
    # the pairings one copairing at a time, row by row: the reference order
    def by_copairing(basis):
        return [[2 if i == j else _copairing(basis.system, v, w) for j, w in enumerate(basis.vectors)]
                for i, v in enumerate(basis.vectors)]

    rng = random.Random(34)
    kinds = set()
    for label in ("A3", "B/C3", "G2", "F4"):
        system = build_root_system(label)
        for _ in range(400):
            # small vectors, zero among them: isotropic and non-integral pairs both occur
            vectors = [tuple(rng.choice((0, 0, 1, -1, 2)) for _ in range(system.n)) for _ in range(system.n)]
            basis = CompanionBasis(system, vectors)
            expected = _outcome(by_copairing, basis)
            assert _outcome(_coroot_pairings, basis) == expected
            kinds.add("undefined" if "undefined" in str(expected) else
                      "not integral" if "not integral" in str(expected) else "pairs")
    assert kinds == {"pairs", "undefined", "not integral"}
    # an isotropic beta_2 is met at (1, 2), before the non-integral pair (1, 3)
    a2 = build_root_system("A2")
    basis = CompanionBasis(a2, [(0, 1), (0, 0), (2, 0)])
    with pytest.raises(ValueError, match="undefined"):
        _coroot_pairings(basis)
    basis = CompanionBasis(a2, [(0, 1), (2, 0), (0, 0)])
    with pytest.raises(ValueError, match="not integral"):
        _coroot_pairings(basis)


def test_reflection_preserves_pairing():
    system = build_root_system("F4")
    rng = random.Random(32)
    for _ in range(50):
        beta = rng.choice(system.roots)
        v = rng.choice(system.roots)
        w = rng.choice(system.roots)
        assert _pairing(system, _reflect(system, beta, v), _reflect(system, beta, w)) == _pairing(
            system, v, w
        )


def test_reflect_basics_and_errors():
    system = build_root_system("A3")
    beta = system.simple_root(1)
    assert _reflect(system, beta, beta) == (0, -1, 0)
    v = (1, 1, 1)
    assert _reflect(system, beta, _reflect(system, beta, v)) == v
    with pytest.raises(ValueError):
        _reflect(system, (1, 0, 1), v)  # not a root


# ------------------------------------------------------ companion bases


def test_companion_matrix_of_simple_basis_is_cartan_transpose():
    for label in ("A3", "B/C2", "B/C4", "D4", "G2", "F4"):
        system = build_root_system(label)
        comp = companion_matrix(simple_root_basis(system))
        n = system.n
        assert [list(r) for r in comp.entries] == [
            [system.cartan[j][i] for j in range(n)] for i in range(n)
        ]


def test_companion_matrix_frozen_example():
    b2 = build_root_system("B/C2")
    assert [list(r) for r in b2.cartan] == [[2, -2], [-1, 2]]
    comp = companion_matrix(simple_root_basis(b2))
    assert [list(r) for r in comp.entries] == [[2, -1], [-2, 2]]


def test_simple_basis_is_companion_basis_of_standard_seed():
    for label in ("A4", "B/C3", "D5", "E6", "F4", "G2"):
        system = build_root_system(label)
        ok, reason = is_companion_basis(
            simple_root_basis(system), dynkin.standard_exchange_matrix(label)
        )
        assert ok and reason is None


def test_companion_rejection_reasons_in_order():
    system = build_root_system("A4")
    B = dynkin.standard_exchange_matrix("A4")
    # a non-root vector is reported first, even though the determinant also fails
    basis = CompanionBasis(system, [(1, 0, 1, 0), (1, 0, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    ok, reason = is_companion_basis(basis, B)
    assert not ok and reason == "vector 1 = [1, 0, 1, 0] is not a root"
    # roots but not a lattice basis
    basis = CompanionBasis(system, [(1, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    ok, reason = is_companion_basis(basis, B)
    assert not ok and reason == "not a lattice basis: determinant 0"
    # a genuine lattice basis of roots whose pairings disagree with the seed
    basis = CompanionBasis(system, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 1)])
    ok, reason = is_companion_basis(basis, B)
    assert not ok
    assert reason == "companion condition fails at (1,4): |1| != |0|"


def test_is_companion_basis_searches_no_symmetriser(monkeypatch):
    # a validated RootSystem already makes the pairings symmetrisable
    def refuse(entries):
        raise AssertionError("is_companion_basis built a QuasiCartanMatrix")

    monkeypatch.setattr(roots, "QuasiCartanMatrix", refuse)
    for label in ("B/C3", "F4", "G2"):
        system = build_root_system(label)
        ok, reason = is_companion_basis(simple_root_basis(system), dynkin.standard_exchange_matrix(label))
        assert ok and reason is None


def test_companion_rank_mismatch():
    system = build_root_system("A3")
    with pytest.raises(ValueError):
        is_companion_basis(simple_root_basis(system), dynkin.standard_exchange_matrix("A4"))


@lru_cache(maxsize=None)
def _euclidean_roots(label):
    return frozenset(_euclidean_root_closure(_euclidean_simple_roots(label)))


def _reference_companion_check(label, vectors, rows):
    """is_companion_basis's verdict and reason, computed in Euclidean space:
    each coordinate vector is the sum of its multiples of the Euclidean simple
    roots, a root is a member of their closure under reflections, the
    determinant comes from Fraction elimination and each pairing from
    Euclidean dot products.  Checks roots, then |det| = 1, then integral
    pairings, then |A_ij| = |B_ij|, each failure at its first pair row by row."""
    simples = _euclidean_simple_roots(label)
    images = [tuple(sum(c * s[t] for c, s in zip(v, simples)) for t in range(len(simples[0]))) for v in vectors]
    for idx, (v, image) in enumerate(zip(vectors, images)):
        if image not in _euclidean_roots(label):
            return False, f"vector {idx + 1} = {list(v)} is not a root"
    a = [[Fraction(x) for x in v] for v in vectors]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            det = Fraction(0)
            break
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    if abs(det) != 1:
        return False, f"not a lattice basis: determinant {int(det)}"
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    pairing = {(i, j): 2 * _dot(images[i], images[j]) / _dot(images[j], images[j]) for i, j in pairs}
    for i, j in pairs:
        if pairing[i, j].denominator != 1:
            return False, f"coroot pairing of {tuple(vectors[i])} against {tuple(vectors[j])} is not integral"
    for i, j in pairs:
        if abs(pairing[i, j]) != abs(rows[i][j]):
            return False, f"companion condition fails at ({i + 1},{j + 1}): |{int(pairing[i, j])}| != |{rows[i][j]}|"
    return True, None


_REFERENCE_LABELS = [*(label for n in range(1, 9) for label in dynkin.labels_of_rank(n)),
                     *(f"C{n}" for n in range(2, 9))]


@pytest.mark.parametrize("label", _REFERENCE_LABELS)
def test_companion_check_matches_a_euclidean_reference_on_walks_and_their_perturbations(label):
    """Seeded walks from the simple roots on the standard seed, each step's
    basis as it is and perturbed: two vectors swapped, one replaced by another
    root, one doubled (no root)."""
    system = build_root_system(label)
    rng = random.Random(f"reference {label}")
    outcomes = set()
    for _ in range(3):
        matrix = dynkin.standard_exchange_matrix(label)
        basis = simple_root_basis(system)
        for _ in range(8):
            k = rng.randrange(system.n)
            basis, matrix = mutate_companion(basis, k, diagram_of(matrix)), mutate_matrix(matrix, k)
            vectors = list(basis.vectors)
            i, j = rng.randrange(system.n), rng.randrange(system.n)
            swapped, replaced, doubled = vectors[:], vectors[:], vectors[:]
            swapped[i], swapped[j] = vectors[j], vectors[i]
            replaced[i] = rng.choice(system.roots)
            doubled[i] = tuple(2 * x for x in vectors[i])
            for candidate in (vectors, swapped, replaced, doubled):
                got = is_companion_basis(CompanionBasis(system, candidate), matrix)
                assert got == _reference_companion_check(label, candidate, matrix.entries), (label, candidate)
                outcomes.add(got[1].split()[0] if got[1] else None)
    # a pass, no root, no lattice basis and a mismatch all occur, except that
    # every basis of roots passes at rank 1 and a swap keeps A2's passing
    kinds = {None, "vector"} if system.n == 1 else {None, "vector", "not"} if label == "A2" else \
        {None, "vector", "not", "companion"}
    assert outcomes == kinds, outcomes


def test_bareiss_on_frozen_rows_is_determinant():
    rng = random.Random(35)
    for _ in range(300):
        n = rng.randrange(0, 7)
        rows = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
        frozen = _freeze(rows)
        assert _bareiss(list(frozen)) == determinant(rows) == determinant(frozen)
        assert _freeze(rows) == frozen  # the rows passed in are read, never changed
    with pytest.raises(ValueError, match="^matrix entries must be integers$"):
        determinant([[1.0, 0], [0, 1]])
    with pytest.raises(ValueError, match="^matrix must be square$"):
        determinant([[1, 0, 0], [0, 1, 0]])


def test_is_root_refuses_coordinates_that_are_not_integers():
    a2 = build_root_system("A2")
    assert a2.is_root([1, 0]) and a2.is_root((1, 1)) and a2.is_root([True, False])
    for v in ([1.0, 0.0], (Fraction(1), 0), (1, 0.0), (Fraction(1, 2), 0), ("1", "0")):
        assert not a2.is_root(v), v
        with pytest.raises(ValueError, match="^basis coordinates must be integers$"):
            CompanionBasis(a2, [v, (0, 1)])


def test_inward_mutation_worked_example():
    # seed 1 -> 2: mutating inward at the sink reflects the source vector
    system = build_root_system("A2")
    B = dynkin.standard_exchange_matrix("A2")
    basis = simple_root_basis(system)
    mutated = mutate_companion(basis, 1, diagram_of(B))
    assert mutated.vectors == ((1, 1), (0, 1))
    ok, reason = is_companion_basis(mutated, mutate_matrix(B, 1))
    assert ok, reason
    # at the source nothing points inward, so the basis is untouched
    untouched = mutate_companion(basis, 0, diagram_of(B))
    assert untouched.vectors == basis.vectors


@pytest.mark.parametrize("label", ["E6", "B/C4", "G2"])
def test_mutate_companion_reflects_each_hit_vector(label):
    """The step equals reflect applied vector by vector on every arrow into the
    mutation vertex, and on the mutated diagram on every arrow out of it."""
    mclass = mutation_class(dynkin.standard_diagram(label))
    for basis, diagram in zip(companion_bases(mclass), mclass.members):
        for k in range(diagram.n):
            beta_k = basis.vectors[k]
            inward = [_reflect(basis.system, beta_k, v) if diagram.weight(i, k) else v
                      for i, v in enumerate(basis.vectors)]
            outward = [_reflect(basis.system, beta_k, v) if diagram.weight(k, i) else v
                       for i, v in enumerate(basis.vectors)]
            assert list(mutate_companion(basis, k, diagram).vectors) == inward
            assert list(mutate_companion(basis, k, mutate_diagram(diagram, k)).vectors) == outward


def test_mutate_companion_checks_beta_k_only_when_it_reflects():
    system = build_root_system("A2")
    basis = CompanionBasis(system, [(2, 0), (0, 1)])  # (2, 0) is no root
    arrow = Diagram(2, [(1, 0, 1)])
    with pytest.raises(ValueError) as err:
        _reflect(system, (2, 0), (0, 1))
    with pytest.raises(ValueError) as mutated:
        mutate_companion(basis, 0, arrow)
    assert str(mutated.value) == str(err.value) == "(2, 0) is not a root of A2"
    # no arrow into vertex 0 once mutated at 0: nothing is reflected and nothing raises
    assert mutate_companion(basis, 0, mutate_diagram(arrow, 0)).vectors == basis.vectors


def test_mutate_companion_argument_errors():
    system = build_root_system("A2")
    basis = simple_root_basis(system)
    d = diagram_of(dynkin.standard_exchange_matrix("A2"))
    with pytest.raises(IndexError):
        mutate_companion(basis, 2, d)
    with pytest.raises(ValueError):
        mutate_companion(basis, 0, diagram_of(dynkin.standard_exchange_matrix("A3")))


def test_random_walks_stay_companion_and_invert():
    rng = random.Random(33)
    for label in ("A4", "B/C3", "D4", "F4"):
        system = build_root_system(label)
        for _ in range(25):
            B = dynkin.standard_exchange_matrix(label)
            basis = simple_root_basis(system)
            for _ in range(rng.randrange(1, 7)):
                d = diagram_of(B)
                k = rng.randrange(B.n)
                mutated = mutate_companion(basis, k, d)
                B_next = mutate_matrix(B, k)
                ok, reason = is_companion_basis(mutated, B_next)
                assert ok, reason
                # the same step on the old diagram undoes it
                back = mutate_companion(mutated, k, d)
                assert back == basis
                basis, B = mutated, B_next


def _skew_matrix(diagram):
    """The skew-symmetric matrix of a simply-laced diagram."""
    return ExchangeMatrix(
        [[diagram.weight(i, j) - diagram.weight(j, i) for j in range(diagram.n)] for i in range(diagram.n)]
    )


def _relabeled(diagram, rng):
    """The diagram with its vertices relabeled at random."""
    perm = rng.sample(range(diagram.n), diagram.n)
    return Diagram(diagram.n, [(perm[i], perm[j], w) for i, j, w in diagram.edges])


def _shuffled_members(label, seed):
    """The type's mutation class, and every member with its vertices relabeled at random."""
    rng = random.Random(seed)
    mclass = mutation_class(dynkin.standard_diagram(label))
    return mclass, [_relabeled(member, rng) for member in mclass.members]


RANK_LE6 = [label for n in range(1, 7) for label in dynkin.labels_of_rank(n)]
RANK_LE7 = RANK_LE6 + list(dynkin.labels_of_rank(7))


def _assert_multiply_laced_companion(basis, diagram):
    """Roots, a lattice basis, and |A_ij A_ji| equal to the edge weights."""
    assert all(basis.system.is_root(v) for v in basis.vectors), diagram.edges
    assert determinant([list(v) for v in basis.vectors]) in (1, -1), diagram.edges
    comp = companion_matrix(basis).entries
    for i in range(diagram.n):
        for j in range(i + 1, diagram.n):
            assert abs(comp[i][j] * comp[j][i]) == diagram.weight_between(i, j), (diagram.edges, i, j)


@pytest.mark.parametrize("label", ["A5", "D5", "E6", "B/C4", "F4", "G2"])
def test_companion_bases_cover_the_class(label):
    mclass = mutation_class(dynkin.standard_diagram(label))
    bases = companion_bases(mclass)
    assert len(bases) == len(mclass)
    root = mclass.tree[0][0]  # the input's member takes the unit vectors of its companion's system
    assert bases[root].vectors == tuple(bases[root].system.simple_root(i) for i in range(bases[root].system.n))
    for member, basis in zip(mclass.members, bases):
        # one root system, the input member's companion's, carried to every member
        assert basis.system is bases[root].system and basis.system.label == label
        _assert_multiply_laced_companion(basis, member)
        # the member's own construction, a companion basis of it in a root system of its own
        built = companion_basis(member)
        assert built.system is not basis.system and built.system.label == label
        _assert_multiply_laced_companion(built, member)


def _walks(label, count, steps, rng):
    """The ends of seeded walks of the given length from the type's standard diagram."""
    ends = []
    for _ in range(count):
        diagram = dynkin.standard_diagram(label)
        for _ in range(steps):
            diagram = mutate_diagram(diagram, rng.randrange(diagram.n))
        ends.append(diagram)
    return ends


def _assert_constructed_companion(basis, diagram):
    """A companion basis of the diagram (is_companion_basis against its skew
    matrix when simply laced), whose companion matrix meets the sign condition
    around every chordless cycle."""
    if diagram.max_weight() == 1:
        ok, reason = is_companion_basis(basis, _skew_matrix(diagram))
        assert ok, (diagram.edges, reason)
    else:
        _assert_multiply_laced_companion(basis, diagram)
    assert cycle_sign_condition(companion_matrix(basis), diagram), diagram.edges


@pytest.mark.parametrize("label", RANK_LE7 + ["E7 walks", "E8 walks"])
def test_companion_basis_against_the_class(label):
    # every member of every class of rank <= 7, randomly relabeled, and seeded
    # walks of 12-40 steps from the E7 and E8 trees: the class's type, a
    # companion basis, the sign condition, and the full relations holding
    rng = random.Random(17)
    if label.endswith(" walks"):
        label = label.split()[0]
        diagrams = [_relabeled(d, rng) for d in _walks(label, 6, rng.randint(12, 40), rng)]
    else:
        diagrams = _shuffled_members(label, 17)[1]
    for diagram in diagrams:
        basis = companion_basis(diagram)
        assert basis.system.label == label
        _assert_constructed_companion(basis, diagram)
        assert _relations_hold(basis, full_presentation(diagram).relations), diagram.edges


_STAR = Diagram(5, [(0, v, 1) for v in range(1, 5)])  # the affine D4 star


@pytest.mark.parametrize("diagram, message, vertices", [
    (Diagram(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]), "chordless cycle on vertices 0, 1, 2 is not cyclically oriented",
     (0, 1, 2)),
    (Diagram(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]),
     "chordless cycle on vertices 0, 1, 2, 3 is not cyclically oriented", (0, 1, 2, 3)),
    (_STAR, "quasi-Cartan companion is not positive definite", ()),
    # the affine E6 tree: three arms of two vertices each at vertex 0
    (Diagram(7, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 4, 1), (0, 5, 1), (5, 6, 1)]),
     "quasi-Cartan companion is not positive definite", ()),
    (Diagram(3, [(0, 1, 2), (0, 2, 3)]), "a component has edges of weights 2 and 3", ()),
    # on a path the walk meets the mix as two lengths at the middle vertex
    (Diagram(3, [(0, 1, 2), (1, 2, 3)]), "the edge weights give vertex 1 two root lengths", (1,)),
    (Diagram(3, [(0, 1, 1), (1, 2, 2), (2, 0, 1)]), "the edge weights give vertex 1 two root lengths", (1,)),
    (Diagram(3, [(0, 1, 1), (1, 2, 4)]), "edge of weight 4 violates 2-finiteness", ()),
    (Diagram(3, [(0, 1, 1)]), "mutation class of no known finite type", ()),  # A2 beside an isolated vertex
    (Diagram(0, []), "mutation class of no known finite type", ()),
], ids=["acyclic-triangle", "acyclic-4-cycle", "affine-d4-star", "affine-e6-tree", "weights-2-and-3",
        "weights-2-and-3-on-a-path", "no-root-lengths", "weight-4", "disconnected", "empty"])
def test_companion_basis_refuses_what_is_not_of_finite_type(diagram, message, vertices):
    # one line each; the vertices it names are kept, so the CLI numbers them 1-based
    with pytest.raises(NotFiniteTypeError) as refused:
        companion_basis(diagram)
    assert (str(refused.value), refused.value.vertices) == (message, vertices)


@pytest.mark.parametrize("label", ["A5", "D5", "E6", "B/C4", "F4", "G2"])
def test_relations_hold_on_every_member_and_fail_an_added_relator(label):
    mclass = mutation_class(dynkin.standard_diagram(label))
    for member, basis in zip(mclass.members, companion_bases(mclass)):
        relations = full_presentation(member).relations
        assert _relations_hold(basis, relations), member.edges
        assert not _relations_hold(basis, relations + (Relation((0, 1), 1),)), member.edges


def test_relations_hold_agrees_with_reflecting_every_root():
    # on every root, the word of each relation must act as the identity;
    # here the roots are reflected one letter at a time, in root coordinates
    for label in ("D4", "B/C3", "G2"):
        mclass = mutation_class(dynkin.standard_diagram(label))
        for member, basis in zip(mclass.members, companion_bases(mclass)):
            for rel in full_presentation(member).relations + (Relation((0, 1), 2), Relation((0, 1), 3)):
                fixed = True
                for root in basis.system.roots:
                    image = root
                    for g in rel.letters():
                        image = _reflect(basis.system, basis.vectors[g], image)
                    fixed = fixed and image == root
                assert _relations_hold(basis, (rel,)) == fixed, (label, member.edges, rel)


def test_relations_hold_rejects_a_basis_that_is_no_companion():
    # the simple roots of D4 against the oriented 4-cycle: the cycle's braid
    # relations fail on them
    cycle = Diagram(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    assert not _relations_hold(simple_root_basis(build_root_system("D4")), full_presentation(cycle).relations)


def _plain_first_failing(entries, relations, images=None):
    """The first relation whose word's matrix is not the identity, or None:
    n x n integer matrices multiplied letter by letter, the reflection of
    letter g being the identity with column g of entries subtracted from row g."""
    n = len(entries)
    identity = [[int(r == c) for c in range(n)] for r in range(n)]
    reflections = [[[identity[r][c] - (entries[c][g] if r == g else 0) for c in range(n)] for r in range(n)]
                   for g in range(n)]
    for rel in relations:
        word = rel.letters()
        if images is not None:
            word = tuple(x for g in word for x in images[g])
        matrix = identity
        for g in word:
            matrix = [[sum(a * b for a, b in zip(row, col)) for col in zip(*matrix)] for row in reflections[g]]
        if matrix != identity:
            return rel
    return None


def _involutive_relations(rng, n, involutions, count, longest):
    """Relations over n generators, some holding by construction on the
    involutions among them (s^2, a word followed by its reverse) and the rest
    random words, with exponents."""
    relations = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0 and involutions:
            relations.append(Relation((rng.choice(involutions),), 2))
        elif kind == 1 and involutions:
            half = tuple(rng.choice(involutions) for _ in range(rng.randint(1, longest // 2)))
            relations.append(Relation(half + half[::-1], rng.randint(1, 2)))
        else:
            relations.append(Relation(tuple(rng.randrange(n) for _ in range(rng.randint(1, 8))), rng.randint(1, 4)))
    return relations


def _assert_matches_plain(entries, relations, images=None):
    for rel in relations:
        assert roots._first_failing(entries, (rel,), images) == _plain_first_failing(entries, (rel,), images), \
            (entries, rel, images)
    assert roots._first_failing(entries, relations, images) == _plain_first_failing(entries, relations, images)


def test_first_failing_matches_plain_matrices_on_random_integer_matrices():
    # entries -3..3 with diagonals other than 2 among them, and relators up to a
    # few hundred letters, so that their evaluation crosses width blocks
    rng = random.Random(2011)
    verdicts = []
    for _ in range(60):
        n = rng.randint(1, 5)
        entries = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        for g in range(n):
            entries[g][g] = 2 if rng.random() < 0.7 else rng.randint(-3, 3)
        involutions = [g for g in range(n) if entries[g][g] == 2]
        relations = _involutive_relations(rng, n, involutions, 12, 360)
        _assert_matches_plain(entries, relations)
        verdicts += [_plain_first_failing(entries, (rel,)) is None for rel in relations]
    assert 0.3 < sum(verdicts) / len(verdicts) < 0.7  # both verdicts, in numbers


def test_first_failing_matches_plain_matrices_on_images():
    # generator g stands for a palindrome around an involution, itself an
    # involution, so the relators built to hold on involutions hold on images
    rng = random.Random(1112)
    for _ in range(40):
        n = rng.randint(2, 4)
        entries = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        for g in range(n):
            entries[g][g] = 2
        images = []
        for _ in range(n):
            half = tuple(rng.randrange(n) for _ in range(rng.randint(0, 2)))
            images.append(half + (rng.randrange(n),) + half[::-1])
        _assert_matches_plain(entries, _involutive_relations(rng, n, list(range(n)), 10, 120), images)


def test_first_failing_is_exact_past_a_thousand_bits():
    # a hyperbolic pair: (s1 s2) has infinite order and its entries grow about
    # 2.8 bits a step; words that reach 1,000 bits, then hold or fail
    hyperbolic = [[2, -3], [-3, 2]]
    climb = (0, 1) * 380
    reflection = [[-1, 3], [0, 1]], [[1, 0], [3, -1]]
    matrix = [[1, 0], [0, 1]]
    for g in climb:
        matrix = [[sum(a * b for a, b in zip(row, col)) for col in zip(*matrix)] for row in reflection[g]]
    assert max(abs(x) for row in matrix for x in row).bit_length() > 1000
    holds = Relation(climb + climb[::-1], 1)
    fails_at_the_top = Relation(climb, 1)
    fails_after = Relation(climb + climb[:0:-1], 1)  # one letter short of holding
    fails_later = Relation(climb + climb[::-1] + (0, 1), 2)
    relations = (holds, fails_at_the_top, fails_after, fails_later)
    _assert_matches_plain(hyperbolic, relations)
    assert [roots._first_failing(hyperbolic, (rel,)) is None for rel in relations] == [True, False, False, False]


def test_certificate_relators_stay_within_256_letters_on_the_oriented_d10_cycle():
    # _first_failing packs a relator at one width, 2 plus grow over its
    # letters, so its rows widen with the relator's length.  The relators the
    # certificates read on this D10 member, the longest cycle at rank <= 10:
    # both sides' full relations, on their own and under the witness images of
    # mutation at every vertex (coset.verify_mutation_isomorphism)
    cycle = Diagram(10, [(i, (i + 1) % 10, 1) for i in range(10)])
    assert companion_basis(cycle).system.label == "D10"
    lengths = []
    for k in range(10):
        words = mutation_witness_words(cycle, k)
        for side in (cycle, mutate_diagram(cycle, k)):
            full, _ = _relations(side)
            lengths += [len(word) * exponent for word, exponent, _ in full]
            lengths += [sum(len(words[g]) for g in word) * exponent for word, exponent, _ in full]
    assert max(lengths) <= 256


def _count_labelings(monkeypatch):
    """Wrap the canonical search to count its calls, the canonical forms."""
    calls = [0]

    def counting(n, edges):
        calls[0] += 1
        return _canonical_search(n, edges)
    monkeypatch.setattr(diagram_module, "_canonical_search", counting)
    return calls


def _forbid(monkeypatch, module, *names):
    """Make each named function of the module fail the test when called."""
    for name in names:
        def forbidden(*args, name=name):
            raise AssertionError(f"{name} called")
        monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_every_tree_orientation_takes_a_cartan_matrix(monkeypatch, n):
    # a tree has no cycle, so every edge of its companion is negative: a
    # Cartan matrix of the type on the input's labels, in any orientation
    calls = _count_labelings(monkeypatch)
    _forbid(monkeypatch, diagram_module, "mutate_diagram")
    rng = random.Random(n)
    for label in dynkin.labels_of_rank(n):
        tree = dynkin.standard_diagram(label)
        for bits in range(2 ** len(tree.edges)):
            oriented = Diagram(n, [(j, i, w) if bits >> e & 1 else (i, j, w)
                                   for e, (i, j, w) in enumerate(tree.edges)])
            diagram = _relabeled(oriented, rng)
            basis = companion_basis(diagram)
            assert calls[0] == 0, (label, diagram.edges)
            assert basis.system.label == label
            assert basis.vectors == tuple(basis.system.simple_root(i) for i in range(n))
            cartan = basis.system.cartan
            assert companion_matrix(basis).entries == tuple(zip(*cartan))  # A_ij = (beta_i, beta_j^check)
            assert all(a <= 0 for i, row in enumerate(cartan) for j, a in enumerate(row) if i != j)
            _assert_multiply_laced_companion(basis, diagram)


def test_companion_basis_makes_no_canonical_search_and_no_mutation(monkeypatch):
    # the construction reads the diagram alone: no class search, no step
    members = mutation_class(dynkin.standard_diagram("E6")).members
    calls = _count_labelings(monkeypatch)
    _forbid(monkeypatch, diagram_module, "mutate_diagram", "_mutated_edges")
    _forbid(monkeypatch, roots, "mutate_companion")
    for member in members:
        assert companion_basis(member).system.label == "E6"
    assert calls[0] == 0


@pytest.mark.parametrize("label, searches", [("E6", 160), ("E7", 1058), ("E8", 4642)])
def test_class_search_labels_each_edge_once(monkeypatch, label, searches):
    # 337 and 2,498 on E6 and E7 when both ends of every edge were labeled;
    # 217, 1,457 and 6,323 when each edge was labeled once, but a child that
    # two parents of one layer reach was labeled twice.  The class's type
    # takes no canonical search.
    calls = _count_labelings(monkeypatch)
    mutation_class(dynkin.standard_diagram(label))
    assert calls[0] == searches


@pytest.mark.parametrize("label", ["E6", "D6", "B/C4"])
def test_carrying_a_basis_makes_no_canonical_search(monkeypatch, label):
    # companion_bases carries on the labelings the class search recorded
    calls = _count_labelings(monkeypatch)
    mclass = mutation_class(dynkin.standard_diagram(label))
    made = calls[0]
    companion_bases(mclass)
    assert calls[0] == made
    # the construction reads the input's own labels, relabeling nothing
    _forbid(monkeypatch, diagram_module, "_relabel")
    rng = random.Random(23)
    for member in rng.sample(mclass.members, 8):
        diagram = _relabeled(member, rng)
        basis = companion_basis(diagram)
        assert basis.system.label == label
        _assert_multiply_laced_companion(basis, diagram)


def _switchings(entries):
    """The sign patterns {(i, j): sign of A_ij, i < j} of D A D over every
    diagonal D of signs, from a matrix A's entries."""
    n = len(entries)
    patterns = set()
    for bits in range(2 ** n):
        sign = [-1 if bits >> i & 1 else 1 for i in range(n)]
        patterns.add(frozenset(((i, j), sign[i] * sign[j] * (1 if a > 0 else -1))
                               for i, row in enumerate(entries) for j, a in enumerate(row) if i < j and a))
    return patterns


@pytest.mark.parametrize("label, count", [
    ("A5", None), ("D5", None), ("E6", None), ("B/C4", None), ("F4", None), ("G2", None), ("D6", None), ("E7", 24)])
def test_every_companion_with_the_sign_condition_is_a_switching_of_the_constructed_one(label, count):
    # Barot-Geiss-Zelevinsky: the companions that meet the sign condition are
    # one another's sign changes of vertices, so the basis's vectors change
    # only by signs between them.  Each sign choice on the edges, with the
    # constructed companion's sizes, is checked against chordless_cycles
    mclass = mutation_class(dynkin.standard_diagram(label))
    rng = random.Random(29)
    members = mclass.members if count is None else rng.sample(mclass.members, count)
    for member in members:
        diagram = _relabeled(member, rng)
        entries = companion_matrix(companion_basis(diagram)).entries
        pairs = [(i, j) for i, j, _ in diagram.edges]
        cycles = [list(zip(c.vertices, c.vertices[1:] + c.vertices[:1])) for c in chordless_cycles(diagram)]
        meeting = set()
        for bits in range(2 ** len(pairs)):
            sign = {frozenset(p): -1 if bits >> e & 1 else 1 for e, p in enumerate(pairs)}
            if all(sum(sign[frozenset(p)] > 0 for p in cycle) % 2 for cycle in cycles):
                meeting.add(frozenset(((min(p), max(p)), sign[frozenset(p)]) for p in pairs))
        assert meeting == _switchings(entries), diagram.edges


@pytest.mark.parametrize("label, seed", [("D12", 1), ("A20", 2), ("D30", 3), ("B/C12", 4)])
def test_companion_basis_past_rank_ten(label, seed):
    # seeded 60-step walks, beyond the class search's rank: a companion basis
    # whose full relations hold, each within a second
    rng = random.Random(seed)
    [diagram] = _walks(label, 1, 60, rng)
    start = time.perf_counter()
    basis = companion_basis(diagram)
    assert time.perf_counter() - start < 1
    assert basis.system.label == label
    _assert_constructed_companion(basis, diagram)
    assert _relations_hold(basis, full_presentation(diagram).relations), diagram.edges


# ------------------------------------------------------ carried positive roots


def _closed_roots(entries):
    """The roots in coordinates over a companion basis, one of each +- pair,
    by a closure written here: the unit vectors closed under the reflections
    of the pairing matrix entries, the one in beta_g subtracting
    (column g of entries) . x from coordinate g; each root is kept with its
    first nonzero coordinate positive."""
    n = len(entries)
    found = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    frontier = list(found)
    while frontier:
        new = []
        for x in frontier:
            for g in range(n):
                c = sum(x[j] * entries[j][g] for j in range(n))
                y = x[:g] + (x[g] - c,) + x[g + 1:]
                if y not in found:
                    found.add(y)
                    new.append(y)
        frontier = new
    return sorted(r for r in found if next(x for x in r if x) > 0)


def _supports(roots_):
    """Each root's pattern of nonzero coordinates, sorted."""
    return sorted(tuple(int(x != 0) for x in r) for r in roots_)


def _masked_supports(masks, count):
    """The patterns the root masks give roots 0 .. count - 1, sorted."""
    return sorted(tuple(m >> r & 1 for m in masks) for r in range(count))


def _assert_carried(basis):
    """The basis's carried columns are its roots, as the closure finds them,
    and its root masks mark their nonzero coordinates."""
    closed = _closed_roots(_coroot_pairings(basis))
    rows = [r if next(x for x in r if x) > 0 else tuple(-x for x in r)
            for r in zip(*(column for column, _ in basis._carry))]
    assert sorted(rows) == closed
    assert _masked_supports(roots._root_masks(basis), len(rows)) == _supports(closed)


@pytest.mark.parametrize("label", RANK_LE6 + ["E7"])
def test_companion_bases_carry_their_roots(label):
    # every member of the classes of rank <= 6, and a seeded sample of E7
    mclass = mutation_class(dynkin.standard_diagram(label))
    bases = companion_bases(mclass)
    indices = range(len(mclass)) if label != "E7" else random.Random(31).sample(range(len(mclass)), 40)
    for i in indices:
        _assert_carried(bases[i])


@pytest.mark.parametrize("label", RANK_LE6 + ["E7"])
def test_companion_basis_carries_its_roots_on_both_sides_of_a_mutation(label):
    # the basis of verify-type and of verify-mutation's input side, and the
    # basis mutated at each vertex, of verify-mutation's mutated side
    members = mutation_class(dynkin.standard_diagram(label)).members
    if label == "E7":
        members = random.Random(37).sample(members, 12)
    for member in members:
        basis = companion_basis(member)
        _assert_carried(basis)
        for k in range(member.n):
            _assert_carried(mutate_companion(basis, k, member))


@pytest.mark.parametrize("diagram", [
    Diagram(2, []),  # A1 + A1
    Diagram(3, [(0, 1, 1)]),  # A2 + A1
    Diagram(3, [(2, 0, 1)]),  # A1 + A2, the A2 on the first and last vertices
    # B/C3 + G2, mutated at 2, 4 and 3: components of 9 and 6 positive roots
    diagram_of(ExchangeMatrix([[0, 0, -1, 0, 0], [0, 0, 1, 0, 0], [2, -1, 0, 0, 0], [0, 0, 0, 0, -1],
                               [0, 0, 0, 3, 0]])),
])
def test_disconnected_masks_give_each_component_bits_of_its_own(diagram):
    # the certificates' sides (coset._side), the input's and, for each k, the
    # side with the basis of k's component mutated at k: the masks of the
    # block-diagonal pairing matrix mark the closure's roots, every component's
    # on bits the others leave clear
    for k in range(-1, diagram.n):
        bases = [(v, c, mutate_companion(b, v.index(k), c) if k in v else b) for v, c, b in coset._component_bases(diagram)]
        entries, masks = coset._side(diagram.n, bases)
        closed = _closed_roots(entries)
        assert reduce(or_, masks) == (1 << len(closed)) - 1
        assert _masked_supports(masks, len(closed)) == _supports(closed)


# ------------------------------------------------------ signed graphs


def test_signed_graph_of_simple_chain():
    system = build_root_system("A3")
    graph = signed_graph(companion_matrix(simple_root_basis(system)))
    assert graph.n == 3
    assert graph.edges == ((0, 1, -1), (1, 2, -1))
    assert graph.neighbours(1) == (0, 2)


def test_signed_graph_positive_edge():
    system = build_root_system("A3")
    basis = CompanionBasis(system, [(1, 0, 0), (1, 1, 0), (0, 0, 1)])
    graph = signed_graph(companion_matrix(basis))
    assert graph.edges == ((0, 1, 1), (1, 2, -1))


def test_signed_graph_validation():
    with pytest.raises(ValueError):
        SignedGraph(2, ((0, 1, 2),))
    with pytest.raises(ValueError):
        SignedGraph(2, ((1, 0, 1),))
    with pytest.raises(ValueError):
        SignedGraph(3, ((0, 1, 1), (0, 1, -1)))
    with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
        SignedGraph(-1, ())


def test_local_switch_hand_example():
    # path 1 - 2 - 3 with both edges negative, switching at 2 with I = {1}:
    # the absent edge {1, 3} appears with sign -(-1)(-1) = -1 and {1, 2} flips
    chain = signed_graph(companion_matrix(simple_root_basis(build_root_system("A3"))))
    switched = local_switch(chain, 1, [0])
    assert switched.edges == ((0, 1, 1), (0, 2, -1), (1, 2, -1))


def test_local_switch_empty_and_full_sets():
    chain = signed_graph(companion_matrix(simple_root_basis(build_root_system("A4"))))
    assert local_switch(chain, 1, []) == chain
    # switching against every neighbour only flips the edges at the vertex
    flipped = local_switch(chain, 1, [0, 2])
    assert flipped.edges == ((0, 1, 1), (1, 2, 1), (2, 3, -1))


def test_local_switch_argument_errors():
    chain = signed_graph(companion_matrix(simple_root_basis(build_root_system("A3"))))
    with pytest.raises(ValueError):
        local_switch(chain, 1, [2, 0, 1])  # contains the vertex itself... caught as k in I
    with pytest.raises(ValueError):
        local_switch(chain, 0, [2])  # 2 is not a neighbour of 0
    for k in (7, -1, 3):  # a switching vertex out of range, as mutate_companion's
        with pytest.raises(IndexError, match=f"^switching vertex {k} out of range$"):
            local_switch(chain, k, [])


def test_simply_laced_mutation_acts_by_local_switching():
    rng = random.Random(34)
    for label in ("A4", "A5", "D4", "D5"):
        system = build_root_system(label)
        for _ in range(30):
            B = dynkin.standard_exchange_matrix(label)
            basis = simple_root_basis(system)
            for _ in range(rng.randrange(1, 8)):
                d = diagram_of(B)
                k = rng.randrange(B.n)
                mutated = mutate_companion(basis, k, d)
                old_graph = signed_graph(companion_matrix(basis))
                new_graph = signed_graph(companion_matrix(mutated))
                sources = tuple(i for i in range(d.n) if d.weight(i, k) > 0)
                if sources:
                    assert local_switch(old_graph, k, sources) == new_graph
                else:
                    assert new_graph == old_graph
                basis, B = mutated, mutate_matrix(B, k)

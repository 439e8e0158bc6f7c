"""Root systems, companion bases, and signed graphs.

The coordinate-based root systems are checked against independent Euclidean
realizations: explicit simple-root vectors in R^m, closed under reflection
with exact rational arithmetic, compared for Cartan integers, root counts,
and a coordinate-to-vector bijection.
"""

import random
import re
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_

import pytest

from cluster_presents import coset, diagram as diagram_module, dynkin, roots
from cluster_presents.diagram import _canonical_search
from cluster_presents.diagram import Diagram, NotFiniteTypeError, diagram_of, mutate_diagram, mutation_class
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


def test_a_non_integral_pairing_outranks_an_earlier_mismatch():
    # no pairing of two roots is non-integral, so A2's stored norm of (1, 0) is
    # tampered to 3: A_21 = 2 (-1) / 3, while (1,2) mismatches |-1| != |2| first
    a2 = build_root_system("A2")
    tampered = object.__new__(RootSystem)
    for name in ("label", "cartan", "symmetriser", "n", "roots"):
        object.__setattr__(tampered, name, getattr(a2, name))
    forms = dict(a2._forms)
    forms[(1, 0)] = (forms[(1, 0)][0], 3)
    object.__setattr__(tampered, "_forms", forms)
    basis = CompanionBasis(tampered, [(1, 0), (0, 1)])
    B = ExchangeMatrix([[0, 2], [-1, 0]])
    assert is_companion_basis(basis, B) == (False, "coroot pairing of (0, 1) against (1, 0) is not integral")
    assert is_companion_basis(simple_root_basis(a2), B) == (False, "companion condition fails at (1,2): |-1| != |2|")


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


def _assert_multiply_laced_companion(basis, diagram):
    """Roots, a lattice basis, and |A_ij A_ji| equal to the edge weights."""
    assert all(basis.system.is_root(v) for v in basis.vectors), diagram.edges
    assert determinant([list(v) for v in basis.vectors]) in (1, -1), diagram.edges
    comp = companion_matrix(basis).entries
    for i in range(diagram.n):
        for j in range(i + 1, diagram.n):
            assert abs(comp[i][j] * comp[j][i]) == diagram.weight_between(i, j), (diagram.edges, i, j)


@pytest.mark.parametrize("label", ["A5", "D5", "E6"])
def test_companion_basis_of_every_simply_laced_member(label):
    mclass, diagrams = _shuffled_members(label, 3)
    for diagram in diagrams:
        basis = companion_basis(diagram)
        assert basis.system.label == label == mclass.type_label
        ok, reason = is_companion_basis(basis, _skew_matrix(diagram))
        assert ok, (label, diagram.edges, reason)


@pytest.mark.parametrize("label", ["B/C4", "F4", "G2"])
def test_companion_basis_of_every_multiply_laced_member(label):
    mclass, diagrams = _shuffled_members(label, 5)
    for diagram in diagrams:
        basis = companion_basis(diagram)
        assert basis.system.label == mclass.type_label
        _assert_multiply_laced_companion(basis, diagram)


@pytest.mark.parametrize("label", ["A5", "D5", "E6", "B/C4", "F4", "G2"])
def test_companion_bases_cover_the_class(label):
    mclass = mutation_class(dynkin.standard_diagram(label))
    bases = companion_bases(mclass)
    assert len(bases) == len(mclass)
    for member, basis in zip(mclass.members, bases):
        assert basis.system is build_root_system(label)
        _assert_multiply_laced_companion(basis, member)
        # the search from the member takes its own path, to a companion
        # basis of the member in the same root system
        searched = companion_basis(member)
        assert searched.system is basis.system
        _assert_multiply_laced_companion(searched, member)


@pytest.mark.parametrize("label, count", [
    ("A5", None), ("D5", None), ("E6", None), ("B/C4", None), ("F4", None), ("G2", None), ("E7", 12), ("E8", 4)])
def test_companion_basis_search_against_the_class(label, count):
    # every member of the small classes, seeded random members of E7 (drawn
    # from its class) and E8 (ends of 12-step walks from the tree, as its
    # class alone takes seconds), each randomly relabeled
    rng = random.Random(17)
    if label == "E8":
        members = []
        for _ in range(count):
            diagram = dynkin.standard_diagram(label)
            for _ in range(12):
                diagram = mutate_diagram(diagram, rng.randrange(diagram.n))
            members.append(diagram)
    else:
        mclass = mutation_class(dynkin.standard_diagram(label))
        assert mclass.type_label == label
        members = mclass.members if count is None else rng.sample(mclass.members, count)
    for member in members:
        diagram = _relabeled(member, rng)
        basis = companion_basis(diagram)
        assert basis.system.label == label
        if diagram.max_weight() == 1:
            ok, reason = is_companion_basis(basis, _skew_matrix(diagram))
            assert ok, (label, diagram.edges, reason)
        else:
            _assert_multiply_laced_companion(basis, diagram)
        assert _relations_hold(basis, full_presentation(diagram).relations), diagram.edges


_STAR = Diagram(5, [(0, v, 1) for v in range(1, 5)])  # the affine D4 star


@pytest.mark.parametrize("diagram, error", [
    (_STAR, NotFiniteTypeError),
    (Diagram(3, [(0, 1, 1), (1, 2, 4)]), NotFiniteTypeError),  # a weight-4 edge
    (Diagram(11, [(i, i + 1, 1) for i in range(10)]), ValueError),  # rank 11
])
def test_companion_basis_search_fails_as_the_class_fails(diagram, error):
    with pytest.raises(error) as expected:
        mutation_class(diagram)
    with pytest.raises(error) as searched:
        companion_basis(diagram)
    assert type(searched.value) is type(expected.value)
    # one search over the input's own labels: the same breakdown, the same vertices
    assert str(searched.value) == str(expected.value)
    if diagram == _STAR:
        assert str(searched.value) == (
            "mutation at 4: path 1->4->0 closed by a same-direction edge 1->0 (diagram is not of finite type)")


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
    """Wrap the canonical search to count its oriented calls, the canonical
    forms; the unoriented ones match trees."""
    calls = [0]

    def counting(n, edges, oriented=True):
        calls[0] += oriented
        return _canonical_search(n, edges, oriented)
    monkeypatch.setattr(diagram_module, "_canonical_search", counting)
    return calls


def _forbid(monkeypatch, module, *names):
    """Make each named function of the module fail the test when called."""
    for name in names:
        def forbidden(*args, name=name):
            raise AssertionError(f"{name} called")
        monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_every_tree_orientation_is_its_own_stop(monkeypatch, n):
    # a tree input takes the simple roots without mutating or a canonical form
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
            assert sorted(basis.vectors) == sorted(basis.system.simple_root(i) for i in range(n))
            _assert_multiply_laced_companion(basis, diagram)


def test_search_makes_few_canonical_searches_on_the_e6_class(monkeypatch):
    members = mutation_class(dynkin.standard_diagram("E6")).members
    calls = _count_labelings(monkeypatch)
    counts = []
    for member in members:
        before = calls[0]
        companion_basis(member)
        counts.append(calls[0] - before)
    assert len(counts) == len(members) == 67
    # 14.76 per search when it ran over canonical representatives, 13.49
    # once each edge is labeled from one end
    assert sum(counts) / len(counts) <= 13.5


@pytest.mark.parametrize("label, searches", [("E6", 160), ("E7", 1058), ("E8", 4642)])
def test_class_search_labels_each_edge_once(monkeypatch, label, searches):
    # 337 and 2,498 on E6 and E7 when both ends of every edge were labeled;
    # 217, 1,457 and 6,323 when each edge was labeled once, but a child that
    # two parents of one layer reach was labeled twice
    calls = _count_labelings(monkeypatch)
    mutation_class(dynkin.standard_diagram(label))
    assert calls[0] == searches


@pytest.mark.parametrize("label", ["B/C5", "B/C6", "D6"])
def test_searched_basis_satisfies_every_members_relations(label):
    # multiply laced trees beyond rank 4, where the search stops at whatever
    # orientation it meets first
    for member in mutation_class(dynkin.standard_diagram(label)).members:
        basis = companion_basis(member)
        assert basis.system.label == label
        assert _relations_hold(basis, full_presentation(member).relations), member.edges


@pytest.mark.parametrize("label", ["E6", "D6", "B/C4"])
def test_carrying_a_basis_makes_no_canonical_search(monkeypatch, label):
    # companion_bases starts from the input's member, here a tree and its own
    # stop, and carries on the labelings the class search recorded
    calls = _count_labelings(monkeypatch)
    mclass = mutation_class(dynkin.standard_diagram(label))
    made = calls[0]
    companion_bases(mclass)
    assert calls[0] == made
    # the search carries on the input's own labels, relabeling nothing
    _forbid(monkeypatch, diagram_module, "_relabel")
    rng = random.Random(23)
    for member in rng.sample(mclass.members, 8):
        diagram = _relabeled(member, rng)
        basis = companion_basis(diagram)
        assert basis.system.label == label
        _assert_multiply_laced_companion(basis, diagram)


def _tree_distances(mclass):
    """Each member's number of mutations to the nearest tree member, by a
    breadth-first search over the class's edges."""
    adjacent = {i: set() for i in range(len(mclass))}
    for i, _, j in mclass.edges:
        adjacent[i].add(j)
    queue = [i for i, member in enumerate(mclass.members) if diagram_module._tree_match(member)]
    distance = dict.fromkeys(queue, 0)
    for i in queue:  # grows as it goes: breadth-first
        for j in adjacent[i]:
            if j not in distance:
                distance[j] = distance[i] + 1
                queue.append(j)
    return distance


@pytest.mark.parametrize("label, count", [
    ("A5", None), ("D5", None), ("E6", None), ("B/C4", None), ("F4", None), ("G2", None), ("D6", None), ("E7", 24)])
def test_search_carries_back_from_a_nearest_tree(monkeypatch, label, count):
    # one inward mutation of the basis per step from the nearest tree member
    mclass = mutation_class(dynkin.standard_diagram(label))
    distance = _tree_distances(mclass)
    steps = [0]

    def counting(*args):
        steps[0] += 1
        return mutate_companion(*args)
    monkeypatch.setattr(roots, "mutate_companion", counting)
    rng = random.Random(29)
    indices = range(len(mclass)) if count is None else rng.sample(range(len(mclass)), count)
    for i in indices:
        diagram = _relabeled(mclass.members[i], rng)
        steps[0] = 0
        basis = companion_basis(diagram)
        assert steps[0] == distance[i], (label, diagram.edges)
        _assert_multiply_laced_companion(basis, diagram)


def test_companion_basis_refuses_unsupported_diagrams():
    chain = Diagram(11, [(i, i + 1, 1) for i in range(10)])
    with pytest.raises(ValueError):
        companion_basis(chain)  # rank above the canonical labeling's 10
    star = Diagram(5, [(0, v, 1) for v in range(1, 5)])
    with pytest.raises(NotFiniteTypeError):
        companion_basis(star)  # the affine D4 tree


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


RANK_LE6 = [label for n in range(1, 7) for label in dynkin.labels_of_rank(n)]


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

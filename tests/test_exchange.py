"""Exchange-matrix layer: construction, mutation, companions, exact linear algebra."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from cluster_presents.exchange import (
    ExchangeMatrix,
    QuasiCartanMatrix,
    cartan_counterpart,
    cycle_sign_condition,
    determinant,
    find_symmetriser,
    is_positive,
    is_quasi_cartan_companion,
    is_two_finite,
    leading_principal_minors,
    mutate_matrix,
)
from cluster_presents.diagram import diagram_of


# ----------------------------------------------------------------- helpers


def _random_skew_symmetrisable(rng, n, max_entry=3):
    """A random B with prescribed positive symmetriser d."""
    d = [rng.randrange(1, 4) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # choose d_i * B_ij = -d_j * B_ji = common multiple * sign
            m = rng.randrange(-max_entry, max_entry + 1)
            rows[i][j] = m * d[j]
            rows[j][i] = -m * d[i]
    # divide out the gcd structure sometimes to vary entries
    return ExchangeMatrix(rows)


def _det_by_permutations(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        # sign via cycle decomposition
        p = list(perm)
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = p[x]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def _minors_by_fractions(rows):
    """Leading principal minors via plain Fraction Gaussian elimination."""
    n = len(rows)
    out = []
    for m in range(1, n + 1):
        a = [[Fraction(rows[i][j]) for j in range(m)] for i in range(m)]
        det = Fraction(1)
        ok = True
        for col in range(m):
            pivot_row = next((r for r in range(col, m) if a[r][col] != 0), None)
            if pivot_row is None:
                det = Fraction(0)
                ok = False
                break
            if pivot_row != col:
                a[col], a[pivot_row] = a[pivot_row], a[col]
                det = -det
            det *= a[col][col]
            for r in range(col + 1, m):
                factor = a[r][col] / a[col][col]
                for c in range(col, m):
                    a[r][c] -= factor * a[col][c]
        out.append(int(det) if ok else 0)
    return out


# ----------------------------------------------------------------- construction


def test_skew_symmetric_matrix_is_accepted():
    B = ExchangeMatrix([[0, 1], [-1, 0]])
    assert B.n == 2
    assert B.symmetriser == (1, 1)


def test_skew_symmetrisable_needs_witness():
    B = ExchangeMatrix([[0, 1], [-2, 0]])
    assert B.symmetriser == (2, 1)
    with pytest.raises(ValueError):
        ExchangeMatrix([[0, 1], [1, 0]])  # same-sign pair
    with pytest.raises(ValueError):
        ExchangeMatrix([[0, 1], [0, 0]])  # zero/nonzero mismatch
    with pytest.raises(ValueError):
        ExchangeMatrix([[1, 0], [0, 0]])  # nonzero diagonal


def test_non_symmetrisable_ratio_cycle_rejected():
    # triangle with ratio product != 1 around the cycle
    with pytest.raises(ValueError):
        ExchangeMatrix([[0, 1, -2], [-1, 0, 1], [1, -1, 0]])


def test_find_symmetriser_minimal_and_none():
    assert find_symmetriser([[0, 1], [-2, 0]]) == (2, 1)
    assert find_symmetriser([[0, 2], [-2, 0]]) == (1, 1)
    assert find_symmetriser([[0, 1], [1, 0]]) is None
    # disconnected blocks are scaled independently
    assert find_symmetriser([[0, 0], [0, 0]]) == (1, 1)


def test_random_matrices_have_valid_symmetriser():
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randrange(1, 6)
        B = _random_skew_symmetrisable(rng, n)
        d = B.symmetriser
        for i in range(n):
            for j in range(n):
                assert d[i] * B.entries[i][j] == -d[j] * B.entries[j][i]


# ----------------------------------------------------------------- mutation


def test_mutation_rank2_example():
    B = ExchangeMatrix([[0, 1], [-1, 0]])
    assert mutate_matrix(B, 0).entries == ((0, -1), (1, 0))
    assert mutate_matrix(B, 1).entries == ((0, -1), (1, 0))


def test_mutation_rank3_path_makes_triangle():
    B = ExchangeMatrix([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    out = mutate_matrix(B, 1)
    assert out.entries == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


def test_mutation_weighted_example():
    B = ExchangeMatrix([[0, 2], [-1, 0]])
    assert mutate_matrix(B, 0).entries == ((0, -2), (1, 0))


def test_mutation_is_involutive():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 6)
        B = _random_skew_symmetrisable(rng, n)
        k = rng.randrange(n)
        assert mutate_matrix(mutate_matrix(B, k), k).entries == B.entries


def test_mutation_preserves_symmetriser_witness():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randrange(2, 6)
        B = _random_skew_symmetrisable(rng, n)
        k = rng.randrange(n)
        out = mutate_matrix(B, k)
        d = B.symmetriser
        for i in range(n):
            for j in range(n):
                assert d[i] * out.entries[i][j] == -d[j] * out.entries[j][i]


def test_mutation_index_out_of_range():
    B = ExchangeMatrix([[0, 1], [-1, 0]])
    with pytest.raises(IndexError):
        mutate_matrix(B, 2)
    with pytest.raises(IndexError):
        mutate_matrix(B, -1)


# ----------------------------------------------------------------- counterparts


def test_cartan_counterpart_entries():
    B = ExchangeMatrix([[0, 2, 0], [-1, 0, -1], [0, 1, 0]])
    A = cartan_counterpart(B)
    assert A.entries == ((2, -2, 0), (-1, 2, -1), (0, -1, 2))
    assert is_quasi_cartan_companion(A, B)


def test_cartan_counterpart_always_companion():
    rng = random.Random(9)
    for _ in range(100):
        B = _random_skew_symmetrisable(rng, rng.randrange(2, 6))
        assert is_quasi_cartan_companion(cartan_counterpart(B), B)


def test_quasi_cartan_requires_diagonal_two():
    with pytest.raises(ValueError):
        QuasiCartanMatrix([[1, 0], [0, 2]])


def test_companion_rank_mismatch():
    A = QuasiCartanMatrix([[2]])
    B = ExchangeMatrix([[0, 1], [-1, 0]])
    with pytest.raises(ValueError):
        is_quasi_cartan_companion(A, B)


def test_two_finite():
    assert is_two_finite(ExchangeMatrix([[0, 1], [-3, 0]]))
    assert not is_two_finite(ExchangeMatrix([[0, 2], [-2, 0]]))


# ----------------------------------------------------------------- exact linear algebra


def test_determinant_against_permutation_expansion():
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        assert determinant(rows) == _det_by_permutations(rows)


def test_leading_minors_against_fraction_elimination():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        assert list(leading_principal_minors(rows)) == _minors_by_fractions(rows)


def test_determinant_with_zero_leading_pivots():
    # The leading 1x1 and 2x2 blocks are singular, so elimination must swap rows.
    rng = random.Random(15)
    for n in (5, 6, 7):
        for _ in range(6):
            rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
            rows[0][0] = 0
            rows[1][0], rows[1][1] = 0, rng.randrange(-3, 4)
            assert determinant(rows) == _det_by_permutations(rows)


def test_minors_with_zero_pivot():
    rows = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
    assert list(leading_principal_minors(rows)) == _minors_by_fractions(rows)


def test_is_positive_on_cartan_matrices():
    # genuine Cartan matrices are positive
    assert is_positive(QuasiCartanMatrix([[2, -1], [-1, 2]]))
    assert is_positive(QuasiCartanMatrix([[2, -2], [-1, 2]]))
    assert is_positive(QuasiCartanMatrix([[2, -3], [-1, 2]]))
    # affine A1~ is not
    assert not is_positive(QuasiCartanMatrix([[2, -2], [-2, 2]]))


def test_is_positive_matches_fraction_oracle_on_random_symmetrisable():
    rng = random.Random(14)
    checked = 0
    for _ in range(300):
        n = rng.randrange(1, 5)
        rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randrange(-2, 3)
                rows[i][j] = v
                rows[j][i] = v
        A = QuasiCartanMatrix(rows)
        expected = all(m > 0 for m in _minors_by_fractions(rows))
        assert is_positive(A) == expected
        checked += 1
    assert checked == 300


def test_cycle_sign_condition_literal_and_parity():
    # oriented triangle, cartan counterpart: entries all negative -> odd positives? no:
    # product of (-A) terms must be negative around each chordless cycle
    B = ExchangeMatrix([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
    diagram = diagram_of(B)
    A_bad = cartan_counterpart(B)  # all off-diagonal negative: product (+1)^3 > 0
    assert not cycle_sign_condition(A_bad, diagram)
    A_good = QuasiCartanMatrix([[2, 1, -1], [1, 2, -1], [-1, -1, 2]])
    assert cycle_sign_condition(A_good, diagram)
    # parity cross-check: condition holds iff each cycle carries an odd number
    # of positive entries (for a d-cycle, prod(-A) = (-1)^d * prod A < 0)
    for A in (A_bad, A_good):
        for cyc in [(0, 1, 2)]:
            d = len(cyc)
            pos = sum(
                1 for a in range(d) if A.entries[cyc[a]][cyc[(a + 1) % d]] > 0
            )
            literal = 1
            for a in range(d):
                literal *= -A.entries[cyc[a]][cyc[(a + 1) % d]]
            assert (literal < 0) == (pos % 2 == 1)


def test_cycle_sign_vacuous_without_cycles():
    B = ExchangeMatrix([[0, 1], [-1, 0]])
    assert cycle_sign_condition(cartan_counterpart(B), diagram_of(B))

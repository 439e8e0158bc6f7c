"""Exchange-matrix layer: construction, mutation, exact linear algebra, and
the quasi-Cartan companion checks on these matrices (which live in roots)."""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import pytest

from cluster_presents import dynkin
from cluster_presents.exchange import (
    ExchangeMatrix,
    QuasiCartanMatrix,
    _mutate_entries,
    determinant,
    is_positive,
    is_two_finite,
    leading_principal_minors,
    mutate_matrix,
)
from cluster_presents.diagram import diagram_of
from cluster_presents.roots import cycle_sign_condition, is_quasi_cartan_companion


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


def _cartan_counterpart(B):
    """The quasi-Cartan matrix with diagonal 2 and A_ij = -|B_ij| off it: every
    off-diagonal entry negative."""
    return QuasiCartanMatrix([[2 if i == j else -abs(b) for j, b in enumerate(row)]
                              for i, row in enumerate(B.entries)])


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


def _symmetriser_by_fractions(rows, sign):
    """Reference: the least positive integer d with d_i M_ij = sign d_j M_ji.

    A sign and zero-pattern pre-pass, then rational ratios propagated over the
    nonzero pattern with every edge checked as it is met, each component scaled
    by the lcm of its denominators and divided by its gcd.
    """
    n = len(rows)
    for i in range(n):
        for j in range(n):
            a, b = rows[i][j], rows[j][i]
            if (a == 0) != (b == 0) or (i != j and a * b * sign < 0) or (i == j and sign < 0 and a):
                return None
    d = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root], component = Fraction(1), [root]
        for i in component:
            for j in range(n):
                if j == i or rows[i][j] == 0:
                    continue
                value = d[i] * Fraction(rows[i][j], sign * rows[j][i])
                if d[j] is None:
                    d[j] = value
                    component.append(j)
                elif d[j] != value:
                    return None
        scale = lcm(*(d[v].denominator for v in component))
        g = gcd(*(int(d[v] * scale) for v in component))
        for v in component:
            d[v] = d[v] * scale / g
    return tuple(int(x) for x in d)


def _symmetrisable_rows(rng, n, sign, diagonal):
    """A random n x n matrix with d_i M_ij = sign d_j M_ji for a random d."""
    d = [rng.choice((1, 1, 2, 3, 6)) for _ in range(n)]
    rows = [[diagonal] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = rng.choice((0, 1, 2, 3, 6)) * rng.choice((-1, 1))
            rows[i][j], rows[j][i] = c * d[j], sign * c * d[i]
    return rows


# Each defect makes a symmetrisable matrix symmetrisable no more.
def _zero_pattern_mismatch(rows, sign):
    rows[0][1], rows[1][0] = 1, 0


def _wrong_sign_pair(rows, sign):  # a same-sign pair in skew mode
    rows[0][1], rows[1][0] = 1, -sign


def _inconsistent_three_cycle(rows, sign):
    rows[0][1], rows[1][2], rows[2][0] = 1, 1, 2
    rows[1][0], rows[2][1], rows[0][2] = sign, sign, sign


def _nonzero_skew_diagonal(rows, sign):
    rows[0][0] = 1


DEFECTS = (_zero_pattern_mismatch, _wrong_sign_pair, _inconsistent_three_cycle, _nonzero_skew_diagonal)


def test_symmetrisers_match_a_fraction_reference():
    rng = random.Random(1402)
    refused = {defect.__name__: 0 for defect in DEFECTS}
    for _ in range(3000):
        n = rng.randrange(3, 6)
        skew = rng.random() < 0.5
        sign = -1 if skew else 1
        rows = _symmetrisable_rows(rng, n, sign, 0 if skew else 2)
        defect = rng.choice((None,) + (DEFECTS if skew else DEFECTS[:3]))
        if defect is not None:
            defect(rows, sign)
        expected = _symmetriser_by_fractions(rows, sign)
        if defect is not None:
            assert expected is None, (defect.__name__, rows)
            refused[defect.__name__] += 1
        if skew and expected is None:
            with pytest.raises(ValueError, match="^matrix is not skew-symmetrisable$"):
                ExchangeMatrix(rows)
        elif skew:
            assert ExchangeMatrix(rows).symmetriser == expected, rows
        elif expected is None:
            with pytest.raises(ValueError, match="^matrix is not symmetrisable$"):
                QuasiCartanMatrix(rows)
        else:
            assert QuasiCartanMatrix(rows).symmetriser == expected, rows
    assert all(refused.values()), refused


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


def test_symmetriser_minimal_and_refused():
    assert ExchangeMatrix([[0, 1], [-2, 0]]).symmetriser == (2, 1)
    assert ExchangeMatrix([[0, 2], [-2, 0]]).symmetriser == (1, 1)
    with pytest.raises(ValueError, match="^matrix is not skew-symmetrisable$"):
        ExchangeMatrix([[0, 1], [1, 0]])
    # disconnected blocks are scaled independently
    assert ExchangeMatrix([[0, 0], [0, 0]]).symmetriser == (1, 1)


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


@pytest.mark.parametrize("label", ["E7", "B/C5", "G2"])
def test_mutated_matrices_compute_the_least_symmetriser(label):
    rng = random.Random(25)
    B = dynkin.standard_exchange_matrix(label)
    for _ in range(50):
        B = mutate_matrix(B, rng.randrange(B.n))
        assert B.symmetriser == _symmetriser_by_fractions(B.entries, -1)


def _dense_mutation(entries, k):
    """The rule entry by entry, over all n^2 positions: the reference for the sparse kernel."""
    n = len(entries)
    new = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == k or j == k:
                row.append(-entries[i][j])
            else:
                row.append(entries[i][j] + (abs(entries[i][k]) * entries[k][j] + entries[i][k] * abs(entries[k][j])) // 2)
        new.append(tuple(row))
    return tuple(new)


def test_mutation_matches_the_dense_rule_and_shares_unchanged_rows():
    rng = random.Random(15)
    matrices = [_random_skew_symmetrisable(rng, rng.randrange(1, 9)) for _ in range(300)]
    # walks from the weighted standard seeds: entries of weight 2 and 3 in finite type
    for label in ("B/C4", "F4", "G2", "E8"):
        B = dynkin.standard_exchange_matrix(label)
        for _ in range(20):
            B = mutate_matrix(B, rng.randrange(B.n))
            matrices.append(B)
    unchanged_rows, weights = 0, set()
    for B in matrices:
        old = B.entries
        weights.update(abs(old[i][j] * old[j][i]) for i in range(B.n) for j in range(B.n))
        for k in range(B.n):
            kernel = _mutate_entries(old, k)
            assert kernel == _dense_mutation(old, k)
            out = mutate_matrix(B, k)
            assert out.entries == kernel and out.symmetriser == B.symmetriser
            for i in range(B.n):
                if i != k and old[i][k] == 0:
                    assert kernel[i] is old[i]
                    unchanged_rows += 1
    assert unchanged_rows > 1000 and {1, 2, 3} <= weights


def test_mutation_index_out_of_range():
    B = ExchangeMatrix([[0, 1], [-1, 0]])
    with pytest.raises(IndexError):
        mutate_matrix(B, 2)
    with pytest.raises(IndexError):
        mutate_matrix(B, -1)


# ----------------------------------------------------------------- counterparts


def test_cartan_counterpart_entries():
    B = ExchangeMatrix([[0, 2, 0], [-1, 0, -1], [0, 1, 0]])
    A = QuasiCartanMatrix([[2, -2, 0], [-1, 2, -1], [0, -1, 2]])
    assert A == _cartan_counterpart(B)
    assert is_quasi_cartan_companion(A, B)
    # signs are free, magnitudes are not
    assert is_quasi_cartan_companion(QuasiCartanMatrix([[2, 2, 0], [1, 2, -1], [0, -1, 2]]), B)
    assert not is_quasi_cartan_companion(QuasiCartanMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]), B)


def test_cartan_counterpart_always_companion():
    rng = random.Random(9)
    for _ in range(100):
        B = _random_skew_symmetrisable(rng, rng.randrange(2, 6))
        assert is_quasi_cartan_companion(_cartan_counterpart(B), B)


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


def _sparse_rows(rng, n):
    """A random n x n integer matrix, about half of it zeros, made singular,
    or given a zero leading entry, in turns."""
    rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(3)
    if kind == 0 and n > 1:  # row c a combination of rows a and b, or zero
        a, b = rng.sample(range(n), 2)
        c = rng.randrange(n)
        rows[c] = [2 * x - y for x, y in zip(rows[a], rows[b])] if c not in (a, b) else [0] * n
    elif kind == 1:
        rows[0][0] = 0
    return rows


def test_determinant_matches_the_leibniz_expansion_on_singular_swapped_and_sparse_matrices():
    rng = random.Random(2300)
    singular = swapped = zero_multipliers = 0
    for _ in range(600):
        n = rng.randrange(1, 7)
        rows = _sparse_rows(rng, n)
        given = [row[:] for row in rows]
        expected = _det_by_permutations(rows)
        assert determinant(rows) == expected
        assert determinant(tuple(map(tuple, rows))) == expected
        assert rows == given  # rows are read, never written
        singular += expected == 0
        swapped += rows[0][0] == 0 and any(row[0] for row in rows)
        zero_multipliers += rows[0][0] != 0 and any(row[0] == 0 for row in rows[1:])
    assert min(singular, swapped, zero_multipliers) > 100, (singular, swapped, zero_multipliers)


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
    # the product of the (-A) terms must be negative around each chordless cycle
    B = ExchangeMatrix([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
    diagram = diagram_of(B)
    A_bad = QuasiCartanMatrix([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])  # all negative: product (+1)^3 > 0
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
    assert cycle_sign_condition(QuasiCartanMatrix([[2, -1], [-1, 2]]), diagram_of(B))

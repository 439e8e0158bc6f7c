"""Skew-symmetrisable exchange matrices and quasi-Cartan companions.

Everything here is exact integer arithmetic on plain Python ints; no floats
are used anywhere in the package.  Matrices are stored as tuples of tuples
and treated as immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

__all__ = [
    "ExchangeMatrix",
    "QuasiCartanMatrix",
    "mutate_matrix",
    "cartan_counterpart",
    "is_two_finite",
    "find_symmetriser",
    "is_quasi_cartan_companion",
    "is_positive",
    "cycle_sign_condition",
    "determinant",
    "leading_principal_minors",
]

IntMatrix = tuple[tuple[int, ...], ...]


def _freeze(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Validate a square all-integer array and freeze it into nested tuples."""
    out = tuple(tuple(int(x) for x in row) for row in rows)
    n = len(out)
    if any(len(row) != n for row in out):
        raise ValueError("matrix must be square")
    for row in out:
        for x in row:
            if not isinstance(x, int):
                raise ValueError("matrix entries must be integers")
    return out


def _minimal_integer_vector(values: list[Fraction]) -> tuple[int, ...]:
    """Scale a positive rational vector to the smallest positive integer vector."""
    scale = lcm(*(v.denominator for v in values)) if values else 1
    ints = [int(v * scale) for v in values]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def _propagate_symmetriser(entries: IntMatrix, skew: bool) -> Optional[tuple[int, ...]]:
    """Ratio propagation over the connectivity graph of a matrix.

    Looks for positive d_1..d_n with d_i M_ij = -d_j M_ji (skew) or
    d_i M_ij = d_j M_ji (symmetric).  Each connected component of the
    "either entry nonzero" graph determines the d ratios up to one scalar,
    which is fixed by scaling to the componentwise-minimal integer vector.
    Returns None when the sign pattern or a ratio cycle is inconsistent.
    """
    n = len(entries)
    sign = -1 if skew else 1
    for i in range(n):
        for j in range(n):
            a, b = entries[i][j], entries[j][i]
            if (a == 0) != (b == 0):
                return None
            if a != 0 and i != j:
                if skew and a * b > 0:
                    return None
                if not skew and a * b < 0:
                    return None
    if skew and any(entries[i][i] != 0 for i in range(n)):
        return None

    d: list[Optional[Fraction]] = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        component = [root]
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j == i or entries[i][j] == 0:
                    continue
                # d_i * M_ij = sign * d_j * M_ji  =>  d_j = d_i * M_ij / (sign * M_ji)
                ratio = Fraction(entries[i][j], sign * entries[j][i])
                if ratio <= 0:
                    return None
                value = d[i] * ratio
                if d[j] is None:
                    d[j] = value
                    component.append(j)
                    stack.append(j)
                elif d[j] != value:
                    return None
        scaled = _minimal_integer_vector([d[i] for i in component])
        for i, v in zip(component, scaled):
            d[i] = Fraction(v)
    return tuple(int(v) for v in d)


def find_symmetriser(entries: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Find the minimal positive integer diagonal making D*B skew-symmetric.

    Parameters
    ----------
    entries : square integer array
        The candidate exchange matrix B.

    Returns
    -------
    tuple of int, or None
        The componentwise-minimal positive integers d with
        d_i B_ij = -d_j B_ji for all i, j, or None when B is not
        skew-symmetrisable (sign violation or inconsistent ratio cycle).
    """
    return _propagate_symmetriser(_freeze(entries), skew=True)


@dataclass(frozen=True, slots=True)
class ExchangeMatrix:
    """An n x n skew-symmetrisable integer matrix B with a cached symmetriser.

    Invariants enforced at construction: zero diagonal, opposite signs in
    opposite positions, and existence of a positive integer diagonal D with
    D*B skew-symmetric.  Instances are immutable values, equal when their
    entries are.
    """

    entries: IntMatrix
    symmetriser: Optional[tuple[int, ...]] = field(default=None, compare=False)
    n: int = field(init=False, compare=False)

    def __post_init__(self):
        frozen = _freeze(self.entries)
        if self.symmetriser is None:
            found = _propagate_symmetriser(frozen, skew=True)
            if found is None:
                raise ValueError("matrix is not skew-symmetrisable")
        else:
            found = tuple(int(x) for x in self.symmetriser)
            if len(found) != len(frozen) or any(x <= 0 for x in found):
                raise ValueError("symmetriser must be positive and of matching rank")
            for i in range(len(frozen)):
                for j in range(len(frozen)):
                    if found[i] * frozen[i][j] != -found[j] * frozen[j][i]:
                        raise ValueError("symmetriser does not witness skew-symmetrisability")
        object.__setattr__(self, "n", len(frozen))
        object.__setattr__(self, "entries", frozen)
        object.__setattr__(self, "symmetriser", found)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def __repr__(self) -> str:
        return f"ExchangeMatrix({[list(r) for r in self.entries]})"


@dataclass(frozen=True, slots=True)
class QuasiCartanMatrix:
    """A symmetrisable integer matrix with all diagonal entries equal to 2."""

    entries: IntMatrix
    symmetriser: tuple[int, ...] = field(init=False, compare=False)
    n: int = field(init=False, compare=False)

    def __post_init__(self):
        frozen = _freeze(self.entries)
        if any(frozen[i][i] != 2 for i in range(len(frozen))):
            raise ValueError("quasi-Cartan matrix must have diagonal 2")
        found = _propagate_symmetriser(frozen, skew=False)
        if found is None:
            raise ValueError("matrix is not symmetrisable")
        object.__setattr__(self, "n", len(frozen))
        object.__setattr__(self, "entries", frozen)
        object.__setattr__(self, "symmetriser", found)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def __repr__(self) -> str:
        return f"QuasiCartanMatrix({[list(r) for r in self.entries]})"


def mutate_matrix(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Mutate an exchange matrix at vertex k (0-based).

    B'_ij = -B_ij when i = k or j = k, and otherwise
    B'_ij = B_ij + (|B_ik| B_kj + B_ik |B_kj|) / 2; the division is always
    exact because the two summands share the sign pattern.  The symmetriser
    of B remains a witness for B' and is reused.

    Raises
    ------
    IndexError
        If k is out of range.
    """
    n = B.n
    if not 0 <= k < n:
        raise IndexError(f"mutation vertex {k} out of range for rank {n}")
    old = B.entries
    new = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == k or j == k:
                row.append(-old[i][j])
            else:
                row.append(old[i][j] + (abs(old[i][k]) * old[k][j] + old[i][k] * abs(old[k][j])) // 2)
        new.append(row)
    return ExchangeMatrix(new, symmetriser=B.symmetriser)


def cartan_counterpart(B: ExchangeMatrix) -> QuasiCartanMatrix:
    """The quasi-Cartan matrix with diagonal 2 and A_ij = -|B_ij| off it."""
    n = B.n
    rows = [[2 if i == j else -abs(B.entries[i][j]) for j in range(n)] for i in range(n)]
    return QuasiCartanMatrix(rows)


def is_two_finite(B: ExchangeMatrix) -> bool:
    """True iff |B_ij * B_ji| <= 3 for every pair of indices."""
    n = B.n
    for i in range(n):
        for j in range(i + 1, n):
            if abs(B.entries[i][j] * B.entries[j][i]) > 3:
                return False
    return True


def is_quasi_cartan_companion(A: QuasiCartanMatrix, B: ExchangeMatrix) -> bool:
    """True iff |A_ij| = |B_ij| for all off-diagonal entries.

    Raises
    ------
    ValueError
        If the ranks differ.
    """
    if A.n != B.n:
        raise ValueError("rank mismatch between quasi-Cartan matrix and exchange matrix")
    n = A.n
    for i in range(n):
        for j in range(n):
            if i != j and abs(A.entries[i][j]) != abs(B.entries[i][j]):
                return False
    return True


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by row-pivoted Bareiss elimination.

    Every division in the recurrence is exact.  A row swap flips the sign, and
    a column without a nonzero pivot makes the determinant 0.
    """
    a = [list(r) for r in _freeze(rows)]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return sign * prev


def leading_principal_minors(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Exact leading principal minors det M_1, ..., det M_n."""
    frozen = _freeze(rows)
    return tuple(determinant([r[:m] for r in frozen[:m]]) for m in range(1, len(frozen) + 1))


def is_positive(A: QuasiCartanMatrix) -> bool:
    """True iff the symmetrised matrix D*A is positive definite.

    Uses the cached minimal integer symmetriser; the sign of each leading
    principal minor is invariant under rescaling D, so the choice of
    symmetriser does not matter.
    """
    d = A.symmetriser
    sym = [[d[i] * A.entries[i][j] for j in range(A.n)] for i in range(A.n)]
    return all(m > 0 for m in leading_principal_minors(sym))


def cycle_sign_condition(A: QuasiCartanMatrix, diagram) -> bool:
    """Check prod(-A_{i_a, i_{a+1}}) < 0 around every chordless cycle of a diagram.

    The diagram should be Gamma(B) for the matrix B that A accompanies.
    Vacuously true when the diagram has no chordless cycles.
    """
    from .diagram import chordless_cycles  # local import to keep modules layered

    for cycle in chordless_cycles(diagram):
        verts = cycle.vertices
        d = len(verts)
        product = 1
        for a in range(d):
            product *= -A.entries[verts[a]][verts[(a + 1) % d]]
        if product >= 0:
            return False
    return True

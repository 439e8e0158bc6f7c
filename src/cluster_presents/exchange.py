"""Skew-symmetrisable exchange matrices and quasi-Cartan matrices: integer-
matrix code only (the companion checks that relate the two live in roots).

Exact arithmetic on plain Python ints: entries are read with operator.index,
so a float, string or Fraction is refused, and matrices are immutable tuples of
tuples.  No symmetriser is passed in: a matrix built from outside computes its
least positive one (_propagate_symmetriser), which one check, _witnesses,
accepts.  A mutated matrix carries its parent's symmetriser instead, which
mutation keeps (Fomin-Zelevinsky, Cluster algebras I, section 4), and one
_witnesses pass on the new entries checks it (mutate_matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import index
from typing import Optional, Sequence

__all__ = [
    "ExchangeMatrix",
    "QuasiCartanMatrix",
    "mutate_matrix",
    "is_two_finite",
    "is_positive",
    "determinant",
    "leading_principal_minors",
]

IntMatrix = tuple[tuple[int, ...], ...]


def _freeze(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Freeze a square array into nested tuples of ints; an entry that is not
    an integer (a float, a string, a Fraction) is refused, never truncated."""
    try:
        out = tuple(tuple(map(index, row)) for row in rows)
    except TypeError:
        raise ValueError("matrix entries must be integers") from None
    if any(len(row) != len(out) for row in out):
        raise ValueError("matrix must be square")
    return out


def _witnesses(entries: IntMatrix, d: Sequence[int], sign: int) -> bool:
    """True iff d_i M_ij == sign * d_j M_ji for every pair i, j (i = j included)."""
    n = len(entries)
    for i, row in enumerate(entries):
        di = d[i]
        for j in range(i, n):
            if di * row[j] != sign * d[j] * entries[j][i]:
                return False
    return True


def _propagate_symmetriser(entries: IntMatrix, sign: int) -> Optional[tuple[int, ...]]:
    """The componentwise-minimal positive integers d with d_i M_ij = sign d_j M_ji
    (sign -1: skew, +1: symmetric), or None when there are none.

    Walks each component of the graph where M_ij and M_ji are both nonzero with
    d_j = d_i |M_ij| / |M_ji|, scaling the component when that is no integer,
    and divides it by its gcd.  The walk reads only magnitudes; one _witnesses
    pass checks the signs, the zero pattern, the skew diagonal and every cycle.
    """
    n = len(entries)
    d = [0] * n
    for root in range(n):
        if d[root]:
            continue
        d[root] = 1
        component = [root]
        for i in component:
            for j in range(n):
                a, b = abs(entries[i][j]), abs(entries[j][i])
                if d[j] or not (a and b):
                    continue
                scale = b // gcd(d[i] * a, b)
                if scale > 1:
                    for v in component:
                        d[v] *= scale
                d[j] = d[i] * a // b
                component.append(j)
        g = gcd(*(d[v] for v in component))
        for v in component:
            d[v] //= g
    return tuple(d) if _witnesses(entries, d, sign) else None


@dataclass(frozen=True, slots=True)
class ExchangeMatrix:
    """An n x n skew-symmetrisable integer matrix B with its symmetriser.

    Invariants enforced at construction: zero diagonal, opposite signs in
    opposite positions, and existence of a positive integer diagonal D with
    D*B skew-symmetric; the least such D on each component is computed and
    cached.  Instances are immutable values, equal when their entries are.
    """

    entries: IntMatrix
    symmetriser: tuple[int, ...] = field(init=False, compare=False)
    n: int = field(init=False, compare=False)

    def __post_init__(self):
        frozen = _freeze(self.entries)
        found = _propagate_symmetriser(frozen, -1)
        if found is None:
            raise ValueError("matrix is not skew-symmetrisable")
        _exchange_matrix(frozen, found, self)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def __repr__(self) -> str:
        return f"ExchangeMatrix({[list(r) for r in self.entries]})"


def _exchange_matrix(entries: IntMatrix, symmetriser: tuple[int, ...], into=None) -> ExchangeMatrix:
    """The ExchangeMatrix of entries and symmetriser that its caller has
    checked: a square tuple of int tuples, and the least positive d with
    _witnesses(entries, d, -1) true on each component.  Fills `into`, the
    constructor's own instance, or else a new one, with no check of its own."""
    matrix = object.__new__(ExchangeMatrix) if into is None else into
    object.__setattr__(matrix, "n", len(entries))
    object.__setattr__(matrix, "entries", entries)
    object.__setattr__(matrix, "symmetriser", symmetriser)
    return matrix


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
        found = _propagate_symmetriser(frozen, 1)
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


def _mutate_entries(entries: IntMatrix, k: int) -> IntMatrix:
    """The entries of mutate_matrix on bare tuples, with no validation.

    Row k is negated.  Row i != k gains B_ik |B_kj| at every j where B_kj has
    the sign of B_ik, which is (|B_ik| B_kj + B_ik |B_kj|) / 2, and its entry k
    is negated; a row with B_ik = 0 is unchanged and is the same tuple object.
    """
    pivot = entries[k]
    same_sign = ([(j, -c) for j, c in enumerate(pivot) if c < 0], [(j, c) for j, c in enumerate(pivot) if c > 0])
    out = []
    for i, row in enumerate(entries):
        b = row[k]
        if i == k:
            row = tuple([-x for x in row])
        elif b:
            new = list(row)
            for j, c in same_sign[b > 0]:
                new[j] += b * c
            new[k] = -b
            row = tuple(new)
        out.append(row)
    return tuple(out)


def mutate_matrix(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Mutate an exchange matrix at vertex k (0-based).

    B'_ij = -B_ij when i = k or j = k, and otherwise
    B'_ij = B_ij + (|B_ik| B_kj + B_ik |B_kj|) / 2; the division is always
    exact because the two summands share the sign pattern.  B' carries the
    symmetriser of B rather than computing one: mutation keeps D, and keeps
    the components, so D is still the least on each of them.  One _witnesses
    pass on the new entries checks it.

    Raises
    ------
    IndexError
        If k is out of range.
    ValueError
        If the symmetriser of B does not symmetrise B', as ExchangeMatrix
        refuses a matrix that is not skew-symmetrisable.
    """
    if not 0 <= k < B.n:
        raise IndexError(f"mutation vertex {k} out of range for rank {B.n}")
    entries = _mutate_entries(B.entries, k)
    if not _witnesses(entries, B.symmetriser, -1):
        raise ValueError("matrix is not skew-symmetrisable")
    return _exchange_matrix(entries, B.symmetriser)


def is_two_finite(B: ExchangeMatrix) -> bool:
    """True iff |B_ij * B_ji| <= 3 for every pair of indices."""
    n = B.n
    for i in range(n):
        for j in range(i + 1, n):
            if abs(B.entries[i][j] * B.entries[j][i]) > 3:
                return False
    return True


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by row-pivoted Bareiss
    elimination (_bareiss) on the rows frozen once."""
    return _bareiss(list(_freeze(rows)))


def _bareiss(a: list) -> int:
    """The determinant of a square list of int rows, read in place and not
    validated: the caller has frozen them (determinant) or holds int tuples.

    Every division in the recurrence is exact.  A row swap flips the sign, and
    a column without a nonzero pivot makes the determinant 0.  A step replaces
    each row below the pivot in the list by a new list, which is the row only
    rescaled by pivot / prev when its multiplier is 0, and the row itself when
    the pivot also equals prev; the rows passed in are never changed.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n):
        if not a[k][k]:
            p = next((i for i in range(k + 1, n) if a[i][k]), None)
            if p is None:
                return 0
            a[k], a[p] = a[p], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = a[i]
            m = row[k]
            if m:  # entries left of k are 0 in both rows, and entry k becomes 0
                a[i] = [(x * pivot - m * y) // prev for x, y in zip(row, top)]
            elif pivot != prev:
                a[i] = [x * pivot // prev for x in row]
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

"""Standard Dynkin data: Cartan matrices, seed exchange matrices, tree diagrams.

Labels look like "A5", "B3", "C3", "B/C3", "D4", "E6".."E8", "F4", "G2".
Diagrams cannot tell B_n from C_n apart (both give a path with one weight-2
edge), so the merged label "B/Cn" is accepted everywhere and resolves to the
B realization where a concrete matrix or root system is needed.

Conventions: cartan[i][j] = 2(a_i, a_j)/(a_i, a_i) for simple roots a_i, so
the symmetrised form is diag(d) * cartan with d_i = (a_i, a_i)/2.  The
distinguished (short or long) simple root of the B/C/F/G families sits at the
low end of the path, and the standard exchange matrix orients every tree edge
from the smaller to the larger vertex.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .diagram import Diagram, diagram_of
from .exchange import ExchangeMatrix

__all__ = [
    "parse_label",
    "normalize_label",
    "labels_of_rank",
    "cartan_matrix",
    "standard_exchange_matrix",
    "standard_diagram",
]

_LABEL_RE = re.compile(r"^(B/C|BC|[A-G])\s*(\d+)$", re.IGNORECASE)

# (family, rank) -> list of (i, j, weight-profile) is reconstructed on demand;
# ranks where each family is defined:
_RANK_RULES = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "B/C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def parse_label(label: str) -> tuple[str, int]:
    """Split a type label into (family, rank); raises ValueError if unsupported."""
    m = _LABEL_RE.match(label.strip())
    if not m:
        raise ValueError(f"unrecognized type label {label!r}")
    family = m.group(1).upper()
    if family == "BC":
        family = "B/C"
    rank = int(m.group(2))
    rule = _RANK_RULES.get(family)
    if rule is None or not rule(rank):
        raise ValueError(f"unsupported type {family}{rank}")
    return family, rank


def normalize_label(label: str) -> str:
    family, rank = parse_label(label)
    return f"{family}{rank}"


def labels_of_rank(n: int) -> tuple[str, ...]:
    """Catalog labels of a given rank, with B and C merged."""
    out = []
    for family in ("A", "B/C", "D", "E", "F", "G"):
        if _RANK_RULES[family](n):
            out.append(f"{family}{n}")
    return tuple(out)


def _tree_edges(family: str, rank: int) -> list[tuple[int, int]]:
    """Unoriented tree edges (0-based), last vertex always a leaf."""
    if family in ("A", "B", "C", "B/C", "F", "G"):
        return [(i, i + 1) for i in range(rank - 1)]
    if family == "D":
        return [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    if family == "E":
        return [(i, i + 1) for i in range(rank - 2)] + [(2, rank - 1)]
    raise ValueError(family)


def _lengths(family: str, rank: int) -> list[int]:
    """Symmetriser d_i = (a_i, a_i)/2 per simple root."""
    if family in ("A", "D", "E"):
        return [1] * rank
    if family in ("B", "B/C"):
        return [1] + [2] * (rank - 1)  # short root first
    if family == "C":
        return [2] + [1] * (rank - 1)  # long root first
    if family == "F":
        return [2, 2, 1, 1]
    if family == "G":
        return [1, 3]
    raise ValueError(family)


# Degrees of the basic invariants of the exceptional Weyl groups (Humphreys,
# "Reflection Groups and Coxeter Groups", table 3.1).
_EXCEPTIONAL_DEGREES = {"E6": (2, 5, 6, 8, 9, 12), "E7": (2, 6, 8, 10, 12, 14, 18),
                        "E8": (2, 8, 12, 14, 18, 20, 24, 30), "F4": (2, 6, 8, 12), "G2": (2, 6)}


def _degrees(label: str) -> tuple[int, ...]:
    """The degrees of the basic invariants of the type's Weyl group, whose product is |W|."""
    family, rank = parse_label(label)
    if family == "A":
        return tuple(range(2, rank + 2))
    if family in ("B", "C", "B/C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if family == "D":
        return (*range(2, 2 * rank - 1, 2), rank)
    return _EXCEPTIONAL_DEGREES[f"{family}{rank}"]


@lru_cache(maxsize=None)
def cartan_matrix(label: str) -> tuple[tuple[int, ...], ...]:
    """The Cartan matrix, rows normalized: cartan[i][j] = 2(a_i,a_j)/(a_i,a_i)."""
    family, rank = parse_label(label)
    d = _lengths(family, rank)
    rows = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in _tree_edges(family, rank):
        # (a_i, a_j) = -max(d_i, d_j) for adjacent simple roots
        inner = -max(d[i], d[j])
        rows[i][j] = 2 * inner // (2 * d[i])
        rows[j][i] = 2 * inner // (2 * d[j])
    return tuple(tuple(r) for r in rows)


@lru_cache(maxsize=None)
def standard_exchange_matrix(label: str) -> ExchangeMatrix:
    """The tree-shaped seed whose simple-root basis is a companion.

    |B_ij| = |cartan[j][i]| with every tree edge oriented small -> large.
    """
    family, rank = parse_label(label)
    cartan = cartan_matrix(label)
    rows = [[0] * rank for _ in range(rank)]
    for i, j in _tree_edges(family, rank):
        a, b = (i, j) if i < j else (j, i)
        rows[a][b] = abs(cartan[b][a])
        rows[b][a] = -abs(cartan[a][b])
    return ExchangeMatrix(rows)


@lru_cache(maxsize=None)
def standard_diagram(label: str) -> Diagram:
    return diagram_of(standard_exchange_matrix(label))

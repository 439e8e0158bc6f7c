"""Answer oracles for the benchmark, sharing no code with ``cluster_presents``.

Group orders come from the degrees of the basic invariants, class sizes from
published counts, and exchange-matrix mutation from the Fomin-Zelevinsky rule
written out here.  Each ``check_*`` function takes one parsed CLI report and
returns the number of workload units it completed, or raises ``WrongAnswer``.
"""

from __future__ import annotations

import re
from math import comb, gcd, prod

_LABEL = re.compile(r"^(A|B/C|D|E|F|G)(\d+)$")

# Degrees of the basic invariants of each irreducible Weyl group
# (Humphreys, "Reflection Groups and Coxeter Groups", section 3.7, table 1).
_DEGREES = {
    "A": lambda n: range(2, n + 2),
    "B/C": lambda n: range(2, 2 * n + 1, 2),
    "D": lambda n: [*range(2, 2 * n - 1, 2), n],
    "E": lambda n: {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18), 8: (2, 8, 12, 14, 18, 20, 24, 30)}[n],
    "F": lambda n: (2, 6, 8, 12),
    "G": lambda n: (2, 6),
}

# Mutation classes up to isomorphism.  A_n: Torkildsen, "Counting
# cluster-tilted algebras of type A_n" (2008).  E_n: the counts quoted in
# ROADMAP.md.  D_n (n >= 5) is Buan-Torkildsen's formula, below.
_A_CLASS = {1: 1, 2: 1, 3: 4, 4: 6, 5: 19, 6: 49, 7: 150, 8: 442, 9: 1424, 10: 4522}
_E_CLASS = {6: 67, 7: 416, 8: 1574}


class WrongAnswer(Exception):
    """The program's report disagrees with an oracle."""


def parse_label(label: str) -> tuple[str, int]:
    match = _LABEL.match(label)
    if not match:
        raise ValueError(f"unsupported type label {label!r}")
    return match.group(1), int(match.group(2))


def weyl_order(label: str) -> int:
    """|W| as the product of the degrees of the basic invariants."""
    family, rank = parse_label(label)
    return prod(_DEGREES[family](rank))


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def class_size(label: str) -> int | None:
    """Published number of diagrams in the mutation class, or None if not tabulated.

    D_n for n >= 5 follows Buan-Torkildsen, "The number of elements in the
    mutation class of a quiver of type D_n" (EJC 16, 2009):
    sum over d | n of phi(n/d) * C(2d, d), divided by 2n.
    """
    family, rank = parse_label(label)
    if family == "A":
        return _A_CLASS.get(rank)
    if family == "E":
        return _E_CLASS[rank]
    if family == "D" and rank >= 5:
        return sum(_phi(rank // d) * comb(2 * d, d) for d in range(1, rank + 1) if rank % d == 0) // (2 * rank)
    return None


def dynkin_exchange(label: str) -> list[list[int]]:
    """A tree-shaped exchange matrix of the type, every edge oriented i -> j for i < j.

    Simply-laced edges carry (b_ij, b_ji) = (1, -1); the one multiple bond of
    B/C_n, F4 and G2 carries (1, -2) or (1, -3).  For E_n this is the
    program's standard seed: a chain 1..n-1 with vertex n attached to vertex 3.
    """
    family, n = parse_label(label)
    edges = [(i, i + 1, 1) for i in range(n - 1)]
    if family == "D":
        edges[-1] = (n - 3, n - 1, 1)
    elif family == "E":
        edges[-1] = (2, n - 1, 1)
    elif family == "B/C":
        edges[-1] = (n - 2, n - 1, 2)
    elif family == "F":
        edges[1] = (1, 2, 2)
    elif family == "G":
        edges = [(0, 1, 3)]
    b = [[0] * n for _ in range(n)]
    for i, j, q in edges:
        b[i][j], b[j][i] = 1, -q
    return b


def mutate(b: list[list[int]], k: int) -> list[list[int]]:
    """Fomin-Zelevinsky mutation at k (0-based).

    b'_ij = -b_ij if k is i or j, else b_ij + sgn(b_ik) * max(b_ik * b_kj, 0).
    """
    n = len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if k in (i, j):
                row.append(-b[i][j])
            else:
                bik, bkj = b[i][k], b[k][j]
                sign = (bik > 0) - (bik < 0)
                row.append(b[i][j] + sign * max(bik * bkj, 0))
        out.append(row)
    return out


def replay(b: list[list[int]], script: list[int]) -> list[list[int]]:
    """The matrix after mutating at each 1-based vertex of the script in turn."""
    for k in script:
        b = mutate(b, k - 1)
    return b


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def check_theorem_a(report: dict, label: str, sample: int | None) -> int:
    """Units: class members certified."""
    results = report.get("results", {})
    order = weyl_order(label)
    _require(report.get("verdict") == "pass", f"verdict {report.get('verdict')!r}")
    _require(results.get("type") == label, f"type {results.get('type')!r}, expected {label}")
    _require(results.get("expected_order") == order, f"expected_order {results.get('expected_order')}, |W| is {order}")
    size = results.get("class_size")
    published = class_size(label)
    _require(published is None or size == published, f"class_size {size}, published {published}")
    wanted = size if sample is None else min(sample, size)
    members = results.get("members", [])
    _require(results.get("checked") == wanted == len(members), f"checked {results.get('checked')}, expected {wanted}")
    bad = [m for m in members if m.get("verdict") != "pass" or m.get("order") != order]
    _require(not bad, f"{len(bad)} members without order {order}")
    return len(members)


def check_verify_mutation(report: dict, label: str, vertex: int) -> int:
    """Units: certificates."""
    order = weyl_order(label)
    _require(report.get("verdict") == "pass", f"verdict {report.get('verdict')!r}")
    _require(report.get("order") == report.get("mutated_order") == order,
             f"orders {report.get('order')}/{report.get('mutated_order')}, |W| is {order}")
    _require(report.get("vertex") == vertex, f"vertex {report.get('vertex')}, asked {vertex}")
    for key in ("forward_homomorphism", "inverse_homomorphism", "composition_identity"):
        _require(report.get(key) is True, f"{key} is {report.get(key)!r}")
    return 1


def check_verify_type(report: dict, label: str) -> int:
    """Units: diagrams verified."""
    order = weyl_order(label)
    _require(report.get("verdict") == "pass", f"verdict {report.get('verdict')!r}")
    _require(report.get("type") == label, f"type {report.get('type')!r}, generated as {label}")
    _require(report.get("order") == report.get("expected_order") == order,
             f"order {report.get('order')}, expected_order {report.get('expected_order')}, |W| is {order}")
    return 1


_STEP_CHECKS = ("two_finite", "diagram_commutes", "involution", "companion_ok", "companion_restored")


def check_pipeline(report: dict, matrix: list[list[int]], script: list[int]) -> int:
    """Units: mutation steps checked."""
    results = report.get("results", {})
    _require(report.get("verdict") == "pass", f"verdict {report.get('verdict')!r}")
    steps = results.get("steps", [])
    _require(len(steps) == len(script), f"{len(steps)} steps reported for a {len(script)}-step script")
    for step in steps:
        for key in _STEP_CHECKS:
            _require(step.get(key) is True, f"step {step.get('step')}: {key} is {step.get(key)!r}")
    final = results.get("final_matrix", {}).get("rows")
    _require(final == replay(matrix, script), "final_matrix differs from the Fomin-Zelevinsky replay")
    return len(script)

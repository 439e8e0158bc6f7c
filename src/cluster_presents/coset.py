"""Coset enumeration over involutive presentations, and what it buys us.

The enumerator is an HLT-style Todd-Coxeter procedure specialized to
presentations in which every generator is an involution: the table keeps one
column per generator and every table write is symmetric, so the involution
relations are baked into the data structure.  Coincidences are processed as in
the COINCIDENCE routine of Holt, Eick and O'Brien ("Handbook of Computational
Group Theory", 2005, section 5.1), so a live row names only live cosets.

group_order enumerates the cosets of the trivial subgroup, so the order it
returns is exact.  The certificates bound the order instead, from both sides,
in _certify, the one place that picks their presentations, for theorem-a,
verify-type and both sides of verify_mutation_isomorphism.  From above by a
parabolic tower (_tower) on the reduced presentation: drop a generator of
least degree, enumerate the cosets of the subgroup the others generate, go on
with the relations among the others, and multiply the indices.  Each index is
exact, and each restricted presentation maps onto the subgroup its generators
generate, so the product is an upper bound on the order, and no more: on the
trivial group <s1, s2 | s1^2, s2^2, (s1 s2)^3, s2> the tower gives 2.  From
below by the full presentation's relations holding on a companion basis
(roots._first_failing on its companion matrix), which map G_full onto W.  The
reduced relations are full ones, so |W| <= |G_full| <= |G_reduced| <= the
tower's bound, and a bound equal to |W| (weyl_order) is the order of both
presented groups.

Mutation certificates check the two witness maps, one word list giving both,
in the reflection representation instead of the regular one: s_i acts on the
root lattice by an n x n integer matrix read off the companion matrix of a
companion basis, not on |W| cosets; roots._first_failing, the kernel of the
lower bound too, evaluates each relator there on packed integer rows.  A
homomorphism check there is exact once that representation is faithful, and it
is exactly when the computed order, an upper bound, meets the lower bound |W|
that a representation onto W gives; the composites of the maps need no check
(verify_mutation_isomorphism).
The regular representation the tests check these certificates against lives
in tests/reference_cosets.py, on an enumerator written apart from this one.

Everything is deterministic: fixed scan order, fixed definition order, no
randomization, so enumeration statistics are reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import prod

from . import dynkin
from .diagram import Diagram, NotFiniteTypeError, connected_components, mutate_diagram
from .presentation import Presentation, Relation, Word, _presentations, mutation_witness_words
from .roots import _coroot_pairings, _first_failing, companion_basis, mutate_companion

__all__ = [
    "DEFAULT_COSET_CAP",
    "CosetCapExceeded",
    "group_order",
    "MutationIsomorphismReport",
    "verify_mutation_isomorphism",
    "weyl_order",
]

DEFAULT_COSET_CAP = 2_000_000


class CosetCapExceeded(RuntimeError):
    """Raised when an enumeration would exceed its live-coset cap.

    cosets_defined counts the cosets the raising call had defined, over all
    its enumerations, when the cap stopped it.
    """

    def __init__(self, cap: int, cosets_defined: int):
        super().__init__(f"coset enumeration exceeded cap of {cap} live cosets")
        self.cap = cap
        self.cosets_defined = cosets_defined


def _enumerate(relations, gens, subgroup, cap: int) -> tuple[int | None, int]:
    """Enumerate the cosets of <s_h : h in subgroup> in the group that the
    relations present on the generators gens: (index, defined).

    Deterministic HLT strategy: the subgroup enters as table[0][h] = 0, then
    each live coset scans every relator and fills its remaining entries in
    generator order.  Only the columns in gens are filled, so a generator
    keeps its number in the input.  When a coset dies in a coincidence, every
    entry naming it is cleared, then re-pointed at the survivor or left to a
    queued coincidence (the Handbook's COINCIDENCE, section 5.1), so a live
    row names only live cosets and scan reads the table as it stands.
    table[c] is None once coset c is merged; live is the number of survivors,
    the index, and defined counts every definition made, including cosets
    later merged away.  The index is None when the cap stops the
    enumeration."""
    if cap < 1:
        raise ValueError("cap must be positive")
    # an even power of one generator holds in every table, whose generators
    # are involutions; an odd one, (s)^e = s, does not
    relators = [rel.word * rel.exponent for rel in relations if len(rel.word) > 1 or rel.exponent % 2]
    width = max(gens, default=-1) + 1
    table: list[list[int] | None] = [[-1] * width]
    for h in subgroup:
        table[0][h] = 0
    parent = [0]
    live = 1
    defined = 1

    def find(c: int) -> int:
        while parent[c] != c:
            c = parent[c]
        return c

    def define(c: int, g: int) -> None:
        nonlocal live, defined
        if live >= cap:
            raise CosetCapExceeded(cap, defined)  # unwinds to the end of _enumerate
        b = len(table)
        table.append([-1] * width)
        parent.append(b)
        table[c][g] = b
        table[b][g] = c
        live += 1
        defined += 1

    def coincide(x: int, y: int) -> None:
        nonlocal live
        queue = deque([(x, y)])
        while queue:
            a, b = map(find, queue.popleft())
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            live -= 1
            row_b = table[b]
            table[b] = None
            row_a = table[a]
            for g, d in enumerate(row_b):
                if d == -1:
                    continue
                if d == b:
                    d = a
                else:
                    table[d][g] = -1  # d s_g was b, s_g being its own inverse
                e = row_a[g]
                if e == -1:
                    row_a[g] = d
                    table[d][g] = a
                else:
                    queue.append((e, d))

    def scan(c: int, word: Word) -> None:
        f = c
        i = 0
        b = c
        j = len(word) - 1
        while True:
            while i <= j and (t := table[f][word[i]]) != -1:
                f = t
                i += 1
            if i > j:
                if f != b:
                    coincide(f, b)
                return
            while j >= i and (t := table[b][word[j]]) != -1:
                b = t
                j -= 1
            if j < i:
                coincide(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][word[i]] = f
                return
            define(f, word[i])

    try:
        alpha = 0
        while alpha < len(table):
            if parent[alpha] == alpha:
                for word in relators:
                    scan(alpha, word)
                    if parent[alpha] != alpha:
                        break
                else:  # alpha survived its scans
                    row = table[alpha]
                    for g in gens:
                        if row[g] == -1:
                            define(alpha, g)
            alpha += 1
    except CosetCapExceeded:
        return None, defined
    return live, defined


def _degrees(n: int, relations) -> list[int]:
    """Per generator, how many others share a relator with it; the commuting
    pairs (s_i s_j)^2 do not link."""
    linked: list[set[int]] = [set() for _ in range(n)]
    for rel in relations:
        if len(rel.word) == 2 and rel.exponent == 2:
            continue
        letters = set(rel.word)
        for g in letters:
            linked[g] |= letters - {g}
    return [len(others) for others in linked]


def group_order(presentation: Presentation, cap: int = DEFAULT_COSET_CAP) -> int:
    """Order of the presented group, exact: the index of the trivial subgroup.
    Raises CosetCapExceeded when the cap stops the enumeration."""
    order, defined = _enumerate(presentation.relations, range(presentation.n), (), cap)
    if order is None:
        raise CosetCapExceeded(cap, defined)
    return order


def _tower(presentation: Presentation, cap: int) -> tuple[int | None, list[dict], int]:
    """The parabolic tower's upper bound on the order: (bound, levels, defined).

    Each level drops a generator of least degree (_degrees; ties go to the
    highest index), enumerates the cosets of the subgroup the others
    generate, and goes on with the relations among the others until no
    generator is left.  The generators keep their numbers in the input at
    every level, and no presentation is rebuilt: a level only drops the
    relations that name its generator.  levels holds one {"dropped":
    generator, "index": cosets} per completed level, the generator 1-based;
    defined counts the cosets of every level.  The bound is None when the
    cap stops a level."""
    gens = list(range(presentation.n))
    relations = presentation.relations
    levels: list[dict] = []
    order, defined = 1, 0
    while gens:
        degree = _degrees(presentation.n, relations)
        g = min(reversed(gens), key=degree.__getitem__)
        rest = [h for h in gens if h != g]
        index, count = _enumerate(relations, gens, rest, cap)
        defined += count
        if index is None:
            return None, levels, defined
        levels.append({"dropped": g + 1, "index": index})
        order *= index
        gens = rest
        relations = [rel for rel in relations if g not in rel.word]
    return order, levels, defined


@dataclass(frozen=True)
class MutationIsomorphismReport:
    """Certificate that mutation at a vertex preserves the presented group."""

    vertex: int
    order: int
    mutated_order: int
    cosets_defined: int  # by both order computations
    forward_homomorphism: bool
    inverse_homomorphism: bool
    composition_identity: bool
    faithful: bool  # the reflection representations are faithful on both groups
    failing_relation: Relation | None

    @property
    def passed(self) -> bool:
        return (
            self.faithful
            and self.forward_homomorphism
            and self.inverse_homomorphism
            and self.composition_identity
        )


def _place(entries, vertices, basis) -> None:
    """Write the basis's pairing matrix into entries at the component's vertices."""
    for u, row in zip(vertices, _coroot_pairings(basis)):
        for v, a in zip(vertices, row):
            entries[u][v] = a


def _companion_entries(diagram: Diagram, k: int = -1):
    """(label, |W|, entries, mutated): each component's companion basis on its
    diagonal block of entries, their labels joined by "+", the product of
    their Weyl orders, and the blocks after mutation at vertex k, or None."""
    n = diagram.n
    entries = [[0] * n for _ in range(n)]
    mutated = [[0] * n for _ in range(n)] if k >= 0 else None
    labels = []
    for vertices, component in connected_components(diagram):
        try:
            basis = companion_basis(component)
        except NotFiniteTypeError as exc:  # naming the diagram's vertices, not the component's
            raise exc.renamed(vertices.__getitem__) from None
        labels.append(basis.system.label)
        _place(entries, vertices, basis)
        if mutated is not None:
            if k in vertices:
                basis = mutate_companion(basis, vertices.index(k), component)
            _place(mutated, vertices, basis)
    return "+".join(labels), prod(map(weyl_order, labels)), entries, mutated


@dataclass(frozen=True)
class _Certificate:
    """The two bounds on a presented group and their verdict (_certify)."""

    order: int | None  # the tower's upper bound, None after an overflow
    tower: list[dict]  # the completed levels as reports print them
    cosets_defined: int
    lower_bound: bool
    verdict: str  # "pass" | "fail" | "overflow"
    relations: tuple[Relation, ...]  # the full presentation's, which lower_bound read


def _certify(diagram: Diagram, entries, expected: int, cap: int) -> _Certificate:
    """Certify |G| = |W| = expected for both of the diagram's presentations:
    the tower on the reduced one bounds both from above, and the full relations
    holding on the companion matrix entries from below (roots._first_failing),
    checked even after an overflow for verify-type.

    Why the relations bound G from below.  A basis of roots.companion_bases or
    roots.companion_basis is carried by mutations from the simple roots on a
    tree of the type, in any orientation, whose reflections generate the Weyl
    group W.  Each mutation keeps beta_k and replaces beta_i by beta_i or
    s_{beta_k} beta_i, so the carried reflections generate W.  When they
    satisfy the full relations, s_g |-> reflection in beta_g maps G_full onto
    W, so |G_full| >= |W| = prod d_i (weyl_order).  The reduced relations are
    among the full ones, so one tower reaching |W| certifies |G| = |W| for
    both presentations.
    """
    full, reduced = _presentations(diagram)
    order, tower, defined = _tower(reduced, cap)
    lower_bound = _first_failing(entries, full.relations) is None
    if order is None:
        verdict = "overflow"
    else:
        verdict = "pass" if order == expected and lower_bound else "fail"
    return _Certificate(order, tower, defined, lower_bound, verdict, full.relations)


def verify_mutation_isomorphism(diagram: Diagram, k: int, cap: int = DEFAULT_COSET_CAP) -> MutationIsomorphismReport:
    """Certify W(diagram) = W(mutated diagram) via the witness words at k.

    Checks that phi: s'_i |-> t_i and psi: s_i |-> t'_i are homomorphisms; one
    word list serves both, t'_i on the mutated diagram being t_i
    (mutation_witness_words), and the composites need no check.  The checks run
    in the reflection representation rho on the root lattice: s_i acts as the
    reflection in beta_i of a companion basis of each connected component
    (roots.companion_basis), and s'_i of the mutated diagram as the reflection
    in the basis mutated at k (mutate_companion).  Each side is one n x n
    integer matrix, the components' companion matrices on the diagonal blocks
    (_companion_entries), and every check is a relator evaluated on it
    (roots._first_failing), the full relations each side's certificate carries.
    Raises CosetCapExceeded if an order computation overflows,
    NotFiniteTypeError when a component's class is of no known finite type, and
    ValueError above rank 10.

    Why the checks are exact.  The simple roots on any tree of the type
    generate W by their reflections, and each companion mutation keeps beta_k
    and replaces beta_i by beta_i or s_{beta_k} beta_i, so on both sides the
    reflections generate W = prod W_c over the components.  A side whose
    certificate passes (_certify) has its tower's upper bound on |G| equal to
    |W| and its relations holding in rho, which maps G onto W; so rho is an
    isomorphism onto W, which acts faithfully on the lattice: `faithful`
    records this for both sides, and `passed` requires it.
    """
    mutated = mutate_diagram(diagram, k)
    _, expected, entries, entries_mut = _companion_entries(diagram, k)

    side = _certify(diagram, entries, expected, cap)
    if side.order is None:
        raise CosetCapExceeded(cap, side.cosets_defined)
    side_mut = _certify(mutated, entries_mut, expected, cap)
    if side_mut.order is None:
        raise CosetCapExceeded(cap, side.cosets_defined + side_mut.cosets_defined)

    # No composite is checked: t_k = s_k and every other t_i is s_i or s_k s_i s_k,
    # so each composite sends s_i to s_i or s_k s_k s_i s_k s_k, and every reflection
    # _first_failing builds is an involution (a pairing matrix has 2 on its diagonal).
    words = mutation_witness_words(diagram, k)
    fwd_fail = _first_failing(entries, side_mut.relations, words)
    inv_fail = _first_failing(entries_mut, side.relations, words)

    return MutationIsomorphismReport(
        vertex=k,
        order=side.order,
        mutated_order=side_mut.order,
        cosets_defined=side.cosets_defined + side_mut.cosets_defined,
        forward_homomorphism=fwd_fail is None,
        inverse_homomorphism=inv_fail is None,
        composition_identity=fwd_fail is None and inv_fail is None,
        faithful=side.verdict == side_mut.verdict == "pass",
        failing_relation=fwd_fail or inv_fail,
    )


# Degrees of the basic invariants of the exceptional Weyl groups (Humphreys,
# "Reflection Groups and Coxeter Groups", table 3.1).
_EXCEPTIONAL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "G2": (2, 6),
}


def weyl_order(label: str) -> int:
    """Order of the Weyl group of the given type: the product of the degrees of its basic invariants."""
    family, rank = dynkin.parse_label(label)
    if family == "A":
        degrees = range(2, rank + 2)
    elif family in ("B", "C", "B/C"):
        degrees = range(2, 2 * rank + 1, 2)
    elif family == "D":
        degrees = (*range(2, 2 * rank - 1, 2), rank)
    else:
        degrees = _EXCEPTIONAL_DEGREES[f"{family}{rank}"]
    return prod(degrees)

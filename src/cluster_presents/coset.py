"""Coset enumeration over involutive presentations, and what it buys us.

The enumerator is an HLT-style Todd-Coxeter procedure specialized to
presentations in which every generator is an involution: the table keeps one
column per generator and every table write is symmetric, so the involution
relations are baked into the data structure.  On success the table of the
trivial subgroup is the regular permutation representation (perm_rep).

Orders can be computed directly (enumerate cosets of the trivial subgroup) or
by a parabolic tower: drop a generator of least degree, enumerate the cosets
of the subgroup the others generate, go on with the relations among the
others, and multiply the indices.  Each index is exact, and each restricted
presentation maps onto the subgroup its generators generate, so the tower
answer is an upper bound on the order.  The certificates close it from below:
the relations holding on a companion basis (roots.relations_hold) map the
presented group onto W.  _certify is the one place where the two bounds meet,
for theorem-a, verify-type and both sides of verify_mutation_isomorphism: an
upper bound equal to |W| (weyl_order) is then the order.

Mutation certificates check the witness maps in the reflection representation
instead of the regular one: s_i acts on the root lattice by an n x n integer
matrix read off the companion matrix of a companion basis, not on |W| cosets.
A homomorphism check there is exact once that representation is faithful, and
it is exactly when the computed order, an upper bound, meets the lower bound
|W| that a representation onto W gives (verify_mutation_isomorphism).
perm_rep, evaluate_word and check_homomorphism evaluate words in the regular
representation; no certificate uses them, and they stay as an independent
reference to check the certificates against.

Everything is deterministic: fixed scan order, fixed definition order, no
randomization, so enumeration statistics are reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import prod

from . import dynkin
from .diagram import Diagram, connected_components, mutate_diagram
from .presentation import Presentation, Relation, Word, full_presentation, mutation_witness_words, inverse_mutation_witness_words
from .roots import _coroot_pairings, _first_failing, companion_basis, mutate_companion

__all__ = [
    "DEFAULT_COSET_CAP",
    "CosetCapExceeded",
    "CosetTable",
    "coset_enumerate",
    "group_order",
    "PermutationRep",
    "perm_rep",
    "evaluate_word",
    "check_homomorphism",
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


class _Overflow(Exception):
    """The live-coset cap stopped an enumeration; args are (live, defined)."""


@dataclass(frozen=True)
class CosetTable:
    """A completed (or aborted) enumeration.

    rows[c][g] is the coset reached from c by generator g; rows are compacted
    and only present when status == "complete".  cosets_defined counts every
    definition made, including cosets later merged away.
    """

    rows: tuple[tuple[int, ...], ...]
    status: str  # "complete" | "overflow"
    coset_count: int
    cosets_defined: int


def _relator_words(presentation: Presentation) -> list[Word]:
    """The relators to scan: an even power of one generator holds in every
    table, whose generators are involutions; an odd one, (s)^e = s, does not."""
    return [rel.word * rel.exponent for rel in presentation.relations
            if len(rel.word) > 1 or rel.exponent % 2]


def coset_enumerate(presentation: Presentation, subgroup_words=(), cap: int = DEFAULT_COSET_CAP) -> CosetTable:
    """Enumerate cosets of the subgroup generated by the given words.

    Subgroup words are tuples of 0-based generator indices; the empty list
    enumerates the whole group.  Deterministic HLT strategy: subgroup words
    are scanned at the base coset, then each live coset scans every relator
    and fills its remaining entries in generator order.
    """
    try:
        table, rep, live, defined = _enumerate(presentation, subgroup_words, cap)
    except _Overflow as exc:
        live, defined = exc.args
        return CosetTable((), "overflow", live, defined)
    survivors = [c for c, row in enumerate(table) if row is not None]
    index_of = {c: i for i, c in enumerate(survivors)}
    rows = tuple(tuple(index_of[rep(d)] for d in table[c]) for c in survivors)
    return CosetTable(rows, "complete", live, defined)


def _enumerate(presentation: Presentation, subgroup_words, cap: int):
    """The enumeration of coset_enumerate, uncompacted: (table, rep, live,
    defined).  table[c] is None once coset c is merged, and a surviving row
    may still name merged cosets, which rep maps to survivors; live is the
    number of survivors, the index.  Raises _Overflow when the cap stops it."""
    if not presentation.relations:
        raise ValueError("presentation has no relations")
    if cap < 1:
        raise ValueError("cap must be positive")
    ngen = presentation.n
    for word in subgroup_words:
        for letter in word:
            if not 0 <= letter < ngen:
                raise ValueError(f"subgroup word letter s{letter + 1} out of range")

    relators = _relator_words(presentation)
    table: list[list[int] | None] = [[-1] * ngen]
    parent = [0]
    live = 1
    defined = 1

    def rep(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def define(c: int, g: int) -> int:
        nonlocal live, defined
        if live >= cap:
            raise _Overflow(live, defined)
        b = len(table)
        table.append([-1] * ngen)
        parent.append(b)
        table[c][g] = b
        table[b][g] = c
        live += 1
        defined += 1
        return b

    def coincide(x: int, y: int) -> None:
        nonlocal live
        queue = deque([(x, y)])
        while queue:
            a, b = queue.popleft()
            a = rep(a)
            b = rep(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            live -= 1
            row_b = table[b]
            table[b] = None
            row_a = table[a]
            for g in range(ngen):
                d = row_b[g]
                if d == -1:
                    continue
                e = row_a[g]
                if e == -1:
                    row_a[g] = d
                else:
                    queue.append((e, d))

    def scan(c: int, word: Word) -> None:
        f = c
        i = 0
        b = c
        j = len(word) - 1
        while True:
            while i <= j:
                t = table[f][word[i]]
                if t == -1:
                    break
                f = t if parent[t] == t else rep(t)
                i += 1
            if i > j:
                if f != b:
                    coincide(f, b)
                return
            while j >= i:
                t = table[b][word[j]]
                if t == -1:
                    break
                b = t if parent[t] == t else rep(t)
                j -= 1
            if j < i:
                coincide(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][word[i]] = f
                return
            define(f, word[i])

    for word in subgroup_words:
        if word:
            scan(0, word)
    alpha = 0
    while alpha < len(table):
        if parent[alpha] != alpha:
            alpha += 1
            continue
        for word in relators:
            scan(alpha, word)
            if parent[alpha] != alpha:
                break
        if parent[alpha] == alpha:
            row = table[alpha]
            for g in range(ngen):
                if row[g] == -1:
                    define(alpha, g)
        alpha += 1
    return table, rep, live, defined


def _degrees(presentation: Presentation) -> list[int]:
    """Per generator, how many others share a relator with it; the commuting
    pairs (s_i s_j)^2 do not link."""
    linked: list[set[int]] = [set() for _ in range(presentation.n)]
    for rel in presentation.relations:
        if len(rel.word) == 2 and rel.exponent == 2:
            continue
        letters = set(rel.word)
        for g in letters:
            linked[g] |= letters - {g}
    return [len(others) for others in linked]


def _drop(presentation: Presentation, g: int) -> Presentation:
    """The relations without s_g, over the other generators renumbered in order."""
    kept = [
        Relation(tuple(x - (x > g) for x in rel.word), rel.exponent, rel.tag)
        for rel in presentation.relations
        if g not in rel.word
    ]
    return Presentation(presentation.n - 1, kept)


def _index(presentation: Presentation, subgroup, cap: int, stats: dict) -> int:
    """The index of the subgroup, counting the cosets defined into stats.

    Reads the survivor count of _enumerate; the table is never compacted."""
    try:
        _, _, index, defined = _enumerate(presentation, subgroup, cap)
    except _Overflow as exc:
        index, defined = None, exc.args[1]
    stats["cosets_defined"] = stats.get("cosets_defined", 0) + defined
    if index is None:
        raise CosetCapExceeded(cap, stats["cosets_defined"])
    return index


def group_order(presentation: Presentation, strategy: str = "direct", cap: int = DEFAULT_COSET_CAP, stats: dict | None = None) -> int:
    """Order of the presented group; raises CosetCapExceeded on overflow.

    strategy "direct" enumerates the trivial subgroup.  "tower" drops a
    generator of least degree (_degrees; ties go to the highest index),
    enumerates the cosets of the subgroup the others generate, and goes on
    with the relations among the others until no generator is left.  stats,
    if given, accumulates "cosets_defined", and the tower appends one
    {"dropped": generator, "index": cosets} per level to its "tower" list,
    the generator 0-based in the input's numbering.  On overflow the
    exception carries the same cosets_defined total.
    """
    stats = {} if stats is None else stats
    if strategy == "direct":
        return _index(presentation, (), cap, stats) if presentation.n else 1
    if strategy != "tower":
        raise ValueError(f"unknown strategy {strategy!r}")
    tower = stats.setdefault("tower", [])
    labels = list(range(presentation.n))  # the input's number of each generator
    order = 1
    while presentation.n:
        degree = _degrees(presentation)
        g = min(reversed(range(presentation.n)), key=degree.__getitem__)
        index = _index(presentation, [(h,) for h in range(presentation.n) if h != g], cap, stats)
        tower.append({"dropped": labels.pop(g), "index": index})
        order *= index
        presentation = _drop(presentation, g)
    return order


@dataclass(frozen=True)
class PermutationRep:
    """A permutation representation: images[g][p] is the image of point p
    under generator g (for perm_rep's regular representation, the coset p * s_g)."""

    degree: int
    images: tuple[tuple[int, ...], ...]


def perm_rep(table: CosetTable) -> PermutationRep:
    if table.status != "complete":
        raise ValueError("cannot build a permutation representation from an incomplete table")
    ngen = len(table.rows[0]) if table.rows else 0
    images = tuple(
        tuple(table.rows[c][g] for c in range(table.coset_count)) for g in range(ngen)
    )
    return PermutationRep(table.coset_count, images)


def evaluate_word(rep: PermutationRep, word) -> tuple[int, ...]:
    """The permutation of the word, letters applied left to right."""
    current = list(range(rep.degree))
    for letter in word:
        image = rep.images[letter]
        current = [image[c] for c in current]
    return tuple(current)


def _is_identity(perm: tuple[int, ...]) -> bool:
    return all(p == c for c, p in enumerate(perm))


def check_homomorphism(rep: PermutationRep, generator_images, relations) -> tuple[bool, Relation | None]:
    """Does sending generator i to the word generator_images[i] kill every relation?

    Returns (True, None) or (False, first failing relation).
    """
    for rel in relations:
        substituted: list[int] = []
        for letter in rel.word:
            substituted.extend(generator_images[letter])
        if not _is_identity(evaluate_word(rep, tuple(substituted) * rel.exponent)):
            return False, rel
    return True, None


@dataclass(frozen=True)
class MutationIsomorphismReport:
    """Certificate that mutation at a vertex preserves the presented group."""

    vertex: int
    order: int
    mutated_order: int
    strategy: str
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


def _composites(outer, inner) -> list[Relation]:
    """Per generator i, the relator: outer[i] with each letter replaced by its
    inner word, then s_i; it holds when the composite fixes s_i."""
    return [Relation(tuple(x for g in word for x in inner[g]) + (i,), 1) for i, word in enumerate(outer)]


def _companion_entries(diagram: Diagram, k: int = -1):
    """(label, |W|, entries, mutated): each component's companion basis on its
    diagonal block of entries, their labels joined by "+", the product of
    their Weyl orders, and the blocks after mutation at vertex k, or None."""
    n = diagram.n
    entries = [[0] * n for _ in range(n)]
    mutated = [[0] * n for _ in range(n)] if k >= 0 else None
    labels = []
    for vertices, component in connected_components(diagram):
        basis = companion_basis(component)
        labels.append(basis.system.label)
        _place(entries, vertices, basis)
        if mutated is not None:
            if k in vertices:
                basis = mutate_companion(basis, vertices.index(k), component, "inward")
            _place(mutated, vertices, basis)
    return "+".join(labels), prod(map(weyl_order, labels)), entries, mutated


@dataclass(frozen=True)
class _Certificate:
    """The two bounds on a presented group and their verdict (_certify)."""

    order: int | None  # the tower's upper bound, None after an overflow
    tower: list  # the completed levels as reports print them, dropped 1-based
    cosets_defined: int
    lower_bound: bool
    verdict: str  # "pass" | "fail" | "overflow"


def _certify(presentation: Presentation, entries, expected: int, cap: int) -> _Certificate:
    """Certify |G| = |W| = expected: the tower bounds |G| from above, and the
    relations holding on the companion matrix entries from below
    (roots.relations_hold), checked even after an overflow for verify-type."""
    stats: dict = {}
    try:
        order = group_order(presentation, "tower", cap, stats)
    except CosetCapExceeded:
        order = None
    lower_bound = _first_failing(entries, presentation.relations) is None
    if order is None:
        verdict = "overflow"
    else:
        verdict = "pass" if order == expected and lower_bound else "fail"
    tower = [{"dropped": level["dropped"] + 1, "index": level["index"]} for level in stats["tower"]]
    return _Certificate(order, tower, stats.get("cosets_defined", 0), lower_bound, verdict)


def verify_mutation_isomorphism(diagram: Diagram, k: int, cap: int = DEFAULT_COSET_CAP) -> MutationIsomorphismReport:
    """Certify W(diagram) = W(mutated diagram) via the witness words at k.

    Checks that t_i |-> witness words defines a homomorphism each way and that
    the two composites fix every generator.  The checks run in the reflection
    representation rho on the root lattice: s_i acts as the reflection in
    beta_i of a companion basis of each connected component
    (roots.companion_basis), and s'_i of the mutated diagram as the reflection
    in the basis mutated at k (mutate_companion).  Each side is one n x n
    integer matrix, the components' companion matrices on the diagonal
    blocks (_companion_entries), and every check is a relator evaluated on it
    (roots._first_failing).  Raises CosetCapExceeded if an order computation
    overflows, NotFiniteTypeError when a component's class is of no known
    finite type, and ValueError above rank 10.

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
    pres = full_presentation(diagram)
    pres_mut = full_presentation(mutated)
    _, expected, entries, entries_mut = _companion_entries(diagram, k)

    side = _certify(pres, entries, expected, cap)
    if side.order is None:
        raise CosetCapExceeded(cap, side.cosets_defined)
    side_mut = _certify(pres_mut, entries_mut, expected, cap)
    if side_mut.order is None:
        raise CosetCapExceeded(cap, side.cosets_defined + side_mut.cosets_defined)

    forward = mutation_witness_words(diagram, k)
    inverse = inverse_mutation_witness_words(mutated, k)
    fwd_fail = _first_failing(entries, pres_mut.relations, forward)
    inv_fail = _first_failing(entries_mut, pres.relations, inverse)
    comp_ok = (
        fwd_fail is None
        and inv_fail is None
        and _first_failing(entries_mut, _composites(forward, inverse)) is None
        and _first_failing(entries, _composites(inverse, forward)) is None
    )

    return MutationIsomorphismReport(
        vertex=k,
        order=side.order,
        mutated_order=side_mut.order,
        strategy="tower",
        cosets_defined=side.cosets_defined + side_mut.cosets_defined,
        forward_homomorphism=fwd_fail is None,
        inverse_homomorphism=inv_fail is None,
        composition_identity=comp_ok,
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

"""Coset enumeration over involutive presentations, and what it buys us.

The enumerator is an HLT-style Todd-Coxeter procedure specialized to
presentations in which every generator is an involution: the table keeps one
column per generator and every table write is symmetric, so the involution
relations are baked into the data structure.  Coincidences are processed as in
the COINCIDENCE routine of Holt, Eick and O'Brien ("Handbook of Computational
Group Theory", 2005, section 5.1), so a live row names only live cosets.  A
relator whose forward trace from a coset is complete and closed, as most are
once the table fills, is checked inline and never reaches scan.

group_order enumerates the cosets of the trivial subgroup, so the order it
returns is exact.  The certificates bound the order instead, from both sides,
in _certify, the one place that picks their presentations and reads their
companion bases, for theorem-a, verify-type and both sides of
verify_mutation_isomorphism.  From above by a
parabolic tower (_tower) on the reduced presentation: drop the generator
that leaves the most positive roots with coordinate 0 at it and at every
generator dropped before, in coordinates over the companion basis (the root
subsystem of the others; roots._root_masks), enumerate the cosets of the
subgroup the others generate, go on with the relations among the others,
and multiply the indices.  The rule only picks the drop: each index is
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
from functools import reduce
from math import prod
from operator import or_

from . import dynkin
from .diagram import Diagram, NotFiniteTypeError, chordless_cycles, connected_components, mutate_diagram
from .presentation import Presentation, Relation, Relator, Word, _relations, mutation_witness_words
from .roots import _coroot_pairings, _first_failing, _root_masks, companion_basis, mutate_companion

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


def _relators(relations) -> list[Word]:
    """The relations, (word, exponent, tag) triples or Relations, as words,
    but for an even power of one generator: every table's are involutions."""
    return [word * exponent for word, exponent, _ in relations if len(word) > 1 or exponent % 2]


def _enumerate(relators, gens, subgroup, cap: int) -> tuple[int | None, int]:
    """Enumerate the cosets of <s_h : h in subgroup> in the group that the
    relator words (_relators) present on the generators gens: (index, defined).

    Deterministic HLT strategy: the subgroup enters as table[0][h] = 0, then
    each live coset scans every relator and fills its remaining entries in
    generator order; scan runs only where the relator's forward trace from
    the coset stops at an undefined entry or ends at another coset, since a
    closed trace leaves nothing to fill.  Only the columns in gens are
    filled, so a generator keeps its number in the input.  When a coset
    dies in a coincidence, every entry naming it is cleared, then re-pointed
    at the survivor or left to a queued coincidence (the Handbook's
    COINCIDENCE, section 5.1), so a live row names only live cosets and the
    traces and scan read the table as it stands.  table[c] is None once
    coset c is merged; live is the number of survivors, the index, and
    defined counts every definition made, including cosets later merged
    away.  The index is None when the cap stops the enumeration."""
    if cap < 1:
        raise ValueError("cap must be positive")
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
                    f = alpha
                    for g in word:
                        f = table[f][g]
                        if f < 0:
                            break
                    if f == alpha:
                        continue
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


def group_order(presentation: Presentation, cap: int = DEFAULT_COSET_CAP) -> int:
    """Order of the presented group, exact: the index of the trivial subgroup.
    Raises CosetCapExceeded when the cap stops the enumeration."""
    order, defined = _enumerate(_relators(presentation.relations), range(presentation.n), (), cap)
    if order is None:
        raise CosetCapExceeded(cap, defined)
    return order


def _tower(n: int, relations, cap: int, masks) -> tuple[int | None, list[dict], int]:
    """The parabolic tower's upper bound on the order of the group the
    relations present on n involutions: (bound, levels, defined).

    masks[g] has bit r set when root r has a nonzero coordinate g over the
    companion basis (roots._root_masks), one root of each +- pair.  Each
    level drops the generator g that leaves the most roots with coordinate 0
    at g and at every generator already dropped (ties go to the highest
    index): the roots in the span of the others, so the drop keeps the
    largest root subsystem and a small index.  The level enumerates the
    cosets of the subgroup the others generate, keeps those roots only, and
    goes on with the relations among the others until no generator is left.
    The generators keep their numbers in the input at every level: a level
    only drops the relators, expanded once, that name its generator.
    levels holds one {"dropped": generator, "index": cosets} per completed
    level, the generator 1-based; defined counts the cosets of every level.
    The bound is None when the cap stops a level."""
    gens = list(range(n))
    relators = _relators(relations)
    levels: list[dict] = []
    order, defined = 1, 0
    alive = reduce(or_, masks, 0)
    while gens:
        g = max(reversed(gens), key=lambda h: (alive & ~masks[h]).bit_count())
        alive &= ~masks[g]
        rest = [h for h in gens if h != g]
        index, count = _enumerate(relators, gens, rest, cap)
        defined += count
        if index is None:
            return None, levels, defined
        levels.append({"dropped": g + 1, "index": index})
        order *= index
        gens = rest
        relators = [word for word in relators if g not in word]
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
    faithful: bool  # the reflection representations are faithful on both groups
    failing_relation: Relation | None

    @property
    def passed(self) -> bool:
        return self.faithful and self.forward_homomorphism and self.inverse_homomorphism


def _component_bases(diagram: Diagram):
    """One (vertices, component, carried companion basis) per connected
    component (roots.companion_basis), its refusals naming the diagram's vertices."""
    bases = []
    for vertices, component in connected_components(diagram):
        try:
            bases.append((vertices, component, companion_basis(component)))
        except NotFiniteTypeError as exc:  # naming the diagram's vertices, not the component's
            raise exc.renamed(vertices.__getitem__) from None
    return bases


def _side(n: int, bases):
    """(entries, masks): each basis's pairing matrix on its diagonal block,
    and its root masks (roots._root_masks) past the earlier bases' roots."""
    entries = [[0] * n for _ in range(n)]
    masks = [0] * n
    offset = 0
    for vertices, _, basis in bases:
        for u, row, mask in zip(vertices, _coroot_pairings(basis), _root_masks(basis)):
            for v, a in zip(vertices, row):
                entries[u][v] = a
            masks[u] = mask << offset
        offset += len(basis.system.roots) // 2
    return entries, masks


@dataclass(frozen=True)
class _Certificate:
    """The two bounds on a presented group and their verdict (_certify)."""

    label: str  # the components' types joined by "+"
    expected: int  # |W|, the product of their Weyl orders
    order: int | None  # the tower's upper bound, None after an overflow
    tower: list[dict]  # the completed levels as reports print them
    cosets_defined: int
    lower_bound: bool
    verdict: str  # "pass" | "fail" | "overflow"
    relations: list[Relator]  # the full presentation's, which lower_bound read
    entries: list[list[int]]  # the pairing matrix they were read on (_side)


def _certify(diagram: Diagram, bases, cap: int) -> _Certificate:
    """Certify |G| = |W| for both of the diagram's presentations, with one
    (vertices, component, carried basis) per component: the tower on the
    reduced one, dropping by the bases' root masks, bounds both from above,
    and the full relations holding on their pairings (_side) from below
    (roots._first_failing), checked even after an overflow for verify-type.

    Why the relations bound G from below.  roots.companion_basis gives the
    unit vectors of a root system of the type, closed under their
    reflections, which so generate its Weyl group W; roots.companion_bases
    carries one such basis by mutations, each keeping beta_k and replacing
    beta_i by beta_i or s_{beta_k} beta_i, so the carried reflections generate
    W too.  When they satisfy the full relations, s_g |-> reflection in
    beta_g maps G_full onto W, so |G_full| >= |W| = prod d_i (weyl_order), the
    bound the module docstring closes with the tower's.
    """
    entries, masks = _side(diagram.n, bases)
    labels = [basis.system.label for _, _, basis in bases]
    expected = prod(map(weyl_order, labels))
    full, reduced = _relations(diagram, chordless_cycles(diagram))  # the bases prove finite type
    order, tower, defined = _tower(diagram.n, reduced, cap, masks)
    lower_bound = _first_failing(entries, full) is None
    if order is None:
        verdict = "overflow"
    else:
        verdict = "pass" if order == expected and lower_bound else "fail"
    return _Certificate("+".join(labels), expected, order, tower, defined, lower_bound, verdict, full, entries)


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
    (_certify), and every check is a relator evaluated on it
    (roots._first_failing), the full relations each side's certificate carries.
    Raises CosetCapExceeded if an order computation overflows, and
    NotFiniteTypeError when a component is not of finite type.

    Why the checks are exact.  The unit vectors of a component's root system
    generate its Weyl group W_c by their reflections (_certify), and each
    companion mutation keeps beta_k and replaces beta_i by beta_i or
    s_{beta_k} beta_i, so on both sides the reflections generate W = prod W_c
    over the components.  A side whose
    certificate passes (_certify) has its tower's upper bound on |G| equal to
    |W| and its relations holding in rho, which maps G onto W; so rho is an
    isomorphism onto W, which acts faithfully on the lattice: `faithful`
    records this for both sides, and `passed` requires it.
    """
    mutated = mutate_diagram(diagram, k)
    bases = _component_bases(diagram)
    bases_mut = [(v, mutate_diagram(c, v.index(k)), mutate_companion(b, v.index(k), c)) if k in v else (v, c, b)
                 for v, c, b in bases]

    side = _certify(diagram, bases, cap)
    if side.order is None:
        raise CosetCapExceeded(cap, side.cosets_defined)
    side_mut = _certify(mutated, bases_mut, cap)
    if side_mut.order is None:
        raise CosetCapExceeded(cap, side.cosets_defined + side_mut.cosets_defined)

    # No composite is checked: t_k = s_k and every other t_i is s_i or s_k s_i s_k,
    # so each composite sends s_i to s_i or s_k s_k s_i s_k s_k, and every reflection
    # _first_failing builds is an involution (a pairing matrix has 2 on its diagonal).
    words = mutation_witness_words(diagram, k)
    fwd_fail = _first_failing(side.entries, side_mut.relations, words)
    inv_fail = _first_failing(side_mut.entries, side.relations, words)
    failing = fwd_fail or inv_fail

    return MutationIsomorphismReport(
        vertex=k,
        order=side.order,
        mutated_order=side_mut.order,
        cosets_defined=side.cosets_defined + side_mut.cosets_defined,
        forward_homomorphism=fwd_fail is None,
        inverse_homomorphism=inv_fail is None,
        faithful=side.verdict == side_mut.verdict == "pass",
        failing_relation=failing and Relation(*failing),
    )


def weyl_order(label: str) -> int:
    """Order of the Weyl group of the given type: the product of the degrees of its basic invariants."""
    return prod(dynkin._degrees(label))

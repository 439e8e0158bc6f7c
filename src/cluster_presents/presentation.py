"""Group presentations attached to mutation diagrams.

Generators are one involution s_i per vertex.  Beyond the involution (R1) and
pairwise braid relations (R2, order 2/3/4/6 for edge weight 0/1/2/3), every
chordless cycle contributes cycle relations (R3) built from words

    r(a) = s_{i_a} s_{i_{a+1}} ... s_{i_{a+d-1}} s_{i_{a+d-2}} ... s_{i_{a+1}}

of length 2d - 2 read around the cycle from position a.  In an all-weight-1
cycle each r(a)^2 = e; in a cycle with weight-2 edges the exponent at a is
4 - w_a, where w_a is the weight of the edge omitted by r(a) (the one joining
i_{a-1} to i_a).  The reduced presentation keeps a single relation per cycle,
chosen at an admissible position (any a when all weights are 1, else w_a = 2)
so its exponent is 2, tie-broken by the lexicographically smallest rotated
vertex sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .diagram import ChordlessCycle, Diagram, DiagramError, _validate_local, chordless_cycles

__all__ = [
    "MAX_PRESENTATION_RANK",
    "Relation",
    "Presentation",
    "bond_order",
    "cycle_word",
    "full_presentation",
    "reduced_presentation",
    "mutation_witness_words",
]

Word = tuple[int, ...]

_BOND_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}
# far above any rank of finite type a certificate reaches; R2 alone is n^2/2 relations
MAX_PRESENTATION_RANK = 1000
# far above any relator a diagram's presentation builds: 12 letters for a
# braid relation, at most 3(2d - 2) < 6 MAX_PRESENTATION_RANK for a cycle of d
# vertices; the enumerator expands every relator to this many letters
_MAX_RELATOR_LENGTH = 100_000
# far above the letters of all a diagram's relators: about 2 M at rank
# MAX_PRESENTATION_RANK, nearly all in its n^2/2 braid relations of 4 letters;
# the enumerator holds every relator expanded, 8 bytes a letter
_MAX_PRESENTATION_LENGTH = 20_000_000


def bond_order(weight: int) -> int:
    """Order of s_i s_j for vertices joined by an edge of the given weight."""
    try:
        return _BOND_ORDER[weight]
    except KeyError:
        raise ValueError(f"no bond order for edge weight {weight}") from None


@dataclass(frozen=True)
class Relation:
    """A relator (word)^exponent, the word nonempty and the exponent positive;
    letters are 0-based generator indices."""

    word: Word
    exponent: int
    tag: str = ""

    def __post_init__(self):
        try:
            object.__setattr__(self, "word", tuple(map(index, self.word)))
            object.__setattr__(self, "exponent", index(self.exponent))
        except TypeError:
            raise ValueError("relation letters and exponent must be integers") from None
        if self.exponent < 1 or not self.word:
            raise ValueError(f"degenerate relation {self}")

    def __iter__(self):
        """A Relation unpacks as (word, exponent, tag), like the plain triples
        of _relations, so the certificate kernels read either."""
        return iter((self.word, self.exponent, self.tag))

    def letters(self) -> Word:
        """The fully expanded relator word."""
        return self.word * self.exponent

    def __str__(self) -> str:
        """The relation in the 1-based file syntax, "(s1 s2 s3 s2)^2"."""
        return f"({' '.join(f's{x + 1}' for x in self.word)})^{self.exponent}"


@dataclass(frozen=True, slots=True)
class Presentation:
    """An involutive presentation: n generators, each with (s_i)^2 among the relations."""

    n: int
    relations: tuple[Relation, ...]

    def __post_init__(self):
        relations = tuple(self.relations)
        try:  # a float or a string is refused, never truncated
            n = index(self.n)
        except TypeError:
            raise ValueError("generator count and relation letters must be integers") from None
        if n < 0:
            raise ValueError("generator count must be nonnegative")
        involutions = set()
        letters = 0
        for rel in relations:
            if not isinstance(rel, Relation):
                raise TypeError("relations must be Relation instances")
            if len(rel.word) * rel.exponent > _MAX_RELATOR_LENGTH:
                raise ValueError(f"relation {rel} expands to more than {_MAX_RELATOR_LENGTH} letters")
            letters += len(rel.word) * rel.exponent
            if letters > _MAX_PRESENTATION_LENGTH:
                raise ValueError(f"relations expand to more than {_MAX_PRESENTATION_LENGTH} letters in all")
            for letter in rel.word:
                if not 0 <= letter < n:
                    raise ValueError(f"generator s{letter + 1} out of range in {rel}")
            if len(rel.word) == 1 and rel.exponent == 2:
                involutions.add(rel.word[0])
        # at most len(involutions) + 1 steps, however large n is
        missing = next((g for g in range(n) if g not in involutions), None)
        if missing is not None:
            raise ValueError(f"missing involution relation for s{missing + 1}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "relations", relations)

    def __repr__(self):
        return f"Presentation(n={self.n}, relations={len(self.relations)})"


def cycle_word(cycle: ChordlessCycle, a: int) -> Word:
    """The length-(2d-2) cycle word starting at position a."""
    d = len(cycle.vertices)
    run = [cycle.vertices[(a + t) % d] for t in range(d)]
    return tuple(run) + tuple(reversed(run[1 : d - 1]))


def _check_presentation_rank(n: int) -> None:
    """Refuse a rank beyond the presentations' with ValueError, one message for every caller."""
    if n > MAX_PRESENTATION_RANK:
        raise ValueError(f"presentations support rank <= {MAX_PRESENTATION_RANK}, not {n}")


def _checked_cycles(diagram: Diagram) -> list[ChordlessCycle]:
    """The chordless cycles, enumerated once, of a diagram that admits a presentation."""
    _check_presentation_rank(diagram.n)
    cycles = chordless_cycles(diagram)
    violation = _validate_local(diagram, cycles)
    if violation:
        raise DiagramError(f"diagram admits no presentation: {violation}")
    if diagram.max_weight() > 3:
        raise DiagramError(
            f"diagram admits no presentation: no bond order for edge weight {diagram.max_weight()}")
    return cycles


Relator = tuple[Word, int, str]  # (word, exponent, tag), as a Relation unpacks


def _relations(diagram: Diagram, cycles) -> tuple[list[Relator], list[Relator]]:
    """The (full, reduced) relations from the given chordless cycles of a
    diagram that admits a presentation: R1 for every vertex, R2 for every
    pair i < j in lexicographic order, then each cycle's rotations, all in
    full and one of exponent 2 in reduced, so the reduced relations are full
    ones (coset._certify rests on this).  Each is a plain (word, exponent,
    tag) triple, valid by construction, which the certificates read as it
    stands; full_presentation and reduced_presentation check the diagram
    (_checked_cycles) and make Relations of them."""
    n = diagram.n
    full = [((i,), 2, "R1") for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            full.append(((i, j), bond_order(diagram.weight_between(i, j)), "R2"))
    reduced = full[:]
    for cycle in cycles:
        d = len(cycle.vertices)
        plain = all(w == 1 for w in cycle.weights)
        for a in range(d):
            if plain:
                full.append((cycle_word(cycle, a), 2, "R3a"))
            else:
                full.append((cycle_word(cycle, a), 4 - cycle.weights[a], "R3b"))
        admissible = [a for a in range(d) if plain or cycle.weights[a] == 2]
        best = min(admissible, key=lambda a: [cycle.vertices[(a + t) % d] for t in range(d)])
        reduced.append((cycle_word(cycle, best), 2, "R3-reduced"))
    return full, reduced


def full_presentation(diagram: Diagram) -> Presentation:
    """All relations: involutions, pairwise orders, and every cycle rotation."""
    return Presentation(diagram.n, [Relation(*rel) for rel in _relations(diagram, _checked_cycles(diagram))[0]])


def reduced_presentation(diagram: Diagram) -> Presentation:
    """One exponent-2 cycle relation per cycle, anchored at an admissible rotation."""
    return Presentation(diagram.n, [Relation(*rel) for rel in _relations(diagram, _checked_cycles(diagram))[1]])


def mutation_witness_words(diagram: Diagram, k: int) -> tuple[Word, ...]:
    """Words t_i in the generators of W(diagram) witnessing mutation at k.

    t_i = s_k s_i s_k when the diagram has an arrow i -> k, else t_i = s_i.
    Read on the mutated diagram, whose arrows at k are reversed, they are the inverse's t'_i.
    """
    if not 0 <= k < diagram.n:
        raise IndexError(f"mutation vertex {k} out of range")
    return tuple(
        (k, i, k) if diagram.weight(i, k) > 0 else (i,) for i in range(diagram.n)
    )

"""Root systems in the simple-root basis, companion bases, signed graphs.

Vectors are integer coordinate tuples over the simple roots of a fixed type,
or over a companion basis (companion_basis).  With cartan[i][j] = 2(a_i, a_j)/(a_i, a_i) and d_i = (a_i, a_i)/2, the
symmetric form is (v, w) = sum_ij v_i d_i cartan[i][j] w_j and the simple
reflection s_i subtracts (cartan row i) . v from coordinate i.  All values
stay in exact integer arithmetic.  Each root carries its form and norm: its
image under the form and (w, w), stored when the root system is built, so
every pairing and reflection in a root reads them rather than computing them.

A companion basis for an exchange matrix B is a Z-basis of the root lattice
made of roots whose mutual pairings reproduce |B| off the diagonal; it is
mutated by reflecting the vectors attached to arrows into the mutation
vertex.  companion_basis builds one for a connected diagram with no search:
the unit vectors of the root system of the diagram's positive quasi-Cartan
companion (Barot-Geiss-Zelevinsky, arXiv:math/0411341), whose size and
longest root name the type.  companion_bases finds one for every member of a
finite-type mutation class: the input member's, carried forward along the
record of the search that found the class (MutationClass.tree), each step
relabeled by the canonical labeling that search recorded, so carrying runs
no canonical search.  Both carry the positive roots along with the basis,
in coordinates over it, with a mask per vertex of the roots whose
coordinate there is nonzero (CompanionBasis._carry): a mutation step
changes one coordinate of each root, so no certificate closes a root
system, and the certificates' towers pick their drops by the masks
(_root_masks, coset._tower).
_first_failing checks a presentation on the reflections in such a basis, the
lower bound of the certificates (coset._certify), by integer matrices read off
its companion matrix, each row packed into one int; it also checks the
mutation certificates' witness maps.  The sign pattern of a basis is tracked
by its signed graph, with one switching move that rewires the neighbourhood of
a vertex.  The companion checks of Barot-Geiss-Zelevinsky are here too:
is_companion_basis checks a basis against an exchange matrix in one pass
(each root looked up once, the determinant eliminated once, each pairing
computed once for A_ij and A_ji and tested where it is computed),
is_quasi_cartan_companion reads |A_ij| = |B_ij| off two matrices, and
cycle_sign_condition checks the signs around chordless cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod
from operator import index, mul

from . import dynkin
from .diagram import Diagram, MutationClass, NotFiniteTypeError, _NamesVertices, chordless_cycles
from .exchange import ExchangeMatrix, QuasiCartanMatrix, _bareiss, is_positive

__all__ = [
    "RootSystem",
    "build_root_system",
    "CompanionBasis",
    "simple_root_basis",
    "companion_matrix",
    "is_companion_basis",
    "is_quasi_cartan_companion",
    "cycle_sign_condition",
    "mutate_companion",
    "companion_bases",
    "companion_basis",
    "SignedGraph",
    "signed_graph",
    "local_switch",
]

Coords = tuple[int, ...]


class _SignedGraphError(_NamesVertices, ValueError):
    """A signed graph or a switching move refused, naming its vertices."""


@dataclass(frozen=True, slots=True, eq=False)
class RootSystem:
    """A finite root system: the unit vectors closed under their reflections.

    roots is the full (positive and negative) root set, lexicographically
    sorted.  The symmetriser is computed: the least positive integers d with
    d_i cartan_ij = d_j cartan_ji on each component, so the form below is
    symmetric (d_i = (a_i, a_i)/2, short roots at 1).  The form must be
    positive definite, so the root set is finite.  Each root carries its form
    and norm: _forms maps a root to (its image under the form, its norm), as
    _form returns them, filled while the roots are closed under reflections.
    build_root_system makes one object per Dynkin type, and companion_basis
    one per call, on a quasi-Cartan matrix; equality is identity.
    """

    label: str
    cartan: tuple[tuple[int, ...], ...]
    symmetriser: tuple[int, ...] = field(init=False)
    n: int = field(init=False)
    roots: tuple[Coords, ...] = field(init=False)
    _forms: dict[Coords, tuple[Coords, int]] = field(init=False)

    def __post_init__(self):
        quasi = QuasiCartanMatrix(self.cartan)
        if not is_positive(quasi):
            raise ValueError(f"Cartan matrix of {self.label} is not of finite type: "
                             "its symmetrised form is not positive definite")
        object.__setattr__(self, "cartan", quasi.entries)
        object.__setattr__(self, "symmetriser", quasi.symmetriser)
        object.__setattr__(self, "n", quasi.n)
        forms = _close_under_reflections(quasi.entries, quasi.symmetriser)
        object.__setattr__(self, "roots", tuple(sorted(forms)))
        object.__setattr__(self, "_forms", forms)

    def is_root(self, v) -> bool:
        """True iff v is a root; a coordinate that operator.index refuses, as
        CompanionBasis does (a float, a Fraction), makes it none."""
        try:
            return tuple(map(index, v)) in self._forms
        except TypeError:
            return False

    def simple_root(self, i: int) -> Coords:
        if not 0 <= i < self.n:
            raise IndexError(f"simple root index {i} out of range")
        return tuple(1 if j == i else 0 for j in range(self.n))

    def __repr__(self):
        return f"RootSystem({self.label}, {len(self.roots)} roots)"


def _close_under_reflections(cartan, symmetriser) -> dict[Coords, tuple[Coords, int]]:
    """The roots, each with its form and norm: the simple roots closed under
    the simple reflections.  With S_i = d_i cartan_i, row i of the symmetric
    matrix of the form, the simple root a_i has form S_i and norm 2 d_i.  The
    reflection s_i sends v to w = v - c a_i with c = (cartan row i) . v =
    form(v)_i / d_i, so w's form is form(v) - c S_i, changed only where S_i
    is nonzero, and its norm is v's; c = 0 fixes the root."""
    n = len(cartan)
    rows = [[(j, d * a) for j, a in enumerate(row) if a] for row, d in zip(cartan, symmetriser)]
    forms = {tuple(1 if j == i else 0 for j in range(n)): (tuple(d * a for a in row), 2 * d)
             for i, (row, d) in enumerate(zip(cartan, symmetriser))}
    frontier = list(forms.items())
    while frontier:
        new = []
        for v, (form, norm) in frontier:
            for i, (row, d) in enumerate(zip(rows, symmetriser)):
                coeff = form[i] // d
                if not coeff:
                    continue
                w = (*v[:i], v[i] - coeff, *v[i + 1:])
                if w not in forms:
                    wform = list(form)
                    for j, s in row:
                        wform[j] -= coeff * s
                    forms[w] = entry = (tuple(wform), norm)
                    new.append((w, entry))
        frontier = new
    return forms


@lru_cache(maxsize=None)
def build_root_system(label: str) -> RootSystem:
    """The root system of a Dynkin type label such as "A3" or "B/C2"."""
    normalized = dynkin.normalize_label(label)
    return RootSystem(normalized, dynkin.cartan_matrix(normalized))


def _form(system: RootSystem, w: Coords) -> tuple[Coords, int]:
    """w's image under the form, form_i = d_i (cartan_i . w), and its norm
    (w, w) = w . form, so that (v, w) = v . form is one length-n dot product.
    A root's pair is the one stored with the root system; only a vector that
    is no root has its pair computed here."""
    stored = system._forms.get(w)
    if stored is not None:
        return stored
    form = tuple([d * sum(map(mul, row, w)) for row, d in zip(system.cartan, system.symmetriser)])
    return form, sum(map(mul, w, form))


def _coroot(v, w, vw: int, norm: int) -> int:
    """(v, w^check) = 2 (v, w) / (w, w) from vw = (v, w) and norm = (w, w).
    Raises ValueError when w is isotropic or the pairing is not integral."""
    if norm == 0:
        raise ValueError("coroot pairing undefined: (w, w) = 0")
    value, remainder = divmod(2 * vw, norm)
    if remainder:
        raise ValueError(f"coroot pairing of {tuple(v)} against {tuple(w)} is not integral")
    return value


def _reflector(system: RootSystem, beta) -> tuple[Coords, Coords, int]:
    """beta, checked to be a root, with its stored form and norm: all that a
    reflection in it reads."""
    beta = tuple(beta)
    try:
        return (beta, *system._forms[beta])
    except KeyError:
        raise ValueError(f"{beta} is not a root of {system.label}") from None


def _reflect(v, beta, form: Coords, norm: int) -> tuple[int, Coords]:
    """(a, v - a beta), a = (v, beta^check): the reflection of v in beta and
    the pairing it subtracted."""
    coeff = _coroot(v, beta, sum(map(mul, v, form)), norm)
    return coeff, tuple([x - coeff * b for x, b in zip(v, beta)])


@dataclass(frozen=True, slots=True)
class CompanionBasis:
    """An ordered tuple of vectors in a root system, candidate companion basis.

    Construction only fixes the shape; validity against an exchange matrix is
    a separate check (is_companion_basis), so near-miss candidates can be
    built and interrogated.  Two bases are equal when they hold the same
    vectors in the same RootSystem object.

    A basis that companion_basis or companion_bases returns carries the
    positive roots with it, and so does mutate_companion's step from such a
    basis: _carry[g] is (column, mask), the column holding coordinate g over
    the basis of each positive root of the system, in the order of
    system.roots, and the mask the int with bit r set when root r's
    coordinate is nonzero (_mask).  Any other basis has _carry None.
    """

    system: RootSystem
    vectors: tuple[Coords, ...]
    _carry: tuple[tuple[Coords, int], ...] | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        try:
            vectors = tuple(tuple(map(index, v)) for v in self.vectors)
        except TypeError:
            raise ValueError("basis coordinates must be integers") from None
        for v in vectors:
            if len(v) != self.system.n:
                raise ValueError(f"vector {v} has wrong length for rank {self.system.n}")
        object.__setattr__(self, "vectors", vectors)

    def __len__(self):
        return len(self.vectors)

    def __repr__(self):
        return f"CompanionBasis({self.system.label}, {list(self.vectors)})"


def simple_root_basis(system: RootSystem) -> CompanionBasis:
    return CompanionBasis(system, [system.simple_root(i) for i in range(system.n)])


_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask(column: Coords) -> int:
    """The int with bit r set when entry r of the column is nonzero."""
    return int(bytes(map(bool, reversed(column))).translate(_BINARY_DIGITS), 2)  # read as a binary numeral


def _carried_simple_roots(system: RootSystem) -> CompanionBasis:
    """The unit vectors, carrying the positive roots: column i holds the
    coefficient of a_i in each of them."""
    zero = (0,) * system.n
    columns = zip(*(r for r in system.roots if r > zero))
    return _carried(system, simple_root_basis(system).vectors, tuple((c, _mask(c)) for c in columns))


def _carried(system: RootSystem, vectors, carry) -> CompanionBasis:
    """The basis of the vectors with the carry attached
    (CompanionBasis._carry), or None.  The vectors are int tuples of length
    system.n, reflected or relabeled from a basis's vectors, so the
    constructor's checks are not run on them again."""
    basis = object.__new__(CompanionBasis)
    object.__setattr__(basis, "system", system)
    object.__setattr__(basis, "vectors", tuple(vectors))
    object.__setattr__(basis, "_carry", carry)
    return basis


def _relabeled(basis: CompanionBasis, perm) -> CompanionBasis:
    """Vector and carried column q of the result are vector and column
    perm[q] of the basis."""
    carry = None if basis._carry is None else tuple(basis._carry[v] for v in perm)
    return _carried(basis.system, [basis.vectors[v] for v in perm], carry)


def _root_masks(basis: CompanionBasis) -> list[int]:
    """One int per vertex g of a carried basis, with bit r set when positive
    root r has a nonzero coordinate g over the basis: the root subsystems the
    certificates' towers drop by (coset._tower)."""
    return [mask for _, mask in basis._carry]


def _coroot_pairings(basis: CompanionBasis) -> list[list[int]]:
    """(beta_i, beta_j^check) off the diagonal and 2 on it, raising _coroot's
    error at the first failing pair, row by row.  The form is symmetric
    (RootSystem checks its symmetriser), so the Gram matrix takes one dot
    product per pair i <= j, each beta_j through its image under the form,
    computed once: stored with the root system for a root, and computed by
    _form only for a vector that is no root.  Each pairing is the divmod of
    _coroot, inline; _coroot is called only to raise its error."""
    vectors = basis.vectors
    n = len(vectors)
    gram = [[0] * n for _ in range(n)]
    for j, w in enumerate(vectors):
        form, gram[j][j] = _form(basis.system, w)
        for i in range(j):
            gram[i][j] = gram[j][i] = sum(map(mul, vectors[i], form))
    norms = [gram[j][j] for j in range(n)]
    pairings = []
    for i, row in enumerate(gram):
        out = []
        for j, (vw, norm) in enumerate(zip(row, norms)):
            if i == j:
                out.append(2)
                continue
            value, remainder = divmod(2 * vw, norm) if norm else (0, 1)
            if remainder:  # or an isotropic w: not a pairing
                _coroot(vectors[i], vectors[j], vw, norm)
            out.append(value)
        pairings.append(out)
    return pairings


def companion_matrix(basis: CompanionBasis) -> QuasiCartanMatrix:
    """The Gram-type matrix A[i][j] = (beta_i, beta_j^check) of the basis."""
    return QuasiCartanMatrix(_coroot_pairings(basis))


def is_companion_basis(basis: CompanionBasis, matrix: ExchangeMatrix) -> tuple[bool, str | None]:
    """Check roots, unimodularity and the companion condition |A_ij| =
    |B_ij|, A_ij = (beta_i, beta_j^check).

    Returns (True, None) or (False, reason), testing in that order so the
    reason names the first failure, a mismatch its first pair row by row.
    Two roots of a finite root system pair integrally, so once every vector
    is a root each A_ij is an integer.  One pass:
    a vector's lookup in the stored forms is its root test and the fetch of
    its form and norm, the determinant is eliminated on the vectors as they
    are (_bareiss), and each (beta_i, beta_j), i < j, gives A_ij and A_ji.
    """
    n = matrix.n
    vectors = basis.vectors
    if len(vectors) != n or basis.system.n != n:
        raise ValueError(f"rank mismatch: basis of {len(vectors)} vectors in {basis.system.label} "
                         f"(rank {basis.system.n}) against a {n} x {n} matrix")
    stored = list(map(basis.system._forms.get, vectors))  # (form, norm), or None for no root
    if None in stored:
        idx = stored.index(None)
        return False, f"vector {idx + 1} = {list(vectors[idx])} is not a root"
    det = _bareiss(list(vectors))
    if det not in (1, -1):
        return False, f"not a lattice basis: determinant {det}"
    entries = matrix.entries
    norms = [norm for _, norm in stored]
    failures = []  # (i, j, reason), the first pair row by row least
    for j, (form, norm_j) in enumerate(stored):
        row_j = entries[j]
        for i in range(j):
            # A_ij = twice / norm_j and A_ji = twice / norm_i, so |twice| = |B_ij| norm_j iff |A_ij| = |B_ij|
            twice = 2 * sum(map(mul, vectors[i], form))
            size = abs(twice)
            if size == abs(entries[i][j]) * norm_j and size == abs(row_j[i]) * norms[i]:
                continue
            for r, c in ((i, j), (j, i)):
                if size != abs(entries[r][c]) * norms[c]:
                    failures.append((r, c, f"companion condition fails at ({r + 1},{c + 1}): "
                                           f"|{twice // norms[c]}| != |{entries[r][c]}|"))
    return (False, min(failures)[2]) if failures else (True, None)


def is_quasi_cartan_companion(A: QuasiCartanMatrix, B: ExchangeMatrix) -> bool:
    """True iff |A_ij| = |B_ij| for all off-diagonal entries.

    Raises
    ------
    ValueError
        If the ranks differ.
    """
    if A.n != B.n:
        raise ValueError("rank mismatch between quasi-Cartan matrix and exchange matrix")
    return all(i == j or abs(a) == abs(b) for i, (row, brow) in enumerate(zip(A.entries, B.entries))
               for j, (a, b) in enumerate(zip(row, brow)))


def cycle_sign_condition(A: QuasiCartanMatrix, diagram: Diagram) -> bool:
    """Check prod(-A_{i_a, i_{a+1}}) < 0 around every chordless cycle of a diagram.

    The diagram should be Gamma(B) for the matrix B that A accompanies.
    Vacuously true when the diagram has no chordless cycles.
    """
    return all(prod(-A.entries[u][v] for u, v in zip(c.vertices, c.vertices[1:] + c.vertices[:1])) < 0
               for c in chordless_cycles(diagram))


def mutate_companion(basis: CompanionBasis, k: int, diagram) -> CompanionBasis:
    """Mutate the basis at vertex k, guided by the arrows of the diagram:
    reflect beta_i in beta_k for each arrow i -> k.

    beta_k is kept and each reflection is an involution, so the step on the
    same diagram undoes it.  On the mutated diagram, whose arrows at k are
    reversed, it reflects the beta_i of the arrows k -> i instead.

    A carried basis stays carried.  beta_i becomes beta_i - a_i beta_k with
    a_i = (beta_i, beta_k^check), so a root's coordinate k over the basis
    gains a_i times its coordinate i, for each reflected beta_i, and no other
    coordinate changes: column k gains sum a_i column i, and only its mask
    is computed again.
    """
    n = len(basis.vectors)
    if diagram.n != n:
        raise ValueError(f"rank mismatch: diagram on {diagram.n} vertices, basis of {n} vectors")
    if not 0 <= k < n:
        raise IndexError(f"mutation vertex {k} out of range")
    hit = diagram.in_neighbours(k)
    out = list(basis.vectors)
    carry = basis._carry
    if hit:
        reflector = _reflector(basis.system, out[k])  # once for every hit vector
        gained = carry[k][0] if carry else ()
        for i in hit:
            a, out[i] = _reflect(out[i], *reflector)
            if carry:
                gained = [x + a * y for x, y in zip(gained, carry[i][0])]
        if carry:
            gained = tuple(gained)
            carry = (*carry[:k], (gained, _mask(gained)), *carry[k + 1:])
    return _carried(basis.system, out, carry)


def companion_bases(mclass: MutationClass) -> tuple[CompanionBasis, ...]:
    """A companion basis of every member's representative, indexed like members.

    The input's member takes companion_basis's basis, which is mutated inward
    forward along the class's BFS record (MutationClass.tree) to every member,
    each step relabeled by the labeling the search recorded.  The vectors live
    in that basis's root system.  Every basis is carried, its positive roots'
    coordinates with it (CompanionBasis._carry).  Raises NotFiniteTypeError
    as companion_basis does when the class is not of finite type.
    """
    root = mclass.tree[0][0]
    bases = {root: companion_basis(mclass.members[root])}
    for member, k, parent, perm in mclass.tree[1:]:
        # vertex q of the member is vertex perm[q] of the parent mutated at perm[k]
        bases[member] = _relabeled(mutate_companion(bases[parent], perm[k], mclass.members[parent]), perm)
    return tuple(bases[i] for i in range(len(mclass)))


def companion_basis(diagram: Diagram) -> CompanionBasis:
    """A companion basis for a connected diagram of finite type, with no
    search: the unit vectors of the root system of its positive quasi-Cartan
    companion A (Barot-Geiss-Zelevinsky, arXiv:math/0411341), carried by the
    roots themselves.  A_ij = +-max(d_i, d_j) / d_i at each edge, d from
    _half_norms, so |A_ij A_ji| is its weight, with prod(-A_ij) < 0 around
    every chordless cycle (_positive_edges).  The diagram is of finite type
    exactly when those cycles are cyclically oriented and A is positive
    definite; its type is the one of its rank with as many roots,
    2 sum(degree - 1), and the same longest half-norm (E6 and B/C6 have 72
    roots each).  Other signs change vectors' signs, and the other long class
    gives the dual system: neither changes a root's support over the basis.
    Raises NotFiniteTypeError, with one line.
    """
    if diagram.max_weight() > 3:
        raise NotFiniteTypeError(f"edge of weight {diagram.max_weight()} violates 2-finiteness")
    cycles = chordless_cycles(diagram)
    for cycle in cycles:
        if not cycle.oriented:
            raise NotFiniteTypeError(f"chordless cycle on vertices {', '.join(['{}'] * len(cycle))} "
                                     "is not cyclically oriented", *cycle.vertices)
    half = _half_norms(diagram)
    if {2, 3} <= {w for _, _, w in diagram.edges}:
        raise NotFiniteTypeError("a component has edges of weights 2 and 3")
    positive = _positive_edges(diagram, cycles)
    cartan = [[2 * (i == j) for j in range(diagram.n)] for i in range(diagram.n)]
    for e, (i, j, _) in enumerate(diagram.edges):
        size = max(half[i], half[j]) * (1 if e in positive else -1)
        cartan[i][j], cartan[j][i] = size // half[i], size // half[j]
    try:
        system = RootSystem("", cartan)  # named below, once its roots are counted
    except ValueError:
        raise NotFiniteTypeError("quasi-Cartan companion is not positive definite") from None
    object.__setattr__(system, "label", next(
        label for label in dynkin.labels_of_rank(diagram.n)
        if 2 * sum(d - 1 for d in dynkin._degrees(label)) == len(system.roots)
        and max(dynkin._lengths(*dynkin.parse_label(label))) == max(half)))
    return _carried_simple_roots(system)


def _half_norms(diagram: Diagram) -> list[int]:
    """d_i = (beta_i, beta_i) / 2 from d_0 = 1: kept by a weight-1 edge, swapped
    between 1 and w by a weight-w one; NotFiniteTypeError on two values or none."""
    half, stack = {0: 1}, [0]
    while stack:
        u = stack.pop()
        for v in diagram.neighbours(u):
            w = diagram.weight_between(u, v)
            d = half[u] if w == 1 else w // half[u]
            if v not in half:
                stack.append(v)
            if half.setdefault(v, d) != d:
                raise NotFiniteTypeError("the edge weights give vertex {} two root lengths", v)
    if len(half) != diagram.n:
        raise NotFiniteTypeError("mutation class of no known finite type")
    return [half[v] for v in range(diagram.n)]


def _positive_edges(diagram: Diagram, cycles) -> set[int]:
    """The positions in diagram.edges of the positive edges: an odd number
    around each chordless cycle, one GF(2) equation per cycle (bit e for edge
    e, bit m = len(diagram.edges) for the right-hand side), consistent when the
    cycles are oriented, solved by reduced elimination, free edges negative."""
    m = len(diagram.edges)
    position = {frozenset(edge[:2]): e for e, edge in enumerate(diagram.edges)}
    pivots: dict[int, int] = {}  # pivot bit -> the one equation that holds it
    for cycle in cycles:
        vs = cycle.vertices
        row = sum(1 << position[frozenset(pair)] for pair in zip(vs, vs[1:] + vs[:1])) | 1 << m
        for bit, equation in pivots.items():
            if row >> bit & 1:
                row ^= equation
        if row & ((1 << m) - 1):  # else the equations before it imply it
            bit = (row & -row).bit_length() - 1
            for other, equation in pivots.items():
                if equation >> bit & 1:
                    pivots[other] = equation ^ row
            pivots[bit] = row
    return {bit for bit, equation in pivots.items() if equation >> m & 1}


def _first_failing(entries, relations, images=None):
    """The first relation that the reflections of a pairing matrix do not
    satisfy, or None when all hold; a relation is a (word, exponent, tag)
    triple, as presentation._relations gives it, or a Relation.

    Integers only, in coordinates over the basis: with entries[i][j] =
    (beta_i, beta_j^check), the reflection in beta_g sends x to
    x - (sum_j x_j entries[j][g]) beta_g, that is, it subtracts
    (column g of entries) . x from coordinate g.  A block-diagonal matrix
    serves a disconnected diagram, one block per component's basis.  With
    images, generator g of the relations stands for the word images[g] in the
    reflections, so this checks that g |-> images[g] is a homomorphism.  A
    relator holds when its word fixes every unit vector.

    Rows are packed.  Row g of the word's matrix, coordinate g of the images
    of the n unit vectors, is one int whose balanced base-2^bits digits are
    its entries: sum_c x_c 2^(bits c).  Packing is linear, so a letter g
    subtracts entries[j][g] times row j from row g, one small-int multiply per
    nonzero entry of column g, and the relator holds when each row g is
    1 << bits * g.  That test is exact when every entry is below 2^(bits - 1)
    in size, where packing is injective.  A letter g changes only row g, to
    entries at most growth = |1 - entries[g][g]| + sum over j != g of
    |entries[j][g]| times the largest entry in size, so it multiplies the
    largest entry's size by at most 2^grow[g], grow[g] =
    (growth - 1).bit_length(); the identity's entries are at most 1, so bits
    is 2 plus grow over the relator's letters.  The rows thus widen with the
    relator's length; the relators a certificate reads, under witness images
    too, stay below 256 letters at rank <= 10.
    """
    n = len(entries)
    column = [[(j, entries[j][g]) for j in range(n) if entries[j][g]] for g in range(n)]
    grow = [(abs(1 - entries[g][g]) + sum(abs(a) for j, a in column[g] if j != g) - 1).bit_length()
            for g in range(n)]
    for rel in relations:
        word, exponent, _ = rel
        if images is not None:
            word = tuple(x for g in word for x in images[g])
        elif len(word) == 2 and exponent == 2 and not entries[word[0]][word[1]] \
                and not entries[word[1]][word[0]] and entries[word[0]][word[0]] == entries[word[1]][word[1]] == 2:
            continue  # two involutions that read neither's coordinate: they commute
        word *= exponent
        bits = sum(map(grow.__getitem__, word)) + 2
        identity = [1 << bits * g for g in range(n)]
        rows = identity[:]
        for g in word:
            row = rows[g]
            for j, a in column[g]:
                row -= a * rows[j]
            rows[g] = row
        if rows != identity:
            return rel
    return None


@dataclass(frozen=True)
class SignedGraph:
    """An undirected graph with +1/-1 edge signs; edges are (i, j, sign), i < j."""

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        try:  # a float or a string is refused, never truncated
            n = index(self.n)
            edges = [(index(i), index(j), index(s)) for i, j, s in self.edges]
        except TypeError:
            raise ValueError("vertex count and signed edge entries must be integers") from None
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        for i, j, s in edges:
            if not (0 <= i < j < n):
                raise _SignedGraphError("bad signed edge ({}, {})", i, j)
            if s not in (1, -1):
                raise ValueError(f"edge sign must be +1 or -1, not {s}")
            if (i, j) in seen:
                raise _SignedGraphError("duplicate signed edge ({}, {})", i, j)
            seen.add((i, j))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    def neighbours(self, k: int) -> tuple[int, ...]:
        out = set()
        for i, j, _ in self.edges:
            if i == k:
                out.add(j)
            elif j == k:
                out.add(i)
        return tuple(sorted(out))


def signed_graph(matrix: QuasiCartanMatrix) -> SignedGraph:
    """Edge {i, j} with the sign of A_ij, for every nonzero off-diagonal entry."""
    n = matrix.n
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            a = matrix.entries[i][j]
            if a != 0:
                edges.append((i, j, 1 if a > 0 else -1))
    return SignedGraph(n, tuple(edges))


def local_switch(graph: SignedGraph, k: int, in_set) -> SignedGraph:
    """Local switching at vertex k with respect to a subset of its neighbours.

    With I the chosen subset and J the remaining neighbours of k: edges
    between I and J are deleted where present and created with sign
    -sign(i,k) * sign(j,k) where absent, signs of edges from k into I flip,
    and everything else is untouched.
    """
    if not 0 <= k < graph.n:
        raise IndexError(f"switching vertex {k} out of range")
    in_set = set(in_set)
    if k in in_set:
        raise ValueError("the switching set cannot contain the switching vertex")
    nbrs = set(graph.neighbours(k))
    if not in_set <= nbrs:
        stray = sorted(in_set - nbrs)[0]
        raise _SignedGraphError("vertex {} is not a neighbour of {}", stray, k)
    out_set = nbrs - in_set

    edges = {(i, j): s for i, j, s in graph.edges}
    to_k = {v: edges[(v, k) if v < k else (k, v)] for v in nbrs}
    for i in in_set:
        for j in out_set:
            key = (i, j) if i < j else (j, i)
            if key in edges:
                del edges[key]
            else:
                edges[key] = -to_k[i] * to_k[j]
    for i in in_set:
        edges[(i, k) if i < k else (k, i)] = -to_k[i]
    return SignedGraph(graph.n, tuple((i, j, s) for (i, j), s in edges.items()))

"""Root systems in the simple-root basis, companion bases, signed graphs.

Vectors are integer coordinate tuples over the simple roots of a fixed type.
With cartan[i][j] = 2(a_i, a_j)/(a_i, a_i) and d_i = (a_i, a_i)/2, the
symmetric form is (v, w) = sum_ij v_i d_i cartan[i][j] w_j and the simple
reflection s_i subtracts (cartan row i) . v from coordinate i.  All values
stay in exact integer arithmetic.

A companion basis for an exchange matrix B is a Z-basis of the root lattice
made of roots whose mutual pairings reproduce |B| off the diagonal; it is
mutated by reflecting the vectors attached to arrows into the mutation
vertex.  The simple roots are one for every orientation of the
type's tree.  companion_basis finds one for a diagram by the class search
(diagram._search) that mutation_class runs, stopped at the first tree it
meets, in any orientation, and carries the simple roots back along the
search's steps.  companion_bases finds one for every member of a
finite-type mutation class: the input member's, carried forward along the
record of the search that found the class (MutationClass.tree), each step
relabeled by the canonical labeling that search recorded, so carrying runs
no canonical search.
_first_failing checks a presentation on the reflections in such a basis, the
lower bound of the certificates (coset._certify), by integer matrices read off
its companion matrix, each row packed into one int; it also checks the
mutation certificates' witness maps.  The sign pattern of a basis is tracked
by its signed graph, with one switching move that rewires the neighbourhood of
a vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import index, mul

from . import dynkin
from .diagram import DEFAULT_CLASS_CAP, Diagram, MutationClass, NotFiniteTypeError, _NamesVertices, _search, _tree_match
from .exchange import ExchangeMatrix, QuasiCartanMatrix, determinant, is_positive

__all__ = [
    "RootSystem",
    "build_root_system",
    "CompanionBasis",
    "simple_root_basis",
    "companion_matrix",
    "is_companion_basis",
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
    """A finite root system, closed under all simple reflections.

    roots is the full (positive and negative) root set, lexicographically
    sorted.  The symmetriser is computed: the least positive integers d with
    d_i cartan_ij = d_j cartan_ji on each component, so the form below is
    symmetric (for a Dynkin type, d_i = (a_i, a_i)/2, short roots at 1).  The form must be
    positive definite, so the root set is finite.  Construct via
    build_root_system, whose cache makes one object per type; equality is
    identity.
    """

    label: str
    cartan: tuple[tuple[int, ...], ...]
    symmetriser: tuple[int, ...] = field(init=False)
    n: int = field(init=False)
    roots: tuple[Coords, ...] = field(init=False)
    _root_set: frozenset[Coords] = field(init=False)

    def __post_init__(self):
        quasi = QuasiCartanMatrix(self.cartan)
        if not is_positive(quasi):
            raise ValueError(f"Cartan matrix of {self.label} is not of finite type: "
                             "its symmetrised form is not positive definite")
        object.__setattr__(self, "cartan", quasi.entries)
        object.__setattr__(self, "symmetriser", quasi.symmetriser)
        object.__setattr__(self, "n", quasi.n)
        roots = _close_under_reflections(quasi.entries, quasi.n)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "_root_set", frozenset(roots))

    def is_root(self, v) -> bool:
        return tuple(v) in self._root_set

    def simple_root(self, i: int) -> Coords:
        if not 0 <= i < self.n:
            raise IndexError(f"simple root index {i} out of range")
        return tuple(1 if j == i else 0 for j in range(self.n))

    def __repr__(self):
        return f"RootSystem({self.label}, {len(self.roots)} roots)"


def _close_under_reflections(cartan, n: int) -> tuple[Coords, ...]:
    """The roots: the simple roots closed under the simple reflections.  Each
    reflection reads only the nonzero entries of its Cartan row, and one whose
    coefficient is 0 fixes the root."""
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in cartan]
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for v in frontier:
            for i, row in enumerate(rows):
                coeff = sum(a * v[j] for j, a in row)
                if not coeff:
                    continue
                w = (*v[:i], v[i] - coeff, *v[i + 1:])
                if w not in seen:
                    seen.add(w)
                    new.append(w)
        frontier = new
    return tuple(sorted(seen))


@lru_cache(maxsize=None)
def build_root_system(label: str) -> RootSystem:
    """The root system of a Dynkin type label such as "A3" or "B/C2"."""
    normalized = dynkin.normalize_label(label)
    return RootSystem(normalized, dynkin.cartan_matrix(normalized))


def _form(system: RootSystem, w) -> tuple[list[int], int]:
    """w's image under the form, form_i = d_i (cartan_i . w), and its norm
    (w, w) = w . form, so that (v, w) = v . form is one length-n dot product."""
    form = [d * sum(map(mul, row, w)) for row, d in zip(system.cartan, system.symmetriser)]
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


def _reflector(system: RootSystem, beta) -> tuple[Coords, list[int], int]:
    """beta, checked to be a root, with its _form: all that a reflection in it reads."""
    beta = tuple(beta)
    if not system.is_root(beta):
        raise ValueError(f"{beta} is not a root of {system.label}")
    return (beta, *_form(system, beta))


def _reflect(v, beta, form: list[int], norm: int) -> Coords:
    coeff = _coroot(v, beta, sum(map(mul, v, form)), norm)
    return tuple([x - coeff * b for x, b in zip(v, beta)])


@dataclass(frozen=True, slots=True)
class CompanionBasis:
    """An ordered tuple of vectors in a root system, candidate companion basis.

    Construction only fixes the shape; validity against an exchange matrix is
    a separate check (is_companion_basis), so near-miss candidates can be
    built and interrogated.  Two bases are equal when they hold the same
    vectors in the same RootSystem object.
    """

    system: RootSystem
    vectors: tuple[Coords, ...]

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


def _coroot_pairings(basis: CompanionBasis) -> list[list[int]]:
    """(beta_i, beta_j^check) off the diagonal and 2 on it, raising _coroot's
    error at the first failing pair, row by row.  The form is symmetric
    (RootSystem checks its symmetriser), so the Gram matrix takes one dot
    product per pair i <= j, each beta_j through its image under the form,
    computed once."""
    vectors = basis.vectors
    n = len(vectors)
    gram = [[0] * n for _ in range(n)]
    for j, w in enumerate(vectors):
        form, gram[j][j] = _form(basis.system, w)
        for i in range(j):
            gram[i][j] = gram[j][i] = sum(map(mul, vectors[i], form))
    return [[2 if i == j else _coroot(v, w, gram[i][j], gram[j][j]) for j, w in enumerate(vectors)]
            for i, v in enumerate(vectors)]


def companion_matrix(basis: CompanionBasis) -> QuasiCartanMatrix:
    """The Gram-type matrix A[i][j] = (beta_i, beta_j^check) of the basis."""
    return QuasiCartanMatrix(_coroot_pairings(basis))


def is_companion_basis(basis: CompanionBasis, matrix: ExchangeMatrix) -> tuple[bool, str | None]:
    """Check roots, unimodularity, and the companion condition |A_ij| = |B_ij|.

    Returns (True, None) or (False, reason), testing in that order so the
    reason names the first failure.
    """
    n = matrix.n
    if len(basis.vectors) != n or basis.system.n != n:
        raise ValueError(f"rank mismatch: basis of {len(basis.vectors)} vectors in {basis.system.label} "
                         f"(rank {basis.system.n}) against a {n} x {n} matrix")
    for idx, v in enumerate(basis.vectors):
        if not basis.system.is_root(v):
            return False, f"vector {idx + 1} = {list(v)} is not a root"
    det = determinant([list(v) for v in basis.vectors])
    if det not in (1, -1):
        return False, f"not a lattice basis: determinant {det}"
    try:
        comp = _coroot_pairings(basis)
    except ValueError as exc:
        return False, str(exc)
    for i in range(n):
        for j in range(n):
            if i != j and abs(comp[i][j]) != abs(matrix.entries[i][j]):
                return False, (f"companion condition fails at ({i + 1},{j + 1}): "
                               f"|{comp[i][j]}| != |{matrix.entries[i][j]}|")
    return True, None


def mutate_companion(basis: CompanionBasis, k: int, diagram) -> CompanionBasis:
    """Mutate the basis at vertex k, guided by the arrows of the diagram:
    reflect beta_i in beta_k for each arrow i -> k.

    beta_k is kept and each reflection is an involution, so the step on the
    same diagram undoes it.  On the mutated diagram, whose arrows at k are
    reversed, it reflects the beta_i of the arrows k -> i instead.
    """
    n = len(basis.vectors)
    if diagram.n != n:
        raise ValueError(f"rank mismatch: diagram on {diagram.n} vertices, basis of {n} vectors")
    if not 0 <= k < n:
        raise IndexError(f"mutation vertex {k} out of range")
    hit = diagram.in_neighbours(k)
    out = list(basis.vectors)
    if hit:
        reflector = _reflector(basis.system, out[k])  # once for every hit vector
        for i in hit:
            out[i] = _reflect(out[i], *reflector)
    return CompanionBasis(basis.system, out)


def companion_bases(mclass: MutationClass) -> tuple[CompanionBasis, ...]:
    """A companion basis of every member's representative, indexed like members.

    The input's member takes companion_basis's basis, which is mutated inward
    forward along the class's BFS record (MutationClass.tree) to every member,
    each step relabeled by the labeling the search recorded.  The vectors live
    in build_root_system(type label).  Raises NotFiniteTypeError when the
    class is of no catalogued finite type.
    """
    root = mclass.tree[0][0]
    bases = {root: companion_basis(mclass.members[root])}
    for member, k, parent, perm in mclass.tree[1:]:
        # vertex q of the member is vertex perm[q] of the parent mutated at perm[k]
        mutated = mutate_companion(bases[parent], perm[k], mclass.members[parent]).vectors
        bases[member] = CompanionBasis(bases[root].system, [mutated[v] for v in perm])
    return tuple(bases[i] for i in range(len(mclass)))


def companion_basis(diagram: Diagram) -> CompanionBasis:
    """A companion basis for a connected diagram of finite type and rank <= 10.

    The class search of mutation_class (diagram._search), from the diagram
    over its labeled mutations, stopped at the first diagram that is a
    catalogue tree in any orientation (diagram._tree_match); that tree names
    the type, because a class of finite type holds all its type's trees and
    no other.  A tree input is its own stop and runs no canonical search.
    The simple roots on the tree's vertices, a companion basis of every
    orientation of the tree, are mutated inward back along the search's
    steps to the input.

    A class that holds no catalogue tree is searched to its end, so the input
    fails as mutation_class fails on it, with the same error naming the same
    vertices: NotFiniteTypeError when the class is not of finite type (or,
    once exhausted, of no catalogued type), MutationClassOverflow past the
    class cap, and ValueError above rank 10.
    """
    reached, _, match = _search(diagram, DEFAULT_CLASS_CAP, _tree_match)
    if not match:
        raise NotFiniteTypeError("mutation class of no known finite type")
    label, sperm, uperm = match
    system = build_root_system(label)
    vectors = [()] * diagram.n
    for s, u in zip(sperm, uperm):
        vectors[u] = system.simple_root(s)
    basis = CompanionBasis(system, vectors)
    current, position, k, _, _ = reached[-1]
    while position >= 0:
        basis = mutate_companion(basis, k, current)
        current, position, k, _, _ = reached[position]
    return basis


_BLOCK = 256  # letters evaluated at one digit width (_first_failing)


def _first_failing(entries, relations, images=None):
    """The first relation that the reflections of a pairing matrix do not
    satisfy, or None when all hold.

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
    (growth - 1).bit_length(); bits is the bit length of the largest entry,
    plus grow over the letters, plus 1.  It is taken per _BLOCK letters, each
    time from the largest entry that the rows reached (read off their digits),
    so a long relator whose entries stay small is checked in time linear in
    its length.
    """
    n = len(entries)
    column = [[(j, entries[j][g]) for j in range(n) if entries[j][g]] for g in range(n)]
    grow = [(abs(1 - entries[g][g]) + sum(abs(a) for j, a in column[g] if j != g) - 1).bit_length()
            for g in range(n)]
    identities = {}  # bits -> the packed identity rows
    for rel in relations:
        word = rel.word
        if images is not None:
            word = tuple(x for g in word for x in images[g])
        elif len(word) == 2 and rel.exponent == 2 and not entries[word[0]][word[1]] \
                and not entries[word[1]][word[0]] and entries[word[0]][word[0]] == entries[word[1]][word[1]] == 2:
            continue  # two involutions that read neither's coordinate: they commute
        word *= rel.exponent
        block = word[:_BLOCK]
        bits = sum(map(grow.__getitem__, block)) + 2  # the identity's entries are at most 1
        identity = identities.get(bits) or identities.setdefault(bits, [1 << bits * g for g in range(n)])
        rows = identity[:]
        for start in range(0, len(word), _BLOCK):
            if start:
                block = word[start:start + _BLOCK]
                digits = [_unpack(row, bits, n) for row in rows]
                top = max(1, *(abs(x) for row in digits for x in row))
                bits = top.bit_length() + sum(map(grow.__getitem__, block)) + 1
                rows = [sum(x << bits * c for c, x in enumerate(row)) for row in digits]
                identity = [1 << bits * g for g in range(n)]
            for g in block:
                row = rows[g]
                for j, a in column[g]:
                    row -= a * rows[j]
                rows[g] = row
        if rows != identity:
            return rel
    return None


def _unpack(row: int, bits: int, n: int) -> list[int]:
    """The n balanced base-2^bits digits of a packed row, lowest first."""
    half, mask = 1 << bits - 1, (1 << bits) - 1
    digits = []
    for _ in range(n):
        x = ((row + half) & mask) - half
        digits.append(x)
        row = (row - x) >> bits
    return digits


@dataclass(frozen=True)
class SignedGraph:
    """An undirected graph with +1/-1 edge signs; edges are (i, j, sign), i < j."""

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        seen = set()
        for i, j, s in self.edges:
            if not (0 <= i < j < self.n):
                raise _SignedGraphError("bad signed edge ({}, {})", i, j)
            if s not in (1, -1):
                raise ValueError(f"edge sign must be +1 or -1, not {s}")
            if (i, j) in seen:
                raise _SignedGraphError("duplicate signed edge ({}, {})", i, j)
            seen.add((i, j))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

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
    in_set = set(in_set)
    nbrs = set(graph.neighbours(k))
    if not in_set <= nbrs:
        stray = sorted(in_set - nbrs)[0]
        raise _SignedGraphError("vertex {} is not a neighbour of {}", stray, k)
    if k in in_set:
        raise ValueError("the switching set cannot contain the switching vertex")
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

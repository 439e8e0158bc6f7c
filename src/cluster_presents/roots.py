"""Root systems in the simple-root basis, companion bases, signed graphs.

Vectors are integer coordinate tuples over the simple roots of a fixed type.
With cartan[i][j] = 2(a_i, a_j)/(a_i, a_i) and d_i = (a_i, a_i)/2, the
symmetric form is (v, w) = sum_ij v_i d_i cartan[i][j] w_j and the simple
reflection s_i subtracts (cartan row i) . v from coordinate i.  All values
stay in exact integer arithmetic.

A companion basis for an exchange matrix B is a Z-basis of the root lattice
made of roots whose mutual pairings reproduce |B| off the diagonal; it is
mutated by reflecting the vectors attached to arrows into (or out of) the
mutation vertex.  The simple roots are one for every orientation of the
type's tree.  companion_bases finds one for every member of a finite-type
mutation class, by carrying the simple roots along the record of the BFS
that found the class, and companion_basis for one diagram, by carrying them
back along a search from the diagram that stops at the first tree it meets,
in any orientation.  Both relabel each step by the canonical labeling the
search recorded, so carrying runs no canonical search.  relations_hold checks
a presentation on the reflections in such a basis, the lower bound of the
certificates.  The sign pattern of a basis is tracked by its signed graph,
with one switching move that rewires the neighbourhood of a vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

from . import dynkin
from .diagram import (
    DEFAULT_CLASS_CAP,
    Diagram,
    MutationClass,
    NotFiniteTypeError,
    _class_bfs,
    _tree_match,
)
from .exchange import ExchangeMatrix, QuasiCartanMatrix, determinant

__all__ = [
    "RootSystem",
    "build_root_system",
    "pairing",
    "copairing",
    "reflect",
    "CompanionBasis",
    "simple_root_basis",
    "companion_matrix",
    "is_companion_basis",
    "mutate_companion",
    "companion_bases",
    "companion_basis",
    "relations_hold",
    "SignedGraph",
    "signed_graph",
    "local_switch",
]

Coords = tuple[int, ...]


@dataclass(frozen=True, slots=True, eq=False)
class RootSystem:
    """A finite root system, closed under all simple reflections.

    roots is the full (positive and negative) root set, lexicographically
    sorted.  Construct via build_root_system, whose cache makes one object per
    type; equality is identity.
    """

    label: str
    cartan: tuple[tuple[int, ...], ...]
    symmetriser: tuple[int, ...]
    n: int = field(init=False)
    roots: tuple[Coords, ...] = field(init=False)
    _root_set: frozenset[Coords] = field(init=False)

    def __post_init__(self):
        cartan = tuple(tuple(row) for row in self.cartan)
        object.__setattr__(self, "cartan", cartan)
        object.__setattr__(self, "symmetriser", tuple(self.symmetriser))
        object.__setattr__(self, "n", len(cartan))
        roots = _close_under_reflections(cartan, len(cartan))
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "_root_set", frozenset(roots))

    def is_root(self, v) -> bool:
        return tuple(v) in self._root_set

    def simple_root(self, i: int) -> Coords:
        if not 0 <= i < self.n:
            raise IndexError(f"simple root index {i} out of range")
        return tuple(1 if j == i else 0 for j in range(self.n))

    def simple_reflection(self, i: int, v) -> Coords:
        """s_i(v), subtracting <v, a_i^check> from coordinate i."""
        if not 0 <= i < self.n:
            raise IndexError(f"simple reflection index {i} out of range")
        coeff = sum(self.cartan[i][j] * v[j] for j in range(self.n))
        return tuple(v[j] - coeff if j == i else v[j] for j in range(self.n))

    def __repr__(self):
        return f"RootSystem({self.label}, {len(self.roots)} roots)"


def _close_under_reflections(cartan, n: int) -> tuple[Coords, ...]:
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for v in frontier:
            for i in range(n):
                coeff = sum(cartan[i][j] * v[j] for j in range(n))
                w = tuple(v[j] - coeff if j == i else v[j] for j in range(n))
                if w not in seen:
                    seen.add(w)
                    new.append(w)
        frontier = new
    return tuple(sorted(seen))


@lru_cache(maxsize=None)
def build_root_system(label: str) -> RootSystem:
    """The root system of a Dynkin type label such as "A3" or "B/C2"."""
    normalized = dynkin.normalize_label(label)
    return RootSystem(
        normalized,
        dynkin.cartan_matrix(normalized),
        dynkin.cartan_symmetriser(normalized),
    )


def _form(system: RootSystem, w) -> tuple[list[int], int]:
    """w's image under the form, form_i = d_i (cartan_i . w), and its norm
    (w, w) = w . form, so that (v, w) = v . form is one length-n dot product."""
    form = [d * sum(map(mul, row, w)) for row, d in zip(system.cartan, system.symmetriser)]
    return form, sum(map(mul, w, form))


def _coroot(v, w, form: list[int], norm: int) -> int:
    """(v, w^check) = 2 (v, w) / (w, w) from w's _form, with copairing's errors."""
    if norm == 0:
        raise ValueError("coroot pairing undefined: (w, w) = 0")
    value, remainder = divmod(2 * sum(map(mul, v, form)), norm)
    if remainder:
        raise ValueError(f"coroot pairing of {tuple(v)} against {tuple(w)} is not integral")
    return value


def pairing(system: RootSystem, v, w) -> int:
    """The symmetric bilinear form (v, w)."""
    return sum(map(mul, v, _form(system, w)[0]))


def copairing(system: RootSystem, v, w) -> int:
    """The coroot pairing (v, w^check) = 2 (v, w) / (w, w); w must not be isotropic."""
    return _coroot(v, w, *_form(system, w))


def _reflection(system: RootSystem, beta):
    """The reflection in the root beta as a function of v, raising reflect's
    errors; beta's _form is computed once, so each v costs one dot product."""
    beta = tuple(beta)
    if not system.is_root(beta):
        raise ValueError(f"{beta} is not a root of {system.label}")
    form, norm = _form(system, beta)

    def apply(v) -> Coords:
        coeff = _coroot(v, beta, form, norm)
        return tuple([x - coeff * b for x, b in zip(v, beta)])
    return apply


def reflect(system: RootSystem, beta, v) -> Coords:
    """Reflection of v in the hyperplane of the root beta."""
    return _reflection(system, beta)(v)


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
        vectors = tuple(tuple(int(x) for x in v) for v in self.vectors)
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
    """(beta_i, beta_j^check) off the diagonal and 2 on it, raising copairing's
    errors in its order.  Each beta_j is paired through its image under the
    form, computed once."""
    vectors = basis.vectors
    forms = [_form(basis.system, w) for w in vectors]
    return [[2 if i == j else _coroot(v, w, *forms[j]) for j, w in enumerate(vectors)]
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
        comp = companion_matrix(basis)
    except ValueError as exc:
        return False, str(exc)
    for i in range(n):
        for j in range(n):
            if i != j and abs(comp.entries[i][j]) != abs(matrix.entries[i][j]):
                return False, (
                    f"companion condition fails at ({i + 1},{j + 1}): "
                    f"|{comp.entries[i][j]}| != |{matrix.entries[i][j]}|"
                )
    return True, None


def mutate_companion(basis: CompanionBasis, k: int, diagram, direction: str = "inward") -> CompanionBasis:
    """Mutate the basis at vertex k, guided by the arrows of the diagram.

    Inward mutation reflects beta_i in beta_k when the diagram has an arrow
    i -> k; outward when the arrow is k -> i.  The two are mutually inverse
    across a mutation step.
    """
    n = len(basis.vectors)
    if diagram.n != n:
        raise ValueError(f"rank mismatch: diagram on {diagram.n} vertices, basis of {n} vectors")
    if not 0 <= k < n:
        raise IndexError(f"mutation vertex {k} out of range")
    if direction not in ("inward", "outward"):
        raise ValueError(f"direction must be 'inward' or 'outward', not {direction!r}")
    beta_k = basis.vectors[k]
    out = []
    for i in range(n):
        if direction == "inward":
            hit = diagram.weight(i, k) > 0
        else:
            hit = diagram.weight(k, i) > 0
        out.append(reflect(basis.system, beta_k, basis.vectors[i]) if hit else basis.vectors[i])
    return CompanionBasis(basis.system, out)


def _tree_start(diagram: Diagram) -> tuple[RootSystem, list[Coords]] | None:
    """The type's root system and its simple roots on the diagram's vertices, a
    companion basis of every orientation of the type's tree; None when the
    diagram is no such tree (diagram._tree_match)."""
    match = _tree_match(diagram)
    if match is None:
        return None
    label, sperm, uperm = match
    system = build_root_system(label)
    vectors = [()] * diagram.n
    for s, u in zip(sperm, uperm):
        vectors[u] = system.simple_root(s)
    return system, vectors


def _carry(system: RootSystem, rep: Diagram, k: int, vectors, perm) -> list[Coords]:
    """A basis of the representative rep, mutated inward at k and relabeled
    by perm: vertex q of the result is vertex perm[q] of rep mutated at k."""
    mutated = mutate_companion(CompanionBasis(system, vectors), k, rep, "inward").vectors
    return [mutated[v] for v in perm]


def _carry_back(system: RootSystem, reps, back, key, vectors) -> tuple[list[Coords], list[int]]:
    """A basis of reps[key] carried back along the search record `back`
    (diagram._class_bfs) to the input's member, with the input's labeling.

    Mutating a member at k' gives its parent's representative relabeled by
    the member's perm, so the step relabels by the inverse of perm."""
    k, parent, perm = back[key]
    while parent != key:
        vectors = _carry(system, reps[key], k, vectors, sorted(range(len(perm)), key=perm.__getitem__))
        key = parent
        k, parent, perm = back[key]
    return vectors, perm


def companion_bases(mclass: MutationClass) -> tuple[CompanionBasis, ...]:
    """A companion basis of every member's representative, indexed like members.

    The simple roots are a companion basis of every orientation of the type's
    tree (_tree_start).  They are carried (_carry) along the class's BFS
    record (MutationClass.tree) from the first tree member it reached back to
    the input's member, then forward along the record to every member, each
    step relabeled by the labeling the search recorded.  The vectors live in
    build_root_system(type label).  Raises NotFiniteTypeError when the class
    is of no catalogued finite type.
    """
    for start, *_ in mclass.tree:
        if found := _tree_start(mclass.members[start]):
            break
    else:
        raise NotFiniteTypeError("mutation class of no known finite type")
    system, vectors = found
    back = {member: (k, parent, perm) for member, k, parent, perm in mclass.tree}
    root = mclass.tree[0][0]
    bases = {root: _carry_back(system, mclass.members, back, start, vectors)[0]}
    for member, k, parent, perm in mclass.tree[1:]:
        bases[member] = _carry(system, mclass.members[parent], perm[k], bases[parent], perm)
    return tuple(CompanionBasis(system, bases[i]) for i in range(len(mclass)))


def companion_basis(diagram: Diagram) -> CompanionBasis:
    """A companion basis for a connected diagram of finite type and rank <= 10.

    A breadth-first search over the canonical forms of the diagram's mutation
    class, from the diagram (_class_bfs, the core of mutation_class), stops at
    the first member that is a catalogue tree in any orientation; that tree
    names the type, because a class of finite type holds all its type's trees
    and no other.  The simple roots, a companion basis of every orientation of
    the tree (_tree_start), are carried (_carry_back) back along the search's
    steps to the input's member, and end in the input's own labeling, all on
    the labelings the search recorded.

    A class that holds no catalogue tree is searched to its end, so the input
    fails as mutation_class fails on it: NotFiniteTypeError when the class is
    not of finite type (or, once exhausted, of no catalogued type),
    MutationClassOverflow past the class cap, and ValueError above rank 10.
    """
    reps: dict[bytes, Diagram] = {}
    back: dict[bytes, tuple[int, bytes, list[int]]] = {}
    for key in _class_bfs(diagram, DEFAULT_CLASS_CAP, reps, back, set()):
        if found := _tree_start(reps[key]):
            break
    else:
        raise NotFiniteTypeError("mutation class of no known finite type")
    system, vectors = found
    vectors, perm = _carry_back(system, reps, back, key, vectors)
    out = [()] * diagram.n
    for q, v in enumerate(perm):
        out[v] = vectors[q]
    return CompanionBasis(system, out)


def relations_hold(basis: CompanionBasis, relations) -> bool:
    """Do the reflections in the basis vectors satisfy every relation?

    Integers only, in coordinates over the basis: with A = companion_matrix,
    the reflection in beta_g sends x to x - (sum_j x_j A[j][g]) beta_g, that
    is, it subtracts (column g of A) . x from coordinate g.  A relator holds
    when its word fixes every unit vector.

    Why this bounds a presented group from below.  A basis of companion_bases
    or companion_basis is carried by mutations from the simple roots on a tree
    of the type, in any orientation, whose reflections generate the Weyl group
    W.  Each mutation keeps beta_k and replaces beta_i by beta_i or
    s_{beta_k} beta_i, so the carried reflections generate W.  When they
    satisfy the relations of a presentation, s_g |-> reflection in beta_g maps
    the presented group G onto W, so |G| >= |W| = prod d_i (coset.weyl_order).
    The coset tower bounds |G| from above by the product of its indices
    (coset.group_order); the two bounds meeting is the certificate |G| = |W|.
    """
    entries = _coroot_pairings(basis)
    n = len(entries)
    column = [[(j, entries[j][g]) for j in range(n) if entries[j][g]] for g in range(n)]
    identity = [[int(r == c) for c in range(n)] for r in range(n)]
    for rel in relations:
        if len(rel.word) == 2 and rel.exponent == 2 and not entries[rel.word[0]][rel.word[1]] \
                and not entries[rel.word[1]][rel.word[0]]:
            continue  # neither reflection reads the other's coordinate: they commute
        # rows[r][c] is coordinate r of the image of unit vector c; only the
        # word's letters change a coordinate
        rows = {}
        for g in rel.word * rel.exponent:
            row = rows.get(g, identity[g])
            for j, a in column[g]:
                row = [x - a * y for x, y in zip(row, rows.get(j, identity[j]))]
            rows[g] = row
        if any(row != identity[g] for g, row in rows.items()):
            return False
    return True


@dataclass(frozen=True)
class SignedGraph:
    """An undirected graph with +1/-1 edge signs; edges are (i, j, sign), i < j."""

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        seen = set()
        for i, j, s in self.edges:
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad signed edge ({i}, {j})")
            if s not in (1, -1):
                raise ValueError(f"edge sign must be +1 or -1, not {s}")
            if (i, j) in seen:
                raise ValueError(f"duplicate signed edge ({i}, {j})")
            seen.add((i, j))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    def sign(self, i: int, j: int) -> int:
        """Sign of edge {i, j}, or 0 when absent."""
        a, b = (i, j) if i < j else (j, i)
        for x, y, s in self.edges:
            if (x, y) == (a, b):
                return s
        return 0

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
        raise ValueError(f"vertex {stray} is not a neighbour of {k}")
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

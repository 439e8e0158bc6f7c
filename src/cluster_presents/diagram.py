"""Weighted oriented diagrams of exchange matrices and their mutation classes.

A diagram has an arrow i -> j of weight |B_ij B_ji| whenever B_ij > 0.  This
module implements the local mutation rule on diagrams, chordless-cycle
enumeration, the finite-type local validator, canonical labelings for
isomorphism testing (rank <= 10, dependency-free), and one breadth-first
search of a mutation class (_search): over labeled diagrams, one per
canonical form, to its end, which gives the class up to isomorphism
(mutation_class).  The class's type comes from the input's positive
quasi-Cartan companion (roots.companion_basis), not from the search.

Vertices are 0-based everywhere in the library; the text formats and the CLI
translate to 1-based.  An error that names vertices keeps them
(_NamesVertices), so the formats and the CLI print them 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import index
from typing import Optional

from .exchange import ExchangeMatrix

__all__ = [
    "Diagram",
    "DiagramError",
    "ChordlessCycle",
    "MutationClass",
    "MutationClassOverflow",
    "NotFiniteTypeError",
    "diagram_of",
    "mutate_diagram",
    "opposite",
    "connected_components",
    "chordless_cycles",
    "mutation_class",
]

MAX_CANONICAL_RANK = 10
DEFAULT_CLASS_CAP = 50000


class _NamesVertices(Exception):
    """An error whose message, a str.format template, names the vertices it
    keeps: 0-based in str(), as the library numbers them.  renamed(f) is the
    same error naming each vertex v as f(v), such as v + 1 (_one_based)."""

    def __init__(self, template: str, *vertices: int):
        super().__init__(template.format(*vertices))
        self.template, self.vertices = template, vertices

    def renamed(self, name):
        return type(self)(self.template, *map(name, self.vertices))


def _one_based(exc: Exception) -> str:
    """The message of exc with the vertices it names 1-based, as files and the CLI number them."""
    return str(exc.renamed(lambda v: v + 1)) if isinstance(exc, _NamesVertices) else str(exc)


class DiagramError(_NamesVertices, ValueError):
    """A diagram operation produced or met something structurally invalid."""


@dataclass(frozen=True, slots=True)
class Diagram:
    """Immutable weighted oriented graph without loops or parallel edges.

    Finite-type diagrams only carry weights 1..3; construction accepts any
    positive weight so that non-2-finite inputs (e.g. the diagram of a
    (2,-2) matrix, weight 4) can exist long enough to be reported as such.
    Adjacency is stored only for vertices with edges, so a large vertex count
    costs nothing until something walks the vertices.  edges may be given as
    any iterable of (i, j, weight); it is stored as a sorted tuple.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]
    _weights: dict[tuple[int, int], int] = field(init=False, compare=False)
    _out: dict[int, tuple[int, ...]] = field(init=False, compare=False)
    _in: dict[int, tuple[int, ...]] = field(init=False, compare=False)

    def __post_init__(self):
        try:  # a float or a string is refused, never truncated
            n = index(self.n)
            edges = [(index(i), index(j), index(w)) for i, j, w in self.edges]
        except TypeError:
            raise DiagramError("vertex count and edge entries must be integers") from None
        if n < 0:
            raise DiagramError("vertex count must be nonnegative")
        pairs: set[tuple[int, int]] = set()
        for i, j, w in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise DiagramError(f"edge ({{}},{{}}) out of range for n={n}", i, j)
            if i == j:
                raise DiagramError("self-loop at vertex {}", i)
            if w < 1:
                raise DiagramError(f"edge ({{}},{{}}) has non-positive weight {w}", i, j)
            if (i, j) in pairs or (j, i) in pairs:
                raise DiagramError("parallel edge between {} and {}", i, j)
            pairs.add((i, j))
        _diagram(n, tuple(sorted(edges)), self)

    def weight(self, i: int, j: int) -> int:
        """Weight of the oriented edge i -> j, or 0 if absent."""
        return self._weights.get((i, j), 0)

    def weight_between(self, i: int, j: int) -> int:
        """Weight of the edge between i and j in either direction, or 0."""
        return self._weights.get((i, j)) or self._weights.get((j, i)) or 0

    def out_neighbours(self, i: int) -> tuple[int, ...]:
        return self._out.get(i, ())

    def in_neighbours(self, i: int) -> tuple[int, ...]:
        return self._in.get(i, ())

    def neighbours(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(self.out_neighbours(i) + self.in_neighbours(i)))

    def max_weight(self) -> int:
        return max((w for _, _, w in self.edges), default=0)

    def __repr__(self) -> str:
        return f"Diagram({self.n}, {list(self.edges)})"


def _diagram(n: int, edges: tuple[tuple[int, int, int], ...], into=None) -> Diagram:
    """The Diagram on n vertices with these edges, which its caller guarantees
    valid: a sorted tuple of int triples (i, j, w) with i != j in range(n) and
    w >= 1, at most one for each pair {i, j}.  Builds the adjacency maps with
    no check of its own; sorted edges list each vertex's heads and tails in
    order.  Fills `into`, the constructor's own instance, or else a new one.
    The matrix's edges (_matrix_edges), mutate_diagram's rule and a
    relabeling of a diagram's edges, sorted again, all meet the guarantee."""
    weights: dict[tuple[int, int], int] = {}
    out: dict[int, list[int]] = {}
    inc: dict[int, list[int]] = {}
    for i, j, w in edges:
        weights[(i, j)] = w
        out.setdefault(i, []).append(j)
        inc.setdefault(j, []).append(i)
    diagram = object.__new__(Diagram) if into is None else into
    object.__setattr__(diagram, "n", n)
    object.__setattr__(diagram, "edges", edges)
    object.__setattr__(diagram, "_weights", weights)
    object.__setattr__(diagram, "_out", {v: tuple(heads) for v, heads in out.items()})
    object.__setattr__(diagram, "_in", {v: tuple(tails) for v, tails in inc.items()})
    return diagram


def _matrix_edges(entries) -> tuple[tuple[int, int, int], ...]:
    """The sorted edges (i, j, |B_ij B_ji|), one for each B_ij > 0, of a
    skew-symmetrisable matrix's entries: those of its diagram."""
    return tuple([(i, j, abs(b * entries[j][i])) for i, row in enumerate(entries) for j, b in enumerate(row) if b > 0])


def diagram_of(B: ExchangeMatrix) -> Diagram:
    """The diagram of a skew-symmetrisable matrix: i -> j iff B_ij > 0."""
    return _diagram(B.n, _matrix_edges(B.entries))


def opposite(diagram: Diagram) -> Diagram:
    """Reverse every edge, keeping weights."""
    return Diagram(diagram.n, ((j, i, w) for i, j, w in diagram.edges))


def mutate_diagram(diagram: Diagram, k: int) -> Diagram:
    """Mutate a diagram at vertex k.

    All edges at k are reversed.  For every path i -> k -> j with weights a, b
    the weight c of the closing edge j -> i is replaced by c' = max(a, b) - c
    on the reversed edge i -> j (no edge when c' = 0).

    Raises DiagramError when the rule cannot produce a valid diagram -- a
    conflicting edge i -> j already present, or c > max(a, b) -- which signals
    an input outside finite type.  (The rule is only guaranteed meaningful for
    2-finite diagrams.)
    """
    n = diagram.n
    if not 0 <= k < n:
        raise IndexError(f"mutation vertex {k} out of range for rank {n}")
    return _diagram(n, _mutated_edges(diagram, k))


def _mutated_edges(diagram: Diagram, k: int) -> tuple[tuple[int, int, int], ...]:
    """The sorted edges of the diagram mutated at vertex k, a vertex of it:
    mutate_diagram's rule and errors, and the edges a Diagram of them stores.
    An edge the mutation keeps is the diagram's own (i, j, w) object."""
    weights = diagram._weights
    new_edges: dict[tuple[int, int], tuple[int, int, int]] = {}
    for edge in diagram.edges:
        i, j, w = edge
        if i == k or j == k:
            new_edges[(j, i)] = (j, i, w)
        else:
            new_edges[(i, j)] = edge
    for i in diagram._in.get(k, ()):
        a = weights[(i, k)]
        for j in diagram._out.get(k, ()):
            b = weights[(k, j)]
            if (i, j) in weights:
                raise DiagramError(
                    "mutation at {1}: path {0}->{1}->{2} closed by a same-direction "
                    "edge {0}->{2} (diagram is not of finite type)", i, k, j)
            c = weights.get((j, i), 0)
            c_new = max(a, b) - c
            if c_new < 0:
                raise DiagramError(
                    f"mutation at {{1}}: closing weight {c} exceeds max({a},{b}) "
                    "on path {0}->{1}->{2}", i, k, j)
            new_edges.pop((j, i), None)
            if c_new > 0:
                new_edges[(i, j)] = (i, j, c_new)
    return tuple(sorted(new_edges.values()))


def connected_components(diagram: Diagram) -> list[tuple[tuple[int, ...], Diagram]]:
    """The connected components, ordered by least vertex.

    Each is its sorted vertex tuple and the induced subdiagram on it, whose
    vertex a is vertices[a].
    """
    seen: set[int] = set()
    components = []
    for v in range(diagram.n):
        if v in seen:
            continue
        seen.add(v)
        found, stack = [v], [v]
        while stack:
            for u in diagram.neighbours(stack.pop()):
                if u not in seen:
                    seen.add(u)
                    found.append(u)
                    stack.append(u)
        vertices = tuple(sorted(found))
        position = {old: new for new, old in enumerate(vertices)}
        components.append((vertices, Diagram(len(vertices), (
            (position[i], position[j], w) for i, j, w in diagram.edges if i in position))))
    return components


# ---------------------------------------------------------------------------
# chordless cycles


@dataclass(frozen=True)
class ChordlessCycle:
    """An induced cycle i_0, ..., i_{d-1}.

    `vertices` follows the edge orientation when `oriented` is true (every
    consecutive pair i_a -> i_{a+1} is an arrow), rotated so the smallest
    vertex comes first.  `weights[a]` is the weight of the edge between
    i_{a-1} and i_a (indices mod d), so weights[0] belongs to the closing
    edge i_{d-1} -- i_0.
    """

    vertices: tuple[int, ...]
    weights: tuple[int, ...]
    oriented: bool

    def __len__(self) -> int:
        return len(self.vertices)


def chordless_cycles(diagram: Diagram) -> list[ChordlessCycle]:
    """All chordless cycles of the underlying unoriented graph.

    Each cycle is reported once, minimum vertex first.  Cycles that are not
    cyclically oriented are flagged rather than rejected; the finite-type
    validator turns the flag into a failure.  Output is sorted
    lexicographically by vertex sequence.
    """
    ordered = {v: diagram.neighbours(v) for v in sorted({*diagram._out, *diagram._in})}  # vertices with edges
    # per vertex, how many interior vertices of the path (all but its ends)
    # it is adjacent to: a vertex with a count above 0 would make a chord
    inner = dict.fromkeys(ordered, 0)
    found: list[tuple[int, ...]] = []
    for s, around in ordered.items():
        closing = set(around)
        for t in around:
            if t < s:
                continue
            # depth-first over chordless paths s, t, ...: one neighbour
            # iterator per path vertex after s, so no recursion
            path, members, stack = [s, t], {s, t}, [iter(ordered[t])]
            while stack:
                for v in stack[-1]:
                    if v <= s or v in members or inner[v]:
                        continue
                    if v in closing:
                        if path[1] < v:
                            found.append((*path, v))
                        continue  # extending past v would keep the chord v--s
                    for u in ordered[path[-1]]:
                        inner[u] += 1
                    path.append(v)
                    members.add(v)
                    stack.append(iter(ordered[v]))
                    break
                else:
                    stack.pop()
                    members.remove(path.pop())
                    if len(path) > 1:
                        for u in ordered[path[-1]]:
                            inner[u] -= 1

    cycles = []
    for vs in found:
        d = len(vs)
        forward = all(diagram.weight(vs[a], vs[(a + 1) % d]) > 0 for a in range(d))
        backward = all(diagram.weight(vs[(a + 1) % d], vs[a]) > 0 for a in range(d))
        if backward and not forward:
            vs = (vs[0],) + tuple(reversed(vs[1:]))
        oriented = forward or backward
        weights = tuple(diagram.weight_between(vs[a - 1], vs[a]) for a in range(d))
        cycles.append(ChordlessCycle(vs, weights, oriented))
    cycles.sort(key=lambda c: c.vertices)
    return cycles


# ---------------------------------------------------------------------------
# finite-type local validation


def _cycle_weights_allowed(weights: tuple[int, ...]) -> bool:
    d = len(weights)
    if all(w == 1 for w in weights):
        return True
    if d == 3 and sorted(weights) == [1, 2, 2]:
        return True
    if d == 4 and weights[0] == weights[2] and weights[1] == weights[3] \
            and sorted((weights[0], weights[1])) == [1, 2]:
        return True
    return False


def _validate_local(diagram: Diagram, cycles) -> Optional[str]:
    """Local finite-type checks on the diagram's chordless cycles, given, and
    on its 3-vertex subdiagrams: the first violation's description, or None.

    Checks that (i) every chordless cycle is cyclically oriented, (ii) cycle
    weights are all 1, a (2,2,1) triangle, or an alternating (1,2,1,2)
    4-cycle, and (iii) every connected induced 3-vertex subdiagram is one of:
    path with weights {1,1} or {1,2}, triangle with weights {1,1,1} or
    {2,2,1}.  The cycles are checked first, in their order; then the
    connected triples, those of two neighbours of a middle vertex, in
    lexicographic order.
    """
    for cycle in cycles:
        if not cycle.oriented:
            return "chordless cycle is not cyclically oriented"
        if not _cycle_weights_allowed(cycle.weights):
            return f"cycle weights {cycle.weights} outside the finite-type catalog"
    triples = {tuple(sorted((m, a, b))) for m in {*diagram._out, *diagram._in}
               for a, b in combinations(diagram.neighbours(m), 2)}
    for i, j, k in sorted(triples):
        ws = sorted(w for w in (diagram.weight_between(i, j),
                                diagram.weight_between(j, k),
                                diagram.weight_between(i, k)) if w)
        ok = (ws == [1, 1] or ws == [1, 2]) if len(ws) == 2 \
            else (ws == [1, 1, 1] or ws == [1, 2, 2])
        if not ok:
            return f"induced subdiagram weights {tuple(ws)} outside the catalog"
    return None


# ---------------------------------------------------------------------------
# canonical labeling

# Weights <= 4 keep a forward code (1..4) apart from a backward one (5..8);
# _CODE_BASE exceeds every code.
_CODE_BASE = 128


def _code_matrix(n: int, edges) -> list[list[int]]:
    """code[p][q] over the n vertices of the edges (i, j, w): w for an edge
    p -> q of weight w, w + 4 for an edge q -> p, 0 for no edge.  Raises
    ValueError on a weight above 4."""
    code = [[0] * n for _ in range(n)]
    for i, j, w in edges:
        if w > 4:
            raise ValueError("edge weight too large to encode")
        code[i][j] = w
        code[j][i] = w + 4
    return code


def _refined_ranks(code: list[list[int]]) -> list[int]:
    """Colour refinement of the vertices by iterated neighbourhood signatures.

    Every vertex starts in one cell; each round splits the cells by the
    sorted (code, cell) pairs of a vertex's edges, and numbers the cells in
    signature order.  It stops when a round splits no cell, or when every
    cell is a singleton: a signature starts with the vertex's cell, so a
    round that splits nothing renumbers nothing.  Computed from the code
    values only, so an isomorphism of diagrams maps each vertex to one of the
    same rank: the ranks are part of the canonical form (_canonical_search).
    """
    n = len(code)
    edges = [[(u, c) for u, c in enumerate(row) if c] for row in code]
    rank = [0] * n
    cells = 1
    while cells < n:
        sigs = [(rank[v], tuple(sorted([(c, rank[u]) for u, c in edges[v]])))
                for v in range(n)]
        position = {s: r for r, s in enumerate(sorted(set(sigs)))}
        if len(position) == cells:
            break
        cells = len(position)
        rank = [position[s] for s in sigs]
    return rank


def _check_canonical_rank(n: int) -> None:
    """Refuse a rank beyond the canonical labeling's with ValueError: the one
    check, and the one message, of every caller that labels canonically."""
    if n > MAX_CANONICAL_RANK:
        raise ValueError(f"canonical form supports rank <= {MAX_CANONICAL_RANK}, not {n}")


def _canonical_search(n: int, edges) -> tuple[list[int], list[int]]:
    """Minimal edge-code sequence over the rank-sorted labelings, with its
    permutation, of the diagram on n vertices with the edges (i, j, w).

    The encoding lists, for each position q in turn, the block of codes
    code[perm[p]][perm[q]] against the already-placed positions p < q.  The
    labelings searched are those that list the vertices in non-decreasing
    _refined_ranks rank; the encoding is the least over them.  The ranks come
    from the codes alone, so the searched labelings of isomorphic diagrams
    correspond and give the same least encoding; and an encoding determines
    the labeled diagram.  So two diagrams get equal encodings iff they are
    isomorphic as weighted oriented graphs.

    Min-block rule: the depth-first search places, at each depth, only the
    unused vertices whose block is smallest, and cuts a branch as soon as that
    block exceeds the best encoding's block at the same depth.  An unused
    vertex's block starts at its rank, so at depth d it is
    rank * _CODE_BASE**d plus the codes, and only the least-rank cell that is
    left branches.  This drops no labeling that could be least: every
    labeling's blocks have the same lengths 0, 1, ..., n-1, so a larger block
    at depth d loses to a smaller one after the same prefix whatever follows.
    Of the least labelings the search returns the first in vertex order.

    Two shortcuts keep that labeling.  When the ranks are all distinct, the
    one rank-sorted labeling is returned without a search.  And u < v are
    twins when swapping them fixes the code matrix (equal codes against
    every other vertex, and code[u][v] == code[v][u]): that swap is an
    automorphism fixing everything placed, so v's subtree mirrors u's, which
    comes first, and the search skips v while a lower twin is unused
    (pruning by automorphisms, as McKay and Piperno, arXiv:1301.1493).  A
    cell that never splits, such as the leaves of a star, then costs one
    branch per depth, not every order of its vertices.

    A block is held as one integer, its codes as digits in base _CODE_BASE,
    which compares like the tuple of codes among blocks of one length.
    """
    _check_canonical_rank(n)
    code = _code_matrix(n, edges)
    rank = _refined_ranks(code)
    if len(set(rank)) == n:
        perm = sorted(range(n), key=rank.__getitem__)
        return [code[perm[p]][perm[q]] for q in range(n) for p in range(q)], perm
    twins = [[u for u in range(v) if rank[u] == rank[v] and code[u][v] == code[v][u]
              and all(code[u][w] == code[v][w] and code[w][u] == code[w][v]
                      for w in range(n) if w != u and w != v)]
             for v in range(n)]
    best: list[int] = []  # blocks of the best encoding so far, one per depth
    best_perm: list[int] = []
    blocks: list[int] = []
    perm: list[int] = []

    def search(unused: dict[int, int], bounded: bool) -> None:
        # unused: block of each unused vertex; bounded: the blocks placed so
        # far equal best[:depth], so best bounds this branch.
        if not unused:
            if not bounded:  # strictly below the best so far
                best[:], best_perm[:] = blocks, perm
            return
        low = min(unused.values())
        if bounded:
            if low > best[len(blocks)]:
                return
            bounded = low == best[len(blocks)]
        blocks.append(low)
        for v, block in unused.items():
            if block != low or any(u in unused for u in twins[v]):
                continue
            row = code[v]
            perm.append(v)
            search({u: b * _CODE_BASE + row[u] for u, b in unused.items() if u != v}, bounded)
            perm.pop()
            bounded = True  # the branch just searched left best[:depth + 1] equal to ours
        blocks.pop()

    search(dict(enumerate(rank)), False)
    codes = [code[best_perm[p]][best_perm[q]] for q in range(n) for p in range(q)]
    return codes, best_perm


def _relabel(diagram: Diagram, perm: list[int]) -> Diagram:
    """The copy whose vertex q is vertex perm[q] of `diagram`."""
    position = {old: new for new, old in enumerate(perm)}
    return _diagram(diagram.n, tuple(sorted([(position[i], position[j], w) for i, j, w in diagram.edges])))


def _canonical_labeling(n: int, edges) -> tuple[bytes, list[int]]:
    """Canonical form and a labeling realizing it, of the diagram on n
    vertices with the edges (i, j, w): relabeling its vertex perm[q] as q
    gives the canonical representative."""
    codes, perm = _canonical_search(n, edges)
    return bytes([n]) + bytes(codes), perm


# ---------------------------------------------------------------------------
# mutation classes


class MutationClassOverflow(RuntimeError):
    """Raised when the BFS member count exceeds the cap."""

    def __init__(self, cap: int):
        super().__init__(f"mutation class exceeds cap of {cap} members "
                         "(not finite type, or raise the cap)")
        self.cap = cap


class NotFiniteTypeError(_NamesVertices, RuntimeError):
    """Raised when mutation-class enumeration meets a non-finite-type member."""


def _search(diagram: Diagram, cap: int):
    """Breadth-first search of a diagram's mutation class: (reached, mutations).

    From the diagram, by mutate_diagram's rule (_mutated_edges), which keeps
    the vertex labels, the search keeps the first diagram it reaches of each
    canonical form.  `reached` lists them in discovery order as (diagram,
    parent position, vertex mutated, key, perm), (key, perm) being its
    _canonical_labeling, the input first with parent and vertex -1.
    `mutations` lists the key of each kept diagram mutated at each vertex,
    that of reached[p] at k at mutations[p * n + k], n the rank.

    Each mutation edge is labeled once, from the end expanded first.
    Mutation is an involution, so when reached[p] mutated at k has the key
    of reached[j] with j >= p, the two labelings map k to the vertex
    x = reached[j]'s perm[perm.index(k)] at which reached[j] mutates back to
    reached[p]'s key; `known` holds that key for (j, x) until reached[j] is
    expanded, which then neither mutates nor labels at x.  (For j == p
    that is only news when x > k; a new child's x is the vertex that
    reached it.)  Such a mutation is the inverse of one that succeeded, so
    it cannot fail, and the search raises where one mutating every kept
    diagram at every vertex would.

    A child is labeled from its sorted edges, and two parents of one BFS
    layer often mutate to the same labeled child.  So `labels` holds the
    _canonical_labeling of each child that the layer being expanded reached,
    by its edges, and is emptied when the next layer starts: it never holds
    more than one layer.  A Diagram is built only for a child with a new key;
    a repeated one stays a tuple of edges, most of them its parent's.

    Raises NotFiniteTypeError on an input edge of weight > 3 (the rule's new
    weights max(a, b) - c then stay <= 3) or where the mutation rule breaks
    down, naming mutate_diagram's vertices, MutationClassOverflow when more
    than `cap` diagrams are kept, and ValueError above MAX_CANONICAL_RANK.
    """
    if diagram.max_weight() > 3:
        raise NotFiniteTypeError(f"edge of weight {diagram.max_weight()} violates 2-finiteness")
    n = diagram.n
    reached = [(diagram, -1, -1, *_canonical_labeling(n, diagram.edges))]
    seen = {reached[0][3]: 0}  # key -> position in reached
    known = {}  # (position, x) -> key of reached[position] mutated at x
    labels = {}  # sorted edges -> _canonical_labeling, of this layer's children
    layer_end = 1  # the position where the layer being expanded ends
    mutations = []
    for position, (parent, _, _, near, _) in enumerate(reached):  # grows as it goes
        if position == layer_end:
            labels.clear()
            layer_end = len(reached)
        for k in range(n):
            if (position, k) in known:
                mutations.append(known.pop((position, k)))
                continue
            try:
                edges = _mutated_edges(parent, k)
            except DiagramError as exc:
                raise NotFiniteTypeError(exc.template, *exc.vertices) from exc
            labeled = labels.get(edges)
            if labeled is None:
                labeled = labels[edges] = _canonical_labeling(n, edges)
            key, perm = labeled
            mutations.append(key)
            if key not in seen:
                if len(seen) >= cap:
                    raise MutationClassOverflow(cap)
                seen[key] = len(reached)
                child = _diagram(n, edges)
                reached.append((child, position, k, key, perm))
            j = seen[key]
            x = reached[j][4][perm.index(k)]
            if j > position or (j == position and x > k):
                known[(j, x)] = near
    return reached, mutations


@dataclass(frozen=True)
class MutationClass:
    """A mutation class up to diagram isomorphism.

    `members` are canonical representatives sorted by canonical form (the
    least edge-code encoding over the labelings in non-decreasing refinement
    rank, _canonical_search), each labeled as its key lists it; `keys` are
    those forms; `edges` holds (member index, vertex, member index) mutation
    adjacencies in the representatives' labeling; `type_label` is the
    Dynkin type of the input's companion basis (roots.companion_basis), the
    type of its positive quasi-Cartan companion's root system, which every
    member shares.  B_n and C_n share a diagram, so they are reported merged
    as "B/Cn"; "unknown" when the input has no such companion (a disconnected
    diagram's class, say).  `tree`, in no
    == or repr, is how the class search (_search) first reached each member,
    in discovery order, as (member, k', parent, perm) in member indices:
    vertex q of the member is vertex perm[q] of the parent mutated at
    perm[k'].  The input's member comes first, as (member, -1, member, perm),
    and its vertex q is the input's vertex perm[q].
    """

    members: tuple[Diagram, ...]
    keys: tuple[bytes, ...]
    edges: frozenset[tuple[int, int, int]]
    type_label: str
    tree: tuple[tuple[int, int, int, tuple[int, ...]], ...] = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.members)


def mutation_class(diagram: Diagram, cap: int = DEFAULT_CLASS_CAP) -> MutationClass:
    """The closure of a diagram under mutation, deduplicated by canonical form.

    Each diagram that _search keeps, run to its end, gives the member that
    its canonical labeling makes of it; members are emitted in canonical-form
    order, and type_label is the input's companion basis's type.  Vertex
    k of a kept diagram with labeling perm is vertex perm.index(k) of its
    member, which turns the search's mutations into the edges (those of
    mutating every member at every vertex; the search records each kept
    diagram's mutation back to its parent among them) and each kept diagram's
    parent into the tree.  Raises as _search does.
    """
    from .roots import companion_basis  # deferred: roots imports this module
    reached, mutations = _search(diagram, cap)
    ordered = sorted(reached, key=lambda entry: entry[3])
    keys = tuple(entry[3] for entry in ordered)
    index = {key: i for i, key in enumerate(keys)}
    member = [index[entry[3]] for entry in reached]
    perms = [entry[4] for entry in reached]
    n = diagram.n
    edges = frozenset((member[e // n], perms[e // n].index(e % n), index[key])
                      for e, key in enumerate(mutations))
    tree = [(member[0], -1, member[0], tuple(perms[0]))]
    for c, (_, p, k, _, perm) in enumerate(reached[1:], 1):
        tree.append((member[c], perm.index(k), member[p], tuple(perms[p].index(v) for v in perm)))
    members = tuple(_relabel(d, perm) for d, _, _, _, perm in ordered)
    try:
        label = companion_basis(diagram).system.label
    except NotFiniteTypeError:
        label = "unknown"
    return MutationClass(members, keys, edges, label, tuple(tree))

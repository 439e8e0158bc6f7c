"""Diagram layer: mutation, chordless cycles, validation, canonical forms, classes.

The heavier guarantees are cross-checked against brute-force oracles: subset
enumeration for chordless cycles, permutation search for isomorphism, and a
labeled-state BFS for mutation-class sizes.
"""

import ast
import inspect
import random
import time
from itertools import combinations, permutations

import pytest

from cluster_presents import diagram as diagram_module, dynkin
from cluster_presents.diagram import (
    ChordlessCycle,
    _canonical_labeling,
    _canonical_search,
    _code_matrix,
    _refined_ranks,
    _relabel,
    _search,
    _validate_local,
    Diagram,
    DiagramError,
    MutationClassOverflow,
    NotFiniteTypeError,
    chordless_cycles,
    diagram_of,
    mutate_diagram,
    mutation_class,
    opposite,
)
from cluster_presents.exchange import ExchangeMatrix, mutate_matrix
from cluster_presents.roots import companion_basis


FOUR_CYCLE_MATRIX = ExchangeMatrix([[0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1], [1, 0, -1, 0]])


def _random_edges(rng, n, max_weight=3, p=0.5):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = rng.randrange(1, max_weight + 1)
                if rng.random() < 0.5:
                    edges.append((i, j, w))
                else:
                    edges.append((j, i, w))
    return edges


def _random_diagram(rng, n, max_weight=3, p=0.5):
    return Diagram(n, _random_edges(rng, n, max_weight, p))


def _induced_cycles(n, edges):
    """Oracle on a plain edge list (i, j, weight), sharing no code with the
    package: a vertex subset is a chordless cycle iff its induced graph is a
    cycle.  Each comes as (vertices, weights, oriented) in the form
    chordless_cycles reports: smallest vertex first, along the arrows when
    they run around the cycle, else towards its smaller neighbour; weights[a]
    on the edge between vertices[a-1] and vertices[a]."""
    arrow = {(i, j): w for i, j, w in edges}
    weight = {**arrow, **{(j, i): w for (i, j), w in arrow.items()}}
    out = set()
    for size in range(3, n + 1):
        for subset in combinations(range(n), size):
            neighbours = {v: sorted(u for u in subset if (v, u) in weight) for v in subset}
            if any(len(us) != 2 for us in neighbours.values()):
                continue
            # all degree 2: walk from the smallest vertex towards its smaller
            # neighbour; the subset is one cycle when the walk takes it all
            walk = [subset[0], neighbours[subset[0]][0]]
            while True:
                a, b = neighbours[walk[-1]]
                step = b if a == walk[-2] else a
                if step == walk[0]:
                    break
                walk.append(step)
            if len(walk) != size:
                continue
            pairs = list(zip(walk, walk[1:] + walk[:1]))
            forward = all(pair in arrow for pair in pairs)
            backward = all((v, u) in arrow for u, v in pairs)
            if backward and not forward:
                walk = walk[:1] + walk[:0:-1]
            weights = tuple(weight[walk[a - 1], walk[a]] for a in range(size))
            out.add((tuple(walk), weights, forward or backward))
    return out


# ----------------------------------------------------------------- basics


def test_diagram_construction_and_accessors():
    d = Diagram(3, [(0, 1, 1), (2, 1, 2)])
    assert d.weight(0, 1) == 1
    assert d.weight(1, 0) == 0
    assert d.weight_between(1, 2) == 2
    assert d.out_neighbours(0) == (1,)
    assert d.in_neighbours(1) == (0, 2)
    assert d.neighbours(1) == (0, 2)


def test_diagram_rejects_bad_edges():
    with pytest.raises(DiagramError):
        Diagram(2, [(0, 0, 1)])
    with pytest.raises(DiagramError):
        Diagram(2, [(0, 1, 1), (1, 0, 1)])
    with pytest.raises(DiagramError):
        Diagram(2, [(0, 1, 0)])
    with pytest.raises(DiagramError):
        Diagram(2, [(0, 2, 1)])


def test_diagram_errors_keep_the_vertices_they_name():
    # str() names the library's 0-based vertices; renamed names them anew
    with pytest.raises(DiagramError) as loop:
        Diagram(2, [(0, 0, 1)])
    assert (str(loop.value), loop.value.vertices) == ("self-loop at vertex 0", (0,))
    assert str(loop.value.renamed(lambda v: v + 1)) == "self-loop at vertex 1"
    with pytest.raises(DiagramError) as parallel:
        Diagram(3, [(0, 1, 1), (1, 0, 1)])
    assert str(parallel.value) == "parallel edge between 1 and 0"
    with pytest.raises(DiagramError) as breakdown:
        mutate_diagram(Diagram(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]), 1)
    assert str(breakdown.value) == (
        "mutation at 1: path 0->1->2 closed by a same-direction edge 0->2 (diagram is not of finite type)")
    assert str(breakdown.value.renamed([7, 8, 9].__getitem__)) == (
        "mutation at 8: path 7->8->9 closed by a same-direction edge 7->9 (diagram is not of finite type)")
    # inside a class search the breakdown is NotFiniteTypeError naming the same vertices
    with pytest.raises(NotFiniteTypeError) as search:
        mutation_class(Diagram(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]))
    assert search.value.vertices and search.value.template == breakdown.value.template


def test_diagram_of_examples():
    assert diagram_of(ExchangeMatrix([[0, 1], [-1, 0]])).edges == ((0, 1, 1),)
    assert diagram_of(ExchangeMatrix([[0, 2], [-1, 0]])).edges == ((0, 1, 2),)
    cycle = diagram_of(FOUR_CYCLE_MATRIX)
    assert cycle.edges == ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1))


def test_opposite_reverses_edges():
    d = diagram_of(FOUR_CYCLE_MATRIX)
    assert opposite(opposite(d)) == d
    assert opposite(d).weight(1, 0) == 1


# ----------------------------------------------------------------- mutation


def test_mutate_weight1_triangle_rule():
    # path 1 -> 2 -> 3 mutated at the middle becomes a cyclically oriented triangle
    path = Diagram(3, [(0, 1, 1), (1, 2, 1)])
    tri = mutate_diagram(path, 1)
    assert set(tri.edges) == {(1, 0, 1), (2, 1, 1), (0, 2, 1)}
    # and back
    assert mutate_diagram(tri, 1) == path


def test_mutate_matches_matrix_mutation_on_seeds():
    rng = random.Random(21)
    for label in ("A4", "B/C3", "D4", "F4", "G2", "A6", "D5", "E6"):
        B = dynkin.standard_exchange_matrix(label)
        d = diagram_of(B)
        for _ in range(200):
            k = rng.randrange(B.n)
            B = mutate_matrix(B, k)
            d = mutate_diagram(d, k)
            assert d == diagram_of(B)


def test_mutate_diagram_involution():
    rng = random.Random(22)
    for label in ("A5", "B/C4", "D4", "F4"):
        d = dynkin.standard_diagram(label)
        for _ in range(100):
            k = rng.randrange(d.n)
            d2 = mutate_diagram(d, k)
            assert mutate_diagram(d2, k) == d
            d = d2


def test_mutate_four_cycle_at_vertex_one():
    # mutating the oriented 4-cycle at its first vertex gives the D4-star shape
    d = diagram_of(FOUR_CYCLE_MATRIX)
    out = mutate_diagram(d, 0)
    assert set(out.edges) == {(1, 0, 1), (0, 3, 1), (3, 1, 1), (1, 2, 1), (2, 3, 1)}


def test_mutate_nonfinite_conflict_raises():
    # i -> k -> j plus an existing same-direction edge i -> j
    bad = Diagram(3, [(0, 2, 1), (2, 1, 1), (0, 1, 1)])
    with pytest.raises(DiagramError):
        mutate_diagram(bad, 2)


def test_mutate_weighted_triangle_drops_closing_edge():
    # path 2 -> 0 -> 1 has max weight 2 and the closing edge already carries 2,
    # so the mutated weight is max(1, 2) - 2 = 0: the triangle opens into a path
    tri = Diagram(3, [(0, 1, 2), (1, 2, 2), (2, 0, 1)])
    out = mutate_diagram(tri, 0)
    assert set(out.edges) == {(1, 0, 2), (0, 2, 1)}


# ----------------------------------------------------------------- chordless cycles


def test_chordless_cycles_of_oriented_four_cycle():
    cycles = chordless_cycles(diagram_of(FOUR_CYCLE_MATRIX))
    assert len(cycles) == 1
    assert cycles[0].vertices == (0, 1, 2, 3)
    assert cycles[0].weights == (1, 1, 1, 1)
    assert cycles[0].oriented


def test_chordless_cycle_weights_follow_preceding_edge():
    tri = Diagram(3, [(0, 1, 2), (1, 2, 1), (2, 0, 2)])
    (cycle,) = chordless_cycles(tri)
    assert cycle.vertices == (0, 1, 2)
    # weights[a] is the weight between vertices[a-1] and vertices[a]
    assert cycle.weights == (2, 2, 1)


def test_triangle_with_chord_square():
    # 4-cycle with a chord decomposes into two triangles
    d = Diagram(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 1)])
    cycles = chordless_cycles(d)
    assert sorted(frozenset(c.vertices) for c in cycles) == sorted(
        [frozenset({0, 1, 2}), frozenset({0, 2, 3})]
    )


def test_chordless_cycles_against_subset_oracle():
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randrange(3, 8)
        edges = _random_edges(rng, n, p=rng.choice([0.3, 0.5, 0.7]))
        got = [(c.vertices, c.weights, c.oriented) for c in chordless_cycles(Diagram(n, edges))]
        assert got == sorted(_induced_cycles(n, edges)), edges  # each cycle once, sorted


def test_chordless_cycles_walk_long_paths_without_recursion():
    # a chain and an oriented cycle of 1,000 vertices, the presentations' rank limit
    n = 1000
    assert chordless_cycles(Diagram(n, [(i, i + 1, 1) for i in range(n - 1)])) == []
    (cycle,) = chordless_cycles(Diagram(n, [(i, (i + 1) % n, 1) for i in range(n)]))
    assert cycle.vertices == tuple(range(n)) and cycle.oriented


# ----------------------------------------------------------------- validation


def _first_violation(diagram):
    """_validate_local on the diagram's own chordless cycles."""
    return _validate_local(diagram, chordless_cycles(diagram))


def test_validator_accepts_finite_type_catalog():
    assert _first_violation(dynkin.standard_diagram("F4")) is None
    assert _first_violation(diagram_of(FOUR_CYCLE_MATRIX)) is None
    tri221 = Diagram(3, [(0, 1, 2), (1, 2, 2), (2, 0, 1)])
    assert _first_violation(tri221) is None


def test_validator_rejects_non_oriented_cycle():
    bad = Diagram(3, [(0, 1, 1), (0, 2, 1), (2, 1, 1)])
    assert _first_violation(bad) == "chordless cycle is not cyclically oriented"


def test_validator_rejects_bad_cycle_weights():
    # its triple (2, 2, 2) fails too; the cycle is checked first
    bad = Diagram(3, [(0, 1, 2), (1, 2, 2), (2, 0, 2)])
    assert _first_violation(bad) == "cycle weights (2, 2, 2) outside the finite-type catalog"


def test_validator_rejects_bad_three_vertex_path():
    bad = Diagram(3, [(0, 1, 2), (1, 2, 2)])  # path with weights {2,2}
    assert _first_violation(bad) == "induced subdiagram weights (2, 2) outside the catalog"


def test_validator_rejects_weight3_in_company():
    bad = Diagram(3, [(0, 1, 3), (1, 2, 1)])  # G2 edge with a neighbour
    assert _first_violation(bad) is not None
    alone = Diagram(2, [(0, 1, 3)])
    assert _first_violation(alone) is None


def _violations_by_full_scan(diagram):
    """Oracle: each chordless cycle's violation in order, then every vertex
    triple in lexicographic order, kept when connected and outside the catalog."""
    found = []
    for cycle in chordless_cycles(diagram):
        w = cycle.weights
        allowed = (all(x == 1 for x in w) or (len(w) == 3 and sorted(w) == [1, 2, 2])
                   or (len(w) == 4 and w[0] == w[2] != w[1] == w[3] and {w[0], w[1]} == {1, 2}))
        if not cycle.oriented:
            found.append("chordless cycle is not cyclically oriented")
        elif not allowed:
            found.append(f"cycle weights {w} outside the finite-type catalog")
    for i, j, k in combinations(range(diagram.n), 3):
        ws = sorted(w for w in (diagram.weight_between(i, j), diagram.weight_between(j, k),
                                diagram.weight_between(i, k)) if w)
        allowed = ([1, 1], [1, 2]) if len(ws) == 2 else ([1, 1, 1], [1, 2, 2])
        if len(ws) >= 2 and ws not in allowed:
            found.append(f"induced subdiagram weights {tuple(ws)} outside the catalog")
    return found


def test_validator_reports_the_triples_of_a_full_scan_in_order():
    # the validator visits only connected triples; its first violation must be
    # the first of a scan of all triples, after the cycle checks
    rng = random.Random(29)
    kinds = set()
    for _ in range(300):
        diagram = _random_diagram(rng, rng.randrange(0, 9), p=rng.choice((0.2, 0.4, 0.7)))
        expected = _violations_by_full_scan(diagram)
        assert _first_violation(diagram) == (expected[0] if expected else None)
        kinds.add(expected[0].split()[0] if expected else None)
    assert kinds == {None, "chordless", "cycle", "induced"}


def test_validator_skips_the_vertices_without_edges():
    # a huge edgeless diagram is checked at once: no pass over all triples
    assert _first_violation(Diagram(300_000, [])) is None
    assert _first_violation(Diagram(300_000, [(0, 1, 1), (1, 299_999, 2)])) is None


# ----------------------------------------------------------------- canonical forms


def _isomorphic_bruteforce(d1, d2):
    if d1.n != d2.n:
        return False
    return any(all(d1.weight(i, j) == d2.weight(perm[i], perm[j]) for i in range(d1.n) for j in range(d1.n) if i != j)
               for perm in permutations(range(d1.n)))


def _canonical_form(d):
    """The canonical form, the class search's key (_canonical_labeling)."""
    return _canonical_labeling(d.n, d.edges)[0]


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(24)
    for _ in range(80):
        n = rng.randrange(1, 7)
        d = _random_diagram(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = Diagram(n, ((perm[i], perm[j], w) for i, j, w in d.edges))
        assert _canonical_form(d) == _canonical_form(relabeled)


def test_canonical_form_equality_matches_isomorphism():
    rng = random.Random(25)
    pool = [_random_diagram(rng, 4) for _ in range(40)]
    for a in pool:
        for b in pool:
            same = _canonical_form(a) == _canonical_form(b)
            assert same == _isomorphic_bruteforce(a, b)


def test_canonical_form_tells_orientations_apart():
    path_fwd = Diagram(2, [(0, 1, 2)])
    path_bwd = Diagram(2, [(1, 0, 2)])
    assert _canonical_form(path_fwd) == _canonical_form(path_bwd)  # swap vertices
    d1 = Diagram(3, [(0, 1, 1), (1, 2, 1)])
    d2 = Diagram(3, [(0, 1, 1), (2, 1, 1)])  # sink in the middle
    assert _canonical_form(d1) != _canonical_form(d2)
    # reversing every arrow keeps the oriented path, and makes the sink a source
    assert _canonical_form(opposite(d1)) == _canonical_form(d1)
    assert _canonical_form(opposite(d2)) != _canonical_form(d2)


def test_canonical_representative_realizes_key():
    rng = random.Random(26)
    for _ in range(40):
        d = _random_diagram(rng, rng.randrange(1, 7))
        key, perm = _canonical_labeling(d.n, d.edges)
        rep = _relabel(d, perm)
        assert _canonical_form(rep) == key == _canonical_form(d)


def _code_bruteforce(d, i, j):
    forward, backward = d.weight(i, j), d.weight(j, i)
    return forward or (backward + 4 if backward else 0)


def _colour_ranks_bruteforce(d):
    """Oracle: stable colour refinement from one cell.  A vertex's signature
    is its colour and the sorted (code, colour) pairs of its edges; the new
    colours number the distinct signatures in sorted order."""
    colour = [0] * d.n
    while True:
        signature = [
            (colour[v], tuple(sorted((_code_bruteforce(d, v, u), colour[u])
                                     for u in range(d.n) if _code_bruteforce(d, v, u))))
            for v in range(d.n)]
        cells = sorted(set(signature))
        refined = [cells.index(s) for s in signature]
        if refined == colour:
            return colour
        colour = refined


def _least_labeling_bruteforce(d):
    """Oracle: the first least encoding, in permutations order, over the n!
    labelings that list the vertices in non-decreasing colour rank, read off
    the edge weights; (codes, perm) as _canonical_search returns them."""
    rank = _colour_ranks_bruteforce(d)
    best = None
    for perm in permutations(range(d.n)):
        if any(rank[perm[q - 1]] > rank[perm[q]] for q in range(1, d.n)):
            continue
        codes = [_code_bruteforce(d, perm[p], perm[q]) for q in range(d.n) for p in range(q)]
        if best is None or codes < best[0]:
            best = codes, list(perm)
    return best


def _min_encoding_bruteforce(d):
    return bytes([d.n]) + bytes(_least_labeling_bruteforce(d)[0])


def test_canonical_form_is_the_least_encoding_over_rank_sorted_labelings():
    rng = random.Random(27)
    for _ in range(300):
        d = _random_diagram(rng, rng.randrange(1, 7))
        assert _canonical_form(d) == _min_encoding_bruteforce(d)
        assert _canonical_form(opposite(d)) == _min_encoding_bruteforce(opposite(d))


def test_canonical_search_returns_the_first_least_rank_sorted_labeling():
    # the search's shortcuts (the discrete partition, refinement that stops
    # once nothing splits, twins skipped) keep its labeling: the oracle has
    # none of them.  Sparse diagrams and stars have twins; dense ones
    # often refine to singletons.  Each diagram is searched with its arrows as
    # drawn and reversed.
    rng = random.Random(31)
    diagrams = [Diagram(6, []), Diagram(6, [(0, v, 1) for v in range(1, 6)]),
                Diagram(6, [(0, 1, 2), (2, 0, 1), (0, 3, 1), (4, 0, 1), (0, 5, 1)])]
    diagrams += [_random_diagram(rng, rng.randrange(1, 7), p=rng.choice((0.1, 0.3, 0.5, 0.8)))
                 for _ in range(200)]
    for d in diagrams + [opposite(d) for d in diagrams]:
        assert _refined_ranks(_code_matrix(d.n, d.edges)) == _colour_ranks_bruteforce(d)
        assert _canonical_search(d.n, d.edges) == _least_labeling_bruteforce(d), d


@pytest.mark.parametrize("diagram", [
    Diagram(10, []), Diagram(10, [(0, v, 1) for v in range(1, 10)]),
    Diagram(10, [(v, 0, 1) for v in range(1, 10)])], ids=["edgeless", "out-star", "in-star"])
def test_canonical_search_skips_twins(diagram):
    # every order of a cell that never splits would be 9! or 10! labelings
    start = time.perf_counter()
    _canonical_form(diagram)
    _canonical_form(opposite(diagram))
    assert time.perf_counter() - start < 0.1


def test_canonical_form_rank_cap():
    big = Diagram(11, [])
    with pytest.raises(ValueError):
        _canonical_form(big)


def test_canonical_form_rejects_weights_above_four():
    # a backward edge of weight w is coded w + 4, so a forward weight 5 would
    # read like a backward weight 1: these two diagrams are not isomorphic
    with pytest.raises(ValueError):
        _canonical_form(Diagram(3, [(0, 2, 1), (1, 2, 5)]))
    assert _canonical_form(Diagram(3, [(0, 2, 1), (2, 1, 1)])) == b"\x03\x01\x00\x01"


def test_canonical_form_equality_matches_isomorphism_up_to_weight_four():
    rng = random.Random(28)
    pool = [_random_diagram(rng, 3, max_weight=4, p=0.7) for _ in range(60)]
    for a in pool:
        for b in pool:
            same = _canonical_form(a) == _canonical_form(b)
            assert same == _isomorphic_bruteforce(a, b)


def test_opposite_of_four_cycle_is_isomorphic():
    d = diagram_of(FOUR_CYCLE_MATRIX)
    assert _canonical_form(d) == _canonical_form(opposite(d))


# ----------------------------------------------------------------- mutation classes


def _class_size_oracle(seed_diagram, cap=100000):
    """BFS over labeled diagrams, then count brute-force isomorphism classes."""
    seen = {seed_diagram}
    queue = [seed_diagram]
    while queue:
        d = queue.pop()
        for k in range(d.n):
            child = mutate_diagram(d, k)
            if child not in seen:
                assert len(seen) < cap
                seen.add(child)
                queue.append(child)
    classes = []
    for d in seen:
        if not any(_isomorphic_bruteforce(d, rep) for rep in classes):
            classes.append(d)
    return len(classes)


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "B/C3", "D4", "G2"])
def test_class_sizes_match_labeled_bfs_oracle(label):
    seed = dynkin.standard_diagram(label)
    assert len(mutation_class(seed)) == _class_size_oracle(seed)


# Published class sizes: A_n from Torkildsen's formula, D_n from Buan and
# Torkildsen (EJC 2009), E6-E8 from the finite-type census.
@pytest.mark.parametrize("label, size", [
    ("A3", 4), ("A4", 6), ("A5", 19), ("A6", 49), ("A7", 150), ("A8", 442), ("A9", 1424),
    ("D5", 26), ("D6", 80), ("D7", 246), ("E6", 67), ("E7", 416), ("E8", 1574),
])
def test_class_sizes_match_published_counts(label, size):
    assert len(mutation_class(dynkin.standard_diagram(label))) == size


@pytest.mark.parametrize("label", ["A5", "D5", "B/C4", "F4", "E6", "D6", "E7"])
def test_class_edges_are_every_mutation_of_every_member(label):
    # the search labels each edge from one end and reads the other end off
    # it; E7 has members with mu_k(M) isomorphic to M by a map that moves k
    mc = mutation_class(dynkin.standard_diagram(label))
    index = {key: i for i, key in enumerate(mc.keys)}
    expected = {(i, k, index[_canonical_form(mutate_diagram(member, k))])
                for i, member in enumerate(mc.members) for k in range(member.n)}
    assert mc.edges == expected


@pytest.mark.parametrize("label", ["A5", "D5", "B/C4", "F4", "E6"])
def test_class_tree_records_the_search(label):
    # each member's representative is its parent's mutated at k = perm[k'] and
    # relabeled by perm; the input's member comes first, from the input itself
    rng = random.Random(5)
    diagram = mutate_diagram(dynkin.standard_diagram(label), 1)
    mc = mutation_class(diagram)
    root, skip, parent, perm = mc.tree[0]
    assert skip == -1 and parent == root and mc.members[root] == _relabel(diagram, perm)
    assert sorted(member for member, *_ in mc.tree) == list(range(len(mc)))
    seen = {root}
    for member, k, parent, perm in mc.tree[1:]:
        assert parent in seen and (parent, perm[k], member) in mc.edges
        assert mc.members[member] == _relabel(mutate_diagram(mc.members[parent], perm[k]), perm)
        seen.add(member)
    assert mutation_class(_relabel(diagram, rng.sample(range(diagram.n), diagram.n))) == mc


def _search_without_memo(diagram, cap):
    """Reference for _search: the same breadth-first search and `known` rule,
    but every child the rule does not skip is a Diagram from mutate_diagram,
    labeled by its own canonical search, with no memo."""
    reached = [(diagram, -1, -1, *_canonical_labeling(diagram.n, diagram.edges))]
    seen = {reached[0][3]: 0}
    known, mutations = {}, []
    for position, (parent, _, _, near, _) in enumerate(reached):
        for k in range(diagram.n):
            if (position, k) in known:
                mutations.append(known.pop((position, k)))
                continue
            child = mutate_diagram(parent, k)
            key, perm = _canonical_labeling(child.n, child.edges)
            mutations.append(key)
            if key not in seen:
                assert len(seen) < cap
                seen[key] = len(reached)
                reached.append((child, position, k, key, perm))
            j = seen[key]
            x = reached[j][4][perm.index(k)]
            if j > position or (j == position and x > k):
                known[(j, x)] = near
    return reached, mutations


def _search_inputs():
    """Every standard diagram of rank <= 6 and E7, and relabeled mutation walks from them."""
    rng = random.Random(41)
    labels = [label for n in range(1, 7) for label in dynkin.labels_of_rank(n)] + ["E7"]
    inputs = []
    for label in labels:
        diagram = dynkin.standard_diagram(label)
        inputs.append((label, diagram))
        for _ in range(3):
            for _ in range(rng.randrange(1, 12)):
                diagram = mutate_diagram(diagram, rng.randrange(diagram.n))
            inputs.append((label, _relabel(diagram, rng.sample(range(diagram.n), diagram.n))))
    return inputs


@pytest.mark.parametrize("label, diagram", _search_inputs())
def test_search_matches_the_search_without_a_memo(label, diagram):
    assert _search(diagram, 50000) == _search_without_memo(diagram, 50000), label


@pytest.mark.parametrize("label", ["D5", "E6", "B/C6", "E7"])
def test_search_builds_one_diagram_per_kept_member(monkeypatch, label):
    # a child whose key is known stays a tuple of edges; every Diagram, the
    # constructor's and a derived one, is built by diagram._diagram
    built = [0]
    build = diagram_module._diagram

    def counting(*args):
        built[0] += 1
        return build(*args)
    diagram = dynkin.standard_diagram(label)
    monkeypatch.setattr(diagram_module, "_diagram", counting)
    reached, _ = _search(diagram, 50000)
    assert built[0] == len(reached) - 1  # the input is given


def test_class_is_closed_under_mutation():
    mc = mutation_class(dynkin.standard_diagram("A4"))
    keys = set(mc.keys)
    for member in mc.members:
        for k in range(member.n):
            assert _canonical_form(mutate_diagram(member, k)) in keys


def test_class_type_identification():
    # the class names no type; the companion basis of any member does, B3 and
    # C3 merged since they share a diagram
    cases = [(dynkin.standard_diagram("A3"), "A3"), (diagram_of(FOUR_CYCLE_MATRIX), "D4"),
             (dynkin.standard_diagram("B3"), "B/C3"), (dynkin.standard_diagram("C3"), "B/C3"),
             (dynkin.standard_diagram("F4"), "F4"), (dynkin.standard_diagram("G2"), "G2")]
    for diagram, label in cases:
        mc = mutation_class(diagram)
        assert not hasattr(mc, "type_label")
        assert {companion_basis(m).system.label for m in (diagram, *mc.members)} == {label}


def test_the_diagram_layer_imports_nothing_from_roots():
    # roots imports diagram; a type is named there, never by the class search
    tree = ast.parse(inspect.getsource(diagram_module))
    assert "roots" not in {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}


def test_class_without_a_standard_tree_is_unknown():
    # A1+A1 and A2+A1: finite classes of disconnected diagrams, which have no
    # one companion to name a type by; and affine G2 (an edge of weight 1 at
    # the long end of a G2 edge), a finite class of a connected diagram whose
    # companion is not positive definite
    for diagram, message in [(Diagram(2, []), "mutation class of no known finite type"),
                             (Diagram(3, [(0, 1, 1)]), "mutation class of no known finite type"),
                             (Diagram(3, [(1, 0, 3), (1, 2, 1)]), "quasi-Cartan companion is not positive definite")]:
        mutation_class(diagram)
        with pytest.raises(NotFiniteTypeError, match=f"^{message}$"):
            companion_basis(diagram)


def test_class_overflow():
    with pytest.raises(MutationClassOverflow):
        mutation_class(dynkin.standard_diagram("A5"), cap=3)


def test_class_rejects_wide_edges():
    wide = diagram_of(ExchangeMatrix([[0, 2], [-2, 0]]))
    assert wide.max_weight() == 4
    with pytest.raises(NotFiniteTypeError):
        mutation_class(wide)


def test_class_rejects_non_finite_shape():
    # the non-oriented triangle blows up under mutation
    bad = Diagram(3, [(0, 1, 1), (0, 2, 1), (2, 1, 1)])
    with pytest.raises(NotFiniteTypeError):
        mutation_class(bad)

"""Coset enumeration, group orders, and mutation certificates.

Orders produced by the enumerator are checked against two independent sources:
a breadth-first closure of the permutation group generated by the simple
reflections acting on the root coordinates (built here straight from the
Cartan integers), and weyl_order, the product of the degrees of the basic
invariants, which is itself checked against the classical product formulas.
Mutation certificates, which run in the reflection representation on the root
lattice, are checked against the same certificate computed here in the regular
representations of both groups, built by the reference enumerator of
reference_cosets.py, which shares no code with the package and is itself
checked against both order sources; the same enumerator replays every level of
the parabolic towers of the E7 class.
"""

import ast
import math
import pathlib
import random
from collections import deque
from types import SimpleNamespace

import pytest

from cluster_presents import coset, dynkin, roots
from cluster_presents.coset import (
    DEFAULT_COSET_CAP,
    CosetCapExceeded,
    group_order,
    verify_mutation_isomorphism,
    weyl_order,
)
from cluster_presents.diagram import Diagram, diagram_of, mutate_diagram, mutation_class
from cluster_presents.exchange import ExchangeMatrix
from cluster_presents.presentation import (
    Presentation,
    Relation,
    full_presentation,
    reduced_presentation,
)
from cluster_presents.roots import (
    CompanionBasis,
    build_root_system,
    companion_basis,
    companion_matrix,
    simple_root_basis,
)
from reference_cosets import act, enumerate_cosets, first_failing, regular_images


FOUR_CYCLE = diagram_of(
    ExchangeMatrix([[0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1], [1, 0, -1, 0]])
)


def _tower_bound(presentation):
    """The certificates' parabolic tower's upper bound on the order (coset._tower)."""
    return coset._tower(presentation, DEFAULT_COSET_CAP)[0]


# ------------------------------------------------- permutation-group oracle


def _root_coordinates(label):
    """All roots of the type, as coordinate vectors over the simple roots."""
    cartan = dynkin.cartan_matrix(label)
    n = len(cartan)
    roots = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(n):
                pairing = sum(c[j] * cartan[i][j] for j in range(n))
                image = list(c)
                image[i] -= pairing
                image = tuple(image)
                if image not in roots:
                    roots.add(image)
                    nxt.append(image)
        frontier = nxt
    return sorted(roots)


def _order_by_root_permutations(label):
    """|W| by closing the group generated by the reflection permutations."""
    cartan = dynkin.cartan_matrix(label)
    n = len(cartan)
    roots = _root_coordinates(label)
    index = {c: r for r, c in enumerate(roots)}
    gens = []
    for i in range(n):
        perm = []
        for c in roots:
            pairing = sum(c[j] * cartan[i][j] for j in range(n))
            image = list(c)
            image[i] -= pairing
            perm.append(index[tuple(image)])
        gens.append(tuple(perm))
    identity = tuple(range(len(roots)))
    seen = {identity}
    queue = deque([identity])
    while queue:
        p = queue.popleft()
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return len(seen)


# ------------------------------------------------- order correctness


@pytest.mark.parametrize(
    "label",
    ["A1", "A2", "A3", "A4", "A5", "B/C2", "B/C3", "B/C4", "D4", "D5", "G2", "F4"],
)
def test_direct_enumeration_matches_permutation_oracle(label):
    pres = full_presentation(dynkin.standard_diagram(label))
    assert group_order(pres) == _order_by_root_permutations(label)


def test_d6_tower_matches_permutation_oracle():
    pres = full_presentation(dynkin.standard_diagram("D6"))
    assert _tower_bound(pres) == _order_by_root_permutations("D6")


def test_e6_tower_matches_permutation_oracle():
    pres = full_presentation(dynkin.standard_diagram("E6"))
    assert _tower_bound(pres) == _order_by_root_permutations("E6")


def test_closed_form_symmetric_group_orders():
    for n in range(1, 8):
        assert weyl_order(f"A{n}") == math.factorial(n + 1)


def test_closed_form_hyperoctahedral_orders():
    for n in range(2, 7):
        assert weyl_order(f"B/C{n}") == 2**n * math.factorial(n)


def test_closed_form_even_hyperoctahedral_orders():
    for n in range(4, 8):
        assert weyl_order(f"D{n}") == 2 ** (n - 1) * math.factorial(n)


@pytest.mark.parametrize("label", ["A7", "B/C6", "D7", "E6", "F4", "G2"])
def test_tree_presentation_order_is_the_degree_product(label):
    pres = full_presentation(dynkin.standard_diagram(label))
    assert _tower_bound(pres) == weyl_order(label)


def test_cycle_presentation_order_equals_tree_order():
    pres = full_presentation(FOUR_CYCLE)
    assert group_order(pres) == weyl_order("D4")


# ------------------------------------------------- strategies and subgroups


@pytest.mark.parametrize("label", ["A3", "A5", "B/C4", "D5", "F4", "G2"])
def test_tower_agrees_with_direct(label):
    pres = full_presentation(dynkin.standard_diagram(label))
    assert _tower_bound(pres) == group_order(pres)


@pytest.mark.parametrize("label", ["A5", "D5", "B/C4", "F4", "G2"])
def test_tower_agrees_with_direct_on_every_member(label):
    for member in mutation_class(dynkin.standard_diagram(label)).members:
        for pres in (full_presentation(member), reduced_presentation(member)):
            assert _tower_bound(pres) == group_order(pres) == weyl_order(label), member.edges


def test_tower_drops_a_generator_of_least_degree():
    # A5 chain: the ends have degree 1, and the tie goes to the highest index;
    # the levels name generators 1-based, as reports print them
    order, levels, _ = coset._tower(full_presentation(dynkin.standard_diagram("A5")), DEFAULT_COSET_CAP)
    assert order == 720
    assert levels == [{"dropped": g + 1, "index": g + 2} for g in (4, 3, 2, 1, 0)]
    # an A4 member, the cycle s1 s2 s3 with a tail s3 - s4: s4 alone has
    # degree 1, whatever its index; the levels name generators in the
    # input's numbering
    triangle = diagram_of(ExchangeMatrix([[0, 1, -1, 0], [-1, 0, 1, 0], [1, -1, 0, 1], [0, 0, -1, 0]]))
    relabeled = diagram_of(ExchangeMatrix([[0, -1, 0, 0], [1, 0, 1, -1], [0, -1, 0, 1], [0, 1, -1, 0]]))
    order, levels, _ = coset._tower(full_presentation(triangle), DEFAULT_COSET_CAP)
    assert order == weyl_order("A4")
    assert levels[0]["dropped"] == 3 + 1
    order, levels, _ = coset._tower(full_presentation(relabeled), DEFAULT_COSET_CAP)
    assert order == weyl_order("A4")
    assert levels[0]["dropped"] == 0 + 1
    assert math.prod(level["index"] for level in levels) == weyl_order("A4")


def test_two_different_towers_agree_on_e7():
    pres = full_presentation(dynkin.standard_diagram("E7"))
    # moving vertex 0 to the end changes which parabolic chain the tower climbs
    perm = list(range(1, pres.n)) + [0]
    inverse = [perm.index(g) for g in range(pres.n)]
    relabeled = Presentation(
        pres.n,
        [
            Relation(tuple(inverse[l] for l in rel.word), rel.exponent, rel.tag)
            for rel in pres.relations
        ],
    )
    assert _tower_bound(pres) == _tower_bound(relabeled)


def _replayed_index(relations, gens, dropped):
    """A tower level's index by the reference enumerator: the cosets of the
    subgroup the gens other than dropped generate, in the group the relations
    present on gens, renumbered here 0, 1, ... in order."""
    number = {g: i for i, g in enumerate(gens)}
    restricted = SimpleNamespace(n=len(gens), relations=[
        SimpleNamespace(word=tuple(number[x] for x in rel.word), exponent=rel.exponent) for rel in relations
    ])
    return len(enumerate_cosets(restricted, [(number[h],) for h in gens if h != dropped]))


def test_every_e7_tower_replays_on_the_reference_enumerator():
    members = mutation_class(dynkin.standard_diagram("E7")).members
    assert len(members) == 416
    replayed, defined = 0, 0
    for member in members:
        pres = reduced_presentation(member)
        order, levels, count = coset._tower(pres, DEFAULT_COSET_CAP)
        defined += count
        assert order == math.prod(level["index"] for level in levels) == 2_903_040, member.edges
        gens, relations = list(range(pres.n)), pres.relations
        for level in levels:
            g = level["dropped"] - 1
            assert _replayed_index(relations, gens, g) == level["index"], (member.edges, level)
            gens.remove(g)
            relations = [rel for rel in relations if g not in rel.word]
            replayed += 1
        assert gens == []
    assert replayed == 2_912
    # the class totals of the towers' definitions, merged cosets included
    assert defined == 96_436
    e6 = mutation_class(dynkin.standard_diagram("E6")).members
    assert sum(coset._tower(reduced_presentation(m), DEFAULT_COSET_CAP)[2] for m in e6) == 4_586


def test_parabolic_index_times_subgroup_order():
    for label in ("A3", "B/C3", "D4", "F4"):
        pres = full_presentation(dynkin.standard_diagram(label))
        table = enumerate_cosets(pres, [(g,) for g in range(pres.n - 1)])
        sub = Presentation(
            pres.n - 1,
            [r for r in pres.relations if all(l < pres.n - 1 for l in r.word)],
        )
        assert len(table) * group_order(sub) == group_order(pres)


def test_trivial_and_tiny_presentations():
    assert group_order(Presentation(0, [])) == 1
    assert _tower_bound(Presentation(0, [])) == 1
    assert _tower_bound(Presentation(1, [Relation((0,), 2)])) == 2


def test_group_order_is_exact_where_the_tower_only_bounds():
    # s2 = e, so s1^3 = e and s1 = e: the group is trivial.  The tower drops
    # s2, the highest of two of degree 1, and <s1> has index 1; but the
    # relations among s1 alone, <s1 | s1^2>, present a group of order 2.
    pres = Presentation(2, [Relation((0,), 2), Relation((1,), 2), Relation((0, 1), 3), Relation((1,), 1)])
    assert group_order(pres) == 1
    assert coset._tower(pres, DEFAULT_COSET_CAP) == (2, [{"dropped": 2, "index": 1}, {"dropped": 1, "index": 2}], 5)


@pytest.mark.parametrize("exponent, order", [(1, 1), (3, 1), (4, 6)])
def test_an_odd_power_of_a_generator_is_a_relator(exponent, order):
    # every generator is an involution in the table, so (s2)^e is s2 for odd e
    # and the group collapses; an even e adds nothing to the symmetric group S3
    relations = [Relation((0,), 2), Relation((1,), 2), Relation((0, 1), 3), Relation((1,), exponent)]
    assert group_order(Presentation(2, relations)) == order


def test_tower_counts_the_cosets_defined_at_every_level():
    pres = full_presentation(dynkin.standard_diagram("A4"))
    order, levels, defined = coset._tower(pres, DEFAULT_COSET_CAP)
    assert order == math.factorial(5)
    # the four levels define 5 + 4 + 3 + 2 cosets and merge none
    assert [level["index"] for level in levels] == [5, 4, 3, 2]
    assert defined == 14


# ------------------------------------------------- overflow handling


def test_enumeration_overflow_status():
    pres = full_presentation(dynkin.standard_diagram("A4"))
    with pytest.raises(CosetCapExceeded):
        group_order(pres, cap=7)


# ------------------------------------------------- the reference enumerator


@pytest.mark.parametrize(
    "label",
    ["A1", "A2", "A3", "A4", "A5", "B/C2", "B/C3", "B/C4", "D4", "D5", "G2", "F4"],
)
def test_reference_orders_match_both_order_sources(label):
    pres = full_presentation(dynkin.standard_diagram(label))
    assert len(enumerate_cosets(pres)) == _order_by_root_permutations(label) == weyl_order(label)


def test_reference_imports_nothing_from_the_package():
    path = pathlib.Path(__file__).with_name("reference_cosets.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported and not any(name.split(".")[0] in ("", "cluster_presents") for name in imported), imported


def test_regular_representation_properties():
    pres = full_presentation(dynkin.standard_diagram("B/C3"))
    images = regular_images(pres)
    assert len(images[0]) == group_order(pres)
    identity = tuple(range(len(images[0])))
    for g in range(pres.n):
        assert act(images, (g, g)) == identity
        assert act(images, (g,)) != identity
    for rel in pres.relations:
        assert act(images, rel.letters()) == identity
    # the regular action is faithful: distinct short words act distinctly
    assert act(images, (0, 1)) != act(images, (1, 0))


def test_check_homomorphism_detects_broken_braid():
    a2 = full_presentation(dynkin.standard_diagram("A2"))
    g2 = full_presentation(dynkin.standard_diagram("G2"))
    images = regular_images(g2)
    # sending both order-3 braid generators onto the order-6 pair must fail
    failing = first_failing(images, ((0,), (1,)), a2.relations)
    assert failing is not None
    assert failing.word == (0, 1) and failing.exponent == 3
    # collapsing to a single generator factors through the sign character
    assert first_failing(images, ((0,), (0,)), a2.relations) is None


# ------------------------------------------------- mutation certificates


def test_mutation_certificate_on_four_cycle():
    report = verify_mutation_isomorphism(FOUR_CYCLE, 0)
    assert report.passed
    assert report.vertex == 0
    assert report.order == report.mutated_order == weyl_order("D4")
    assert report.forward_homomorphism and report.inverse_homomorphism
    assert report.composition_identity
    assert report.failing_relation is None


def test_mutation_certificate_on_tree():
    report = verify_mutation_isomorphism(dynkin.standard_diagram("B/C3"), 1)
    assert report.passed
    assert report.order == weyl_order("B3")
    assert report.faithful


def _regular_certificate(diagram, k, forward=None):
    """The certificate in the regular representations of both groups, each
    enumerated in full: (order, mutated order, forward, inverse, composition).

    The witness words are read off the edges here: t_i = s_k s_i s_k when the
    diagram has an arrow i -> k, and t'_i = s'_k s'_i s'_k when the mutated
    diagram has an arrow k -> i."""
    mutated = mutate_diagram(diagram, k)
    pres, pres_mut = full_presentation(diagram), full_presentation(mutated)
    images, images_mut = regular_images(pres), regular_images(pres_mut)
    into_k = {i for i, j, _ in diagram.edges if j == k}
    out_of_k = {j for i, j, _ in mutated.edges if i == k}
    forward = forward or tuple((k, i, k) if i in into_k else (i,) for i in range(diagram.n))
    inverse = tuple((k, i, k) if i in out_of_k else (i,) for i in range(mutated.n))
    fwd = first_failing(images, forward, pres_mut.relations) is None
    inv = first_failing(images_mut, inverse, pres.relations) is None

    def composite(outer, inner, i):
        return tuple(x for letter in outer[i] for x in inner[letter])

    comp = fwd and inv and all(
        act(images_mut, composite(forward, inverse, i)) == act(images_mut, (i,))
        and act(images, composite(inverse, forward, i)) == act(images, (i,))
        for i in range(diagram.n)
    )
    return len(images[0]), len(images_mut[0]), fwd, inv, comp


# Disconnected inputs with their components' vertices interleaved, so a
# block of the certificate's pairing matrix lands on scattered rows and
# columns; B/C2 has a companion matrix that is not symmetric.
DISCONNECTED = {
    "A2+A1": (Diagram(3, [(0, 2, 1)]), 12),
    "A1+A1+A1": (Diagram(3, []), 8),
    "B/C2+A2": (Diagram(4, [(3, 0, 2), (1, 2, 1)]), 48),
}


def _assert_certificates_agree(member, order_w):
    for k in range(member.n):
        report = verify_mutation_isomorphism(member, k)
        order, mutated_order, fwd, inv, comp = _regular_certificate(member, k)
        assert (report.order, report.mutated_order) == (order, mutated_order) == (order_w, order_w)
        assert (report.forward_homomorphism, report.inverse_homomorphism, report.composition_identity) == (
            fwd, inv, comp), (member.edges, k)
        assert report.faithful
        assert report.passed == (fwd and inv and comp and order == mutated_order)


@pytest.mark.parametrize("label", ["A3", "A4", "B/C3", "D4", "G2", "F4", *DISCONNECTED])
def test_root_certificate_agrees_with_the_regular_representation(label):
    if label in DISCONNECTED:
        diagram, order_w = DISCONNECTED[label]
        _assert_certificates_agree(diagram, order_w)
        return
    for member in mutation_class(dynkin.standard_diagram(label)).members:
        _assert_certificates_agree(member, weyl_order(label))


def test_root_certificate_rejects_a_wrong_witness(monkeypatch):
    # A3 path 1 -> 2 -> 3 mutated at 2 is the oriented triangle; sending each
    # generator of the triangle's group to itself kills none of its new braids
    path = dynkin.standard_diagram("A3")
    identity = tuple((i,) for i in range(path.n))
    assert _regular_certificate(path, 1, identity)[2] is False
    monkeypatch.setattr(coset, "mutation_witness_words", lambda diagram, k: identity)
    report = verify_mutation_isomorphism(path, 1)
    assert report.faithful
    assert not report.forward_homomorphism
    assert report.failing_relation is not None
    assert not report.passed


def test_root_certificate_checks_one_word_list_both_ways(monkeypatch):
    # one call for the words, and two relation checks beyond the two sides' own
    calls = {"words": 0, "checks": 0}
    words, check = coset.mutation_witness_words, coset._first_failing

    def counted_words(diagram, k):
        calls["words"] += 1
        return words(diagram, k)

    def counted_checks(*args):
        calls["checks"] += 1
        return check(*args)

    monkeypatch.setattr(coset, "mutation_witness_words", counted_words)
    monkeypatch.setattr(coset, "_first_failing", counted_checks)
    assert verify_mutation_isomorphism(FOUR_CYCLE, 0).passed
    assert calls == {"words": 1, "checks": 4}


def test_root_certificate_needs_a_faithful_representation(monkeypatch):
    # the simple roots of D4 are no companion basis of the 4-cycle: the cycle's
    # braid relations fail on them, so the orders certify nothing
    monkeypatch.setattr(coset, "companion_basis", lambda diagram: simple_root_basis(build_root_system("D4")))
    report = verify_mutation_isomorphism(FOUR_CYCLE, 0)
    assert report.order == report.mutated_order == weyl_order("D4")
    assert not report.faithful
    assert not report.passed


def _form_by_entries(system, v, w):
    """(v, w) = sum_ij v_i d_i cartan[i][j] w_j, entry by entry."""
    n = system.n
    return sum(v[i] * system.symmetriser[i] * system.cartan[i][j] * w[j] for i in range(n) for j in range(n))


def _copairing(system, v, w):
    """(v, w^check) by the kernels the certificates' pairings use: roots._form, roots._coroot."""
    form, norm = roots._form(system, w)
    return roots._coroot(v, w, sum(a * b for a, b in zip(v, form)), norm)


def _reflect(system, beta, v):
    """v reflected in the root beta by the kernels of mutate_companion."""
    return roots._reflect(v, *roots._reflector(system, beta))


@pytest.mark.parametrize("label", ["E6", "F4", "B/C4", "G2"])
def test_reflection_rep_agrees_with_reflecting_root_by_root(label):
    rng = random.Random(41)
    members = mutation_class(dynkin.standard_diagram(label)).members
    for member in rng.sample(members, min(6, len(members))):
        basis = companion_basis(member)
        system = basis.system
        for beta in basis.vectors:
            norm = _form_by_entries(system, beta, beta)
            for root in system.roots:
                coeff, remainder = divmod(2 * _form_by_entries(system, root, beta), norm)
                assert remainder == 0 and coeff == _copairing(system, root, beta)
                assert _reflect(system, beta, root) == tuple(x - coeff * b for x, b in zip(root, beta)), (
                    label, member.edges, beta)


def test_reflection_errors_keep_their_text():
    a2 = build_root_system("A2")
    with pytest.raises(ValueError, match=r"^\(1, -1\) is not a root of A2$"):
        _reflect(a2, (1, -1), (1, 0))
    with pytest.raises(ValueError, match=r"^coroot pairing of \(0, 1\) against \(2, 0\) is not integral$"):
        _copairing(a2, (0, 1), (2, 0))
    with pytest.raises(ValueError, match=r"^coroot pairing of \(0, 1\) against \(2, 0\) is not integral$"):
        companion_matrix(CompanionBasis(a2, [(2, 0), (0, 1)]))
    with pytest.raises(ValueError, match=r"^coroot pairing undefined: \(w, w\) = 0$"):
        _copairing(a2, (1, 0), (0, 0))
    with pytest.raises(ValueError, match=r"^coroot pairing undefined: \(w, w\) = 0$"):
        companion_matrix(CompanionBasis(a2, [(1, 0), (0, 0)]))


def test_mutation_certificate_overflow():
    # the tower's largest index on the 4-cycle is 8
    with pytest.raises(CosetCapExceeded):
        verify_mutation_isomorphism(FOUR_CYCLE, 0, cap=4)


def test_mutation_certificate_overflow_on_the_mutated_side_counts_both_sides():
    # the B/C4 tree 4 - 1 - 2 = 3; mutation at 1 closes the triangle 1, 2, 4
    tree = Diagram(4, [(0, 3, 1), (1, 0, 1), (2, 1, 2)])
    order, _, defined = coset._tower(reduced_presentation(tree), 8)
    assert order == weyl_order("B/C4")
    assert defined == 21
    assert coset._tower(reduced_presentation(mutate_diagram(tree, 0)), 8)[0] is None
    with pytest.raises(CosetCapExceeded) as err:
        verify_mutation_isomorphism(tree, 0, cap=8)
    assert (err.value.cap, err.value.cosets_defined) == (8, 29)


# ------------------------------------------------- label handling


def test_weyl_order_normalizes_labels():
    assert weyl_order("B3") == weyl_order("C3") == weyl_order("b/c3") == weyl_order("BC3")
    assert weyl_order("a1") == 2


def test_weyl_order_rejects_bad_labels():
    with pytest.raises(ValueError):
        weyl_order("H3")
    with pytest.raises(ValueError):
        weyl_order("D3")

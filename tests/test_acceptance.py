"""Acceptance suite: one test per shipped guarantee.

`pytest tests/test_acceptance.py -v` prints one pass/fail line per criterion.
The heavyweight artifacts (mutation classes and per-member group orders) are
computed once in module-scoped fixtures and shared by the criteria that walk
the same ground.
"""

import pathlib
import random
from collections import deque

import pytest

from cluster_presents import coset, dynkin
from cluster_presents.coset import (
    DEFAULT_COSET_CAP,
    group_order,
    verify_mutation_isomorphism,
    weyl_order,
)
from cluster_presents.diagram import (
    Diagram,
    _validate_local,
    chordless_cycles,
    diagram_of,
    mutate_diagram,
    mutation_class,
    opposite,
)
from cluster_presents.exchange import (
    ExchangeMatrix,
    cycle_sign_condition,
    is_positive,
    is_two_finite,
    mutate_matrix,
)
from cluster_presents.formats import dump_presentation
from cluster_presents.presentation import full_presentation, reduced_presentation
from cluster_presents.roots import (
    CompanionBasis,
    _coroot_pairings,
    _first_failing,
    build_root_system,
    companion_bases,
    companion_matrix,
    is_companion_basis,
    local_switch,
    mutate_companion,
    signed_graph,
    simple_root_basis,
)
from reference_cosets import act, regular_images


DATA = pathlib.Path(__file__).parent / "data"

CLASS_LABELS = (
    "A2", "A3", "A4", "A5", "A6", "A7",
    "B/C2", "B/C3", "B/C4", "B/C5",
    "D4", "D5", "D6",
    "F4", "G2",
)

RANK_LE6_LABELS = (
    "A1", "A2", "A3", "A4", "A5", "A6",
    "B/C2", "B/C3", "B/C4", "B/C5", "B/C6",
    "D4", "D5", "D6",
    "E6", "F4", "G2",
)

COMPANION_LABELS = ("A4", "B/C3", "D4", "F4", "G2")

FOUR_CYCLE = diagram_of(
    ExchangeMatrix([[0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1], [1, 0, -1, 0]])
)


@pytest.fixture(scope="module")
def mutation_classes():
    return {label: mutation_class(dynkin.standard_diagram(label)) for label in CLASS_LABELS}


def _tower_bound(presentation):
    """The certificates' parabolic tower's upper bound on the order (coset._tower)."""
    return coset._tower(presentation, DEFAULT_COSET_CAP)[0]


@pytest.fixture(scope="module")
def classes(mutation_classes):
    return {label: mclass.members for label, mclass in mutation_classes.items()}


@pytest.fixture(scope="module")
def reduced_orders(classes):
    # tower orders are upper bounds; criterion 01 closes them from below
    return {
        label: [_tower_bound(reduced_presentation(member)) for member in members]
        for label, members in classes.items()
    }


@pytest.fixture(scope="module")
def companion_walks():
    """Random inward-mutation walks; returns per-step failures and the
    distinct (companion matrix, accompanied exchange matrix) pairs met."""
    rng = random.Random(0)
    failures = []
    pairs = {}
    for label in COMPANION_LABELS:
        system = build_root_system(label)
        seed = dynkin.standard_exchange_matrix(label)
        for walk in range(1000):
            matrix = seed
            basis = simple_root_basis(system)
            for step in range(rng.randrange(1, 9)):
                k = rng.randrange(matrix.n)
                diagram = diagram_of(matrix)
                mutated = mutate_companion(basis, k, diagram)
                next_matrix = mutate_matrix(matrix, k)
                ok, reason = is_companion_basis(mutated, next_matrix)
                if not ok:
                    failures.append((label, walk, step, reason))
                # the same step on the old diagram undoes it
                restored = mutate_companion(mutated, k, diagram)
                if restored.vectors != basis.vectors:
                    failures.append((label, walk, step, "the step did not restore"))
                comp = companion_matrix(mutated)
                pairs.setdefault((comp.entries, next_matrix.entries), (comp, next_matrix))
                basis, matrix = mutated, next_matrix
    return failures, list(pairs.values())


def test_criterion_01_every_class_member_presents_the_weyl_group(mutation_classes, classes, reduced_orders):
    for label, members in classes.items():
        assert members, f"empty mutation class for {label}"
        expected = weyl_order(label)
        bases = companion_bases(mutation_classes[label])
        for idx, order in enumerate(reduced_orders[label]):
            assert order == expected, (
                f"{label} member {idx}: order {order} != {expected}"
            )
            # the relations hold on a companion basis: |G| >= |W| as well
            assert _first_failing(_coroot_pairings(bases[idx]),
                                  reduced_presentation(members[idx]).relations) is None, (label, idx)


def test_criterion_02_full_and_reduced_presentations_agree(classes, reduced_orders):
    for label, members in classes.items():
        for member, reduced_order in zip(members, reduced_orders[label]):
            full_order = _tower_bound(full_presentation(member))
            assert full_order == reduced_order, f"{label}: {full_order} != {reduced_order}"


def test_criterion_03_four_cycle_presentation_matches_golden_file():
    golden = (DATA / "d4_cycle_full.pres").read_text()
    pres = full_presentation(FOUR_CYCLE)
    assert dump_presentation(pres) == golden
    cycle_words = [rel.word for rel in pres.relations if rel.tag == "R3a"]
    assert cycle_words == [
        (0, 1, 2, 3, 2, 1),
        (1, 2, 3, 0, 3, 2),
        (2, 3, 0, 1, 0, 3),
        (3, 0, 1, 2, 1, 0),
    ]


def test_criterion_04_opposite_diagram_has_equal_order(classes, reduced_orders):
    for label, members in classes.items():
        for member, order in zip(members, reduced_orders[label]):
            opposite_order = _tower_bound(reduced_presentation(opposite(member)))
            assert opposite_order == order, f"{label}: {opposite_order} != {order}"


def test_criterion_05_mutation_certificates_exhaustive(classes):
    for label in ("A3", "A4", "B/C3", "D4", "G2"):
        expected = weyl_order(label)
        for member in classes[label]:
            for k in range(member.n):
                report = verify_mutation_isomorphism(member, k)
                assert report.passed, (label, member.edges, k)
                assert report.order == expected


def test_criterion_06_diagram_mutation_commutes_with_matrix_mutation():
    rng = random.Random(0)
    for label in RANK_LE6_LABELS:
        seed = dynkin.standard_exchange_matrix(label)
        for _ in range(1000):
            matrix = seed
            diagram = diagram_of(seed)
            for _ in range(rng.randrange(1, 11)):
                k = rng.randrange(matrix.n)
                next_matrix = mutate_matrix(matrix, k)
                next_diagram = mutate_diagram(diagram, k)
                assert diagram_of(next_matrix) == next_diagram, (label, k)
                assert mutate_matrix(next_matrix, k) == matrix, (label, k)
                assert mutate_diagram(next_diagram, k) == diagram, (label, k)
                matrix, diagram = next_matrix, next_diagram


def test_criterion_07_companion_bases_survive_inward_walks(companion_walks):
    failures, _ = companion_walks
    assert failures == []


def test_criterion_08_companion_matrices_cycle_signed_and_positive(companion_walks):
    _, pairs = companion_walks
    assert pairs
    for comp, matrix in pairs:
        assert cycle_sign_condition(comp, diagram_of(matrix)), comp.entries
        assert is_positive(comp), comp.entries


def test_criterion_09_signed_graphs_switch_in_step_with_mutation():
    for label in ("A4", "D4"):
        system = build_root_system(label)
        seed_matrix = dynkin.standard_exchange_matrix(label)
        seed_basis = simple_root_basis(system)
        seen = {(seed_matrix.entries, seed_basis.vectors)}
        queue = deque([(seed_matrix, seed_basis, 0)])
        while queue:
            matrix, basis, depth = queue.popleft()
            diagram = diagram_of(matrix)
            graph = signed_graph(companion_matrix(basis))
            for k in range(matrix.n):
                mutated = mutate_companion(basis, k, diagram)
                switched = local_switch(
                    graph, k, [i for i in range(diagram.n) if diagram.weight(i, k) > 0]
                )
                assert switched == signed_graph(companion_matrix(mutated)), (
                    label,
                    matrix.entries,
                    k,
                )
                if depth < 6:
                    key = (mutate_matrix(matrix, k).entries, mutated.vectors)
                    if key not in seen:
                        seen.add(key)
                        queue.append((mutate_matrix(matrix, k), mutated, depth + 1))


def test_criterion_10_negative_controls_are_rejected():
    # a lattice basis of positive roots whose pairings are all nonzero
    system = build_root_system("A4")
    basis = CompanionBasis(
        system, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 1, 1)]
    )
    ok, reason = is_companion_basis(basis, dynkin.standard_exchange_matrix("A4"))
    assert not ok
    assert reason.startswith("companion condition fails")

    triangle = Diagram(3, [(0, 1, 1), (0, 2, 1), (2, 1, 1)])
    assert _validate_local(triangle, chordless_cycles(triangle)) == "chordless cycle is not cyclically oriented"

    assert not is_two_finite(ExchangeMatrix([[0, 2], [-2, 0]]))


def test_criterion_11_enumerator_is_self_consistent():
    rank_le5 = [l for l in RANK_LE6_LABELS if dynkin.parse_label(l)[1] <= 5]
    for label in rank_le5 + ["D6"]:
        pres = full_presentation(dynkin.standard_diagram(label))
        direct = group_order(pres)
        assert direct == _tower_bound(pres), label
        images = regular_images(pres)
        assert len(images[0]) == direct, label
        identity = tuple(range(direct))
        for g in range(pres.n):
            assert act(images, (g, g)) == identity, (label, g)

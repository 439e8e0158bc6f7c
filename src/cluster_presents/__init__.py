"""Cluster-algebra exchange matrices, mutation diagrams, and the reflection-group
presentations they define, with coset-enumeration verification throughout."""

__version__ = "0.1.0"

from .exchange import (
    ExchangeMatrix,
    QuasiCartanMatrix,
    is_positive,
    is_two_finite,
    mutate_matrix,
)
from .diagram import (
    ChordlessCycle,
    Diagram,
    DiagramError,
    MutationClass,
    MutationClassOverflow,
    NotFiniteTypeError,
    chordless_cycles,
    diagram_of,
    mutate_diagram,
    mutation_class,
    opposite,
)
from .presentation import (
    Presentation,
    Relation,
    bond_order,
    full_presentation,
    mutation_witness_words,
    reduced_presentation,
)
from .coset import (
    CosetCapExceeded,
    group_order,
    verify_mutation_isomorphism,
    weyl_order,
)
from .roots import (
    CompanionBasis,
    RootSystem,
    SignedGraph,
    build_root_system,
    companion_bases,
    companion_basis,
    companion_matrix,
    cycle_sign_condition,
    is_companion_basis,
    is_quasi_cartan_companion,
    local_switch,
    mutate_companion,
    signed_graph,
    simple_root_basis,
)

__all__ = [
    "ExchangeMatrix", "QuasiCartanMatrix", "is_positive", "is_two_finite", "mutate_matrix",
    "ChordlessCycle", "Diagram", "DiagramError", "MutationClass", "MutationClassOverflow",
    "NotFiniteTypeError", "chordless_cycles", "diagram_of", "mutate_diagram", "mutation_class",
    "opposite",
    "Presentation", "Relation", "bond_order", "full_presentation", "mutation_witness_words",
    "reduced_presentation",
    "CosetCapExceeded", "group_order", "verify_mutation_isomorphism", "weyl_order",
    "CompanionBasis", "RootSystem", "SignedGraph", "build_root_system", "companion_bases",
    "companion_basis", "companion_matrix", "cycle_sign_condition", "is_companion_basis",
    "is_quasi_cartan_companion", "local_switch", "mutate_companion", "signed_graph", "simple_root_basis",
]

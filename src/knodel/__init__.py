"""Domination in Knödel graphs: constructions, exact solving, enumeration."""

from .domination import (
    VertexSet,
    closed_neighborhood,
    gamma_bounds,
    greedy_upper_bound,
    is_dominating,
    undominated,
)
from .gamma4 import (
    EXCEPTIONAL_ORDERS,
    ConstructionError,
    GammaFormulaResult,
    construct_dominating_set,
    gamma_formula,
)
from .graphs import (
    CyclicSequence,
    KnodelGraph,
    Side,
    Vertex,
    build_graph,
    common_neighbor_predicate,
    common_neighbors,
    cyclic_sequence,
    index_distance,
    m_delta,
    neighbors,
    u,
    v,
)
from .sequences import (
    SequenceClass,
    canonical_rotation,
    colliding_pairs,
    enumerate_sequences,
    reconstruct_positions,
)
from .solver import SolveResult, brute_force_min, canonical_certificate, solve_exact

__version__ = "0.1.0"

__all__ = [
    "CyclicSequence",
    "ConstructionError",
    "EXCEPTIONAL_ORDERS",
    "GammaFormulaResult",
    "KnodelGraph",
    "SequenceClass",
    "Side",
    "SolveResult",
    "Vertex",
    "VertexSet",
    "brute_force_min",
    "build_graph",
    "canonical_certificate",
    "canonical_rotation",
    "closed_neighborhood",
    "colliding_pairs",
    "common_neighbor_predicate",
    "common_neighbors",
    "construct_dominating_set",
    "cyclic_sequence",
    "enumerate_sequences",
    "gamma_bounds",
    "gamma_formula",
    "greedy_upper_bound",
    "index_distance",
    "is_dominating",
    "m_delta",
    "neighbors",
    "reconstruct_positions",
    "solve_exact",
    "u",
    "undominated",
    "v",
]

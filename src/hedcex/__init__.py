"""Exact construction and verification of tensor-product coloring
counterexamples built from odd-power adjoints of complete graphs."""

from .certificate import (
    CertificateCheck,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    emit_certificate,
)
from .counterexample import (
    CounterexampleParams,
    FunctionVertex,
    Report,
    VARIANTS,
    build_counterexample,
    build_special_family,
    collision_matrix,
    exp_adjacent,
    parameter_check,
    params_for,
    verify_counterexample,
    verify_product_coloring,
)
from .families import (
    complete_graph,
    cycle_graph,
    gamma_power,
    kneser_graph,
    lex_product,
    n_exact,
    n_shells,
    n_upto,
    omega_sets,
    omega_tuple_vertices,
    omega_tuples,
    omega_vertex_count,
    tensor_product,
)
from .graphs import (
    Graph,
    emit_dimacs,
    emit_dot,
    graph_sha256,
    induced_subgraph,
    is_independent,
    is_isomorphic,
    new_graph,
    parse_dimacs,
)
from .solver import (
    DEFAULT_BUDGET,
    SearchBudget,
    chromatic_number,
    find_coloring,
    find_homomorphism,
    verify_coloring,
    verify_homomorphism,
)
from .widecolor import (
    WideColoring,
    adjunction_holds,
    check_wide,
    default_pairing,
    zero_position_coloring,
)

__version__ = "0.1.0"

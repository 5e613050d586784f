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
    params_for,
    verify_counterexample,
)
from .families import n_shells, omega_tuples, omega_vertex_count
from .graphs import Graph, emit_dimacs, emit_dot, graph_sha256, new_graph, parse_dimacs
from .solver import DEFAULT_BUDGET, SearchBudget, find_coloring, verify_coloring
from .widecolor import WideColoring, check_wide, zero_position_coloring

__version__ = "0.1.0"

"""Application-specific superconducting quantum architecture design.

From a quantum circuit to a chip sketch in one pass: parse OpenQASM, build
the weighted interaction graph, place qubits on a grid and derive a coupling
graph tuned to the circuit, allocate collision-free qubit frequencies,
evaluate the result by SWAP routing (with exact oracles and statevector
equivalence checks at desk scale), map everything to a physical layout with
wavelength-sized resonators, and tune the transmon pad geometry with a
polynomial-regression surrogate. The ``dasqa`` CLI runs the whole flow.
"""

from .archgen import (
    Architecture,
    CouplingGraph,
    allocate_frequencies,
    derive_couplings,
    detuning_violations,
    generate_architecture,
    place_qubits,
)
from .circuit import (
    CircuitStats,
    Gate,
    GateKind,
    InteractionGraph,
    QuantumCircuit,
    circuit_stats,
    interaction_graph,
    to_qasm,
)
from .config import DesignConfig, config_from_dict, load_config
from .errors import ArchitectureError, DasqaError
from .geomopt import (
    GeometryDataset,
    GeometryModel,
    bundled_dataset,
    fit_model,
    invert_for_geometry,
    load_dataset,
    optimize_layout,
    predict_frequency,
)
from .layout import Component, LayoutDocument, build_layout, update_component
from .pipeline import FlowResult, run_flow
from .qasm import parse_qasm, parse_qasm_file
from .resonator import polyline_length, resonator_length, synthesize_meander
from .router import (
    Mapping,
    RoutedCircuit,
    check_equivalence,
    initial_mapping,
    optimal_swap_count,
    route,
    score_architecture,
)
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    "Architecture",
    "ArchitectureError",
    "CircuitStats",
    "Component",
    "CouplingGraph",
    "DasqaError",
    "DesignConfig",
    "FlowResult",
    "Gate",
    "GateKind",
    "GeometryDataset",
    "GeometryModel",
    "InteractionGraph",
    "LayoutDocument",
    "Mapping",
    "QuantumCircuit",
    "RoutedCircuit",
    "allocate_frequencies",
    "build_layout",
    "bundled_dataset",
    "check_equivalence",
    "circuit_stats",
    "config_from_dict",
    "derive_couplings",
    "detuning_violations",
    "fit_model",
    "generate_architecture",
    "initial_mapping",
    "interaction_graph",
    "invert_for_geometry",
    "load_config",
    "load_dataset",
    "optimal_swap_count",
    "optimize_layout",
    "parse_qasm",
    "parse_qasm_file",
    "place_qubits",
    "polyline_length",
    "predict_frequency",
    "render_svg",
    "resonator_length",
    "route",
    "run_flow",
    "score_architecture",
    "synthesize_meander",
    "to_qasm",
    "update_component",
]

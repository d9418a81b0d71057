"""Route the circuit on two architectures and compare SWAP overhead.

The baseline is the T-shaped five-qubit coupling graph found on small
public devices (row 0-1-2, stem 1-3-4). The generated star matches the
circuit's hub-and-spokes traffic, so it needs fewer inserted SWAPs; the
exact-search oracle certifies both routings and a statevector check
confirms the routed circuits still compute the same unitary.
"""
from dasqa import (
    CouplingGraph,
    DesignConfig,
    GateKind,
    Mapping,
    check_equivalence,
    generate_architecture,
    optimal_swap_count,
    parse_qasm,
    route,
)

SOURCE = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
x q[4];
h q[3];
h q[2];
h q[1];
h q[0];
h q[4];
cx q[0],q[1];
cx q[0],q[4];
h q[0];
cx q[1],q[4];
cx q[2],q[4];
cx q[3],q[4];
cx q[0],q[4];
"""

qc = parse_qasm(SOURCE, name="five_qubit_app")
baseline = CouplingGraph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
star = generate_architecture(qc, DesignConfig())

identity = Mapping.identity(5)
for label, arch in (("T-shaped baseline", baseline), ("generated star", star)):
    routed = route(qc, arch, identity)
    best = optimal_swap_count(qc, arch, identity)
    ok = check_equivalence(qc, routed)
    print(
        f"{label:18s}: {routed.swap_count} SWAPs inserted "
        f"(oracle minimum {best}), routed depth {routed.depth}, "
        f"equivalent = {ok}"
    )

# the circuit holds no SWAP of its own, so every routed SWAP is an inserted one
print("\ninserted SWAPs on the star, in order:")
routed = route(qc, star, identity)
for g in routed.gates:
    if g.kind is GateKind.SWAP:
        print(f"  SWAP on physical pair {g.qubits}")
print(f"final mapping (logical -> physical): {routed.final_mapping.log_to_phys}")

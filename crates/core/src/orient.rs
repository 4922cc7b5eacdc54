//! Partition-aware orientation of symmetric diagonal gates.
//!
//! `CZ`, `CP`, and `RZZ` are symmetric: either operand can serve as the
//! control of the CXs they unroll into. The choice decides which of the two
//! burst pairs of a remote gate sees a *control-form* (Cat-friendly) block:
//! the unrolled interior rotation lands on the target side, so the control
//! side stays clean. This pre-pass orients every symmetric remote gate so
//! its control is the operand whose burst pair carries more remote gates —
//! that pair is processed first by aggregation and claims the gate into its
//! block. The paper's discussion of co-designing gate decomposition with
//! communication (§6) motivates exactly this choice; without it, QAOA's
//! randomly-oriented ZZ interactions fragment into bidirectional TP blocks.

use dqc_circuit::{Circuit, Gate, GateKind, Partition};

use crate::pair_stats;

/// Orients one gate against the precomputed pair statistics.
fn orient_gate(
    gate: &Gate,
    stats: &std::collections::HashMap<(dqc_circuit::QubitId, dqc_circuit::NodeId), usize>,
    partition: &Partition,
) -> Gate {
    match gate.kind() {
        GateKind::Cz | GateKind::Cp | GateKind::Rzz
            if partition.is_remote(gate) && gate.condition().is_none() =>
        {
            let a = gate.qubits()[0];
            let b = gate.qubits()[1];
            let weight_a = stats.get(&(a, partition.node_of(b))).copied().unwrap_or(0);
            let weight_b = stats.get(&(b, partition.node_of(a))).copied().unwrap_or(0);
            if weight_b > weight_a {
                // Swap operands: `b` becomes the control side.
                match gate.kind() {
                    GateKind::Cz => Gate::cz(b, a),
                    GateKind::Cp => Gate::cp(gate.theta().expect("cp parameter"), b, a),
                    GateKind::Rzz => Gate::rzz(gate.theta().expect("rzz parameter"), b, a),
                    _ => unreachable!(),
                }
            } else {
                gate.clone()
            }
        }
        _ => gate.clone(),
    }
}

/// Reorders the operands of symmetric diagonal two-qubit gates (`Cz`, `Cp`,
/// `Rzz`) so the heavier burst pair gets the control side. Asymmetric gates
/// and local gates pass through untouched; the result is gate-for-gate
/// equivalent to the input (the gates are symmetric).
pub fn orient_symmetric_gates(circuit: &Circuit, partition: &Partition) -> Circuit {
    let stats = pair_stats(circuit, partition);
    let mut out = Circuit::with_cbits(circuit.num_qubits(), circuit.num_cbits());
    out.reserve(circuit.len());
    for gate in circuit.gates() {
        out.push(orient_gate(gate, &stats, partition)).expect("registers preserved");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_circuit::QubitId;

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn heavier_side_takes_control() {
        // q0 talks to node 1 three times; q2/q3 talk to node 0 once each →
        // every symmetric gate should get q0 as its first operand.
        let p = Partition::block(4, 2).unwrap();
        let mut c = Circuit::new(4);
        c.push(Gate::rzz(0.1, q(2), q(0))).unwrap();
        c.push(Gate::rzz(0.2, q(0), q(3))).unwrap();
        c.push(Gate::cp(0.3, q(3), q(0))).unwrap();
        let oriented = orient_symmetric_gates(&c, &p);
        for g in oriented.gates() {
            assert_eq!(g.qubits()[0], q(0), "{g}");
        }
    }

    #[test]
    fn local_and_asymmetric_gates_untouched() {
        let p = Partition::block(4, 2).unwrap();
        let mut c = Circuit::new(4);
        c.push(Gate::rzz(0.1, q(0), q(1))).unwrap(); // local
        c.push(Gate::cx(q(2), q(0))).unwrap(); // asymmetric
        c.push(Gate::h(q(0))).unwrap();
        let oriented = orient_symmetric_gates(&c, &p);
        assert_eq!(oriented, c);
    }

    #[test]
    fn orientation_preserves_semantics() {
        let p = Partition::block(4, 2).unwrap();
        let mut c = Circuit::new(4);
        c.push(Gate::h(q(0))).unwrap();
        c.push(Gate::rzz(0.4, q(2), q(0))).unwrap();
        c.push(Gate::cp(0.5, q(3), q(0))).unwrap();
        c.push(Gate::cz(q(2), q(0))).unwrap();
        let oriented = orient_symmetric_gates(&c, &p);
        assert!(dqc_sim::circuits_equivalent(&c, &oriented, 1e-10).unwrap());
    }
}

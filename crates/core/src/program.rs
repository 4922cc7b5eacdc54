//! Queries over distributed programs: remote gates and qubit-node pairs.

use std::collections::HashMap;

use dqc_circuit::{Circuit, Gate, NodeId, Partition, QubitId};

/// The two (qubit, node) pairs a remote two-qubit gate participates in.
///
/// A remote gate with operands `a` on node A and `b` on node B belongs to
/// the burst pair `(a, B)` and symmetrically `(b, A)` (paper §3.2). Returns
/// `None` for local or non-two-qubit gates.
///
/// ```
/// use autocomm::remote_pairs_of;
/// use dqc_circuit::{Gate, Partition, QubitId};
/// let p = Partition::block(4, 2).unwrap();
/// let pairs = remote_pairs_of(&Gate::cx(QubitId::new(0), QubitId::new(2)), &p).unwrap();
/// assert_eq!(pairs[0].0, QubitId::new(0)); // q0 talks to node 1
/// assert_eq!(pairs[0].1.index(), 1);
/// assert_eq!(pairs[1].0, QubitId::new(2)); // q2 talks to node 0
/// ```
pub fn remote_pairs_of(gate: &Gate, partition: &Partition) -> Option<[(QubitId, NodeId); 2]> {
    if !gate.is_two_qubit_unitary() || !partition.is_remote(gate) {
        return None;
    }
    let a = gate.qubits()[0];
    let b = gate.qubits()[1];
    Some([(a, partition.node_of(b)), (b, partition.node_of(a))])
}

/// Number of remote gates associated with every (qubit, node) pair — the
/// statistic the aggregation preprocessing ranks pairs by (the paper starts
/// “with the qubit-node pair associated with the most remote gates”).
pub fn pair_stats(circuit: &Circuit, partition: &Partition) -> HashMap<(QubitId, NodeId), usize> {
    // Count densely (qubit x node grid), then export the non-zero cells —
    // the per-gate loop never hashes.
    let nodes = partition.num_nodes();
    let mut dense = vec![0usize; circuit.num_qubits() * nodes];
    for gate in circuit.gates() {
        for (q, node) in remote_pairs_of(gate, partition).into_iter().flatten() {
            dense[q.index() * nodes + node.index()] += 1;
        }
    }
    dense
        .into_iter()
        .enumerate()
        .filter(|&(_, n)| n > 0)
        .map(|(slot, n)| ((QubitId::new(slot / nodes), NodeId::new(slot % nodes)), n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn local_gates_have_no_pairs() {
        let p = Partition::block(4, 2).unwrap();
        assert!(remote_pairs_of(&Gate::cx(q(0), q(1)), &p).is_none());
        assert!(remote_pairs_of(&Gate::h(q(0)), &p).is_none());
    }

    #[test]
    fn pair_stats_counts_both_directions() {
        let p = Partition::block(4, 2).unwrap();
        let mut c = Circuit::new(4);
        c.push(Gate::cx(q(0), q(2))).unwrap();
        c.push(Gate::cx(q(0), q(3))).unwrap();
        c.push(Gate::cx(q(1), q(2))).unwrap();
        let stats = pair_stats(&c, &p);
        // q0 talks to node 1 twice.
        assert_eq!(stats[&(q(0), NodeId::new(1))], 2);
        // q2 talks to node 0 twice (from q0 and q1).
        assert_eq!(stats[&(q(2), NodeId::new(0))], 2);
        assert_eq!(stats[&(q(3), NodeId::new(0))], 1);
        assert_eq!(stats[&(q(1), NodeId::new(1))], 1);
    }
}

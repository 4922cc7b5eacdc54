//! `CommIr`: the indexed program representation every pass compiles
//! against.
//!
//! Built once per compile (after unrolling), a [`CommIr`] bundles
//!
//! * an interned [`GateTable`] — each distinct gate stored once, everything
//!   downstream holds [`GateId`]s instead of cloned [`Gate`]s;
//! * the program `stream` — the unrolled circuit as gate ids in order;
//! * the per-(qubit, node) remote-gate statistics and occurrence lists the
//!   aggregation preprocessing ranks pairs by (paper §4.2), computed in a
//!   single sweep.
//!
//! The IR holds no conflict graph: aggregation answers its conflict checks
//! with two [`dqc_circuit::CommSummary`]s built from the table's per-gate
//! wire records.
//!
//! [`AggregatedProgram`](crate::AggregatedProgram) and
//! [`AssignedProgram`](crate::AssignedProgram) share the `CommIr` by
//! [`Arc`], so the whole pipeline resolves gates through one table and
//! never re-derives commutation structure from raw gate pairs.

use std::sync::Arc;

use dqc_circuit::{Circuit, Gate, GateId, GateTable, NodeId, Partition, QubitId};

/// The indexed IR one compile runs on. See the module docs.
#[derive(Clone, Debug)]
pub struct CommIr {
    table: GateTable,
    stream: Vec<GateId>,
    partition: Partition,
    num_qubits: usize,
    num_cbits: usize,
    /// (qubit, node) pairs ranked by remote-gate count, descending (ties by
    /// ids, matching the aggregation preprocessing order).
    ranked_pairs: Vec<((QubitId, NodeId), usize)>,
    /// Stream positions of each pair's remote gates, ascending, densely
    /// indexed by `qubit * num_nodes + node`.
    occurrences: Vec<Vec<u32>>,
    num_nodes: usize,
}

impl CommIr {
    /// Builds the IR for `circuit` compiled against `partition`.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover the circuit's register.
    pub fn build(circuit: &Circuit, partition: &Partition) -> Self {
        assert_eq!(
            circuit.num_qubits(),
            partition.num_qubits(),
            "partition must cover the circuit register"
        );
        let mut table = GateTable::with_capacity(circuit.len() / 2);
        let mut stream = Vec::with_capacity(circuit.len());
        let num_nodes = partition.num_nodes();
        let mut occurrences: Vec<Vec<u32>> = vec![Vec::new(); circuit.num_qubits() * num_nodes];
        for (pos, gate) in circuit.gates().iter().enumerate() {
            stream.push(table.intern(gate));
            for (q, node) in crate::remote_pairs_of(gate, partition).into_iter().flatten() {
                occurrences[q.index() * num_nodes + node.index()].push(pos as u32);
            }
        }
        let mut ranked_pairs: Vec<((QubitId, NodeId), usize)> = occurrences
            .iter()
            .enumerate()
            .filter(|(_, occ)| !occ.is_empty())
            .map(|(slot, occ)| {
                ((QubitId::new(slot / num_nodes), NodeId::new(slot % num_nodes)), occ.len())
            })
            .collect();
        ranked_pairs
            .sort_by(|a, b| b.1.cmp(&a.1).then_with(|| (a.0 .0, a.0 .1).cmp(&(b.0 .0, b.0 .1))));
        CommIr {
            table,
            stream,
            partition: partition.clone(),
            num_qubits: circuit.num_qubits(),
            num_cbits: circuit.num_cbits(),
            ranked_pairs,
            occurrences,
            num_nodes,
        }
    }

    /// Builds the IR and wraps it for sharing across pass artifacts.
    pub fn build_shared(circuit: &Circuit, partition: &Partition) -> Arc<Self> {
        Arc::new(Self::build(circuit, partition))
    }

    /// The interned gate table.
    pub fn table(&self) -> &GateTable {
        &self.table
    }

    /// The qubit → node assignment the IR was built against.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Resolves a gate id.
    pub fn gate(&self, id: GateId) -> &Gate {
        self.table.gate(id)
    }

    /// The program stream: the unrolled circuit as interned ids, in order.
    pub fn stream(&self) -> &[GateId] {
        &self.stream
    }

    /// The gate at stream position `pos`.
    pub fn gate_at(&self, pos: usize) -> &Gate {
        self.table.gate(self.stream[pos])
    }

    /// Number of gates in the stream.
    pub fn len(&self) -> usize {
        self.stream.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.stream.is_empty()
    }

    /// Quantum register width.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Classical register width.
    pub fn num_cbits(&self) -> usize {
        self.num_cbits
    }

    /// (qubit, node) pairs ranked by remote-gate count, descending.
    pub fn ranked_pairs(&self) -> &[((QubitId, NodeId), usize)] {
        &self.ranked_pairs
    }

    /// Stream positions of a pair's remote gates, ascending.
    pub fn occurrences(&self, (q, node): (QubitId, NodeId)) -> &[u32] {
        self.occurrences
            .get(q.index() * self.num_nodes + node.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of distinct gates interned (the stream length bounds it).
    pub fn unique_gates(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    fn sample() -> (Circuit, Partition) {
        let p = Partition::block(4, 2).unwrap();
        let mut c = Circuit::new(4);
        c.push(Gate::cx(q(0), q(2))).unwrap();
        c.push(Gate::rz(0.5, q(0))).unwrap();
        c.push(Gate::cx(q(0), q(2))).unwrap();
        c.push(Gate::cx(q(1), q(3))).unwrap();
        (c, p)
    }

    #[test]
    fn interns_repeated_gates_once() {
        let (c, p) = sample();
        let ir = CommIr::build(&c, &p);
        assert_eq!(ir.len(), 4);
        assert_eq!(ir.unique_gates(), 3);
        assert_eq!(ir.stream()[0], ir.stream()[2]);
        assert_eq!(ir.gate_at(1), &Gate::rz(0.5, q(0)));
    }

    #[test]
    fn ranks_pairs_by_remote_count() {
        let (c, p) = sample();
        let ir = CommIr::build(&c, &p);
        let top = ir.ranked_pairs()[0];
        assert_eq!(top.0, (q(0), NodeId::new(1)));
        assert_eq!(top.1, 2);
        assert_eq!(ir.occurrences((q(0), NodeId::new(1))), &[0, 2]);
        assert_eq!(ir.occurrences((q(1), NodeId::new(1))), &[3]);
        assert!(ir.occurrences((q(2), NodeId::new(1))).is_empty());
    }

    #[test]
    fn register_mismatch_panics() {
        let c = Circuit::new(4);
        let p = Partition::block(6, 2).unwrap();
        assert!(std::panic::catch_unwind(|| CommIr::build(&c, &p)).is_err());
    }
}

//! Burst-communication blocks.

use std::collections::BTreeSet;
use std::fmt;

use dqc_circuit::{Gate, GateId, GateTable, NodeId, Partition, QubitId};

/// One burst-communication block: an ordered group of gates between a
/// single *burst qubit* and a single remote *node* (paper §3.2).
///
/// Since the `CommIr` refactor the body is a list of [`GateId`]s into the
/// compile's shared [`GateTable`] — building, splitting, and cloning blocks
/// moves `u32` indices, never gate payloads. The remote-gate count is
/// maintained on push so the hot metric needs no table at all; body
/// accessors that need gate contents take the table explicitly, and the
/// classification on push and trim reads only the table's flat arenas.
///
/// The body holds both the remote two-qubit gates of the pair and any
/// interior local gates absorbed during aggregation (gates on the remote
/// node's qubits, or non-commuting single-qubit gates on the burst qubit —
/// paper Algorithm 1's `non_commute_gates`).
#[derive(Clone, Debug, PartialEq)]
pub struct CommBlock {
    qubit: QubitId,
    node: NodeId,
    gates: Vec<GateId>,
    remote: u32,
}

impl CommBlock {
    /// An empty block for the burst pair `(qubit, node)`.
    pub fn new(qubit: QubitId, node: NodeId) -> Self {
        CommBlock { qubit, node, gates: Vec::new(), remote: 0 }
    }

    /// The burst qubit.
    pub fn qubit(&self) -> QubitId {
        self.qubit
    }

    /// The remote node the burst qubit communicates with.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The body as gate ids, in execution order.
    pub fn ids(&self) -> &[GateId] {
        &self.gates
    }

    /// The body gates, in execution order, resolved through `table`.
    pub fn gates<'a>(&'a self, table: &'a GateTable) -> impl Iterator<Item = &'a Gate> + 'a {
        self.gates.iter().map(|&id| table.gate(id))
    }

    /// Whether gate `id` counts as a remote gate of this block's pair: a
    /// two-qubit unitary acting on the burst qubit.
    fn is_remote(&self, table: &GateTable, id: GateId) -> bool {
        table.operand_count(id) == 2
            && table.is_unitary(id)
            && table.qubit_indices(id).any(|x| x == self.qubit.index())
    }

    /// Appends gate `id` of the compile's `table` to the body.
    pub fn push(&mut self, id: GateId, table: &GateTable) {
        if self.is_remote(table, id) {
            self.remote += 1;
        }
        self.gates.push(id);
    }

    /// Number of body gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The remote two-qubit gates of the pair (body gates acting on the
    /// burst qubit with their partner on the remote node).
    pub fn remote_gates<'a>(&'a self, table: &'a GateTable) -> impl Iterator<Item = &'a Gate> + 'a {
        self.gates.iter().filter(|&&id| self.is_remote(table, id)).map(|&id| table.gate(id))
    }

    /// Number of remote two-qubit gates carried by this block — the
    /// paper's “# REM CX” per communication once the body is in the CX+U3
    /// basis. Maintained on push, so no table is needed.
    pub fn remote_gate_count(&self) -> usize {
        self.remote as usize
    }

    /// Every qubit referenced by the body.
    pub fn involved_qubits(&self, table: &GateTable) -> BTreeSet<QubitId> {
        self.gates(table).flat_map(|g| g.qubits().iter().copied()).collect()
    }

    /// The node the burst qubit lives on.
    pub fn home(&self, partition: &Partition) -> NodeId {
        partition.node_of(self.qubit)
    }

    /// Drops trailing body gates that are not remote gates of the pair
    /// (they never needed to ride the communication; aggregation calls this
    /// before sealing a block). Returns the trimmed-off suffix in order.
    pub fn trim_trailing_locals(&mut self, table: &GateTable) -> Vec<GateId> {
        let last_remote = self.gates.iter().rposition(|&id| self.is_remote(table, id));
        match last_remote {
            Some(i) => self.gates.split_off(i + 1),
            None => std::mem::take(&mut self.gates),
        }
    }

    /// A one-line description (needs the table only for the body length
    /// breakdown already cached, so none is taken).
    pub fn describe(&self) -> String {
        format!(
            "block[{} ↔ {}; {} gates, {} remote]",
            self.qubit,
            self.node,
            self.gates.len(),
            self.remote
        )
    }
}

impl fmt::Display for CommBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    fn push(b: &mut CommBlock, table: &mut GateTable, gate: Gate) {
        let id = table.intern(&gate);
        b.push(id, table);
    }

    fn sample_block(table: &mut GateTable) -> CommBlock {
        let mut b = CommBlock::new(q(0), NodeId::new(1));
        push(&mut b, table, Gate::cx(q(0), q(2)));
        push(&mut b, table, Gate::h(q(3)));
        push(&mut b, table, Gate::cx(q(0), q(3)));
        b
    }

    #[test]
    fn counts_remote_gates() {
        let mut table = GateTable::new();
        let b = sample_block(&mut table);
        assert_eq!(b.len(), 3);
        assert_eq!(b.remote_gate_count(), 2);
        assert_eq!(b.involved_qubits(&table).len(), 3);
        assert_eq!(b.remote_gates(&table).count(), 2);
    }

    #[test]
    fn trim_trailing_locals_keeps_remote_suffix() {
        let mut table = GateTable::new();
        let mut b = sample_block(&mut table);
        push(&mut b, &mut table, Gate::t(q(2)));
        push(&mut b, &mut table, Gate::h(q(3)));
        let trimmed = b.trim_trailing_locals(&table);
        assert_eq!(trimmed.len(), 2);
        assert_eq!(b.len(), 3);
        assert_eq!(b.gates(&table).count(), 3);
    }

    #[test]
    fn trim_on_remote_free_block_empties_it() {
        let mut table = GateTable::new();
        let mut b = CommBlock::new(q(0), NodeId::new(1));
        push(&mut b, &mut table, Gate::h(q(2)));
        let trimmed = b.trim_trailing_locals(&table);
        assert_eq!(trimmed.len(), 1);
        assert!(b.is_empty());
    }

    #[test]
    fn home_uses_partition() {
        let mut table = GateTable::new();
        let p = Partition::block(4, 2).unwrap();
        let b = sample_block(&mut table);
        assert_eq!(b.home(&p).index(), 0);
        assert_eq!(b.node().index(), 1);
    }

    #[test]
    fn display_summarizes() {
        let mut table = GateTable::new();
        let s = sample_block(&mut table).to_string();
        assert!(s.contains("q0"));
        assert!(s.contains("N1"));
        assert!(s.contains("2 remote"));
    }
}

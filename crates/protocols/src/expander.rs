//! Lowering of distributed programs onto the physical register.

use dqc_circuit::{AxisBehavior, CBitId, Circuit, Gate, NodeId, Partition, QubitId};
use dqc_hardware::NetworkTopology;

use crate::ProtocolError;

/// Result of lowering: the physical circuit plus protocol accounting.
///
/// The physical register holds the logical qubits first, then two
/// communication qubits per node: node `i` owns physical qubits
/// `n + 2i` (slot 0) and `n + 2i + 1` (slot 1).
#[derive(Clone, Debug)]
pub struct PhysicalProgram {
    /// The lowered circuit (logical + communication qubits, with
    /// measurements and conditioned corrections).
    pub circuit: Circuit,
    /// EPR pairs consumed (one per hop of every routed communication).
    pub epr_pairs: usize,
    /// Entanglement swaps performed at relay nodes of multi-hop routes.
    pub swaps: usize,
    /// Number of logical qubits (a prefix of the register).
    pub num_logical: usize,
    /// Cat-Comm blocks expanded.
    pub cat_blocks: usize,
    /// TP-Comm blocks expanded.
    pub tp_blocks: usize,
}

impl PhysicalProgram {
    /// The logical-qubit ids `0..num_logical` (for fidelity checks).
    pub fn logical_qubits(&self) -> Vec<QubitId> {
        (0..self.num_logical).map(QubitId::new).collect()
    }
}

/// Builds a physical circuit by interleaving local gates with Cat-Comm and
/// TP-Comm block expansions (paper Figures 2–3).
///
/// The expander is the *functional* counterpart of the latency scheduler:
/// it emits every EPR preparation, measurement, and conditioned correction
/// so the result can be simulated and checked against the logical program.
/// On sparse topologies ([`ProtocolExpander::with_topology`]) end-to-end
/// entanglement between non-adjacent nodes is emitted as a real swap
/// chain: per-hop EPR generations followed by a Bell measurement at every
/// relay node with classically conditioned corrections.
///
/// The expansion is deliberately independent of *when* the scheduler
/// materializes each pair: a pair popped from an EPR buffer (prefetched
/// generation under a buffered `BufferPolicy`) lowers to exactly the same
/// Cat/TP gate sequence as an on-demand pair, so buffered schedules stay
/// simulator-exact by construction (`tests/buffer_properties.rs` verifies
/// this end to end).
#[derive(Clone, Debug)]
pub struct ProtocolExpander {
    circuit: Circuit,
    partition: Partition,
    topology: NetworkTopology,
    num_logical: usize,
    next_cbit: usize,
    epr_pairs: usize,
    swaps: usize,
    cat_blocks: usize,
    tp_blocks: usize,
}

impl ProtocolExpander {
    /// Creates an expander for programs over `partition`'s qubits with the
    /// paper's all-to-all connectivity; the physical register adds two
    /// communication qubits per node.
    pub fn new(partition: &Partition) -> Self {
        ProtocolExpander::with_topology(
            partition,
            NetworkTopology::all_to_all(partition.num_nodes()),
        )
        .expect("all-to-all matches every partition")
    }

    /// Creates an expander lowering against an explicit interconnect
    /// `topology`; non-adjacent blocks expand through entanglement-swap
    /// chains.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Topology`] when the topology's node count disagrees
    /// with the partition's or some node pair is disconnected.
    pub fn with_topology(
        partition: &Partition,
        topology: NetworkTopology,
    ) -> Result<Self, ProtocolError> {
        if topology.num_nodes() != partition.num_nodes() {
            return Err(ProtocolError::Topology {
                message: format!(
                    "topology covers {} node(s) but the partition has {}",
                    topology.num_nodes(),
                    partition.num_nodes()
                ),
            });
        }
        if !topology.is_connected() {
            return Err(ProtocolError::Topology {
                message: "the interconnect topology is disconnected".into(),
            });
        }
        let n = partition.num_qubits();
        let total = n + 2 * partition.num_nodes();
        Ok(ProtocolExpander {
            circuit: Circuit::with_cbits(total, 0),
            partition: partition.clone(),
            topology,
            num_logical: n,
            next_cbit: 0,
            epr_pairs: 0,
            swaps: 0,
            cat_blocks: 0,
            tp_blocks: 0,
        })
    }

    /// This expander with the input program's first `n` classical bits
    /// reserved: the physical circuit starts with them, so the program's
    /// own measurements and conditions keep their indices, and protocol
    /// measurement bits are numbered after them. Call it before expanding
    /// anything.
    #[must_use]
    pub fn with_program_cbits(mut self, n: usize) -> Self {
        self.circuit.ensure_cbits(n);
        self.next_cbit = self.next_cbit.max(n);
        self
    }

    /// The communication qubit `slot` (0 or 1) of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `slot > 1` or `node` is out of range.
    pub fn comm_qubit(&self, node: NodeId, slot: usize) -> QubitId {
        assert!(slot < 2, "two communication qubits per node");
        assert!(node.index() < self.partition.num_nodes(), "node out of range");
        QubitId::new(self.num_logical + 2 * node.index() + slot)
    }

    /// Appends a local (single-node) gate unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NotCatCompatible`] — reused as a generic
    /// rejection — when the gate is remote under the partition; remote
    /// gates must go through a block expansion.
    pub fn push_local(&mut self, gate: &Gate) -> Result<(), ProtocolError> {
        if self.partition.is_remote(gate) {
            return Err(ProtocolError::NotCatCompatible {
                gate: gate.to_string(),
                reason: "remote gates must be lowered through a communication block",
            });
        }
        self.circuit.push(gate.clone())?;
        Ok(())
    }

    /// Expands one Cat-Comm burst block between `burst` (living on its home
    /// node) and `node` (paper Fig. 3a): one EPR pair, cat-entangle, the
    /// body with the burst qubit redirected onto the remote communication
    /// qubit, cat-disentangle.
    ///
    /// Body gates must each either (a) be Z-diagonal on the burst qubit
    /// with all other operands on `node` (remote CX must have the burst
    /// qubit as control), (b) act only on `node`'s qubits, or (c) be a
    /// single-qubit Z-diagonal gate on the burst qubit. A body gate may be
    /// conditioned on a program bit (see [`Self::with_program_cbits`]):
    /// applied or not, it leaves the body Z-diagonal on the copy.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NotRemote`] if `burst` lives on `node`;
    /// [`ProtocolError::NotCatCompatible`] / [`ProtocolError::ForeignQubit`]
    /// for invalid bodies.
    pub fn cat_comm_block(
        &mut self,
        burst: QubitId,
        node: NodeId,
        body: &[Gate],
    ) -> Result<(), ProtocolError> {
        let home = self.partition.node_of(burst);
        if home == node {
            return Err(ProtocolError::NotRemote { qubit: burst });
        }
        for gate in body {
            self.validate_block_gate(gate, burst, node, true)?;
        }

        let ca = self.comm_qubit(home, 0);
        let cb = self.comm_qubit(node, 0);
        self.entangle_ends(home, node, ca, cb)?;

        // Cat-entangler (Fig. 2a left): copy the burst value onto cb.
        let c0 = self.fresh_cbit();
        self.circuit.push(Gate::cx(burst, ca))?;
        self.circuit.push(Gate::measure(ca, c0))?;
        self.circuit.push(Gate::x(cb).with_condition(c0))?;

        // Body: redirect the burst operand onto the copy.
        for gate in body {
            let mapped = if gate.acts_on(burst) && gate.num_qubits() > 1 {
                gate.map_qubits(|q| if q == burst { cb } else { q })
            } else {
                gate.clone()
            };
            self.circuit.push(mapped)?;
        }

        // Cat-disentangler (Fig. 2a right): uncompute the copy.
        let c1 = self.fresh_cbit();
        self.circuit.push(Gate::h(cb))?;
        self.circuit.push(Gate::measure(cb, c1))?;
        self.circuit.push(Gate::z(burst).with_condition(c1))?;

        // Leave both communication qubits clean for reuse.
        self.circuit.push(Gate::reset(ca))?;
        self.circuit.push(Gate::reset(cb))?;
        self.cat_blocks += 1;
        Ok(())
    }

    /// Expands one TP-Comm burst block (paper Fig. 3b): teleport `burst` to
    /// `node`, run the arbitrary body there, teleport it home — consuming
    /// the paper's two EPR pairs (the second handles the “dirty
    /// side-effect” of the occupied communication qubit).
    ///
    /// Body gates may touch the burst qubit in any role; all other operands
    /// must live on `node`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NotRemote`] if `burst` lives on `node`;
    /// [`ProtocolError::ForeignQubit`] for out-of-scope operands.
    pub fn tp_comm_block(
        &mut self,
        burst: QubitId,
        node: NodeId,
        body: &[Gate],
    ) -> Result<(), ProtocolError> {
        let home = self.partition.node_of(burst);
        if home == node {
            return Err(ProtocolError::NotRemote { qubit: burst });
        }
        for gate in body {
            self.validate_block_gate(gate, burst, node, false)?;
        }

        let ca = self.comm_qubit(home, 0);
        let cb = self.comm_qubit(node, 0);
        let cb2 = self.comm_qubit(node, 1);

        // Teleport burst → cb.
        self.entangle_ends(home, node, ca, cb)?;
        let (c0, c1) = (self.fresh_cbit(), self.fresh_cbit());
        self.circuit.push(Gate::cx(burst, ca))?;
        self.circuit.push(Gate::h(burst))?;
        self.circuit.push(Gate::measure(burst, c0))?;
        self.circuit.push(Gate::measure(ca, c1))?;
        self.circuit.push(Gate::x(cb).with_condition(c1))?;
        self.circuit.push(Gate::z(cb).with_condition(c0))?;

        // Body executes locally at `node`, with cb standing in for burst.
        for gate in body {
            let mapped = gate.map_qubits(|q| if q == burst { cb } else { q });
            self.circuit.push(mapped)?;
        }

        // Teleport cb → burst. The home-side EPR half is placed directly on
        // the (now measured-out) burst wire, standing in for a communication
        // qubit plus a free local relocation, which the paper does not
        // charge either.
        self.entangle_ends(home, node, burst, cb2)?;
        let (c2, c3) = (self.fresh_cbit(), self.fresh_cbit());
        self.circuit.push(Gate::cx(cb, cb2))?;
        self.circuit.push(Gate::h(cb))?;
        self.circuit.push(Gate::measure(cb, c2))?;
        self.circuit.push(Gate::measure(cb2, c3))?;
        self.circuit.push(Gate::x(burst).with_condition(c3))?;
        self.circuit.push(Gate::z(burst).with_condition(c2))?;

        self.circuit.push(Gate::reset(ca))?;
        self.circuit.push(Gate::reset(cb))?;
        self.circuit.push(Gate::reset(cb2))?;
        self.tp_blocks += 1;
        Ok(())
    }

    /// Finishes lowering and returns the physical program.
    pub fn finish(self) -> PhysicalProgram {
        PhysicalProgram {
            circuit: self.circuit,
            epr_pairs: self.epr_pairs,
            swaps: self.swaps,
            num_logical: self.num_logical,
            cat_blocks: self.cat_blocks,
            tp_blocks: self.tp_blocks,
        }
    }

    /// EPR pairs consumed so far.
    pub fn epr_pairs(&self) -> usize {
        self.epr_pairs
    }

    /// Establishes end-to-end entanglement between `q_from` (on node
    /// `from`) and `q_to` (on node `to`) along the topology's routed path.
    /// Adjacent nodes get a plain EPR preparation; longer routes emit one
    /// EPR generation per hop followed by a Bell measurement at every relay
    /// with classically conditioned corrections (entanglement swapping),
    /// leaving the relay communication qubits reset for reuse.
    fn entangle_ends(
        &mut self,
        from: NodeId,
        to: NodeId,
        q_from: QubitId,
        q_to: QubitId,
    ) -> Result<(), ProtocolError> {
        let path = self.topology.path(from, to).expect("with_topology validated full connectivity");
        let k = path.len() - 1;
        if k == 1 {
            return self.prepare_epr(q_from, q_to);
        }
        // Per-hop pairs: relay i receives on slot 0 and forwards on slot 1.
        for i in 0..k {
            let src = if i == 0 { q_from } else { self.comm_qubit(path[i], 1) };
            let dst = if i + 1 == k { q_to } else { self.comm_qubit(path[i + 1], 0) };
            self.prepare_epr(src, dst)?;
        }
        // Swap left to right: each relay's Bell measurement splices its two
        // halves; corrections land on the far end of the right-hand pair.
        for i in 1..k {
            let m_in = self.comm_qubit(path[i], 0);
            let m_out = self.comm_qubit(path[i], 1);
            let far = if i + 1 == k { q_to } else { self.comm_qubit(path[i + 1], 0) };
            let (c0, c1) = (self.fresh_cbit(), self.fresh_cbit());
            self.circuit.push(Gate::cx(m_in, m_out))?;
            self.circuit.push(Gate::h(m_in))?;
            self.circuit.push(Gate::measure(m_in, c0))?;
            self.circuit.push(Gate::measure(m_out, c1))?;
            self.circuit.push(Gate::x(far).with_condition(c1))?;
            self.circuit.push(Gate::z(far).with_condition(c0))?;
            self.circuit.push(Gate::reset(m_in))?;
            self.circuit.push(Gate::reset(m_out))?;
            self.swaps += 1;
        }
        Ok(())
    }

    fn validate_block_gate(
        &self,
        gate: &Gate,
        burst: QubitId,
        node: NodeId,
        cat: bool,
    ) -> Result<(), ProtocolError> {
        for &q in gate.qubits() {
            if q != burst && self.partition.node_of(q) != node {
                return Err(ProtocolError::ForeignQubit { qubit: q, node });
            }
        }
        if cat && gate.acts_on(burst) {
            let behavior = AxisBehavior::of(gate, burst);
            if behavior != AxisBehavior::ZDiag {
                return Err(ProtocolError::NotCatCompatible {
                    gate: gate.to_string(),
                    reason: "the burst qubit must be Z-diagonal (control side) under Cat-Comm",
                });
            }
        }
        Ok(())
    }

    fn prepare_epr(&mut self, a: QubitId, b: QubitId) -> Result<(), ProtocolError> {
        self.circuit.push(Gate::reset(a))?;
        self.circuit.push(Gate::reset(b))?;
        self.circuit.push(Gate::h(a))?;
        self.circuit.push(Gate::cx(a, b))?;
        self.epr_pairs += 1;
        Ok(())
    }

    fn fresh_cbit(&mut self) -> CBitId {
        let c = CBitId::new(self.next_cbit);
        self.next_cbit += 1;
        self.circuit.ensure_cbits(self.next_cbit);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_hardware::NetworkTopology;
    use dqc_sim::{SplitMix64, StateVector};

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Runs `logical` and the `physical` lowering from the same random
    /// input and returns the fidelity of the logical register.
    fn lowering_fidelity(logical: &Circuit, physical: &PhysicalProgram, seed: u64) -> f64 {
        let mut rng = SplitMix64::new(seed);
        let expected_in = StateVector::random_state(logical.num_qubits(), &mut rng).unwrap();
        let mut expected = expected_in.clone();
        expected.run(logical, &mut rng.fork()).unwrap();

        // Embed the same input on the physical register (comm qubits |0⟩).
        let total = physical.circuit.num_qubits();
        let mut amps = vec![dqc_sim::Complex::ZERO; 1 << total];
        amps[..expected_in.amplitudes().len()].copy_from_slice(expected_in.amplitudes());
        let mut state = StateVector::from_amplitudes(amps).unwrap();
        state.run(&physical.circuit, &mut rng).unwrap();
        state.subset_fidelity(&expected, &physical.logical_qubits()).unwrap()
    }

    #[test]
    fn cat_single_remote_cx_is_exact() {
        let partition = Partition::block(4, 2).unwrap();
        let mut exp = ProtocolExpander::new(&partition);
        exp.cat_comm_block(q(0), n(1), &[Gate::cx(q(0), q(2))]).unwrap();
        let physical = exp.finish();
        assert_eq!(physical.epr_pairs, 1);
        assert_eq!(physical.cat_blocks, 1);

        let mut logical = Circuit::new(4);
        logical.push(Gate::cx(q(0), q(2))).unwrap();
        for seed in 1..6 {
            let f = lowering_fidelity(&logical, &physical, seed);
            assert!((f - 1.0).abs() < 1e-9, "fidelity {f} at seed {seed}");
        }
    }

    #[test]
    fn cat_controlled_unitary_block_is_exact() {
        // Paper Fig. 3a: C-U1-U2 with one EPR pair.
        let partition = Partition::block(4, 2).unwrap();
        let body = vec![
            Gate::cx(q(0), q(2)),
            Gate::ry(0.3, q(2)), // U1 on the remote node
            Gate::cx(q(0), q(3)),
            Gate::h(q(3)), // U2
            Gate::cx(q(0), q(2)),
            Gate::rz(0.9, q(0)), // diagonal on the burst qubit: allowed
        ];
        let mut exp = ProtocolExpander::new(&partition);
        exp.cat_comm_block(q(0), n(1), &body).unwrap();
        let physical = exp.finish();
        assert_eq!(physical.epr_pairs, 1);

        let mut logical = Circuit::new(4);
        logical.extend_gates(body).unwrap();
        let f = lowering_fidelity(&logical, &physical, 7);
        assert!((f - 1.0).abs() < 1e-9, "fidelity {f}");
    }

    #[test]
    fn cat_with_diagonal_two_qubit_gates() {
        let partition = Partition::block(4, 2).unwrap();
        let body = vec![
            Gate::crz(0.4, q(0), q(2)),
            Gate::rzz(0.7, q(0), q(3)),
            Gate::cp(0.2, q(2), q(0)), // burst as second operand of a diagonal gate
        ];
        let mut exp = ProtocolExpander::new(&partition);
        exp.cat_comm_block(q(0), n(1), &body).unwrap();
        let physical = exp.finish();

        let mut logical = Circuit::new(4);
        logical.extend_gates(body).unwrap();
        let f = lowering_fidelity(&logical, &physical, 11);
        assert!((f - 1.0).abs() < 1e-9, "fidelity {f}");
    }

    #[test]
    fn cat_rejects_target_form_and_opaque_interior() {
        let partition = Partition::block(4, 2).unwrap();
        let mut exp = ProtocolExpander::new(&partition);
        // Burst qubit as CX target.
        let err = exp.cat_comm_block(q(0), n(1), &[Gate::cx(q(2), q(0))]).unwrap_err();
        assert!(matches!(err, ProtocolError::NotCatCompatible { .. }));
        // H on the burst qubit inside the block.
        let err =
            exp.cat_comm_block(q(0), n(1), &[Gate::cx(q(0), q(2)), Gate::h(q(0))]).unwrap_err();
        assert!(matches!(err, ProtocolError::NotCatCompatible { .. }));
        // Foreign qubit (q1 lives on node 0, not node 1).
        let err = exp.cat_comm_block(q(0), n(1), &[Gate::cx(q(0), q(1))]).unwrap_err();
        assert!(matches!(err, ProtocolError::ForeignQubit { .. }));
        // Not remote.
        let err = exp.cat_comm_block(q(0), n(0), &[]).unwrap_err();
        assert!(matches!(err, ProtocolError::NotRemote { .. }));
    }

    #[test]
    fn tp_bidirectional_block_is_exact() {
        // A block Cat-Comm cannot express: burst acts as control AND target,
        // with an H on the burst qubit in between (paper Fig. 9b).
        let partition = Partition::block(4, 2).unwrap();
        let body = vec![
            Gate::cx(q(0), q(2)),
            Gate::h(q(0)),
            Gate::cx(q(3), q(0)),
            Gate::t(q(0)),
            Gate::cx(q(0), q(3)),
        ];
        let mut exp = ProtocolExpander::new(&partition);
        exp.tp_comm_block(q(0), n(1), &body).unwrap();
        let physical = exp.finish();
        assert_eq!(physical.epr_pairs, 2);
        assert_eq!(physical.tp_blocks, 1);

        let mut logical = Circuit::new(4);
        logical.extend_gates(body).unwrap();
        for seed in 20..24 {
            let f = lowering_fidelity(&logical, &physical, seed);
            assert!((f - 1.0).abs() < 1e-9, "fidelity {f} at seed {seed}");
        }
    }

    #[test]
    fn tp_rejects_foreign_and_local() {
        let partition = Partition::block(6, 3).unwrap();
        let mut exp = ProtocolExpander::new(&partition);
        let err = exp.tp_comm_block(q(0), n(1), &[Gate::cx(q(0), q(4))]).unwrap_err();
        assert!(matches!(err, ProtocolError::ForeignQubit { .. }));
        let err = exp.tp_comm_block(q(2), n(1), &[]).unwrap_err();
        assert!(matches!(err, ProtocolError::NotRemote { .. }));
    }

    #[test]
    fn mixed_program_with_local_gates() {
        let partition = Partition::block(4, 2).unwrap();
        let mut exp = ProtocolExpander::new(&partition);
        exp.push_local(&Gate::h(q(0))).unwrap();
        exp.push_local(&Gate::cx(q(2), q(3))).unwrap();
        exp.cat_comm_block(q(0), n(1), &[Gate::cx(q(0), q(2))]).unwrap();
        exp.push_local(&Gate::h(q(0))).unwrap();
        exp.tp_comm_block(q(1), n(1), &[Gate::cx(q(2), q(1)), Gate::cx(q(1), q(3))]).unwrap();
        let physical = exp.finish();
        assert_eq!(physical.epr_pairs, 3);

        let mut logical = Circuit::new(4);
        logical.push(Gate::h(q(0))).unwrap();
        logical.push(Gate::cx(q(2), q(3))).unwrap();
        logical.push(Gate::cx(q(0), q(2))).unwrap();
        logical.push(Gate::h(q(0))).unwrap();
        logical.push(Gate::cx(q(2), q(1))).unwrap();
        logical.push(Gate::cx(q(1), q(3))).unwrap();
        for seed in 40..44 {
            let f = lowering_fidelity(&logical, &physical, seed);
            assert!((f - 1.0).abs() < 1e-9, "fidelity {f} at seed {seed}");
        }
    }

    #[test]
    fn push_local_rejects_remote_gates() {
        let partition = Partition::block(4, 2).unwrap();
        let mut exp = ProtocolExpander::new(&partition);
        assert!(exp.push_local(&Gate::cx(q(0), q(2))).is_err());
    }

    #[test]
    fn comm_qubit_layout() {
        let partition = Partition::block(4, 2).unwrap();
        let exp = ProtocolExpander::new(&partition);
        assert_eq!(exp.comm_qubit(n(0), 0), q(4));
        assert_eq!(exp.comm_qubit(n(0), 1), q(5));
        assert_eq!(exp.comm_qubit(n(1), 0), q(6));
        assert_eq!(exp.comm_qubit(n(1), 1), q(7));
    }

    #[test]
    fn multi_hop_cat_block_is_exact() {
        // Home node 0, remote node 2 on a 3-node chain: the cat block's
        // entanglement is a 2-hop swap chain through node 1.
        let partition = Partition::block(6, 3).unwrap();
        let topology = NetworkTopology::linear(3).unwrap();
        let mut exp = ProtocolExpander::with_topology(&partition, topology).unwrap();
        exp.cat_comm_block(q(0), n(2), &[Gate::cx(q(0), q(4)), Gate::cx(q(0), q(5))]).unwrap();
        let physical = exp.finish();
        assert_eq!(physical.epr_pairs, 2, "one pair per hop");
        assert_eq!(physical.swaps, 1, "one relay");

        let mut logical = Circuit::new(6);
        logical.push(Gate::cx(q(0), q(4))).unwrap();
        logical.push(Gate::cx(q(0), q(5))).unwrap();
        for seed in 60..64 {
            let f = lowering_fidelity(&logical, &physical, seed);
            assert!((f - 1.0).abs() < 1e-9, "fidelity {f} at seed {seed}");
        }
    }

    #[test]
    fn multi_hop_tp_block_is_exact() {
        // A bidirectional block between the two ends of a 4-node chain:
        // both teleport legs route through two relays.
        let partition = Partition::block(8, 4).unwrap();
        let topology = NetworkTopology::linear(4).unwrap();
        let mut exp = ProtocolExpander::with_topology(&partition, topology).unwrap();
        let body = vec![Gate::cx(q(0), q(6)), Gate::h(q(0)), Gate::cx(q(7), q(0))];
        exp.tp_comm_block(q(0), n(3), &body).unwrap();
        let physical = exp.finish();
        assert_eq!(physical.epr_pairs, 6, "3 hops out + 3 hops back");
        assert_eq!(physical.swaps, 4, "2 relays per leg");

        let mut logical = Circuit::new(8);
        logical.extend_gates(body).unwrap();
        for seed in 70..73 {
            let f = lowering_fidelity(&logical, &physical, seed);
            assert!((f - 1.0).abs() < 1e-9, "fidelity {f} at seed {seed}");
        }
    }

    #[test]
    fn all_to_all_expansion_is_unchanged_by_topology_plumbing() {
        let partition = Partition::block(4, 2).unwrap();
        let body = vec![Gate::cx(q(0), q(2))];
        let mut implicit = ProtocolExpander::new(&partition);
        implicit.cat_comm_block(q(0), n(1), &body).unwrap();
        let mut explicit =
            ProtocolExpander::with_topology(&partition, NetworkTopology::all_to_all(2)).unwrap();
        explicit.cat_comm_block(q(0), n(1), &body).unwrap();
        let (a, b) = (implicit.finish(), explicit.finish());
        assert_eq!(a.epr_pairs, b.epr_pairs);
        assert_eq!(a.swaps, 0);
        assert_eq!(a.circuit.gates(), b.circuit.gates());
    }

    #[test]
    fn bad_topologies_are_rejected() {
        let partition = Partition::block(6, 3).unwrap();
        let err = ProtocolExpander::with_topology(&partition, NetworkTopology::linear(2).unwrap())
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Topology { .. }));
        let disconnected =
            NetworkTopology::from_links("x", 3, vec![dqc_hardware::Link::new(n(0), n(1))]).unwrap();
        let err = ProtocolExpander::with_topology(&partition, disconnected).unwrap_err();
        assert!(matches!(err, ProtocolError::Topology { .. }));
    }

    #[test]
    fn comm_qubits_are_reusable_across_blocks() {
        // Two sequential cat blocks over the same node pair must reuse the
        // same comm qubits cleanly (resets between blocks).
        let partition = Partition::block(4, 2).unwrap();
        let body1 = vec![Gate::cx(q(0), q(2))];
        let body2 = vec![Gate::cx(q(1), q(3))];
        let mut exp = ProtocolExpander::new(&partition);
        exp.cat_comm_block(q(0), n(1), &body1).unwrap();
        exp.cat_comm_block(q(1), n(1), &body2).unwrap();
        let physical = exp.finish();
        assert_eq!(physical.epr_pairs, 2);

        let mut logical = Circuit::new(4);
        logical.extend_gates(body1).unwrap();
        logical.extend_gates(body2).unwrap();
        let f = lowering_fidelity(&logical, &physical, 99);
        assert!((f - 1.0).abs() < 1e-9, "fidelity {f}");
    }
}

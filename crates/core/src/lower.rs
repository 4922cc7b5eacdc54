//! Lowering assigned programs onto physical protocols.
//!
//! This is the functional back-end used for *verification*: every compiled
//! program can be expanded into a physical circuit (EPR preparations,
//! measurements, conditioned corrections) and simulated against the input
//! circuit. Target-form Cat blocks are H-conjugated into control form here
//! (paper Fig. 10a).

use dqc_circuit::{Gate, NodeId, QubitId};
use dqc_hardware::NetworkTopology;
use dqc_protocols::{PhysicalProgram, ProtocolExpander};

use crate::assign::{cat_pieces, Piece};
use crate::par::par_map;
use crate::{AssignedProgram, CatOrientation, CompileError, Item, Placement, Scheme};

/// One planned call into the stateful [`ProtocolExpander`] — the
/// communication-primitive form of a compiled program. Planning an item is
/// pure (conjugation, segmentation, body materialization — all the
/// per-item work), so it fans out across threads; the apply loop then
/// drives the expander sequentially with exactly the calls the historical
/// single-pass lowering made, in the same order.
///
/// The op list is also the unit the compile service serializes: a
/// [`crate::CompiledArtifact`] stores the [`lower_plan`] of a program so a
/// cache hit can replay the lowered form without recompiling.
#[derive(Clone, Debug, PartialEq)]
pub enum CommOp {
    /// A gate executed locally (`ProtocolExpander::push_local`).
    Local(Gate),
    /// A Cat-Comm burst: qubit `q` is cat-entangled to `node` and `body`
    /// executes under the shared entanglement
    /// (`ProtocolExpander::cat_comm_block`).
    Cat {
        /// The burst qubit.
        q: QubitId,
        /// The physical node the block is placed on.
        node: NodeId,
        /// The block body, already conjugated into control form.
        body: Vec<Gate>,
    },
    /// A TP-Comm burst: qubit `q` teleports to `node`, `body` executes,
    /// and the qubit teleports back (`ProtocolExpander::tp_comm_block`).
    Tp {
        /// The teleported qubit.
        q: QubitId,
        /// The physical node the block is placed on.
        node: NodeId,
        /// The block body.
        body: Vec<Gate>,
    },
}

/// Lowers an assigned program into a physical circuit over the extended
/// register (logical qubits + two communication qubits per node), assuming
/// the paper's all-to-all interconnect and the identity block→node map.
///
/// # Errors
///
/// See [`lower_assigned_on`].
pub fn lower_assigned(
    program: &AssignedProgram,
    partition: &dqc_circuit::Partition,
) -> Result<PhysicalProgram, CompileError> {
    lower_assigned_on(
        program,
        &Placement::identity(partition),
        &NetworkTopology::all_to_all(partition.num_nodes()),
    )
}

/// Lowers an assigned program into a physical circuit over the extended
/// register against an explicit interconnect `topology`; communications
/// between non-adjacent nodes expand into real entanglement-swap chains
/// (per-hop EPR generations plus relay Bell measurements), so lowered
/// circuits stay simulator-checkable on sparse machines. The expansion
/// runs over the *physical* qubit→node assignment of `placement`, so swap
/// chains follow the links the placed program actually routes over.
///
/// This is the cold verification path, so block bodies are materialized
/// from the shared gate table into the slices the protocol expander wants.
/// The program's classical bits keep their indices; protocol measurements
/// use bits after them.
///
/// # Errors
///
/// Returns [`CompileError::Protocol`] if the topology cannot serve the
/// placement, or if a block violates its assigned scheme's requirements —
/// the latter would be a compiler bug, surfaced loudly.
pub fn lower_assigned_on(
    program: &AssignedProgram,
    placement: &Placement,
    topology: &NetworkTopology,
) -> Result<PhysicalProgram, CompileError> {
    let plan = lower_plan(program, placement);
    // Apply: drive the single stateful expander sequentially.
    let mut exp =
        ProtocolExpander::with_topology(placement.physical_partition(), topology.clone())?
            .with_program_cbits(program.num_cbits());
    for step in &plan {
        match step {
            CommOp::Local(g) => exp.push_local(g)?,
            CommOp::Cat { q, node, body } => exp.cat_comm_block(*q, *node, body)?,
            CommOp::Tp { q, node, body } => exp.tp_comm_block(*q, *node, body)?,
        }
    }
    Ok(exp.finish())
}

/// The pure half of lowering: the flat [`CommOp`] sequence an assigned
/// program expands into under `placement` — local gates plus Cat/TP bursts
/// with fully materialized (and, for target-form Cat blocks, H-conjugated)
/// bodies, in program order. Per-item planning is independent, so it fans
/// out across threads on large programs with a deterministic in-order
/// merge.
pub fn lower_plan(program: &AssignedProgram, placement: &Placement) -> Vec<CommOp> {
    let plans: Vec<Vec<CommOp>> =
        par_map(program.items(), |&item| plan_item(program, placement, item));
    plans.into_iter().flatten().collect()
}

/// Plans the expander calls for one assigned item (the pure half of
/// lowering): a Cat block's call pieces become Cat calls and its local
/// pieces local gates.
fn plan_item(program: &AssignedProgram, placement: &Placement, item: Item) -> Vec<CommOp> {
    let table = program.ir().table();
    let mut steps = Vec::new();
    match item {
        Item::Local(id) => steps.push(CommOp::Local(table.gate(id).clone())),
        Item::Block(k) => {
            let b = program.block(k);
            let (q, node) = (b.block.qubit(), placement.physical_of(b.block.node()));
            match b.scheme {
                Scheme::Tp => {
                    let body: Vec<Gate> = b.block.gates(table).cloned().collect();
                    steps.push(CommOp::Tp { q, node, body });
                }
                Scheme::Cat(_) => {
                    for (piece, ids) in cat_pieces(table, b.block) {
                        let gates = ids.iter().map(|&id| table.gate(id));
                        match piece {
                            Piece::Local => steps.extend(gates.cloned().map(CommOp::Local)),
                            Piece::Call(CatOrientation::Control) => {
                                steps.push(CommOp::Cat { q, node, body: gates.cloned().collect() });
                            }
                            Piece::Call(CatOrientation::Target) => {
                                plan_target_call(&mut steps, q, node, gates);
                            }
                        }
                    }
                }
            }
        }
    }
    steps
}

/// Plans one target-form Cat call: conjugates its gates into control form
/// and wraps the call in boundary Hadamards (paper Fig. 10a). `node` is the
/// physical node the remote block is placed on.
fn plan_target_call<'a>(
    steps: &mut Vec<CommOp>,
    q: QubitId,
    node: NodeId,
    gates: impl Iterator<Item = &'a Gate> + Clone,
) {
    // Conjugation set: the burst qubit plus every partner of a remote CX
    // in this call.
    let mut set: Vec<QubitId> = vec![q];
    for g in gates.clone().filter(|g| g.is_two_qubit_unitary() && g.acts_on(q)) {
        for &x in g.qubits() {
            if x != q && !set.contains(&x) {
                set.push(x);
            }
        }
    }
    // Boundary Hadamards (local gates).
    for &s in &set {
        steps.push(CommOp::Local(Gate::h(s)));
    }
    // Per-gate conjugated body.
    let mut body = Vec::new();
    for g in gates {
        if g.is_two_qubit_unitary() && g.acts_on(q) {
            // CX(x → q) ≡ (H x ⊗ H q) CX(q → x) (H x ⊗ H q).
            let x =
                g.qubits().iter().copied().find(|&p| p != q).expect("two-qubit gate has a partner");
            body.push(Gate::cx(q, x));
        } else if g.acts_on(q) {
            // Interior X-diagonal gate on the burst qubit: conjugate
            // algebraically so the body stays Z-diagonal on q.
            body.extend(h_conjugate_single(g));
        } else {
            // Interior partner gate: wrap its operands in the set.
            let wrapped: Vec<QubitId> =
                g.qubits().iter().copied().filter(|x| set.contains(x)).collect();
            for &w in &wrapped {
                body.push(Gate::h(w));
            }
            body.push(g.clone());
            for &w in &wrapped {
                body.push(Gate::h(w));
            }
        }
    }
    steps.push(CommOp::Cat { q, node, body });
    for &s in &set {
        steps.push(CommOp::Local(Gate::h(s)));
    }
}

/// `H · g · H` for the X-diagonal single-qubit gates that can appear inside
/// a target-form segment; other kinds are wrapped explicitly (the protocol
/// layer then rejects them loudly if they reach a cat body).
fn h_conjugate_single(g: &Gate) -> Vec<Gate> {
    use dqc_circuit::GateKind;
    let q = g.qubits()[0];
    match g.kind() {
        GateKind::X => vec![Gate::z(q)],
        GateKind::Sx => vec![Gate::s(q)],
        GateKind::Rx => vec![Gate::rz(g.theta().expect("rx has a parameter"), q)],
        GateKind::I => vec![Gate::i(q)],
        _ => vec![Gate::h(q), g.clone(), Gate::h(q)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{aggregate, assign, assign_cat_only, AggregateOptions};
    use dqc_circuit::{Circuit, Partition};
    use dqc_sim::{SplitMix64, StateVector};

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    /// Compiles, lowers, and checks fidelity against the logical circuit.
    fn verify(c: &Circuit, p: &Partition, seed: u64, cat_only: bool) {
        let agg = aggregate(c, p, AggregateOptions::default());
        let assigned = if cat_only { assign_cat_only(&agg) } else { assign(&agg) };
        let physical = lower_assigned(&assigned, p).expect("lowering succeeds");

        let mut rng = SplitMix64::new(seed);
        let input = StateVector::random_state(c.num_qubits(), &mut rng).unwrap();
        let mut expected = input.clone();
        expected.run(c, &mut rng.fork()).unwrap();

        let total = physical.circuit.num_qubits();
        let mut amps = vec![dqc_sim::Complex::ZERO; 1 << total];
        amps[..input.amplitudes().len()].copy_from_slice(input.amplitudes());
        let mut state = StateVector::from_amplitudes(amps).unwrap();
        state.run(&physical.circuit, &mut rng).unwrap();
        let f = state.subset_fidelity(&expected, &physical.logical_qubits()).unwrap();
        assert!(
            (f - 1.0).abs() < 1e-8,
            "end-to-end fidelity {f} (seed {seed}, cat_only {cat_only})"
        );
    }

    #[test]
    fn control_form_cat_lowering_is_exact() {
        let p = Partition::block(4, 2).unwrap();
        let mut c = Circuit::new(4);
        c.push(Gate::cx(q(0), q(2))).unwrap();
        c.push(Gate::rz(0.3, q(0))).unwrap();
        c.push(Gate::cx(q(0), q(3))).unwrap();
        verify(&c, &p, 1, false);
    }

    #[test]
    fn target_form_cat_lowering_is_exact() {
        // BV-style oracle: two CXs targeting the burst qubit.
        let p = Partition::block(4, 2).unwrap();
        let mut c = Circuit::new(4);
        c.push(Gate::cx(q(2), q(0))).unwrap();
        c.push(Gate::cx(q(3), q(0))).unwrap();
        verify(&c, &p, 2, false);
    }

    #[test]
    fn target_form_with_interior_partner_gates() {
        let p = Partition::block(4, 2).unwrap();
        let mut c = Circuit::new(4);
        c.push(Gate::cx(q(2), q(0))).unwrap();
        c.push(Gate::t(q(2))).unwrap(); // interior gate on a conjugated partner
        c.push(Gate::cx(q(2), q(0))).unwrap();
        c.push(Gate::ry(0.4, q(3))).unwrap();
        c.push(Gate::cx(q(3), q(0))).unwrap();
        verify(&c, &p, 3, false);
    }

    #[test]
    fn tp_lowering_is_exact() {
        let p = Partition::block(4, 2).unwrap();
        let mut c = Circuit::new(4);
        c.push(Gate::cx(q(0), q(2))).unwrap();
        c.push(Gate::h(q(0))).unwrap();
        c.push(Gate::cx(q(3), q(0))).unwrap();
        verify(&c, &p, 4, false);
    }

    #[test]
    fn cat_only_split_lowering_is_exact() {
        let p = Partition::block(4, 2).unwrap();
        let mut c = Circuit::new(4);
        c.push(Gate::cx(q(0), q(2))).unwrap();
        c.push(Gate::cx(q(2), q(0))).unwrap();
        c.push(Gate::cx(q(0), q(3))).unwrap();
        verify(&c, &p, 5, true);
    }

    #[test]
    fn random_programs_survive_the_full_pipeline() {
        for seed in 0..6 {
            let (c, p) = dqc_workloads::random_distributed_circuit(5, 2, 30, seed + 100);
            let c = dqc_circuit::unroll_circuit(&c).unwrap();
            verify(&c, &p, seed, false);
            verify(&c, &p, seed, true);
        }
    }

    #[test]
    fn mixed_three_node_program() {
        let p = Partition::block(6, 3).unwrap();
        let mut c = Circuit::new(6);
        c.push(Gate::h(q(0))).unwrap();
        c.push(Gate::cx(q(0), q(2))).unwrap();
        c.push(Gate::cx(q(0), q(4))).unwrap();
        c.push(Gate::cx(q(3), q(0))).unwrap();
        c.push(Gate::cx(q(0), q(3))).unwrap();
        c.push(Gate::cx(q(4), q(5))).unwrap();
        verify(&c, &p, 6, false);
    }

    /// Compiles with the hop-aware assignment, lowers through swap chains,
    /// and checks fidelity against the logical circuit on a sparse machine.
    fn verify_sparse(c: &Circuit, p: &Partition, topology: &NetworkTopology, seed: u64) {
        let agg = aggregate(c, p, AggregateOptions::default());
        let placement = Placement::identity(p);
        let assigned = crate::assign_on(&agg, &placement, topology);
        let physical =
            lower_assigned_on(&assigned, &placement, topology).expect("lowering succeeds");
        assert!(physical.swaps > 0, "sparse program must swap");

        let mut rng = SplitMix64::new(seed);
        let input = StateVector::random_state(c.num_qubits(), &mut rng).unwrap();
        let mut expected = input.clone();
        expected.run(c, &mut rng.fork()).unwrap();

        let total = physical.circuit.num_qubits();
        let mut amps = vec![dqc_sim::Complex::ZERO; 1 << total];
        amps[..input.amplitudes().len()].copy_from_slice(input.amplitudes());
        let mut state = StateVector::from_amplitudes(amps).unwrap();
        state.run(&physical.circuit, &mut rng).unwrap();
        let f = state.subset_fidelity(&expected, &physical.logical_qubits()).unwrap();
        assert!((f - 1.0).abs() < 1e-8, "sparse end-to-end fidelity {f} (seed {seed})");
    }

    #[test]
    fn linear_topology_lowering_is_exact() {
        let topology = NetworkTopology::linear(3).unwrap();
        let p = Partition::block(6, 3).unwrap();
        // Control-form cat to the far node (2 hops) plus a bidirectional
        // block that the hop-aware tie sends through the split-Cat path.
        let mut c = Circuit::new(6);
        c.push(Gate::h(q(0))).unwrap();
        c.push(Gate::cx(q(0), q(4))).unwrap();
        c.push(Gate::cx(q(4), q(0))).unwrap();
        c.push(Gate::cx(q(0), q(5))).unwrap();
        verify_sparse(&c, &p, &topology, 31);
    }

    #[test]
    fn permuted_placement_lowering_is_exact() {
        use dqc_circuit::NodeId;
        // The same program under a non-identity block→node map must still
        // reproduce the logical state: the swap chains just follow
        // different links.
        let topology = NetworkTopology::linear(3).unwrap();
        let p = Partition::block(6, 3).unwrap();
        let placement =
            Placement::new(p.clone(), vec![NodeId::new(1), NodeId::new(0), NodeId::new(2)])
                .unwrap();
        let mut c = Circuit::new(6);
        c.push(Gate::h(q(0))).unwrap();
        c.push(Gate::cx(q(0), q(4))).unwrap();
        c.push(Gate::cx(q(0), q(2))).unwrap();
        c.push(Gate::cx(q(3), q(0))).unwrap();
        let agg = aggregate(&c, &p, AggregateOptions::default());
        let assigned = crate::assign_on(&agg, &placement, &topology);
        let physical = lower_assigned_on(&assigned, &placement, &topology).unwrap();

        let mut rng = SplitMix64::new(77);
        let input = StateVector::random_state(c.num_qubits(), &mut rng).unwrap();
        let mut expected = input.clone();
        expected.run(&c, &mut rng.fork()).unwrap();
        let total = physical.circuit.num_qubits();
        let mut amps = vec![dqc_sim::Complex::ZERO; 1 << total];
        amps[..input.amplitudes().len()].copy_from_slice(input.amplitudes());
        let mut state = StateVector::from_amplitudes(amps).unwrap();
        state.run(&physical.circuit, &mut rng).unwrap();
        let f = state.subset_fidelity(&expected, &physical.logical_qubits()).unwrap();
        assert!((f - 1.0).abs() < 1e-8, "placed fidelity {f}");
    }

    #[test]
    fn star_topology_lowering_is_exact() {
        let topology = NetworkTopology::star(3).unwrap();
        let p = Partition::block(6, 3).unwrap();
        // Leaf-to-leaf traffic (q2 on node 1 → node 2) relays via the hub.
        let mut c = Circuit::new(6);
        c.push(Gate::h(q(2))).unwrap();
        c.push(Gate::cx(q(2), q(4))).unwrap();
        c.push(Gate::h(q(2))).unwrap();
        c.push(Gate::cx(q(5), q(2))).unwrap();
        verify_sparse(&c, &p, &topology, 32);
    }
}

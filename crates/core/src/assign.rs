//! Communication assignment (paper §4.3).
//!
//! Each burst block's pattern decides its physical scheme:
//!
//! * **unidirectional control-form** (every remote gate Z-diagonal on the
//!   burst qubit, no interior gate on it) → Cat-Comm, one EPR pair;
//! * **unidirectional target-form** (every remote CX targets the burst
//!   qubit, no interior gate on it) → H-conjugate to control form (paper
//!   Fig. 10a), then Cat-Comm, one EPR pair;
//! * anything else — direction changes or non-hoistable interior gates on
//!   the burst qubit (paper's block ③ with its T† obstruction, or the
//!   bidirectional Fig. 9b) → the Cat cost is the number of single-call
//!   segments while TP-Comm costs a flat two EPR pairs; the cheaper wins
//!   and ties go to TP, exactly the paper's default.
//!
//! Since the topology re-platforming the cost model is hop-distance-aware
//! ([`assign_on`]): every end-to-end communication between nodes at routed
//! hop distance `h` consumes `h` link-level EPR pairs, recorded per block
//! as [`AssignedBlock::epr_cost`]. On multi-hop pairs the 2-segment tie
//! flips from TP to a split Cat: the cat-disentangler needs no fresh
//! entanglement, while TP-Comm's teleport-home leg must run a second swap
//! chain through scarce relay-node slots. At `h == 1` every decision is
//! exactly the paper's, so all-to-all machines reproduce the historical
//! assignment bit for bit.
//!
//! Since the `CommIr` refactor blocks carry gate ids; segmentation walks
//! the shared table instead of cloned bodies, and splitting a block into
//! segments copies `u32` indices only.

use std::sync::Arc;

use dqc_circuit::{AxisBehavior, Gate, GateId, GateTable, WireClass};
use dqc_hardware::NetworkTopology;

use crate::par::par_map;
use crate::{AggregatedProgram, CommBlock, CommIr, Item, Placement};

/// How a Cat-Comm block is oriented before expansion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CatOrientation {
    /// Remote gates use the burst qubit as control (expandable directly).
    Control,
    /// Remote gates use the burst qubit as CX target; lowering conjugates
    /// the block with Hadamards first (paper Fig. 10a).
    Target,
}

/// The physical scheme chosen for one block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Cat-entangler/disentangler; one EPR pair per single-call segment.
    Cat(CatOrientation),
    /// Teleport there and back; two EPR pairs regardless of block size.
    Tp,
}

/// A burst block with its assigned scheme and communication cost.
#[derive(Clone, Debug, PartialEq)]
pub struct AssignedBlock {
    /// The block.
    pub block: CommBlock,
    /// Chosen scheme.
    pub scheme: Scheme,
    /// Remote communications (end-to-end) this block is charged for in the
    /// paper's metric: 1 for a single-call Cat block, `segments` for a
    /// Cat-only split, 2 for TP.
    pub comms: usize,
    /// Number of single-call Cat segments the body splits into.
    pub segments: usize,
    /// Link-level EPR pairs this block is charged for under the hardware's
    /// routed hop distances: `comms × hops(home, node)`. Equal to `comms`
    /// on all-to-all machines.
    pub epr_cost: usize,
}

/// An aggregated program with every block assigned a scheme, sharing the
/// compile's [`CommIr`].
#[derive(Clone, Debug)]
pub struct AssignedProgram {
    ir: Arc<CommIr>,
    items: Vec<AssignedItem>,
}

/// One element of an assigned program.
#[derive(Clone, Debug, PartialEq)]
pub enum AssignedItem {
    /// A local gate (an id into the program's table).
    Local(GateId),
    /// An assigned burst block.
    Block(AssignedBlock),
}

impl PartialEq for AssignedProgram {
    fn eq(&self, other: &Self) -> bool {
        self.num_qubits() == other.num_qubits()
            && self.num_cbits() == other.num_cbits()
            && self.items.len() == other.items.len()
            && self.items.iter().zip(&other.items).all(|(a, b)| match (a, b) {
                (AssignedItem::Local(x), AssignedItem::Local(y)) => self.gate(*x) == other.gate(*y),
                (AssignedItem::Block(x), AssignedItem::Block(y)) => {
                    x.scheme == y.scheme
                        && x.comms == y.comms
                        && x.segments == y.segments
                        && x.epr_cost == y.epr_cost
                        && x.block.qubit() == y.block.qubit()
                        && x.block.node() == y.block.node()
                        && x.block.ids().len() == y.block.ids().len()
                        && x.block
                            .gates(self.ir.table())
                            .zip(y.block.gates(other.ir.table()))
                            .all(|(g, h)| g == h)
                }
                _ => false,
            })
    }
}

impl AssignedProgram {
    /// The shared indexed IR this program resolves against.
    pub fn ir(&self) -> &Arc<CommIr> {
        &self.ir
    }

    /// Resolves a gate id through the program's table.
    pub fn gate(&self, id: GateId) -> &Gate {
        self.ir.gate(id)
    }

    /// Items in execution order.
    pub fn items(&self) -> &[AssignedItem] {
        &self.items
    }

    /// Iterates over assigned blocks in execution order.
    pub fn blocks(&self) -> impl Iterator<Item = &AssignedBlock> {
        self.items.iter().filter_map(|i| match i {
            AssignedItem::Block(b) => Some(b),
            AssignedItem::Local(_) => None,
        })
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.ir.num_qubits()
    }

    /// Classical register width.
    pub fn num_cbits(&self) -> usize {
        self.ir.num_cbits()
    }
}

/// Splits a block body into maximal single-call Cat segments and reports
/// the orientation when there is exactly one.
///
/// A segment extends while remote gates keep one orientation (Z-diagonal on
/// the burst qubit = control form; X-diagonal = target form) and no
/// incompatible interior gate touches the burst qubit.
pub(crate) fn cat_segments(table: &GateTable, block: &CommBlock) -> (usize, CatOrientation) {
    // Walks the table's precomputed per-wire class records exclusively —
    // never the heap-allocated gates — so the hot per-block assignment
    // stage reads only flat arena `Vec`s. `WireClass` reproduces
    // `AxisBehavior::of` exactly on operand wires, with `Block` standing
    // in for non-unitary opacity (both are segment breakers here).
    let q = block.qubit().index();
    let mut segments = 0usize;
    let mut current: Option<CatOrientation> = None;
    let mut first = CatOrientation::Control;
    for &id in block.ids() {
        let Some(class) = table.wire_class_on(id, q) else {
            continue; // node-local interior gate: rides along
        };
        if table.is_unitary(id) && table.operand_count(id) == 2 {
            let orientation = match class {
                WireClass::ZDiag => CatOrientation::Control,
                WireClass::XDiag => CatOrientation::Target,
                WireClass::Opaque | WireClass::Block => {
                    // e.g. a SWAP: no cat segment can carry it; force splits.
                    current = None;
                    segments += 2;
                    continue;
                }
            };
            match current {
                Some(o) if o == orientation => {}
                _ => {
                    segments += 1;
                    if segments == 1 {
                        first = orientation;
                    }
                    current = Some(orientation);
                }
            }
        } else {
            // Interior single-qubit gate on the burst qubit: compatible with
            // the running orientation only if it is diagonal in the same
            // basis (then the cat copy commutes through it).
            let compatible = matches!(
                (current, class),
                (Some(CatOrientation::Control), WireClass::ZDiag)
                    | (Some(CatOrientation::Target), WireClass::XDiag)
            );
            if !compatible {
                current = None;
            }
        }
    }
    (segments.max(1), first)
}

/// Hybrid assignment (the paper's scheme): single-call blocks ride
/// Cat-Comm; everything else takes TP-Comm at two EPR pairs (ties included).
/// Hop distances are the paper's implicit all-to-all (1 everywhere).
pub fn assign(program: &AggregatedProgram) -> AssignedProgram {
    assign_with(program, true, None)
}

/// Cat-Comm-only ablation (paper Fig. 17b, modeling the Diadamo et al.
/// style compiler): every block is implemented by Cat-Comm, costing one
/// EPR pair per single-call segment.
pub fn assign_cat_only(program: &AggregatedProgram) -> AssignedProgram {
    assign_with(program, false, None)
}

/// Hybrid assignment against an explicit interconnect topology: the cost
/// model charges `hops(home, node)` link-level EPR pairs per end-to-end
/// communication between the *physical* nodes the placement pins the two
/// blocks to, and the 2-segment Cat/TP tie flips to Cat on multi-hop pairs
/// (see the module docs). With `NetworkTopology::all_to_all` — or any
/// topology under the identity placement of a diameter-1 machine — this is
/// exactly [`assign`].
///
/// # Panics
///
/// Panics if `topology` leaves a communicating node pair unreachable.
/// `HardwareSpec::with_topology` rejects disconnected machines, so programs
/// compiled through the pipeline never hit this; only hand-built
/// topologies from `NetworkTopology::from_links` can.
pub fn assign_on(
    program: &AggregatedProgram,
    placement: &Placement,
    topology: &NetworkTopology,
) -> AssignedProgram {
    assign_with(program, true, Some((placement, topology)))
}

/// [`assign_cat_only`] with hop-distance-aware `epr_cost` accounting.
///
/// # Panics
///
/// See [`assign_on`].
pub fn assign_cat_only_on(
    program: &AggregatedProgram,
    placement: &Placement,
    topology: &NetworkTopology,
) -> AssignedProgram {
    assign_with(program, false, Some((placement, topology)))
}

/// Routed hop distance between a block's physical endpoints (1 without an
/// explicit topology — the paper's implicit all-to-all).
fn block_hops(block: &CommBlock, routing: Option<(&Placement, &NetworkTopology)>) -> usize {
    routing
        .map(|(placement, topology)| {
            let home = placement.physical_of(block.home(placement.partition()));
            let node = placement.physical_of(block.node());
            topology.hop_distance(home, node).unwrap_or_else(|| {
                panic!(
                    "topology has no route between {home} and {node} (pass a \
                     connected topology, e.g. one accepted by \
                     HardwareSpec::with_topology)"
                )
            })
        })
        .unwrap_or(1)
}

/// Scheme decision for one block at a known hop distance — the pure
/// per-block kernel both the full assignment fan-out and the incremental
/// re-assignment share.
fn assign_block(table: &GateTable, b: &CommBlock, hops: usize, hybrid: bool) -> AssignedBlock {
    let (segments, orientation) = cat_segments(table, b);
    let (scheme, comms) = if segments == 1 {
        (Scheme::Cat(orientation), 1)
    } else if !hybrid {
        (Scheme::Cat(orientation), segments)
    } else if hops > 1 && segments == 2 {
        // End-to-end tie (2 vs 2). On multi-hop pairs the split
        // Cat wins: its disentanglers need no fresh
        // entanglement, while TP's teleport-home leg runs a
        // second swap chain through scarce relay slots.
        (Scheme::Cat(orientation), segments)
    } else {
        // Cat would need `segments` pairs, TP always needs 2;
        // ties go to TP at hop distance 1 (paper block ③).
        (Scheme::Tp, 2)
    };
    AssignedBlock { block: b.clone(), scheme, comms, segments, epr_cost: comms * hops }
}

fn assign_with(
    program: &AggregatedProgram,
    hybrid: bool,
    routing: Option<(&Placement, &NetworkTopology)>,
) -> AssignedProgram {
    let table = program.ir().table();
    // Per-item work is independent; fan out on scoped threads with a
    // deterministic in-order merge (par_map), so the parallel result is
    // bit-identical to the sequential one.
    let items = par_map(program.items(), |item| match item {
        Item::Local(id) => AssignedItem::Local(*id),
        Item::Block(b) => {
            AssignedItem::Block(assign_block(table, b, block_hops(b, routing), hybrid))
        }
    });
    AssignedProgram { ir: Arc::clone(program.ir()), items }
}

/// Re-derives a scheme assignment after a placement change (`hybrid` as in
/// [`assign`] vs [`assign_cat_only`]), reusing every
/// block whose **physical endpoints did not move**: a block's segmentation
/// depends only on its body, and its scheme/cost only on the routed hop
/// distance between its two physical endpoints, so an unmoved block's
/// previous [`AssignedBlock`] is bit-identical to a fresh recompute. Only
/// blocks with a moved endpoint re-run `cat_segments`.
///
/// This is the incremental-recompilation kernel of
/// [`crate::AutoComm::compile_placed`]: a refinement round that moves two
/// of *n* partition blocks re-assigns only the bursts touching those two
/// nodes instead of the whole program.
///
/// Both placements must share one logical partition (refinement rounds
/// only permute the block→node map).
///
/// # Panics
///
/// See [`assign_on`]; debug builds also assert the partitions match.
pub fn assign_incremental(
    prev: &AssignedProgram,
    prev_placement: &Placement,
    placement: &Placement,
    topology: &NetworkTopology,
    hybrid: bool,
) -> AssignedProgram {
    debug_assert_eq!(
        prev_placement.partition(),
        placement.partition(),
        "incremental re-assignment requires an unchanged logical partition"
    );
    let table = prev.ir().table();
    let items = par_map(prev.items(), |item| match item {
        AssignedItem::Local(id) => AssignedItem::Local(*id),
        AssignedItem::Block(ab) => {
            let home = ab.block.home(placement.partition());
            let node = ab.block.node();
            let moved = prev_placement.physical_of(home) != placement.physical_of(home)
                || prev_placement.physical_of(node) != placement.physical_of(node);
            if moved {
                let hops = block_hops(&ab.block, Some((placement, topology)));
                AssignedItem::Block(assign_block(table, &ab.block, hops, hybrid))
            } else {
                AssignedItem::Block(ab.clone())
            }
        }
    });
    AssignedProgram { ir: Arc::clone(prev.ir()), items }
}

/// Splits a block into its single-call Cat segments (used when lowering
/// Cat-only assignments, and by the scheduler to serialize split blocks).
/// Interior node-local gates attach to the current segment. Only gate ids
/// move — bodies are never cloned.
pub(crate) fn split_into_segments(table: &GateTable, block: &CommBlock) -> Vec<CommBlock> {
    let q = block.qubit();
    let mut out: Vec<CommBlock> = Vec::new();
    let mut current = CommBlock::new(q, block.node());
    let mut orientation: Option<CatOrientation> = None;
    let seal = |blk: &mut CommBlock, out: &mut Vec<CommBlock>| {
        if !blk.is_empty() {
            out.push(std::mem::replace(blk, CommBlock::new(q, block.node())));
        }
    };
    for &id in block.ids() {
        let gate = table.gate(id);
        if !gate.acts_on(q) {
            current.push(id, gate);
            continue;
        }
        let behavior = AxisBehavior::of(gate, q);
        if gate.is_two_qubit_unitary() {
            let o = match behavior {
                AxisBehavior::ZDiag => CatOrientation::Control,
                AxisBehavior::XDiag => CatOrientation::Target,
                AxisBehavior::Opaque => {
                    // Unsplittable remote gate: isolate it.
                    seal(&mut current, &mut out);
                    orientation = None;
                    let mut solo = CommBlock::new(q, block.node());
                    solo.push(id, gate);
                    out.push(solo);
                    continue;
                }
            };
            match orientation {
                Some(cur) if cur == o => current.push(id, gate),
                _ => {
                    seal(&mut current, &mut out);
                    orientation = Some(o);
                    current.push(id, gate);
                }
            }
        } else {
            let compatible = matches!(
                (orientation, behavior),
                (Some(CatOrientation::Control), AxisBehavior::ZDiag)
                    | (Some(CatOrientation::Target), AxisBehavior::XDiag)
            );
            if compatible {
                current.push(id, gate);
            } else {
                seal(&mut current, &mut out);
                orientation = None;
                current.push(id, gate);
            }
        }
    }
    seal(&mut current, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_circuit::{Circuit, NodeId, Partition, QubitId};

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    /// Builds an IR whose stream is exactly `gates`, plus a block holding
    /// all of them for the pair (q0, N1).
    fn ir_and_block(gates: Vec<Gate>) -> (Arc<CommIr>, CommBlock) {
        let mut c = Circuit::new(4);
        for g in &gates {
            c.push(g.clone()).unwrap();
        }
        let ir = CommIr::build_shared(&c, &Partition::block(4, 2).unwrap());
        let mut b = CommBlock::new(q(0), NodeId::new(1));
        for (pos, _) in gates.iter().enumerate() {
            let id = ir.stream()[pos];
            b.push(id, ir.gate(id));
        }
        (ir, b)
    }

    fn assigned_single(gates: Vec<Gate>, hybrid: bool) -> AssignedBlock {
        let (ir, block) = ir_and_block(gates);
        let program = AggregatedProgram::from_parts(ir, vec![Item::Block(block)]);
        let assigned = if hybrid { assign(&program) } else { assign_cat_only(&program) };
        let block = assigned.blocks().next().unwrap().clone();
        block
    }

    #[test]
    fn control_form_gets_cat() {
        let a = assigned_single(
            vec![Gate::cx(q(0), q(2)), Gate::ry(0.2, q(2)), Gate::cx(q(0), q(3))],
            true,
        );
        assert_eq!(a.scheme, Scheme::Cat(CatOrientation::Control));
        assert_eq!(a.comms, 1);
    }

    #[test]
    fn target_form_gets_cat_with_conjugation() {
        let a = assigned_single(vec![Gate::cx(q(2), q(0)), Gate::cx(q(3), q(0))], true);
        assert_eq!(a.scheme, Scheme::Cat(CatOrientation::Target));
        assert_eq!(a.comms, 1);
    }

    #[test]
    fn bidirectional_gets_tp() {
        let a = assigned_single(vec![Gate::cx(q(0), q(2)), Gate::cx(q(2), q(0))], true);
        assert_eq!(a.scheme, Scheme::Tp);
        assert_eq!(a.comms, 2);
        assert_eq!(a.segments, 2);
    }

    #[test]
    fn obstructed_unidirectional_defaults_to_tp() {
        // Paper block ③: T† on the burst qubit between two control-form CXs.
        let a =
            assigned_single(vec![Gate::cx(q(0), q(2)), Gate::h(q(0)), Gate::cx(q(0), q(3))], true);
        assert_eq!(a.scheme, Scheme::Tp);
        assert_eq!(a.segments, 2);
    }

    #[test]
    fn diagonal_interior_on_burst_is_harmless() {
        let a =
            assigned_single(vec![Gate::cx(q(0), q(2)), Gate::t(q(0)), Gate::cx(q(0), q(3))], true);
        assert_eq!(a.scheme, Scheme::Cat(CatOrientation::Control));
        assert_eq!(a.comms, 1);
    }

    #[test]
    fn cat_only_pays_per_segment() {
        let a = assigned_single(
            vec![Gate::cx(q(0), q(2)), Gate::cx(q(2), q(0)), Gate::cx(q(0), q(3))],
            false,
        );
        assert!(matches!(a.scheme, Scheme::Cat(_)));
        assert_eq!(a.segments, 3);
        assert_eq!(a.comms, 3);
    }

    #[test]
    fn split_segments_cover_all_gates() {
        let (ir, b) = ir_and_block(vec![
            Gate::cx(q(0), q(2)),
            Gate::h(q(2)),
            Gate::cx(q(2), q(0)),
            Gate::cx(q(3), q(0)),
        ]);
        let segs = split_into_segments(ir.table(), &b);
        assert_eq!(segs.len(), 2);
        let total: usize = segs.iter().map(|s| s.len()).sum();
        assert_eq!(total, b.len());
        assert_eq!(segs[0].remote_gate_count(), 1);
        assert_eq!(segs[1].remote_gate_count(), 2);
    }

    #[test]
    fn singleton_block_is_always_cat() {
        let a = assigned_single(vec![Gate::cx(q(2), q(0))], true);
        assert_eq!(a.scheme, Scheme::Cat(CatOrientation::Target));
        assert_eq!(a.comms, 1);
    }

    /// Builds a block between q0 (node 0) and node 2 of a 3-node machine
    /// and assigns it against `topology`.
    fn assigned_distance_two(gates: Vec<Gate>, topology: &NetworkTopology) -> AssignedBlock {
        let p = Partition::block(6, 3).unwrap();
        let mut c = Circuit::new(6);
        for g in &gates {
            c.push(g.clone()).unwrap();
        }
        let ir = CommIr::build_shared(&c, &p);
        let mut b = CommBlock::new(q(0), NodeId::new(2));
        for (pos, _) in gates.iter().enumerate() {
            let id = ir.stream()[pos];
            b.push(id, ir.gate(id));
        }
        let program = AggregatedProgram::from_parts(ir, vec![Item::Block(b)]);
        assign_on(&program, &Placement::identity(&p), topology).blocks().next().unwrap().clone()
    }

    #[test]
    fn placement_changes_the_charged_hops() {
        use dqc_circuit::NodeId;
        // Same single-call block (q0 ↔ node 2) on a 3-chain: the identity
        // map pays 2 hops; placing block 2 adjacent to block 0 pays 1.
        let linear = NetworkTopology::linear(3).unwrap();
        let p = Partition::block(6, 3).unwrap();
        let mut c = Circuit::new(6);
        c.push(Gate::cx(q(0), q(4))).unwrap();
        let ir = CommIr::build_shared(&c, &p);
        let mut b = CommBlock::new(q(0), NodeId::new(2));
        let id = ir.stream()[0];
        b.push(id, ir.gate(id));
        let program = AggregatedProgram::from_parts(ir, vec![Item::Block(b)]);
        let identity = assign_on(&program, &Placement::identity(&p), &linear);
        assert_eq!(identity.blocks().next().unwrap().epr_cost, 2);
        let swapped =
            Placement::new(p, vec![NodeId::new(0), NodeId::new(2), NodeId::new(1)]).unwrap();
        let placed = assign_on(&program, &swapped, &linear);
        assert_eq!(placed.blocks().next().unwrap().epr_cost, 1, "adjacent after placement");
    }

    /// Incremental re-assignment equals a fresh `assign_on` whether the
    /// moved endpoint is the block's home, its remote node, or neither.
    #[test]
    fn incremental_reassignment_matches_full() {
        use dqc_circuit::NodeId;
        let p = Partition::block(8, 4).unwrap();
        let mut c = Circuit::new(8);
        // Blocks across several node pairs, mixing schemes.
        c.push(Gate::cx(q(0), q(2))).unwrap(); // block pair (0, 1)
        c.push(Gate::cx(q(0), q(3))).unwrap();
        c.push(Gate::cx(q(1), q(4))).unwrap(); // block pair (0, 2)
        c.push(Gate::cx(q(4), q(1))).unwrap(); // bidirectional → 2 segments
        c.push(Gate::h(q(5))).unwrap(); // local
        c.push(Gate::cx(q(6), q(1))).unwrap(); // block pair (3, 0)
        let agg = crate::aggregate(&c, &p, crate::AggregateOptions::default());
        let topology = NetworkTopology::linear(4).unwrap();
        let n = NodeId::new;
        let before = Placement::identity(&p);
        let prev = assign_on(&agg, &before, &topology);
        // Swap nodes 1 and 3: pairs (0,1) and (3,0) move, pair (0,2) does not.
        let after = Placement::new(p.clone(), vec![n(0), n(3), n(2), n(1)]).unwrap();
        let full = assign_on(&agg, &after, &topology);
        let incremental = assign_incremental(&prev, &before, &after, &topology, true);
        assert_eq!(incremental, full);
        // A no-op re-placement reuses every block.
        let unmoved = assign_incremental(&prev, &before, &before, &topology, true);
        assert_eq!(unmoved, prev);
        // Cat-only assignments take the same incremental path.
        let prev_cat = assign_cat_only_on(&agg, &before, &topology);
        let full_cat = assign_cat_only_on(&agg, &after, &topology);
        let inc_cat = assign_incremental(&prev_cat, &before, &after, &topology, false);
        assert_eq!(inc_cat, full_cat);
    }

    /// Randomized agreement: incremental == full across random circuits and
    /// random placement permutations on a multi-hop topology.
    #[test]
    fn incremental_reassignment_matches_full_randomized() {
        use dqc_circuit::NodeId;
        let nodes = 5;
        let p = Partition::block(10, nodes).unwrap();
        let topology = NetworkTopology::ring(nodes).unwrap();
        let mut state = 0x9e37_79b9u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..12 {
            let mut c = Circuit::new(10);
            for _ in 0..60 {
                let a = (rng() % 10) as usize;
                let b = (rng() % 10) as usize;
                match rng() % 4 {
                    0 => c.push(Gate::h(q(a))).unwrap(),
                    1 => c.push(Gate::t(q(a))).unwrap(),
                    _ if a != b => c.push(Gate::cx(q(a), q(b))).unwrap(),
                    _ => c.push(Gate::rz(0.25, q(a))).unwrap(),
                }
            }
            let agg = crate::aggregate(&c, &p, crate::AggregateOptions::default());
            // Random permutation via Fisher–Yates.
            let mut map: Vec<NodeId> = (0..nodes).map(NodeId::new).collect();
            for i in (1..nodes).rev() {
                map.swap(i, (rng() % (i as u64 + 1)) as usize);
            }
            let before = Placement::identity(&p);
            let after = Placement::new(p.clone(), map).unwrap();
            let prev = assign_on(&agg, &before, &topology);
            let full = assign_on(&agg, &after, &topology);
            let incremental = assign_incremental(&prev, &before, &after, &topology, true);
            assert_eq!(incremental, full);
        }
    }

    #[test]
    fn all_to_all_routing_matches_the_paper_rule() {
        let bidi = vec![Gate::cx(q(0), q(4)), Gate::cx(q(4), q(0))];
        let a = assigned_distance_two(bidi, &NetworkTopology::all_to_all(3));
        assert_eq!(a.scheme, Scheme::Tp);
        assert_eq!(a.comms, 2);
        assert_eq!(a.epr_cost, 2, "hop distance 1 leaves epr_cost == comms");
    }

    #[test]
    fn multi_hop_two_segment_tie_flips_to_cat() {
        let linear = NetworkTopology::linear(3).unwrap();
        let bidi = vec![Gate::cx(q(0), q(4)), Gate::cx(q(4), q(0))];
        let a = assigned_distance_two(bidi, &linear);
        assert!(matches!(a.scheme, Scheme::Cat(_)), "2-segment tie goes to Cat at hop 2");
        assert_eq!(a.comms, 2);
        assert_eq!(a.epr_cost, 4, "2 end-to-end comms × 2 hops");
        // Three or more segments still prefer TP's flat two comms.
        let tri = vec![Gate::cx(q(0), q(4)), Gate::cx(q(4), q(0)), Gate::cx(q(0), q(5))];
        let a = assigned_distance_two(tri, &linear);
        assert_eq!(a.scheme, Scheme::Tp);
        assert_eq!(a.epr_cost, 4);
        // Single-call blocks stay Cat but are charged per hop.
        let single = vec![Gate::cx(q(0), q(4)), Gate::cx(q(0), q(5))];
        let a = assigned_distance_two(single, &linear);
        assert_eq!(a.scheme, Scheme::Cat(CatOrientation::Control));
        assert_eq!(a.comms, 1);
        assert_eq!(a.epr_cost, 2);
    }
}

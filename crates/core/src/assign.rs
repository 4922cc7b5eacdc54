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
//! A remote gate opaque on the burst qubit (a SWAP; unrolling leaves none)
//! fits no cat call, so its block takes TP under either assignment.
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
//! One segmentation serves every consumer: `cat_pieces` walks a block's
//! gate ids once through the shared table's wire classes and yields
//! contiguous pieces of the body, each either a Cat call (with its
//! orientation) or a run of local gates that needs no communication.
//! Assignment and the metrics charge a Cat block one communication per
//! call piece, the scheduler times one Cat call per call piece, and
//! lowering emits one `CommOp::Cat` per call piece and the local pieces as
//! `CommOp::Local`.

use std::sync::Arc;

use dqc_circuit::{Gate, GateId, GateTable, WireClass};
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

/// A burst block with its assigned scheme and communication cost: a view
/// of one block of an [`AssignedProgram`], borrowing the block from the
/// aggregated program's store.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AssignedBlock<'a> {
    /// The block.
    pub block: &'a CommBlock,
    /// Chosen scheme.
    pub scheme: Scheme,
    /// Remote communications (end-to-end) this block is charged for in the
    /// paper's metric: 1 for a single-call Cat block, `segments` for a
    /// Cat-only split, 2 for TP.
    pub comms: usize,
    /// Number of single-call Cat segments the body splits into: the call
    /// pieces of its segmentation, a remote gate opaque on the burst qubit
    /// counting twice.
    pub segments: usize,
    /// Link-level EPR pairs this block is charged for under the hardware's
    /// routed hop distances: `comms × hops(home, node)`. Equal to `comms`
    /// on all-to-all machines.
    pub epr_cost: usize,
}

/// The assignment of one block, as [`AssignedProgram`] stores it: the
/// fields of [`AssignedBlock`] without the block, in 16 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Decision {
    pub(crate) scheme: Scheme,
    pub(crate) comms: u32,
    pub(crate) segments: u32,
    pub(crate) epr_cost: u32,
}

const _: () = assert!(std::mem::size_of::<Decision>() <= 16);

/// An aggregated program with every block assigned a scheme. It shares
/// the aggregated program's items and blocks (and the compile's
/// [`CommIr`]) and adds one 16-byte decision per block.
#[derive(Clone, Debug, PartialEq)]
pub struct AssignedProgram {
    program: AggregatedProgram,
    /// One per block of `program`, in the same order.
    decisions: Vec<Decision>,
}

impl AssignedProgram {
    /// The shared indexed IR this program resolves against.
    pub fn ir(&self) -> &Arc<CommIr> {
        self.program.ir()
    }

    /// Resolves a gate id through the program's table.
    pub fn gate(&self, id: GateId) -> &Gate {
        self.program.gate(id)
    }

    /// Items in execution order (shared with the aggregated program).
    pub fn items(&self) -> &[Item] {
        self.program.items()
    }

    /// The assigned block of an [`Item::Block`] index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below the program's block count.
    pub fn block(&self, index: u32) -> AssignedBlock<'_> {
        view(self.program.block(index), self.decisions[index as usize])
    }

    /// Iterates over assigned blocks in execution order.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = AssignedBlock<'_>> {
        self.program.blocks().zip(&self.decisions).map(|(b, &d)| view(b, d))
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.program.num_qubits()
    }

    /// Classical register width.
    pub fn num_cbits(&self) -> usize {
        self.program.ir().num_cbits()
    }
}

/// Joins a block with its decision.
fn view(block: &CommBlock, d: Decision) -> AssignedBlock<'_> {
    AssignedBlock {
        block,
        scheme: d.scheme,
        comms: d.comms as usize,
        segments: d.segments as usize,
        epr_cost: d.epr_cost as usize,
    }
}

/// One contiguous piece of a Cat block's body, as [`CatPieces`] yields it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Piece {
    /// One Cat-Comm call in this orientation. It starts at a remote gate
    /// and runs over further remote gates of the same orientation, gates on
    /// the burst qubit that are diagonal in the same basis (the cat copy
    /// commutes through them) and node-local interior gates.
    Call(CatOrientation),
    /// Gates that run as local gates and need no communication: a gate on
    /// the burst qubit that no running call can carry, and every following
    /// gate up to the next remote gate.
    Local,
}

/// The single-call segmentation of a block, shared by assignment, the
/// scheduler walk and lowering: one walk over `block.ids()` through the
/// table's precomputed wire classes (never the resolved gates), yielding
/// contiguous `(piece, ids)` runs in order without allocating.
pub(crate) struct CatPieces<'a> {
    table: &'a GateTable,
    q: usize,
    rest: &'a [GateId],
    /// Remote gates opaque on the burst qubit seen so far (e.g. a SWAP;
    /// unrolling leaves none). No cat call can carry one: each is yielded
    /// as a call of its own and charged two communications, and
    /// [`assign_block`] sends its block over TP.
    opaque: usize,
}

/// Segments `block` into its [`Piece`]s.
pub(crate) fn cat_pieces<'a>(table: &'a GateTable, block: &'a CommBlock) -> CatPieces<'a> {
    CatPieces { table, q: block.qubit().index(), rest: block.ids(), opaque: 0 }
}

impl CatPieces<'_> {
    /// How `id` acts on the burst qubit: `None` off it, else whether it is
    /// a remote gate (a two-qubit unitary) and the call orientation its
    /// wire class is diagonal in. `WireClass` reproduces
    /// `AxisBehavior::of` on operand wires, with `Block` standing in for
    /// non-unitary opacity; both break a call.
    fn on_burst(&self, id: GateId) -> Option<(bool, Option<CatOrientation>)> {
        let class = self.table.wire_class_on(id, self.q)?;
        let remote = self.table.is_unitary(id) && self.table.operand_count(id) == 2;
        let orientation = match class {
            WireClass::ZDiag => Some(CatOrientation::Control),
            WireClass::XDiag => Some(CatOrientation::Target),
            WireClass::Opaque | WireClass::Block => None,
        };
        Some((remote, orientation))
    }
}

impl<'a> Iterator for CatPieces<'a> {
    type Item = (Piece, &'a [GateId]);

    fn next(&mut self) -> Option<Self::Item> {
        let &first = self.rest.first()?;
        let (piece, extends) = match self.on_burst(first) {
            Some((true, Some(o))) => (Piece::Call(o), true),
            Some((true, None)) => {
                self.opaque += 1;
                (Piece::Call(CatOrientation::Control), false)
            }
            _ => (Piece::Local, true),
        };
        let len = 1 + if extends {
            self.rest[1..]
                .iter()
                .take_while(|&&id| match (piece, self.on_burst(id)) {
                    (_, None) => true, // node-local interior gate: rides along
                    (Piece::Call(o), Some((_, orientation))) => orientation == Some(o),
                    (Piece::Local, Some((remote, _))) => !remote,
                })
                .count()
        } else {
            0
        };
        let (ids, rest) = self.rest.split_at(len);
        self.rest = rest;
        Some((piece, ids))
    }
}

/// A block's Cat cost: its call count (at least 1, an opaque remote gate
/// counting twice), the first call's orientation, and whether it carries
/// an opaque remote gate.
fn cat_cost(table: &GateTable, block: &CommBlock) -> (usize, CatOrientation, bool) {
    let mut pieces = cat_pieces(table, block);
    let (mut calls, mut first) = (0usize, None);
    for (piece, _) in pieces.by_ref() {
        if let Piece::Call(o) = piece {
            calls += 1;
            first.get_or_insert(o);
        }
    }
    let segments = (calls + pieces.opaque).max(1);
    (segments, first.unwrap_or(CatOrientation::Control), pieces.opaque > 0)
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
fn assign_block(table: &GateTable, b: &CommBlock, hops: usize, hybrid: bool) -> Decision {
    let (segments, orientation, opaque) = cat_cost(table, b);
    let (scheme, comms) = if opaque {
        // No cat call can carry the gate; TP carries anything.
        (Scheme::Tp, 2)
    } else if segments == 1 {
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
    // A block's segments are bounded by its gate count, which gate ids
    // bound by `u32`.
    let count = |n: usize| u32::try_from(n).expect("a block's cost fits in u32");
    Decision {
        scheme,
        comms: count(comms),
        segments: count(segments),
        epr_cost: count(comms * hops),
    }
}

fn assign_with(
    program: &AggregatedProgram,
    hybrid: bool,
    routing: Option<(&Placement, &NetworkTopology)>,
) -> AssignedProgram {
    let table = program.ir().table();
    // Per-block work is independent; fan out on scoped threads with a
    // deterministic in-order merge (par_map), so the parallel result is
    // bit-identical to the sequential one.
    let decisions = par_map(program.blocks().as_slice(), |b| {
        assign_block(table, b, block_hops(b, routing), hybrid)
    });
    AssignedProgram { program: program.clone(), decisions }
}

/// Re-derives a scheme assignment after a placement change (`hybrid` as in
/// [`assign`] vs [`assign_cat_only`]), reusing every
/// block whose **physical endpoints did not move**: a block's segmentation
/// depends only on its body, and its scheme/cost only on the routed hop
/// distance between its two physical endpoints, so an unmoved block's
/// previous decision is bit-identical to a fresh recompute and is copied.
/// Only blocks with a moved endpoint are segmented again.
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
    let fresh = par_map(prev.program.blocks().as_slice(), |b| {
        let home = b.home(placement.partition());
        let node = b.node();
        let moved = prev_placement.physical_of(home) != placement.physical_of(home)
            || prev_placement.physical_of(node) != placement.physical_of(node);
        moved.then(|| assign_block(table, b, block_hops(b, Some((placement, topology))), hybrid))
    });
    let decisions = fresh.into_iter().zip(&prev.decisions).map(|(f, &d)| f.unwrap_or(d)).collect();
    AssignedProgram { program: prev.program.clone(), decisions }
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
            b.push(id, ir.table());
        }
        (ir, b)
    }

    fn assigned_single(gates: Vec<Gate>, hybrid: bool) -> Decision {
        let (ir, block) = ir_and_block(gates);
        let program = AggregatedProgram::from_blocks(ir, vec![block]);
        let assigned = if hybrid { assign(&program) } else { assign_cat_only(&program) };
        assigned.decisions[0]
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
    fn pieces_cover_all_gates_in_order() {
        let (ir, b) = ir_and_block(vec![
            Gate::cx(q(0), q(2)),
            Gate::h(q(2)),
            Gate::h(q(0)),
            Gate::t(q(3)),
            Gate::cx(q(2), q(0)),
            Gate::cx(q(3), q(0)),
        ]);
        let pieces: Vec<_> = cat_pieces(ir.table(), &b).collect();
        let kinds: Vec<Piece> = pieces.iter().map(|&(p, _)| p).collect();
        assert_eq!(
            kinds,
            [
                Piece::Call(CatOrientation::Control),
                Piece::Local,
                Piece::Call(CatOrientation::Target)
            ]
        );
        let lens: Vec<usize> = pieces.iter().map(|(_, ids)| ids.len()).collect();
        assert_eq!(lens, [2, 2, 2], "interior gates ride with the run before them");
        let flat: Vec<GateId> = pieces.iter().flat_map(|(_, ids)| ids.iter().copied()).collect();
        assert_eq!(flat, b.ids());
        assert_eq!(cat_cost(ir.table(), &b), (2, CatOrientation::Control, false));
    }

    #[test]
    fn opaque_remote_gate_is_charged_twice_and_takes_tp() {
        let gates = vec![Gate::cx(q(0), q(2)), Gate::swap(q(0), q(3))];
        let (ir, b) = ir_and_block(gates.clone());
        assert_eq!(cat_cost(ir.table(), &b), (3, CatOrientation::Control, true));
        for hybrid in [true, false] {
            let a = assigned_single(gates.clone(), hybrid);
            assert_eq!((a.scheme, a.comms, a.segments), (Scheme::Tp, 2, 3));
        }
    }

    #[test]
    fn singleton_block_is_always_cat() {
        let a = assigned_single(vec![Gate::cx(q(2), q(0))], true);
        assert_eq!(a.scheme, Scheme::Cat(CatOrientation::Target));
        assert_eq!(a.comms, 1);
    }

    /// Builds a block between q0 (node 0) and node 2 of a 3-node machine
    /// and assigns it against `topology`.
    fn assigned_distance_two(gates: Vec<Gate>, topology: &NetworkTopology) -> Decision {
        let p = Partition::block(6, 3).unwrap();
        let mut c = Circuit::new(6);
        for g in &gates {
            c.push(g.clone()).unwrap();
        }
        let ir = CommIr::build_shared(&c, &p);
        let mut b = CommBlock::new(q(0), NodeId::new(2));
        for (pos, _) in gates.iter().enumerate() {
            let id = ir.stream()[pos];
            b.push(id, ir.table());
        }
        let program = AggregatedProgram::from_blocks(ir, vec![b]);
        assign_on(&program, &Placement::identity(&p), topology).decisions[0]
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
        b.push(id, ir.table());
        let program = AggregatedProgram::from_blocks(ir, vec![b]);
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
        // A no-op re-placement copies every decision and shares the blocks.
        let unmoved = assign_incremental(&prev, &before, &before, &topology, true);
        assert_eq!(unmoved.decisions, prev.decisions);
        assert!(std::ptr::eq(unmoved.block(0).block, agg.block(0)));
        // Cat-only assignments take the same incremental path.
        let prev_cat = assign_cat_only_on(&agg, &before, &topology);
        let full_cat = assign_cat_only_on(&agg, &after, &topology);
        let inc_cat = assign_incremental(&prev_cat, &before, &after, &topology, false);
        assert_eq!(inc_cat, full_cat);
        let unmoved_cat = assign_incremental(&prev_cat, &before, &before, &topology, false);
        assert_eq!(unmoved_cat.decisions, prev_cat.decisions);
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

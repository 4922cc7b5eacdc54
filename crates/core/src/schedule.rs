//! Event-driven communication scheduling with EPR buffering (paper §4.4
//! plus the CollComm-style buffered-generation engine).
//!
//! The scheduler lays an assigned program onto the hardware timeline with
//! the paper's three latency optimizations:
//!
//! * **EPR prefetching** — preparation starts as soon as communication
//!   slots free up, hiding `tep` behind preceding computation (“execute as
//!   many blocks as possible, as soon as EPR pairs are prepared”);
//! * **block-level parallelism** — commutable Cat blocks sharing the burst
//!   qubit overlap (paper Fig. 12), and independent TP teleports align
//!   automatically because both endpoints' claims are issued eagerly
//!   (Fig. 13b);
//! * **TP fusion** — consecutive TP blocks teleporting the same qubit form
//!   a cycle `A → B → C → A`, saving `(n-1)` EPR pairs and
//!   `(n-1)(tep + t_tele)` latency over teleporting home each time
//!   (Fig. 14b).
//!
//! [`ScheduleOptions::burst_aware`] switches all three; off is the
//! plain-greedy ablation of paper Fig. 17(c).
//!
//! A Cat block is walked through the same segmentation assignment charges
//! it by: one Cat call per call piece and the local pieces as local gates, so
//! the schedule times exactly the communications the metrics count.
//!
//! On top of those, [`BufferPolicy`] selects how EPR pairs are
//! materialized. [`BufferPolicy::OnDemand`] reproduces the historical
//! engine bit for bit: every pair goes through one monolithic
//! [`dqc_hardware::Timeline::claim_comm`] at burst time, holding the
//! end-node communication slots from generation start to protocol
//! completion. The buffered policies ([`BufferPolicy::Prefetch`],
//! [`BufferPolicy::Greedy`]) run the discrete-event engine instead: the
//! scheduler prescans its walk of the DAG-ordered item list into a comm
//! *request sequence* (the lookahead frontier), a
//! [`dqc_hardware::ResourceManager`] issues generation events for upcoming
//! requests during local-computation slack (each heralded pair counts
//! against both endpoints' buffers, bounded by the comm-qubit budget), and
//! each burst takes the pair generated for its request — or blocks until it
//! matures, falling back to on-demand generation when buffers are full or
//! capacity-constrained. Because buffered generation occupies end-node
//! slots only from herald to consumption (not for the whole generation
//! window), pair preparation pipelines deeper than the comm-qubit budget on
//! contended nodes.
//!
//! Buffered schedules are guarded by a strict-improvement rail: when the
//! buffered makespan does not beat the on-demand one, the legacy schedule
//! is returned (with [`BufferingReport::fell_back`] set), so `Prefetch`
//! and `Greedy` never lose to `OnDemand`.

use dqc_circuit::{CommSummary, GateId, GateTable, NodeId, QubitId};
use dqc_hardware::{
    BufferPolicy, HardwareSpec, NetworkTopology, ResourceManager, Timeline, TimelineEvent,
};

use crate::assign::{cat_pieces, Piece};
use crate::metrics::BufferingReport;
use crate::{AssignedProgram, Item, Placement, Scheme};

/// Scheduler feature toggles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleOptions {
    /// The paper's three burst-aware optimizations (see the module docs):
    /// issue EPR preparations as early as slot availability allows, overlap
    /// commutable Cat blocks sharing the burst qubit, and fuse consecutive
    /// same-qubit TP blocks into teleport cycles. Off is the plain-greedy
    /// ablation of Fig. 17(c).
    pub burst_aware: bool,
    /// Record timeline events (needed for validation; off for large runs).
    pub record_events: bool,
    /// How EPR pairs are materialized relative to the bursts that consume
    /// them ([`BufferPolicy::OnDemand`] is the bit-identical legacy
    /// engine).
    pub buffer: BufferPolicy,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions { burst_aware: true, record_events: false, buffer: BufferPolicy::OnDemand }
    }
}

impl ScheduleOptions {
    /// The plain as-soon-as-possible schedule without burst-aware
    /// optimizations (paper Fig. 17c's “Greedy”).
    pub fn plain_greedy() -> Self {
        ScheduleOptions { burst_aware: false, ..ScheduleOptions::default() }
    }

    /// These options with `policy` selecting the EPR-buffering engine.
    #[must_use]
    pub fn with_buffer(mut self, policy: BufferPolicy) -> Self {
        self.buffer = policy;
        self
    }
}

/// Outcome of scheduling.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleSummary {
    /// Program latency in CX units.
    pub makespan: f64,
    /// EPR pairs actually consumed, counted per *link-level* generation —
    /// multi-hop routes are charged one pair per hop (TP fusion reduces
    /// this below the metric-level “Tot Comm”).
    pub epr_pairs: usize,
    /// Entanglement swaps performed at relay nodes (0 on all-to-all).
    pub swaps: usize,
    /// EPR pairs generated per interconnect link, `(node, node, pairs)`,
    /// for links that carried any traffic.
    pub link_traffic: Vec<(NodeId, NodeId, usize)>,
    /// Teleports (and EPR pairs) saved by TP fusion.
    pub fusion_savings: usize,
    /// Cat calls scheduled: one per call piece of each Cat block, so it
    /// equals the metrics' Cat communications.
    pub cat_blocks: usize,
    /// TP blocks scheduled.
    pub tp_blocks: usize,
    /// What the EPR-buffering engine did: policy, prefetch hit rate, pair
    /// wait/staleness, buffer occupancy distribution.
    pub buffering: BufferingReport,
    /// Recorded events when [`ScheduleOptions::record_events`] was set.
    pub events: Option<Vec<TimelineEvent>>,
}

/// Schedules `program` on machine `hw` and reports latency and EPR usage.
/// All timeline claims, routes, and link traffic are issued against the
/// *physical* nodes of `placement` — the identity placement reproduces the
/// historical block-`i`-on-node-`i` behavior exactly.
///
/// Under a buffered [`ScheduleOptions::buffer`] policy both the buffered
/// and the on-demand schedules are computed and the better one returned
/// (strict-improvement rail; see the module docs).
///
/// # Panics
///
/// Panics if the placement's node count exceeds the hardware's, or if a
/// node needs more concurrent communications than it has comm qubits (the
/// timeline enforces this invariant).
pub fn schedule(
    program: &AssignedProgram,
    placement: &Placement,
    hw: &HardwareSpec,
    options: ScheduleOptions,
) -> ScheduleSummary {
    assert!(placement.num_nodes() <= hw.num_nodes(), "hardware must provide every placed node");
    let highest = placement.node_map().iter().map(|n| n.index()).max().unwrap_or(0);
    assert!(
        highest < hw.num_nodes(),
        "placement maps a block onto node {highest}, but the hardware has {} node(s)",
        hw.num_nodes()
    );
    if !options.buffer.is_buffered() {
        return schedule_run(program, placement, hw, options, Vec::new());
    }
    // One shared prescan feeds the buffered rail (the on-demand rail never
    // reads it); historically each buffered `schedule_run` re-walked it.
    let requests = comm_requests(program, placement, hw.topology(), options);
    let base_options = ScheduleOptions { buffer: BufferPolicy::OnDemand, ..options };
    // The two rails are independent walks over immutable inputs, so they
    // run on two scoped threads (same idiom and threshold as `par_map` —
    // small programs never pay the spawn). Which thread ran a walk cannot
    // change its result, and the results are compared the same way either
    // way.
    let (base, buffered) = if program.items().len() >= crate::par::PAR_THRESHOLD {
        std::thread::scope(|scope| {
            let base =
                scope.spawn(|| schedule_run(program, placement, hw, base_options, Vec::new()));
            let buffered = schedule_run(program, placement, hw, options, requests);
            let base = base.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            (base, buffered)
        })
    } else {
        (
            schedule_run(program, placement, hw, base_options, Vec::new()),
            schedule_run(program, placement, hw, options, requests),
        )
    };
    if buffered.makespan + 1e-9 < base.makespan {
        buffered
    } else {
        // The buffered attempt did not strictly improve: keep the legacy
        // schedule, but report the attempt's buffer statistics so the
        // fallback is visible.
        let mut summary = base;
        let mut report = buffered.buffering;
        report.fell_back = true;
        summary.buffering = report;
        summary
    }
}

/// One full walk of the program under a fixed engine (no rail).
/// `requests` is the shared [`comm_requests`] prescan for buffered
/// policies (empty for on-demand — that rail never consults it).
fn schedule_run(
    program: &AssignedProgram,
    placement: &Placement,
    hw: &HardwareSpec,
    options: ScheduleOptions,
    requests: Vec<(NodeId, NodeId)>,
) -> ScheduleSummary {
    let table = program.ir().table();
    let mut tl = Timeline::new(program.num_qubits(), hw);
    if options.record_events {
        tl = tl.with_recording();
    }
    let rm = ResourceManager::new(tl, options.buffer, requests, hw.comm_qubits_per_node());
    let mut sched = Scheduler {
        rm,
        table,
        placement,
        options,
        open_group: None,
        group_summary: CommSummary::new(program.num_qubits(), program.num_cbits()),
        partners: Vec::new(),
        cat_blocks: 0,
        tp_blocks: 0,
        fusion_savings: 0,
    };

    let items = program.items();
    let mut i = 0usize;
    while i < items.len() {
        match items[i] {
            Item::Local(id) => {
                sched.schedule_local(&[id]);
                i += 1;
            }
            Item::Block(k) => {
                let b = program.block(k);
                match b.scheme {
                    Scheme::Cat(_) => {
                        // One communication per call; local pieces need none.
                        for (piece, ids) in cat_pieces(table, b.block) {
                            match piece {
                                Piece::Call(_) => {
                                    sched.schedule_cat_call(b.block.qubit(), b.block.node(), ids);
                                }
                                Piece::Local => sched.schedule_local(ids),
                            }
                        }
                        i += 1;
                    }
                    Scheme::Tp => {
                        let q = b.block.qubit();
                        let chain_end = if sched.options.burst_aware {
                            find_chain_end(program, i, q)
                        } else {
                            i + 1
                        };
                        sched.schedule_tp_chain(program, q, &items[i..chain_end]);
                        i = chain_end;
                    }
                }
            }
        }
    }
    sched.finish()
}

/// Prescans the schedule walk into its comm request sequence — the
/// endpoint pairs every [`dqc_hardware::Timeline`] claim will be issued
/// for, in consumption order. The item list is a topological
/// linearization of the program DAG, so this sequence *is* the lookahead
/// frontier the buffered engine prefetches along. A Cat block announces
/// its `comms` calls (the walk schedules one per call piece); a TP chain
/// is grouped by the walk's [`find_chain_end`] and its hops come from the
/// walk's [`tp_legs`] (all placement/topology functions, independent of
/// timing).
fn comm_requests(
    program: &AssignedProgram,
    placement: &Placement,
    topology: &NetworkTopology,
    options: ScheduleOptions,
) -> Vec<(NodeId, NodeId)> {
    let items = program.items();
    let mut requests = Vec::new();
    let mut i = 0usize;
    while i < items.len() {
        let Item::Block(k) = items[i] else {
            i += 1;
            continue;
        };
        let b = program.block(k);
        let home = placement.physical_node_of(b.block.qubit());
        if let Scheme::Cat(_) = b.scheme {
            let node = placement.physical_of(b.block.node());
            requests.extend(std::iter::repeat_n((home, node), b.comms));
            i += 1;
            continue;
        }
        let chain_end =
            if options.burst_aware { find_chain_end(program, i, b.block.qubit()) } else { i + 1 };
        let mut cursor = home;
        for &item in &items[i..chain_end] {
            if let Item::Block(k) = item {
                let node = placement.physical_of(program.block(k).block.node());
                requests.extend(tp_legs(topology, cursor, node, home));
                cursor = node;
            }
        }
        requests.push((cursor, home));
        i = chain_end;
    }
    requests
}

/// The teleports that carry a TP chain's state from `cursor` on to `node`
/// (`home` is the burst qubit's node): none when it is already there, else
/// one direct leg, or two legs through `home` when the direct route is no
/// cheaper than re-homing. On all-to-all machines direct is always 1 < 2,
/// preserving the paper's always-fuse behavior; on sparse topologies a
/// junction whose route passes home anyway breaks the chain there, freeing
/// home's comm slots at equal link cost.
fn tp_legs(
    topology: &NetworkTopology,
    cursor: NodeId,
    node: NodeId,
    home: NodeId,
) -> impl Iterator<Item = (NodeId, NodeId)> {
    let weight = |a, b| topology.route_weight(a, b).expect("connected topology");
    let rehome = cursor != home
        && node != home
        && cursor != node
        && weight(cursor, node) + 1e-12 >= weight(cursor, home) + weight(home, node);
    let legs = match (cursor == node, rehome) {
        (true, _) => [None, None],
        (false, true) => [Some((cursor, home)), Some((home, node))],
        (false, false) => [Some((cursor, node)), None],
    };
    legs.into_iter().flatten()
}

/// Extends `[start..end)` over consecutive TP blocks with burst qubit `q`,
/// allowing interleaved local gates that do not touch `q` and single-qubit
/// unitaries on `q` itself (they execute on the teleported state).
fn find_chain_end(program: &AssignedProgram, start: usize, q: QubitId) -> usize {
    let items = program.items();
    let mut end = start + 1;
    let mut probe = end;
    while probe < items.len() {
        match items[probe] {
            Item::Block(k) => {
                let b = program.block(k);
                if b.scheme != Scheme::Tp || b.block.qubit() != q {
                    break;
                }
                probe += 1;
                end = probe;
            }
            Item::Local(id) => {
                let g = program.gate(id);
                if g.acts_on(q)
                    && !(g.num_qubits() == 1 && g.kind().is_unitary() && g.condition().is_none())
                {
                    break;
                }
                probe += 1;
            }
        }
    }
    end
}

/// A set of overlapping commutable Cat blocks sharing one burst qubit
/// (paper Fig. 12). Member bodies live in the scheduler's reused
/// [`CommSummary`], so joiner checks are `O(operands)` per gate instead of
/// a rescan of every member body.
struct CatGroup {
    qubit: QubitId,
    /// Time the burst qubit frees up for the next member's entangler CX.
    q_stagger: f64,
    /// Latest disentangle end among members.
    end: f64,
}

struct Scheduler<'a> {
    rm: ResourceManager,
    table: &'a GateTable,
    placement: &'a Placement,
    options: ScheduleOptions,
    open_group: Option<CatGroup>,
    /// Summary of every member body of the open group.
    group_summary: CommSummary,
    /// Operands of the body gate being placed, other than the burst qubit
    /// (reused across gates so the walk does not allocate).
    partners: Vec<QubitId>,
    cat_blocks: usize,
    tp_blocks: usize,
    fusion_savings: usize,
}

impl Scheduler<'_> {
    fn claim_earliest(&self, fallback: f64) -> f64 {
        if self.options.burst_aware {
            0.0
        } else {
            fallback
        }
    }

    /// Closes the open Cat group when `qubits` intersect its burst qubit
    /// (the group's logical end was already bumped onto the timeline, so
    /// this only drops the bookkeeping).
    fn close_group_if_conflicts(&mut self, qubits: &[QubitId]) {
        if let Some(g) = &self.open_group {
            if qubits.contains(&g.qubit) {
                self.open_group = None;
            }
        }
    }

    /// Schedules gates that need no communication, in order.
    fn schedule_local(&mut self, ids: &[GateId]) {
        for &id in ids {
            let g = self.table.gate(id);
            self.close_group_if_conflicts(g.qubits());
            self.rm.timeline_mut().schedule_gate(g);
        }
    }

    /// Whether the candidate body commutes with every member body of the
    /// open group (an exact [`dqc_circuit::commutes_with_all`] through the
    /// group summary).
    fn joins_group(&self, ids: &[GateId]) -> bool {
        ids.iter().all(|&id| self.group_summary.commutes_with(self.table, id))
    }

    /// Schedules one Cat call: burst qubit `q` cat-entangled to logical
    /// node `node`, running the body `ids`.
    fn schedule_cat_call(&mut self, q: QubitId, node: NodeId, ids: &[GateId]) {
        self.cat_blocks += 1;
        // Claims route between *physical* nodes: where the placement put
        // the home and remote blocks.
        let home = self.placement.physical_node_of(q);
        let node = self.placement.physical_of(node);
        let lat = *self.rm.timeline().latency();

        // Decide group membership before touching the timeline.
        let joins = self.options.burst_aware
            && matches!(&self.open_group, Some(group) if group.qubit == q)
            && self.joins_group(ids);
        let q_avail = if joins {
            self.open_group.as_ref().expect("joins implies open").q_stagger
        } else {
            self.open_group = None;
            self.rm.timeline().qubit_free_at(q)
        };

        let earliest = self.claim_earliest(q_avail);
        let claim = self.rm.acquire(home, node, earliest, q_avail);
        let ent_start = claim.epr_ready.max(q_avail);
        let tl = self.rm.timeline_mut();
        // The burst qubit is physically busy for the entangler's local CX.
        tl.occupy_qubits("cat-entangle", &[q], ent_start, ent_start + lat.t_2q);
        let ent_end = ent_start + lat.cat_entangle();

        // Body: gates touching q run on the remote copy (one comm qubit →
        // they serialize on `comm_cursor`); pure node-local gates obey only
        // their own operand wires.
        let mut comm_cursor = ent_end;
        let mut body_end = ent_end;
        let partners = &mut self.partners;
        for gate in ids.iter().map(|&id| self.table.gate(id)) {
            if gate.acts_on(q) {
                partners.clear();
                partners.extend(gate.qubits().iter().copied().filter(|&x| x != q));
                let start =
                    partners.iter().map(|&x| tl.qubit_free_at(x)).fold(comm_cursor, f64::max);
                let end = start + lat.gate(gate);
                if !partners.is_empty() {
                    tl.occupy_qubits("cat-body", partners, start, end);
                }
                comm_cursor = end;
                body_end = body_end.max(end);
            } else {
                let (_, end) = tl.schedule_gate_after(gate, ent_end);
                body_end = body_end.max(end);
            }
        }

        let dis_end = body_end.max(comm_cursor) + lat.cat_disentangle();
        tl.bump_qubit(q, dis_end);
        tl.release_comm(&claim, dis_end);

        // Update / open the group; either way the body joins the summary.
        if self.options.burst_aware {
            match &mut self.open_group {
                Some(group) if group.qubit == q => {
                    group.q_stagger = ent_start + lat.t_2q;
                    group.end = group.end.max(dis_end);
                }
                _ => {
                    self.group_summary.clear();
                    self.open_group =
                        Some(CatGroup { qubit: q, q_stagger: ent_start + lat.t_2q, end: dis_end });
                }
            }
            for &id in ids {
                self.group_summary.add(self.table, id);
            }
        }
    }

    /// Schedules a chain of TP blocks with burst qubit `q` as one teleport
    /// cycle `home → N₁ → … → N_m → home` (a single block is the degenerate
    /// cycle `home → N → home`, the paper's 2-EPR accounting). `chain` is
    /// the item run [`find_chain_end`] grouped: local gates not touching `q`
    /// run in place ahead of the cycle, and single-qubit unitaries *on* `q`
    /// ride it, executing on the teleported state wherever it is.
    fn schedule_tp_chain(&mut self, program: &AssignedProgram, q: QubitId, chain: &[Item]) {
        let mut blocks = 0;
        for &item in chain {
            match item {
                Item::Block(k) => {
                    debug_assert_eq!(program.block(k).scheme, Scheme::Tp, "chain scan");
                    blocks += 1;
                }
                Item::Local(id) => {
                    let g = self.table.gate(id);
                    if !g.acts_on(q) {
                        self.rm.timeline_mut().schedule_gate(g);
                    }
                }
            }
        }
        assert!(blocks > 0, "chains contain at least one block");
        self.tp_blocks += blocks;
        self.fusion_savings += blocks - 1;
        self.close_group_if_conflicts(&[q]);
        let home = self.placement.physical_node_of(q);
        let lat = *self.rm.timeline().latency();

        let mut state_time = self.rm.timeline().qubit_free_at(q);
        let journey_start = state_time;
        let mut cursor_node = home;
        // The claim whose destination slot currently stores the state.
        let mut holding: Option<dqc_hardware::CommClaim> = None;

        let hop = |sched: &mut Self,
                   from: NodeId,
                   to: NodeId,
                   state_time: f64,
                   holding: &mut Option<dqc_hardware::CommClaim>|
         -> f64 {
            let earliest = sched.claim_earliest(state_time);
            let claim = sched.rm.acquire(from, to, earliest, state_time);
            let t_start = claim.epr_ready.max(state_time);
            let t_end = t_start + lat.teleport();
            // The source side frees once the Bell measurement is done; the
            // slot that held the state on `from` (previous hop's
            // destination) frees as well — the state just left.
            sched.rm.timeline_mut().release_comm_source(&claim, t_end);
            if let Some(prev) = holding.take() {
                sched.rm.timeline_mut().release_comm_dest(&prev, t_end);
            }
            *holding = Some(claim);
            t_end
        };

        for &item in chain {
            let block = match item {
                Item::Block(k) => program.block(k).block,
                Item::Local(id) => {
                    let g = self.table.gate(id);
                    if g.acts_on(q) {
                        // Applied to the state on whichever node holds it.
                        state_time += lat.gate(g);
                    }
                    continue;
                }
            };
            let node = self.placement.physical_of(block.node());
            for (from, to) in tp_legs(self.rm.timeline().topology(), cursor_node, node, home) {
                if to == home {
                    // Re-homed at a junction: one fusion saving fewer.
                    self.fusion_savings = self.fusion_savings.saturating_sub(1);
                }
                state_time = hop(self, from, to, state_time, &mut holding);
            }
            cursor_node = node;
            // Body on `node`, with the comm qubit (holding q) serializing.
            let mut comm_cursor = state_time;
            let tl = self.rm.timeline_mut();
            let partners = &mut self.partners;
            for gate in block.gates(self.table) {
                if gate.acts_on(q) {
                    partners.clear();
                    partners.extend(gate.qubits().iter().copied().filter(|&x| x != q));
                    let start =
                        partners.iter().map(|&x| tl.qubit_free_at(x)).fold(comm_cursor, f64::max);
                    let end = start + lat.gate(gate);
                    if !partners.is_empty() {
                        tl.occupy_qubits("tp-body", partners, start, end);
                    }
                    comm_cursor = end;
                } else {
                    let (_, end) = tl.schedule_gate_after(gate, state_time);
                    comm_cursor = comm_cursor.max(end);
                }
            }
            state_time = comm_cursor;
        }

        // Teleport home; the arrival slot frees immediately after the local
        // relocation onto the original wire (uncharged, as in the paper).
        state_time = hop(self, cursor_node, home, state_time, &mut holding);
        if let Some(last) = holding.take() {
            self.rm.timeline_mut().release_comm_dest(&last, state_time);
        }
        self.rm.timeline_mut().occupy_qubits("tp-journey", &[q], journey_start, state_time);
    }

    fn finish(self) -> ScheduleSummary {
        let policy = self.rm.policy();
        let (tl, metrics) = self.rm.finish();
        ScheduleSummary {
            makespan: tl.makespan(),
            epr_pairs: tl.epr_pairs_consumed(),
            swaps: tl.swaps_performed(),
            link_traffic: tl.link_traffic().collect(),
            fusion_savings: self.fusion_savings,
            cat_blocks: self.cat_blocks,
            tp_blocks: self.tp_blocks,
            buffering: BufferingReport::new(policy, &metrics, false),
            events: tl.events().map(|e| e.to_vec()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{aggregate, assign, AggregateOptions};
    use dqc_circuit::{Circuit, Partition};

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    fn compile_and_schedule(
        c: &Circuit,
        p: &Partition,
        options: ScheduleOptions,
    ) -> ScheduleSummary {
        let program = assign(&aggregate(c, p, AggregateOptions::default()));
        schedule(&program, &Placement::identity(p), &HardwareSpec::for_partition(p), options)
    }

    #[test]
    #[should_panic(expected = "maps a block onto node")]
    fn out_of_range_placement_fails_loudly() {
        // An injective map can still point past the machine; the scheduler
        // must reject it with a clear message, not an index panic deep in
        // the timeline.
        let p = Partition::block(4, 2).unwrap();
        let mut c = Circuit::new(4);
        c.push(dqc_circuit::Gate::cx(q(0), q(2))).unwrap();
        let program = assign(&aggregate(&c, &p, AggregateOptions::default()));
        let placement = Placement::new(p.clone(), vec![NodeId::new(0), NodeId::new(5)]).unwrap();
        let hw = HardwareSpec::for_partition(&p);
        schedule(&program, &placement, &hw, ScheduleOptions::default());
    }

    #[test]
    fn single_cat_block_latency() {
        let p = Partition::block(4, 2).unwrap();
        let mut c = Circuit::new(4);
        c.push(dqc_circuit::Gate::cx(q(0), q(2))).unwrap();
        let s = compile_and_schedule(&c, &p, ScheduleOptions::default());
        assert_eq!(s.epr_pairs, 1);
        assert_eq!(s.cat_blocks, 1);
        // tep + entangle + CX + disentangle = 12 + 7.1 + 1 + 6.2 = 26.3.
        assert!((s.makespan - 26.3).abs() < 1e-9, "makespan {}", s.makespan);
    }

    #[test]
    fn tp_chain_fusion_saves_pairs() {
        // Bidirectional bursts from q0 to two different nodes, back to back.
        let p = Partition::block(6, 3).unwrap();
        let mut c = Circuit::new(6);
        for node_q in [2usize, 4] {
            c.push(dqc_circuit::Gate::cx(q(0), q(node_q))).unwrap();
            c.push(dqc_circuit::Gate::cx(q(node_q), q(0))).unwrap();
        }
        let fused = compile_and_schedule(&c, &p, ScheduleOptions::default());
        assert_eq!(fused.tp_blocks, 2);
        assert_eq!(fused.fusion_savings, 1);
        assert_eq!(fused.epr_pairs, 3); // 2m = 4 without fusion

        let plain = compile_and_schedule(&c, &p, ScheduleOptions::plain_greedy());
        assert_eq!(plain.epr_pairs, 4);
        assert!(
            fused.makespan < plain.makespan,
            "fusion must shorten the schedule: {} vs {}",
            fused.makespan,
            plain.makespan
        );
    }

    #[test]
    fn prefetch_hides_epr_latency() {
        // A long local prologue lets prefetching hide the EPR preparation.
        let p = Partition::block(4, 2).unwrap();
        let mut c = Circuit::new(4);
        for _ in 0..20 {
            c.push(dqc_circuit::Gate::cx(q(0), q(1))).unwrap();
        }
        c.push(dqc_circuit::Gate::cx(q(0), q(2))).unwrap();
        let with = compile_and_schedule(&c, &p, ScheduleOptions::default());
        let without = compile_and_schedule(&c, &p, ScheduleOptions::plain_greedy());
        assert!(with.makespan + 1e-9 < without.makespan);
        // The 12-unit prep hides fully behind the 20-unit prologue.
        assert!((without.makespan - with.makespan - 12.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_cat_groups_overlap() {
        // Two commutable cat blocks sharing the control qubit (Fig. 12).
        let p = Partition::block(6, 3).unwrap();
        let mut c = Circuit::new(6);
        c.push(dqc_circuit::Gate::cx(q(0), q(2))).unwrap();
        c.push(dqc_circuit::Gate::cx(q(0), q(4))).unwrap();
        let par = compile_and_schedule(&c, &p, ScheduleOptions::default());
        let seq = compile_and_schedule(&c, &p, ScheduleOptions::plain_greedy());
        assert!(par.makespan < seq.makespan);
        // Parallel: both blocks end ≈ together (stagger = 1 CX).
        assert!((par.makespan - 27.3).abs() < 1e-6, "got {}", par.makespan);
    }

    #[test]
    fn events_validate_against_hardware() {
        let p = Partition::block(6, 2).unwrap();
        let c = dqc_circuit::unroll_circuit(&dqc_workloads::qft(6)).unwrap();
        let program = assign(&aggregate(&c, &p, AggregateOptions::default()));
        let hw = HardwareSpec::for_partition(&p);
        let opts = ScheduleOptions { record_events: true, ..ScheduleOptions::default() };
        let s = schedule(&program, &Placement::identity(&p), &hw, opts);
        let events = s.events.expect("recording enabled");
        dqc_hardware::validate_events(&events, &hw).unwrap();
        assert!(s.makespan > 0.0);
    }

    #[test]
    fn plain_greedy_never_beats_burst_greedy() {
        for seed in 0..5 {
            let (c, p) = dqc_workloads::random_distributed_circuit(8, 2, 60, seed);
            let c = dqc_circuit::unroll_circuit(&c).unwrap();
            let burst = compile_and_schedule(&c, &p, ScheduleOptions::default());
            let plain = compile_and_schedule(&c, &p, ScheduleOptions::plain_greedy());
            assert!(
                burst.makespan <= plain.makespan + 1e-9,
                "seed {seed}: burst {} > plain {}",
                burst.makespan,
                plain.makespan
            );
        }
    }

    fn linear_hw(p: &Partition) -> HardwareSpec {
        HardwareSpec::for_partition(p)
            .with_topology(dqc_hardware::NetworkTopology::linear(p.num_nodes()).unwrap())
            .unwrap()
    }

    #[test]
    fn sparse_topology_charges_per_hop() {
        // A single cat block between the ends of a 3-node chain: 2 hops,
        // 2 link pairs, 1 swap, and strictly more latency than all-to-all.
        let p = Partition::block(6, 3).unwrap();
        let mut c = Circuit::new(6);
        c.push(dqc_circuit::Gate::cx(q(0), q(4))).unwrap();
        let program = assign(&aggregate(&c, &p, AggregateOptions::default()));
        let dense = schedule(
            &program,
            &Placement::identity(&p),
            &HardwareSpec::for_partition(&p),
            ScheduleOptions::default(),
        );
        let sparse = schedule(
            &program,
            &Placement::identity(&p),
            &linear_hw(&p),
            ScheduleOptions::default(),
        );
        assert_eq!(dense.epr_pairs, 1);
        assert_eq!(dense.swaps, 0);
        assert_eq!(sparse.epr_pairs, 2);
        assert_eq!(sparse.swaps, 1);
        assert!(sparse.makespan > dense.makespan);
        let n = dqc_circuit::NodeId::new;
        assert_eq!(sparse.link_traffic, vec![(n(0), n(1), 1), (n(1), n(2), 1)]);
    }

    #[test]
    fn all_to_all_summary_reports_no_swaps_or_relays() {
        let p = Partition::block(6, 2).unwrap();
        let c = dqc_circuit::unroll_circuit(&dqc_workloads::qft(6)).unwrap();
        let s = compile_and_schedule(&c, &p, ScheduleOptions::default());
        assert_eq!(s.swaps, 0);
        assert!(s.link_traffic.iter().all(|&(a, b, _)| a != b));
        let total: usize = s.link_traffic.iter().map(|&(_, _, t)| t).sum();
        assert_eq!(total, s.epr_pairs, "per-link traffic partitions the EPR count");
    }

    #[test]
    fn tp_chain_rehomes_when_the_route_passes_home() {
        // Home node 1 sits between nodes 0 and 2 on a chain. A fused TP
        // tour 1→0→2→1 would route its 0→2 junction through home anyway,
        // so the hop-aware scheduler breaks the chain there (one fewer
        // fusion saving than on all-to-all).
        let p = Partition::block(6, 3).unwrap();
        let mut c = Circuit::new(6);
        // Three gates per remote node make q2 the ranked burst qubit of
        // both blocks (so they form one TP chain).
        for node_q in [0usize, 4] {
            c.push(dqc_circuit::Gate::cx(q(2), q(node_q))).unwrap();
            c.push(dqc_circuit::Gate::cx(q(node_q), q(2))).unwrap();
            c.push(dqc_circuit::Gate::cx(q(2), q(node_q + 1))).unwrap();
        }
        let program = assign(&aggregate(&c, &p, AggregateOptions::default()));
        let dense = schedule(
            &program,
            &Placement::identity(&p),
            &HardwareSpec::for_partition(&p),
            ScheduleOptions::default(),
        );
        let sparse = schedule(
            &program,
            &Placement::identity(&p),
            &linear_hw(&p),
            ScheduleOptions::default(),
        );
        assert_eq!(dense.fusion_savings, 1, "all-to-all fuses the junction");
        assert_eq!(sparse.fusion_savings, 0, "linear re-homes at the junction");
        // Re-homing costs the same link pairs as the direct 2-hop route.
        assert_eq!(sparse.epr_pairs, 4);
        assert_eq!(sparse.swaps, 0, "every leg of the re-homed tour is adjacent");
    }

    #[test]
    fn sparse_events_validate_against_the_link_model() {
        let p = Partition::block(8, 4).unwrap();
        let c = dqc_circuit::unroll_circuit(&dqc_workloads::qft(8)).unwrap();
        let program = assign(&aggregate(&c, &p, AggregateOptions::default()));
        let hw = linear_hw(&p);
        let opts = ScheduleOptions { record_events: true, ..ScheduleOptions::default() };
        let s = schedule(&program, &Placement::identity(&p), &hw, opts);
        dqc_hardware::validate_events(&s.events.expect("recording enabled"), &hw).unwrap();
        assert!(s.swaps > 0, "QFT over a 4-chain must swap");
    }

    // ---- EPR buffering ----------------------------------------------------

    fn buffered(depth: usize) -> ScheduleOptions {
        ScheduleOptions::default().with_buffer(BufferPolicy::Prefetch { depth })
    }

    #[test]
    fn on_demand_policy_is_the_default_and_reports_no_hits() {
        let p = Partition::block(6, 3).unwrap();
        let c = dqc_circuit::unroll_circuit(&dqc_workloads::qft(6)).unwrap();
        let s = compile_and_schedule(&c, &p, ScheduleOptions::default());
        assert_eq!(s.buffering.policy, BufferPolicy::OnDemand);
        assert_eq!(s.buffering.prefetch_hits, 0);
        assert!(s.buffering.requests > 0);
        assert!(!s.buffering.fell_back);
    }

    #[test]
    fn buffered_policies_never_lose_and_report_their_run() {
        let p = Partition::block(8, 4).unwrap();
        let c = dqc_circuit::unroll_circuit(&dqc_workloads::qft(8)).unwrap();
        let program = assign(&aggregate(&c, &p, AggregateOptions::default()));
        let hw = linear_hw(&p);
        let base = schedule(&program, &Placement::identity(&p), &hw, ScheduleOptions::default());
        for policy in [
            BufferPolicy::Prefetch { depth: 2 },
            BufferPolicy::Prefetch { depth: 8 },
            BufferPolicy::Greedy,
        ] {
            let s = schedule(
                &program,
                &Placement::identity(&p),
                &hw,
                ScheduleOptions::default().with_buffer(policy),
            );
            assert!(
                s.makespan <= base.makespan + 1e-9,
                "{policy:?} lost: {} vs {}",
                s.makespan,
                base.makespan
            );
            assert_eq!(s.epr_pairs, base.epr_pairs, "{policy:?} changed EPR accounting");
            assert_eq!(s.swaps, base.swaps);
            assert_eq!(s.buffering.policy, policy);
            assert_eq!(
                s.buffering.requests,
                s.buffering.prefetch_hits + s.buffering.prefetch_misses
            );
        }
    }

    #[test]
    fn prefetch_wins_under_link_contention() {
        // Back-to-back cat bursts from both end nodes of a chain contend
        // for links and comm slots; buffered generation pipelines past the
        // slot-hold serialization and must strictly win.
        let p = Partition::block(8, 4).unwrap();
        let c = dqc_circuit::unroll_circuit(&dqc_workloads::qft(8)).unwrap();
        let program = assign(&aggregate(&c, &p, AggregateOptions::default()));
        let hw = linear_hw(&p);
        let base = schedule(&program, &Placement::identity(&p), &hw, ScheduleOptions::default());
        let pre = schedule(&program, &Placement::identity(&p), &hw, buffered(4));
        assert!(
            pre.makespan + 1e-9 < base.makespan,
            "prefetch should hide generation latency here: {} vs {}",
            pre.makespan,
            base.makespan
        );
        assert!(pre.buffering.prefetch_hits > 0);
        assert!(!pre.buffering.fell_back);
        assert!(pre.buffering.hit_rate > 0.0 && pre.buffering.hit_rate <= 1.0);
    }

    #[test]
    fn buffered_events_validate_against_hardware() {
        let p = Partition::block(8, 4).unwrap();
        let c = dqc_circuit::unroll_circuit(&dqc_workloads::qft(8)).unwrap();
        let program = assign(&aggregate(&c, &p, AggregateOptions::default()));
        let hw = linear_hw(&p);
        let opts = ScheduleOptions { record_events: true, ..buffered(4) };
        let s = schedule(&program, &Placement::identity(&p), &hw, opts);
        dqc_hardware::validate_events(&s.events.expect("recording enabled"), &hw).unwrap();
    }

    /// Schedules QFT-8 over a 4-node chain (2 comm qubits per node) under
    /// `policy`, with recording on: the summary and its validated log's
    /// `(length, swaps, FNV-1a digest of each event's Debug form)`.
    fn pinned_chain_run(policy: BufferPolicy) -> (ScheduleSummary, (usize, usize, u64)) {
        let p = Partition::block(8, 4).unwrap();
        let c = dqc_circuit::unroll_circuit(&dqc_workloads::qft(8)).unwrap();
        let program = assign(&aggregate(&c, &p, AggregateOptions::default()));
        let hw = linear_hw(&p);
        let opts = ScheduleOptions { record_events: true, ..ScheduleOptions::default() };
        let mut s = schedule(&program, &Placement::identity(&p), &hw, opts.with_buffer(policy));
        let events = s.events.take().expect("recording enabled");
        dqc_hardware::validate_events(&events, &hw).unwrap();
        let digest = events.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, e| {
            format!("{e:?}")
                .bytes()
                .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        });
        let swaps = events.iter().filter(|e| e.label == "swap").count();
        (s, (events.len(), swaps, digest))
    }

    /// Whole buffered schedules on a chain, where claims route through
    /// relays: the recorded logs validate against the hardware, and their
    /// lengths, digests and buffer statistics (hits, misses, mean pair age,
    /// per-node occupancy histogram) match the runs recorded when each
    /// buffered pair still sat in a per-endpoint FIFO as well. Both runs
    /// stall generation on buffer headroom (a node holding two pairs).
    #[test]
    fn buffered_event_log_is_pinned() {
        let (s, log) = pinned_chain_run(BufferPolicy::Prefetch { depth: 4 });
        let b = &s.buffering;
        assert!(!b.fell_back, "the buffered engine's own log is the one pinned");
        assert_eq!((b.prefetch_hits, b.prefetch_misses), (20, 1), "{b:?}");
        assert_eq!(log, (249, 9, 0xa1b5_694a_2f8d_b341), "{log:x?}");
        assert_eq!(b.occupancy_hist, [15, 40, 25], "{b:?}");
        // 32.645 CX units.
        assert_eq!(b.mean_pair_age.to_bits(), 0x4040_528f_5c28_f5c3, "{}", b.mean_pair_age);

        // Unbounded lookahead stalls on headroom at the same requests: two
        // comm qubits per node bind before a depth of four does.
        let (greedy, greedy_log) = pinned_chain_run(BufferPolicy::Greedy);
        assert_eq!(greedy.buffering.policy, BufferPolicy::Greedy);
        assert_eq!(greedy_log, log);
        assert_eq!(
            greedy.buffering,
            BufferingReport { policy: BufferPolicy::Greedy, ..s.buffering }
        );
    }

    #[test]
    fn comm_request_prescan_matches_the_walk() {
        // The prescan must predict exactly the claims the walk issues —
        // the debug assertion in `ResourceManager::acquire` checks this on
        // every buffered schedule; here we lock the counts explicitly.
        for (c, p) in [
            {
                let c = dqc_circuit::unroll_circuit(&dqc_workloads::qft(8)).unwrap();
                (c, Partition::block(8, 4).unwrap())
            },
            {
                let c = dqc_circuit::unroll_circuit(&dqc_workloads::uccsd(8)).unwrap();
                (c, Partition::block(8, 4).unwrap())
            },
        ] {
            let program = assign(&aggregate(&c, &p, AggregateOptions::default()));
            for hw in [HardwareSpec::for_partition(&p), linear_hw(&p)] {
                let placement = Placement::identity(&p);
                let requests =
                    comm_requests(&program, &placement, hw.topology(), ScheduleOptions::default());
                let s = schedule(&program, &placement, &hw, buffered(4));
                assert_eq!(requests.len(), s.buffering.requests, "{}", hw.topology().name());
            }
        }
    }
}

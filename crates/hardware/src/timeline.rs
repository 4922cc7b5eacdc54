//! Resource-constrained event timeline.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dqc_circuit::{Gate, NodeId, QubitId};

use crate::{HardwareSpec, LatencyModel, NetworkTopology};

/// A finite, non-NaN timeline instant, totally ordered so free slots and
/// channels can live in min-heaps (`f64` alone is not [`Ord`]).
#[derive(Clone, Copy, Debug, PartialEq)]
struct TimeKey(f64);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Min-heap of `(free_at, index)` entries: earliest time first, lowest
/// index among ties — exactly the deterministic tie-break the linear scans
/// in [`Timeline::best_slot`] / [`Timeline::best_channel`] use, so the
/// indexed and linear-scan engines pick identical resources.
type FreeQueue = BinaryHeap<Reverse<(TimeKey, usize)>>;

fn free_queue(times: &[f64]) -> FreeQueue {
    times
        .iter()
        .enumerate()
        .filter(|(_, t)| t.is_finite())
        .map(|(i, &t)| Reverse((TimeKey(t), i)))
        .collect()
}

/// A claim on one communication-qubit slot at each of two end nodes,
/// produced by [`Timeline::claim_comm`]. The claim covers end-to-end
/// entanglement establishment — a single EPR generation on adjacent nodes,
/// or a routed swap chain (per-hop generations plus Bell measurements at
/// every relay) on sparse topologies — and stays open (both end slots busy)
/// until [`Timeline::release_comm`]. Relay-node slots claimed by a
/// multi-hop route free themselves at `epr_ready` (the Bell measurements
/// consume them).
#[derive(Clone, Debug, PartialEq)]
pub struct CommClaim {
    /// First endpoint node.
    pub node_a: NodeId,
    /// Slot index used at `node_a`.
    pub slot_a: usize,
    /// Second endpoint node.
    pub node_b: NodeId,
    /// Slot index used at `node_b`.
    pub slot_b: usize,
    /// When the first hop's EPR preparation starts.
    pub start: f64,
    /// When end-to-end entanglement is ready (last hop generated plus one
    /// entanglement swap per relay).
    pub epr_ready: f64,
    /// Hops of the routed path (1 on adjacent pairs and all-to-all).
    pub hops: usize,
}

/// An EPR pair whose generation has been committed to the timeline but
/// whose end-node communication slots have **not** been claimed yet — the
/// unit of work a [`crate::ResourceManager`] keeps in its per-node
/// [`crate::EprBuffer`]s between generation and consumption.
///
/// Produced by [`Timeline::generate_routed`]; turned into a live
/// [`CommClaim`] by [`Timeline::attach_pair`] when a burst consumes it.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingPair {
    /// First endpoint node.
    pub a: NodeId,
    /// Second endpoint node.
    pub b: NodeId,
    /// When the first hop's EPR preparation starts.
    pub start: f64,
    /// When end-to-end entanglement is heralded (last hop generated plus
    /// one entanglement swap per relay). The pair occupies an end-node
    /// buffer slot only from this moment on.
    pub ready: f64,
    /// Hops of the routed path (1 on adjacent pairs and all-to-all).
    pub hops: usize,
}

/// What one [`Timeline::run_hops`] routed generation produced.
struct HopPlan {
    /// When the first hop's preparation starts.
    first_start: f64,
    /// End-to-end readiness (slowest hop plus one swap per relay).
    epr_ready: f64,
    /// Hops of the routed path.
    hops: usize,
}

/// One recorded interval on the timeline (for validation and inspection).
#[derive(Clone, Debug, PartialEq)]
pub struct TimelineEvent {
    /// Human-readable label (e.g. `"epr"`, `"swap"`, `"cat-entangle"`,
    /// `"cx"`).
    pub label: String,
    /// Interval start.
    pub start: f64,
    /// Interval end.
    pub end: f64,
    /// Logical qubits kept busy for the whole interval.
    pub qubits: Vec<QubitId>,
    /// Communication slots `(node, slot)` kept busy for the whole interval.
    pub slots: Vec<(NodeId, usize)>,
}

/// Tracks per-qubit availability, per-node communication-qubit slots, and
/// per-link EPR-generation channels while a scheduler lays out a
/// distributed program; counts EPR pairs (one per *hop*), entanglement
/// swaps, per-link traffic, and the overall makespan.
///
/// ```
/// use dqc_circuit::{Gate, NodeId, QubitId};
/// use dqc_hardware::{HardwareSpec, Timeline};
///
/// let hw = HardwareSpec::symmetric(2);
/// let mut tl = Timeline::new(4, &hw);
/// let (s, e) = tl.schedule_gate(&Gate::cx(QubitId::new(0), QubitId::new(1)));
/// assert_eq!((s, e), (0.0, 1.0));
/// let claim = tl.claim_comm(NodeId::new(0), NodeId::new(1), 0.0);
/// assert_eq!(claim.epr_ready, 12.0);
/// tl.release_comm(&claim, 20.0);
/// assert_eq!(tl.epr_pairs_consumed(), 1);
/// assert_eq!(tl.makespan(), 20.0);
/// ```
#[derive(Clone, Debug)]
pub struct Timeline {
    latency: LatencyModel,
    topology: NetworkTopology,
    qubit_free: Vec<f64>,
    slot_free: Vec<Vec<f64>>,
    /// Per-link EPR-generation channels (`links[i]` with capacity `c` gets
    /// `c` entries; unbounded links get an empty vec and are never
    /// contended).
    link_free: Vec<Vec<f64>>,
    /// EPR pairs generated per link.
    link_traffic: Vec<usize>,
    epr_count: usize,
    swap_count: usize,
    makespan: f64,
    events: Option<Vec<TimelineEvent>>,
    /// Earliest-free indexes (off = the historical linear-scan lookups,
    /// kept as the `schedule_scale` reference rail; see
    /// [`Timeline::with_linear_scan_reference`]). When on, `slot_queue`
    /// mirrors the *finite* entries of `slot_free` per node, `link_queue`
    /// mirrors `link_free` per link, and `free_slots` counts each node's
    /// finite slots — all maintained incrementally on claim/release so the
    /// per-claim lookups drop from O(slots)/O(capacity) scans to heap
    /// peeks and pops.
    indexed: bool,
    slot_queue: Vec<FreeQueue>,
    free_slots: Vec<usize>,
    link_queue: Vec<FreeQueue>,
    /// Reused buffers of [`Timeline::run_hops`]: the routed path and the
    /// `(in, out)` slot pair of each relay on it. Kept across claims so a
    /// routed generation allocates nothing.
    path_buf: Vec<NodeId>,
    relay_buf: Vec<(usize, usize)>,
}

impl Timeline {
    /// A fresh timeline for `num_qubits` logical qubits on machine `hw`.
    pub fn new(num_qubits: usize, hw: &HardwareSpec) -> Self {
        let topology = hw.topology().clone();
        let link_free =
            topology.links().iter().map(|l| vec![0.0; l.capacity.unwrap_or(0)]).collect::<Vec<_>>();
        let link_traffic = vec![0; topology.links().len()];
        let slot_free = vec![vec![0.0; hw.comm_qubits_per_node()]; hw.num_nodes()];
        let slot_queue = slot_free.iter().map(|s| free_queue(s)).collect();
        let free_slots = slot_free.iter().map(Vec::len).collect();
        let link_queue = link_free.iter().map(|c| free_queue(c)).collect();
        Timeline {
            latency: *hw.latency(),
            topology,
            qubit_free: vec![0.0; num_qubits],
            slot_free,
            link_free,
            link_traffic,
            epr_count: 0,
            swap_count: 0,
            makespan: 0.0,
            events: None,
            indexed: true,
            slot_queue,
            free_slots,
            link_queue,
            path_buf: Vec::new(),
            relay_buf: Vec::new(),
        }
    }

    /// Enables event recording (needed by [`crate::validate_events`]).
    #[must_use]
    pub fn with_recording(mut self) -> Self {
        self.events = Some(Vec::new());
        self
    }

    /// Disables the earliest-free indexes: every slot/channel lookup falls
    /// back to the historical linear scans. The two modes are pinned to
    /// identical schedules (same claims, same event log) by the scheduler
    /// property suite; this reference mode exists so the `schedule_scale`
    /// gate can measure the indexes against the engine they replaced in
    /// one process.
    #[must_use]
    pub fn with_linear_scan_reference(mut self) -> Self {
        self.indexed = false;
        self.slot_queue.clear();
        self.free_slots.clear();
        self.link_queue.clear();
        self
    }

    /// The latency model in force.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// The interconnect topology in force.
    pub fn topology(&self) -> &NetworkTopology {
        &self.topology
    }

    /// Earliest time qubit `q` is free.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn qubit_free_at(&self, q: QubitId) -> f64 {
        self.qubit_free[q.index()]
    }

    /// Earliest time at which `node` has a free communication slot.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_slot_free_at(&self, node: NodeId) -> f64 {
        if self.indexed {
            self.slot_queue[node.index()].peek().map_or(f64::INFINITY, |Reverse((t, _))| t.0)
        } else {
            self.slot_free[node.index()].iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Communication slots of `node` currently held open by unreleased
    /// claims (the buffered engine counts these against prefetch headroom
    /// so buffered pairs plus live claims never exceed the comm-qubit
    /// budget).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn held_slots(&self, node: NodeId) -> usize {
        if self.indexed {
            self.slot_free[node.index()].len() - self.free_slots[node.index()]
        } else {
            self.slot_free[node.index()].iter().filter(|t| t.is_infinite()).count()
        }
    }

    /// Schedules a gate as soon as its operands are free; returns
    /// `(start, end)`.
    pub fn schedule_gate(&mut self, gate: &Gate) -> (f64, f64) {
        self.schedule_gate_after(gate, 0.0)
    }

    /// Schedules a gate no earlier than `earliest`; returns `(start, end)`.
    pub fn schedule_gate_after(&mut self, gate: &Gate, earliest: f64) -> (f64, f64) {
        let start =
            gate.qubits().iter().map(|q| self.qubit_free[q.index()]).fold(earliest, f64::max);
        let end = start + self.latency.gate(gate);
        for q in gate.qubits() {
            self.qubit_free[q.index()] = end;
        }
        self.makespan = self.makespan.max(end);
        self.record(gate.kind().name(), start, end, gate.qubits(), &[]);
        (start, end)
    }

    /// Marks `qubits` busy over `[start, end)` with a labelled event
    /// (protocol phases that are not plain gates).
    pub fn occupy_qubits(&mut self, label: &str, qubits: &[QubitId], start: f64, end: f64) {
        for q in qubits {
            self.qubit_free[q.index()] = self.qubit_free[q.index()].max(end);
        }
        self.makespan = self.makespan.max(end);
        self.record(label, start, end, qubits, &[]);
    }

    /// Establishes end-to-end entanglement between `a` and `b` along the
    /// topology's routed path, no earlier than `earliest`:
    ///
    /// * one communication slot is claimed at each end node and stays busy
    ///   until [`Timeline::release_comm`];
    /// * every hop generates one EPR pair on its link, serializing on the
    ///   link's capacity channels (contending claims on the same link wait
    ///   for a channel) and occupying one slot at each hop endpoint;
    /// * relay nodes (multi-hop routes only) hold two slots — one per
    ///   adjacent hop — until the entanglement swaps complete at
    ///   `epr_ready`, which trails the slowest hop by one
    ///   [`LatencyModel::entanglement_swap`] per relay.
    ///
    /// Consumes one EPR pair *per hop* (so sparse topologies are charged
    /// their real link traffic).
    ///
    /// # Panics
    ///
    /// Panics if `a == b`, either node is out of range, the pair is
    /// disconnected in the topology, or a required node has every
    /// communication slot held open.
    pub fn claim_comm(&mut self, a: NodeId, b: NodeId, earliest: f64) -> CommClaim {
        let path = self.route(a, b);
        // One slot at each end, claimed for the whole generation-to-release
        // window (the legacy engine's defining constraint).
        let slot_a = self.best_slot(a);
        let slot_b = self.best_slot(b);
        let plan = self.run_hops(path, earliest, Some((slot_a, slot_b)));
        self.hold_slot(a, slot_a);
        self.hold_slot(b, slot_b);
        CommClaim {
            node_a: a,
            slot_a,
            node_b: b,
            slot_b,
            start: plan.first_start,
            epr_ready: plan.epr_ready,
            hops: plan.hops,
        }
    }

    /// The routed path `a → b`, loaded into the reusable path buffer;
    /// [`Timeline::run_hops`] hands the buffer back.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or the pair is disconnected in the topology.
    fn route(&mut self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        assert_ne!(a, b, "communication requires two distinct nodes");
        let route = self
            .topology
            .route(a, b)
            .unwrap_or_else(|| panic!("no route between {a} and {b} in the topology"));
        let mut path = std::mem::take(&mut self.path_buf);
        path.clear();
        path.extend(route);
        path
    }

    /// The shared routed-generation engine behind [`Timeline::claim_comm`]
    /// and [`Timeline::generate_routed`]: claims one capacity channel per
    /// hop link (contending generations serialize), two slots per relay
    /// (held until the swap chain completes at `epr_ready`), counts
    /// per-hop EPR pairs / swaps / link traffic, and records the hop and
    /// swap events.
    ///
    /// `ends` carries the already-chosen end-node slots of the legacy
    /// claim path — their availability then constrains the first/last hop
    /// and they appear in the recorded events; `None` (the buffered path)
    /// generates without touching end slots, so only link capacity and
    /// relay availability bound the start.
    fn run_hops(
        &mut self,
        path: Vec<NodeId>,
        earliest: f64,
        ends: Option<(usize, usize)>,
    ) -> HopPlan {
        let hops = path.len() - 1;
        let relays = &path[1..hops];
        // Two slots at each relay `relays[k]`: `(in, out)`, the half toward
        // the previous node and the half toward the next. In indexed mode
        // this pops both entries; the relay-release loop below pushes them
        // back at `epr_ready`.
        let mut relay_slots = std::mem::take(&mut self.relay_buf);
        relay_slots.clear();
        for &relay in relays {
            relay_slots.push(self.two_best_slots(relay));
        }

        // Each hop's generation starts as soon as its slots and a link
        // channel are free; the end-to-end pair is ready one swap per relay
        // after the slowest hop.
        let mut first_start = f64::INFINITY;
        let mut all_ready: f64 = 0.0;
        for i in 0..hops {
            let (u, v) = (path[i], path[i + 1]);
            // The slot at `u` toward `v` and the slot at `v` toward `u`;
            // `None` marks an unconstrained end.
            let out_u =
                if i == 0 { ends.map(|(slot_a, _)| slot_a) } else { Some(relay_slots[i - 1].1) };
            let in_v =
                if i + 1 == hops { ends.map(|(_, slot_b)| slot_b) } else { Some(relay_slots[i].0) };
            let link_idx =
                self.topology.link_between(u, v).expect("routed path steps along existing links");
            let su = out_u.map_or(0.0, |s| self.slot_free[u.index()][s]);
            let sv = in_v.map_or(0.0, |s| self.slot_free[v.index()][s]);
            let channel = self.best_channel(link_idx);
            let channel_free = channel.map(|c| self.link_free[link_idx][c]).unwrap_or(0.0);
            let start = su.max(sv).max(channel_free).max(earliest);
            let gen = self.latency.t_epr * self.topology.links()[link_idx].latency_factor;
            let ready = start + gen;
            if let Some(c) = channel {
                self.link_free[link_idx][c] = ready;
                if self.indexed {
                    // `best_channel` popped the entry; reinsert at its new
                    // free time.
                    self.link_queue[link_idx].push(Reverse((TimeKey(ready), c)));
                }
            }
            self.link_traffic[link_idx] += 1;
            first_start = first_start.min(start);
            all_ready = all_ready.max(ready);
            let mut slots = [(u, 0); 2];
            let mut held = 0;
            for (node, slot) in [(u, out_u), (v, in_v)] {
                if let Some(slot) = slot {
                    slots[held] = (node, slot);
                    held += 1;
                }
            }
            self.record("epr", start, ready, &[], &slots[..held]);
        }
        let epr_ready = all_ready + (hops - 1) as f64 * self.latency.entanglement_swap();

        // Relay slots free once their halves are measured out by the swaps.
        for (&relay, &(in_slot, out_slot)) in relays.iter().zip(&relay_slots) {
            self.slot_free[relay.index()][in_slot] = epr_ready;
            self.slot_free[relay.index()][out_slot] = epr_ready;
            if self.indexed {
                let q = &mut self.slot_queue[relay.index()];
                q.push(Reverse((TimeKey(epr_ready), in_slot)));
                q.push(Reverse((TimeKey(epr_ready), out_slot)));
            }
        }

        self.epr_count += hops;
        self.swap_count += hops - 1;
        self.makespan = self.makespan.max(epr_ready);
        // The swap event lists every relay slot, so it is built here, and
        // only when recording.
        if let Some(events) = self.events.as_mut().filter(|_| hops > 1) {
            let slots = relays
                .iter()
                .zip(&relay_slots)
                .flat_map(|(&relay, &(in_slot, out_slot))| [(relay, in_slot), (relay, out_slot)])
                .collect();
            events.push(TimelineEvent {
                label: "swap".to_owned(),
                start: all_ready,
                end: epr_ready,
                qubits: Vec::new(),
                slots,
            });
        }
        self.path_buf = path;
        self.relay_buf = relay_slots;
        HopPlan { first_start, epr_ready, hops }
    }

    /// Generates end-to-end entanglement between `a` and `b` along the
    /// routed path **without claiming the end-node communication slots** —
    /// the buffered-generation half of the event-driven engine. The
    /// generation serializes on link capacity channels and (on multi-hop
    /// routes) on relay-node slots exactly like [`Timeline::claim_comm`],
    /// but the heralded pair parks in the link interface until
    /// [`Timeline::attach_pair`] loads it into comm-qubit slots at both
    /// ends, so end-node slots are occupied only from herald to
    /// consumption, not for the whole generation window.
    ///
    /// Charges one EPR pair per hop and one entanglement swap per relay,
    /// identical to the legacy claim path.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Timeline::claim_comm`], minus
    /// the end-slot exhaustion case (end slots are not touched here).
    pub fn generate_routed(&mut self, a: NodeId, b: NodeId, earliest: f64) -> PendingPair {
        let path = self.route(a, b);
        let plan = self.run_hops(path, earliest, None);
        PendingPair { a, b, start: plan.first_start, ready: plan.epr_ready, hops: plan.hops }
    }

    /// Whether a generation between `a` and `b` can be issued right now:
    /// the pair is routable and every relay on the path has two
    /// communication slots not currently held open (entanglement swapping
    /// needs both). Prefetch engines use this to stall lookahead instead of
    /// tripping the relay-slot assertion.
    pub fn can_generate(&self, a: NodeId, b: NodeId) -> bool {
        let Some(route) = self.topology.route(a, b) else {
            return false;
        };
        let mut relays = route.filter(|&node| node != a && node != b);
        if self.indexed {
            relays.all(|relay| self.free_slots[relay.index()] >= 2)
        } else {
            relays.all(|relay| {
                self.slot_free[relay.index()].iter().filter(|t| t.is_finite()).count() >= 2
            })
        }
    }

    /// Loads a heralded [`PendingPair`] into one communication slot at each
    /// end node, claiming both until release. The returned claim's
    /// `epr_ready` is the *availability* time — the pair's herald time or
    /// the moment both end slots free up, whichever is later — so the
    /// standard [`Timeline::release_comm`] family applies unchanged.
    ///
    /// The end-slot occupancy interval `[available, release]` enters the
    /// event log through the `"comm"` event the `release_comm` family
    /// records (the returned claim's `epr_ready` *is* the attach time), so
    /// buffered schedules stay checkable by [`crate::validate_events`].
    ///
    /// # Panics
    ///
    /// Panics if an end node has every communication slot held open.
    pub fn attach_pair(&mut self, pair: &PendingPair) -> CommClaim {
        let slot_a = self.best_slot(pair.a);
        let slot_b = self.best_slot(pair.b);
        let available = pair
            .ready
            .max(self.slot_free[pair.a.index()][slot_a])
            .max(self.slot_free[pair.b.index()][slot_b]);
        self.hold_slot(pair.a, slot_a);
        self.hold_slot(pair.b, slot_b);
        self.makespan = self.makespan.max(available);
        CommClaim {
            node_a: pair.a,
            slot_a,
            node_b: pair.b,
            slot_b,
            start: pair.start,
            epr_ready: available,
            hops: pair.hops,
        }
    }

    /// Raises qubit `q`'s next-free time to at least `until` without
    /// recording an event — used for logical availability constraints (e.g.
    /// a parallel block group's end) that are not physical occupancy of a
    /// distinct interval.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn bump_qubit(&mut self, q: QubitId, until: f64) {
        let slot = &mut self.qubit_free[q.index()];
        *slot = slot.max(until);
        self.makespan = self.makespan.max(until);
    }

    /// Releases the two slots of `claim` at different times — TP-Comm holds
    /// the destination-side communication qubit (which stores the teleported
    /// state) longer than the source side.
    ///
    /// # Panics
    ///
    /// Panics if either time precedes the EPR-ready time.
    pub fn release_comm_sides(&mut self, claim: &CommClaim, at_a: f64, at_b: f64) {
        self.release_comm_source(claim, at_a);
        self.release_comm_dest(claim, at_b);
    }

    /// Releases only the source (`node_a`) slot of `claim` at `at`; the
    /// destination slot stays held (e.g. it stores a teleported state).
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the EPR-ready time.
    pub fn release_comm_source(&mut self, claim: &CommClaim, at: f64) {
        assert!(
            at >= claim.epr_ready - 1e-9,
            "cannot release a communication before its EPR pair exists"
        );
        debug_assert!(
            self.slot_free[claim.node_a.index()][claim.slot_a].is_infinite(),
            "double release of comm slot {}#{} (source side already released)",
            claim.node_a,
            claim.slot_a
        );
        self.release_slot(claim.node_a, claim.slot_a, at);
        self.makespan = self.makespan.max(at);
        if at > claim.epr_ready {
            self.record("comm", claim.epr_ready, at, &[], &[(claim.node_a, claim.slot_a)]);
        }
    }

    /// Releases only the destination (`node_b`) slot of `claim` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the EPR-ready time.
    pub fn release_comm_dest(&mut self, claim: &CommClaim, at: f64) {
        assert!(
            at >= claim.epr_ready - 1e-9,
            "cannot release a communication before its EPR pair exists"
        );
        debug_assert!(
            self.slot_free[claim.node_b.index()][claim.slot_b].is_infinite(),
            "double release of comm slot {}#{} (destination side already released)",
            claim.node_b,
            claim.slot_b
        );
        self.release_slot(claim.node_b, claim.slot_b, at);
        self.makespan = self.makespan.max(at);
        if at > claim.epr_ready {
            self.record("comm", claim.epr_ready, at, &[], &[(claim.node_b, claim.slot_b)]);
        }
    }

    /// Releases both slots of `claim` at time `at`, recording the occupancy
    /// interval past EPR readiness.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the EPR-ready time.
    pub fn release_comm(&mut self, claim: &CommClaim, at: f64) {
        assert!(
            at >= claim.epr_ready - 1e-9,
            "cannot release a communication before its EPR pair exists"
        );
        debug_assert!(
            self.slot_free[claim.node_a.index()][claim.slot_a].is_infinite()
                && self.slot_free[claim.node_b.index()][claim.slot_b].is_infinite(),
            "double release of comm claim {}#{} / {}#{}",
            claim.node_a,
            claim.slot_a,
            claim.node_b,
            claim.slot_b
        );
        self.release_slot(claim.node_a, claim.slot_a, at);
        self.release_slot(claim.node_b, claim.slot_b, at);
        self.makespan = self.makespan.max(at);
        if at > claim.epr_ready {
            let slots = [(claim.node_a, claim.slot_a), (claim.node_b, claim.slot_b)];
            self.record("comm", claim.epr_ready, at, &[], &slots);
        }
    }

    /// Total EPR pairs claimed so far (one per hop of every claim).
    pub fn epr_pairs_consumed(&self) -> usize {
        self.epr_count
    }

    /// Total entanglement swaps performed at relay nodes so far.
    pub fn swaps_performed(&self) -> usize {
        self.swap_count
    }

    /// EPR pairs generated per link, for links with any traffic, as
    /// `(endpoint, endpoint, pairs)` in link order. Borrowed iterator —
    /// callers that want the materialized table collect once (per-summary
    /// callers used to pay a fresh `Vec` on every call).
    pub fn link_traffic(&self) -> impl Iterator<Item = (NodeId, NodeId, usize)> + '_ {
        self.topology
            .links()
            .iter()
            .zip(&self.link_traffic)
            .filter(|(_, &t)| t > 0)
            .map(|(l, &t)| (l.a, l.b, t))
    }

    /// Latest event end seen so far (the program latency once scheduling is
    /// complete).
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// The recorded events, if recording was enabled.
    pub fn events(&self) -> Option<&[TimelineEvent]> {
        self.events.as_deref()
    }

    fn best_slot(&self, node: NodeId) -> usize {
        if self.indexed {
            let Some(&Reverse((_, best))) = self.slot_queue[node.index()].peek() else {
                panic!("all communication slots of {node} are held open; release one first");
            };
            return best;
        }
        let slots = &self.slot_free[node.index()];
        let mut best = 0;
        for (i, t) in slots.iter().enumerate() {
            if *t < slots[best] {
                best = i;
            }
        }
        assert!(
            slots[best].is_finite(),
            "all communication slots of {node} are held open; release one first"
        );
        best
    }

    /// Marks `slot` of `node` held open (a live claim) and maintains the
    /// earliest-free index. Callers hold only a slot just returned by
    /// [`Timeline::best_slot`] with no intervening writes on `node`, so in
    /// indexed mode the slot's entry is the top of the node's queue.
    fn hold_slot(&mut self, node: NodeId, slot: usize) {
        self.slot_free[node.index()][slot] = f64::INFINITY;
        if self.indexed {
            let top = self.slot_queue[node.index()].pop();
            debug_assert!(
                matches!(top, Some(Reverse((_, s))) if s == slot),
                "held slot {node}#{slot} was not the earliest-free entry"
            );
            self.free_slots[node.index()] -= 1;
        }
    }

    /// Frees `slot` of `node` at `at` and maintains the earliest-free
    /// index (the release half of [`Timeline::hold_slot`]).
    fn release_slot(&mut self, node: NodeId, slot: usize, at: f64) {
        self.slot_free[node.index()][slot] = at;
        if self.indexed {
            self.slot_queue[node.index()].push(Reverse((TimeKey(at), slot)));
            self.free_slots[node.index()] += 1;
        }
    }

    /// The two earliest-free slots of a relay node. In indexed mode both
    /// entries are popped — [`Timeline::run_hops`] pushes them back at the
    /// swap-chain completion time.
    fn two_best_slots(&mut self, node: NodeId) -> (usize, usize) {
        if self.indexed {
            let q = &mut self.slot_queue[node.index()];
            let (Some(Reverse((_, first))), Some(Reverse((_, second)))) = (q.pop(), q.pop()) else {
                panic!("relay {node} needs two free communication slots for entanglement swapping");
            };
            return (first, second);
        }
        let slots = &self.slot_free[node.index()];
        let mut order: Vec<usize> = (0..slots.len()).collect();
        order.sort_by(|&i, &j| slots[i].total_cmp(&slots[j]).then(i.cmp(&j)));
        assert!(
            order.len() >= 2 && slots[order[1]].is_finite(),
            "relay {node} needs two free communication slots for entanglement swapping"
        );
        (order[0], order[1])
    }

    /// Earliest-free capacity channel of a link (`None` = unbounded link,
    /// nothing to serialize on). In indexed mode the entry is popped —
    /// [`Timeline::run_hops`] pushes it back at the generation's end.
    fn best_channel(&mut self, link_idx: usize) -> Option<usize> {
        let channels = &self.link_free[link_idx];
        if channels.is_empty() {
            return None;
        }
        if self.indexed {
            let Some(Reverse((_, best))) = self.link_queue[link_idx].pop() else {
                unreachable!("every popped channel entry is pushed back after its claim")
            };
            return Some(best);
        }
        let mut best = 0;
        for (i, t) in channels.iter().enumerate() {
            if *t < channels[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Appends an event when recording is on. Borrows its fields, so a
    /// timeline that does not record (the default) allocates nothing here.
    fn record(
        &mut self,
        label: &str,
        start: f64,
        end: f64,
        qubits: &[QubitId],
        slots: &[(NodeId, usize)],
    ) {
        if let Some(events) = &mut self.events {
            events.push(TimelineEvent {
                label: label.to_owned(),
                start,
                end,
                qubits: qubits.to_vec(),
                slots: slots.to_vec(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkTopology;

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn timeline() -> Timeline {
        Timeline::new(6, &HardwareSpec::symmetric(3))
    }

    fn linear_hw(nodes: usize) -> HardwareSpec {
        HardwareSpec::symmetric(nodes)
            .with_topology(NetworkTopology::linear(nodes).unwrap())
            .unwrap()
    }

    #[test]
    fn gates_chain_on_shared_qubits() {
        let mut tl = timeline();
        let (s1, e1) = tl.schedule_gate(&Gate::cx(q(0), q(1)));
        let (s2, e2) = tl.schedule_gate(&Gate::cx(q(1), q(2)));
        assert_eq!((s1, e1), (0.0, 1.0));
        assert_eq!((s2, e2), (1.0, 2.0));
        // Disjoint gate runs in parallel.
        let (s3, _) = tl.schedule_gate(&Gate::h(q(3)));
        assert_eq!(s3, 0.0);
        assert_eq!(tl.makespan(), 2.0);
    }

    #[test]
    fn claim_uses_both_nodes_slots() {
        let mut tl = timeline();
        let c1 = tl.claim_comm(n(0), n(1), 0.0);
        let c2 = tl.claim_comm(n(0), n(1), 0.0);
        // Two comm qubits per node: both claims start immediately.
        assert_eq!(c1.start, 0.0);
        assert_eq!(c2.start, 0.0);
        // Third concurrent claim on node 0 must wait for a release.
        tl.release_comm(&c1, 15.0);
        let c3 = tl.claim_comm(n(0), n(2), 0.0);
        assert_eq!(c3.start, 15.0);
        assert_eq!(tl.epr_pairs_consumed(), 3);
    }

    #[test]
    #[should_panic(expected = "release one first")]
    fn exhausting_slots_panics() {
        let mut tl = timeline();
        let _ = tl.claim_comm(n(0), n(1), 0.0);
        let _ = tl.claim_comm(n(0), n(1), 0.0);
        let _ = tl.claim_comm(n(0), n(2), 0.0);
    }

    #[test]
    #[should_panic(expected = "before its EPR pair exists")]
    fn premature_release_panics() {
        let mut tl = timeline();
        let c = tl.claim_comm(n(0), n(1), 0.0);
        tl.release_comm(&c, 5.0);
    }

    #[test]
    fn makespan_tracks_latest_event() {
        let mut tl = timeline();
        let c = tl.claim_comm(n(0), n(1), 3.0);
        assert_eq!(c.start, 3.0);
        assert_eq!(c.epr_ready, 15.0);
        tl.release_comm(&c, 30.0);
        assert_eq!(tl.makespan(), 30.0);
    }

    #[test]
    fn occupy_qubits_blocks_later_gates() {
        let mut tl = timeline();
        tl.occupy_qubits("teleport", &[q(0)], 0.0, 7.0);
        let (s, _) = tl.schedule_gate(&Gate::h(q(0)));
        assert_eq!(s, 7.0);
    }

    #[test]
    fn recording_captures_events() {
        let mut tl = Timeline::new(2, &HardwareSpec::symmetric(2)).with_recording();
        tl.schedule_gate(&Gate::h(q(0)));
        let c = tl.claim_comm(n(0), n(1), 0.0);
        tl.release_comm(&c, 20.0);
        let events = tl.events().unwrap();
        assert!(events.iter().any(|e| e.label == "h"));
        assert!(events.iter().any(|e| e.label == "epr"));
        assert!(events.iter().any(|e| e.label == "comm"));
    }

    /// Every recording call site at once, on a machine where claims route
    /// through relays: gates, a labelled occupancy, a two-relay claim with
    /// its swap, a buffered generation attached later, and an asymmetric
    /// source/destination release. The expected log was recorded from the
    /// allocating `record` this test guards, so the log is pinned field by
    /// field, in order.
    #[test]
    fn recording_pins_the_exact_event_log() {
        let mut tl = Timeline::new(4, &linear_hw(4)).with_recording();
        tl.schedule_gate(&Gate::cx(q(0), q(1)));
        tl.occupy_qubits("cat-body", &[q(1), q(2)], 1.0, 3.0);
        let far = tl.claim_comm(n(0), n(3), 0.5);
        tl.release_comm(&far, far.epr_ready + 4.0);
        let near = tl.claim_comm(n(1), n(2), 2.0);
        tl.release_comm_source(&near, near.epr_ready + 1.0);
        tl.release_comm_dest(&near, near.epr_ready + 6.0);
        let pending = tl.generate_routed(n(0), n(2), 3.0);
        let attached = tl.attach_pair(&pending);
        tl.release_comm_sides(&attached, attached.epr_ready, attached.epr_ready + 2.5);
        tl.schedule_gate(&Gate::h(q(3)));
        type Row = (String, f64, f64, Vec<usize>, Vec<(usize, usize)>);
        let row = |label: &str, start, end, qubits: &[usize], slots: &[(usize, usize)]| -> Row {
            (label.to_owned(), start, end, qubits.to_vec(), slots.to_vec())
        };
        let got: Vec<Row> = tl
            .events()
            .unwrap()
            .iter()
            .map(|e| {
                let qubits: Vec<usize> = e.qubits.iter().map(|q| q.index()).collect();
                let slots: Vec<(usize, usize)> =
                    e.slots.iter().map(|&(node, slot)| (node.index(), slot)).collect();
                row(&e.label, e.start, e.end, &qubits, &slots)
            })
            .collect();
        let expected = vec![
            row("cx", 0.0, 1.0, &[0, 1], &[]),
            row("cat-body", 1.0, 3.0, &[1, 2], &[]),
            row("epr", 0.5, 12.5, &[], &[(0, 0), (1, 0)]),
            row("epr", 0.5, 12.5, &[], &[(1, 1), (2, 0)]),
            row("epr", 0.5, 12.5, &[], &[(2, 1), (3, 0)]),
            row("swap", 12.5, 27.1, &[], &[(1, 0), (1, 1), (2, 0), (2, 1)]),
            row("comm", 27.1, 31.1, &[], &[(0, 0), (3, 0)]),
            row("epr", 27.1, 39.1, &[], &[(1, 0), (2, 0)]),
            row("comm", 39.1, 40.1, &[], &[(1, 0)]),
            row("comm", 39.1, 45.1, &[], &[(2, 0)]),
            row("epr", 27.1, 39.1, &[], &[(1, 1)]),
            row("epr", 40.1, 52.1, &[], &[(1, 0)]),
            row("swap", 52.1, 59.4, &[], &[(1, 1), (1, 0)]),
            row("comm", 59.4, 61.9, &[], &[(2, 1)]),
            row("h", 0.0, 0.1, &[3], &[]),
        ];
        assert_eq!(got, expected);
        crate::validate_events(tl.events().unwrap(), &linear_hw(4)).unwrap();
    }

    #[test]
    fn no_recording_by_default() {
        let tl = timeline();
        assert!(tl.events().is_none());
    }

    #[test]
    fn bump_qubit_delays_without_event() {
        let mut tl = Timeline::new(2, &HardwareSpec::symmetric(2)).with_recording();
        tl.bump_qubit(q(0), 9.0);
        let (s, _) = tl.schedule_gate(&Gate::h(q(0)));
        assert_eq!(s, 9.0);
        // Only the gate event was recorded.
        assert_eq!(tl.events().unwrap().len(), 1);
    }

    #[test]
    fn asymmetric_release_frees_sides_independently() {
        let mut tl = timeline();
        let c = tl.claim_comm(n(0), n(1), 0.0);
        tl.release_comm_sides(&c, 12.0, 30.0);
        // Node 0's slot is free at 12; node 1 keeps one slot busy until 30.
        let c2 = tl.claim_comm(n(0), n(2), 0.0);
        assert_eq!(c2.start, 0.0); // second slot of node 0 was never used
        let c3 = tl.claim_comm(n(0), n(2), 0.0);
        assert_eq!(c3.start, 12.0); // waits for the side released at 12
        tl.release_comm(&c2, 40.0);
        tl.release_comm(&c3, 40.0);
        // Node 1's state-holding slot is busy until 30, its other slot is
        // free, but node 2 is busy until 40.
        let c4 = tl.claim_comm(n(1), n(2), 0.0);
        assert_eq!(c4.start, 40.0);
    }

    #[test]
    fn multi_hop_claim_routes_through_relays() {
        let mut tl = Timeline::new(6, &linear_hw(3));
        let lat = *tl.latency();
        let c = tl.claim_comm(n(0), n(2), 0.0);
        assert_eq!(c.hops, 2);
        // Both hop generations run in parallel; one swap merges them.
        assert_eq!(c.start, 0.0);
        assert!((c.epr_ready - (lat.t_epr + lat.entanglement_swap())).abs() < 1e-9);
        // Two link-level pairs, one swap, and per-link attribution.
        assert_eq!(tl.epr_pairs_consumed(), 2);
        assert_eq!(tl.swaps_performed(), 1);
        assert_eq!(tl.link_traffic().collect::<Vec<_>>(), vec![(n(0), n(1), 1), (n(1), n(2), 1)]);
        // The relay's two slots are busy until the swap completes.
        assert_eq!(tl.node_slot_free_at(n(1)), c.epr_ready);
        tl.release_comm(&c, c.epr_ready);
    }

    #[test]
    fn link_contention_serializes_unit_capacity_links() {
        // Both claims need the single 0–1 link (capacity 1): the second EPR
        // generation waits for the first even though slots are free.
        let mut tl = Timeline::new(4, &linear_hw(2));
        let c1 = tl.claim_comm(n(0), n(1), 0.0);
        let c2 = tl.claim_comm(n(0), n(1), 0.0);
        assert_eq!(c1.start, 0.0);
        assert_eq!(c2.start, c1.epr_ready);
        assert_eq!(tl.link_traffic().collect::<Vec<_>>(), vec![(n(0), n(1), 2)]);
    }

    #[test]
    fn all_to_all_links_never_contend() {
        // Same shape as above but on the default topology: both claims
        // start immediately, exactly the historical behavior.
        let mut tl = Timeline::new(4, &HardwareSpec::symmetric(2));
        let c1 = tl.claim_comm(n(0), n(1), 0.0);
        let c2 = tl.claim_comm(n(0), n(1), 0.0);
        assert_eq!(c1.start, 0.0);
        assert_eq!(c2.start, 0.0);
    }

    #[test]
    fn link_latency_factor_scales_generation() {
        let topo = NetworkTopology::from_text("nodes 2\nlink 0 1 latency=2.0\n").unwrap();
        let hw = HardwareSpec::symmetric(2).with_topology(topo).unwrap();
        let mut tl = Timeline::new(2, &hw);
        let c = tl.claim_comm(n(0), n(1), 0.0);
        assert_eq!(c.epr_ready, 24.0);
    }

    #[test]
    fn relay_slots_free_after_swap() {
        // After a 0→2 claim on a 3-node chain completes, the relay can
        // immediately serve its own communication.
        let mut tl = Timeline::new(6, &linear_hw(3));
        let c = tl.claim_comm(n(0), n(2), 0.0);
        tl.release_comm(&c, c.epr_ready);
        let c2 = tl.claim_comm(n(1), n(2), 0.0);
        assert_eq!(c2.start, c.epr_ready);
    }

    #[test]
    fn multi_hop_events_validate() {
        let hw = linear_hw(4);
        let mut tl = Timeline::new(8, &hw).with_recording();
        let c = tl.claim_comm(n(0), n(3), 0.0);
        assert_eq!(c.hops, 3);
        tl.release_comm(&c, c.epr_ready + 5.0);
        let events = tl.events().unwrap();
        assert_eq!(events.iter().filter(|e| e.label == "epr").count(), 3);
        assert_eq!(events.iter().filter(|e| e.label == "swap").count(), 1);
        crate::validate_events(events, &hw).unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_of_a_claim_is_caught_in_debug() {
        let mut tl = timeline();
        let c = tl.claim_comm(n(0), n(1), 0.0);
        tl.release_comm(&c, 15.0);
        tl.release_comm(&c, 16.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_of_one_side_is_caught_in_debug() {
        let mut tl = timeline();
        let c = tl.claim_comm(n(0), n(1), 0.0);
        tl.release_comm_source(&c, 15.0);
        tl.release_comm_source(&c, 16.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "double release")]
    fn release_sides_after_full_release_is_caught_in_debug() {
        let mut tl = timeline();
        let c = tl.claim_comm(n(0), n(1), 0.0);
        tl.release_comm_sides(&c, 15.0, 20.0);
        tl.release_comm_dest(&c, 25.0);
    }

    #[test]
    fn asymmetric_release_of_distinct_sides_is_fine() {
        // The guard must not fire on the legitimate TP pattern: source
        // first, destination later, each exactly once.
        let mut tl = timeline();
        let c = tl.claim_comm(n(0), n(1), 0.0);
        tl.release_comm_source(&c, 15.0);
        tl.release_comm_dest(&c, 25.0);
        assert_eq!(tl.makespan(), 25.0);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn disconnected_claim_panics() {
        use crate::topology::Link;
        // HardwareSpec::with_topology rejects disconnected machines, so
        // drive the timeline guard directly through the private fields.
        let mut tl = Timeline::new(6, &HardwareSpec::symmetric(3));
        tl.topology = NetworkTopology::from_links("x", 3, vec![Link::new(n(0), n(1))]).unwrap();
        tl.link_free = vec![vec![0.0]];
        tl.link_queue = tl.link_free.iter().map(|c| free_queue(c)).collect();
        tl.link_traffic = vec![0];
        let _ = tl.claim_comm(n(0), n(2), 0.0);
    }
}

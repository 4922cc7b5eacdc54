//! Event-driven EPR buffering: the resource manager that separates
//! *generation* events from *consumption* events and counts each node's
//! buffered pairs.
//!
//! The legacy scheduler materializes every EPR pair through one monolithic
//! [`crate::Timeline::claim_comm`] call at the moment a burst consumes it:
//! the end-node communication slots are busy from generation start to
//! protocol completion, and bursts serialize behind link contention even
//! while comm qubits idle through long local-gate windows. Following
//! CollComm (arXiv:2208.06724), this module treats the communication
//! qubits of each node as an **EPR buffer** instead: a [`ResourceManager`]
//! issues *generation events* ahead of demand ([`Timeline::generate_routed`]
//! claims link channels and runs relay swap chains, then counts the
//! heralded pair against both endpoints' buffers) and serves *consumption
//! events* separately (a burst takes the pair generated for its request,
//! or blocks until it matures). The buffer resource state is explicit in
//! the schedule rather than implicit in a mutable timeline, in the spirit
//! of InQuIR (arXiv:2302.00267).
//!
//! [`BufferPolicy`] selects the engine:
//!
//! * [`BufferPolicy::OnDemand`] — the bit-identical safety rail: every
//!   request goes through the legacy claim path, reproducing the historical
//!   scheduler exactly.
//! * [`BufferPolicy::Prefetch`] — generation for a request may begin once
//!   the consumption frontier is within `depth` requests of it, hiding
//!   entanglement generation behind computation while bounding how stale a
//!   buffered pair can get.
//! * [`BufferPolicy::Greedy`] — unbounded lookahead: every generation is
//!   issued as early as link capacity allows (maximal latency hiding,
//!   maximal pair staleness).

use dqc_circuit::NodeId;

use crate::{CommClaim, PendingPair, Timeline};

/// When EPR pairs are generated relative to the bursts that consume them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BufferPolicy {
    /// Generate each pair at burst-consumption time through the legacy
    /// claim path — bit-identical to the pre-buffering scheduler.
    #[default]
    OnDemand,
    /// Generate pairs up to `depth` bursts ahead of the consumption
    /// frontier, buffer headroom permitting (`depth >= 1`).
    Prefetch {
        /// How many comm requests ahead of the frontier generation may
        /// start.
        depth: usize,
    },
    /// Generate every pair as early as link capacity allows (unbounded
    /// lookahead).
    Greedy,
}

impl BufferPolicy {
    /// The CLI spelling: `on-demand`, `prefetch:N`, or `greedy`.
    pub fn name(self) -> String {
        match self {
            BufferPolicy::OnDemand => "on-demand".to_owned(),
            BufferPolicy::Prefetch { depth } => format!("prefetch:{depth}"),
            BufferPolicy::Greedy => "greedy".to_owned(),
        }
    }

    /// Parses the [`BufferPolicy::name`] form (`prefetch` alone defaults to
    /// depth 4).
    pub fn parse(s: &str) -> Option<BufferPolicy> {
        match s {
            "on-demand" => Some(BufferPolicy::OnDemand),
            "greedy" => Some(BufferPolicy::Greedy),
            "prefetch" => Some(BufferPolicy::Prefetch { depth: 4 }),
            _ => {
                let depth = s.strip_prefix("prefetch:")?.parse::<usize>().ok()?;
                if depth == 0 {
                    None
                } else {
                    Some(BufferPolicy::Prefetch { depth })
                }
            }
        }
    }

    /// Whether this policy routes requests through the buffered engine
    /// (false only for [`BufferPolicy::OnDemand`]).
    pub fn is_buffered(self) -> bool {
        !matches!(self, BufferPolicy::OnDemand)
    }

    /// The lookahead window in comm requests (`usize::MAX` for greedy, 0
    /// for on-demand).
    pub fn lookahead(self) -> usize {
        match self {
            BufferPolicy::OnDemand => 0,
            BufferPolicy::Prefetch { depth } => depth,
            BufferPolicy::Greedy => usize::MAX,
        }
    }
}

/// Aggregate statistics of one buffered (or on-demand) scheduling run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BufferMetrics {
    /// Total comm requests served.
    pub requests: usize,
    /// Requests whose pair was generated ahead of consumption (prefetch
    /// hits).
    pub prefetch_hits: usize,
    /// Requests generated at consumption time (buffer empty, capacity
    /// constrained, or on-demand policy).
    pub prefetch_misses: usize,
    /// Summed time bursts waited past their ready point for a pair to
    /// mature (`max(0, available - need)` per request).
    pub epr_wait_total: f64,
    /// Summed time heralded pairs aged in a buffer before consumption.
    pub pair_age_total: f64,
    /// Histogram of per-node buffer occupancy, sampled at every deposit and
    /// pop transition: `occupancy_hist[k]` counts transitions that left a
    /// buffer holding `k` pairs.
    pub occupancy_hist: Vec<u64>,
}

impl BufferMetrics {
    /// Mean time a burst waited for its EPR pair, in CX units.
    pub fn mean_epr_wait(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.epr_wait_total / self.requests as f64
        }
    }

    /// Mean age of a *buffered* pair at consumption, in CX units —
    /// averaged over prefetch hits (misses never enter a buffer).
    pub fn mean_pair_age(&self) -> f64 {
        if self.prefetch_hits == 0 {
            0.0
        } else {
            self.pair_age_total / self.prefetch_hits as f64
        }
    }

    /// Fraction of requests served from the buffer.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / self.requests as f64
        }
    }

    fn sample_occupancy(&mut self, occupancy: usize) {
        if self.occupancy_hist.len() <= occupancy {
            self.occupancy_hist.resize(occupancy + 1, 0);
        }
        self.occupancy_hist[occupancy] += 1;
    }
}

/// The discrete-event resource manager: owns the [`Timeline`] plus each
/// node's count of buffered pairs, and serves the scheduler's comm requests
/// under a [`BufferPolicy`].
///
/// The caller announces the full request sequence up front (endpoint pairs
/// in consumption order — the schedule walk is a topological linearization
/// of the program DAG, so the sequence is the lookahead frontier), then
/// calls [`ResourceManager::acquire`] once per request in that order.
/// Under a buffered policy the manager issues generation events for
/// requests inside the lookahead window before serving the current one;
/// generation is issued strictly in request order so link-channel
/// assignment stays deterministic, and stalls at the first request whose
/// endpoints lack buffer headroom (those fall back to on-demand generation
/// at consumption).
#[derive(Clone, Debug)]
pub struct ResourceManager {
    tl: Timeline,
    policy: BufferPolicy,
    requests: Vec<(NodeId, NodeId)>,
    /// Consumption frontier: index of the next request to be acquired.
    cursor: usize,
    /// Next request index eligible for generation issue.
    next_issue: usize,
    /// Generated-but-unconsumed pairs, by request index.
    pending: Vec<Option<PendingPair>>,
    /// Per-node comm-qubit budget bounding the buffered pairs.
    capacity: usize,
    /// Buffered pairs per node: the `pending` pairs it is an endpoint of.
    buffered: Vec<usize>,
    metrics: BufferMetrics,
}

impl ResourceManager {
    /// A manager over `tl` serving `requests` (endpoint pairs in
    /// consumption order) under `policy`. `capacity` is the per-node
    /// comm-qubit budget bounding each node's buffered pairs.
    pub fn new(
        tl: Timeline,
        policy: BufferPolicy,
        requests: Vec<(NodeId, NodeId)>,
        capacity: usize,
    ) -> Self {
        let nodes = tl.topology().num_nodes();
        let pending = vec![None; requests.len()];
        ResourceManager {
            tl,
            policy,
            requests,
            cursor: 0,
            next_issue: 0,
            pending,
            capacity,
            buffered: vec![0; nodes],
            metrics: BufferMetrics::default(),
        }
    }

    /// The underlying timeline (gate scheduling, releases, queries).
    pub fn timeline(&self) -> &Timeline {
        &self.tl
    }

    /// Mutable access to the underlying timeline.
    pub fn timeline_mut(&mut self) -> &mut Timeline {
        &mut self.tl
    }

    /// The policy in force.
    pub fn policy(&self) -> BufferPolicy {
        self.policy
    }

    /// Serves the next comm request: `(a, b)` must match the announced
    /// sequence. `earliest` is the legacy generation bound (0 under EPR
    /// prefetching, the burst's need time under plain greedy); `need` is
    /// when the consuming burst could start, used for wait accounting.
    ///
    /// Under [`BufferPolicy::OnDemand`] this is exactly
    /// [`Timeline::claim_comm`]. Under a buffered policy the matching
    /// buffered pair is popped (blocking until it matures), or the pair is
    /// generated on demand when the buffer missed; either way the returned
    /// claim releases through the standard `release_comm` family.
    ///
    /// # Panics
    ///
    /// Panics if more requests are served than announced, or (debug only)
    /// if the endpoints diverge from the announced sequence.
    pub fn acquire(&mut self, a: NodeId, b: NodeId, earliest: f64, need: f64) -> CommClaim {
        if !self.policy.is_buffered() {
            self.metrics.requests += 1;
            let claim = self.tl.claim_comm(a, b, earliest);
            self.metrics.epr_wait_total += (claim.epr_ready - need).max(0.0);
            self.metrics.prefetch_misses += 1;
            return claim;
        }
        assert!(self.cursor < self.requests.len(), "more comm requests served than announced");
        debug_assert_eq!(
            self.requests[self.cursor],
            (a, b),
            "comm request {} diverged from the announced sequence",
            self.cursor
        );

        let (pair, hit) = match self.pending[self.cursor].take() {
            Some(p) => {
                self.pop(&p);
                (p, true)
            }
            None => {
                // Buffer miss (capacity stall or first sighting): generate
                // on demand at the legacy bound; the pair goes straight to
                // consumption without entering a buffer.
                let p = self.tl.generate_routed(a, b, earliest);
                if self.next_issue <= self.cursor {
                    self.next_issue = self.cursor + 1;
                }
                (p, false)
            }
        };
        // Prefetch generation events for upcoming requests inside the
        // lookahead window, frontier-stamped: a request entering the window
        // now may not start generating before `need` — the moment the
        // engine "learned" of it.
        self.issue_window(need);
        let claim = self.tl.attach_pair(&pair);

        self.metrics.requests += 1;
        if hit {
            self.metrics.prefetch_hits += 1;
            // Age from herald to the moment the burst actually starts.
            self.metrics.pair_age_total += (need.max(claim.epr_ready) - pair.ready).max(0.0);
        } else {
            self.metrics.prefetch_misses += 1;
        }
        self.metrics.epr_wait_total += (claim.epr_ready - need).max(0.0);
        self.cursor += 1;
        claim
    }

    /// Whether `node` can store one more heralded pair: buffered pairs
    /// *plus* slots held open by live claims must stay inside the
    /// comm-qubit budget, so prefetching never over-subscribes a node's
    /// physical storage. (A cold-start miss attaching while the buffer is
    /// full can still load transiently — the incoming half arrives as its
    /// protocol starts — but steady-state occupancy is budget-bounded.)
    fn node_headroom(&self, node: NodeId) -> bool {
        self.buffered[node.index()] + self.tl.held_slots(node) < self.capacity
    }

    /// Issues generation for every not-yet-issued request in
    /// `(cursor, cursor + depth]` with buffer headroom at both endpoints,
    /// in request order; stalls at the first capacity-constrained request
    /// so link-channel assignment stays deterministic.
    fn issue_window(&mut self, frontier_time: f64) {
        let end = self.cursor.saturating_add(self.policy.lookahead()).min(self.requests.len() - 1);
        while self.next_issue <= end {
            let j = self.next_issue;
            let (a, b) = self.requests[j];
            if !self.node_headroom(a) || !self.node_headroom(b) || !self.tl.can_generate(a, b) {
                break;
            }
            let pair = self.tl.generate_routed(a, b, frontier_time);
            self.deposit(&pair);
            self.pending[j] = Some(pair);
            self.next_issue = j + 1;
        }
    }

    /// Counts a heralded pair into both endpoints' buffers.
    fn deposit(&mut self, pair: &PendingPair) {
        for node in [pair.a, pair.b] {
            let held = &mut self.buffered[node.index()];
            debug_assert!(*held < self.capacity, "buffer of {node} over capacity");
            *held += 1;
        }
        self.sample_occupancy(pair);
    }

    /// Counts a consumed pair out of both endpoints' buffers.
    fn pop(&mut self, pair: &PendingPair) {
        for node in [pair.a, pair.b] {
            let held = &mut self.buffered[node.index()];
            debug_assert!(*held > 0, "pop from the empty buffer of {node}");
            *held -= 1;
        }
        self.sample_occupancy(pair);
    }

    fn sample_occupancy(&mut self, pair: &PendingPair) {
        for node in [pair.a, pair.b] {
            self.metrics.sample_occupancy(self.buffered[node.index()]);
        }
    }

    /// Finishes the run, returning the timeline and the accumulated buffer
    /// statistics.
    pub fn finish(self) -> (Timeline, BufferMetrics) {
        (self.tl, self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HardwareSpec, NetworkTopology};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn policy_names_round_trip() {
        for p in [
            BufferPolicy::OnDemand,
            BufferPolicy::Prefetch { depth: 1 },
            BufferPolicy::Prefetch { depth: 16 },
            BufferPolicy::Greedy,
        ] {
            assert_eq!(BufferPolicy::parse(&p.name()), Some(p));
        }
        assert_eq!(BufferPolicy::parse("prefetch"), Some(BufferPolicy::Prefetch { depth: 4 }));
        assert_eq!(BufferPolicy::parse("prefetch:0"), None);
        assert_eq!(BufferPolicy::parse("prefetch:x"), None);
        assert_eq!(BufferPolicy::parse("bogus"), None);
    }

    #[test]
    fn on_demand_acquire_matches_legacy_claims() {
        let hw = HardwareSpec::symmetric(3);
        let mut legacy = Timeline::new(6, &hw);
        let mut rm = ResourceManager::new(Timeline::new(6, &hw), BufferPolicy::OnDemand, vec![], 2);
        let want = legacy.claim_comm(n(0), n(1), 0.0);
        let got = rm.acquire(n(0), n(1), 0.0, 0.0);
        assert_eq!(want, got);
        let (_, metrics) = rm.finish();
        assert_eq!(metrics.requests, 1);
        assert_eq!(metrics.prefetch_hits, 0);
    }

    #[test]
    fn prefetched_pair_is_ready_at_consumption() {
        // Two requests; the second is generated while the first runs, so
        // its pair is already heralded when consumed.
        let hw = HardwareSpec::symmetric(3);
        let requests = vec![(n(0), n(1)), (n(0), n(2))];
        let mut rm = ResourceManager::new(
            Timeline::new(6, &hw),
            BufferPolicy::Prefetch { depth: 1 },
            requests,
            2,
        );
        let c1 = rm.acquire(n(0), n(1), 0.0, 0.0);
        assert_eq!(c1.epr_ready, 12.0);
        rm.timeline_mut().release_comm(&c1, 40.0);
        let c2 = rm.acquire(n(0), n(2), 0.0, 40.0);
        // Generated at frontier time 0, heralded at 12, consumed at 40 —
        // zero wait, 28 units of buffer age.
        assert_eq!(c2.epr_ready, 12.0, "the buffered pair was ready long before the burst");
        rm.timeline_mut().release_comm(&c2, 50.0);
        let (_, metrics) = rm.finish();
        assert_eq!(metrics.requests, 2);
        assert_eq!(metrics.prefetch_hits, 1);
        assert_eq!(metrics.prefetch_misses, 1);
        assert!((metrics.pair_age_total - 28.0).abs() < 1e-9);
        // Only the cold-start miss waited (12 units of exposed generation);
        // the prefetched pair cost the second burst nothing.
        assert!((metrics.epr_wait_total - 12.0).abs() < 1e-9);
        assert!(metrics.occupancy_hist.len() >= 2);
    }

    #[test]
    fn capacity_stalls_lookahead_until_a_pop() {
        // Capacity 1 per node: the window cannot run ahead of consumption
        // by more than one pair per endpoint.
        let hw = HardwareSpec::symmetric(2).with_comm_qubits(1).unwrap();
        let requests = vec![(n(0), n(1)); 3];
        let mut rm = ResourceManager::new(Timeline::new(4, &hw), BufferPolicy::Greedy, requests, 1);
        let c1 = rm.acquire(n(0), n(1), 0.0, 0.0);
        rm.timeline_mut().release_comm(&c1, 20.0);
        let c2 = rm.acquire(n(0), n(1), 0.0, 20.0);
        rm.timeline_mut().release_comm(&c2, 40.0);
        let c3 = rm.acquire(n(0), n(1), 0.0, 40.0);
        rm.timeline_mut().release_comm(&c3, 60.0);
        let (_, metrics) = rm.finish();
        assert_eq!(metrics.requests, 3);
        // Request 0 is always a miss; the stalled window turns 1 and 2 into
        // frontier-time issues (hits once the buffer frees).
        assert!(metrics.prefetch_hits >= 1, "{metrics:?}");
    }

    #[test]
    fn buffered_generation_frees_end_slots_during_generation() {
        // Legacy: the end slot is busy from generation start. Buffered: the
        // slot is claimed only at attach, so a pair heralded at 12 but
        // consumed at 30 leaves the slot free before 30.
        let hw = HardwareSpec::symmetric(2);
        let mut tl = Timeline::new(4, &hw);
        let pair = tl.generate_routed(n(0), n(1), 0.0);
        assert_eq!(pair.ready, 12.0);
        assert_eq!(pair.hops, 1);
        assert_eq!(tl.epr_pairs_consumed(), 1);
        // Both nodes still have every slot free.
        assert_eq!(tl.node_slot_free_at(n(0)), 0.0);
        let claim = tl.attach_pair(&pair);
        assert_eq!(claim.epr_ready, 12.0);
        tl.release_comm(&claim, 30.0);
        assert_eq!(tl.makespan(), 30.0);
    }

    #[test]
    fn multi_hop_generation_runs_the_swap_chain() {
        let hw =
            HardwareSpec::symmetric(3).with_topology(NetworkTopology::linear(3).unwrap()).unwrap();
        let mut tl = Timeline::new(6, &hw);
        let lat = *tl.latency();
        let pair = tl.generate_routed(n(0), n(2), 0.0);
        assert_eq!(pair.hops, 2);
        assert!((pair.ready - (lat.t_epr + lat.entanglement_swap())).abs() < 1e-9);
        assert_eq!(tl.epr_pairs_consumed(), 2);
        assert_eq!(tl.swaps_performed(), 1);
        // The relay's slots were busy until the swap completed.
        assert_eq!(tl.node_slot_free_at(n(1)), pair.ready);
        let claim = tl.attach_pair(&pair);
        tl.release_comm(&claim, claim.epr_ready);
    }
}

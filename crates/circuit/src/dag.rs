//! Dependency DAG over a circuit's gates.
//!
//! Two views are provided:
//!
//! * the **strict** dependency graph, where any two gates sharing a qubit
//!   (or classical bit) in program order are ordered, giving the usual
//!   ASAP layering and critical path;
//! * the **commutation-aware** graph, where an edge exists only when the
//!   gates do *not* commute ([`crate::commutes`]) — the structure the
//!   AutoComm aggregation pass navigates, exposed both for analysis and as
//!   the per-compile conflict index of the indexed IR.
//!
//! Adjacency is stored in flat CSR arrays (`u32` indices), so building a
//! graph over tens of thousands of gates costs a handful of allocations
//! instead of two `Vec`s per gate.

#[cfg(test)]
use crate::QubitId;
use crate::{commutes, Circuit, Gate, GateId, GateTable};

/// A directed acyclic dependency graph over gate indices of a circuit.
#[derive(Clone, Debug, PartialEq)]
pub struct DependencyDag {
    /// CSR offsets into `pred_adj`, one entry per gate plus a tail.
    pred_off: Vec<u32>,
    /// Flat predecessor lists: `pred_adj[pred_off[i]..pred_off[i+1]]`.
    pred_adj: Vec<u32>,
    /// CSR offsets into `succ_adj`.
    succ_off: Vec<u32>,
    /// Flat successor lists, ascending within each gate.
    succ_adj: Vec<u32>,
    num_gates: usize,
}

/// Bounded per-wire history for the streaming DAG builds: at most `cap`
/// most-recent stream positions are retained per wire, in ring buffers, so
/// the build's working set is O(wires × window) no matter how long the
/// stream is. The windowed scans only ever look `window` entries back, so
/// evicting older positions changes nothing — the graphs are bit-identical
/// to the unbounded-history build (the property tests below assert it).
///
/// With `cap == usize::MAX` (the exact, unwindowed builds) the rings never
/// fill and degenerate to plain grow-on-push vectors.
struct HistoryRings {
    rings: Vec<Vec<u32>>,
    /// Index of the *oldest* entry once a ring is full (rings rotate in
    /// place instead of shifting).
    head: Vec<u32>,
    cap: usize,
    /// Total retained entries across all rings (each ring saturates at
    /// `cap`, so this saturates at `wires × cap`).
    live: usize,
}

impl HistoryRings {
    fn new(wires: usize, cap: usize) -> Self {
        HistoryRings {
            rings: vec![Vec::new(); wires],
            head: vec![0; wires],
            cap: cap.max(1),
            live: 0,
        }
    }

    /// Records `pos` as wire `w`'s most recent entry, evicting the oldest
    /// once `cap` entries are held.
    fn push(&mut self, w: usize, pos: u32) {
        let ring = &mut self.rings[w];
        if ring.len() < self.cap {
            ring.push(pos);
            self.live += 1;
        } else {
            let h = self.head[w] as usize;
            ring[h] = pos;
            self.head[w] = ((h + 1) % self.cap) as u32;
        }
    }

    /// The retained entries of wire `w`, newest first.
    fn newest_first(&self, w: usize) -> impl Iterator<Item = u32> + '_ {
        let ring = &self.rings[w];
        let len = ring.len();
        let head = self.head[w] as usize;
        (0..len).map(move |k| ring[(head + len - 1 - k) % len])
    }
}

/// Streaming commutation-aware conflict scan over an interned gate stream:
/// the gate-at-a-time core of [`DependencyDag::commutation_aware_indexed`],
/// exposed so consumers that only need each gate's predecessor set *once*
/// (the default aggregation path) can consume it directly and never
/// materialize the CSR edge arrays.
///
/// Each [`ConflictScan::advance`] call yields the next stream position's
/// direct-conflict predecessors — the same nearest-blocker-per-wire sets
/// the materialized build records, in the same order — while retaining only
/// the bounded `HistoryRings` state: at most `window` positions per wire,
/// so the whole scan runs in `O(wires × window)` working set regardless of
/// stream length ([`ConflictScan::peak_live_slots`] reports the observed
/// peak, [`ConflictScan::slot_bound`] the bound).
pub struct ConflictScan<'a> {
    table: &'a GateTable,
    stream: &'a [GateId],
    wire_history: HistoryRings,
    cbit_history: HistoryRings,
    window: usize,
    next: usize,
    peak_live: usize,
    /// Scratch predecessor list, reused across `advance` calls.
    preds: Vec<u32>,
}

impl<'a> ConflictScan<'a> {
    /// Starts a scan over `stream` with the backward wire scan bounded to
    /// `window` gates per wire (see
    /// [`DependencyDag::commutation_aware_windowed`] for the windowing
    /// semantics).
    pub fn new(
        table: &'a GateTable,
        stream: &'a [GateId],
        num_qubits: usize,
        num_cbits: usize,
        window: usize,
    ) -> Self {
        ConflictScan {
            table,
            stream,
            wire_history: HistoryRings::new(num_qubits, window),
            cbit_history: HistoryRings::new(num_cbits.max(1), window),
            window,
            next: 0,
            peak_live: 0,
            preds: Vec::new(),
        }
    }

    /// Scans the next stream position and returns its direct-conflict
    /// predecessor set (deduplicated, nearest blocker per wire, qubit wires
    /// before classical bits — exactly the order the materialized CSR build
    /// stores). Returns `None` once the stream is exhausted. The slice is
    /// only valid until the next `advance` call.
    pub fn advance(&mut self) -> Option<&[u32]> {
        let i = self.next;
        let &id = self.stream.get(i)?;
        self.preds.clear();
        for q in self.table.qubit_indices(id) {
            for j in self.wire_history.newest_first(q).take(self.window) {
                if !self.table.commutes_ids(self.stream[j as usize], id) {
                    if !self.preds.contains(&j) {
                        self.preds.push(j);
                    }
                    break; // nearest blocker dominates older ones
                }
            }
            self.wire_history.push(q, i as u32);
        }
        for bit in self.table.classical_bits(id) {
            for j in self.cbit_history.newest_first(bit).take(self.window) {
                if !self.table.commutes_ids(self.stream[j as usize], id) {
                    if !self.preds.contains(&j) {
                        self.preds.push(j);
                    }
                    break;
                }
            }
            self.cbit_history.push(bit, i as u32);
        }
        self.peak_live = self.peak_live.max(self.live_slots());
        self.next = i + 1;
        Some(&self.preds)
    }

    /// Ring-buffer entries currently retained across all wires.
    pub fn live_slots(&self) -> usize {
        self.wire_history.live + self.cbit_history.live
    }

    /// Peak [`Self::live_slots`] observed so far.
    pub fn peak_live_slots(&self) -> usize {
        self.peak_live
    }

    /// Upper bound on [`Self::live_slots`]: `(qubit wires + cbit wires) ×
    /// window` — the `O(wires × window)` working-set guarantee.
    pub fn slot_bound(&self) -> usize {
        (self.wire_history.rings.len() + self.cbit_history.rings.len())
            .saturating_mul(self.window.max(1))
    }
}

/// Incremental CSR builder for predecessors: gates are processed in
/// ascending order, so each gate's list is appended contiguously.
struct PredBuilder {
    off: Vec<u32>,
    adj: Vec<u32>,
}

impl PredBuilder {
    fn new(n: usize) -> Self {
        PredBuilder { off: Vec::with_capacity(n + 1), adj: Vec::new() }
    }

    /// Opens gate `i`'s list (must be called in ascending `i` order).
    fn open(&mut self) {
        self.off.push(self.adj.len() as u32);
    }

    /// Adds `from` to the currently open list unless already present.
    fn add(&mut self, from: usize) -> bool {
        let start = *self.off.last().expect("open() called") as usize;
        if self.adj[start..].contains(&(from as u32)) {
            return false;
        }
        self.adj.push(from as u32);
        true
    }

    fn finish(mut self, num_gates: usize) -> DependencyDag {
        self.off.push(self.adj.len() as u32);
        // Successors by counting sort over the predecessor edges; pushing
        // in ascending `i` order keeps every successor list sorted.
        let mut succ_off = vec![0u32; num_gates + 2];
        for &from in &self.adj {
            succ_off[from as usize + 2] += 1;
        }
        for k in 2..succ_off.len() {
            succ_off[k] += succ_off[k - 1];
        }
        let mut succ_adj = vec![0u32; self.adj.len()];
        for i in 0..num_gates {
            let (s, e) = (self.off[i] as usize, self.off[i + 1] as usize);
            for &from in &self.adj[s..e] {
                let slot = &mut succ_off[from as usize + 1];
                succ_adj[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        succ_off.pop();
        DependencyDag { pred_off: self.off, pred_adj: self.adj, succ_off, succ_adj, num_gates }
    }
}

impl DependencyDag {
    /// Strict dependencies: gates sharing any qubit or classical bit are
    /// ordered as written. Only the *last* writer per resource is recorded,
    /// so edge counts stay linear in practice.
    pub fn strict(circuit: &Circuit) -> Self {
        Self::build(circuit, |_, _| true)
    }

    /// Commutation-aware dependencies: overlapping gates are ordered only
    /// when the symbolic oracle cannot prove they commute.
    pub fn commutation_aware(circuit: &Circuit) -> Self {
        Self::build(circuit, |a, b| !commutes(a, b))
    }

    /// Commutation-aware dependencies with the backward wire scan bounded
    /// to `window` gates per wire.
    ///
    /// On long runs of mutually commuting gates (QAOA's diagonal layers)
    /// the exact build degenerates to a quadratic scan; the windowed build
    /// stays linear by giving up on blockers more than `window` commuting
    /// gates back. Every recorded edge still connects a provably
    /// non-commuting pair — only edges may be *missing* — so the result is
    /// exact for "these two gates conflict" queries ([`Self::has_edge`])
    /// and an *optimistic* bound for layering.
    pub fn commutation_aware_windowed(circuit: &Circuit, window: usize) -> Self {
        Self::build_windowed(circuit, |a, b| !commutes(a, b), window)
    }

    /// [`Self::commutation_aware_windowed`] over an interned gate stream:
    /// the dependence oracle is [`GateTable::commutes_ids`], which walks the
    /// table's precomputed wire records instead of re-deriving axis
    /// behavior per call. Produces the same graph as the circuit-based
    /// build; this is the constructor the indexed IR uses.
    pub fn commutation_aware_indexed(
        table: &GateTable,
        stream: &[GateId],
        num_qubits: usize,
        num_cbits: usize,
        window: usize,
    ) -> Self {
        let n = stream.len();
        let mut preds = PredBuilder::new(n);
        // Materialization is just the streaming scan with every predecessor
        // set frozen into CSR arrays — one code path for both rails, so the
        // streaming consumers see bit-identical sets by construction.
        let mut scan = ConflictScan::new(table, stream, num_qubits, num_cbits, window);
        while let Some(set) = scan.advance() {
            preds.open();
            for &p in set {
                preds.add(p as usize);
            }
        }
        preds.finish(n)
    }

    fn build(circuit: &Circuit, depends: impl Fn(&Gate, &Gate) -> bool) -> Self {
        Self::build_windowed(circuit, depends, usize::MAX)
    }

    fn build_windowed(
        circuit: &Circuit,
        depends: impl Fn(&Gate, &Gate) -> bool,
        window: usize,
    ) -> Self {
        let n = circuit.len();
        let mut preds = PredBuilder::new(n);
        // Track, per qubit/cbit, the recent gates that may conflict. For the
        // strict build only the last toucher matters; for the
        // commutation-aware build we keep the chain of gates on the wire and
        // link against the nearest non-commuting one. The windowed builds
        // retain at most `window` positions per wire (ring buffers), so a
        // million-gate stream never holds more than O(wires × window)
        // history.
        let mut wire_history = HistoryRings::new(circuit.num_qubits(), window);
        let mut cbit_history = HistoryRings::new(circuit.num_cbits().max(1), window);
        let gates = circuit.gates();
        for (i, gate) in gates.iter().enumerate() {
            preds.open();
            for &q in gate.qubits() {
                for j in wire_history.newest_first(q.index()).take(window) {
                    if depends(&gates[j as usize], gate) {
                        preds.add(j as usize);
                        break; // nearest blocker dominates older ones
                    }
                }
                wire_history.push(q.index(), i as u32);
            }
            for bit in [gate.cbit(), gate.condition()].into_iter().flatten() {
                for j in cbit_history.newest_first(bit.index()).take(window) {
                    if depends(&gates[j as usize], gate) {
                        preds.add(j as usize);
                        break;
                    }
                }
                cbit_history.push(bit.index(), i as u32);
            }
        }
        preds.finish(n)
    }

    /// Number of gates (nodes).
    pub fn len(&self) -> usize {
        self.num_gates
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.num_gates == 0
    }

    /// Predecessors of gate `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn predecessors(&self, i: usize) -> &[u32] {
        &self.pred_adj[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    /// Successors of gate `i`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn successors(&self, i: usize) -> &[u32] {
        &self.succ_adj[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// ASAP layer of every gate (layer 0 = no predecessors); the maximum
    /// plus one is the circuit depth under this dependence relation.
    pub fn asap_layers(&self) -> Vec<usize> {
        let mut layer = vec![0usize; self.num_gates];
        for i in 0..self.num_gates {
            // preds always have smaller indices (edges respect program order).
            let l = self.predecessors(i).iter().map(|&p| layer[p as usize] + 1).max().unwrap_or(0);
            layer[i] = l;
        }
        layer
    }

    /// Depth (longest chain length) under this dependence relation.
    pub fn depth(&self) -> usize {
        self.asap_layers().iter().map(|l| l + 1).max().unwrap_or(0)
    }

    /// Latency-weighted critical path: the minimum possible makespan with
    /// unlimited parallelism, where `weight(i)` is gate `i`'s duration.
    pub fn critical_path(&self, weight: impl Fn(usize) -> f64) -> f64 {
        let mut finish = vec![0.0f64; self.num_gates];
        let mut best = 0.0f64;
        for i in 0..self.num_gates {
            let start =
                self.predecessors(i).iter().map(|&p| finish[p as usize]).fold(0.0, f64::max);
            finish[i] = start + weight(i);
            best = best.max(finish[i]);
        }
        best
    }

    /// Gates with no predecessors (schedulable immediately).
    pub fn front(&self) -> Vec<usize> {
        (0..self.num_gates).filter(|&i| self.predecessors(i).is_empty()).collect()
    }

    /// Whether the dependence edge `from → to` is present.
    ///
    /// For the commutation-aware builds an edge is a proof that the two
    /// gates do **not** commute; absence proves nothing (the blocker may be
    /// transitive). Successor lists are ascending, so this is a binary
    /// search.
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        self.successors(from).binary_search(&(to as u32)).is_ok()
    }

    /// Total number of dependence edges.
    pub fn edge_count(&self) -> usize {
        self.pred_adj.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gate;

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    fn chain_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::h(q(0))).unwrap();
        c.push(Gate::cx(q(0), q(1))).unwrap();
        c.push(Gate::cx(q(1), q(2))).unwrap();
        c
    }

    /// Interns a circuit and builds the indexed commutation-aware DAG.
    fn indexed(circuit: &Circuit, window: usize) -> DependencyDag {
        let mut table = GateTable::new();
        let stream: Vec<GateId> = circuit.gates().iter().map(|g| table.intern(g)).collect();
        DependencyDag::commutation_aware_indexed(
            &table,
            &stream,
            circuit.num_qubits(),
            circuit.num_cbits(),
            window,
        )
    }

    #[test]
    fn strict_dag_orders_shared_wires() {
        let dag = DependencyDag::strict(&chain_circuit());
        assert_eq!(dag.predecessors(0), &[] as &[u32]);
        assert_eq!(dag.predecessors(1), &[0]);
        assert_eq!(dag.predecessors(2), &[1]);
        assert_eq!(dag.successors(0), &[1]);
        assert_eq!(dag.depth(), 3);
        assert_eq!(dag.front(), vec![0]);
        assert!(dag.has_edge(0, 1));
        assert!(!dag.has_edge(0, 2));
        assert_eq!(dag.edge_count(), 2);
    }

    #[test]
    fn commutation_aware_dag_skips_commuting_pairs() {
        // Two CX sharing a control commute: depth collapses to 1.
        let mut c = Circuit::new(3);
        c.push(Gate::cx(q(0), q(1))).unwrap();
        c.push(Gate::cx(q(0), q(2))).unwrap();
        let strict = DependencyDag::strict(&c);
        let aware = DependencyDag::commutation_aware(&c);
        assert_eq!(strict.depth(), 2);
        assert_eq!(aware.depth(), 1);
        assert_eq!(aware.front().len(), 2);
    }

    #[test]
    fn nearest_blocker_is_linked_past_commuting_gates() {
        // H q0 ; RZ q0 ; ... the RZ commutes with a following CX control but
        // the H does not — the CX must still depend on the H transitively.
        let mut c = Circuit::new(2);
        c.push(Gate::h(q(0))).unwrap();
        c.push(Gate::rz(0.5, q(0))).unwrap();
        c.push(Gate::cx(q(0), q(1))).unwrap();
        let aware = DependencyDag::commutation_aware(&c);
        // CX's blocker through q0 is H (index 0): rz commutes with cx.
        assert!(aware.predecessors(2).contains(&0));
        assert_eq!(aware.depth(), 2);
    }

    #[test]
    fn classical_bits_create_dependencies() {
        use crate::CBitId;
        let mut c = Circuit::with_cbits(2, 1);
        c.push(Gate::measure(q(0), CBitId::new(0))).unwrap();
        c.push(Gate::x(q(1)).with_condition(CBitId::new(0))).unwrap();
        let dag = DependencyDag::strict(&c);
        assert_eq!(dag.predecessors(1), &[0]);
        let idx = indexed(&c, 64);
        assert_eq!(idx.predecessors(1), &[0]);
    }

    #[test]
    fn critical_path_uses_weights() {
        let dag = DependencyDag::strict(&chain_circuit());
        // h = 0.1, cx = 1.0 each → 2.1 total on the chain.
        let weights = [0.1, 1.0, 1.0];
        let cp = dag.critical_path(|i| weights[i]);
        assert!((cp - 2.1).abs() < 1e-12);
    }

    #[test]
    fn empty_circuit() {
        let dag = DependencyDag::strict(&Circuit::new(2));
        assert!(dag.is_empty());
        assert_eq!(dag.depth(), 0);
        assert_eq!(dag.critical_path(|_| 1.0), 0.0);
    }

    fn pseudo_random_circuit(seed: u64, num_qubits: usize, len: usize) -> Circuit {
        // Hand-rolled deterministic pseudo-random circuit (avoid a dev
        // dependency cycle with dqc-workloads).
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut c = Circuit::new(num_qubits);
        for _ in 0..len {
            let a = (next() % num_qubits as u64) as usize;
            let b = (a + 1 + (next() % (num_qubits as u64 - 1)) as usize) % num_qubits;
            match next() % 4 {
                0 => c.push(Gate::h(q(a))).unwrap(),
                1 => c.push(Gate::t(q(a))).unwrap(),
                2 => c.push(Gate::cx(q(a), q(b))).unwrap(),
                _ => c.push(Gate::cz(q(a), q(b))).unwrap(),
            }
        }
        c
    }

    #[test]
    fn commutation_aware_depth_never_exceeds_strict() {
        for seed in 0..5u64 {
            let c = pseudo_random_circuit(seed, 4, 30);
            let strict = DependencyDag::strict(&c).depth();
            let aware = DependencyDag::commutation_aware(&c).depth();
            assert!(aware <= strict, "seed {seed}: {aware} > {strict}");
        }
    }

    #[test]
    fn indexed_build_matches_gate_build() {
        for seed in 0..5u64 {
            let c = pseudo_random_circuit(seed, 5, 60);
            let by_gate = DependencyDag::commutation_aware_windowed(&c, 16);
            let by_id = indexed(&c, 16);
            assert_eq!(by_gate, by_id, "seed {seed}");
        }
    }

    /// Reference windowed build with *unbounded* per-wire history vectors
    /// (the pre-ring-buffer implementation): the streaming build must
    /// reproduce it bit for bit, including when rings wrap many times.
    fn reference_windowed(circuit: &Circuit, window: usize) -> DependencyDag {
        let gates = circuit.gates();
        let mut preds = PredBuilder::new(gates.len());
        let mut wire_history: Vec<Vec<u32>> = vec![Vec::new(); circuit.num_qubits()];
        let mut cbit_history: Vec<Vec<u32>> = vec![Vec::new(); circuit.num_cbits().max(1)];
        for (i, gate) in gates.iter().enumerate() {
            preds.open();
            for &q in gate.qubits() {
                for &j in wire_history[q.index()].iter().rev().take(window) {
                    if !commutes(&gates[j as usize], gate) {
                        preds.add(j as usize);
                        break;
                    }
                }
                wire_history[q.index()].push(i as u32);
            }
            for bit in [gate.cbit(), gate.condition()].into_iter().flatten() {
                for &j in cbit_history[bit.index()].iter().rev().take(window) {
                    if !commutes(&gates[j as usize], gate) {
                        preds.add(j as usize);
                        break;
                    }
                }
                cbit_history[bit.index()].push(i as u32);
            }
        }
        preds.finish(gates.len())
    }

    #[test]
    fn ring_history_build_matches_unbounded_history_reference() {
        // Streams far longer than the window per wire, so every ring wraps
        // around many times; tiny windows stress the eviction path.
        for window in [1usize, 2, 3, 7, 16] {
            for seed in 0..4u64 {
                let c = pseudo_random_circuit(seed * 31 + 5, 3, 200);
                let streamed = DependencyDag::commutation_aware_windowed(&c, window);
                let reference = reference_windowed(&c, window);
                assert_eq!(streamed, reference, "window {window}, seed {seed}");
                let by_id = indexed(&c, window);
                assert_eq!(by_id, reference, "indexed: window {window}, seed {seed}");
            }
        }
    }

    #[test]
    fn conflict_scan_matches_materialized_build_and_stays_bounded() {
        for window in [2usize, 8, 16] {
            for seed in 0..3u64 {
                let c = pseudo_random_circuit(seed * 17 + 3, 4, 300);
                let mut table = GateTable::new();
                let stream: Vec<GateId> = c.gates().iter().map(|g| table.intern(g)).collect();
                let dag = DependencyDag::commutation_aware_indexed(
                    &table,
                    &stream,
                    c.num_qubits(),
                    c.num_cbits(),
                    window,
                );
                let mut scan =
                    ConflictScan::new(&table, &stream, c.num_qubits(), c.num_cbits(), window);
                let mut pos = 0usize;
                while let Some(set) = scan.advance() {
                    assert_eq!(set, dag.predecessors(pos), "window {window}, pos {pos}");
                    pos += 1;
                }
                assert_eq!(pos, c.len());
                // The working set is O(wires × window), never O(gates): the
                // stream is 300 gates long but at most `window` positions
                // per wire are ever retained.
                assert!(scan.peak_live_slots() <= scan.slot_bound());
                assert_eq!(scan.slot_bound(), (c.num_qubits() + 1) * window);
            }
        }
    }

    #[test]
    fn windowed_build_only_drops_edges() {
        let c = pseudo_random_circuit(9, 4, 80);
        let full = DependencyDag::commutation_aware(&c);
        let windowed = DependencyDag::commutation_aware_windowed(&c, 4);
        assert!(windowed.edge_count() <= full.edge_count());
        for i in 0..c.len() {
            for &p in windowed.predecessors(i) {
                assert!(
                    full.has_edge(p as usize, i),
                    "windowed edge {p}->{i} missing from the exact build"
                );
            }
        }
    }
}

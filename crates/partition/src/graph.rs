//! The qubit interaction graph.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use dqc_circuit::{
    unroll_gate_each, Circuit, CircuitError, Gate, GateKind, NodeId, Partition, QubitId,
};

use crate::NodeDistance;

/// Compressed-sparse-row neighbor index over the (symmetric) adjacency,
/// plus the sorted upper-triangular edge list. Rebuilt lazily after
/// mutations; every traversal helper reads from here so scans cost
/// O(degree) / O(edges), never O(n) / O(n²).
#[derive(Clone, Debug)]
struct CsrIndex {
    /// `starts[q] .. starts[q + 1]` indexes `cols` / `weights` — the
    /// neighbors of `q`, ascending.
    starts: Vec<usize>,
    cols: Vec<u32>,
    weights: Vec<u64>,
    /// Positive-weight edges `(i, j, w)` with `i < j`, ascending `(i, j)`.
    edge_list: Vec<(u32, u32, u64)>,
    total: u64,
}

/// Weighted undirected graph over qubits; edge weight = number of
/// multi-qubit gates coupling the pair.
///
/// Circuit-derived interaction graphs are sparse — each gate couples at
/// most three qubits — so edges live in an upper-triangular hash map
/// (O(edges) memory) fronted by a lazily built CSR neighbor index
/// ([`InteractionGraph::neighbors`]) that every traversal helper reads.
/// This keeps the 1k–4k-qubit tier linear in edges where the former dense
/// matrix paid O(n²) in both memory and scan time.
#[derive(Clone, Debug)]
pub struct InteractionGraph {
    num_qubits: usize,
    /// Upper-triangular edge store: key packs `(i, j)` with `i < j`;
    /// values are always positive (zero-weight adds are dropped), so
    /// map equality is exactly edge-set equality.
    edges: HashMap<u64, u64>,
    /// Lazy CSR index; cleared by every mutation.
    index: OnceLock<CsrIndex>,
    /// Process-unique content stamp: every mutation takes a fresh value, so
    /// equal stamps imply equal edge content (clones share the stamp until
    /// one of them mutates). Lets the OEE warm-start cache validate its
    /// graph in O(1) instead of re-hashing the edge set.
    version: u64,
}

/// Monotone source for [`InteractionGraph::version`] stamps.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

fn fresh_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

impl PartialEq for InteractionGraph {
    fn eq(&self, other: &Self) -> bool {
        // The index is a cache of `edges`; only content participates.
        self.num_qubits == other.num_qubits && self.edges == other.edges
    }
}

impl Eq for InteractionGraph {}

#[inline]
fn pack(i: usize, j: usize) -> u64 {
    debug_assert!(i < j);
    ((i as u64) << 32) | j as u64
}

impl InteractionGraph {
    /// An edgeless graph over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        assert!(num_qubits <= u32::MAX as usize, "qubit index must fit in 32 bits");
        InteractionGraph {
            num_qubits,
            edges: HashMap::new(),
            index: OnceLock::new(),
            version: fresh_version(),
        }
    }

    /// Builds the graph of `circuit`: every multi-qubit gate adds one unit
    /// of weight to each pair of its operands.
    ///
    /// This is the *raw-gate* weighting — the documented fallback when no
    /// compiled program is available (e.g. the very first partitioning of a
    /// fresh circuit). It overweights pairs whose gates aggregate into few
    /// burst communications; once a program has been aggregated, prefer the
    /// communication-weighted graph (`autocomm::comm_weighted_graph`),
    /// which counts burst blocks instead of gates.
    ///
    /// ```
    /// use dqc_circuit::{Circuit, Gate, QubitId};
    /// use dqc_partition::InteractionGraph;
    /// let q = |i| QubitId::new(i);
    /// let mut c = Circuit::new(3);
    /// c.push(Gate::cx(q(0), q(1))).unwrap();
    /// c.push(Gate::cx(q(0), q(1))).unwrap();
    /// c.push(Gate::ccx(q(0), q(1), q(2))).unwrap();
    /// let g = InteractionGraph::from_circuit(&c);
    /// assert_eq!(g.weight(q(0), q(1)), 3);
    /// assert_eq!(g.weight(q(1), q(2)), 1);
    /// ```
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut g = InteractionGraph::new(circuit.num_qubits());
        for gate in circuit.gates() {
            g.count_gate(gate);
        }
        g
    }

    /// The graph of `circuit` after unrolling into the CX + U3 basis —
    /// equal to `from_circuit(&unroll_circuit(circuit)?)` — built gate by
    /// gate without materializing the unrolled circuit.
    ///
    /// CX, single-qubit and non-unitary gates count as they stand (they
    /// unroll to themselves or to single-qubit gates); every other gate
    /// counts through its [`unroll_gate_each`] expansion, which needs no
    /// buffer. `unroll_circuit` is the in-order concatenation of those
    /// expansions, so the weights are the same by construction, and so is
    /// the first error.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InsufficientAncillas`] for the first multi-controlled
    /// gate with no free qubit to borrow, exactly as `unroll_circuit`.
    ///
    /// ```
    /// use dqc_circuit::{unroll_circuit, Circuit, Gate, QubitId};
    /// use dqc_partition::InteractionGraph;
    /// let q = |i| QubitId::new(i);
    /// let mut c = Circuit::new(3);
    /// c.push(Gate::cx(q(0), q(1))).unwrap();
    /// c.push(Gate::ccx(q(0), q(1), q(2))).unwrap();
    /// let g = InteractionGraph::from_circuit_unrolled(&c).unwrap();
    /// assert_eq!(g, InteractionGraph::from_circuit(&unroll_circuit(&c).unwrap()));
    /// assert_eq!(g.weight(q(0), q(1)), 3);
    /// ```
    pub fn from_circuit_unrolled(circuit: &Circuit) -> Result<Self, CircuitError> {
        let mut g = InteractionGraph::new(circuit.num_qubits());
        for gate in circuit.gates() {
            if gate.kind() == GateKind::Cx || gate.num_qubits() < 2 || !gate.kind().is_unitary() {
                g.count_gate(gate);
            } else {
                unroll_gate_each(gate, circuit.num_qubits(), |part| g.count_gate(&part))?;
            }
        }
        Ok(g)
    }

    /// The [`InteractionGraph::from_circuit`] rule for one gate: a unitary
    /// multi-qubit gate adds one unit of weight to each pair of its
    /// operands.
    fn count_gate(&mut self, gate: &Gate) {
        if !gate.kind().is_unitary() || gate.num_qubits() < 2 {
            return;
        }
        let qs = gate.qubits();
        for i in 0..qs.len() {
            for j in i + 1..qs.len() {
                self.add_weight(qs[i], qs[j], 1);
            }
        }
    }

    /// Number of qubits (vertices).
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of positive-weight edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Weight of the edge `{a, b}` (0 when absent or `a == b`).
    ///
    /// # Panics
    ///
    /// Panics when a vertex is out of range.
    pub fn weight(&self, a: QubitId, b: QubitId) -> u64 {
        let (i, j) = order(a.index(), b.index());
        assert!(j < self.num_qubits, "qubit {j} out of range (graph has {})", self.num_qubits);
        if i == j {
            return 0;
        }
        self.edges.get(&pack(i, j)).copied().unwrap_or(0)
    }

    /// Adds `w` to the edge `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics when a vertex is out of range or `a == b`.
    pub fn add_weight(&mut self, a: QubitId, b: QubitId, w: u64) {
        assert_ne!(a, b, "self-loops are not meaningful");
        let (i, j) = order(a.index(), b.index());
        assert!(j < self.num_qubits, "qubit {j} out of range (graph has {})", self.num_qubits);
        if w == 0 {
            // Entries stay strictly positive so map equality is edge-set
            // equality and `edges()` needs no filtering.
            return;
        }
        *self.edges.entry(pack(i, j)).or_insert(0) += w;
        self.index = OnceLock::new();
        self.version = fresh_version();
    }

    /// The content stamp: equal stamps imply identical edge content (the
    /// converse does not hold — rebuilding the same graph yields a fresh
    /// stamp). O(1) cache-validity check for the OEE warm start.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// The CSR neighbor index, built on first use after a mutation.
    fn csr(&self) -> &CsrIndex {
        self.index.get_or_init(|| {
            let n = self.num_qubits;
            let mut edge_list: Vec<(u32, u32, u64)> =
                self.edges.iter().map(|(&key, &w)| ((key >> 32) as u32, key as u32, w)).collect();
            edge_list.sort_unstable_by_key(|&(i, j, _)| (i, j));
            let mut starts = vec![0usize; n + 1];
            for &(i, j, _) in &edge_list {
                starts[i as usize + 1] += 1;
                starts[j as usize + 1] += 1;
            }
            for q in 0..n {
                starts[q + 1] += starts[q];
            }
            let mut cursor = starts.clone();
            let mut cols = vec![0u32; edge_list.len() * 2];
            let mut weights = vec![0u64; edge_list.len() * 2];
            let mut total = 0u64;
            // Two passes keep every CSR row ascending: row q's neighbors
            // are its `< q` half (edges (i, q), appended first from the
            // (j, i)-sorted list ⇒ ascending i per row) followed by its
            // `> q` half (edges (q, j), appended from the (i, j)-sorted
            // list ⇒ ascending j per row).
            let mut by_j = edge_list.clone();
            by_j.sort_unstable_by_key(|&(i, j, _)| (j, i));
            for &(i, j, w) in &by_j {
                // Row j gains neighbor i (< j), ascending in i.
                let slot = cursor[j as usize];
                cols[slot] = i;
                weights[slot] = w;
                cursor[j as usize] += 1;
            }
            for &(i, j, w) in &edge_list {
                // Row i gains neighbor j (> i), ascending in j — all after
                // the `< i` half appended above.
                let slot = cursor[i as usize];
                cols[slot] = j;
                weights[slot] = w;
                cursor[i as usize] += 1;
                total += w;
            }
            CsrIndex { starts, cols, weights, edge_list, total }
        })
    }

    /// Iterates over `(neighbor, weight)` for every positive-weight edge at
    /// `q`, in ascending neighbor order. O(degree) via the CSR index.
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    pub fn neighbors(&self, q: QubitId) -> impl Iterator<Item = (QubitId, u64)> + '_ {
        let csr = self.csr();
        let lo = csr.starts[q.index()];
        let hi = csr.starts[q.index() + 1];
        csr.cols[lo..hi]
            .iter()
            .zip(csr.weights[lo..hi].iter())
            .map(|(&c, &w)| (QubitId::new(c as usize), w))
    }

    /// The raw CSR neighbor row of `q` — `(columns, weights)` slices in
    /// ascending column order — for hot loops that walk a row in lockstep
    /// with another ascending sweep.
    pub(crate) fn neighbor_row(&self, q: QubitId) -> (&[u32], &[u64]) {
        let csr = self.csr();
        let lo = csr.starts[q.index()];
        let hi = csr.starts[q.index() + 1];
        (&csr.cols[lo..hi], &csr.weights[lo..hi])
    }

    /// Degree of `q`: the number of distinct positive-weight neighbors.
    pub fn degree(&self, q: QubitId) -> usize {
        let csr = self.csr();
        csr.starts[q.index() + 1] - csr.starts[q.index()]
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> u64 {
        self.csr().total
    }

    /// Sum of weights of edges whose endpoints live on different nodes —
    /// the quantity OEE minimizes; equal to the number of remote multi-qubit
    /// gates when the graph came from a circuit.
    pub fn cut_weight(&self, partition: &Partition) -> u64 {
        let mut cut = 0;
        for &(i, j, w) in &self.csr().edge_list {
            if partition.node_of(QubitId::new(i as usize))
                != partition.node_of(QubitId::new(j as usize))
            {
                cut += w;
            }
        }
        cut
    }

    /// The hop-weighted generalization of [`InteractionGraph::cut_weight`]:
    /// `Σ w(a, b) × distance(node_map[block(a)], node_map[block(b)])` — the
    /// EPR traffic the hardware charges when partition block `i` lands on
    /// physical node `node_map[i]`. With the identity map and
    /// [`crate::UniformDistance`] this is exactly `cut_weight`.
    ///
    /// # Panics
    ///
    /// Panics when `node_map` does not cover every partition block.
    pub fn placed_cut_weight(
        &self,
        partition: &Partition,
        node_map: &[NodeId],
        dist: &impl NodeDistance,
    ) -> u64 {
        assert!(node_map.len() >= partition.num_nodes(), "node map must cover every block");
        let mut cut = 0;
        for &(i, j, w) in &self.csr().edge_list {
            let a = partition.node_of(QubitId::new(i as usize));
            let b = partition.node_of(QubitId::new(j as usize));
            if a != b {
                cut += w * dist.node_distance(node_map[a.index()], node_map[b.index()]);
            }
        }
        cut
    }

    /// The block-level traffic matrix under `partition`:
    /// `traffic[i][j] = Σ w(a, b)` over edges with `a` in block `i` and `b`
    /// in block `j` (symmetric, zero diagonal). This is the input the
    /// node-placement stage ([`crate::place_blocks`]) optimizes over.
    pub fn block_traffic(&self, partition: &Partition) -> Vec<Vec<u64>> {
        let k = partition.num_nodes();
        let mut traffic = vec![vec![0u64; k]; k];
        for (a, b, w) in self.edges() {
            let na = partition.node_of(a).index();
            let nb = partition.node_of(b).index();
            if na != nb {
                traffic[na][nb] += w;
                traffic[nb][na] += w;
            }
        }
        traffic
    }

    /// Iterates over `(a, b, weight)` for every positive-weight edge, in
    /// ascending `(a, b)` order.
    pub fn edges(&self) -> impl Iterator<Item = (QubitId, QubitId, u64)> + '_ {
        self.csr()
            .edge_list
            .iter()
            .map(|&(i, j, w)| (QubitId::new(i as usize), QubitId::new(j as usize), w))
    }

    /// Total weight between `q` and all qubits of each node, as a dense
    /// per-node vector (scratch structure for the OEE inner loop).
    /// O(degree) via the CSR index.
    pub fn node_weights(&self, q: QubitId, partition: &Partition) -> Vec<u64> {
        let mut out = vec![0; partition.num_nodes()];
        for (other, w) in self.neighbors(q) {
            out[partition.node_of(other).index()] += w;
        }
        out
    }
}

fn order(a: usize, b: usize) -> (usize, usize) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn weights_are_symmetric() {
        let mut g = InteractionGraph::new(3);
        g.add_weight(q(0), q(2), 5);
        assert_eq!(g.weight(q(0), q(2)), 5);
        assert_eq!(g.weight(q(2), q(0)), 5);
        assert_eq!(g.weight(q(0), q(1)), 0);
        assert_eq!(g.weight(q(1), q(1)), 0);
    }

    #[test]
    fn from_circuit_counts_pairs() {
        let mut c = Circuit::new(4);
        c.push(Gate::cx(q(0), q(1))).unwrap();
        c.push(Gate::crz(0.5, q(0), q(1))).unwrap();
        c.push(Gate::h(q(2))).unwrap();
        let g = InteractionGraph::from_circuit(&c);
        assert_eq!(g.weight(q(0), q(1)), 2);
        assert_eq!(g.total_weight(), 2);
    }

    #[test]
    fn cut_weight_counts_cross_node_edges() {
        let mut g = InteractionGraph::new(4);
        g.add_weight(q(0), q(1), 3); // same node under block(4,2)
        g.add_weight(q(1), q(2), 7); // cross
        let p = Partition::block(4, 2).unwrap();
        assert_eq!(g.cut_weight(&p), 7);
    }

    #[test]
    fn edges_iterator_lists_positive_edges() {
        let mut g = InteractionGraph::new(3);
        g.add_weight(q(0), q(2), 2);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(q(0), q(2), 2)]);
    }

    #[test]
    fn edges_iterate_in_ascending_pair_order() {
        let mut g = InteractionGraph::new(5);
        // Inserted out of order; iteration must still be ascending (a, b).
        g.add_weight(q(3), q(4), 1);
        g.add_weight(q(0), q(4), 2);
        g.add_weight(q(2), q(1), 3);
        g.add_weight(q(0), q(1), 4);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(q(0), q(1), 4), (q(0), q(4), 2), (q(1), q(2), 3), (q(3), q(4), 1)]);
    }

    #[test]
    fn neighbors_are_ascending_and_symmetric() {
        let mut g = InteractionGraph::new(6);
        g.add_weight(q(2), q(5), 7);
        g.add_weight(q(2), q(0), 3);
        g.add_weight(q(2), q(4), 1);
        g.add_weight(q(1), q(3), 9);
        let n2: Vec<_> = g.neighbors(q(2)).collect();
        assert_eq!(n2, vec![(q(0), 3), (q(4), 1), (q(5), 7)]);
        let n5: Vec<_> = g.neighbors(q(5)).collect();
        assert_eq!(n5, vec![(q(2), 7)]);
        assert_eq!(g.degree(q(2)), 3);
        assert_eq!(g.degree(q(3)), 1);
        assert_eq!(g.degree(q(0)), 1);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn mutation_invalidates_the_neighbor_index() {
        let mut g = InteractionGraph::new(3);
        g.add_weight(q(0), q(1), 1);
        assert_eq!(g.neighbors(q(0)).count(), 1); // forces the CSR build
        g.add_weight(q(0), q(2), 2);
        let n0: Vec<_> = g.neighbors(q(0)).collect();
        assert_eq!(n0, vec![(q(1), 1), (q(2), 2)]);
        assert_eq!(g.total_weight(), 3);
    }

    #[test]
    fn zero_weight_add_is_a_no_op() {
        let mut g = InteractionGraph::new(3);
        g.add_weight(q(0), q(1), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g, InteractionGraph::new(3), "no phantom zero-weight edge");
    }

    #[test]
    fn equality_ignores_the_lazy_index() {
        let mut a = InteractionGraph::new(4);
        a.add_weight(q(0), q(1), 2);
        let mut b = InteractionGraph::new(4);
        b.add_weight(q(1), q(0), 2);
        assert_eq!(a.neighbors(q(0)).count(), 1); // a has a built index
        assert_eq!(a, b, "index state must not affect equality");
    }

    #[test]
    fn node_weights_accumulate_per_node() {
        let mut g = InteractionGraph::new(4);
        g.add_weight(q(0), q(1), 1);
        g.add_weight(q(0), q(2), 2);
        g.add_weight(q(0), q(3), 3);
        let p = Partition::block(4, 2).unwrap();
        assert_eq!(g.node_weights(q(0), &p), vec![1, 5]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        InteractionGraph::new(2).add_weight(q(1), q(1), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_weight_rejected() {
        InteractionGraph::new(2).weight(q(0), q(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_add_rejected() {
        InteractionGraph::new(2).add_weight(q(0), q(5), 1);
    }

    #[test]
    fn placed_cut_weight_reduces_to_cut_weight_under_uniform_identity() {
        use crate::UniformDistance;
        let mut g = InteractionGraph::new(6);
        g.add_weight(q(0), q(3), 4);
        g.add_weight(q(2), q(5), 2);
        g.add_weight(q(0), q(1), 9); // same block: never cut
        let p = Partition::block(6, 3).unwrap();
        let identity: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        assert_eq!(g.placed_cut_weight(&p, &identity, &UniformDistance), g.cut_weight(&p));
    }

    #[test]
    fn placed_cut_weight_charges_hops() {
        use dqc_hardware::NetworkTopology;
        let mut g = InteractionGraph::new(6);
        g.add_weight(q(0), q(4), 3); // block 0 ↔ block 2
        let p = Partition::block(6, 3).unwrap();
        let chain = NetworkTopology::linear(3).unwrap();
        let identity: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        assert_eq!(g.placed_cut_weight(&p, &identity, &chain), 6, "3 comms × 2 hops");
        // Swapping blocks 1 and 2 makes the pair adjacent.
        let swapped = vec![NodeId::new(0), NodeId::new(2), NodeId::new(1)];
        assert_eq!(g.placed_cut_weight(&p, &swapped, &chain), 3);
    }

    #[test]
    fn block_traffic_is_symmetric_with_zero_diagonal() {
        let mut g = InteractionGraph::new(6);
        g.add_weight(q(0), q(2), 5);
        g.add_weight(q(1), q(4), 2);
        g.add_weight(q(0), q(1), 7); // intra-block: not traffic
        let p = Partition::block(6, 3).unwrap();
        let t = g.block_traffic(&p);
        assert_eq!(t[0][1], 5);
        assert_eq!(t[1][0], 5);
        assert_eq!(t[0][2], 2);
        assert_eq!(t[0][0], 0);
        let cut: u64 =
            (0..3).flat_map(|i| (i + 1..3).map(move |j| (i, j))).map(|(i, j)| t[i][j]).sum();
        assert_eq!(cut, g.cut_weight(&p), "traffic totals the cut");
    }

    /// The reference the streaming constructor must equal: unroll the
    /// whole circuit, then count it.
    fn via_unrolled(c: &Circuit) -> Result<InteractionGraph, CircuitError> {
        dqc_circuit::unroll_circuit(c).map(|u| InteractionGraph::from_circuit(&u))
    }

    fn assert_streams_like_unrolled(c: &Circuit, label: &str) {
        let got = InteractionGraph::from_circuit_unrolled(c);
        let expected = via_unrolled(c);
        if let (Ok(g), Ok(e)) = (&got, &expected) {
            assert_eq!(g.num_qubits(), e.num_qubits(), "{label}");
            assert_eq!(g.edges().collect::<Vec<_>>(), e.edges().collect::<Vec<_>>(), "{label}");
        }
        assert_eq!(got, expected, "{label}");
    }

    #[test]
    fn streamed_graph_matches_unrolled_on_every_table2_generator() {
        for config in dqc_workloads::smoke_suite() {
            let c = dqc_workloads::generate(&config);
            let g = InteractionGraph::from_circuit_unrolled(&c).unwrap();
            assert!(g.total_weight() > 0, "{}", config.label());
            assert_streams_like_unrolled(&c, &config.label());
        }
    }

    #[test]
    fn ancilla_starved_mcx_fails_like_unroll_circuit() {
        // Four controls and the target fill the register: no qubit to
        // borrow. The CX before it must not mask the error.
        let mut c = Circuit::new(5);
        c.push(Gate::cx(q(0), q(1))).unwrap();
        c.push(Gate::mcx(&[q(0), q(1), q(2), q(3)], q(4))).unwrap();
        let err = InteractionGraph::from_circuit_unrolled(&c).unwrap_err();
        assert_eq!(Err(err.clone()), via_unrolled(&c));
        assert!(matches!(err, CircuitError::InsufficientAncillas { .. }), "{err}");
        // One spare qubit is enough.
        let mut c = Circuit::new(6);
        c.push(Gate::mcx(&[q(0), q(1), q(2), q(3)], q(4))).unwrap();
        assert_streams_like_unrolled(&c, "mcx with one free ancilla");
    }

    /// `count` distinct qubits of `0..n`, drawn from `bits` (a partial
    /// Fisher–Yates shuffle).
    fn distinct(n: usize, count: usize, mut bits: u64) -> Vec<QubitId> {
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..count {
            let j = i + (bits % (n - i) as u64) as usize;
            bits = bits.rotate_right(7).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            pool.swap(i, j);
        }
        pool[..count].iter().map(|&i| q(i)).collect()
    }

    /// One gate of kind `pick` over an `n`-qubit, `n`-cbit register.
    fn random_gate(n: usize, pick: u8, bits: u64) -> Gate {
        let theta = (bits % 628) as f64 / 100.0;
        let c = dqc_circuit::CBitId::new((bits >> 32) as usize % n);
        match pick {
            0 => {
                let p = distinct(n, 2, bits);
                Gate::cx(p[0], p[1])
            }
            1 => {
                let p = distinct(n, 2, bits);
                Gate::cz(p[0], p[1])
            }
            2 => {
                let p = distinct(n, 2, bits);
                Gate::cp(theta, p[0], p[1])
            }
            3 => {
                let p = distinct(n, 2, bits);
                Gate::crz(theta, p[0], p[1])
            }
            4 => {
                let p = distinct(n, 2, bits);
                Gate::rzz(theta, p[0], p[1])
            }
            5 => {
                let p = distinct(n, 2, bits);
                Gate::swap(p[0], p[1])
            }
            6 => {
                let p = distinct(n, 3, bits);
                Gate::ccx(p[0], p[1], p[2])
            }
            7 => {
                // 1..n-1 controls: a full register leaves no free ancilla.
                let controls = 1 + (bits >> 40) as usize % (n - 1);
                let p = distinct(n, controls + 1, bits);
                Gate::mcx(&p[..controls], p[controls])
            }
            8 => Gate::barrier(&distinct(n, 1 + (bits >> 40) as usize % n, bits)),
            9 => Gate::measure(distinct(n, 1, bits)[0], c),
            10 => {
                let p = distinct(n, 2, bits);
                Gate::cx(p[0], p[1]).with_condition(c)
            }
            11 => Gate::rz(theta, distinct(n, 1, bits)[0]).with_condition(c),
            _ => Gate::h(distinct(n, 1, bits)[0]),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random circuits mixing every non-basis kind the unroller
        /// rewrites with barriers, measurements and conditioned gates: the
        /// streamed graph equals the unrolled circuit's, and an
        /// ancilla-starved `Mcx` yields the same first error.
        #[test]
        fn streamed_graph_matches_unrolled_on_random_circuits(
            n in 3usize..8,
            raw in proptest::collection::vec((0u8..13, 0u64..u64::MAX), 0..40),
        ) {
            let mut c = Circuit::with_cbits(n, n);
            for &(pick, bits) in &raw {
                c.push(random_gate(n, pick, bits)).unwrap();
            }
            let got = InteractionGraph::from_circuit_unrolled(&c);
            prop_assert_eq!(got, via_unrolled(&c));
        }
    }
}

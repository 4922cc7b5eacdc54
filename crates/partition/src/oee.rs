//! Overall Extreme Exchange (OEE) partitioning.
//!
//! # Scaling
//!
//! The exchange loop is gain-cached: every candidate pair's positive gain
//! is held in an upper-triangular table (at most `n(n−1)/2 × 8` bytes:
//! 16.8 MB at 2048 qubits, 67 MB at 4096) whose rows track their own best
//! entry, so the next exchange is the maximum over row bests. After an
//! exchange of `(a, b)` only pairs touching `a`, `b`, or one of their
//! neighbors can change gain, so the loop delta-updates that affected set
//! (FM-style) instead of rescanning all O(n²) pairs per applied exchange.
//! Per-node member lists, kept sorted across swaps, let a pure neighbor's
//! sweep visit only the nodes whose gain shift is non-zero.
//!
//! The historical full rescan, O(n²·k) per exchange, lives on in this
//! file's test module as the reference the gain-cached loop must match
//! exchange for exchange. The OEE golden tests pin the loop's output at
//! 1024–4096 qubits.
//!
//! The cold first-round scan maps the rows of the candidate space through
//! [`dqc_circuit::par_map`], which fans row chunks across worker threads
//! from `PAR_THRESHOLD` rows and merges per-row results in input order, so
//! the winner is the one a row-major scan finds. The 4096-qubit row of the
//! OEE golden tests pins the threaded scan.

use std::sync::Once;

use dqc_circuit::{par_map, CircuitError, NodeId, Partition, QubitId};

use crate::gain_table::GainTable;
use crate::{InteractionGraph, NodeDistance, UniformDistance};

/// Tuning knobs for the OEE loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OeeOptions {
    /// Upper bound on applied exchanges (safety valve; the loop normally
    /// terminates on its own when no improving swap exists). When the valve
    /// trips, the returned [`OeeStats::saturated`] flag is set and a
    /// one-time process warning is printed.
    pub max_exchanges: usize,
}

impl Default for OeeOptions {
    fn default() -> Self {
        OeeOptions { max_exchanges: 100_000 }
    }
}

/// Work counters from one refinement run — an execution trace, not part of
/// the optimization result (a warm-started run returns the same partition
/// as a cold one while reporting different counter values).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OeeStats {
    /// Exchanges actually applied.
    pub exchanges: usize,
    /// Candidate gains computed (cold scans, rescans, and delta updates).
    pub scanned: u64,
    /// Candidate gains reused from the cache instead of recomputed — the
    /// work the gain cache saved relative to a full rescan. `scanned +
    /// cache_hits` is the full rescan's count: every cross-node pair, once
    /// for the first pick and once after each applied exchange.
    pub cache_hits: u64,
    /// True when the loop stopped at [`OeeOptions::max_exchanges`] while an
    /// improving exchange still existed — the result is under-refined.
    pub saturated: bool,
}

impl OeeStats {
    /// Accumulates `other` into `self` (counters add, saturation ORs).
    pub fn merge(&mut self, other: &OeeStats) {
        self.exchanges += other.exchanges;
        self.scanned += other.scanned;
        self.cache_hits += other.cache_hits;
        self.saturated |= other.saturated;
    }
}

/// Reusable warm-start state for [`oee_refine_cached`]: the per-qubit node
/// weights and the positive-gain table from the end of the previous
/// refinement. When the next call presents the same graph, assignment, and
/// block→node distances, the cold O(n²) scan is skipped entirely — the
/// refinement loop resumes exactly where it left off (trivially so when the
/// previous run terminated with no improving exchange left).
///
/// Only perfbench's replayed placement driver (`perfbench/src/trace.rs`)
/// uses it; `autocomm`'s `compile_placed` refines cold every round, since
/// the warm start never hit on its workloads.
#[derive(Debug, Default)]
pub struct OeeCache {
    valid: bool,
    graph_version: u64,
    assignment: Vec<NodeId>,
    dmat: Vec<i64>,
    k: usize,
    node_w: Vec<i64>,
    mdist: Vec<i64>,
    gains: GainTable,
}

impl OeeCache {
    /// An empty (cold) cache.
    pub fn new() -> Self {
        OeeCache::default()
    }

    /// True when the cached state matches `(graph, partition, dmat)` and
    /// the refinement can resume without a cold scan.
    fn matches(&self, graph: &InteractionGraph, partition: &Partition, dmat: &[i64]) -> bool {
        self.valid
            && self.graph_version == graph.version()
            && self.k == partition.num_nodes()
            && self.dmat == dmat
            && self.assignment.as_slice() == partition.assignment()
    }
}

/// Partitions the graph over `num_nodes` nodes: balanced block assignment
/// refined by [`oee_refine`].
///
/// # Determinism
///
/// The result is fully deterministic across runs and platforms: the
/// exchange loop scans candidate pairs in ascending `(a, b)` qubit order
/// and only a *strictly larger* gain displaces the running best, so equal
/// gains always resolve to the lexicographically-first exchange. The
/// gain-cached mode preserves this exactly — each row of its gain table
/// keeps its highest gain at the smallest partner `b`, and the pick takes
/// the highest row best at the smallest row `a`, rescanning any row whose
/// best was lowered before it could be passed over, so the pick is the
/// highest gain and, among equal gains, the smallest `(a, b)` pair — and
/// the parallel cold scan merges per-row results in ascending row order.
/// Placement baselines recorded from this partitioner are reproducible bit
/// for bit.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidPartition`] for impossible node counts.
pub fn oee_partition(
    graph: &InteractionGraph,
    num_nodes: usize,
) -> Result<Partition, CircuitError> {
    let initial = Partition::block(graph.num_qubits(), num_nodes)?;
    Ok(oee_refine(graph, initial, OeeOptions::default()))
}

/// Refines `partition` by repeatedly applying the cross-node qubit exchange
/// with the largest positive cut reduction (“extreme exchange”), until no
/// improving exchange exists.
///
/// Exchanges preserve per-node loads exactly, so the output is balanced iff
/// the input was. The returned partition's cut weight is never larger than
/// the input's (asserted in debug builds and property-tested). Tie-breaks
/// are deterministic — see [`oee_partition`].
pub fn oee_refine(
    graph: &InteractionGraph,
    partition: Partition,
    options: OeeOptions,
) -> Partition {
    // The uniform metric with the identity block→node map reproduces the
    // historical unweighted objective exactly (same gains, same scan order,
    // same tie-breaks), so this delegation is bit-identical to the
    // pre-placement OEE.
    let identity: Vec<NodeId> = (0..partition.num_nodes()).map(NodeId::new).collect();
    oee_refine_on(graph, partition, &identity, &UniformDistance, options)
}

/// The hop-distance-weighted generalization of [`oee_refine`]: minimizes
/// [`InteractionGraph::placed_cut_weight`] — `Σ w × distance(π(block(a)),
/// π(block(b)))` — for a fixed block→node map `node_map` and a
/// [`NodeDistance`] metric (routed hop counts when backed by a
/// `NetworkTopology`).
///
/// With [`UniformDistance`] and the identity map this is exactly the
/// historical unweighted OEE. The same determinism guarantee applies:
/// candidates scan in ascending `(a, b)` order and only strict gain
/// improvements displace the running best.
///
/// # Panics
///
/// Panics when `node_map` does not cover every partition block.
pub fn oee_refine_on(
    graph: &InteractionGraph,
    partition: Partition,
    node_map: &[NodeId],
    dist: &impl NodeDistance,
    options: OeeOptions,
) -> Partition {
    refine_impl(graph, partition, node_map, dist, options, None).0
}

/// [`oee_refine_on`] plus the [`OeeStats`] work counters.
pub fn oee_refine_on_stats(
    graph: &InteractionGraph,
    partition: Partition,
    node_map: &[NodeId],
    dist: &impl NodeDistance,
    options: OeeOptions,
) -> (Partition, OeeStats) {
    refine_impl(graph, partition, node_map, dist, options, None)
}

/// [`oee_refine_on_stats`] with a warm-start cache: when `cache` still
/// matches `(graph, partition, node_map, dist)` — a driver re-refining an
/// unchanged partition under an unchanged map — the cold candidate scan is
/// skipped and every skipped gain counts as a cache hit. The refined
/// partition is always identical to the uncached call; only the work
/// counters differ. Kept for perfbench's replayed placement driver only
/// (see [`OeeCache`]).
pub fn oee_refine_cached(
    graph: &InteractionGraph,
    partition: Partition,
    node_map: &[NodeId],
    dist: &impl NodeDistance,
    options: OeeOptions,
    cache: &mut OeeCache,
) -> (Partition, OeeStats) {
    refine_impl(graph, partition, node_map, dist, options, Some(cache))
}

/// Walks a qubit's ascending CSR neighbor row in lockstep with an ascending
/// sweep of partner indices, so each `weight(x, y)` is an O(1) amortized
/// pointer advance instead of a hash probe per candidate pair.
struct WeightWalker<'a> {
    cols: &'a [u32],
    weights: &'a [u64],
    idx: usize,
}

impl<'a> WeightWalker<'a> {
    fn new(graph: &'a InteractionGraph, q: QubitId) -> Self {
        let (cols, weights) = graph.neighbor_row(q);
        WeightWalker { cols, weights, idx: 0 }
    }

    /// The weight of the edge to `y`, or 0. `y` must be strictly increasing
    /// across calls on the same walker.
    #[inline]
    fn weight_to(&mut self, y: u32) -> i64 {
        while self.idx < self.cols.len() && self.cols[self.idx] < y {
            self.idx += 1;
        }
        if self.idx < self.cols.len() && self.cols[self.idx] == y {
            let w = self.weights[self.idx] as i64;
            self.idx += 1;
            return w;
        }
        0
    }
}

/// Block-to-block distances under the map, flattened (k is small).
fn build_dmat(node_map: &[NodeId], dist: &impl NodeDistance, k: usize) -> Vec<i64> {
    let mut dmat = vec![0i64; k * k];
    for a in 0..k {
        for b in 0..k {
            dmat[a * k + b] = dist.node_distance(node_map[a], node_map[b]) as i64;
        }
    }
    dmat
}

/// `node_w[q*k + node]` = total edge weight between `q` and the qubits of
/// `node`. Built in O(edges) from the CSR edge list.
fn build_node_w(graph: &InteractionGraph, partition: &Partition, k: usize) -> Vec<i64> {
    let mut node_w = vec![0i64; graph.num_qubits() * k];
    for (a, b, w) in graph.edges() {
        node_w[a.index() * k + partition.node_of(b).index()] += w as i64;
        node_w[b.index() * k + partition.node_of(a).index()] += w as i64;
    }
    node_w
}

/// Swaps `(a, b)` in the partition and delta-updates the node-weight rows:
/// every neighbor of `a` sees a move `na→nb`, every neighbor of `b` sees
/// `nb→na`. O(degree(a) + degree(b)).
fn apply_exchange(
    graph: &InteractionGraph,
    partition: &mut Partition,
    node_w: &mut [i64],
    k: usize,
    a: u32,
    b: u32,
) {
    let qa = QubitId::new(a as usize);
    let qb = QubitId::new(b as usize);
    let na = partition.node_of(qa).index();
    let nb = partition.node_of(qb).index();
    partition.swap_qubits(qa, qb);
    for (u, w) in graph.neighbors(qa) {
        let row = u.index() * k;
        node_w[row + na] -= w as i64;
        node_w[row + nb] += w as i64;
    }
    for (u, w) in graph.neighbors(qb) {
        let row = u.index() * k;
        node_w[row + nb] -= w as i64;
        node_w[row + na] += w as i64;
    }
}

/// `mdist[q*k + B]` = `Σ_C node_w[q][C] · d(B, C)` — the distance-weighted
/// neighbor mass `q` would see from node `B`. Exchanging `a` (block `A`)
/// with `b` (block `B`) lowers the weighted cut by
///
/// ```text
/// gain(a, b) = mdist[a][A] − mdist[a][B] + mdist[b][B] − mdist[b][A]
///            − 2·w_ab·d(A, B)
/// ```
///
/// where the last term removes the double-counted `(a, b)` edge, whose own
/// contribution the swap leaves unchanged. Exact i64 arithmetic: four table
/// loads per gain.
fn build_mdist(node_w: &[i64], dmat: &[i64], k: usize) -> Vec<i64> {
    let n = node_w.len() / k.max(1);
    let mut mdist = vec![0i64; node_w.len()];
    for q in 0..n {
        let row = &node_w[q * k..(q + 1) * k];
        let out = &mut mdist[q * k..(q + 1) * k];
        for (b, slot) in out.iter_mut().enumerate() {
            let d = &dmat[b * k..(b + 1) * k];
            *slot = row.iter().zip(d).map(|(&w, &dist)| w * dist).sum();
        }
    }
    mdist
}

/// The gain of exchanging `lo` (node `nlo`) with `hi` (node `nhi`) read
/// from the [`build_mdist`] table.
#[inline]
#[allow(clippy::too_many_arguments)]
fn mdist_gain(
    mdist: &[i64],
    dmat: &[i64],
    k: usize,
    lo: usize,
    hi: usize,
    nlo: usize,
    nhi: usize,
    w: i64,
) -> i64 {
    let ml = &mdist[lo * k..(lo + 1) * k];
    let mh = &mdist[hi * k..(hi + 1) * k];
    ml[nlo] - ml[nhi] + mh[nhi] - mh[nlo] - 2 * w * dmat[nlo * k + nhi]
}

/// [`apply_exchange`] plus the matching `mdist` delta: a neighbor whose
/// node-weight row moved mass `na→nb` sees `mdist[u][B] += w·(d(B,nb) −
/// d(B,na))` for every B. O((degree(a) + degree(b))·k).
#[allow(clippy::too_many_arguments)]
fn apply_exchange_mdist(
    graph: &InteractionGraph,
    partition: &mut Partition,
    node_w: &mut [i64],
    mdist: &mut [i64],
    dmat: &[i64],
    k: usize,
    a: u32,
    b: u32,
) {
    let qa = QubitId::new(a as usize);
    let qb = QubitId::new(b as usize);
    let na = partition.node_of(qa).index();
    let nb = partition.node_of(qb).index();
    // d(B, nb) − d(B, na) per B, hoisted out of the neighbor loops.
    let delta: Vec<i64> = (0..k).map(|bb| dmat[bb * k + nb] - dmat[bb * k + na]).collect();
    for (u, w) in graph.neighbors(qa) {
        let row = &mut mdist[u.index() * k..(u.index() + 1) * k];
        for (slot, &d) in row.iter_mut().zip(&delta) {
            *slot += w as i64 * d;
        }
    }
    for (u, w) in graph.neighbors(qb) {
        let row = &mut mdist[u.index() * k..(u.index() + 1) * k];
        for (slot, &d) in row.iter_mut().zip(&delta) {
            *slot -= w as i64 * d;
        }
    }
    apply_exchange(graph, partition, node_w, k, a, b);
}

/// Number of cross-node candidate pairs under the current node sizes
/// (invariant under exchanges, which preserve per-node loads).
fn cross_pair_count(partition: &Partition) -> u64 {
    let n = partition.num_qubits() as u64;
    let mut sizes = vec![0u64; partition.num_nodes()];
    for &node in partition.assignment() {
        sizes[node.index()] += 1;
    }
    n * (n - 1) / 2 - sizes.iter().map(|&s| s * (s - 1) / 2).sum::<u64>()
}

/// One-time process warning when an exchange loop hits its safety valve.
fn warn_saturated(what: &str, cap: usize) {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        eprintln!(
            "warning: {what} stopped at its exchange safety valve \
             (max_exchanges = {cap}) with improving exchanges left; the \
             result is under-refined — raise the cap or check the \
             `saturated` work stat"
        );
    });
}

fn refine_impl(
    graph: &InteractionGraph,
    mut partition: Partition,
    node_map: &[NodeId],
    dist: &impl NodeDistance,
    options: OeeOptions,
    cache: Option<&mut OeeCache>,
) -> (Partition, OeeStats) {
    let n = graph.num_qubits();
    let mut stats = OeeStats::default();
    if n == 0 || partition.num_nodes() < 2 {
        return (partition, stats);
    }
    debug_assert_eq!(partition.num_qubits(), n, "partition must cover the graph");
    let k = partition.num_nodes();
    assert!(node_map.len() >= k, "node map must cover every block");

    let dmat = build_dmat(node_map, dist, k);
    let initial_cut = graph.placed_cut_weight(&partition, node_map, dist);

    refine_gain_cached(graph, &mut partition, &dmat, k, options, &mut stats, cache);

    if stats.saturated {
        warn_saturated("OEE refinement", options.max_exchanges);
    }
    debug_assert!(
        graph.placed_cut_weight(&partition, node_map, dist) <= initial_cut,
        "OEE must never increase the (weighted) cut"
    );
    (partition, stats)
}

/// The gain-cached fast path: one cold scan fills the gain table; each
/// applied exchange then delta-updates only the pairs whose gain can have
/// changed — those touching the swapped qubits or one of their neighbors.
#[allow(clippy::too_many_arguments)]
fn refine_gain_cached(
    graph: &InteractionGraph,
    partition: &mut Partition,
    dmat: &[i64],
    k: usize,
    options: OeeOptions,
    stats: &mut OeeStats,
    cache: Option<&mut OeeCache>,
) {
    let n = graph.num_qubits();
    let cross_pairs = cross_pair_count(partition);

    let mut cache = cache;
    let warm_state = cache.as_deref_mut().and_then(|c| {
        c.matches(graph, partition, dmat).then(|| {
            (
                std::mem::take(&mut c.node_w),
                std::mem::take(&mut c.mdist),
                std::mem::take(&mut c.gains),
            )
        })
    });
    let (mut node_w, mut mdist, mut gains) = if let Some(state) = warm_state {
        // Every candidate gain was reused instead of re-derived.
        stats.cache_hits += cross_pairs;
        state
    } else {
        let node_w = build_node_w(graph, partition, k);
        let mdist = build_mdist(&node_w, dmat, k);
        // A stale cache still lends its table, whose chunk storage is
        // already faulted in.
        let mut gains =
            cache.as_deref_mut().map(|c| std::mem::take(&mut c.gains)).unwrap_or_default();
        gains.clear(n);
        let assignment = partition.assignment();
        // Row `a` of the upper-triangular candidate space covers pairs
        // `(a, b)` for `b > a`; `par_map` returns rows in ascending order.
        let rows: Vec<u32> = (0..n as u32).collect();
        let per_row = par_map(&rows, |&row| {
            let a = row as usize;
            let na = assignment[a].index();
            let mut walker = WeightWalker::new(graph, QubitId::new(a));
            let mut positives: Vec<(u32, i64)> = Vec::new();
            let mut scanned = 0u64;
            for (b, node) in assignment.iter().enumerate().skip(a + 1) {
                let w_ab = walker.weight_to(b as u32);
                let nb = node.index();
                if na == nb {
                    continue;
                }
                let gain = mdist_gain(&mdist, dmat, k, a, b, na, nb, w_ab);
                scanned += 1;
                if gain > 0 {
                    positives.push((b as u32, gain));
                }
            }
            (positives, scanned)
        });
        let (positives, scanned): (Vec<_>, Vec<u64>) = per_row.into_iter().unzip();
        stats.scanned += scanned.iter().sum::<u64>();
        gains.load(&positives);
        (node_w, mdist, gains)
    };

    // Ascending member list per node, kept in step with every exchange so
    // the pure-neighbor sweep below visits only the nodes it must.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (q, node) in partition.assignment().iter().enumerate() {
        members[node.index()].push(q as u32);
    }

    // Per-exchange scratch (reset after each exchange): affected-set
    // membership marks, the net edge weight of each qubit toward the
    // swapped pair (`cx[u] = w(u, a) − w(u, b)`), and the per-node gain
    // shift table.
    let mut in_affected = vec![false; n];
    let mut cx = vec![0i64; n];
    let mut shift = vec![0i64; k];

    while let Some((a, b)) = gains.best() {
        if stats.exchanges == options.max_exchanges {
            stats.saturated = true;
            break;
        }
        let qa = QubitId::new(a as usize);
        let qb = QubitId::new(b as usize);
        // Pre-swap homes of the exchanged pair, and the per-node distance
        // delta their neighbors' mdist rows move by.
        let na = partition.node_of(qa).index();
        let nb = partition.node_of(qb).index();
        let delta: Vec<i64> = (0..k).map(|bb| dmat[bb * k + nb] - dmat[bb * k + na]).collect();
        apply_exchange_mdist(graph, partition, &mut node_w, &mut mdist, dmat, k, a, b);
        move_member(&mut members[na], a, b);
        move_member(&mut members[nb], b, a);
        stats.exchanges += 1;

        // Gains can only have changed for pairs with an endpoint in
        // S = {a, b} ∪ N(a) ∪ N(b): the swap changes node_of for a and b
        // and the node-weight rows of their neighbors; every other pair's
        // gain inputs are untouched.
        let mut affected: Vec<u32> = Vec::with_capacity(2 + graph.degree(qa) + graph.degree(qb));
        affected.push(a);
        affected.push(b);
        for (u, w) in graph.neighbors(qa) {
            affected.push(u.index() as u32);
            cx[u.index()] += w as i64;
        }
        for (u, w) in graph.neighbors(qb) {
            affected.push(u.index() as u32);
            cx[u.index()] -= w as i64;
        }
        affected.sort_unstable();
        affected.dedup();
        for &x in &affected {
            in_affected[x as usize] = true;
        }

        let assignment = partition.assignment();
        let mut recomputed = 0u64;

        // Pass 1: pairs inside the affected set — both endpoints' gain
        // inputs moved, so recompute fully, once per pair from the smaller
        // endpoint (`affected` is sorted, so a per-x walker sees ascending
        // partners).
        for (i, &x) in affected.iter().enumerate() {
            let xi = x as usize;
            let nx = assignment[xi].index();
            let mx = &mdist[xi * k..(xi + 1) * k];
            let mx_nx = mx[nx];
            let dx = &dmat[nx * k..(nx + 1) * k];
            let mut walker = WeightWalker::new(graph, QubitId::new(xi));
            for &y in &affected[i + 1..] {
                let w = walker.weight_to(y);
                let yi = y as usize;
                let ny = assignment[yi].index();
                if nx == ny {
                    gains.set(x, y, 0);
                    continue;
                }
                // The endpoint-symmetric [`mdist_gain`] sum (NodeDistance
                // guarantees d(A, B) = d(B, A)), so no lo/hi reorder here
                // or below.
                let my = &mdist[yi * k..(yi + 1) * k];
                recomputed += 1;
                gains.set(x, y, mx_nx - mx[ny] + my[ny] - my[nx] - 2 * w * dx[ny]);
            }
        }

        // Pass 2: pairs (x, y) with x affected, y outside the set. For the
        // swapped qubits themselves the home node changed — recompute the
        // whole row. For a pure neighbor `x`, only its mdist row moved, by
        // exactly `cx[x]·delta[B]` per node B, so the gain of (x, y)
        // shifts by the per-node constant `cx[x]·(delta[nx] − delta[ny])`:
        // cached candidates update by addition, non-candidates can only
        // become positive where the shift is positive, and nodes with a
        // zero shift (most of them under near-uniform metrics) are skipped
        // outright — all bit-identical to a full recompute, since gains
        // are linear in the mdist row.
        for &x in &affected {
            let xi = x as usize;
            let nx = assignment[xi].index();
            let mx = &mdist[xi * k..(xi + 1) * k];
            let mx_nx = mx[nx];
            let dx = &dmat[nx * k..(nx + 1) * k];
            if x == a || x == b {
                let mut walker = WeightWalker::new(graph, QubitId::new(xi));
                for y in 0..n as u32 {
                    let w = walker.weight_to(y);
                    let yi = y as usize;
                    if in_affected[yi] {
                        continue;
                    }
                    let ny = assignment[yi].index();
                    if nx == ny {
                        gains.set(x, y, 0);
                        continue;
                    }
                    let my = &mdist[yi * k..(yi + 1) * k];
                    recomputed += 1;
                    gains.set(x, y, mx_nx - mx[ny] + my[ny] - my[nx] - 2 * w * dx[ny]);
                }
                continue;
            }
            // `shift[nx] = 0` by construction, which is also correct: a
            // same-node pair can never be (or have been) a candidate.
            let c = cx[xi];
            for (bb, s) in shift.iter_mut().enumerate() {
                *s = c * (delta[nx] - delta[bb]);
            }
            for (ny, (&s, node_members)) in shift.iter().zip(&members).enumerate() {
                if s == 0 {
                    continue;
                }
                // Each member list ascends, so one walker per node.
                let mut walker = WeightWalker::new(graph, QubitId::new(xi));
                for &y in node_members {
                    let yi = y as usize;
                    if in_affected[yi] {
                        continue;
                    }
                    recomputed += 1;
                    if !gains.shift(x, y, s) && s > 0 {
                        // Previously non-positive; only a positive shift
                        // can push it across zero.
                        let w = walker.weight_to(y);
                        let my = &mdist[yi * k..(yi + 1) * k];
                        gains.set(x, y, mx_nx - mx[ny] + my[ny] - my[nx] - 2 * w * dx[ny]);
                    }
                }
            }
        }
        stats.scanned += recomputed;
        // Every cross pair outside the affected sweep kept its cached gain.
        stats.cache_hits += cross_pairs.saturating_sub(recomputed);
        for &x in &affected {
            in_affected[x as usize] = false;
            cx[x as usize] = 0;
        }
    }

    if let Some(cache) = cache {
        cache.valid = true;
        cache.graph_version = graph.version();
        cache.assignment = partition.assignment().to_vec();
        cache.dmat = dmat.to_vec();
        cache.k = k;
        cache.node_w = node_w;
        cache.mdist = mdist;
        cache.gains = gains;
    }
}

/// Replaces `leaving` with `arriving` in an ascending member list, keeping
/// it sorted.
fn move_member(members: &mut Vec<u32>, leaving: u32, arriving: u32) {
    let at = members.binary_search(&leaving).expect("exchanged qubit is a member of its node");
    members.remove(at);
    let at = members.binary_search(&arriving).unwrap_err();
    members.insert(at, arriving);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_circuit::{unroll_circuit, Circuit, Gate};
    use dqc_hardware::NetworkTopology;
    use dqc_workloads as wl;
    use proptest::prelude::*;

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    /// The gain of exchanging `a` (block `na`) with `b` (block `nb`): the
    /// weighted cut decreases by `gain` when they swap. Summing over blocks C:
    ///
    /// ```text
    /// gain = Σ_C node_w[a][C]·(d(A,C) − d(B,C))
    ///      + Σ_C node_w[b][C]·(d(B,C) − d(A,C))
    ///      − 2·w_ab·d(A,B)
    /// ```
    ///
    /// (the correction removes the double-counted `(a, b)` edge, whose own
    /// contribution is unchanged by the swap). Under the uniform metric this
    /// reduces to the classic `node_w[a][B] − node_w[a][A] + node_w[b][A] −
    /// node_w[b][B] − 2·w_ab`. Exact i64 arithmetic — identical on every rail.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn pair_gain(
        node_w: &[i64],
        dmat: &[i64],
        k: usize,
        a: usize,
        b: usize,
        na: usize,
        nb: usize,
        w_ab: i64,
    ) -> i64 {
        let mut gain: i64 = -2 * w_ab * dmat[na * k + nb];
        let ra = &node_w[a * k..(a + 1) * k];
        let rb = &node_w[b * k..(b + 1) * k];
        let da = &dmat[na * k..(na + 1) * k];
        let db = &dmat[nb * k..(nb + 1) * k];
        for c in 0..k {
            let delta = da[c] - db[c];
            if delta != 0 {
                gain += (ra[c] - rb[c]) * delta;
            }
        }
        gain
    }

    /// The historical reference rail: recompute every cross-node candidate gain
    /// after each applied exchange, keeping the strictly-greater / first-
    /// lexicographic winner.
    fn refine_full_rescan(
        graph: &InteractionGraph,
        partition: &mut Partition,
        dmat: &[i64],
        k: usize,
        options: OeeOptions,
        stats: &mut OeeStats,
    ) {
        let n = graph.num_qubits();
        let mut node_w = build_node_w(graph, partition, k);
        loop {
            // Per-row best: within a row, only a strictly larger gain displaces
            // the running best (ascending b ⇒ first-lexicographic); merging
            // rows in ascending order with the same strict rule reproduces the
            // historical row-major scan winner exactly.
            let assignment = partition.assignment();
            let rows: Vec<u32> = (0..n as u32).collect();
            let per_row = par_map(&rows, |&row| {
                let a = row as usize;
                let na = assignment[a].index();
                let mut walker = WeightWalker::new(graph, QubitId::new(a));
                let mut best: Option<(i64, u32)> = None;
                let mut scanned = 0u64;
                for (b, node) in assignment.iter().enumerate().skip(a + 1) {
                    let w_ab = walker.weight_to(b as u32);
                    let nb = node.index();
                    if na == nb {
                        continue;
                    }
                    let gain = pair_gain(&node_w, dmat, k, a, b, na, nb, w_ab);
                    scanned += 1;
                    if gain > best.map_or(0, |(g, _)| g) {
                        best = Some((gain, b as u32));
                    }
                }
                (best, scanned)
            });
            let mut best_gain = 0i64;
            let mut best_pair: Option<(u32, u32)> = None;
            for (a, (row_best, scanned)) in per_row.into_iter().enumerate() {
                stats.scanned += scanned;
                if let Some((gain, b)) = row_best {
                    if gain > best_gain {
                        best_gain = gain;
                        best_pair = Some((a as u32, b));
                    }
                }
            }
            let Some((a, b)) = best_pair else { break };
            if stats.exchanges == options.max_exchanges {
                stats.saturated = true;
                break;
            }
            apply_exchange(graph, partition, &mut node_w, k, a, b);
            stats.exchanges += 1;
        }
    }

    /// [`oee_refine_on_stats`] on the full-rescan reference loop.
    fn refine_reference(
        graph: &InteractionGraph,
        mut partition: Partition,
        node_map: &[NodeId],
        dist: &impl NodeDistance,
        options: OeeOptions,
    ) -> (Partition, OeeStats) {
        let mut stats = OeeStats::default();
        if graph.num_qubits() == 0 || partition.num_nodes() < 2 {
            return (partition, stats);
        }
        let k = partition.num_nodes();
        let dmat = build_dmat(node_map, dist, k);
        refine_full_rescan(graph, &mut partition, &dmat, k, options, &mut stats);
        (partition, stats)
    }

    /// Refines one graph on the gain-cached loop and on the reference, and
    /// asserts the same partition, exchange count and saturation flag. The
    /// cached loop's scans plus cache hits must also add up to exactly the
    /// reference's scan count.
    fn assert_matches_reference(
        graph: &InteractionGraph,
        initial: &Partition,
        dist: &impl NodeDistance,
        options: OeeOptions,
        what: &str,
    ) {
        let node_map: Vec<NodeId> = (0..initial.num_nodes()).map(NodeId::new).collect();
        let (expected, expected_stats) =
            refine_reference(graph, initial.clone(), &node_map, dist, options);
        let (actual, actual_stats) =
            oee_refine_on_stats(graph, initial.clone(), &node_map, dist, options);
        assert_eq!(expected, actual, "{what} drifted from the full rescan");
        assert_eq!(expected_stats.exchanges, actual_stats.exchanges, "{what}: exchange count");
        assert_eq!(expected_stats.saturated, actual_stats.saturated, "{what}: saturation flag");
        assert_eq!(
            expected_stats.scanned,
            actual_stats.scanned + actual_stats.cache_hits,
            "{what}: scans plus cache hits must equal the full rescan's scans"
        );
        assert_eq!(expected_stats.cache_hits, 0, "{what}: the reference never caches");
    }

    fn topologies(nodes: usize) -> Vec<NetworkTopology> {
        vec![
            NetworkTopology::all_to_all(nodes),
            NetworkTopology::linear(nodes).unwrap(),
            NetworkTopology::grid(2, nodes / 2).unwrap(),
            NetworkTopology::star(nodes).unwrap(),
            NetworkTopology::ring(nodes).unwrap(),
        ]
    }

    #[test]
    fn finds_zero_cut_for_separable_clusters() {
        // Clusters {0,3} and {1,2}: block partition starts with cut > 0.
        let mut g = InteractionGraph::new(4);
        g.add_weight(q(0), q(3), 10);
        g.add_weight(q(1), q(2), 10);
        let p = oee_partition(&g, 2).unwrap();
        assert_eq!(g.cut_weight(&p), 0);
        assert_eq!(p.imbalance(), 0);
    }

    #[test]
    fn never_increases_cut() {
        let mut c = Circuit::new(8);
        // A ladder: neighbors interact.
        for i in 0..7 {
            c.push(Gate::cx(q(i), q(i + 1))).unwrap();
        }
        let g = InteractionGraph::from_circuit(&c);
        let initial = Partition::round_robin(8, 2).unwrap();
        let before = g.cut_weight(&initial);
        let refined = oee_refine(&g, initial, OeeOptions::default());
        assert!(g.cut_weight(&refined) <= before);
        assert_eq!(refined.imbalance(), 0);
    }

    #[test]
    fn ladder_gets_contiguous_blocks() {
        let mut c = Circuit::new(8);
        for i in 0..7 {
            for _ in 0..3 {
                c.push(Gate::cx(q(i), q(i + 1))).unwrap();
            }
        }
        let g = InteractionGraph::from_circuit(&c);
        // Start from the worst layout.
        let refined = oee_refine(&g, Partition::round_robin(8, 2).unwrap(), OeeOptions::default());
        // Optimal cut for a ladder over two nodes is one edge = 3.
        assert_eq!(g.cut_weight(&refined), 3);
    }

    #[test]
    fn respects_exchange_cap() {
        let mut g = InteractionGraph::new(4);
        g.add_weight(q(0), q(3), 10);
        g.add_weight(q(1), q(2), 10);
        let initial = Partition::block(4, 2).unwrap();
        let before = g.cut_weight(&initial);
        let refined = oee_refine(&g, initial, OeeOptions { max_exchanges: 0 });
        assert_eq!(g.cut_weight(&refined), before);
    }

    #[test]
    fn saturation_is_reported_on_both_rails() {
        let mut g = InteractionGraph::new(4);
        g.add_weight(q(0), q(3), 10);
        g.add_weight(q(1), q(2), 10);
        let identity: Vec<NodeId> = (0..2).map(NodeId::new).collect();
        let initial = Partition::block(4, 2).unwrap();
        let capped = OeeOptions { max_exchanges: 0 };
        for reference in [false, true] {
            let refine = |options| {
                let initial = initial.clone();
                if reference {
                    refine_reference(&g, initial, &identity, &UniformDistance, options)
                } else {
                    oee_refine_on_stats(&g, initial, &identity, &UniformDistance, options)
                }
            };
            let (_, stats) = refine(capped);
            assert!(stats.saturated, "cap 0 with an improving swap left (reference={reference})");
            assert_eq!(stats.exchanges, 0);
            let (_, stats) = refine(OeeOptions::default());
            assert!(!stats.saturated, "natural termination is not saturation");
            assert!(stats.exchanges > 0);
        }
    }

    #[test]
    fn single_node_is_identity() {
        let g = InteractionGraph::new(4);
        let p = oee_partition(&g, 1).unwrap();
        assert_eq!(p.num_nodes(), 1);
        assert_eq!(g.cut_weight(&p), 0);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = InteractionGraph::new(0);
        let p = oee_partition(&g, 1).unwrap();
        assert_eq!(p.num_qubits(), 0);
    }

    #[test]
    fn uniform_graph_keeps_balance() {
        // Complete graph: any balanced partition is optimal; OEE must not churn.
        let mut g = InteractionGraph::new(6);
        for i in 0..6 {
            for j in i + 1..6 {
                g.add_weight(q(i), q(j), 1);
            }
        }
        let p = oee_partition(&g, 3).unwrap();
        assert_eq!(p.imbalance(), 0);
        // K6 over 3 nodes of 2: internal edges = 3, cut = 15 - 3 = 12.
        assert_eq!(g.cut_weight(&p), 12);
    }

    #[test]
    fn tie_breaks_are_deterministic_and_lexicographically_first() {
        // Two disjoint, perfectly symmetric improving exchanges: (0,2)↔ and
        // (1,3)↔ both gain the same. The documented guarantee picks (0, 2)
        // first on every run and platform — on every rail.
        let mut g = InteractionGraph::new(4);
        g.add_weight(q(0), q(3), 5); // wants 0 with 3
        g.add_weight(q(1), q(2), 5); // wants 1 with 2
        let initial = Partition::block(4, 2).unwrap(); // {0,1} | {2,3}
        let identity: Vec<NodeId> = (0..2).map(NodeId::new).collect();
        let options = OeeOptions { max_exchanges: 1 };
        let a = oee_refine(&g, initial.clone(), options);
        let b = oee_refine(&g, initial.clone(), options);
        let (reference, _) = refine_reference(&g, initial, &identity, &UniformDistance, options);
        assert_eq!(a.assignment(), b.assignment(), "identical across runs");
        assert_eq!(a.assignment(), reference.assignment(), "identical to the full rescan");
        // First applied exchange is the lexicographically-first candidate:
        // swapping qubits 0 and 2 (not 1 and 3).
        assert_eq!(a.node_of(q(0)).index(), 1);
        assert_eq!(a.node_of(q(2)).index(), 0);
        assert_eq!(a.node_of(q(1)).index(), 0, "qubit 1 untouched after one exchange");
    }

    #[test]
    fn weighted_refinement_reduces_to_unweighted_under_uniform_identity() {
        for seed in 0..4u64 {
            let (c, _) = dqc_workloads::random_distributed_circuit(9, 3, 50, seed);
            let g = InteractionGraph::from_circuit(&c);
            let initial = Partition::round_robin(9, 3).unwrap();
            let identity: Vec<NodeId> = (0..3).map(NodeId::new).collect();
            let classic = oee_refine(&g, initial.clone(), OeeOptions::default());
            let weighted =
                oee_refine_on(&g, initial, &identity, &UniformDistance, OeeOptions::default());
            assert_eq!(classic.assignment(), weighted.assignment(), "seed {seed}");
        }
    }

    #[test]
    fn gain_cached_matches_full_rescan_exchange_for_exchange() {
        // Same assignment AND same exchange count at every cap value: the
        // two rails must walk the identical exchange sequence.
        for seed in 0..6u64 {
            let (c, _) = dqc_workloads::random_distributed_circuit(12, 3, 80, seed);
            let g = InteractionGraph::from_circuit(&c);
            let initial = Partition::round_robin(12, 3).unwrap();
            for cap in [0, 1, 2, 5, usize::MAX] {
                assert_matches_reference(
                    &g,
                    &initial,
                    &UniformDistance,
                    OeeOptions { max_exchanges: cap },
                    &format!("seed {seed} cap {cap}"),
                );
            }
        }
    }

    #[test]
    fn suite_gain_cached_matches_full_rescan_on_every_topology() {
        let nodes = 4;
        for config in wl::smoke_suite() {
            let circuit = unroll_circuit(&wl::generate(&config)).unwrap();
            let graph = InteractionGraph::from_circuit(&circuit);
            let initial = Partition::round_robin(circuit.num_qubits(), nodes).unwrap();
            for topology in topologies(nodes) {
                // Unbounded and clipped budgets: the cached loop must pick
                // the same exchange as the rescan at every step, not just
                // converge to the same fixed point.
                for max_exchanges in [usize::MAX, 3, 1, 0] {
                    assert_matches_reference(
                        &graph,
                        &initial,
                        &topology,
                        OeeOptions { max_exchanges },
                        &format!("{} on {} (cap {max_exchanges})", config.label(), topology.name()),
                    );
                }
            }
        }
    }

    /// Hub-heavy registers large enough that exchanges lower row bests and
    /// force dirty-row rescans in the gain table: the cached loop must walk
    /// the reference's exact exchange sequence at every budget, under every
    /// standard topology's hop metric and at several node counts.
    #[test]
    fn hub_heavy_gain_cached_matches_full_rescan() {
        let qubits = 512;
        let circuit =
            unroll_circuit(&wl::large_sparse_circuit(qubits, qubits * 8, 0x4B0B)).unwrap();
        let graph = InteractionGraph::from_circuit(&circuit);
        for nodes in [4, 8, 16] {
            let initial = Partition::block(qubits, nodes).unwrap();
            for topology in topologies(nodes) {
                for max_exchanges in [0, 1, 17, usize::MAX] {
                    assert_matches_reference(
                        &graph,
                        &initial,
                        &topology,
                        OeeOptions { max_exchanges },
                        &format!(
                            "{qubits}-qubit hub-heavy, {nodes} nodes on {} (cap {max_exchanges})",
                            topology.name()
                        ),
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random power-law programs: gain-cached == full rescan under the
        /// hop-weighted metric on a sparse machine.
        #[test]
        fn random_gain_cached_matches_full_rescan(seed in 0u64..100) {
            let nodes = 4;
            let circuit = unroll_circuit(&wl::large_sparse_circuit(48, 300, seed)).unwrap();
            let graph = InteractionGraph::from_circuit(&circuit);
            let initial = Partition::block(48, nodes).unwrap();
            let topology = NetworkTopology::linear(nodes).unwrap();
            assert_matches_reference(
                &graph,
                &initial,
                &topology,
                OeeOptions::default(),
                &format!("seed {seed}"),
            );
        }
    }

    #[test]
    fn warm_cache_resumes_without_rescanning() {
        let (c, _) = dqc_workloads::random_distributed_circuit(12, 3, 80, 7);
        let g = InteractionGraph::from_circuit(&c);
        let identity: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let initial = Partition::round_robin(12, 3).unwrap();
        let mut cache = OeeCache::new();
        let (first, first_stats) = oee_refine_cached(
            &g,
            initial.clone(),
            &identity,
            &UniformDistance,
            OeeOptions::default(),
            &mut cache,
        );
        assert!(first_stats.scanned > 0, "cold call scans");
        // Re-refining the refined partition: the cache matches, no
        // improving exchange exists, so zero scans and all hits.
        let (second, second_stats) = oee_refine_cached(
            &g,
            first.clone(),
            &identity,
            &UniformDistance,
            OeeOptions::default(),
            &mut cache,
        );
        assert_eq!(second.assignment(), first.assignment());
        assert_eq!(second_stats.scanned, 0, "warm resume skips the cold scan");
        assert_eq!(second_stats.exchanges, 0);
        assert!(second_stats.cache_hits > 0);
        // And the warm result is identical to an uncached run.
        let uncached =
            oee_refine_on(&g, first.clone(), &identity, &UniformDistance, OeeOptions::default());
        assert_eq!(second.assignment(), uncached.assignment());
    }

    #[test]
    fn stale_cache_is_detected_and_rebuilt() {
        let (c, _) = dqc_workloads::random_distributed_circuit(12, 3, 80, 3);
        let g = InteractionGraph::from_circuit(&c);
        let identity: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let mut cache = OeeCache::new();
        let (refined, _) = oee_refine_cached(
            &g,
            Partition::round_robin(12, 3).unwrap(),
            &identity,
            &UniformDistance,
            OeeOptions::default(),
            &mut cache,
        );
        // A different starting partition invalidates the cached assignment;
        // the result must match the uncached call exactly.
        let other = Partition::block(12, 3).unwrap();
        let (from_stale, stats) = oee_refine_cached(
            &g,
            other.clone(),
            &identity,
            &UniformDistance,
            OeeOptions::default(),
            &mut cache,
        );
        let fresh = oee_refine_on(&g, other, &identity, &UniformDistance, OeeOptions::default());
        assert_eq!(from_stale.assignment(), fresh.assignment());
        assert!(stats.scanned > 0, "stale cache forces a cold scan");
        let _ = refined;
    }

    #[test]
    fn hop_weighted_refinement_helps_on_a_chain() {
        // Qubit 0 (block 0) talks to blocks 1 and 2; qubit 5 (block 2)
        // talks only locally-ish. Under a chain, the weighted objective
        // prefers moving far-talking qubits toward the middle.
        let mut g = InteractionGraph::new(6);
        g.add_weight(q(0), q(4), 6); // block 0 ↔ block 2: 2 hops on a chain
        g.add_weight(q(2), q(4), 1);
        let chain = NetworkTopology::linear(3).unwrap();
        let identity: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let initial = Partition::block(6, 3).unwrap();
        let before = g.placed_cut_weight(&initial, &identity, &chain);
        let refined = oee_refine_on(&g, initial.clone(), &identity, &chain, OeeOptions::default());
        let after = g.placed_cut_weight(&refined, &identity, &chain);
        assert!(after <= before, "weighted OEE must not increase the weighted cut");
        assert!(after < before, "the 2-hop pair should be pulled adjacent ({after} vs {before})");
        // The unweighted cut may differ — the objective really changed.
        assert_eq!(refined.imbalance(), initial.imbalance(), "exchanges preserve balance");
    }
}

//! Placement-scale regression gate: the deterministic, asserting evidence
//! for the placement-stage scaling work (sparse CSR interaction graph,
//! gain-cached exchange loop, incremental placement driver).
//! The deterministic stdout of this binary is diffed by CI against
//! `crates/bench/baselines/placement_scale.json` (recorded under `--quick`,
//! which is also how CI runs it).
//!
//! In-binary rails, asserted on every run:
//!
//! * **Gain-cached exchange loop** — on a 1024-qubit power-law circuit
//!   (256 under `--quick`) the gain-cached OEE refinement's scans plus
//!   cache hits must add up to exactly the full rescan's count,
//!   `(exchanges + 1) × cross pairs`, and it must scan at most a tenth of
//!   that. Both counts are deterministic; the full rescan itself is the
//!   reference in `dqc_partition`'s unit tests, which the loop matches
//!   exchange for exchange;
//! * **4096-qubit refinement** — a full gain-cached refinement of the
//!   4096-qubit graph completes within a generous wall-clock budget;
//! * **Incremental driver** — `compile_placed` (incremental re-assignment,
//!   one schedule) matches the full-recompile reference driver
//!   ([`dqc_bench::full_recompile_placed`]) report-for-report and
//!   metric-for-metric, at 1024 qubits (256 under `--quick`).
//!
//! Timings go to stderr (they vary per machine); stdout carries only
//! deterministic counts, cut weights, and metrics.

use std::time::Instant;

use autocomm::{AutoComm, PlacementConfig};
use dqc_circuit::{unroll_circuit, NodeId, Partition};
use dqc_hardware::{HardwareSpec, NetworkTopology};
use dqc_partition::{oee_refine_on_stats, InteractionGraph, OeeOptions, OeeStats, UniformDistance};
use dqc_workloads::large_sparse_circuit;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Cross-node qubit pairs under `partition`: the candidates one full gain
/// rescan scores. Exchanges preserve node sizes, so the count is fixed for
/// a whole refinement.
fn cross_pairs(partition: &Partition) -> u64 {
    let n = partition.num_qubits() as u64;
    let mut sizes = vec![0u64; partition.num_nodes()];
    for node in partition.assignment() {
        sizes[node.index()] += 1;
    }
    n * (n - 1) / 2 - sizes.iter().map(|&s| s * s.saturating_sub(1) / 2).sum::<u64>()
}

fn sparse_graph(qubits: usize) -> InteractionGraph {
    let circuit = large_sparse_circuit(qubits, qubits * 8, 0x5EED);
    let unrolled = unroll_circuit(&circuit).expect("sparse workload unrolls");
    InteractionGraph::from_circuit(&unrolled)
}

/// Medians three timed refinements under `options`, returning the median
/// milliseconds and the (deterministic) partition + stats.
fn timed_refine(
    graph: &InteractionGraph,
    initial: &Partition,
    node_map: &[NodeId],
    options: OeeOptions,
) -> (f64, Partition, OeeStats) {
    let ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(oee_refine_on_stats(
                graph,
                initial.clone(),
                node_map,
                &UniformDistance,
                options,
            ));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let (p, stats) =
        oee_refine_on_stats(graph, initial.clone(), node_map, &UniformDistance, options);
    (median(ms), p, stats)
}

fn main() {
    let quick = dqc_bench::quick_requested();
    let identity = |k: usize| -> Vec<NodeId> { (0..k).map(NodeId::new).collect() };

    // ── Rail 1: gain-cached loop scans a tenth of a full rescan ────────
    // 8 nodes maximizes cross pairs; --quick shrinks the register.
    let n1 = if quick { 256 } else { 1024 };
    let nodes1 = 8;
    let graph1 = sparse_graph(n1);
    let initial1 = Partition::block(n1, nodes1).expect("divisible register");
    let map1 = identity(nodes1);
    let (cached_ms, cached_p, cached_stats) =
        timed_refine(&graph1, &initial1, &map1, OeeOptions::default());
    // A full rescan scores every cross pair once for the first pick and
    // once after each applied exchange.
    let full_rescan_equivalent = (cached_stats.exchanges as u64 + 1) * cross_pairs(&initial1);
    assert_eq!(
        cached_stats.scanned + cached_stats.cache_hits,
        full_rescan_equivalent,
        "gain-cached scans plus cache hits must equal the full rescan's scans"
    );
    assert!(
        10 * cached_stats.scanned <= full_rescan_equivalent,
        "gain-cached loop scanned {} gains, more than a tenth of the full rescan's \
         {full_rescan_equivalent}",
        cached_stats.scanned
    );
    eprintln!(
        "gain cache ({n1} qubits, {} edges, {} exchanges): {cached_ms:.1} ms, {} gains scanned \
         of a full rescan's {full_rescan_equivalent} ({:.1}x fewer)",
        graph1.num_edges(),
        cached_stats.exchanges,
        cached_stats.scanned,
        full_rescan_equivalent as f64 / cached_stats.scanned as f64
    );

    // ── Rail 2: large-register refinement completes ────────────────────
    let n3 = if quick { 1024 } else { 4096 };
    let graph3 = sparse_graph(n3);
    let initial3 = Partition::block(n3, nodes1).expect("divisible register");
    let t = Instant::now();
    let (refined3, stats3) = oee_refine_on_stats(
        &graph3,
        initial3,
        &identity(nodes1),
        &UniformDistance,
        OeeOptions::default(),
    );
    let big_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!("{n3}-qubit gain-cached refinement: {big_ms:.0} ms, {} exchanges", stats3.exchanges);
    if !quick {
        assert!(big_ms < 60_000.0, "4096-qubit refinement took {big_ms:.0} ms (budget 60 s)");
    }

    // ── Rail 3: incremental driver vs full-recompile reference ─────────
    let n4 = if quick { 256 } else { 1024 };
    let circuit4 = large_sparse_circuit(n4, n4 * 8, 0x5EED);
    let partition4 = {
        let unrolled = unroll_circuit(&circuit4).expect("sparse workload unrolls");
        let graph = InteractionGraph::from_circuit(&unrolled);
        dqc_partition::oee_partition(&graph, 4).expect("4 nodes is valid")
    };
    let hw = HardwareSpec::for_partition(&partition4)
        .with_topology(NetworkTopology::grid(2, 2).expect("2x2 grid is valid"))
        .expect("grid covers the 4 placed nodes");
    let config = PlacementConfig::default();
    let compiler = AutoComm::new();
    let t = Instant::now();
    let (warm_result, warm_report) = compiler
        .compile_placed(&circuit4, &partition4, &hw, &config)
        .expect("sparse workload compiles");
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let (full_result, full_report) =
        dqc_bench::full_recompile_placed(&compiler, &circuit4, &partition4, &hw, &config)
            .expect("sparse workload compiles");
    let full_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(warm_report, full_report, "driver drifted from the full-recompile reference");
    assert_eq!(
        warm_result.metrics, full_result.metrics,
        "driver metrics drifted from the full-recompile reference"
    );
    eprintln!(
        "incremental driver ({n4} qubits, grid 2x2): {warm_ms:.1} ms, full recompile \
         {full_ms:.1} ms, {} accepted round(s)",
        warm_report.iterations
    );

    // Deterministic JSON, diffed against the recorded baseline by CI.
    let w = &warm_report.work;
    println!("{{");
    println!(
        "  \"gain_cached\": {{\"qubits\": {n1}, \"nodes\": {nodes1}, \"edges\": {}, \
         \"exchanges\": {}, \"scanned\": {}, \"full_rescan_equivalent\": \
         {full_rescan_equivalent}, \"initial_cut\": {}, \"final_cut\": {}}},",
        graph1.num_edges(),
        cached_stats.exchanges,
        cached_stats.scanned,
        graph1.cut_weight(&initial1),
        graph1.cut_weight(&cached_p)
    );
    println!(
        "  \"large_refine\": {{\"qubits\": {n3}, \"edges\": {}, \"exchanges\": {}, \
         \"final_cut\": {}}},",
        graph3.num_edges(),
        stats3.exchanges,
        graph3.cut_weight(&refined3)
    );
    println!(
        "  \"warm_driver\": {{\"qubits\": {n4}, \"iterations\": {}, \"epr_cost\": {}, \
         \"oee_exchanges\": {}, \"oee_cache_hits\": {}, \"rounds_skipped\": {}, \
         \"saturated\": {}, \"identical_to_force_full\": true}}",
        warm_report.iterations,
        warm_result.metrics.total_epr_cost,
        w.oee_exchanges,
        w.oee_cache_hits,
        w.rounds_skipped,
        w.saturated
    );
    println!("}}");
    eprintln!(
        "placement scale gate OK: gain cache scanned {} of {full_rescan_equivalent} gains, \
         {n3}-qubit refinement {big_ms:.0} ms",
        cached_stats.scanned
    );
}

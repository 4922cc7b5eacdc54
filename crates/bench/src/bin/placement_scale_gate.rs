//! Placement-scale regression gate: the deterministic, asserting evidence
//! for the placement-stage scaling work (sparse CSR interaction graph,
//! gain-cached exchange loop, warm-started refinement).
//! The deterministic stdout of this binary is diffed by CI against
//! `crates/bench/baselines/placement_scale.json` (recorded under `--quick`,
//! which is also how CI runs it).
//!
//! In-binary rails, asserted on every run:
//!
//! * **Gain-cached exchange loop** — on a 1024-qubit power-law circuit the
//!   default gain-cached OEE refinement must be ≥ 10× faster than the
//!   historical full-rescan reference ([`OeeOptions::full_rescan`]) and
//!   produce a bit-identical assignment with identical exchange counts
//!   (the ratio is relaxed under `--quick`, which shrinks the register;
//!   identity is asserted always);
//! * **4096-qubit refinement** — a full gain-cached refinement of the
//!   4096-qubit graph completes within a generous wall-clock budget;
//! * **Warm-started driver** — the incremental `compile_placed` (warm OEE
//!   cache, round skipping) matches the full-recompile reference driver
//!   ([`dqc_bench::full_recompile_placed`]) report-for-report and
//!   metric-for-metric.
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

    // ── Rail 1: gain-cached loop vs full-rescan reference ──────────────
    // 8 nodes maximizes cross pairs; --quick shrinks the register (the
    // 10x ratio needs the O(n²)-per-exchange rescan cost to dominate).
    let n1 = if quick { 256 } else { 1024 };
    let nodes1 = 8;
    let graph1 = sparse_graph(n1);
    let initial1 = Partition::block(n1, nodes1).expect("divisible register");
    let map1 = identity(nodes1);
    let cached_opts = OeeOptions::default();
    let rescan_opts = OeeOptions { full_rescan: true, ..OeeOptions::default() };
    let (cached_ms, cached_p, cached_stats) = timed_refine(&graph1, &initial1, &map1, cached_opts);
    let (rescan_ms, rescan_p, rescan_stats) = timed_refine(&graph1, &initial1, &map1, rescan_opts);
    assert_eq!(cached_p, rescan_p, "gain-cached refinement drifted from the full-rescan reference");
    assert_eq!(
        cached_stats.exchanges, rescan_stats.exchanges,
        "gain-cached refinement applied a different exchange count"
    );
    let cached_speedup = rescan_ms / cached_ms;
    eprintln!(
        "gain cache ({n1} qubits, {} edges, {} exchanges): full rescan {rescan_ms:.1} ms, \
         gain-cached {cached_ms:.1} ms ({cached_speedup:.2}x)",
        graph1.num_edges(),
        cached_stats.exchanges
    );
    if !quick {
        assert!(
            cached_speedup >= 10.0,
            "gain-cached loop must be >= 10x the full-rescan reference, got {cached_speedup:.2}x"
        );
    }

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

    // ── Rail 3: warm-started driver vs full-recompile reference ────────
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
    assert_eq!(warm_report, full_report, "warm driver drifted from the full-recompile reference");
    assert_eq!(
        warm_result.metrics, full_result.metrics,
        "warm driver metrics drifted from the full-recompile reference"
    );
    eprintln!(
        "warm driver ({n4} qubits, grid 2x2): full recompile {full_ms:.1} ms, incremental \
         {warm_ms:.1} ms ({} round(s) skipped, {} cache hits)",
        warm_report.work.rounds_skipped, warm_report.work.oee_cache_hits
    );

    // Deterministic JSON, diffed against the recorded baseline by CI.
    let w = &warm_report.work;
    println!("{{");
    println!(
        "  \"gain_cached\": {{\"qubits\": {n1}, \"nodes\": {nodes1}, \"edges\": {}, \
         \"exchanges\": {}, \"scanned\": {}, \"initial_cut\": {}, \"final_cut\": {}, \
         \"identical_to_full_rescan\": true}},",
        graph1.num_edges(),
        cached_stats.exchanges,
        rescan_stats.scanned,
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
        "placement scale gate OK: gain cache {cached_speedup:.2}x, {n3}-qubit refinement \
         {big_ms:.0} ms"
    );
}

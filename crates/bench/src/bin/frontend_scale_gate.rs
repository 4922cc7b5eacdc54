//! Front-end scale regression gate: the deterministic, asserting evidence
//! for the flattened front end (chunked parallel QASM parsing, par-fanned
//! unroll, and streaming aggregation that never materializes the conflict
//! DAG). The deterministic stdout of this binary is diffed by CI
//! against `crates/bench/baselines/frontend_scale.json` (recorded from a
//! `--quick` run, which is what the CI job executes).
//!
//! In-binary rails, asserted on every run:
//!
//! * **Streaming aggregation** — on a 100k-gate distributed circuit the
//!   default streaming conflict filter must aggregate ≥ 1.5× faster than
//!   the materialized-DAG reference rail
//!   ([`AggregateOptions::materialized_dag`], whose cost honestly includes
//!   the CSR build it forces) and produce a bit-identical program;
//! * **Bounded working set** — the streaming rail's peak tracked-entry
//!   count must respect its `O(wires)` bound (2 entries per qubit/classical
//!   wire, independent of stream length), and a full [`ConflictScan`] sweep
//!   must respect its `O(wires × window)` ring-slot bound — neither may
//!   scale with the gate count;
//! * **Parse round trip** — 1M gates of generated QASM parse back through
//!   the chunked [`from_qasm`] to the generating circuit (the timing goes
//!   to stderr, next to the fanned [`unroll_circuit`]'s);
//! * **Wide aggregation** — unrolled `qft(128)` over an 8-node block
//!   partition (more than 64 wires, so the walk's wire summaries span
//!   several words) must match the materialized-DAG rail; its block and
//!   item counts and the walk's `visited`/`skipped` counters go to the
//!   baseline.
//!
//! Timings go to stderr (they vary per machine); stdout carries only
//! deterministic structure counts and memory counters.

use std::sync::Arc;
use std::time::Instant;

use autocomm::{aggregate_ir_with_stats, AggregateOptions, CommIr, DAG_WINDOW};
use dqc_circuit::{
    from_qasm, to_qasm, unroll_circuit, Circuit, ConflictScan, Gate, Partition, QubitId,
};
use dqc_workloads::{qft, random_distributed_circuit};

/// A diagonal-heavy distributed circuit (QAOA-like): long runs of mutually
/// commuting `rz`/`rzz` gates fenced by an `h` layer every `fence` gates,
/// over a block partition so most `rzz` interactions are remote. Long
/// commuting runs are exactly where materializing the conflict DAG is
/// expensive (the windowed scan walks the full window per wire before
/// giving up) and where the streaming per-wire filter costs nothing extra —
/// the workload the streaming-vs-materialized ratio is honest on.
fn diagonal_remote(num_qubits: usize, num_gates: usize, fence: usize) -> (Circuit, Partition) {
    let q = |i: usize| QubitId::new(i);
    let mut circuit = Circuit::new(num_qubits);
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut pushed = 0usize;
    while pushed < num_gates {
        if pushed > 0 && pushed.is_multiple_of(fence) {
            for i in 0..num_qubits {
                circuit.push(Gate::h(q(i))).unwrap();
            }
            pushed += num_qubits;
            continue;
        }
        let r = rng();
        let a = (r as usize >> 8) % num_qubits;
        let theta = 0.1 + (r % 628) as f64 / 100.0;
        if r % 4 == 0 {
            let b = (a + 1 + (r as usize >> 32) % (num_qubits - 1)) % num_qubits;
            circuit.push(Gate::rzz(theta, q(a), q(b))).unwrap();
        } else {
            circuit.push(Gate::rz(theta, q(a))).unwrap();
        }
        pushed += 1;
    }
    let partition = Partition::block(num_qubits, 4).expect("4-node block partition");
    (circuit, partition)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn timed<T>(rounds: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let ms: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    (median(ms), f())
}

fn main() {
    let quick = dqc_bench::quick_requested();
    // --quick shrinks every input ~10× (same code paths, CI-smoke speed)
    // and relaxes the ratio rail, which needs 100k-gate aggregations for
    // the filter cost to dominate noise.
    let scale = if quick { 10_000 } else { 100_000 };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // ── Rail 1: streaming vs materialized-DAG aggregation ──────────────
    // The shared workload: a 100k-gate diagonal-heavy circuit over a
    // 4-node block partition — long mutually-commuting runs where the
    // windowed DAG build pays its full window per wire per gate. The IR is
    // built once; each timed round clones it un-forced so the materialized
    // rail honestly pays the CSR build it forces.
    let (circuit, partition) = diagonal_remote(8, scale, scale / 4);
    let base_ir = CommIr::build(&circuit, &partition);
    let streaming_opts = AggregateOptions::default();
    let materialized_opts = AggregateOptions { materialized_dag: true, ..streaming_opts };
    let (streaming_ms, (streaming_prog, streaming_stats)) =
        timed(3, || aggregate_ir_with_stats(Arc::new(base_ir.clone()), streaming_opts));
    let (materialized_ms, (materialized_prog, materialized_stats)) =
        timed(3, || aggregate_ir_with_stats(Arc::new(base_ir.clone()), materialized_opts));
    assert_eq!(
        streaming_prog, materialized_prog,
        "streaming aggregation drifted from the materialized-DAG reference"
    );
    let agg_speedup = materialized_ms / streaming_ms;
    eprintln!(
        "aggregation ({} gates): materialized dag {materialized_ms:.1} ms, streaming \
         {streaming_ms:.1} ms ({agg_speedup:.2}x)",
        circuit.len()
    );
    if !quick {
        assert!(
            agg_speedup >= 1.5,
            "streaming aggregation must be >= 1.5x the materialized-DAG rail, got \
             {agg_speedup:.2}x"
        );
    }

    // ── Rail 2: working sets stay O(wires), not O(gates) ───────────────
    assert!(
        streaming_stats.peak_tracked_entries <= streaming_stats.tracked_entry_bound,
        "streaming filter tracked {} entries, bound {}",
        streaming_stats.peak_tracked_entries,
        streaming_stats.tracked_entry_bound
    );
    assert!(!streaming_stats.used_materialized_dag);
    assert!(materialized_stats.used_materialized_dag);
    assert_eq!(
        materialized_stats.peak_tracked_entries, 0,
        "the materialized rail must not touch the streaming wire maps"
    );
    assert!(
        streaming_stats.tracked_entry_bound < circuit.len(),
        "the tracked-entry bound must be O(wires), far below the gate count"
    );
    // The default compile path must never have forced the CSR arrays…
    let streaming_edges = {
        let ir = Arc::new(base_ir.clone());
        let (_, _) = aggregate_ir_with_stats(Arc::clone(&ir), streaming_opts);
        ir.dag_edges_if_built()
    };
    assert_eq!(streaming_edges, None, "streaming aggregation materialized the conflict DAG");
    // …while a full ConflictScan sweep stays within its ring-slot bound.
    let mut scan = ConflictScan::new(
        base_ir.table(),
        base_ir.stream(),
        circuit.num_qubits(),
        circuit.num_cbits(),
        DAG_WINDOW,
    );
    let mut scanned_edges = 0usize;
    while let Some(set) = scan.advance() {
        scanned_edges += set.len();
    }
    assert!(
        scan.peak_live_slots() <= scan.slot_bound(),
        "conflict scan held {} live slots, bound {}",
        scan.peak_live_slots(),
        scan.slot_bound()
    );
    assert!(
        scan.slot_bound() < circuit.len(),
        "the ring-slot bound must be O(wires x window), far below the gate count"
    );
    // The streamed predecessor sets are exactly the materialized edges.
    let dag_edges = {
        let ir = base_ir.clone();
        ir.dag().edge_count()
    };
    assert_eq!(scanned_edges, dag_edges, "conflict scan drifted from the materialized build");

    // ── Rail 3: chunked parse round trip, fanned unroll ────────────────
    let (parse_circuit, _) = random_distributed_circuit(32, 4, scale * 10, 7);
    let qasm = to_qasm(&parse_circuit);
    let (parse_ms, parsed) = timed(3, || from_qasm(&qasm).expect("generated QASM"));
    assert_eq!(parsed, parse_circuit, "QASM round trip drifted");
    let (unrolled_ms, unrolled) =
        timed(1, || unroll_circuit(&parse_circuit).expect("workload unrolls"));
    eprintln!(
        "parse ({} gates, {} MiB): {parse_ms:.1} ms; unroll ({} gates): {unrolled_ms:.1} ms \
         ({cores} core(s))",
        parse_circuit.len(),
        qasm.len() >> 20,
        unrolled.len()
    );

    // ── Rail 4: aggregation over more than 64 wires ────────────────────
    let wide = unroll_circuit(&qft(128)).expect("qft unrolls");
    let wide_partition = Partition::block(128, 8).expect("8-node block partition");
    let wide_ir = CommIr::build(&wide, &wide_partition);
    let (wide_ms, (wide_prog, wide_stats)) =
        timed(3, || aggregate_ir_with_stats(Arc::new(wide_ir.clone()), streaming_opts));
    let (wide_materialized, _) =
        aggregate_ir_with_stats(Arc::new(wide_ir.clone()), materialized_opts);
    assert_eq!(wide_prog, wide_materialized, "wide aggregation drifted from the DAG rail");
    eprintln!(
        "wide aggregation ({} gates, 128 qubits): {wide_ms:.1} ms, {} visited, {} skipped",
        wide.len(),
        wide_stats.visited,
        wide_stats.skipped
    );

    // Deterministic JSON, diffed against the recorded baseline by CI
    // (which runs this binary under --quick; the baseline records the
    // --quick stdout).
    println!("{{");
    println!(
        "  \"workload\": {{\"gates\": {}, \"qubits\": {}, \"nodes\": 4, \"window\": {DAG_WINDOW}}},",
        circuit.len(),
        circuit.num_qubits()
    );
    println!(
        "  \"aggregation\": {{\"blocks\": {}, \"items\": {}, \"streaming_matches_materialized\": \
         true, \"streaming_leaves_dag_lazy\": true}},",
        streaming_prog.block_count(),
        streaming_prog.items().len()
    );
    println!(
        "  \"wide_aggregation\": {{\"qubits\": 128, \"nodes\": 8, \"gates\": {}, \"blocks\": {}, \
         \"items\": {}, \"visited\": {}, \"skipped\": {}}},",
        wide.len(),
        wide_prog.block_count(),
        wide_prog.items().len(),
        wide_stats.visited,
        wide_stats.skipped
    );
    println!(
        "  \"working_set\": {{\"peak_tracked_entries\": {}, \"tracked_entry_bound\": {}, \
         \"peak_live_ring_slots\": {}, \"ring_slot_bound\": {}, \"materialized_dag_edges\": \
         {}}},",
        streaming_stats.peak_tracked_entries,
        streaming_stats.tracked_entry_bound,
        scan.peak_live_slots(),
        scan.slot_bound(),
        dag_edges
    );
    println!(
        "  \"memory\": {{\"table_arena_bytes\": {}, \"unique_gates\": {}, \"stream_len\": {}}},",
        base_ir.table().arena_bytes(),
        base_ir.table().len(),
        base_ir.stream().len()
    );
    println!("  \"parse\": {{\"gates\": {}, \"round_trips\": true}},", parse_circuit.len());
    println!("  \"fanned_rails\": {{\"unrolled_gates\": {}}}", unrolled.len());
    println!("}}");
    eprintln!(
        "frontend scale gate OK: streaming aggregation {agg_speedup:.2}x, peak tracked {}/{} \
         entries, peak rings {}/{} slots",
        streaming_stats.peak_tracked_entries,
        streaming_stats.tracked_entry_bound,
        scan.peak_live_slots(),
        scan.slot_bound()
    );
}

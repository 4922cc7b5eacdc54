//! Performance regression gate: the deterministic, asserting evidence for
//! the front end, the placement stage, and 100k–1M-gate compiles and
//! schedules. CI diffs this binary's stdout against
//! `crates/bench/baselines/perf_gate.json`; wall-clock timings go to
//! stderr.
//!
//! Every section runs at one fixed size and asserts on every run:
//!
//! * **Service codec** — a 1 MiB escaped-ASCII `compile` request and a
//!   1 MiB two-byte UTF-8 one each decode and re-encode through
//!   [`Json`] within 50 ms, so a quadratic string codec fails the gate.
//! * **Front end** — a 10k-gate diagonal-heavy circuit (long commuting
//!   runs) aggregates with its block and window summaries inside their
//!   `O(wires)` tracked-entry bound; 100k gates of generated QASM parse back through
//!   the chunked [`from_qasm`] to the generating circuit, and unroll
//!   through the fanned [`unroll_circuit`]; unrolled `qft(128)` aggregates
//!   over an 8-node block partition (more than 64 wires, so the walk's
//!   wire summaries span several words). `tests/aggregate_golden.rs` pins
//!   the walk's output.
//! * **Placement** — on a 256-qubit power-law circuit the OEE refinement's
//!   scans plus cache hits add up to exactly the full rescan's count,
//!   `(exchanges + 1) × cross pairs`, and it scans at most a tenth of that
//!   (the full rescan itself is the reference in `dqc_partition`'s unit
//!   tests); a 4096-qubit refinement finishes within 5 s and an
//!   `oee_partition` of a 16,384-qubit register (the register cap) within
//!   10 s; and `compile_placed` matches the full-recompile reference driver
//!   ([`dqc_bench::full_recompile_placed`]) report for report and metric
//!   for metric.
//! * **IR scale** — a 100k-gate compile finishes within 30 s; re-assigning
//!   it after a two-node placement swap (`assign_incremental` + metrics,
//!   what a refinement round costs) is at least 5× cheaper than that
//!   compile and identical to a full re-assign; a 1M-gate compile finishes
//!   within 120 s and its buffered schedule on a sparse machine within
//!   60 s. Beside them the gate records the metrics of a buffered 100k-gate
//!   schedule on a comm-rich 3×3 grid, where multi-hop routes claim relay
//!   slots and link channels out of wide slot vectors.
//!
//! Timings go to stderr (they vary per machine); stdout carries only
//! deterministic counts, cut weights and metrics, one JSON field per line.

use std::sync::Arc;
use std::time::Instant;

use autocomm::{
    aggregate_ir_with_stats, assign_incremental, assign_on, schedule, AggregateOptions, AutoComm,
    BufferPolicy, CommIr, CommMetrics, Placement, PlacementConfig, ScheduleOptions,
};
use dqc_circuit::{from_qasm, to_qasm, unroll_circuit, Circuit, Gate, NodeId, Partition, QubitId};
use dqc_cli::json::Json;
use dqc_hardware::{HardwareSpec, NetworkTopology};
use dqc_partition::{oee_refine_on_stats, InteractionGraph, OeeOptions, UniformDistance};
use dqc_workloads::{large_sparse_circuit, qft, random_distributed_circuit};

/// Runs `f` `rounds` times and returns the median wall time in
/// milliseconds with the last round's (deterministic) result.
fn timed<T>(rounds: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut ms = Vec::with_capacity(rounds);
    let mut last = None;
    for _ in 0..rounds {
        let t = Instant::now();
        let out = f();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    ms.sort_by(f64::total_cmp);
    (ms[rounds / 2], last.expect("at least one round"))
}

/// A diagonal-heavy distributed circuit (QAOA-like): long runs of mutually
/// commuting `rz`/`rzz` gates fenced by an `h` layer every `fence` gates,
/// over a 4-node block partition so most `rzz` interactions are remote.
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

/// Streaming aggregation, the parse round trip and the fanned unroll.
fn frontend() -> Vec<String> {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // The IR is built once; each timed round aggregates a clone of it.
    let (circuit, partition) = diagonal_remote(8, 10_000, 2_500);
    let base_ir = CommIr::build(&circuit, &partition);
    let options = AggregateOptions::default();
    let (streaming_ms, (streaming_prog, stats)) =
        timed(3, || aggregate_ir_with_stats(Arc::new(base_ir.clone()), options));
    eprintln!("aggregation ({} gates): streaming {streaming_ms:.1} ms", circuit.len());
    assert!(
        stats.peak_tracked_entries <= stats.tracked_entry_bound,
        "aggregation summaries tracked {} entries, bound {}",
        stats.peak_tracked_entries,
        stats.tracked_entry_bound
    );
    assert!(
        stats.tracked_entry_bound < circuit.len(),
        "the tracked-entry bound must be O(wires), far below the gate count"
    );

    let (parse_circuit, _) = random_distributed_circuit(32, 4, 100_000, 7);
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

    let wide = unroll_circuit(&qft(128)).expect("qft unrolls");
    let wide_partition = Partition::block(128, 8).expect("8-node block partition");
    let wide_ir = CommIr::build(&wide, &wide_partition);
    let (wide_ms, (wide_prog, wide_stats)) =
        timed(3, || aggregate_ir_with_stats(Arc::new(wide_ir.clone()), options));
    eprintln!(
        "wide aggregation ({} gates, 128 qubits): {wide_ms:.1} ms, {} visited, {} skipped",
        wide.len(),
        wide_stats.visited,
        wide_stats.skipped
    );

    vec![
        format!(
            "\"workload\": {{\"gates\": {}, \"qubits\": {}, \"nodes\": 4}}",
            circuit.len(),
            circuit.num_qubits()
        ),
        format!(
            "\"aggregation\": {{\"blocks\": {}, \"items\": {}}}",
            streaming_prog.block_count(),
            streaming_prog.items().len()
        ),
        format!(
            "\"wide_aggregation\": {{\"qubits\": 128, \"nodes\": 8, \"gates\": {}, \"blocks\": {}, \
             \"items\": {}, \"visited\": {}, \"skipped\": {}}}",
            wide.len(),
            wide_prog.block_count(),
            wide_prog.items().len(),
            wide_stats.visited,
            wide_stats.skipped
        ),
        format!(
            "\"working_set\": {{\"peak_tracked_entries\": {}, \"tracked_entry_bound\": {}}}",
            stats.peak_tracked_entries, stats.tracked_entry_bound
        ),
        format!(
            "\"memory\": {{\"table_arena_bytes\": {}, \"unique_gates\": {}, \"stream_len\": {}}}",
            base_ir.table().arena_bytes(),
            base_ir.table().len(),
            base_ir.stream().len()
        ),
        format!("\"parse\": {{\"gates\": {}, \"round_trips\": true}}", parse_circuit.len()),
        format!("\"fanned_rails\": {{\"unrolled_gates\": {}}}", unrolled.len()),
    ]
}

/// The compile service's JSON codec: a 1 MiB `compile` request whose QASM
/// is escaped ASCII, and one whose QASM is two-byte UTF-8, each decode and
/// re-encode byte-identically within a fixed budget, so a codec that is
/// quadratic in the string length fails here. Asserts only: timings go to
/// stderr and nothing to stdout.
fn codec() {
    const BUDGET_MS: f64 = 50.0;
    const PAYLOAD: usize = 1 << 20;
    let (circuit, _) = random_distributed_circuit(32, 4, 20_000, 3);
    let mut ascii = to_qasm(&circuit).repeat(4);
    ascii.truncate(PAYLOAD);
    for (name, qasm) in [("escaped ASCII", ascii), ("multi-byte", "é".repeat(PAYLOAD / 2))] {
        assert_eq!(qasm.len(), PAYLOAD, "{name} payload size");
        let request = Json::object([("op", Json::string("compile")), ("qasm", Json::string(qasm))]);
        let (encode_ms, text) = timed(3, || request.to_string());
        let (decode_ms, parsed) = timed(3, || Json::parse(&text).expect("rendered request"));
        assert_eq!(parsed, request, "{name} request drifted through the codec");
        eprintln!(
            "codec ({name}, {} KiB line): decode {decode_ms:.2} ms, encode {encode_ms:.2} ms",
            text.len() >> 10
        );
        assert!(
            decode_ms < BUDGET_MS && encode_ms < BUDGET_MS,
            "{name} codec over its {BUDGET_MS} ms budget: decode {decode_ms:.1} ms, \
             encode {encode_ms:.1} ms"
        );
    }
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

/// The OEE exchange loop, two large refinements and the incremental
/// placement driver.
fn placement() -> Vec<String> {
    let nodes = 8;
    let identity: Vec<NodeId> = (0..nodes).map(NodeId::new).collect();
    let refine = |graph: &InteractionGraph, initial: &Partition| {
        oee_refine_on_stats(
            graph,
            initial.clone(),
            &identity,
            &UniformDistance,
            OeeOptions::default(),
        )
    };

    let graph1 = sparse_graph(256);
    let initial1 = Partition::block(256, nodes).expect("divisible register");
    let (cached_ms, (cached_p, cached)) = timed(3, || refine(&graph1, &initial1));
    // A full rescan scores every cross pair once for the first pick and
    // once after each applied exchange.
    let full_rescan_equivalent = (cached.exchanges as u64 + 1) * cross_pairs(&initial1);
    assert_eq!(
        cached.scanned + cached.cache_hits,
        full_rescan_equivalent,
        "OEE scans plus cache hits must equal the full rescan's scans"
    );
    assert!(
        10 * cached.scanned <= full_rescan_equivalent,
        "OEE loop scanned {} gains, more than a tenth of the full rescan's \
         {full_rescan_equivalent}",
        cached.scanned
    );
    eprintln!(
        "OEE (256 qubits, {} edges, {} exchanges): {cached_ms:.1} ms, {} gains scanned \
         of a full rescan's {full_rescan_equivalent} ({:.1}x fewer)",
        graph1.num_edges(),
        cached.exchanges,
        cached.scanned,
        full_rescan_equivalent as f64 / cached.scanned as f64
    );

    let graph3 = sparse_graph(4096);
    let initial3 = Partition::block(4096, nodes).expect("divisible register");
    let (big_ms, (refined3, stats3)) = timed(1, || refine(&graph3, &initial3));
    eprintln!("4096-qubit refinement: {big_ms:.0} ms, {} exchanges", stats3.exchanges);
    assert!(big_ms < 5_000.0, "4096-qubit refinement took {big_ms:.0} ms (budget 5 s)");

    let max_qubits = 16_384;
    let graph_max = sparse_graph(max_qubits);
    let (max_ms, refined_max) =
        timed(1, || dqc_partition::oee_partition(&graph_max, nodes).expect("8 nodes is valid"));
    eprintln!("{max_qubits}-qubit oee_partition: {max_ms:.0} ms");
    assert!(
        max_ms < 10_000.0,
        "{max_qubits}-qubit oee_partition took {max_ms:.0} ms (budget 10 s)"
    );

    let circuit4 = large_sparse_circuit(256, 256 * 8, 0x5EED);
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
    let (warm_ms, (warm_result, warm_report)) = timed(1, || {
        compiler
            .compile_placed(&circuit4, &partition4, &hw, &config)
            .expect("sparse workload compiles")
    });
    let (full_ms, (full_result, full_report)) = timed(1, || {
        dqc_bench::full_recompile_placed(&compiler, &circuit4, &partition4, &hw, &config)
            .expect("sparse workload compiles")
    });
    assert_eq!(warm_report, full_report, "driver drifted from the full-recompile reference");
    assert_eq!(
        warm_result.metrics, full_result.metrics,
        "driver metrics drifted from the full-recompile reference"
    );
    eprintln!(
        "incremental driver (256 qubits, grid 2x2): {warm_ms:.1} ms, full recompile \
         {full_ms:.1} ms, {} accepted round(s)",
        warm_report.iterations
    );

    let w = &warm_report.work;
    vec![
        format!(
            "\"gain_cached\": {{\"qubits\": 256, \"nodes\": {nodes}, \"edges\": {}, \
             \"exchanges\": {}, \"scanned\": {}, \"full_rescan_equivalent\": \
             {full_rescan_equivalent}, \"initial_cut\": {}, \"final_cut\": {}}}",
            graph1.num_edges(),
            cached.exchanges,
            cached.scanned,
            graph1.cut_weight(&initial1),
            graph1.cut_weight(&cached_p)
        ),
        format!(
            "\"large_refine\": {{\"qubits\": 4096, \"edges\": {}, \"exchanges\": {}, \
             \"final_cut\": {}}}",
            graph3.num_edges(),
            stats3.exchanges,
            graph3.cut_weight(&refined3)
        ),
        format!(
            "\"max_register_refine\": {{\"qubits\": {max_qubits}, \"nodes\": {nodes}, \
             \"edges\": {}, \"initial_cut\": {}, \"final_cut\": {}}}",
            graph_max.num_edges(),
            graph_max.cut_weight(&Partition::block(max_qubits, nodes).expect("divisible register")),
            graph_max.cut_weight(&refined_max)
        ),
        format!(
            "\"warm_driver\": {{\"qubits\": 256, \"iterations\": {}, \"epr_cost\": {}, \
             \"oee_exchanges\": {}, \"oee_cache_hits\": {}, \"rounds_skipped\": {}, \
             \"saturated\": {}, \"identical_to_full_recompile\": true}}",
            warm_report.iterations,
            warm_result.metrics.total_epr_cost,
            w.oee_exchanges,
            w.oee_cache_hits,
            w.rounds_skipped,
            w.saturated
        ),
    ]
}

/// The 100k and 1M-gate compiles, the incremental round and the buffered
/// schedules.
fn ir_scale() -> Vec<String> {
    let (circuit, partition) = random_distributed_circuit(64, 8, 100_000, 7);
    let topology = NetworkTopology::ring(8).unwrap();
    let hw = HardwareSpec::for_partition(&partition)
        .with_topology(topology.clone())
        .expect("ring is valid for 8 nodes");
    let (round0_ms, round0) =
        timed(1, || AutoComm::new().compile_on(&circuit, &partition, &hw).expect("100k compile"));
    assert!(round0_ms < 30_000.0, "100k-gate compile took {round0_ms:.0} ms (budget 30 s)");
    // A refinement round that swaps two physical nodes: what the placement
    // driver pays per accepted iteration.
    let mut node_map = round0.placement.node_map().to_vec();
    node_map.swap(1, 5);
    let moved =
        Placement::new(round0.placement.partition().clone(), node_map).expect("valid node map");
    let (round_ms, inc_metrics) = timed(3, || {
        let inc = assign_incremental(&round0.assigned, &round0.placement, &moved, &topology, true);
        CommMetrics::of(&inc)
    });
    // The reuse path must equal a full re-assign.
    let full = assign_on(&round0.aggregated, &moved, &topology);
    assert_eq!(
        inc_metrics,
        CommMetrics::of(&full),
        "incremental re-assign drifted from the full re-assign"
    );
    let round_speedup = round0_ms / round_ms;
    eprintln!(
        "refinement round ({} gates): round 0 {round0_ms:.1} ms, incremental {round_ms:.2} ms \
         ({round_speedup:.1}x)",
        circuit.len()
    );
    assert!(
        round_speedup >= 5.0,
        "an incremental round must be >= 5x cheaper than round 0, got {round_speedup:.1}x"
    );
    drop(round0);

    let (big, big_partition) = random_distributed_circuit(32, 4, 1_000_000, 7);
    let (big_ms, big_result) =
        timed(1, || AutoComm::new().compile(&big, &big_partition).expect("1M compile"));
    eprintln!("{}-gate compile: {big_ms:.0} ms", big.len());
    assert!(big_ms < 120_000.0, "1M-gate compile took {big_ms:.0} ms (budget 120 s)");
    let b = big_result.metrics.clone();
    drop(big_result);

    // A 100k-gate circuit over 9 nodes on a 3×3 grid with a deep
    // comm-qubit budget: multi-hop routes exercise relay swaps and channel
    // claims on wide slot vectors. Deterministic metrics only.
    let buffered = ScheduleOptions::default().with_buffer(BufferPolicy::Prefetch { depth: 4 });
    let (wide, wide_partition) = random_distributed_circuit(72, 9, 100_000, 7);
    let wide_hw = HardwareSpec::for_partition(&wide_partition)
        .with_comm_qubits(128)
        .expect("128 comm qubits is a valid budget")
        .with_topology(NetworkTopology::grid(3, 3).expect("3x3 grid is valid"))
        .expect("grid covers the 9 placed nodes");
    let wide_compiled =
        AutoComm::new().compile_on(&wide, &wide_partition, &wide_hw).expect("100k compile");
    let s = schedule(&wide_compiled.assigned, &wide_compiled.placement, &wide_hw, buffered);
    drop(wide_compiled);

    let big_hw = HardwareSpec::for_partition(&big_partition)
        .with_comm_qubits(8)
        .expect("8 comm qubits is a valid budget")
        .with_topology(NetworkTopology::ring(4).expect("ring of 4 is valid"))
        .expect("ring covers the 4 placed nodes");
    let big_compiled =
        AutoComm::new().compile_on(&big, &big_partition, &big_hw).expect("1M compile");
    let (big_schedule_ms, big_schedule) =
        timed(1, || schedule(&big_compiled.assigned, &big_compiled.placement, &big_hw, buffered));
    eprintln!("{}-gate buffered schedule: {big_schedule_ms:.0} ms", big.len());
    assert!(
        big_schedule_ms < 60_000.0,
        "1M-gate buffered schedule took {big_schedule_ms:.0} ms (budget 60 s)"
    );

    let m = &inc_metrics;
    vec![
        format!(
            "\"incremental\": {{\"gates\": {}, \"total_comms\": {}, \"tp_comms\": {}, \
             \"epr_cost\": {}, \"matches_full_reassign\": true}}",
            circuit.len(),
            m.total_comms,
            m.tp_comms,
            m.total_epr_cost
        ),
        format!(
            "\"one_million\": {{\"gates\": {}, \"total_comms\": {}, \"tp_comms\": {}, \
             \"epr_cost\": {}}}",
            big.len(),
            b.total_comms,
            b.tp_comms,
            b.total_epr_cost
        ),
        format!(
            "\"schedule_workload\": {{\"gates\": {}, \"nodes\": 9, \"comm_qubits\": 128, \
             \"topology\": \"grid3x3\", \"buffer\": \"{}\"}}",
            wide.len(),
            s.buffering.policy.name()
        ),
        format!(
            "\"schedule_buffered\": {{\"makespan\": {:.2}, \"epr_pairs\": {}, \"swaps\": {}, \
             \"fusion_savings\": {}, \"requests\": {}, \"prefetch_hits\": {}, \"fell_back\": {}}}",
            s.makespan,
            s.epr_pairs,
            s.swaps,
            s.fusion_savings,
            s.buffering.requests,
            s.buffering.prefetch_hits,
            s.buffering.fell_back
        ),
        format!(
            "\"schedule_one_million\": {{\"gates\": {}, \"makespan\": {:.2}, \"epr_pairs\": {}, \
             \"swaps\": {}, \"fell_back\": {}}}",
            big.len(),
            big_schedule.makespan,
            big_schedule.epr_pairs,
            big_schedule.swaps,
            big_schedule.buffering.fell_back
        ),
    ]
}

fn main() {
    let t = Instant::now();
    // Cheapest sections first, so a regression there fails fast.
    codec();
    let mut fields = frontend();
    fields.extend(placement());
    fields.extend(ir_scale());
    // Deterministic JSON, diffed against the recorded baseline by CI.
    println!("{{\n  {}\n}}", fields.join(",\n  "));
    eprintln!("perf gate OK in {:.1} s", t.elapsed().as_secs_f64());
}

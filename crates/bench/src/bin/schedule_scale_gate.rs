//! Schedule-scale regression gate: the deterministic, asserting evidence
//! for the schedule-stage scaling work (indexed timeline, buffered
//! schedules at scale). The deterministic stdout of this binary is diffed
//! by CI against `crates/bench/baselines/schedule_scale.json`.
//!
//! In-binary rails, asserted on every run:
//!
//! * **Indexed timeline** — the earliest-free slot/channel indexes must
//!   make a 100k-gate buffered schedule on a comm-rich `grid` machine
//!   ≥ 2× faster than the historical linear-scan lookups
//!   ([`ScheduleOptions::linear_scan_timeline`]), again bit-identically;
//! * **1M-gate completion** — scheduling a 1M-gate buffered program
//!   finishes within a generous wall-clock budget.
//!
//! Timings go to stderr (they vary per machine); stdout carries only
//! deterministic schedule metrics.

use std::time::Instant;

use autocomm::{schedule, AutoComm, BufferPolicy, ScheduleOptions, ScheduleSummary};
use dqc_hardware::{HardwareSpec, NetworkTopology};
use dqc_workloads::random_distributed_circuit;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Medians three timed runs of `schedule` under `options`, returning the
/// median milliseconds and the (deterministic) summary.
fn timed_schedule(
    program: &autocomm::AssignedProgram,
    placement: &autocomm::Placement,
    hw: &HardwareSpec,
    options: ScheduleOptions,
) -> (f64, ScheduleSummary) {
    let ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(schedule(program, placement, hw, options));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    (median(ms), schedule(program, placement, hw, options))
}

fn main() {
    let quick = dqc_bench::quick_requested();
    // --quick shrinks every input ~10× (same code paths, CI-smoke speed)
    // and relaxes the ratio rails, which need 100k-gate schedules for the
    // timeline and rail costs to dominate setup noise.
    let scale = if quick { 10_000 } else { 100_000 };

    // The shared workload: a 100k-gate circuit over 9 nodes on a 3×3 grid
    // with a deep comm-qubit budget — multi-hop routes exercise relay
    // swaps and channel claims, and the wide slot vectors are where the
    // linear scans the indexes replace actually cost something.
    let (circuit, partition) = random_distributed_circuit(72, 9, scale, 7);
    let topology = NetworkTopology::grid(3, 3).expect("3x3 grid is valid");
    let hw = HardwareSpec::for_partition(&partition)
        .with_comm_qubits(128)
        .expect("128 comm qubits is a valid budget")
        .with_topology(topology)
        .expect("grid covers the 9 placed nodes");
    let compiled = AutoComm::new().compile_on(&circuit, &partition, &hw).expect("100k compile");
    let buffered = ScheduleOptions::default().with_buffer(BufferPolicy::Prefetch { depth: 4 });

    // ── Rail 1: indexed timeline vs linear-scan reference ──────────────
    let linear = ScheduleOptions { linear_scan_timeline: true, ..buffered };
    let (indexed_ms, indexed_summary) =
        timed_schedule(&compiled.assigned, &compiled.placement, &hw, buffered);
    let (linear_ms, linear_summary) =
        timed_schedule(&compiled.assigned, &compiled.placement, &hw, linear);
    assert_eq!(
        indexed_summary, linear_summary,
        "indexed timeline schedule drifted from the linear-scan reference"
    );
    let timeline_speedup = linear_ms / indexed_ms;
    eprintln!(
        "timeline ({} gates, 128 comm qubits): linear scan {linear_ms:.1} ms, indexed \
         {indexed_ms:.1} ms ({timeline_speedup:.2}x)",
        circuit.len()
    );
    if !quick {
        assert!(
            timeline_speedup >= 2.0,
            "indexed timeline must be >= 2x the linear-scan reference, got {timeline_speedup:.2}x"
        );
    }

    // ── Rail 2: the 1M-gate buffered schedule completes ────────────────
    let (big, big_partition) = random_distributed_circuit(32, 4, scale * 10, 7);
    let big_hw = HardwareSpec::for_partition(&big_partition)
        .with_comm_qubits(8)
        .expect("8 comm qubits is a valid budget")
        .with_topology(NetworkTopology::ring(4).expect("ring of 4 is valid"))
        .expect("ring covers the 4 placed nodes");
    let big_compiled =
        AutoComm::new().compile_on(&big, &big_partition, &big_hw).expect("1M compile");
    let t = Instant::now();
    let big_summary = schedule(&big_compiled.assigned, &big_compiled.placement, &big_hw, buffered);
    let big_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!("{}-gate buffered schedule: {big_ms:.0} ms", big.len());
    if !quick {
        assert!(big_ms < 60_000.0, "1M-gate buffered schedule took {big_ms:.0} ms (budget 60 s)");
    }

    // Deterministic JSON, diffed against the recorded baseline by CI
    // (full runs only — --quick shrinks the inputs).
    let s = &indexed_summary;
    let b = &big_summary;
    println!("{{");
    println!(
        "  \"workload\": {{\"gates\": {}, \"nodes\": 9, \"comm_qubits\": 128, \"topology\": \
         \"grid3x3\", \"buffer\": \"{}\"}},",
        circuit.len(),
        s.buffering.policy.name()
    );
    println!(
        "  \"buffered\": {{\"makespan\": {:.2}, \"epr_pairs\": {}, \"swaps\": {}, \
         \"fusion_savings\": {}, \"requests\": {}, \"prefetch_hits\": {}, \"fell_back\": {}}},",
        s.makespan,
        s.epr_pairs,
        s.swaps,
        s.fusion_savings,
        s.buffering.requests,
        s.buffering.prefetch_hits,
        s.buffering.fell_back
    );
    println!("  \"identity\": {{\"indexed_matches_linear_scan\": true}},");
    println!(
        "  \"one_million\": {{\"gates\": {}, \"makespan\": {:.2}, \"epr_pairs\": {}, \"swaps\": \
         {}, \"fell_back\": {}}}",
        big.len(),
        b.makespan,
        b.epr_pairs,
        b.swaps,
        b.buffering.fell_back
    );
    println!("}}");
    eprintln!(
        "schedule scale gate OK: indexed timeline {timeline_speedup:.2}x, 1M buffered schedule \
         {big_ms:.0} ms"
    );
}

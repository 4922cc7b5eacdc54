//! IR-scale regression gate: the deterministic, asserting evidence for the
//! 100k–1M-gate compile and schedule work (arena gate tables, windowed DAG
//! build, parallel assign/lower, incremental recompilation, indexed
//! timeline, buffered schedules). The recorded measurements live in
//! `crates/bench/baselines/ir_1m_baseline.json`; the deterministic stdout
//! of this binary is diffed by CI against
//! `crates/bench/baselines/ir_scale_gate.json`.
//!
//! In-binary rails, asserted on every run:
//!
//! * **Windowed DAG build** — on a 100k-gate diagonal-heavy circuit
//!   (commuting runs thousands of gates long) the bounded-window
//!   commutation scan is ≥ 10× faster than the unbounded scan it replaced;
//! * **Incremental recompilation** — re-assigning a 100k-gate program
//!   after a two-node placement swap (`assign_incremental` + metrics,
//!   what a refinement round costs) is ≥ 5× cheaper than the full
//!   round-0 pipeline, and bit-identical to a full re-assign;
//! * **1M-gate completion** — a full 1M-gate compile finishes within a
//!   generous wall-clock budget (the absolute-threshold rail), and so does
//!   a buffered schedule of the same program on a sparse machine.
//!
//! Beside them the gate records the deterministic metrics of a buffered
//! 100k-gate schedule on a comm-rich 3×3 grid, where multi-hop routes
//! claim relay slots and link channels out of wide slot vectors.
//!
//! Timings go to stderr (they vary per machine); stdout carries only
//! deterministic structure counts and metrics.

use std::time::Instant;

use autocomm::{
    assign_incremental, assign_on, schedule, AutoComm, BufferPolicy, CommMetrics, Placement,
    ScheduleOptions,
};
use dqc_circuit::{Circuit, DependencyDag, Gate, QubitId};
use dqc_hardware::{HardwareSpec, NetworkTopology};
use dqc_workloads::random_distributed_circuit;

/// The bounded commutation window the pipeline builds DAGs with
/// (`autocomm::DAG_WINDOW`).
const WINDOW: usize = autocomm::DAG_WINDOW;

/// A 100k-gate diagonal-heavy circuit (QAOA-like): long runs of mutually
/// commuting `rz`/`rzz` gates, fenced by an `h` layer every `fence` gates
/// so the unbounded commutation scan stays polynomially bounded (runs of
/// ~3k gates per wire) while still dwarfing the 64-gate window.
fn diagonal_heavy(num_qubits: usize, num_gates: usize, fence: usize) -> Circuit {
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
    circuit
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    let quick = dqc_bench::quick_requested();
    // --quick shrinks every input ~10× (same code paths, CI-smoke speed)
    // and relaxes the ratio rails, which need long commuting runs and big
    // compiles to be meaningful.
    let scale = if quick { 10_000 } else { 100_000 };

    // ── Rail 1: windowed vs unbounded commutation-aware DAG build ──────
    let dag_circuit = diagonal_heavy(8, scale, scale / 4);
    let windowed_ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(DependencyDag::commutation_aware_windowed(&dag_circuit, WINDOW));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let t = Instant::now();
    let naive_dag = DependencyDag::commutation_aware(&dag_circuit);
    let naive_ms = t.elapsed().as_secs_f64() * 1e3;
    let windowed_dag = DependencyDag::commutation_aware_windowed(&dag_circuit, WINDOW);
    let dag_speedup = naive_ms / median(windowed_ms.clone());
    eprintln!(
        "dag build ({} gates): naive {naive_ms:.1} ms, windowed {:.1} ms ({dag_speedup:.1}x)",
        dag_circuit.len(),
        median(windowed_ms)
    );
    if !quick {
        assert!(
            dag_speedup >= 10.0,
            "windowed DAG build must be >= 10x the unbounded scan, got {dag_speedup:.1}x"
        );
    }

    // ── Rail 2: incremental refinement round vs round-0 full compile ───
    let (circuit, partition) = random_distributed_circuit(64, 8, scale, 7);
    let topology = NetworkTopology::ring(8).unwrap();
    let hw = HardwareSpec::for_partition(&partition)
        .with_topology(topology.clone())
        .expect("ring is valid for 8 nodes");
    let t = Instant::now();
    let round0 = AutoComm::new().compile_on(&circuit, &partition, &hw).expect("100k compile");
    let round0_ms = t.elapsed().as_secs_f64() * 1e3;
    // A refinement round that swaps two physical nodes: what the placement
    // driver pays per accepted iteration.
    let mut node_map = round0.placement.node_map().to_vec();
    node_map.swap(1, 5);
    let moved =
        Placement::new(round0.placement.partition().clone(), node_map).expect("valid node map");
    let round_ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let inc =
                assign_incremental(&round0.assigned, &round0.placement, &moved, &topology, true);
            std::hint::black_box(CommMetrics::of(&inc));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let incremental =
        assign_incremental(&round0.assigned, &round0.placement, &moved, &topology, true);
    let inc_metrics = CommMetrics::of(&incremental);
    // Bit-identity rail: the reuse path must equal a full re-assign.
    let full = assign_on(&round0.aggregated, &moved, &topology);
    assert_eq!(
        inc_metrics,
        CommMetrics::of(&full),
        "incremental re-assign drifted from the full re-assign"
    );
    let round_speedup = round0_ms / median(round_ms.clone());
    eprintln!(
        "refinement round ({} gates): round 0 {round0_ms:.1} ms, incremental {:.2} ms \
         ({round_speedup:.1}x)",
        circuit.len(),
        median(round_ms.clone())
    );
    if !quick {
        assert!(
            round_speedup >= 5.0,
            "an incremental round must be >= 5x cheaper than round 0, got {round_speedup:.1}x"
        );
        assert!(round0_ms < 30_000.0, "100k-gate compile took {round0_ms:.0} ms (budget 30 s)");
    }

    // ── Rail 3: the 1M-gate compile completes ──────────────────────────
    let (big, big_partition) = random_distributed_circuit(32, 4, scale * 10, 7);
    let t = Instant::now();
    let big_result = AutoComm::new().compile(&big, &big_partition).expect("1M compile");
    let big_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!("{}-gate compile: {big_ms:.0} ms", big.len());
    if !quick {
        assert!(big_ms < 120_000.0, "1M-gate compile took {big_ms:.0} ms (budget 120 s)");
    }
    let b = big_result.metrics.clone();
    drop(big_result);

    // ── Buffered schedules at scale ────────────────────────────────────
    // A 100k-gate circuit over 9 nodes on a 3×3 grid with a deep
    // comm-qubit budget: multi-hop routes exercise relay swaps and channel
    // claims on wide slot vectors. Deterministic metrics only.
    let buffered = ScheduleOptions::default().with_buffer(BufferPolicy::Prefetch { depth: 4 });
    let (wide, wide_partition) = random_distributed_circuit(72, 9, scale, 7);
    let wide_hw = HardwareSpec::for_partition(&wide_partition)
        .with_comm_qubits(128)
        .expect("128 comm qubits is a valid budget")
        .with_topology(NetworkTopology::grid(3, 3).expect("3x3 grid is valid"))
        .expect("grid covers the 9 placed nodes");
    let wide_compiled =
        AutoComm::new().compile_on(&wide, &wide_partition, &wide_hw).expect("100k compile");
    let s = schedule(&wide_compiled.assigned, &wide_compiled.placement, &wide_hw, buffered);
    drop(wide_compiled);

    // ── Rail 4: the 1M-gate buffered schedule completes ────────────────
    let big_hw = HardwareSpec::for_partition(&big_partition)
        .with_comm_qubits(8)
        .expect("8 comm qubits is a valid budget")
        .with_topology(NetworkTopology::ring(4).expect("ring of 4 is valid"))
        .expect("ring covers the 4 placed nodes");
    let big_compiled =
        AutoComm::new().compile_on(&big, &big_partition, &big_hw).expect("1M compile");
    let t = Instant::now();
    let big_schedule = schedule(&big_compiled.assigned, &big_compiled.placement, &big_hw, buffered);
    let big_schedule_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!("{}-gate buffered schedule: {big_schedule_ms:.0} ms", big.len());
    if !quick {
        assert!(
            big_schedule_ms < 60_000.0,
            "1M-gate buffered schedule took {big_schedule_ms:.0} ms (budget 60 s)"
        );
    }

    // Deterministic JSON, diffed against the recorded baseline by CI
    // (full runs only — --quick shrinks the inputs).
    let m = &inc_metrics;
    println!("{{");
    println!("  \"window\": {WINDOW},");
    println!(
        "  \"dag\": {{\"gates\": {}, \"naive_edges\": {}, \"windowed_edges\": {}}},",
        dag_circuit.len(),
        naive_dag.edge_count(),
        windowed_dag.edge_count()
    );
    println!(
        "  \"incremental\": {{\"gates\": {}, \"total_comms\": {}, \"tp_comms\": {}, \
         \"epr_cost\": {}, \"matches_full_reassign\": true}},",
        circuit.len(),
        m.total_comms,
        m.tp_comms,
        m.total_epr_cost
    );
    println!(
        "  \"one_million\": {{\"gates\": {}, \"total_comms\": {}, \"tp_comms\": {}, \
         \"epr_cost\": {}}},",
        big.len(),
        b.total_comms,
        b.tp_comms,
        b.total_epr_cost
    );
    println!(
        "  \"schedule_workload\": {{\"gates\": {}, \"nodes\": 9, \"comm_qubits\": 128, \
         \"topology\": \"grid3x3\", \"buffer\": \"{}\"}},",
        wide.len(),
        s.buffering.policy.name()
    );
    println!(
        "  \"schedule_buffered\": {{\"makespan\": {:.2}, \"epr_pairs\": {}, \"swaps\": {}, \
         \"fusion_savings\": {}, \"requests\": {}, \"prefetch_hits\": {}, \"fell_back\": {}}},",
        s.makespan,
        s.epr_pairs,
        s.swaps,
        s.fusion_savings,
        s.buffering.requests,
        s.buffering.prefetch_hits,
        s.buffering.fell_back
    );
    println!(
        "  \"schedule_one_million\": {{\"gates\": {}, \"makespan\": {:.2}, \"epr_pairs\": {}, \
         \"swaps\": {}, \"fell_back\": {}}}",
        big.len(),
        big_schedule.makespan,
        big_schedule.epr_pairs,
        big_schedule.swaps,
        big_schedule.buffering.fell_back
    );
    println!("}}");
    eprintln!(
        "ir scale gate OK: windowed dag {dag_speedup:.1}x, incremental round {round_speedup:.1}x, \
         1M compile {big_ms:.0} ms, 1M buffered schedule {big_schedule_ms:.0} ms"
    );
}

//! Suite-wide invariants: every benchmark workload, compiled through
//! `AutoComm` under every configuration, satisfies the paper's metric
//! relations — and `AutoComm` produces *exactly* the same artifacts as
//! composing the public stage functions by hand (the legacy
//! orient → unroll → aggregate → assign → schedule sequence).

use autocomm_repro::circuit::{unroll_circuit, Circuit, Partition};
use autocomm_repro::core::{
    aggregate, aggregate_no_commute, assign, assign_cat_only, orient_symmetric_gates, schedule,
    Ablation, AutoComm, AutoCommOptions, CommMetrics, CompileResult, Placement,
};
use autocomm_repro::hardware::HardwareSpec;
use autocomm_repro::workloads as wl;

/// Small instances of all six Table-2 workload families.
fn suite() -> Vec<(&'static str, Circuit, usize)> {
    vec![
        ("mctr", wl::mctr(12), 2),
        ("rca", wl::rca(12), 3),
        ("qft", wl::qft(12), 3),
        ("bv", wl::bv(12), 3),
        ("qaoa", wl::qaoa_maxcut(12, 30, 1), 3),
        ("uccsd", wl::uccsd(8), 4),
    ]
}

/// The legacy compiler: direct calls to each public stage function in the
/// fixed order, through the circuit-level entry points (`aggregate`,
/// `assign`) rather than the `CommIr` ones `AutoComm` uses, with the same
/// option toggles `AutoComm` honours.
fn compile_legacy(
    circuit: &Circuit,
    partition: &Partition,
    options: &AutoCommOptions,
) -> (Circuit, CommMetrics, autocomm_repro::core::ScheduleSummary, usize) {
    let oriented = if options.orient_symmetric {
        orient_symmetric_gates(circuit, partition)
    } else {
        circuit.clone()
    };
    let unrolled = unroll_circuit(&oriented).unwrap();
    let aggregated = if options.commutation_aggregation {
        aggregate(&unrolled, partition, options.aggregate)
    } else {
        aggregate_no_commute(&unrolled, partition)
    };
    let assigned =
        if options.hybrid_assignment { assign(&aggregated) } else { assign_cat_only(&aggregated) };
    let metrics = CommMetrics::of(&assigned);
    let hw = HardwareSpec::for_partition(partition);
    let summary = schedule(&assigned, &Placement::identity(partition), &hw, options.schedule);
    (unrolled, metrics, summary, assigned.items().len())
}

fn configurations() -> Vec<(String, AutoCommOptions)> {
    let mut configs = vec![("full".to_string(), AutoCommOptions::default())];
    for ablation in Ablation::all() {
        configs.push((
            ablation.name().to_string(),
            AutoCommOptions::default().with_ablation(ablation),
        ));
    }
    configs
}

#[test]
fn every_workload_satisfies_metric_invariants() {
    for (name, circuit, nodes) in suite() {
        let partition = Partition::block(circuit.num_qubits(), nodes).unwrap();
        for (config, options) in configurations() {
            let r: CompileResult =
                AutoComm::with_options(options).compile(&circuit, &partition).unwrap();
            let label = format!("{name}/{config}");
            assert!(
                r.metrics.tp_comms <= r.metrics.total_comms,
                "{label}: tp_comms {} > total_comms {}",
                r.metrics.tp_comms,
                r.metrics.total_comms
            );
            assert!(r.schedule.makespan > 0.0, "{label}: empty schedule");
            assert!(
                r.metrics.total_comms <= r.metrics.total_rem_cx,
                "{label}: more comms than remote CXs"
            );
            assert!(r.metrics.improvement_factor() >= 1.0, "{label}: regressed vs sparse");
            // Every pass reported, and the report covers the whole pipeline.
            assert!(
                r.passes.iter().any(|p| p.pass == "schedule"),
                "{label}: missing schedule report"
            );
        }
    }
}

#[test]
fn pass_manager_matches_legacy_compiler_on_every_workload() {
    for (name, circuit, nodes) in suite() {
        let partition = Partition::block(circuit.num_qubits(), nodes).unwrap();
        for (config, options) in configurations() {
            let label = format!("{name}/{config}");
            let r = AutoComm::with_options(options).compile(&circuit, &partition).unwrap();
            let (unrolled, metrics, summary, num_items) =
                compile_legacy(&circuit, &partition, &options);
            assert_eq!(r.unrolled, unrolled, "{label}: unrolled circuit differs");
            assert_eq!(r.metrics, metrics, "{label}: metrics differ");
            assert_eq!(r.schedule, summary, "{label}: schedule differs");
            assert_eq!(r.assigned.items().len(), num_items, "{label}: assignment differs");
        }
    }
}

/// The schedule times exactly the communications the program makes: every
/// scheduled Cat call is a Cat communication of the metric, on every
/// topology, under hybrid and Cat-only assignment, on demand and buffered.
/// On all-to-all machines a Cat-only schedule consumes one EPR pair per
/// communication. Every recorded event log validates against the hardware.
#[test]
fn scheduled_cat_calls_match_the_metric_on_every_topology() {
    use autocomm_repro::core::{Ablation, BufferPolicy};
    use autocomm_repro::hardware::{validate_events, NetworkTopology};
    for (name, circuit, nodes) in suite() {
        let partition = Partition::block(circuit.num_qubits(), nodes).unwrap();
        for spec in ["all-to-all", "linear", "ring", "grid", "star"] {
            // A ring needs three nodes; `mctr` runs on two.
            let Ok(topology) = NetworkTopology::parse_spec(spec, nodes) else { continue };
            let hw = HardwareSpec::for_partition(&partition).with_topology(topology).unwrap();
            for cat_only in [false, true] {
                for policy in [BufferPolicy::OnDemand, BufferPolicy::Prefetch { depth: 4 }] {
                    let mut options = AutoCommOptions::default().with_buffer(policy);
                    if cat_only {
                        options = options.with_ablation(Ablation::CatOnly);
                    }
                    options.schedule.record_events = true;
                    let label = format!("{name}/{spec}/cat_only {cat_only}/{}", policy.name());
                    let r = AutoComm::with_options(options)
                        .compile_on(&circuit, &partition, &hw)
                        .unwrap();
                    let (m, s) = (&r.metrics, &r.schedule);
                    assert_eq!(s.cat_blocks, m.total_comms - m.tp_comms, "{label}");
                    if cat_only && spec == "all-to-all" {
                        assert_eq!(s.epr_pairs, m.total_comms, "{label}");
                    }
                    let events = s.events.as_deref().expect("recording enabled");
                    validate_events(events, &hw).unwrap_or_else(|e| panic!("{label}: {e}"));
                }
            }
        }
    }
}

/// Property: flattening the index-based `AggregatedProgram` back to a
/// circuit is simulator-equivalent to the input, for random circuits across
/// register shapes — the end-to-end soundness certificate of the `CommIr`
/// refactor (ids and summaries must never change a decision
/// the pairwise oracle would not have made).
#[test]
fn indexed_aggregation_flattening_is_sim_equivalent_on_random_circuits() {
    use autocomm_repro::core::{aggregate, AggregateOptions};
    for (num_qubits, num_nodes, num_gates) in [(4, 2, 60), (5, 2, 40), (6, 3, 50)] {
        for seed in 0..5u64 {
            let (c, p) = wl::random_distributed_circuit(num_qubits, num_nodes, num_gates, seed);
            let c = unroll_circuit(&c).unwrap();
            let agg = aggregate(&c, &p, AggregateOptions::default());
            let flat = agg.to_circuit();
            assert_eq!(flat.len(), c.len(), "{num_qubits}q/{num_nodes}n seed {seed}: gate lost");
            assert!(
                autocomm_repro::sim::circuits_equivalent(&c, &flat, 1e-8).unwrap(),
                "{num_qubits}q/{num_nodes}n seed {seed}: aggregation changed semantics"
            );
        }
    }
}

/// Property: the id-level commutation oracle agrees with the pairwise
/// `commutes` everywhere, for random circuits.
#[test]
fn id_oracle_agrees_with_pairwise_commutes() {
    use autocomm_repro::circuit::commutes;
    use autocomm_repro::core::CommIr;
    for seed in 0..5u64 {
        let (c, p) = wl::random_distributed_circuit(6, 2, 80, seed);
        let c = unroll_circuit(&c).unwrap();
        let ir = CommIr::build(&c, &p);
        let table = ir.table();
        for a in 0..ir.len() {
            for b in (a + 1)..ir.len() {
                let (ga, gb) = (ir.gate_at(a), ir.gate_at(b));
                assert_eq!(
                    table.commutes_ids(ir.stream()[a], ir.stream()[b]),
                    commutes(ga, gb),
                    "seed {seed}: id oracle diverges on {ga} vs {gb}"
                );
            }
        }
    }
}

/// Property: the incremental `CommSummary` answers exactly like
/// `commutes_with_all` over random gate windows (the check the aggregation
/// hoist loop and the scheduler's parallel-group test rely on).
#[test]
fn comm_summary_matches_pairwise_commutes_on_random_windows() {
    use autocomm_repro::circuit::{commutes_with_all, CommSummary, GateTable};
    for seed in 0..8u64 {
        let c = wl::random_circuit(5, 60, seed ^ 0xA5A5);
        let mut table = GateTable::new();
        let ids: Vec<_> = c.gates().iter().map(|g| table.intern(g)).collect();
        // Slide a window over the stream; summarize it; probe with every gate.
        for start in (0..c.len().saturating_sub(8)).step_by(7) {
            let window = &c.gates()[start..start + 8];
            let mut summary = CommSummary::new(c.num_qubits(), 0);
            for (off, g) in window.iter().enumerate() {
                let _ = g;
                summary.add(&table, ids[start + off]);
            }
            for (i, probe) in c.gates().iter().enumerate() {
                assert_eq!(
                    summary.commutes_with(&table, ids[i]),
                    commutes_with_all(probe, window),
                    "seed {seed}, window at {start}, probe {probe}"
                );
            }
        }
    }
}

#[test]
fn whole_table2_suite_compiles_under_the_quick_configs() {
    // The same configurations dqc-bench smoke-tests: every workload family
    // at two scales, end to end through `AutoComm`.
    for workload in wl::Workload::all() {
        let (qubits, nodes) = if workload == wl::Workload::Uccsd { (8, 4) } else { (20, 2) };
        let config = wl::BenchConfig::new(workload, qubits, nodes);
        let circuit = wl::generate(&config);
        let partition = Partition::block(circuit.num_qubits(), nodes).unwrap();
        let r = AutoComm::new().compile(&circuit, &partition).unwrap();
        assert!(r.metrics.tp_comms <= r.metrics.total_comms);
        assert!(r.schedule.makespan > 0.0);
    }
}

//! Schedule-stage scaling safety rails, as property tests:
//!
//! * the **threaded dual-rail** evaluation: above the fork threshold a
//!   buffered policy runs its on-demand base walk on a second thread, and
//!   when the buffered walk does not win, that threaded walk is what
//!   `schedule` returns — it must equal an inline on-demand run in every
//!   field but the buffering report, and a buffered walk that does win
//!   must beat it;
//! * the **indexed timeline** (earliest-free slot/channel heaps) picks
//!   exactly the slot or channel a linear scan would, lowest index among
//!   ties: debug builds assert it on every lookup, and a suite sweep on a
//!   machine with wide slot vectors runs those asserts and validates every
//!   recorded event log;
//! * **schedule reuse** in the placement driver (skipping the final
//!   full recompile when the held artifacts are identical) stays
//!   bit-identical to the full-recompile reference driver
//!   ([`full_recompile_placed`]) under buffered policies too.

use autocomm_repro::circuit::{Partition, PAR_THRESHOLD};
use autocomm_repro::core::{
    schedule, AutoComm, AutoCommOptions, BufferPolicy, PlacementConfig, ScheduleOptions,
    ScheduleSummary,
};
use autocomm_repro::hardware::{validate_events, HardwareSpec, NetworkTopology};
use autocomm_repro::workloads as wl;
use dqc_bench::full_recompile_placed;

fn topologies(nodes: usize) -> Vec<NetworkTopology> {
    vec![
        NetworkTopology::all_to_all(nodes),
        NetworkTopology::linear(nodes).unwrap(),
        NetworkTopology::grid(2, nodes / 2).unwrap(),
        NetworkTopology::star(nodes).unwrap(),
        NetworkTopology::ring(nodes).unwrap(),
    ]
}

fn policies() -> [BufferPolicy; 4] {
    [
        BufferPolicy::OnDemand,
        BufferPolicy::Prefetch { depth: 1 },
        BufferPolicy::Prefetch { depth: 4 },
        BufferPolicy::Greedy,
    ]
}

/// Suite programs sit under the fork threshold; this one crosses it, so a
/// buffered policy runs its on-demand base walk on a second thread while
/// `schedule` under `OnDemand` runs the same walk inline. A policy that
/// falls back returns the threaded walk, which must equal the inline run in
/// every field but `buffering` (event log included); a policy that wins
/// must finish strictly earlier than the inline run.
#[test]
fn large_program_parallel_dual_rail_matches_sequential() {
    let nodes = 4;
    let (circuit, partition) = wl::random_distributed_circuit(16, nodes, 10_000, 11);
    // Eight comm qubits per node on a ring: prefetch cannot beat on-demand
    // here, greedy lookahead can, so both branches below run.
    let hw = HardwareSpec::for_partition(&partition)
        .with_comm_qubits(8)
        .unwrap()
        .with_topology(NetworkTopology::ring(nodes).unwrap())
        .unwrap();
    let compiled = AutoComm::new().compile_on(&circuit, &partition, &hw).unwrap();
    let items = compiled.assigned.items().len();
    assert!(items >= PAR_THRESHOLD, "{items} items stay under the fork threshold");
    let recorded = ScheduleOptions { record_events: true, ..ScheduleOptions::default() };
    let inline = schedule(&compiled.assigned, &compiled.placement, &hw, recorded);
    let mut fell_back = Vec::new();
    for policy in &policies()[1..] {
        let options = recorded.with_buffer(*policy);
        let dual = schedule(&compiled.assigned, &compiled.placement, &hw, options);
        if dual.buffering.fell_back {
            fell_back.push(policy.name());
            let base = ScheduleSummary { buffering: inline.buffering.clone(), ..dual };
            assert_eq!(base, inline, "threaded base walk drifted under {}", policy.name());
        } else {
            assert!(
                dual.makespan < inline.makespan,
                "{} kept a buffered schedule that does not beat on-demand",
                policy.name()
            );
        }
    }
    assert!(!fell_back.is_empty(), "no buffered policy fell back on this program");
}

/// Every suite program on every topology under every buffer policy, with 8
/// comm qubits per node so slot heaps hold many entries and ties. In debug
/// builds the timeline checks each heap lookup against a linear scan of the
/// same slot or channel times, lowest index among ties; here every
/// recorded event log must also validate.
#[test]
fn suite_indexed_timeline_event_log_matches_linear_scan_reference() {
    let nodes = 4;
    for config in wl::smoke_suite() {
        let circuit = wl::generate(&config);
        let partition = Partition::block(circuit.num_qubits(), nodes).unwrap();
        for topology in topologies(nodes) {
            let hw = HardwareSpec::for_partition(&partition)
                .with_comm_qubits(8)
                .unwrap()
                .with_topology(topology)
                .unwrap();
            let compiled = AutoComm::new().compile_on(&circuit, &partition, &hw).unwrap();
            for policy in policies() {
                let options = ScheduleOptions {
                    record_events: true,
                    ..ScheduleOptions::default().with_buffer(policy)
                };
                let summary = schedule(&compiled.assigned, &compiled.placement, &hw, options);
                let events = summary.events.as_deref().unwrap_or_default();
                let what = format!(
                    "{} on {} under {}",
                    config.label(),
                    hw.topology().name(),
                    policy.name()
                );
                assert!(!events.is_empty(), "no events recorded for {what}");
                validate_events(events, &hw).unwrap_or_else(|e| panic!("{what}: {e}"));
            }
        }
    }
}

/// Schedule reuse in `compile_placed` under buffered policies: the reused
/// final schedule must equal what the full-recompile driver produces.
#[test]
fn buffered_schedule_reuse_matches_force_full() {
    let nodes = 4;
    let circuit = wl::qft(12);
    let partition = Partition::block(12, nodes).unwrap();
    for topology in topologies(nodes) {
        let hw = HardwareSpec::for_partition(&partition).with_topology(topology.clone()).unwrap();
        for policy in [BufferPolicy::OnDemand, BufferPolicy::Prefetch { depth: 4 }] {
            let compiler = AutoComm::with_options(AutoCommOptions::default().with_buffer(policy));
            let config = PlacementConfig::default();
            let (reused, reused_report) =
                compiler.compile_placed(&circuit, &partition, &hw, &config).unwrap();
            let (full, full_report) =
                full_recompile_placed(&compiler, &circuit, &partition, &hw, &config).unwrap();
            let context = format!("{} under {}", topology.name(), policy.name());
            assert_eq!(reused_report, full_report, "report differs on {context}");
            assert_eq!(reused.metrics, full.metrics, "metrics differ on {context}");
            assert_eq!(reused.schedule, full.schedule, "schedule differs on {context}");
            assert_eq!(reused.passes.len(), full.passes.len(), "pass list differs on {context}");
        }
    }
}

//! Edge cases and failure injection across the pipeline.

use autocomm_repro::circuit::{
    from_qasm, to_qasm, unroll_circuit, CBitId, Circuit, Gate, Partition, QubitId,
};
use autocomm_repro::core::{
    aggregate, assign, schedule, AggregateOptions, AutoComm, AutoCommOptions, Placement,
    ScheduleOptions,
};
use autocomm_repro::hardware::{HardwareSpec, LatencyModel};

fn q(i: usize) -> QubitId {
    QubitId::new(i)
}

#[test]
fn empty_circuit_compiles_to_nothing() {
    let c = Circuit::new(4);
    let p = Partition::block(4, 2).unwrap();
    let r = AutoComm::new().compile(&c, &p).unwrap();
    assert_eq!(r.metrics.total_comms, 0);
    assert_eq!(r.schedule.makespan, 0.0);
    assert_eq!(r.aggregated.block_count(), 0);
}

#[test]
fn single_node_partition_means_no_communication() {
    let c = autocomm_repro::workloads::qft(8);
    let p = Partition::block(8, 1).unwrap();
    let r = AutoComm::new().compile(&c, &p).unwrap();
    assert_eq!(r.metrics.total_comms, 0);
    assert_eq!(r.schedule.epr_pairs, 0);
    assert!(r.schedule.makespan > 0.0, "local gates still take time");
}

#[test]
fn measurements_and_feedforward_pass_through() {
    // A program with mid-circuit measurement and a conditioned gate: the
    // compiler must route the remote gates into blocks while leaving the
    // classical control untouched and in order.
    let mut c = Circuit::with_cbits(4, 1);
    c.push(Gate::h(q(0))).unwrap();
    c.push(Gate::cx(q(0), q(2))).unwrap(); // remote
    c.push(Gate::measure(q(0), CBitId::new(0))).unwrap();
    c.push(Gate::x(q(1)).with_condition(CBitId::new(0))).unwrap();
    c.push(Gate::cx(q(1), q(3))).unwrap(); // remote
    let p = Partition::block(4, 2).unwrap();
    let r = AutoComm::new().compile(&c, &p).unwrap();
    assert_eq!(r.metrics.total_comms, 2);
    // Flattened program preserves the measure → conditioned-X order.
    let flat = r.aggregated.to_circuit();
    let measure_pos =
        flat.gates().iter().position(|g| g.cbit().is_some()).expect("measure survives");
    let cond_pos = flat
        .gates()
        .iter()
        .position(|g| g.condition().is_some())
        .expect("conditioned gate survives");
    assert!(measure_pos < cond_pos);
}

#[test]
fn zero_defer_window_still_compiles_correctly() {
    let (c, p) = autocomm_repro::workloads::random_distributed_circuit(5, 2, 40, 3);
    let c = unroll_circuit(&c).unwrap();
    let agg = aggregate(&c, &p, AggregateOptions { defer_limit: 0 });
    // Correctness must not depend on the window (only block quality does).
    assert!(autocomm_repro::sim::circuits_equivalent(&c, &agg.to_circuit(), 1e-8).unwrap());
    let remote = c.gates().iter().filter(|g| p.is_remote(g)).count();
    let in_blocks: usize = agg.blocks().map(|b| b.remote_gate_count()).sum();
    assert_eq!(remote, in_blocks);
}

#[test]
fn generous_defer_window_never_worsens_aggregation() {
    for seed in 0..5 {
        let (c, p) = autocomm_repro::workloads::random_distributed_circuit(6, 2, 60, seed);
        let c = unroll_circuit(&c).unwrap();
        let tight = aggregate(&c, &p, AggregateOptions { defer_limit: 0 });
        let wide = aggregate(&c, &p, AggregateOptions { defer_limit: 256 });
        assert!(
            wide.block_count() <= tight.block_count(),
            "seed {seed}: wider window produced more blocks"
        );
    }
}

#[test]
fn free_epr_latency_model_collapses_comm_cost() {
    // With tep = 0 the schedule should be dominated by protocol phases
    // only; sanity-check the latency model plumbing end to end.
    let c = autocomm_repro::workloads::bv(12);
    let p = Partition::block(12, 2).unwrap();
    let unrolled = unroll_circuit(&c).unwrap();
    let assigned = assign(&aggregate(&unrolled, &p, AggregateOptions::default()));
    let normal = schedule(
        &assigned,
        &Placement::identity(&p),
        &HardwareSpec::for_partition(&p),
        ScheduleOptions::plain_greedy(),
    );
    let free_epr = schedule(
        &assigned,
        &Placement::identity(&p),
        &HardwareSpec::for_partition(&p)
            .with_latency(LatencyModel { t_epr: 0.0, ..LatencyModel::default() }),
        ScheduleOptions::plain_greedy(),
    );
    assert!(free_epr.makespan < normal.makespan);
    assert_eq!(free_epr.epr_pairs, normal.epr_pairs);
}

#[test]
fn qasm_roundtrip_of_compiled_physical_program() {
    // Lower a small program to its physical form and round-trip the QASM.
    use autocomm_repro::core::lower_assigned;
    let mut c = Circuit::new(4);
    c.push(Gate::cx(q(0), q(2))).unwrap();
    c.push(Gate::cx(q(0), q(3))).unwrap();
    let p = Partition::block(4, 2).unwrap();
    let unrolled = unroll_circuit(&c).unwrap();
    let assigned = assign(&aggregate(&unrolled, &p, AggregateOptions::default()));
    let physical = lower_assigned(&assigned, &p).unwrap();
    let text = to_qasm(&physical.circuit);
    let parsed = from_qasm(&text).unwrap();
    assert_eq!(parsed, physical.circuit);
}

#[test]
fn orientation_ablation_changes_only_symmetric_gates() {
    let c = autocomm_repro::workloads::qaoa_maxcut(20, 60, 9);
    let p = Partition::block(20, 2).unwrap();
    let with = AutoComm::new().compile(&c, &p).unwrap();
    let without = AutoComm::with_options(AutoCommOptions {
        orient_symmetric: false,
        ..AutoCommOptions::default()
    })
    .compile(&c, &p)
    .unwrap();
    // Orientation can only help QAOA (more control-form Cat blocks).
    assert!(with.metrics.total_comms <= without.metrics.total_comms);
    assert!(with.metrics.tp_comms <= without.metrics.tp_comms);
    // Remote CX totals are identical — only direction choices differ.
    assert_eq!(with.metrics.total_rem_cx, without.metrics.total_rem_cx);
}

#[test]
fn mcx_workload_unrolls_without_ancilla_failures() {
    // MCTR with the paper's node counts always has enough dirty ancillas.
    for n in [20usize, 50, 100] {
        let c = autocomm_repro::workloads::mctr(n);
        assert!(unroll_circuit(&c).is_ok(), "MCTR-{n} must unroll");
    }
}

#[test]
fn barrier_fences_aggregation() {
    // A barrier between two remote gates of the same pair must keep them in
    // separate blocks (it commutes with nothing).
    let mut c = Circuit::new(4);
    c.push(Gate::cx(q(0), q(2))).unwrap();
    c.push(Gate::barrier(&[q(0), q(1), q(2), q(3)])).unwrap();
    c.push(Gate::cx(q(0), q(3))).unwrap();
    let p = Partition::block(4, 2).unwrap();
    let agg = aggregate(&c, &p, AggregateOptions::default());
    assert_eq!(agg.block_count(), 2);
}

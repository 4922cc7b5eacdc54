//! The EPR-buffering re-platform's safety rails, as property tests:
//!
//! * `Prefetch` never yields a longer makespan than `OnDemand` — on every
//!   suite workload across all five standard topologies, and on random
//!   programs (the strict-improvement rail makes this structural; the
//!   tests also confirm the rail engages rather than masking a broken
//!   engine by checking EPR accounting stays identical);
//! * `OnDemand` is *bit-identical* to the pre-buffering (PR 4 / 2c9ead1)
//!   pipeline: the summary's deterministic fields are locked against
//!   golden values recorded from that binary, and the explicit policy
//!   equals the default-options compile field for field;
//! * buffered compiles still lower to simulator-exact physical programs
//!   (buffering changes *when* pairs are generated, never the Cat/TP
//!   protocol sequences they lower to).

use autocomm_repro::circuit::{unroll_circuit, Circuit, Partition};
use autocomm_repro::core::{
    lower_assigned_on, AutoComm, AutoCommOptions, BufferPolicy, CompileResult,
};
use autocomm_repro::hardware::{validate_events, HardwareSpec, NetworkTopology};
use autocomm_repro::sim::{Complex, SplitMix64, StateVector};
use autocomm_repro::workloads as wl;
use proptest::prelude::*;

fn topologies(nodes: usize) -> Vec<NetworkTopology> {
    vec![
        NetworkTopology::all_to_all(nodes),
        NetworkTopology::linear(nodes).unwrap(),
        NetworkTopology::grid(2, nodes / 2).unwrap(),
        NetworkTopology::star(nodes).unwrap(),
        NetworkTopology::ring(nodes).unwrap(),
    ]
}

fn compile_with(
    circuit: &Circuit,
    partition: &Partition,
    hw: &HardwareSpec,
    policy: BufferPolicy,
) -> CompileResult {
    AutoComm::with_options(AutoCommOptions::default().with_buffer(policy))
        .compile_on(circuit, partition, hw)
        .unwrap()
}

/// Deterministic suite-wide rail mirroring the acceptance criterion:
/// `prefetch:N` never loses to `on-demand` on any workload × topology, and
/// never changes the physical EPR/swap accounting.
#[test]
fn suite_prefetch_never_loses_to_on_demand() {
    let nodes = 4;
    for config in wl::smoke_suite() {
        let circuit = wl::generate(&config);
        let partition = Partition::block(circuit.num_qubits(), nodes).unwrap();
        for topology in topologies(nodes) {
            let name = topology.name().to_owned();
            let hw = HardwareSpec::for_partition(&partition).with_topology(topology).unwrap();
            let base = compile_with(&circuit, &partition, &hw, BufferPolicy::OnDemand);
            for policy in [
                BufferPolicy::Prefetch { depth: 1 },
                BufferPolicy::Prefetch { depth: 4 },
                BufferPolicy::Greedy,
            ] {
                let buffered = compile_with(&circuit, &partition, &hw, policy);
                assert!(
                    buffered.schedule.makespan <= base.schedule.makespan + 1e-9,
                    "{}/{name}: {policy:?} {} > on-demand {}",
                    config.label(),
                    buffered.schedule.makespan,
                    base.schedule.makespan
                );
                assert_eq!(buffered.schedule.epr_pairs, base.schedule.epr_pairs);
                assert_eq!(buffered.schedule.swaps, base.schedule.swaps);
                assert_eq!(buffered.schedule.link_traffic, base.schedule.link_traffic);
                assert_eq!(buffered.metrics, base.metrics, "buffering is schedule-only");
                let b = &buffered.schedule.buffering;
                assert_eq!(b.requests, b.prefetch_hits + b.prefetch_misses);
            }
        }
    }
}

/// The acceptance win itself, locked as a test: under the default finite
/// comm-qubit budget, `prefetch:4` strictly reduces the suite-summed
/// makespan on linear, grid, and star.
#[test]
fn suite_prefetch_strictly_wins_on_sparse_topologies() {
    let nodes = 4;
    for topology in [
        NetworkTopology::linear(nodes).unwrap(),
        NetworkTopology::grid(2, 2).unwrap(),
        NetworkTopology::star(nodes).unwrap(),
    ] {
        let name = topology.name().to_owned();
        let mut base_total = 0.0;
        let mut prefetch_total = 0.0;
        for config in wl::smoke_suite() {
            let circuit = wl::generate(&config);
            let partition = Partition::block(circuit.num_qubits(), nodes).unwrap();
            let hw =
                HardwareSpec::for_partition(&partition).with_topology(topology.clone()).unwrap();
            base_total +=
                compile_with(&circuit, &partition, &hw, BufferPolicy::OnDemand).schedule.makespan;
            prefetch_total +=
                compile_with(&circuit, &partition, &hw, BufferPolicy::Prefetch { depth: 4 })
                    .schedule
                    .makespan;
        }
        assert!(
            prefetch_total + 1e-6 < base_total,
            "{name}: prefetch must strictly beat on-demand suite-wide: {prefetch_total} vs \
             {base_total}"
        );
    }
}

/// `OnDemand` reproduces the pre-buffering (2c9ead1) pipeline bit for bit:
/// suite-summed makespans and EPR pairs recorded from that binary, per
/// topology (nodes=4, OEE partition — the CLI suite batch configuration).
/// The linear and grid rows were re-recorded when the scheduler stopped
/// timing a communication for the local runs of split Cat blocks; the
/// other rows are the 2c9ead1 values.
#[test]
fn suite_on_demand_matches_recorded_pre_buffering_goldens() {
    // (topology, suite-summed makespan, suite-summed scheduled EPR pairs)
    // recorded with `autocomm batch --suite --nodes 4 --topology <t> --json`.
    let goldens: [(&str, f64, usize); 5] = [
        ("all-to-all", 6377.299999999987, 438),
        ("linear", 7561.099999999997, 631),
        ("grid:2x2", 7370.700000000017, 519),
        ("star", 9012.40000000006, 603),
        ("ring", 7766.899999999999, 585),
    ];
    for (spec, want_makespan, want_epr) in goldens {
        let topology = NetworkTopology::parse_spec(spec, 4).unwrap();
        let mut makespan = 0.0;
        let mut epr = 0usize;
        for config in wl::smoke_suite() {
            let circuit = wl::generate(&config);
            let unrolled = unroll_circuit(&circuit).unwrap();
            let partition = autocomm_repro::partition::oee_partition(
                &autocomm_repro::partition::InteractionGraph::from_circuit(&unrolled),
                4,
            )
            .unwrap();
            let hw =
                HardwareSpec::for_partition(&partition).with_topology(topology.clone()).unwrap();
            let r = compile_with(&circuit, &partition, &hw, BufferPolicy::OnDemand);
            makespan += r.schedule.makespan;
            epr += r.schedule.epr_pairs;
        }
        assert!(
            (makespan - want_makespan).abs() < 1e-6,
            "{spec}: on-demand drifted from the 2c9ead1 golden: {makespan} vs {want_makespan}"
        );
        assert_eq!(epr, want_epr, "{spec}: EPR count drifted from the 2c9ead1 golden");
    }
}

/// Explicit `OnDemand` equals the default-options compile field for field
/// (the policy is the default, not a parallel code path).
#[test]
fn explicit_on_demand_equals_the_default_pipeline() {
    let c = wl::qft(12);
    let p = Partition::block(12, 4).unwrap();
    let hw =
        HardwareSpec::for_partition(&p).with_topology(NetworkTopology::linear(4).unwrap()).unwrap();
    let default = AutoComm::new().compile_on(&c, &p, &hw).unwrap();
    let explicit = compile_with(&c, &p, &hw, BufferPolicy::OnDemand);
    assert_eq!(default.schedule, explicit.schedule);
    assert_eq!(default.metrics, explicit.metrics);
    assert_eq!(default.assigned, explicit.assigned);
}

fn fidelity_of(
    physical: &autocomm_repro::protocols::PhysicalProgram,
    circuit: &Circuit,
    seed: u64,
) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let input = StateVector::random_state(circuit.num_qubits(), &mut rng).unwrap();
    let mut expected = input.clone();
    expected.run(circuit, &mut rng.fork()).unwrap();

    let total = physical.circuit.num_qubits();
    let mut amps = vec![Complex::ZERO; 1 << total];
    amps[..input.amplitudes().len()].copy_from_slice(input.amplitudes());
    let mut state = StateVector::from_amplitudes(amps).unwrap();
    state.run(&physical.circuit, &mut rng).unwrap();
    state.subset_fidelity(&expected, &physical.logical_qubits()).unwrap()
}

/// Buffered compiles lower to simulator-exact physical programs on sparse
/// machines: buffering never touches the Cat/TP protocol sequences.
#[test]
fn buffered_compiles_lower_simulator_exact() {
    let mut c = Circuit::new(6);
    let q = autocomm_repro::circuit::QubitId::new;
    c.push(autocomm_repro::circuit::Gate::h(q(0))).unwrap();
    c.push(autocomm_repro::circuit::Gate::cx(q(0), q(2))).unwrap();
    c.push(autocomm_repro::circuit::Gate::cx(q(0), q(4))).unwrap();
    c.push(autocomm_repro::circuit::Gate::cx(q(2), q(0))).unwrap();
    c.push(autocomm_repro::circuit::Gate::cx(q(4), q(5))).unwrap();
    let p = Partition::block(6, 3).unwrap();
    let hw =
        HardwareSpec::for_partition(&p).with_topology(NetworkTopology::linear(3).unwrap()).unwrap();
    let unrolled = unroll_circuit(&c).unwrap();
    for policy in [BufferPolicy::Prefetch { depth: 4 }, BufferPolicy::Greedy] {
        let r = compile_with(&c, &p, &hw, policy);
        let physical = lower_assigned_on(&r.assigned, &r.placement, hw.topology()).unwrap();
        assert_eq!(physical.epr_pairs, r.schedule.epr_pairs, "{policy:?}: accounting agrees");
        for seed in [3u64, 17] {
            let f = fidelity_of(&physical, &unrolled, seed);
            assert!(f > 1.0 - 1e-9, "{policy:?}: lowered fidelity {f}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs: buffered schedules stay resource-valid (the
    /// independent event replay finds no double-booked qubit or slot) and
    /// never lose to on-demand.
    #[test]
    fn random_buffered_schedules_validate_and_never_lose(seed in 0u64..300) {
        use autocomm_repro::core::{
            aggregate, assign, schedule, AggregateOptions, Placement, ScheduleOptions,
        };
        let (circuit, partition) = wl::random_distributed_circuit(8, 4, 50, seed);
        let circuit = unroll_circuit(&circuit).unwrap();
        let program = assign(&aggregate(&circuit, &partition, AggregateOptions::default()));
        for topology in topologies(4) {
            let hw = HardwareSpec::for_partition(&partition).with_topology(topology).unwrap();
            let placement = Placement::identity(&partition);
            let base = schedule(
                &program,
                &placement,
                &hw,
                ScheduleOptions { record_events: true, ..ScheduleOptions::default() },
            );
            let buffered = schedule(
                &program,
                &placement,
                &hw,
                ScheduleOptions { record_events: true, ..ScheduleOptions::default() }
                    .with_buffer(BufferPolicy::Prefetch { depth: 4 }),
            );
            validate_events(buffered.events.as_ref().unwrap(), &hw).map_err(|e| {
                TestCaseError::fail(format!("seed {seed}/{}: {e}", hw.topology().name()))
            })?;
            prop_assert!(
                buffered.makespan <= base.makespan + 1e-9,
                "seed {seed}/{}: buffered {} > on-demand {}",
                hw.topology().name(),
                buffered.makespan,
                base.makespan
            );
            prop_assert_eq!(buffered.epr_pairs, base.epr_pairs);
        }
    }
}

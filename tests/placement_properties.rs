//! The placement re-platforming's safety rails, as property tests:
//!
//! * the topology- and traffic-aware placement driver never yields a higher
//!   assignment-level EPR cost (`CommMetrics::total_epr_cost`) than the
//!   identity block→node mapping — on linear, grid, and star topologies,
//!   across the whole workload suite and on random programs;
//! * on all-to-all machines, the `--placement oee` path (the driver with
//!   zero refinement rounds) is *bit-identical* to the historical pipeline
//!   — same assignment, same metrics, same schedule — and on every
//!   topology, sparse ones included, zero rounds return the identity
//!   compile artifact for artifact;
//! * the incremental driver ([`AutoComm::compile_placed`]) matches the
//!   full-recompile reference driver ([`full_recompile_placed`]) artifact
//!   for artifact on all five topology families, cat-only included;
//! * compiles under a non-identity placement still lower to
//!   simulator-exact physical programs (placement relabels routes, never
//!   semantics).

use autocomm_repro::circuit::{unroll_circuit, Circuit, Partition};
use autocomm_repro::core::{
    comm_weighted_graph, lower_assigned_on, Ablation, AutoComm, CommMetrics, CompileResult,
    Placement, PlacementConfig, PlacementReport,
};
use autocomm_repro::hardware::{HardwareSpec, NetworkTopology};
use autocomm_repro::partition::{oee_partition, InteractionGraph};
use autocomm_repro::sim::{Complex, SplitMix64, StateVector};
use autocomm_repro::workloads as wl;
use dqc_bench::full_recompile_placed;
use proptest::prelude::*;

fn sparse_topologies(nodes: usize) -> Vec<NetworkTopology> {
    vec![
        NetworkTopology::linear(nodes).unwrap(),
        NetworkTopology::grid(2, nodes / 2).unwrap(),
        NetworkTopology::star(nodes).unwrap(),
    ]
}

fn compile_both(
    circuit: &Circuit,
    partition: &Partition,
    hw: &HardwareSpec,
) -> (CompileResult, CompileResult, PlacementReport) {
    let identity = AutoComm::new().compile_on(circuit, partition, hw).unwrap();
    let (placed, report) = AutoComm::new()
        .compile_placed(circuit, partition, hw, &PlacementConfig::default())
        .unwrap();
    (identity, placed, report)
}

/// Deterministic suite-wide rail mirroring the acceptance criterion:
/// hop-weighted placement never yields a higher `total_epr_cost` than the
/// identity block→node mapping on linear/grid/star, for every workload.
#[test]
fn suite_topo_placement_never_loses_to_identity() {
    let nodes = 4;
    for config in wl::smoke_suite() {
        let circuit = wl::generate(&config);
        let unrolled = unroll_circuit(&circuit).unwrap();
        let partition = oee_partition(&InteractionGraph::from_circuit(&unrolled), nodes).unwrap();
        for topology in sparse_topologies(nodes) {
            let name = topology.name().to_owned();
            let hw = HardwareSpec::for_partition(&partition).with_topology(topology).unwrap();
            let (identity, placed, report) = compile_both(&circuit, &partition, &hw);
            assert!(
                placed.metrics.total_epr_cost <= identity.metrics.total_epr_cost,
                "{}/{name}: placed {} > identity {}",
                config.label(),
                placed.metrics.total_epr_cost,
                identity.metrics.total_epr_cost
            );
            assert_eq!(report.initial_epr_cost, identity.metrics.total_epr_cost);
            assert_eq!(report.final_epr_cost, placed.metrics.total_epr_cost);
            assert!(report.final_epr_cost <= report.initial_epr_cost);
            // The final map is a permutation of the machine's nodes.
            let mut seen: Vec<usize> = report.node_map.iter().map(|n| n.index()).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..nodes).collect::<Vec<_>>());
        }
    }
}

/// The zero-round driver (the `block` and `oee` strategies) on every
/// topology, sparse ones included: it returns the identity compile
/// artifact for artifact, and its report carries the identity placement's
/// cut weights and EPR cost.
#[test]
fn zero_round_driver_is_the_identity_compile_on_every_topology() {
    let nodes = 4;
    let zero = PlacementConfig { refine_iters: 0 };
    for config in wl::smoke_suite() {
        let circuit = wl::generate(&config);
        let unrolled = unroll_circuit(&circuit).unwrap();
        let oee = oee_partition(&InteractionGraph::from_circuit(&unrolled), nodes).unwrap();
        let block = Partition::block(circuit.num_qubits(), nodes).unwrap();
        for partition in [block, oee] {
            let topologies = [
                NetworkTopology::linear(nodes).unwrap(),
                NetworkTopology::ring(nodes).unwrap(),
                NetworkTopology::star(nodes).unwrap(),
                NetworkTopology::grid(2, nodes / 2).unwrap(),
                NetworkTopology::all_to_all(nodes),
            ];
            for topology in topologies {
                let label = format!("{}/{}", config.label(), topology.name());
                let hw = HardwareSpec::for_partition(&partition).with_topology(topology).unwrap();
                let identity = Placement::identity(&partition);
                let expected =
                    AutoComm::new().compile_with_placement(&circuit, &identity, &hw).unwrap();
                let (placed, report) =
                    AutoComm::new().compile_placed(&circuit, &partition, &hw, &zero).unwrap();
                assert_eq!(placed.placement, identity, "{label}");
                assert_eq!(placed.unrolled, expected.unrolled, "{label}");
                assert_eq!(placed.aggregated, expected.aggregated, "{label}");
                assert_eq!(placed.assigned, expected.assigned, "{label}");
                assert_eq!(placed.metrics, expected.metrics, "{label}");
                assert_eq!(placed.schedule, expected.schedule, "{label}");
                let names = |r: &CompileResult| r.passes.iter().map(|p| p.pass).collect::<Vec<_>>();
                assert_eq!(names(&placed), names(&expected), "{label}");

                let graph = comm_weighted_graph(&expected.aggregated);
                assert_eq!(report.iterations, 0, "{label}");
                assert_eq!(report.cut_weight, graph.cut_weight(&partition), "{label}");
                assert_eq!(
                    report.weighted_cost,
                    graph.placed_cut_weight(&partition, identity.node_map(), hw.topology()),
                    "{label}"
                );
                assert_eq!(report.node_map, identity.node_map(), "{label}");
                assert_eq!(report.initial_epr_cost, expected.metrics.total_epr_cost, "{label}");
                assert_eq!(report.final_epr_cost, expected.metrics.total_epr_cost, "{label}");
            }
        }
    }
}

/// The incremental placement driver is bit-identical to the full-recompile
/// reference on all five topology families, across suite and random
/// workloads — the acceptance rail for incremental recompilation.
#[test]
fn incremental_compile_placed_matches_full_on_all_topologies() {
    let nodes = 4;
    let mut programs: Vec<Circuit> = vec![wl::qft(8), wl::bv(8)];
    for seed in 0..3 {
        let (c, _) = wl::random_distributed_circuit(8, nodes, 40, seed);
        programs.push(c);
    }
    let p = Partition::block(8, nodes).unwrap();
    let topologies = [
        ("all-to-all", NetworkTopology::all_to_all(nodes)),
        ("linear", NetworkTopology::linear(nodes).unwrap()),
        ("ring", NetworkTopology::ring(nodes).unwrap()),
        ("grid", NetworkTopology::grid(2, 2).unwrap()),
        ("star", NetworkTopology::star(nodes).unwrap()),
    ];
    let compiler = AutoComm::new();
    let config = PlacementConfig::default();
    for c in &programs {
        for (name, topology) in &topologies {
            let hw = HardwareSpec::for_partition(&p).with_topology(topology.clone()).unwrap();
            let incremental = compiler.compile_placed(c, &p, &hw, &config).unwrap();
            let full = full_recompile_placed(&compiler, c, &p, &hw, &config).unwrap();
            assert_eq!(incremental.1, full.1, "report differs on {name}");
            assert_eq!(incremental.0.metrics, full.0.metrics, "metrics differ on {name}");
            assert_eq!(incremental.0.schedule, full.0.schedule, "schedule differs on {name}");
            assert_eq!(incremental.0.assigned, full.0.assigned, "assignment differs on {name}");
            assert_eq!(incremental.0.placement, full.0.placement, "placement differs on {name}");
        }
    }
}

/// Cat-only configurations ride the same incremental path (the
/// incremental re-assignment must respect `hybrid_assignment`).
#[test]
fn incremental_compile_placed_matches_full_under_cat_only() {
    let c = wl::qft(8);
    let p = Partition::block(8, 4).unwrap();
    let hw =
        HardwareSpec::for_partition(&p).with_topology(NetworkTopology::ring(4).unwrap()).unwrap();
    let compiler = AutoComm::with_ablations(&[Ablation::CatOnly]);
    let config = PlacementConfig::default();
    let incremental = compiler.compile_placed(&c, &p, &hw, &config).unwrap();
    let full = full_recompile_placed(&compiler, &c, &p, &hw, &config).unwrap();
    assert_eq!(incremental.1, full.1);
    assert_eq!(incremental.0.metrics, full.0.metrics);
    assert_eq!(incremental.0.assigned, full.0.assigned);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs: the driver is monotone on every sparse topology.
    #[test]
    fn random_topo_placement_never_loses_to_identity(seed in 0u64..300) {
        let (c, p) = wl::random_distributed_circuit(8, 4, 50, seed);
        let c = unroll_circuit(&c).unwrap();
        for topology in sparse_topologies(4) {
            let name = topology.name().to_owned();
            let hw = HardwareSpec::for_partition(&p).with_topology(topology).unwrap();
            let (identity, placed, _) = compile_both(&c, &p, &hw);
            prop_assert!(
                placed.metrics.total_epr_cost <= identity.metrics.total_epr_cost,
                "seed {seed}/{name}: placed {} > identity {}",
                placed.metrics.total_epr_cost,
                identity.metrics.total_epr_cost
            );
        }
    }

    /// On all-to-all, the `--placement oee` path (zero refinement rounds)
    /// reproduces the historical pipeline bit for bit.
    #[test]
    fn all_to_all_oee_path_is_bit_identical(seed in 0u64..300) {
        let (c, p) = wl::random_distributed_circuit(6, 3, 40, seed);
        let c = unroll_circuit(&c).unwrap();
        let hw = HardwareSpec::for_partition(&p);
        let legacy = AutoComm::new().compile_on(&c, &p, &hw).unwrap();
        let (placed, report) = AutoComm::new()
            .compile_placed(&c, &p, &hw, &PlacementConfig { refine_iters: 0 })
            .unwrap();
        prop_assert!(placed.placement.is_identity());
        prop_assert_eq!(report.iterations, 0);
        prop_assert_eq!(&placed.metrics, &legacy.metrics, "metrics must not change");
        prop_assert_eq!(&placed.schedule, &legacy.schedule, "schedule must be bit-identical");
        prop_assert_eq!(&placed.assigned, &legacy.assigned, "assignment must not change");
    }

    /// Placed compiles stay simulator-exact: lowering through the placed
    /// routes reproduces the logical state on a sparse machine.
    #[test]
    fn placed_lowering_is_simulator_exact(seed in 0u64..40) {
        let (c, p) = wl::random_distributed_circuit(6, 3, 24, seed + 5000);
        let c = unroll_circuit(&c).unwrap();
        let linear = NetworkTopology::linear(3).unwrap();
        let hw = HardwareSpec::for_partition(&p).with_topology(linear.clone()).unwrap();
        let (placed, _) = AutoComm::new()
            .compile_placed(&c, &p, &hw, &PlacementConfig::default())
            .unwrap();
        let physical = lower_assigned_on(&placed.assigned, &placed.placement, &linear).unwrap();
        let f = fidelity_of(&physical, &c, seed);
        prop_assert!((f - 1.0).abs() < 1e-8, "placed fidelity {f} at seed {seed}");
    }

    /// The measured traffic matrix in the metrics partitions the comm
    /// total and is placement-invariant at the logical-block level.
    #[test]
    fn pair_comms_partition_the_comm_total(seed in 0u64..200) {
        let (c, p) = wl::random_distributed_circuit(8, 4, 60, seed);
        let c = unroll_circuit(&c).unwrap();
        let hw = HardwareSpec::for_partition(&p);
        let r = AutoComm::new().compile_on(&c, &p, &hw).unwrap();
        let m: &CommMetrics = &r.metrics;
        let total: usize = m.pair_comms.iter().map(|&(_, _, comms)| comms).sum();
        prop_assert_eq!(total, m.total_comms);
        for &(a, b, comms) in &m.pair_comms {
            prop_assert!(a < b, "pairs are unordered with a < b");
            prop_assert!(comms > 0, "only communicating pairs are recorded");
        }
    }
}

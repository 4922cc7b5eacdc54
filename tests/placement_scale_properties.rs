//! Placement-stage scaling safety rails, as property tests:
//!
//! * the **CSR sparse interaction graph** agrees pairwise with a dense
//!   brute-force weight matrix built straight from the gate list — weights,
//!   degrees, and cut weights — on the suite and on random programs;
//! * the **warm-started placement driver** (OEE cache carried across
//!   rounds, unchanged-traffic round skipping) matches the full-recompile
//!   reference driver ([`full_recompile_placed`]) report-for-report and
//!   metric-for-metric;
//! * both `max_exchanges` safety valves (OEE refinement and block
//!   placement) report saturation when they clip the loop and stay silent
//!   when they don't.
//!
//! The OEE exchange loop is checked against its full-rescan reference
//! in the test module of `crates/partition/src/oee.rs`, where that
//! reference lives.

use autocomm_repro::circuit::{unroll_circuit, Circuit, NodeId, Partition, QubitId};
use autocomm_repro::core::{AutoComm, PlacementConfig};
use autocomm_repro::hardware::{HardwareSpec, NetworkTopology};
use autocomm_repro::partition::{
    oee_refine_on_stats, place_blocks_stats, InteractionGraph, OeeOptions, PlaceOptions,
    UniformDistance,
};
use autocomm_repro::workloads as wl;
use dqc_bench::full_recompile_placed;
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

/// Dense brute-force weight matrix: every two-qubit gate adds one unit of
/// weight to its unordered pair — the reference the CSR graph must match.
fn dense_weights(circuit: &Circuit) -> Vec<Vec<u64>> {
    let n = circuit.num_qubits();
    let mut w = vec![vec![0u64; n]; n];
    for gate in circuit.gates() {
        let qs = gate.qubits();
        if qs.len() == 2 {
            let (a, b) = (qs[0].index(), qs[1].index());
            w[a][b] += 1;
            w[b][a] += 1;
        }
    }
    w
}

fn assert_graph_matches_dense(circuit: &Circuit, what: &str) {
    let graph = InteractionGraph::from_circuit(circuit);
    let dense = dense_weights(circuit);
    let n = circuit.num_qubits();
    for (a, row) in dense.iter().enumerate() {
        let mut degree = 0;
        for (b, &w) in row.iter().enumerate() {
            assert_eq!(
                graph.weight(QubitId::new(a), QubitId::new(b)),
                w,
                "{what}: weight({a}, {b}) drifted from the dense reference"
            );
            degree += usize::from(w > 0);
        }
        assert_eq!(graph.degree(QubitId::new(a)), degree, "{what}: degree({a}) drifted");
        let from_neighbors: u64 = graph.neighbors(QubitId::new(a)).map(|(_, w)| w).sum();
        assert_eq!(from_neighbors, row.iter().sum::<u64>(), "{what}: row sum drifted");
    }
    // Cut weight against the dense definition, on a nontrivial partition.
    if n >= 2 && n.is_multiple_of(2) {
        let p = Partition::round_robin(n, 2).unwrap();
        let mut cut = 0u64;
        for (a, row) in dense.iter().enumerate() {
            for (b, &w) in row.iter().enumerate().skip(a + 1) {
                if p.node_of(QubitId::new(a)) != p.node_of(QubitId::new(b)) {
                    cut += w;
                }
            }
        }
        assert_eq!(graph.cut_weight(&p), cut, "{what}: cut weight drifted");
    }
}

#[test]
fn suite_sparse_graph_matches_dense_reference() {
    for config in wl::smoke_suite() {
        let circuit = unroll_circuit(&wl::generate(&config)).unwrap();
        assert_graph_matches_dense(&circuit, config.label().as_str());
    }
}

/// The incremental driver against the full-recompile driver: identical
/// reports (iterations, node map, costs), work counters (compared on their
/// own, since the report's equality excludes them), metrics and schedules.
#[test]
fn warm_driver_matches_force_full_on_every_topology() {
    let nodes = 4;
    for config in wl::smoke_suite() {
        let circuit = wl::generate(&config);
        let unrolled = unroll_circuit(&circuit).unwrap();
        let graph = InteractionGraph::from_circuit(&unrolled);
        let partition = autocomm_repro::partition::oee_partition(&graph, nodes).unwrap();
        for topology in topologies(nodes) {
            let hw =
                HardwareSpec::for_partition(&partition).with_topology(topology.clone()).unwrap();
            let compiler = AutoComm::new();
            let placement = PlacementConfig::default();
            let (warm, warm_report) =
                compiler.compile_placed(&circuit, &partition, &hw, &placement).unwrap();
            let (full, full_report) =
                full_recompile_placed(&compiler, &circuit, &partition, &hw, &placement).unwrap();
            let context = format!("{}/{}", config.label(), topology.name());
            assert_eq!(warm_report, full_report, "report differs on {context}");
            assert_eq!(warm_report.work, full_report.work, "work differs on {context}");
            assert_eq!(warm.metrics, full.metrics, "metrics differ on {context}");
            assert_eq!(warm.schedule, full.schedule, "schedule differs on {context}");
        }
    }
}

#[test]
fn oee_saturation_valve_reports_and_clears() {
    // qft(8) over 2 nodes from round-robin has improving exchanges; a zero
    // budget must trip the valve, an ample budget must not.
    let circuit = unroll_circuit(&wl::qft(8)).unwrap();
    let graph = InteractionGraph::from_circuit(&circuit);
    let initial = Partition::round_robin(8, 2).unwrap();
    let node_map: Vec<NodeId> = (0..2).map(NodeId::new).collect();
    let clipped = OeeOptions { max_exchanges: 0 };
    let (clipped_p, clipped_stats) =
        oee_refine_on_stats(&graph, initial.clone(), &node_map, &UniformDistance, clipped);
    assert!(clipped_stats.saturated, "zero budget with improving exchanges must saturate");
    assert_eq!(clipped_p, initial, "zero budget must leave the partition untouched");
    let (_, free_stats) =
        oee_refine_on_stats(&graph, initial, &node_map, &UniformDistance, OeeOptions::default());
    assert!(!free_stats.saturated, "a converged run must not report saturation");
    assert!(free_stats.exchanges > 0, "round-robin qft(8) should improve");
}

#[test]
fn place_saturation_valve_reports_and_clears() {
    // Heavy traffic between blocks 0-3 and 1-2 on a chain: the identity
    // map is improvable, so a zero budget must saturate.
    let mut traffic = vec![vec![0u64; 4]; 4];
    traffic[0][3] = 50;
    traffic[3][0] = 50;
    traffic[1][2] = 30;
    traffic[2][1] = 30;
    let chain = NetworkTopology::linear(4).unwrap();
    let (_, clipped) = place_blocks_stats(&traffic, 4, &chain, PlaceOptions { max_exchanges: 0 });
    assert!(clipped.saturated, "zero budget with an improving swap must saturate");
    let (_, free) = place_blocks_stats(&traffic, 4, &chain, PlaceOptions::default());
    assert!(!free.saturated, "a converged placement must not report saturation");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs: CSR graph == dense reference.
    #[test]
    fn random_sparse_graph_matches_dense_reference(seed in 0u64..300) {
        let circuit = unroll_circuit(&wl::random_circuit(10, 80, seed)).unwrap();
        assert_graph_matches_dense(&circuit, &format!("seed {seed}"));
    }
}

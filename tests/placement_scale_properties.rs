//! Placement-stage scaling safety rails, as property tests:
//!
//! * the **CSR sparse interaction graph** agrees pairwise with a dense
//!   brute-force weight matrix built straight from the gate list — weights,
//!   degrees, and cut weights — on the suite and on random programs;
//! * the **gain-cached exchange loop** (gain table + delta updates)
//!   returns the same partition and exchange count as the historical
//!   full-rescan reference ([`OeeOptions::full_rescan`]) — on every suite
//!   workload and on a hub-heavy 512-qubit register across all five
//!   standard topologies and a range of refinement budgets;
//! * the **parallel cold scan** merges to the same result as the sequential
//!   rail ([`OeeOptions::sequential_scan`]) on a register large enough to
//!   actually cross the parallel fan-out threshold;
//! * the **warm-started placement driver** (OEE cache carried across
//!   rounds, unchanged-traffic round skipping) matches the historical
//!   `force_full` driver report-for-report and metric-for-metric;
//! * both `max_exchanges` safety valves (OEE refinement and block
//!   placement) report saturation when they clip the loop and stay silent
//!   when they don't.

use autocomm_repro::circuit::{unroll_circuit, Circuit, NodeId, Partition, QubitId};
use autocomm_repro::core::{AutoComm, PlacementConfig};
use autocomm_repro::hardware::{HardwareSpec, NetworkTopology};
use autocomm_repro::partition::{
    oee_refine_on_stats, place_blocks_stats, InteractionGraph, OeeOptions, PlaceOptions,
    UniformDistance,
};
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

/// Refines one graph under `reference` and `candidate` and asserts the
/// partitions and applied exchange counts are identical.
fn assert_refine_modes_match(
    graph: &InteractionGraph,
    initial: &Partition,
    dist: &NetworkTopology,
    reference: OeeOptions,
    candidate: OeeOptions,
    what: &str,
) {
    let nodes = initial.num_nodes();
    let node_map: Vec<NodeId> = (0..nodes).map(NodeId::new).collect();
    let (expected, expected_stats) =
        oee_refine_on_stats(graph, initial.clone(), &node_map, dist, reference);
    let (actual, actual_stats) =
        oee_refine_on_stats(graph, initial.clone(), &node_map, dist, candidate);
    assert_eq!(expected, actual, "{what} drifted on {}", dist.name());
    assert_eq!(
        expected_stats.exchanges,
        actual_stats.exchanges,
        "{what} applied a different exchange count on {}",
        dist.name()
    );
    assert_eq!(
        expected_stats.saturated,
        actual_stats.saturated,
        "{what} saturation flag drifted on {}",
        dist.name()
    );
}

#[test]
fn suite_gain_cached_matches_full_rescan_on_every_topology() {
    let nodes = 4;
    for config in wl::smoke_suite() {
        let circuit = unroll_circuit(&wl::generate(&config)).unwrap();
        let graph = InteractionGraph::from_circuit(&circuit);
        let initial = Partition::round_robin(circuit.num_qubits(), nodes).unwrap();
        for topology in topologies(nodes) {
            // Unbounded and clipped budgets: the cached loop must pick the
            // same exchange as the rescan at every step, not just converge
            // to the same fixed point.
            for max_exchanges in [usize::MAX, 3, 1, 0] {
                let cached = OeeOptions { max_exchanges, ..OeeOptions::default() };
                let rescan = OeeOptions { full_rescan: true, ..cached };
                assert_refine_modes_match(
                    &graph,
                    &initial,
                    &topology,
                    rescan,
                    cached,
                    &format!("{} (cap {max_exchanges})", config.label()),
                );
            }
        }
    }
}

/// A register above `PAR_THRESHOLD` rows, so the cold scan actually fans
/// out. The exchange budget is clipped to keep the debug-build runtime
/// bounded — the scan itself is the property under test.
#[test]
fn large_register_parallel_scan_matches_sequential() {
    let nodes = 8;
    let qubits = 4096;
    let circuit = unroll_circuit(&wl::large_sparse_circuit(qubits, qubits * 2, 0xA11CE)).unwrap();
    let graph = InteractionGraph::from_circuit(&circuit);
    let initial = Partition::block(qubits, nodes).unwrap();
    let topology = NetworkTopology::ring(nodes).unwrap();
    for max_exchanges in [0usize, 2] {
        let parallel = OeeOptions { max_exchanges, ..OeeOptions::default() };
        let sequential = OeeOptions { sequential_scan: true, ..parallel };
        assert_refine_modes_match(
            &graph,
            &initial,
            &topology,
            sequential,
            parallel,
            &format!("4096-qubit parallel scan (cap {max_exchanges})"),
        );
    }
}

/// Hub-heavy registers large enough that exchanges lower row bests and
/// force dirty-row rescans in the gain table: the cached loop must walk the
/// full-rescan rail's exact exchange sequence at every budget, under every
/// standard topology's hop metric and at several node counts.
#[test]
fn hub_heavy_gain_cached_matches_full_rescan() {
    let qubits = 512;
    let circuit = unroll_circuit(&wl::large_sparse_circuit(qubits, qubits * 8, 0x4B0B)).unwrap();
    let graph = InteractionGraph::from_circuit(&circuit);
    for nodes in [4, 8, 16] {
        let initial = Partition::block(qubits, nodes).unwrap();
        for topology in topologies(nodes) {
            for max_exchanges in [0, 1, 17, usize::MAX] {
                let cached = OeeOptions { max_exchanges, ..OeeOptions::default() };
                let rescan = OeeOptions { full_rescan: true, ..cached };
                assert_refine_modes_match(
                    &graph,
                    &initial,
                    &topology,
                    rescan,
                    cached,
                    &format!("{qubits}-qubit hub-heavy, {nodes} nodes (cap {max_exchanges})"),
                );
            }
        }
    }
}

/// The warm-started incremental driver against the historical full driver:
/// identical reports (iterations, node map, costs, work counters compare
/// outside the report's own equality, which excludes work) and metrics.
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
            let (warm, warm_report) = AutoComm::new()
                .compile_placed(&circuit, &partition, &hw, &PlacementConfig::default())
                .unwrap();
            let (full, full_report) = AutoComm::new()
                .compile_placed(
                    &circuit,
                    &partition,
                    &hw,
                    &PlacementConfig { force_full: true, ..Default::default() },
                )
                .unwrap();
            let context = format!("{}/{}", config.label(), topology.name());
            assert_eq!(warm_report, full_report, "report differs on {context}");
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
    let clipped = OeeOptions { max_exchanges: 0, ..OeeOptions::default() };
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

    /// Random power-law programs: gain-cached == full-rescan under the
    /// hop-weighted metric on a sparse machine.
    #[test]
    fn random_gain_cached_matches_full_rescan(seed in 0u64..100) {
        let nodes = 4;
        let circuit = unroll_circuit(&wl::large_sparse_circuit(48, 300, seed)).unwrap();
        let graph = InteractionGraph::from_circuit(&circuit);
        let initial = Partition::block(48, nodes).unwrap();
        let topology = NetworkTopology::linear(nodes).unwrap();
        let cached = OeeOptions::default();
        let rescan = OeeOptions { full_rescan: true, ..cached };
        assert_refine_modes_match(
            &graph,
            &initial,
            &topology,
            rescan,
            cached,
            &format!("seed {seed}"),
        );
    }
}

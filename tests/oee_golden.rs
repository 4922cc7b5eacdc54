//! Golden pin of the OEE partitioner at the 1k–2k-qubit tier: a hash of
//! the refined assignment plus the gain-cached loop's work counters, and
//! the placement driver's work counters for one topology-aware compile.
//! The expected values were recorded with the ordered-set candidate store
//! that preceded the dense gain table, so they pin both the exchange
//! sequence and the exact number of gains computed and reused.

use autocomm_repro::circuit::{NodeId, Partition};
use autocomm_repro::core::{AutoComm, PlacementConfig, PlacementWork};
use autocomm_repro::hardware::{HardwareSpec, NetworkTopology};
use autocomm_repro::partition::{
    oee_partition, oee_refine_on_stats, InteractionGraph, OeeOptions, OeeStats, UniformDistance,
};
use autocomm_repro::workloads::large_sparse_circuit;

/// FNV-1a over the node index of every qubit, in qubit order.
fn assignment_hash(partition: &Partition) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for node in partition.assignment() {
        for b in (node.index() as u32).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// `oee_partition` on `large_sparse_circuit(qubits, gates, 0x5EED)`: the
/// assignment hash and the `(exchanges, scanned, cache_hits)` counters of
/// the same refinement run through the stats entry point.
fn oee_pin(qubits: usize, gates: usize, nodes: usize) -> (u64, usize, u64, u64) {
    let graph = InteractionGraph::from_circuit(&large_sparse_circuit(qubits, gates, 0x5EED));
    let partition = oee_partition(&graph, nodes).unwrap();
    let identity: Vec<NodeId> = (0..nodes).map(NodeId::new).collect();
    let (refined, stats) = oee_refine_on_stats(
        &graph,
        Partition::block(qubits, nodes).unwrap(),
        &identity,
        &UniformDistance,
        OeeOptions::default(),
    );
    assert_eq!(refined, partition, "oee_partition is the block-start uniform refinement");
    let OeeStats { exchanges, scanned, cache_hits, saturated } = stats;
    assert!(!saturated, "the default budget converges");
    (assignment_hash(&partition), exchanges, scanned, cache_hits)
}

#[test]
fn oee_partition_1024_qubits_4_nodes() {
    assert_eq!(oee_pin(1024, 8192, 4), (16_533_121_858_855_756_901, 290, 3_036_010, 111_389_846));
}

#[test]
fn oee_partition_2048_qubits_8_nodes() {
    assert_eq!(
        oee_pin(2048, 16_384, 8),
        (6_952_764_658_115_446_229, 706, 13_062_283, 1_284_288_373)
    );
}

/// `autocomm compile --placement topo --topology ring --nodes 8` on a
/// 1024-qubit sparse circuit: the driver's work counters, its accepted
/// rounds, and the final assignment.
#[test]
fn topo_ring_placement_work_1024_qubits() {
    let nodes = 8;
    let circuit = large_sparse_circuit(1024, 8192, 0x5EED);
    let unrolled = autocomm_repro::circuit::unroll_circuit(&circuit).unwrap();
    let partition = oee_partition(&InteractionGraph::from_circuit(&unrolled), nodes).unwrap();
    let hw = HardwareSpec::for_partition(&partition)
        .with_topology(NetworkTopology::ring(nodes).unwrap())
        .unwrap();
    let (result, report) = AutoComm::new()
        .compile_placed(&circuit, &partition, &hw, &PlacementConfig::default())
        .unwrap();
    let expected = PlacementWork {
        oee_exchanges: 193,
        oee_scanned: 2_968_630,
        oee_cache_hits: 86_946_762,
        place_exchanges: 4,
        rounds_skipped: 0,
        saturated: false,
    };
    assert_eq!(report.work, expected);
    assert_eq!(
        (report.iterations, report.final_epr_cost, assignment_hash(result.placement.partition())),
        (3, 5186, 16_673_310_427_377_192_085)
    );
}

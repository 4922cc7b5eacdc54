//! An assigned program shares its aggregated program's blocks instead of
//! copying them: every block an assignment resolves is the aggregated
//! block its item points to, on the smoke suite across five topologies,
//! under the hybrid and the Cat-only assignment.

use autocomm_repro::circuit::Partition;
use autocomm_repro::core::{Ablation, AutoComm, AutoCommOptions, Item};
use autocomm_repro::hardware::{HardwareSpec, NetworkTopology};
use autocomm_repro::workloads::{generate, smoke_suite};

fn topologies(nodes: usize) -> Vec<(&'static str, NetworkTopology)> {
    assert_eq!(nodes, 4, "the smoke suite runs on four nodes");
    vec![
        ("all-to-all", NetworkTopology::all_to_all(nodes)),
        ("linear", NetworkTopology::linear(nodes).unwrap()),
        ("ring", NetworkTopology::ring(nodes).unwrap()),
        ("star", NetworkTopology::star(nodes).unwrap()),
        ("grid", NetworkTopology::grid(2, 2).unwrap()),
    ]
}

#[test]
fn assigned_blocks_are_the_aggregated_blocks() {
    for config in smoke_suite() {
        let circuit = generate(&config);
        let partition = Partition::block(circuit.num_qubits(), config.num_nodes).unwrap();
        for (name, topology) in topologies(config.num_nodes) {
            let hw = HardwareSpec::symmetric(config.num_nodes).with_topology(topology).unwrap();
            for options in [
                AutoCommOptions::default(),
                AutoCommOptions::default().with_ablation(Ablation::CatOnly),
            ] {
                let label = format!("{config} {name} hybrid={}", options.hybrid_assignment);
                let r =
                    AutoComm::with_options(options).compile_on(&circuit, &partition, &hw).unwrap();
                let (aggregated, assigned) = (&r.aggregated, &r.assigned);
                assert!(aggregated.block_count() > 0, "{label}: no blocks to check");
                assert_eq!(assigned.items(), aggregated.items(), "{label}");
                assert_eq!(assigned.blocks().len(), aggregated.block_count(), "{label}");
                let table = aggregated.ir().table();
                for &item in assigned.items() {
                    let Item::Block(k) = item else { continue };
                    let (got, want) = (assigned.block(k).block, aggregated.block(k));
                    assert!(std::ptr::eq(got, want), "{label}: block {k} was copied");
                    assert!(got.gates(table).eq(want.gates(table)), "{label}: block {k} body");
                }
            }
        }
    }
}

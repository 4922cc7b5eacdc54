//! Placement-sensitivity sweep: compiles the smoke suite (plus the
//! `node_ring_exchange` stressor and the 1024-qubit power-law
//! `large_sparse_circuit` workload) against every standard interconnect under
//! each placement strategy — `block` (contiguous partition, identity map),
//! `oee` (the paper's partitioner, identity map), and `topo` (OEE plus the
//! topology- and traffic-aware iterative placement driver) — and reports
//! the assignment-level hop-weighted EPR cost per combination.
//!
//! The recorded numbers live in
//! `crates/bench/baselines/placement_sensitivity.json`; regenerate them
//! with `cargo run --release -p dqc-bench --bin placement_sweep`. Every
//! reported quantity is an integer produced by fully deterministic
//! optimization loops, so CI simply diffs the sweep's stdout against the
//! baseline and fails on any drift.
//!
//! In-binary safety rails, asserted on every run:
//!
//! * per workload, `topo` never exceeds `oee` (the driver starts from the
//!   OEE identity placement and only accepts strict improvements);
//! * per topology, the suite-summed `topo` cost never exceeds `block`
//!   (the acceptance criterion of the placement re-platform).

use autocomm::{AutoComm, PlacementConfig};
use dqc_bench::{oee_mapping, quick_requested, sweep_inputs};
use dqc_circuit::{Circuit, Partition};
use dqc_hardware::{HardwareSpec, NetworkTopology};

const STRATEGIES: [&str; 3] = ["block", "oee", "topo"];

struct Row {
    workload: String,
    topology: String,
    strategy: &'static str,
    epr_cost: usize,
    total_comms: usize,
    iterations: usize,
}

fn partition_for(circuit: &Circuit, nodes: usize, strategy: &str) -> Partition {
    match strategy {
        "block" => Partition::block(circuit.num_qubits(), nodes).expect("divisible sizes"),
        _ => oee_mapping(circuit, nodes),
    }
}

fn main() {
    let quick = quick_requested();
    let nodes = 4usize;
    let refine_iters = 3usize;
    let topologies = || {
        vec![
            NetworkTopology::all_to_all(nodes),
            NetworkTopology::linear(nodes).unwrap(),
            NetworkTopology::grid(2, 2).unwrap(),
            NetworkTopology::star(nodes).unwrap(),
        ]
    };

    let inputs: Vec<(String, Circuit)> = sweep_inputs(nodes, true, quick, true);

    let mut rows: Vec<Row> = Vec::new();
    for (label, circuit) in &inputs {
        for topology in topologies() {
            let mut costs = [0usize; 3];
            for (si, strategy) in STRATEGIES.iter().enumerate() {
                let partition = partition_for(circuit, nodes, strategy);
                let hw = HardwareSpec::for_partition(&partition)
                    .with_topology(topology.clone())
                    .expect("standard topologies are valid for 4 nodes");
                let config = PlacementConfig {
                    refine_iters: if *strategy == "topo" { refine_iters } else { 0 },
                };
                let (result, report) = AutoComm::new()
                    .compile_placed(circuit, &partition, &hw, &config)
                    .expect("suite workloads compile");
                costs[si] = result.metrics.total_epr_cost;
                rows.push(Row {
                    workload: label.clone(),
                    topology: topology.name().to_owned(),
                    strategy,
                    epr_cost: result.metrics.total_epr_cost,
                    total_comms: result.metrics.total_comms,
                    iterations: report.iterations,
                });
            }
            let [_, oee, topo] = costs;
            assert!(
                topo <= oee,
                "{label}/{}: topo {topo} beat by its own oee start {oee}",
                topology.name()
            );
        }
    }

    // Per-topology strategy totals, with the acceptance assertion.
    let mut totals: Vec<(String, [usize; 3])> = Vec::new();
    for topology in topologies() {
        let mut sums = [0usize; 3];
        for row in rows.iter().filter(|r| r.topology == topology.name()) {
            let si = STRATEGIES.iter().position(|s| *s == row.strategy).unwrap();
            sums[si] += row.epr_cost;
        }
        let [block, _, topo] = sums;
        assert!(
            topo <= block,
            "{}: suite-summed topo {topo} must not exceed block {block}",
            topology.name()
        );
        totals.push((topology.name().to_owned(), sums));
    }

    // Deterministic JSON, diffed against the recorded baseline by CI.
    println!("{{");
    println!("  \"nodes\": {nodes},");
    println!("  \"refine_iters\": {refine_iters},");
    println!("  \"strategies\": [\"block\", \"oee\", \"topo\"],");
    println!("  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        println!(
            "    {{\"workload\": \"{}\", \"topology\": \"{}\", \"strategy\": \"{}\", \
             \"epr_cost\": {}, \"total_comms\": {}, \"iterations\": {}}}{comma}",
            r.workload, r.topology, r.strategy, r.epr_cost, r.total_comms, r.iterations
        );
    }
    println!("  ],");
    println!("  \"totals\": [");
    for (i, (name, [block, oee, topo])) in totals.iter().enumerate() {
        let comma = if i + 1 == totals.len() { "" } else { "," };
        println!(
            "    {{\"topology\": \"{name}\", \"block\": {block}, \"oee\": {oee}, \
             \"topo\": {topo}}}{comma}"
        );
    }
    println!("  ]");
    println!("}}");

    for (name, [block, oee, topo]) in &totals {
        eprintln!(
            "{name:<12} block {block:>5}  oee {oee:>5}  topo {topo:>5}  ({:.1}% vs block)",
            100.0 * (*block as f64 - *topo as f64) / (*block).max(1) as f64
        );
    }
    eprintln!("placement sweep OK: topo <= oee per workload, topo <= block per topology");
}

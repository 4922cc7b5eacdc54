//! Walks the paper's worked example (Figures 4, 8, and 11) through every
//! AutoComm pass, printing the intermediate artifacts: a small arithmetic
//! snippet over three nodes is aggregated into burst blocks, the blocks are
//! assigned Cat-Comm or TP-Comm, and the schedule is laid on the
//! two-comm-qubit hardware model.
//!
//! Run with `cargo run --example arithmetic_pipeline`.

use autocomm::{
    aggregate, assign, schedule, AggregateOptions, CommMetrics, Item, Placement, ScheduleOptions,
    Scheme,
};
use dqc_circuit::{Circuit, Gate, NodeId, Partition, QubitId};
use dqc_hardware::HardwareSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 7-qubit snippet in the spirit of paper Fig. 4 (modified from
    // quantum arithmetic): q0,q1 on node A, q2,q3,q4 on node B, q5,q6 on
    // node C. It mixes shared-control bursts, a T† obstruction, and
    // bidirectional interactions.
    let q: Vec<QubitId> = (0..7).map(QubitId::new).collect();
    let mut circuit = Circuit::new(7);
    circuit.push(Gate::cx(q[0], q[2]))?; // q0 → node B   (burst 1)
    circuit.push(Gate::t(q[2]))?;
    circuit.push(Gate::cx(q[0], q[3]))?; // q0 → node B
    circuit.push(Gate::cx(q[1], q[3]))?; // q1 → node B
    circuit.push(Gate::cx(q[0], q[5]))?; // q0 → node C   (interleaved pair)
    circuit.push(Gate::cx(q[2], q[0]))?; // node B → q0   (direction flip)
    circuit.push(Gate::tdg(q[0]))?; // obstruction on the burst qubit
    circuit.push(Gate::cx(q[0], q[4]))?; // q0 → node B
    circuit.push(Gate::h(q[6]))?;
    circuit.push(Gate::cx(q[0], q[6]))?; // q0 → node C
    circuit.push(Gate::cx(q[4], q[1]))?; // node B → node A

    let assignment = [0, 0, 1, 1, 1, 2, 2].map(NodeId::new).to_vec();
    let partition = Partition::from_assignment(assignment, 3)?;

    println!("input program ({} gates):", circuit.len());
    for (i, g) in circuit.gates().iter().enumerate() {
        let marker = if partition.is_remote(g) { "remote" } else { "local" };
        println!("  {i:>2}: {g:<14} [{marker}]");
    }

    // Pass 1: communication aggregation (paper §4.2, Fig. 8).
    let aggregated = aggregate(&circuit, &partition, AggregateOptions::default());
    println!("\nafter aggregation ({} blocks):", aggregated.block_count());
    let table = aggregated.ir().table();
    for (i, &item) in aggregated.items().iter().enumerate() {
        match item {
            Item::Local(id) => println!("  {i:>2}: {}", aggregated.gate(id)),
            Item::Block(k) => {
                let b = aggregated.block(k);
                println!("  {i:>2}: {b}");
                for g in b.gates(table) {
                    println!("        | {g}");
                }
            }
        }
    }

    // Pass 2: communication assignment (paper §4.3, Fig. 11a).
    let assigned = assign(&aggregated);
    println!("\nafter assignment:");
    for b in assigned.blocks() {
        let scheme = match b.scheme {
            Scheme::Cat(o) => format!("Cat-Comm ({o:?})"),
            Scheme::Tp => "TP-Comm".to_string(),
        };
        println!("  {}  →  {scheme}, {} comm(s), {} segment(s)", b.block, b.comms, b.segments);
    }
    let metrics = CommMetrics::of(&assigned);
    println!(
        "\nmetrics: {} comms total ({} TP), {} remote CX, peak {:.1} REM CX/comm",
        metrics.total_comms, metrics.tp_comms, metrics.total_rem_cx, metrics.peak_rem_cx
    );

    // Pass 3: communication scheduling (paper §4.4, Fig. 11b).
    let hw = HardwareSpec::for_partition(&partition);
    let placement = Placement::identity(&partition);
    let summary = schedule(&assigned, &placement, &hw, ScheduleOptions::default());
    let plain = schedule(&assigned, &placement, &hw, ScheduleOptions::plain_greedy());
    println!(
        "\nschedule (burst-greedy): {:.1} CX units, {} EPR pairs",
        summary.makespan, summary.epr_pairs
    );
    println!(
        "schedule (plain greedy): {:.1} CX units, {} EPR pairs",
        plain.makespan, plain.epr_pairs
    );
    println!(
        "burst-greedy saves {:.1}x latency; TP fusion saved {} teleport(s)",
        plain.makespan / summary.makespan,
        summary.fusion_savings
    );

    // The baseline would pay one EPR pair per remote CX.
    let remote = circuit.gates().iter().filter(|g| partition.is_remote(g)).count();
    println!(
        "\nsparse baseline would issue {} comms → improv. factor {:.2}x",
        remote,
        remote as f64 / metrics.total_comms as f64
    );
    Ok(())
}

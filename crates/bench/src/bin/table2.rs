//! Regenerates paper Table 2: benchmark program characteristics under the
//! OEE qubit mapping. Pass `--quick` for scaled-down configurations.

use dqc_bench::{configs, oee_mapping, print_table, quick_requested};
use dqc_circuit::{unroll_circuit, CircuitStats};
use dqc_workloads::generate;

fn main() {
    let quick = quick_requested();
    let mut rows = Vec::new();
    for config in configs(quick) {
        let circuit = generate(&config);
        let unrolled = unroll_circuit(&circuit).expect("benchmarks unroll");
        let partition = oee_mapping(&circuit, config.num_nodes);
        let stats = CircuitStats::of(&unrolled, Some(&partition));
        rows.push(vec![
            config.label(),
            config.num_qubits.to_string(),
            config.num_nodes.to_string(),
            stats.num_gates.to_string(),
            stats.num_2q.to_string(),
            stats.num_remote_2q.to_string(),
        ]);
    }
    print_table(
        "Table 2: benchmark programs (unrolled, OEE mapping)",
        &["name", "#qubit", "#node", "#gate", "#CX", "#REM CX"],
        &rows,
    );
    println!("\nNote: #gate/#CX differ from the paper by decomposition constants");
    println!("(see docs/paper.md); the remote-CX structure drives all results.");
}

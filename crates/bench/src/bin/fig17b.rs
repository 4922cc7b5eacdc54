//! Regenerates paper Fig. 17(b): the assignment ablation — Cat-Comm-only
//! communication cost divided by the hybrid scheme, on RCA and QFT.

use autocomm::{Ablation, AutoComm};
use dqc_bench::{oee_mapping, paper, print_table, quick_requested};
use dqc_workloads::{generate, BenchConfig, Workload};

fn main() {
    let sizes: Vec<(usize, usize)> = if quick_requested() {
        vec![(20, 2), (30, 3), (40, 4)]
    } else {
        vec![(100, 10), (200, 20), (300, 30)]
    };
    let mut rows = Vec::new();
    for workload in [Workload::Rca, Workload::Qft] {
        for (i, &(q, n)) in sizes.iter().enumerate() {
            let config = BenchConfig::new(workload, q, n);
            let circuit = generate(&config);
            let partition = oee_mapping(&circuit, n);
            let full = AutoComm::new().compile(&circuit, &partition).unwrap();
            let ablated = AutoComm::with_ablations(&[Ablation::CatOnly])
                .compile(&circuit, &partition)
                .unwrap();
            let ratio = ablated.metrics.total_comms as f64 / full.metrics.total_comms.max(1) as f64;
            let published =
                paper::FIG17B.iter().find(|(w, _)| *w == workload.name()).map(|(_, v)| v[i.min(2)]);
            rows.push(vec![
                config.label(),
                ablated.metrics.total_comms.to_string(),
                full.metrics.total_comms.to_string(),
                format!("{ratio:.2}"),
                published.map_or("-".into(), |p| format!("{p:.2}")),
            ]);
        }
    }
    print_table(
        "Fig. 17(b): assignment ablation (Cat-Comm only / Hybrid comms)",
        &["name", "cat-only", "hybrid", "ratio", "paper ratio"],
        &rows,
    );
}

//! Regenerates paper Fig. 17(c): the scheduling ablation — plain greedy
//! latency divided by burst-greedy latency, on MCTR and QFT.

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
    for workload in [Workload::Mctr, Workload::Qft] {
        for (i, &(q, n)) in sizes.iter().enumerate() {
            let config = BenchConfig::new(workload, q, n);
            let circuit = generate(&config);
            let partition = oee_mapping(&circuit, n);
            let full = AutoComm::new().compile(&circuit, &partition).unwrap();
            let ablated = AutoComm::with_ablations(&[Ablation::PlainGreedy])
                .compile(&circuit, &partition)
                .unwrap();
            let ratio = ablated.schedule.makespan / full.schedule.makespan.max(1e-9);
            let published =
                paper::FIG17C.iter().find(|(w, _)| *w == workload.name()).map(|(_, v)| v[i.min(2)]);
            rows.push(vec![
                config.label(),
                format!("{:.0}", ablated.schedule.makespan),
                format!("{:.0}", full.schedule.makespan),
                format!("{ratio:.2}"),
                published.map_or("-".into(), |p| format!("{p:.2}")),
            ]);
        }
    }
    print_table(
        "Fig. 17(c): scheduling ablation (Greedy / Burst-greedy latency)",
        &["name", "greedy", "burst-greedy", "ratio", "paper ratio"],
        &rows,
    );
}

//! Experiment harness regenerating the AutoComm paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table2` | Table 2 — benchmark characteristics |
//! | `table3` | Table 3 — AutoComm vs sparse baseline |
//! | `fig15` | Fig. 15 — burst-communication distribution |
//! | `fig16` | Fig. 16 — comparison against GP-TP |
//! | `fig17a` | Fig. 17(a) — aggregation ablation |
//! | `fig17b` | Fig. 17(b) — assignment ablation |
//! | `fig17c` | Fig. 17(c) — scheduling ablation |
//! | `fig17d` | Fig. 17(d) — sensitivity to #qubit |
//! | `fig17e` | Fig. 17(e) — sensitivity to #node |
//!
//! Every binary accepts `--quick` to run scaled-down configurations (same
//! code paths, minutes → seconds). The library exposes the plumbing:
//! [`run_config`] compiles one Table-2 row with AutoComm and both
//! baselines, [`paper`] holds the published numbers for side-by-side
//! reporting, and [`full_recompile_placed`] is the reference placement
//! driver the placement tests and gates compare
//! [`AutoComm::compile_placed`] against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper;

use autocomm::{
    comm_weighted_graph, AutoComm, CommMetrics, CompileError, CompileResult, Placement,
    PlacementConfig, PlacementReport, PlacementWork, ScheduleSummary,
};
use dqc_baselines::{compile_ferrari, compile_gp_tp, BaselineResult};
use dqc_circuit::{Circuit, CircuitStats, Partition};
use dqc_hardware::HardwareSpec;
use dqc_partition::{
    oee_partition, oee_refine_on_stats, place_blocks_stats, InteractionGraph, OeeOptions,
    PlaceOptions,
};
use dqc_workloads::{generate, node_ring_exchange, smoke_suite, BenchConfig};

/// Everything measured for one benchmark configuration.
#[derive(Clone, Debug)]
pub struct ExperimentRow {
    /// The configuration.
    pub config: BenchConfig,
    /// Unrolled-circuit statistics under the OEE mapping (Table 2 columns).
    pub stats: CircuitStats,
    /// AutoComm metrics (Table 3 columns).
    pub metrics: CommMetrics,
    /// AutoComm schedule.
    pub schedule: ScheduleSummary,
    /// Sparse Cat-per-CX baseline.
    pub baseline: BaselineResult,
    /// GP-TP baseline.
    pub gp_tp: BaselineResult,
}

impl ExperimentRow {
    /// Paper “improv. factor”: baseline comms / AutoComm comms.
    pub fn improv_factor(&self) -> f64 {
        ratio(self.baseline.total_comms as f64, self.metrics.total_comms as f64)
    }

    /// Paper “LAT-DEC factor”: baseline latency / AutoComm latency.
    pub fn lat_dec_factor(&self) -> f64 {
        ratio(self.baseline.makespan, self.schedule.makespan)
    }

    /// Fig. 16 communication ratio vs GP-TP.
    pub fn gp_improv_factor(&self) -> f64 {
        ratio(self.gp_tp.total_comms as f64, self.metrics.total_comms as f64)
    }

    /// Fig. 16 latency ratio vs GP-TP.
    pub fn gp_lat_dec_factor(&self) -> f64 {
        ratio(self.gp_tp.makespan, self.schedule.makespan)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        1.0
    } else {
        num / den
    }
}

/// Builds the OEE qubit → node mapping for a circuit (the paper's “Static
/// Overall Extreme Exchange” front-end, applied to the unrolled circuit's
/// interaction graph).
///
/// # Panics
///
/// Panics on impossible node counts or unrollable circuits.
pub fn oee_mapping(circuit: &Circuit, num_nodes: usize) -> Partition {
    let graph =
        InteractionGraph::from_circuit_unrolled(circuit).expect("benchmark circuits unroll");
    oee_partition(&graph, num_nodes).expect("valid node count")
}

/// Generates, maps, and compiles one configuration with AutoComm and both
/// baselines.
///
/// # Panics
///
/// Panics if compilation fails (benchmark circuits are always valid).
pub fn run_config(config: &BenchConfig) -> ExperimentRow {
    let circuit = generate(config);
    let partition = oee_mapping(&circuit, config.num_nodes);
    let hw = HardwareSpec::for_partition(&partition);
    let result: CompileResult =
        AutoComm::new().compile(&circuit, &partition).expect("pipeline succeeds");
    let stats = CircuitStats::of(&result.unrolled, Some(&partition));
    let baseline = compile_ferrari(&circuit, &partition, &hw).expect("baseline succeeds");
    let gp_tp = compile_gp_tp(&circuit, &partition, &hw).expect("gp-tp succeeds");
    ExperimentRow {
        config: *config,
        stats,
        metrics: result.metrics,
        schedule: result.schedule,
        baseline,
        gp_tp,
    }
}

/// The full-recompile reference for [`AutoComm::compile_placed`], built
/// from public stage functions: each round re-places the blocks from the
/// measured traffic, re-refines the partition with a cold OEE run under the
/// candidate map's hop metric, and recompiles the whole program through
/// `compiler`; the first round that does not strictly lower the EPR cost
/// ends the loop.
///
/// `compile_placed` reaches the same result with less work: it re-assigns
/// only moved blocks and schedules once. Both drivers run the same
/// placement and cold refinement each round, so they also agree on the
/// work counters. The property tests and `perf_gate` assert that
/// the two drivers agree on the compile and the report.
///
/// # Errors
///
/// As [`AutoComm::compile_placed`].
pub fn full_recompile_placed(
    compiler: &AutoComm,
    circuit: &Circuit,
    partition: &Partition,
    hw: &HardwareSpec,
    config: &PlacementConfig,
) -> Result<(CompileResult, PlacementReport), CompileError> {
    let topology = hw.topology();
    let mut placement = Placement::identity(partition);
    let mut best = compiler.compile_with_placement(circuit, &placement, hw)?;
    let initial_epr_cost = best.metrics.total_epr_cost;
    let mut iterations = 0usize;
    let mut work = PlacementWork::default();
    for _ in 0..config.refine_iters {
        let traffic = best.metrics.traffic_matrix(placement.num_nodes());
        let (node_map, place_stats) =
            place_blocks_stats(&traffic, topology.num_nodes(), topology, PlaceOptions::default());
        work.place_exchanges += place_stats.exchanges;
        work.saturated |= place_stats.saturated;
        let graph = comm_weighted_graph(&best.aggregated);
        let (refined, oee_stats) = oee_refine_on_stats(
            &graph,
            placement.partition().clone(),
            &node_map,
            topology,
            OeeOptions::default(),
        );
        work.oee_exchanges += oee_stats.exchanges;
        work.oee_scanned += oee_stats.scanned;
        work.oee_cache_hits += oee_stats.cache_hits;
        work.saturated |= oee_stats.saturated;
        let candidate = Placement::new(refined, node_map)?;
        if candidate == placement {
            break; // fixed point
        }
        let result = compiler.compile_with_placement(circuit, &candidate, hw)?;
        if result.metrics.total_epr_cost >= best.metrics.total_epr_cost {
            break; // no improvement: keep the best-so-far compile
        }
        best = result;
        placement = candidate;
        iterations += 1;
    }
    let graph = comm_weighted_graph(&best.aggregated);
    let report = PlacementReport {
        iterations,
        cut_weight: graph.cut_weight(placement.partition()),
        weighted_cost: graph.placed_cut_weight(
            placement.partition(),
            placement.node_map(),
            topology,
        ),
        node_map: placement.node_map().to_vec(),
        initial_epr_cost,
        final_epr_cost: best.metrics.total_epr_cost,
        work,
    };
    Ok((best, report))
}

/// The benchmark list, scaled down when `quick` is set (same workloads and
/// node ratios, smaller registers) so every figure can be smoke-tested.
pub fn configs(quick: bool) -> Vec<BenchConfig> {
    if !quick {
        return dqc_workloads::table2_configs();
    }
    use dqc_workloads::Workload::*;
    let mut rows = Vec::new();
    for w in [Mctr, Rca, Qft, Bv, Qaoa] {
        rows.push(BenchConfig::new(w, 20, 2));
        rows.push(BenchConfig::new(w, 30, 3));
    }
    rows.push(BenchConfig::new(Uccsd, 8, 4));
    rows
}

/// Returns true when the process arguments request quick mode.
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The labelled workload set shared by the deterministic sweep binaries
/// (`buffer_sweep`, `topology_sweep`, `placement_sweep`): every smoke-suite
/// program, optionally followed by the `node_ring_exchange` interconnect
/// stressor (`RING-X-16-4`, scaled down under `--quick`) and the
/// 1024-qubit power-law `large_sparse_circuit` workload (`large`; 256
/// qubits under `--quick`) that exercises the sparse-graph placement path
/// at a register size the smoke suite never reaches.
///
/// Keeping the list in one place keeps the three recorded sweep baselines
/// in lockstep: a workload added here reaches every sweep at once. Only
/// `placement_sweep` opts into `large` — the buffer and topology sweeps
/// measure the scheduler, where a 1024-qubit register adds minutes of
/// runtime without touching the code under test.
pub fn sweep_inputs(
    nodes: usize,
    stressor: bool,
    quick: bool,
    large: bool,
) -> Vec<(String, Circuit)> {
    let mut inputs: Vec<(String, Circuit)> =
        smoke_suite().into_iter().map(|config| (config.label(), generate(&config))).collect();
    if stressor {
        inputs
            .push(("RING-X-16-4".into(), node_ring_exchange(16, nodes, if quick { 2 } else { 6 })));
    }
    if large {
        let qubits = if quick { 256 } else { 1024 };
        let gates = qubits * 8;
        inputs.push((
            format!("SPARSE-{qubits}-{gates}"),
            dqc_workloads::large_sparse_circuit(qubits, gates, 0x5EED),
        ));
    }
    inputs
}

/// Markdown-ish table printer: header + aligned rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_workloads::Workload;

    #[test]
    fn quick_configs_cover_all_workloads() {
        let rows = configs(true);
        for w in Workload::all() {
            assert!(rows.iter().any(|r| r.workload == w), "{w} missing");
        }
    }

    #[test]
    fn run_config_produces_consistent_row() {
        let row = run_config(&BenchConfig::new(Workload::Qft, 16, 2));
        assert_eq!(row.stats.num_remote_2q, row.metrics.total_rem_cx);
        assert_eq!(row.baseline.total_comms, row.stats.num_remote_2q);
        assert!(row.improv_factor() >= 1.0);
        assert!(row.lat_dec_factor() > 0.0);
    }

    #[test]
    fn ratio_guards_division_by_zero() {
        assert_eq!(super::ratio(5.0, 0.0), 1.0);
        assert_eq!(super::ratio(6.0, 2.0), 3.0);
    }
}

//! Shared JSON report sections.
//!
//! `autocomm compile --json` and the compile service's artifact responses
//! must agree **byte for byte** on every deterministic section (topology,
//! placement, circuit, ir, metrics, buffering, schedule): the service's
//! acceptance bar is that a cache hit returns exactly the bytes a cold
//! compile would have produced, and the easiest way to keep two renderers
//! identical is to have only one. Each section here is the single builder
//! both paths call.

use autocomm::{
    Ablation, BufferingReport, CommMetrics, CompiledArtifact, PlacementReport, PlacementWork,
};
use dqc_circuit::NodeId;

use crate::json::Json;

/// The `"topology"` object: name, link count, diameter.
pub fn topology_json(name: &str, links: usize, diameter: Option<usize>) -> Json {
    Json::object([
        ("name", Json::string(name)),
        ("links", Json::number(links as f64)),
        ("diameter", diameter.map_or(Json::Null, |d| Json::number(d as f64))),
    ])
}

/// The `"placement"` object: strategy echo plus the driver's report and
/// its optimizer work counters.
pub fn placement_json(strategy: &str, p: &PlacementReport) -> Json {
    let w = &p.work;
    Json::object([
        ("strategy", Json::string(strategy)),
        ("iterations", Json::number(p.iterations as f64)),
        ("cut_weight", Json::number(p.cut_weight as f64)),
        ("weighted_cost", Json::number(p.weighted_cost as f64)),
        ("initial_epr_cost", Json::number(p.initial_epr_cost as f64)),
        ("final_epr_cost", Json::number(p.final_epr_cost as f64)),
        ("node_map", Json::array(p.node_map.iter().map(|n| Json::number(n.index() as f64)))),
        ("work", placement_work_json(w)),
    ])
}

/// The `"work"` object nested in `"placement"` (and echoed under
/// `--timings`): what the placement optimizer actually did.
pub fn placement_work_json(w: &PlacementWork) -> Json {
    Json::object([
        ("oee_exchanges", Json::number(w.oee_exchanges as f64)),
        ("oee_scanned", Json::number(w.oee_scanned as f64)),
        ("oee_cache_hits", Json::number(w.oee_cache_hits as f64)),
        ("place_exchanges", Json::number(w.place_exchanges as f64)),
        ("rounds_skipped", Json::number(w.rounds_skipped as f64)),
        ("saturated", Json::Bool(w.saturated)),
    ])
}

/// The `"ablations"` array, in flag order.
pub fn ablations_json(ablations: &[Ablation]) -> Json {
    Json::array(ablations.iter().map(|a| Json::string(a.name())))
}

/// The `"circuit"` object: unrolled-circuit statistics.
pub fn circuit_json(qubits: usize, gates: usize, two_qubit: usize, remote_cx: usize) -> Json {
    Json::object([
        ("qubits", Json::number(qubits as f64)),
        ("gates", Json::number(gates as f64)),
        ("two_qubit_gates", Json::number(two_qubit as f64)),
        ("remote_cx", Json::number(remote_cx as f64)),
    ])
}

/// The `"ir"` object: indexed-IR statistics.
pub fn ir_json(gates: usize, unique_gates: usize, burst_pairs: usize) -> Json {
    Json::object([
        ("gates", Json::number(gates as f64)),
        ("unique_gates", Json::number(unique_gates as f64)),
        ("burst_pairs", Json::number(burst_pairs as f64)),
    ])
}

/// The `"metrics"` object: the paper's Table-3 quantities.
pub fn metrics_json(m: &CommMetrics) -> Json {
    Json::object([
        ("total_comms", Json::number(m.total_comms as f64)),
        ("tp_comms", Json::number(m.tp_comms as f64)),
        ("cat_comms", Json::number((m.total_comms - m.tp_comms) as f64)),
        ("total_rem_cx", Json::number(m.total_rem_cx as f64)),
        ("peak_rem_cx", Json::number(m.peak_rem_cx)),
        ("num_blocks", Json::number(m.num_blocks as f64)),
        ("epr_cost", Json::number(m.total_epr_cost as f64)),
        ("improvement_factor", Json::number(m.improvement_factor())),
    ])
}

/// The `"buffering"` object: what the EPR-buffering engine did.
pub fn buffering_json(b: &BufferingReport) -> Json {
    Json::object([
        ("policy", Json::string(b.policy.name())),
        ("requests", Json::number(b.requests as f64)),
        ("prefetch_hits", Json::number(b.prefetch_hits as f64)),
        ("prefetch_misses", Json::number(b.prefetch_misses as f64)),
        ("hit_rate", Json::number(b.hit_rate)),
        ("mean_epr_wait", Json::number(b.mean_epr_wait)),
        ("mean_pair_age", Json::number(b.mean_pair_age)),
        ("occupancy_hist", Json::array(b.occupancy_hist.iter().map(|&c| Json::number(c as f64)))),
        ("fell_back", Json::Bool(b.fell_back)),
    ])
}

/// The `"schedule"` object: makespan, EPR accounting, per-link traffic.
pub fn schedule_json(
    makespan: f64,
    epr_pairs: usize,
    swaps: usize,
    fusion_savings: usize,
    link_traffic: &[(NodeId, NodeId, usize)],
) -> Json {
    Json::object([
        ("makespan", Json::number(makespan)),
        ("epr_pairs", Json::number(epr_pairs as f64)),
        ("swaps", Json::number(swaps as f64)),
        ("fusion_savings", Json::number(fusion_savings as f64)),
        (
            "link_traffic",
            Json::array(link_traffic.iter().map(|&(a, b, pairs)| {
                Json::object([
                    ("a", Json::number(a.index() as f64)),
                    ("b", Json::number(b.index() as f64)),
                    ("epr_pairs", Json::number(pairs as f64)),
                ])
            })),
        ),
    ])
}

/// Nearest-rank percentile over an unsorted sample set (copies and sorts;
/// the daemon's sample vectors stay small enough that this beats keeping
/// them sorted on every push).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A `{samples, p50, p99}` latency summary — the shape every timing field
/// of the `stats` op uses, aggregate and per-pass alike.
pub fn latency_json(samples: &[f64]) -> Json {
    Json::object([
        ("samples", Json::number(samples.len() as f64)),
        ("p50", Json::number(percentile(samples, 0.50))),
        ("p99", Json::number(percentile(samples, 0.99))),
    ])
}

/// The `"passes"` object of the `stats` op: one latency summary per
/// pipeline pass, in first-seen (pipeline) order.
pub fn pass_latency_json(passes: &[(&'static str, Vec<f64>)]) -> Json {
    Json::object(passes.iter().map(|(name, samples)| (*name, latency_json(samples))))
}

/// Renders a [`CompiledArtifact`] as the deterministic subset of the
/// `compile --json` report: the same sections, built by the same section
/// builders, minus `file`/`passes`/`timings` (whose wall-clock content
/// differs run to run and would break cache-hit byte-identity).
pub fn artifact_json(a: &CompiledArtifact) -> Json {
    let c = &a.config;
    Json::object([
        ("nodes", Json::number(c.nodes as f64)),
        ("comm_qubits", Json::number(c.comm_qubits as f64)),
        ("topology", topology_json(&c.topology, c.links, c.diameter)),
        ("partition", Json::string(c.strategy.clone())),
        ("placement", placement_json(&c.strategy, &a.placement)),
        ("ablations", ablations_json(&c.ablations)),
        (
            "circuit",
            circuit_json(
                a.circuit.qubits,
                a.circuit.gates,
                a.circuit.two_qubit_gates,
                a.circuit.remote_cx,
            ),
        ),
        ("ir", ir_json(a.ir.gates, a.ir.unique_gates, a.ir.burst_pairs)),
        ("metrics", metrics_json(&a.metrics)),
        ("buffering", buffering_json(&a.buffering)),
        (
            "schedule",
            schedule_json(
                a.schedule.makespan,
                a.schedule.epr_pairs,
                a.schedule.swaps,
                a.schedule.fusion_savings,
                &a.schedule.link_traffic,
            ),
        ),
    ])
}

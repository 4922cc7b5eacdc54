//! The traced run: `perfbench trace`.
//!
//! Each traced operation replays `dqc_cli::compile` stage by stage through
//! the public stage functions, wrapping every call in a span recorded from
//! outside the program (name, start, end, parent, operation id, VmRSS at
//! both boundaries). The replay is asserted equal to `compile_placed`'s
//! metrics and schedule, so the spans provably time the same work. Spans
//! are written as Chrome trace-event JSON; per-layer totals, work counters,
//! and trace health (unattributed share, tracing overhead) are printed as
//! one JSON line for the runner.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use autocomm::{
    aggregate_ir_with_stats, assign_incremental, assign_on, comm_weighted_graph,
    orient_symmetric_gates, schedule, AggregateOptions, AggregatedProgram, AssignedProgram,
    AutoCommOptions, CommIr, CommMetrics, CompileResult, PassReport, Placement, PlacementReport,
    PlacementWork, ScheduleOptions, ScheduleSummary,
};
use dqc_circuit::{from_qasm, unroll_circuit, Circuit, CircuitStats, NodeId, Partition};
use dqc_cli::json::Json;
use dqc_cli::{compile, resolve_topology, CompileArgs, CompileReport, PartitionStrategy};
use dqc_hardware::{validate_events, HardwareSpec};
use dqc_partition::{
    oee_refine_cached, oee_refine_on_stats, place_blocks_stats, InteractionGraph, OeeCache,
    OeeOptions, PlaceOptions, UniformDistance,
};

use crate::compile_run::{load_jobs, run_op, Jobs};
use crate::procfs;
use crate::stats::median;

/// Fewest traced (and untraced) operations a traced run makes.
const MIN_TRACED_OPS: usize = 2;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, `<module>.<function>`.
    pub name: String,
    /// Operation id the span belongs to.
    pub op: usize,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, microseconds since the tracer's origin.
    pub start_us: f64,
    /// End, microseconds since the tracer's origin.
    pub end_us: f64,
    /// VmRSS at the start boundary, kB.
    pub rss_start_kb: u64,
    /// VmRSS at the end boundary, kB.
    pub rss_end_kb: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// An in-memory span recorder with per-operation work counters.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
    counters: BTreeMap<(usize, String), f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`; nested spans record this one as
    /// their parent.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let rss_start_kb = procfs::self_rss_kb();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            op: self.op,
            parent: self.stack.last().copied(),
            start_us,
            end_us: start_us,
            rss_start_kb,
            rss_end_kb: rss_start_kb,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        let end_us = self.now_us();
        let span = &mut self.spans[index];
        span.end_us = end_us;
        span.rss_end_kb = procfs::self_rss_kb();
        out
    }

    /// Runs one traced operation under a root span `op`, returning its
    /// wall milliseconds.
    pub fn operation<T>(&mut self, op: usize, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        self.op = op;
        let index = self.spans.len();
        let out = self.span("op", f);
        (out, self.spans[index].ms())
    }

    /// Adds `value` to the current operation's counter `name`.
    pub fn count(&mut self, name: &str, value: f64) {
        *self.counters.entry((self.op, name.to_string())).or_insert(0.0) += value;
    }

    /// Per-operation values of every layer metric: summed span
    /// milliseconds (`<name>.ms`), summed VmRSS growth (`<name>.rss_mb`),
    /// and the counters, keyed by operation id.
    pub fn per_op_metrics(&self) -> BTreeMap<usize, BTreeMap<String, f64>> {
        let mut out: BTreeMap<usize, BTreeMap<String, f64>> = BTreeMap::new();
        for span in &self.spans {
            let m = out.entry(span.op).or_default();
            if span.name != "op" {
                *m.entry(format!("{}.ms", span.name)).or_insert(0.0) += span.ms();
                let growth = (span.rss_end_kb as f64 - span.rss_start_kb as f64) / 1024.0;
                *m.entry(format!("{}.rss_mb", span.name)).or_insert(0.0) += growth;
            }
        }
        for ((op, name), value) in &self.counters {
            *out.entry(*op).or_default().entry(name.clone()).or_insert(0.0) += value;
        }
        out
    }

    /// Per operation, the share of its wall time no layer span covers: the
    /// self time of the `op` root and of each `program.*` wrapper.
    pub fn unattributed_fracs(&self) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ms[parent] += span.ms();
            }
        }
        let mut per_op: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let entry = per_op.entry(span.op).or_default();
            if span.name == "op" {
                entry.1 = span.ms();
            }
            if span.name == "op" || span.name.starts_with("program.") {
                entry.0 += span.ms() - child_ms[i];
            }
        }
        per_op.values().filter(|(_, total)| *total > 0.0).map(|(un, total)| un / total).collect()
    }

    /// The spans as Chrome trace-event JSON (complete `X` events, times in
    /// microseconds), viewable in Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self) -> Json {
        let events = self.spans.iter().enumerate().map(|(i, s)| {
            Json::object([
                ("name", Json::string(s.name.clone())),
                ("cat", Json::string("layer")),
                ("ph", Json::string("X")),
                ("ts", Json::number(s.start_us)),
                ("dur", Json::number(s.end_us - s.start_us)),
                ("pid", Json::number(1.0)),
                ("tid", Json::number(1.0)),
                (
                    "args",
                    Json::object([
                        ("id", Json::number(i as f64)),
                        ("op", Json::number(s.op as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::number(p as f64))),
                        ("rss_start_kb", Json::number(s.rss_start_kb as f64)),
                        ("rss_end_kb", Json::number(s.rss_end_kb as f64)),
                    ]),
                ),
            ])
        });
        Json::object([
            ("traceEvents", Json::array(events)),
            ("displayTimeUnit", Json::string("ms")),
        ])
    }
}

/// What a replayed compile produced, for the equality assertion.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Table-3 metrics of the final placement.
    pub metrics: CommMetrics,
    /// The final schedule.
    pub schedule: ScheduleSummary,
}

/// Pre-schedule artifacts of one placement: what `compile_placed` keeps
/// between rounds.
struct Analysis {
    unrolled: Circuit,
    ir: Arc<CommIr>,
    aggregated: AggregatedProgram,
    assigned: AssignedProgram,
    metrics: CommMetrics,
}

/// orient → unroll → comm-ir → aggregate → assign → metrics for one
/// placement, each stage in its own span.
fn analysis(
    t: &mut Tracer,
    circuit: &Circuit,
    placement: &Placement,
    hw: &HardwareSpec,
) -> Result<Analysis, String> {
    let partition = placement.partition();
    let oriented = t.span("core.orient", |_| orient_symmetric_gates(circuit, partition));
    let unrolled =
        t.span("circuit.unroll", |_| unroll_circuit(&oriented)).map_err(|e| e.to_string())?;
    t.span("cli.teardown", |_| drop(oriented));
    let ir = t.span("core.comm_ir", |_| CommIr::build_shared(&unrolled, partition));
    let (aggregated, stats) = t.span("core.aggregate", |_| {
        aggregate_ir_with_stats(Arc::clone(&ir), AggregateOptions::default())
    });
    t.count("core.aggregate.blocks", aggregated.block_count() as f64);
    t.count("core.aggregate.peak_entries", stats.peak_tracked_entries as f64);
    let assigned = t.span("core.assign", |_| assign_on(&aggregated, placement, hw.topology()));
    let metrics = t.span("core.metrics", |_| CommMetrics::of(&assigned));
    Ok(Analysis { unrolled, ir, aggregated, assigned, metrics })
}

fn traced_schedule(
    t: &mut Tracer,
    assigned: &AssignedProgram,
    placement: &Placement,
    hw: &HardwareSpec,
    options: ScheduleOptions,
) -> ScheduleSummary {
    let s = t.span("core.schedule", |_| schedule(assigned, placement, hw, options));
    t.count("core.schedule.calls", 1.0);
    s
}

/// Replays `dqc_cli::compile(args)` stage by stage (the default
/// optimization set, no ablations), ending with render and teardown like
/// the CLI. Returns the final metrics and schedule.
///
/// # Errors
///
/// Compile failures and unsupported flags, as messages.
pub fn replay(t: &mut Tracer, args: &CompileArgs) -> Result<Outcome, String> {
    if !args.ablations.is_empty() {
        return Err("the traced replay covers the default optimization set only".into());
    }
    let text = t
        .span("cli.read", |_| std::fs::read_to_string(&args.file))
        .map_err(|e| format!("{}: {e}", args.file.display()))?;
    let circuit = t.span("circuit.parse", |_| from_qasm(&text)).map_err(|e| e.to_string())?;
    t.span("cli.teardown", |_| drop(text));
    let partition = match args.strategy {
        PartitionStrategy::Block => {
            Partition::block(circuit.num_qubits(), args.nodes).map_err(|e| e.to_string())?
        }
        PartitionStrategy::Oee | PartitionStrategy::Topo => {
            let unrolled = t
                .span("circuit.unroll", |_| unroll_circuit(&circuit))
                .map_err(|e| e.to_string())?;
            let graph = t.span("partition.graph", |_| InteractionGraph::from_circuit(&unrolled));
            // `oee_partition` is exactly this refinement from the block
            // partition under the uniform metric; spelled out to read its
            // exchange count.
            let (partition, stats) = t
                .span("partition.oee", |_| {
                    let initial = Partition::block(graph.num_qubits(), args.nodes)?;
                    let identity: Vec<NodeId> = (0..args.nodes).map(NodeId::new).collect();
                    Ok::<_, dqc_circuit::CircuitError>(oee_refine_on_stats(
                        &graph,
                        initial,
                        &identity,
                        &UniformDistance,
                        OeeOptions::default(),
                    ))
                })
                .map_err(|e| e.to_string())?;
            t.count("partition.oee.exchanges", stats.exchanges as f64);
            t.span("cli.teardown", |_| drop((unrolled, graph)));
            partition
        }
    };
    let hw = t.span("hardware.build", |_| {
        let topology = resolve_topology(args.topology.as_deref(), partition.num_nodes())
            .map_err(|e| e.to_string())?;
        HardwareSpec::for_partition(&partition)
            .with_comm_qubits(args.comm_qubits)
            .and_then(|hw| hw.with_topology(topology))
            .map_err(|e| e.to_string())
    })?;
    let options = AutoCommOptions::default().with_buffer(args.buffer);
    let refine_iters = if args.strategy == PartitionStrategy::Topo { args.refine_iters } else { 0 };

    // `AutoComm::compile_placed`, stage by stage.
    let topology = hw.topology();
    let mut placement = Placement::identity(&partition);
    let mut cur = analysis(t, &circuit, &placement, &hw)?;
    let identity_schedule = traced_schedule(t, &cur.assigned, &placement, &hw, options.schedule);
    let initial_epr_cost = cur.metrics.total_epr_cost;
    let mut graph = t.span("partition.graph", |_| comm_weighted_graph(&cur.aggregated));
    let mut iterations = 0usize;
    let mut work = PlacementWork::default();
    let mut oee_cache = OeeCache::new();
    let mut prev_pair_comms: Option<Vec<(NodeId, NodeId, usize)>> = None;
    for _ in 0..refine_iters {
        if prev_pair_comms.as_ref() == Some(&cur.metrics.pair_comms) {
            work.rounds_skipped += 1;
            break;
        }
        let traffic = cur.metrics.traffic_matrix(placement.num_nodes());
        let (node_map, place_stats) = t.span("partition.place", |_| {
            place_blocks_stats(&traffic, topology.num_nodes(), topology, PlaceOptions::default())
        });
        work.place_exchanges += place_stats.exchanges;
        work.saturated |= place_stats.saturated;
        let (refined, oee_stats) = t.span("partition.refine", |_| {
            oee_refine_cached(
                &graph,
                placement.partition().clone(),
                &node_map,
                topology,
                OeeOptions::default(),
                &mut oee_cache,
            )
        });
        work.oee_exchanges += oee_stats.exchanges;
        work.oee_scanned += oee_stats.scanned;
        work.oee_cache_hits += oee_stats.cache_hits;
        work.saturated |= oee_stats.saturated;
        let candidate = Placement::new(refined, node_map).map_err(|e| e.to_string())?;
        if candidate == placement {
            break;
        }
        let same_partition = candidate.partition() == placement.partition();
        let (rebuilt, assigned, metrics) = if same_partition {
            let inc = t.span("core.assign_incremental", |_| {
                assign_incremental(&cur.assigned, &placement, &candidate, topology, true)
            });
            let m = t.span("core.metrics", |_| CommMetrics::of(&inc));
            (None, inc, m)
        } else {
            let a = analysis(t, &circuit, &candidate, &hw)?;
            (Some((a.unrolled, a.ir, a.aggregated)), a.assigned, a.metrics)
        };
        if metrics.total_epr_cost < cur.metrics.total_epr_cost {
            prev_pair_comms =
                (rebuilt.is_none() && !oee_stats.saturated).then(|| cur.metrics.pair_comms.clone());
            if let Some((unrolled, ir, aggregated)) = rebuilt {
                graph = t.span("partition.graph", |_| comm_weighted_graph(&aggregated));
                (cur.unrolled, cur.ir, cur.aggregated) = (unrolled, ir, aggregated);
            }
            cur.assigned = assigned;
            cur.metrics = metrics;
            placement = candidate;
            iterations += 1;
        } else {
            break;
        }
    }
    t.count("partition.rounds.accepted", iterations as f64);
    t.count("partition.rounds.skipped", work.rounds_skipped as f64);
    t.count("partition.place.exchanges", work.place_exchanges as f64);
    t.count("partition.refine.exchanges", work.oee_exchanges as f64);
    t.count("partition.refine.scanned", work.oee_scanned as f64);
    t.count("partition.refine.cache_hits", work.oee_cache_hits as f64);
    let schedule = if iterations == 0 {
        identity_schedule
    } else {
        traced_schedule(t, &cur.assigned, &placement, &hw, options.schedule)
    };
    t.count("core.schedule.fell_back", f64::from(u8::from(schedule.buffering.fell_back)));
    t.count("core.schedule.prefetch_hits", schedule.buffering.prefetch_hits as f64);
    t.count("core.schedule.requests", schedule.buffering.requests as f64);
    t.count("hardware.epr_pairs", schedule.epr_pairs as f64);
    t.count("hardware.swaps", schedule.swaps as f64);
    let report_placement = t.span("partition.report", |_| PlacementReport {
        iterations,
        cut_weight: graph.cut_weight(placement.partition()),
        weighted_cost: graph.placed_cut_weight(
            placement.partition(),
            placement.node_map(),
            topology,
        ),
        node_map: placement.node_map().to_vec(),
        initial_epr_cost,
        final_epr_cost: cur.metrics.total_epr_cost,
        work,
    });
    t.span("cli.teardown", |_| drop((graph, oee_cache)));

    // Finish as the CLI does: statistics, render, drop.
    let final_partition = placement.partition().clone();
    let stats = t.span("cli.stats", |_| CircuitStats::of(&cur.unrolled, Some(&final_partition)));
    let outcome = Outcome { metrics: cur.metrics.clone(), schedule: schedule.clone() };
    // The replay keeps its timings in spans; the report's pass list only
    // carries the stage names the CLI renders.
    let passes =
        ["parse", "orient", "unroll", "comm-ir", "aggregate", "assign", "metrics", "schedule"]
            .into_iter()
            .map(|pass| PassReport { pass, duration: Default::default(), metric: None })
            .collect();
    let report = CompileReport {
        args: args.clone(),
        stats,
        partition: final_partition,
        hardware: hw,
        placement: report_placement,
        result: CompileResult {
            unrolled: cur.unrolled,
            placement,
            ir: cur.ir,
            aggregated: cur.aggregated,
            assigned: cur.assigned,
            metrics: cur.metrics,
            schedule,
            passes,
        },
    };
    let bytes = t.span("cli.render", |_| black_box(report.to_json().to_string()).len());
    t.count("cli.render.bytes", bytes as f64);
    t.span("cli.teardown", |_| drop((report, circuit)));
    Ok(outcome)
}

/// Replays every job of an operation, each under a `program.<label>` span.
fn replay_op(t: &mut Tracer, jobs: &Jobs) -> Result<Vec<Outcome>, String> {
    jobs.iter()
        .map(|(job, args)| t.span(&format!("program.{}", job.label), |t| replay(t, args)))
        .collect()
}

/// The reference results (`dqc_cli::compile` → `compile_placed`) of every
/// job, plus the event-log validation of each job's final schedule.
fn reference(jobs: &Jobs) -> Result<Vec<Outcome>, String> {
    jobs.iter()
        .map(|(job, args)| {
            let report: CompileReport =
                compile(args.clone()).map_err(|e| format!("{}: {e}", job.label))?;
            let r = &report.result;
            let options = ScheduleOptions {
                record_events: true,
                ..AutoCommOptions::default().with_buffer(args.buffer).schedule
            };
            let recorded = schedule(&r.assigned, &r.placement, &report.hardware, options);
            let events = recorded.events.as_deref().unwrap_or_default();
            validate_events(events, &report.hardware)
                .map_err(|e| format!("{}: schedule event log invalid: {e}", job.label))?;
            if events.is_empty() && r.metrics.total_comms > 0 {
                return Err(format!("{}: no schedule events recorded", job.label));
            }
            Ok(Outcome { metrics: r.metrics.clone(), schedule: r.schedule.clone() })
        })
        .collect()
}

/// Runs the traced phase for `seconds`, writes the Chrome trace to
/// `trace_out`, and prints the per-layer metrics as one JSON line.
///
/// # Errors
///
/// Manifest and I/O failures (the runner reports them as a failed run).
pub fn main(dir: &Path, seconds: f64, trace_out: &Path) -> Result<(), String> {
    let jobs = load_jobs(dir)?;
    let mut attempted = 1usize;
    let mut errors = Vec::new();
    let expected = reference(&jobs).map_err(|e| errors.push(e)).ok();
    let mut failed = errors.len();
    let mut tracer = Tracer::default();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for op in 0.. {
        let (ms, _, op_errors) = run_op(&jobs);
        untraced_ms.push(ms);
        let (replayed, ms) = tracer.operation(op, |t| replay_op(t, &jobs));
        traced_ms.push(ms);
        attempted += 2;
        let replay_ok = match (&replayed, &expected) {
            (Ok(got), Some(want)) => got == want,
            _ => false,
        };
        if !op_errors.is_empty() || !replay_ok {
            failed += 1;
            errors.extend(op_errors);
            match replayed {
                Err(e) => errors.push(e),
                Ok(_) => errors.push(format!("op {op}: replay differs from compile_placed")),
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        if traced_ms.len() >= MIN_TRACED_OPS && elapsed + ms / 1e3 * 2.0 > seconds {
            break;
        }
    }
    std::fs::write(trace_out, tracer.chrome_json().to_string())
        .map_err(|e| format!("{}: {e}", trace_out.display()))?;

    let per_op = tracer.per_op_metrics();
    let mut layers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for metrics in per_op.values() {
        for (name, value) in metrics {
            layers.entry(name.clone()).or_default().push(*value);
        }
    }
    let mut out: Vec<(String, f64)> =
        layers.into_iter().map(|(name, values)| (name, median(&values))).collect();
    let get = |out: &[(String, f64)], name: &str| {
        out.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v)
    };
    let requests = get(&out, "core.schedule.requests");
    let hit_rate =
        if requests > 0.0 { get(&out, "core.schedule.prefetch_hits") / requests } else { 0.0 };
    let (hits, scanned) =
        (get(&out, "partition.refine.cache_hits"), get(&out, "partition.refine.scanned"));
    let cache_ratio = if hits + scanned > 0.0 { hits / (hits + scanned) } else { 0.0 };
    let untraced = median(&untraced_ms);
    out.extend([
        ("core.schedule.prefetch_hit_rate".to_string(), hit_rate),
        ("partition.refine.cache_hit_ratio".to_string(), cache_ratio),
        ("trace.unattributed_frac".to_string(), median(&tracer.unattributed_fracs())),
        ("trace.overhead_frac".to_string(), (median(&traced_ms) - untraced) / untraced),
        ("trace.ops".to_string(), traced_ms.len() as f64),
    ]);
    let line = Json::object([
        ("attempted", Json::number(attempted as f64)),
        ("failed", Json::number(failed as f64)),
        ("errors", Json::array(errors.into_iter().map(Json::string))),
        ("layers", Json::object(out.iter().map(|(n, v)| (n.as_str(), Json::number(*v))))),
    ]);
    println!("{line}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_equals_compile_placed_on_a_suite_program() {
        let dir = std::env::temp_dir().join(format!("perfbench-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = dqc_workloads::BenchConfig::new(dqc_workloads::Workload::Qft, 24, 4);
        let file = dir.join("qft.qasm");
        std::fs::write(&file, dqc_circuit::to_qasm(&dqc_workloads::generate(&config))).unwrap();
        for flags in [
            "--nodes 4 --placement oee",
            "--nodes 4 --topology linear --placement topo --buffer prefetch:4",
        ] {
            let argv = std::iter::once(file.display().to_string())
                .chain(flags.split_whitespace().map(str::to_string));
            let args = CompileArgs::parse(argv).unwrap();
            let report = compile(args.clone()).unwrap();
            let mut tracer = Tracer::default();
            let (got, _) = tracer.operation(0, |t| replay(t, &args));
            let got = got.unwrap();
            assert_eq!(got.metrics, report.result.metrics, "{flags}");
            assert_eq!(got.schedule, report.result.schedule, "{flags}");
            // Every span closed inside the root, and layers cover the op.
            assert!(tracer.spans.iter().all(|s| s.end_us >= s.start_us));
            assert!(tracer.unattributed_fracs()[0] < 0.5);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spans_nest_and_export_as_chrome_events() {
        let mut t = Tracer::default();
        let ((), _) = t.operation(3, |t| {
            t.span("a.outer", |t| {
                t.span("b.inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)))
            });
            t.count("a.items", 5.0);
        });
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.op == 3));
        let metrics = &t.per_op_metrics()[&3];
        assert!(metrics["b.inner.ms"] >= 2.0);
        assert!(metrics["a.outer.ms"] >= metrics["b.inner.ms"]);
        assert_eq!(metrics["a.items"], 5.0);
        let json = t.chrome_json().to_string();
        assert!(json.contains("\"ph\":\"X\"") && json.contains("\"parent\":1"));
    }
}

//! The `autocomm batch` driver: compile a whole directory of QASM programs
//! (or the built-in workload suite) across a worker pool and emit one
//! aggregated metrics report.
//!
//! The indexed-IR pipeline made single compiles cheap enough that whole
//! suites compile in milliseconds; this driver fans inputs over `--jobs`
//! std threads (each compile is a pure function of its input, so the
//! report is byte-identical for every job count — only the timing fields
//! vary) and totals the paper metrics across the batch.

use std::path::PathBuf;
use std::time::Instant;

use dqc_circuit::{from_qasm, Circuit};
use dqc_workloads::{generate, smoke_suite};

use crate::job::{positive, run_job, Compiled, Job, PartitionStrategy};
use crate::json::Json;
use crate::pool::par_rows;
use crate::CliError;

/// Where a batch gets its programs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchSource {
    /// Every `*.qasm` file in a directory, sorted by file name.
    Dir(PathBuf),
    /// The built-in smoke suite ([`dqc_workloads::smoke_suite`]).
    Suite,
}

/// Parsed `autocomm batch` invocation.
#[derive(Clone, Debug)]
pub struct BatchArgs {
    /// Input programs.
    pub source: BatchSource,
    /// The job every program is compiled as.
    pub job: Job,
    /// Worker threads (defaults to available parallelism, capped at 8).
    pub jobs: usize,
    /// Emit JSON instead of the human-readable report.
    pub json: bool,
    /// Add a `"timings"` object (per-pass wall-clock totals summed across
    /// every program) to the JSON report.
    pub timings: bool,
}

impl BatchArgs {
    /// Parses the arguments following the `batch` subcommand.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] on unknown flags, malformed values, or a
    /// missing input/`--nodes`.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<BatchArgs, CliError> {
        let (mut dir, mut suite, mut jobs, mut json, mut timings) =
            (None, false, None, false, false);
        let job = Job::from_args(args, |arg, rest| {
            match arg {
                "--suite" => suite = true,
                "--jobs" => {
                    let v = rest.next().ok_or("--jobs needs a value")?;
                    jobs = Some(positive(&v).map_err(|e| format!("--jobs: {e}"))?);
                }
                "--json" => json = true,
                "--timings" => timings = true,
                flag if flag.starts_with('-') => return Err(format!("unknown option '{flag}'")),
                positional => {
                    if dir.replace(PathBuf::from(positional)).is_some() {
                        return Err(format!(
                            "unexpected extra argument '{positional}' (one input directory expected)"
                        ));
                    }
                }
            }
            Ok(())
        })
        .map_err(CliError::Usage)?;
        let source = match (dir, suite) {
            (Some(d), false) => BatchSource::Dir(d),
            (None, true) => BatchSource::Suite,
            (Some(_), true) => {
                return Err(CliError::Usage(
                    "pass either an input directory or --suite, not both".into(),
                ))
            }
            (None, false) => {
                return Err(CliError::Usage(
                    "missing input: a directory of .qasm files or --suite".into(),
                ))
            }
        };
        Ok(BatchArgs { source, job, jobs: jobs.unwrap_or_else(default_jobs), json, timings })
    }
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

/// One program to compile.
#[derive(Clone, Debug)]
enum BatchTask {
    File(PathBuf),
    Generated(dqc_workloads::BenchConfig),
}

impl BatchTask {
    fn label(&self) -> String {
        match self {
            BatchTask::File(p) => p
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| p.display().to_string()),
            BatchTask::Generated(c) => c.label(),
        }
    }

    fn load(&self) -> Result<Circuit, String> {
        match self {
            BatchTask::File(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                from_qasm(&text).map_err(|e| format!("{}: {e}", path.display()))
            }
            BatchTask::Generated(config) => Ok(generate(config)),
        }
    }
}

/// The metrics of one successfully compiled batch entry.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchRow {
    /// Input label (file stem or workload label).
    pub label: String,
    /// Logical qubits.
    pub qubits: usize,
    /// Unrolled gate count.
    pub gates: usize,
    /// Remote two-qubit gates under the chosen partition.
    pub remote_cx: usize,
    /// Paper "Tot Comm".
    pub total_comms: usize,
    /// Paper "TP-Comm".
    pub tp_comms: usize,
    /// Paper improvement factor vs the sparse baseline.
    pub improvement: f64,
    /// Schedule makespan in CX units.
    pub makespan: f64,
    /// Assignment-level hop-weighted EPR cost (`Σ comms × hops`) — the
    /// quantity the placement strategies compete on.
    pub epr_cost: usize,
    /// Accepted placement-refinement rounds (0 unless `--placement topo`).
    pub placement_iters: usize,
    /// EPR pairs consumed by the schedule (one per hop on sparse
    /// topologies).
    pub epr_pairs: usize,
    /// Entanglement swaps performed at relay nodes.
    pub swaps: usize,
    /// EPR pairs generated per interconnect link, `(node, node, pairs)`.
    pub link_traffic: Vec<(usize, usize, usize)>,
    /// Prefetch hits of the buffered scheduler (0 under on-demand).
    pub prefetch_hits: usize,
    /// Comm requests the scheduler served.
    pub comm_requests: usize,
    /// Mean time bursts waited for their EPR pair, in CX units.
    pub mean_epr_wait: f64,
    /// Whether the buffered schedule fell back to the on-demand rail.
    pub fell_back: bool,
    /// Per-pass wall-clock times of this entry, `(pass, ms)` in pipeline
    /// order (feeds the aggregated `--timings` object).
    pub pass_ms: Vec<(&'static str, f64)>,
    /// Wall-clock compile time of this entry, in milliseconds.
    pub compile_ms: f64,
}

/// The aggregated outcome of a batch run.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// The parsed arguments.
    pub args: BatchArgs,
    /// Per-entry results in input order (`Err` holds the failure message).
    pub rows: Vec<Result<BatchRow, String>>,
    /// Wall-clock time of the whole batch, in milliseconds.
    pub wall_ms: f64,
}

/// Compiles every input across a `--jobs`-wide std-thread worker pool.
///
/// Workers are panic-hardened: a compile that panics (a malformed
/// hand-built pipeline, a scheduler invariant violation) becomes that
/// entry's failure row instead of aborting the whole batch.
///
/// # Errors
///
/// Fails fast on unusable input sets (unreadable directory, no `.qasm`
/// files, an invalid `--topology`); per-entry compile failures land in
/// their row instead.
pub fn run_batch(args: BatchArgs) -> Result<BatchReport, CliError> {
    let tasks = collect_tasks(&args)?;
    // Validate the hardware configuration once up front: a bad topology
    // or an infeasible comm-qubit/topology combination fails fast as one
    // usage error instead of once per row.
    args.job.hardware()?;
    let started = Instant::now();
    let rows = par_rows(
        tasks.len(),
        args.jobs,
        |i| compile_task(&tasks[i], &args.job),
        |i, msg| Err(format!("{}: compile panicked: {msg}", tasks[i].label())),
    )
    .into_iter()
    .enumerate()
    .map(|(i, r)| {
        r.unwrap_or_else(|| Err(format!("{}: worker died before reporting", tasks[i].label())))
    })
    .collect();
    Ok(BatchReport { args, rows, wall_ms: started.elapsed().as_secs_f64() * 1e3 })
}

fn collect_tasks(args: &BatchArgs) -> Result<Vec<BatchTask>, CliError> {
    match &args.source {
        BatchSource::Suite => Ok(smoke_suite().into_iter().map(BatchTask::Generated).collect()),
        BatchSource::Dir(dir) => {
            let entries = std::fs::read_dir(dir).map_err(|e| CliError::Io(dir.clone(), e))?;
            let mut files: Vec<PathBuf> = entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().map(|x| x == "qasm").unwrap_or(false))
                .collect();
            files.sort();
            if files.is_empty() {
                return Err(CliError::Compile(format!(
                    "no .qasm files found in {}",
                    dir.display()
                )));
            }
            Ok(files.into_iter().map(BatchTask::File).collect())
        }
    }
}

fn compile_task(task: &BatchTask, job: &Job) -> Result<BatchRow, String> {
    let started = Instant::now();
    let circuit = task.load()?;
    // Front-end time: QASM read+parse for file tasks, generation for
    // workload tasks — prepended to `pass_ms` so the batch timing columns
    // cover the whole run like the single-compile `--timings` object.
    let parse_ms = started.elapsed().as_secs_f64() * 1e3;
    let Compiled { stats, placement, result, .. } =
        run_job(&circuit, job).map_err(|e| e.to_string())?;
    Ok(BatchRow {
        label: task.label(),
        qubits: circuit.num_qubits(),
        gates: stats.num_gates,
        remote_cx: stats.num_remote_2q,
        total_comms: result.metrics.total_comms,
        tp_comms: result.metrics.tp_comms,
        epr_cost: result.metrics.total_epr_cost,
        placement_iters: placement.iterations,
        improvement: result.metrics.improvement_factor(),
        makespan: result.schedule.makespan,
        epr_pairs: result.schedule.epr_pairs,
        swaps: result.schedule.swaps,
        link_traffic: result
            .schedule
            .link_traffic
            .iter()
            .map(|&(a, b, pairs)| (a.index(), b.index(), pairs))
            .collect(),
        prefetch_hits: result.schedule.buffering.prefetch_hits,
        comm_requests: result.schedule.buffering.requests,
        mean_epr_wait: result.schedule.buffering.mean_epr_wait,
        fell_back: result.schedule.buffering.fell_back,
        pass_ms: std::iter::once(("parse", parse_ms))
            .chain(result.passes.iter().map(|p| (p.pass, p.duration.as_secs_f64() * 1e3)))
            .collect(),
        compile_ms: started.elapsed().as_secs_f64() * 1e3,
    })
}

impl BatchReport {
    /// Number of entries that failed to compile.
    pub fn failures(&self) -> usize {
        self.rows.iter().filter(|r| r.is_err()).count()
    }

    fn ok_rows(&self) -> impl Iterator<Item = &BatchRow> {
        self.rows.iter().filter_map(|r| r.as_ref().ok())
    }

    /// Sum of per-entry compile times (the sequential-equivalent cost).
    pub fn cpu_ms(&self) -> f64 {
        self.ok_rows().map(|r| r.compile_ms).sum()
    }

    /// Per-pass wall-clock totals summed over every successful row, in
    /// first-seen pipeline order (every row runs the same pipeline, so this
    /// is simply the pass order).
    pub fn total_pass_ms(&self) -> Vec<(&'static str, f64)> {
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for row in self.ok_rows() {
            for &(pass, ms) in &row.pass_ms {
                match totals.iter_mut().find(|(p, _)| *p == pass) {
                    Some((_, total)) => *total += ms,
                    None => totals.push((pass, ms)),
                }
            }
        }
        totals
    }

    /// Per-link EPR traffic aggregated over every successful row, sorted by
    /// endpoints.
    pub fn total_link_traffic(&self) -> Vec<(usize, usize, usize)> {
        let mut totals: std::collections::BTreeMap<(usize, usize), usize> =
            std::collections::BTreeMap::new();
        for row in self.ok_rows() {
            for &(a, b, pairs) in &row.link_traffic {
                *totals.entry((a, b)).or_default() += pairs;
            }
        }
        totals.into_iter().map(|((a, b), pairs)| (a, b, pairs)).collect()
    }

    /// The machine-readable form emitted under `--json`.
    pub fn to_json(&self) -> Json {
        let totals = |f: fn(&BatchRow) -> f64| self.ok_rows().map(f).sum::<f64>();
        // `--timings` adds the per-pass wall-clock totals (summed across
        // every compiled program) as a flat pass-name -> milliseconds
        // object.
        let timings = self.args.timings.then(|| {
            (
                "timings",
                Json::object(
                    self.total_pass_ms().into_iter().map(|(pass, ms)| (pass, Json::number(ms))),
                ),
            )
        });
        Json::object(
            [
                ("nodes", Json::number(self.args.job.nodes as f64)),
                ("jobs", Json::number(self.args.jobs as f64)),
                (
                    "topology",
                    Json::string(
                        self.args.job.topology.clone().unwrap_or_else(|| "all-to-all".into()),
                    ),
                ),
                ("placement", Json::string(self.args.job.strategy.name())),
                ("refine_iters", Json::number(self.args.job.refine_iters as f64)),
                (
                    "buffering",
                    Json::object([
                        ("policy", Json::string(self.args.job.buffer.name())),
                        (
                            "prefetch_hits",
                            Json::number(
                                self.ok_rows().map(|r| r.prefetch_hits).sum::<usize>() as f64
                            ),
                        ),
                        (
                            "comm_requests",
                            Json::number(
                                self.ok_rows().map(|r| r.comm_requests).sum::<usize>() as f64
                            ),
                        ),
                        (
                            "fallbacks",
                            Json::number(self.ok_rows().filter(|r| r.fell_back).count() as f64),
                        ),
                    ]),
                ),
                (
                    "source",
                    Json::string(match &self.args.source {
                        BatchSource::Dir(d) => d.display().to_string(),
                        BatchSource::Suite => "--suite".to_string(),
                    }),
                ),
                ("programs", Json::number(self.rows.len() as f64)),
                ("failures", Json::number(self.failures() as f64)),
                (
                    "rows",
                    Json::array(self.rows.iter().map(|row| match row {
                        Ok(r) => Json::object([
                            ("label", Json::string(r.label.clone())),
                            ("qubits", Json::number(r.qubits as f64)),
                            ("gates", Json::number(r.gates as f64)),
                            ("remote_cx", Json::number(r.remote_cx as f64)),
                            ("total_comms", Json::number(r.total_comms as f64)),
                            ("tp_comms", Json::number(r.tp_comms as f64)),
                            ("improvement_factor", Json::number(r.improvement)),
                            ("makespan", Json::number(r.makespan)),
                            ("epr_cost", Json::number(r.epr_cost as f64)),
                            ("placement_iters", Json::number(r.placement_iters as f64)),
                            ("epr_pairs", Json::number(r.epr_pairs as f64)),
                            ("swaps", Json::number(r.swaps as f64)),
                            ("prefetch_hits", Json::number(r.prefetch_hits as f64)),
                            ("comm_requests", Json::number(r.comm_requests as f64)),
                            ("mean_epr_wait", Json::number(r.mean_epr_wait)),
                            ("fell_back", Json::Bool(r.fell_back)),
                            (
                                "link_traffic",
                                Json::array(r.link_traffic.iter().map(|&(a, b, pairs)| {
                                    Json::object([
                                        ("a", Json::number(a as f64)),
                                        ("b", Json::number(b as f64)),
                                        ("epr_pairs", Json::number(pairs as f64)),
                                    ])
                                })),
                            ),
                            ("compile_ms", Json::number(r.compile_ms)),
                        ]),
                        Err(msg) => Json::object([("error", Json::string(msg.clone()))]),
                    })),
                ),
                (
                    "totals",
                    Json::object([
                        ("total_comms", Json::number(totals(|r| r.total_comms as f64))),
                        ("tp_comms", Json::number(totals(|r| r.tp_comms as f64))),
                        ("remote_cx", Json::number(totals(|r| r.remote_cx as f64))),
                        ("epr_cost", Json::number(totals(|r| r.epr_cost as f64))),
                        ("epr_pairs", Json::number(totals(|r| r.epr_pairs as f64))),
                        ("swaps", Json::number(totals(|r| r.swaps as f64))),
                        ("makespan", Json::number(totals(|r| r.makespan))),
                        (
                            "link_traffic",
                            Json::array(self.total_link_traffic().into_iter().map(
                                |(a, b, pairs)| {
                                    Json::object([
                                        ("a", Json::number(a as f64)),
                                        ("b", Json::number(b as f64)),
                                        ("epr_pairs", Json::number(pairs as f64)),
                                    ])
                                },
                            )),
                        ),
                    ]),
                ),
                ("cpu_ms", Json::number(self.cpu_ms())),
                ("wall_ms", Json::number(self.wall_ms)),
            ]
            .into_iter()
            .chain(timings),
        )
    }

    /// The human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "batch: {} program(s) over {} node(s), {} job(s)\n",
            self.rows.len(),
            self.args.job.nodes,
            self.args.jobs
        ));
        out.push_str(&format!(
            "  {:<16} {:>6} {:>7} {:>8} {:>9} {:>8} {:>8} {:>10} {:>9}\n",
            "program", "qubits", "gates", "rem CX", "Tot Comm", "TP", "improv", "makespan", "ms"
        ));
        for row in &self.rows {
            match row {
                Ok(r) => out.push_str(&format!(
                    "  {:<16} {:>6} {:>7} {:>8} {:>9} {:>8} {:>7.2}x {:>10.1} {:>9.2}\n",
                    r.label,
                    r.qubits,
                    r.gates,
                    r.remote_cx,
                    r.total_comms,
                    r.tp_comms,
                    r.improvement,
                    r.makespan,
                    r.compile_ms,
                )),
                Err(msg) => out.push_str(&format!("  FAILED: {msg}\n")),
            }
        }
        let comms: usize = self.ok_rows().map(|r| r.total_comms).sum();
        let rem: usize = self.ok_rows().map(|r| r.remote_cx).sum();
        let cost: usize = self.ok_rows().map(|r| r.epr_cost).sum();
        let epr: usize = self.ok_rows().map(|r| r.epr_pairs).sum();
        let swaps: usize = self.ok_rows().map(|r| r.swaps).sum();
        out.push_str(&format!(
            "totals: {} comms for {} remote CX (EPR cost {}, {} EPR pairs scheduled, {} swaps)\n",
            comms, rem, cost, epr, swaps
        ));
        if self.args.job.strategy == PartitionStrategy::Topo {
            let iters: usize = self.ok_rows().map(|r| r.placement_iters).sum();
            out.push_str(&format!(
                "placement: topo ({} refinement round(s) accepted across the batch)\n",
                iters
            ));
        }
        if self.args.job.buffer.is_buffered() {
            let hits: usize = self.ok_rows().map(|r| r.prefetch_hits).sum();
            let requests: usize = self.ok_rows().map(|r| r.comm_requests).sum();
            let fallbacks = self.ok_rows().filter(|r| r.fell_back).count();
            out.push_str(&format!(
                "buffering: {} ({hits}/{requests} prefetch hits, {fallbacks} fallback(s))\n",
                self.args.job.buffer.name()
            ));
        }
        if self.args.job.topology.is_some() {
            let links: Vec<String> = self
                .total_link_traffic()
                .into_iter()
                .map(|(a, b, pairs)| format!("{a}-{b}:{pairs}"))
                .collect();
            out.push_str(&format!(
                "link EPR traffic ({}): {}\n",
                self.args.job.topology.as_deref().unwrap_or("all-to-all"),
                if links.is_empty() { "none".to_string() } else { links.join(" ") }
            ));
        }
        if self.args.timings {
            let passes: Vec<String> = self
                .total_pass_ms()
                .into_iter()
                .map(|(pass, ms)| format!("{pass}:{ms:.2}"))
                .collect();
            out.push_str(&format!("pass timings (ms): {}\n", passes.join(" ")));
        }
        out.push_str(&format!(
            "time: {:.2} ms wall, {:.2} ms cpu ({:.2}x parallel speedup)\n",
            self.wall_ms,
            self.cpu_ms(),
            if self.wall_ms > 0.0 { self.cpu_ms() / self.wall_ms } else { 1.0 }
        ));
        if self.failures() > 0 {
            out.push_str(&format!("{} program(s) FAILED\n", self.failures()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BatchArgs, CliError> {
        BatchArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_suite_invocation() {
        let args = parse(&["--suite", "--nodes", "4", "--jobs", "4", "--json"]).unwrap();
        assert_eq!(args.source, BatchSource::Suite);
        assert_eq!(args.job.nodes, 4);
        assert_eq!(args.jobs, 4);
        assert!(args.json);
    }

    #[test]
    fn parses_directory_invocation_with_defaults() {
        let args = parse(&["bench/qasm", "--nodes", "2"]).unwrap();
        assert_eq!(args.source, BatchSource::Dir(PathBuf::from("bench/qasm")));
        assert_eq!(args.job.comm_qubits, 2);
        assert_eq!(args.job.strategy, PartitionStrategy::Oee);
        assert!(args.jobs >= 1);
        assert!(!args.json);
    }

    #[test]
    fn rejects_bad_usage() {
        for bad in [
            &["--nodes", "2"][..],                   // no input
            &["--suite"][..],                        // no nodes
            &["dir", "--suite", "--nodes", "2"][..], // both inputs
            &["dir", "extra", "--nodes", "2"][..],   // two dirs
            &["--suite", "--nodes", "0"][..],        // zero nodes
            &["--suite", "--nodes", "2", "--jobs", "0"][..],
            &["--suite", "--nodes", "2", "--frob"][..],
            // The legacy --partition alias is gone.
            &["--suite", "--nodes", "2", "--partition", "oee"][..],
        ] {
            assert!(matches!(parse(bad), Err(CliError::Usage(_))), "accepted: {bad:?}");
        }
    }

    #[test]
    fn suite_batch_is_deterministic_across_job_counts() {
        let run = |jobs: usize| {
            let args = parse(&["--suite", "--nodes", "4", "--jobs", &jobs.to_string()]).unwrap();
            run_batch(args).unwrap()
        };
        let sequential = run(1);
        let parallel = run(4);
        assert_eq!(sequential.rows.len(), parallel.rows.len());
        for (a, b) in sequential.rows.iter().zip(&parallel.rows) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.label, b.label);
            assert_eq!(a.total_comms, b.total_comms);
            assert_eq!(a.tp_comms, b.tp_comms);
            assert_eq!(a.epr_pairs, b.epr_pairs);
            assert_eq!(a.makespan, b.makespan);
        }
        assert_eq!(sequential.failures(), 0);
    }

    #[test]
    fn timings_flag_sums_per_pass_totals() {
        let args = parse(&["--suite", "--nodes", "4", "--jobs", "2", "--timings"]).unwrap();
        assert!(args.timings);
        let report = run_batch(args).unwrap();
        assert_eq!(report.failures(), 0);
        let totals = report.total_pass_ms();
        assert!(!totals.is_empty());
        // Every program runs the same pipeline, so each pass total sums
        // one entry per row and every total is non-negative.
        for row in report.ok_rows() {
            assert_eq!(row.pass_ms.len(), totals.len());
        }
        assert!(totals.iter().all(|&(_, ms)| ms >= 0.0));
        let json = report.to_json().to_string();
        assert!(json.contains("\"timings\""));
        assert!(report.to_text().contains("pass timings (ms):"));
        // Without the flag the object stays out of the report.
        let silent =
            run_batch(parse(&["--suite", "--nodes", "4", "--jobs", "2"]).unwrap()).unwrap();
        assert!(!silent.to_json().to_string().contains("\"timings\""));
    }

    #[test]
    fn missing_directory_fails_fast() {
        let args = parse(&["/nonexistent-batch-dir", "--nodes", "2"]).unwrap();
        assert!(matches!(run_batch(args), Err(CliError::Io(_, _))));
    }

    #[test]
    fn bad_topology_fails_fast_as_usage() {
        let args = parse(&["--suite", "--nodes", "4", "--topology", "moebius"]).unwrap();
        assert!(matches!(run_batch(args), Err(CliError::Usage(_))));
        // An infeasible comm-qubit/topology combination also fails fast as
        // one usage error, not once per row.
        let args =
            parse(&["--suite", "--nodes", "4", "--topology", "linear", "--comm-qubits", "1"])
                .unwrap();
        assert!(matches!(run_batch(args), Err(CliError::Usage(_))));
    }

    #[test]
    fn sparse_suite_batch_attributes_link_traffic() {
        let run = |topology: Option<&str>| {
            let mut argv = vec!["--suite", "--nodes", "4", "--jobs", "2"];
            if let Some(t) = topology {
                argv.extend(["--topology", t]);
            }
            run_batch(parse(&argv).unwrap()).unwrap()
        };
        let dense = run(None);
        let sparse = run(Some("linear"));
        assert_eq!(dense.failures(), 0);
        assert_eq!(sparse.failures(), 0);
        // Sparse routing can only cost more EPR pairs and makespan.
        for (d, s) in dense.ok_rows().zip(sparse.ok_rows()) {
            assert_eq!(d.label, s.label);
            assert!(s.epr_pairs >= d.epr_pairs, "{}", s.label);
            assert!(s.makespan + 1e-9 >= d.makespan, "{}", s.label);
        }
        // The chain has 3 links; multi-hop traffic appears on them, and the
        // per-link totals partition the EPR total.
        let links = sparse.total_link_traffic();
        assert!(!links.is_empty());
        assert!(links.iter().all(|&(a, b, _)| b == a + 1), "linear links only");
        let link_sum: usize = links.iter().map(|&(_, _, p)| p).sum();
        let epr_sum: usize = sparse.ok_rows().map(|r| r.epr_pairs).sum();
        assert_eq!(link_sum, epr_sum);
        assert!(sparse.ok_rows().map(|r| r.swaps).sum::<usize>() > 0);
        // The aggregated JSON carries the attribution.
        let json = sparse.to_json().to_string();
        assert!(json.contains("link_traffic"));
        assert!(json.contains("\"swaps\""));
    }

    #[test]
    fn per_entry_failures_are_isolated() {
        let dir = std::env::temp_dir().join(format!("autocomm-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("good.qasm"), "qreg q[4];\ncx q[0], q[2];\n").unwrap();
        std::fs::write(dir.join("bad.qasm"), "qreg q[4];\nfrobnicate q[0];\n").unwrap();
        let args = BatchArgs {
            source: BatchSource::Dir(dir.clone()),
            job: Job { nodes: 2, strategy: PartitionStrategy::Block, ..Job::default() },
            jobs: 2,
            json: false,
            timings: false,
        };
        let report = run_batch(args).unwrap();
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.failures(), 1);
        // Sorted by name: bad.qasm first.
        assert!(report.rows[0].is_err());
        let good = report.rows[1].as_ref().unwrap();
        assert_eq!(good.total_comms, 1);
        let text = report.to_text();
        assert!(text.contains("FAILED"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! The measured process of the compile workloads: `perfbench compile`.
//!
//! One operation compiles every manifest row through `dqc_cli::compile`
//! and renders `CompileReport::to_json`, exactly what a one-shot `autocomm
//! compile --json` does in-process. The first operation of the process is
//! the cold one (set-up); later ones are the warm steady state.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use dqc_cli::json::Json;
use dqc_cli::{compile, CompileArgs};

use crate::checks::{check_report, check_small_instance, compile_args};
use crate::procfs;
use crate::workloads::{read_jobs, JobLine};

/// Fewest timed operations a run makes, however long each takes.
pub const MIN_OPS: usize = 3;

/// The paper's quality metrics of one operation, summed over its compiles.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Quality {
    /// `CommMetrics::total_epr_cost`.
    pub epr_pairs: usize,
    /// `ScheduleSummary::makespan` (CX units).
    pub makespan_cx: f64,
    /// `CommMetrics::total_comms`.
    pub total_comms: usize,
}

impl Quality {
    fn add(&mut self, epr_pairs: usize, makespan_cx: f64, total_comms: usize) {
        self.epr_pairs += epr_pairs;
        self.makespan_cx += makespan_cx;
        self.total_comms += total_comms;
    }

    /// The three counts as JSON fields.
    pub fn fields(&self) -> [(&'static str, Json); 3] {
        [
            ("epr_pairs", Json::number(self.epr_pairs as f64)),
            ("makespan_cx", Json::number(self.makespan_cx)),
            ("total_comms", Json::number(self.total_comms as f64)),
        ]
    }
}

/// Manifest rows paired with their parsed compile arguments.
pub type Jobs = Vec<(JobLine, CompileArgs)>;

/// Reads and parses the manifest of `dir`.
///
/// # Errors
///
/// I/O failures and unparsable flags, as messages.
pub fn load_jobs(dir: &Path) -> Result<Jobs, String> {
    let lines = read_jobs(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    lines.into_iter().map(|job| compile_args(&job).map(|args| (job, args))).collect()
}

/// One operation: every job compiled and rendered, then dropped. Returns
/// the timed milliseconds (checks between render and drop are untimed),
/// the summed quality counts, and any check failures.
pub fn run_op(jobs: &Jobs) -> (f64, Quality, Vec<String>) {
    let mut busy = Duration::ZERO;
    let mut quality = Quality::default();
    let mut errors = Vec::new();
    for (job, args) in jobs {
        let started = Instant::now();
        let report = match compile(args.clone()) {
            Ok(report) => report,
            Err(e) => {
                busy += started.elapsed();
                errors.push(format!("{}: {e}", job.label));
                continue;
            }
        };
        black_box(report.to_json().to_string());
        busy += started.elapsed();
        if let Err(e) = check_report(&job.label, &report) {
            errors.push(e);
        }
        let m = &report.result.metrics;
        quality.add(m.total_epr_cost, report.result.schedule.makespan, m.total_comms);
        let dropped = Instant::now();
        drop(report);
        busy += dropped.elapsed();
    }
    (busy.as_secs_f64() * 1e3, quality, errors)
}

/// Runs the cold operation and then, for `seconds > 0`, the timed warm
/// phase and the small-instance checks; prints one JSON line.
///
/// # Errors
///
/// Manifest failures (the runner reports them as a failed run).
pub fn main(dir: &Path, seconds: f64) -> Result<(), String> {
    let jobs = load_jobs(dir)?;
    let (first_op_ms, first_quality, mut errors) = run_op(&jobs);
    let mut attempted = 1usize;
    let mut failed = usize::from(!errors.is_empty());
    let mut op_ms = Vec::new();
    let mut cpu_ms = 0.0;
    if seconds > 0.0 {
        let cpu_before = procfs::cpu_ms("self").unwrap_or(0.0);
        let started = Instant::now();
        loop {
            let (ms, quality, op_errors) = run_op(&jobs);
            attempted += 1;
            let deterministic = quality == first_quality;
            if !op_errors.is_empty() || !deterministic {
                failed += 1;
                errors.extend(op_errors);
                if !deterministic {
                    errors.push(format!("quality drifted: {quality:?} vs {first_quality:?}"));
                }
            }
            op_ms.push(ms);
            let elapsed = started.elapsed().as_secs_f64();
            if op_ms.len() >= MIN_OPS && elapsed + ms / 1e3 > seconds {
                break;
            }
        }
        cpu_ms = procfs::cpu_ms("self").unwrap_or(0.0) - cpu_before;
        let checks = load_jobs(&dir.join("checks"))?;
        for (job, _) in &checks {
            attempted += 1;
            if let Err(e) = check_small_instance(job) {
                failed += 1;
                errors.push(e);
            }
        }
    }
    let out = Json::object(
        [
            ("first_op_ms", Json::number(first_op_ms)),
            ("op_ms", Json::array(op_ms.iter().map(|&v| Json::number(v)))),
            ("cpu_ms", Json::number(cpu_ms)),
            ("peak_rss_mb", Json::number(procfs::status_mb("self", "VmHWM").unwrap_or(0.0))),
            ("runqueue_ms", Json::number(procfs::self_runqueue_ms())),
            ("attempted", Json::number(attempted as f64)),
            ("failed", Json::number(failed as f64)),
            ("errors", Json::array(errors.into_iter().map(Json::string))),
        ]
        .into_iter()
        .chain(first_quality.fields()),
    );
    println!("{out}");
    Ok(())
}

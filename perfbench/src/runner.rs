//! The benchmark runner: generates inputs in a child process, runs the
//! measured process(es), and prints the result.
//!
//! Output, on stdout: one `metric <name> <value> <unit>` line per metric,
//! one `noise {...}` line of diagnostics (host steal share, run-queue
//! delay, spread of operation times inside the run), and finally the
//! result object `{"correct", "attempted", "failed", "metrics"}`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use dqc_cli::json::Json;

use crate::procfs;
use crate::serve_mix;
use crate::stats::{median, spread};
use crate::workloads::Workload;

/// Cold compile processes whose first operation makes up `setup_s` (the
/// measured process itself is one of them).
const COLD_PROCESSES: usize = 3;

/// A finished run, before printing.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (timed, set-up, and check operations).
    pub attempted: usize,
    /// Operations with a failed correctness check.
    pub failed: usize,
    /// Check failure messages (printed to stderr).
    pub errors: Vec<String>,
    /// `(name, value)` metrics as measured.
    pub metrics: Vec<(String, f64)>,
    /// Noise diagnostics, reported beside the metrics.
    pub noise: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// Folds the `attempted`/`failed`/`errors` fields of a child's JSON
    /// line into this result.
    pub fn absorb_checks(&mut self, line: &Json) {
        self.attempted += field(line, "attempted") as usize;
        self.failed += field(line, "failed") as usize;
        if let Some(Json::Array(errors)) = line.get("errors") {
            self.errors.extend(errors.iter().filter_map(Json::as_str).map(str::to_string));
        }
    }

    /// Records a metric.
    pub fn push_metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }
}

/// A numeric field of a JSON object (0 when absent).
pub fn field(json: &Json, key: &str) -> f64 {
    json.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The `(name, unit)` metrics `BENCHMARK.json` declares under `section`
/// (`end_to_end` or `per_layer`), in declaration order. The file sits in
/// the working directory, the checkout root the benchmark runs from.
/// Metrics a workload does not exercise are printed as 0.
pub fn declared_metrics(section: &str) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Json::Array(metrics)) = json.get(section) else {
        return Err(format!("BENCHMARK.json has no '{section}' list"));
    };
    metrics
        .iter()
        .map(|m| {
            let text = |key| m.get(key).and_then(Json::as_str).map(str::to_string);
            text("name").zip(text("unit")).ok_or_else(|| format!("malformed {section} entry"))
        })
        .collect()
}

/// Runs a child `perfbench` subcommand and parses its last stdout line.
pub fn child_json(exe: &Path, args: &[&str]) -> Result<Json, String> {
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", args[0]))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", args[0], out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Json::parse(last).map_err(|e| format!("{}: unreadable result: {e}", args[0]))
}

/// Removes the run's scratch inputs however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn compile_run(exe: &Path, dir: &str, seconds: f64, out: &mut RunResult) -> Result<(), String> {
    let mut first_ops = Vec::new();
    for _ in 1..COLD_PROCESSES {
        let cold = child_json(exe, &["compile", "--dir", dir, "--seconds", "0"])?;
        first_ops.push(field(&cold, "first_op_ms"));
        out.absorb_checks(&cold);
    }
    let main = child_json(exe, &["compile", "--dir", dir, "--seconds", &seconds.to_string()])?;
    out.absorb_checks(&main);
    first_ops.push(field(&main, "first_op_ms"));
    let op_ms: Vec<f64> = match main.get("op_ms") {
        Some(Json::Array(v)) => v.iter().filter_map(Json::as_f64).collect(),
        _ => Vec::new(),
    };
    if op_ms.is_empty() {
        return Err("the measured process made no timed operation".into());
    }
    let ops = op_ms.len() as f64;
    let p50 = median(&op_ms);
    out.push_metric("setup_s", median(&first_ops) / 1e3);
    out.push_metric("latency_p50_ms", p50);
    // Every compile operation misses every cache there is.
    out.push_metric("miss_latency_p50_ms", p50);
    out.push_metric("throughput_ops", ops * 1e3 / op_ms.iter().sum::<f64>());
    out.push_metric("cpu_ms_per_op", field(&main, "cpu_ms") / ops);
    out.push_metric("peak_rss_mb", field(&main, "peak_rss_mb"));
    for key in ["epr_pairs", "makespan_cx", "total_comms"] {
        out.push_metric(key, field(&main, key));
    }
    out.noise.push(("op_spread_iqr_frac", spread(&op_ms).unwrap_or(0.0)));
    out.noise.push(("ops", ops));
    out.noise.push(("measured_runqueue_ms", field(&main, "runqueue_ms")));
    Ok(())
}

fn trace_run(
    exe: &Path,
    dir: &str,
    seconds: f64,
    trace_out: &Path,
    out: &mut RunResult,
) -> Result<(), String> {
    let line = child_json(
        exe,
        &[
            "trace",
            "--dir",
            dir,
            "--seconds",
            &seconds.to_string(),
            "--trace-out",
            &trace_out.display().to_string(),
        ],
    )?;
    out.absorb_checks(&line);
    if let Some(Json::Object(layers)) = line.get("layers") {
        for (name, value) in layers {
            out.push_metric(name, value.as_f64().unwrap_or(0.0));
        }
    }
    eprintln!("perfbench: chrome trace written to {}", trace_out.display());
    Ok(())
}

/// Runs one workload and prints its result.
///
/// # Errors
///
/// Set-up failures (missing binaries, generator or child-process failure):
/// the run prints no result.
pub fn main(workload: Workload, seed: u64, seconds: u64, traced: bool) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin_dir = exe.parent().ok_or("executable has no directory")?.to_path_buf();
    let autocomm = bin_dir.join("autocomm");
    if !autocomm.is_file() {
        return Err(format!("{} not built", autocomm.display()));
    }
    let declared = declared_metrics(if traced { "per_layer" } else { "end_to_end" })?;
    let seconds = seconds as f64;
    let work = WorkDir(bin_dir.join("perfbench-work").join(format!(
        "{}-{seed}-{}",
        workload.name(),
        std::process::id()
    )));
    let dir = work.0.display().to_string();
    let steal_before = procfs::host_steal();
    let runqueue_before = procfs::self_runqueue_ms();

    let fresh = if workload == Workload::ServeMix { serve_mix::fresh_pool(seconds) } else { 0 };
    let gen = Command::new(&exe)
        .args(["gen", "--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--fresh", &fresh.to_string(), "--out", &dir])
        .status()
        .map_err(|e| format!("spawn gen: {e}"))?;
    if !gen.success() {
        return Err(format!("gen exited with {gen}"));
    }

    let mut out = RunResult::default();
    match (workload.is_compile(), traced) {
        (true, false) => compile_run(&exe, &dir, seconds, &mut out)?,
        (true, true) => {
            let traces = bin_dir.join("perfbench-traces");
            std::fs::create_dir_all(&traces).map_err(|e| format!("{}: {e}", traces.display()))?;
            let trace_out = traces.join(format!("{}-{seed}.json", workload.name()));
            trace_run(&exe, &dir, seconds, &trace_out, &mut out)?;
        }
        (false, _) => serve_mix::run(&autocomm, Path::new(&dir), seed, seconds, traced, &mut out)?,
    }
    out.noise.push(("host_steal_frac", procfs::steal_share(steal_before, procfs::host_steal())));
    out.noise.push(("harness_runqueue_ms", procfs::self_runqueue_ms() - runqueue_before));
    print_result(&out, &declared);
    Ok(())
}

fn print_result(out: &RunResult, declared: &[(String, String)]) {
    let value_of = |name: &str| out.metrics.iter().find(|(n, _)| n == name).map_or(0.0, |m| m.1);
    for (name, unit) in declared {
        println!("metric {name} {} {unit}", value_of(name));
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let noise = Json::object(out.noise.iter().map(|&(k, v)| (k, Json::number(v))));
    println!("noise {noise}");
    let metrics = Json::object(declared.iter().map(|(name, unit)| {
        (
            name.as_str(),
            Json::object([
                ("value", Json::number(value_of(name))),
                ("unit", Json::string(unit.as_str())),
            ]),
        )
    }));
    let result = Json::object([
        ("correct", Json::Bool(out.failed == 0 && out.attempted > 0)),
        ("attempted", Json::number(out.attempted.max(1) as f64)),
        ("failed", Json::number(out.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{result}");
}

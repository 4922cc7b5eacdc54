//! The `serve-mix` workload: the real `autocomm serve` daemon driven over
//! loopback by two closed-loop clients that open one connection per
//! request, as `autocomm submit` does.
//!
//! Set-up launches the daemon and primes it with [`SERVE_PRIMED`] distinct
//! jobs; it is repeated and the median reported. In the timed phase 95% of
//! requests re-submit a primed job drawn Zipf(1.1) and 5% carry a
//! never-seen circuit, so the 64-entry cache sees hits beside misses,
//! inserts and LRU evictions. Every response to a primed job must be
//! byte-identical to that job's cold response.

use std::collections::HashMap;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use autocomm::CompiledArtifact;
use dqc_circuit::{circuit_content_hash, from_qasm};
use dqc_cli::json::Json;
use dqc_cli::serve::{roundtrip, SubmitArgs};

use crate::procfs;
use crate::runner::{field, RunResult};
use crate::stats::{median, percentile, spread};
use crate::workloads::{read_jobs, Rng, SERVE_MISS_SHARE, SERVE_PRIMED, SERVE_ZIPF_S};

/// Daemon launches (each primed from scratch) whose median is `setup_s`.
const LAUNCHES: usize = 3;
/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// Upper bound on the request rate the fresh-circuit pool is sized for.
const MAX_RATE_PER_S: f64 = 500.0;

/// Never-seen circuits to pre-generate for a timed phase of `seconds`.
pub fn fresh_pool(seconds: f64) -> usize {
    (seconds * MAX_RATE_PER_S * SERVE_MISS_SHARE).ceil() as usize + 16
}

/// What one request re-submits.
#[derive(Clone, Copy, Debug)]
enum Pick {
    Primed(usize),
    Fresh(usize),
}

/// The response without the per-request `"service"` object a verbose
/// request splices in before the closing brace.
fn payload(response: &str) -> String {
    match response.rfind(",\"service\":") {
        Some(at) => format!("{}}}", &response[..at]),
        None => response.to_string(),
    }
}

/// A running daemon, shut down (or killed) when dropped.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn launch(autocomm: &Path, dir: &Path) -> Result<Daemon, String> {
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(autocomm)
            .args(["serve", "--port", "0", "--jobs", "2", "--cache-cap", "64", "--port-file"])
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn autocomm serve: {e}"))?;
        let mut daemon = Daemon { child, addr: String::new() };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(port) = text.trim().parse::<u16>() {
                    daemon.addr = format!("127.0.0.1:{port}");
                    return Ok(daemon);
                }
            }
            if Instant::now() > deadline {
                return Err("autocomm serve did not come up".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn stop(mut self) -> Result<(), String> {
        let _ = roundtrip(&self.addr, "{\"op\":\"shutdown\"}");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("autocomm serve exited with {status}")),
                _ if Instant::now() > deadline => return Err("autocomm serve did not stop".into()),
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Sends `requests` from [`CLIENTS`] threads, one connection each, and
/// returns the responses in request order.
fn send_all(addr: &str, requests: &[String]) -> Vec<Result<String, String>> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<String, String>>>> = Mutex::new(vec![None; requests.len()]);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(request) = requests.get(i) else { break };
                let response = roundtrip(addr, request).map_err(|e| e.to_string());
                slots.lock().expect("no client panics holding the lock")[i] = Some(response);
            });
        }
    });
    let slots = slots.into_inner().expect("no client panics holding the lock");
    slots.into_iter().map(|r| r.unwrap_or_else(|| Err("not sent".into()))).collect()
}

/// One timed-phase sample.
struct Sample {
    pick: Pick,
    client_ms: f64,
    response: Result<String, String>,
}

/// The pre-drawn request sequence: every `1 / SERVE_MISS_SHARE`-th request
/// carries the next fresh circuit (an exact share, so runs differ only in
/// which primed jobs they draw); the rest draw a primed rank Zipf(s).
fn draw_sequence(seed: u64, len: usize, fresh: usize) -> Vec<Pick> {
    let weights: Vec<f64> =
        (1..=SERVE_PRIMED).map(|rank| 1.0 / (rank as f64).powf(SERVE_ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let stride = (1.0 / SERVE_MISS_SHARE).round() as usize;
    let mut rng = Rng::new(seed ^ 0x5E57_E000);
    let mut seq = Vec::with_capacity(len);
    for i in 0..len {
        if i % stride == stride - 1 {
            if i / stride == fresh {
                break;
            }
            seq.push(Pick::Fresh(i / stride));
        } else {
            let mut u = rng.next_f64() * total;
            let rank = weights.iter().position(|w| {
                u -= w;
                u < 0.0
            });
            seq.push(Pick::Primed(rank.unwrap_or(SERVE_PRIMED - 1)));
        }
    }
    seq
}

/// Median of `reps` timings of `f`, in milliseconds.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Runs the workload from the inputs in `dir`.
///
/// # Errors
///
/// Daemon start-up and I/O failures.
pub fn run(
    autocomm: &Path,
    dir: &Path,
    seed: u64,
    seconds: f64,
    verbose: bool,
    out: &mut RunResult,
) -> Result<(), String> {
    let jobs = read_jobs(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let request = |path: &str, flags: &[String]| -> Result<String, String> {
        let argv = std::iter::once(path.to_string())
            .chain(flags.iter().cloned())
            .chain(verbose.then(|| "--verbose".to_string()));
        SubmitArgs::parse(argv)
            .and_then(|args| args.request_line())
            .map_err(|e| format!("{path}: {e}"))
    };
    let requests: Vec<String> =
        jobs.iter().map(|j| request(&j.path, &j.flags)).collect::<Result<_, _>>()?;
    let (primed, fresh) = requests.split_at(SERVE_PRIMED.min(requests.len()));

    // Set-up: launch + prime, LAUNCHES times; the last daemon stays up.
    let mut setups = Vec::new();
    let mut cold: Vec<String> = Vec::new();
    let mut daemon = None;
    for launch in 0..LAUNCHES {
        let started = Instant::now();
        let d = Daemon::launch(autocomm, dir)?;
        let responses = send_all(&d.addr, primed);
        setups.push(started.elapsed().as_secs_f64());
        out.attempted += responses.len();
        let payloads: Vec<String> = responses
            .into_iter()
            .map(|r| r.map(|line| payload(&line)).unwrap_or_else(|e| e))
            .collect();
        if launch == 0 {
            cold = payloads;
        } else if payloads != cold {
            out.failed += 1;
            out.errors.push(format!("launch {launch}: cold responses differ between launches"));
        }
        if launch + 1 < LAUNCHES {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one launch");

    // Every primed key's artifact round-trips through its text form; the
    // cold responses also give the workload's quality counts.
    let mut quality = [0.0f64; 3];
    for (i, response) in cold.iter().enumerate() {
        out.attempted += 1;
        let checked = (|| -> Result<(), String> {
            let parsed = Json::parse(response).map_err(|e| format!("cold response: {e}"))?;
            let key = parsed.get("key").and_then(Json::as_str).ok_or("cold response has no key")?;
            let fetch =
                Json::object([("op", Json::string("artifact")), ("key", Json::string(key))]);
            let line = roundtrip(&daemon.addr, &fetch.to_string()).map_err(|e| e.to_string())?;
            let text = Json::parse(&line)
                .ok()
                .and_then(|j| j.get("artifact_text").and_then(Json::as_str).map(str::to_string))
                .ok_or("artifact op returned no text")?;
            let artifact = CompiledArtifact::from_text(&text).map_err(|e| e.to_string())?;
            if artifact.to_text() != text {
                return Err("artifact text does not round-trip".into());
            }
            quality[0] += artifact.metrics.total_epr_cost as f64;
            quality[1] += artifact.schedule.makespan;
            quality[2] += artifact.metrics.total_comms as f64;
            Ok(())
        })();
        if let Err(e) = checked {
            out.failed += 1;
            out.errors.push(format!("primed job {i}: {e}"));
        }
    }

    // Timed phase.
    let sequence = draw_sequence(seed, (seconds * MAX_RATE_PER_S) as usize + 1, fresh.len());
    let next = AtomicUsize::new(0);
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    let pid = daemon.pid();
    let cpu_before = procfs::cpu_ms(&pid).unwrap_or(0.0);
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut mine = Vec::new();
                while started.elapsed().as_secs_f64() < seconds {
                    let Some(&pick) = sequence.get(next.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    let line = match pick {
                        Pick::Primed(i) => &primed[i],
                        Pick::Fresh(i) => &fresh[i],
                    };
                    let sent = Instant::now();
                    let response = roundtrip(&daemon.addr, line).map_err(|e| e.to_string());
                    let client_ms = sent.elapsed().as_secs_f64() * 1e3;
                    mine.push(Sample { pick, client_ms, response });
                }
                samples.lock().expect("no client panics holding the lock").extend(mine);
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_ms = procfs::cpu_ms(&pid).unwrap_or(0.0) - cpu_before;
    let samples = samples.into_inner().expect("no client panics holding the lock");
    let stats = roundtrip(&daemon.addr, "{\"op\":\"stats\"}")
        .ok()
        .and_then(|line| Json::parse(&line).ok())
        .and_then(|j| j.get("stats").cloned())
        .unwrap_or(Json::Null);
    let peak_rss_mb = procfs::status_mb(&pid, "VmHWM").unwrap_or(0.0);
    daemon.stop()?;

    // Checks and per-sample bookkeeping.
    let mut all_ms = Vec::new();
    let mut fresh_ms = Vec::new();
    let mut service: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let (mut hits, mut served) = (0usize, 0usize);
    for sample in &samples {
        out.attempted += 1;
        let verdict = match (&sample.response, sample.pick) {
            (Err(e), _) => Err(e.clone()),
            (Ok(line), Pick::Primed(i)) if payload(line) != cold[i] => {
                Err(format!("response for primed job {i} differs from its cold response"))
            }
            (Ok(line), Pick::Fresh(i)) if !line.starts_with("{\"status\":\"ok\"") => {
                Err(format!("fresh job {i}: {line:.200}"))
            }
            (Ok(line), _) => Ok(line),
        };
        let line = match verdict {
            Ok(line) => line,
            Err(e) => {
                out.failed += 1;
                out.errors.push(e);
                continue;
            }
        };
        all_ms.push(sample.client_ms);
        if matches!(sample.pick, Pick::Fresh(_)) {
            fresh_ms.push(sample.client_ms);
        }
        if let Some(svc) = Json::parse(line).ok().and_then(|j| j.get("service").cloned()) {
            served += 1;
            let e2e = field(&svc, "e2e_ms");
            let hit = svc.get("cache").and_then(Json::as_str) == Some("hit");
            hits += usize::from(hit);
            service
                .entry(if hit { "serve.hit.ms" } else { "serve.miss.ms" })
                .or_default()
                .push(e2e);
            if !hit {
                let compile_ms = field(&svc, "compile_ms");
                service.entry("serve.compile.ms").or_default().push(compile_ms);
                service.entry("serve.queue_wait.ms").or_default().push(e2e - compile_ms);
            }
            service.entry("serve.client_overhead.ms").or_default().push(sample.client_ms - e2e);
        }
    }
    if all_ms.is_empty() || fresh_ms.is_empty() {
        return Err("the timed phase completed no hit and miss requests".into());
    }

    out.push_metric("setup_s", median(&setups));
    out.push_metric("latency_p50_ms", median(&all_ms));
    out.push_metric("miss_latency_p50_ms", median(&fresh_ms));
    out.push_metric("throughput_ops", all_ms.len() as f64 / wall_s);
    out.push_metric("cpu_ms_per_op", cpu_ms / all_ms.len() as f64);
    out.push_metric("peak_rss_mb", peak_rss_mb);
    out.push_metric("epr_pairs", quality[0]);
    out.push_metric("makespan_cx", quality[1]);
    out.push_metric("total_comms", quality[2]);
    out.noise.push(("op_spread_iqr_frac", spread(&all_ms).unwrap_or(0.0)));
    out.noise.push(("ops", all_ms.len() as f64));

    if verbose {
        for (name, values) in &service {
            out.push_metric(name, median(values));
        }
        let lookups = served.max(1) as f64;
        out.push_metric("serve.hit_rate", hits as f64 / lookups);
        out.push_metric(
            "serve.evictions",
            (field(&stats, "cache_misses") - field(&stats, "cache_entries")).max(0.0),
        );
        out.push_metric("serve.requests", all_ms.len() as f64);
        out.push_metric("serve.latency_p99.ms", percentile(&all_ms, 99.0).unwrap_or(0.0));
        // Layers the daemon does not report per request, timed from
        // outside on a primed job's exact bytes.
        let qasm = std::fs::read_to_string(&jobs[0].path).map_err(|e| e.to_string())?;
        out.push_metric("serve.json_parse.ms", time_ms(20, || Json::parse(&primed[0])));
        out.push_metric("circuit.parse.ms", time_ms(20, || from_qasm(&qasm)));
        let circuit = from_qasm(&qasm).map_err(|e| e.to_string())?;
        out.push_metric("circuit.hash.ms", time_ms(20, || circuit_content_hash(&circuit)));
    }
    Ok(())
}

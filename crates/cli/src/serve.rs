//! The `autocomm serve` daemon: compile-as-a-service over TCP.
//!
//! The indexed-IR pipeline made single compiles cheap; what stays
//! expensive in an edit-compile-evaluate loop is paying that cost again
//! for inputs the service has already seen. `serve` keeps a persistent
//! process around a **content-addressed artifact cache**: jobs arrive as
//! newline-delimited JSON over a socket, are keyed by the circuit's
//! 128-bit content hash ([`dqc_circuit::circuit_content_hash`]) plus
//! the decoded [`Job`], and repeat submissions are answered
//! from the cache with the exact bytes a cold compile would produce
//! (responses share their section builders with `compile --json`, see
//! [`crate::sections`]).
//!
//! Three mechanisms carry the load:
//!
//! * a persistent [`WorkerPool`] compiles cache misses off the connection
//!   threads (connections only parse, hash, and wait);
//! * **single-flight** deduplication: N concurrent submissions of the
//!   same cold key enqueue one compile — the rest wait on the in-flight
//!   entry and are answered from its result;
//! * a bounded **segmented LRU** over ready entries (`slru.rs`) keeps
//!   residency flat under sweep workloads, and one-shot submissions
//!   evict only each other, never an entry that was hit since it landed.
//!
//! The protocol (one JSON object per line, see `docs/service.md`):
//!
//! ```text
//! → {"op":"compile","qasm":"...","nodes":4,"placement":"topo", ...}
//! ← {"status":"ok","key":"<hash>:...","artifact":{...}}
//! → {"op":"stats"}
//! ← {"status":"ok","stats":{"cache_hits":...,"e2e_ms":{"p50":...},...}}
//! → {"op":"shutdown"}
//! ← {"status":"ok","shutdown":true}
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use autocomm::{ArtifactCircuitStats, ArtifactConfig, CompiledArtifact};
use dqc_circuit::{circuit_content_hash, from_qasm, Circuit};

use crate::job::{positive, run_job, Compiled, Job};
use crate::json::Json;
use crate::pool::{catch_panic, WorkerPool};
use crate::sections::{artifact_json, latency_json, pass_latency_json};
use crate::slru::SegmentedLru;
use crate::CliError;

/// Parsed `autocomm serve` invocation.
#[derive(Clone, Debug)]
pub struct ServeArgs {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Compile worker threads.
    pub workers: usize,
    /// Maximum ready artifacts kept in the artifact cache.
    pub cache_capacity: usize,
    /// Write the bound port (as one decimal line) here once listening —
    /// how shell drivers (the CI gate) find an ephemeral port.
    pub port_file: Option<PathBuf>,
}

impl ServeArgs {
    /// Parses the arguments following the `serve` subcommand.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] on unknown flags or malformed values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<ServeArgs, CliError> {
        let usage = CliError::Usage;
        let mut port = 7878u16;
        let mut workers = default_workers();
        let mut cache_capacity = 256usize;
        let mut port_file = None;
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let mut value_for =
                |flag: &str| iter.next().ok_or_else(|| usage(format!("{flag} needs a value")));
            match arg.as_str() {
                "--port" => {
                    let v = value_for("--port")?;
                    port = v
                        .parse::<u16>()
                        .map_err(|_| usage(format!("--port: '{v}' is not a port number")))?;
                }
                "--jobs" => {
                    workers = positive(&value_for("--jobs")?)
                        .map_err(|e| usage(format!("--jobs: {e}")))?;
                }
                "--cache-cap" => {
                    cache_capacity = positive(&value_for("--cache-cap")?)
                        .map_err(|e| usage(format!("--cache-cap: {e}")))?;
                }
                "--port-file" => port_file = Some(PathBuf::from(value_for("--port-file")?)),
                other => return Err(usage(format!("unknown option '{other}'"))),
            }
        }
        Ok(ServeArgs { port, workers, cache_capacity, port_file })
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

/// A cached compile: the artifact's canonical text plus the pre-rendered
/// response line (minus trailing newline). Caching the rendered line makes
/// hit/miss byte-identity structural rather than hoped-for.
#[derive(Debug)]
struct CacheEntry {
    artifact_text: String,
    response: String,
    compile_ms: f64,
    /// Per-pass wall-clock milliseconds of the cold compile, in pipeline
    /// order — folded into the daemon's per-pass latency log on a miss.
    pass_ms: Vec<(&'static str, f64)>,
}

/// An in-flight compile other submitters of the same key wait on.
struct Flight {
    result: Mutex<Option<Result<Arc<CacheEntry>, String>>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight { result: Mutex::new(None), done: Condvar::new() }
    }

    fn complete(&self, result: Result<Arc<CacheEntry>, String>) {
        let mut slot = self.result.lock().unwrap_or_else(|p| p.into_inner());
        *slot = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Arc<CacheEntry>, String> {
        let mut slot = self.result.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.done.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
    }
}

enum Lookup {
    /// Ready entry — answer immediately.
    Hit(Arc<CacheEntry>),
    /// Someone else is compiling this key — wait on their flight.
    Coalesce(Arc<Flight>),
    /// This caller owns the compile; everyone else coalesces onto the
    /// returned flight until [`ArtifactCache::complete`] lands.
    Begin(Arc<Flight>),
}

/// The cache's counters, as the `stats` op reports them.
#[derive(Debug, PartialEq, Eq)]
struct CacheCounts {
    hits: usize,
    misses: usize,
    coalesced: usize,
    /// Ready entries resident now.
    entries: usize,
    evictions: usize,
}

struct CacheInner {
    /// Compiled entries under the segmented-LRU policy; only a hit counts
    /// as a use.
    ready: SegmentedLru<String, Arc<CacheEntry>>,
    /// Compiles under way, outside the policy: never counted, never
    /// evicted.
    in_flight: HashMap<String, Arc<Flight>>,
    hits: usize,
    misses: usize,
    coalesced: usize,
    evictions: usize,
}

/// Bounded single-flight cache over compiled artifacts.
struct ArtifactCache {
    inner: Mutex<CacheInner>,
}

impl ArtifactCache {
    fn new(capacity: usize) -> ArtifactCache {
        ArtifactCache {
            inner: Mutex::new(CacheInner {
                ready: SegmentedLru::new(capacity),
                in_flight: HashMap::new(),
                hits: 0,
                misses: 0,
                coalesced: 0,
                evictions: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn begin(&self, key: &str) -> Lookup {
        let mut guard = self.lock();
        let inner = &mut *guard;
        if let Some(entry) = inner.ready.get(key) {
            inner.hits += 1;
            return Lookup::Hit(Arc::clone(entry));
        }
        if let Some(flight) = inner.in_flight.get(key) {
            inner.coalesced += 1;
            return Lookup::Coalesce(Arc::clone(flight));
        }
        inner.misses += 1;
        let flight = Arc::new(Flight::new());
        inner.in_flight.insert(key.to_string(), Arc::clone(&flight));
        Lookup::Begin(flight)
    }

    /// Lands a finished compile: successes become ready (on probation,
    /// evicting past capacity), failures only clear the in-flight slot so
    /// the next submission retries. Either way the flight's waiters are
    /// released.
    fn complete(&self, key: &str, result: Result<CacheEntry, String>) {
        let result = result.map(Arc::new);
        let flight = {
            let mut inner = self.lock();
            if let Ok(entry) = &result {
                if inner.ready.insert(key.to_string(), Arc::clone(entry)) {
                    inner.evictions += 1;
                }
            }
            inner.in_flight.remove(key)
        };
        if let Some(flight) = flight {
            flight.complete(result);
        }
    }

    /// A ready entry, if cached (no hit/miss accounting and no use — the
    /// `artifact` op is an inspection, not a submission).
    fn get_ready(&self, key: &str) -> Option<Arc<CacheEntry>> {
        self.lock().ready.peek(key).cloned()
    }

    fn counts(&self) -> CacheCounts {
        let inner = self.lock();
        CacheCounts {
            hits: inner.hits,
            misses: inner.misses,
            coalesced: inner.coalesced,
            entries: inner.ready.len(),
            evictions: inner.evictions,
        }
    }
}

/// Bounded memo from raw QASM bytes to the circuit content hash.
///
/// Computing a cache key means hashing the *parsed* circuit, and at the
/// 10k-gate tier QASM parsing dominates a cache hit's end-to-end cost.
/// Byte-identical resubmissions — the entire warm path — skip the parse:
/// one linear scan over the request's QASM replaces it. Distinct QASM
/// texts that normalize to the same circuit still converge on the same
/// key through the parse path. The memo evicts by the artifact cache's
/// segmented LRU, so one-shot texts do not flush the hot jobs' entries.
///
/// A text is keyed by its byte length plus a SipHash of its bytes under a
/// per-memo random key, so a client cannot craft a second text that
/// collides with a memoized one and be served another circuit's artifact.
struct HashMemo {
    hasher: RandomState,
    map: Mutex<SegmentedLru<(usize, u64), String>>,
}

impl HashMemo {
    fn new(capacity: usize) -> HashMemo {
        HashMemo { hasher: RandomState::new(), map: Mutex::new(SegmentedLru::new(capacity)) }
    }

    fn key(&self, qasm: &str) -> (usize, u64) {
        (qasm.len(), self.hasher.hash_one(qasm.as_bytes()))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SegmentedLru<(usize, u64), String>> {
        self.map.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn get(&self, qasm: &str) -> Option<String> {
        let key = self.key(qasm);
        self.lock().get(&key).cloned()
    }

    fn insert(&self, qasm: &str, circuit_hash: String) {
        let key = self.key(qasm);
        self.lock().insert(key, circuit_hash);
    }
}

/// Latency samples and request counts behind the `stats` op.
#[derive(Default)]
struct LatencyLog {
    requests: usize,
    compile_ms: Vec<f64>,
    e2e_ms: Vec<f64>,
    /// Per-pass compile samples in first-seen (pipeline) order; only cold
    /// compiles contribute, so the percentiles profile the pipeline, not
    /// the cache.
    pass_ms: Vec<(&'static str, Vec<f64>)>,
}

impl LatencyLog {
    fn record_passes(&mut self, pass_ms: &[(&'static str, f64)]) {
        for &(name, ms) in pass_ms {
            match self.pass_ms.iter_mut().find(|(n, _)| *n == name) {
                Some((_, samples)) => samples.push(ms),
                None => self.pass_ms.push((name, vec![ms])),
            }
        }
    }
}

/// Everything connection handlers share.
struct ServiceState {
    cache: ArtifactCache,
    hash_memo: HashMemo,
    pool: WorkerPool,
    queue_depth: AtomicUsize,
    shutdown: AtomicBool,
    latency: Mutex<LatencyLog>,
}

impl ServiceState {
    fn latency(&self) -> std::sync::MutexGuard<'_, LatencyLog> {
        self.latency.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Compiles one job to a cache entry. Runs on a pool worker. `parse_ms` is
/// the QASM parse time the connection thread already paid for this job
/// (zero only if the circuit came straight from the hash memo, which
/// cannot happen on the miss path) — prepended to the per-pass timings so
/// the service latency log covers the whole front end.
fn compile_entry(
    circuit: &Circuit,
    job: &Job,
    key: &str,
    parse_ms: f64,
) -> Result<CacheEntry, String> {
    let started = Instant::now();
    let Compiled { stats, partition, hardware, placement, result } =
        run_job(circuit, job).map_err(|e| e.to_string())?;
    let artifact = CompiledArtifact::capture(
        ArtifactConfig {
            key: key.to_string(),
            nodes: job.nodes,
            comm_qubits: job.comm_qubits,
            strategy: job.strategy.name().to_string(),
            refine_iters: job.refine_iters,
            buffer: job.buffer,
            ablations: job.ablations.clone(),
            ..ArtifactConfig::default()
        },
        ArtifactCircuitStats {
            qubits: partition.num_qubits(),
            gates: stats.num_gates,
            two_qubit_gates: stats.num_2q,
            remote_cx: stats.num_remote_2q,
        },
        &hardware,
        &placement,
        &result,
    );
    let response = format!(
        "{{\"status\":\"ok\",\"key\":{},\"artifact\":{}}}",
        Json::string(key),
        artifact_json(&artifact)
    );
    Ok(CacheEntry {
        artifact_text: artifact.to_text(),
        response,
        compile_ms: started.elapsed().as_secs_f64() * 1e3,
        pass_ms: std::iter::once(("parse", parse_ms))
            .chain(result.passes.iter().map(|r| (r.pass, r.duration.as_secs_f64() * 1e3)))
            .collect(),
    })
}

fn error_response(message: &str) -> String {
    Json::object([("status", Json::string("error")), ("message", Json::string(message))])
        .to_string()
}

/// Handles one `compile` request end to end on the connection thread:
/// parse → hash → cache lookup → (enqueue and) wait → respond.
fn handle_compile(state: &Arc<ServiceState>, req: &Json) -> String {
    let started = Instant::now();
    let Some(qasm) = req.get("qasm").and_then(Json::as_str) else {
        return error_response("compile request needs a 'qasm' string");
    };
    let job = match Job::from_json(req) {
        Ok(job) => job,
        Err(msg) => return error_response(&msg),
    };
    let verbose = req.get("verbose").and_then(Json::as_bool).unwrap_or(false);
    // Warm fast path: a memoized QASM text yields the content hash (and
    // so the cache key) without parsing the circuit at all.
    let mut parse_ms = 0.0f64;
    let (key, mut circuit) = match state.hash_memo.get(qasm) {
        Some(hash) => (job.key(&hash), None),
        None => {
            let parse_start = Instant::now();
            let circuit = match from_qasm(qasm) {
                Ok(c) => c,
                Err(e) => return error_response(&format!("qasm: {e}")),
            };
            parse_ms = parse_start.elapsed().as_secs_f64() * 1e3;
            let hash = circuit_content_hash(&circuit).to_string();
            state.hash_memo.insert(qasm, hash.clone());
            (job.key(&hash), Some(circuit))
        }
    };
    let (outcome, waited) = match state.cache.begin(&key) {
        Lookup::Hit(entry) => ("hit", Ok(entry)),
        Lookup::Coalesce(flight) => ("coalesced", flight.wait()),
        Lookup::Begin(flight) => {
            // Memo hit but cache miss (evicted entry, or the same circuit
            // under new flags): parse now — the compile needs the circuit.
            let circuit = match circuit.take() {
                Some(c) => c,
                None => {
                    let parse_start = Instant::now();
                    match from_qasm(qasm) {
                        Ok(c) => {
                            parse_ms = parse_start.elapsed().as_secs_f64() * 1e3;
                            c
                        }
                        Err(e) => {
                            let msg = format!("qasm: {e}");
                            state.cache.complete(&key, Err(msg.clone()));
                            return error_response(&msg);
                        }
                    }
                }
            };
            state.queue_depth.fetch_add(1, Ordering::SeqCst);
            let job_state = Arc::clone(state);
            let job_key = key.clone();
            state.pool.execute(move || {
                // `catch_panic` (not just the pool's own hardening)
                // guarantees the flight completes even if the compile
                // panics — a hung flight would deadlock every coalesced
                // waiter.
                let result = catch_panic(|| compile_entry(&circuit, &job, &job_key, parse_ms))
                    .unwrap_or_else(|msg| Err(format!("compile panicked: {msg}")));
                job_state.cache.complete(&job_key, result);
                job_state.queue_depth.fetch_sub(1, Ordering::SeqCst);
            });
            ("miss", flight.wait())
        }
    };
    let entry = match waited {
        Ok(entry) => entry,
        Err(msg) => return error_response(&msg),
    };
    let e2e_ms = started.elapsed().as_secs_f64() * 1e3;
    {
        let mut log = state.latency();
        if outcome == "miss" {
            log.compile_ms.push(entry.compile_ms);
            log.record_passes(&entry.pass_ms);
        }
        log.e2e_ms.push(e2e_ms);
    }
    if !verbose {
        return entry.response.clone();
    }
    // Per-request service metadata is opt-in and spliced *around* the
    // cached line, so the deterministic payload stays byte-identical.
    let service = Json::object([
        ("cache", Json::string(outcome)),
        ("e2e_ms", Json::number(e2e_ms)),
        ("compile_ms", Json::number(entry.compile_ms)),
        ("queue_depth", Json::number(state.queue_depth.load(Ordering::SeqCst) as f64)),
    ]);
    let base = &entry.response;
    format!("{},\"service\":{}}}", &base[..base.len() - 1], service)
}

/// The `artifact` op: fetch a cached compile's canonical serialized form
/// ([`CompiledArtifact::to_text`]) by cache key — the exchange format a
/// client can persist and later re-load with `CompiledArtifact::from_text`.
fn handle_artifact(state: &ServiceState, req: &Json) -> String {
    let Some(key) = req.get("key").and_then(Json::as_str) else {
        return error_response("artifact request needs a 'key' string");
    };
    match state.cache.get_ready(key) {
        Some(entry) => Json::object([
            ("status", Json::string("ok")),
            ("key", Json::string(key)),
            ("artifact_text", Json::string(entry.artifact_text.clone())),
        ])
        .to_string(),
        None => error_response(&format!("no cached artifact for key '{key}'")),
    }
}

fn handle_stats(state: &ServiceState) -> String {
    let CacheCounts { hits, misses, coalesced, entries, evictions } = state.cache.counts();
    let log = state.latency();
    let lookups = hits + misses + coalesced;
    let stats = Json::object([
        ("requests", Json::number(log.requests as f64)),
        ("cache_hits", Json::number(hits as f64)),
        ("cache_misses", Json::number(misses as f64)),
        ("coalesced", Json::number(coalesced as f64)),
        ("hit_rate", Json::number(if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 })),
        ("cache_entries", Json::number(entries as f64)),
        ("cache_evictions", Json::number(evictions as f64)),
        ("queue_depth", Json::number(state.queue_depth.load(Ordering::SeqCst) as f64)),
        ("workers", Json::number(state.pool.workers() as f64)),
        ("compile_ms", latency_json(&log.compile_ms)),
        ("e2e_ms", latency_json(&log.e2e_ms)),
        ("passes", pass_latency_json(&log.pass_ms)),
    ]);
    Json::object([("status", Json::string("ok")), ("stats", stats)]).to_string()
}

/// Handles one request line; the flag reports whether the connection
/// should close (client asked for shutdown).
fn handle_line(state: &Arc<ServiceState>, line: &str) -> (String, bool) {
    let req = match Json::parse(line) {
        Ok(req) => req,
        Err(e) => return (error_response(&format!("malformed request: {e}")), false),
    };
    state.latency().requests += 1;
    match req.get("op").and_then(Json::as_str) {
        Some("compile") => (handle_compile(state, &req), false),
        Some("artifact") => (handle_artifact(state, &req), false),
        Some("stats") => (handle_stats(state), false),
        Some("shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            (
                Json::object([("status", Json::string("ok")), ("shutdown", Json::Bool(true))])
                    .to_string(),
                true,
            )
        }
        Some(other) => (error_response(&format!("unknown op '{other}'")), false),
        None => (error_response("request needs an 'op' field"), false),
    }
}

/// The longest request line the daemon reads, newline excluded (a
/// compile request for a 10k-gate program is a few hundred KB). A
/// longer line gets an error response and its connection is closed, so a
/// client cannot make the daemon buffer without bound.
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

fn handle_connection(state: Arc<ServiceState>, stream: TcpStream) {
    // A short read timeout lets idle connections notice shutdown without
    // a dedicated waker per connection.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    // Each response leaves in one write; Nagle would only hold it back.
    let _ = stream.set_nodelay(true);
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        // Partial bytes kept across read timeouts count against the cap.
        let budget = (MAX_REQUEST_BYTES + 1).saturating_sub(line.len()) as u64;
        match (&mut reader).take(budget).read_line(&mut line) {
            Ok(0) => break, // client closed
            Ok(_) if line.len() > MAX_REQUEST_BYTES && !line.ends_with('\n') => {
                let mut response = error_response(&format!(
                    "request line exceeds the limit of {MAX_REQUEST_BYTES} bytes"
                ));
                response.push('\n');
                let _ = writer.write_all(response.as_bytes());
                break;
            }
            Ok(_) => {
                let (mut response, close) = if line.trim().is_empty() {
                    (String::new(), false)
                } else {
                    handle_line(&state, line.trim_end())
                };
                line.clear();
                if !response.is_empty() {
                    // The newline rides in the same write: a separate
                    // one-byte write would wait on the client's delayed ACK
                    // on a reused connection.
                    response.push('\n');
                    if writer.write_all(response.as_bytes()).is_err() {
                        break;
                    }
                }
                if close {
                    // The acceptor blocks in `accept`; a self-connect to
                    // the listening address (this stream's local address)
                    // makes it loop once more and observe the flag.
                    if let Ok(addr) = writer.local_addr() {
                        wake_acceptor(addr);
                    }
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Timeout: partial bytes (if any) stay in `line`; bail out
                // once shutdown lands so the acceptor can join us.
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Binds `127.0.0.1:{args.port}` and serves until a `shutdown` request.
///
/// # Errors
///
/// [`CliError::Io`] when the port cannot be bound or the `--port-file`
/// cannot be written.
pub fn run_serve(args: ServeArgs) -> Result<(), CliError> {
    let listener = TcpListener::bind(("127.0.0.1", args.port))
        .map_err(|e| CliError::Io(PathBuf::from(format!("127.0.0.1:{}", args.port)), e))?;
    serve_on(listener, args)
}

/// Serves on an already-bound listener until a `shutdown` request — the
/// in-process entry point the service tests and the latency bench use
/// (bind port 0, read the real address back, serve on a thread).
///
/// # Errors
///
/// [`CliError::Io`] when the local address or `--port-file` is unusable.
pub fn serve_on(listener: TcpListener, args: ServeArgs) -> Result<(), CliError> {
    let addr = listener.local_addr().map_err(|e| CliError::Io(PathBuf::from("<listener>"), e))?;
    if let Some(path) = &args.port_file {
        std::fs::write(path, format!("{}\n", addr.port()))
            .map_err(|e| CliError::Io(path.clone(), e))?;
    }
    let state = Arc::new(ServiceState {
        cache: ArtifactCache::new(args.cache_capacity),
        hash_memo: HashMemo::new(args.cache_capacity.saturating_mul(4)),
        pool: WorkerPool::new(args.workers),
        queue_depth: AtomicUsize::new(0),
        shutdown: AtomicBool::new(false),
        latency: Mutex::new(LatencyLog::default()),
    });
    eprintln!(
        "autocomm serve: listening on {addr} ({} worker(s), cache capacity {})",
        state.pool.workers(),
        args.cache_capacity
    );
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Join finished connection threads as new ones arrive: an unjoined
        // thread keeps part of its stack resident, so one connection per
        // request would otherwise grow the daemon's memory without bound.
        let (finished, live) = connections.into_iter().partition(JoinHandle::is_finished);
        connections = live;
        for connection in finished {
            let _ = connection.join();
        }
        let state = Arc::clone(&state);
        // A thread the OS refuses costs this one connection (its stream
        // drops with the closure), not the acceptor.
        match std::thread::Builder::new().spawn(move || handle_connection(state, stream)) {
            Ok(connection) => connections.push(connection),
            Err(e) => eprintln!("autocomm serve: dropped a connection, no thread for it: {e}"),
        }
    }
    // Drain: every connection either finishes its in-flight response
    // (pool workers stay alive until `state` drops) or notices the
    // shutdown flag at its next read timeout.
    for connection in connections {
        let _ = connection.join();
    }
    if let Some(path) = &args.port_file {
        let _ = std::fs::remove_file(path);
    }
    eprintln!("autocomm serve: shut down cleanly");
    Ok(())
}

/// The `shutdown` op requires waking the acceptor, which blocks in
/// `accept`: the handler sets the flag, and this self-connect makes the
/// acceptor loop run one more time and observe it.
fn wake_acceptor(addr: std::net::SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
}

/// Default daemon address of the client modes.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7878";

/// Parsed `autocomm submit` invocation: a compile job shipped to a running
/// daemon instead of compiled in-process.
#[derive(Clone, Debug)]
pub struct SubmitArgs {
    /// Daemon address (`--addr`).
    pub addr: String,
    /// Per-request service metadata in the response (`--verbose`).
    pub verbose: bool,
    /// The compile job itself (same flags as `autocomm compile`).
    pub compile: crate::CompileArgs,
}

impl SubmitArgs {
    /// Parses the arguments following the `submit` subcommand: `--addr`
    /// and `--verbose` here, everything else via [`crate::CompileArgs`].
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] on unknown flags or malformed values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<SubmitArgs, CliError> {
        let mut addr = DEFAULT_ADDR.to_string();
        let mut verbose = false;
        let mut rest = Vec::new();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--addr" => {
                    addr = iter
                        .next()
                        .ok_or_else(|| CliError::Usage("--addr needs a value".into()))?;
                }
                "--verbose" => verbose = true,
                _ => rest.push(arg),
            }
        }
        Ok(SubmitArgs { addr, verbose, compile: crate::CompileArgs::parse(rest)? })
    }

    /// The request line for this job (everything inline; the daemon never
    /// touches the client's filesystem).
    ///
    /// # Errors
    ///
    /// [`CliError::Io`] when the QASM file cannot be read.
    pub fn request_line(&self) -> Result<String, CliError> {
        let c = &self.compile;
        let qasm = std::fs::read_to_string(&c.file).map_err(|e| CliError::Io(c.file.clone(), e))?;
        let mut fields = vec![
            ("op".to_string(), Json::string("compile")),
            ("qasm".to_string(), Json::string(qasm)),
        ];
        if let Json::Object(job) = c.job.to_json() {
            fields.extend(job);
        }
        if self.verbose {
            fields.push(("verbose".to_string(), Json::Bool(true)));
        }
        Ok(Json::Object(fields).to_string())
    }
}

/// Sends one request line to the daemon at `addr` and returns its one
/// response line.
///
/// # Errors
///
/// [`CliError::Compile`] on connection failures or a closed socket.
pub fn roundtrip(addr: &str, request: &str) -> Result<String, CliError> {
    let err = |e: std::fmt::Arguments<'_>| CliError::Compile(format!("service at {addr}: {e}"));
    let stream = TcpStream::connect(addr).map_err(|e| err(format_args!("cannot connect: {e}")))?;
    let _ = stream.set_nodelay(true);
    // The request and its newline leave in one write.
    let mut writer = BufWriter::with_capacity(request.len() + 1, &stream);
    writer
        .write_all(request.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .map_err(|e| err(format_args!("send failed: {e}")))?;
    drop(writer);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err(err(format_args!("connection closed before a response"))),
        Ok(_) => Ok(line.trim_end().to_string()),
        Err(e) => Err(err(format_args!("receive failed: {e}"))),
    }
}

/// Checks a response line's `status`, surfacing service errors as
/// [`CliError::Compile`].
fn expect_ok(response: &str) -> Result<(), CliError> {
    let parsed = Json::parse(response)
        .map_err(|e| CliError::Compile(format!("malformed service response: {e}")))?;
    match parsed.get("status").and_then(Json::as_str) {
        Some("ok") => Ok(()),
        _ => Err(CliError::Compile(
            parsed
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("service reported an error")
                .to_string(),
        )),
    }
}

/// `autocomm submit`: ship one compile job to a running daemon and print
/// its response line.
///
/// # Errors
///
/// I/O and connection failures, plus service-side errors, as [`CliError`].
pub fn run_submit(args: &SubmitArgs) -> Result<(), CliError> {
    let response = roundtrip(&args.addr, &args.request_line()?)?;
    println!("{response}");
    expect_ok(&response)
}

/// `autocomm stats --addr <a>`: print the daemon's aggregate service
/// metrics.
///
/// # Errors
///
/// Connection failures and service-side errors as [`CliError`].
pub fn run_stats(addr: &str) -> Result<(), CliError> {
    let response = roundtrip(addr, "{\"op\":\"stats\"}")?;
    println!("{response}");
    expect_ok(&response)
}

/// `autocomm shutdown --addr <a>`: stop a running daemon.
///
/// # Errors
///
/// Connection failures and service-side errors as [`CliError`].
pub fn run_shutdown(addr: &str) -> Result<(), CliError> {
    let response = roundtrip(addr, "{\"op\":\"shutdown\"}")?;
    println!("{response}");
    expect_ok(&response)
}

/// Parses the trailing `[--addr <a>]` of the `stats`/`shutdown`
/// subcommands.
///
/// # Errors
///
/// Returns [`CliError::Usage`] on unknown flags.
pub fn parse_addr<I: IntoIterator<Item = String>>(args: I) -> Result<String, CliError> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                addr = iter.next().ok_or_else(|| CliError::Usage("--addr needs a value".into()))?;
            }
            other => return Err(CliError::Usage(format!("unknown option '{other}'"))),
        }
    }
    Ok(addr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_misses_texts_differing_in_one_byte_or_in_length() {
        let memo = HashMemo::new(8);
        let text = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n";
        memo.insert(text, "hash-a".into());
        assert_eq!(memo.get(text).as_deref(), Some("hash-a"));
        let flipped = text.replace("q[1]", "q[0]");
        assert_eq!(flipped.len(), text.len());
        assert_eq!(memo.get(&flipped), None, "one differing byte must miss");
        assert_eq!(memo.get(&format!("{text}\n")), None, "a longer text must miss");
        assert_eq!(memo.get(&text[..text.len() - 1]), None, "a shorter text must miss");
        // Two memos key the same text differently, so a collision found
        // against one daemon's key does not carry over to another's.
        let other = HashMemo::new(8);
        assert_ne!(memo.key(text), other.key(text));
    }

    #[test]
    fn memo_keeps_used_texts_through_one_shot_texts() {
        let memo = HashMemo::new(8);
        memo.insert("hot", "hash-hot".into());
        assert!(memo.get("hot").is_some());
        for i in 0..100 {
            memo.insert(&format!("one-shot-{i}"), format!("hash-{i}"));
        }
        assert_eq!(memo.get("hot").as_deref(), Some("hash-hot"));
    }

    fn entry(tag: &str) -> CacheEntry {
        CacheEntry {
            artifact_text: format!("text-{tag}"),
            response: format!("{{\"status\":\"ok\",\"key\":\"{tag}\"}}"),
            compile_ms: 1.0,
            pass_ms: Vec::new(),
        }
    }

    #[test]
    fn cache_hits_after_complete_and_tracks_stats() {
        let cache = ArtifactCache::new(4);
        let Lookup::Begin(flight) = cache.begin("k1") else {
            panic!("first lookup must begin a compile");
        };
        // A second submission of the in-flight key coalesces.
        assert!(matches!(cache.begin("k1"), Lookup::Coalesce(_)));
        cache.complete("k1", Ok(entry("k1")));
        assert!(flight.wait().is_ok());
        assert!(matches!(cache.begin("k1"), Lookup::Hit(_)));
        let counts = cache.counts();
        assert_eq!(
            counts,
            CacheCounts { hits: 1, misses: 1, coalesced: 1, entries: 1, evictions: 0 }
        );
    }

    /// Submits `key` and lands its compile on a miss; true on a hit.
    fn submit(cache: &ArtifactCache, key: &str) -> bool {
        match cache.begin(key) {
            Lookup::Hit(_) => true,
            Lookup::Begin(_) => {
                cache.complete(key, Ok(entry(key)));
                false
            }
            Lookup::Coalesce(_) => panic!("nothing is in flight"),
        }
    }

    #[test]
    fn one_shot_submissions_never_evict_a_hit_entry() {
        let cache = ArtifactCache::new(8);
        for key in ["a", "b", "c"] {
            assert!(!submit(&cache, key));
            assert!(submit(&cache, key));
        }
        for i in 0..100 {
            assert!(!submit(&cache, &format!("one-shot-{i}")));
            assert!(cache.counts().entries <= 8, "ready entries stay within capacity");
        }
        for key in ["a", "b", "c"] {
            assert!(submit(&cache, key), "{key} was hit and must survive the scan");
        }
        let counts = cache.counts();
        assert_eq!((counts.entries, counts.evictions), (8, 103 - 8));
    }

    #[test]
    fn in_flight_keys_are_neither_counted_nor_evicted() {
        let cache = ArtifactCache::new(2);
        let Lookup::Begin(flight) = cache.begin("slow") else { panic!("cold key") };
        for key in ["a", "b", "c", "d"] {
            assert!(!submit(&cache, key));
        }
        assert_eq!(cache.counts().entries, 2, "the in-flight compile holds no slot");
        assert!(matches!(cache.begin("slow"), Lookup::Coalesce(_)), "still in flight");
        cache.complete("slow", Ok(entry("slow")));
        assert!(flight.wait().is_ok());
        assert!(submit(&cache, "slow"), "landed as a ready entry");
        assert_eq!(cache.counts().evictions, 3);
    }

    #[test]
    fn artifact_lookups_do_not_count_as_uses() {
        let cache = ArtifactCache::new(2);
        assert!(!submit(&cache, "a"));
        assert!(!submit(&cache, "b"));
        assert!(cache.get_ready("a").is_some());
        // "a" stayed on probation as its least recently used entry.
        assert!(!submit(&cache, "c"));
        assert!(cache.get_ready("a").is_none());
        assert!(cache.get_ready("b").is_some());
        assert_eq!(cache.counts().hits, 0);
    }

    /// serve-mix's request shape replayed with dummy entries: 48 hot keys
    /// drawn Zipf(1.1) and primed first, every 20th request a one-shot,
    /// 10,000 requests, 64 slots. Plain LRU lets the one-shots push the
    /// Zipf tail out and re-misses it; the segmented LRU keeps it.
    #[test]
    fn replayed_hot_set_survives_one_shot_traffic() {
        const HOT: usize = 48;
        const CAPACITY: usize = 64;
        let weights: Vec<f64> = (1..=HOT).map(|rank| 1.0 / (rank as f64).powf(1.1)).collect();
        let total: f64 = weights.iter().sum();
        let mut state = 0x5EED_u64;
        let mut uniform = || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let sequence: Vec<String> = (0..10_000)
            .map(|i| {
                if i % 20 == 19 {
                    return format!("one-shot-{i}");
                }
                let mut u = uniform() * total;
                let rank = weights.iter().position(|w| {
                    u -= w;
                    u < 0.0
                });
                format!("hot-{}", rank.unwrap_or(HOT - 1))
            })
            .collect();
        let primed = (0..HOT).map(|rank| format!("hot-{rank}"));

        let cache = ArtifactCache::new(CAPACITY);
        for key in primed.clone() {
            submit(&cache, &key);
        }
        let mut slru_remisses = 0;
        for key in &sequence {
            let hit = submit(&cache, key);
            slru_remisses += usize::from(!hit && key.starts_with("hot"));
        }

        // Reference: plain LRU, most recent use at the back.
        let mut lru: Vec<String> = primed.collect();
        let mut lru_remisses = 0;
        for key in &sequence {
            match lru.iter().position(|k| k == key) {
                Some(at) => {
                    let used = lru.remove(at);
                    lru.push(used);
                }
                None => {
                    lru_remisses += usize::from(key.starts_with("hot"));
                    lru.push(key.clone());
                    if lru.len() > CAPACITY {
                        lru.remove(0);
                    }
                }
            }
        }
        assert!(slru_remisses <= 16, "segmented LRU re-missed {slru_remisses} hot requests");
        assert!(lru_remisses >= 150, "plain LRU re-missed only {lru_remisses} hot requests");
    }

    #[test]
    fn failed_compiles_are_not_cached() {
        let cache = ArtifactCache::new(4);
        let Lookup::Begin(flight) = cache.begin("bad") else { panic!("cold key") };
        cache.complete("bad", Err("boom".into()));
        assert_eq!(flight.wait().unwrap_err(), "boom");
        // The slot cleared: the next submission retries from scratch.
        assert!(matches!(cache.begin("bad"), Lookup::Begin(_)));
    }

    #[test]
    fn single_flight_releases_concurrent_waiters() {
        let cache = Arc::new(ArtifactCache::new(4));
        let Lookup::Begin(_) = cache.begin("k") else { panic!("cold key") };
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || match cache.begin("k") {
                    Lookup::Coalesce(flight) => flight.wait().is_ok(),
                    Lookup::Hit(_) => true, // raced past completion
                    Lookup::Begin(_) => false,
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        cache.complete("k", Ok(entry("k")));
        for waiter in waiters {
            assert!(waiter.join().unwrap());
        }
        assert_eq!(cache.counts().misses, 1, "one compile for five submissions");
    }

    #[test]
    fn percentiles_are_order_independent() {
        use crate::sections::percentile;
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.99), 3.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn pass_latency_log_keeps_pipeline_order_and_groups_samples() {
        let mut log = LatencyLog::default();
        log.record_passes(&[("orient", 1.0), ("unroll", 2.0), ("schedule", 5.0)]);
        log.record_passes(&[("orient", 3.0), ("unroll", 4.0), ("schedule", 7.0)]);
        let names: Vec<&str> = log.pass_ms.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["orient", "unroll", "schedule"], "first-seen order");
        assert_eq!(log.pass_ms[0].1, [1.0, 3.0]);
        let rendered = pass_latency_json(&log.pass_ms).to_string();
        assert!(rendered.contains("\"schedule\":{\"samples\":2"), "{rendered}");
    }

    #[test]
    fn submit_request_decodes_to_the_argv_job() {
        let qasm =
            std::env::temp_dir().join(format!("autocomm-submit-{}.qasm", std::process::id()));
        std::fs::write(&qasm, "qreg q[4];\ncx q[0], q[2];\n").unwrap();
        let file = qasm.display().to_string();
        // Every job setting is set away from its default at least once.
        for flags in [
            &["--nodes", "2"][..],
            &["--nodes", "4", "--comm-qubits", "3", "--topology", "grid:2x2"][..],
            &["--nodes", "3", "--placement", "topo", "--refine-iters", "0"][..],
            &["--nodes", "2", "--placement", "block", "--buffer", "prefetch:8"][..],
            &["--nodes", "2", "--buffer", "greedy", "--ablation", "plain-greedy,no-commute"][..],
            &["--nodes", "2", "--ablation", "cat-only", "--ablation", "no-orient", "--verbose"][..],
        ] {
            let argv = std::iter::once(file.clone()).chain(flags.iter().map(|s| s.to_string()));
            let args = SubmitArgs::parse(argv).unwrap();
            let request = Json::parse(&args.request_line().unwrap()).unwrap();
            assert_eq!(Job::from_json(&request).unwrap(), args.compile.job, "{flags:?}");
        }
        std::fs::remove_file(&qasm).ok();
    }

    /// Full in-process service loop: serve on an ephemeral port, submit
    /// the same job twice (cold then warm), check byte-identity and the
    /// hit counter, then shut down cleanly.
    #[test]
    fn service_answers_warm_hits_byte_identically() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let args = ServeArgs { port: 0, workers: 2, cache_capacity: 8, port_file: None };
        let server = std::thread::spawn(move || serve_on(listener, args));

        let request = r#"{"op":"compile","qasm":"qreg q[4];\nh q[0];\ncx q[0], q[2];\ncx q[0], q[3];","nodes":2}"#;
        let cold = roundtrip(&addr, request).unwrap();
        assert!(cold.contains("\"status\":\"ok\""), "{cold}");
        assert!(cold.contains("\"artifact\""), "{cold}");
        let warm = roundtrip(&addr, request).unwrap();
        assert_eq!(warm, cold, "cache hit must be byte-identical");

        let stats = roundtrip(&addr, "{\"op\":\"stats\"}").unwrap();
        let parsed = Json::parse(&stats).unwrap();
        let stat =
            |k: &str| parsed.get("stats").and_then(|s| s.get(k)).and_then(Json::as_f64).unwrap();
        assert_eq!(stat("cache_misses"), 1.0, "{stats}");
        assert_eq!(stat("cache_hits"), 1.0, "{stats}");
        // Per-pass percentiles: one cold compile → one sample per pass,
        // and the cache hit must not add a second.
        let pass_samples = |name: &str| {
            parsed
                .get("stats")
                .and_then(|s| s.get("passes"))
                .and_then(|p| p.get(name))
                .and_then(|p| p.get("samples"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        for pass in ["orient", "unroll", "schedule"] {
            assert_eq!(pass_samples(pass), 1.0, "{stats}");
        }

        // The artifact op returns the canonical text, which round-trips.
        let key =
            Json::parse(&cold).unwrap().get("key").and_then(Json::as_str).unwrap().to_string();
        let fetched = roundtrip(
            &addr,
            &Json::object([("op", Json::string("artifact")), ("key", Json::string(key))])
                .to_string(),
        )
        .unwrap();
        let text = Json::parse(&fetched)
            .unwrap()
            .get("artifact_text")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let artifact = CompiledArtifact::from_text(&text).unwrap();
        assert_eq!(artifact.to_text(), text);

        let bye = roundtrip(&addr, "{\"op\":\"shutdown\"}").unwrap();
        assert!(bye.contains("\"shutdown\":true"), "{bye}");
        server.join().unwrap().unwrap();
    }
}

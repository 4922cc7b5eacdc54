//! End-to-end gate for the compile service: boot the real `autocomm`
//! binary as a daemon, push the workload suite through it twice from
//! concurrent clients, and hold it to the cache contract — a 100%
//! second-pass hit rate with byte-identical responses — plus clean
//! shutdown and exit codes on every client mode.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dqc_cli::json::Json;
use dqc_cli::serve::roundtrip;

/// The running daemon; killed on drop so a failing assertion never
/// leaks a listener into the test harness.
struct Daemon {
    child: Child,
    addr: String,
    port_file: PathBuf,
}

impl Daemon {
    fn start(tag: &str) -> Daemon {
        Daemon::start_with(tag, &["--jobs", "4"])
    }

    /// A daemon started with `serve --port 0` plus `flags`.
    fn start_with(tag: &str, flags: &[&str]) -> Daemon {
        let port_file =
            std::env::temp_dir().join(format!("autocomm-e2e-{tag}-{}.port", std::process::id()));
        std::fs::remove_file(&port_file).ok();
        let child = Command::new(env!("CARGO_BIN_EXE_autocomm"))
            .args(["serve", "--port", "0"])
            .args(flags)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        // The daemon writes the bound port once it is listening.
        let deadline = Instant::now() + Duration::from_secs(30);
        let port = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(port) = text.trim().parse::<u16>() {
                    break port;
                }
            }
            assert!(Instant::now() < deadline, "daemon never wrote {}", port_file.display());
            std::thread::sleep(Duration::from_millis(20));
        };
        Daemon { child, addr: format!("127.0.0.1:{port}"), port_file }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        std::fs::remove_file(&self.port_file).ok();
    }
}

/// The suite as inline compile requests: every workload family, plus
/// sparse-topology / placement / buffering / ablation coverage.
fn suite_requests() -> Vec<String> {
    let req = |circuit: &dqc_circuit::Circuit, extra: &[(&str, Json)]| {
        let mut fields = vec![
            ("op", Json::string("compile")),
            ("qasm", Json::string(dqc_circuit::to_qasm(circuit))),
            ("nodes", Json::number(4.0)),
        ];
        fields.extend(extra.iter().cloned());
        Json::object(fields).to_string()
    };
    vec![
        req(&dqc_workloads::mctr(8), &[]),
        req(&dqc_workloads::rca(8), &[("topology", Json::string("linear"))]),
        req(
            &dqc_workloads::qft(12),
            &[("topology", Json::string("ring")), ("placement", Json::string("topo"))],
        ),
        req(&dqc_workloads::bv(12), &[("buffer", Json::string("prefetch:4"))]),
        req(
            &dqc_workloads::qaoa_maxcut(12, 18, 7),
            &[("ablations", Json::array([Json::string("no-commute")]))],
        ),
        req(&dqc_workloads::uccsd(8), &[("comm_qubits", Json::number(3.0))]),
    ]
}

/// Submits every request from its own client thread (one connection
/// each, all in flight together) and returns the responses in order.
fn concurrent_pass(addr: &str, requests: &[String]) -> Vec<String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|request| scope.spawn(move || roundtrip(addr, request).expect("response")))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    })
}

/// Extracts the raw `"key":{...}` span (balanced braces; none of the
/// compared sections contain braces inside strings).
fn json_object(json: &str, key: &str) -> String {
    let needle = format!("\"{key}\":{{");
    let start = json.find(&needle).unwrap_or_else(|| panic!("{key} missing in {json}"));
    let mut depth = 0usize;
    for (i, b) in json[start..].bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return json[start..=start + i].to_string();
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced {key} object in {json}");
}

fn stat(addr: &str, key: &str) -> f64 {
    let response = roundtrip(addr, "{\"op\":\"stats\"}").expect("stats");
    let parsed = Json::parse(&response).expect("stats parse");
    parsed
        .get("stats")
        .and_then(|stats| stats.get(key))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{key} in {response}"))
}

#[test]
fn suite_twice_is_all_hits_and_byte_identical() {
    let daemon = Daemon::start("suite");
    let addr = daemon.addr.clone();
    let requests = suite_requests();

    // Cold pass: all misses, every job compiles.
    let cold = concurrent_pass(&addr, &requests);
    for (request, response) in requests.iter().zip(&cold) {
        let parsed = Json::parse(response).expect("response parse");
        assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"), "{request}");
        assert!(parsed.get("artifact").is_some(), "artifact missing in {response}");
    }
    let misses_after_cold = stat(&addr, "cache_misses");
    assert_eq!(misses_after_cold, requests.len() as f64, "cold pass must all miss");

    // Warm pass: 100% hit rate, responses byte-identical to the cold pass.
    let warm = concurrent_pass(&addr, &requests);
    assert_eq!(cold, warm, "cache hits must be byte-identical to cold compiles");
    assert_eq!(stat(&addr, "cache_misses"), misses_after_cold, "warm pass must not miss");
    assert!(stat(&addr, "cache_hits") >= requests.len() as f64);
    assert_eq!(stat(&addr, "queue_depth"), 0.0, "nothing left in flight");

    // A malformed line is an error response, not a dead daemon.
    let err = roundtrip(&addr, "{\"op\":\"compile\"}").expect("error response");
    let parsed = Json::parse(&err).expect("error parse");
    assert_eq!(parsed.get("status").and_then(Json::as_str), Some("error"));
    assert!(err.contains("qasm"), "error names the missing field: {err}");

    // Clean shutdown: exit code 0 on both the client and the daemon, and
    // the port file is removed.
    let out = Command::new(env!("CARGO_BIN_EXE_autocomm"))
        .args(["shutdown", "--addr", &addr])
        .output()
        .expect("shutdown client runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let mut daemon = daemon;
    let status = daemon.child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status: {status:?}");
    assert!(!daemon.port_file.exists(), "port file must be cleaned up");
}

#[test]
fn submit_and_stats_clients_round_trip_the_binary() {
    let daemon = Daemon::start("clients");
    let addr = &daemon.addr;
    let qasm =
        std::env::temp_dir().join(format!("autocomm-e2e-submit-{}.qasm", std::process::id()));
    std::fs::write(&qasm, dqc_circuit::to_qasm(&dqc_workloads::qft(12))).unwrap();

    let submit = || {
        let out = Command::new(env!("CARGO_BIN_EXE_autocomm"))
            .args(["submit", qasm.to_str().unwrap(), "--nodes", "4", "--addr", addr])
            .output()
            .expect("submit client runs");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let cold = submit();
    let parsed = Json::parse(cold.trim_end()).expect("submit response parse");
    assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
    // Same job again: served from cache, byte for byte.
    assert_eq!(submit(), cold);

    // The artifact's deterministic sections are byte-identical to a cold
    // `compile --json` run of the same job — same section builders.
    let out = Command::new(env!("CARGO_BIN_EXE_autocomm"))
        .args(["compile", qasm.to_str().unwrap(), "--nodes", "4", "--json"])
        .output()
        .expect("compile runs");
    assert!(out.status.success());
    let compile_json = String::from_utf8(out.stdout).unwrap();
    for key in ["metrics", "schedule", "placement", "buffering", "circuit", "ir"] {
        let section = json_object(&cold, key);
        assert!(
            compile_json.contains(&section),
            "served {key} section drifted from compile --json:\n{section}\n{compile_json}"
        );
    }

    let out = Command::new(env!("CARGO_BIN_EXE_autocomm"))
        .args(["stats", "--addr", addr])
        .output()
        .expect("stats client runs");
    assert!(out.status.success());
    let stats = String::from_utf8(out.stdout).unwrap();
    assert!(stats.contains("\"cache_hits\":1"), "one warm hit expected: {stats}");
    assert!(stats.contains("\"cache_misses\":1"), "one cold miss expected: {stats}");

    // A submit against a dead address is exit code 1, not a hang.
    let out = Command::new(env!("CARGO_BIN_EXE_autocomm"))
        .args(["submit", qasm.to_str().unwrap(), "--nodes", "4", "--addr", "127.0.0.1:1"])
        .output()
        .expect("submit client runs");
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_file(&qasm).ok();
}

fn compile_request(extra: &[(&str, Json)]) -> String {
    let mut fields = vec![
        ("op", Json::string("compile")),
        ("qasm", Json::string(dqc_circuit::to_qasm(&dqc_workloads::qft(8)))),
        ("nodes", Json::number(4.0)),
    ];
    fields.extend(extra.iter().cloned());
    Json::object(fields).to_string()
}

fn error_message(response: &str) -> String {
    let parsed = Json::parse(response).expect("response parse");
    assert_eq!(parsed.get("status").and_then(Json::as_str), Some("error"), "{response}");
    parsed.get("message").and_then(Json::as_str).expect("message").to_string()
}

#[test]
fn hostile_requests_get_error_responses_and_the_daemon_stays_up() {
    let daemon = Daemon::start("hostile");
    let addr = daemon.addr.as_str();

    // 300 KB of '[' used to overflow the parser's recursion and abort the
    // whole daemon.
    let deep = roundtrip(addr, &"[".repeat(300_000)).expect("error response");
    assert!(error_message(&deep).contains("nesting"), "{deep}");
    assert_eq!(stat(addr, "cache_misses"), 0.0);

    // A ~100-byte request used to ask the scheduler for an 800 GB
    // allocation.
    let huge = roundtrip(addr, &compile_request(&[("comm_qubits", Json::number(1e11))]))
        .expect("error response");
    assert!(error_message(&huge).contains("exceeds the limit"), "{huge}");

    // The daemon still compiles normally afterwards.
    let ok = roundtrip(addr, &compile_request(&[])).expect("response");
    assert!(ok.contains("\"status\":\"ok\""), "{ok}");
}

#[test]
fn over_long_request_lines_are_refused_and_the_daemon_stays_up() {
    use std::io::{BufRead, BufReader, Write};
    let daemon = Daemon::start("overlong");
    let addr = daemon.addr.as_str();

    // One byte over the cap, with no newline in sight: the daemon must
    // answer and hang up instead of buffering the line.
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    let line = vec![b'['; dqc_cli::serve::MAX_REQUEST_BYTES + 1];
    stream.write_all(&line).expect("send");
    let mut response = String::new();
    BufReader::new(&stream).read_line(&mut response).expect("error response");
    assert!(error_message(response.trim_end()).contains("exceeds the limit"), "{response}");

    // A normal compile on a new connection still succeeds.
    let ok = roundtrip(addr, &compile_request(&[])).expect("response");
    assert!(ok.contains("\"status\":\"ok\""), "{ok}");
}

/// A reused connection answers each request without waiting on the
/// client's delayed ACK (about 40 ms when a response and its newline left
/// in two writes with Nagle on).
#[test]
fn requests_on_one_connection_answer_promptly() {
    use std::io::{BufRead, BufReader, Write};
    let daemon = Daemon::start("keepalive");
    let mut stream = std::net::TcpStream::connect(&daemon.addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    let mut request = compile_request(&[]);
    request.push('\n');
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for i in 0..20 {
        let started = Instant::now();
        stream.write_all(request.as_bytes()).expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("response");
        let elapsed = started.elapsed();
        assert!(response.contains("\"status\":\"ok\""), "{response}");
        assert!(elapsed < Duration::from_millis(10), "request {i} took {elapsed:?}");
    }
}

#[test]
fn error_responses_carry_short_messages_without_usage_text() {
    let daemon = Daemon::start("short-errors");
    let addr = daemon.addr.as_str();
    for extra in [
        // Rejected while decoding the job.
        ("topology", Json::string("moebius")),
        // Named, but wrong for 4 nodes: rejected inside the compile.
        ("topology", Json::string("grid:3x3")),
        ("placement", Json::string("spectral")),
    ] {
        let response =
            roundtrip(addr, &compile_request(std::slice::from_ref(&extra))).expect("response");
        let message = error_message(&response);
        assert!(!message.contains("USAGE"), "usage text in {response}");
        assert!(response.len() < 300, "{} bytes: {response}", response.len());
    }
    // An infeasible hardware configuration fails in the compile too.
    let relay = compile_request(&[
        ("topology", Json::string("linear")),
        ("comm_qubits", Json::number(1.0)),
    ]);
    let response = roundtrip(addr, &relay).expect("response");
    assert!(error_message(&response).contains("communication qubits"), "{response}");
    assert!(response.len() < 300, "{} bytes: {response}", response.len());
}

#[test]
fn topology_files_are_rejected_instead_of_served_stale() {
    // The key holds the topology spec string, not the file's contents, so
    // a daemon that read topology files answered a rewritten file with
    // the artifact of its old contents. Wire topologies are names only.
    let daemon = Daemon::start("topology-file");
    let addr = daemon.addr.as_str();
    let topo = std::env::temp_dir().join(format!("autocomm-e2e-topo-{}.txt", std::process::id()));
    std::fs::write(&topo, "nodes 4\nlink 0 1\nlink 1 2\nlink 2 3\n").unwrap();
    let request = compile_request(&[("topology", Json::string(topo.display().to_string()))]);
    let response = roundtrip(addr, &request).expect("response");
    assert!(error_message(&response).contains("does not read topology files"), "{response}");
    assert_eq!(stat(addr, "cache_entries"), 0.0, "nothing cached for a file topology");

    // `submit` ships the same spec, so it fails as a service error (exit 1).
    let qasm = std::env::temp_dir().join(format!("autocomm-e2e-topo-{}.qasm", std::process::id()));
    std::fs::write(&qasm, dqc_circuit::to_qasm(&dqc_workloads::qft(8))).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_autocomm"))
        .args(["submit", qasm.to_str().unwrap(), "--nodes", "4", "--addr", addr])
        .arg("--topology")
        .arg(&topo)
        .output()
        .expect("submit client runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("does not read topology files"));
    std::fs::remove_file(&topo).ok();
    std::fs::remove_file(&qasm).ok();
}

/// One-shot submissions evict only each other: jobs that were hit since
/// they landed stay resident through a stream of never-repeated circuits
/// that is longer than the whole cache.
#[test]
fn hit_jobs_stay_cached_through_one_shot_traffic() {
    let daemon = Daemon::start_with("one-shots", &["--jobs", "1", "--cache-cap", "4"]);
    let addr = daemon.addr.as_str();
    let request = |seed: u64| {
        Json::object([
            ("op", Json::string("compile")),
            (
                "qasm",
                Json::string(dqc_circuit::to_qasm(&dqc_workloads::random_circuit(6, 40, seed))),
            ),
            ("nodes", Json::number(2.0)),
            ("verbose", Json::Bool(true)),
        ])
        .to_string()
    };
    // The outcome and the payload without the spliced-in "service" object.
    let submit = |seed: u64| {
        let response = roundtrip(addr, &request(seed)).expect("response");
        let parsed = Json::parse(&response).expect("response parse");
        let outcome = parsed
            .get("service")
            .and_then(|service| service.get("cache"))
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no cache outcome in {response}"))
            .to_string();
        let at = response.find(",\"service\":").expect("verbose response");
        (outcome, format!("{}}}", &response[..at]))
    };

    let jobs = [1, 2, 3];
    let cold: Vec<String> = jobs
        .iter()
        .map(|&seed| {
            let (outcome, payload) = submit(seed);
            assert_eq!(outcome, "miss");
            payload
        })
        .collect();
    for &seed in &jobs {
        assert_eq!(submit(seed).0, "hit");
    }
    for seed in 100..106 {
        assert_eq!(submit(seed).0, "miss", "one-shot {seed}");
    }
    for (&seed, cold) in jobs.iter().zip(&cold) {
        let (outcome, payload) = submit(seed);
        assert_eq!(outcome, "hit", "job {seed} was evicted by one-shot traffic");
        assert_eq!(&payload, cold, "job {seed} drifted from its cold response");
    }
    // Four slots: the three hit jobs and the latest one-shot. Each one-shot
    // after the first evicted the one before it.
    assert_eq!(stat(addr, "cache_entries"), 4.0);
    assert_eq!(stat(addr, "cache_evictions"), 5.0);
    assert_eq!(stat(addr, "cache_misses"), 9.0);
    assert_eq!(stat(addr, "cache_hits"), 6.0);
}

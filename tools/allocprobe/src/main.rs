//! Counts heap allocations and the requested-heap peak of each compile
//! stage, with a counting [`GlobalAlloc`] wrapped around the system
//! allocator. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path tools/allocprobe/Cargo.toml
//! ```
//!
//! Both runs compile a `random_circuit` of 64 qubits in the `random-300k`
//! benchmark shape: OEE partition over 8 nodes, `grid:2x4` topology,
//! `prefetch:4` buffering. Each prints one line per stage, replaying the
//! stages `dqc_cli::run_job` runs (parse first, teardown last), then the
//! same compile through `run_job` itself as the total.
//!
//! - **stdout**: 2,000 gates, seed 1. Its program stays below
//!   `PAR_THRESHOLD` items, so its buffered schedule runs both walks on
//!   one thread and its counts repeat exactly; CI diffs them against
//!   `tools/allocprobe/baseline.json`.
//! - **stderr**: 300,000 gates, seed 1, the benchmark's own size. Only its
//!   schedule stage starts a thread (the dual rail's second walk); every
//!   other stage runs on the calling thread. The probe exits with status 1
//!   when this compile's parse stage peaks above [`PARSE_PEAK_BOUND`], its
//!   `run_job` heap peak exceeds [`RUN_JOB_PEAK_BOUND`], or its schedule
//!   stage makes more than [`SCHEDULE_ALLOCATION_BOUND`] allocations.
//!
//! An allocation is one `alloc`, `alloc_zeroed` or `realloc` call. Heap
//! bytes are the sizes callers requested, not what the system allocator
//! reserved for them. A stage's peak is the most bytes live at once while
//! it ran, everything already live included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use autocomm::{
    aggregate_ir, assign_on, comm_weighted_graph, orient_symmetric_gates, schedule,
    AutoCommOptions, CommIr, CommMetrics, Placement, PAR_THRESHOLD,
};
use dqc_circuit::{from_qasm, to_qasm, unroll_circuit, CircuitStats};
use dqc_cli::{resolve_topology, run_job, Job};
use dqc_hardware::{BufferPolicy, HardwareSpec};
use dqc_partition::{oee_partition, InteractionGraph};
use dqc_workloads::random_circuit;

/// The most requested heap the 300,000-gate compile may hold at once in
/// `run_job` (175 MiB). It peaks in aggregation, with the input, unrolled
/// circuit and `CommIr` alive.
const RUN_JOB_PEAK_BOUND: usize = 175 << 20;

/// The most requested heap the 300,000-gate compile's parse stage may hold
/// at once (40 MiB): the 6.5 MB text plus the circuit it parses into, with
/// no per-line buffer beside them.
const PARSE_PEAK_BOUND: usize = 40 << 20;

/// The most allocations the 300,000-gate compile's schedule stage may make
/// (10,000). Its two walks allocate a fixed number of buffers, about 140
/// allocations; one per communication would be about 166,000.
const SCHEDULE_ALLOCATION_BOUND: usize = 10_000;

/// Allocation calls so far (statistics only: `Relaxed` publishes nothing).
static CALLS: AtomicUsize = AtomicUsize::new(0);
/// Requested bytes live now, and the most live since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returned, so it keeps `GlobalAlloc`'s contract
// exactly as `System` does. The counters are statistics and never change
// what is allocated or returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller passes a block `System` returned for `layout`
        // and a valid `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one stage allocated.
struct Stage {
    name: &'static str,
    allocations: usize,
    peak_bytes: usize,
    live_bytes: usize,
}

/// Runs `f` as stage `name`, recording its allocations and heap peak. The
/// record is pushed after the counters are read, so `stages` growing is
/// never counted.
fn stage<T>(stages: &mut Vec<Stage>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = CALLS.load(Relaxed);
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    let out = f();
    let (calls, peak_bytes, live_bytes) =
        (CALLS.load(Relaxed), PEAK.load(Relaxed), LIVE.load(Relaxed));
    stages.push(Stage { name, allocations: calls - start, peak_bytes, live_bytes });
    out
}

/// The `random-300k` job shape.
fn job() -> Job {
    Job {
        nodes: 8,
        topology: Some("grid:2x4".into()),
        buffer: BufferPolicy::parse("prefetch:4").expect("a known policy"),
        ..Job::default()
    }
}

/// Compiles `text` stage by stage, as `run_job` does for an OEE job with
/// the default options. Returns the stages, the compile's EPR cost, and
/// the number of items the buffered schedule walks.
fn staged(text: &str, job: &Job) -> (Vec<Stage>, usize, usize) {
    let options = AutoCommOptions::default();
    assert!(
        options.orient_symmetric && options.commutation_aggregation && options.hybrid_assignment,
        "the replay follows the default pipeline"
    );
    let topology = resolve_topology(job.topology.as_deref(), job.nodes).expect("a known topology");
    let hw = HardwareSpec::symmetric(job.nodes)
        .with_comm_qubits(job.comm_qubits)
        .and_then(|hw| hw.with_topology(topology))
        .expect("a valid machine");
    let mut schedule_options = options.schedule;
    schedule_options.buffer = job.buffer;

    let mut st = Vec::with_capacity(16);
    let circuit = stage(&mut st, "parse", || from_qasm(text).expect("generated QASM parses"));
    let graph = stage(&mut st, "partition.graph", || {
        InteractionGraph::from_circuit_unrolled(&circuit).expect("the circuit unrolls")
    });
    let partition = stage(&mut st, "partition.oee", move || {
        oee_partition(&graph, job.nodes).expect("the register spreads over the nodes")
    });
    let placement = Placement::identity(&partition);
    let oriented = stage(&mut st, "orient", || orient_symmetric_gates(&circuit, &partition));
    let unrolled =
        stage(&mut st, "unroll", move || unroll_circuit(&oriented).expect("the circuit unrolls"));
    let ir = stage(&mut st, "comm_ir", || CommIr::build_shared(&unrolled, &partition));
    let aggregated =
        stage(&mut st, "aggregate", || aggregate_ir(Arc::clone(&ir), options.aggregate));
    let assigned = stage(&mut st, "assign", || assign_on(&aggregated, &placement, hw.topology()));
    let metrics = stage(&mut st, "metrics", || CommMetrics::of(&assigned));
    let summary =
        stage(&mut st, "schedule", || schedule(&assigned, &placement, &hw, schedule_options));
    let report = stage(&mut st, "report_graph", || comm_weighted_graph(&aggregated));
    let stats = stage(&mut st, "stats", || CircuitStats::of(&unrolled, Some(&partition)));
    let items = assigned.items().len();
    let epr = metrics.total_epr_cost;
    let parts = (circuit, partition, placement, unrolled, ir, aggregated, assigned, metrics);
    stage(&mut st, "teardown", move || drop((parts, summary, report, stats)));
    (st, epr, items)
}

/// Allocations and heap peak of parsing `text` and compiling it through
/// `run_job`, dropping the result, plus the compile's EPR cost.
fn whole(text: &str, job: &Job) -> (usize, usize, usize) {
    let start = CALLS.load(Relaxed);
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    let circuit = from_qasm(text).expect("generated QASM parses");
    let compiled = run_job(&circuit, job).expect("the job compiles");
    let epr = compiled.result.metrics.total_epr_cost;
    drop((circuit, compiled));
    (CALLS.load(Relaxed) - start, PEAK.load(Relaxed), epr)
}

fn main() {
    let job = job();

    // The deterministic compile, for the CI diff.
    let text = to_qasm(&random_circuit(64, 2_000, 1));
    let (stages, epr, items) = staged(&text, &job);
    assert!(items < PAR_THRESHOLD, "{items} items would run the dual rail on two threads");
    let (allocations, peak, whole_epr) = whole(&text, &job);
    assert_eq!(epr, whole_epr, "the replay must compile what run_job compiles");
    println!("{{");
    println!(
        "  \"workload\": \"random_circuit(64, 2000, 1), 8 nodes, grid:2x4, prefetch:4, oee\","
    );
    println!("  \"stages\": [");
    for (i, s) in stages.iter().enumerate() {
        let comma = if i + 1 < stages.len() { "," } else { "" };
        println!(
            "    {{\"stage\": \"{}\", \"allocations\": {}, \"heap_peak_bytes\": {}, \"heap_live_bytes\": {}}}{comma}",
            s.name, s.allocations, s.peak_bytes, s.live_bytes
        );
    }
    println!("  ],");
    println!("  \"run_job\": {{\"allocations\": {allocations}, \"heap_peak_bytes\": {peak}}}");
    println!("}}");
    drop(text);

    // The benchmark-size compile, for the record.
    let text = to_qasm(&random_circuit(64, 300_000, 1));
    let (stages, epr, _) = staged(&text, &job);
    let (allocations, peak, whole_epr) = whole(&text, &job);
    assert_eq!(epr, whole_epr, "the replay must compile what run_job compiles");
    let mb = |bytes: usize| bytes as f64 / 1e6;
    eprintln!("random_circuit(64, 300000, 1), 8 nodes, grid:2x4, prefetch:4, oee");
    eprintln!("{:<16} {:>12} {:>12} {:>12}", "stage", "allocations", "peak MB", "live MB");
    for s in &stages {
        eprintln!(
            "{:<16} {:>12} {:>12.1} {:>12.1}",
            s.name,
            s.allocations,
            mb(s.peak_bytes),
            mb(s.live_bytes)
        );
    }
    eprintln!("{:<16} {:>12} {:>12.1}", "run_job", allocations, mb(peak));
    let mib = |bytes: usize| bytes as f64 / f64::from(1 << 20);
    let mut failed = false;
    let parse = stages.iter().find(|s| s.name == "parse").expect("a parse stage");
    if parse.peak_bytes > PARSE_PEAK_BOUND {
        eprintln!(
            "parse heap peak {:.1} MiB exceeds the {:.0} MiB bound",
            mib(parse.peak_bytes),
            mib(PARSE_PEAK_BOUND)
        );
        failed = true;
    }
    if peak > RUN_JOB_PEAK_BOUND {
        eprintln!(
            "run_job heap peak {:.1} MiB exceeds the {:.0} MiB bound",
            mib(peak),
            mib(RUN_JOB_PEAK_BOUND)
        );
        failed = true;
    }
    let schedule = stages.iter().find(|s| s.name == "schedule").expect("a schedule stage");
    if schedule.allocations > SCHEDULE_ALLOCATION_BOUND {
        eprintln!(
            "schedule stage made {} allocations, above the {SCHEDULE_ALLOCATION_BOUND} bound",
            schedule.allocations
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

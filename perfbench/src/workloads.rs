//! The workload matrix and its input generator.
//!
//! Inputs are generated from the run's seed by `perfbench gen`, a separate
//! process, before any clock starts; the measured process only ever reads
//! the QASM files written here (plus a `jobs.txt` manifest of `autocomm
//! compile` flags per file).

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use dqc_circuit::to_qasm;
use dqc_workloads::{generate, large_sparse_circuit, random_circuit, table2_configs};

/// One row of the benchmark matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 18 Table-2 programs at the paper's setup; one op = one pass.
    PaperSuite,
    /// A 64-qubit, 300k-gate random circuit, buffered, on a 2x4 grid.
    Random300k,
    /// A 2048-qubit sparse circuit under topology-aware placement.
    PlaceSparse2048,
    /// The compile daemon under a Zipf hit / fresh-miss request mix.
    ServeMix,
}

/// Gates per serve-mix job.
pub const SERVE_GATES: usize = 10_000;
/// Qubits per serve-mix job.
pub const SERVE_QUBITS: usize = 32;
/// Distinct jobs primed into the daemon before the timed phase.
pub const SERVE_PRIMED: usize = 48;
/// `autocomm compile`/`submit` flags shared by every serve-mix job.
pub const SERVE_FLAGS: &str = "--nodes 4";
/// Share of serve-mix requests that carry a never-seen circuit.
pub const SERVE_MISS_SHARE: f64 = 0.05;
/// Zipf exponent of the primed-job popularity.
pub const SERVE_ZIPF_S: f64 = 1.1;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::PaperSuite, Workload::Random300k, Workload::PlaceSparse2048, Workload::ServeMix];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::Random300k => "random-300k",
            Workload::PlaceSparse2048 => "place-sparse-2048",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether one operation is an in-process `dqc_cli::compile` call set.
    pub fn is_compile(self) -> bool {
        self != Workload::ServeMix
    }
}

/// SplitMix64: the seed expander for per-input generator seeds and the
/// serve-mix request draw (kept local so the harness's own randomness
/// never depends on a library under test).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator from a seed.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Writes the QASM inputs and `jobs.txt` manifest of `workload` into `dir`.
/// `fresh` is the number of never-seen serve-mix circuits to pre-generate.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn generate_inputs(
    workload: Workload,
    seed: u64,
    fresh: usize,
    dir: &Path,
) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut rng = Rng::new(seed);
    let mut jobs = String::new();
    let mut emit = |name: &str, qasm: String, flags: &str| -> std::io::Result<()> {
        let path = dir.join(format!("{name}.qasm"));
        fs::write(&path, qasm)?;
        writeln!(jobs, "{name}\t{}\t{flags}", path.display()).expect("string write");
        Ok(())
    };
    match workload {
        Workload::PaperSuite => {
            // The programs are fixed by the paper; the seed only shuffles
            // the order they are compiled in within a pass.
            let mut configs = table2_configs();
            for i in (1..configs.len()).rev() {
                configs.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            for config in configs {
                let flags = format!("--nodes {} --placement oee", config.num_nodes);
                emit(&config.label(), to_qasm(&generate(&config)), &flags)?;
            }
        }
        Workload::Random300k => {
            let circuit = random_circuit(64, 300_000, rng.next_u64());
            emit(
                "random-64q-300k",
                to_qasm(&circuit),
                "--nodes 8 --topology grid:2x4 --buffer prefetch:4",
            )?;
        }
        Workload::PlaceSparse2048 => {
            let circuit = large_sparse_circuit(2048, 16_384, rng.next_u64());
            emit(
                "sparse-2048q-16k",
                to_qasm(&circuit),
                "--nodes 8 --topology ring --placement topo --refine-iters 3",
            )?;
        }
        Workload::ServeMix => {
            for i in 0..SERVE_PRIMED + fresh {
                let name = if i < SERVE_PRIMED { format!("p{i:02}") } else { format!("f{i:05}") };
                let circuit = random_circuit(SERVE_QUBITS, SERVE_GATES, rng.next_u64());
                emit(&name, to_qasm(&circuit), SERVE_FLAGS)?;
            }
        }
    }
    fs::write(dir.join("jobs.txt"), jobs)
}

/// Writes the small-instance correctness inputs into `dir/checks`: one
/// ≤10-qubit instance of every generator a workload draws from, under that
/// workload's flags scaled to at most three nodes (small enough for the
/// state-vector simulator after lowering adds two comm qubits per node).
///
/// # Errors
///
/// Propagates file-system errors.
pub fn generate_checks(seed: u64, dir: &Path) -> std::io::Result<()> {
    let dir = dir.join("checks");
    fs::create_dir_all(&dir)?;
    let mut rng = Rng::new(seed ^ 0xC0FF_EE00);
    let mut jobs = String::new();
    let mut emit = |name: String, circuit: dqc_circuit::Circuit, flags: &str| {
        let path = dir.join(format!("{name}.qasm"));
        fs::write(&path, to_qasm(&circuit))?;
        writeln!(jobs, "{name}\t{}\t{flags}", path.display()).expect("string write");
        Ok::<(), std::io::Error>(())
    };
    for workload in dqc_workloads::Workload::all() {
        let config = dqc_workloads::BenchConfig::new(workload, 8, 2);
        emit(config.label(), generate(&config), "--nodes 2 --placement oee")?;
    }
    emit(
        "random-8q".into(),
        random_circuit(8, 80, rng.next_u64()),
        "--nodes 2 --topology linear --buffer prefetch:4",
    )?;
    emit(
        "sparse-9q".into(),
        large_sparse_circuit(9, 80, rng.next_u64()),
        "--nodes 3 --topology ring --placement topo --refine-iters 3",
    )?;
    fs::write(dir.join("jobs.txt"), jobs)
}

/// One manifest row: label, QASM path, and `autocomm compile` flags.
#[derive(Clone, Debug)]
pub struct JobLine {
    /// Input label (a Table-2 row label for the paper suite).
    pub label: String,
    /// The QASM file.
    pub path: String,
    /// Compile flags, whitespace-separated.
    pub flags: Vec<String>,
}

/// Reads the `jobs.txt` manifest of `dir`.
///
/// # Errors
///
/// Propagates file-system errors; malformed rows are an `InvalidData` error.
pub fn read_jobs(dir: &Path) -> std::io::Result<Vec<JobLine>> {
    let text = fs::read_to_string(dir.join("jobs.txt"))?;
    text.lines()
        .map(|line| {
            let mut parts = line.splitn(3, '\t');
            match (parts.next(), parts.next(), parts.next()) {
                (Some(label), Some(path), Some(flags)) => Ok(JobLine {
                    label: label.to_string(),
                    path: path.to_string(),
                    flags: flags.split_whitespace().map(str::to_string).collect(),
                }),
                _ => Err(std::io::Error::new(std::io::ErrorKind::InvalidData, line.to_string())),
            }
        })
        .collect()
}

//! Library behind the `autocomm` binary.
//!
//! The CLI drives the whole reproduction end to end: OpenQASM-2 parsing
//! (`dqc-circuit`) → qubit partitioning (block or OEE, `dqc-partition`) →
//! the AutoComm compiler (`autocomm`) → Table-3-style metrics, as
//! either a human-readable report or JSON. All argument parsing and JSON
//! emission is hand-rolled: the build container is offline, so no `clap`
//! or `serde`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod job;
pub mod json;
pub mod pool;
pub mod sections;
pub mod serve;

use std::fmt;
use std::ops::Deref;
use std::path::PathBuf;

use autocomm::{CompileResult, PlacementReport};
use dqc_circuit::{from_qasm, CircuitStats, Partition};
use dqc_hardware::HardwareSpec;

pub use crate::job::{resolve_topology, run_job, Compiled, Job, PartitionStrategy};
use crate::json::Json;

/// Everything that can go wrong while running the CLI.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line or job configuration. The message is plain; the
    /// `autocomm` binary appends [`USAGE`] when it prints one.
    Usage(String),
    /// The input file could not be read.
    Io(PathBuf, std::io::Error),
    /// The input was not valid OpenQASM-2 or failed to compile.
    Compile(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io(path, e) => write!(f, "cannot read {}: {e}", path.display()),
            CliError::Compile(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parsed `autocomm compile` invocation: the job plus how to report it.
/// Dereferences to its [`Job`], so `args.nodes` reads the job's field.
#[derive(Clone, Debug)]
pub struct CompileArgs {
    /// The OpenQASM-2 input file.
    pub file: PathBuf,
    /// Emit JSON instead of the human-readable report.
    pub json: bool,
    /// Add a per-pass wall-clock `"timings"` object to the JSON report
    /// (`--timings`) — the profiling hook the benches and CI gates reuse.
    pub timings: bool,
    /// What to compile for.
    pub job: Job,
}

impl Deref for CompileArgs {
    type Target = Job;

    fn deref(&self) -> &Job {
        &self.job
    }
}

/// The usage text printed by `autocomm help` and on usage errors.
pub const USAGE: &str = "\
autocomm — communication-optimizing compiler for distributed quantum programs
          (reproduction of AutoComm, Wu et al., MICRO 2022)

USAGE:
    autocomm compile <file.qasm> --nodes <N> [OPTIONS]
    autocomm batch <dir> --nodes <N> [OPTIONS]
    autocomm batch --suite --nodes <N> [OPTIONS]
    autocomm serve [SERVE OPTIONS]
    autocomm submit <file.qasm> --nodes <N> [--addr <A>] [--verbose] [OPTIONS]
    autocomm stats [--addr <A>]
    autocomm shutdown [--addr <A>]
    autocomm help

OPTIONS:
    --nodes <N>          number of hardware nodes (required), at most 256
    --comm-qubits <K>    communication qubits per node, at most 1024
                         [default: 2]
    --topology <T>       interconnect topology: all-to-all, linear, ring,
                         star, grid, grid:RxC, or a topology file path
                         [default: all-to-all]. Sparse topologies route
                         non-adjacent communication through entanglement
                         swapping and serialize contended links
    --placement <S>      qubit placement: 'oee' (OEE partition, block i on
                         node i — the paper's setup), 'block' (contiguous
                         blocks, identity map), or 'topo' (OEE plus
                         topology- and traffic-aware block-to-node
                         placement with iterative refinement)
                         [default: oee]
    --refine-iters <N>   max re-place + recompile rounds for
                         --placement topo [default: 3]
    --buffer <B>         EPR buffering policy for the scheduler:
                         'on-demand' (generate each pair at burst time —
                         the legacy engine), 'prefetch:N' (generate up to
                         N bursts ahead during computation slack, buffer
                         capacity permitting; 'prefetch' = prefetch:4), or
                         'greedy' (unbounded lookahead)
                         [default: on-demand]. Buffered schedules fall
                         back to on-demand when they do not strictly
                         improve the makespan
    --ablation <A>       disable one optimization; repeatable and
                         comma-separable. One of: no-commute, cat-only,
                         plain-greedy, no-orient (paper Fig. 17)
    --json               emit machine-readable JSON on stdout
    --timings            add a per-pass wall-clock \"timings\" object (pass
                         name -> milliseconds) to the JSON report; batch
                         reports sum each pass across every program

BATCH OPTIONS:
    <dir>                compile every .qasm file in the directory
    --suite              compile the built-in workload smoke suite instead
    --jobs <J>           worker threads [default: available cores, max 8];
                         metrics are identical for every job count

SERVE OPTIONS:
    --port <P>           TCP port on 127.0.0.1 [default: 7878; 0 = pick an
                         ephemeral port]
    --jobs <J>           compile worker threads [default: available cores,
                         max 8]
    --cache-cap <N>      max compiled artifacts kept in the LRU cache
                         [default: 256]
    --port-file <path>   write the bound port here once listening (how
                         scripts find an ephemeral port); removed on
                         clean shutdown

SERVICE CLIENTS:
    submit               compile via a running daemon: same options as
                         'compile', plus --addr <host:port>
                         [default: 127.0.0.1:7878] and --verbose (adds a
                         per-request \"service\" object: cache hit/miss,
                         latency, queue depth). Repeat submissions of an
                         identical job are answered from the daemon's
                         content-addressed artifact cache, byte-identical
                         to the cold compile
    stats                print the daemon's aggregate service metrics
                         (cache hit rate, coalesced compiles, p50/p99
                         latency overall and per pipeline pass)
    shutdown             stop the daemon cleanly
";

impl CompileArgs {
    /// Parses the arguments following the `compile` subcommand.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] on unknown flags, malformed values, or a
    /// missing file/`--nodes`.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<CompileArgs, CliError> {
        let (mut file, mut json, mut timings) = (None, false, false);
        let job = Job::from_args(args, |arg, _| {
            match arg {
                "--json" => json = true,
                "--timings" => timings = true,
                flag if flag.starts_with('-') => return Err(format!("unknown option '{flag}'")),
                positional => {
                    if file.replace(PathBuf::from(positional)).is_some() {
                        return Err(format!(
                            "unexpected extra argument '{positional}' (one input file expected)"
                        ));
                    }
                }
            }
            Ok(())
        })
        .map_err(CliError::Usage)?;
        let file = file.ok_or_else(|| CliError::Usage("missing <file.qasm> input".into()))?;
        Ok(CompileArgs { file, json, timings, job })
    }
}

/// The compiled program plus everything the report needs.
#[derive(Clone, Debug)]
pub struct CompileReport {
    /// The parsed arguments.
    pub args: CompileArgs,
    /// Unrolled-circuit statistics under the chosen partition.
    pub stats: CircuitStats,
    /// The partition the program was compiled against (the *final* one for
    /// `--placement topo`, which may re-refine it).
    pub partition: Partition,
    /// The hardware model (comm-qubit budget + resolved topology).
    pub hardware: HardwareSpec,
    /// What the placement driver did: iterations, cut weights, and the
    /// final block→node map (trivial for block/oee strategies).
    pub placement: PlacementReport,
    /// The full pipeline result (metrics, schedule, per-pass reports).
    pub result: CompileResult,
}

/// Reads and parses `args.file`, then compiles it with [`run_job`].
///
/// # Errors
///
/// Surfaces I/O, QASM, partitioning, and pipeline failures as [`CliError`].
pub fn compile(args: CompileArgs) -> Result<CompileReport, CliError> {
    let text =
        std::fs::read_to_string(&args.file).map_err(|e| CliError::Io(args.file.clone(), e))?;
    let parse_start = std::time::Instant::now();
    let circuit =
        from_qasm(&text).map_err(|e| CliError::Compile(format!("{}: {e}", args.file.display())))?;
    let parse_report = autocomm::PassReport {
        pass: "parse",
        duration: parse_start.elapsed(),
        metric: Some(format!("{} gates from {} bytes of QASM", circuit.len(), text.len())),
    };
    let Compiled { stats, partition, hardware, placement, mut result } =
        run_job(&circuit, &args.job)?;
    // The pipeline only sees the parsed circuit; the front-end parse time
    // is the CLI's to report, prepended so `--timings` and the passes
    // array cover the whole run.
    result.passes.insert(0, parse_report);
    Ok(CompileReport { args, stats, partition, hardware, placement, result })
}

impl CompileReport {
    /// The machine-readable form emitted under `--json`.
    pub fn to_json(&self) -> Json {
        let m = &self.result.metrics;
        let s = &self.result.schedule;
        let topology = self.hardware.topology();
        // `--timings` adds a flat pass-name -> milliseconds object next to
        // the structural "passes" array, so profiling consumers (the bench
        // harness, the CI perf gate) can key on pass names directly. The
        // placement optimizer's work counters ride along under
        // "placement_work" — wall-clock numbers alone can't tell how much
        // of a full rescan the exchange loop skipped.
        let timings = self.args.timings.then(|| {
            (
                "timings",
                Json::object(
                    self.result
                        .passes
                        .iter()
                        .map(|p| (p.pass, Json::number(p.duration.as_secs_f64() * 1e3)))
                        .chain([(
                            "placement_work",
                            sections::placement_work_json(&self.placement.work),
                        )]),
                ),
            )
        });
        Json::object(
            [
                ("file", Json::string(self.args.file.display().to_string())),
                ("nodes", Json::number(self.args.nodes as f64)),
                ("comm_qubits", Json::number(self.args.comm_qubits as f64)),
                (
                    "topology",
                    sections::topology_json(
                        topology.name(),
                        topology.links().len(),
                        topology.diameter(),
                    ),
                ),
                ("partition", Json::string(self.args.strategy.name())),
                ("placement", sections::placement_json(self.args.strategy.name(), &self.placement)),
                ("ablations", sections::ablations_json(&self.args.ablations)),
                (
                    "circuit",
                    sections::circuit_json(
                        self.partition.num_qubits(),
                        self.stats.num_gates,
                        self.stats.num_2q,
                        self.stats.num_remote_2q,
                    ),
                ),
                (
                    "ir",
                    sections::ir_json(
                        self.result.ir.len(),
                        self.result.ir.unique_gates(),
                        self.result.ir.ranked_pairs().len(),
                    ),
                ),
                ("metrics", sections::metrics_json(m)),
                ("buffering", sections::buffering_json(&s.buffering)),
                (
                    "schedule",
                    sections::schedule_json(
                        s.makespan,
                        s.epr_pairs,
                        s.swaps,
                        s.fusion_savings,
                        &s.link_traffic,
                    ),
                ),
                (
                    "passes",
                    Json::array(self.result.passes.iter().map(|p| {
                        Json::object([
                            ("pass", Json::string(p.pass)),
                            ("micros", Json::number(p.duration.as_secs_f64() * 1e6)),
                            ("metric", p.metric.clone().map_or(Json::Null, Json::string)),
                        ])
                    })),
                ),
            ]
            .into_iter()
            .chain(timings),
        )
    }

    /// The human-readable report.
    pub fn to_text(&self) -> String {
        let m = &self.result.metrics;
        let s = &self.result.schedule;
        let mut out = String::new();
        let line = |out: &mut String, k: &str, v: String| {
            out.push_str(&format!("  {k:<22} {v}\n"));
        };
        out.push_str(&format!("compiled {}\n", self.args.file.display()));
        line(
            &mut out,
            "qubits / nodes",
            format!("{} / {}", self.partition.num_qubits(), self.args.nodes),
        );
        line(&mut out, "topology", self.hardware.topology().to_string());
        line(&mut out, "placement", self.args.strategy.name().to_string());
        if self.args.strategy == PartitionStrategy::Topo {
            let map: Vec<String> =
                self.placement.node_map.iter().map(|n| n.index().to_string()).collect();
            line(
                &mut out,
                "block→node map",
                format!("[{}] after {} round(s)", map.join(" "), self.placement.iterations),
            );
            line(
                &mut out,
                "placement EPR cost",
                format!(
                    "{} → {} (cut {}, weighted {})",
                    self.placement.initial_epr_cost,
                    self.placement.final_epr_cost,
                    self.placement.cut_weight,
                    self.placement.weighted_cost
                ),
            );
            let w = &self.placement.work;
            line(
                &mut out,
                "placement work",
                format!(
                    "{} exchange(s), {} scanned, {} cache hits, {} round(s) skipped{}",
                    w.oee_exchanges + w.place_exchanges,
                    w.oee_scanned,
                    w.oee_cache_hits,
                    w.rounds_skipped,
                    if w.saturated { ", SATURATED" } else { "" }
                ),
            );
        }
        line(&mut out, "gates (unrolled)", self.stats.num_gates.to_string());
        line(&mut out, "remote CX", self.stats.num_remote_2q.to_string());
        if !self.args.ablations.is_empty() {
            let names: Vec<&str> = self.args.ablations.iter().map(|a| a.name()).collect();
            line(&mut out, "ablations", names.join(", "));
        }
        out.push_str("metrics (paper Table 3)\n");
        line(&mut out, "Tot Comm", m.total_comms.to_string());
        line(&mut out, "TP-Comm", m.tp_comms.to_string());
        line(&mut out, "Peak # REM CX", format!("{:.2}", m.peak_rem_cx));
        line(&mut out, "improv. factor", format!("{:.2}x", m.improvement_factor()));
        line(&mut out, "makespan (CX units)", format!("{:.1}", s.makespan));
        line(&mut out, "EPR pairs", s.epr_pairs.to_string());
        if self.args.buffer.is_buffered() {
            line(
                &mut out,
                "EPR buffering",
                format!(
                    "{} ({}/{} prefetch hits, mean wait {:.1}, mean age {:.1}{})",
                    s.buffering.policy.name(),
                    s.buffering.prefetch_hits,
                    s.buffering.requests,
                    s.buffering.mean_epr_wait,
                    s.buffering.mean_pair_age,
                    if s.buffering.fell_back { ", fell back to on-demand" } else { "" }
                ),
            );
        }
        if s.swaps > 0 {
            line(&mut out, "ent. swaps", s.swaps.to_string());
        }
        if !s.link_traffic.is_empty() && self.hardware.topology().name() != "all-to-all" {
            let links: Vec<String> = s
                .link_traffic
                .iter()
                .map(|&(a, b, pairs)| format!("{}-{}:{pairs}", a.index(), b.index()))
                .collect();
            line(&mut out, "link EPR traffic", links.join(" "));
        }
        out.push_str("passes\n");
        for p in &self.result.passes {
            let metric = p.metric.as_deref().unwrap_or("-");
            out.push_str(&format!(
                "  {:<10} {:>9.1} us  {metric}\n",
                p.pass,
                p.duration.as_secs_f64() * 1e6
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use autocomm::Ablation;

    use super::*;

    fn parse(args: &[&str]) -> Result<CompileArgs, CliError> {
        CompileArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse(&[
            "bv.qasm",
            "--nodes",
            "4",
            "--comm-qubits",
            "3",
            "--topology",
            "linear",
            "--placement",
            "block",
            "--ablation",
            "no-commute,cat-only",
            "--ablation",
            "plain-greedy",
            "--json",
            "--timings",
        ])
        .unwrap();
        assert_eq!(args.file, PathBuf::from("bv.qasm"));
        assert_eq!(args.nodes, 4);
        assert_eq!(args.comm_qubits, 3);
        assert_eq!(args.topology.as_deref(), Some("linear"));
        assert_eq!(args.strategy, PartitionStrategy::Block);
        assert_eq!(
            args.ablations,
            vec![Ablation::NoCommute, Ablation::CatOnly, Ablation::PlainGreedy]
        );
        assert!(args.json);
        assert!(args.timings);
    }

    #[test]
    fn defaults_match_the_paper() {
        let args = parse(&["c.qasm", "--nodes", "2"]).unwrap();
        assert_eq!(args.comm_qubits, 2);
        assert_eq!(args.topology, None);
        assert_eq!(args.strategy, PartitionStrategy::Oee);
        assert_eq!(args.refine_iters, 3);
        assert!(args.ablations.is_empty());
        assert!(!args.json);
        assert!(!args.timings);
    }

    #[test]
    fn placement_flag_parses_all_strategies() {
        for (value, expect) in [
            ("block", PartitionStrategy::Block),
            ("oee", PartitionStrategy::Oee),
            ("topo", PartitionStrategy::Topo),
        ] {
            let args = parse(&["c.qasm", "--nodes", "2", "--placement", value]).unwrap();
            assert_eq!(args.strategy, expect, "{value}");
            assert_eq!(args.strategy.name(), value);
        }
        let args = parse(&["c.qasm", "--nodes", "2", "--placement", "topo", "--refine-iters", "7"])
            .unwrap();
        assert_eq!(args.refine_iters, 7);
        // The removed legacy --partition alias is an unknown option.
        for value in ["block", "oee"] {
            assert!(matches!(
                parse(&["c.qasm", "--nodes", "2", "--partition", value]),
                Err(CliError::Usage(msg)) if msg.contains("unknown option '--partition'")
            ));
        }
        assert!(matches!(
            parse(&["c.qasm", "--nodes", "2", "--placement", "spectral"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["c.qasm", "--nodes", "2", "--refine-iters", "many"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn rejects_bad_usage() {
        for bad in [
            &["--nodes", "2"][..],           // no file
            &["c.qasm"][..],                 // no nodes
            &["c.qasm", "--nodes", "0"][..], // zero nodes
            &["c.qasm", "--nodes", "x"][..], // non-numeric
            &["c.qasm", "--nodes"][..],      // missing value
            &["c.qasm", "--nodes", "2", "--comm-qubits", "0"][..],
            &["c.qasm", "--nodes", "2", "--frob"][..], // unknown flag
            &["a.qasm", "b.qasm", "--nodes", "2"][..], // two files
            &["c.qasm", "--nodes", "2", "--ablation", "bogus"][..],
            &["c.qasm", "--nodes", "2", "--placement", "spectral"][..],
        ] {
            assert!(matches!(parse(bad), Err(CliError::Usage(_))), "accepted: {bad:?}");
        }
    }

    #[test]
    fn usage_states_the_comm_qubit_cap() {
        assert!(USAGE.contains(&format!("at most {}", job::MAX_COMM_QUBITS)));
    }

    #[test]
    fn usage_states_the_node_cap() {
        assert!(USAGE.contains(&format!("(required), at most {}", job::MAX_NODES)));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let args = parse(&["/nonexistent/x.qasm", "--nodes", "2"]).unwrap();
        assert!(matches!(compile(args), Err(CliError::Io(_, _))));
    }
}

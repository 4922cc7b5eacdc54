//! The compile job: the seven settings that decide what a compile
//! produces. `compile`, `batch`, `submit` and `serve` all decode a [`Job`]
//! here (from argv or from a wire request), key it with `Job::key`, and
//! hand it to [`run_job`] — no front door decodes a job flag or spells out
//! the compile sequence itself.

use std::path::Path;

use autocomm::{
    Ablation, AutoComm, AutoCommOptions, BufferPolicy, CompileResult, PlacementConfig,
    PlacementReport,
};
use dqc_circuit::{Circuit, CircuitStats, Partition};
use dqc_hardware::{HardwareSpec, NetworkTopology};
use dqc_partition::{oee_partition, InteractionGraph};

use crate::json::Json;
use crate::CliError;

/// Largest accepted communication-qubit budget per node. The scheduler
/// allocates per-comm-qubit state up front, so an unbounded budget lets a
/// ~100-byte request exhaust memory; the largest budget any caller in this
/// repository uses is 128.
pub(crate) const MAX_COMM_QUBITS: usize = 1024;

/// Largest accepted node count. Hardware construction is quadratic in it
/// (an all-to-all machine has `n(n−1)/2` links and `n²` routing tables) and
/// route precomputation cubic, so an unbounded count lets a small request
/// exhaust memory and time before any compile starts; the largest count
/// any caller in this repository uses is 30.
pub(crate) const MAX_NODES: usize = 256;

/// How logical qubits are placed onto physical nodes
/// (`--placement block|oee|topo`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Contiguous blocks of equal size (deterministic, layout-agnostic),
    /// block `i` on node `i`.
    Block,
    /// The paper's Static Overall Extreme Exchange refinement, block `i`
    /// on node `i` (the default; bit-identical to the pre-placement
    /// pipeline).
    Oee,
    /// OEE plus the topology- and traffic-aware iterative placement driver:
    /// re-weights the interaction graph with measured communication counts
    /// and optimizes the block→node map until the hop-weighted EPR cost
    /// stops improving (bounded by `--refine-iters`).
    Topo,
}

impl PartitionStrategy {
    /// The kebab-case flag value.
    pub fn name(self) -> &'static str {
        match self {
            PartitionStrategy::Block => "block",
            PartitionStrategy::Oee => "oee",
            PartitionStrategy::Topo => "topo",
        }
    }

    fn parse(name: &str) -> Option<PartitionStrategy> {
        [PartitionStrategy::Block, PartitionStrategy::Oee, PartitionStrategy::Topo]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// The shape of a setting's wire value.
#[derive(Clone, Copy)]
enum Kind {
    Count,
    Name,
    Names,
}

/// Every job setting as `(wire field, argv flag, wire kind)`.
const FIELDS: [(&str, &str, Kind); 7] = [
    ("nodes", "--nodes", Kind::Count),
    ("comm_qubits", "--comm-qubits", Kind::Count),
    ("topology", "--topology", Kind::Name),
    ("placement", "--placement", Kind::Name),
    ("refine_iters", "--refine-iters", Kind::Count),
    ("buffer", "--buffer", Kind::Name),
    ("ablations", "--ablation", Kind::Names),
];

/// One compile job: everything besides the circuit that changes what a
/// compile produces, and so everything the artifact cache keys on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    /// Number of hardware nodes (0 until decoded; `Job::validate`
    /// rejects it).
    pub nodes: usize,
    /// Communication qubits per node (the paper's budget is 2).
    pub comm_qubits: usize,
    /// Interconnect topology spec: a name (`all-to-all`, `linear`, `ring`,
    /// `star`, `grid`, `grid:RxC`) or, on the command line only, a
    /// topology file path. `None` = all-to-all, the paper's model.
    pub topology: Option<String>,
    /// Placement strategy (default: OEE, as in the paper).
    pub strategy: PartitionStrategy,
    /// Re-place + recompile rounds for `--placement topo` (default 3).
    pub refine_iters: usize,
    /// EPR buffering policy for the scheduler (default on-demand, the
    /// bit-identical legacy engine).
    pub buffer: BufferPolicy,
    /// Ablations applied to the full optimization set, in flag order.
    pub ablations: Vec<Ablation>,
}

impl Default for Job {
    fn default() -> Job {
        Job {
            nodes: 0,
            comm_qubits: 2,
            topology: None,
            strategy: PartitionStrategy::Oee,
            refine_iters: 3,
            buffer: BufferPolicy::OnDemand,
            ablations: Vec::new(),
        }
    }
}

/// Parses a positive integer flag value.
pub(crate) fn positive(value: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("'{value}' is not a positive integer"))
}

impl Job {
    /// Decodes a command line: job flags here, every other argument handed
    /// to `other` together with the remaining arguments (for flags that
    /// take a value). The decoded job is validated.
    ///
    /// # Errors
    ///
    /// A plain message for a missing or malformed job flag value, an
    /// invalid job, or whatever `other` rejects.
    pub(crate) fn from_args<I: IntoIterator<Item = String>>(
        args: I,
        mut other: impl FnMut(&str, &mut I::IntoIter) -> Result<(), String>,
    ) -> Result<Job, String> {
        let mut job = Job::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match FIELDS.iter().find(|(_, flag, _)| *flag == arg) {
                Some(&(field, flag, _)) => {
                    let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
                    job.set(field, &value).map_err(|e| format!("{flag}: {e}"))?;
                }
                None => other(&arg, &mut iter)?,
            }
        }
        job.validate()?;
        Ok(job)
    }

    /// Decodes the job fields of a wire `compile` request. Field names and
    /// defaults are the argv flags'; other fields (`op`, `qasm`, …) are
    /// ignored. `topology` must be a named spec — the service never reads
    /// a topology file. The decoded job is validated.
    ///
    /// # Errors
    ///
    /// A plain message naming the offending field.
    pub(crate) fn from_json(req: &Json) -> Result<Job, String> {
        if req.get("nodes").is_none() {
            return Err("compile request needs a 'nodes' count".into());
        }
        let mut job = Job::default();
        for (field, _, kind) in FIELDS {
            let wrong = || {
                let expected = match kind {
                    Kind::Count => "a number",
                    Kind::Name => "a string",
                    Kind::Names => "an array of strings",
                };
                format!("'{field}' must be {expected}")
            };
            let values = match (kind, req.get(field)) {
                (_, None | Some(Json::Null)) => continue,
                (Kind::Names, Some(Json::Array(items))) => items.as_slice(),
                (Kind::Names, Some(_)) => return Err(wrong()),
                (_, Some(value)) => std::slice::from_ref(value),
            };
            for value in values {
                let text = match (kind, value) {
                    (Kind::Count, Json::Number(_)) => value.to_string(),
                    (Kind::Name | Kind::Names, Json::String(s)) => s.clone(),
                    _ => return Err(wrong()),
                };
                job.set(field, &text).map_err(|e| format!("'{field}': {e}"))?;
            }
        }
        if let Some(spec) = job.topology.as_deref().filter(|s| !NetworkTopology::is_named_spec(s)) {
            return Err(format!(
                "'topology': '{spec}' is not a named topology (all-to-all, linear, ring, star, \
                 grid, grid:RxC); the service does not read topology files"
            ));
        }
        job.validate()?;
        Ok(job)
    }

    /// Decodes one setting from its text value: the single decoder behind
    /// both the argv flags and the wire fields.
    fn set(&mut self, field: &str, value: &str) -> Result<(), String> {
        let count = || {
            value.parse::<usize>().map_err(|_| format!("'{value}' is not a non-negative integer"))
        };
        match field {
            "nodes" => self.nodes = positive(value)?,
            "comm_qubits" => self.comm_qubits = positive(value)?,
            "topology" => self.topology = Some(value.to_string()),
            "placement" => {
                self.strategy = PartitionStrategy::parse(value).ok_or_else(|| {
                    format!("unknown strategy '{value}' (expected 'block', 'oee', or 'topo')")
                })?;
            }
            "refine_iters" => self.refine_iters = count()?,
            "buffer" => {
                self.buffer = BufferPolicy::parse(value).ok_or_else(|| {
                    format!(
                        "unknown policy '{value}' (expected 'on-demand', 'prefetch', \
                         'prefetch:N' with N >= 1, or 'greedy')"
                    )
                })?;
            }
            "ablations" => {
                for name in value.split(',').filter(|s| !s.is_empty()) {
                    let ablation = Ablation::parse(name).ok_or_else(|| {
                        let known: Vec<&str> = Ablation::all().iter().map(|a| a.name()).collect();
                        format!("unknown ablation '{name}' (expected one of {})", known.join(", "))
                    })?;
                    if !self.ablations.contains(&ablation) {
                        self.ablations.push(ablation);
                    }
                }
            }
            _ => unreachable!("'{field}' is not a job field"),
        }
        Ok(())
    }

    /// The wire encoding `submit` sends: the inverse of [`Job::from_json`].
    pub(crate) fn to_json(&self) -> Json {
        let Job { nodes, comm_qubits, topology, strategy, refine_iters, buffer, ablations } = self;
        Json::object([
            ("nodes", Json::number(*nodes as f64)),
            ("comm_qubits", Json::number(*comm_qubits as f64)),
            ("topology", topology.clone().map_or(Json::Null, Json::String)),
            ("placement", Json::string(strategy.name())),
            ("refine_iters", Json::number(*refine_iters as f64)),
            ("buffer", Json::string(buffer.name())),
            ("ablations", Json::array(ablations.iter().map(|a| Json::string(a.name())))),
        ])
    }

    /// Checks what the decoders cannot see field by field: a node count
    /// was given and is at most [`MAX_NODES`], and the comm-qubit budget is
    /// at most [`MAX_COMM_QUBITS`].
    ///
    /// # Errors
    ///
    /// A plain message naming the violated bound.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("missing required --nodes <N>".into());
        }
        if self.nodes > MAX_NODES {
            return Err(format!("--nodes: {} exceeds the limit of {MAX_NODES}", self.nodes));
        }
        if self.comm_qubits > MAX_COMM_QUBITS {
            return Err(format!(
                "--comm-qubits: {} exceeds the limit of {MAX_COMM_QUBITS} per node",
                self.comm_qubits
            ));
        }
        Ok(())
    }

    /// The content-addressed cache key: the circuit's content hash plus
    /// every job setting, label-free so identical submissions coalesce.
    /// The destructuring is exhaustive on purpose: a new setting that is
    /// not keyed does not compile.
    pub(crate) fn key(&self, circuit_hash: &str) -> String {
        let Job { nodes, comm_qubits, topology, strategy, refine_iters, buffer, ablations } = self;
        let ablations = if ablations.is_empty() {
            "-".to_string()
        } else {
            ablations.iter().map(|a| a.name()).collect::<Vec<_>>().join("+")
        };
        format!(
            "{circuit_hash}:{nodes}n:{comm_qubits}c:{}:{}:r{refine_iters}:{}:{ablations}",
            topology.as_deref().unwrap_or("all-to-all"),
            strategy.name(),
            buffer.name(),
        )
    }

    /// The machine this job compiles for: its node count, comm-qubit
    /// budget and resolved topology, validated together.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for a bad topology or an infeasible
    /// comm-qubit/topology combination; [`CliError::Io`] for an unreadable
    /// topology file.
    pub(crate) fn hardware(&self) -> Result<HardwareSpec, CliError> {
        let topology = resolve_topology(self.topology.as_deref(), self.nodes)?;
        HardwareSpec::symmetric(self.nodes)
            .with_comm_qubits(self.comm_qubits)
            .and_then(|hw| hw.with_topology(topology))
            .map_err(|e| CliError::Usage(format!("invalid hardware configuration: {e}")))
    }
}

/// Resolves a `--topology` spec: a known name (`linear`, `grid:2x3`, …) or
/// a path to a topology file; `None` means the paper's all-to-all. Names
/// win over files of the same name.
///
/// # Errors
///
/// [`CliError::Usage`] for unknown names or node-count mismatches;
/// [`CliError::Io`] when a file path cannot be read.
pub fn resolve_topology(spec: Option<&str>, nodes: usize) -> Result<NetworkTopology, CliError> {
    let Some(spec) = spec else {
        return Ok(NetworkTopology::all_to_all(nodes));
    };
    let path = Path::new(spec);
    if NetworkTopology::is_named_spec(spec) || !path.is_file() {
        return NetworkTopology::parse_spec(spec, nodes)
            .map_err(|e| CliError::Usage(format!("--topology: {e}")));
    }
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(path.into(), e))?;
    let topology = NetworkTopology::from_text(&text)
        .map_err(|e| CliError::Usage(format!("--topology {spec}: {e}")))?;
    if topology.num_nodes() != nodes {
        return Err(CliError::Usage(format!(
            "--topology {spec}: file covers {} node(s) but --nodes is {nodes}",
            topology.num_nodes()
        )));
    }
    Ok(topology)
}

/// Everything [`run_job`] produces.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// Unrolled-circuit statistics under the final partition.
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

/// Partitions, places, and compiles `circuit` as `job` says: the one
/// compile sequence behind `compile`, `batch` and `serve`.
///
/// Every strategy funnels through the placement driver: `block` and `oee`
/// run it with zero refinement rounds (bit-identical to the historical
/// pipeline), `topo` iterates up to `job.refine_iters` times. Ablations
/// apply to the full optimization set, then the buffering policy is
/// threaded into the scheduler (so `plain-greedy` and `prefetch:4`
/// compose).
///
/// # Errors
///
/// [`CliError::Usage`] for an invalid job or hardware configuration,
/// [`CliError::Compile`] for partitioning and pipeline failures. Messages
/// are plain: front doors add their own context.
pub fn run_job(circuit: &Circuit, job: &Job) -> Result<Compiled, CliError> {
    job.validate().map_err(CliError::Usage)?;
    if circuit.num_qubits() < job.nodes {
        return Err(CliError::Compile(format!(
            "cannot spread {} qubits over {} nodes",
            circuit.num_qubits(),
            job.nodes
        )));
    }
    let failed = |e: &dyn std::fmt::Display| CliError::Compile(e.to_string());
    let partition = match job.strategy {
        PartitionStrategy::Block => {
            Partition::block(circuit.num_qubits(), job.nodes).map_err(|e| failed(&e))?
        }
        PartitionStrategy::Oee | PartitionStrategy::Topo => {
            let graph = InteractionGraph::from_circuit_unrolled(circuit).map_err(|e| failed(&e))?;
            oee_partition(&graph, job.nodes).map_err(|e| failed(&e))?
        }
    };
    let hardware = job.hardware()?;
    let mut options =
        job.ablations.iter().fold(AutoCommOptions::default(), |opts, &a| opts.with_ablation(a));
    options.schedule.buffer = job.buffer;
    let config = PlacementConfig {
        refine_iters: if job.strategy == PartitionStrategy::Topo { job.refine_iters } else { 0 },
    };
    let (result, placement) = AutoComm::with_options(options)
        .compile_placed(circuit, &partition, &hardware, &config)
        .map_err(|e| failed(&e))?;
    let partition = result.placement.partition().clone();
    let stats = CircuitStats::of(&result.unrolled, Some(&partition));
    Ok(Compiled { stats, partition, hardware, placement, result })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Result<Job, String> {
        Job::from_args(args.iter().map(|s| s.to_string()), |arg, _| {
            Err(format!("unknown option '{arg}'"))
        })
    }

    fn wire(text: &str) -> Result<Job, String> {
        Job::from_json(&Json::parse(text).unwrap())
    }

    #[test]
    fn wire_defaults_match_argv_defaults() {
        let job = argv(&["--nodes", "2"]).unwrap();
        assert_eq!(job, Job { nodes: 2, ..Job::default() });
        assert_eq!(wire(r#"{"op":"compile","qasm":"qreg q[4];","nodes":2}"#).unwrap(), job);
    }

    #[test]
    fn wire_rejects_garbage() {
        for bad in [
            r#"{"op":"compile","qasm":"x"}"#,
            r#"{"op":"compile","qasm":"x","nodes":0}"#,
            r#"{"op":"compile","qasm":"x","nodes":2.5}"#,
            r#"{"op":"compile","qasm":"x","nodes":"2"}"#,
            r#"{"op":"compile","qasm":"x","nodes":2,"comm_qubits":-1}"#,
            r#"{"op":"compile","qasm":"x","nodes":2,"comm_qubits":1e11}"#,
            r#"{"op":"compile","qasm":"x","nodes":2,"placement":"mystery"}"#,
            r#"{"op":"compile","qasm":"x","nodes":2,"placement":3}"#,
            r#"{"op":"compile","qasm":"x","nodes":2,"ablations":["nope"]}"#,
            r#"{"op":"compile","qasm":"x","nodes":2,"ablations":"cat-only"}"#,
        ] {
            assert!(wire(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn comm_qubit_cap_guards_argv_and_wire_alike() {
        let cap = MAX_COMM_QUBITS.to_string();
        let over = (MAX_COMM_QUBITS + 1).to_string();
        const { assert!(MAX_COMM_QUBITS > 128, "the cap must admit every in-repo budget") };
        assert!(argv(&["--nodes", "2", "--comm-qubits", &cap]).is_ok());
        assert!(argv(&["--nodes", "2", "--comm-qubits", &over]).is_err());
        let req = |n: &str| format!(r#"{{"op":"compile","qasm":"x","nodes":2,"comm_qubits":{n}}}"#);
        assert!(wire(&req(&cap)).is_ok());
        let err = wire(&req("1e11")).unwrap_err();
        assert!(err.contains("exceeds the limit"), "{err}");
    }

    #[test]
    fn node_cap_guards_argv_and_wire_alike() {
        // Parsing and validation only: no hardware is built here.
        let cap = MAX_NODES.to_string();
        let over = (MAX_NODES + 1).to_string();
        const { assert!(MAX_NODES >= 30, "the cap must admit every in-repo node count") };
        assert!(argv(&["--nodes", &cap]).is_ok());
        let err = argv(&["--nodes", &over]).unwrap_err();
        assert!(err.contains("exceeds the limit"), "{err}");
        let req = |n: &str| format!(r#"{{"op":"compile","qasm":"x","nodes":{n}}}"#);
        assert!(wire(&req(&cap)).is_ok());
        assert!(wire(&req(&over)).unwrap_err().contains("exceeds the limit"));
        assert!(wire(&req("16384")).is_err());
    }

    #[test]
    fn wire_topology_takes_named_specs_only() {
        let req = |t: &str| format!(r#"{{"op":"compile","qasm":"x","nodes":4,"topology":"{t}"}}"#);
        for named in ["linear", "ring", "grid", "grid:2x2", "all-to-all"] {
            assert_eq!(wire(&req(named)).unwrap().topology.as_deref(), Some(named));
        }
        for path in ["/tmp/t.txt", "topo.txt", "moebius"] {
            let err = wire(&req(path)).unwrap_err();
            assert!(err.contains("does not read topology files"), "{err}");
        }
    }

    #[test]
    fn cache_key_separates_every_flag_and_ignores_labels() {
        let base = Json::parse(r#"{"op":"compile","qasm":"x","nodes":2}"#).unwrap();
        let key = Job::from_json(&base).unwrap().key("h");
        assert_eq!(key, "h:2n:2c:all-to-all:oee:r3:on-demand:-", "documented key format");
        // Fields outside the job (labels, verbosity) never reach the key.
        let with_field = |key: &str, value: Json| {
            let Json::Object(mut fields) = base.clone() else { unreachable!() };
            fields.retain(|(k, _)| k != key);
            fields.push((key.to_string(), value));
            Job::from_json(&Json::Object(fields)).unwrap()
        };
        assert_eq!(with_field("verbose", Json::Bool(true)).key("h"), key);
        assert_eq!(with_field("label", Json::string("qft")).key("h"), key);
        // Any job field change → different key.
        for (field, value) in [
            ("nodes", Json::number(4.0)),
            ("comm_qubits", Json::number(3.0)),
            ("topology", Json::string("linear")),
            ("placement", Json::string("topo")),
            ("refine_iters", Json::number(5.0)),
            ("buffer", Json::string("prefetch:4")),
            ("ablations", Json::array([Json::string("cat-only")])),
        ] {
            assert_ne!(with_field(field, value).key("h"), key, "{field} ignored by key");
        }
        // A different circuit with the same flags → different key.
        assert_ne!(Job::from_json(&base).unwrap().key("other"), key);
    }

    #[test]
    fn topology_specs_resolve_by_name_and_file() {
        assert_eq!(resolve_topology(None, 4).unwrap().name(), "all-to-all");
        assert_eq!(resolve_topology(Some("ring"), 4).unwrap().diameter(), Some(2));
        let err = resolve_topology(Some("moebius"), 4).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(!err.to_string().contains("USAGE"), "plain message: {err}");

        let path = std::env::temp_dir().join(format!("autocomm-topo-{}.txt", std::process::id()));
        std::fs::write(&path, "nodes 3\nlink 0 1\nlink 1 2\n").unwrap();
        let spec = path.display().to_string();
        let t = resolve_topology(Some(&spec), 3).unwrap();
        assert_eq!(t.diameter(), Some(2));
        // Node-count mismatch between file and --nodes is a usage error.
        assert!(matches!(resolve_topology(Some(&spec), 4), Err(CliError::Usage(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_hardware_is_a_usage_error() {
        // One comm qubit cannot relay on a sparse topology.
        let job = |topology: Option<&str>| Job {
            nodes: 3,
            comm_qubits: 1,
            topology: topology.map(String::from),
            ..Job::default()
        };
        match job(Some("linear")).hardware().unwrap_err() {
            CliError::Usage(msg) => assert!(msg.contains("communication qubits"), "{msg}"),
            other => panic!("expected usage error, got {other:?}"),
        }
        assert!(job(None).hardware().is_ok(), "all-to-all works with one comm qubit");
    }

    /// A teleported state fills a one-qubit node's only communication slot,
    /// so TP can neither send it on nor back: under that budget every block
    /// must ride Cat-Comm, on the identity compile and on placement rounds.
    #[test]
    fn one_comm_qubit_compiles_with_cat_only() {
        use dqc_workloads::{generate, BenchConfig, Workload};
        for config in [
            BenchConfig::new(Workload::Rca, 100, 10),
            BenchConfig::new(Workload::Mctr, 100, 10),
            BenchConfig::new(Workload::Uccsd, 8, 4),
        ] {
            let circuit = generate(&config);
            for strategy in [PartitionStrategy::Oee, PartitionStrategy::Topo] {
                let job =
                    Job { nodes: config.num_nodes, comm_qubits: 1, strategy, ..Job::default() };
                let compiled = run_job(&circuit, &job)
                    .unwrap_or_else(|e| panic!("{config} {}: {e}", strategy.name()));
                let tp = compiled.result.metrics.tp_comms;
                assert_eq!(tp, 0, "{config} {} kept TP blocks", strategy.name());
            }
        }
    }
}

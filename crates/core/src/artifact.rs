//! Serializable compiled-program artifacts — the cache value of the
//! compile service.
//!
//! A [`CompiledArtifact`] captures everything a compile produced that is a
//! pure function of the input (circuit, placement flags, buffer policy):
//! the job configuration echo, circuit/IR statistics, the placement
//! report, the full [`CommMetrics`] and [`BufferingReport`], the schedule
//! scalars with per-link EPR traffic, and the lowered program itself as a
//! [`CommOp`] sequence (cat-entangle and TP bursts with materialized
//! bodies, in program order — the InQuIR-style program exchange format).
//! Wall-clock pass timings are deliberately excluded: an artifact is
//! deterministic per cache key, so a cache hit can be byte-identical to
//! the cold compile that produced it.
//!
//! The wire form ([`CompiledArtifact::to_text`] / `from_text`) is a
//! line-oriented text format with one canonical emission: floats use
//! Rust's shortest-round-trip `Display`, lists are comma-joined with `-`
//! for empty, so serialize → deserialize → re-serialize is byte-identical
//! (property-tested across the workload suite and every topology family).

use std::fmt;

use dqc_circuit::{CBitId, Gate, GateKind, NodeId, QubitId};
use dqc_hardware::{BufferPolicy, HardwareSpec};

use crate::metrics::{BufferingReport, CommMetrics};
use crate::pipeline::{Ablation, CompileResult, PlacementReport, PlacementWork};
use crate::{lower_plan, CommOp};

/// Version tag of the artifact text format. v2 added the `placement_work`
/// record (optimizer work counters); v3 dropped the always-zero conflict-DAG
/// edge count from the `ir` record, which now carries three numbers.
/// [`CompiledArtifact::from_text`] reads only the current version and
/// rejects any other header, v2 included, at line 1.
pub const ARTIFACT_VERSION: u32 = 3;

/// The compile-job configuration an artifact echoes back — everything in
/// the cache key except the circuit content hash (which keys the circuit
/// text itself).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ArtifactConfig {
    /// The full content-addressed cache key the artifact was compiled
    /// under.
    pub key: String,
    /// Number of hardware nodes.
    pub nodes: usize,
    /// Communication qubits per node.
    pub comm_qubits: usize,
    /// Resolved topology name (`all-to-all`, `linear`, …).
    pub topology: String,
    /// Number of interconnect links.
    pub links: usize,
    /// Topology diameter in hops (`None` for a single node).
    pub diameter: Option<usize>,
    /// Placement strategy name (`block`, `oee`, `topo`).
    pub strategy: String,
    /// Refinement-round bound for topology-aware placement.
    pub refine_iters: usize,
    /// EPR buffering policy.
    pub buffer: BufferPolicy,
    /// Applied ablations, in flag order.
    pub ablations: Vec<Ablation>,
}

/// Unrolled-circuit statistics echoed by an artifact.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct ArtifactCircuitStats {
    /// Logical qubits.
    pub qubits: usize,
    /// Unrolled gates.
    pub gates: usize,
    /// Two-qubit gates after unrolling.
    pub two_qubit_gates: usize,
    /// Remote CX gates under the final partition.
    pub remote_cx: usize,
}

/// Indexed-IR statistics echoed by an artifact.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct ArtifactIrStats {
    /// Gates in the IR stream.
    pub gates: usize,
    /// Distinct interned gates.
    pub unique_gates: usize,
    /// Ranked (qubit, node) burst pairs.
    pub burst_pairs: usize,
}

/// Schedule scalars echoed by an artifact (the deterministic subset of
/// [`crate::ScheduleSummary`] — recorded event timelines are a debugging
/// aid, not artifact content).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ArtifactSchedule {
    /// Program latency in CX units.
    pub makespan: f64,
    /// EPR pairs consumed (per link-level generation).
    pub epr_pairs: usize,
    /// Entanglement swaps at relay nodes.
    pub swaps: usize,
    /// Teleports saved by TP fusion.
    pub fusion_savings: usize,
    /// Cat blocks scheduled.
    pub cat_blocks: usize,
    /// TP blocks scheduled.
    pub tp_blocks: usize,
    /// EPR pairs generated per interconnect link.
    pub link_traffic: Vec<(NodeId, NodeId, usize)>,
}

/// A serializable compiled program: configuration echo, metrics, schedule,
/// and the lowered [`CommOp`] sequence. See the module docs for the wire
/// format.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledArtifact {
    /// The job configuration this artifact answers.
    pub config: ArtifactConfig,
    /// Unrolled-circuit statistics.
    pub circuit: ArtifactCircuitStats,
    /// Indexed-IR statistics.
    pub ir: ArtifactIrStats,
    /// What the placement driver did.
    pub placement: PlacementReport,
    /// The paper's evaluation metrics.
    pub metrics: CommMetrics,
    /// What the EPR-buffering engine did.
    pub buffering: BufferingReport,
    /// Schedule scalars and per-link traffic.
    pub schedule: ArtifactSchedule,
    /// The lowered program, in program order.
    pub program: Vec<CommOp>,
}

/// A malformed artifact text.
#[derive(Clone, Debug, PartialEq)]
pub struct ArtifactError {
    /// 1-based line of the first offending record.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "artifact line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ArtifactError {}

impl CompiledArtifact {
    /// Captures the artifact of a finished compile: `result` and
    /// `placement` as returned by the pipeline, `hw` for the resolved
    /// topology, and the already-known configuration echo in `config`
    /// (whose topology fields are overwritten from `hw` so they cannot
    /// drift from the machine actually compiled against).
    pub fn capture(
        mut config: ArtifactConfig,
        circuit: ArtifactCircuitStats,
        hw: &HardwareSpec,
        placement: &PlacementReport,
        result: &CompileResult,
    ) -> CompiledArtifact {
        let topology = hw.topology();
        config.topology = topology.name().to_string();
        config.links = topology.links().len();
        config.diameter = topology.diameter();
        let s = &result.schedule;
        CompiledArtifact {
            config,
            circuit,
            ir: ArtifactIrStats {
                gates: result.ir.len(),
                unique_gates: result.ir.unique_gates(),
                burst_pairs: result.ir.ranked_pairs().len(),
            },
            placement: placement.clone(),
            metrics: result.metrics.clone(),
            buffering: s.buffering.clone(),
            schedule: ArtifactSchedule {
                makespan: s.makespan,
                epr_pairs: s.epr_pairs,
                swaps: s.swaps,
                fusion_savings: s.fusion_savings,
                cat_blocks: s.cat_blocks,
                tp_blocks: s.tp_blocks,
                link_traffic: s.link_traffic.clone(),
            },
            program: lower_plan(&result.assigned, &result.placement),
        }
    }

    /// Serializes to the canonical line-oriented text form. Emission is
    /// deterministic, so equal artifacts serialize to equal bytes and
    /// `from_text` → `to_text` is the identity on any valid text.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(256 + self.program.len() * 32);
        let c = &self.config;
        out.push_str(&format!("autocomm-artifact v{ARTIFACT_VERSION}\n"));
        out.push_str(&format!("key {}\n", c.key));
        out.push_str(&format!("nodes {}\n", c.nodes));
        out.push_str(&format!("comm_qubits {}\n", c.comm_qubits));
        out.push_str(&format!(
            "topology {} {} {}\n",
            c.topology,
            c.links,
            c.diameter.map_or("-".to_string(), |d| d.to_string())
        ));
        out.push_str(&format!("strategy {}\n", c.strategy));
        out.push_str(&format!("refine_iters {}\n", c.refine_iters));
        out.push_str(&format!("buffer {}\n", c.buffer.name()));
        out.push_str(&format!(
            "ablations {}\n",
            join_or_dash(c.ablations.iter().map(|a| a.name().to_string()))
        ));
        out.push_str(&format!(
            "circuit {} {} {} {}\n",
            self.circuit.qubits,
            self.circuit.gates,
            self.circuit.two_qubit_gates,
            self.circuit.remote_cx
        ));
        out.push_str(&format!(
            "ir {} {} {}\n",
            self.ir.gates, self.ir.unique_gates, self.ir.burst_pairs
        ));
        let p = &self.placement;
        out.push_str(&format!(
            "placement {} {} {} {} {} {}\n",
            p.iterations,
            p.cut_weight,
            p.weighted_cost,
            p.initial_epr_cost,
            p.final_epr_cost,
            join_or_dash(p.node_map.iter().map(|n| n.index().to_string()))
        ));
        let w = &p.work;
        out.push_str(&format!(
            "placement_work {} {} {} {} {} {}\n",
            w.oee_exchanges,
            w.oee_scanned,
            w.oee_cache_hits,
            w.place_exchanges,
            w.rounds_skipped,
            u8::from(w.saturated)
        ));
        let m = &self.metrics;
        out.push_str(&format!(
            "metrics {} {} {} {} {} {}\n",
            m.total_comms,
            m.tp_comms,
            m.peak_rem_cx,
            m.total_rem_cx,
            m.num_blocks,
            m.total_epr_cost
        ));
        out.push_str(&format!(
            "per_comm_rem_cx {}\n",
            join_or_dash(m.per_comm_rem_cx.iter().map(|x| x.to_string()))
        ));
        out.push_str(&format!(
            "pair_comms {}\n",
            join_or_dash(m.pair_comms.iter().map(|(a, b, n)| format!(
                "{}:{}:{}",
                a.index(),
                b.index(),
                n
            )))
        ));
        let b = &self.buffering;
        out.push_str(&format!(
            "buffering {} {} {} {} {} {} {} {}\n",
            b.policy.name(),
            b.requests,
            b.prefetch_hits,
            b.prefetch_misses,
            b.hit_rate,
            b.mean_epr_wait,
            b.mean_pair_age,
            u8::from(b.fell_back)
        ));
        out.push_str(&format!(
            "occupancy_hist {}\n",
            join_or_dash(b.occupancy_hist.iter().map(|x| x.to_string()))
        ));
        let s = &self.schedule;
        out.push_str(&format!(
            "schedule {} {} {} {} {} {}\n",
            s.makespan, s.epr_pairs, s.swaps, s.fusion_savings, s.cat_blocks, s.tp_blocks
        ));
        out.push_str(&format!(
            "link_traffic {}\n",
            join_or_dash(s.link_traffic.iter().map(|(a, b, n)| format!(
                "{}:{}:{}",
                a.index(),
                b.index(),
                n
            )))
        ));
        out.push_str(&format!("ops {}\n", self.program.len()));
        for op in &self.program {
            match op {
                CommOp::Local(g) => out.push_str(&format!("l {}\n", gate_record(g))),
                CommOp::Cat { q, node, body } => {
                    out.push_str(&format!("c {} {} {}\n", q.index(), node.index(), body.len()));
                    for g in body {
                        out.push_str(&format!("g {}\n", gate_record(g)));
                    }
                }
                CommOp::Tp { q, node, body } => {
                    out.push_str(&format!("t {} {} {}\n", q.index(), node.index(), body.len()));
                    for g in body {
                        out.push_str(&format!("g {}\n", gate_record(g)));
                    }
                }
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parses the canonical text form back into an artifact.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError`] with the first offending 1-based line on
    /// any malformed, missing, or trailing record.
    pub fn from_text(text: &str) -> Result<CompiledArtifact, ArtifactError> {
        let mut lines = Reader::new(text);
        let header = lines.next_record("header")?;
        if header != format!("autocomm-artifact v{ARTIFACT_VERSION}") {
            return Err(lines.err(format!("unsupported header '{header}'")));
        }
        let key = lines.tagged("key")?.to_string();
        let nodes = lines.tagged("nodes")?.parse::<usize>().map_err(|e| lines.err(e))?;
        let comm_qubits =
            lines.tagged("comm_qubits")?.parse::<usize>().map_err(|e| lines.err(e))?;
        let topo_line = lines.tagged("topology")?.to_string();
        let mut topo = topo_line.split(' ');
        let topology = topo.next().unwrap_or_default().to_string();
        let links = parse_field(&lines, topo.next(), "topology links")?;
        let diameter = match topo.next() {
            Some("-") => None,
            Some(d) => Some(d.parse::<usize>().map_err(|e| lines.err(e))?),
            None => return Err(lines.err("topology record truncated")),
        };
        let strategy = lines.tagged("strategy")?.to_string();
        let refine_iters =
            lines.tagged("refine_iters")?.parse::<usize>().map_err(|e| lines.err(e))?;
        let buffer_name = lines.tagged("buffer")?.to_string();
        let buffer = BufferPolicy::parse(&buffer_name)
            .ok_or_else(|| lines.err(format!("unknown buffer policy '{buffer_name}'")))?;
        let ablations = split_or_dash(lines.tagged("ablations")?)
            .map(|name| {
                Ablation::parse(name).ok_or_else(|| lines.err(format!("unknown ablation '{name}'")))
            })
            .collect::<Result<Vec<_>, _>>()?;

        let [qubits, gates, two_qubit_gates, remote_cx] = lines.fixed("circuit")?;
        let circuit = ArtifactCircuitStats { qubits, gates, two_qubit_gates, remote_cx };
        let [ir_gates, unique_gates, burst_pairs] = lines.fixed("ir")?;
        let ir = ArtifactIrStats { gates: ir_gates, unique_gates, burst_pairs };

        let place_line = lines.tagged("placement")?.to_string();
        let mut f = place_line.split(' ');
        let mut placement = PlacementReport {
            iterations: parse_field(&lines, f.next(), "placement iterations")?,
            cut_weight: parse_field(&lines, f.next(), "placement cut_weight")?,
            weighted_cost: parse_field(&lines, f.next(), "placement weighted_cost")?,
            initial_epr_cost: parse_field(&lines, f.next(), "placement initial_epr_cost")?,
            final_epr_cost: parse_field(&lines, f.next(), "placement final_epr_cost")?,
            node_map: split_or_dash(f.next().unwrap_or("-"))
                .map(|n| Ok(NodeId::new(n.parse::<usize>().map_err(|e| lines.err(e))?)))
                .collect::<Result<Vec<_>, ArtifactError>>()?,
            work: PlacementWork::default(),
        };
        let work_line = lines.tagged("placement_work")?.to_string();
        let mut f = work_line.split(' ');
        placement.work = PlacementWork {
            oee_exchanges: parse_field(&lines, f.next(), "placement_work oee_exchanges")?,
            oee_scanned: parse_field(&lines, f.next(), "placement_work oee_scanned")?,
            oee_cache_hits: parse_field(&lines, f.next(), "placement_work oee_cache_hits")?,
            place_exchanges: parse_field(&lines, f.next(), "placement_work place_exchanges")?,
            rounds_skipped: parse_field(&lines, f.next(), "placement_work rounds_skipped")?,
            saturated: parse_field::<u8>(&lines, f.next(), "placement_work saturated")? != 0,
        };

        let metrics_line = lines.tagged("metrics")?.to_string();
        let mut f = metrics_line.split(' ');
        let mut metrics = CommMetrics {
            total_comms: parse_field(&lines, f.next(), "metrics total_comms")?,
            tp_comms: parse_field(&lines, f.next(), "metrics tp_comms")?,
            peak_rem_cx: parse_field(&lines, f.next(), "metrics peak_rem_cx")?,
            total_rem_cx: parse_field(&lines, f.next(), "metrics total_rem_cx")?,
            per_comm_rem_cx: Vec::new(),
            num_blocks: parse_field(&lines, f.next(), "metrics num_blocks")?,
            total_epr_cost: parse_field(&lines, f.next(), "metrics total_epr_cost")?,
            pair_comms: Vec::new(),
        };
        metrics.per_comm_rem_cx = split_or_dash(lines.tagged("per_comm_rem_cx")?)
            .map(|x| x.parse::<f64>().map_err(|e| lines.err(e)))
            .collect::<Result<Vec<_>, _>>()?;
        metrics.pair_comms = split_or_dash(lines.tagged("pair_comms")?)
            .map(|t| parse_triple(&lines, t))
            .collect::<Result<Vec<_>, _>>()?;

        let buf_line = lines.tagged("buffering")?.to_string();
        let mut f = buf_line.split(' ');
        let policy_name = f.next().unwrap_or_default();
        let mut buffering = BufferingReport {
            policy: BufferPolicy::parse(policy_name)
                .ok_or_else(|| lines.err(format!("unknown buffer policy '{policy_name}'")))?,
            requests: parse_field(&lines, f.next(), "buffering requests")?,
            prefetch_hits: parse_field(&lines, f.next(), "buffering prefetch_hits")?,
            prefetch_misses: parse_field(&lines, f.next(), "buffering prefetch_misses")?,
            hit_rate: parse_field(&lines, f.next(), "buffering hit_rate")?,
            mean_epr_wait: parse_field(&lines, f.next(), "buffering mean_epr_wait")?,
            mean_pair_age: parse_field(&lines, f.next(), "buffering mean_pair_age")?,
            occupancy_hist: Vec::new(),
            fell_back: parse_field::<u8>(&lines, f.next(), "buffering fell_back")? != 0,
        };
        buffering.occupancy_hist = split_or_dash(lines.tagged("occupancy_hist")?)
            .map(|x| x.parse::<u64>().map_err(|e| lines.err(e)))
            .collect::<Result<Vec<_>, _>>()?;

        let sched_line = lines.tagged("schedule")?.to_string();
        let mut f = sched_line.split(' ');
        let mut schedule = ArtifactSchedule {
            makespan: parse_field(&lines, f.next(), "schedule makespan")?,
            epr_pairs: parse_field(&lines, f.next(), "schedule epr_pairs")?,
            swaps: parse_field(&lines, f.next(), "schedule swaps")?,
            fusion_savings: parse_field(&lines, f.next(), "schedule fusion_savings")?,
            cat_blocks: parse_field(&lines, f.next(), "schedule cat_blocks")?,
            tp_blocks: parse_field(&lines, f.next(), "schedule tp_blocks")?,
            link_traffic: Vec::new(),
        };
        schedule.link_traffic = split_or_dash(lines.tagged("link_traffic")?)
            .map(|t| parse_triple(&lines, t))
            .collect::<Result<Vec<_>, _>>()?;

        let ops = lines.tagged("ops")?.parse::<usize>().map_err(|e| lines.err(e))?;
        let mut program = Vec::with_capacity(ops);
        for _ in 0..ops {
            let record = lines.next_record("comm op")?.to_string();
            let (tag, rest) = record.split_once(' ').unwrap_or((record.as_str(), ""));
            match tag {
                "l" => program.push(CommOp::Local(parse_gate(&lines, rest)?)),
                "c" | "t" => {
                    let mut f = rest.split(' ');
                    let q = QubitId::new(parse_field(&lines, f.next(), "op qubit")?);
                    let node = NodeId::new(parse_field(&lines, f.next(), "op node")?);
                    let len: usize = parse_field(&lines, f.next(), "op body length")?;
                    let mut body = Vec::with_capacity(len);
                    for _ in 0..len {
                        let g = lines.tagged("g")?.to_string();
                        body.push(parse_gate(&lines, &g)?);
                    }
                    program.push(if tag == "c" {
                        CommOp::Cat { q, node, body }
                    } else {
                        CommOp::Tp { q, node, body }
                    });
                }
                other => return Err(lines.err(format!("unknown op record '{other}'"))),
            }
        }
        let end = lines.next_record("end")?;
        if end != "end" {
            return Err(lines.err(format!("expected 'end', found '{end}'")));
        }
        if let Some(extra) = lines.peek() {
            let extra = extra.to_string();
            return Err(lines.err(format!("trailing content '{extra}'")));
        }

        Ok(CompiledArtifact {
            config: ArtifactConfig {
                key,
                nodes,
                comm_qubits,
                topology,
                links,
                diameter,
                strategy,
                refine_iters,
                buffer,
                ablations,
            },
            circuit,
            ir,
            placement,
            metrics,
            buffering,
            schedule,
            program,
        })
    }
}

/// One gate as a single record: `kind qubits params cbit cond`, each list
/// comma-joined with `-` for empty/none. Parameters use Rust's shortest
/// round-trip `f64` formatting, so the record is bit-exact.
fn gate_record(g: &Gate) -> String {
    format!(
        "{} {} {} {} {}",
        g.kind().name(),
        join_or_dash(g.qubits().iter().map(|q| q.index().to_string())),
        join_or_dash(g.params().iter().map(|p| p.to_string())),
        g.cbit().map_or("-".to_string(), |c| c.index().to_string()),
        g.condition().map_or("-".to_string(), |c| c.index().to_string()),
    )
}

fn parse_gate(lines: &Reader<'_>, record: &str) -> Result<Gate, ArtifactError> {
    let mut f = record.split(' ');
    let kind_name = f.next().unwrap_or_default();
    let kind = GateKind::parse(kind_name)
        .ok_or_else(|| lines.err(format!("unknown gate kind '{kind_name}'")))?;
    let qubits = split_or_dash(f.next().unwrap_or("-"))
        .map(|q| Ok(QubitId::new(q.parse::<usize>().map_err(|e| lines.err(e))?)))
        .collect::<Result<Vec<_>, ArtifactError>>()?;
    let params = split_or_dash(f.next().unwrap_or("-"))
        .map(|p| p.parse::<f64>().map_err(|e| lines.err(e)))
        .collect::<Result<Vec<_>, _>>()?;
    let cbit = parse_opt_bit(lines, f.next())?;
    let condition = parse_opt_bit(lines, f.next())?;
    let mut gate = match (kind, cbit) {
        (GateKind::Measure, Some(c)) => {
            if qubits.len() != 1 {
                return Err(lines.err("measure takes exactly one qubit"));
            }
            Gate::measure(qubits[0], c)
        }
        (_, Some(_)) => return Err(lines.err(format!("gate kind '{kind_name}' takes no cbit"))),
        (_, None) => Gate::try_new(kind, qubits, params).map_err(|e| lines.err(e))?,
    };
    if let Some(c) = condition {
        gate = gate.with_condition(c);
    }
    Ok(gate)
}

fn parse_opt_bit(lines: &Reader<'_>, field: Option<&str>) -> Result<Option<CBitId>, ArtifactError> {
    match field {
        Some("-") => Ok(None),
        Some(c) => Ok(Some(CBitId::new(c.parse::<usize>().map_err(|e| lines.err(e))?))),
        None => Err(lines.err("gate record truncated")),
    }
}

fn parse_field<T: std::str::FromStr>(
    lines: &Reader<'_>,
    field: Option<&str>,
    what: &str,
) -> Result<T, ArtifactError>
where
    T::Err: fmt::Display,
{
    let field = field.ok_or_else(|| lines.err(format!("missing {what}")))?;
    field.parse::<T>().map_err(|e| lines.err(format!("{what}: {e}")))
}

fn parse_triple(
    lines: &Reader<'_>,
    triple: &str,
) -> Result<(NodeId, NodeId, usize), ArtifactError> {
    let mut f = triple.split(':');
    let a: usize = parse_field(lines, f.next(), "triple node")?;
    let b: usize = parse_field(lines, f.next(), "triple node")?;
    let n: usize = parse_field(lines, f.next(), "triple count")?;
    Ok((NodeId::new(a), NodeId::new(b), n))
}

fn join_or_dash(items: impl Iterator<Item = String>) -> String {
    let joined = items.collect::<Vec<_>>().join(",");
    if joined.is_empty() {
        "-".to_string()
    } else {
        joined
    }
}

fn split_or_dash(field: &str) -> impl Iterator<Item = &str> {
    field.split(',').filter(|s| !s.is_empty() && *s != "-")
}

/// Line cursor with 1-based position for error reporting.
struct Reader<'a> {
    lines: std::iter::Peekable<std::str::Lines<'a>>,
    line: std::cell::Cell<usize>,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader { lines: text.lines().peekable(), line: std::cell::Cell::new(0) }
    }

    fn err(&self, message: impl fmt::Display) -> ArtifactError {
        ArtifactError { line: self.line.get(), message: message.to_string() }
    }

    fn peek(&mut self) -> Option<&str> {
        self.lines.peek().copied()
    }

    fn next_record(&mut self, what: &str) -> Result<&'a str, ArtifactError> {
        self.line.set(self.line.get() + 1);
        self.lines.next().ok_or_else(|| self.err(format!("missing {what} record")))
    }

    /// Consumes the next line, which must start with `tag` followed by a
    /// space (or be exactly `tag`), and returns the rest.
    fn tagged(&mut self, tag: &str) -> Result<&'a str, ArtifactError> {
        let record = self.next_record(tag)?;
        match record.strip_prefix(tag) {
            Some("") => Ok(""),
            Some(rest) => rest
                .strip_prefix(' ')
                .ok_or_else(|| self.err(format!("expected '{tag}' record, found '{record}'"))),
            None => Err(self.err(format!("expected '{tag}' record, found '{record}'"))),
        }
    }

    /// A record of exactly `N` unsigned integers after its tag.
    fn fixed<const N: usize>(&mut self, tag: &str) -> Result<[usize; N], ArtifactError> {
        let rest = self.tagged(tag)?;
        let mut out = [0usize; N];
        let mut fields = rest.split(' ');
        for slot in &mut out {
            *slot = parse_field(self, fields.next(), tag)?;
        }
        if fields.next().is_some() {
            return Err(self.err(format!("trailing fields in '{tag}' record")));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AutoComm;
    use dqc_circuit::{Circuit, Partition};

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    fn compile_sample() -> CompiledArtifact {
        let mut c = Circuit::new(4);
        c.push(Gate::h(q(0))).unwrap();
        c.push(Gate::cx(q(0), q(2))).unwrap();
        c.push(Gate::rz(0.75, q(0))).unwrap();
        c.push(Gate::cx(q(0), q(3))).unwrap();
        c.push(Gate::cx(q(3), q(0))).unwrap();
        let p = Partition::block(4, 2).unwrap();
        let hw = HardwareSpec::for_partition(&p);
        let result = AutoComm::new().compile(&c, &p).unwrap();
        let config = ArtifactConfig {
            key: "test-key".into(),
            nodes: 2,
            comm_qubits: 2,
            strategy: "block".into(),
            refine_iters: 0,
            buffer: BufferPolicy::OnDemand,
            ablations: vec![Ablation::NoCommute],
            ..ArtifactConfig::default()
        };
        let circuit =
            ArtifactCircuitStats { qubits: 4, gates: c.len(), two_qubit_gates: 3, remote_cx: 3 };
        CompiledArtifact::capture(
            config,
            circuit,
            &hw,
            &PlacementReport {
                iterations: 0,
                cut_weight: 3,
                weighted_cost: 3,
                node_map: vec![NodeId::new(0), NodeId::new(1)],
                initial_epr_cost: result.metrics.total_epr_cost,
                final_epr_cost: result.metrics.total_epr_cost,
                work: PlacementWork {
                    oee_exchanges: 1,
                    oee_scanned: 6,
                    ..PlacementWork::default()
                },
            },
            &result,
        )
    }

    #[test]
    fn round_trip_is_exact_and_byte_identical() {
        let artifact = compile_sample();
        let text = artifact.to_text();
        let parsed = CompiledArtifact::from_text(&text).unwrap();
        assert_eq!(parsed, artifact);
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn program_carries_comm_primitives() {
        let artifact = compile_sample();
        assert!(!artifact.program.is_empty());
        assert!(artifact
            .program
            .iter()
            .any(|op| matches!(op, CommOp::Cat { .. } | CommOp::Tp { .. })));
    }

    #[test]
    fn gates_with_conditions_round_trip() {
        let g = Gate::x(q(1)).with_condition(CBitId::new(3));
        let reader = Reader::new("");
        let parsed = parse_gate(&reader, &gate_record(&g)).unwrap();
        assert_eq!(parsed, g);
        let m = Gate::measure(q(0), CBitId::new(2));
        assert_eq!(parse_gate(&reader, &gate_record(&m)).unwrap(), m);
        let u = Gate::u3(0.1, -0.0, 2e-9, q(2));
        assert_eq!(parse_gate(&reader, &gate_record(&u)).unwrap(), u);
        // Wide gates keep their operands out of line.
        let qs: Vec<QubitId> = (0..10).map(q).collect();
        for wide in [Gate::mcx(&qs[..3], q(9)), Gate::barrier(&qs)] {
            assert_eq!(parse_gate(&reader, &gate_record(&wide)).unwrap(), wide);
        }
    }

    #[test]
    fn malformed_text_reports_the_line() {
        let artifact = compile_sample();
        let mut text = artifact.to_text();
        text = text.replace("metrics ", "metrics x");
        let err = CompiledArtifact::from_text(&text).unwrap_err();
        assert!(err.line > 1, "{err}");
        assert!(CompiledArtifact::from_text("bogus").is_err());
        let truncated = artifact.to_text().replace("end\n", "");
        assert!(CompiledArtifact::from_text(&truncated).is_err());
        let trailing = artifact.to_text() + "extra\n";
        assert!(CompiledArtifact::from_text(&trailing).is_err());
        // A v2 text is rejected at its header, before its `ir` record
        // (four numbers in v2) is read.
        let v2 = artifact.to_text().replacen("autocomm-artifact v3", "autocomm-artifact v2", 1);
        let err = CompiledArtifact::from_text(&v2).unwrap_err();
        assert_eq!(err.line, 1, "{err}");
        assert_eq!(err.message, "unsupported header 'autocomm-artifact v2'");
    }
}

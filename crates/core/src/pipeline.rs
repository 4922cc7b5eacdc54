//! The end-to-end AutoComm compiler, expressed as a pass pipeline.
//!
//! [`Pipeline`] composes [`Pass`] stages over a shared [`PassContext`];
//! [`AutoComm`] is the convenience wrapper that maps an
//! [`AutoCommOptions`] configuration onto the canonical
//! orient → unroll → aggregate → assign → metrics → schedule pipeline.
//! Every paper ablation (Fig. 17) is an [`Ablation`] applied to the
//! options — one code path, many configurations.

use std::sync::Arc;

use dqc_circuit::{Circuit, NodeId, Partition};
use dqc_hardware::HardwareSpec;
use dqc_partition::{oee_refine_cached, place_blocks_stats, OeeCache, OeeOptions, PlaceOptions};
use dqc_protocols::PhysicalProgram;

use crate::pass::{
    run_timed, schedule_metric, AggregatePass, AssignPass, IrPass, LowerPass, MetricsPass,
    OrientPass, Pass, PassContext, PassReport, PlacementPass, SchedulePass, UnrollPass,
};
use crate::{
    comm_weighted_graph, AggregateOptions, AggregatedProgram, AssignedProgram, CommIr, CommMetrics,
    CompileError, Placement, ScheduleOptions, ScheduleSummary,
};

/// How the pipeline maps partition blocks onto physical topology nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PlacementStrategy {
    /// Block `i` lands on node `i` — the historical implicit map, and the
    /// bit-identity safety rail.
    #[default]
    Identity,
    /// Insert a [`PlacementPass`] after aggregation: one traffic-aware
    /// block→node optimization per compile (the iterative driver
    /// [`AutoComm::compile_placed`] goes further and feeds *measured*
    /// communication counts back in).
    Topology,
}

/// Pipeline configuration; the defaults reproduce full AutoComm, and each
/// toggle corresponds to one ablation of paper Fig. 17.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AutoCommOptions {
    /// Use commutation rules during aggregation (off = Fig. 17a's
    /// “No Commute”).
    pub commutation_aggregation: bool,
    /// Orient symmetric diagonal gates (CZ/CP/RZZ) so the heavier burst
    /// pair gets the Cat-friendly control side before unrolling.
    pub orient_symmetric: bool,
    /// Use the hybrid Cat/TP assignment (off = Fig. 17b's “Cat-Comm only”).
    pub hybrid_assignment: bool,
    /// Block→node placement (identity reproduces the historical pipeline).
    pub placement: PlacementStrategy,
    /// Aggregation tuning.
    pub aggregate: AggregateOptions,
    /// Scheduler tuning ([`ScheduleOptions::plain_greedy`] = Fig. 17c's
    /// “Greedy”).
    pub schedule: ScheduleOptions,
}

impl Default for AutoCommOptions {
    fn default() -> Self {
        AutoCommOptions {
            commutation_aggregation: true,
            orient_symmetric: true,
            hybrid_assignment: true,
            placement: PlacementStrategy::Identity,
            aggregate: AggregateOptions::default(),
            schedule: ScheduleOptions::default(),
        }
    }
}

impl AutoCommOptions {
    /// These options with one ablation applied.
    pub fn with_ablation(self, ablation: Ablation) -> Self {
        ablation.apply(self)
    }

    /// These options with `policy` selecting the scheduler's EPR-buffering
    /// engine (threads into [`ScheduleOptions::buffer`];
    /// [`crate::BufferPolicy::OnDemand`] is the bit-identical default).
    #[must_use]
    pub fn with_buffer(mut self, policy: crate::BufferPolicy) -> Self {
        self.schedule.buffer = policy;
        self
    }
}

/// The single-knob pipeline ablations of paper Fig. 17, each disabling
/// exactly one optimization of the full compiler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ablation {
    /// Fig. 17(a): aggregation without commutation rules — every remote
    /// gate becomes a singleton block.
    NoCommute,
    /// Fig. 17(b): Cat-Comm-only assignment (no TP fallback).
    CatOnly,
    /// Fig. 17(c): plain as-soon-as-possible scheduling — no prefetching,
    /// no parallel commutable blocks, no TP fusion.
    PlainGreedy,
    /// Skip the symmetric-gate orientation pre-pass.
    NoOrient,
}

impl Ablation {
    /// Every ablation, in paper order.
    pub fn all() -> [Ablation; 4] {
        [Ablation::NoCommute, Ablation::CatOnly, Ablation::PlainGreedy, Ablation::NoOrient]
    }

    /// The kebab-case name used by the CLI (`--ablation <name>`).
    pub fn name(self) -> &'static str {
        match self {
            Ablation::NoCommute => "no-commute",
            Ablation::CatOnly => "cat-only",
            Ablation::PlainGreedy => "plain-greedy",
            Ablation::NoOrient => "no-orient",
        }
    }

    /// Parses the kebab-case [`Ablation::name`] form.
    pub fn parse(name: &str) -> Option<Ablation> {
        Ablation::all().into_iter().find(|a| a.name() == name)
    }

    /// Applies this ablation to a configuration.
    pub fn apply(self, mut options: AutoCommOptions) -> AutoCommOptions {
        match self {
            Ablation::NoCommute => options.commutation_aggregation = false,
            Ablation::CatOnly => options.hybrid_assignment = false,
            Ablation::PlainGreedy => options.schedule = ScheduleOptions::plain_greedy(),
            Ablation::NoOrient => options.orient_symmetric = false,
        }
        options
    }
}

/// A composed sequence of passes.
///
/// Build one by hand with [`Pipeline::builder`], or derive the canonical
/// AutoComm sequence from options with [`Pipeline::autocomm`]:
///
/// ```
/// use autocomm::{AggregateOptions, Pipeline, ScheduleOptions};
/// use dqc_circuit::{Circuit, Gate, Partition, QubitId};
/// use dqc_hardware::HardwareSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = |i| QubitId::new(i);
/// let mut circuit = Circuit::new(4);
/// circuit.push(Gate::cx(q(0), q(2)))?;
/// circuit.push(Gate::cx(q(0), q(3)))?;
/// let partition = Partition::block(4, 2)?;
/// let hw = HardwareSpec::for_partition(&partition);
///
/// let pipeline = Pipeline::builder()
///     .unroll()
///     .aggregate(AggregateOptions::default())
///     .assign()
///     .metrics()
///     .schedule(ScheduleOptions::default())
///     .build();
/// let out = pipeline.run(&circuit, &partition, &hw)?;
/// assert_eq!(out.metrics.unwrap().total_comms, 1);
/// assert_eq!(out.reports.len(), 5);
/// # Ok(())
/// # }
/// ```
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl Pipeline {
    /// An empty pipeline builder.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder { passes: Vec::new() }
    }

    /// The canonical AutoComm pipeline for `options`:
    /// orient → unroll → comm-ir → aggregate → [place →] assign → metrics →
    /// schedule (the orient stage drops when `options.orient_symmetric` is
    /// off; the place stage appears only under
    /// [`PlacementStrategy::Topology`]).
    pub fn autocomm(options: &AutoCommOptions) -> Pipeline {
        Pipeline::autocomm_prefix(options).schedule(options.schedule).build()
    }

    /// The canonical pipeline *without* the scheduling stage — everything
    /// needed to evaluate a candidate placement's EPR cost. The placement
    /// driver uses this for rounds that re-partition (scheduling the
    /// discarded candidates would be pure waste; the winning placement
    /// gets one full compile at the end).
    pub(crate) fn autocomm_analysis(options: &AutoCommOptions) -> Pipeline {
        Pipeline::autocomm_prefix(options).build()
    }

    /// Shared prefix of [`Pipeline::autocomm`] and
    /// [`Pipeline::autocomm_analysis`]: everything through metrics.
    fn autocomm_prefix(options: &AutoCommOptions) -> PipelineBuilder {
        let mut builder = Pipeline::builder();
        if options.orient_symmetric {
            builder = builder.orient();
        }
        builder = builder.unroll().comm_ir();
        builder = if options.commutation_aggregation {
            builder.aggregate(options.aggregate)
        } else {
            builder.aggregate_no_commute()
        };
        if options.placement == PlacementStrategy::Topology {
            builder = builder.place();
        }
        builder =
            if options.hybrid_assignment { builder.assign() } else { builder.assign_cat_only() };
        builder.metrics()
    }

    /// The pass names, in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass in order over `circuit` under the identity
    /// placement (block `i` on node `i` — the historical behavior).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::RegisterMismatch`] when the partition does
    /// not cover the circuit, and propagates the first failing pass's
    /// error.
    pub fn run(
        &self,
        circuit: &Circuit,
        partition: &Partition,
        hardware: &HardwareSpec,
    ) -> Result<PipelineOutput, CompileError> {
        self.run_placed(circuit, &Placement::identity(partition), hardware)
    }

    /// Runs every pass in order over `circuit` against an explicit
    /// placement (the iterative driver's entry point; a [`PlacementPass`]
    /// in the pipeline overrides the provided map with its own optimized
    /// one).
    ///
    /// # Errors
    ///
    /// See [`Pipeline::run`].
    pub fn run_placed(
        &self,
        circuit: &Circuit,
        placement: &Placement,
        hardware: &HardwareSpec,
    ) -> Result<PipelineOutput, CompileError> {
        if circuit.num_qubits() != placement.num_qubits() {
            return Err(CompileError::RegisterMismatch {
                circuit_qubits: circuit.num_qubits(),
                partition_qubits: placement.num_qubits(),
            });
        }
        let mut ctx = PassContext::new_placed(circuit, placement, hardware);
        let mut reports = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            reports.push(run_timed(pass.as_ref(), &mut ctx)?);
        }
        Ok(PipelineOutput {
            circuit: ctx.circuit.into_owned(),
            placement: ctx.placement,
            ir: ctx.ir,
            aggregated: ctx.aggregated,
            assigned: ctx.assigned,
            metrics: ctx.metrics,
            schedule: ctx.schedule,
            lowered: ctx.lowered,
            reports,
        })
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline").field("passes", &self.pass_names()).finish()
    }
}

/// Fluent construction of a [`Pipeline`].
pub struct PipelineBuilder {
    passes: Vec<Box<dyn Pass>>,
}

impl std::fmt::Debug for PipelineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.passes.iter().map(|p| p.name()).collect();
        f.debug_struct("PipelineBuilder").field("passes", &names).finish()
    }
}

impl PipelineBuilder {
    /// Appends an arbitrary pass (the extension point for new protocols and
    /// experiments).
    pub fn pass(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Appends the symmetric-gate orientation stage.
    pub fn orient(self) -> Self {
        self.pass(OrientPass)
    }

    /// Appends the CX+U3 unrolling stage.
    pub fn unroll(self) -> Self {
        self.pass(UnrollPass)
    }

    /// Appends the indexed-IR construction stage (must follow unrolling;
    /// aggregation builds the IR on demand when this stage is omitted).
    pub fn comm_ir(self) -> Self {
        self.pass(IrPass)
    }

    /// Appends commutation-aware burst aggregation.
    pub fn aggregate(self, options: AggregateOptions) -> Self {
        self.pass(AggregatePass { options, no_commute: false })
    }

    /// Appends commutation-free aggregation (Fig. 17a's “No Commute”).
    pub fn aggregate_no_commute(self) -> Self {
        self.pass(AggregatePass { options: AggregateOptions::default(), no_commute: true })
    }

    /// Appends the topology-aware block→node placement stage (must follow
    /// aggregation — it optimizes over the discovered burst blocks).
    pub fn place(self) -> Self {
        self.pass(PlacementPass::default())
    }

    /// Appends a placement stage optimizing an explicit (typically
    /// *measured*) block-level traffic matrix instead of the aggregated
    /// program's predicted one.
    pub fn place_with_traffic(self, traffic: Vec<Vec<u64>>) -> Self {
        self.pass(PlacementPass { traffic: Some(traffic) })
    }

    /// Appends hybrid Cat/TP scheme assignment.
    pub fn assign(self) -> Self {
        self.pass(AssignPass { hybrid: true })
    }

    /// Appends Cat-Comm-only scheme assignment (Fig. 17b).
    pub fn assign_cat_only(self) -> Self {
        self.pass(AssignPass { hybrid: false })
    }

    /// Appends the Table-3 metrics stage.
    pub fn metrics(self) -> Self {
        self.pass(MetricsPass)
    }

    /// Appends the latency scheduling stage.
    pub fn schedule(self, options: ScheduleOptions) -> Self {
        self.pass(SchedulePass { options })
    }

    /// Appends physical protocol lowering (the verification back-end).
    pub fn lower(self) -> Self {
        self.pass(LowerPass)
    }

    /// Finishes the pipeline.
    pub fn build(self) -> Pipeline {
        Pipeline { passes: self.passes }
    }
}

/// Everything a pipeline run produced: the final logical circuit, each
/// stage's artifact (present iff the stage was in the pipeline), and the
/// per-pass reports.
#[derive(Clone, Debug)]
pub struct PipelineOutput {
    /// The logical circuit after all circuit-rewriting stages.
    pub circuit: Circuit,
    /// The placement the run compiled against (identity unless a
    /// [`PlacementPass`] ran or [`Pipeline::run_placed`] provided one).
    pub placement: Placement,
    /// The indexed IR, if the comm-ir (or an aggregation) stage ran.
    pub ir: Option<Arc<CommIr>>,
    /// Burst blocks, if an aggregation stage ran.
    pub aggregated: Option<AggregatedProgram>,
    /// Scheme-assigned blocks, if an assignment stage ran.
    pub assigned: Option<AssignedProgram>,
    /// Table-3 metrics, if the metrics stage ran.
    pub metrics: Option<CommMetrics>,
    /// Latency schedule, if the scheduling stage ran.
    pub schedule: Option<ScheduleSummary>,
    /// Physical expansion, if the lowering stage ran.
    pub lowered: Option<PhysicalProgram>,
    /// Per-pass timing and headline metrics, in execution order.
    pub reports: Vec<PassReport>,
}

/// The AutoComm compiler: the canonical pipeline derived from
/// [`AutoCommOptions`].
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Clone, Debug, Default)]
pub struct AutoComm {
    options: AutoCommOptions,
}

/// Everything the compiler produces for one program.
#[derive(Clone, Debug)]
pub struct CompileResult {
    /// The input circuit in the CX+U3 basis.
    pub unrolled: Circuit,
    /// The placement (partition + block→node map) the program was compiled
    /// against. Identity for the plain [`AutoComm::compile`] path.
    pub placement: Placement,
    /// The shared indexed IR every artifact resolves against.
    pub ir: Arc<CommIr>,
    /// Burst blocks after aggregation.
    pub aggregated: AggregatedProgram,
    /// Blocks with assigned communication schemes.
    pub assigned: AssignedProgram,
    /// Paper Table-3 style communication metrics.
    pub metrics: CommMetrics,
    /// Latency schedule on the two-comm-qubit hardware model.
    pub schedule: ScheduleSummary,
    /// Per-pass timing and headline metrics.
    pub passes: Vec<PassReport>,
}

impl AutoComm {
    /// A compiler with the paper's full optimization set.
    pub fn new() -> Self {
        AutoComm { options: AutoCommOptions::default() }
    }

    /// A compiler with explicit options (used by the ablation benches).
    pub fn with_options(options: AutoCommOptions) -> Self {
        AutoComm { options }
    }

    /// A compiler with `ablations` applied to the full optimization set.
    pub fn with_ablations(ablations: &[Ablation]) -> Self {
        let options =
            ablations.iter().fold(AutoCommOptions::default(), |opts, &a| opts.with_ablation(a));
        AutoComm { options }
    }

    /// The active options.
    pub fn options(&self) -> &AutoCommOptions {
        &self.options
    }

    /// The pipeline this compiler runs.
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::autocomm(&self.options)
    }

    /// Compiles `circuit` for the machine implied by `partition` (one node
    /// per partition class, two communication qubits each).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::RegisterMismatch`] when the partition does
    /// not cover the circuit, and propagates unrolling failures (e.g. a
    /// multi-controlled gate without ancillas).
    pub fn compile(
        &self,
        circuit: &Circuit,
        partition: &Partition,
    ) -> Result<CompileResult, CompileError> {
        self.compile_on(circuit, partition, &HardwareSpec::for_partition(partition))
    }

    /// Compiles for an explicit hardware model (more communication qubits,
    /// different latency constants, …).
    ///
    /// # Errors
    ///
    /// See [`AutoComm::compile`].
    pub fn compile_on(
        &self,
        circuit: &Circuit,
        partition: &Partition,
        hw: &HardwareSpec,
    ) -> Result<CompileResult, CompileError> {
        let out = self.pipeline().run(circuit, partition, hw)?;
        CompileResult::from_output(out)
    }

    /// Compiles against an explicit placement through this compiler's
    /// pipeline, with any in-pipeline placement stage removed — the caller
    /// owns the block→node map.
    ///
    /// # Errors
    ///
    /// See [`AutoComm::compile`].
    pub fn compile_with_placement(
        &self,
        circuit: &Circuit,
        placement: &Placement,
        hw: &HardwareSpec,
    ) -> Result<CompileResult, CompileError> {
        let mut options = self.options;
        options.placement = PlacementStrategy::Identity;
        let out = Pipeline::autocomm(&options).run_placed(circuit, placement, hw)?;
        CompileResult::from_output(out)
    }

    /// The topology- and traffic-aware iterative placement driver: compile,
    /// read the *measured* per-pair communication traffic out of
    /// [`CommMetrics::pair_comms`], re-weight the interaction graph with
    /// post-aggregation comm counts, re-place (block→node map via
    /// `dqc_partition::place_blocks`, qubit partition via hop-weighted
    /// `oee_refine_on`), and recompile — until the assignment-level EPR
    /// cost ([`CommMetrics::total_epr_cost`]) stops improving, bounded by
    /// `config.refine_iters` recompiles.
    ///
    /// Rounds that do not strictly improve are discarded, so the returned
    /// result never costs more EPR pairs than the identity placement of
    /// `partition` — and on all-to-all machines (where every map costs the
    /// same) the identity compile is returned untouched.
    ///
    /// The driver copies no compile artifact: the identity compile is the
    /// round state, rounds read its assignment and metrics by reference,
    /// and an accepted round moves its own artifacts in. With
    /// `refine_iters == 0` (the `block`/`oee` strategies) the identity
    /// compile is returned as built, so the zero-round driver costs one
    /// compile plus the report's interaction graph.
    ///
    /// # Errors
    ///
    /// See [`AutoComm::compile`].
    pub fn compile_placed(
        &self,
        circuit: &Circuit,
        partition: &Partition,
        hw: &HardwareSpec,
        config: &PlacementConfig,
    ) -> Result<(CompileResult, PlacementReport), CompileError> {
        let topology = hw.topology();
        // The identity compile is the round state: rounds borrow its
        // assignment and metrics, and an accepted round moves its artifacts
        // in. Evaluating a candidate placement never needs the schedule,
        // which is recomputed once after the loop, and only if a round was
        // accepted. The interaction graph is rebuilt only when an accepted
        // round changed the logical partition: it depends on the aggregated
        // program alone, not on the block→node map.
        let mut best = self.compile_with_placement(circuit, &Placement::identity(partition), hw)?;
        let initial_epr_cost = best.metrics.total_epr_cost;
        let mut graph = comm_weighted_graph(&best.aggregated);
        let mut iterations = 0usize;
        let mut work = PlacementWork::default();
        // Warm-start state for the hop-weighted OEE: carried across rounds
        // so a round re-refining an unchanged (graph, partition, map) state
        // resumes from the cached gain table instead of a cold O(n²)
        // scan. The sparse traffic fingerprint of the round that produced
        // the current placement lets an unchanged-traffic round skip
        // re-refinement entirely (see below).
        let mut oee_cache = OeeCache::new();
        let mut prev_pair_comms: Option<Vec<(NodeId, NodeId, usize)>> = None;
        for _ in 0..config.refine_iters {
            // Unchanged traffic graph ⇒ guaranteed fixed point: the round
            // that produced the current placement saw these exact pair
            // comms, so the deterministic place_blocks returns the same
            // map, and re-refining the already-converged partition under
            // the same metric finds no improving exchange — the round
            // would compute `candidate == placement` and break. Skip the
            // whole round. (Only armed by a partition-preserving accepted
            // round whose refinement terminated naturally: a changed
            // partition rebuilds the graph, and a saturated refinement is
            // not a fixed point.)
            if prev_pair_comms.as_ref() == Some(&best.metrics.pair_comms) {
                work.rounds_skipped += 1;
                break;
            }
            // Measured communication traffic over logical blocks — what the
            // compiled program actually pays per pair, post-aggregation
            // (dense form of the sparse `CommMetrics::pair_comms`).
            let traffic = best.metrics.traffic_matrix(best.placement.num_nodes());
            let (node_map, place_stats) = place_blocks_stats(
                &traffic,
                topology.num_nodes(),
                topology,
                PlaceOptions::default(),
            );
            work.place_exchanges += place_stats.exchanges;
            work.saturated |= place_stats.saturated;
            // Refine the partition under the candidate map's hop metric.
            let (refined, oee_stats) = oee_refine_cached(
                &graph,
                best.placement.partition().clone(),
                &node_map,
                topology,
                OeeOptions::default(),
                &mut oee_cache,
            );
            work.oee_exchanges += oee_stats.exchanges;
            work.oee_scanned += oee_stats.scanned;
            work.oee_cache_hits += oee_stats.cache_hits;
            work.saturated |= oee_stats.saturated;
            let refine_converged = !oee_stats.saturated;
            let candidate = Placement::new(refined, node_map)?;
            if candidate == best.placement {
                break; // fixed point
            }
            // Refinement rounds usually permute the block→node map and
            // leave the logical partition alone; then only blocks whose
            // physical endpoints moved are re-assigned (incremental
            // recompilation). A changed partition invalidates aggregation
            // and falls back to the analysis pipeline (no scheduling — the
            // winning placement gets its schedule after the loop).
            let (cand_rebuilt, cand_assigned, cand_metrics) =
                if candidate.partition() == best.placement.partition() {
                    let inc = crate::assign_incremental(
                        &best.assigned,
                        &best.placement,
                        &candidate,
                        topology,
                        self.options.hybrid_assignment,
                    );
                    let m = CommMetrics::of(&inc);
                    (None, inc, m)
                } else {
                    let mut options = self.options;
                    options.placement = PlacementStrategy::Identity;
                    let out = Pipeline::autocomm_analysis(&options)
                        .run_placed(circuit, &candidate, hw)?;
                    let missing = |stage| CompileError::MissingArtifact {
                        pass: "compile-placed",
                        missing: stage,
                    };
                    (
                        Some((
                            out.circuit,
                            out.ir.ok_or(missing("comm ir"))?,
                            out.aggregated.ok_or(missing("aggregated program"))?,
                            out.reports,
                        )),
                        out.assigned.ok_or(missing("assigned program"))?,
                        out.metrics.ok_or(missing("metrics"))?,
                    )
                };
            if cand_metrics.total_epr_cost >= best.metrics.total_epr_cost {
                break; // no improvement: keep the best-so-far placement
            }
            // Arm the unchanged-traffic skip only when its fixed-point
            // argument holds for the next round: the interaction graph
            // survives (partition-preserving round) and the refinement
            // above converged rather than hitting its safety valve.
            let arm_skip = cand_rebuilt.is_none() && refine_converged;
            let prev_metrics = std::mem::replace(&mut best.metrics, cand_metrics);
            prev_pair_comms = arm_skip.then_some(prev_metrics.pair_comms);
            if let Some((unrolled, ir, aggregated, passes)) = cand_rebuilt {
                best.unrolled = unrolled;
                best.ir = ir;
                best.aggregated = aggregated;
                best.passes = passes;
                graph = comm_weighted_graph(&best.aggregated);
            }
            best.assigned = cand_assigned;
            best.placement = candidate;
            iterations += 1;
        }
        // Schedule reuse: `best` already holds every pre-schedule artifact
        // of the winning placement (`assigned` shares the same
        // `Arc<CommIr>` the scheduler resolves against), so instead of the
        // historical full recompile only the schedule runs here, and only
        // when a round replaced the identity compile's. The property suite
        // pins this driver artifact-for-artifact against a full-recompile
        // reference driver (`dqc_bench::full_recompile_placed`), and debug
        // builds cross-check against a full recompile below.
        if iterations > 0 {
            // The identity run's stale schedule report is replaced by the
            // fresh one (`--timings` keys on unique pass names).
            best.passes.retain(|r| r.pass != "schedule");
            let started = std::time::Instant::now();
            best.schedule =
                crate::schedule(&best.assigned, &best.placement, hw, self.options.schedule);
            best.passes.push(PassReport {
                pass: "schedule",
                duration: started.elapsed(),
                metric: Some(schedule_metric(&best.schedule)),
            });
        }
        #[cfg(debug_assertions)]
        if iterations > 0 {
            let full = self.compile_with_placement(circuit, &best.placement, hw)?;
            assert_eq!(
                full.metrics, best.metrics,
                "incremental round metrics drifted from the full recompile"
            );
            assert_eq!(
                full.schedule, best.schedule,
                "reused schedule drifted from the full recompile"
            );
        }
        let placement = &best.placement;
        let report = PlacementReport {
            iterations,
            cut_weight: graph.cut_weight(placement.partition()),
            weighted_cost: graph.placed_cut_weight(
                placement.partition(),
                placement.node_map(),
                topology,
            ),
            node_map: placement.node_map().to_vec(),
            initial_epr_cost,
            final_epr_cost: best.metrics.total_epr_cost,
            work,
        };
        Ok((best, report))
    }
}

/// Bounds for the iterative placement driver
/// ([`AutoComm::compile_placed`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacementConfig {
    /// Maximum re-place + recompile rounds (the loop also stops at a fixed
    /// point or on the first non-improving round, so this is a ceiling,
    /// not a target).
    pub refine_iters: usize,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig { refine_iters: 3 }
    }
}

/// Work counters from the placement stage — how much the optimizer did,
/// not what it decided. Summed across every round the driver ran (accepted
/// or rejected).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlacementWork {
    /// Qubit exchanges the hop-weighted OEE applied.
    pub oee_exchanges: usize,
    /// Candidate gains OEE computed (cold scans plus delta updates).
    pub oee_scanned: u64,
    /// Candidate gains OEE reused from its cache instead of recomputing —
    /// the work the gain cache and warm start saved over a full rescan.
    pub oee_cache_hits: u64,
    /// Block swaps the map-placement refinement applied.
    pub place_exchanges: usize,
    /// Rounds skipped outright because the traffic graph was unchanged
    /// from the round that produced the current placement (a guaranteed
    /// fixed point). A driver that never skips (such as the full-recompile
    /// reference in `dqc_bench`) reports 0.
    pub rounds_skipped: usize,
    /// True when any exchange loop hit its `max_exchanges` safety valve —
    /// the result may be under-refined.
    pub saturated: bool,
}

/// What the iterative placement driver did and achieved.
///
/// Equality deliberately *excludes* [`PlacementReport::work`]: the work
/// counters trace execution (cache hits, skipped rounds), and
/// [`AutoComm::compile_placed`] and the full-recompile reference driver in
/// `dqc_bench` legitimately differ there while producing identical
/// placements — the property suite pins every other field across both
/// drivers.
#[derive(Clone, Debug)]
pub struct PlacementReport {
    /// Accepted re-place + recompile rounds (0 = the identity placement
    /// was already optimal, or the topology made placement irrelevant).
    pub iterations: usize,
    /// Unweighted cut of the final partition over the communication
    /// weighted interaction graph (cross-block burst communications).
    pub cut_weight: u64,
    /// Hop-weighted cut of the final placement — `Σ comm-weight × hops`
    /// between the physical nodes the blocks landed on.
    pub weighted_cost: u64,
    /// The final block→node map.
    pub node_map: Vec<NodeId>,
    /// Assignment-level EPR cost of the identity-placement compile the
    /// driver started from.
    pub initial_epr_cost: usize,
    /// Assignment-level EPR cost of the returned compile (≤ initial).
    pub final_epr_cost: usize,
    /// Optimizer work counters (excluded from equality — see the type
    /// docs).
    pub work: PlacementWork,
}

impl PartialEq for PlacementReport {
    fn eq(&self, other: &Self) -> bool {
        self.iterations == other.iterations
            && self.cut_weight == other.cut_weight
            && self.weighted_cost == other.weighted_cost
            && self.node_map == other.node_map
            && self.initial_epr_cost == other.initial_epr_cost
            && self.final_epr_cost == other.final_epr_cost
    }
}

impl CompileResult {
    /// Extracts the canonical artifacts from a pipeline run, surfacing a
    /// hand-built pipeline that omitted a stage as a loud error instead of
    /// silently producing half a result.
    fn from_output(out: PipelineOutput) -> Result<CompileResult, CompileError> {
        let missing = |stage| CompileError::MissingArtifact { pass: "compile", missing: stage };
        Ok(CompileResult {
            unrolled: out.circuit,
            placement: out.placement,
            ir: out.ir.ok_or(missing("comm ir"))?,
            aggregated: out.aggregated.ok_or(missing("aggregated program"))?,
            assigned: out.assigned.ok_or(missing("assigned program"))?,
            metrics: out.metrics.ok_or(missing("metrics"))?,
            schedule: out.schedule.ok_or(missing("schedule"))?,
            passes: out.reports,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_circuit::{Gate, QubitId};

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn register_mismatch_is_reported() {
        let c = Circuit::new(4);
        let p = Partition::block(6, 2).unwrap();
        let err = AutoComm::new().compile(&c, &p).unwrap_err();
        assert!(matches!(err, CompileError::RegisterMismatch { .. }));
    }

    #[test]
    fn pipeline_produces_consistent_artifacts() {
        let c = dqc_workloads::qft(8);
        let p = Partition::block(8, 2).unwrap();
        let r = AutoComm::new().compile(&c, &p).unwrap();
        // Remote CX conservation across passes.
        let remote = r.unrolled.gates().iter().filter(|g| p.is_remote(g)).count();
        assert_eq!(remote, r.metrics.total_rem_cx);
        assert!(r.metrics.total_comms <= remote, "aggregation never hurts");
        assert!(r.schedule.makespan > 0.0);
        assert!(r.metrics.improvement_factor() >= 1.0);
    }

    #[test]
    fn ablations_are_ordered_sensibly() {
        let c = dqc_workloads::qft(10);
        let p = Partition::block(10, 2).unwrap();
        let full = AutoComm::new().compile(&c, &p).unwrap();
        let no_commute = AutoComm::with_ablations(&[Ablation::NoCommute]).compile(&c, &p).unwrap();
        let cat_only = AutoComm::with_ablations(&[Ablation::CatOnly]).compile(&c, &p).unwrap();
        let plain_sched =
            AutoComm::with_ablations(&[Ablation::PlainGreedy]).compile(&c, &p).unwrap();

        assert!(no_commute.metrics.total_comms >= full.metrics.total_comms);
        assert!(cat_only.metrics.total_comms >= full.metrics.total_comms);
        assert!(plain_sched.schedule.makespan >= full.schedule.makespan);
        // QFT is TP-heavy under the hybrid assignment (paper Table 3).
        assert!(full.metrics.tp_comms > 0);
    }

    #[test]
    fn cheap_local_program_costs_nothing() {
        let mut c = Circuit::new(4);
        c.push(Gate::cx(q(0), q(1))).unwrap();
        c.push(Gate::cx(q(2), q(3))).unwrap();
        let p = Partition::block(4, 2).unwrap();
        let r = AutoComm::new().compile(&c, &p).unwrap();
        assert_eq!(r.metrics.total_comms, 0);
        assert_eq!(r.schedule.epr_pairs, 0);
    }

    #[test]
    fn bv_compiles_to_all_cat() {
        let c = dqc_workloads::bv(16);
        let p = Partition::block(16, 4).unwrap();
        let r = AutoComm::new().compile(&c, &p).unwrap();
        assert_eq!(r.metrics.tp_comms, 0, "BV is all target-form Cat (paper Table 3)");
        assert_eq!(r.metrics.total_comms, 3, "one comm per remote node");
    }

    #[test]
    fn compile_reports_every_pass_in_order() {
        let c = dqc_workloads::qft(6);
        let p = Partition::block(6, 2).unwrap();
        let r = AutoComm::new().compile(&c, &p).unwrap();
        let names: Vec<&str> = r.passes.iter().map(|p| p.pass).collect();
        assert_eq!(
            names,
            ["orient", "unroll", "comm-ir", "aggregate", "assign", "metrics", "schedule"]
        );
        let no_orient = AutoComm::with_ablations(&[Ablation::NoOrient]).compile(&c, &p).unwrap();
        let names: Vec<&str> = no_orient.passes.iter().map(|p| p.pass).collect();
        assert_eq!(names, ["unroll", "comm-ir", "aggregate", "assign", "metrics", "schedule"]);
    }

    #[test]
    fn builder_pipeline_matches_options_pipeline() {
        let c = dqc_workloads::qft(10);
        let p = Partition::block(10, 2).unwrap();
        let hw = HardwareSpec::for_partition(&p);
        let from_options = AutoComm::new().compile(&c, &p).unwrap();
        let by_hand = Pipeline::builder()
            .orient()
            .unroll()
            .aggregate(AggregateOptions::default())
            .assign()
            .metrics()
            .schedule(ScheduleOptions::default())
            .build()
            .run(&c, &p, &hw)
            .unwrap();
        assert_eq!(by_hand.metrics.as_ref(), Some(&from_options.metrics));
        assert_eq!(by_hand.schedule.as_ref(), Some(&from_options.schedule));
        assert_eq!(by_hand.assigned.as_ref(), Some(&from_options.assigned));
    }

    #[test]
    fn lower_stage_composes() {
        let c = dqc_workloads::bv(8);
        let p = Partition::block(8, 2).unwrap();
        let hw = HardwareSpec::for_partition(&p);
        let out = Pipeline::builder()
            .orient()
            .unroll()
            .aggregate(AggregateOptions::default())
            .assign()
            .metrics()
            .schedule(ScheduleOptions::default())
            .lower()
            .build()
            .run(&c, &p, &hw)
            .unwrap();
        let lowered = out.lowered.expect("lower stage ran");
        assert_eq!(lowered.epr_pairs, out.schedule.unwrap().epr_pairs);
    }

    #[test]
    fn placement_pass_appears_under_the_topology_strategy() {
        let c = dqc_workloads::qft(6);
        let p = Partition::block(6, 2).unwrap();
        let options =
            AutoCommOptions { placement: PlacementStrategy::Topology, ..Default::default() };
        let r = AutoComm::with_options(options).compile(&c, &p).unwrap();
        let names: Vec<&str> = r.passes.iter().map(|p| p.pass).collect();
        assert_eq!(
            names,
            ["orient", "unroll", "comm-ir", "aggregate", "place", "assign", "metrics", "schedule"]
        );
        // On the implicit all-to-all machine every map costs the same, so
        // the optimizer keeps the identity and the results match exactly.
        let base = AutoComm::new().compile(&c, &p).unwrap();
        assert!(r.placement.is_identity());
        assert_eq!(r.metrics, base.metrics);
        assert_eq!(r.schedule, base.schedule);
    }

    #[test]
    fn compile_placed_never_loses_to_identity_and_improves_on_a_chain() {
        // Heavy traffic between blocks 0 and 2 of a 3-chain: the identity
        // map pays 2 hops per comm; placement pulls the pair adjacent.
        let mut c = Circuit::new(6);
        for _ in 0..4 {
            c.push(Gate::cx(q(0), q(4))).unwrap();
            c.push(Gate::h(q(4))).unwrap();
        }
        c.push(Gate::cx(q(2), q(3))).unwrap();
        let p = Partition::block(6, 3).unwrap();
        let hw = HardwareSpec::for_partition(&p)
            .with_topology(dqc_hardware::NetworkTopology::linear(3).unwrap())
            .unwrap();
        let identity = AutoComm::new().compile_on(&c, &p, &hw).unwrap();
        let (placed, report) =
            AutoComm::new().compile_placed(&c, &p, &hw, &PlacementConfig::default()).unwrap();
        assert_eq!(report.initial_epr_cost, identity.metrics.total_epr_cost);
        assert!(
            placed.metrics.total_epr_cost < identity.metrics.total_epr_cost,
            "placement must help here: {} vs {}",
            placed.metrics.total_epr_cost,
            identity.metrics.total_epr_cost
        );
        assert_eq!(report.final_epr_cost, placed.metrics.total_epr_cost);
        assert!(report.iterations >= 1);
        assert!(!placed.placement.is_identity());
        // The map is a permutation of the three nodes.
        let mut nodes: Vec<usize> = report.node_map.iter().map(|n| n.index()).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 2]);
    }

    #[test]
    fn place_with_traffic_overrides_the_derived_matrix() {
        // The circuit's own traffic is negligible; an explicit measured
        // matrix demanding blocks 0 and 2 be adjacent must drive the map.
        let mut c = Circuit::new(6);
        c.push(Gate::cx(q(0), q(4))).unwrap();
        let p = Partition::block(6, 3).unwrap();
        let linear = dqc_hardware::NetworkTopology::linear(3).unwrap();
        let hw = HardwareSpec::for_partition(&p).with_topology(linear.clone()).unwrap();
        let traffic = vec![vec![0, 0, 50], vec![0, 0, 0], vec![50, 0, 0]];
        let out = Pipeline::builder()
            .unroll()
            .comm_ir()
            .aggregate(AggregateOptions::default())
            .place_with_traffic(traffic)
            .assign()
            .metrics()
            .build()
            .run(&c, &p, &hw)
            .unwrap();
        let map = out.placement.node_map();
        assert_eq!(
            linear.hop_distance(map[0], map[2]),
            Some(1),
            "the override's heavy pair must land adjacent, got {map:?}"
        );
        // The single 2-hop-under-identity comm is now charged one hop.
        assert_eq!(out.metrics.unwrap().total_epr_cost, 1);
        // Dropping the override falls back to the aggregated program's own
        // (here: identical-preference) traffic.
        let derived = Pipeline::builder()
            .unroll()
            .comm_ir()
            .aggregate(AggregateOptions::default())
            .place()
            .assign()
            .metrics()
            .build()
            .run(&c, &p, &hw)
            .unwrap();
        let dmap = derived.placement.node_map();
        assert_eq!(linear.hop_distance(dmap[0], dmap[2]), Some(1));
    }

    #[test]
    fn compile_placed_is_bit_identical_on_all_to_all() {
        let c = dqc_workloads::qft(12);
        let p = Partition::block(12, 4).unwrap();
        let hw = HardwareSpec::for_partition(&p);
        let plain = AutoComm::new().compile_on(&c, &p, &hw).unwrap();
        let (placed, report) =
            AutoComm::new().compile_placed(&c, &p, &hw, &PlacementConfig::default()).unwrap();
        assert_eq!(placed.metrics, plain.metrics);
        assert_eq!(placed.schedule, plain.schedule);
        assert_eq!(placed.assigned, plain.assigned);
        assert_eq!(report.initial_epr_cost, report.final_epr_cost);
    }

    #[test]
    fn zero_refine_iters_is_the_identity_compile() {
        let c = dqc_workloads::bv(12);
        let p = Partition::block(12, 3).unwrap();
        let hw = HardwareSpec::for_partition(&p)
            .with_topology(dqc_hardware::NetworkTopology::linear(3).unwrap())
            .unwrap();
        let plain = AutoComm::new().compile_on(&c, &p, &hw).unwrap();
        let (placed, report) = AutoComm::new()
            .compile_placed(&c, &p, &hw, &PlacementConfig { refine_iters: 0 })
            .unwrap();
        assert_eq!(report.iterations, 0);
        assert_eq!(placed.metrics, plain.metrics);
        assert_eq!(placed.schedule, plain.schedule);
    }

    #[test]
    fn ablation_names_round_trip() {
        for a in Ablation::all() {
            assert_eq!(Ablation::parse(a.name()), Some(a));
        }
        assert_eq!(Ablation::parse("bogus"), None);
    }
}

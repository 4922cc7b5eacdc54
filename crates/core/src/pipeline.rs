//! The end-to-end AutoComm compiler.
//!
//! [`AutoComm`] runs the paper's fixed stage sequence (Fig. 1) as direct
//! calls: orient → unroll → comm-ir → aggregate → assign → metrics →
//! schedule, timing each stage into a [`PassReport`]. [`AutoCommOptions`]
//! picks the variant of each stage, and every paper ablation (Fig. 17) is
//! an [`Ablation`] applied to the options — one code path, many
//! configurations.

use std::sync::Arc;

use dqc_circuit::{unroll_circuit, Circuit, NodeId, Partition};
use dqc_hardware::HardwareSpec;
use dqc_partition::{oee_refine_on_stats, place_blocks_stats, OeeOptions, PlaceOptions};

use crate::pass::{schedule_metric, timed, PassReport};
use crate::{
    aggregate_ir_with_stats, aggregate_no_commute_ir, assign_cat_only_on, assign_incremental,
    assign_on, comm_weighted_graph, orient_symmetric_gates, schedule, AggregateOptions,
    AggregatedProgram, AssignedProgram, CommIr, CommMetrics, CompileError, Placement,
    ScheduleOptions, ScheduleSummary, Scheme,
};

/// Compiler configuration; the defaults reproduce full AutoComm, and each
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
    /// Machines with one communication qubit per node always get Cat-Comm
    /// only: a teleported state fills the node's only slot, so TP could
    /// neither send it on nor back.
    pub hybrid_assignment: bool,
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

/// The AutoComm compiler: the canonical stage sequence configured by
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

    /// Whether blocks may take TP-Comm on `hw` (see
    /// [`AutoCommOptions::hybrid_assignment`]).
    fn hybrid_on(&self, hw: &HardwareSpec) -> bool {
        self.options.hybrid_assignment && hw.comm_qubits_per_node() > 1
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
    /// different latency constants, …) under the identity placement.
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
        self.compile_with_placement(circuit, &Placement::identity(partition), hw)
    }

    /// Compiles against an explicit placement — the caller owns the
    /// block→node map.
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
        let analysis = self.analyze(circuit, placement, hw)?;
        Ok(self.schedule_analysis(analysis, placement.clone(), hw))
    }

    /// The last stage: schedules an analyzed program on `placement`.
    fn schedule_analysis(
        &self,
        analysis: Analysis,
        placement: Placement,
        hw: &HardwareSpec,
    ) -> CompileResult {
        let Analysis { unrolled, ir, aggregated, assigned, metrics, mut passes } = analysis;
        let schedule = timed(
            &mut passes,
            "schedule",
            || schedule(&assigned, &placement, hw, self.options.schedule),
            |s| Some(schedule_metric(s)),
        );
        CompileResult { unrolled, placement, ir, aggregated, assigned, metrics, schedule, passes }
    }

    /// Every stage before scheduling: orient (when enabled) → unroll →
    /// comm-ir → aggregate → assign → metrics. This is all a candidate
    /// placement needs for its EPR cost, so the placement driver's
    /// re-partitioning rounds stop here.
    fn analyze(
        &self,
        circuit: &Circuit,
        placement: &Placement,
        hw: &HardwareSpec,
    ) -> Result<Analysis, CompileError> {
        if circuit.num_qubits() != placement.num_qubits() {
            return Err(CompileError::RegisterMismatch {
                circuit_qubits: circuit.num_qubits(),
                partition_qubits: placement.num_qubits(),
            });
        }
        let options = &self.options;
        let partition = placement.partition();
        let topology = hw.topology();
        let mut passes = Vec::with_capacity(7);
        let oriented = options.orient_symmetric.then(|| {
            timed(&mut passes, "orient", || orient_symmetric_gates(circuit, partition), |_| None)
        });
        // The closure owns the oriented copy, so it is freed inside the
        // unroll stage, as soon as the unrolled circuit replaces it.
        let unrolled = timed(
            &mut passes,
            "unroll",
            move || unroll_circuit(oriented.as_ref().unwrap_or(circuit)),
            |u| u.as_ref().ok().map(|u| format!("{} gates", u.len())),
        )?;
        let ir = timed(
            &mut passes,
            "comm-ir",
            || CommIr::build_shared(&unrolled, partition),
            |ir| Some(format!("{} gates ({} unique)", ir.len(), ir.unique_gates())),
        );
        let (aggregated, _) = timed(
            &mut passes,
            "aggregate",
            || {
                if options.commutation_aggregation {
                    let (a, stats) = aggregate_ir_with_stats(Arc::clone(&ir), options.aggregate);
                    (a, Some(stats))
                } else {
                    (aggregate_no_commute_ir(Arc::clone(&ir)), None)
                }
            },
            |(a, walk)| {
                let blocks = a.block_count();
                Some(match walk {
                    Some(w) => {
                        format!("{blocks} blocks, {} visited, {} skipped", w.visited, w.skipped)
                    }
                    None => format!("{blocks} blocks"),
                })
            },
        );
        let assigned = timed(
            &mut passes,
            "assign",
            || {
                if self.hybrid_on(hw) {
                    assign_on(&aggregated, placement, topology)
                } else {
                    assign_cat_only_on(&aggregated, placement, topology)
                }
            },
            |a| {
                let tp = a.blocks().filter(|b| b.scheme == Scheme::Tp).count();
                Some(format!("{} cat / {tp} tp blocks", a.blocks().count() - tp))
            },
        );
        let metrics = timed(
            &mut passes,
            "metrics",
            || CommMetrics::of(&assigned),
            |m| Some(format!("{} comms ({} tp)", m.total_comms, m.tp_comms)),
        );
        Ok(Analysis { unrolled, ir, aggregated, assigned, metrics, passes })
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
    /// The driver copies no compile artifact: the identity analysis (every
    /// stage but the schedule) is the round state, rounds read its
    /// assignment and metrics by reference, an accepted round moves its
    /// own artifacts in, and the winner is scheduled once after the loop.
    /// With `refine_iters == 0` (the `block`/`oee` strategies) that is the
    /// identity compile, so the zero-round driver costs one compile plus
    /// the report's interaction graph.
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
        // The identity analysis is the round state: rounds borrow its
        // assignment and metrics, and an accepted round moves its artifacts
        // in. Evaluating a candidate placement never needs the schedule,
        // which runs once, on the winner, after the loop. The interaction
        // graph is built when first needed and dropped only when an
        // accepted round changed the logical partition: it depends on the
        // aggregated program alone, not on the block→node map.
        let mut placement = Placement::identity(partition);
        let mut best = self.analyze(circuit, &placement, hw)?;
        let initial_epr_cost = best.metrics.total_epr_cost;
        let mut graph = None;
        let mut iterations = 0usize;
        let mut work = PlacementWork::default();
        for _ in 0..config.refine_iters {
            // Measured communication traffic over logical blocks — what the
            // compiled program actually pays per pair, post-aggregation
            // (dense form of the sparse `CommMetrics::pair_comms`).
            let traffic = best.metrics.traffic_matrix(placement.num_nodes());
            let (node_map, place_stats) = place_blocks_stats(
                &traffic,
                topology.num_nodes(),
                topology,
                PlaceOptions::default(),
            );
            work.place_exchanges += place_stats.exchanges;
            work.saturated |= place_stats.saturated;
            // Refine the partition under the candidate map's hop metric.
            let (refined, oee_stats) = oee_refine_on_stats(
                graph.get_or_insert_with(|| comm_weighted_graph(&best.aggregated)),
                placement.partition().clone(),
                &node_map,
                topology,
                OeeOptions::default(),
            );
            work.oee_exchanges += oee_stats.exchanges;
            work.oee_scanned += oee_stats.scanned;
            work.oee_cache_hits += oee_stats.cache_hits;
            work.saturated |= oee_stats.saturated;
            let candidate = Placement::new(refined, node_map)?;
            if candidate == placement {
                break; // fixed point
            }
            // Refinement rounds usually permute the block→node map and
            // leave the logical partition alone; then only blocks whose
            // physical endpoints moved are re-assigned (incremental
            // recompilation). A changed partition invalidates aggregation
            // and reruns every stage but the schedule.
            if candidate.partition() == placement.partition() {
                let assigned = assign_incremental(
                    &best.assigned,
                    &placement,
                    &candidate,
                    topology,
                    self.hybrid_on(hw),
                );
                let metrics = CommMetrics::of(&assigned);
                if metrics.total_epr_cost >= best.metrics.total_epr_cost {
                    break; // no improvement: keep the best-so-far placement
                }
                best.assigned = assigned;
                best.metrics = metrics;
            } else {
                let round = self.analyze(circuit, &candidate, hw)?;
                if round.metrics.total_epr_cost >= best.metrics.total_epr_cost {
                    break;
                }
                best = round;
                graph = None;
            }
            placement = candidate;
            iterations += 1;
        }
        // `best` holds every pre-schedule artifact of the winning placement
        // (`assigned` shares the same `Arc<CommIr>` the scheduler resolves
        // against), so only the schedule runs here, once. The property
        // suite pins this driver artifact-for-artifact against a
        // full-recompile reference driver (`dqc_bench::full_recompile_placed`),
        // and debug builds cross-check against a full recompile below.
        let best = self.schedule_analysis(best, placement, hw);
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
        let graph = graph.unwrap_or_else(|| comm_weighted_graph(&best.aggregated));
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
    /// Candidate pairs whose gain OEE's node-pair searches evaluated.
    pub oee_scanned: u64,
    /// The rest of a full rescan's candidate gains: the work OEE's sorted
    /// move-gain lists saved (see `dqc_partition::OeeStats::cache_hits`).
    pub oee_cache_hits: u64,
    /// Block swaps the map-placement refinement applied.
    pub place_exchanges: usize,
    /// Rounds skipped without re-placing. [`AutoComm::compile_placed`]
    /// never skips a round and always reports 0; the field keeps its place
    /// in the artifact's `placement_work` line and in `--json` output, and
    /// perfbench's replayed driver still counts its own skips here.
    pub rounds_skipped: usize,
    /// True when any exchange loop hit its `max_exchanges` safety valve —
    /// the result may be under-refined.
    pub saturated: bool,
}

/// What the iterative placement driver did and achieved.
///
/// Equality deliberately *excludes* [`PlacementReport::work`]: the work
/// counters trace execution, not outcome, and a driver that reaches the
/// same placement by a different route (such as perfbench's replay, which
/// warm-starts its refinement) legitimately differs there. The property
/// suite pins every field, work included, between
/// [`AutoComm::compile_placed`] and the full-recompile reference driver in
/// `dqc_bench`.
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

/// The pre-schedule artifacts of one compile, with their stage reports.
struct Analysis {
    unrolled: Circuit,
    ir: Arc<CommIr>,
    aggregated: AggregatedProgram,
    assigned: AssignedProgram,
    metrics: CommMetrics,
    passes: Vec<PassReport>,
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

    /// The full compile of `qft(10)` on two blocks, then the single-knob
    /// ablations of paper Fig. 17(a)–(c): no-commute, cat-only and
    /// plain-greedy.
    fn qft10_ablations() -> (CompileResult, [CompileResult; 3]) {
        let c = dqc_workloads::qft(10);
        let p = Partition::block(10, 2).unwrap();
        let full = AutoComm::new().compile(&c, &p).unwrap();
        let ablated = [Ablation::NoCommute, Ablation::CatOnly, Ablation::PlainGreedy]
            .map(|a| AutoComm::with_ablations(&[a]).compile(&c, &p).unwrap());
        (full, ablated)
    }

    #[test]
    fn ablations_degrade_strictly() {
        let (full, ablated) = qft10_ablations();
        let [no_commute, cat_only, plain_sched] = &ablated;
        assert!(no_commute.metrics.total_comms > full.metrics.total_comms);
        assert!(cat_only.metrics.total_comms > full.metrics.total_comms);
        assert!(plain_sched.schedule.makespan > full.schedule.makespan);
        // The scheduling knob leaves the comm counts alone.
        assert_eq!(plain_sched.metrics, full.metrics);
        // QFT is TP-heavy under the hybrid assignment (paper Table 3).
        assert!(full.metrics.tp_comms > 0);
    }

    #[test]
    fn ablations_share_the_ir() {
        // None of these knobs rewrites the circuit, so every ablation
        // compiles over the same `CommIr` contents: the Fig. 17 deltas are
        // pass behavior, not IR differences.
        let (full, ablated) = qft10_ablations();
        for r in &ablated {
            assert_eq!(r.ir.len(), full.ir.len());
            assert_eq!(r.ir.unique_gates(), full.ir.unique_gates());
            assert!((0..r.ir.len()).all(|i| r.ir.gate_at(i) == full.ir.gate_at(i)));
            assert_eq!(r.ir.ranked_pairs(), full.ir.ranked_pairs());
        }
    }

    #[test]
    fn no_commute_comms_equal_remote_cx() {
        // Singleton blocks: Tot Comm = # REM CX (the sparse baseline).
        let c = dqc_workloads::bv(12);
        let p = Partition::block(12, 3).unwrap();
        let r = AutoComm::with_ablations(&[Ablation::NoCommute]).compile(&c, &p).unwrap();
        assert_eq!(r.metrics.total_comms, r.metrics.total_rem_cx);
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

    /// The `(name, metric)` pairs a compile reported, in order.
    fn reports(r: &CompileResult) -> Vec<(&'static str, Option<&str>)> {
        r.passes.iter().map(|p| (p.pass, p.metric.as_deref())).collect()
    }

    /// The schedule-free stages of `qft(6)` on two blocks, with the
    /// aggregate, assign and metrics lines given.
    fn qft6_prefix(
        aggregate: &'static str,
        assign: &'static str,
        metrics: &'static str,
    ) -> Vec<(&'static str, Option<&'static str>)> {
        vec![
            ("orient", None),
            ("unroll", Some("90 gates")),
            ("comm-ir", Some("90 gates (63 unique)")),
            ("aggregate", Some(aggregate)),
            ("assign", Some(assign)),
            ("metrics", Some(metrics)),
        ]
    }

    #[test]
    fn compile_reports_every_pass_in_order() {
        let c = dqc_workloads::qft(6);
        let p = Partition::block(6, 2).unwrap();
        let hybrid = || {
            qft6_prefix("5 blocks, 159 visited, 0 skipped", "2 cat / 3 tp blocks", "8 comms (6 tp)")
        };
        let with_schedule = |mut prefix: Vec<_>, schedule| {
            prefix.push(("schedule", Some(schedule)));
            prefix
        };
        let expected = [
            (vec![], with_schedule(hybrid(), "makespan 139.0, 8 epr")),
            (
                vec![Ablation::NoCommute],
                with_schedule(
                    qft6_prefix("27 blocks", "27 cat / 0 tp blocks", "27 comms (0 tp)"),
                    "makespan 368.2, 27 epr",
                ),
            ),
            (
                vec![Ablation::CatOnly],
                with_schedule(
                    qft6_prefix(
                        "5 blocks, 159 visited, 0 skipped",
                        "5 cat / 0 tp blocks",
                        "12 comms (0 tp)",
                    ),
                    "makespan 199.6, 12 epr",
                ),
            ),
            (vec![Ablation::PlainGreedy], with_schedule(hybrid(), "makespan 199.3, 8 epr")),
            (
                vec![Ablation::NoOrient],
                with_schedule(hybrid()[1..].to_vec(), "makespan 139.0, 8 epr"),
            ),
        ];
        for (ablations, want) in expected {
            let r = AutoComm::with_ablations(&ablations).compile(&c, &p).unwrap();
            assert_eq!(reports(&r), want, "{ablations:?}");
        }

        // A buffered schedule reports its policy and hit counts.
        let p3 = Partition::block(6, 3).unwrap();
        let linear = HardwareSpec::for_partition(&p3)
            .with_topology(dqc_hardware::NetworkTopology::linear(3).unwrap())
            .unwrap();
        let options =
            AutoCommOptions::default().with_buffer(crate::BufferPolicy::Prefetch { depth: 4 });
        let r = AutoComm::with_options(options).compile_on(&c, &p3, &linear).unwrap();
        assert_eq!(
            reports(&r),
            with_schedule(
                qft6_prefix(
                    "7 blocks, 170 visited, 0 skipped",
                    "5 cat / 2 tp blocks",
                    "9 comms (4 tp)"
                ),
                "makespan 180.3, 14 epr, prefetch:4 buffering (8/9 hits)",
            )
        );

        // Placed compiles report one schedule, last.
        let p = Partition::block(9, 3).unwrap();
        let hw = HardwareSpec::for_partition(&p)
            .with_topology(dqc_hardware::NetworkTopology::linear(3).unwrap())
            .unwrap();
        // An accepted round that keeps the partition: the identity compile's
        // stage reports stay, and only the schedule is rerun and reported.
        let (r, report) = AutoComm::new()
            .compile_placed(&dqc_workloads::qft(9), &p, &hw, &PlacementConfig::default())
            .unwrap();
        assert_eq!((report.iterations, r.placement.partition() == &p), (1, true));
        assert_eq!(
            reports(&r),
            [
                ("orient", None),
                ("unroll", Some("201 gates")),
                ("comm-ir", Some("201 gates (141 unique)")),
                ("aggregate", Some("11 blocks, 652 visited, 0 skipped")),
                ("assign", Some("8 cat / 3 tp blocks")),
                ("metrics", Some("14 comms (6 tp)")),
                ("schedule", Some("makespan 251.8, 17 epr")),
            ]
        );
        // An accepted round that re-partitions: every stage is the round's.
        let (c, p, hw) = chain();
        let (r, report) =
            AutoComm::new().compile_placed(&c, &p, &hw, &PlacementConfig::default()).unwrap();
        assert_eq!((report.iterations, r.placement.partition() == &p), (1, false));
        assert_eq!(
            reports(&r),
            [
                ("orient", None),
                ("unroll", Some("9 gates")),
                ("comm-ir", Some("9 gates (3 unique)")),
                ("aggregate", Some("0 blocks, 0 visited, 0 skipped")),
                ("assign", Some("0 cat / 0 tp blocks")),
                ("metrics", Some("0 comms (0 tp)")),
                ("schedule", Some("makespan 4.4, 0 epr")),
            ]
        );
    }

    #[test]
    fn lower_stage_composes() {
        let c = dqc_workloads::bv(8);
        let p = Partition::block(8, 2).unwrap();
        let hw = HardwareSpec::for_partition(&p);
        let r = AutoComm::new().compile_on(&c, &p, &hw).unwrap();
        let lowered = crate::lower_assigned_on(&r.assigned, &r.placement, hw.topology()).unwrap();
        assert_eq!(lowered.epr_pairs, r.schedule.epr_pairs);
    }

    /// Heavy traffic between blocks 0 and 2 of a 3-chain: the identity map
    /// pays 2 hops per comm; placement pulls the pair adjacent.
    fn chain() -> (Circuit, Partition, HardwareSpec) {
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
        (c, p, hw)
    }

    #[test]
    fn compile_placed_never_loses_to_identity_and_improves_on_a_chain() {
        let (c, p, hw) = chain();
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
        // One schedule, the winner's, reported after every analysis stage.
        let names: Vec<_> = placed.passes.iter().map(|r| r.pass).collect();
        assert_eq!(
            names,
            ["orient", "unroll", "comm-ir", "aggregate", "assign", "metrics", "schedule"]
        );
        let direct = AutoComm::new().compile_with_placement(&c, &placed.placement, &hw).unwrap();
        assert_eq!(placed.schedule, direct.schedule);
        // The map is a permutation of the three nodes.
        let mut nodes: Vec<usize> = report.node_map.iter().map(|n| n.index()).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 2]);
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

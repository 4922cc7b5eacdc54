//! The trait-based pass manager.
//!
//! Every stage of the AutoComm compiler is a [`Pass`] over a shared
//! [`PassContext`]: orientation and unrolling rewrite the logical circuit
//! in place, aggregation/assignment/scheduling/lowering attach their
//! artifacts to the context. A [`Pipeline`](crate::Pipeline) composes
//! passes, times each one, and records a [`PassReport`] per stage, so
//! ablations and baselines are *configurations* of one code path instead
//! of parallel pipelines.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dqc_circuit::{unroll_circuit, Circuit, Partition};
use dqc_hardware::HardwareSpec;
use dqc_protocols::PhysicalProgram;

use crate::{
    aggregate_ir, aggregate_no_commute_ir, assign_cat_only_on, assign_on, comm_weighted_graph,
    lower_assigned_on, orient_symmetric_gates, schedule, AggregateOptions, AggregatedProgram,
    AssignedProgram, CommIr, CommMetrics, CompileError, Placement, ScheduleOptions,
    ScheduleSummary, Scheme,
};

/// Mutable state threaded through a pipeline: the evolving logical circuit
/// plus every artifact produced so far.
#[derive(Clone, Debug)]
pub struct PassContext<'a> {
    /// The static qubit → block assignment the program is compiled against.
    pub partition: &'a Partition,
    /// The hardware model used by scheduling.
    pub hardware: &'a HardwareSpec,
    /// The block→physical-node placement downstream passes (assign,
    /// schedule, lower) consume. Starts as the identity map; a
    /// [`PlacementPass`] (or [`crate::Pipeline::run_placed`]) installs an
    /// optimized one.
    pub placement: Placement,
    /// The current logical circuit (input → oriented → unrolled); borrowed
    /// until the first rewriting pass replaces it, so pipelines never clone
    /// an untouched input.
    pub circuit: Cow<'a, Circuit>,
    /// The indexed IR, once [`IrPass`] has run. Shared by every downstream
    /// artifact.
    pub ir: Option<Arc<CommIr>>,
    /// Burst blocks, once aggregation has run.
    pub aggregated: Option<AggregatedProgram>,
    /// Scheme-assigned blocks, once assignment has run.
    pub assigned: Option<AssignedProgram>,
    /// Table-3 style metrics, once the metrics pass has run.
    pub metrics: Option<CommMetrics>,
    /// Latency schedule, once scheduling has run.
    pub schedule: Option<ScheduleSummary>,
    /// Physical expansion, once lowering has run.
    pub lowered: Option<PhysicalProgram>,
}

impl<'a> PassContext<'a> {
    /// A fresh context holding the input circuit and no artifacts.
    pub fn new(circuit: Circuit, partition: &'a Partition, hardware: &'a HardwareSpec) -> Self {
        Self::with_cow(Cow::Owned(circuit), partition, hardware)
    }

    /// [`PassContext::new`] borrowing the input circuit (the pipeline entry
    /// point; the first rewriting pass takes ownership).
    pub fn new_borrowed(
        circuit: &'a Circuit,
        partition: &'a Partition,
        hardware: &'a HardwareSpec,
    ) -> Self {
        Self::with_cow(Cow::Borrowed(circuit), partition, hardware)
    }

    /// A context compiled against an explicit placement (the iterative
    /// placement driver's entry point).
    pub fn new_placed(
        circuit: &'a Circuit,
        placement: &'a Placement,
        hardware: &'a HardwareSpec,
    ) -> Self {
        let mut ctx = Self::with_cow(Cow::Borrowed(circuit), placement.partition(), hardware);
        ctx.placement = placement.clone();
        ctx
    }

    fn with_cow(
        circuit: Cow<'a, Circuit>,
        partition: &'a Partition,
        hardware: &'a HardwareSpec,
    ) -> Self {
        PassContext {
            partition,
            hardware,
            placement: Placement::identity(partition),
            circuit,
            ir: None,
            aggregated: None,
            assigned: None,
            metrics: None,
            schedule: None,
            lowered: None,
        }
    }

    /// The indexed IR, building it on demand when no [`IrPass`] ran (hand
    /// built pipelines that jump straight to aggregation stay valid).
    pub fn ir_or_build(&mut self) -> Arc<CommIr> {
        if self.ir.is_none() {
            self.ir = Some(CommIr::build_shared(self.circuit.as_ref(), self.partition));
        }
        Arc::clone(self.ir.as_ref().expect("just built"))
    }

    /// The aggregated program, or a [`CompileError::MissingArtifact`] naming
    /// the pass that needed it.
    pub fn require_aggregated(
        &self,
        pass: &'static str,
    ) -> Result<&AggregatedProgram, CompileError> {
        self.aggregated
            .as_ref()
            .ok_or(CompileError::MissingArtifact { pass, missing: "aggregated program" })
    }

    /// The assigned program, or a [`CompileError::MissingArtifact`] naming
    /// the pass that needed it.
    pub fn require_assigned(&self, pass: &'static str) -> Result<&AssignedProgram, CompileError> {
        self.assigned
            .as_ref()
            .ok_or(CompileError::MissingArtifact { pass, missing: "assigned program" })
    }
}

/// One stage of the compiler.
pub trait Pass {
    /// Stable, human-readable pass name (used in reports and errors).
    fn name(&self) -> &'static str;

    /// Runs the stage, reading and writing `ctx`.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when the stage's input is invalid or a
    /// required upstream artifact is missing.
    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), CompileError>;

    /// A one-line metric describing what the stage produced (queried after
    /// a successful [`Pass::run`]).
    fn metric(&self, _ctx: &PassContext<'_>) -> Option<String> {
        None
    }
}

/// Timing and headline metric of one executed pass.
#[derive(Clone, Debug)]
pub struct PassReport {
    /// The pass name.
    pub pass: &'static str,
    /// Wall-clock time the pass took.
    pub duration: Duration,
    /// The pass's headline metric, if it reports one.
    pub metric: Option<String>,
}

pub(crate) fn run_timed(
    pass: &dyn Pass,
    ctx: &mut PassContext<'_>,
) -> Result<PassReport, CompileError> {
    let start = Instant::now();
    pass.run(ctx)?;
    Ok(PassReport { pass: pass.name(), duration: start.elapsed(), metric: pass.metric(ctx) })
}

/// Orients symmetric diagonal gates (CZ/CP/RZZ) so the heavier burst pair
/// gets the Cat-friendly control side (must run before [`UnrollPass`],
/// which lowers those gates away).
#[derive(Clone, Copy, Debug, Default)]
pub struct OrientPass;

impl Pass for OrientPass {
    fn name(&self) -> &'static str {
        "orient"
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), CompileError> {
        ctx.circuit = Cow::Owned(orient_symmetric_gates(ctx.circuit.as_ref(), ctx.partition));
        Ok(())
    }
}

/// Unrolls the circuit into the CX + U3 basis.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnrollPass;

impl Pass for UnrollPass {
    fn name(&self) -> &'static str {
        "unroll"
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), CompileError> {
        ctx.circuit = Cow::Owned(unroll_circuit(ctx.circuit.as_ref())?);
        Ok(())
    }

    fn metric(&self, ctx: &PassContext<'_>) -> Option<String> {
        Some(format!("{} gates", ctx.circuit.len()))
    }
}

/// Builds the indexed [`CommIr`] — interned gate table, program stream,
/// and ranked pair statistics — that every later pass
/// resolves against. Must run after [`UnrollPass`] (the IR snapshots the
/// final logical circuit).
#[derive(Clone, Copy, Debug, Default)]
pub struct IrPass;

impl Pass for IrPass {
    fn name(&self) -> &'static str {
        "comm-ir"
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), CompileError> {
        ctx.ir = Some(CommIr::build_shared(ctx.circuit.as_ref(), ctx.partition));
        Ok(())
    }

    fn metric(&self, ctx: &PassContext<'_>) -> Option<String> {
        ctx.ir.as_ref().map(|ir| format!("{} gates ({} unique)", ir.len(), ir.unique_gates()))
    }
}

/// Discovers burst-communication blocks (paper Algorithm 1), optionally
/// merging across intervening gates with commutation rules.
#[derive(Clone, Copy, Debug, Default)]
pub struct AggregatePass {
    /// Aggregation tuning.
    pub options: AggregateOptions,
    /// Disable commutation-based merging (Fig. 17a's “No Commute”).
    pub no_commute: bool,
}

impl Pass for AggregatePass {
    fn name(&self) -> &'static str {
        "aggregate"
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), CompileError> {
        let ir = ctx.ir_or_build();
        ctx.aggregated = Some(if self.no_commute {
            aggregate_no_commute_ir(ir)
        } else {
            aggregate_ir(ir, self.options)
        });
        Ok(())
    }

    fn metric(&self, ctx: &PassContext<'_>) -> Option<String> {
        ctx.aggregated.as_ref().map(|a| format!("{} blocks", a.block_count()))
    }
}

/// Optimizes the block→physical-node map inside the pipeline: builds the
/// communication-weighted interaction graph of the aggregated program
/// (burst blocks, not raw gate counts), derives the block-level traffic
/// matrix, and runs the greedy-seed + pairwise-exchange placement of
/// `dqc_partition::place_blocks` against the hardware topology's routed
/// hop distances. Must run after aggregation and before assignment.
///
/// The qubit→block partition is **not** touched here — blocks were
/// discovered under it and must stay coherent; re-partitioning belongs to
/// the iterative driver ([`crate::AutoComm::compile_placed`]), which
/// recompiles from scratch each round.
#[derive(Clone, Debug, Default)]
pub struct PlacementPass {
    /// Explicit block-level traffic to optimize against — e.g. a matrix
    /// measured from a previous compile's [`CommMetrics::pair_comms`],
    /// installed via `Pipeline::builder().place_with_traffic(..)`. `None`
    /// derives the matrix from the aggregated program. (The iterative
    /// driver `AutoComm::compile_placed` does its feedback loop outside
    /// the pipeline — it must re-partition between rounds, which a
    /// mid-pipeline pass cannot do.)
    pub traffic: Option<Vec<Vec<u64>>>,
}

impl Pass for PlacementPass {
    fn name(&self) -> &'static str {
        "place"
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), CompileError> {
        let aggregated = ctx.require_aggregated(self.name())?;
        let topology = ctx.hardware.topology();
        let traffic = match &self.traffic {
            Some(t) => t.clone(),
            None => comm_weighted_graph(aggregated).block_traffic(ctx.partition),
        };
        let node_map = dqc_partition::place_blocks(
            &traffic,
            topology.num_nodes(),
            topology,
            dqc_partition::PlaceOptions::default(),
        );
        ctx.placement = Placement::new(ctx.partition.clone(), node_map)?;
        Ok(())
    }

    fn metric(&self, ctx: &PassContext<'_>) -> Option<String> {
        let map: Vec<String> =
            ctx.placement.node_map().iter().map(|n| n.index().to_string()).collect();
        Some(format!("block→node [{}]", map.join(" ")))
    }
}

/// Assigns each burst block a communication scheme: hybrid Cat/TP (the
/// paper's analysis) or Cat-Comm only (Fig. 17b's ablation).
#[derive(Clone, Copy, Debug)]
pub struct AssignPass {
    /// Use the hybrid Cat/TP pattern analysis (off = Cat-Comm only).
    pub hybrid: bool,
}

impl Default for AssignPass {
    fn default() -> Self {
        AssignPass { hybrid: true }
    }
}

impl Pass for AssignPass {
    fn name(&self) -> &'static str {
        "assign"
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), CompileError> {
        let aggregated = ctx.require_aggregated(self.name())?;
        let topology = ctx.hardware.topology();
        let assigned = if self.hybrid {
            assign_on(aggregated, &ctx.placement, topology)
        } else {
            assign_cat_only_on(aggregated, &ctx.placement, topology)
        };
        ctx.assigned = Some(assigned);
        Ok(())
    }

    fn metric(&self, ctx: &PassContext<'_>) -> Option<String> {
        ctx.assigned.as_ref().map(|a| {
            let tp = a.blocks().filter(|b| b.scheme == Scheme::Tp).count();
            let cat = a.blocks().count() - tp;
            format!("{cat} cat / {tp} tp blocks")
        })
    }
}

/// Computes the paper's Table-3 communication metrics from the assigned
/// program.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricsPass;

impl Pass for MetricsPass {
    fn name(&self) -> &'static str {
        "metrics"
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), CompileError> {
        ctx.metrics = Some(CommMetrics::of(ctx.require_assigned(self.name())?));
        Ok(())
    }

    fn metric(&self, ctx: &PassContext<'_>) -> Option<String> {
        ctx.metrics.as_ref().map(|m| format!("{} comms ({} tp)", m.total_comms, m.tp_comms))
    }
}

/// Schedules the assigned program onto the hardware model (burst-greedy
/// with prefetching by default; plain greedy reproduces Fig. 17c).
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedulePass {
    /// Scheduler tuning.
    pub options: ScheduleOptions,
}

impl Pass for SchedulePass {
    fn name(&self) -> &'static str {
        "schedule"
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), CompileError> {
        let assigned = ctx.require_assigned(self.name())?;
        let summary = schedule(assigned, &ctx.placement, ctx.hardware, self.options);
        ctx.schedule = Some(summary);
        Ok(())
    }

    fn metric(&self, ctx: &PassContext<'_>) -> Option<String> {
        ctx.schedule.as_ref().map(schedule_metric)
    }
}

/// The schedule stage's headline metric line, shared by [`SchedulePass`]
/// and the placement driver's schedule-reuse path (which reports the same
/// pass without re-running the pipeline).
pub(crate) fn schedule_metric(s: &crate::ScheduleSummary) -> String {
    if s.buffering.policy.is_buffered() {
        format!(
            "makespan {:.1}, {} epr, {} buffering ({}/{} hits{})",
            s.makespan,
            s.epr_pairs,
            s.buffering.policy.name(),
            s.buffering.prefetch_hits,
            s.buffering.requests,
            if s.buffering.fell_back { ", fell back" } else { "" }
        )
    } else {
        format!("makespan {:.1}, {} epr", s.makespan, s.epr_pairs)
    }
}

/// Lowers the assigned program through physical Cat-Comm / TP-Comm
/// protocol expansions (the verification back-end).
#[derive(Clone, Copy, Debug, Default)]
pub struct LowerPass;

impl Pass for LowerPass {
    fn name(&self) -> &'static str {
        "lower"
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), CompileError> {
        let assigned = ctx.require_assigned(self.name())?;
        let lowered = lower_assigned_on(assigned, &ctx.placement, ctx.hardware.topology())?;
        ctx.lowered = Some(lowered);
        Ok(())
    }

    fn metric(&self, ctx: &PassContext<'_>) -> Option<String> {
        ctx.lowered
            .as_ref()
            .map(|p| format!("{} physical gates, {} epr", p.circuit.len(), p.epr_pairs))
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
    fn passes_require_their_upstream_artifacts() {
        let p = Partition::block(4, 2).unwrap();
        let hw = HardwareSpec::for_partition(&p);
        let mut ctx = PassContext::new(Circuit::new(4), &p, &hw);
        for (err, pass) in [
            (AssignPass::default().run(&mut ctx), "assign"),
            (MetricsPass.run(&mut ctx), "metrics"),
            (SchedulePass::default().run(&mut ctx), "schedule"),
            (LowerPass.run(&mut ctx), "lower"),
        ] {
            match err {
                Err(CompileError::MissingArtifact { pass: reported, .. }) => {
                    assert_eq!(reported, pass);
                }
                other => panic!("{pass} should miss its artifact, got {other:?}"),
            }
        }
    }

    #[test]
    fn run_timed_reports_name_and_metric() {
        let p = Partition::block(4, 2).unwrap();
        let hw = HardwareSpec::for_partition(&p);
        let mut c = Circuit::new(4);
        c.push(Gate::cx(q(0), q(2))).unwrap();
        let mut ctx = PassContext::new(c, &p, &hw);
        let report = run_timed(&UnrollPass, &mut ctx).unwrap();
        assert_eq!(report.pass, "unroll");
        assert_eq!(report.metric.as_deref(), Some("1 gates"));
    }
}

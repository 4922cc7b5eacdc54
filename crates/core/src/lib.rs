//! AutoComm: burst-communication optimization for distributed quantum
//! programs (reproduction of Wu et al., MICRO 2022).
//!
//! The compiler sits behind gate unrolling and qubit partitioning and runs
//! three passes (paper Figure 1):
//!
//! 1. **Communication aggregation** ([`aggregate`]) — discovers *burst
//!    communication*: maximal groups of remote two-qubit gates between one
//!    qubit and one node, merged across intervening gates using commutation
//!    rules (paper Algorithm 1 plus iterative refinement over qubit-node
//!    pairs).
//! 2. **Communication assignment** ([`assign`]) — pattern analysis per
//!    block: unidirectional control-form blocks ride a single Cat-Comm EPR
//!    pair, target-form blocks are H-conjugated first (paper Fig. 10a), and
//!    bidirectional or obstructed blocks fall back to TP-Comm at the flat
//!    cost of two EPR pairs (paper Fig. 9).
//! 3. **Communication scheduling** ([`schedule`]) — resource-constrained
//!    burst-greedy scheduling with EPR prefetching, parallel commutable
//!    blocks (paper Fig. 12/13), and TP fusion chains (paper Fig. 14).
//!
//! [`AutoComm`] calls the stages in that fixed order, timing each one into
//! a [`PassReport`]; [`AutoCommOptions`] picks each stage's variant
//! (including every Fig. 17 [`Ablation`]). Every stage is also a public
//! function ([`orient_symmetric_gates`], [`CommIr::build_shared`],
//! [`aggregate_ir`], [`assign_on`], [`schedule()`], …), so experiments
//! compose their own sequence from the same parts. [`CommMetrics`]
//! reproduces the paper's evaluation metrics (Tot Comm, TP-Comm, Peak #
//! REM CX, burst distribution); [`lower_assigned_on`] lowers compiled
//! programs through `dqc-protocols` so a whole compile can be verified
//! against the original circuit on a state-vector simulator.
//!
//! The block→physical-node map is a first-class [`Placement`] consumed by
//! `assign_on`/`schedule`/`lower_assigned_on`. The iterative driver
//! [`AutoComm::compile_placed`] feeds *measured* communication traffic
//! ([`CommMetrics::pair_comms`]) back into hop-weighted partitioning +
//! node placement until the EPR cost stops improving.
//!
//! # Quickstart
//!
//! ```
//! use autocomm::AutoComm;
//! use dqc_circuit::{Circuit, Gate, Partition, QubitId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let q = |i| QubitId::new(i);
//! let mut circuit = Circuit::new(4);
//! circuit.push(Gate::cx(q(0), q(2)))?;
//! circuit.push(Gate::cx(q(0), q(3)))?;
//! let partition = Partition::block(4, 2)?;
//!
//! let result = AutoComm::new().compile(&circuit, &partition)?;
//! // Two remote CXs ride one Cat-Comm EPR pair.
//! assert_eq!(result.metrics.total_comms, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod analysis;
mod artifact;
mod assign;
mod block;
mod error;
mod ir;
mod lower;
mod metrics;
mod orient;
mod pass;
mod pipeline;
mod placement;
mod program;
mod schedule;

pub use aggregate::{
    aggregate, aggregate_ir, aggregate_ir_with_stats, aggregate_no_commute,
    aggregate_no_commute_ir, AggregateOptions, AggregateStats, AggregatedProgram, Item,
};
pub use analysis::inverse_burst_distribution;
pub use artifact::{
    ArtifactCircuitStats, ArtifactConfig, ArtifactError, ArtifactIrStats, ArtifactSchedule,
    CompiledArtifact, ARTIFACT_VERSION,
};
pub use assign::{
    assign, assign_cat_only, assign_cat_only_on, assign_incremental, assign_on, AssignedBlock,
    AssignedProgram, CatOrientation, Scheme,
};
pub use block::CommBlock;
pub use dqc_hardware::BufferPolicy;
pub use error::CompileError;
pub use ir::CommIr;
pub use lower::{lower_assigned, lower_assigned_on, lower_plan, CommOp};
pub use metrics::{burst_distribution, BufferingReport, CommMetrics};
pub use orient::orient_symmetric_gates;
pub use pass::PassReport;
pub use pipeline::{
    Ablation, AutoComm, AutoCommOptions, CompileResult, PlacementConfig, PlacementReport,
    PlacementWork,
};
pub use placement::{comm_weighted_graph, Placement};
pub use program::{pair_stats, remote_pairs_of};
pub use schedule::{schedule, ScheduleOptions, ScheduleSummary, PAR_THRESHOLD};

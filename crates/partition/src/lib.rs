//! Qubit partitioning and topology-aware node placement.
//!
//! Two stacked optimization stages live here:
//!
//! 1. **OEE partitioning** ([`oee_partition`]) decides which qubits share a
//!    block, minimizing the (optionally hop-distance-weighted, see
//!    [`oee_refine_on`] and [`NodeDistance`]) edge cut of the interaction
//!    graph.
//! 2. **Node placement** ([`place_blocks`]) decides which physical
//!    interconnect node each block lands on, minimizing
//!    `Σ traffic × hops` — the EPR traffic a sparse topology actually
//!    charges.
//!
//! Both loops are greedy-exchange with deterministic, lexicographically
//! first tie-breaking, so recorded baselines reproduce bit for bit.
//!
//! Both AutoComm and every baseline in the paper map logical qubits onto
//! nodes with the *Static Overall Extreme Exchange* (OEE) strategy studied by
//! Baker et al. (“Time-sliced quantum circuit partitioning for modular
//! architectures”): starting from a balanced assignment, repeatedly apply
//! the cross-node qubit *swap* with the largest reduction in weighted edge
//! cut of the qubit interaction graph until no improving exchange exists.
//! Swapping (rather than moving) qubits keeps the partition balanced at all
//! times, matching the paper's “qubits are evenly distributed across all
//! nodes” setup (Table 2).
//!
//! ```
//! use dqc_circuit::{Circuit, Gate, QubitId};
//! use dqc_partition::{oee_partition, InteractionGraph};
//!
//! # fn main() -> Result<(), dqc_circuit::CircuitError> {
//! let q = |i| QubitId::new(i);
//! let mut c = Circuit::new(4);
//! // Qubits 0,2 talk a lot; 1,3 talk a lot.
//! for _ in 0..10 {
//!     c.push(Gate::cx(q(0), q(2)))?;
//!     c.push(Gate::cx(q(1), q(3)))?;
//! }
//! let graph = InteractionGraph::from_circuit(&c);
//! let p = oee_partition(&graph, 2)?;
//! // OEE finds the zero-cut layout {0,2} | {1,3}.
//! assert_eq!(graph.cut_weight(&p), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distance;
mod gain_table;
mod graph;
mod oee;
mod place;

pub use distance::{NodeDistance, UniformDistance};
pub use graph::InteractionGraph;
pub use oee::{
    oee_partition, oee_refine, oee_refine_cached, oee_refine_on, oee_refine_on_stats, OeeCache,
    OeeOptions, OeeStats,
};
pub use place::{place_blocks, place_blocks_stats, placement_cost, PlaceOptions, PlaceStats};

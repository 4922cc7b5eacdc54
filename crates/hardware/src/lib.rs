//! Hardware model of a distributed quantum computer.
//!
//! The AutoComm paper models the machine as `k` modular nodes, each holding
//! `t` data qubits plus **two communication qubits**, connected all-to-all
//! through EPR-pair generation. Latencies are normalized to CX units
//! (paper Table 1):
//!
//! | operation | latency |
//! |---|---|
//! | single-qubit gate | 0.1 |
//! | CX / CZ | 1 |
//! | measurement | 5 |
//! | EPR pair preparation | 12 |
//! | one classical bit | 1 |
//!
//! This crate provides:
//!
//! * [`LatencyModel`] — those constants plus derived protocol phase
//!   latencies (cat-entangle, cat-disentangle, teleport, entanglement
//!   swap);
//! * [`NetworkTopology`] — an explicit interconnect link graph with
//!   per-link EPR latency/capacity and shortest-path routing tables;
//!   `all_to_all` reproduces the paper's implicit model exactly, while
//!   `linear`/`ring`/`grid`/`star` and a small text file format describe
//!   sparse machines whose non-adjacent pairs communicate through
//!   entanglement swapping;
//! * [`HardwareSpec`] — node count / comm-qubit budget / latency model /
//!   topology, with `Result`-returning validation;
//! * [`Timeline`] — a resource-constrained event timeline tracking
//!   per-qubit availability, per-node communication-qubit slots, and
//!   per-link generation channels, used by every scheduler in the
//!   reproduction (AutoComm burst-greedy, baseline ASAP, GP-TP); it counts
//!   consumed EPR pairs (one per hop), entanglement swaps, and per-link
//!   traffic;
//! * [`ResourceManager`] — the event-driven buffering layer on top of the
//!   timeline: it counts each node's buffered (heralded, unconsumed) EPR
//!   pairs against the comm-qubit budget and separates *generation events*
//!   (link-channel claims, relay swap chains, buffer deposits) from
//!   *consumption events* (a burst takes the pair generated for its
//!   request, or blocks until it matures), selected by a [`BufferPolicy`];
//! * [`validate_events`] — an independent checker that replays a timeline's
//!   event log and verifies no qubit or comm-slot is double-booked.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod error;
mod fidelity;
mod latency;
mod spec;
mod timeline;
pub mod topology;
mod validate;

pub use buffer::{BufferMetrics, BufferPolicy, ResourceManager};
pub use error::HardwareError;
pub use fidelity::{FidelityInputs, FidelityModel};
pub use latency::LatencyModel;
pub use spec::HardwareSpec;
pub use timeline::{CommClaim, PendingPair, Timeline, TimelineEvent};
pub use topology::{Link, NetworkTopology};
pub use validate::{validate_events, ValidationError};

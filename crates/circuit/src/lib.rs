//! Quantum circuit intermediate representation for distributed quantum
//! compilation.
//!
//! This crate is the substrate beneath the AutoComm reproduction: a
//! self-contained circuit IR with
//!
//! * a gate set covering everything the paper's benchmarks need
//!   ([`GateKind`]): Clifford+T single-qubit gates, rotations, `CX`-family
//!   two-qubit gates, Toffoli and multi-controlled X, plus non-unitary
//!   `Measure`/`Reset`/`Barrier` and classically conditioned gates (needed by
//!   the Cat-Comm / TP-Comm protocol expansions);
//! * symbolic commutation analysis ([`commutes`]) implementing the
//!   generalized form of the paper's Figure-7 rewrite rules via Z-/X-basis
//!   diagonality classes ([`AxisBehavior`]);
//! * gate unrolling ([`unroll_circuit`]) into the `CX + U3` basis used by the
//!   paper when counting remote CX gates, including a linear-cost
//!   dirty-ancilla decomposition of multi-controlled X gates;
//! * the qubit-to-node [`Partition`] type shared by the partitioner, the
//!   AutoComm passes, and every baseline compiler.
//!
//! # Example
//!
//! ```
//! use dqc_circuit::{Circuit, Gate, Partition, QubitId};
//!
//! # fn main() -> Result<(), dqc_circuit::CircuitError> {
//! let mut circuit = Circuit::new(4);
//! let q: Vec<QubitId> = (0..4).map(QubitId::new).collect();
//! circuit.push(Gate::h(q[0]))?;
//! circuit.push(Gate::cx(q[0], q[2]))?;
//! circuit.push(Gate::crz(0.25, q[1], q[3]))?;
//!
//! // Two nodes with two qubits each: qubits 0,1 on node 0 and 2,3 on node 1.
//! let partition = Partition::block(4, 2)?;
//! let unrolled = dqc_circuit::unroll_circuit(&circuit)?;
//! let remote = unrolled
//!     .gates()
//!     .iter()
//!     .filter(|g| partition.is_remote(g))
//!     .count();
//! assert_eq!(remote, 3); // CX(0,2) plus the two CX of CRZ(1,3)
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod axis;
mod circuit;
mod commute;
mod error;
mod gate;
mod hash;
mod ids;
mod partition;
mod qasm;
mod qasm_parse;
mod stats;
mod table;
mod unroll;

pub use axis::AxisBehavior;
pub use circuit::Circuit;
pub use commute::{commutes, commutes_with_all, disjoint_supports};
pub use error::CircuitError;
pub use gate::{Gate, GateKind};
pub use hash::{circuit_content_hash, stream_content_hash, ContentHash};
pub use ids::{CBitId, NodeId, QubitId};
pub use partition::Partition;
pub use qasm::to_qasm;
pub use qasm_parse::{from_qasm, QasmParseError, MAX_REGISTER_WIDTH};
pub use stats::{circuit_depth, CircuitStats};
pub use table::{CommSummary, GateId, GateTable, WireClass};
pub use unroll::{unroll_circuit, unroll_gate, unroll_gate_each};

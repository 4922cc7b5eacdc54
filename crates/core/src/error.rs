//! Compilation errors.

use std::error::Error;
use std::fmt;

use dqc_circuit::CircuitError;
use dqc_protocols::ProtocolError;

/// Errors surfaced by the AutoComm compiler.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The input circuit or partition is malformed.
    Circuit(CircuitError),
    /// Lowering onto physical protocols failed (a pass produced a block the
    /// assigned scheme cannot implement — always a compiler bug surfaced
    /// loudly rather than silently miscompiled).
    Protocol(ProtocolError),
    /// The circuit and partition disagree on the number of qubits.
    RegisterMismatch {
        /// Qubits in the circuit.
        circuit_qubits: usize,
        /// Qubits covered by the partition.
        partition_qubits: usize,
    },
    /// A block→node map is not a valid placement (wrong length, or two
    /// blocks landing on the same physical node).
    InvalidPlacement {
        /// What was wrong with the map.
        reason: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Circuit(e) => write!(f, "invalid input circuit: {e}"),
            CompileError::Protocol(e) => write!(f, "protocol lowering failed: {e}"),
            CompileError::RegisterMismatch { circuit_qubits, partition_qubits } => write!(
                f,
                "circuit has {circuit_qubits} qubits but the partition covers {partition_qubits}"
            ),
            CompileError::InvalidPlacement { reason } => {
                write!(f, "invalid block-to-node placement: {reason}")
            }
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Circuit(e) => Some(e),
            CompileError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CircuitError> for CompileError {
    fn from(e: CircuitError) -> Self {
        CompileError::Circuit(e)
    }
}

impl From<ProtocolError> for CompileError {
    fn from(e: ProtocolError) -> Self {
        CompileError::Protocol(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_circuit::QubitId;

    #[test]
    fn conversions_and_display() {
        let e: CompileError = CircuitError::DuplicateOperand { qubit: QubitId::new(1) }.into();
        assert!(e.to_string().contains("q1"));
        let e = CompileError::RegisterMismatch { circuit_qubits: 4, partition_qubits: 6 };
        assert!(e.to_string().contains('4'));
        assert!(e.to_string().contains('6'));
    }
}

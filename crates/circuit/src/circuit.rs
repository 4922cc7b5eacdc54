//! The circuit container.

use std::fmt;

use crate::{CircuitError, Gate, QubitId};

/// An ordered list of gates over a fixed register of qubits and classical
/// bits.
///
/// The container validates every pushed gate against the register bounds, so
/// a constructed `Circuit` is always internally consistent.
///
/// ```
/// use dqc_circuit::{Circuit, Gate, QubitId};
/// # fn main() -> Result<(), dqc_circuit::CircuitError> {
/// let mut c = Circuit::new(2);
/// c.push(Gate::h(QubitId::new(0)))?;
/// c.push(Gate::cx(QubitId::new(0), QubitId::new(1)))?;
/// assert_eq!(c.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    num_cbits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits and no classical
    /// bits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit { num_qubits, num_cbits: 0, gates: Vec::new() }
    }

    /// Creates an empty circuit with both quantum and classical registers.
    pub fn with_cbits(num_qubits: usize, num_cbits: usize) -> Self {
        Circuit { num_qubits, num_cbits, gates: Vec::new() }
    }

    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits in the register.
    pub fn num_cbits(&self) -> usize {
        self.num_cbits
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gate sequence, in program order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Iterates over the gates in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Gate> {
        self.gates.iter()
    }

    /// Appends a gate after validating its operands against the register.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] or
    /// [`CircuitError::CBitOutOfRange`] when the gate references bits outside
    /// the registers.
    pub fn push(&mut self, gate: Gate) -> Result<(), CircuitError> {
        for &q in gate.qubits() {
            if q.index() >= self.num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: self.num_qubits,
                });
            }
        }
        for c in [gate.cbit(), gate.condition()].into_iter().flatten() {
            if c.index() >= self.num_cbits {
                return Err(CircuitError::CBitOutOfRange { cbit: c, num_cbits: self.num_cbits });
            }
        }
        self.gates.push(gate);
        Ok(())
    }

    /// Appends every gate from `gates`.
    ///
    /// # Errors
    ///
    /// Fails on the first gate that does not fit the registers; earlier gates
    /// remain appended.
    pub fn extend_gates(
        &mut self,
        gates: impl IntoIterator<Item = Gate>,
    ) -> Result<(), CircuitError> {
        for g in gates {
            self.push(g)?;
        }
        Ok(())
    }

    /// Appends all gates of `other` (registers must already be large enough).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Circuit::push`].
    pub fn append_circuit(&mut self, other: &Circuit) -> Result<(), CircuitError> {
        self.extend_gates(other.gates.iter().cloned())
    }

    /// Reserves capacity for at least `additional` more gates.
    pub fn reserve(&mut self, additional: usize) {
        self.gates.reserve(additional);
    }

    /// Drops spare gate capacity, so a circuit built from an over-estimate
    /// holds only its gates.
    pub fn shrink_to_fit(&mut self) {
        self.gates.shrink_to_fit();
    }

    /// Grows the classical register to at least `n` bits.
    pub fn ensure_cbits(&mut self, n: usize) {
        self.num_cbits = self.num_cbits.max(n);
    }

    /// Grows the quantum register to at least `n` qubits.
    pub fn ensure_qubits(&mut self, n: usize) {
        self.num_qubits = self.num_qubits.max(n);
    }

    /// Consumes the circuit, returning its gate list.
    pub fn into_gates(self) -> Vec<Gate> {
        self.gates
    }

    /// Returns the circuit with the gate order reversed (not the inverse
    /// circuit — gates are not daggered). Useful for building mirrored
    /// benchmark structures.
    pub fn reversed(&self) -> Circuit {
        let mut c = self.clone();
        c.gates.reverse();
        c
    }

    /// All qubits touched by at least one gate.
    pub fn used_qubits(&self) -> Vec<QubitId> {
        let mut used = vec![false; self.num_qubits];
        for g in &self.gates {
            for q in g.qubits() {
                used[q.index()] = true;
            }
        }
        (0..self.num_qubits).filter(|&i| used[i]).map(QubitId::new).collect()
    }

    /// Counts gates acting on exactly two qubits (the paper's “# CX” column
    /// counts these after unrolling).
    pub fn two_qubit_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit_unitary()).count()
    }

    /// Counts gates acting on one qubit.
    pub fn single_qubit_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_single_qubit_unitary()).count()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit({} qubits, {} cbits)", self.num_qubits, self.num_cbits)?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;

    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CBitId;

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn push_validates_qubits() {
        let mut c = Circuit::new(2);
        assert!(c.push(Gate::h(q(0))).is_ok());
        let err = c.push(Gate::h(q(2))).unwrap_err();
        assert!(matches!(err, CircuitError::QubitOutOfRange { .. }));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn push_validates_cbits() {
        let mut c = Circuit::with_cbits(1, 1);
        assert!(c.push(Gate::measure(q(0), CBitId::new(0))).is_ok());
        let err = c.push(Gate::measure(q(0), CBitId::new(1))).unwrap_err();
        assert!(matches!(err, CircuitError::CBitOutOfRange { .. }));
        let err = c.push(Gate::x(q(0)).with_condition(CBitId::new(9))).unwrap_err();
        assert!(matches!(err, CircuitError::CBitOutOfRange { .. }));
    }

    #[test]
    fn counts_and_iteration() {
        let mut c = Circuit::new(3);
        c.push(Gate::h(q(0))).unwrap();
        c.push(Gate::cx(q(0), q(1))).unwrap();
        c.push(Gate::crz(0.2, q(1), q(2))).unwrap();
        assert_eq!(c.two_qubit_gate_count(), 2);
        assert_eq!(c.single_qubit_gate_count(), 1);
        assert_eq!(c.iter().count(), 3);
        assert_eq!((&c).into_iter().count(), 3);
    }

    #[test]
    fn used_qubits_skips_idle_wires() {
        let mut c = Circuit::new(4);
        c.push(Gate::cx(q(0), q(3))).unwrap();
        assert_eq!(c.used_qubits(), vec![q(0), q(3)]);
    }

    #[test]
    fn ensure_registers_grow_monotonically() {
        let mut c = Circuit::new(2);
        c.ensure_qubits(5);
        c.ensure_qubits(3);
        assert_eq!(c.num_qubits(), 5);
        c.ensure_cbits(2);
        assert_eq!(c.num_cbits(), 2);
    }

    #[test]
    fn append_circuit_concatenates() {
        let mut a = Circuit::new(2);
        a.push(Gate::h(q(0))).unwrap();
        let mut b = Circuit::new(2);
        b.push(Gate::cx(q(0), q(1))).unwrap();
        a.append_circuit(&b).unwrap();
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn reversed_reverses_order_only() {
        let mut c = Circuit::new(2);
        c.push(Gate::h(q(0))).unwrap();
        c.push(Gate::cx(q(0), q(1))).unwrap();
        let r = c.reversed();
        assert_eq!(r.gates()[0], Gate::cx(q(0), q(1)));
        assert_eq!(r.gates()[1], Gate::h(q(0)));
    }

    #[test]
    fn display_lists_gates() {
        let mut c = Circuit::new(2);
        c.push(Gate::cx(q(0), q(1))).unwrap();
        let s = c.to_string();
        assert!(s.contains("cx q0,q1"));
        assert!(s.contains("2 qubits"));
    }
}

//! Gate kinds and gate instances.

use std::fmt;

use crate::{CBitId, CircuitError, QubitId};

/// The gate alphabet understood by the compiler.
///
/// The set mirrors what the AutoComm paper's benchmarks are built from:
/// Clifford+T single-qubit gates, axis rotations, the `CX` family of
/// two-qubit gates, Toffoli / multi-controlled X, and the non-unitary
/// operations required by the communication protocol expansions
/// (measurement, reset, and barriers).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum GateKind {
    /// Identity (useful as a scheduling placeholder).
    I,
    /// Hadamard.
    H,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Phase gate S = diag(1, i).
    S,
    /// Inverse phase gate S†.
    Sdg,
    /// T = diag(1, e^{iπ/4}).
    T,
    /// T†.
    Tdg,
    /// Square root of X.
    Sx,
    /// Rotation about X: exp(-iθX/2).
    Rx,
    /// Rotation about Y: exp(-iθY/2).
    Ry,
    /// Rotation about Z: exp(-iθZ/2).
    Rz,
    /// Phase rotation diag(1, e^{iθ}).
    Phase,
    /// Generic single-qubit unitary U3(θ, φ, λ).
    U3,
    /// Controlled X (CNOT); operands are `[control, target]`.
    Cx,
    /// Controlled Z; symmetric on its two operands.
    Cz,
    /// Swap of two qubits.
    Swap,
    /// Controlled RZ; operands are `[control, target]`.
    Crz,
    /// Controlled phase; symmetric on its two operands.
    Cp,
    /// Two-qubit ZZ interaction exp(-iθ Z⊗Z / 2).
    Rzz,
    /// Toffoli; operands are `[control, control, target]`.
    Ccx,
    /// Multi-controlled X; operands are `[control, ..., control, target]`.
    Mcx,
    /// Z-basis measurement into a classical bit.
    Measure,
    /// Reset a qubit to |0⟩.
    Reset,
    /// Scheduling barrier over its operand qubits; commutes with nothing.
    Barrier,
}

impl GateKind {
    /// Lower-case mnemonic, as used in textual dumps and OpenQASM export.
    pub fn name(self) -> &'static str {
        match self {
            GateKind::I => "id",
            GateKind::H => "h",
            GateKind::X => "x",
            GateKind::Y => "y",
            GateKind::Z => "z",
            GateKind::S => "s",
            GateKind::Sdg => "sdg",
            GateKind::T => "t",
            GateKind::Tdg => "tdg",
            GateKind::Sx => "sx",
            GateKind::Rx => "rx",
            GateKind::Ry => "ry",
            GateKind::Rz => "rz",
            GateKind::Phase => "p",
            GateKind::U3 => "u3",
            GateKind::Cx => "cx",
            GateKind::Cz => "cz",
            GateKind::Swap => "swap",
            GateKind::Crz => "crz",
            GateKind::Cp => "cp",
            GateKind::Rzz => "rzz",
            GateKind::Ccx => "ccx",
            GateKind::Mcx => "mcx",
            GateKind::Measure => "measure",
            GateKind::Reset => "reset",
            GateKind::Barrier => "barrier",
        }
    }

    /// Parses a lower-case mnemonic back to its kind — the inverse of
    /// [`GateKind::name`], used by textual artifact formats.
    pub fn parse(name: &str) -> Option<GateKind> {
        Some(match name {
            "id" => GateKind::I,
            "h" => GateKind::H,
            "x" => GateKind::X,
            "y" => GateKind::Y,
            "z" => GateKind::Z,
            "s" => GateKind::S,
            "sdg" => GateKind::Sdg,
            "t" => GateKind::T,
            "tdg" => GateKind::Tdg,
            "sx" => GateKind::Sx,
            "rx" => GateKind::Rx,
            "ry" => GateKind::Ry,
            "rz" => GateKind::Rz,
            "p" => GateKind::Phase,
            "u3" => GateKind::U3,
            "cx" => GateKind::Cx,
            "cz" => GateKind::Cz,
            "swap" => GateKind::Swap,
            "crz" => GateKind::Crz,
            "cp" => GateKind::Cp,
            "rzz" => GateKind::Rzz,
            "ccx" => GateKind::Ccx,
            "mcx" => GateKind::Mcx,
            "measure" => GateKind::Measure,
            "reset" => GateKind::Reset,
            "barrier" => GateKind::Barrier,
            _ => return None,
        })
    }

    /// Number of real parameters carried by gates of this kind.
    pub fn num_params(self) -> usize {
        match self {
            GateKind::Rx
            | GateKind::Ry
            | GateKind::Rz
            | GateKind::Phase
            | GateKind::Crz
            | GateKind::Cp
            | GateKind::Rzz => 1,
            GateKind::U3 => 3,
            _ => 0,
        }
    }

    /// Fixed qubit arity, or `None` for variadic kinds (`Mcx`, `Barrier`).
    pub fn arity(self) -> Option<usize> {
        match self {
            GateKind::I
            | GateKind::H
            | GateKind::X
            | GateKind::Y
            | GateKind::Z
            | GateKind::S
            | GateKind::Sdg
            | GateKind::T
            | GateKind::Tdg
            | GateKind::Sx
            | GateKind::Rx
            | GateKind::Ry
            | GateKind::Rz
            | GateKind::Phase
            | GateKind::U3
            | GateKind::Measure
            | GateKind::Reset => Some(1),
            GateKind::Cx
            | GateKind::Cz
            | GateKind::Swap
            | GateKind::Crz
            | GateKind::Cp
            | GateKind::Rzz => Some(2),
            GateKind::Ccx => Some(3),
            GateKind::Mcx | GateKind::Barrier => None,
        }
    }

    /// Whether gates of this kind are unitary operations.
    pub fn is_unitary(self) -> bool {
        !matches!(self, GateKind::Measure | GateKind::Reset | GateKind::Barrier)
    }

    /// Whether the gate matrix is diagonal in the computational (Z) basis on
    /// all of its operands.
    pub fn is_diagonal(self) -> bool {
        matches!(
            self,
            GateKind::I
                | GateKind::Z
                | GateKind::S
                | GateKind::Sdg
                | GateKind::T
                | GateKind::Tdg
                | GateKind::Rz
                | GateKind::Phase
                | GateKind::Cz
                | GateKind::Crz
                | GateKind::Cp
                | GateKind::Rzz
        )
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One gate instance: a [`GateKind`] applied to concrete qubits, with
/// optional rotation parameters, an optional classical measurement target,
/// and an optional classical condition bit.
///
/// A gate with `condition = Some(c)` is applied only when classical bit `c`
/// holds 1 — exactly the classically controlled corrections appearing in the
/// Cat-Comm and TP-Comm protocols (paper Figure 2).
///
/// ```
/// use dqc_circuit::{Gate, GateKind, QubitId};
/// let g = Gate::crz(0.5, QubitId::new(0), QubitId::new(1));
/// assert_eq!(g.kind(), GateKind::Crz);
/// assert_eq!(g.control(), Some(QubitId::new(0)));
/// assert_eq!(g.target(), Some(QubitId::new(1)));
/// ```
#[derive(Clone)]
pub struct Gate {
    kind: GateKind,
    qubits: Operands,
    /// Rotation parameters: the first `num_params` entries, the rest zero.
    /// No kind takes more than [`MAX_PARAMS`].
    params: [f64; MAX_PARAMS],
    num_params: u8,
    cbit: Option<CBitId>,
    condition: Option<CBitId>,
}

/// The most rotation parameters any [`GateKind`] takes (`U3`).
const MAX_PARAMS: usize = 3;

/// The most operands stored inline; only `Mcx` and `Barrier` take more.
const INLINE_QUBITS: usize = 3;

// Operands and parameters live inside the gate, so building, cloning and
// dropping a gate of at most three operands never touches the heap. A
// re-boxed field would grow the gate past this bound.
const _: () = assert!(std::mem::size_of::<Gate>() <= 80);

/// A gate's qubit operands: up to [`INLINE_QUBITS`] stored in place, longer
/// lists (wide `Mcx` and `Barrier` gates) in one boxed slice.
#[derive(Clone)]
enum Operands {
    /// The first `len` entries are the operands; the rest are unused.
    Inline {
        len: u8,
        qubits: [QubitId; INLINE_QUBITS],
    },
    Spilled(Box<[QubitId]>),
}

impl Operands {
    /// Stores `qubits` inline when they fit, else copies them to the heap.
    fn from_slice(qubits: &[QubitId]) -> Self {
        match qubits.len() {
            len @ 0..=INLINE_QUBITS => {
                let mut inline = [QubitId::default(); INLINE_QUBITS];
                inline[..len].copy_from_slice(qubits);
                Operands::Inline { len: len as u8, qubits: inline }
            }
            _ => Operands::Spilled(qubits.into()),
        }
    }

    /// [`Operands::from_slice`], reusing the vector's buffer for a spill.
    fn from_vec(qubits: Vec<QubitId>) -> Self {
        if qubits.len() <= INLINE_QUBITS {
            Operands::from_slice(&qubits)
        } else {
            Operands::Spilled(qubits.into_boxed_slice())
        }
    }

    fn as_slice(&self) -> &[QubitId] {
        match self {
            Operands::Inline { len, qubits } => &qubits[..*len as usize],
            Operands::Spilled(qubits) => qubits,
        }
    }
}

impl Gate {
    /// Builds a gate after validating operand arity, parameter count, and
    /// operand distinctness.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::ArityMismatch`] when the operand or parameter
    /// count does not match the kind, and [`CircuitError::DuplicateOperand`]
    /// when a qubit is repeated.
    pub fn try_new(
        kind: GateKind,
        qubits: Vec<QubitId>,
        params: Vec<f64>,
    ) -> Result<Self, CircuitError> {
        Gate::checked(kind, Operands::from_vec(qubits), &params)
    }

    /// The validating constructor every other one funnels into.
    fn checked(kind: GateKind, operands: Operands, params: &[f64]) -> Result<Self, CircuitError> {
        let qubits = operands.as_slice();
        if let Some(arity) = kind.arity() {
            if qubits.len() != arity {
                return Err(CircuitError::ArityMismatch {
                    kind: kind.name(),
                    expected: arity,
                    actual: qubits.len(),
                });
            }
        } else if kind == GateKind::Mcx && qubits.is_empty() {
            return Err(CircuitError::ArityMismatch { kind: kind.name(), expected: 1, actual: 0 });
        }
        if params.len() != kind.num_params() {
            return Err(CircuitError::ArityMismatch {
                kind: kind.name(),
                expected: kind.num_params(),
                actual: params.len(),
            });
        }
        for (i, q) in qubits.iter().enumerate() {
            if qubits[..i].contains(q) {
                return Err(CircuitError::DuplicateOperand { qubit: *q });
            }
        }
        let mut inline = [0.0; MAX_PARAMS];
        inline[..params.len()].copy_from_slice(params);
        Ok(Gate {
            kind,
            qubits: operands,
            params: inline,
            num_params: params.len() as u8,
            cbit: None,
            condition: None,
        })
    }

    fn new_unchecked(kind: GateKind, qubits: &[QubitId], params: &[f64]) -> Self {
        Gate::checked(kind, Operands::from_slice(qubits), params)
            .expect("gate constructor invariant")
    }

    /// Identity gate on `q`.
    pub fn i(q: QubitId) -> Self {
        Gate::new_unchecked(GateKind::I, &[q], &[])
    }

    /// Hadamard on `q`.
    pub fn h(q: QubitId) -> Self {
        Gate::new_unchecked(GateKind::H, &[q], &[])
    }

    /// Pauli X on `q`.
    pub fn x(q: QubitId) -> Self {
        Gate::new_unchecked(GateKind::X, &[q], &[])
    }

    /// Pauli Y on `q`.
    pub fn y(q: QubitId) -> Self {
        Gate::new_unchecked(GateKind::Y, &[q], &[])
    }

    /// Pauli Z on `q`.
    pub fn z(q: QubitId) -> Self {
        Gate::new_unchecked(GateKind::Z, &[q], &[])
    }

    /// S gate on `q`.
    pub fn s(q: QubitId) -> Self {
        Gate::new_unchecked(GateKind::S, &[q], &[])
    }

    /// S† gate on `q`.
    pub fn sdg(q: QubitId) -> Self {
        Gate::new_unchecked(GateKind::Sdg, &[q], &[])
    }

    /// T gate on `q`.
    pub fn t(q: QubitId) -> Self {
        Gate::new_unchecked(GateKind::T, &[q], &[])
    }

    /// T† gate on `q`.
    pub fn tdg(q: QubitId) -> Self {
        Gate::new_unchecked(GateKind::Tdg, &[q], &[])
    }

    /// √X gate on `q`.
    pub fn sx(q: QubitId) -> Self {
        Gate::new_unchecked(GateKind::Sx, &[q], &[])
    }

    /// X rotation by `theta` on `q`.
    pub fn rx(theta: f64, q: QubitId) -> Self {
        Gate::new_unchecked(GateKind::Rx, &[q], &[theta])
    }

    /// Y rotation by `theta` on `q`.
    pub fn ry(theta: f64, q: QubitId) -> Self {
        Gate::new_unchecked(GateKind::Ry, &[q], &[theta])
    }

    /// Z rotation by `theta` on `q`.
    pub fn rz(theta: f64, q: QubitId) -> Self {
        Gate::new_unchecked(GateKind::Rz, &[q], &[theta])
    }

    /// Phase rotation diag(1, e^{iθ}) on `q`.
    pub fn phase(theta: f64, q: QubitId) -> Self {
        Gate::new_unchecked(GateKind::Phase, &[q], &[theta])
    }

    /// Generic single-qubit unitary U3(θ, φ, λ) on `q`.
    pub fn u3(theta: f64, phi: f64, lambda: f64, q: QubitId) -> Self {
        Gate::new_unchecked(GateKind::U3, &[q], &[theta, phi, lambda])
    }

    /// CNOT with the given `control` and `target`.
    ///
    /// # Panics
    ///
    /// Panics if `control == target`.
    pub fn cx(control: QubitId, target: QubitId) -> Self {
        Gate::new_unchecked(GateKind::Cx, &[control, target], &[])
    }

    /// Controlled Z between `a` and `b` (symmetric).
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn cz(a: QubitId, b: QubitId) -> Self {
        Gate::new_unchecked(GateKind::Cz, &[a, b], &[])
    }

    /// Swap of `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn swap(a: QubitId, b: QubitId) -> Self {
        Gate::new_unchecked(GateKind::Swap, &[a, b], &[])
    }

    /// Controlled RZ(θ) with the given `control` and `target`.
    ///
    /// # Panics
    ///
    /// Panics if `control == target`.
    pub fn crz(theta: f64, control: QubitId, target: QubitId) -> Self {
        Gate::new_unchecked(GateKind::Crz, &[control, target], &[theta])
    }

    /// Controlled phase gate between `a` and `b` (symmetric).
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn cp(theta: f64, a: QubitId, b: QubitId) -> Self {
        Gate::new_unchecked(GateKind::Cp, &[a, b], &[theta])
    }

    /// ZZ interaction exp(-iθ Z⊗Z / 2) between `a` and `b` (symmetric).
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn rzz(theta: f64, a: QubitId, b: QubitId) -> Self {
        Gate::new_unchecked(GateKind::Rzz, &[a, b], &[theta])
    }

    /// Toffoli with controls `c0`, `c1` and target `t`.
    ///
    /// # Panics
    ///
    /// Panics if any two operands coincide.
    pub fn ccx(c0: QubitId, c1: QubitId, t: QubitId) -> Self {
        Gate::new_unchecked(GateKind::Ccx, &[c0, c1, t], &[])
    }

    /// Multi-controlled X with the given controls and target.
    ///
    /// # Panics
    ///
    /// Panics if any two operands coincide or the operand list is empty.
    pub fn mcx(controls: &[QubitId], target: QubitId) -> Self {
        let n = controls.len();
        let operands = if n < INLINE_QUBITS {
            let mut qubits = [target; INLINE_QUBITS];
            qubits[..n].copy_from_slice(controls);
            Operands::from_slice(&qubits[..=n])
        } else {
            Operands::from_vec([controls, &[target]].concat())
        };
        Gate::checked(GateKind::Mcx, operands, &[]).expect("gate constructor invariant")
    }

    /// Z-basis measurement of `q` into classical bit `c`.
    pub fn measure(q: QubitId, c: CBitId) -> Self {
        let mut g = Gate::new_unchecked(GateKind::Measure, &[q], &[]);
        g.cbit = Some(c);
        g
    }

    /// Reset of `q` to |0⟩.
    pub fn reset(q: QubitId) -> Self {
        Gate::new_unchecked(GateKind::Reset, &[q], &[])
    }

    /// Barrier across `qubits`.
    ///
    /// # Panics
    ///
    /// Panics if a qubit is repeated.
    pub fn barrier(qubits: &[QubitId]) -> Self {
        Gate::new_unchecked(GateKind::Barrier, qubits, &[])
    }

    /// Returns a copy of this gate conditioned on classical bit `c` being 1.
    ///
    /// ```
    /// use dqc_circuit::{CBitId, Gate, QubitId};
    /// let fixup = Gate::x(QubitId::new(2)).with_condition(CBitId::new(0));
    /// assert_eq!(fixup.condition(), Some(CBitId::new(0)));
    /// ```
    pub fn with_condition(mut self, c: CBitId) -> Self {
        self.condition = Some(c);
        self
    }

    /// The gate kind.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The qubit operands, controls before targets.
    pub fn qubits(&self) -> &[QubitId] {
        self.qubits.as_slice()
    }

    /// The rotation parameters (empty for non-parameterized kinds).
    pub fn params(&self) -> &[f64] {
        &self.params[..self.num_params as usize]
    }

    /// The classical bit written by a measurement, if any.
    pub fn cbit(&self) -> Option<CBitId> {
        self.cbit
    }

    /// The classical bit conditioning this gate, if any.
    pub fn condition(&self) -> Option<CBitId> {
        self.condition
    }

    /// First rotation parameter, if the kind is parameterized.
    pub fn theta(&self) -> Option<f64> {
        self.params().first().copied()
    }

    /// Number of qubit operands.
    pub fn num_qubits(&self) -> usize {
        self.qubits().len()
    }

    /// Whether this is a unitary acting on exactly one qubit.
    pub fn is_single_qubit_unitary(&self) -> bool {
        self.kind.is_unitary() && self.num_qubits() == 1
    }

    /// Whether this is a unitary acting on exactly two qubits.
    pub fn is_two_qubit_unitary(&self) -> bool {
        self.kind.is_unitary() && self.num_qubits() == 2
    }

    /// The control qubit for asymmetric controlled gates (`Cx`, `Crz`).
    ///
    /// Symmetric diagonal gates (`Cz`, `Cp`, `Rzz`) report their first
    /// operand, which is interchangeable with the second.
    pub fn control(&self) -> Option<QubitId> {
        match self.kind {
            GateKind::Cx | GateKind::Crz | GateKind::Cz | GateKind::Cp | GateKind::Rzz => {
                Some(self.qubits()[0])
            }
            _ => None,
        }
    }

    /// The target qubit for controlled gates, the last operand for `Ccx` and
    /// `Mcx`.
    pub fn target(&self) -> Option<QubitId> {
        match self.kind {
            GateKind::Cx
            | GateKind::Crz
            | GateKind::Cz
            | GateKind::Cp
            | GateKind::Rzz
            | GateKind::Ccx
            | GateKind::Mcx => self.qubits().last().copied(),
            _ => None,
        }
    }

    /// Whether `q` is one of this gate's operands.
    pub fn acts_on(&self, q: QubitId) -> bool {
        self.qubits().contains(&q)
    }

    /// Returns the same gate with each qubit operand remapped through `f`.
    ///
    /// Used when relocating logical qubits between nodes (GP-TP baseline) or
    /// when splicing block bodies onto communication qubits.
    ///
    /// # Panics
    ///
    /// Panics if the remapping makes two operands collide.
    pub fn map_qubits(&self, mut f: impl FnMut(QubitId) -> QubitId) -> Gate {
        let mut g = self.clone();
        match &mut g.qubits {
            Operands::Inline { len, qubits } => {
                qubits[..*len as usize].iter_mut().for_each(|q| *q = f(*q));
            }
            Operands::Spilled(qubits) => qubits.iter_mut().for_each(|q| *q = f(*q)),
        }
        let qubits = g.qubits();
        for (i, q) in qubits.iter().enumerate() {
            assert!(!qubits[..i].contains(q), "qubit remapping created duplicate operand {q}");
        }
        g
    }
}

/// Field-wise equality over the stored operands and parameters; parameters
/// compare as `f64`, so `-0.0 == 0.0`.
impl PartialEq for Gate {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
            && self.qubits() == other.qubits()
            && self.params() == other.params()
            && self.cbit == other.cbit
            && self.condition == other.condition
    }
}

/// Prints the gate's fields as a struct, operands and parameters as lists.
impl fmt::Debug for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gate")
            .field("kind", &self.kind)
            .field("qubits", &self.qubits())
            .field("params", &self.params())
            .field("cbit", &self.cbit)
            .field("condition", &self.condition)
            .finish()
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(c) = self.condition {
            write!(f, "if({c}) ")?;
        }
        f.write_str(self.kind.name())?;
        if !self.params().is_empty() {
            write!(f, "(")?;
            for (i, p) in self.params().iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p:.4}")?;
            }
            write!(f, ")")?;
        }
        write!(f, " ")?;
        for (i, q) in self.qubits().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{q}")?;
        }
        if let Some(c) = self.cbit {
            write!(f, " -> {c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn constructors_set_kind_and_operands() {
        let g = Gate::cx(q(0), q(1));
        assert_eq!(g.kind(), GateKind::Cx);
        assert_eq!(g.qubits(), &[q(0), q(1)]);
        assert_eq!(g.control(), Some(q(0)));
        assert_eq!(g.target(), Some(q(1)));
        assert!(g.is_two_qubit_unitary());
        assert!(!g.is_single_qubit_unitary());
    }

    #[test]
    fn parameterized_constructors_store_params() {
        let g = Gate::rz(1.5, q(3));
        assert_eq!(g.theta(), Some(1.5));
        let g = Gate::u3(0.1, 0.2, 0.3, q(0));
        assert_eq!(g.params(), &[0.1, 0.2, 0.3]);
    }

    #[test]
    #[should_panic(expected = "gate constructor invariant")]
    fn duplicate_operand_panics() {
        let _ = Gate::cx(q(1), q(1));
    }

    #[test]
    fn try_new_rejects_bad_arity() {
        let err = Gate::try_new(GateKind::Cx, vec![q(0)], vec![]).unwrap_err();
        assert!(matches!(err, CircuitError::ArityMismatch { .. }));
        let err = Gate::try_new(GateKind::Rz, vec![q(0)], vec![]).unwrap_err();
        assert!(matches!(err, CircuitError::ArityMismatch { .. }));
        let err = Gate::try_new(GateKind::Cx, vec![q(0), q(0)], vec![]).unwrap_err();
        assert!(matches!(err, CircuitError::DuplicateOperand { .. }));
        let err = Gate::try_new(GateKind::Mcx, vec![], vec![]).unwrap_err();
        assert!(matches!(err, CircuitError::ArityMismatch { .. }));
    }

    #[test]
    fn measurement_carries_cbit() {
        let g = Gate::measure(q(2), CBitId::new(7));
        assert_eq!(g.cbit(), Some(CBitId::new(7)));
        assert!(!g.kind().is_unitary());
    }

    #[test]
    fn condition_builder() {
        let g = Gate::z(q(0)).with_condition(CBitId::new(1));
        assert_eq!(g.condition(), Some(CBitId::new(1)));
        assert_eq!(g.to_string(), "if(c1) z q0");
    }

    #[test]
    fn mcx_operands() {
        let g = Gate::mcx(&[q(0), q(1), q(2)], q(5));
        assert_eq!(g.num_qubits(), 4);
        assert_eq!(g.target(), Some(q(5)));
        assert_eq!(g.kind().arity(), None);
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Gate::cx(q(0), q(1)).to_string(), "cx q0,q1");
        assert_eq!(Gate::rz(0.5, q(2)).to_string(), "rz(0.5000) q2");
        assert_eq!(Gate::measure(q(1), CBitId::new(0)).to_string(), "measure q1 -> c0");
    }

    #[test]
    fn map_qubits_relocates_operands() {
        let g = Gate::cx(q(0), q(1)).map_qubits(|x| QubitId::new(x.index() + 10));
        assert_eq!(g.qubits(), &[q(10), q(11)]);
    }

    #[test]
    fn diagonal_kinds() {
        assert!(GateKind::Crz.is_diagonal());
        assert!(GateKind::Rzz.is_diagonal());
        assert!(!GateKind::Cx.is_diagonal());
        assert!(!GateKind::H.is_diagonal());
    }

    #[test]
    fn kind_parse_inverts_name() {
        for kind in [
            GateKind::I,
            GateKind::H,
            GateKind::X,
            GateKind::Y,
            GateKind::Z,
            GateKind::S,
            GateKind::Sdg,
            GateKind::T,
            GateKind::Tdg,
            GateKind::Sx,
            GateKind::Rx,
            GateKind::Ry,
            GateKind::Rz,
            GateKind::Phase,
            GateKind::U3,
            GateKind::Cx,
            GateKind::Cz,
            GateKind::Swap,
            GateKind::Crz,
            GateKind::Cp,
            GateKind::Rzz,
            GateKind::Ccx,
            GateKind::Mcx,
            GateKind::Measure,
            GateKind::Reset,
            GateKind::Barrier,
        ] {
            assert_eq!(GateKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(GateKind::parse("bogus"), None);
    }

    #[test]
    fn gate_equality_includes_params() {
        assert_eq!(Gate::rz(0.5, q(0)), Gate::rz(0.5, q(0)));
        assert_ne!(Gate::rz(0.5, q(0)), Gate::rz(0.6, q(0)));
        assert_eq!(Gate::rz(-0.0, q(0)), Gate::rz(0.0, q(0)));
        assert_eq!(Gate::u3(0.1, -0.0, 0.3, q(0)), Gate::u3(0.1, 0.0, 0.3, q(0)));
        assert_ne!(Gate::u3(0.1, 0.2, 0.3, q(0)), Gate::u3(0.1, 0.2, 0.4, q(0)));
    }

    /// Gates past three operands: a 3- and a 6-control `mcx` and a 10-qubit
    /// barrier, beside their inline neighbours (a 2-control `mcx`).
    fn wide_gates() -> Vec<Gate> {
        let qs: Vec<QubitId> = (0..10).map(q).collect();
        vec![
            Gate::mcx(&qs[..2], q(9)),
            Gate::mcx(&qs[..3], q(9)),
            Gate::mcx(&qs[2..8], q(0)),
            Gate::barrier(&qs),
        ]
    }

    #[test]
    fn wide_gates_keep_every_operand() {
        let qs: Vec<QubitId> = (0..10).map(q).collect();
        let [mcx2, mcx3, mcx6, barrier] = <[Gate; 4]>::try_from(wide_gates()).unwrap();
        assert_eq!(mcx2.qubits(), &[q(0), q(1), q(9)]);
        assert_eq!(mcx3.qubits(), &[q(0), q(1), q(2), q(9)]);
        assert_eq!(mcx3.target(), Some(q(9)));
        assert_eq!(mcx6.num_qubits(), 7);
        assert_eq!(mcx6.qubits()[..6], qs[2..8]);
        assert_eq!(barrier.qubits(), &qs[..]);
        assert!(barrier.acts_on(q(7)));
        let built = Gate::try_new(GateKind::Barrier, qs.clone(), vec![]).unwrap();
        assert_eq!(built, barrier);
        let err = Gate::try_new(GateKind::Mcx, vec![q(0), q(1), q(2), q(1)], vec![]).unwrap_err();
        assert!(matches!(err, CircuitError::DuplicateOperand { .. }));
    }

    #[test]
    fn wide_gates_compare_display_and_remap() {
        let qs: Vec<QubitId> = (0..10).map(q).collect();
        for g in wide_gates() {
            assert_eq!(g.clone(), g);
            let shifted = g.map_qubits(|x| q(x.index() + 10));
            assert_ne!(shifted, g);
            assert!(shifted
                .qubits()
                .iter()
                .zip(g.qubits())
                .all(|(a, b)| a.index() == b.index() + 10));
            assert_eq!(shifted.map_qubits(|x| q(x.index() - 10)), g);
        }
        assert_ne!(Gate::barrier(&qs), Gate::barrier(&qs[..9]));
        assert_ne!(Gate::mcx(&qs[..3], q(9)), Gate::mcx(&qs[..3], q(8)));
        assert_eq!(Gate::mcx(&qs[..3], q(9)).to_string(), "mcx q0,q1,q2,q9",);
        assert_eq!(Gate::barrier(&qs).to_string(), "barrier q0,q1,q2,q3,q4,q5,q6,q7,q8,q9");
        assert!(
            format!("{:?}", Gate::barrier(&qs[..4])).contains("qubits: [QubitId(0), QubitId(1)")
        );
    }

    #[test]
    #[should_panic(expected = "qubit remapping created duplicate operand")]
    fn wide_remap_collision_panics() {
        let qs: Vec<QubitId> = (0..10).map(q).collect();
        let _ = Gate::barrier(&qs).map_qubits(|x| q(x.index() / 2));
    }

    #[test]
    fn wide_gates_round_trip_qasm_and_intern() {
        let mut c = crate::Circuit::new(10);
        for g in wide_gates() {
            c.push(g).unwrap();
        }
        assert_eq!(crate::from_qasm(&crate::to_qasm(&c)).unwrap(), c);
        let mut table = crate::GateTable::new();
        let ids: Vec<_> = wide_gates().iter().map(|g| table.intern(g)).collect();
        for (id, g) in ids.iter().zip(wide_gates()) {
            assert_eq!(table.intern(&g), *id, "re-interning finds the same slot");
            assert_eq!(table.gate(*id), &g);
            assert_eq!(table.operand_count(*id), g.num_qubits());
            assert!(table.qubit_indices(*id).eq(g.qubits().iter().map(|x| x.index())));
        }
        assert_eq!(table.len(), 4);
    }
}

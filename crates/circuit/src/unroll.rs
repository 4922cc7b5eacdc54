//! Gate unrolling into the `CX + U3` basis (the paper's “Gate Unrolling”
//! front-end stage, Figure 1).
//!
//! Every multi-qubit gate is rewritten into CX gates plus single-qubit
//! gates. Multi-controlled X gates use the linear-cost dirty-ancilla
//! V-chain of Barenco et al. (Lemma 7.2), falling back to one level of the
//! Lemma 7.3 ABAB split when fewer than `n - 2` ancillas are free; both
//! constructions tolerate ancillas in arbitrary (dirty) states. Correctness
//! of every rule is verified against dense unitaries in `dqc-sim`'s test
//! suite.

use crate::{Circuit, CircuitError, Gate, GateKind, QubitId};

/// Unrolls one gate into the `CX + U3` basis, collected into a vector (see
/// [`unroll_gate_each`], which hands the gates over one at a time).
///
/// `num_qubits` is the register size, used to locate dirty ancillas for
/// multi-controlled gates.
///
/// # Errors
///
/// Returns [`CircuitError::InsufficientAncillas`] when a `Mcx` with three or
/// more controls has no free qubit to borrow.
///
/// ```
/// use dqc_circuit::{unroll_gate, Gate, GateKind, QubitId};
/// let crz = Gate::crz(0.5, QubitId::new(0), QubitId::new(1));
/// let gates = unroll_gate(&crz, 2).unwrap();
/// assert_eq!(gates.iter().filter(|g| g.kind() == GateKind::Cx).count(), 2);
/// ```
pub fn unroll_gate(gate: &Gate, num_qubits: usize) -> Result<Vec<Gate>, CircuitError> {
    let mut out = Vec::new();
    unroll_gate_each(gate, num_qubits, |g| out.push(g))?;
    Ok(out)
}

/// Unrolls one gate into the `CX + U3` basis, passing each basis gate to
/// `emit` in order — the expansion [`unroll_gate`] collects, without a
/// buffer of its own. Every gate of a conditioned gate's expansion carries
/// the same [`Gate::condition`].
///
/// # Errors
///
/// As [`unroll_gate`]. On error, some gates of the expansion may already
/// have been emitted.
///
/// ```
/// use dqc_circuit::{unroll_gate_each, Gate, GateKind, QubitId};
/// let ccx = Gate::ccx(QubitId::new(0), QubitId::new(1), QubitId::new(2));
/// let mut cx = 0;
/// unroll_gate_each(&ccx, 3, |g| cx += usize::from(g.kind() == GateKind::Cx)).unwrap();
/// assert_eq!(cx, 6);
/// ```
pub fn unroll_gate_each(
    gate: &Gate,
    num_qubits: usize,
    mut emit: impl FnMut(Gate),
) -> Result<(), CircuitError> {
    // Already in basis (or non-unitary bookkeeping): pass through. This is
    // the single source of truth for the basis set.
    if in_basis(gate.kind()) {
        emit(gate.clone());
        return Ok(());
    }
    // A conditioned gate's expansion carries its condition on every gate.
    // No expansion writes the bit, so either all of it runs or none does.
    let condition = gate.condition();
    let mut emit = |g: Gate| match condition {
        Some(c) => emit(g.with_condition(c)),
        None => emit(g),
    };
    let q = gate.qubits();
    match gate.kind() {
        GateKind::Cz => {
            let (a, b) = (q[0], q[1]);
            [Gate::h(b), Gate::cx(a, b), Gate::h(b)].into_iter().for_each(emit);
        }
        GateKind::Crz => {
            let theta = gate.theta().expect("crz has a parameter");
            let (c, t) = (q[0], q[1]);
            [Gate::rz(theta / 2.0, t), Gate::cx(c, t), Gate::rz(-theta / 2.0, t), Gate::cx(c, t)]
                .into_iter()
                .for_each(emit);
        }
        GateKind::Cp => {
            let theta = gate.theta().expect("cp has a parameter");
            let (a, b) = (q[0], q[1]);
            [
                Gate::phase(theta / 2.0, a),
                Gate::phase(theta / 2.0, b),
                Gate::cx(a, b),
                Gate::phase(-theta / 2.0, b),
                Gate::cx(a, b),
            ]
            .into_iter()
            .for_each(emit);
        }
        GateKind::Rzz => {
            let theta = gate.theta().expect("rzz has a parameter");
            let (a, b) = (q[0], q[1]);
            [Gate::cx(a, b), Gate::rz(theta, b), Gate::cx(a, b)].into_iter().for_each(emit);
        }
        GateKind::Swap => {
            let (a, b) = (q[0], q[1]);
            [Gate::cx(a, b), Gate::cx(b, a), Gate::cx(a, b)].into_iter().for_each(emit);
        }
        GateKind::Ccx => ccx_basis(q[0], q[1], q[2]).into_iter().for_each(emit),
        GateKind::Mcx => {
            let (controls, target) = q.split_at(q.len() - 1);
            mcx_to_toffolis(controls, target[0], num_qubits, &mut |g: Gate| match g.kind() {
                GateKind::Ccx => {
                    let p = g.qubits();
                    ccx_basis(p[0], p[1], p[2]).into_iter().for_each(&mut emit);
                }
                _ => emit(g),
            })?;
        }
        kind => unreachable!("in_basis claims `{kind}` needs decomposition but no rule exists"),
    }
    Ok(())
}

/// Unrolls every gate of `circuit` into the `CX + U3` basis, in order.
///
/// # Errors
///
/// Propagates [`CircuitError::InsufficientAncillas`] from multi-controlled
/// gates; register-bound errors cannot occur because the input circuit is
/// already validated.
pub fn unroll_circuit(circuit: &Circuit) -> Result<Circuit, CircuitError> {
    let n = circuit.num_qubits();
    let mut out = Circuit::with_cbits(n, circuit.num_cbits());
    out.reserve(circuit.len());
    for gate in circuit.gates() {
        unroll_gate_each(gate, n, |g| {
            out.push(g).expect("unrolling stays on the validated registers");
        })?;
    }
    // Doubling growth leaves up to the last doubling spare; the result
    // outlives the compile's later stages, so it keeps only its gates.
    out.shrink_to_fit();
    Ok(out)
}

/// Whether gates of this kind pass through unrolling unchanged.
fn in_basis(kind: GateKind) -> bool {
    matches!(
        kind,
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
            | GateKind::Cx
            | GateKind::Measure
            | GateKind::Reset
            | GateKind::Barrier
    )
}

/// Textbook 6-CX Toffoli decomposition (controls `a`, `b`; target `t`).
fn ccx_basis(a: QubitId, b: QubitId, t: QubitId) -> [Gate; 15] {
    [
        Gate::h(t),
        Gate::cx(b, t),
        Gate::tdg(t),
        Gate::cx(a, t),
        Gate::t(t),
        Gate::cx(b, t),
        Gate::tdg(t),
        Gate::cx(a, t),
        Gate::t(b),
        Gate::t(t),
        Gate::h(t),
        Gate::cx(a, b),
        Gate::t(a),
        Gate::tdg(b),
        Gate::cx(a, b),
    ]
}

/// Lowers an `n`-controlled X into Toffoli/CX/X gates using dirty ancillas,
/// passing each to `emit` in order.
fn mcx_to_toffolis(
    controls: &[QubitId],
    target: QubitId,
    num_qubits: usize,
    emit: &mut dyn FnMut(Gate),
) -> Result<(), CircuitError> {
    match controls.len() {
        0 => {
            emit(Gate::x(target));
            Ok(())
        }
        1 => {
            emit(Gate::cx(controls[0], target));
            Ok(())
        }
        2 => {
            emit(Gate::ccx(controls[0], controls[1], target));
            Ok(())
        }
        n => {
            let free = free_qubits(controls, target, num_qubits);
            if free.len() >= n - 2 {
                v_chain(controls, &free[..n - 2], target, emit);
                Ok(())
            } else if !free.is_empty() {
                split_mcx(controls, target, free[0], num_qubits, emit)
            } else {
                Err(CircuitError::InsufficientAncillas { needed: 1, available: 0 })
            }
        }
    }
}

/// Qubits in `0..num_qubits` that are neither controls nor the target.
fn free_qubits(controls: &[QubitId], target: QubitId, num_qubits: usize) -> Vec<QubitId> {
    (0..num_qubits).map(QubitId::new).filter(|q| *q != target && !controls.contains(q)).collect()
}

/// Barenco Lemma 7.2 V-chain: `4(n-2)` Toffolis with `n-2` dirty ancillas.
///
/// The toggle network is emitted twice; the second pass cancels all dirt on
/// the ancillas while the target accumulates exactly the AND of all
/// controls.
fn v_chain(
    controls: &[QubitId],
    ancillas: &[QubitId],
    target: QubitId,
    emit: &mut dyn FnMut(Gate),
) {
    let n = controls.len();
    debug_assert!(n >= 3 && ancillas.len() >= n - 2);
    for _ in 0..2 {
        emit(Gate::ccx(controls[n - 1], ancillas[n - 3], target));
        for i in (2..=n - 2).rev() {
            emit(Gate::ccx(controls[i], ancillas[i - 2], ancillas[i - 1]));
        }
        emit(Gate::ccx(controls[1], controls[0], ancillas[0]));
        for i in 2..=n - 2 {
            emit(Gate::ccx(controls[i], ancillas[i - 2], ancillas[i - 1]));
        }
    }
}

/// Barenco Lemma 7.3 ABAB split using a single dirty ancilla; each half then
/// has enough spare qubits for the V-chain.
fn split_mcx(
    controls: &[QubitId],
    target: QubitId,
    ancilla: QubitId,
    num_qubits: usize,
    emit: &mut dyn FnMut(Gate),
) -> Result<(), CircuitError> {
    let n = controls.len();
    let m = n.div_ceil(2);
    let (low, high) = controls.split_at(m);
    let mut upper: Vec<QubitId> = high.to_vec();
    upper.push(ancilla);
    // Time order A B A B with A = C^{|upper|}X(upper → target) reading the
    // ancilla's initial value first, B = C^{m}X(low → ancilla); the target
    // toggles exactly when all of `low` and `high` are one.
    for _ in 0..2 {
        mcx_to_toffolis(&upper, target, num_qubits, emit)?;
        mcx_to_toffolis(low, ancilla, num_qubits, emit)?;
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::CBitId;

    /// A reproducible random circuit over the gate alphabet the front end
    /// handles: basis gates, gates that unroll (symmetric diagonals, `crz`,
    /// `swap`, Toffoli, multi-controlled X), measurements, and classically
    /// conditioned gates. Needs at least five qubits (the multi-controlled
    /// X takes four plus an ancilla).
    pub(crate) fn random_circuit(num_qubits: usize, num_gates: usize, seed: u64) -> Circuit {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut c = Circuit::with_cbits(num_qubits, 2);
        for _ in 0..num_gates {
            let mut qs: Vec<QubitId> = Vec::with_capacity(4);
            while qs.len() < 4 {
                let candidate = q(next(num_qubits));
                if !qs.contains(&candidate) {
                    qs.push(candidate);
                }
            }
            let (a, b) = (qs[0], qs[1]);
            let theta = next(6283) as f64 / 1000.0;
            let bit = CBitId::new(next(2));
            let gate = match next(16) {
                0 => Gate::h(a),
                1 => Gate::t(a),
                2 => Gate::rz(theta, a),
                3 => Gate::rx(theta, a),
                4 | 5 => Gate::cx(a, b),
                6 => Gate::cz(a, b),
                7 => Gate::crz(theta, a, b),
                8 => Gate::rzz(theta, a, b),
                9 => Gate::cp(theta, a, b),
                10 => Gate::swap(a, b),
                11 => Gate::ccx(a, b, qs[2]),
                12 => Gate::mcx(&qs[..3], qs[3]),
                13 => Gate::measure(a, bit),
                14 => Gate::x(a).with_condition(bit),
                _ => Gate::cz(a, b).with_condition(bit),
            };
            c.push(gate).expect("operands in range");
        }
        c
    }

    /// The gate-by-gate oracle for [`unroll_circuit`], stopping at the
    /// first gate that fails.
    fn gate_by_gate(circuit: &Circuit) -> Result<Circuit, CircuitError> {
        let mut out = Circuit::with_cbits(circuit.num_qubits(), circuit.num_cbits());
        for gate in circuit.gates() {
            if super::in_basis(gate.kind()) {
                out.push(gate.clone())?;
            } else {
                for g in unroll_gate(gate, circuit.num_qubits())? {
                    out.push(g)?;
                }
            }
        }
        Ok(out)
    }

    /// The circuit unroll matches the gate-by-gate oracle.
    #[test]
    fn unroll_circuit_matches_gate_by_gate_random() {
        for seed in 0..16 {
            let c = random_circuit(16, 2000, seed);
            assert_eq!(unroll_circuit(&c).unwrap(), gate_by_gate(&c).unwrap(), "seed {seed}");
        }
    }

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    fn cx_count(gates: &[Gate]) -> usize {
        gates.iter().filter(|g| g.kind() == GateKind::Cx).count()
    }

    fn in_basis(gates: &[Gate]) -> bool {
        gates.iter().all(|g| g.num_qubits() == 1 || g.kind() == GateKind::Cx)
    }

    #[test]
    fn basis_gates_pass_through() {
        for g in [Gate::h(q(0)), Gate::rz(0.2, q(0)), Gate::cx(q(0), q(1))] {
            assert_eq!(unroll_gate(&g, 2).unwrap(), vec![g.clone()]);
        }
    }

    #[test]
    fn crz_uses_two_cx() {
        let gates = unroll_gate(&Gate::crz(0.7, q(0), q(1)), 2).unwrap();
        assert_eq!(gates.len(), 4);
        assert_eq!(cx_count(&gates), 2);
        assert!(in_basis(&gates));
    }

    #[test]
    fn cp_uses_two_cx() {
        let gates = unroll_gate(&Gate::cp(0.7, q(0), q(1)), 2).unwrap();
        assert_eq!(cx_count(&gates), 2);
        assert!(in_basis(&gates));
    }

    #[test]
    fn rzz_uses_two_cx() {
        let gates = unroll_gate(&Gate::rzz(0.7, q(0), q(1)), 2).unwrap();
        assert_eq!(gates.len(), 3);
        assert_eq!(cx_count(&gates), 2);
    }

    #[test]
    fn swap_uses_three_cx() {
        let gates = unroll_gate(&Gate::swap(q(0), q(1)), 2).unwrap();
        assert_eq!(gates.len(), 3);
        assert_eq!(cx_count(&gates), 3);
    }

    #[test]
    fn ccx_uses_six_cx() {
        let gates = unroll_gate(&Gate::ccx(q(0), q(1), q(2)), 3).unwrap();
        assert_eq!(gates.len(), 15);
        assert_eq!(cx_count(&gates), 6);
        assert!(in_basis(&gates));
    }

    #[test]
    fn mcx_small_cases() {
        let g = Gate::mcx(&[], q(0));
        assert_eq!(unroll_gate(&g, 1).unwrap(), vec![Gate::x(q(0))]);
        let g = Gate::mcx(&[q(0)], q(1));
        assert_eq!(unroll_gate(&g, 2).unwrap(), vec![Gate::cx(q(0), q(1))]);
        let g = Gate::mcx(&[q(0), q(1)], q(2));
        assert_eq!(cx_count(&unroll_gate(&g, 3).unwrap()), 6);
    }

    #[test]
    fn mcx_v_chain_is_linear() {
        // n controls with n-2 spare qubits → 4(n-2) Toffolis → 24(n-2) CX.
        for n in 3..10usize {
            let total = 2 * n - 1; // n controls + 1 target + (n-2) ancillas
            let controls: Vec<QubitId> = (0..n).map(q).collect();
            let g = Gate::mcx(&controls, q(n));
            let gates = unroll_gate(&g, total).unwrap();
            assert_eq!(cx_count(&gates), 24 * (n - 2), "n = {n}");
            assert!(in_basis(&gates));
        }
    }

    #[test]
    fn mcx_split_with_single_ancilla() {
        // 5 controls, 1 target, exactly 1 spare qubit → must use the split.
        let controls: Vec<QubitId> = (0..5).map(q).collect();
        let g = Gate::mcx(&controls, q(5));
        let gates = unroll_gate(&g, 7).unwrap();
        assert!(in_basis(&gates));
        assert!(cx_count(&gates) > 0);
    }

    #[test]
    fn mcx_without_ancilla_fails() {
        let controls: Vec<QubitId> = (0..5).map(q).collect();
        let g = Gate::mcx(&controls, q(5));
        let err = unroll_gate(&g, 6).unwrap_err();
        assert!(matches!(err, CircuitError::InsufficientAncillas { .. }));
    }

    #[test]
    fn unroll_circuit_preserves_registers() {
        let mut c = Circuit::with_cbits(3, 2);
        c.push(Gate::crz(0.1, q(0), q(1))).unwrap();
        c.push(Gate::swap(q(1), q(2))).unwrap();
        let u = unroll_circuit(&c).unwrap();
        assert_eq!(u.num_qubits(), 3);
        assert_eq!(u.num_cbits(), 2);
        assert_eq!(u.len(), 7);
        assert!(in_basis(u.gates()));
    }
}

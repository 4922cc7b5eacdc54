//! Property tests: the symbolic commutation oracle and the gate unrolling
//! rules are sound with respect to dense unitaries, and unrolling keeps
//! classical conditions (checked on state vectors, since the dense
//! unitaries have no classical register).

use autocomm_repro::circuit::{commutes, unroll_circuit, CBitId, Circuit, Gate, GateKind, QubitId};
use autocomm_repro::sim::{
    circuit_unitary, circuits_equivalent, equivalent_up_to_phase, SplitMix64, StateVector,
};
use proptest::prelude::*;

fn q(i: usize) -> QubitId {
    QubitId::new(i)
}

/// A strategy producing arbitrary unitary gates over a 4-qubit register.
fn arb_gate() -> impl Strategy<Value = Gate> {
    let qubit = 0..4usize;
    let angle = -6.3..6.3f64;
    prop_oneof![
        qubit.clone().prop_map(|a| Gate::h(q(a))),
        qubit.clone().prop_map(|a| Gate::x(q(a))),
        qubit.clone().prop_map(|a| Gate::y(q(a))),
        qubit.clone().prop_map(|a| Gate::z(q(a))),
        qubit.clone().prop_map(|a| Gate::s(q(a))),
        qubit.clone().prop_map(|a| Gate::t(q(a))),
        qubit.clone().prop_map(|a| Gate::sx(q(a))),
        (qubit.clone(), angle.clone()).prop_map(|(a, t)| Gate::rx(t, q(a))),
        (qubit.clone(), angle.clone()).prop_map(|(a, t)| Gate::ry(t, q(a))),
        (qubit.clone(), angle.clone()).prop_map(|(a, t)| Gate::rz(t, q(a))),
        (qubit.clone(), angle.clone()).prop_map(|(a, t)| Gate::phase(t, q(a))),
        pair().prop_map(|(a, b)| Gate::cx(q(a), q(b))),
        pair().prop_map(|(a, b)| Gate::cz(q(a), q(b))),
        pair().prop_map(|(a, b)| Gate::swap(q(a), q(b))),
        (pair(), angle.clone()).prop_map(|((a, b), t)| Gate::crz(t, q(a), q(b))),
        (pair(), angle.clone()).prop_map(|((a, b), t)| Gate::cp(t, q(a), q(b))),
        (pair(), angle).prop_map(|((a, b), t)| Gate::rzz(t, q(a), q(b))),
    ]
}

fn pair() -> impl Strategy<Value = (usize, usize)> {
    (0..4usize, 0..3usize).prop_map(|(a, d)| (a, (a + 1 + d) % 4))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// If the symbolic oracle says two gates commute, their dense unitaries
    /// must commute exactly.
    #[test]
    fn symbolic_commutation_is_sound(a in arb_gate(), b in arb_gate()) {
        if commutes(&a, &b) {
            let mut ab = Circuit::new(4);
            ab.push(a.clone()).unwrap();
            ab.push(b.clone()).unwrap();
            let mut ba = Circuit::new(4);
            ba.push(b.clone()).unwrap();
            ba.push(a.clone()).unwrap();
            let ua = circuit_unitary(&ab).unwrap();
            let ub = circuit_unitary(&ba).unwrap();
            prop_assert!(
                equivalent_up_to_phase(&ua, &ub, 1e-9),
                "oracle claimed {a} and {b} commute"
            );
        }
    }

    /// Unrolling any gate preserves its unitary exactly.
    #[test]
    fn unrolling_is_sound(g in arb_gate()) {
        let mut orig = Circuit::new(4);
        orig.push(g.clone()).unwrap();
        let unrolled = unroll_circuit(&orig).unwrap();
        prop_assert!(
            circuits_equivalent(&orig, &unrolled, 1e-9).unwrap(),
            "unrolling changed {g}"
        );
        // And the result is in the CX + U3 basis.
        for ug in unrolled.gates() {
            prop_assert!(ug.num_qubits() == 1 || ug.kind() == GateKind::Cx);
        }
    }

    /// Unrolling a whole random circuit preserves semantics.
    #[test]
    fn circuit_unrolling_is_sound(seed in 0u64..500) {
        let c = autocomm_repro::workloads::random_circuit(4, 12, seed);
        let unrolled = unroll_circuit(&c).unwrap();
        prop_assert!(circuits_equivalent(&c, &unrolled, 1e-8).unwrap());
    }
}

#[test]
fn anti_commuting_pairs_are_never_claimed() {
    // A non-exhaustive blacklist of famous non-commuting pairs.
    let pairs = vec![
        (Gate::x(q(0)), Gate::z(q(0))),
        (Gate::h(q(0)), Gate::t(q(0))),
        (Gate::cx(q(0), q(1)), Gate::cx(q(1), q(0))),
        (Gate::cx(q(0), q(1)), Gate::h(q(0))),
        (Gate::rz(0.5, q(0)), Gate::rx(0.5, q(0))),
    ];
    for (a, b) in pairs {
        assert!(!commutes(&a, &b), "{a} vs {b}");
    }
}

/// Unrolling a conditioned gate conditions its whole expansion. Qubit 0 is
/// prepared in |0⟩ or |1⟩ and measured into `c[0]`, so each condition value
/// is tested with a fixed outcome; the other qubits start in distinct
/// superpositions that every gate below changes.
#[test]
fn conditioned_unrolling_is_sound() {
    let gates = [
        Gate::cz(q(1), q(2)),
        Gate::crz(0.7, q(1), q(2)),
        Gate::cp(0.9, q(2), q(1)),
        Gate::rzz(1.1, q(1), q(3)),
        Gate::swap(q(1), q(2)),
        Gate::ccx(q(1), q(2), q(3)),
        Gate::mcx(&[q(1), q(2), q(3)], q(4)),
        Gate::mcx(&[q(1), q(2), q(3), q(4)], q(5)),
    ];
    let final_state = |circuit: &Circuit| {
        let mut state = StateVector::zero_state(circuit.num_qubits()).unwrap();
        state.run(circuit, &mut SplitMix64::new(7)).unwrap();
        state
    };
    for gate in gates {
        for bit in [false, true] {
            let mut c = Circuit::with_cbits(6, 1);
            if bit {
                c.push(Gate::x(q(0))).unwrap();
            }
            c.push(Gate::measure(q(0), CBitId::new(0))).unwrap();
            for i in 1..6 {
                c.push(Gate::ry(0.3 + 0.4 * i as f64, q(i))).unwrap();
                c.push(Gate::t(q(i))).unwrap();
            }
            c.push(gate.clone().with_condition(CBitId::new(0))).unwrap();
            let unrolled = unroll_circuit(&c).unwrap();
            let fidelity = final_state(&c).fidelity(&final_state(&unrolled)).unwrap();
            assert!(
                (fidelity - 1.0).abs() < 1e-9,
                "if (c[0] == 1) {gate} with c[0] = {}: fidelity {fidelity}",
                u8::from(bit)
            );
        }
    }
}

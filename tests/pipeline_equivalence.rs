//! End-to-end semantic verification of the compiler: aggregation reorders
//! only commuting gates, orientation is exactly symmetric, and the full
//! pipeline lowered through physical Cat-Comm / TP-Comm protocols
//! reproduces the logical state on every seed.

use autocomm_repro::circuit::{unroll_circuit, Partition};
use autocomm_repro::core::{
    aggregate, assign, assign_cat_only, lower_assigned, orient_symmetric_gates, AggregateOptions,
};
use autocomm_repro::sim::{circuits_equivalent, Complex, SplitMix64, StateVector};
use autocomm_repro::workloads::random_distributed_circuit;
use proptest::prelude::*;

/// Compiles and physically lowers a circuit, returning the fidelity of the
/// logical register against direct simulation of the input.
fn pipeline_fidelity(
    circuit: &autocomm_repro::circuit::Circuit,
    partition: &Partition,
    seed: u64,
    cat_only: bool,
) -> f64 {
    let oriented = orient_symmetric_gates(circuit, partition);
    let unrolled = unroll_circuit(&oriented).unwrap();
    let aggregated = aggregate(&unrolled, partition, AggregateOptions::default());
    let assigned = if cat_only { assign_cat_only(&aggregated) } else { assign(&aggregated) };
    let physical = lower_assigned(&assigned, partition).unwrap();

    let mut rng = SplitMix64::new(seed);
    let input = StateVector::random_state(circuit.num_qubits(), &mut rng).unwrap();
    let mut expected = input.clone();
    expected.run(circuit, &mut rng.fork()).unwrap();

    let total = physical.circuit.num_qubits();
    let mut amps = vec![Complex::ZERO; 1 << total];
    amps[..input.amplitudes().len()].copy_from_slice(input.amplitudes());
    let mut state = StateVector::from_amplitudes(amps).unwrap();
    state.run(&physical.circuit, &mut rng).unwrap();
    state.subset_fidelity(&expected, &physical.logical_qubits()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Aggregation output flattens to a circuit equivalent to its input.
    #[test]
    fn aggregation_preserves_semantics(seed in 0u64..1000) {
        let (c, p) = random_distributed_circuit(5, 2, 35, seed);
        let unrolled = unroll_circuit(&c).unwrap();
        let agg = aggregate(&unrolled, &p, AggregateOptions::default());
        prop_assert!(circuits_equivalent(&unrolled, &agg.to_circuit(), 1e-8).unwrap());
    }

    /// The hybrid pipeline, lowered to physical protocols with mid-circuit
    /// measurement and feed-forward, reproduces the logical program.
    #[test]
    fn hybrid_pipeline_is_exact(seed in 0u64..1000) {
        let (c, p) = random_distributed_circuit(5, 2, 25, seed);
        let f = pipeline_fidelity(&c, &p, seed ^ 0xfeed, false);
        prop_assert!((f - 1.0).abs() < 1e-8, "fidelity {f}");
    }

    /// The Cat-only ablation is also semantics-preserving.
    #[test]
    fn cat_only_pipeline_is_exact(seed in 0u64..1000) {
        let (c, p) = random_distributed_circuit(5, 2, 20, seed);
        let f = pipeline_fidelity(&c, &p, seed ^ 0xcafe, true);
        prop_assert!((f - 1.0).abs() < 1e-8, "fidelity {f}");
    }

    /// Three-node programs exercise TP fusion chains and node-crossing
    /// blocks.
    #[test]
    fn three_node_pipeline_is_exact(seed in 0u64..500) {
        let (c, p) = random_distributed_circuit(6, 3, 24, seed);
        let f = pipeline_fidelity(&c, &p, seed ^ 0xbeef, false);
        prop_assert!((f - 1.0).abs() < 1e-8, "fidelity {f}");
    }

    /// Orientation of symmetric gates never changes semantics.
    #[test]
    fn orientation_preserves_semantics(seed in 0u64..1000) {
        let (c, p) = random_distributed_circuit(4, 2, 25, seed);
        let oriented = orient_symmetric_gates(&c, &p);
        prop_assert!(circuits_equivalent(&c, &oriented, 1e-9).unwrap());
    }
}

#[test]
fn workload_pipelines_are_exact() {
    // Small instances of the actual benchmark generators, end to end.
    let cases: Vec<(autocomm_repro::circuit::Circuit, usize)> = vec![
        (autocomm_repro::workloads::qft(6), 2),
        (autocomm_repro::workloads::bv(7), 2),
        (autocomm_repro::workloads::rca(6), 3),
        (autocomm_repro::workloads::qaoa_maxcut(6, 9, 5), 2),
    ];
    for (circuit, nodes) in cases {
        let partition = Partition::block(circuit.num_qubits(), nodes).unwrap();
        let f = pipeline_fidelity(&circuit, &partition, 77, false);
        assert!((f - 1.0).abs() < 1e-8, "fidelity {f} for {nodes}-node workload");
    }
}

/// Classically controlled programs compile to the input program: a measured
/// bit conditions a remote `cz`, the measurement precedes the first remote
/// block, and qubit 0 is prepared in |0⟩ or |1⟩ so the outcome is fixed.
/// The conditioned remote gate is counted, communicated and lowered, and
/// the program's bit keeps its index beside the protocols' own bits.
#[test]
fn conditioned_remote_gates_compile_exactly() {
    use autocomm_repro::circuit::{CBitId, Circuit, Gate, QubitId};
    use autocomm_repro::core::{lower_assigned_on, Ablation, AutoComm, AutoCommOptions};
    use autocomm_repro::hardware::{HardwareSpec, NetworkTopology};

    let q = QubitId::new;
    let partition = Partition::block(6, 3).unwrap();
    let final_state = |circuit: &Circuit| {
        let mut state = StateVector::zero_state(circuit.num_qubits()).unwrap();
        state.run(circuit, &mut SplitMix64::new(11)).unwrap();
        state
    };
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
        c.push(Gate::cx(q(1), q(4))).unwrap();
        c.push(Gate::cx(q(4), q(1))).unwrap();
        c.push(Gate::cz(q(1), q(3)).with_condition(CBitId::new(0))).unwrap();
        c.push(Gate::cx(q(0), q(5))).unwrap();
        let expected = final_state(&c);
        for topology in [NetworkTopology::all_to_all(3), NetworkTopology::linear(3).unwrap()] {
            let hw = HardwareSpec::for_partition(&partition).with_topology(topology).unwrap();
            for cat_only in [false, true] {
                let options = if cat_only {
                    AutoCommOptions::default().with_ablation(Ablation::CatOnly)
                } else {
                    AutoCommOptions::default()
                };
                let what = format!(
                    "c[0] = {}, {}, cat_only {cat_only}",
                    u8::from(bit),
                    hw.topology().name()
                );
                let r = AutoComm::with_options(options).compile_on(&c, &partition, &hw).unwrap();
                let remote_cx = r
                    .unrolled
                    .gates()
                    .iter()
                    .filter(|g| g.is_two_qubit_unitary() && partition.is_remote(g))
                    .count();
                assert_eq!(r.metrics.total_rem_cx, remote_cx, "{what}");
                let physical = lower_assigned_on(&r.assigned, &r.placement, hw.topology())
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let state = final_state(&physical.circuit);
                let f = state.subset_fidelity(&expected, &physical.logical_qubits()).unwrap();
                assert!((f - 1.0).abs() < 1e-8, "{what}: fidelity {f}");
            }
        }
    }
}

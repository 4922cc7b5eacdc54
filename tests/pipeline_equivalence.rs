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

/// One gate of kind `kind` (of [`GATE_KINDS`], every kind the IR models
/// beside measure, reset and barrier), on distinct qubits drawn from
/// `pick`, with angles from `angle`. `mcx` needs four distinct qubits.
fn gate_of_kind(
    kind: usize,
    pick: &mut impl FnMut() -> autocomm_repro::circuit::QubitId,
    angle: f64,
) -> autocomm_repro::circuit::Gate {
    use autocomm_repro::circuit::Gate;
    let arity = match kind {
        0..=13 => 1,
        14..=19 => 2,
        20 => 3,
        _ => 4,
    };
    let mut qs = Vec::with_capacity(arity);
    while qs.len() < arity {
        let q = pick();
        if !qs.contains(&q) {
            qs.push(q);
        }
    }
    match kind {
        0 => Gate::h(qs[0]),
        1 => Gate::x(qs[0]),
        2 => Gate::y(qs[0]),
        3 => Gate::z(qs[0]),
        4 => Gate::s(qs[0]),
        5 => Gate::sdg(qs[0]),
        6 => Gate::t(qs[0]),
        7 => Gate::tdg(qs[0]),
        8 => Gate::sx(qs[0]),
        9 => Gate::rx(angle, qs[0]),
        10 => Gate::ry(angle, qs[0]),
        11 => Gate::rz(angle, qs[0]),
        12 => Gate::phase(angle, qs[0]),
        13 => Gate::u3(angle, 0.5 * angle, 0.25, qs[0]),
        14 => Gate::cx(qs[0], qs[1]),
        15 => Gate::cz(qs[0], qs[1]),
        16 => Gate::swap(qs[0], qs[1]),
        17 => Gate::crz(angle, qs[0], qs[1]),
        18 => Gate::cp(angle, qs[0], qs[1]),
        19 => Gate::rzz(angle, qs[0], qs[1]),
        20 => Gate::ccx(qs[0], qs[1], qs[2]),
        _ => Gate::mcx(&qs[..3], qs[3]),
    }
}

/// Number of kinds [`gate_of_kind`] draws from.
const GATE_KINDS: usize = 22;

/// A seeded random program over 5 qubits with two mid-circuit
/// measurements of basis-state qubits: qubit 0 is prepared in
/// `|bits[0]⟩` and measured into `c[0]` after a first random layer, qubit
/// 3 in `|bits[1]⟩` into `c[1]` after a second. Until its measurement a
/// basis qubit is left alone, so every outcome is fixed. The two later
/// layers hold every gate kind once between them, conditioned on a
/// measured bit and shuffled among unconditioned gates of random kinds.
fn classically_controlled_program(seed: u64, bits: [bool; 2]) -> autocomm_repro::circuit::Circuit {
    use autocomm_repro::circuit::{CBitId, Circuit, Gate, QubitId};
    let mut rng = SplitMix64::new(seed);
    let mut c = Circuit::with_cbits(5, 2);
    let basis = [QubitId::new(0), QubitId::new(3)];
    for (&q, &bit) in basis.iter().zip(&bits) {
        if bit {
            c.push(Gate::x(q)).unwrap();
        }
    }
    for layer in 0..3 {
        // Qubits still awaiting their measurement stay out of this layer.
        let free: Vec<QubitId> =
            (0..5).map(QubitId::new).filter(|q| !basis[layer.min(2)..].contains(q)).collect();
        let mut pick_rng = rng.fork();
        let mut pick = || free[pick_rng.next_below(free.len() as u64) as usize];
        let plain_kinds = if free.len() < 4 { GATE_KINDS - 1 } else { GATE_KINDS } as u64;
        // Layer 1 conditions the even kinds on `c[0]`, layer 2 the odd
        // kinds on either bit.
        let mut kinds: Vec<Option<usize>> = (0..GATE_KINDS)
            .filter(|kind| layer > 0 && kind % 2 == layer - 1)
            .map(Some)
            .chain((0..6).map(|_| None))
            .collect();
        // Fisher–Yates, so conditioned kinds land between plain gates.
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        for kind in kinds {
            let angle = 0.2 + 2.5 * rng.next_f64();
            let gate = match kind {
                Some(kind) => gate_of_kind(kind, &mut pick, angle)
                    .with_condition(CBitId::new(rng.next_below(layer as u64) as usize)),
                // Three free qubits leave `mcx`, the last kind, out.
                None => gate_of_kind(rng.next_below(plain_kinds) as usize, &mut pick, angle),
            };
            c.push(gate).unwrap();
        }
        if layer < 2 {
            c.push(Gate::measure(basis[layer], CBitId::new(layer))).unwrap();
        }
    }
    c
}

/// Classical control end to end: seeded random programs with mid-circuit
/// measurements of basis-state qubits and conditioned gates of every kind,
/// under both values of each condition bit, all five topologies, and
/// hybrid and Cat-only assignment, reach fidelity 1 against the *input*
/// circuit through `lower_assigned_on`.
#[test]
fn classically_controlled_programs_compile_exactly() {
    use autocomm_repro::core::{lower_assigned_on, Ablation, AutoComm, AutoCommOptions};
    use autocomm_repro::hardware::{HardwareSpec, NetworkTopology};

    // Nodes of 2, 1, 1 and 1 qubits keep the lowered register at 13 qubits
    // (two comm qubits per node) while every topology has a multi-hop pair.
    let nodes = 4;
    let home = [0, 0, 1, 2, 3].map(autocomm_repro::circuit::NodeId::new);
    let partition = Partition::from_assignment(home.to_vec(), nodes).unwrap();
    let topologies = [
        NetworkTopology::all_to_all(nodes),
        NetworkTopology::linear(nodes).unwrap(),
        NetworkTopology::ring(nodes).unwrap(),
        NetworkTopology::star(nodes).unwrap(),
        NetworkTopology::grid(2, 2).unwrap(),
    ];
    let final_state = |circuit: &autocomm_repro::circuit::Circuit| {
        let mut state = StateVector::zero_state(circuit.num_qubits()).unwrap();
        state.run(circuit, &mut SplitMix64::new(5)).unwrap();
        state
    };
    for seed in 0..2u64 {
        for bits in [[false, true], [true, false]] {
            let c = classically_controlled_program(seed, bits);
            let expected = final_state(&c);
            for topology in &topologies {
                let hw = HardwareSpec::for_partition(&partition)
                    .with_topology(topology.clone())
                    .unwrap();
                for cat_only in [false, true] {
                    let options = if cat_only {
                        AutoCommOptions::default().with_ablation(Ablation::CatOnly)
                    } else {
                        AutoCommOptions::default()
                    };
                    let what = format!(
                        "seed {seed}, bits {bits:?}, {}, cat_only {cat_only}",
                        topology.name()
                    );
                    let r =
                        AutoComm::with_options(options).compile_on(&c, &partition, &hw).unwrap();
                    let physical = lower_assigned_on(&r.assigned, &r.placement, hw.topology())
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    let state = final_state(&physical.circuit);
                    let f = state.subset_fidelity(&expected, &physical.logical_qubits()).unwrap();
                    assert!((f - 1.0).abs() < 1e-8, "{what}: fidelity {f}");
                }
            }
        }
    }
}

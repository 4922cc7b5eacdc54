//! Golden pin of the aggregation walk: block count, item count, and a hash
//! of the full item sequence, recorded before the walk's list surgery was
//! rewritten. The streaming-vs-materialized property tests cannot catch a
//! walk bug (both rails share the walk), so these fixed expectations are
//! the oracle for every change to `process_pair`.
//!
//! Cases cover the Table-2 rows up to 100 qubits (OEE partition, as the
//! CLI compiles them) and seeded random circuits wider than 64 wires with
//! measurements and classically conditioned gates, where the folded wire
//! masks are no longer exact.

use autocomm_repro::circuit::{unroll_circuit, CBitId, Circuit, Gate, Partition, QubitId};
use autocomm_repro::core::{aggregate, AggregateOptions, AggregatedProgram, Item, Pipeline};
use autocomm_repro::hardware::HardwareSpec;
use autocomm_repro::partition::{oee_partition, InteractionGraph};
use autocomm_repro::workloads::{generate, BenchConfig, Workload};

/// FNV-1a over the item sequence: item kind, block qubit and node, and the
/// resolved gates in order.
fn item_hash(program: &AggregatedProgram) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |text: &str| {
        for &b in text.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for item in program.items() {
        match item {
            Item::Local(id) => feed(&format!("L {};", program.gate(*id))),
            Item::Block(b) => {
                feed(&format!("B {} {}:", b.qubit().index(), b.node().index()));
                for g in b.gates(program.ir().table()) {
                    feed(&format!("{g};"));
                }
            }
        }
    }
    h
}

/// Block count, item count, and item-sequence hash.
type Pin = (usize, usize, u64);

fn pin(program: &AggregatedProgram) -> Pin {
    (program.block_count(), program.items().len(), item_hash(program))
}

/// Aggregates `circuit` the way `autocomm compile --placement oee` does:
/// OEE partition of the unrolled circuit, then orient → unroll → comm-ir →
/// aggregate at the default options.
fn compile_oee(circuit: &Circuit, nodes: usize) -> AggregatedProgram {
    let unrolled = unroll_circuit(circuit).unwrap();
    let partition = oee_partition(&InteractionGraph::from_circuit(&unrolled), nodes).unwrap();
    let pipeline = Pipeline::builder()
        .orient()
        .unroll()
        .comm_ir()
        .aggregate(AggregateOptions::default())
        .build();
    let hw = HardwareSpec::for_partition(&partition);
    pipeline.run(circuit, &partition, &hw).unwrap().aggregated.unwrap()
}

#[test]
fn table2_rows_up_to_100_qubits_match_the_golden_walk() {
    let cases: [(Workload, usize, usize, Pin); 8] = [
        (Workload::Mctr, 100, 10, (42, 2448, 13088767423467651529)),
        (Workload::Rca, 100, 10, (26, 1486, 44386374705484593)),
        (Workload::Qft, 100, 10, (675, 7715, 11669306210960082223)),
        (Workload::Bv, 100, 10, (9, 218, 6265310987241416232)),
        (Workload::Qaoa, 100, 10, (1584, 2768, 3127831550107762672)),
        (Workload::Uccsd, 8, 4, (321, 1562, 4646194003823972422)),
        (Workload::Uccsd, 12, 6, (2756, 8780, 11990100597048329239)),
        (Workload::Uccsd, 16, 8, (11192, 32265, 12063427846847224926)),
    ];
    for (workload, qubits, nodes, expected) in cases {
        let config = BenchConfig::new(workload, qubits, nodes);
        let got = pin(&compile_oee(&generate(&config), nodes));
        assert_eq!(got, expected, "{} drifted from the golden walk", config.label());
    }
}

/// A seeded random program over `qubits` qubits and `cbits` classical
/// bits: single-qubit rotations, CX/CZ, measurements, and `if`-conditioned
/// gates, drawn by a fixed xorshift so the circuit is platform-stable.
/// Operands cluster in a window that drifts around the register (one
/// two-qubit gate in eight reaches anywhere), so bursts recur with long
/// stretches of unrelated gates between them.
fn random_classical_circuit(qubits: usize, cbits: usize, gates: usize, seed: u64) -> Circuit {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let mut c = Circuit::with_cbits(qubits, cbits);
    let q = QubitId::new;
    while c.len() < gates {
        let region = c.len() / 40 * 7;
        let a = (region + next(12)) % qubits;
        let reach = if next(8) == 0 { qubits - 1 } else { 11 };
        let b = (a + 1 + next(reach)) % qubits;
        let gate = match next(16) {
            0..=5 => Gate::cx(q(a), q(b)),
            6 => Gate::cz(q(a), q(b)),
            7 | 8 => Gate::h(q(a)),
            9 | 10 => Gate::rz(0.25 * (1 + next(12)) as f64, q(a)),
            11 => Gate::t(q(a)),
            12 => Gate::x(q(a)),
            13 => Gate::measure(q(a), CBitId::new(next(cbits))),
            _ => Gate::x(q(a)).with_condition(CBitId::new(next(cbits))),
        };
        c.push(gate).unwrap();
    }
    c
}

#[test]
fn wide_random_programs_with_classical_wires_match_the_golden_walk() {
    // (qubits, cbits, nodes, gates, seed, [defer 0, defer 2, defer 64]).
    // 48 + 24 wires: the qubits alone fold exactly, the classical bits do
    // not; the others exceed 64 qubits outright.
    let cases: [(usize, usize, usize, usize, u64, [Pin; 3]); 4] = [
        (
            48,
            24,
            4,
            1500,
            1,
            [
                (282, 1537, 5017272063982455312),
                (276, 1511, 16015968974911284519),
                (288, 1528, 3625296103064895590),
            ],
        ),
        (
            72,
            8,
            6,
            1500,
            2,
            [
                (277, 1584, 4007514854166281389),
                (268, 1553, 7838531913717436080),
                (266, 1545, 11021412834126799787),
            ],
        ),
        (
            96,
            16,
            8,
            2000,
            3,
            [
                (428, 2128, 2414230779185576164),
                (405, 2058, 3299410558105703092),
                (403, 2017, 6571189242649647859),
            ],
        ),
        (
            130,
            4,
            5,
            2000,
            4,
            [
                (217, 2156, 1288547913161705943),
                (216, 2149, 14082010790681314819),
                (216, 2149, 13603762747696196439),
            ],
        ),
    ];
    for (qubits, cbits, nodes, gates, seed, expected) in cases {
        let circuit =
            unroll_circuit(&random_classical_circuit(qubits, cbits, gates, seed)).unwrap();
        let partition = Partition::block(qubits, nodes).unwrap();
        for (defer_limit, want) in [0usize, 2, 64].into_iter().zip(expected) {
            let options = AggregateOptions { defer_limit, ..AggregateOptions::default() };
            let got = pin(&aggregate(&circuit, &partition, options));
            assert_eq!(
                got, want,
                "{qubits}q+{cbits}c seed {seed} defer {defer_limit} drifted from the golden walk"
            );
        }
    }
}

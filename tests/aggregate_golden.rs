//! Golden pin of the aggregation walk: block count, item count, and a hash
//! of the full item sequence. These fixed expectations are the oracle for
//! every change to the aggregation pass: its walk, its list surgery, and its
//! streaming conflict filter.
//!
//! Cases cover the Table-2 rows up to 100 qubits (OEE partition, as the
//! CLI compiles them), seeded random circuits wider than 64 wires with
//! measurements and classically conditioned gates, where the folded wire
//! masks are no longer exact, and the smoke suite and small seeded random
//! programs under block partitions at three defer limits. The last two
//! groups were recorded while a materialized conflict-DAG filter still
//! shipped beside the streaming one, and each pin equalled that filter's
//! output too.

use autocomm_repro::circuit::{unroll_circuit, CBitId, Circuit, Gate, Partition, QubitId};
use autocomm_repro::core::{
    aggregate, aggregate_ir, aggregate_ir_with_stats, orient_symmetric_gates, AggregateOptions,
    AggregatedProgram, CommIr, Item,
};
use autocomm_repro::partition::{oee_partition, InteractionGraph};
use autocomm_repro::workloads::{
    generate, random_distributed_circuit, smoke_suite, BenchConfig, Workload,
};

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
            Item::Block(k) => {
                let b = program.block(*k);
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
    let oriented = orient_symmetric_gates(circuit, &partition);
    let unrolled = unroll_circuit(&oriented).unwrap();
    aggregate_ir(CommIr::build_shared(&unrolled, &partition), AggregateOptions::default())
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
            let options = AggregateOptions { defer_limit };
            let got = pin(&aggregate(&circuit, &partition, options));
            assert_eq!(
                got, want,
                "{qubits}q+{cbits}c seed {seed} defer {defer_limit} drifted from the golden walk"
            );
        }
    }
}

/// Aggregates `circuit` (already unrolled) at `defer_limit`, checks the
/// streaming filter's working set against its wire bound, and pins the
/// result.
fn pin_checking_working_set(circuit: &Circuit, partition: &Partition, defer_limit: usize) -> Pin {
    let ir = CommIr::build_shared(circuit, partition);
    let (program, stats) = aggregate_ir_with_stats(ir, AggregateOptions { defer_limit });
    assert!(
        stats.peak_tracked_entries <= stats.tracked_entry_bound,
        "working set {} exceeded its wire bound {}",
        stats.peak_tracked_entries,
        stats.tracked_entry_bound
    );
    pin(&program)
}

#[test]
fn smoke_suite_block_partitions_match_the_golden_walk() {
    // (label, nodes, defer limit, pin): every smoke-suite program under a
    // block partition over 2, 3, 4, 5 and 8 nodes, at defer limits 0, 2
    // and 64.
    let cases: [(&str, usize, usize, Pin); 90] = [
        ("MCTR-16-4", 2, 0, (26, 156, 4500104295922282991)),
        ("MCTR-16-4", 2, 2, (26, 156, 1078189957831520143)),
        ("MCTR-16-4", 2, 64, (26, 156, 3305975206384348221)),
        ("MCTR-16-4", 3, 0, (40, 174, 1682256006392364135)),
        ("MCTR-16-4", 3, 2, (40, 174, 6716841024318503241)),
        ("MCTR-16-4", 3, 64, (40, 174, 5025466550175019275)),
        ("MCTR-16-4", 4, 0, (48, 192, 3070482652269492005)),
        ("MCTR-16-4", 4, 2, (48, 192, 14907097901196299653)),
        ("MCTR-16-4", 4, 64, (48, 192, 6173181696306543591)),
        ("MCTR-16-4", 5, 0, (48, 192, 3070482652269492005)),
        ("MCTR-16-4", 5, 2, (48, 192, 14907097901196299653)),
        ("MCTR-16-4", 5, 64, (48, 192, 6173181696306543591)),
        ("MCTR-16-4", 8, 0, (80, 248, 14325829035353139635)),
        ("MCTR-16-4", 8, 2, (80, 248, 17075236700832130687)),
        ("MCTR-16-4", 8, 64, (80, 248, 14641433396972798867)),
        ("RCA-16-4", 2, 0, (6, 133, 16542383185216036875)),
        ("RCA-16-4", 2, 2, (6, 133, 6913605258744933345)),
        ("RCA-16-4", 2, 64, (6, 133, 3115442200791998169)),
        ("RCA-16-4", 3, 0, (14, 164, 13975194520243054699)),
        ("RCA-16-4", 3, 2, (14, 164, 7049693141098707601)),
        ("RCA-16-4", 3, 64, (14, 164, 10816180663609794749)),
        ("RCA-16-4", 4, 0, (22, 131, 6020271178685689046)),
        ("RCA-16-4", 4, 2, (22, 131, 3540584493547840948)),
        ("RCA-16-4", 4, 64, (22, 131, 12229352342964713688)),
        ("RCA-16-4", 5, 0, (22, 131, 6020271178685689046)),
        ("RCA-16-4", 5, 2, (22, 131, 3540584493547840948)),
        ("RCA-16-4", 5, 64, (22, 131, 12229352342964713688)),
        ("RCA-16-4", 8, 0, (84, 187, 1889236493286349310)),
        ("RCA-16-4", 8, 2, (84, 187, 4281076432265659926)),
        ("RCA-16-4", 8, 64, (84, 187, 2698722871347715232)),
        ("QFT-16-4", 2, 0, (15, 389, 5886478106443338680)),
        ("QFT-16-4", 2, 2, (15, 389, 5886478106443338680)),
        ("QFT-16-4", 2, 64, (15, 389, 1968487672419662270)),
        ("QFT-16-4", 3, 0, (44, 368, 12652005912897630701)),
        ("QFT-16-4", 3, 2, (44, 368, 12652005912897630701)),
        ("QFT-16-4", 3, 64, (28, 338, 6291623508133463527)),
        ("QFT-16-4", 4, 0, (55, 340, 7382135742884571862)),
        ("QFT-16-4", 4, 2, (55, 340, 7382135742884571862)),
        ("QFT-16-4", 4, 64, (43, 316, 16160340257186690046)),
        ("QFT-16-4", 5, 0, (55, 340, 7382135742884571862)),
        ("QFT-16-4", 5, 2, (55, 340, 7382135742884571862)),
        ("QFT-16-4", 5, 64, (43, 316, 16160340257186690046)),
        ("QFT-16-4", 8, 0, (93, 350, 564782464592890739)),
        ("QFT-16-4", 8, 2, (93, 350, 564782464592890739)),
        ("QFT-16-4", 8, 64, (75, 314, 1407157231584064732)),
        ("BV-16-4", 2, 0, (1, 37, 982489924086145585)),
        ("BV-16-4", 2, 2, (1, 37, 982489924086145585)),
        ("BV-16-4", 2, 64, (1, 37, 982489924086145585)),
        ("BV-16-4", 3, 0, (2, 37, 16975920063152966945)),
        ("BV-16-4", 3, 2, (2, 37, 16975920063152966945)),
        ("BV-16-4", 3, 64, (2, 37, 16975920063152966945)),
        ("BV-16-4", 4, 0, (3, 37, 9321794552603517234)),
        ("BV-16-4", 4, 2, (3, 37, 9321794552603517234)),
        ("BV-16-4", 4, 64, (3, 37, 9321794552603517234)),
        ("BV-16-4", 5, 0, (3, 37, 9321794552603517234)),
        ("BV-16-4", 5, 2, (3, 37, 9321794552603517234)),
        ("BV-16-4", 5, 64, (3, 37, 9321794552603517234)),
        ("BV-16-4", 8, 0, (7, 39, 10387171087104745152)),
        ("BV-16-4", 8, 2, (7, 39, 10387171087104745152)),
        ("BV-16-4", 8, 64, (7, 39, 10387171087104745152)),
        ("QAOA-16-4", 2, 0, (22, 129, 16600769259569153730)),
        ("QAOA-16-4", 2, 2, (22, 129, 17353142940061145836)),
        ("QAOA-16-4", 2, 64, (20, 124, 11027034549966952841)),
        ("QAOA-16-4", 3, 0, (37, 117, 9578092047290776122)),
        ("QAOA-16-4", 3, 2, (37, 117, 4484544887524705662)),
        ("QAOA-16-4", 3, 64, (35, 115, 9617027338783655042)),
        ("QAOA-16-4", 4, 0, (39, 107, 6737479219122272394)),
        ("QAOA-16-4", 4, 2, (39, 107, 8415629616733749568)),
        ("QAOA-16-4", 4, 64, (37, 108, 9031665407239302457)),
        ("QAOA-16-4", 5, 0, (39, 107, 6737479219122272394)),
        ("QAOA-16-4", 5, 2, (39, 107, 8415629616733749568)),
        ("QAOA-16-4", 5, 64, (37, 108, 9031665407239302457)),
        ("QAOA-16-4", 8, 0, (51, 98, 13983958861131542901)),
        ("QAOA-16-4", 8, 2, (51, 98, 13983958861131542901)),
        ("QAOA-16-4", 8, 64, (47, 94, 15479749631509648353)),
        ("UCCSD-8-4", 2, 0, (89, 1202, 7936107730394053418)),
        ("UCCSD-8-4", 2, 2, (89, 1202, 9137167587678053262)),
        ("UCCSD-8-4", 2, 64, (89, 1202, 15774161737104028752)),
        ("UCCSD-8-4", 3, 0, (197, 1179, 10769645047977139836)),
        ("UCCSD-8-4", 3, 2, (197, 1179, 9326372762815140590)),
        ("UCCSD-8-4", 3, 64, (197, 1179, 1617251993964472874)),
        ("UCCSD-8-4", 4, 0, (321, 1562, 5694165728471363030)),
        ("UCCSD-8-4", 4, 2, (321, 1562, 12950827415613530576)),
        ("UCCSD-8-4", 4, 64, (321, 1562, 4646194003823972422)),
        ("UCCSD-8-4", 5, 0, (321, 1562, 5694165728471363030)),
        ("UCCSD-8-4", 5, 2, (321, 1562, 12950827415613530576)),
        ("UCCSD-8-4", 5, 64, (321, 1562, 4646194003823972422)),
        ("UCCSD-8-4", 8, 0, (493, 1116, 2388971778291700473)),
        ("UCCSD-8-4", 8, 2, (493, 1116, 2388971778291700473)),
        ("UCCSD-8-4", 8, 64, (493, 1116, 11629565911091796827)),
    ];
    let suite = smoke_suite();
    assert_eq!(suite.len() * 15, cases.len(), "every suite program is pinned");
    for (label, nodes, defer_limit, expected) in cases {
        let config = suite.iter().find(|c| c.label() == label).unwrap();
        let circuit = generate(config);
        let unrolled = unroll_circuit(&circuit).unwrap();
        let partition = Partition::block(circuit.num_qubits(), nodes).unwrap();
        let got = pin_checking_working_set(&unrolled, &partition, defer_limit);
        assert_eq!(
            got, expected,
            "{label} x {nodes} nodes defer {defer_limit} drifted from the golden walk"
        );
    }
}

#[test]
fn small_random_programs_match_the_golden_walk() {
    // (seed, defer limit, pin) of random_distributed_circuit(6, 3, 90, seed)
    // under its own partition.
    let cases: [(u64, usize, Pin); 48] = [
        (0, 0, (35, 104, 9342291035575192694)),
        (0, 2, (35, 104, 452610983361330642)),
        (0, 64, (34, 105, 2191853355748107797)),
        (7, 0, (31, 105, 4847948059614457230)),
        (7, 2, (30, 104, 16408095781499060930)),
        (7, 64, (30, 104, 10927718821525845718)),
        (31, 0, (32, 129, 1157319306309537422)),
        (31, 2, (32, 129, 17896027386576631396)),
        (31, 64, (31, 127, 13822488058887376525)),
        (42, 0, (35, 128, 14131699736084837203)),
        (42, 2, (33, 124, 209495108108511501)),
        (42, 64, (33, 124, 5217908425246971791)),
        (63, 0, (32, 113, 15124015482228746373)),
        (63, 2, (32, 113, 14835077529694597507)),
        (63, 64, (29, 104, 17222751793361484604)),
        (99, 0, (32, 102, 9537957220621534206)),
        (99, 2, (32, 101, 12191724589852853052)),
        (99, 64, (30, 93, 964409233937140991)),
        (128, 0, (33, 128, 11037419892313528977)),
        (128, 2, (30, 122, 543279296279979661)),
        (128, 64, (30, 122, 5791364469446051767)),
        (173, 0, (31, 124, 17841485977501975049)),
        (173, 2, (31, 124, 6615362174697401122)),
        (173, 64, (31, 124, 18438537724995205196)),
        (211, 0, (44, 120, 7924462133499018068)),
        (211, 2, (45, 121, 6858150041531411858)),
        (211, 64, (42, 115, 14167625628036964054)),
        (256, 0, (32, 103, 2231025604650326486)),
        (256, 2, (31, 102, 1770535038044700620)),
        (256, 64, (31, 102, 12409258732396348398)),
        (301, 0, (30, 106, 13327771365997270099)),
        (301, 2, (28, 97, 7430775109884036997)),
        (301, 64, (28, 97, 12157740594489943817)),
        (337, 0, (37, 133, 9082430142262701223)),
        (337, 2, (37, 132, 9853917974389319935)),
        (337, 64, (37, 132, 6513508195249157923)),
        (389, 0, (28, 133, 8207539392851415802)),
        (389, 2, (28, 132, 12568884624711397582)),
        (389, 64, (25, 122, 5814055310754118594)),
        (420, 0, (36, 125, 7039050903415547566)),
        (420, 2, (35, 121, 15064150485620291490)),
        (420, 64, (34, 118, 16426214442991838468)),
        (457, 0, (35, 122, 1544138720904379982)),
        (457, 2, (35, 122, 5052284911592518592)),
        (457, 64, (36, 123, 15555643666011557050)),
        (499, 0, (35, 119, 9728596093455029531)),
        (499, 2, (34, 113, 15132077502995128517)),
        (499, 64, (34, 109, 7916151500822043416)),
    ];
    for (seed, defer_limit, expected) in cases {
        let (c, p) = random_distributed_circuit(6, 3, 90, seed);
        let got = pin_checking_working_set(&unroll_circuit(&c).unwrap(), &p, defer_limit);
        assert_eq!(got, expected, "seed {seed} defer {defer_limit} drifted from the golden walk");
    }
}

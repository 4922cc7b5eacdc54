//! Front-end flattening invariants: the streaming aggregation filter is
//! bit-identical to the materialized-DAG reference rail, and the chunked
//! parallel QASM parse is bit-identical to the sequential reference —
//! across the workload suite, seeded random programs, and adversarial
//! QASM shaped to straddle the parallel parser's chunk boundaries.
//!
//! Both claims rest on the same structure: the streaming conflict filter
//! only short-circuits commutation checks that would provably fail (any
//! sound under-approximation of the conflict relation yields the same
//! aggregation output), and the chunked parser feeds per-line parse
//! results through one shared assembler in input order (so statements,
//! errors, and error *precedence* are position-exact).

use autocomm_repro::circuit::{
    from_qasm, from_qasm_sequential, to_qasm, unroll_circuit, unroll_circuit_sequential, Partition,
    PAR_THRESHOLD,
};
use autocomm_repro::core::{
    aggregate, aggregate_ir_with_stats, orient_symmetric_gates, orient_symmetric_gates_sequential,
    AggregateOptions, CommIr,
};
use autocomm_repro::workloads::{self as wl, random_distributed_circuit};
use proptest::prelude::*;
use std::sync::Arc;

/// Node counts standing in for five machine shapes; block partitions over
/// them give aggregation five distinct remote structures per program.
const NODE_COUNTS: [usize; 5] = [2, 3, 4, 5, 8];

/// Defer-limit corners: sealed-immediately, tiny window, default.
const DEFER_LIMITS: [usize; 3] = [0, 2, 64];

/// The streaming filter must match the materialized-DAG rail on every
/// suite program × partition shape × aggregation option, leaving the DAG
/// un-materialized and its working set wire-bounded.
#[test]
fn streaming_aggregation_matches_materialized_rail_on_suite() {
    for config in wl::smoke_suite() {
        let circuit = wl::generate(&config);
        let unrolled = unroll_circuit(&circuit).unwrap();
        for nodes in NODE_COUNTS {
            if circuit.num_qubits() < nodes {
                continue;
            }
            let partition = Partition::block(circuit.num_qubits(), nodes).unwrap();
            for defer_limit in DEFER_LIMITS {
                let streaming = AggregateOptions { defer_limit, materialized_dag: false };
                let materialized = AggregateOptions { defer_limit, materialized_dag: true };
                let ir = Arc::new(CommIr::build(&unrolled, &partition));
                let (a, stats) = aggregate_ir_with_stats(Arc::clone(&ir), streaming);
                let b = aggregate(&unrolled, &partition, materialized);
                assert_eq!(
                    a,
                    b,
                    "rails diverged on {} x {nodes} nodes x defer {defer_limit}",
                    config.label()
                );
                assert!(
                    stats.peak_tracked_entries <= stats.tracked_entry_bound,
                    "working set exceeded its wire bound on {}",
                    config.label()
                );
                assert_eq!(
                    ir.dag_edges_if_built(),
                    None,
                    "streaming aggregation forced the DAG on {}",
                    config.label()
                );
            }
        }
    }
}

/// An adversarial QASM program bigger than the parallel threshold: block
/// comments, blank lines, inline comments, multi-statement lines, and
/// conditioned gates land on arbitrary chunk boundaries.
fn adversarial_qasm(lines: usize) -> String {
    let mut text = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[6];\ncreg c[2];\n");
    for i in 0..lines {
        match i % 7 {
            0 => text.push_str("// chunk-boundary comment\n"),
            1 => text.push('\n'),
            2 => text.push_str(&format!("h q[{}];\n", i % 6)),
            3 => text.push_str(&format!(
                "h q[{}]; cx q[{}],q[{}]; t q[1];\n",
                i % 6,
                i % 6,
                (i + 1) % 6
            )),
            4 => text.push_str(&format!(
                "rz({}) q[{}]; // trailing comment\n",
                (i % 31) as f64 / 10.0,
                i % 6
            )),
            5 => text.push_str("measure q[0] -> c[0];\n"),
            _ => text.push_str("if (c[0] == 1) x q[3];\n"),
        }
    }
    text
}

/// The chunked parser must agree with the sequential rail on adversarial
/// input spanning many chunk boundaries.
#[test]
fn chunked_parse_matches_sequential_on_adversarial_qasm() {
    let text = adversarial_qasm(2 * PAR_THRESHOLD + 13);
    let parallel = from_qasm(&text).unwrap();
    let sequential = from_qasm_sequential(&text).unwrap();
    assert_eq!(parallel, sequential);
}

/// Both parse rails must report the *same first error in input order*,
/// even when later chunks contain earlier-detectable errors.
#[test]
fn chunked_parse_matches_sequential_on_errors() {
    for (label, mutate) in [
        ("missing semicolon", "h q[0]\n"),
        ("unsupported gate", "frobnicate q[0];\n"),
        ("bad register", "qreg r[4];\n"),
        ("garbage", "%%%;\n"),
        ("non-finite parameter", "rz(inf) q[0];\n"),
        ("oversized qreg", "qreg q[3000000000];\n"),
        ("oversized creg", "creg c[3000000000];\n"),
    ] {
        let mut text = adversarial_qasm(PAR_THRESHOLD);
        // Inject the fault mid-program, then append a *different*,
        // per-line-detectable fault near the end — the reported error must
        // be the first by input position even though a later chunk's
        // worker sees its own error "first" in wall-clock time.
        text.push_str(mutate);
        for i in 0..256 {
            text.push_str(&format!("h q[{}];\n", i % 6));
        }
        text.push_str("x q[0]\n");
        let parallel = from_qasm(&text);
        let sequential = from_qasm_sequential(&text);
        assert_eq!(parallel, sequential, "rails disagreed on {label}");
        assert!(parallel.is_err(), "{label} should not parse");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streaming == materialized aggregation on seeded random programs.
    #[test]
    fn streaming_aggregation_matches_materialized_rail_random(
        seed in 0u64..500,
        defer_idx in 0usize..DEFER_LIMITS.len(),
    ) {
        let defer_limit = DEFER_LIMITS[defer_idx];
        let (c, p) = random_distributed_circuit(6, 3, 90, seed);
        let unrolled = unroll_circuit(&c).unwrap();
        let streaming = AggregateOptions { defer_limit, materialized_dag: false };
        let materialized = AggregateOptions { defer_limit, materialized_dag: true };
        prop_assert_eq!(
            aggregate(&unrolled, &p, streaming),
            aggregate(&unrolled, &p, materialized)
        );
    }

    /// Chunked == sequential parse on generated programs large enough to
    /// take the parallel path, and the round trip is exact.
    #[test]
    fn chunked_parse_matches_sequential_random(seed in 0u64..40) {
        let (c, _) = random_distributed_circuit(16, 4, PAR_THRESHOLD + 512, seed);
        let text = to_qasm(&c);
        let parallel = from_qasm(&text).unwrap();
        let sequential = from_qasm_sequential(&text).unwrap();
        prop_assert_eq!(&parallel, &sequential);
        prop_assert_eq!(&parallel, &c);
    }

    /// The fanned unroll and orient paths match their sequential rails on
    /// circuits large enough to take the parallel path.
    #[test]
    fn fanned_unroll_and_orient_match_sequential_random(seed in 0u64..20) {
        let (c, p) = random_distributed_circuit(16, 4, PAR_THRESHOLD + 512, seed);
        prop_assert_eq!(
            unroll_circuit(&c).unwrap(),
            unroll_circuit_sequential(&c).unwrap()
        );
        prop_assert_eq!(
            orient_symmetric_gates(&c, &p),
            orient_symmetric_gates_sequential(&c, &p)
        );
    }
}

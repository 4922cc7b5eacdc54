//! Front-end flattening invariants: the streaming aggregation filter is
//! bit-identical to the materialized-DAG reference rail across the
//! workload suite and seeded random programs.
//!
//! The claim rests on the streaming conflict filter only short-circuiting
//! commutation checks that would provably fail: any sound
//! under-approximation of the conflict relation yields the same
//! aggregation output. (The chunked QASM parse and the fanned
//! unroll/orient passes are checked against per-item oracles in the
//! unit tests of `dqc-circuit` and `autocomm`.)

use autocomm_repro::circuit::{unroll_circuit, Partition};
use autocomm_repro::core::{aggregate, aggregate_ir_with_stats, AggregateOptions, CommIr};
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
}

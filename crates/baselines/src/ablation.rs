//! Single-knob AutoComm ablations (paper Fig. 17a–c).
//!
//! Each entry point is a *pipeline configuration* — [`Ablation`] applied
//! to the full option set, compiled through the same pass manager as the
//! real compiler — so measured deltas isolate exactly one component and
//! there is no parallel pipeline code to drift.

use autocomm::{Ablation, AutoComm, CompileError, CompileResult};
use dqc_circuit::{Circuit, Partition};

/// Compiles with one [`Ablation`] applied to the full optimization set.
///
/// # Errors
///
/// See [`AutoComm::compile`].
pub fn compile_ablated(
    ablation: Ablation,
    circuit: &Circuit,
    partition: &Partition,
) -> Result<CompileResult, CompileError> {
    AutoComm::with_ablations(&[ablation]).compile(circuit, partition)
}

/// Fig. 17(a): aggregation without commutation rules — every remote gate
/// becomes a singleton block.
///
/// # Errors
///
/// See [`AutoComm::compile`].
pub fn compile_no_commute(
    circuit: &Circuit,
    partition: &Partition,
) -> Result<CompileResult, CompileError> {
    compile_ablated(Ablation::NoCommute, circuit, partition)
}

/// Fig. 17(b): Cat-Comm-only assignment (one EPR pair per single-call
/// segment; no TP fallback), extending the Diadamo-style VQE compiler.
///
/// # Errors
///
/// See [`AutoComm::compile`].
pub fn compile_cat_only(
    circuit: &Circuit,
    partition: &Partition,
) -> Result<CompileResult, CompileError> {
    compile_ablated(Ablation::CatOnly, circuit, partition)
}

/// Fig. 17(c): plain as-soon-as-possible block scheduling — no EPR
/// prefetching, no commutable-block parallelism, no TP fusion.
///
/// # Errors
///
/// See [`AutoComm::compile`].
pub fn compile_plain_greedy(
    circuit: &Circuit,
    partition: &Partition,
) -> Result<CompileResult, CompileError> {
    compile_ablated(Ablation::PlainGreedy, circuit, partition)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_degrade_monotonically_on_qft() {
        let c = dqc_workloads::qft(10);
        let p = Partition::block(10, 2).unwrap();
        let full = AutoComm::new().compile(&c, &p).unwrap();
        let a = compile_no_commute(&c, &p).unwrap();
        let b = compile_cat_only(&c, &p).unwrap();
        let s = compile_plain_greedy(&c, &p).unwrap();

        assert!(a.metrics.total_comms > full.metrics.total_comms);
        assert!(b.metrics.total_comms > full.metrics.total_comms);
        assert!(s.schedule.makespan > full.schedule.makespan);
        // Comm counts are unchanged by the scheduling knob.
        assert_eq!(s.metrics.total_comms, full.metrics.total_comms);
    }

    #[test]
    fn ablation_results_share_the_indexed_ir_shape() {
        // Non-circuit-rewriting ablations compile over the same `CommIr`
        // contents (same unrolled stream and table) — the
        // Fig. 17 deltas are pure pass behavior, not IR differences.
        let c = dqc_workloads::qft(10);
        let p = Partition::block(10, 2).unwrap();
        let full = AutoComm::new().compile(&c, &p).unwrap();
        for r in [
            compile_no_commute(&c, &p).unwrap(),
            compile_cat_only(&c, &p).unwrap(),
            compile_plain_greedy(&c, &p).unwrap(),
        ] {
            assert_eq!(r.ir.len(), full.ir.len());
            assert_eq!(r.ir.unique_gates(), full.ir.unique_gates());
            assert!((0..r.ir.len()).all(|i| r.ir.gate_at(i) == full.ir.gate_at(i)));
            assert_eq!(r.ir.ranked_pairs(), full.ir.ranked_pairs());
        }
    }

    #[test]
    fn no_commute_equals_remote_cx_count() {
        // Singleton blocks: Tot Comm = # REM CX (the sparse baseline).
        let c = dqc_workloads::bv(12);
        let p = Partition::block(12, 3).unwrap();
        let r = compile_no_commute(&c, &p).unwrap();
        assert_eq!(r.metrics.total_comms, r.metrics.total_rem_cx);
    }
}

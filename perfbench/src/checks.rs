//! Output checks the harness runs on what the compiler returns. Each check
//! recomputes its expectation independently of the code path under test.

use autocomm::lower_assigned_on;
use dqc_circuit::{Circuit, Partition};
use dqc_cli::{compile, CompileArgs, CompileReport};
use dqc_sim::{circuits_equivalent, Complex, SplitMix64, StateVector};

use crate::workloads::JobLine;

/// `autocomm compile` arguments for a manifest row (JSON output on).
///
/// # Errors
///
/// A usage message when the manifest flags do not parse.
pub fn compile_args(job: &JobLine) -> Result<CompileArgs, String> {
    let argv = std::iter::once(job.path.clone())
        .chain(job.flags.iter().cloned())
        .chain(["--json".to_string()]);
    CompileArgs::parse(argv).map_err(|e| format!("{}: {e}", job.label))
}

/// Remote two-qubit gates of `circuit` under `partition`, counted here
/// rather than taken from the compiler's own statistics.
pub fn remote_cx(circuit: &Circuit, partition: &Partition) -> usize {
    circuit
        .gates()
        .iter()
        .filter(|g| {
            let qs = g.qubits();
            g.is_two_qubit_unitary() && partition.node_of(qs[0]) != partition.node_of(qs[1])
        })
        .count()
}

/// The per-compile check: burst aggregation can only merge remote CXs, so
/// the communication count never exceeds the remote CXs the harness counts
/// in the unrolled circuit under the final partition.
pub fn check_report(label: &str, report: &CompileReport) -> Result<(), String> {
    let remote = remote_cx(&report.result.unrolled, &report.partition);
    let comms = report.result.metrics.total_comms;
    if comms > remote {
        return Err(format!("{label}: {comms} comms exceed {remote} remote CX"));
    }
    Ok(())
}

/// Compiles a small instance, lowers it to protocol-level gates, and checks
/// both the aggregated program (unitary equality with the unrolled input)
/// and the lowered program (state-vector fidelity 1 on the logical qubits
/// from a random input; the lowered circuit measures and conditions, so it
/// has no unitary to compare).
pub fn check_small_instance(job: &JobLine) -> Result<(), String> {
    let report = compile(compile_args(job)?).map_err(|e| format!("{}: {e}", job.label))?;
    check_report(&job.label, &report)?;
    let result = &report.result;
    let fail = |what: &str| format!("{}: {what}", job.label);
    let flat = result.aggregated.to_circuit();
    if !circuits_equivalent(&result.unrolled, &flat, 1e-8).map_err(|e| fail(&e.to_string()))? {
        return Err(fail("aggregated program differs from the unrolled input"));
    }
    let physical =
        lower_assigned_on(&result.assigned, &result.placement, report.hardware.topology())
            .map_err(|e| fail(&e.to_string()))?;
    let mut rng = SplitMix64::new(0x5EED);
    let n = result.unrolled.num_qubits();
    let input = StateVector::random_state(n, &mut rng).map_err(|e| fail(&e.to_string()))?;
    let mut expected = input.clone();
    expected.run(&result.unrolled, &mut rng.fork()).map_err(|e| fail(&e.to_string()))?;
    let mut amps = vec![Complex::ZERO; 1 << physical.circuit.num_qubits()];
    amps[..input.amplitudes().len()].copy_from_slice(input.amplitudes());
    let mut state = StateVector::from_amplitudes(amps).map_err(|e| fail(&e.to_string()))?;
    state.run(&physical.circuit, &mut rng).map_err(|e| fail(&e.to_string()))?;
    let fidelity = state
        .subset_fidelity(&expected, &physical.logical_qubits())
        .map_err(|e| fail(&e.to_string()))?;
    if (fidelity - 1.0).abs() > 1e-8 {
        return Err(fail(&format!("lowered program fidelity {fidelity}")));
    }
    Ok(())
}

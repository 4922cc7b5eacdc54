//! Benchmark circuit generators for the AutoComm evaluation (paper Table 2).
//!
//! Two families, mirroring the paper:
//!
//! * **Building blocks** — [`mctr`] (multi-controlled X), [`rca`] (Cuccaro
//!   ripple-carry adder), [`qft`] (quantum Fourier transform);
//! * **Applications** — [`bv`] (Bernstein–Vazirani), [`qaoa_maxcut`]
//!   (QAOA for max-cut on random graphs), [`uccsd`] (unitary
//!   coupled-cluster ansatz with Jordan–Wigner Pauli ladders).
//!
//! Generators emit high-level gates (`Ccx`, `Mcx`, `Cp`, `Rzz`, …); the
//! compiler's gate-unrolling stage lowers them to the `CX + U3` basis in
//! which the paper counts remote CXs. Absolute gate counts differ from the
//! paper's tables by small decomposition constants (documented in
//! `docs/paper.md`); the communication *structure* — which qubit pairs
//! interact, in which order — follows the published constructions.
//!
//! [`table2_configs`] enumerates the exact 18 (workload, #qubit, #node)
//! rows of paper Table 2 for the benchmark harness, and [`random_circuit`]
//! supplies inputs for property-based testing.
//!
//! ```
//! use dqc_workloads::qft;
//! let c = qft(4);
//! // 4 H + 6 CP + 2 SWAP
//! assert_eq!(c.len(), 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apps;
mod blocks;
mod random;
mod suite;

pub use apps::{bv, bv_with_secret, qaoa_maxcut, qpe, uccsd};
pub use blocks::{ghz, mctr, node_ring_exchange, qft, qft_inverse, rca};
pub use random::{large_sparse_circuit, random_circuit, random_distributed_circuit};
pub use suite::{generate, smoke_suite, table2_configs, BenchConfig, Workload};

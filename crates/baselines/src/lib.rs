//! Baseline DQC compilers.
//!
//! The paper evaluates AutoComm against:
//!
//! * **the Ferrari-style baseline** ([`compile_ferrari`]) — one Cat-Comm
//!   invocation per remote CX (“sparse communication”), scheduled as soon
//!   as possible; its communication count is exactly the program's remote
//!   CX count and it anchors Table 3's improv. / LAT-DEC factors;
//! * **GP-TP** ([`compile_gp_tp`]) — the graph-partition-style compiler of
//!   Baker et al. with TP-Comm qubit relocation: every remote gate is made
//!   local by teleport-swapping one operand into the peer node (two EPR
//!   pairs per relocation), Fig. 16's comparator.
//!
//! The single-knob ablations of Fig. 17(a)–(c) (aggregation without
//! commutation, Cat-Comm-only assignment, plain-greedy scheduling) are not
//! separate compilers: they are `autocomm::AutoComm::with_ablations`
//! configurations of the one compile.
//!
//! ```
//! use dqc_baselines::compile_ferrari;
//! use dqc_circuit::{Circuit, Gate, Partition, QubitId};
//! use dqc_hardware::HardwareSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let q = |i| QubitId::new(i);
//! let mut c = Circuit::new(4);
//! c.push(Gate::cx(q(0), q(2)))?;
//! c.push(Gate::cx(q(0), q(3)))?;
//! let p = Partition::block(4, 2)?;
//! let r = compile_ferrari(&c, &p, &HardwareSpec::for_partition(&p))?;
//! assert_eq!(r.total_comms, 2); // one EPR pair per remote CX
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ferrari;
mod gp_tp;
mod result;

pub use ferrari::compile_ferrari;
pub use gp_tp::compile_gp_tp;
pub use result::BaselineResult;

//! Quantum circuit intermediate representation for the QKC toolchain.
//!
//! This crate plays the role Google Cirq plays in the paper's artifact: it
//! defines circuits over qubits with unitary gates ([`Gate`]), canonical
//! noise mixtures and channels ([`NoiseChannel`], paper Table 1), classical
//! reversible permutation oracles ([`PermutationOp`]), measurements, and
//! symbolic parameters ([`Param`]) that are re-bound across variational
//! iterations without rebuilding the circuit.
//!
//! The [`reference`](mod@reference) module is a deliberately naive
//! simulator used as the correctness oracle for every optimized backend in
//! the workspace.
//!
//! # Examples
//!
//! ```
//! use qkc_circuit::{Circuit, Param, ParamMap, reference};
//!
//! // A parameterized circuit, evaluated at two different angles.
//! let mut c = Circuit::new(1);
//! c.rx(0, Param::symbol("theta"));
//! for theta in [0.3, 1.2] {
//!     let params = ParamMap::from_pairs([("theta", theta)]);
//!     let state = reference::run_pure(&c, &params).unwrap();
//!     let p1 = state[1].norm_sqr();
//!     assert!((p1 - (theta / 2.0).sin().powi(2)).abs() < 1e-12);
//! }
//! ```

#![forbid(unsafe_code)]

mod circuit;
mod decompose;
mod gate;
mod hash;
mod noise;
mod op;
mod param;
pub mod reference;

pub use circuit::{Circuit, CircuitError};
pub use decompose::GateSet;
pub use gate::{Gate, GateLayout};
pub use noise::NoiseChannel;
pub use op::{DiagonalOp, InvalidPermutation, Operation, PermutationOp};
pub use param::{Param, ParamMap, UnboundParam};

//! `qkc-engine` — the single entry point for running QKC workloads at
//! scale.
//!
//! The paper's core economic argument is *compile once, bind many*: the
//! knowledge-compilation pipeline amortizes one expensive structural
//! compilation across thousands of cheap per-iteration parameter bindings
//! in a variational loop. This crate turns that argument into
//! infrastructure:
//!
//! * [`Backend`] — one trait over all four simulator families
//!   (knowledge compilation, state vector, density matrix, tensor
//!   network), with uniform probability / sampling / expectation queries
//!   and per-backend [`Capabilities`];
//! * [`ArtifactCache`] — compiled [`KcSimulator`](qkc_core::KcSimulator)
//!   artifacts keyed by the circuit's
//!   [structural hash](qkc_circuit::Circuit::structural_hash), so a whole
//!   VQE/QAOA sweep compiles exactly once;
//! * [`SweepExecutor`] — fans a batch of [`ParamMap`](qkc_circuit::ParamMap)s
//!   out across worker threads and, within each worker, through the
//!   backend's batched evaluation path ([`Backend::expectation_batch`]):
//!   the KC backend binds lanes of `k` points at once and amortizes one
//!   arithmetic-circuit traversal over all of them. Per-point
//!   deterministic seeding and bit-for-bit batched kernels keep results
//!   identical for any thread count and any batch width;
//! * [`Planner`] — picks a backend from circuit statistics (qubit count,
//!   noise events, a treewidth proxy) with a user override;
//! * [`Engine`] — the facade tying the four together, plus a batched
//!   variational driver ([`minimize_variational`]).
//!
//! # Examples
//!
//! ```
//! use qkc_circuit::{Circuit, Param, ParamMap};
//! use qkc_engine::{Engine, SweepSpec};
//!
//! let mut c = Circuit::new(2);
//! c.rx(0, Param::symbol("theta")).cnot(0, 1);
//!
//! let engine = Engine::new();
//! let sweep: Vec<ParamMap> = [0.3, 1.1, 2.9]
//!     .iter()
//!     .map(|&t| ParamMap::from_pairs([("theta", t)]))
//!     .collect();
//! // One compile, three bindings; <obs> under P(outputs).
//! let obs = |bits: usize| bits as f64;
//! let points = engine
//!     .sweep(&c, &sweep, &SweepSpec::expectation(&obs))
//!     .unwrap();
//! assert_eq!(points.len(), 3);
//! assert_eq!(engine.cache().misses(), 1);
//! ```

#![forbid(unsafe_code)]

mod backend;
mod budget;
mod cache;
mod facade;
pub mod faults;
mod gradient;
mod planner;
mod stats;
mod sweep;
mod variational;

pub use backend::{
    Backend, BackendKind, Capabilities, DensityMatrixBackend, EngineError, KcBackend,
    StateVectorBackend, TensorNetworkBackend,
};
pub use budget::QueryBudget;
pub use cache::{ArtifactCache, CacheOptions};
pub use facade::{Engine, EngineOptions};
pub use faults::{FaultPlan, FaultSite};
pub use gradient::{GradientMethod, GradientPoint, GradientResult, GradientSpec, FD_STEP};
pub use planner::{Candidate, KcCalibration, Plan, PlanExplanation, PlanHint, Planner};
pub use qkc_core::{
    record_verify_telemetry, Finding, Severity, VerifyLevel, VerifyPass, VerifyReport,
};
pub use stats::{CacheStats, CircuitStats};
pub use sweep::{SweepExecutor, SweepFailure, SweepPoint, SweepReport, SweepSpec, DEFAULT_BATCH};
pub use variational::{
    minimize_variational, minimize_variational_gradient, minimize_variational_terms,
    GradientOptimizer, VariationalConfig, VariationalGradientConfig, VariationalResult,
    VariationalTerm,
};

/// The instrumentation subsystem ([`qkc_telemetry`]), re-exported so
/// engine users can enable/snapshot telemetry without naming the crate.
pub use qkc_telemetry as telemetry;

/// SplitMix64 — the engine's standard way to derive independent child seeds
/// from a base seed and an index. Deterministic, and used everywhere a
/// sweep point or shot stream needs its own generator, so results never
/// depend on thread count or execution order.
pub(crate) fn mix_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

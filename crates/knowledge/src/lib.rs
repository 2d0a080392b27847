//! Knowledge compilation for quantum circuit simulation — stage 3 of the
//! paper's toolchain (Figure 4, §3.2.2–3.3).
//!
//! A CNF encoding of a noisy quantum circuit is compiled once into a
//! deterministic decomposable circuit ([`Nnf`]) by an exhaustive-DPLL
//! compiler with unit propagation, component decomposition, and component
//! caching ([`compile`]); post-processed by internal-state elision
//! ([`project_out`]) and query-variable smoothing ([`smooth`]); and then
//! evaluated repeatedly as an *arithmetic circuit*: upward for amplitudes
//! ([`evaluate()`]), upward+downward for all single-flip amplitudes at once
//! ([`evaluate_with_differentials`]), which drives the [`GibbsSampler`].
//! Parameter sweeps amortize the traversal itself: [`evaluate_batch`]
//! decodes each node once and updates `k` weight lanes ([`AcWeightsBatch`])
//! held in lane-blocked split-plane layout ([`lanes`]), bit-for-bit equal
//! to `k` scalar evaluations.
//!
//! Production queries run on the flat execution form: [`AcTape`] lowers the
//! enum arena once into a topologically-ordered instruction stream with CSR
//! child storage, and [`TapeEvaluator`] runs every kernel (scalar, batched,
//! differential, model sampling) over persistent buffers — zero allocations
//! per query after warmup, bit-for-bit identical to the enum-walk kernels,
//! which remain as the reference implementation.
//!
//! # Examples
//!
//! ```
//! use qkc_cnf::Cnf;
//! use qkc_knowledge::{compile, evaluate, smooth, AcWeights, CompileOptions};
//! use qkc_math::Complex;
//!
//! // WMC of (v1 ∨ v2) with w(+v1) = 0.25, w(+v2) = 0.5:
//! let mut f = Cnf::new(2);
//! f.add_clause(vec![1, 2]);
//! let compiled = compile(&f, &CompileOptions::default());
//! let nnf = smooth(&compiled.nnf, &[vec![1, -1], vec![2, -2]]);
//! let mut w = AcWeights::uniform(2);
//! w.set(1, Complex::real(0.25), Complex::real(1.0));
//! w.set(2, Complex::real(0.5), Complex::real(1.0));
//! // models: (T,T) .125 + (T,F) .25 + (F,T) .5 = 0.875
//! assert!((evaluate(&nnf, &w).re - 0.875).abs() < 1e-12);
//! ```

mod batch;
mod compiler;
mod evaluate;
mod fxhash;
mod gibbs;
pub mod lanes;
mod nnf;
mod order;
mod tape;
mod transform;
mod verify;

pub use batch::{evaluate_batch, AcWeightsBatch};
pub use compiler::{compile, CompileOptions, CompileStats, Compiled};
pub use evaluate::{evaluate, evaluate_with_differentials, AcWeights, Differentials};
pub use gibbs::{DensityBound, GibbsCounts, GibbsOptions, GibbsSampler, QueryVar};
pub use lanes::{lane_width, LaneBlock, LANE_WIDTH};
pub use nnf::{Nnf, NnfBuilder, NnfId, NnfNode};
pub use order::{
    compute_ranks, compute_ranks_balanced, VarOrder, DEFAULT_SEPARATOR_BALANCE,
    RACE_SEPARATOR_BALANCE,
};
pub use tape::{
    fnv1a as wire_checksum, AcTape, DiffCone, TangentPlan, TapeDecodeError, TapeDifferentials,
    TapeEvaluator, TapeId, TapeOp, TapeOpKind, WIRE_VERSION as TAPE_WIRE_VERSION,
};
pub use transform::{project_out, smooth};
pub use verify::{
    verify_tangent_plan, verify_tape, verify_tape_bytes, Finding, Severity, VerifyLevel,
    VerifyPass, VerifyReport,
};

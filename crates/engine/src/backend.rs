//! The unified backend interface and the four simulator adapters.

use crate::cache::ArtifactCache;
use crate::gradient::{self, GradientMethod, GradientResult, SymbolClass, SymbolRule};
use crate::mix_seed;
use qkc_circuit::{Circuit, CircuitError, NoiseChannel, Operation, ParamMap, UnboundParam};
use qkc_core::KcOptions;
use qkc_densitymatrix::DensityMatrixSimulator;
use qkc_knowledge::GibbsOptions;
use qkc_math::AliasTable;
use qkc_statevector::StateVectorSimulator;
use qkc_tensornet::{TensorNetwork, TensorNetworkSimulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// The four simulator families the engine can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Compiled arithmetic circuit ([`qkc_core::KcSimulator`]): compile
    /// once, re-bind parameters cheaply; exact for pure circuits and for
    /// noisy circuits with few random events; Gibbs sampling beyond.
    KnowledgeCompilation,
    /// Dense state vector: exact pure states up to ~25 qubits; noise as
    /// per-shot quantum trajectories.
    StateVector,
    /// Dense density matrix: exact mixed states up to ~12 qubits.
    DensityMatrix,
    /// Tensor-network contraction: pure circuits; cost set by treewidth,
    /// re-paid on every sample.
    TensorNetwork,
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BackendKind::KnowledgeCompilation => "knowledge-compilation",
            BackendKind::StateVector => "state-vector",
            BackendKind::DensityMatrix => "density-matrix",
            BackendKind::TensorNetwork => "tensor-network",
        };
        f.write_str(s)
    }
}

/// What a backend can answer, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Can produce exact output probabilities for noise-free circuits.
    pub exact_pure: bool,
    /// Can produce exact output probabilities for noisy circuits.
    pub exact_noisy: bool,
    /// Can draw measurement samples from noisy circuits.
    pub sample_noisy: bool,
    /// Amortizes compilation: parameter re-binding is much cheaper than the
    /// first run on a circuit structure.
    pub compile_once: bool,
}

/// Errors from engine queries.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The underlying circuit-level failure (unbound symbol, non-unitary
    /// circuit handed to a pure-state method, ...).
    Circuit(CircuitError),
    /// The selected backend cannot answer this query for this circuit.
    Unsupported {
        /// The backend that was asked.
        backend: BackendKind,
        /// What was asked of it.
        query: String,
    },
    /// A sweep worker panicked while evaluating its points. The panic is
    /// contained to the affected chunk: other workers' results are still
    /// computed and the process survives.
    WorkerPanicked {
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// An expectation was requested from a sample estimate, but the
    /// backend produced zero samples — there is no estimate, and reporting
    /// `0.0` would be silently wrong.
    NoSamples {
        /// The backend that produced no samples.
        backend: BackendKind,
    },
    /// A [`QueryBudget`](crate::QueryBudget) limit expired before the
    /// query finished. Raised cooperatively — at a compile-phase boundary,
    /// between sweep lanes, or while waiting on a cache resolution — so it
    /// fires within one checkpoint interval and never tears shared state.
    DeadlineExceeded {
        /// Which limit fired: `"deadline"` or `"compile_timeout"`.
        budget: &'static str,
        /// The configured limit, in seconds.
        limit_secs: f64,
    },
    /// [`EngineOptions`](crate::EngineOptions) that cannot be executed
    /// (zero threads, zero batch width) — rejected at construction so they
    /// never reach an executor.
    InvalidOptions {
        /// What is wrong with the options.
        detail: String,
    },
    /// The configured `CacheOptions::spill_dir` cannot be created or
    /// written. Raised eagerly at construction
    /// ([`ArtifactCache::try_with_options`]) instead of surprising the
    /// first spill.
    SpillDirUnavailable {
        /// The configured directory.
        path: String,
        /// The underlying I/O error.
        detail: String,
    },
    /// A binding the circuit cannot run under: a symbol the circuit uses
    /// bound to NaN or ±∞, or a noise probability outside `[0, 1]`.
    /// The engine checks every query's binding before any backend runs;
    /// in a sweep it fails only its own point.
    InvalidBinding {
        /// The symbol, or the channel when the probability is a constant.
        symbol: String,
        /// The rejected value.
        value: f64,
        /// What the value violates.
        reason: &'static str,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Circuit(e) => write!(f, "{e}"),
            EngineError::Unsupported { backend, query } => {
                write!(f, "backend {backend} does not support {query}")
            }
            EngineError::WorkerPanicked { detail } => {
                write!(f, "sweep worker panicked: {detail}")
            }
            EngineError::NoSamples { backend } => {
                write!(
                    f,
                    "backend {backend} returned zero samples for a sampled expectation estimate"
                )
            }
            EngineError::DeadlineExceeded { budget, limit_secs } => {
                write!(f, "query budget `{budget}` of {limit_secs}s exceeded")
            }
            EngineError::InvalidOptions { detail } => {
                write!(f, "invalid engine options: {detail}")
            }
            EngineError::SpillDirUnavailable { path, detail } => {
                write!(f, "spill directory `{path}` is unavailable: {detail}")
            }
            EngineError::InvalidBinding {
                symbol,
                value,
                reason,
            } => write!(f, "invalid binding `{symbol}` = {value}: {reason}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CircuitError> for EngineError {
    fn from(e: CircuitError) -> Self {
        EngineError::Circuit(e)
    }
}

/// Rejects a binding `circuit` cannot run under, before any backend sees
/// it: every value bound to a symbol the circuit uses must be finite, and
/// every noise probability, constant or bound, must resolve into
/// `[0, 1]` (an asymmetric depolarizing channel's three must also sum to
/// at most 1). Unbound symbols pass; the backends report them as
/// [`CircuitError::Unbound`].
///
/// # Errors
///
/// [`EngineError::InvalidBinding`] naming the first offending symbol (or
/// channel) and its value.
pub(crate) fn check_binding(circuit: &Circuit, params: &ParamMap) -> Result<(), EngineError> {
    let invalid = |symbol: String, value: f64, reason| EngineError::InvalidBinding {
        symbol,
        value,
        reason,
    };
    for op in circuit.operations() {
        for symbol in op.symbols() {
            if let Some(value) = params.get(symbol).filter(|v| !v.is_finite()) {
                return Err(invalid(symbol.to_owned(), value, "not a finite number"));
            }
        }
        let Operation::Noise { channel, .. } = op else {
            continue;
        };
        let mut sum = 0.0;
        for p in channel.params() {
            let Ok(value) = p.resolve(params) else {
                continue;
            };
            if !(0.0..=1.0).contains(&value) {
                let symbol = p
                    .symbol_name()
                    .map_or_else(|| channel.to_string(), str::to_owned);
                return Err(invalid(symbol, value, "noise probability outside [0, 1]"));
            }
            sum += value;
        }
        // The same tolerance `NoiseChannel::kraus` asserts.
        if matches!(channel, NoiseChannel::AsymmetricDepolarizing { .. }) && sum > 1.0 + 1e-12 {
            let reason = "asymmetric depolarizing probabilities sum past 1";
            return Err(invalid(channel.to_string(), sum, reason));
        }
    }
    Ok(())
}

/// A uniform interface over every simulator family.
///
/// All methods are deterministic: sampling queries take an explicit seed
/// and derive their generators from it, never from global state, so results
/// are reproducible and independent of scheduling.
pub trait Backend: Send + Sync {
    /// Which family this is.
    fn kind(&self) -> BackendKind;

    /// What this backend can do.
    fn capabilities(&self) -> Capabilities;

    /// The exact measurement distribution over the `2^n` output basis
    /// states.
    ///
    /// # Errors
    ///
    /// [`EngineError::Unsupported`] if this backend cannot compute exact
    /// probabilities for this circuit (e.g. noisy circuit on a pure-state
    /// backend), or a circuit-level error.
    fn probabilities(&self, circuit: &Circuit, params: &ParamMap) -> Result<Vec<f64>, EngineError>;

    /// Draws `shots` measurement outcomes, deterministically in `seed`.
    ///
    /// # Errors
    ///
    /// Circuit-level errors, or [`EngineError::Unsupported`] for circuit
    /// shapes the backend cannot sample.
    fn sample(
        &self,
        circuit: &Circuit,
        params: &ParamMap,
        shots: usize,
        seed: u64,
    ) -> Result<Vec<usize>, EngineError>;

    /// The exact expectation of a diagonal observable for a batch of
    /// bindings: `result[i]` equals the fold of
    /// `probabilities(circuit, &params[i])` against the observable
    /// **bit-for-bit** — batching is a throughput contract, never a
    /// numerics contract.
    ///
    /// The default folds each binding's [`Backend::probabilities`] in
    /// turn; compile-once backends override it to amortize the compiled
    /// artifact over the whole batch ([`KcBackend`] compiles once, binds
    /// every point as a lane of one batched bind and sweeps the basis
    /// once for all lanes through the flat tape's delta evaluator).
    ///
    /// # Errors
    ///
    /// The first point-level error in input order.
    fn expectation_batch(
        &self,
        circuit: &Circuit,
        params: &[ParamMap],
        observable: &(dyn Fn(usize) -> f64 + Sync),
    ) -> Result<Vec<f64>, EngineError> {
        params
            .iter()
            .map(|point| {
                Ok(self
                    .probabilities(circuit, point)?
                    .iter()
                    .enumerate()
                    .map(|(bits, &p)| p * observable(bits))
                    .sum())
            })
            .collect()
    }

    /// The expectation of a diagonal observable **and its gradient** with
    /// respect to the symbols in `wrt`, at the binding `params`.
    ///
    /// The default implementation evaluates central finite differences
    /// (`±`[`FD_STEP`](crate::FD_STEP) per symbol) through one
    /// [`Backend::expectation_batch`] call and flags the result
    /// [`GradientResult::exact`]` = false`. [`KcBackend`] overrides it
    /// with exact gradients on the cached artifact: the one-pass analytic
    /// path, or the parameter-shift rule when a `wrt` symbol sits in a
    /// noise channel (see [`KcBackend::with_force_shift`]).
    ///
    /// Symbols absent from the circuit get gradient component 0; symbols
    /// the circuit mentions must be bound in `params`.
    ///
    /// # Errors
    ///
    /// Unbound-symbol errors, or [`EngineError::Unsupported`] when the
    /// backend cannot produce the exact expectations the gradient is built
    /// from (gradient queries never fall back to sampling — shot noise
    /// would swamp a finite difference).
    fn expectation_gradient(
        &self,
        circuit: &Circuit,
        params: &ParamMap,
        observable: &(dyn Fn(usize) -> f64 + Sync),
        wrt: &[String],
    ) -> Result<GradientResult, EngineError> {
        // Central differences for every symbol, regardless of shift
        // structure: one batched exact evaluation, `exact: false`. Only
        // the absent/noise/gate classification is needed here — the exact
        // shift coefficients are never built.
        let scan_span = qkc_telemetry::span("gradient/scan");
        let rules: Vec<SymbolRule> = gradient::symbol_classes(circuit, wrt)
            .into_iter()
            .map(|class| match class {
                SymbolClass::Absent => SymbolRule::Absent,
                SymbolClass::Noise => SymbolRule::CentralDiffProbability,
                SymbolClass::Gates { .. } => SymbolRule::CentralDiff,
            })
            .collect();
        let (lanes, plans) = gradient::shifted_bindings(params, wrt, &rules)
            .map_err(|name| EngineError::Circuit(CircuitError::Unbound(UnboundParam::new(name))))?;
        drop(scan_span);
        let eval_span = qkc_telemetry::span("gradient/bind_eval");
        let values = self.expectation_batch(circuit, &lanes, observable)?;
        drop(eval_span);
        qkc_telemetry::count("gradient/queries", 1);
        qkc_telemetry::count("gradient/lanes", lanes.len() as u64);
        qkc_telemetry::count(GradientMethod::FiniteDifference.counter_path(), 1);
        let (value, gradient, _) = gradient::contract_gradient(&values, &plans);
        Ok(GradientResult {
            value,
            gradient,
            exact: false,
            evaluations: lanes.len(),
            method: GradientMethod::FiniteDifference,
        })
    }
}

// ---------------------------------------------------------------------------
// Knowledge compilation
// ---------------------------------------------------------------------------

/// The compiled-artifact backend: every query first consults the shared
/// [`ArtifactCache`], so repeated queries on one circuit structure (the
/// variational-sweep case) compile exactly once and then only re-bind.
#[derive(Debug, Clone)]
pub struct KcBackend {
    cache: Arc<ArtifactCache>,
    options: KcOptions,
    /// Exact noisy reconstruction enumerates every joint noise assignment;
    /// beyond this many `log2` branches it reports `Unsupported` (callers
    /// fall back to Gibbs sampling, which has no such limit).
    max_exact_log2_branches: f64,
    gibbs_warmup: usize,
    gibbs_thin: usize,
    /// Routes gate-symbol gradients through the parameter-shift path even
    /// when the analytic tangent path applies — the cross-check and
    /// benchmark-comparison knob.
    force_shift: bool,
    /// Per-symbol shift-structure scans keyed by `(circuit structural
    /// hash, wrt)`: a gradient sweep asks the same classification for
    /// every sweep point, so the circuit scan runs once per structure.
    /// Shared across clones (the sweep executor clones the backend).
    scan_cache: Arc<Mutex<HashMap<u64, Arc<Vec<SymbolClass>>>>>,
    /// The per-call query context (budget clock + fault plan), attached by
    /// the engine facade for the duration of one entry-point call. `None`
    /// — the default — costs one `Option` check per artifact acquisition.
    ctx: Option<crate::budget::QueryCtx>,
}

impl KcBackend {
    /// A backend over `cache` with the given pipeline options.
    pub fn new(cache: Arc<ArtifactCache>, options: KcOptions) -> Self {
        Self {
            cache,
            options,
            max_exact_log2_branches: 14.0,
            gibbs_warmup: 800,
            gibbs_thin: 3,
            force_shift: false,
            scan_cache: Arc::new(Mutex::new(HashMap::new())),
            ctx: None,
        }
    }

    /// Attaches a per-call query context: artifact acquisitions then
    /// honour its budget (cooperative compile cancellation, bounded cache
    /// waits) and its fault plan reaches the cache's spill I/O.
    pub(crate) fn with_ctx(mut self, ctx: crate::budget::QueryCtx) -> Self {
        self.ctx = Some(ctx);
        self
    }

    /// Every query's artifact acquisition: `get_or_compile` under the
    /// attached per-call context, surfacing budget expiry as a typed
    /// error.
    fn acquire(&self, circuit: &Circuit) -> Result<Arc<qkc_core::KcSimulator>, EngineError> {
        self.cache
            .try_get_or_compile(circuit, &self.options, self.ctx.as_ref())
    }

    /// Sets the exact-enumeration budget (in `log2` joint noise branches).
    pub fn with_max_exact_log2_branches(mut self, log2: f64) -> Self {
        self.max_exact_log2_branches = log2;
        self
    }

    /// Sets the Gibbs warmup and thinning used for noisy sampling.
    pub fn with_gibbs(mut self, warmup: usize, thin: usize) -> Self {
        self.gibbs_warmup = warmup;
        self.gibbs_thin = thin;
        self
    }

    /// Forces gradient queries onto the parameter-shift path even when the
    /// one-pass analytic path applies. For cross-checking the two exact
    /// paths against each other and for benchmark comparisons; never needed
    /// for correctness.
    pub fn with_force_shift(mut self, force: bool) -> Self {
        self.force_shift = force;
        self
    }

    /// The per-symbol classification of `wrt` against `circuit`, cached by
    /// the circuit's structural hash (parameter *values* do not affect the
    /// classification, so every point of a sweep shares one scan).
    fn classes_for(&self, circuit: &Circuit, wrt: &[String]) -> Arc<Vec<SymbolClass>> {
        let mut h = DefaultHasher::new();
        circuit.structural_hash().hash(&mut h);
        wrt.hash(&mut h);
        let key = h.finish();
        if let Some(classes) = self.scan_cache.lock().unwrap().get(&key) {
            return Arc::clone(classes);
        }
        let classes = Arc::new(gradient::symbol_classes(circuit, wrt));
        self.scan_cache
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(classes)
            .clone()
    }

    /// Checks the exact-enumeration budget: `Ok` when the joint noise
    /// branches of `circuit` fit, the `Unsupported` error callers fall
    /// back to sampling on otherwise. One definition keeps the scalar and
    /// batched exact paths agreeing on what is feasible.
    fn ensure_exact_budget(&self, circuit: &Circuit) -> Result<(), EngineError> {
        let log2_branches = crate::stats::log2_noise_branches(circuit);
        if log2_branches > self.max_exact_log2_branches {
            return Err(EngineError::Unsupported {
                backend: self.kind(),
                query: format!(
                    "exact probabilities with 2^{log2_branches:.0} noise branches \
                     (budget 2^{:.0}); use sampling instead",
                    self.max_exact_log2_branches
                ),
            });
        }
        Ok(())
    }
}

impl Backend for KcBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::KnowledgeCompilation
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            exact_pure: true,
            exact_noisy: true, // subject to the enumeration budget
            sample_noisy: true,
            compile_once: true,
        }
    }

    fn probabilities(&self, circuit: &Circuit, params: &ParamMap) -> Result<Vec<f64>, EngineError> {
        let artifact = self.acquire(circuit)?;
        let bound = artifact
            .bind(params)
            .map_err(|e| EngineError::Circuit(CircuitError::Unbound(e)))?;
        if artifact.num_random_events() == 0 {
            return Ok(bound.wavefunction().iter().map(|a| a.norm_sqr()).collect());
        }
        self.ensure_exact_budget(circuit)?;
        Ok(bound.output_probabilities())
    }

    fn expectation_batch(
        &self,
        circuit: &Circuit,
        params: &[ParamMap],
        observable: &(dyn Fn(usize) -> f64 + Sync),
    ) -> Result<Vec<f64>, EngineError> {
        if params.is_empty() {
            return Ok(Vec::new());
        }
        // Compile once, then all points as lanes of one batched bind: the
        // delta-aware batch lane kernel sweeps the Gray-ordered basis once
        // for the whole lane, decoding each dirty slot once while updating
        // every lane. The per-lane expectation fold is the same
        // enumerate-and-sum as the scalar path, so values are bit-for-bit
        // the single-point expectations.
        let artifact = self.acquire(circuit)?;
        if artifact.num_random_events() > 0 {
            // Mirror the scalar path's per-point error order (bind first,
            // then the enumeration budget): the budget depends only on the
            // circuit, so the first scalar error is point 0's bind error
            // when it has one, the budget error otherwise.
            artifact
                .bind(&params[0])
                .map_err(|e| EngineError::Circuit(CircuitError::Unbound(e)))?;
            self.ensure_exact_budget(circuit)?;
        }
        let bound = artifact
            .bind_batch(params)
            .map_err(|e| EngineError::Circuit(CircuitError::Unbound(e)))?;
        Ok(bound.expectations(&|bits| observable(bits)))
    }

    /// Exact gradients on the compiled artifact. The **analytic path** is
    /// primary: when every `wrt` symbol lives in gates (or is absent), the
    /// bind carries symbolic weight tangents and ONE differentials pass
    /// per evidence assignment yields every parameter's derivative through
    /// the chain rule — O(1) tape evaluations independent of parameter
    /// count. Symbols inside noise channels have no analytic weight
    /// tangent (their Kraus entries are `√p`-polynomial), so those queries
    /// fall back to the **parameter-shift path**: each symbol's shift
    /// structure (rule order = gate-occurrence count, so shared symbols
    /// stay exact; noise symbols use finite differences) becomes lanes of
    /// one batched bind. The shift path also remains available as a
    /// cross-check via [`KcBackend::with_force_shift`].
    fn expectation_gradient(
        &self,
        circuit: &Circuit,
        params: &ParamMap,
        observable: &(dyn Fn(usize) -> f64 + Sync),
        wrt: &[String],
    ) -> Result<GradientResult, EngineError> {
        let scan_span = qkc_telemetry::span("gradient/scan");
        let classes = self.classes_for(circuit, wrt);
        drop(scan_span);
        let analytic =
            !self.force_shift && !classes.iter().any(|c| matches!(c, SymbolClass::Noise));
        if analytic {
            // Mirror the shift path's error order: unbound *wrt* symbols
            // first (shifted_bindings reports them before compiling), then
            // the enumeration budget.
            if let Some(unbound) = wrt
                .iter()
                .zip(classes.iter())
                .find(|(s, c)| !matches!(c, SymbolClass::Absent) && params.get(s).is_none())
            {
                return Err(EngineError::Circuit(CircuitError::Unbound(
                    UnboundParam::new(unbound.0.clone()),
                )));
            }
            let artifact = self.acquire(circuit)?;
            if artifact.num_random_events() > 0 {
                self.ensure_exact_budget(circuit)?;
            }
            let bind_span = qkc_telemetry::span("gradient/tangent_bind");
            let bound = artifact
                .bind_with_tangents(params, wrt)
                .map_err(|e| EngineError::Circuit(CircuitError::Unbound(e)))?;
            drop(bind_span);
            let contract_span = qkc_telemetry::span("gradient/contract");
            let (value, grad) = bound.expectation_gradient(&|bits| observable(bits));
            drop(contract_span);
            qkc_telemetry::count("gradient/queries", 1);
            qkc_telemetry::count("gradient/lanes", 1);
            qkc_telemetry::count(GradientMethod::Analytic.counter_path(), 1);
            return Ok(GradientResult {
                value,
                gradient: grad,
                exact: true,
                evaluations: 1,
                method: GradientMethod::Analytic,
            });
        }
        let scan_span = qkc_telemetry::span("gradient/scan");
        let rules = gradient::rules_from_classes(&classes);
        let (lanes, plans) = gradient::shifted_bindings(params, wrt, &rules)
            .map_err(|name| EngineError::Circuit(CircuitError::Unbound(UnboundParam::new(name))))?;
        drop(scan_span);
        let artifact = self.acquire(circuit)?;
        if artifact.num_random_events() > 0 {
            // Gradients need exact expectations; the budget error tells the
            // caller to choose a different backend (or SPSA) instead of
            // silently differentiating shot noise.
            self.ensure_exact_budget(circuit)?;
        }
        let eval_span = qkc_telemetry::span("gradient/bind_eval");
        let bound = artifact
            .bind_batch(&lanes)
            .map_err(|e| EngineError::Circuit(CircuitError::Unbound(e)))?;
        let values = bound.expectations(&|bits| observable(bits));
        drop(eval_span);
        qkc_telemetry::count("gradient/queries", 1);
        qkc_telemetry::count("gradient/lanes", lanes.len() as u64);
        qkc_telemetry::count(GradientMethod::ParameterShift.counter_path(), 1);
        let (value, grad, exact) = gradient::contract_gradient(&values, &plans);
        Ok(GradientResult {
            value,
            gradient: grad,
            exact,
            evaluations: lanes.len(),
            method: GradientMethod::ParameterShift,
        })
    }

    fn sample(
        &self,
        circuit: &Circuit,
        params: &ParamMap,
        shots: usize,
        seed: u64,
    ) -> Result<Vec<usize>, EngineError> {
        let artifact = self.acquire(circuit)?;
        let bound = artifact
            .bind(params)
            .map_err(|e| EngineError::Circuit(CircuitError::Unbound(e)))?;
        // Exact distribution + O(1) alias draws whenever it is computable:
        // always for pure circuits, and for noisy circuits whose joint
        // noise assignments fit the enumeration budget. Gibbs sampling is
        // the fallback for wide noisy circuits, where enumeration is
        // impossible but chain updates stay cheap on the compiled artifact.
        let exact_probs = if artifact.num_random_events() == 0 {
            Some(
                bound
                    .wavefunction()
                    .iter()
                    .map(|a| a.norm_sqr())
                    .collect::<Vec<f64>>(),
            )
        } else if self.ensure_exact_budget(circuit).is_ok() {
            Some(bound.output_probabilities())
        } else {
            None
        };
        if let Some(mut probs) = exact_probs {
            for p in &mut probs {
                // Clamp numerical dust so the alias table accepts the
                // vector: probabilities are mathematically non-negative,
                // so any negative entry is cancellation error.
                *p = p.max(0.0);
            }
            let table = AliasTable::new(&probs).expect("distribution sums to 1");
            let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0));
            return Ok((0..shots).map(|_| table.sample(&mut rng)).collect());
        }
        let mut sampler = bound.sampler(&GibbsOptions {
            warmup: self.gibbs_warmup,
            thin: self.gibbs_thin,
            seed: mix_seed(seed, 1),
            ..Default::default()
        });
        Ok(sampler.sample_outputs(shots, self.gibbs_thin))
    }
}

// ---------------------------------------------------------------------------
// State vector
// ---------------------------------------------------------------------------

/// The dense state-vector backend (qsim-style). Exact for pure circuits;
/// noisy circuits sample as per-shot quantum trajectories.
#[derive(Debug, Clone)]
pub struct StateVectorBackend {
    sim: StateVectorSimulator,
}

impl Default for StateVectorBackend {
    fn default() -> Self {
        Self::new(1)
    }
}

impl StateVectorBackend {
    /// A backend whose gate kernels use `threads` worker threads.
    pub fn new(threads: usize) -> Self {
        Self {
            sim: StateVectorSimulator::new().with_threads(threads),
        }
    }
}

impl Backend for StateVectorBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::StateVector
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            exact_pure: true,
            exact_noisy: false,
            sample_noisy: true,
            compile_once: false,
        }
    }

    fn probabilities(&self, circuit: &Circuit, params: &ParamMap) -> Result<Vec<f64>, EngineError> {
        if circuit.is_noisy() {
            return Err(EngineError::Unsupported {
                backend: self.kind(),
                query: "exact probabilities of a noisy circuit".to_string(),
            });
        }
        Ok(self.sim.probabilities(circuit, params)?)
    }

    fn sample(
        &self,
        circuit: &Circuit,
        params: &ParamMap,
        shots: usize,
        seed: u64,
    ) -> Result<Vec<usize>, EngineError> {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, 2));
        Ok(self.sim.sample(circuit, params, shots, &mut rng)?)
    }
}

// ---------------------------------------------------------------------------
// Density matrix
// ---------------------------------------------------------------------------

/// The dense density-matrix backend (Cirq-style). Exact for noisy circuits;
/// memory is `4^n` so the planner caps its qubit count.
#[derive(Debug, Clone, Default)]
pub struct DensityMatrixBackend {
    sim: DensityMatrixSimulator,
}

impl DensityMatrixBackend {
    /// A density-matrix backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Backend for DensityMatrixBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::DensityMatrix
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            exact_pure: true,
            exact_noisy: true,
            sample_noisy: true,
            compile_once: false,
        }
    }

    fn probabilities(&self, circuit: &Circuit, params: &ParamMap) -> Result<Vec<f64>, EngineError> {
        Ok(self.sim.probabilities(circuit, params)?)
    }

    fn sample(
        &self,
        circuit: &Circuit,
        params: &ParamMap,
        shots: usize,
        seed: u64,
    ) -> Result<Vec<usize>, EngineError> {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, 3));
        Ok(self.sim.sample(circuit, params, shots, &mut rng)?)
    }
}

// ---------------------------------------------------------------------------
// Tensor network
// ---------------------------------------------------------------------------

/// The tensor-network backend (qTorch-style). Pure circuits only; every
/// probability or sample query re-pays contraction cost, which is the
/// asymmetry the paper's Figure 8 quantifies.
#[derive(Debug, Clone)]
pub struct TensorNetworkBackend {
    sim: TensorNetworkSimulator,
    threads: usize,
    /// Exact probabilities contract one doubled network per basis state, so
    /// they are capped at this qubit count.
    max_exact_qubits: usize,
}

impl Default for TensorNetworkBackend {
    fn default() -> Self {
        Self::new(1)
    }
}

impl TensorNetworkBackend {
    /// A backend whose sampling partitions shots over `threads` threads.
    pub fn new(threads: usize) -> Self {
        Self {
            sim: TensorNetworkSimulator::new(),
            threads: threads.max(1),
            max_exact_qubits: 14,
        }
    }
}

impl Backend for TensorNetworkBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::TensorNetwork
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            exact_pure: true,
            exact_noisy: false,
            sample_noisy: false,
            compile_once: false,
        }
    }

    fn probabilities(&self, circuit: &Circuit, params: &ParamMap) -> Result<Vec<f64>, EngineError> {
        if circuit.is_noisy() {
            return Err(EngineError::Unsupported {
                backend: self.kind(),
                query: "exact probabilities of a noisy circuit".to_string(),
            });
        }
        if circuit.num_qubits() > self.max_exact_qubits {
            return Err(EngineError::Unsupported {
                backend: self.kind(),
                query: format!(
                    "exact probabilities beyond {} qubits (2^n contractions)",
                    self.max_exact_qubits
                ),
            });
        }
        let tn = TensorNetwork::from_circuit(circuit, params)?;
        Ok((0..1usize << circuit.num_qubits())
            .map(|x| tn.amplitude(x).norm_sqr())
            .collect())
    }

    fn sample(
        &self,
        circuit: &Circuit,
        params: &ParamMap,
        shots: usize,
        seed: u64,
    ) -> Result<Vec<usize>, EngineError> {
        if circuit.is_noisy() {
            return Err(EngineError::Unsupported {
                backend: self.kind(),
                query: "sampling a noisy circuit".to_string(),
            });
        }
        // Each shot owns a generator derived from (seed, shot index), so
        // the stream is identical however the shots are partitioned across
        // threads — unlike TensorNetworkSimulator::sample, whose per-thread
        // seeding ties results to the configured thread count.
        let tn = TensorNetwork::from_circuit(circuit, params)?;
        let shot = |s: usize| {
            let mut rng = StdRng::seed_from_u64(mix_seed(seed, 4 + s as u64));
            self.sim.sample_once(&tn, &mut rng)
        };
        if self.threads <= 1 || shots < 2 {
            return Ok((0..shots).map(shot).collect());
        }
        let chunk = shots.div_ceil(self.threads);
        let mut all = Vec::with_capacity(shots);
        crossbeam::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..self.threads {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(shots);
                if lo >= hi {
                    break;
                }
                let shot = &shot;
                handles.push(scope.spawn(move |_| (lo..hi).map(shot).collect::<Vec<usize>>()));
            }
            for h in handles {
                all.extend(h.join().expect("sampler thread panicked"));
            }
        })
        .expect("scoped thread panicked");
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkc_circuit::Circuit;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        c
    }

    #[test]
    fn all_backends_agree_on_bell_probabilities() {
        let cache = Arc::new(ArtifactCache::new());
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(KcBackend::new(cache, KcOptions::default())),
            Box::new(StateVectorBackend::new(1)),
            Box::new(DensityMatrixBackend::new()),
            Box::new(TensorNetworkBackend::new(1)),
        ];
        for b in &backends {
            let p = b.probabilities(&bell(), &ParamMap::new()).unwrap();
            assert!((p[0] - 0.5).abs() < 1e-9, "{}: {p:?}", b.kind());
            assert!((p[3] - 0.5).abs() < 1e-9, "{}: {p:?}", b.kind());
        }
    }

    #[test]
    fn batched_probabilities_match_scalar_bit_for_bit() {
        use qkc_circuit::Param;
        let mut pure = Circuit::new(2);
        pure.rx(0, Param::symbol("t")).cnot(0, 1);
        let mut noisy = pure.clone();
        noisy.depolarize(0, 0.05);
        let params: Vec<ParamMap> = (0..5)
            .map(|i| ParamMap::from_pairs([("t", 0.2 + 0.4 * i as f64)]))
            .collect();
        // Irrational weights, so every basis state's probability shows up
        // in the low bits of the fold.
        let obs = |bits: usize| (bits as f64 + 0.5).sqrt();
        let cache = Arc::new(ArtifactCache::new());
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(KcBackend::new(cache, KcOptions::default())),
            Box::new(StateVectorBackend::new(1)),
            Box::new(DensityMatrixBackend::new()),
            Box::new(TensorNetworkBackend::new(1)),
        ];
        for b in &backends {
            for circuit in [&pure, &noisy] {
                let scalar: Result<Vec<f64>, EngineError> = params
                    .iter()
                    .map(|p| {
                        let probs = b.probabilities(circuit, p)?;
                        Ok(probs.iter().enumerate().map(|(x, &p)| p * obs(x)).sum())
                    })
                    .collect();
                let batched = b.expectation_batch(circuit, &params, &obs);
                match (scalar, batched) {
                    (Ok(scalar), Ok(batched)) => {
                        assert_eq!(scalar.len(), batched.len(), "{}", b.kind());
                        for (i, (&s, &g)) in scalar.iter().zip(&batched).enumerate() {
                            assert_eq!(s.to_bits(), g.to_bits(), "{} point {i}", b.kind());
                        }
                    }
                    (Err(_), Err(_)) => {} // both unsupported, consistently
                    other => panic!("{}: support mismatch {other:?}", b.kind()),
                }
            }
        }
    }

    #[test]
    fn expectation_batch_rides_probabilities() {
        let cache = Arc::new(ArtifactCache::new());
        let kc = KcBackend::new(cache, KcOptions::default());
        let obs = |bits: usize| if bits == 3 { 1.0 } else { 0.0 };
        let params = vec![ParamMap::new(); 3];
        let got = kc.expectation_batch(&bell(), &params, &obs).unwrap();
        for v in got {
            assert!((v - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let cache = Arc::new(ArtifactCache::new());
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(KcBackend::new(cache, KcOptions::default())),
            Box::new(StateVectorBackend::new(1)),
            Box::new(DensityMatrixBackend::new()),
            Box::new(TensorNetworkBackend::new(1)),
        ];
        let mut noisy = bell();
        noisy.depolarize(0, 0.05);
        for b in &backends {
            let circuit = if b.capabilities().sample_noisy {
                noisy.clone()
            } else {
                bell()
            };
            let a = b.sample(&circuit, &ParamMap::new(), 64, 9).unwrap();
            let bb = b.sample(&circuit, &ParamMap::new(), 64, 9).unwrap();
            let c = b.sample(&circuit, &ParamMap::new(), 64, 10).unwrap();
            assert_eq!(a, bb, "{} must be seed-deterministic", b.kind());
            assert_ne!(a, c, "{} must vary with the seed", b.kind());
        }
    }

    #[test]
    fn tensor_network_sampling_is_thread_count_independent() {
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).rx(2, 0.7).cz(1, 2);
        let single = TensorNetworkBackend::new(1)
            .sample(&c, &ParamMap::new(), 33, 5)
            .unwrap();
        for threads in [2, 4, 8] {
            let got = TensorNetworkBackend::new(threads)
                .sample(&c, &ParamMap::new(), 33, 5)
                .unwrap();
            assert_eq!(single, got, "thread count {threads} changed the stream");
        }
    }

    #[test]
    fn unsupported_queries_are_reported_not_wrong() {
        let mut noisy = bell();
        noisy.depolarize(0, 0.05);
        let sv = StateVectorBackend::new(1);
        let err = sv.probabilities(&noisy, &ParamMap::new()).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported { .. }));
        let tn = TensorNetworkBackend::new(1);
        assert!(tn.sample(&noisy, &ParamMap::new(), 8, 1).is_err());
    }
}

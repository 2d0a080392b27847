//! The [`Engine`]: planner + cache + backends + sweep executor in one
//! handle.

use crate::backend::{
    check_binding, Backend, BackendKind, DensityMatrixBackend, EngineError, KcBackend,
    StateVectorBackend, TensorNetworkBackend,
};
use crate::budget::{QueryBudget, QueryCtx};
use crate::cache::{ArtifactCache, CacheOptions};
use crate::faults::FaultPlan;
use crate::gradient::{self, GradientPoint, GradientResult, GradientSpec};
use crate::planner::{KcCalibration, Plan, PlanExplanation, PlanHint, Planner};
use crate::sweep::{SweepExecutor, SweepPoint, SweepReport, SweepSpec};
use qkc_circuit::{Circuit, CircuitError, ParamMap};
use qkc_core::{record_verify_telemetry, KcOptions, VerifyLevel, VerifyReport};
use std::sync::Arc;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Backend planning thresholds and the user override.
    pub planner: Planner,
    /// Knowledge-compilation pipeline options.
    pub kc_options: KcOptions,
    /// Worker threads for sweeps and the dense kernels.
    pub threads: usize,
    /// Sweep batch width: points per batched backend call inside each
    /// worker (see [`SweepExecutor::with_batch`]). Results are identical
    /// for every width.
    pub batch: usize,
    /// Artifact-cache residency bounds: byte budget and spill directory
    /// (see [`CacheOptions`]). Defaults to unbounded without spill;
    /// bounding the cache never changes results — evicted artifacts
    /// rehydrate or recompile bit-identically.
    pub cache: CacheOptions,
    /// Wall-time budget applied to every engine call: a whole-call
    /// deadline and/or per-compile timeout, enforced cooperatively at
    /// compile-phase boundaries, cache waits, and sweep-lane boundaries.
    /// Defaults to unlimited.
    pub budget: QueryBudget,
    /// Deterministic fault-injection schedule, threaded into every query
    /// this engine runs (spill I/O, compile boundaries, sweep points).
    /// `None` — the default — makes every hook a no-op `Option` check.
    pub faults: Option<FaultPlan>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            planner: Planner::default(),
            kc_options: KcOptions::default(),
            threads: std::thread::available_parallelism()
                .map(std::num::NonZero::get)
                .unwrap_or(1)
                .min(16),
            batch: crate::sweep::DEFAULT_BATCH,
            cache: CacheOptions::default(),
            budget: QueryBudget::default(),
            faults: None,
        }
    }
}

impl EngineOptions {
    /// Forces every query onto one backend.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.planner.force = Some(backend);
        self
    }

    /// Sets the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the sweep batch width (1 disables batched evaluation).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Sets the artifact-cache residency bounds.
    pub fn with_cache(mut self, cache: CacheOptions) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the per-call wall-time budget.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Installs a deterministic fault-injection schedule.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the static-verification level the artifact cache applies to
    /// rehydrated artifacts (see [`CacheOptions::verify`]).
    pub fn with_verify(mut self, level: VerifyLevel) -> Self {
        self.cache.verify = level;
        self
    }

    /// Validates the configuration: the builders keep these invariants by
    /// construction, but the fields are public, so direct assignment is
    /// re-checked before an engine is built around them.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidOptions`] naming the offending field.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.threads == 0 {
            return Err(EngineError::InvalidOptions {
                detail: "threads must be at least 1 (0 worker threads can run nothing)".into(),
            });
        }
        if self.batch == 0 {
            return Err(EngineError::InvalidOptions {
                detail: "batch must be at least 1 (0-point lanes can evaluate nothing)".into(),
            });
        }
        Ok(())
    }
}

/// The single entry point for running circuits: plans a backend per
/// circuit, caches compiled artifacts across calls, and fans parameter
/// sweeps out over worker threads.
///
/// # Examples
///
/// ```
/// use qkc_circuit::{Circuit, ParamMap};
/// use qkc_engine::Engine;
///
/// let engine = Engine::new();
/// let mut bell = Circuit::new(2);
/// bell.h(0).cnot(0, 1);
/// let p = engine.probabilities(&bell, &ParamMap::new()).unwrap();
/// assert!((p[0] - 0.5).abs() < 1e-9 && (p[3] - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct Engine {
    options: EngineOptions,
    cache: Arc<ArtifactCache>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine with default options.
    pub fn new() -> Self {
        Self::with_options(EngineOptions::default())
    }

    /// An engine with explicit options.
    ///
    /// # Panics
    ///
    /// On an invalid configuration or an unusable spill directory — the
    /// same conditions [`Engine::try_with_options`] reports as typed
    /// errors.
    pub fn with_options(options: EngineOptions) -> Self {
        Self::try_with_options(options).expect("engine options rejected")
    }

    /// An engine with explicit options, validated eagerly: bad
    /// configuration values and an uncreatable/unwritable spill directory
    /// are reported here, at construction, instead of surfacing later as
    /// per-query spill failures deep inside a sweep.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidOptions`] (see [`EngineOptions::validate`])
    /// or [`EngineError::SpillDirUnavailable`] when the configured spill
    /// directory cannot be created or written.
    pub fn try_with_options(options: EngineOptions) -> Result<Self, EngineError> {
        options.validate()?;
        let cache = Arc::new(ArtifactCache::try_with_options(options.cache.clone())?);
        Ok(Self { options, cache })
    }

    /// The per-call query context: the budget's clock starts now, and the
    /// engine-wide fault plan rides along. `None` when there is nothing
    /// to enforce or inject, which keeps every downstream hook on its
    /// single-`Option`-check fast path.
    fn query_ctx(&self) -> Option<QueryCtx> {
        if self.options.budget.is_unlimited() && self.options.faults.is_none() {
            return None;
        }
        Some(QueryCtx::new(
            self.options.budget,
            self.options.faults.clone(),
        ))
    }

    /// The configuration.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The shared artifact cache (hit/miss counters, clearing).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// Measured calibration for the planner's KC candidate: present
    /// exactly when this structure's compiled artifact is resident in the
    /// engine's cache (a pure peek — never compiles, never counts as a
    /// hit or miss).
    fn calibration(&self, circuit: &Circuit) -> Option<KcCalibration> {
        self.cache
            .resident_metrics(circuit, &self.options.kc_options)
            .map(|(metrics, _cost_seconds)| KcCalibration::from_metrics(&metrics))
    }

    /// Plans a backend for a one-off query on `circuit`
    /// ([`PlanHint::SingleShot`]; sweeps plan with
    /// [`Engine::plan_with_hint`]). When the structure's compiled artifact
    /// is already cache-resident, the plan is calibrated against its
    /// measured tape size and compile time (see
    /// [`Planner::plan_calibrated`]).
    pub fn plan(&self, circuit: &Circuit) -> Plan {
        self.plan_with_hint(circuit, PlanHint::SingleShot)
    }

    /// Plans a backend under an explicit hint.
    pub fn plan_with_hint(&self, circuit: &Circuit, hint: PlanHint) -> Plan {
        self.options
            .planner
            .plan_calibrated(circuit, hint, self.calibration(circuit).as_ref())
    }

    /// An "explain plan" for a one-off query ([`PlanHint::SingleShot`]):
    /// every candidate backend's feasibility and estimated cost, plus the
    /// chosen one (always the same backend [`Engine::plan`] picks). A
    /// cache-resident artifact upgrades the KC candidate's score from the
    /// treewidth proxy to its exact measured footprint.
    pub fn explain(&self, circuit: &Circuit) -> PlanExplanation {
        self.options.planner.explain_calibrated(
            circuit,
            PlanHint::SingleShot,
            self.calibration(circuit).as_ref(),
        )
    }

    /// A snapshot of the global telemetry registry: every span, counter,
    /// and histogram recorded since the last
    /// [`reset`](qkc_telemetry::reset). Telemetry is off by default —
    /// enable with [`qkc_telemetry::set_enabled`] (or `QKC_TELEMETRY=1`
    /// via [`qkc_telemetry::init_from_env`]); while disabled every
    /// instrumentation site is a single relaxed atomic load and this
    /// snapshot stays empty.
    pub fn telemetry(&self) -> qkc_telemetry::Snapshot {
        qkc_telemetry::snapshot()
    }

    /// Runs the certifying static verifier over `circuit`'s compiled
    /// artifact at [`VerifyLevel::Full`]: tape well-formedness, semantic
    /// d-DNNF certification (decomposability, determinism witnesses,
    /// smoothness over the query groups), slot liveness, and the
    /// model-layer lints evaluated under `params` (CPT
    /// row-stochasticity / unitarity within tolerance). The artifact is
    /// resolved through the engine cache, so verification never compiles
    /// a structure the cache already holds. Findings are mirrored into
    /// telemetry (`verify/finding/*`, `verify/pass/*`).
    ///
    /// # Errors
    ///
    /// Compile-side failures (budget exhaustion, injected faults) or
    /// [`EngineError::Circuit`] when `params` leaves a circuit parameter
    /// unbound.
    pub fn verify(
        &self,
        circuit: &Circuit,
        params: &ParamMap,
    ) -> Result<VerifyReport, EngineError> {
        let ctx = self.query_ctx();
        let sim = self
            .cache
            .try_get_or_compile(circuit, &self.options.kc_options, ctx.as_ref())?;
        let report = sim
            .verify_with_params(params, VerifyLevel::Full)
            .map_err(|e| EngineError::Circuit(CircuitError::Unbound(e)))?;
        record_verify_telemetry(&report);
        Ok(report)
    }

    /// Instantiates the backend a plan chose.
    pub fn backend(&self, kind: BackendKind) -> Box<dyn Backend> {
        self.backend_with_ctx(kind, None)
    }

    /// Like [`Engine::backend`], but threads a per-call query context into
    /// the backends that honour one (the KC backend enforces budgets and
    /// fault plans through the artifact cache; the dense backends have no
    /// compile step to budget).
    fn backend_with_ctx(&self, kind: BackendKind, ctx: Option<&QueryCtx>) -> Box<dyn Backend> {
        match kind {
            BackendKind::KnowledgeCompilation => {
                let mut backend =
                    KcBackend::new(Arc::clone(&self.cache), self.options.kc_options.clone())
                        .with_max_exact_log2_branches(self.options.planner.max_exact_log2_branches);
                if let Some(ctx) = ctx {
                    backend = backend.with_ctx(ctx.clone());
                }
                Box::new(backend)
            }
            BackendKind::StateVector => Box::new(StateVectorBackend::new(self.options.threads)),
            BackendKind::DensityMatrix => Box::new(DensityMatrixBackend::new()),
            BackendKind::TensorNetwork => Box::new(TensorNetworkBackend::new(self.options.threads)),
        }
    }

    /// Plans and instantiates in one step.
    pub fn backend_for(&self, circuit: &Circuit) -> (Plan, Box<dyn Backend>) {
        let plan = self.plan(circuit);
        let backend = self.backend(plan.backend);
        (plan, backend)
    }

    /// The exact output-measurement distribution, on the planned backend.
    ///
    /// # Errors
    ///
    /// Circuit-level errors, [`EngineError::InvalidBinding`] for a
    /// non-finite angle or an out-of-range noise probability, or
    /// [`EngineError::Unsupported`] when no exact answer is feasible (fall
    /// back to [`Engine::sample`]).
    pub fn probabilities(
        &self,
        circuit: &Circuit,
        params: &ParamMap,
    ) -> Result<Vec<f64>, EngineError> {
        check_binding(circuit, params)?;
        let ctx = self.query_ctx();
        let backend = self.backend_with_ctx(self.plan(circuit).backend, ctx.as_ref());
        backend.probabilities(circuit, params)
    }

    /// Draws `shots` measurement outcomes on the planned backend,
    /// deterministically in `seed`.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidBinding`] for a non-finite angle or an
    /// out-of-range noise probability; circuit-level errors from the
    /// selected backend.
    pub fn sample(
        &self,
        circuit: &Circuit,
        params: &ParamMap,
        shots: usize,
        seed: u64,
    ) -> Result<Vec<usize>, EngineError> {
        check_binding(circuit, params)?;
        let ctx = self.query_ctx();
        let backend = self.backend_with_ctx(self.plan(circuit).backend, ctx.as_ref());
        backend.sample(circuit, params, shots, seed)
    }

    /// The expectation of a diagonal observable: exact when the planned
    /// backend supports it, otherwise estimated from `shots` samples.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidBinding`] for a non-finite angle or an
    /// out-of-range noise probability (checked as a one-point sweep);
    /// circuit-level errors from the selected backend.
    pub fn expectation(
        &self,
        circuit: &Circuit,
        params: &ParamMap,
        observable: &(dyn Fn(usize) -> f64 + Sync),
        shots: usize,
        seed: u64,
    ) -> Result<f64, EngineError> {
        let spec = SweepSpec {
            shots,
            observable: Some(observable),
            keep_samples: false,
            seed,
        };
        let points = self.sweep(circuit, std::slice::from_ref(params), &spec)?;
        Ok(points[0].expectation.expect("observable was requested"))
    }

    /// The expectation of a diagonal observable **and its gradient** with
    /// respect to `wrt` (`None` = every circuit symbol, sorted), on the
    /// backend planned for a parameter sweep. On the
    /// knowledge-compilation backend the gradient comes from the one-pass
    /// analytic path: one differentials pass per basis state, contracted
    /// against precomputed weight tangents, whatever the number of
    /// symbols. Only when a `wrt` symbol sits in a noise channel does the
    /// query take the parameter-shift path instead: shifted bindings
    /// (finite differences for the noise symbols) evaluated as lanes of one
    /// batched bind against the cached artifact. Other backends answer the
    /// same query by central finite differences, flagged
    /// [`exact`](GradientResult::exact)` = false`.
    ///
    /// # Errors
    ///
    /// Unbound-symbol errors, [`EngineError::InvalidBinding`] for a
    /// non-finite angle or an out-of-range noise probability, or
    /// [`EngineError::Unsupported`] when the planned backend cannot
    /// produce exact expectations for this circuit (gradients never fall
    /// back to sampling).
    pub fn gradient(
        &self,
        circuit: &Circuit,
        params: &ParamMap,
        observable: &(dyn Fn(usize) -> f64 + Sync),
        wrt: Option<&[String]>,
    ) -> Result<GradientResult, EngineError> {
        check_binding(circuit, params)?;
        let plan = self.plan_with_hint(circuit, PlanHint::ParameterSweep);
        let ctx = self.query_ctx();
        let backend = self.backend_with_ctx(plan.backend, ctx.as_ref());
        let owned;
        let wrt = match wrt {
            Some(w) => w,
            None => {
                owned = gradient::default_wrt(circuit);
                &owned
            }
        };
        backend.expectation_gradient(circuit, params, observable, wrt)
    }

    /// Runs a gradient sweep: value and gradient at every binding in
    /// `params`, fanned out across the engine's worker threads. The
    /// circuit structure compiles at most once (shared artifact cache);
    /// every point is an independent exact query, so results are
    /// byte-identical for any thread count.
    ///
    /// # Errors
    ///
    /// The first point-level error in input order, including
    /// [`EngineError::InvalidBinding`] for a point with a non-finite angle
    /// or an out-of-range noise probability.
    pub fn gradient_sweep(
        &self,
        circuit: &Circuit,
        params: &[ParamMap],
        spec: &GradientSpec<'_>,
    ) -> Result<Vec<GradientPoint>, EngineError> {
        if params.is_empty() {
            return Ok(Vec::new());
        }
        let plan = self.plan_with_hint(circuit, PlanHint::ParameterSweep);
        let ctx = self.query_ctx();
        let backend = self.backend_with_ctx(plan.backend, ctx.as_ref());
        let ctx = ctx.as_ref();
        let wrt = match &spec.wrt {
            Some(w) => w.clone(),
            None => gradient::default_wrt(circuit),
        };
        crate::sweep::fan_out_chunks(self.options.threads, params, |lo, slice| {
            slice
                .iter()
                .enumerate()
                .map(|(j, p)| {
                    if let Some(c) = ctx {
                        // Cooperative cancellation boundary, per point (a
                        // gradient point is many bound evaluations — the
                        // natural lane here).
                        c.check_deadline()?;
                    }
                    check_binding(circuit, p)?;
                    let r = backend.expectation_gradient(circuit, p, spec.observable, &wrt)?;
                    Ok(GradientPoint {
                        index: lo + j,
                        value: r.value,
                        gradient: r.gradient,
                        exact: r.exact,
                        method: r.method,
                    })
                })
                .collect()
        })
    }

    /// Runs a parameter sweep: every binding in `params` evaluated against
    /// one planned backend (hinted [`PlanHint::ParameterSweep`]), fanned
    /// out across the engine's worker threads. On the
    /// knowledge-compilation backend the circuit compiles once and every
    /// point re-binds.
    ///
    /// # Errors
    ///
    /// The lowest-index point-level failure. Use [`Engine::sweep_report`]
    /// to keep the points that did succeed.
    pub fn sweep(
        &self,
        circuit: &Circuit,
        params: &[ParamMap],
        spec: &SweepSpec<'_>,
    ) -> Result<Vec<SweepPoint>, EngineError> {
        self.sweep_report(circuit, params, spec)
            .and_then(SweepReport::into_result)
    }

    /// Runs a parameter sweep with graceful degradation: point-level
    /// failures (including worker panics, which are caught and retried
    /// once, and [`EngineError::InvalidBinding`] for a point with a
    /// non-finite angle or an out-of-range noise probability) are
    /// contained into typed [`SweepFailure`](crate::SweepFailure)
    /// entries, and every other point's result is returned —
    /// byte-identical to what a fault-free run would produce for it.
    ///
    /// # Errors
    ///
    /// Only sweep-global failures: an exceeded [`QueryBudget`] deadline or
    /// a panic that escapes point-level containment.
    pub fn sweep_report(
        &self,
        circuit: &Circuit,
        params: &[ParamMap],
        spec: &SweepSpec<'_>,
    ) -> Result<SweepReport, EngineError> {
        let plan = self.plan_with_hint(circuit, PlanHint::ParameterSweep);
        let ctx = self.query_ctx();
        let backend = self.backend_with_ctx(plan.backend, ctx.as_ref());
        SweepExecutor::new(self.options.threads)
            .with_batch(self.options.batch)
            .with_ctx(ctx)
            .run_report(backend.as_ref(), circuit, params, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_backend_is_respected() {
        let engine =
            Engine::with_options(EngineOptions::default().with_backend(BackendKind::DensityMatrix));
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let plan = engine.plan(&c);
        assert_eq!(plan.backend, BackendKind::DensityMatrix);
    }

    #[test]
    fn expectation_exact_on_pure_circuit() {
        let engine = Engine::new();
        let mut c = Circuit::new(1);
        c.rx(0, 1.3);
        let p1 = engine
            .expectation(&c, &ParamMap::new(), &|bits| bits as f64, 0, 0)
            .unwrap();
        assert!((p1 - (1.3f64 / 2.0).sin().powi(2)).abs() < 1e-10);
    }

    #[test]
    fn plans_calibrate_against_cache_resident_artifacts() {
        let engine = Engine::new();
        // A wide-shallow sweep circuit the planner routes to KC.
        let mut c = Circuit::new(8);
        for q in 0..8 {
            c.h(q);
        }
        for q in 0..8 {
            c.zz(q, (q + 1) % 8, qkc_circuit::Param::symbol("g"));
        }
        let hint = PlanHint::ParameterSweep;
        // Cold cache: static plan, treewidth-proxy scoring.
        let cold = engine.plan_with_hint(&c, hint);
        assert_eq!(cold.backend, BackendKind::KnowledgeCompilation);
        assert!(!cold.reason.contains("calibrated"), "{}", cold.reason);
        // Compile the artifact through a normal query, then re-plan: the
        // same decision, now justified by measured figures.
        let params = [ParamMap::from_pairs([("g", 0.3)])];
        let obs = |bits: usize| bits.count_ones() as f64;
        engine
            .sweep(&c, &params, &SweepSpec::expectation(&obs))
            .unwrap();
        let warm = engine.plan_with_hint(&c, hint);
        assert_eq!(
            warm.backend, cold.backend,
            "calibration never flips the plan"
        );
        assert!(warm.reason.contains("calibrated"), "{}", warm.reason);
        let explain = engine.explain(&c);
        let kc = explain
            .candidates
            .iter()
            .find(|cand| cand.backend == BackendKind::KnowledgeCompilation)
            .expect("kc candidate");
        assert!(kc.verdict.contains("measured"), "{}", kc.verdict);
        assert_eq!(
            engine.cache().misses(),
            1,
            "planning peeks never compile or count"
        );
    }

    #[test]
    fn invalid_options_are_rejected_with_typed_errors() {
        let zero_threads = EngineOptions {
            threads: 0,
            ..Default::default()
        };
        match Engine::try_with_options(zero_threads) {
            Err(EngineError::InvalidOptions { detail }) => {
                assert!(detail.contains("threads"), "{detail}");
            }
            other => panic!("expected InvalidOptions, got {other:?}"),
        }
        let zero_batch = EngineOptions {
            batch: 0,
            ..Default::default()
        };
        match Engine::try_with_options(zero_batch) {
            Err(EngineError::InvalidOptions { detail }) => {
                assert!(detail.contains("batch"), "{detail}");
            }
            other => panic!("expected InvalidOptions, got {other:?}"),
        }
    }

    #[test]
    fn unusable_spill_dir_is_rejected_at_construction() {
        // A regular *file* where the spill directory should be: the spill
        // path can never work, and the engine must say so now — not as a
        // degraded-mode surprise mid-sweep.
        let file =
            std::env::temp_dir().join(format!("qkc-engine-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"occupied").expect("write blocker file");
        let options =
            EngineOptions::default().with_cache(CacheOptions::default().with_spill_dir(&file));
        let result = Engine::try_with_options(options);
        std::fs::remove_file(&file).ok();
        match result {
            Err(EngineError::SpillDirUnavailable { path, .. }) => {
                assert!(path.contains("qkc-engine-not-a-dir"), "{path}");
            }
            Ok(_) => panic!("a file-shadowed spill dir must be rejected"),
            Err(other) => panic!("expected SpillDirUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn engine_deadline_surfaces_as_a_typed_error() {
        use std::time::Duration;
        let engine = Engine::with_options(
            EngineOptions::default()
                .with_budget(QueryBudget::unlimited().with_deadline(Duration::ZERO)),
        );
        std::thread::sleep(Duration::from_millis(1));
        let mut c = Circuit::new(2);
        c.rx(0, qkc_circuit::Param::symbol("t")).cnot(0, 1);
        let params = [ParamMap::from_pairs([("t", 0.3)])];
        let obs = |bits: usize| bits as f64;
        let result = engine.sweep(&c, &params, &SweepSpec::expectation(&obs));
        assert!(
            matches!(result, Err(EngineError::DeadlineExceeded { .. })),
            "got {result:?}"
        );
    }

    #[test]
    fn engine_fault_plan_panics_are_retried_transparently() {
        let mut c = Circuit::new(2);
        c.rx(0, qkc_circuit::Param::symbol("t")).cnot(0, 1);
        let params: Vec<ParamMap> = (0..4)
            .map(|i| ParamMap::from_pairs([("t", 0.1 + 0.2 * i as f64)]))
            .collect();
        let obs = |bits: usize| bits as f64;
        let clean = Engine::new()
            .sweep(&c, &params, &SweepSpec::expectation(&obs))
            .unwrap();
        // First-attempt-only panics at two points: the executor's retry
        // makes the whole sweep succeed, byte-identically.
        let engine = Engine::with_options(
            EngineOptions::default()
                .with_fault_plan(crate::FaultPlan::seeded(9).with_panic_at([0, 2])),
        );
        let recovered = engine
            .sweep(&c, &params, &SweepSpec::expectation(&obs))
            .unwrap();
        assert_eq!(clean, recovered);
    }

    #[test]
    fn sweep_reuses_one_artifact_across_calls() {
        let engine = Engine::with_options(
            EngineOptions::default().with_backend(BackendKind::KnowledgeCompilation),
        );
        let mut c = Circuit::new(2);
        c.rx(0, qkc_circuit::Param::symbol("t")).cnot(0, 1);
        let params: Vec<ParamMap> = (0..5)
            .map(|i| ParamMap::from_pairs([("t", 0.1 * i as f64)]))
            .collect();
        let obs = |bits: usize| bits as f64;
        engine
            .sweep(&c, &params, &SweepSpec::expectation(&obs))
            .unwrap();
        engine
            .sweep(&c, &params, &SweepSpec::expectation(&obs))
            .unwrap();
        assert_eq!(
            engine.cache().misses(),
            1,
            "second sweep re-uses the artifact"
        );
    }
}

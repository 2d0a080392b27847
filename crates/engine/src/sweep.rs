//! The parallel parameter-sweep executor.

use crate::backend::{check_binding, Backend, EngineError};
use crate::budget::QueryCtx;
use crate::faults::{FaultPlan, FaultSite};
use crate::mix_seed;
use qkc_circuit::{Circuit, ParamMap};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What each sweep point should produce.
///
/// The observable is a diagonal function of the measured bitstring
/// (cut values, Ising energies, indicator functions, ...). When the backend
/// can produce exact probabilities the expectation is computed exactly;
/// otherwise it is estimated from `shots` samples.
pub struct SweepSpec<'a> {
    /// Samples to draw per point (also the estimator sample size when the
    /// backend cannot do exact expectations). `0` draws none.
    pub shots: usize,
    /// Diagonal observable to take the expectation of, if any.
    pub observable: Option<&'a (dyn Fn(usize) -> f64 + Sync)>,
    /// Keep the raw samples in each [`SweepPoint`] (they are dropped after
    /// estimating the expectation otherwise).
    pub keep_samples: bool,
    /// Base seed; point `i` derives its own generator from `(seed, i)`, so
    /// results are reproducible and independent of thread count.
    pub seed: u64,
}

impl<'a> SweepSpec<'a> {
    /// Expectation-only sweep (exact when the backend allows, otherwise
    /// estimated from a default 2048 shots per point).
    pub fn expectation(observable: &'a (dyn Fn(usize) -> f64 + Sync)) -> Self {
        Self {
            shots: 2048,
            observable: Some(observable),
            keep_samples: false,
            seed: 0,
        }
    }

    /// Samples-only sweep.
    pub fn samples(shots: usize) -> Self {
        Self {
            shots,
            observable: None,
            keep_samples: true,
            seed: 0,
        }
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-point shot count.
    pub fn with_shots(mut self, shots: usize) -> Self {
        self.shots = shots;
        self
    }
}

/// The result of one parameter binding in a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Position in the input parameter batch.
    pub index: usize,
    /// Expectation of the requested observable, if one was requested.
    pub expectation: Option<f64>,
    /// Whether `expectation` is exact (from the full distribution) rather
    /// than a sample estimate.
    pub exact: bool,
    /// Raw samples, when requested via [`SweepSpec::keep_samples`].
    pub samples: Vec<usize>,
}

/// One sweep point that could not be evaluated: its position in the input
/// batch and the typed error that stopped it (after the executor's single
/// retry, for panics).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepFailure {
    /// Position in the input parameter batch.
    pub index: usize,
    /// Why the point failed.
    pub error: EngineError,
}

/// The full outcome of a sweep: every point that succeeded plus a typed
/// failure for every point that did not. Successful points are
/// byte-identical to what a fault-free run would have produced for them —
/// containment never changes a value, it only removes points.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepReport {
    /// Successful points, in input order.
    pub points: Vec<SweepPoint>,
    /// Failed points, in input order.
    pub failures: Vec<SweepFailure>,
}

impl SweepReport {
    /// True when every point succeeded.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Collapses the report to the all-or-nothing [`SweepExecutor::run`]
    /// contract: all points on success, otherwise the lowest-index
    /// failure's error.
    pub fn into_result(self) -> Result<Vec<SweepPoint>, EngineError> {
        match self.failures.into_iter().next() {
            None => Ok(self.points),
            Some(first) => Err(first.error),
        }
    }
}

/// Fans a batch of parameter bindings out across worker threads, and
/// within each worker through the backend's batched evaluation path.
///
/// Every worker queries the same shared [`Backend`]; on the
/// knowledge-compilation backend that means one structural compilation
/// (through the [`ArtifactCache`](crate::ArtifactCache)) and one cheap
/// re-bind per point — the paper's compile-once-bind-many economics applied
/// across both iterations *and* cores. Each worker additionally chunks its
/// slice of the point space into lanes of [`SweepExecutor::batch`] points
/// and evaluates exact expectations through
/// [`Backend::expectation_batch`], amortizing one arithmetic-circuit
/// traversal over the whole lane.
///
/// Work is partitioned by point index and every point's randomness derives
/// only from `(spec.seed, index)`; batched evaluation is bit-for-bit equal
/// to scalar evaluation. The output is therefore byte-identical for any
/// thread count *and* any batch width.
#[derive(Debug, Clone)]
pub struct SweepExecutor {
    threads: usize,
    batch: usize,
    ctx: Option<QueryCtx>,
}

/// The default batch width: a whole number of lane blocks (so the
/// lane-blocked batch kernels sweep no dead remainder lanes), wide enough
/// to amortize per-node dispatch, small enough to keep the blocked weight
/// and value planes cache-resident.
pub const DEFAULT_BATCH: usize = 2 * qkc_knowledge::LANE_WIDTH;

impl Default for SweepExecutor {
    fn default() -> Self {
        Self::new(available_threads())
    }
}

/// The default worker count: the machine's parallelism, capped so sweeps
/// stay polite on shared hosts.
fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1)
        .min(16)
}

impl SweepExecutor {
    /// An executor with an explicit worker-thread count and the default
    /// batch width.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            batch: DEFAULT_BATCH,
            ctx: None,
        }
    }

    /// Attaches a per-call query context (deadline clock + fault plan);
    /// the executor checks the deadline at lane boundaries and consults
    /// the plan's panic schedule per point.
    pub(crate) fn with_ctx(mut self, ctx: Option<QueryCtx>) -> Self {
        self.ctx = ctx;
        self
    }

    /// Sets the batch width: how many sweep points each worker evaluates
    /// per batched backend call. `1` disables batching; results are
    /// identical either way.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Batch width (points per batched backend call).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Runs every binding in `params` against `backend` and returns one
    /// [`SweepPoint`] per binding, in input order.
    ///
    /// # Errors
    ///
    /// The lowest-index point-level failure, if any point fails (all
    /// points run the same circuit structure, so failures are typically
    /// uniform). Use [`SweepExecutor::run_report`] instead to keep the
    /// points that did succeed.
    pub fn run(
        &self,
        backend: &dyn Backend,
        circuit: &Circuit,
        params: &[ParamMap],
        spec: &SweepSpec<'_>,
    ) -> Result<Vec<SweepPoint>, EngineError> {
        self.run_report(backend, circuit, params, spec)
            .and_then(SweepReport::into_result)
    }

    /// Runs every binding in `params` against `backend`, containing
    /// point-level failures instead of aborting: a point whose evaluation
    /// panics is retried once on a fresh call, and a point that still
    /// fails becomes a typed [`SweepFailure`] while every other point's
    /// result is kept (byte-identical to a fault-free run).
    ///
    /// # Errors
    ///
    /// Only sweep-global failures: an exceeded
    /// [`QueryBudget`](crate::QueryBudget) deadline (checked at lane
    /// boundaries) or a panic that escapes point-level containment.
    pub fn run_report(
        &self,
        backend: &dyn Backend,
        circuit: &Circuit,
        params: &[ParamMap],
        spec: &SweepSpec<'_>,
    ) -> Result<SweepReport, EngineError> {
        if params.is_empty() {
            return Ok(SweepReport::default());
        }
        // No warm-up pass is needed before fanning out: concurrent first
        // touches of a compile-once backend serialize on the artifact
        // cache's per-key cell, so exactly one worker compiles and the rest
        // block until the artifact is shared.
        let batch = self.batch;
        let ctx = self.ctx.as_ref();
        // Per-worker accounting exists only while telemetry is on; the
        // disabled path runs the exact uninstrumented closure.
        let run_start = qkc_telemetry::enabled().then(std::time::Instant::now);
        let busy_secs: std::sync::Mutex<Vec<f64>> = std::sync::Mutex::new(Vec::new());
        let outcomes = fan_out_chunks(self.threads, params, |lo, slice| {
            if let Some(start) = run_start {
                // Queue wait: spawn-to-start latency of this worker.
                qkc_telemetry::record_span_secs(
                    "sweep/worker/queue_wait",
                    start.elapsed().as_secs_f64(),
                );
                let busy_start = std::time::Instant::now();
                let r = run_slice(backend, circuit, lo, slice, spec, batch, ctx);
                let busy = busy_start.elapsed().as_secs_f64();
                qkc_telemetry::record_span_secs("sweep/worker/busy", busy);
                busy_secs.lock().expect("busy log poisoned").push(busy);
                r
            } else {
                run_slice(backend, circuit, lo, slice, spec, batch, ctx)
            }
        });
        if let Some(start) = run_start {
            let wall = start.elapsed().as_secs_f64();
            qkc_telemetry::record_span_secs("sweep/run", wall);
            qkc_telemetry::count("sweep/points", params.len() as u64);
            // Idle = this sweep's wall time minus the worker's busy time:
            // time the worker spent waiting on spawn, skew, or joins.
            for &busy in busy_secs.lock().expect("busy log poisoned").iter() {
                qkc_telemetry::record_span_secs("sweep/worker/idle", (wall - busy).max(0.0));
            }
        }
        let mut report = SweepReport::default();
        for outcome in outcomes? {
            match outcome {
                PointOutcome::Done(point) => report.points.push(point),
                PointOutcome::Failed(failure) => report.failures.push(failure),
            }
        }
        Ok(report)
    }
}

/// One point's contained outcome inside a worker slice: the slice keeps
/// going either way, and the report partitions these afterwards.
enum PointOutcome {
    Done(SweepPoint),
    Failed(SweepFailure),
}

/// Fans `items` out across up to `threads` scoped workers in contiguous
/// chunks and concatenates the per-chunk results in input order; the
/// first failing chunk's error (itself the chunk's first item-level
/// error) wins, preserving input-order error semantics. Shared by the
/// sweep executor and the engine's gradient sweeps.
///
/// A panicking worker does **not** take the process down: its panic is
/// caught at join, converted into [`EngineError::WorkerPanicked`] for the
/// affected chunk of points, and every other worker still runs to
/// completion (their results are simply superseded by the input-order
/// error). The single-threaded path behaves identically by catching
/// unwinds around the direct call.
pub(crate) fn fan_out_chunks<I, T, F>(
    threads: usize,
    items: &[I],
    f: F,
) -> Result<Vec<T>, EngineError>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &[I]) -> Result<Vec<T>, EngineError> + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(0, items)))
            .unwrap_or_else(|payload| Err(worker_panic_error(payload)));
    }
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<Result<Vec<T>, EngineError>> = Vec::with_capacity(threads);
    crossbeam::scope(|scope| {
        let mut handles = Vec::new();
        for (t, slice) in items.chunks(chunk).enumerate() {
            let f = &f;
            handles.push(scope.spawn(move |_| f(t * chunk, slice)));
        }
        for h in handles {
            out.push(h.join().unwrap_or_else(|payload| {
                // The worker panicked: report its chunk of points as an
                // engine error instead of propagating the unwind into the
                // caller's thread (and killing the remaining results).
                Err(worker_panic_error(payload))
            }));
        }
    })
    .expect("scope panicked");
    let mut results = Vec::with_capacity(items.len());
    for chunk_result in out {
        results.extend(chunk_result?);
    }
    Ok(results)
}

/// Converts a caught panic payload into [`EngineError::WorkerPanicked`],
/// preserving string payloads (the overwhelmingly common `panic!`/
/// `assert!` case).
fn worker_panic_error(payload: Box<dyn std::any::Any + Send>) -> EngineError {
    let detail = payload
        .downcast_ref::<&str>()
        .map(std::string::ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    EngineError::WorkerPanicked { detail }
}

/// Evaluates one worker's contiguous slice of the point space, in lanes of
/// `batch` points. Each lane tries one batched exact-expectation call;
/// when the backend cannot answer exactly (`Unsupported`) — or the
/// batched call panics or errors, so the blast radius must shrink to the
/// actually-faulty point — every point of the lane falls back to the
/// scalar [`run_point`] path, which resolves sampling and error semantics
/// per point. Point-level failures are contained into [`PointOutcome`]s —
/// a point whose binding [`check_binding`] rejects fails without running —
/// and only a deadline expiry (checked once per lane) aborts the slice.
fn run_slice(
    backend: &dyn Backend,
    circuit: &Circuit,
    lo: usize,
    slice: &[ParamMap],
    spec: &SweepSpec<'_>,
    batch: usize,
    ctx: Option<&QueryCtx>,
) -> Result<Vec<PointOutcome>, EngineError> {
    let plan = ctx.and_then(QueryCtx::faults).filter(|p| !p.is_noop());
    let mut out = Vec::with_capacity(slice.len());
    for (lane_index, lane) in slice.chunks(batch.max(1)).enumerate() {
        if let Some(c) = ctx {
            // Cooperative cancellation boundary: one clock read per lane.
            c.check_deadline()?;
        }
        // One relaxed load when telemetry is off; a lane-latency histogram
        // sample when on.
        let _lane_span = qkc_telemetry::span("sweep/worker/chunk");
        let base = lo + lane_index * batch.max(1);
        let lane_has_panic_point =
            plan.is_some_and(|p| (0..lane.len()).any(|j| p.panics_at((base + j) as u64, 0)));
        let checks: Vec<Result<(), EngineError>> =
            lane.iter().map(|p| check_binding(circuit, p)).collect();
        let batched: Option<Vec<f64>> = match spec.observable {
            // A lane containing a scheduled panic point or an invalid
            // binding skips the batched call entirely: its fault must fire
            // inside the per-point containment, not tear the whole lane's
            // evaluation.
            Some(obs)
                if lane.len() > 1 && !lane_has_panic_point && checks.iter().all(Result::is_ok) =>
            {
                match catch_unwind(AssertUnwindSafe(|| {
                    backend.expectation_batch(circuit, lane, obs)
                })) {
                    Ok(Ok(values)) => Some(values),
                    // Exact batched evaluation is unsupported: the scalar
                    // path repeats the (cheap) discovery per point and
                    // applies the shots/sampling fallback rules there.
                    Ok(Err(EngineError::Unsupported { .. })) => None,
                    // The deadline expired inside the backend: that is a
                    // sweep-global stop, not a per-point fault.
                    Ok(Err(e @ EngineError::DeadlineExceeded { .. })) => return Err(e),
                    // Any other batched error (or panic): retry the lane
                    // point by point, so healthy points still succeed —
                    // bit-identically, by the batched-kernel contract —
                    // and only the faulty ones are reported failed.
                    Ok(Err(_)) | Err(_) => None,
                }
            }
            _ => None,
        };
        for ((j, p), check) in lane.iter().enumerate().zip(checks) {
            let index = base + j;
            if let Err(error) = check {
                out.push(PointOutcome::Failed(SweepFailure { index, error }));
                continue;
            }
            let batched_value = batched.as_ref().map(|values| values[j]);
            out.push(eval_point(
                backend,
                circuit,
                index,
                p,
                spec,
                batched_value,
                plan,
            )?);
        }
    }
    Ok(out)
}

/// Evaluates one sweep point with failure containment: a panic (injected
/// via the [`FaultPlan`] panic schedule or genuine) is caught, the point
/// is retried once on a fresh scalar evaluation, and a second failure
/// becomes a typed [`SweepFailure`]. Typed backend errors fail the point
/// immediately (retrying a deterministic error cannot help). Only a
/// deadline expiry escapes as `Err` and stops the sweep.
fn eval_point(
    backend: &dyn Backend,
    circuit: &Circuit,
    index: usize,
    params: &ParamMap,
    spec: &SweepSpec<'_>,
    batched_value: Option<f64>,
    plan: Option<&FaultPlan>,
) -> Result<PointOutcome, EngineError> {
    for attempt in 0u32..=1 {
        // The retry always re-derives the point through the scalar path —
        // a fresh evaluation that owes nothing to the lane state the
        // first attempt died in. Bit-identical either way: batched
        // kernels and the scalar path agree to the last ulp by contract.
        let from_lane = batched_value.filter(|_| attempt == 0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = plan {
                if plan.panics_at(index as u64, attempt) {
                    qkc_telemetry::count(FaultSite::WorkerPanic.telemetry_path(), 1);
                    panic!(
                        "fault injection: worker panic at sweep point {index} (attempt {attempt})"
                    );
                }
            }
            match from_lane {
                Some(expectation) => {
                    let samples = if spec.keep_samples {
                        backend.sample(
                            circuit,
                            params,
                            spec.shots,
                            mix_seed(spec.seed, index as u64),
                        )?
                    } else {
                        Vec::new()
                    };
                    Ok(SweepPoint {
                        index,
                        expectation: Some(expectation),
                        exact: true,
                        samples,
                    })
                }
                None => run_point(backend, circuit, index, params, spec),
            }
        }));
        match result {
            Ok(Ok(point)) => return Ok(PointOutcome::Done(point)),
            Ok(Err(e @ EngineError::DeadlineExceeded { .. })) => return Err(e),
            Ok(Err(error)) => return Ok(PointOutcome::Failed(SweepFailure { index, error })),
            Err(payload) => {
                if attempt == 0 {
                    qkc_telemetry::count("sweep/point_retry", 1);
                    continue;
                }
                return Ok(PointOutcome::Failed(SweepFailure {
                    index,
                    error: worker_panic_error(payload),
                }));
            }
        }
    }
    unreachable!("the attempt loop always returns")
}

/// Evaluates one sweep point: exact expectation when the backend can,
/// sampled estimate (and/or raw samples) otherwise.
fn run_point(
    backend: &dyn Backend,
    circuit: &Circuit,
    index: usize,
    params: &ParamMap,
    spec: &SweepSpec<'_>,
) -> Result<SweepPoint, EngineError> {
    let point_seed = mix_seed(spec.seed, index as u64);
    let mut samples = Vec::new();
    let mut expectation = None;
    let mut exact = false;

    if let Some(obs) = spec.observable {
        match backend.probabilities(circuit, params) {
            Ok(probs) => {
                expectation = Some(
                    probs
                        .iter()
                        .enumerate()
                        .map(|(bits, &p)| p * obs(bits))
                        .sum(),
                );
                exact = true;
            }
            // Exact is unsupported here: fall through to a sampled
            // estimate — unless sampling was disabled (shots = 0), where
            // swallowing the error would leave the expectation silently
            // absent.
            Err(e @ EngineError::Unsupported { .. }) => {
                if spec.shots == 0 {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }

    let need_samples_for_expectation =
        spec.observable.is_some() && expectation.is_none() && spec.shots > 0;
    if spec.keep_samples || need_samples_for_expectation {
        samples = backend.sample(circuit, params, spec.shots, point_seed)?;
        if need_samples_for_expectation {
            // An empty draw has no estimate: erroring beats the old
            // `len().max(1)` division, which silently reported `Some(0.0)`.
            if samples.is_empty() {
                return Err(EngineError::NoSamples {
                    backend: backend.kind(),
                });
            }
            let obs = spec.observable.expect("checked above");
            expectation = Some(samples.iter().map(|&s| obs(s)).sum::<f64>() / samples.len() as f64);
        }
        if !spec.keep_samples {
            samples = Vec::new();
        }
    }

    Ok(SweepPoint {
        index,
        expectation,
        exact,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{KcBackend, StateVectorBackend};
    use crate::ArtifactCache;
    use qkc_circuit::{Circuit, Param};
    use qkc_core::KcOptions;
    use std::sync::Arc;

    fn rx_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.rx(0, Param::symbol("t")).cnot(0, 1);
        c
    }

    fn sweep_params(n: usize) -> Vec<ParamMap> {
        (0..n)
            .map(|i| ParamMap::from_pairs([("t", 0.2 + 0.1 * i as f64)]))
            .collect()
    }

    #[test]
    fn exact_expectations_match_the_closed_form() {
        let cache = Arc::new(ArtifactCache::new());
        let backend = KcBackend::new(cache.clone(), KcOptions::default());
        // P(|11>) = sin^2(t/2); observable = indicator of |11>.
        let obs = |bits: usize| if bits == 0b11 { 1.0 } else { 0.0 };
        let points = SweepExecutor::new(4)
            .run(
                &backend,
                &rx_circuit(),
                &sweep_params(9),
                &SweepSpec::expectation(&obs),
            )
            .unwrap();
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
            assert!(p.exact);
            let t = 0.2 + 0.1 * i as f64;
            let want = (t / 2.0).sin().powi(2);
            assert!((p.expectation.unwrap() - want).abs() < 1e-9);
        }
        assert_eq!(cache.misses(), 1, "whole sweep compiles once");
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let obs = |bits: usize| bits as f64;
        let mut noisy = rx_circuit();
        noisy.depolarize(0, 0.02);
        for backend in [true, false] {
            let cache = Arc::new(ArtifactCache::new());
            let kc;
            let sv;
            let b: &dyn Backend = if backend {
                kc = KcBackend::new(cache, KcOptions::default());
                &kc
            } else {
                sv = StateVectorBackend::new(1);
                &sv
            };
            let spec = SweepSpec {
                shots: 256,
                observable: Some(&obs),
                keep_samples: true,
                seed: 77,
            };
            let base = SweepExecutor::new(1)
                .run(b, &noisy, &sweep_params(7), &spec)
                .unwrap();
            for threads in [2, 3, 8] {
                let got = SweepExecutor::new(threads)
                    .run(b, &noisy, &sweep_params(7), &spec)
                    .unwrap();
                assert_eq!(base, got, "thread count must not change results");
            }
        }
    }

    #[test]
    fn results_are_identical_across_batch_widths() {
        // The acceptance contract of the batched kernel: chunking the
        // point space into lanes of k must not change a single bit of the
        // output, for any k and thread count, exact or sampled, pure or
        // noisy.
        let obs = |bits: usize| bits as f64 - 0.25;
        let pure = rx_circuit();
        let mut noisy = rx_circuit();
        noisy.depolarize(0, 0.02);
        for circuit in [&pure, &noisy] {
            let cache = Arc::new(ArtifactCache::new());
            let backend = KcBackend::new(cache, KcOptions::default());
            let spec = SweepSpec {
                shots: 64,
                observable: Some(&obs),
                keep_samples: true,
                seed: 5,
            };
            let base = SweepExecutor::new(1)
                .with_batch(1)
                .run(&backend, circuit, &sweep_params(10), &spec)
                .unwrap();
            assert!(base.iter().all(|p| p.exact));
            for threads in [1usize, 2, 3] {
                for batch in [1usize, 3, 8] {
                    let got = SweepExecutor::new(threads)
                        .with_batch(batch)
                        .run(&backend, circuit, &sweep_params(10), &spec)
                        .unwrap();
                    assert_eq!(
                        base, got,
                        "threads={threads} batch={batch} changed the sweep"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_fallback_matches_scalar_on_sampling_backends() {
        // State-vector cannot answer exact noisy expectations: the batched
        // lane falls back to per-point sampling, which must stay identical
        // across batch widths because seeds derive from (seed, index).
        let mut noisy = rx_circuit();
        noisy.depolarize(0, 0.03);
        let obs = |bits: usize| bits as f64;
        let spec = SweepSpec {
            shots: 128,
            observable: Some(&obs),
            keep_samples: true,
            seed: 11,
        };
        let backend = StateVectorBackend::new(1);
        let base = SweepExecutor::new(1)
            .with_batch(1)
            .run(&backend, &noisy, &sweep_params(7), &spec)
            .unwrap();
        assert!(base.iter().all(|p| !p.exact));
        for batch in [3usize, 8] {
            let got = SweepExecutor::new(2)
                .with_batch(batch)
                .run(&backend, &noisy, &sweep_params(7), &spec)
                .unwrap();
            assert_eq!(base, got, "batch={batch} changed the sampled sweep");
        }
    }

    /// A deliberately misbehaving backend for the failure-containment
    /// tests: panics on bindings whose `"t"` value matches `panic_on`, and
    /// optionally returns zero samples regardless of the shot count.
    struct FaultyBackend {
        panic_on: Option<f64>,
        empty_samples: bool,
    }

    impl Backend for FaultyBackend {
        fn kind(&self) -> crate::BackendKind {
            crate::BackendKind::StateVector
        }

        fn capabilities(&self) -> crate::Capabilities {
            crate::Capabilities {
                exact_pure: false,
                exact_noisy: false,
                sample_noisy: true,
                compile_once: false,
            }
        }

        fn probabilities(
            &self,
            _circuit: &Circuit,
            params: &ParamMap,
        ) -> Result<Vec<f64>, EngineError> {
            if let Some(bad) = self.panic_on {
                if params.get("t") == Some(bad) {
                    panic!("injected backend panic at t={bad}");
                }
            }
            Err(EngineError::Unsupported {
                backend: self.kind(),
                query: "exact probabilities".into(),
            })
        }

        fn sample(
            &self,
            _circuit: &Circuit,
            params: &ParamMap,
            shots: usize,
            _seed: u64,
        ) -> Result<Vec<usize>, EngineError> {
            if let Some(bad) = self.panic_on {
                if params.get("t") == Some(bad) {
                    panic!("injected backend panic at t={bad}");
                }
            }
            if self.empty_samples {
                return Ok(Vec::new());
            }
            Ok(vec![0; shots])
        }
    }

    #[test]
    fn worker_panic_becomes_an_engine_error_not_a_process_abort() {
        // Regression: a panicking sweep worker used to unwind through
        // `join().expect(...)` and take the whole process down. It must
        // instead surface as `WorkerPanicked` for the affected points
        // while the other workers' chunks still run to completion.
        let backend = FaultyBackend {
            // The exact float of params index 3 of sweep_params(8).
            panic_on: Some(0.2 + 0.1 * 3.0),
            empty_samples: false,
        };
        let obs = |bits: usize| bits as f64;
        let spec = SweepSpec {
            shots: 16,
            observable: Some(&obs),
            keep_samples: false,
            seed: 1,
        };
        for threads in [1usize, 4] {
            let result = SweepExecutor::new(threads).with_batch(1).run(
                &backend,
                &rx_circuit(),
                &sweep_params(8),
                &spec,
            );
            match result {
                Err(EngineError::WorkerPanicked { detail }) => {
                    assert!(
                        detail.contains("injected backend panic"),
                        "panic payload preserved: {detail}"
                    );
                }
                other => panic!("threads={threads}: expected WorkerPanicked, got {other:?}"),
            }
        }
        // Healthy points on the same backend still sweep fine.
        let healthy = SweepExecutor::new(4)
            .run(&backend, &rx_circuit(), &sweep_params(3), &spec)
            .expect("panic-free points succeed");
        assert_eq!(healthy.len(), 3);
    }

    #[test]
    fn run_report_keeps_healthy_points_and_types_the_failures() {
        // Per-point containment: the panicking point becomes a typed
        // failure, every other point's result survives.
        let backend = FaultyBackend {
            panic_on: Some(0.2 + 0.1 * 3.0),
            empty_samples: false,
        };
        let obs = |bits: usize| bits as f64;
        let spec = SweepSpec {
            shots: 16,
            observable: Some(&obs),
            keep_samples: false,
            seed: 1,
        };
        for threads in [1usize, 4] {
            let report = SweepExecutor::new(threads)
                .with_batch(1)
                .run_report(&backend, &rx_circuit(), &sweep_params(8), &spec)
                .unwrap();
            assert_eq!(report.failures.len(), 1, "threads={threads}");
            assert_eq!(report.failures[0].index, 3);
            assert!(matches!(
                report.failures[0].error,
                EngineError::WorkerPanicked { .. }
            ));
            let indices: Vec<usize> = report.points.iter().map(|p| p.index).collect();
            assert_eq!(indices, vec![0, 1, 2, 4, 5, 6, 7]);
            assert!(!report.is_complete());
        }
    }

    #[test]
    fn injected_panic_is_recovered_by_the_single_retry() {
        use crate::budget::QueryCtx;
        use crate::faults::FaultPlan;
        use crate::QueryBudget;

        let cache = Arc::new(ArtifactCache::new());
        let backend = KcBackend::new(cache, KcOptions::default());
        let obs = |bits: usize| if bits == 0b11 { 1.0 } else { 0.0 };
        let spec = SweepSpec::expectation(&obs);
        let clean = SweepExecutor::new(2)
            .run_report(&backend, &rx_circuit(), &sweep_params(6), &spec)
            .unwrap();
        assert!(clean.is_complete());

        // Default schedule panics on the first attempt only: the retry
        // recovers every point, byte-identically.
        let plan = FaultPlan::seeded(3).with_panic_at([1, 4]);
        let recovered = SweepExecutor::new(2)
            .with_ctx(Some(QueryCtx::new(QueryBudget::unlimited(), Some(plan))))
            .run_report(&backend, &rx_circuit(), &sweep_params(6), &spec)
            .unwrap();
        assert_eq!(clean, recovered, "retry must reproduce fault-free bytes");

        // Panicking on every attempt defeats the retry: those two points
        // become typed failures, the rest still match the clean run.
        let plan = FaultPlan::seeded(3)
            .with_panic_at([1, 4])
            .with_panic_every_attempt(true);
        let partial = SweepExecutor::new(2)
            .with_ctx(Some(QueryCtx::new(QueryBudget::unlimited(), Some(plan))))
            .run_report(&backend, &rx_circuit(), &sweep_params(6), &spec)
            .unwrap();
        let failed: Vec<usize> = partial.failures.iter().map(|f| f.index).collect();
        assert_eq!(failed, vec![1, 4]);
        for point in &partial.points {
            assert_eq!(
                Some(point),
                clean.points.iter().find(|p| p.index == point.index),
                "contained faults must not perturb surviving points"
            );
        }
    }

    #[test]
    fn expired_deadline_stops_the_sweep_with_a_typed_error() {
        use crate::budget::QueryCtx;
        use crate::QueryBudget;
        use std::time::Duration;

        let cache = Arc::new(ArtifactCache::new());
        let backend = KcBackend::new(cache, KcOptions::default());
        let obs = |bits: usize| bits as f64;
        let spec = SweepSpec::expectation(&obs);
        let ctx = QueryCtx::new(QueryBudget::unlimited().with_deadline(Duration::ZERO), None);
        std::thread::sleep(Duration::from_millis(1));
        let result = SweepExecutor::new(2).with_ctx(Some(ctx)).run_report(
            &backend,
            &rx_circuit(),
            &sweep_params(5),
            &spec,
        );
        assert!(
            matches!(result, Err(EngineError::DeadlineExceeded { .. })),
            "got {result:?}"
        );
    }

    #[test]
    fn zero_samples_is_an_error_not_a_zero_expectation() {
        // Regression: the sampled-estimate path divided by
        // `samples.len().max(1)`, silently reporting `Some(0.0)` when a
        // backend produced no samples.
        let backend = FaultyBackend {
            panic_on: None,
            empty_samples: true,
        };
        let obs = |bits: usize| bits as f64 + 1.0;
        let spec = SweepSpec {
            shots: 64,
            observable: Some(&obs),
            keep_samples: false,
            seed: 2,
        };
        let result = SweepExecutor::new(1).run(&backend, &rx_circuit(), &sweep_params(2), &spec);
        assert!(
            matches!(result, Err(EngineError::NoSamples { .. })),
            "got {result:?}"
        );
    }

    #[test]
    fn zero_shot_sweeps_error_when_exact_is_unsupported() {
        // shots = 0 with an observable on a sampling-only backend has no
        // way to produce an expectation: the error must surface instead of
        // a silently absent (or zero) value.
        let mut noisy = rx_circuit();
        noisy.depolarize(0, 0.02);
        let obs = |bits: usize| bits as f64;
        let spec = SweepSpec {
            shots: 0,
            observable: Some(&obs),
            keep_samples: false,
            seed: 3,
        };
        let backend = StateVectorBackend::new(1);
        let result = SweepExecutor::new(2).run(&backend, &noisy, &sweep_params(4), &spec);
        assert!(
            matches!(result, Err(EngineError::Unsupported { .. })),
            "got {result:?}"
        );
    }

    #[test]
    fn empty_sweep_is_empty() {
        let backend = StateVectorBackend::new(1);
        let points = SweepExecutor::new(4)
            .run(&backend, &rx_circuit(), &[], &SweepSpec::samples(16))
            .unwrap();
        assert!(points.is_empty());
    }

    #[test]
    fn sampled_estimates_are_used_when_exact_is_unsupported() {
        // State-vector backend cannot do exact noisy probabilities; the
        // executor falls back to trajectory sampling.
        let mut noisy = rx_circuit();
        noisy.depolarize(0, 0.01);
        let obs = |bits: usize| if bits == 0b11 { 1.0 } else { 0.0 };
        let spec = SweepSpec {
            shots: 4000,
            observable: Some(&obs),
            keep_samples: false,
            seed: 3,
        };
        let backend = StateVectorBackend::new(1);
        let points = SweepExecutor::new(2)
            .run(&backend, &noisy, &sweep_params(3), &spec)
            .unwrap();
        for (i, p) in points.iter().enumerate() {
            assert!(!p.exact);
            let t = 0.2 + 0.1 * i as f64;
            let want = (t / 2.0).sin().powi(2);
            assert!(
                (p.expectation.unwrap() - want).abs() < 0.05,
                "point {i}: {} vs {want}",
                p.expectation.unwrap()
            );
        }
    }
}

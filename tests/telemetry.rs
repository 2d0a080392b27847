//! Telemetry integration tests: the observability contract end to end.
//!
//! * Enabling telemetry must not change a single output bit — sweeps and
//!   gradients are compared bitwise across thread counts and batch widths
//!   with the flag on and off.
//! * Snapshots must be internally consistent even while many threads
//!   record concurrently: well-formed sorted-unique paths, histogram
//!   counts that equal their bucket sums, and counters that only grow.
//! * `Planner::explain` must agree with `Planner::plan` on every circuit,
//!   because the explanation *is* the planning decision, annotated.
//!
//! The enable flag is process-global, so every test that flips it holds a
//! file-local mutex (and restores the previous state before releasing it).

use qkc::circuit::{Circuit, Param, ParamMap};
use qkc::engine::{
    ArtifactCache, Backend, BackendKind, Engine, EngineOptions, KcBackend, PlanHint, Planner,
    SweepExecutor, SweepPoint, SweepSpec,
};
use qkc::telemetry;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes tests that touch the process-global telemetry flag/registry.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Restores the prior enable state when a test body returns or panics.
struct FlagGuard(bool);

impl FlagGuard {
    fn set(on: bool) -> Self {
        Self(telemetry::set_enabled(on))
    }
}

impl Drop for FlagGuard {
    fn drop(&mut self) {
        telemetry::set_enabled(self.0);
    }
}

fn noisy_sweep_circuit() -> Circuit {
    let mut c = Circuit::new(3);
    c.h(0)
        .rx(0, Param::symbol("theta"))
        .depolarize(0, 0.02)
        .cnot(0, 1)
        .rx(1, Param::symbol("theta"))
        .phase_damp(1, 0.1)
        .cnot(1, 2);
    c
}

fn sweep_params(n: usize) -> Vec<ParamMap> {
    (0..n)
        .map(|i| ParamMap::from_pairs([("theta", 0.15 + 0.07 * i as f64)]))
        .collect()
}

fn run_sweep(enabled: bool, threads: usize, batch: usize) -> Vec<SweepPoint> {
    let _flag = FlagGuard::set(enabled);
    let backend = KcBackend::new(Arc::new(ArtifactCache::new()), Default::default());
    let obs = |bits: usize| bits as f64 - 0.5;
    let spec = SweepSpec {
        shots: 64,
        observable: Some(&obs),
        keep_samples: true,
        seed: 41,
    };
    SweepExecutor::new(threads)
        .with_batch(batch)
        .run(&backend, &noisy_sweep_circuit(), &sweep_params(24), &spec)
        .expect("sweep")
}

#[test]
fn enabling_telemetry_never_changes_sweep_results() {
    let _guard = lock();
    let want = run_sweep(false, 1, 1);
    for threads in [1usize, 2, 4] {
        for batch in [1usize, 16] {
            let off = run_sweep(false, threads, batch);
            let on = run_sweep(true, threads, batch);
            assert_eq!(
                off, want,
                "threads={threads} batch={batch}: disabled run diverged"
            );
            assert_eq!(
                on, want,
                "threads={threads} batch={batch}: enabled run diverged"
            );
            // PartialEq on f64 admits 0.0 == -0.0; the contract is bitwise.
            for (a, b) in on.iter().zip(&want) {
                match (a.expectation, b.expectation) {
                    (Some(x), Some(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                    (x, y) => assert_eq!(x, y),
                }
            }
        }
    }
}

#[test]
fn enabling_telemetry_never_changes_gradients() {
    let _guard = lock();
    let mut c = Circuit::new(2);
    c.h(0)
        .zz(0, 1, Param::symbol("g"))
        .rx(0, Param::symbol("b0"))
        .rx(1, Param::symbol("b1"));
    let params = ParamMap::from_pairs([("g", 0.45), ("b0", 0.25), ("b1", 0.31)]);
    let obs = |bits: usize| bits.count_ones() as f64;
    let grad = |enabled: bool, threads: usize| {
        let _flag = FlagGuard::set(enabled);
        let engine = Engine::with_options(
            EngineOptions::default()
                .with_backend(BackendKind::KnowledgeCompilation)
                .with_threads(threads),
        );
        engine.gradient(&c, &params, &obs, None).expect("gradient")
    };
    let want = grad(false, 1);
    for threads in [1usize, 2, 4] {
        let on = grad(true, threads);
        assert_eq!(on.value.to_bits(), want.value.to_bits());
        assert_eq!(on.gradient.len(), want.gradient.len());
        for (a, b) in on.gradient.iter().zip(&want.gradient) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "threads={threads}: gradient diverged under telemetry"
            );
        }
    }
}

/// A disabled engine records nothing, even on its busiest cache path: a
/// 1-byte budget evicts every artifact right after it lands, so each
/// query after the first compile rehydrates from the spill directory.
#[test]
fn a_disabled_engine_records_nothing() {
    use qkc::engine::CacheOptions;
    use qkc::workloads::{Graph, QaoaMaxCut};

    let _guard = lock();
    let _flag = FlagGuard::set(false);
    let dir = std::env::temp_dir().join(format!("qkc-telemetry-off-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let engine = Engine::with_options(
        EngineOptions::default()
            .with_backend(BackendKind::KnowledgeCompilation)
            .with_threads(2)
            .with_cache(
                CacheOptions::default()
                    .with_max_resident_bytes(1)
                    .with_spill_dir(&dir),
            ),
    );
    let qaoa = QaoaMaxCut::new(Graph::random_regular(6, 3, 3), 1);
    let circuit = qaoa.circuit();
    let obs = qaoa.cut_observable();
    let params: Vec<ParamMap> = (0..32)
        .map(|i| qaoa.params(&[0.3 + 0.002 * i as f64], &[0.25 + 0.001 * i as f64]))
        .collect();

    let before = telemetry::snapshot();
    let points = engine
        .sweep(
            &circuit,
            &params,
            &SweepSpec::expectation(&obs).with_seed(1),
        )
        .expect("sweep");
    engine
        .gradient(&circuit, &params[0], &obs, None)
        .expect("gradient");
    engine.sample(&circuit, &params[1], 64, 3).expect("sample");
    assert_eq!(
        telemetry::snapshot(),
        before,
        "disabled telemetry recorded something"
    );

    assert_eq!(points.len(), params.len());
    let stats = engine.cache().stats();
    assert_eq!(stats.misses, 1, "the spill tier absorbs every re-request");
    assert!(stats.evictions > 0, "a 1-byte budget must evict: {stats:?}");
    assert!(
        stats.spill_hits > 0,
        "evicted artifacts must rehydrate: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gibbs_pass_mix_is_counted_and_never_changes_samples() {
    let _guard = lock();
    let circuit = noisy_sweep_circuit();
    let params = ParamMap::from_pairs([("theta", 0.7)]);
    let (warmup, thin, shots) = (100u64, 2u64, 500u64);
    let sample = |enabled: bool| {
        let _flag = FlagGuard::set(enabled);
        // A zero enumeration budget sends the noisy circuit to the Gibbs
        // chain instead of exact probabilities plus alias draws.
        KcBackend::new(Arc::new(ArtifactCache::new()), Default::default())
            .with_max_exact_log2_branches(0.0)
            .with_gibbs(warmup as usize, thin as usize)
            .sample(&circuit, &params, shots as usize, 17)
            .expect("gibbs sample")
    };
    let off = sample(false);
    telemetry::reset();
    let on = sample(true);
    assert_eq!(on, off, "telemetry changed the Gibbs samples");

    let snap = telemetry::snapshot();
    let get = |path: &str| snap.counter(path).unwrap_or(0);
    let steps = get("gibbs/steps");
    assert_eq!(
        steps,
        warmup + shots * thin,
        "every transition is counted once"
    );
    assert_eq!(
        get("gibbs/held")
            + get("gibbs/pass/delta")
            + get("gibbs/pass/full")
            + get("gibbs/mh/proposed"),
        steps,
        "each transition is exactly one of held, delta, full or MH proposal"
    );
    assert!(
        get("gibbs/mh/proposed") > 0,
        "default options propose MH moves"
    );
    assert!(get("gibbs/mh/accepted") <= get("gibbs/mh/proposed"));
    // Rejections at the density bound are proposals that ran no pass.
    assert!(get("gibbs/mh/bounded") <= get("gibbs/mh/proposed"));
    // One chain: a full pass for its first update, then only after an
    // accepted proposal — rejected proposals never cost one.
    assert!(get("gibbs/pass/full") <= 1 + get("gibbs/mh/accepted"));
    telemetry::reset();
}

#[test]
fn snapshots_stay_consistent_under_concurrent_recording() {
    let _guard = lock();
    let _flag = FlagGuard::set(true);
    telemetry::reset();

    // Four threads, four distinct structures, all through one shared
    // cache: compiles, hits, sweeps, and plans all record concurrently
    // while the main thread snapshots mid-flight.
    let engine = Arc::new(Engine::with_options(
        EngineOptions::default().with_backend(BackendKind::KnowledgeCompilation),
    ));
    let obs = |bits: usize| bits as f64;
    let mut handles = Vec::new();
    for t in 0..4usize {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let mut c = Circuit::new(2);
            c.h(0).rx(0, Param::symbol("theta")).cnot(0, 1);
            for _ in 0..t {
                c.t(1); // distinct structural hash per thread
            }
            for round in 0..3 {
                let params = sweep_params(8);
                let spec = SweepSpec::expectation(&obs).with_seed(round);
                engine.sweep(&c, &params, &spec).expect("sweep");
            }
        }));
    }

    // Counters must be monotone across successive snapshots, including
    // ones taken while the workers are still recording.
    let mut last: Vec<(String, u64)> = Vec::new();
    let mut check = |snap: &telemetry::Snapshot| {
        let now: Vec<(String, u64)> = snap
            .counters
            .iter()
            .map(|c| (c.path.clone(), c.value))
            .collect();
        for (path, value) in &last {
            let current = snap.counter(path).unwrap_or(0);
            assert!(
                current >= *value,
                "{path} went backwards: {value} -> {current}"
            );
        }
        last = now;
    };
    for _ in 0..8 {
        let snap = telemetry::snapshot();
        check(&snap);
        std::thread::yield_now();
    }
    for h in handles {
        h.join().expect("worker");
    }
    let snap = telemetry::snapshot();
    check(&snap);

    // Structural invariants of the final snapshot.
    assert!(snap.counter("cache/miss").unwrap_or(0) >= 4);
    assert!(snap.counter("sweep/points").unwrap_or(0) >= 4 * 3 * 8);
    // Batched binds record their lane occupancy: every sweep point rides
    // a batch lane, so accumulated width covers the points, and the
    // rendered tree carries the occupancy footer derived from it.
    assert!(
        snap.counter("kernel/batch/width").unwrap_or(0) >= snap.counter("sweep/points").unwrap(),
        "batched binds must record kernel/batch/width"
    );
    assert!(
        snap.render_tree().contains("lane occupancy"),
        "occupancy note missing from the snapshot tree"
    );
    for stats in snap.spans.iter().chain(&snap.sizes) {
        assert!(
            telemetry::path_is_well_formed(&stats.path),
            "malformed path {:?}",
            stats.path
        );
        let bucket_total: u64 = stats.buckets.iter().map(|b| b.count).sum();
        assert_eq!(
            stats.count, bucket_total,
            "{}: histogram count must equal its bucket sum",
            stats.path
        );
    }
    for c in &snap.counters {
        assert!(telemetry::path_is_well_formed(&c.path));
    }
    for family in [
        snap.spans.iter().map(|s| &s.path).collect::<Vec<_>>(),
        snap.sizes.iter().map(|s| &s.path).collect::<Vec<_>>(),
        snap.counters.iter().map(|c| &c.path).collect::<Vec<_>>(),
    ] {
        for pair in family.windows(2) {
            assert!(pair[0] < pair[1], "paths must be sorted and unique");
        }
    }
    telemetry::reset();
}

/// `kernel/batch/remainder_lanes` counts dead lanes at the block width
/// the kernels actually run: a 4-point lane fills one narrow 4-lane block,
/// and 5 points switch to one 8-lane block with 3 dead lanes.
#[test]
fn remainder_lanes_are_counted_at_the_chosen_block_width() {
    let _guard = lock();
    let _flag = FlagGuard::set(true);
    let sim = qkc::kc::KcSimulator::compile(&noisy_sweep_circuit(), &Default::default());
    let lanes_after_bind = |k: usize| {
        telemetry::reset();
        sim.bind_batch(&sweep_params(k)).expect("bind");
        let snap = telemetry::snapshot();
        (
            snap.counter("kernel/batch/width").unwrap_or(0),
            snap.counter("kernel/batch/remainder_lanes").unwrap_or(0),
        )
    };
    assert_eq!(lanes_after_bind(4), (4, 0), "k=4 fills a narrow block");
    assert_eq!(lanes_after_bind(5), (5, 3), "k=5 pads an 8-lane block");
    telemetry::reset();
}

#[test]
fn resilience_counters_and_retry_latency_are_recorded() {
    use qkc::engine::{CacheOptions, EngineError, FaultPlan, QueryBudget};
    use std::time::Duration;

    let _guard = lock();
    let _flag = FlagGuard::set(true);
    telemetry::reset();

    let scratch = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("qkc-telemetry-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    };
    let kc_engine = |options: EngineOptions| {
        Engine::with_options(options.with_backend(BackendKind::KnowledgeCompilation))
    };
    let obs = |bits: usize| bits as f64;
    let circuit = noisy_sweep_circuit();
    let params = sweep_params(6);
    let spec = SweepSpec::expectation(&obs);

    // Transient spill-write failure, an injected first-attempt worker
    // panic, and a per-phase compile delay — all recovered, all counted.
    let retry_dir = scratch("retry");
    kc_engine(
        EngineOptions::default()
            .with_cache(CacheOptions::default().with_spill_dir(&retry_dir))
            .with_fault_plan(
                FaultPlan::seeded(31)
                    .with_spill_write_fail_first(1)
                    .with_panic_at([0])
                    .with_compile_delay_secs(0.0005),
            ),
    )
    .sweep(&circuit, &params, &spec)
    .expect("every injected fault here is recoverable");

    // Permanent spill-write failure: retries exhaust, the cache degrades.
    let degrade_dir = scratch("degrade");
    kc_engine(
        EngineOptions::default()
            .with_cache(CacheOptions::default().with_spill_dir(&degrade_dir))
            .with_fault_plan(FaultPlan::seeded(32).with_spill_write_rate(1.0)),
    )
    .sweep(&circuit, &params, &spec)
    .expect("degradation is a caching mode, not a query failure");

    // A corrupt spill file: quarantined on first touch.
    let quarantine_dir = scratch("quarantine");
    kc_engine(
        EngineOptions::default()
            .with_cache(CacheOptions::default().with_spill_dir(&quarantine_dir)),
    )
    .sweep(&circuit, &params, &spec)
    .expect("clean warm-up run");
    for f in std::fs::read_dir(&quarantine_dir).expect("spill dir") {
        let path = f.expect("entry").path();
        let mut bytes = std::fs::read(&path).expect("spill bytes");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupt spill file");
    }
    kc_engine(
        EngineOptions::default()
            .with_cache(CacheOptions::default().with_spill_dir(&quarantine_dir)),
    )
    .sweep(&circuit, &params, &spec)
    .expect("quarantine costs one recompile, not the query");

    // An already-expired deadline: the typed error ticks its counter.
    std::thread::sleep(Duration::from_millis(1));
    let expired = kc_engine(
        EngineOptions::default()
            .with_budget(QueryBudget::unlimited().with_deadline(Duration::ZERO)),
    )
    .sweep(&circuit, &params, &spec);
    assert!(matches!(expired, Err(EngineError::DeadlineExceeded { .. })));

    let snap = telemetry::snapshot();
    for counter in [
        "fault/injected/spill_write",
        "fault/injected/worker_panic",
        "fault/injected/compile_delay",
        "cache/spill/retry",
        "cache/spill/quarantined",
        "sweep/point_retry",
        "budget/deadline_exceeded",
    ] {
        assert!(
            snap.counter(counter).unwrap_or(0) >= 1,
            "{counter} was never ticked"
        );
    }
    assert_eq!(
        snap.counter("cache/spill/degraded"),
        Some(1),
        "degradation latches once, not per retry"
    );
    let retry_latency = snap
        .spans
        .iter()
        .find(|s| s.path == "cache/spill/retry_latency")
        .expect("retried spill I/O records its latency");
    assert!(retry_latency.count >= 1);

    for dir in [retry_dir, degrade_dir, quarantine_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
    telemetry::reset();
}

#[test]
fn planner_explain_agrees_with_plan_on_random_circuits() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    let planner = Planner::new();
    for trial in 0..40 {
        let n = rng.gen_range(2usize..14);
        let gates = rng.gen_range(4usize..40);
        let mut c = Circuit::new(n);
        for _ in 0..gates {
            let q = rng.gen_range(0usize..n);
            match rng.gen_range(0usize..5) {
                0 => {
                    c.h(q);
                }
                1 => {
                    c.t(q);
                }
                2 => {
                    c.rx(q, 0.1 + rng.gen::<f64>());
                }
                3 => {
                    let p = rng.gen_range(0usize..n - 1);
                    c.cnot(p, p + 1);
                }
                _ => {
                    c.depolarize(q, 0.01);
                }
            }
        }
        for hint in [PlanHint::SingleShot, PlanHint::ParameterSweep] {
            let plan = planner.plan(&c, hint);
            let explanation = planner.explain(&c, hint);
            assert_eq!(
                explanation.chosen, plan.backend,
                "trial {trial}: explain chose a different backend than plan"
            );
            assert_eq!(explanation.reason, plan.reason, "trial {trial}");
            assert_eq!(explanation.candidates.len(), 4, "trial {trial}");
            let chosen = explanation
                .candidates
                .iter()
                .find(|cand| cand.backend == explanation.chosen)
                .expect("chosen backend appears among the candidates");
            assert!(
                chosen.feasible,
                "trial {trial}: chose an infeasible backend"
            );
        }
    }
}

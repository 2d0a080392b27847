//! Engine integration tests: the planner-selected backend must agree with
//! explicitly chosen ground-truth simulators, the artifact cache must
//! compile each structure exactly once, and parallel sweeps must be
//! deterministic in their seed regardless of thread count.

use qkc::circuit::{Circuit, Param, ParamMap};
use qkc::densitymatrix::DensityMatrixSimulator;
use qkc::engine::{
    BackendKind, Engine, EngineOptions, KcBackend, PlanHint, SweepExecutor, SweepSpec,
};
use qkc::statevector::StateVectorSimulator;
use std::sync::Arc;

fn bell() -> Circuit {
    let mut c = Circuit::new(2);
    c.h(0).cnot(0, 1);
    c
}

fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cnot(q, q + 1);
    }
    c
}

fn noisy_rx() -> Circuit {
    let mut c = Circuit::new(2);
    c.rx(0, Param::symbol("theta"))
        .depolarize(0, 0.05)
        .cnot(0, 1)
        .phase_damp(1, 0.2);
    c
}

// ---------------------------------------------------------------------------
// Cross-backend equivalence
// ---------------------------------------------------------------------------

#[test]
fn engine_matches_state_vector_on_pure_circuits() {
    let engine = Engine::new();
    let sv = StateVectorSimulator::new();
    for circuit in [bell(), ghz(3), ghz(5)] {
        let want = sv.probabilities(&circuit, &ParamMap::new()).unwrap();
        let got = engine.probabilities(&circuit, &ParamMap::new()).unwrap();
        assert_eq!(got.len(), want.len());
        for (x, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-9, "P({x}): {g} vs {w}");
        }
    }
}

#[test]
fn engine_matches_density_matrix_on_noisy_circuits() {
    let engine = Engine::new();
    let dm = DensityMatrixSimulator::new();
    for theta in [0.4, 1.3, 2.8] {
        let params = ParamMap::from_pairs([("theta", theta)]);
        let want = dm.probabilities(&noisy_rx(), &params).unwrap();
        let got = engine.probabilities(&noisy_rx(), &params).unwrap();
        for (x, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-9, "theta {theta}, P({x}): {g} vs {w}");
        }
    }
}

#[test]
fn every_capable_backend_agrees_on_every_probe_circuit() {
    // Force each backend in turn; all must tell the same story within
    // their capability envelope.
    let params = ParamMap::from_pairs([("theta", 0.9)]);
    for circuit in [bell(), ghz(4), noisy_rx()] {
        let reference =
            Engine::with_options(EngineOptions::default().with_backend(BackendKind::DensityMatrix))
                .probabilities(&circuit, &params)
                .unwrap();
        for kind in [
            BackendKind::KnowledgeCompilation,
            BackendKind::StateVector,
            BackendKind::TensorNetwork,
        ] {
            let engine = Engine::with_options(EngineOptions::default().with_backend(kind));
            match engine.probabilities(&circuit, &params) {
                Ok(got) => {
                    for (x, (&g, &w)) in got.iter().zip(&reference).enumerate() {
                        assert!((g - w).abs() < 1e-9, "{kind:?} P({x}): {g} vs {w}");
                    }
                }
                Err(qkc::engine::EngineError::Unsupported { .. }) => {
                    assert!(
                        circuit.is_noisy(),
                        "{kind:?} must support exact pure probabilities"
                    );
                }
                Err(e) => panic!("{kind:?}: unexpected error {e}"),
            }
        }
    }
}

#[test]
fn sampled_distributions_match_exact_distributions() {
    let engine = Engine::new();
    let params = ParamMap::from_pairs([("theta", 1.1)]);
    let exact = engine.probabilities(&noisy_rx(), &params).unwrap();
    let shots = 40_000;
    let samples = engine.sample(&noisy_rx(), &params, shots, 5).unwrap();
    let mut counts = vec![0usize; exact.len()];
    for s in samples {
        counts[s] += 1;
    }
    for (x, (&c, &p)) in counts.iter().zip(&exact).enumerate() {
        assert!(
            (c as f64 / shots as f64 - p).abs() < 0.02,
            "P({x}): sampled {} vs exact {p}",
            c as f64 / shots as f64
        );
    }
}

#[test]
fn gibbs_fallback_matches_density_matrix_on_unenumerable_noise() {
    // Depolarizing after every gate pushes the joint noise space far past
    // the enumeration budget; the KC backend must fall back to Gibbs
    // sampling and still match the exact diagonal statistically.
    use qkc::circuit::NoiseChannel;
    use qkc::workloads::{Graph, QaoaMaxCut};
    let qaoa = QaoaMaxCut::new(Graph::cycle(3), 1);
    let noisy = qaoa
        .circuit()
        .with_noise_after_each_gate(&NoiseChannel::depolarizing(0.005));
    let params = qaoa.default_params();
    let want = DensityMatrixSimulator::new()
        .probabilities(&noisy, &params)
        .unwrap();
    let engine = Engine::with_options(
        EngineOptions::default().with_backend(BackendKind::KnowledgeCompilation),
    );
    assert!(
        engine.probabilities(&noisy, &params).is_err(),
        "exact probabilities must be refused past the enumeration budget"
    );
    let shots = 30_000;
    let samples = engine.sample(&noisy, &params, shots, 19).unwrap();
    let mut counts = [0usize; 8];
    for s in samples {
        counts[s] += 1;
    }
    for (x, (&c, &p)) in counts.iter().zip(&want).enumerate() {
        assert!(
            (c as f64 / shots as f64 - p).abs() < 0.02,
            "P({x}): gibbs {} vs exact {p}",
            c as f64 / shots as f64
        );
    }
}

// ---------------------------------------------------------------------------
// Cache semantics
// ---------------------------------------------------------------------------

#[test]
fn same_structure_different_params_compiles_once() {
    let engine = Engine::new();
    for i in 0..20 {
        let params = ParamMap::from_pairs([("theta", 0.1 * i as f64)]);
        engine.probabilities(&noisy_rx(), &params).unwrap();
    }
    assert_eq!(engine.cache().misses(), 1, "one structure, one compile");
    assert_eq!(engine.cache().hits(), 19);

    // A sweep after the first query rides that compile too, on one worker
    // or fanned out over eight.
    let points: Vec<ParamMap> = (0..64)
        .map(|i| ParamMap::from_pairs([("theta", 0.3 + 0.001 * i as f64)]))
        .collect();
    let obs = |bits: usize| bits as f64;
    for threads in [1usize, 8] {
        let engine = Engine::with_options(EngineOptions::default().with_threads(threads));
        engine
            .expectation(&noisy_rx(), &points[0], &obs, 0, 1)
            .unwrap();
        let swept = engine
            .sweep(
                &noisy_rx(),
                &points,
                &SweepSpec::expectation(&obs).with_seed(1),
            )
            .unwrap();
        assert_eq!(swept.len(), points.len());
        assert_eq!(
            engine.cache().misses(),
            1,
            "threads={threads}: a sweep must not recompile"
        );
    }
}

#[test]
fn changed_structure_recompiles() {
    let engine = Engine::new();
    let params = ParamMap::from_pairs([("theta", 0.5)]);
    engine.probabilities(&noisy_rx(), &params).unwrap();
    let mut widened = noisy_rx();
    widened.h(1);
    engine.probabilities(&widened, &params).unwrap();
    assert_eq!(engine.cache().misses(), 2, "new structure, new compile");
    // And going back to the first structure is a hit, not a recompile.
    engine.probabilities(&noisy_rx(), &params).unwrap();
    assert_eq!(engine.cache().misses(), 2);
}

#[test]
fn renaming_a_symbol_is_a_structural_change() {
    // Forced onto the compiled backend: a 1-qubit pure circuit would
    // otherwise plan to the state vector and never touch the cache.
    let engine = Engine::with_options(
        EngineOptions::default().with_backend(BackendKind::KnowledgeCompilation),
    );
    let mut a = Circuit::new(1);
    a.rx(0, Param::symbol("alpha"));
    let mut b = Circuit::new(1);
    b.rx(0, Param::symbol("beta"));
    engine
        .probabilities(&a, &ParamMap::from_pairs([("alpha", 0.3)]))
        .unwrap();
    engine
        .probabilities(&b, &ParamMap::from_pairs([("beta", 0.3)]))
        .unwrap();
    assert_eq!(engine.cache().misses(), 2);
}

// ---------------------------------------------------------------------------
// Sweep determinism
// ---------------------------------------------------------------------------

#[test]
fn sweep_results_are_independent_of_thread_count() {
    let backend = KcBackend::new(
        Arc::new(qkc::engine::ArtifactCache::new()),
        Default::default(),
    );
    let params: Vec<ParamMap> = (0..13)
        .map(|i| ParamMap::from_pairs([("theta", 0.17 * i as f64)]))
        .collect();
    let obs = |bits: usize| bits as f64;
    let spec = SweepSpec {
        shots: 200,
        observable: Some(&obs),
        keep_samples: true,
        seed: 42,
    };
    let reference = SweepExecutor::new(1)
        .run(&backend, &noisy_rx(), &params, &spec)
        .unwrap();
    assert_eq!(reference.len(), params.len());
    for threads in [2, 4, 7, 16] {
        let got = SweepExecutor::new(threads)
            .run(&backend, &noisy_rx(), &params, &spec)
            .unwrap();
        assert_eq!(reference, got, "results changed at {threads} threads");
    }
}

#[test]
fn sweep_seed_actually_matters() {
    let engine = Engine::new();
    let params: Vec<ParamMap> = (1..5)
        .map(|i| ParamMap::from_pairs([("theta", 0.5 * i as f64)]))
        .collect();
    let a = engine
        .sweep(&noisy_rx(), &params, &SweepSpec::samples(64).with_seed(1))
        .unwrap();
    let b = engine
        .sweep(&noisy_rx(), &params, &SweepSpec::samples(64).with_seed(2))
        .unwrap();
    assert_ne!(a, b, "different seeds must give different sample streams");
}

#[test]
fn sweep_points_preserve_input_order() {
    let engine = Engine::new();
    let params: Vec<ParamMap> = (0..11)
        .map(|i| ParamMap::from_pairs([("theta", 0.3 * i as f64)]))
        .collect();
    let obs = |bits: usize| if bits == 0b11 { 1.0 } else { 0.0 };
    let points = engine
        .sweep(
            &{
                let mut c = Circuit::new(2);
                c.rx(0, Param::symbol("theta")).cnot(0, 1);
                c
            },
            &params,
            &SweepSpec::expectation(&obs),
        )
        .unwrap();
    for (i, p) in points.iter().enumerate() {
        assert_eq!(p.index, i);
        let want = (0.3 * i as f64 / 2.0).sin().powi(2);
        assert!((p.expectation.unwrap() - want).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Planner behavior through the facade
// ---------------------------------------------------------------------------

#[test]
fn planner_routes_by_shape_and_override_wins() {
    let engine = Engine::new();
    // Pure, small, single-shot: state vector.
    assert_eq!(
        engine.plan_with_hint(&ghz(5), PlanHint::SingleShot).backend,
        BackendKind::StateVector
    );
    // Noisy with few events: knowledge compilation, exactly.
    assert_eq!(
        engine.plan(&noisy_rx()).backend,
        BackendKind::KnowledgeCompilation
    );
    // Override.
    let forced =
        Engine::with_options(EngineOptions::default().with_backend(BackendKind::StateVector));
    assert_eq!(forced.plan(&noisy_rx()).backend, BackendKind::StateVector);
    let kc_backend = forced.backend(BackendKind::KnowledgeCompilation);
    assert_eq!(kc_backend.kind(), BackendKind::KnowledgeCompilation);
}

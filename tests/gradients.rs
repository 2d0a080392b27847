//! End-to-end tests of the engine's gradient queries and gradient-based
//! variational loops: one-pass analytic gradients cross-checked against
//! the parameter-shift rule and finite-difference references on random
//! pure and noisy circuits, bit-for-bit determinism across thread counts
//! and batch widths, compile-once economics across whole optimizer runs,
//! and the QAOA-ring / VQE-Ising optimizer comparison at equal
//! evaluation budget.

use proptest::prelude::*;
use qkc::circuit::{Circuit, Param, ParamMap};
use qkc::engine::{
    ArtifactCache, Backend, BackendKind, Engine, EngineOptions, GradientMethod, GradientOptimizer,
    GradientSpec, KcBackend, VariationalConfig, VariationalGradientConfig, FD_STEP,
};
use qkc::kc::KcOptions;
use qkc::optim::{Adam, NelderMead, Spsa};
use qkc::workloads::{Graph, QaoaMaxCut, VqeIsing};
use std::sync::Arc;

/// A random parameterized instruction over two shared symbols, so symbols
/// repeat across gates and the general (order > 1) shift rule is
/// exercised, including the half-frequency controlled-rotation rule.
#[derive(Debug, Clone)]
enum Instr {
    H(usize),
    T(usize),
    RxA(usize),
    RyB(usize),
    RzA(usize),
    PhaseB(usize),
    Cnot(usize, usize),
    ZzB(usize, usize),
    CrzA(usize, usize),
}

fn arb_instr(n: usize) -> impl Strategy<Value = Instr> {
    let q = 0..n;
    let q2 = 0..n;
    (0usize..9, q, q2).prop_map(move |(kind, a, b)| {
        let b = if a == b { (b + 1) % n } else { b };
        match kind {
            0 => Instr::H(a),
            1 => Instr::T(a),
            2 => Instr::RxA(a),
            3 => Instr::RyB(a),
            4 => Instr::RzA(a),
            5 => Instr::PhaseB(a),
            6 => Instr::Cnot(a, b),
            7 => Instr::ZzB(a, b),
            _ => Instr::CrzA(a, b),
        }
    })
}

fn build(n: usize, instrs: &[Instr], noisy: bool) -> Circuit {
    let mut c = Circuit::new(n);
    for i in instrs {
        match *i {
            Instr::H(a) => c.h(a),
            Instr::T(a) => c.t(a),
            Instr::RxA(a) => c.rx(a, Param::symbol("a")),
            Instr::RyB(a) => c.ry(a, Param::symbol("b")),
            Instr::RzA(a) => c.rz(a, Param::symbol("a")),
            Instr::PhaseB(a) => c.phase(a, Param::symbol("b")),
            Instr::Cnot(a, b) => c.cnot(a, b),
            Instr::ZzB(a, b) => c.zz(a, b, Param::symbol("b")),
            Instr::CrzA(a, b) => c.crz(a, b, Param::symbol("a")),
        };
    }
    if noisy {
        c.depolarize(0, 0.04).bit_flip(n - 1, 0.03);
    }
    c
}

/// Central-difference reference gradient (step `h`) from exact engine
/// expectations.
fn fd_reference(
    engine: &Engine,
    circuit: &Circuit,
    params: &ParamMap,
    obs: &(dyn Fn(usize) -> f64 + Sync),
    wrt: &[String],
    h: f64,
) -> Vec<f64> {
    wrt.iter()
        .map(|s| match params.get(s) {
            None => 0.0,
            Some(base) => {
                let mut plus = params.clone();
                plus.bind(s, base + h);
                let mut minus = params.clone();
                minus.bind(s, base - h);
                let ep = engine.expectation(circuit, &plus, obs, 0, 1).unwrap();
                let em = engine.expectation(circuit, &minus, obs, 0, 1).unwrap();
                (ep - em) / (2.0 * h)
            }
        })
        .collect()
}

fn kc_engine() -> Engine {
    Engine::with_options(EngineOptions::default().with_backend(BackendKind::KnowledgeCompilation))
}

/// A KC backend pinned to the parameter-shift rule — the cross-check
/// reference for the primary analytic path.
fn shift_backend() -> KcBackend {
    KcBackend::new(Arc::new(ArtifactCache::new()), KcOptions::default()).with_force_shift(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Analytic gradients agree with the parameter-shift rule (to 1e-9)
    /// and with central finite differences on random pure circuits —
    /// including shared symbols (rule order > 1) and controlled rotations
    /// (half-frequency rule) — in a single tape evaluation.
    #[test]
    fn analytic_matches_parameter_shift_and_finite_differences_pure(
        instrs in proptest::collection::vec(arb_instr(3), 1..12),
        a in -2.0..2.0f64,
        b in -2.0..2.0f64,
    ) {
        let circuit = build(3, &instrs, false);
        let params = ParamMap::from_pairs([("a", a), ("b", b)]);
        let obs = |bits: usize| bits as f64 - 1.5;
        let engine = kc_engine();
        let wrt: Vec<String> = circuit.symbols().into_iter().collect();
        let r = engine.gradient(&circuit, &params, &obs, Some(&wrt)).unwrap();
        prop_assert!(r.exact, "gate symbols are analytically exact");
        prop_assert_eq!(r.gradient.len(), wrt.len());
        if !wrt.is_empty() {
            prop_assert_eq!(r.method, GradientMethod::Analytic);
            prop_assert_eq!(r.evaluations, 1, "one pass for every parameter");
            // Cross-check against the parameter-shift rule: two exact
            // methods for the same derivative agree to rounding error.
            let s = shift_backend()
                .expectation_gradient(&circuit, &params, &obs, &wrt)
                .unwrap();
            prop_assert_eq!(s.method, GradientMethod::ParameterShift);
            prop_assert!((r.value - s.value).abs() < 1e-12);
            for (i, (an, ps)) in r.gradient.iter().zip(&s.gradient).enumerate() {
                prop_assert!(
                    (an - ps).abs() < 1e-9,
                    "symbol {} ({}): analytic {} vs shift {}", i, wrt[i], an, ps
                );
            }
        }
        let fd = fd_reference(&engine, &circuit, &params, &obs, &wrt, 1e-5);
        for (i, (an, fd)) in r.gradient.iter().zip(&fd).enumerate() {
            prop_assert!(
                (an - fd).abs() < 1e-4,
                "symbol {} ({}): analytic {} vs fd {}", i, wrt[i], an, fd
            );
        }
        // The value lane agrees with a plain expectation query.
        let want = engine.expectation(&circuit, &params, &obs, 0, 1).unwrap();
        prop_assert!((r.value - want).abs() < 1e-12);
    }

    /// Same three-way agreement on random noisy circuits (fixed-probability
    /// channels; exact noisy expectations within the enumeration budget).
    #[test]
    fn analytic_matches_parameter_shift_and_finite_differences_noisy(
        instrs in proptest::collection::vec(arb_instr(3), 1..8),
        a in -2.0..2.0f64,
        b in -2.0..2.0f64,
    ) {
        let circuit = build(3, &instrs, true);
        let params = ParamMap::from_pairs([("a", a), ("b", b)]);
        let obs = |bits: usize| bits as f64;
        let engine = kc_engine();
        let wrt: Vec<String> = circuit.symbols().into_iter().collect();
        let r = engine.gradient(&circuit, &params, &obs, Some(&wrt)).unwrap();
        prop_assert!(r.exact);
        if !wrt.is_empty() {
            prop_assert_eq!(r.method, GradientMethod::Analytic);
            prop_assert_eq!(r.evaluations, 1);
            let s = shift_backend()
                .expectation_gradient(&circuit, &params, &obs, &wrt)
                .unwrap();
            for (i, (an, ps)) in r.gradient.iter().zip(&s.gradient).enumerate() {
                prop_assert!(
                    (an - ps).abs() < 1e-9,
                    "symbol {} ({}): analytic {} vs shift {}", i, wrt[i], an, ps
                );
            }
        }
        let fd = fd_reference(&engine, &circuit, &params, &obs, &wrt, 1e-5);
        for (i, (an, fd)) in r.gradient.iter().zip(&fd).enumerate() {
            prop_assert!(
                (an - fd).abs() < 1e-4,
                "symbol {} ({}): analytic {} vs fd {}", i, wrt[i], an, fd
            );
        }
    }

    /// Gradient sweeps are byte-identical across thread counts and sweep
    /// batch widths (gradient lanes are fixed by the shift plan, but the
    /// engine options must not leak into the numerics).
    #[test]
    fn gradient_sweeps_are_deterministic_across_threads_and_batch(
        instrs in proptest::collection::vec(arb_instr(3), 1..10),
    ) {
        let circuit = build(3, &instrs, false);
        prop_assume!(!circuit.symbols().is_empty());
        let points: Vec<ParamMap> = (0..5)
            .map(|i| ParamMap::from_pairs([("a", 0.2 + 0.3 * i as f64), ("b", 1.1 - 0.2 * i as f64)]))
            .collect();
        let obs = |bits: usize| bits as f64;
        let run = |threads: usize, batch: usize| {
            let engine = Engine::with_options(
                EngineOptions::default()
                    .with_backend(BackendKind::KnowledgeCompilation)
                    .with_threads(threads)
                    .with_batch(batch),
            );
            engine
                .gradient_sweep(&circuit, &points, &GradientSpec::new(&obs))
                .unwrap()
        };
        let base = run(1, 1);
        for (threads, batch) in [(2usize, 3usize), (4, 8), (8, 16)] {
            let got = run(threads, batch);
            prop_assert_eq!(base.len(), got.len());
            for (x, y) in base.iter().zip(&got) {
                prop_assert_eq!(x.index, y.index);
                prop_assert_eq!(x.method, GradientMethod::Analytic);
                prop_assert_eq!(x.method, y.method);
                prop_assert_eq!(x.value.to_bits(), y.value.to_bits(),
                    "threads={} batch={}", threads, batch);
                for (gx, gy) in x.gradient.iter().zip(&y.gradient) {
                    prop_assert_eq!(gx.to_bits(), gy.to_bits());
                }
            }
        }
    }
}

/// A QAOA-shaped circuit with **one** gamma shared across every ring edge
/// and one beta across every mixer — plus a controlled rotation on the
/// same gamma — agrees between the analytic path and the high-order
/// parameter-shift rule to 1e-9, in one tape evaluation instead of
/// `2·occurrences + 1`.
#[test]
fn shared_symbol_across_all_edges_matches_shift_rule() {
    let n = 5;
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n {
        c.zz(q, (q + 1) % n, Param::symbol("gamma"));
    }
    for q in 0..n {
        c.rx(q, Param::symbol("beta"));
    }
    c.crz(0, 2, Param::symbol("gamma"));
    let params = ParamMap::from_pairs([("gamma", 0.47), ("beta", 1.13)]);
    let obs = |bits: usize| bits.count_ones() as f64;
    let wrt = vec!["beta".to_string(), "gamma".to_string()];
    let engine = kc_engine();
    let r = engine.gradient(&c, &params, &obs, Some(&wrt)).unwrap();
    assert_eq!(r.method, GradientMethod::Analytic);
    assert!(r.exact);
    assert_eq!(r.evaluations, 1, "one pass regardless of symbol sharing");
    let s = shift_backend()
        .expectation_gradient(&c, &params, &obs, &wrt)
        .unwrap();
    assert_eq!(s.method, GradientMethod::ParameterShift);
    assert!(
        s.evaluations > 2 * wrt.len() + 1,
        "shared symbols inflate the shift-lane count ({})",
        s.evaluations
    );
    assert!((r.value - s.value).abs() < 1e-12);
    for (i, (an, ps)) in r.gradient.iter().zip(&s.gradient).enumerate() {
        assert!(
            (an - ps).abs() < 1e-9,
            "{}: analytic {an} vs shift {ps}",
            wrt[i]
        );
    }
}

/// Depth-2 multi-angle QAOA on a 6-qubit 3-regular graph: every edge and
/// every vertex gets its own angle in every layer, 30 unique symbols. Its
/// 64 basis states take two 32-lane cone passes, the second on the delta
/// kernel, and the one-pass analytic gradient still matches the
/// parameter-shift rule (2p + 1 lanes) and central differences at the
/// engine's own finite-difference step.
#[test]
fn multi_angle_qaoa_gradient_over_two_cone_passes_matches_references() {
    let n = 6;
    let graph = Graph::random_regular(n, 3, 3);
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    let mut params = ParamMap::new();
    for layer in 0..2 {
        for (e, &(a, b)) in graph.edges().iter().enumerate() {
            let g = format!("g{layer}_{e}");
            c.zz(a, b, Param::symbol(g.clone()));
            params.bind(g, 0.45 + 0.01 * e as f64 + 0.07 * layer as f64);
        }
        for q in 0..n {
            let b = format!("b{layer}_{q}");
            c.rx(q, Param::symbol(b.clone()));
            params.bind(b, 0.25 + 0.01 * q as f64 + 0.05 * layer as f64);
        }
    }
    let obs = |bits: usize| bits.count_ones() as f64;
    let wrt: Vec<String> = c.symbols().into_iter().collect();
    assert_eq!(wrt.len(), 30);
    let engine = Engine::new();
    let r = engine.gradient(&c, &params, &obs, None).unwrap();
    assert_eq!(r.method, GradientMethod::Analytic);
    assert!(r.exact, "KC analytic gradients are exact");
    assert_eq!(r.evaluations, 1, "one pass for all {} symbols", wrt.len());
    let s = shift_backend()
        .expectation_gradient(&c, &params, &obs, &wrt)
        .unwrap();
    assert_eq!(
        s.evaluations,
        2 * wrt.len() + 1,
        "unique symbols: 2p + 1 lanes"
    );
    assert!((r.value - s.value).abs() < 1e-9);
    assert_eq!(r.gradient.len(), s.gradient.len());
    for (i, (an, ps)) in r.gradient.iter().zip(&s.gradient).enumerate() {
        assert!(
            (an - ps).abs() < 1e-9,
            "{}: analytic {an} vs shift {ps}",
            wrt[i]
        );
    }
    let value = engine.expectation(&c, &params, &obs, 0, 1).unwrap();
    assert!((value - s.value).abs() < 1e-9);
    let fd = fd_reference(&engine, &c, &params, &obs, &wrt, FD_STEP);
    for (i, (fd, ps)) in fd.iter().zip(&s.gradient).enumerate() {
        assert!((fd - ps).abs() < 1e-4, "{}: fd {fd} vs shift {ps}", wrt[i]);
    }
}

/// One compile for a whole Adam run on the analytic gradient path: every
/// gradient query is a single tangent-carrying bind against the same
/// cached artifact.
#[test]
fn adam_run_compiles_exactly_once() {
    let qaoa = QaoaMaxCut::new(Graph::cycle(6), 1);
    let engine = kc_engine();
    let r = qaoa
        .optimize_gradient_via(
            &engine,
            &VariationalGradientConfig {
                optimizer: GradientOptimizer::Adam(Adam::new().with_max_iterations(25)),
                shots: 0,
                seed: 5,
            },
        )
        .unwrap();
    assert!(r.all_exact);
    assert!(r.optim.iterations > 0);
    assert_eq!(
        engine.cache().misses(),
        1,
        "whole Adam run compiles exactly once"
    );
    assert!(engine.cache().hits() >= r.optim.iterations as u64 - 1);
}

/// Non-compiled backends answer the same gradient API by central finite
/// differences, flagged inexact, and agree with the exact path.
#[test]
fn finite_difference_fallback_matches_exact_path() {
    let mut c = Circuit::new(2);
    c.h(0)
        .rx(0, Param::symbol("a"))
        .zz(0, 1, Param::symbol("b"));
    let params = ParamMap::from_pairs([("a", 0.7), ("b", 1.3)]);
    let obs = |bits: usize| bits as f64;
    let exact = kc_engine().gradient(&c, &params, &obs, None).unwrap();
    assert!(exact.exact);
    assert_eq!(exact.method, GradientMethod::Analytic);
    let sv_engine =
        Engine::with_options(EngineOptions::default().with_backend(BackendKind::StateVector));
    let fd = sv_engine.gradient(&c, &params, &obs, None).unwrap();
    assert!(!fd.exact, "state-vector gradients are finite differences");
    assert_eq!(fd.method, GradientMethod::FiniteDifference);
    assert_eq!(fd.evaluations, 5);
    for (a, b) in exact.gradient.iter().zip(&fd.gradient) {
        assert!((a - b).abs() < 1e-4, "{a} vs {b}");
    }
}

/// Symbols that parameterize noise channels fall back to finite
/// differences within an otherwise-exact gradient.
#[test]
fn noise_symbol_components_are_finite_difference() {
    let mut c = Circuit::new(1);
    c.rx(0, Param::symbol("theta")).noise(
        qkc::circuit::NoiseChannel::BitFlip {
            p: Param::symbol("p"),
        },
        0,
    );
    let params = ParamMap::from_pairs([("theta", 0.9), ("p", 0.1)]);
    let obs = |bits: usize| bits as f64;
    let engine = kc_engine();
    let wrt = vec!["p".to_string(), "theta".to_string()];
    let r = engine.gradient(&c, &params, &obs, Some(&wrt)).unwrap();
    assert!(!r.exact, "a noise-symbol component demotes the whole flag");
    assert_eq!(
        r.method,
        GradientMethod::ParameterShift,
        "noise symbols route the query to the shift/FD fallback"
    );
    // P(1) = (1-p)·sin²(θ/2) + p·cos²(θ/2): both components have closed
    // forms to check against.
    let s2 = (0.9f64 / 2.0).sin().powi(2);
    let want_dp = 1.0 - 2.0 * s2;
    let want_dtheta = (1.0 - 2.0 * 0.1) * (0.9f64).sin() / 2.0 * 2.0 / 2.0;
    assert!((r.gradient[0] - want_dp).abs() < 1e-5, "{}", r.gradient[0]);
    assert!(
        (r.gradient[1] - want_dtheta).abs() < 1e-5,
        "{} vs {want_dtheta}",
        r.gradient[1]
    );
}

/// Regression: a noise symbol bound at a probability-domain boundary
/// (`p = 0` or `p = 1`) must yield a (one-sided) finite-difference
/// component, not a panic from probing an invalid probability.
#[test]
fn noise_symbol_gradient_at_probability_boundary() {
    let mut c = Circuit::new(1);
    c.rx(0, Param::symbol("theta")).noise(
        qkc::circuit::NoiseChannel::BitFlip {
            p: Param::symbol("p"),
        },
        0,
    );
    let obs = |bits: usize| bits as f64;
    let engine = kc_engine();
    // P(1) = (1-p)·sin²(θ/2) + p·cos²(θ/2) → dP/dp = 1 − 2·sin²(θ/2).
    let s2 = (0.9f64 / 2.0).sin().powi(2);
    for p in [0.0, 1.0] {
        let params = ParamMap::from_pairs([("theta", 0.9), ("p", p)]);
        let r = engine.gradient(&c, &params, &obs, None).unwrap();
        assert!(!r.exact);
        assert!(
            (r.gradient[0] - (1.0 - 2.0 * s2)).abs() < 1e-5,
            "dP/dp at p={p}: {}",
            r.gradient[0]
        );
    }
}

/// The acceptance comparison on the QAOA ring: SPSA and Adam converge to
/// the Nelder–Mead baseline's objective at equal engine-evaluation
/// budget, with exact (parameter-shift) gradients on the KC backend.
#[test]
fn qaoa_ring_gradient_optimizers_match_nelder_mead_at_equal_budget() {
    let qaoa = QaoaMaxCut::new(Graph::cycle(8), 1);
    let budget = 2000usize;
    let engine = Engine::new();
    let nm = qaoa
        .optimize_via(
            &engine,
            &VariationalConfig {
                optimizer: NelderMead::new().with_max_iterations(budget),
                shots: 0,
                seed: 7,
            },
        )
        .unwrap();
    assert!(nm.engine_evaluations <= budget);
    let engine = Engine::new();
    let spsa = qaoa
        .optimize_gradient_via(
            &engine,
            &VariationalGradientConfig {
                optimizer: GradientOptimizer::Spsa(Spsa::new().with_max_iterations(budget / 3)),
                shots: 0,
                seed: 7,
            },
        )
        .unwrap();
    assert!(spsa.engine_evaluations <= budget);
    let engine = Engine::new();
    // Lanes per Adam iteration: base + 2 per gate occurrence (8 ZZ + 8 Rx).
    let lanes = 1 + 2 * (8 + 8);
    let adam = qaoa
        .optimize_gradient_via(
            &engine,
            &VariationalGradientConfig {
                optimizer: GradientOptimizer::Adam(Adam::new().with_max_iterations(budget / lanes)),
                shots: 0,
                seed: 7,
            },
        )
        .unwrap();
    assert!(adam.engine_evaluations <= budget);
    assert!(adam.all_exact, "KC parameter-shift gradients are exact");
    let nm_cut = -nm.optim.value;
    assert!(
        -spsa.optim.value >= nm_cut - 1e-3,
        "spsa {} vs nelder-mead {nm_cut}",
        -spsa.optim.value
    );
    assert!(
        -adam.optim.value >= nm_cut - 1e-3,
        "adam {} vs nelder-mead {nm_cut}",
        -adam.optim.value
    );
}

/// Same acceptance comparison on the VQE Ising grid (two measurement
/// settings, shared entangler angle → order-4 shift rule).
#[test]
fn vqe_ising_gradient_optimizers_match_nelder_mead_at_equal_budget() {
    let vqe = VqeIsing::new(2, 2, 1);
    let ground = vqe.ground_energy_brute_force();
    let budget = 2400usize;
    let x0 = vec![0.3; vqe.num_params()];
    let engine = Engine::new();
    let nm = vqe
        .optimize_via(
            &engine,
            &NelderMead::new().with_max_iterations(budget),
            &x0,
            0,
            7,
        )
        .unwrap();
    let engine = Engine::new();
    let spsa = vqe
        .optimize_gradient_via(
            &engine,
            &x0,
            &VariationalGradientConfig {
                optimizer: GradientOptimizer::Spsa(Spsa::new().with_max_iterations(budget / 6)),
                shots: 0,
                seed: 7,
            },
        )
        .unwrap();
    assert!(spsa.engine_evaluations <= budget);
    let engine = Engine::new();
    let lanes_per_term = 1 + 2 * vqe.num_qubits() + 2 * vqe.grid().num_edges();
    let adam = vqe
        .optimize_gradient_via(
            &engine,
            &x0,
            &VariationalGradientConfig {
                optimizer: GradientOptimizer::Adam(
                    Adam::new().with_max_iterations(budget / (2 * lanes_per_term)),
                ),
                shots: 0,
                seed: 7,
            },
        )
        .unwrap();
    assert!(adam.engine_evaluations <= budget);
    assert!(adam.all_exact);
    assert_eq!(
        engine.cache().misses(),
        2,
        "two measurement settings, two compiles for the whole run"
    );
    for (name, r) in [("spsa", &spsa), ("adam", &adam)] {
        assert!(
            r.optim.value <= nm.value + 1e-3,
            "{name} {} vs nelder-mead {}",
            r.optim.value,
            nm.value
        );
        assert!(
            r.optim.value >= ground - 1e-6,
            "{name} beat the ground state"
        );
    }
}

/// Gradient-loop trajectories are bit-for-bit reproducible across thread
/// counts and batch widths, for both optimizers, on a multi-term
/// objective.
#[test]
fn gradient_loop_trajectories_are_reproducible() {
    let vqe = VqeIsing::new(2, 2, 1);
    let x0 = vec![0.25; vqe.num_params()];
    let run = |threads: usize, batch: usize, adam: bool| {
        let engine = Engine::with_options(
            EngineOptions::default()
                .with_threads(threads)
                .with_batch(batch),
        );
        let optimizer = if adam {
            GradientOptimizer::Adam(Adam::new().with_max_iterations(6))
        } else {
            GradientOptimizer::Spsa(Spsa::new().with_max_iterations(12))
        };
        vqe.optimize_gradient_via(
            &engine,
            &x0,
            &VariationalGradientConfig {
                optimizer,
                shots: 0,
                seed: 13,
            },
        )
        .unwrap()
    };
    for adam in [true, false] {
        let base = run(1, 1, adam);
        for (threads, batch) in [(3usize, 4usize), (8, 16)] {
            let got = run(threads, batch, adam);
            assert_eq!(
                base.optim.x, got.optim.x,
                "adam={adam} t={threads} b={batch}"
            );
            assert_eq!(base.optim.value.to_bits(), got.optim.value.to_bits());
            assert_eq!(base.engine_evaluations, got.engine_evaluations);
        }
    }
}

//! Failure-injection tests: every public entry point must reject malformed
//! input with a meaningful error (or a documented panic), never a wrong
//! answer.

use qkc::circuit::{Circuit, CircuitError, NoiseChannel, Param, ParamMap, PermutationOp};
use qkc::engine::{BackendKind, Engine, EngineError, EngineOptions, GradientSpec, SweepSpec};
use qkc::kc::KcSimulator;
use qkc::statevector::StateVectorSimulator;
use qkc::tensornet::TensorNetwork;

#[test]
fn unbound_symbols_error_at_every_level() {
    let mut c = Circuit::new(2);
    c.rx(0, Param::symbol("theta")).cnot(0, 1);
    let empty = ParamMap::new();

    // Gate level.
    let err = c.unitary(&empty).unwrap_err();
    assert!(matches!(err, CircuitError::Unbound(_)));
    assert!(err.to_string().contains("theta"));

    // State-vector level.
    assert!(StateVectorSimulator::new().run_pure(&c, &empty).is_err());

    // Tensor-network level.
    assert!(TensorNetwork::from_circuit(&c, &empty).is_err());

    // Knowledge-compilation level: compilation succeeds (structure is
    // parameter-independent — the paper's central point), binding fails.
    let sim = KcSimulator::compile(&c, &Default::default());
    let err = sim.bind(&empty).unwrap_err();
    assert_eq!(err.name(), "theta");

    // Partial bindings fail too.
    let partial = ParamMap::from_pairs([("eta", 1.0)]);
    assert!(sim.bind(&partial).is_err());
}

#[test]
fn pure_state_apis_reject_noisy_circuits() {
    let mut c = Circuit::new(1);
    c.h(0).depolarize(0, 0.1);
    let params = ParamMap::new();
    assert!(matches!(c.unitary(&params), Err(CircuitError::NotUnitary)));
    assert!(StateVectorSimulator::new().run_pure(&c, &params).is_err());
    assert!(TensorNetwork::from_circuit(&c, &params).is_err());
}

#[test]
fn malformed_oracles_are_rejected() {
    // Non-bijective table.
    assert!(PermutationOp::new("dup", vec![0, 0]).is_err());
    // Non-power-of-two.
    assert!(PermutationOp::new("odd", vec![0, 1, 2]).is_err());
    // Out-of-range output.
    assert!(PermutationOp::new("oob", vec![0, 9]).is_err());
    // Error messages are self-describing.
    let msg = PermutationOp::new("dup", vec![0, 0])
        .unwrap_err()
        .to_string();
    assert!(msg.contains("bijection"));
}

#[test]
#[should_panic(expected = "outside [0, 1]")]
fn out_of_range_noise_probability_panics_at_use() {
    let mut c = Circuit::new(1);
    c.bit_flip(0, 1.5);
    // Validation happens when Kraus operators are materialized.
    let _ = KcSimulator::compile(&c, &Default::default());
}

#[test]
#[should_panic(expected = "out of range")]
fn circuit_rejects_out_of_range_qubits() {
    Circuit::new(2).cnot(0, 2);
}

#[test]
#[should_panic(expected = "repeats qubit")]
fn circuit_rejects_duplicate_operands() {
    Circuit::new(3).ccx(1, 1, 2);
}

#[test]
#[should_panic(expected = "arity mismatch")]
fn amplitude_query_arity_is_checked() {
    let mut c = Circuit::new(2);
    c.h(0).depolarize(0, 0.05);
    let sim = KcSimulator::compile(&c, &Default::default());
    let bound = sim.bind(&ParamMap::new()).unwrap();
    // One noise RV exists; passing none must panic, not mis-answer.
    let _ = bound.amplitude(0, &[]);
}

#[test]
#[should_panic(expected = "noise-free")]
fn wavefunction_rejects_noisy_circuits() {
    let mut c = Circuit::new(1);
    c.h(0).phase_damp(0, 0.3);
    let sim = KcSimulator::compile(&c, &Default::default());
    let _ = sim.bind(&ParamMap::new()).unwrap().wavefunction();
}

#[test]
fn probability_queries_survive_extreme_noise() {
    // γ = 1 phase damping and p = 1 bit flip are legal edge strengths:
    // the pipeline must stay exact, not merely not-crash.
    let mut c = Circuit::new(1);
    c.h(0).phase_damp(0, 1.0).bit_flip(0, 1.0);
    let sim = KcSimulator::compile(&c, &Default::default());
    let probs = sim.bind(&ParamMap::new()).unwrap().output_probabilities();
    assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    assert!((probs[0] - 0.5).abs() < 1e-10);
}

#[test]
#[should_panic(expected = "at least one qubit")]
fn zero_qubit_circuits_are_rejected_at_construction() {
    // A zero-qubit circuit has no output space to measure: the IR rejects
    // it before any engine entry point can be asked to simulate one.
    let _ = Circuit::new(0);
}

#[test]
fn engine_gradient_handles_empty_and_unknown_wrt_without_panicking() {
    let engine = Engine::new();
    let mut c = Circuit::new(2);
    c.rx(0, Param::symbol("t")).cnot(0, 1);
    let params = ParamMap::from_pairs([("t", 0.3)]);
    let obs = |bits: usize| bits as f64;

    // Empty wrt: a legal degenerate query — the value still computes, the
    // gradient is simply empty.
    let empty = engine.gradient(&c, &params, &obs, Some(&[])).unwrap();
    assert!(empty.gradient.is_empty());
    assert!((empty.value - (0.3f64 / 2.0).sin().powi(2) * 3.0).abs() < 1e-9);

    // A symbol the circuit never mentions: its component is exactly 0
    // (the objective does not depend on it), not an error and not junk.
    let unknown = engine
        .gradient(&c, &params, &obs, Some(&["nope".to_string()]))
        .unwrap();
    assert_eq!(unknown.gradient, vec![0.0]);

    // An unbound circuit symbol is a *typed* error at the engine level.
    let err = engine
        .gradient(&c, &ParamMap::new(), &obs, None)
        .unwrap_err();
    assert!(
        matches!(err, EngineError::Circuit(_)),
        "expected a typed circuit error, got {err:?}"
    );
    assert!(err.to_string().contains("`t` has no bound value"), "{err}");
}

/// A NaN or infinite angle and an out-of-range or NaN noise probability
/// are typed errors naming the symbol and value at every engine query, on
/// the planned backend and on each forced one — never a panic, never a
/// silent NaN. In a sweep, only the bad point fails.
#[test]
fn bad_bindings_are_typed_errors_at_every_engine_query() {
    let mut c = Circuit::new(2);
    c.h(0)
        .rx(0, Param::symbol("t"))
        .noise(
            NoiseChannel::Depolarizing {
                p: Param::symbol("p"),
            },
            0,
        )
        .cnot(0, 1);
    let point = |t: f64, p: f64| ParamMap::from_pairs([("t", t), ("p", p)]);
    let good = point(0.4, 0.05);
    let cases = [
        ("t", point(f64::NAN, 0.05), f64::NAN),
        ("t", point(f64::INFINITY, 0.05), f64::INFINITY),
        ("p", point(0.4, 1.5), 1.5),
        ("p", point(0.4, f64::NAN), f64::NAN),
    ];
    let obs = |bits: usize| bits as f64;
    let engines = [
        ("planned", Engine::new()),
        (
            "kc",
            Engine::with_options(
                EngineOptions::default().with_backend(BackendKind::KnowledgeCompilation),
            ),
        ),
        (
            "statevector",
            Engine::with_options(EngineOptions::default().with_backend(BackendKind::StateVector)),
        ),
        (
            "densitymatrix",
            Engine::with_options(EngineOptions::default().with_backend(BackendKind::DensityMatrix)),
        ),
        (
            "tensornet",
            Engine::with_options(EngineOptions::default().with_backend(BackendKind::TensorNetwork)),
        ),
    ];
    for (backend, engine) in &engines {
        for (symbol, bad, value) in &cases {
            let what = format!("{backend}: {symbol} = {value}");
            let check = |query: &str, err: EngineError| match err {
                EngineError::InvalidBinding {
                    symbol: ref got,
                    value: v,
                    ..
                } => {
                    assert_eq!(got, symbol, "{what}, {query}");
                    assert_eq!(v.to_bits(), value.to_bits(), "{what}, {query}");
                    assert!(err.to_string().contains(*symbol), "{what}, {query}: {err}");
                }
                other => panic!("{what}, {query}: expected InvalidBinding, got {other:?}"),
            };
            check("probabilities", engine.probabilities(&c, bad).unwrap_err());
            check("sample", engine.sample(&c, bad, 16, 1).unwrap_err());
            check(
                "expectation",
                engine.expectation(&c, bad, &obs, 16, 1).unwrap_err(),
            );
            check(
                "gradient",
                engine.gradient(&c, bad, &obs, None).unwrap_err(),
            );
            let spec = GradientSpec::new(&obs);
            // The first error in input order wins, and the good point may
            // be unsupported on this backend, so the bad one leads.
            let sweep = [bad.clone(), good.clone()];
            check(
                "gradient_sweep",
                engine.gradient_sweep(&c, &sweep, &spec).unwrap_err(),
            );
            // Batch 16 puts both points in one lane: the bad point fails
            // alone, and the good one is answered as if it ran by itself.
            let spec = SweepSpec::expectation(&obs).with_seed(5);
            let report = engine
                .sweep_report(&c, &[good.clone(), bad.clone(), good.clone()], &spec)
                .unwrap();
            assert_eq!(report.failures.len() + report.points.len(), 3, "{what}");
            for failure in &report.failures {
                if failure.index == 1 {
                    check("sweep point", failure.error.clone());
                } else {
                    assert!(
                        !matches!(failure.error, EngineError::InvalidBinding { .. }),
                        "{what}: good point {} rejected",
                        failure.index
                    );
                }
            }
            assert!(
                report.failures.iter().any(|f| f.index == 1),
                "{what}: bad point passed"
            );
            let alone = engine
                .sweep_report(&c, std::slice::from_ref(&good), &spec)
                .unwrap();
            if let (Some(a), Some(b)) = (alone.points.first(), report.points.first()) {
                assert_eq!(
                    a.expectation.map(f64::to_bits),
                    b.expectation.map(f64::to_bits),
                    "{what}"
                );
            }
        }
    }
}

#[test]
fn constant_noise_probabilities_out_of_range_are_typed_errors() {
    let mut c = Circuit::new(1);
    c.h(0).bit_flip(0, 1.5);
    let err = Engine::new()
        .probabilities(&c, &ParamMap::new())
        .unwrap_err();
    assert!(
        matches!(err, EngineError::InvalidBinding { value, .. } if value == 1.5),
        "{err:?}"
    );
    let mut c = Circuit::new(1);
    c.h(0)
        .noise(NoiseChannel::asymmetric_depolarizing(0.5, 0.4, 0.3), 0);
    let err = Engine::new()
        .probabilities(&c, &ParamMap::new())
        .unwrap_err();
    assert!(err.to_string().contains("sum past 1"), "{err}");
}

#[test]
fn engine_sweeps_over_empty_point_lists_are_empty_not_errors() {
    let engine = Engine::new();
    let mut c = Circuit::new(2);
    c.rx(0, Param::symbol("t")).cnot(0, 1);
    let obs = |bits: usize| bits as f64;

    let points = engine
        .sweep(&c, &[], &SweepSpec::expectation(&obs))
        .unwrap();
    assert!(points.is_empty());

    let report = engine
        .sweep_report(&c, &[], &SweepSpec::expectation(&obs))
        .unwrap();
    assert!(report.points.is_empty() && report.failures.is_empty());
    assert!(report.is_complete());

    let gradients = engine
        .gradient_sweep(&c, &[], &GradientSpec::new(&obs))
        .unwrap();
    assert!(gradients.is_empty());

    // And nothing was compiled for nothing.
    assert_eq!(engine.cache().misses(), 0);
}

#[test]
fn zero_strength_noise_equals_noise_free() {
    let mut noisy = Circuit::new(2);
    noisy
        .h(0)
        .depolarize(0, 0.0)
        .cnot(0, 1)
        .amplitude_damp(1, 0.0);
    let mut pure = Circuit::new(2);
    pure.h(0).cnot(0, 1);
    let params = ParamMap::new();
    let sim = KcSimulator::compile(&noisy, &Default::default());
    let got = sim.bind(&params).unwrap().output_probabilities();
    let want = StateVectorSimulator::new()
        .probabilities(&pure, &params)
        .unwrap();
    for (g, w) in got.iter().zip(&want) {
        assert!((g - w).abs() < 1e-10);
    }
}

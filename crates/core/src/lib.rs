//! End-to-end knowledge-compilation simulator for noisy variational quantum
//! algorithms — the primary contribution of the reproduced paper.
//!
//! [`KcSimulator::compile`] runs the full toolchain of the paper's Figure 4:
//! the circuit becomes a complex-valued Bayesian network, the network is
//! encoded as CNF separating structure from parameters, the CNF is
//! simplified by unit resolution and compiled to a d-DNNF arithmetic
//! circuit, internal qubit states are elided, and the circuit is smoothed
//! over the query variables (final qubit states plus noise/measurement
//! random variables).
//!
//! [`KcSimulator::bind`] then attaches concrete parameter values — the
//! cheap per-iteration step of a variational loop — and supports amplitude
//! queries (upward pass), density-matrix reconstruction, and Gibbs sampling
//! from the output wavefunction (downward pass).
//!
//! # Examples
//!
//! ```
//! use qkc_circuit::{Circuit, Param, ParamMap};
//! use qkc_core::KcSimulator;
//!
//! // Compile once...
//! let mut c = Circuit::new(2);
//! c.rx(0, Param::symbol("theta")).cnot(0, 1);
//! let sim = KcSimulator::compile(&c, &Default::default());
//! // ...then re-bind parameters across variational iterations.
//! for theta in [0.3, 1.1, 2.9] {
//!     let bound = sim.bind(&ParamMap::from_pairs([("theta", theta)])).unwrap();
//!     let p11 = bound.amplitude(0b11, &[]).norm_sqr();
//!     assert!((p11 - (theta / 2.0_f64).sin().powi(2)).abs() < 1e-10);
//! }
//! ```

#![forbid(unsafe_code)]

mod artifact;
mod batch;
mod bound;
mod diagnose;
mod pipeline;
mod verify;

pub use artifact::{ArtifactDecodeError, ARTIFACT_WIRE_VERSION};
pub use batch::BoundKcBatch;
pub use bound::{BoundKc, BoundKcTangents, KcSampler};
pub use diagnose::{Explanation, Sensitivity};
pub use pipeline::{
    CompileCancelled, CompileCheckpoint, CompileError, CompilePhase, KcOptions, KcSimulator,
    PhaseSeconds, PipelineMetrics, QuerySpec, ValueState,
};
pub use qkc_knowledge::{Finding, Severity, VerifyLevel, VerifyPass, VerifyReport};
pub use verify::record_verify_telemetry;

#[cfg(test)]
mod tests {
    use super::*;
    use qkc_circuit::{Circuit, Param, ParamMap};
    use qkc_densitymatrix::DensityMatrixSimulator;
    use qkc_knowledge::{GibbsOptions, VarOrder};
    use qkc_statevector::StateVectorSimulator;

    fn all_option_combos() -> Vec<KcOptions> {
        let mut out = Vec::new();
        for order in [VarOrder::Lexicographic, VarOrder::MinCutSeparator] {
            for simplify_cnf in [true, false] {
                for elide_internal in [true, false] {
                    out.push(KcOptions {
                        order,
                        cache: true,
                        simplify_cnf,
                        elide_internal,
                        ..Default::default()
                    });
                }
            }
        }
        out
    }

    /// KC wavefunction == state-vector wavefunction, across every pipeline
    /// option combination.
    fn check_pure(c: &Circuit, params: &ParamMap) {
        let want = StateVectorSimulator::new().run_pure(c, params).unwrap();
        for options in all_option_combos() {
            let sim = KcSimulator::compile(c, &options);
            let bound = sim.bind(params).unwrap();
            let got = bound.wavefunction();
            for (x, (&g, &w)) in got.iter().zip(want.amplitudes()).enumerate() {
                assert!(
                    g.approx_eq(w, 1e-9),
                    "amp {x}: {g} vs {w} under {options:?}"
                );
            }
        }
    }

    /// KC density matrix == density-matrix simulator, default options.
    fn check_noisy(c: &Circuit, params: &ParamMap) {
        let want = DensityMatrixSimulator::new().run(c, params).unwrap();
        let sim = KcSimulator::compile(c, &KcOptions::default());
        let bound = sim.bind(params).unwrap();
        let got = bound.density_matrix();
        let dim = want.dim();
        for r in 0..dim {
            for col in 0..dim {
                assert!(
                    got[(r, col)].approx_eq(want.entry(r, col), 1e-9),
                    "rho[{r},{col}]: {} vs {}",
                    got[(r, col)],
                    want.entry(r, col)
                );
            }
        }
    }

    #[test]
    fn bell_and_ghz_match_state_vector() {
        let mut bell = Circuit::new(2);
        bell.h(0).cnot(0, 1);
        check_pure(&bell, &ParamMap::new());

        let mut ghz = Circuit::new(3);
        ghz.h(0).cnot(0, 1).cnot(1, 2);
        check_pure(&ghz, &ParamMap::new());
    }

    #[test]
    fn dense_gate_mix_matches_state_vector() {
        let mut c = Circuit::new(3);
        c.h(0)
            .t(0)
            .cnot(0, 1)
            .zz(1, 2, 0.73)
            .rx(2, 0.41)
            .cz(0, 2)
            .swap(1, 2)
            .ry(0, -1.2)
            .ccx(0, 1, 2)
            .phase(1, 0.9);
        check_pure(&c, &ParamMap::new());
    }

    #[test]
    fn deterministic_outputs_are_handled() {
        // X-only circuit: every output forced; unit resolution fixes all
        // query vars.
        let mut c = Circuit::new(2);
        c.x(0).x(1).x(0);
        check_pure(&c, &ParamMap::new());
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let bound = sim.bind(&ParamMap::new()).unwrap();
        assert!(bound.amplitude(0b01, &[]).approx_eq(qkc_math::C_ONE, 1e-12));
        assert!(bound.amplitude(0b11, &[]).approx_zero(1e-12));
    }

    #[test]
    fn global_phase_factor_from_fixed_params() {
        // Rz on |0> contributes e^{-iθ/2} through a unit-resolved parameter
        // variable: the global-factor path must keep it.
        let mut c = Circuit::new(1);
        c.rz(0, 0.8);
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let bound = sim.bind(&ParamMap::new()).unwrap();
        let amp = bound.amplitude(0, &[]);
        assert!(amp.approx_eq(qkc_math::Complex::cis(-0.4), 1e-12));
    }

    #[test]
    fn noisy_bell_matches_density_matrix() {
        let mut c = Circuit::new(2);
        c.h(0).phase_damp(0, 0.36).cnot(0, 1);
        check_noisy(&c, &ParamMap::new());
    }

    #[test]
    fn all_noise_channels_match_density_matrix() {
        for noise in [
            qkc_circuit::NoiseChannel::bit_flip(0.2),
            qkc_circuit::NoiseChannel::phase_flip(0.15),
            qkc_circuit::NoiseChannel::depolarizing(0.3),
            qkc_circuit::NoiseChannel::asymmetric_depolarizing(0.1, 0.05, 0.2),
            qkc_circuit::NoiseChannel::amplitude_damping(0.4),
            qkc_circuit::NoiseChannel::generalized_amplitude_damping(0.3, 0.25),
            qkc_circuit::NoiseChannel::phase_damping(0.36),
        ] {
            let mut c = Circuit::new(2);
            c.h(0).noise(noise.clone(), 0).cnot(0, 1).t(1);
            check_noisy(&c, &ParamMap::new());
        }
    }

    #[test]
    fn measurement_dephasing_matches_density_matrix() {
        let mut c = Circuit::new(2);
        c.h(0).measure(0).cnot(0, 1).h(0);
        check_noisy(&c, &ParamMap::new());
    }

    #[test]
    fn parameter_rebinding_reuses_compilation() {
        let mut c = Circuit::new(2);
        c.rx(0, Param::symbol("a"))
            .zz(0, 1, Param::symbol("b"))
            .ry(1, Param::symbol("c"));
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        for (a, b, cc) in [(0.3, 0.7, 1.1), (2.1, -0.4, 0.0), (1.57, 3.0, -2.2)] {
            let params = ParamMap::from_pairs([("a", a), ("b", b), ("c", cc)]);
            let bound = sim.bind(&params).unwrap();
            let want = StateVectorSimulator::new().run_pure(&c, &params).unwrap();
            for x in 0..4 {
                assert!(
                    bound.amplitude(x, &[]).approx_eq(want.amplitude(x), 1e-9),
                    "amp {x} at ({a},{b},{cc})"
                );
            }
        }
    }

    #[test]
    fn unbound_parameter_is_reported() {
        let mut c = Circuit::new(1);
        c.rx(0, Param::symbol("missing"));
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        assert!(sim.bind(&ParamMap::new()).is_err());
    }

    #[test]
    fn noisy_parameterized_rebinding_matches_density_matrix() {
        let mut c = Circuit::new(2);
        c.rx(0, Param::symbol("t")).depolarize(0, 0.05).cnot(0, 1);
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        for t in [0.4, 1.9] {
            let params = ParamMap::from_pairs([("t", t)]);
            let bound = sim.bind(&params).unwrap();
            let want = DensityMatrixSimulator::new().run(&c, &params).unwrap();
            let got = bound.density_matrix();
            for r in 0..4 {
                for col in 0..4 {
                    assert!(got[(r, col)].approx_eq(want.entry(r, col), 1e-9));
                }
            }
        }
    }

    #[test]
    fn gibbs_sampling_converges_on_noisy_circuit() {
        // A full-support noisy circuit; empirical Gibbs distribution must
        // approach the density-matrix diagonal.
        let mut c = Circuit::new(2);
        c.rx(0, 1.1).depolarize(0, 0.1).cnot(0, 1).ry(1, 0.7);
        let params = ParamMap::new();
        let want = DensityMatrixSimulator::new()
            .probabilities(&c, &params)
            .unwrap();
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let bound = sim.bind(&params).unwrap();
        let mut sampler = bound.sampler(&GibbsOptions {
            warmup: 500,
            thin: 3,
            seed: 9,
            ..Default::default()
        });
        let shots = 20_000;
        let mut counts = [0usize; 4];
        for x in sampler.sample_outputs(shots, 3) {
            counts[x] += 1;
        }
        for x in 0..4 {
            let freq = counts[x] as f64 / shots as f64;
            assert!(
                (freq - want[x]).abs() < 0.02,
                "P({x}): {freq} vs {}",
                want[x]
            );
        }
    }

    #[test]
    fn metrics_are_populated() {
        let mut c = Circuit::new(2);
        c.h(0).depolarize(0, 0.01).cnot(0, 1);
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let m = sim.metrics();
        assert!(m.bn_nodes >= 5);
        assert!(m.cnf_clauses > 0);
        assert!(m.cnf_clauses_simplified <= m.cnf_clauses);
        assert!(m.ac_nodes > 0);
        assert!(m.ac_edges > 0);
        assert!(m.ac_size_bytes > 0);
        assert!(m.compile_seconds > 0.0);
    }

    #[test]
    fn elision_shrinks_the_circuit() {
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.h(q);
        }
        for q in 0..3 {
            c.cnot(q, q + 1);
        }
        for q in 0..4 {
            c.t(q);
            c.h(q);
        }
        let keep = KcOptions {
            elide_internal: false,
            ..Default::default()
        };
        let elide = KcOptions::default();
        let kept = KcSimulator::compile(&c, &keep).metrics().ac_nodes;
        let elided = KcSimulator::compile(&c, &elide).metrics().ac_nodes;
        assert!(
            elided < kept,
            "elision should shrink the AC: {elided} vs {kept}"
        );
    }

    /// Exact expectation of a diagonal observable through the ordinary
    /// (non-tangent) bind — the oracle the analytic gradient is checked
    /// against by central finite differences.
    fn expectation_oracle(sim: &KcSimulator, params: &ParamMap, obs: &dyn Fn(usize) -> f64) -> f64 {
        sim.bind(params)
            .unwrap()
            .output_probabilities()
            .iter()
            .enumerate()
            .map(|(x, p)| p * obs(x))
            .sum()
    }

    /// A circuit exercising every analytic-tangent case at once: a shared
    /// symbol across multiple gates ("g" on two ZZ couplings), a symbol on
    /// a half-frequency gate (CRz), a symbol that unit resolution folds
    /// into the global factor (leading Rz on |0⟩ shares "a" with free
    /// gates), and fixed-probability noise.
    fn tangent_test_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.rz(0, Param::symbol("a"))
            .h(0)
            .rx(1, Param::symbol("a"))
            .zz(0, 1, Param::symbol("g"))
            .zz(1, 2, Param::symbol("g"))
            .crz(0, 2, Param::symbol("a"))
            .ry(1, Param::symbol("b"))
            .depolarize(1, 0.05);
        c
    }

    #[test]
    fn analytic_expectation_gradient_matches_finite_differences() {
        let c = tangent_test_circuit();
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let obs = |x: usize| x.count_ones() as f64 - 1.0;
        let symbols: Vec<String> = ["a", "g", "b", "absent"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let params = ParamMap::from_pairs([("a", 0.7), ("g", -0.4), ("b", 1.3)]);
        let bound = sim.bind_with_tangents(&params, &symbols).unwrap();
        assert_eq!(bound.num_symbols(), 4);
        let (value, grad) = bound.expectation_gradient(&obs);
        // The value is bitwise the ordinary probability fold.
        let want = expectation_oracle(&sim, &params, &obs);
        assert_eq!(value.to_bits(), want.to_bits());
        // Each gradient component matches a central finite difference.
        let h = 1e-5;
        for (s, name) in ["a", "g", "b"].iter().enumerate() {
            let shifted = |d: f64| {
                let mut p = params.clone();
                p.bind(name, params.get(name).unwrap() + d);
                expectation_oracle(&sim, &p, &obs)
            };
            let fd = (shifted(h) - shifted(-h)) / (2.0 * h);
            assert!(
                (grad[s] - fd).abs() < 1e-8,
                "d/d{name}: analytic {} vs fd {fd}",
                grad[s]
            );
        }
        // A symbol the circuit never mentions has zero gradient.
        assert_eq!(grad[3], 0.0);
    }
}

//! The engine-driven variational loop: batched Nelder–Mead, SPSA, or Adam
//! over parameter sweeps (and, for Adam, exact parameter-shift gradient
//! sweeps).

use crate::backend::EngineError;
use crate::facade::Engine;
use crate::sweep::SweepSpec;
use qkc_circuit::{Circuit, ParamMap};
use qkc_optim::{Adam, NelderMead, OptimResult, Spsa};

/// Configuration of [`minimize_variational`].
#[derive(Debug, Clone)]
pub struct VariationalConfig {
    /// The simplex optimizer (iteration budget, tolerance, step).
    pub optimizer: NelderMead,
    /// Shots per objective evaluation when the backend cannot compute the
    /// expectation exactly. `0` forces exact-only evaluation.
    pub shots: usize,
    /// Base seed; evaluation `k` of the loop derives its own stream, so a
    /// run is exactly reproducible.
    pub seed: u64,
}

impl Default for VariationalConfig {
    fn default() -> Self {
        Self {
            optimizer: NelderMead::new(),
            shots: 1024,
            seed: 0,
        }
    }
}

/// One weighted term of a variational objective: the expectation of a
/// diagonal observable over one circuit's output distribution. Multi-term
/// objectives arise from multiple measurement settings — VQE's `Z`-basis
/// couplings plus `X`-basis field terms, for example.
pub struct VariationalTerm<'a> {
    /// The (parameterized) circuit of this measurement setting.
    pub circuit: &'a Circuit,
    /// Diagonal observable over output bitstrings.
    pub observable: &'a (dyn Fn(usize) -> f64 + Sync),
    /// Coefficient of this term in the objective.
    pub weight: f64,
}

/// The outcome of a variational run.
#[derive(Debug, Clone)]
pub struct VariationalResult {
    /// The optimizer's result (best point, value, iteration counts).
    pub optim: OptimResult,
    /// Total objective evaluations routed through the engine (one per
    /// point per term).
    pub engine_evaluations: usize,
    /// Whether every evaluation was exact (from full distributions) rather
    /// than sampled.
    pub all_exact: bool,
}

/// Minimizes the expectation of `observable` over the output distribution
/// of `circuit`, as a function of the parameter vector `x` mapped to
/// bindings by `to_params` — the paper's variational loop, run end to end
/// through the engine.
///
/// The circuit structure compiles at most once (first evaluation, via the
/// engine's artifact cache); every subsequent objective evaluation re-binds
/// parameters. Candidate batches from the optimizer (initial simplex,
/// shrink steps) are fanned out across the engine's worker threads as one
/// parameter sweep.
///
/// # Errors
///
/// The first engine-level error encountered during an evaluation.
///
/// # Panics
///
/// Panics if `x0` is empty.
pub fn minimize_variational(
    engine: &Engine,
    circuit: &Circuit,
    to_params: impl Fn(&[f64]) -> ParamMap + Sync,
    observable: &(dyn Fn(usize) -> f64 + Sync),
    x0: &[f64],
    config: &VariationalConfig,
) -> Result<VariationalResult, EngineError> {
    minimize_variational_terms(
        engine,
        &[VariationalTerm {
            circuit,
            observable,
            weight: 1.0,
        }],
        to_params,
        x0,
        config,
    )
}

/// Multi-term variant of [`minimize_variational`]: minimizes
/// `Σ_t weight_t · ⟨observable_t⟩_{circuit_t(x)}`. Every term's circuit
/// compiles at most once; each optimizer batch becomes one parameter sweep
/// per term.
///
/// # Errors
///
/// The first engine-level error encountered during an evaluation.
///
/// # Panics
///
/// Panics if `terms` or `x0` is empty.
pub fn minimize_variational_terms(
    engine: &Engine,
    terms: &[VariationalTerm<'_>],
    to_params: impl Fn(&[f64]) -> ParamMap + Sync,
    x0: &[f64],
    config: &VariationalConfig,
) -> Result<VariationalResult, EngineError> {
    assert!(!terms.is_empty(), "need at least one objective term");
    let mut state = TermState::new(engine, terms, config.shots, config.seed);
    let optim = config
        .optimizer
        .minimize_batch_try(|points| state.eval_batch(&to_params, points), x0);
    state.finish(optim)
}

/// Shared evaluation state of the value-based loops (Nelder–Mead, SPSA):
/// one batched objective over the weighted terms, with per-batch seeding,
/// prompt abort on the first engine error, and evaluation accounting that
/// only counts batches whose values were actually delivered.
struct TermState<'e, 'a, 'b> {
    engine: &'e Engine,
    terms: &'b [VariationalTerm<'a>],
    shots: usize,
    seed: u64,
    first_error: Option<EngineError>,
    engine_evaluations: usize,
    all_exact: bool,
    batch_index: u64,
}

impl<'e, 'a, 'b> TermState<'e, 'a, 'b> {
    fn new(engine: &'e Engine, terms: &'b [VariationalTerm<'a>], shots: usize, seed: u64) -> Self {
        Self {
            engine,
            terms,
            shots,
            seed,
            first_error: None,
            engine_evaluations: 0,
            all_exact: true,
            batch_index: 0,
        }
    }

    /// Evaluates one optimizer batch: one parameter sweep per term.
    /// Returns `None` on the first engine error, aborting the optimizer
    /// promptly; discarded batches do not count toward
    /// `engine_evaluations`.
    fn eval_batch(
        &mut self,
        to_params: &(impl Fn(&[f64]) -> ParamMap + Sync),
        points: &[Vec<f64>],
    ) -> Option<Vec<f64>> {
        let bindings: Vec<ParamMap> = points.iter().map(|x| to_params(x)).collect();
        let mut totals = vec![0.0; points.len()];
        let mut exact = self.all_exact;
        for (t, term) in self.terms.iter().enumerate() {
            let spec = SweepSpec {
                shots: self.shots,
                observable: Some(term.observable),
                keep_samples: false,
                seed: crate::mix_seed(
                    self.seed,
                    self.batch_index * self.terms.len() as u64 + t as u64,
                ),
            };
            match self.engine.sweep(term.circuit, &bindings, &spec) {
                Ok(sweep_points) => {
                    for (total, p) in totals.iter_mut().zip(sweep_points) {
                        exact &= p.exact;
                        *total += term.weight * p.expectation.expect("observable was requested");
                    }
                }
                Err(e) => {
                    self.first_error = Some(e);
                    return None;
                }
            }
        }
        // The whole batch succeeded: commit its accounting.
        self.engine_evaluations += points.len() * self.terms.len();
        self.all_exact = exact;
        self.batch_index += 1;
        Some(totals)
    }

    fn finish(self, optim: OptimResult) -> Result<VariationalResult, EngineError> {
        if let Some(e) = self.first_error {
            return Err(e);
        }
        Ok(VariationalResult {
            optim,
            engine_evaluations: self.engine_evaluations,
            all_exact: self.all_exact,
        })
    }
}

/// A gradient-capable optimizer for [`minimize_variational_gradient`].
#[derive(Debug, Clone)]
pub enum GradientOptimizer {
    /// Adam over exact engine gradient queries (the one-pass analytic
    /// gradient on the compiled artifact; see [`Engine::gradient`]): one
    /// gradient sweep per iteration.
    Adam(Adam),
    /// SPSA over objective values only: two-point sweeps per iteration,
    /// robust to sampled objectives — no gradient queries issued. The
    /// perturbation stream is derived from *both* the run's
    /// [`VariationalGradientConfig::seed`] and the optimizer's own seed,
    /// so one config seed reproduces a whole trajectory while distinct
    /// optimizer seeds still explore distinct perturbation streams.
    Spsa(Spsa),
}

/// Configuration of [`minimize_variational_gradient`].
#[derive(Debug, Clone)]
pub struct VariationalGradientConfig {
    /// The optimizer (Adam rides gradient queries, SPSA value sweeps).
    pub optimizer: GradientOptimizer,
    /// Shots per objective evaluation when the backend cannot compute the
    /// expectation exactly (`0` forces exact-only). Only SPSA's value
    /// sweeps ever sample; gradient queries are always exact.
    pub shots: usize,
    /// Base seed: sweep batch `k` derives its own stream, and SPSA's
    /// perturbation stream derives from it too, so a run is exactly
    /// reproducible — independent of thread count and batch width.
    pub seed: u64,
}

impl Default for VariationalGradientConfig {
    fn default() -> Self {
        Self {
            optimizer: GradientOptimizer::Adam(Adam::new()),
            shots: 1024,
            seed: 0,
        }
    }
}

/// Central-difference step for probing the `x → ParamMap` coordinate map's
/// Jacobian (exactly `2⁻¹⁶`, so `x ± δ` costs one rounding each). The maps
/// variational workloads use are affine (sign flips, scalings), where the
/// probed slope is exact up to that rounding.
const JACOBIAN_PROBE_STEP: f64 = 1.0 / 65536.0;

/// Gradient-based variant of [`minimize_variational_terms`]: minimizes
/// `Σ_t weight_t · ⟨observable_t⟩_{circuit_t(to_params(x))}` with a
/// gradient-capable optimizer, under the same compile-once and per-batch
/// seeding contract as the simplex loop — results are bit-for-bit
/// reproducible across thread counts and batch widths.
///
/// With [`GradientOptimizer::Adam`], each iteration issues one engine
/// gradient query per term ([`Engine::gradient`]). On the
/// knowledge-compilation backend that is the one-pass analytic gradient,
/// on the same cached artifact the value sweeps use; parameter shift runs
/// only for a symbol in a noise channel.
/// The gradient with respect to `x` is pulled back through `to_params` by
/// the chain rule, with the coordinate map's Jacobian probed by central
/// differences (exact-to-rounding for the affine maps the workloads use).
///
/// With [`GradientOptimizer::Spsa`], no gradient queries are issued at
/// all: each iteration is one two-point value sweep, which also works for
/// sampled objectives (`shots > 0` on sampling backends).
///
/// # Errors
///
/// The first engine-level error encountered; the optimizer is aborted
/// promptly (no budget is burned after a failure).
///
/// # Panics
///
/// Panics if `terms` or `x0` is empty.
pub fn minimize_variational_gradient(
    engine: &Engine,
    terms: &[VariationalTerm<'_>],
    to_params: impl Fn(&[f64]) -> ParamMap + Sync,
    x0: &[f64],
    config: &VariationalGradientConfig,
) -> Result<VariationalResult, EngineError> {
    assert!(!terms.is_empty(), "need at least one objective term");
    match &config.optimizer {
        GradientOptimizer::Spsa(spsa) => {
            // SPSA is value-only: reuse the simplex loop's batched
            // objective. Its perturbation stream derives from the run
            // seed mixed with the optimizer's own seed (see
            // [`GradientOptimizer::Spsa`]).
            let spsa = spsa
                .clone()
                .with_seed(crate::mix_seed(config.seed, 0x5b5a_0001 ^ spsa.seed()));
            let mut state = TermState::new(engine, terms, config.shots, config.seed);
            let optim = spsa.minimize_batch_try(|points| state.eval_batch(&to_params, points), x0);
            state.finish(optim)
        }
        GradientOptimizer::Adam(adam) => {
            let n = x0.len();
            let wrt_per_term: Vec<Vec<String>> = terms
                .iter()
                .map(|t| crate::gradient::default_wrt(t.circuit))
                .collect();
            let mut first_error: Option<EngineError> = None;
            let mut engine_evaluations = 0usize;
            let mut all_exact = true;
            let optim = adam.minimize_batch_try(
                |points| {
                    let mut out = Vec::with_capacity(points.len());
                    let mut evals = 0usize;
                    let mut exact = all_exact;
                    for x in points {
                        // Probe the coordinate map's Jacobian at x.
                        let probes: Vec<(ParamMap, ParamMap)> = (0..n)
                            .map(|i| {
                                let mut xp = x.clone();
                                let mut xm = x.clone();
                                xp[i] += JACOBIAN_PROBE_STEP;
                                xm[i] -= JACOBIAN_PROBE_STEP;
                                (to_params(&xp), to_params(&xm))
                            })
                            .collect();
                        let params = to_params(x);
                        let mut value = 0.0;
                        let mut grad_x = vec![0.0; n];
                        for (term, wrt) in terms.iter().zip(&wrt_per_term) {
                            let r = match engine.gradient(
                                term.circuit,
                                &params,
                                term.observable,
                                Some(wrt),
                            ) {
                                Ok(r) => r,
                                Err(e) => {
                                    first_error = Some(e);
                                    return None;
                                }
                            };
                            evals += r.evaluations;
                            exact &= r.exact;
                            value += term.weight * r.value;
                            // Chain rule: ∂E/∂x_i = Σ_s ∂E/∂s · ∂s/∂x_i.
                            for (s, g_s) in wrt.iter().zip(&r.gradient) {
                                if *g_s == 0.0 {
                                    continue;
                                }
                                for (i, gx) in grad_x.iter_mut().enumerate() {
                                    let (plus, minus) = &probes[i];
                                    if let (Some(sp), Some(sm)) = (plus.get(s), minus.get(s)) {
                                        let j = (sp - sm) / (2.0 * JACOBIAN_PROBE_STEP);
                                        *gx += term.weight * g_s * j;
                                    }
                                }
                            }
                        }
                        out.push((value, grad_x));
                    }
                    engine_evaluations += evals;
                    all_exact = exact;
                    Some(out)
                },
                x0,
            );
            if let Some(e) = first_error {
                return Err(e);
            }
            Ok(VariationalResult {
                optim,
                engine_evaluations,
                all_exact,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendKind, EngineOptions};
    use qkc_circuit::Param;

    /// Minimize P(|1>) of Rx(theta)|0>: optimum at theta = 0 (mod 2pi).
    #[test]
    fn variational_loop_finds_the_minimum_exactly() {
        let engine = Engine::new();
        let mut c = Circuit::new(1);
        c.rx(0, Param::symbol("theta"));
        let result = minimize_variational(
            &engine,
            &c,
            |x| ParamMap::from_pairs([("theta", x[0])]),
            &|bits| bits as f64,
            &[2.0],
            &VariationalConfig {
                optimizer: NelderMead::new().with_max_iterations(120),
                shots: 0,
                seed: 5,
            },
        )
        .unwrap();
        assert!(result.all_exact);
        assert!(result.optim.value < 1e-6, "value {}", result.optim.value);
        assert!(result.engine_evaluations >= result.optim.evaluations);
        assert_eq!(engine.cache().misses(), 1, "one compile for the whole loop");
    }

    #[test]
    fn variational_runs_are_reproducible() {
        // Sampled objective (forced state-vector backend on a noisy
        // circuit): two runs with one seed agree, a third seed differs.
        let mk_engine = || {
            Engine::with_options(EngineOptions::default().with_backend(BackendKind::StateVector))
        };
        let mut c = Circuit::new(1);
        c.rx(0, Param::symbol("theta")).depolarize(0, 0.05);
        let run = |seed: u64| {
            let engine = mk_engine();
            minimize_variational(
                &engine,
                &c,
                |x| ParamMap::from_pairs([("theta", x[0])]),
                &|bits| bits as f64,
                &[1.0],
                &VariationalConfig {
                    optimizer: NelderMead::new().with_max_iterations(12),
                    shots: 64,
                    seed,
                },
            )
            .unwrap()
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.optim.x, b.optim.x);
        assert_eq!(a.optim.value, b.optim.value);
        assert!(!a.all_exact);
    }

    #[test]
    fn unbound_symbol_surfaces_as_error() {
        let engine = Engine::new();
        let mut c = Circuit::new(1);
        c.rx(0, Param::symbol("theta"));
        let r = minimize_variational(
            &engine,
            &c,
            |_| ParamMap::new(), // never binds theta
            &|bits| bits as f64,
            &[1.0],
            &VariationalConfig::default(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn exact_only_objective_on_incapable_backend_is_an_error_not_a_panic() {
        // shots = 0 (exact only) + forced state-vector backend + noisy
        // circuit: exact probabilities are unsupported, so the loop must
        // report the error instead of panicking on a missing expectation.
        let engine =
            Engine::with_options(EngineOptions::default().with_backend(BackendKind::StateVector));
        let mut c = Circuit::new(1);
        c.rx(0, Param::symbol("theta")).depolarize(0, 0.05);
        let r = minimize_variational(
            &engine,
            &c,
            |x| ParamMap::from_pairs([("theta", x[0])]),
            &|bits| bits as f64,
            &[1.0],
            &VariationalConfig {
                shots: 0,
                ..Default::default()
            },
        );
        match r {
            Err(EngineError::Unsupported { .. }) => {}
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn failed_batch_aborts_without_counting_evaluations() {
        // Unit-level contract of the shared term evaluator: the first
        // engine error returns None (aborting the optimizer promptly) and
        // the discarded batch never lands in `engine_evaluations`.
        let engine = Engine::new();
        let mut c = Circuit::new(1);
        c.rx(0, Param::symbol("theta"));
        let obs = |bits: usize| bits as f64;
        let terms = [VariationalTerm {
            circuit: &c,
            observable: &obs,
            weight: 1.0,
        }];
        let mut state = TermState::new(&engine, &terms, 0, 1);
        let to_params = |_x: &[f64]| ParamMap::new(); // never binds theta
        assert!(state.eval_batch(&to_params, &[vec![0.5]]).is_none());
        assert!(state.first_error.is_some());
        assert_eq!(state.engine_evaluations, 0, "discarded points not counted");
        // A successful batch (bound symbol) commits its accounting.
        let mut state = TermState::new(&engine, &terms, 0, 1);
        let to_params = |x: &[f64]| ParamMap::from_pairs([("theta", x[0])]);
        let values = state
            .eval_batch(&to_params, &[vec![0.5], vec![1.0]])
            .unwrap();
        assert_eq!(values.len(), 2);
        assert_eq!(state.engine_evaluations, 2);
    }

    #[test]
    fn gradient_loop_finds_the_minimum_with_adam() {
        // Minimize P(|1>) of Rx(theta)|0> = sin²(θ/2) by exact
        // analytic gradients: optimum at θ = 0 (mod 2π).
        let engine = Engine::new();
        let mut c = Circuit::new(1);
        c.rx(0, Param::symbol("theta"));
        let obs = |bits: usize| bits as f64;
        let result = minimize_variational_gradient(
            &engine,
            &[VariationalTerm {
                circuit: &c,
                observable: &obs,
                weight: 1.0,
            }],
            |x| ParamMap::from_pairs([("theta", x[0])]),
            &[2.0],
            &VariationalGradientConfig {
                optimizer: GradientOptimizer::Adam(qkc_optim::Adam::new().with_max_iterations(150)),
                shots: 0,
                seed: 3,
            },
        )
        .unwrap();
        assert!(result.all_exact, "analytic gradients are exact");
        assert!(result.optim.value < 1e-4, "value {}", result.optim.value);
        // One tape evaluation per gradient query on the analytic path,
        // regardless of parameter count.
        assert!(result.engine_evaluations >= result.optim.iterations);
        assert_eq!(engine.cache().misses(), 1, "one compile for the whole run");
    }

    #[test]
    fn gradient_loop_finds_the_minimum_with_spsa() {
        let engine = Engine::new();
        let mut c = Circuit::new(1);
        c.rx(0, Param::symbol("theta"));
        let obs = |bits: usize| bits as f64;
        let result = minimize_variational_gradient(
            &engine,
            &[VariationalTerm {
                circuit: &c,
                observable: &obs,
                weight: 1.0,
            }],
            |x| ParamMap::from_pairs([("theta", x[0])]),
            &[2.0],
            &VariationalGradientConfig {
                optimizer: GradientOptimizer::Spsa(qkc_optim::Spsa::new().with_max_iterations(300)),
                shots: 0,
                seed: 3,
            },
        )
        .unwrap();
        assert!(result.all_exact);
        assert!(result.optim.value < 5e-2, "value {}", result.optim.value);
        assert_eq!(engine.cache().misses(), 1);
    }

    #[test]
    fn gradient_loop_pulls_back_through_affine_maps() {
        // to_params binds theta = -2·x: the Jacobian pullback must flip
        // and scale the gradient, so the optimizer still converges — to
        // x = 0 (where theta = 0).
        let engine = Engine::new();
        let mut c = Circuit::new(1);
        c.rx(0, Param::symbol("theta"));
        let obs = |bits: usize| bits as f64;
        let result = minimize_variational_gradient(
            &engine,
            &[VariationalTerm {
                circuit: &c,
                observable: &obs,
                weight: 1.0,
            }],
            |x| ParamMap::from_pairs([("theta", -2.0 * x[0])]),
            &[1.0],
            &VariationalGradientConfig {
                optimizer: GradientOptimizer::Adam(qkc_optim::Adam::new().with_max_iterations(150)),
                shots: 0,
                seed: 0,
            },
        )
        .unwrap();
        assert!(result.optim.value < 1e-4, "value {}", result.optim.value);
    }

    #[test]
    fn gradient_runs_are_reproducible_across_threads_and_batch() {
        let mut c = Circuit::new(2);
        c.rx(0, Param::symbol("a")).zz(0, 1, Param::symbol("b"));
        let obs = |bits: usize| bits as f64;
        let run = |threads: usize, batch: usize, spsa: bool| {
            let engine = Engine::with_options(
                EngineOptions::default()
                    .with_threads(threads)
                    .with_batch(batch),
            );
            let optimizer = if spsa {
                GradientOptimizer::Spsa(qkc_optim::Spsa::new().with_max_iterations(40))
            } else {
                GradientOptimizer::Adam(qkc_optim::Adam::new().with_max_iterations(40))
            };
            minimize_variational_gradient(
                &engine,
                &[VariationalTerm {
                    circuit: &c,
                    observable: &obs,
                    weight: 1.0,
                }],
                |x| ParamMap::from_pairs([("a", x[0]), ("b", x[1])]),
                &[1.2, 0.4],
                &VariationalGradientConfig {
                    optimizer,
                    shots: 0,
                    seed: 11,
                },
            )
            .unwrap()
        };
        for spsa in [false, true] {
            let base = run(1, 1, spsa);
            for (threads, batch) in [(2, 3), (4, 8), (8, 1)] {
                let got = run(threads, batch, spsa);
                assert_eq!(
                    base.optim.x, got.optim.x,
                    "spsa={spsa} threads={threads} batch={batch}"
                );
                assert_eq!(base.optim.value.to_bits(), got.optim.value.to_bits());
            }
        }
    }

    #[test]
    fn two_term_objective_sums_weighted_expectations() {
        // Terms: +1·P(|1>) on Rx(theta) and -0.5·P(|1>) on the same
        // circuit; net objective 0.5·sin^2(theta/2), minimized at 0.
        let engine = Engine::new();
        let mut c = Circuit::new(1);
        c.rx(0, Param::symbol("theta"));
        let obs = |bits: usize| bits as f64;
        let result = minimize_variational_terms(
            &engine,
            &[
                VariationalTerm {
                    circuit: &c,
                    observable: &obs,
                    weight: 1.0,
                },
                VariationalTerm {
                    circuit: &c,
                    observable: &obs,
                    weight: -0.5,
                },
            ],
            |x| ParamMap::from_pairs([("theta", x[0])]),
            &[2.0],
            &VariationalConfig {
                optimizer: NelderMead::new().with_max_iterations(120),
                shots: 0,
                seed: 1,
            },
        )
        .unwrap();
        assert!(result.optim.value.abs() < 1e-6);
        assert_eq!(engine.cache().misses(), 1, "same structure: one compile");
    }
}

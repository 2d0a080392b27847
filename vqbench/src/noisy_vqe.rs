//! `noisy-vqe-sample`: sampling a noisy circuit beyond exact enumeration.
//!
//! Op: one `Engine::sweep` over an SPSA ± pair with 2048 shots per point;
//! 4×3 transverse-field Ising VQE ansatz, 1 layer, with a local
//! depolarizing channel (p = 0.01) after every gate on every qubit it
//! touches — 46 channels, the local noise model of Zeng et al.
//! (arXiv:2010.14821).
//!
//! Why: the paper's headline regime. Gibbs transitions on the scalar tape
//! kernels dominate; there is no enumeration and an op has two points, so
//! executor fixed costs are negligible. Layers it stresses:
//! `core` sampler and samples, `knowledge` Gibbs. Predicts no change:
//! executor (engine) and batch-kernel changes. Set-up asserts the planner
//! keeps it on knowledge compilation (a 6-qubit version would be planned
//! onto the density-matrix backend and time the wrong layer).

use crate::harness::Workload;
use crate::replay;
use crate::trace::Tracer;
use crate::util::{Fnv, Rng};
use qkc_circuit::{Circuit, NoiseChannel, ParamMap};
use qkc_engine::{
    Backend, BackendKind, Engine, EngineOptions, PlanHint, StateVectorBackend, SweepSpec,
};
use qkc_workloads::VqeIsing;
use std::path::Path;

const WIDTH: usize = 4;
const HEIGHT: usize = 3;
const CHANNELS: usize = 46;
const DEPOLARIZING: f64 = 0.01;
const SHOTS: usize = 2048;
/// Seed of the fixed base point of the parameter path.
const BASE_SEED: u64 = 1;
/// SPSA perturbation size.
const SPSA_C: f64 = 0.15;
/// State-vector trajectories per checked point (split across vCPUs).
const TRAJECTORIES: usize = 384;
/// Sokal's window constant for the chain's integrated autocorrelation time.
const WINDOW: f64 = 5.0;
/// Standard errors the two estimates may differ by.
const Z: f64 = 5.0;

pub struct NoisyVqe {
    vqe: VqeIsing,
    circuit: Circuit,
    /// The noise-free ansatz: exact-query layers of the probe run on it.
    pure: Circuit,
    points: Vec<[ParamMap; 2]>,
    seeds: Vec<u64>,
    deep_ops: Vec<usize>,
}

impl NoisyVqe {
    pub fn new(seed: u64, ops: usize, deep_ops: Vec<usize>) -> Self {
        let vqe = VqeIsing::new(WIDTH, HEIGHT, 1);
        let pure = vqe.circuit();
        let circuit = pure.with_noise_after_each_gate(&NoiseChannel::depolarizing(DEPOLARIZING));
        assert_eq!(
            circuit.num_noise_ops(),
            CHANNELS,
            "one channel per gate qubit"
        );
        // The base point is fixed and the seeded drift is small: a chain's
        // cost per transition depends on its acceptance rate, so a seeded
        // region of parameter space would make the run-to-run spread a
        // property of the seed instead of the code. Angles stay away from
        // 0 and π: a nearly deterministic qubit pins the coordinate-wise
        // chain to whichever error/outcome pair it first meets, and the
        // trajectory oracle would rightly fail it.
        let mut base = Rng::new(BASE_SEED, 5);
        let mut theta: Vec<f64> = (0..vqe.num_params())
            .map(|_| base.range(0.8, 2.3))
            .collect();
        let mut rng = Rng::new(seed, 5);
        let points = (0..ops)
            .map(|_| {
                for t in &mut theta {
                    *t += rng.range(-0.01, 0.01);
                }
                let delta: Vec<f64> = theta.iter().map(|_| SPSA_C * rng.sign()).collect();
                let plus: Vec<f64> = theta.iter().zip(&delta).map(|(t, d)| t + d).collect();
                let minus: Vec<f64> = theta.iter().zip(&delta).map(|(t, d)| t - d).collect();
                [vqe.params(&plus), vqe.params(&minus)]
            })
            .collect();
        let seeds = (0..ops).map(|_| rng.next_u64()).collect();
        Self {
            vqe,
            circuit,
            pure,
            points,
            seeds,
            deep_ops,
        }
    }

    /// Variance of the mean of a chain's autocorrelated `values`: the
    /// sample variance times the integrated autocorrelation time, over the
    /// sample count. The time sums autocorrelations up to Sokal's
    /// self-consistent window. (Batch means with 32 batches underestimated
    /// the spread against 1536-trajectory references: RMS z 1.24, against
    /// 1.13 for this estimate.)
    fn mean_variance(values: &[f64]) -> f64 {
        let n = values.len();
        let mu = values.iter().sum::<f64>() / n as f64;
        let c: Vec<f64> = values.iter().map(|v| v - mu).collect();
        let autocov =
            |lag: usize| c.iter().zip(&c[lag..]).map(|(a, b)| a * b).sum::<f64>() / n as f64;
        let c0 = autocov(0);
        if c0 == 0.0 {
            return 0.0;
        }
        let mut tau = 1.0;
        for lag in 1..n / 2 {
            tau += 2.0 * autocov(lag) / c0;
            if lag as f64 >= WINDOW * tau {
                break;
            }
        }
        c0 * tau / n as f64
    }

    /// State-vector trajectory estimate of ⟨ZZ⟩ and its variance, the
    /// trajectories split across every vCPU.
    fn trajectories(&self, params: &ParamMap, seed: u64) -> Result<(f64, f64), String> {
        let obs = self.vqe.zz_observable();
        let cpus = crate::util::nproc();
        let per = TRAJECTORIES.div_ceil(cpus);
        let draws = std::thread::scope(|s| {
            let handles: Vec<_> = (0..cpus)
                .map(|t| {
                    s.spawn(move || {
                        StateVectorBackend::new(1).sample(
                            &self.circuit,
                            params,
                            per,
                            crate::util::mix(seed, t as u64),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("trajectory thread"))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())?;
        let values: Vec<f64> = draws.iter().flatten().map(|&s| obs(s)).collect();
        let n = values.len() as f64;
        let mu = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mu).powi(2)).sum::<f64>() / (n - 1.0);
        Ok((mu, var / n))
    }
}

/// One sampled point: the sampled ⟨ZZ⟩ and its shots.
pub type Sampled = Vec<(f64, Vec<usize>)>;

impl Workload for NoisyVqe {
    type Runner = Engine;
    type Out = Sampled;

    fn units(&self, _op: usize) -> u64 {
        2 * SHOTS as u64
    }

    fn runner(&self, threads: usize, _dir: &Path) -> Result<Engine, String> {
        let engine = Engine::try_with_options(EngineOptions::default().with_threads(threads))
            .map_err(|e| e.to_string())?;
        let plan = engine.plan_with_hint(&self.circuit, PlanHint::ParameterSweep);
        if plan.backend != BackendKind::KnowledgeCompilation {
            return Err(format!("planner chose {}: {}", plan.backend, plan.reason));
        }
        Ok(engine)
    }

    fn engine<'a>(&self, r: &'a Engine) -> &'a Engine {
        r
    }

    fn run_op(&self, engine: &Engine, op: usize) -> Result<Sampled, String> {
        let obs = self.vqe.zz_observable();
        let spec = SweepSpec {
            shots: SHOTS,
            observable: Some(&obs),
            keep_samples: true,
            seed: self.seeds[op],
        };
        let points = engine
            .sweep(&self.circuit, &self.points[op], &spec)
            .map_err(|e| e.to_string())?;
        points
            .into_iter()
            .map(|p| match (p.exact, p.expectation) {
                (false, Some(v)) => Ok((v, p.samples)),
                _ => Err(format!("point {} was not sampled", p.index)),
            })
            .collect()
    }

    fn summary(&self, _op: usize, out: &Sampled) -> (String, u64) {
        let mut h = Fnv::default();
        for (v, samples) in out {
            h.f64(*v);
            samples.iter().for_each(|&s| h.u64(s as u64));
        }
        let shots: Vec<usize> = out.iter().map(|(_, s)| s.len()).collect();
        (
            format!("points={} samples_per_point={shots:?}", out.len()),
            h.finish(),
        )
    }

    fn check(&self, _r: &Engine, op: usize, out: &Sampled) -> Result<(), String> {
        let obs = self.vqe.zz_observable();
        if out.len() != 2 {
            return Err(format!("{} points, expected 2", out.len()));
        }
        for (i, (v, samples)) in out.iter().enumerate() {
            if samples.len() != SHOTS {
                return Err(format!("point {i}: {} samples", samples.len()));
            }
            let values: Vec<f64> = samples.iter().map(|&s| obs(s)).collect();
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            if mean.to_bits() != v.to_bits() {
                return Err(format!(
                    "point {i}: estimate {v} is not the mean of its samples"
                ));
            }
            if !self.deep_ops.contains(&op) {
                continue;
            }
            let (sv, sv_var) = self.trajectories(&self.points[op][i], self.seeds[op] ^ i as u64)?;
            let bound = Z * (Self::mean_variance(&values) + sv_var).sqrt();
            println!(
                "op {op} oracle point {i}: gibbs {mean:.4} trajectories {sv:.4} bound {bound:.4}"
            );
            if (mean - sv).abs() > bound {
                return Err(format!(
                    "point {i}: sampled ⟨ZZ⟩ {mean} vs trajectories {sv} (bound {bound})"
                ));
            }
        }
        Ok(())
    }

    fn compiled(&self, engine: &Engine) -> Option<String> {
        Some(replay::cached_counts(engine, &self.circuit))
    }

    fn replay(
        &self,
        tr: &mut Tracer,
        engine: &Engine,
        op: usize,
        out: &Sampled,
    ) -> Result<(), String> {
        let opts = engine.options().kc_options.clone();
        let mut got = Vec::new();
        tr.span(
            "replay",
            self.units(op) as f64,
            |tr| -> Result<(), String> {
                replay::plan(tr, engine, &self.circuit)?;
                for (i, p) in self.points[op].iter().enumerate() {
                    let sim = tr.span("engine.cache.hit", 1.0, |_| {
                        engine.cache().get_or_compile(&self.circuit, &opts)
                    });
                    tr.span("bayesnet.weights", 1.0, |_| {
                        sim.bayes_net().evaluate_weights(p)
                    })
                    .map_err(|e| e.to_string())?;
                    let bound = tr
                        .span("core.bind", 1.0, |_| sim.bind(p))
                        .map_err(|e| e.to_string())?;
                    let mut sampler = tr.span("core.sampler_warmup", 1.0, |_| {
                        bound.sampler(&replay::gibbs_options(self.seeds[op], i))
                    });
                    got.push(tr.span("core.sample", SHOTS as f64, |_| {
                        sampler.sample_outputs(SHOTS, replay::GIBBS_THIN)
                    }));
                    tr.add("gibbs.accept", sampler.acceptance_rate());
                    tr.add("gibbs.n", 1.0);
                }
                Ok(())
            },
        )?;
        if got.iter().zip(out).all(|(g, (_, s))| g == s) {
            Ok(())
        } else {
            Err("replayed samples differ from the engine's".into())
        }
    }

    fn probe(&self, tr: &mut Tracer, engine: &Engine) -> Result<(), String> {
        let obs = self.vqe.zz_observable();
        let lanes: Vec<ParamMap> = self.points.iter().flatten().take(16).cloned().collect();
        replay::probe(
            tr,
            engine,
            &replay::Probe {
                circuit: &self.circuit,
                exact: &self.pure,
                lanes: &lanes,
                sample_params: &lanes[0],
                obs: &obs,
            },
        )
    }
}

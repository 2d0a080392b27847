//! `qaoa-sweep`: the paper's compile-once, bind-many sweep.
//!
//! Op: one `Engine::sweep` of 256 exact-expectation points along a seeded
//! path; QAOA MaxCut p=2 on a fixed 3-regular graph, 8 qubits, batch 16.
//! The graph does not follow the seed: compiled tape sizes of random
//! 3-regular 8-vertex graphs span 2.3k–10k ops, so a seeded graph would
//! make the run-to-run spread a property of the seed instead of the code.
//!
//! Why: `BoundKcBatch::expectations` (batch delta kernel plus Gray
//! enumeration) does nearly all the work, and its 16 lane batches per op
//! make it the workload the traced run measures executor fan-out on.
//! Layers it stresses: `core` expectations, the `knowledge` tape kernels
//! and the `engine` executor. Predicts no change: noisy-vqe-sample for the
//! executor (two points per op) and compile-churn for the kernels (compile
//! dominates there).

use crate::harness::Workload;
use crate::replay;
use crate::trace::Tracer;
use crate::util::{Fnv, Rng};
use qkc_circuit::{Circuit, ParamMap};
use qkc_engine::{Engine, EngineOptions, SweepSpec};
use qkc_statevector::StateVectorSimulator;
use qkc_workloads::{Graph, QaoaMaxCut};
use std::path::Path;

const QUBITS: usize = 8;
const DEPTH: usize = 2;
/// Seed of the fixed problem graph (a 3149-op tape).
const GRAPH_SEED: u64 = 4;
const POINTS: usize = 256;
const BATCH: usize = 16;
/// Points per op the state-vector oracle re-evaluates.
const ORACLE_POINTS: usize = 8;

pub struct QaoaSweep {
    qaoa: QaoaMaxCut,
    circuit: Circuit,
    /// Sweep points of every op, a seeded random walk in angle space.
    points: Vec<Vec<ParamMap>>,
    seed: u64,
}

impl QaoaSweep {
    pub fn new(seed: u64, ops: usize) -> Self {
        let qaoa = QaoaMaxCut::new(Graph::random_regular(QUBITS, 3, GRAPH_SEED), DEPTH);
        let mut rng = Rng::new(seed, 2);
        let mut angles: Vec<f64> = (0..2 * DEPTH).map(|_| rng.range(0.1, 1.1)).collect();
        let points = (0..ops)
            .map(|_| {
                (0..POINTS)
                    .map(|_| {
                        for a in &mut angles {
                            *a += rng.range(-0.01, 0.01);
                        }
                        qaoa.params(&angles[..DEPTH], &angles[DEPTH..])
                    })
                    .collect()
            })
            .collect();
        Self {
            circuit: qaoa.circuit(),
            qaoa,
            points,
            seed,
        }
    }

    fn spec<'a>(obs: &'a (dyn Fn(usize) -> f64 + Sync)) -> SweepSpec<'a> {
        SweepSpec {
            shots: 0,
            observable: Some(obs),
            keep_samples: false,
            seed: 0,
        }
    }
}

impl Workload for QaoaSweep {
    type Runner = Engine;
    type Out = Vec<f64>;

    fn units(&self, _op: usize) -> u64 {
        POINTS as u64
    }

    fn runner(&self, threads: usize, _dir: &Path) -> Result<Engine, String> {
        Engine::try_with_options(
            EngineOptions::default()
                .with_threads(threads)
                .with_batch(BATCH),
        )
        .map_err(|e| e.to_string())
    }

    fn engine<'a>(&self, r: &'a Engine) -> &'a Engine {
        r
    }

    fn run_op(&self, engine: &Engine, op: usize) -> Result<Vec<f64>, String> {
        let obs = self.qaoa.cut_observable();
        let points = engine
            .sweep(&self.circuit, &self.points[op], &Self::spec(&obs))
            .map_err(|e| e.to_string())?;
        points
            .iter()
            .map(|p| match (p.exact, p.expectation) {
                (true, Some(v)) => Ok(v),
                _ => Err(format!("point {} is not an exact expectation", p.index)),
            })
            .collect()
    }

    fn summary(&self, _op: usize, out: &Vec<f64>) -> (String, u64) {
        let mut h = Fnv::default();
        out.iter().for_each(|&v| h.f64(v));
        let counts = format!(
            "points={} lanes={BATCH} lane_batches={} basis_states={}",
            out.len(),
            out.len().div_ceil(BATCH),
            out.len() << QUBITS
        );
        (counts, h.finish())
    }

    fn check(&self, _r: &Engine, op: usize, out: &Vec<f64>) -> Result<(), String> {
        if out.len() != POINTS {
            return Err(format!("{} points, expected {POINTS}", out.len()));
        }
        let obs = self.qaoa.cut_observable();
        let sv = StateVectorSimulator::new();
        let mut rng = Rng::new(self.seed, 1000 + op as u64);
        for _ in 0..ORACLE_POINTS {
            let i = rng.below(POINTS);
            let probs = sv
                .probabilities(&self.circuit, &self.points[op][i])
                .map_err(|e| e.to_string())?;
            let want: f64 = probs.iter().enumerate().map(|(x, p)| p * obs(x)).sum();
            if (out[i] - want).abs() > 1e-9 {
                return Err(format!("point {i}: {} vs state vector {want}", out[i]));
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
        out: &Vec<f64>,
    ) -> Result<(), String> {
        let obs = self.qaoa.cut_observable();
        let opts = engine.options().kc_options.clone();
        let points = &self.points[op];
        let mut got = Vec::with_capacity(POINTS);
        let mut expect_s = Vec::new();
        let sim = tr.span("replay", POINTS as f64, |tr| -> Result<_, String> {
            replay::plan(tr, engine, &self.circuit)?;
            let mut sim = None;
            for lane in points.chunks(BATCH) {
                let s = tr.span("engine.cache.hit", 1.0, |_| {
                    engine.cache().get_or_compile(&self.circuit, &opts)
                });
                got.extend(replay::expectations(tr, &s, lane, &obs)?);
                expect_s.push(replay::last_secs(tr, "core.expectations"));
                sim = Some(s);
            }
            sim.ok_or_else(|| "empty op".to_string())
        })?;
        if replay::bits(&got) != replay::bits(out) {
            return Err("replayed expectations differ from the engine's".into());
        }
        // Kernel drill-down on one seeded lane batch of this op.
        let b = Rng::new(self.seed, 2000 + op as u64).below(POINTS / BATCH);
        let lane = &points[b * BATCH..(b + 1) * BATCH];
        let replayed = tr.span("knowledge.kernel", BATCH as f64, |tr| {
            replay::kernel_replay(tr, &sim, lane, &[], &obs)
        })?;
        tr.add("enum.expect_s", expect_s[b]);
        if replay::bits(&replayed) != replay::bits(&out[b * BATCH..(b + 1) * BATCH]) {
            return Err("kernel replay differs from BoundKcBatch::expectations".into());
        }
        Ok(())
    }

    fn probe(&self, tr: &mut Tracer, engine: &Engine) -> Result<(), String> {
        let obs = self.qaoa.cut_observable();
        replay::probe(
            tr,
            engine,
            &replay::Probe {
                circuit: &self.circuit,
                exact: &self.circuit,
                lanes: &self.points[0][..BATCH],
                sample_params: &self.points[0][0],
                obs: &obs,
            },
        )
    }
}

//! `maqaoa-grad`: one-pass analytic gradients.
//!
//! Op: one `Engine::gradient_sweep` over 8 points of depth-2 multi-angle
//! QAOA (every edge and vertex its own angle per layer: 40 symbols) on a
//! fixed 3-regular graph with 8 qubits (fixed for the reason given in
//! `qaoa_sweep`; the seed drives the gradient points and the oracle).
//!
//! Why: `BoundKcTangents::expectation_gradient` is most of a gradient and
//! the tangent bind about 1%; there are no lane batches. Layers it
//! stresses: `core` gradient and tangent bind, `bayesnet` tangent
//! weights. Predicts no change: a sweep-kernel (batch delta) change should
//! not move it, and compile stages are set-up only.

use crate::harness::Workload;
use crate::replay;
use crate::trace::Tracer;
use crate::util::{Fnv, Rng};
use qkc_circuit::{Circuit, Param, ParamMap};
use qkc_engine::{Engine, EngineOptions, GradientMethod, GradientPoint, GradientSpec};
use qkc_statevector::StateVectorSimulator;
use qkc_workloads::Graph;
use std::path::Path;

const QUBITS: usize = 8;
const DEPTH: usize = 2;
const POINTS: usize = 8;
/// Seed of the fixed problem graph (a 4733-op tape).
const GRAPH_SEED: u64 = 3;
/// Central-difference step of the state-vector gradient oracle.
const FD_STEP: f64 = 1e-5;

pub struct MaQaoaGrad {
    graph: Graph,
    circuit: Circuit,
    symbols: Vec<String>,
    points: Vec<Vec<ParamMap>>,
    seed: u64,
}

impl MaQaoaGrad {
    pub fn new(seed: u64, ops: usize) -> Self {
        let graph = Graph::random_regular(QUBITS, 3, GRAPH_SEED);
        let mut circuit = Circuit::new(QUBITS);
        for q in 0..QUBITS {
            circuit.h(q);
        }
        for layer in 0..DEPTH {
            for (e, &(a, b)) in graph.edges().iter().enumerate() {
                circuit.zz(a, b, Param::symbol(format!("g{layer}_{e}")));
            }
            for q in 0..QUBITS {
                circuit.rx(q, Param::symbol(format!("b{layer}_{q}")));
            }
        }
        let symbols: Vec<String> = circuit.symbols().into_iter().collect();
        let mut rng = Rng::new(seed, 4);
        let points = (0..ops)
            .map(|_| {
                (0..POINTS)
                    .map(|_| {
                        let mut p = ParamMap::new();
                        for s in &symbols {
                            p.bind(s, rng.range(-1.5, 1.5));
                        }
                        p
                    })
                    .collect()
            })
            .collect();
        Self {
            graph,
            circuit,
            symbols,
            points,
            seed,
        }
    }

    fn observable(&self) -> impl Fn(usize) -> f64 + Sync + '_ {
        move |bits| self.graph.cut_value(bits) as f64
    }

    fn sv_expectation(&self, params: &ParamMap) -> Result<f64, String> {
        let obs = self.observable();
        let probs = StateVectorSimulator::new()
            .probabilities(&self.circuit, params)
            .map_err(|e| e.to_string())?;
        Ok(probs.iter().enumerate().map(|(x, p)| p * obs(x)).sum())
    }
}

impl Workload for MaQaoaGrad {
    type Runner = Engine;
    type Out = Vec<GradientPoint>;

    fn units(&self, _op: usize) -> u64 {
        POINTS as u64
    }

    fn runner(&self, threads: usize, _dir: &Path) -> Result<Engine, String> {
        Engine::try_with_options(EngineOptions::default().with_threads(threads))
            .map_err(|e| e.to_string())
    }

    fn engine<'a>(&self, r: &'a Engine) -> &'a Engine {
        r
    }

    fn run_op(&self, engine: &Engine, op: usize) -> Result<Vec<GradientPoint>, String> {
        let obs = self.observable();
        let out = engine
            .gradient_sweep(&self.circuit, &self.points[op], &GradientSpec::new(&obs))
            .map_err(|e| e.to_string())?;
        match out
            .iter()
            .find(|g| g.method != GradientMethod::Analytic || !g.exact)
        {
            Some(g) => Err(format!("point {} took the {:?} path", g.index, g.method)),
            None => Ok(out),
        }
    }

    fn summary(&self, _op: usize, out: &Vec<GradientPoint>) -> (String, u64) {
        let mut h = Fnv::default();
        for g in out {
            h.f64(g.value);
            g.gradient.iter().for_each(|&d| h.f64(d));
        }
        let symbols = out.first().map_or(0, |g| g.gradient.len());
        (
            format!("gradient_points={} symbols={symbols}", out.len()),
            h.finish(),
        )
    }

    fn check(&self, _r: &Engine, op: usize, out: &Vec<GradientPoint>) -> Result<(), String> {
        if out.len() != POINTS || out.iter().any(|g| g.gradient.len() != self.symbols.len()) {
            return Err("wrong gradient shape".into());
        }
        // One seeded point per op: value within 1e-9 and every component
        // within 1e-6 of central differences of state-vector expectations.
        let i = Rng::new(self.seed, 3000 + op as u64).below(POINTS);
        let point = &self.points[op][i];
        let value = self.sv_expectation(point)?;
        if (out[i].value - value).abs() > 1e-9 {
            return Err(format!(
                "point {i} value {} vs state vector {value}",
                out[i].value
            ));
        }
        for (s, name) in self.symbols.iter().enumerate() {
            let shifted = |d: f64| {
                let mut p = point.clone();
                p.bind(name, point.get(name).unwrap_or_default() + d);
                self.sv_expectation(&p)
            };
            let fd = (shifted(FD_STEP)? - shifted(-FD_STEP)?) / (2.0 * FD_STEP);
            if (out[i].gradient[s] - fd).abs() > 1e-6 {
                return Err(format!(
                    "point {i} d/d{name}: {} vs {fd}",
                    out[i].gradient[s]
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
        out: &Vec<GradientPoint>,
    ) -> Result<(), String> {
        let obs = self.observable();
        let opts = engine.options().kc_options.clone();
        let wrt = &self.symbols;
        let mut got = Vec::new();
        tr.span("replay", POINTS as f64, |tr| -> Result<(), String> {
            replay::plan(tr, engine, &self.circuit)?;
            for p in &self.points[op] {
                let sim = tr.span("engine.cache.hit", 1.0, |_| {
                    engine.cache().get_or_compile(&self.circuit, &opts)
                });
                tr.span("bayesnet.tangent_weights", 1.0, |_| {
                    sim.bayes_net().evaluate_weights_with_tangents(p, wrt)
                })
                .map_err(|e| e.to_string())?;
                let bound = tr
                    .span("core.bind_tangents", 1.0, |_| {
                        sim.bind_with_tangents(p, wrt)
                    })
                    .map_err(|e| e.to_string())?;
                got.push(tr.span("core.gradient", 1.0, |_| bound.expectation_gradient(&obs)));
            }
            Ok(())
        })?;
        let same = got.iter().zip(out).all(|((v, g), o)| {
            v.to_bits() == o.value.to_bits() && replay::bits(g) == replay::bits(&o.gradient)
        });
        if same {
            Ok(())
        } else {
            Err("replayed gradients differ from the engine's".into())
        }
    }

    fn probe(&self, tr: &mut Tracer, engine: &Engine) -> Result<(), String> {
        let obs = self.observable();
        let lanes: Vec<ParamMap> = self.points.iter().flatten().take(16).cloned().collect();
        replay::probe(
            tr,
            engine,
            &replay::Probe {
                circuit: &self.circuit,
                exact: &self.circuit,
                lanes: &lanes,
                sample_params: &lanes[0],
                obs: &obs,
            },
        )
    }
}

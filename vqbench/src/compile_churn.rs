//! `compile-churn`: compilation and both cache paths in the timed phase.
//!
//! Op: one client queries 6 new seeded 8-qubit QAOA p=1 structures
//! (distinct structural hashes across the whole run) and revisits the
//! previous op's 6, each with a 4-point sweep. The cache's byte budget is
//! below the smallest artifact and spills go to a run-private directory,
//! so a new structure always compiles and writes its spill file, a revisit
//! always rehydrates from it, and every artifact is evicted on arrival.
//! A budget holding a few artifacts would evict by measured compile
//! seconds, i.e. by timing noise; this one makes every cache count exact.
//!
//! Why: the only workload whose timed phase includes compilation (the
//! d-DNNF search dominates a compile) and spill write / rehydrate read.
//! Layers it stresses: `knowledge` compile stages, `cnf`, `bayesnet`
//! build, `core` artifact encode/decode, the `engine` cache. Predicts no
//! change: tape-kernel changes (kernels are negligible here).

use crate::harness::Workload;
use crate::replay;
use crate::trace::Tracer;
use crate::util::{Fnv, Rng};
use qkc_circuit::{Circuit, ParamMap};
use qkc_core::{KcOptions, KcSimulator};
use qkc_engine::{ArtifactCache, CacheOptions, CacheStats, Engine, EngineOptions, SweepSpec};
use qkc_statevector::StateVectorSimulator;
use qkc_workloads::{Graph, QaoaMaxCut};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const QUBITS: usize = 8;
const NEW_PER_OP: usize = 6;
const POINTS: usize = 4;
/// Resident-byte budget: below any compiled 8-qubit artifact.
const BUDGET_BYTES: usize = 1;
/// Seed of the set-up op's fixed structures.
const SETUP_SEED: u64 = 1;

struct Structure {
    graph: Graph,
    circuit: Circuit,
    points: Vec<ParamMap>,
}

pub struct Churn {
    structures: Vec<Structure>,
    /// `fresh[op]`: the structure ids an op compiles.
    fresh: Vec<Vec<usize>>,
    /// First fresh-compile results per structure: every later query of
    /// the structure, rehydrated or recompiled, must match them bit for
    /// bit.
    reference: Mutex<HashMap<usize, Vec<u64>>>,
    /// Artifact bytes the replay encoded, for the revisit's decode.
    encoded: Mutex<HashMap<usize, Vec<u8>>>,
}

pub struct Runner {
    engine: Engine,
    spill: PathBuf,
    /// Ops this runner has run: a revisit is a spill hit only on a runner
    /// that ran the previous op (a runner joining the stream late
    /// compiles it afresh).
    ran: Mutex<HashSet<usize>>,
}

/// One query: structure id, whether it was a revisit, expectations.
type Query = (usize, bool, Vec<f64>);

pub struct Out {
    queries: Vec<Query>,
    before: CacheStats,
    after: CacheStats,
}

impl Churn {
    pub fn new(seed: u64, ops: usize) -> Self {
        // Op 0 is the set-up op, so its structures are fixed: compile costs
        // of random 3-regular 8-vertex graphs differ by several times, and
        // seeded ones made `setup_s` a property of the seed (0.043 s vs
        // 0.071 s). Later ops follow the seed.
        let (mut setup, mut seeded) = (Rng::new(SETUP_SEED, 7), Rng::new(seed, 7));
        let mut seen = HashSet::new();
        let mut structures = Vec::new();
        let fresh = (0..ops)
            .map(|op| {
                let rng = if op == 0 { &mut setup } else { &mut seeded };
                (0..NEW_PER_OP)
                    .map(|_| loop {
                        let graph = Graph::random_regular(QUBITS, 3, rng.next_u64());
                        let qaoa = QaoaMaxCut::new(graph.clone(), 1);
                        let circuit = qaoa.circuit();
                        if !seen.insert(circuit.structural_hash()) {
                            continue;
                        }
                        let points = (0..POINTS)
                            .map(|_| qaoa.params(&[rng.range(0.1, 1.2)], &[rng.range(0.1, 0.8)]))
                            .collect();
                        structures.push(Structure {
                            graph,
                            circuit,
                            points,
                        });
                        break structures.len() - 1;
                    })
                    .collect()
            })
            .collect();
        Self {
            structures,
            fresh,
            reference: Mutex::new(HashMap::new()),
            encoded: Mutex::new(HashMap::new()),
        }
    }

    /// The structures op `op` queries, in order.
    fn queries(&self, op: usize) -> impl Iterator<Item = (usize, bool)> + '_ {
        let revisits = op.checked_sub(1).map_or(&[][..], |p| &self.fresh[p][..]);
        self.fresh[op]
            .iter()
            .map(|&id| (id, false))
            .chain(revisits.iter().map(|&id| (id, true)))
    }

    fn observable(s: &Structure) -> impl Fn(usize) -> f64 + Sync + '_ {
        move |bits| s.graph.cut_value(bits) as f64
    }

    fn query(&self, engine: &Engine, id: usize) -> Result<Vec<f64>, String> {
        let s = &self.structures[id];
        let obs = Self::observable(s);
        let spec = SweepSpec {
            shots: 0,
            observable: Some(&obs),
            keep_samples: false,
            seed: 0,
        };
        engine
            .sweep(&s.circuit, &s.points, &spec)
            .map_err(|e| e.to_string())?
            .iter()
            .map(|p| {
                p.expectation
                    .filter(|_| p.exact)
                    .ok_or("inexact point".to_string())
            })
            .collect()
    }

    /// The exact counts of each structure in `ids`, rehydrated from its
    /// spill file through a second cache over the runner's spill directory.
    fn rehydrate(&self, spill: &Path, ids: &[usize]) -> Result<Vec<String>, String> {
        let cache = ArtifactCache::with_options(
            CacheOptions::default()
                .with_spill_dir(spill)
                .with_max_resident_bytes(BUDGET_BYTES),
        );
        let counts = ids
            .iter()
            .map(|&id| {
                let sim = cache.get_or_compile(&self.structures[id].circuit, &KcOptions::default());
                format!("s{id}[{}]", replay::structure_counts(&sim))
            })
            .collect();
        if cache.misses() == 0 {
            Ok(counts)
        } else {
            Err(format!("{} structures had no spill file", cache.misses()))
        }
    }
}

impl Workload for Churn {
    type Runner = Runner;
    type Out = Out;

    fn units(&self, op: usize) -> u64 {
        (NEW_PER_OP * if op == 0 { 1 } else { 2 }) as u64
    }

    /// The engine always runs sweeps on one worker: with the one-byte
    /// budget every worker resolves and evicts the artifact itself, so the
    /// exact cache counts would depend on how the executor splits points.
    fn runner(&self, _threads: usize, dir: &Path) -> Result<Runner, String> {
        let engine = Engine::try_with_options(
            EngineOptions::default().with_threads(1).with_cache(
                CacheOptions::default()
                    .with_max_resident_bytes(BUDGET_BYTES)
                    .with_spill_dir(dir),
            ),
        )
        .map_err(|e| e.to_string())?;
        Ok(Runner {
            engine,
            spill: dir.to_path_buf(),
            ran: Mutex::new(HashSet::new()),
        })
    }

    fn engine<'a>(&self, r: &'a Runner) -> &'a Engine {
        &r.engine
    }

    fn run_op(&self, r: &Runner, op: usize) -> Result<Out, String> {
        r.ran.lock().expect("ran lock").insert(op);
        let before = r.engine.cache().stats();
        let queries = self
            .queries(op)
            .map(|(id, revisit)| Ok((id, revisit, self.query(&r.engine, id)?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Out {
            queries,
            before,
            after: r.engine.cache().stats(),
        })
    }

    fn summary(&self, _op: usize, out: &Out) -> (String, u64) {
        let mut h = Fnv::default();
        for (id, _, values) in &out.queries {
            h.u64(*id as u64);
            values.iter().for_each(|&v| h.f64(v));
        }
        let (b, a) = (&out.before, &out.after);
        let revisits = out.queries.iter().filter(|q| q.1).count();
        let counts = format!(
            "queries={} revisits={revisits} misses={} spill_hits={} evictions={} hits={}",
            out.queries.len(),
            a.misses - b.misses,
            a.spill_hits - b.spill_hits,
            a.evictions - b.evictions,
            a.hits - b.hits,
        );
        (counts, h.finish())
    }

    fn check(&self, r: &Runner, op: usize, out: &Out) -> Result<(), String> {
        let (b, a) = (&out.before, &out.after);
        let queries = &out.queries;
        let total = queries.len() as u64;
        let joined = op > 0 && r.ran.lock().expect("ran lock").contains(&(op - 1));
        let spill_hits = if joined {
            queries.iter().filter(|q| q.1).count() as u64
        } else {
            0
        };
        let exact = (
            a.misses - b.misses,
            a.spill_hits - b.spill_hits,
            a.evictions - b.evictions,
            a.hits - b.hits,
        );
        if exact != (total - spill_hits, spill_hits, total, 0) {
            return Err(format!(
                "cache counts drifted: (misses, spill hits, evictions, hits) = {exact:?}"
            ));
        }
        let sv = StateVectorSimulator::new();
        let mut reference = self.reference.lock().expect("reference lock");
        for (id, revisit, values) in queries {
            let got = replay::bits(values);
            if let Some(want) = reference.get(id) {
                if *want != got {
                    let how = if *revisit { "rehydrated" } else { "recompiled" };
                    return Err(format!(
                        "structure {id}: {how} results differ from the first compile"
                    ));
                }
                continue;
            }
            if *revisit {
                return Err(format!(
                    "structure {id} revisited before its compile was checked"
                ));
            }
            let s = &self.structures[*id];
            let obs = Self::observable(s);
            for (p, v) in s.points.iter().zip(values) {
                let probs = sv.probabilities(&s.circuit, p).map_err(|e| e.to_string())?;
                let want: f64 = probs.iter().enumerate().map(|(x, q)| q * obs(x)).sum();
                if (v - want).abs() > 1e-9 {
                    return Err(format!("structure {id}: {v} vs state vector {want}"));
                }
            }
            reference.insert(*id, got);
        }
        drop(reference);
        let ids: Vec<usize> = queries.iter().filter(|q| !q.1).map(|q| q.0).collect();
        let counts = self.rehydrate(&r.spill, &ids)?;
        println!("op {op} compiled {}", counts.join(" "));
        Ok(())
    }

    fn replay(&self, tr: &mut Tracer, r: &Runner, op: usize, out: &Out) -> Result<(), String> {
        let engine = &r.engine;
        let opts = engine.options().kc_options.clone();
        let mut encoded = self.encoded.lock().expect("encoded lock");
        // Fixtures outside the op's span tree: the compiled artifact of
        // every new structure (timed as `core.compile`), and the encoded
        // artifact of revisits this replay has not encoded itself.
        let mut sims: HashMap<usize, KcSimulator> = HashMap::new();
        for (id, revisit) in self.queries(op) {
            let circuit = &self.structures[id].circuit;
            if !revisit {
                let sim = tr.span("core.compile", 1.0, |_| {
                    KcSimulator::compile(circuit, &opts)
                });
                sims.insert(id, sim);
            } else {
                encoded.entry(id).or_insert_with(|| {
                    KcSimulator::compile(circuit, &opts).to_bytes(circuit, &opts)
                });
            }
        }
        let mut walks = Vec::new();
        let mut got: Vec<Vec<f64>> = Vec::new();
        tr.span(
            "replay",
            self.units(op) as f64,
            |tr| -> Result<(), String> {
                for (id, revisit) in self.queries(op) {
                    let s = &self.structures[id];
                    let obs = Self::observable(s);
                    replay::plan(tr, engine, &s.circuit)?;
                    let decoded;
                    let sim = if revisit {
                        let bytes = &encoded[&id];
                        decoded = tr
                            .span("core.artifact.decode", 1.0, |_| {
                                KcSimulator::from_bytes(&s.circuit, &opts, bytes)
                            })
                            .map_err(|e| e.to_string())?;
                        &decoded
                    } else {
                        walks.push((id, replay::walk_pipeline(tr, &s.circuit, &opts)?));
                        let sim = &sims[&id];
                        let bytes = tr.span("core.artifact.encode", 1.0, |_| {
                            sim.to_bytes(&s.circuit, &opts)
                        });
                        tr.add("artifact.bytes", bytes.len() as f64);
                        tr.add("artifact.n", 1.0);
                        encoded.insert(id, bytes);
                        sim
                    };
                    got.push(replay::expectations(tr, sim, &s.points, &obs)?);
                }
                Ok(())
            },
        )?;
        for (id, walk) in &walks {
            replay::same_tape(walk, &sims[id])?;
            replay::order(tr, walk, &opts);
            replay::note_structure(tr, walk);
        }
        let want = out.queries.iter().map(|q| replay::bits(&q.2));
        if got.iter().map(|v| replay::bits(v)).eq(want) {
            Ok(())
        } else {
            Err("replayed expectations differ from the engine's".into())
        }
    }

    fn probe(&self, tr: &mut Tracer, r: &Runner) -> Result<(), String> {
        let s = &self.structures[self.fresh[0][0]];
        let obs = Self::observable(s);
        let lanes: Vec<ParamMap> = self
            .structures
            .iter()
            .flat_map(|s| s.points.iter().cloned())
            .take(16)
            .collect();
        replay::probe(
            tr,
            &r.engine,
            &replay::Probe {
                circuit: &s.circuit,
                exact: &s.circuit,
                lanes: &lanes,
                sample_params: &s.points[0],
                obs: &obs,
            },
        )
    }
}

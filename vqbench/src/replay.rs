//! Layer-by-layer replays for the traced run: the same inputs an engine op
//! saw, pushed through each layer's public functions inside spans.
//!
//! Two replays mirror internal steps that have no public entry point of
//! their own, using only public items: [`kernel_replay`] re-runs the tape
//! kernel calls of one `BoundKcBatch::expectations` (same weights, same
//! cone-ordered Gray walk, same changed-variable lists) and
//! [`walk_pipeline`] re-runs the compile stages of `KcSimulator::compile`.
//! Each asserts that it reproduced its black box exactly, so a drift in
//! the library shows up as a failed op rather than as a silently different
//! measurement.

use crate::trace::Tracer;
use qkc_bayesnet::BayesNet;
use qkc_circuit::{Circuit, ParamMap};
use qkc_cnf::{encode, simplify, Cnf, Lit};
use qkc_core::{KcOptions, KcSimulator, QuerySpec, ValueState};
use qkc_engine::{ArtifactCache, CacheOptions, Engine, PlanHint};
use qkc_knowledge::{
    compile, compute_ranks_balanced, project_out, smooth, AcTape, AcWeightsBatch, CompileOptions,
    GibbsOptions, TapeEvaluator,
};
use qkc_math::{C_ONE, C_ZERO};
use std::time::Instant;

/// Gibbs settings of the engine's knowledge-compilation sampler.
pub const GIBBS_WARMUP: usize = 800;
pub const GIBBS_THIN: usize = 3;

/// The engine's child-seed derivation (`Backend::sample` seeds point `i`
/// of a sweep with `engine_seed(engine_seed(spec.seed, i), 1)` on the
/// Gibbs path), restated so the replayed chain is the engine's chain.
pub fn engine_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Gibbs options the engine uses for sweep point `index`.
pub fn gibbs_options(spec_seed: u64, index: usize) -> GibbsOptions {
    GibbsOptions {
        warmup: GIBBS_WARMUP,
        thin: GIBBS_THIN,
        seed: engine_seed(engine_seed(spec_seed, index as u64), 1),
        ..Default::default()
    }
}

/// `Engine::plan_with_hint` under the sweep hint, asserting the planner
/// keeps the workload on knowledge compilation.
pub fn plan(tr: &mut Tracer, engine: &Engine, circuit: &Circuit) -> Result<(), String> {
    let plan = tr.span("engine.plan", 1.0, |_| {
        engine.plan_with_hint(circuit, PlanHint::ParameterSweep)
    });
    if plan.backend == qkc_engine::BackendKind::KnowledgeCompilation {
        Ok(())
    } else {
        Err(format!("planner chose {} ({})", plan.backend, plan.reason))
    }
}

/// `BoundKcBatch::expectations` over `lanes`, preceded by the lanes'
/// Bayes-net weights (`evaluate_weights` is timed on its own and then
/// repeated inside `bind_batch`; [`DUPLICATE_SPANS`] names such spans).
pub fn expectations(
    tr: &mut Tracer,
    sim: &KcSimulator,
    lanes: &[ParamMap],
    obs: &dyn Fn(usize) -> f64,
) -> Result<Vec<f64>, String> {
    let k = lanes.len() as f64;
    tr.span("bayesnet.weights", k, |_| {
        lanes
            .iter()
            .try_for_each(|p| sim.bayes_net().evaluate_weights(p).map(|_| ()))
    })
    .map_err(|e| e.to_string())?;
    let bound = tr
        .span("core.bind", k, |_| sim.bind_batch(lanes))
        .map_err(|e| e.to_string())?;
    let values = tr.span("core.expectations", 1.0, |_| bound.expectations(obs));
    Ok(values)
}

/// Spans that time work a later span repeats internally; the replayed op
/// total excludes them when it is compared with the engine op.
pub const DUPLICATE_SPANS: [&str; 2] = ["bayesnet.weights", "bayesnet.tangent_weights"];

/// The literals of a query variable's free values.
fn free_lits(spec: &QuerySpec) -> Vec<Lit> {
    spec.free_values().iter().map(|&(_, l)| l).collect()
}

/// Writes evidence `spec = value` into every lane (the batched bind's
/// evidence rule). `false` when unit resolution made the value impossible.
fn set_evidence(w: &mut AcWeightsBatch, spec: &QuerySpec, value: usize) -> bool {
    if matches!(spec.values[value], ValueState::ForcedFalse) {
        return false;
    }
    if spec.domain == 2 {
        if let (ValueState::Lit(_), ValueState::Lit(l1)) = (spec.values[0], spec.values[1]) {
            let (pos, neg) = if value == 1 {
                (C_ONE, C_ZERO)
            } else {
                (C_ZERO, C_ONE)
            };
            w.set_all(l1.unsigned_abs(), pos, neg);
        }
        return true;
    }
    for (v, state) in spec.values.iter().enumerate() {
        if let ValueState::Lit(lit) = state {
            let chosen = if v == value { C_ONE } else { C_ZERO };
            w.set_all(lit.unsigned_abs(), chosen, C_ONE);
        }
    }
    true
}

/// Replays the tape-kernel calls of one batched Gray walk over the
/// outputs: the bound lane weights (laid out as `bind_batch` lays them
/// out), random events pinned to `rvs`, one full `evaluate_batch`, then
/// one `evaluate_batch_delta` per Gray step. Only the kernel calls are
/// timed (tallies `kernel.full_s` / `kernel.delta_s`); the computed
/// `kernel.cone_slots` tally is the ancestor-cone size of each step's
/// flipped output, an upper bound on the slots the delta pass recomputes.
///
/// Returns the per-lane expectations of `obs` folded exactly as
/// `BoundKcBatch::expectations` folds them (meaningful when `rvs` is
/// empty), so callers can assert the replay reproduced the black box.
pub fn kernel_replay(
    tr: &mut Tracer,
    sim: &KcSimulator,
    lanes: &[ParamMap],
    rvs: &[usize],
    obs: &dyn Fn(usize) -> f64,
) -> Result<Vec<f64>, String> {
    let query = sim.query();
    let n = sim.num_outputs();
    let tape = sim.tape();
    let k = lanes.len();
    let mut w = AcWeightsBatch::uniform(sim.encoding().cnf.num_vars(), k);
    let mut globals = vec![C_ONE; k];
    let tables = lanes
        .iter()
        .map(|p| sim.bayes_net().evaluate_weights(p))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    for (var, node, slot) in sim.encoding().vars.params() {
        match sim.fixed_vars().get(&var) {
            Some(&true) => {
                for (g, t) in globals.iter_mut().zip(&tables) {
                    *g *= t.value(node, slot);
                }
            }
            Some(&false) => {}
            None => {
                for (lane, t) in tables.iter().enumerate() {
                    w.set_lane(var, lane, t.value(node, slot), C_ONE);
                }
            }
        }
    }
    for (s, &v) in rvs.iter().enumerate() {
        if !set_evidence(&mut w, &query[n + s], v) {
            return Err(format!("random event {s} cannot take value {v}"));
        }
    }
    // Outputs in ascending cone size: the compiled basis order.
    let cones: Vec<usize> = (0..n)
        .map(|i| tape.cone_size(&free_lits(&query[i])))
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| cones[i]);
    let dim = 1usize << n;
    let mut probs = vec![vec![0.0; dim]; k];
    let mut current = vec![usize::MAX; n];
    let mut changed: Vec<u32> = Vec::new();
    let mut eval = TapeEvaluator::new();
    let (mut full_s, mut delta_s, mut steps, mut cone_slots) = (0.0, 0.0, 0.0, 0.0);
    for g in 0..dim {
        let gc = g ^ (g >> 1);
        let mut x = 0usize;
        let mut flipped = None;
        for (pos, &oi) in order.iter().enumerate() {
            let bit = (gc >> pos) & 1;
            x |= bit << (n - 1 - oi);
            if current[oi] != bit {
                if !set_evidence(&mut w, &query[oi], bit) {
                    return Err(format!("output {oi} is forced by unit resolution"));
                }
                if current[oi] != usize::MAX {
                    flipped = Some(oi);
                }
                current[oi] = bit;
                changed.extend(query[oi].values.iter().filter_map(|s| match s {
                    ValueState::Lit(l) => Some(l.unsigned_abs()),
                    _ => None,
                }));
            }
        }
        let t = Instant::now();
        let roots = if g == 0 {
            let r = eval.evaluate_batch(tape, &w);
            full_s += t.elapsed().as_secs_f64();
            r
        } else {
            let r = eval.evaluate_batch_delta(tape, &w, &changed);
            delta_s += t.elapsed().as_secs_f64();
            steps += 1.0;
            cone_slots += flipped.map_or(0, |oi| cones[oi]) as f64;
            r
        };
        for (row, (&gl, &v)) in probs.iter_mut().zip(globals.iter().zip(roots)) {
            row[x] = (gl * v).norm_sqr();
        }
        changed.clear();
    }
    tr.add("kernel.full_s", full_s);
    tr.add("kernel.full_n", 1.0);
    tr.add("kernel.delta_s", delta_s);
    tr.add("kernel.delta_n", steps);
    tr.add("kernel.cone_slots", cone_slots);
    tr.add("kernel.tape_slots", steps * tape.num_ops() as f64);
    // Computed bytes per point: every recomputed slot writes one 16-byte
    // complex value per lane and reads one per child edge.
    let per_slot = 16.0 * (1.0 + tape.num_edges() as f64 / tape.num_ops().max(1) as f64);
    tr.add("kernel.points", 1.0);
    tr.add(
        "kernel.bytes_per_point",
        per_slot * (tape.num_ops() as f64 + cone_slots),
    );
    Ok(probs
        .iter()
        .map(|p| p.iter().enumerate().map(|(x, &p)| p * obs(x)).sum())
        .collect())
}

/// The compile stages `KcSimulator::compile` runs, one span each.
pub struct Walk {
    /// The unit-resolved CNF the d-DNNF search ran on.
    pub cnf: Cnf,
    pub tape: AcTape,
    pub decisions: u64,
    pub cache_hits: u64,
    pub clauses: usize,
}

/// Walks circuit → Bayes net → CNF → unit resolution → d-DNNF →
/// projection + smoothing → tape, through each stage's public function.
pub fn walk_pipeline(tr: &mut Tracer, circuit: &Circuit, opts: &KcOptions) -> Result<Walk, String> {
    if !(opts.simplify_cnf && opts.elide_internal) {
        return Err("the pipeline walk mirrors the default compile options".into());
    }
    let bn = tr.span("bayesnet.build", 1.0, |_| BayesNet::from_circuit(circuit));
    let enc = tr.span("cnf.encode", 1.0, |_| encode(&bn));
    let simplified = tr
        .span("cnf.simplify", 1.0, |_| simplify(&enc.cnf))
        .map_err(|e| format!("{e:?}"))?;
    let compiled = tr.span("knowledge.compile", 1.0, |_| {
        compile(
            &simplified.cnf,
            &CompileOptions {
                order: opts.order,
                cache: opts.cache,
                separator_balance: opts.separator_balance,
            },
        )
    });
    let nnf = tr.span("knowledge.postprocess", 1.0, |_| {
        // The query variables: every output and random event, minus the
        // values unit resolution decided.
        let groups: Vec<Vec<Lit>> = bn
            .query_nodes()
            .into_iter()
            .map(|node| {
                (0..bn.node(node).domain)
                    .map(|value| enc.vars.value_lit(node, value))
                    .filter(|lit| !simplified.fixed.contains_key(&lit.unsigned_abs()))
                    .collect::<Vec<Lit>>()
            })
            .filter(|g| !g.is_empty())
            .collect();
        let mut keep = vec![false; enc.cnf.num_vars() + 1];
        for (v, _, _) in enc.vars.params() {
            keep[v as usize] = true;
        }
        for lit in groups.iter().flatten() {
            keep[lit.unsigned_abs() as usize] = true;
        }
        smooth(&project_out(&compiled.nnf, |v| keep[v as usize]), &groups)
    });
    let tape = tr.span("knowledge.lower", 1.0, |_| AcTape::lower(&nnf));
    Ok(Walk {
        clauses: enc.cnf.num_clauses(),
        cnf: simplified.cnf,
        tape,
        decisions: compiled.stats.decisions,
        cache_hits: compiled.stats.cache_hits,
    })
}

/// `compute_ranks_balanced` on the walked CNF. `compile` orders variables
/// internally, so this runs outside every op's span tree.
pub fn order(tr: &mut Tracer, walk: &Walk, opts: &KcOptions) {
    tr.span("knowledge.order", 1.0, |_| {
        compute_ranks_balanced(&walk.cnf, opts.order, opts.separator_balance)
    });
}

/// Asserts the walked tape is byte-identical to the compiled artifact's.
pub fn same_tape(walk: &Walk, sim: &KcSimulator) -> Result<(), String> {
    if walk.tape.num_ops() == sim.tape().num_ops() && walk.tape.to_bytes() == sim.tape().to_bytes()
    {
        Ok(())
    } else {
        Err(format!(
            "replayed tape ({} ops) differs from the engine's ({} ops)",
            walk.tape.num_ops(),
            sim.tape().num_ops()
        ))
    }
}

/// Inputs of the once-per-run layer probe.
pub struct Probe<'a> {
    /// The workload's structure: compile stages, artifact round trip and
    /// the sampler run on it.
    pub circuit: &'a Circuit,
    /// The structure exact-query layers run on: the workload's own, or its
    /// noise-free ansatz when exact enumeration is infeasible.
    pub exact: &'a Circuit,
    /// Lane bindings of `exact` (16 of them) for the batched layers.
    pub lanes: &'a [ParamMap],
    /// A binding of `circuit` for the sampler.
    pub sample_params: &'a ParamMap,
    pub obs: &'a (dyn Fn(usize) -> f64 + Sync),
}

/// Samples the probe draws after the sampler's warm-up.
const PROBE_SAMPLES: usize = 256;

/// Times every layer call once on the workload's own structures, so each
/// per-layer metric has a figure on every workload: metrics from the op
/// replays win, and the probe fills in the calls a workload's op never
/// makes. Asserts byte identity of the walked and decoded tapes and of the
/// replayed kernel against `expectations`.
pub fn probe(tr: &mut Tracer, engine: &Engine, p: &Probe<'_>) -> Result<(), String> {
    let opts = engine.options().kc_options.clone();
    tr.op = None;
    let walk = walk_pipeline(tr, p.circuit, &opts)?;
    order(tr, &walk, &opts);
    let sim = tr.span("core.compile", 1.0, |_| {
        KcSimulator::compile(p.circuit, &opts)
    });
    same_tape(&walk, &sim)?;
    let bytes = tr.span("core.artifact.encode", 1.0, |_| {
        sim.to_bytes(p.circuit, &opts)
    });
    let decoded = tr
        .span("core.artifact.decode", 1.0, |_| {
            KcSimulator::from_bytes(p.circuit, &opts, &bytes)
        })
        .map_err(|e| e.to_string())?;
    if decoded.tape().to_bytes() != sim.tape().to_bytes() {
        return Err("decoded artifact tape differs from the compiled one".into());
    }
    tr.add("artifact.bytes", bytes.len() as f64);
    tr.add("artifact.n", 1.0);
    note_structure(tr, &walk);

    // A cache hit: the engine's own cache when the structure is resident,
    // otherwise a private cache warmed untimed.
    let private;
    let cache = if engine.cache().resident_metrics(p.circuit, &opts).is_some() {
        engine.cache()
    } else {
        private = ArtifactCache::with_options(CacheOptions::default());
        private.get_or_compile(p.circuit, &opts);
        &private
    };
    tr.span("engine.cache.hit", 1.0, |_| {
        cache.get_or_compile(p.circuit, &opts)
    });
    plan(tr, engine, p.circuit)?;

    let exact = if std::ptr::eq(p.exact, p.circuit) {
        None
    } else {
        Some(KcSimulator::compile(p.exact, &opts))
    };
    let esim = exact.as_ref().unwrap_or(&sim);
    let values = expectations(tr, esim, p.lanes, p.obs)?;
    let expect_s = last_secs(tr, "core.expectations");
    let replayed = kernel_replay(tr, esim, p.lanes, &[], p.obs)?;
    tr.add("enum.expect_s", expect_s);
    if bits(&values) != bits(&replayed) {
        return Err("kernel replay disagrees with BoundKcBatch::expectations".into());
    }

    let wrt: Vec<String> = p.exact.symbols().into_iter().collect();
    let lane0 = &p.lanes[0];
    tr.span("bayesnet.tangent_weights", 1.0, |_| {
        esim.bayes_net().evaluate_weights_with_tangents(lane0, &wrt)
    })
    .map_err(|e| e.to_string())?;
    let tangents = tr
        .span("core.bind_tangents", 1.0, |_| {
            esim.bind_with_tangents(lane0, &wrt)
        })
        .map_err(|e| e.to_string())?;
    tr.span("core.gradient", 1.0, |_| {
        tangents.expectation_gradient(p.obs)
    });

    let bound = sim.bind(p.sample_params).map_err(|e| e.to_string())?;
    let mut sampler = tr.span("core.sampler_warmup", 1.0, |_| {
        bound.sampler(&gibbs_options(0, 0))
    });
    tr.span("core.sample", PROBE_SAMPLES as f64, |_| {
        sampler.sample_outputs(PROBE_SAMPLES, GIBBS_THIN)
    });
    tr.add("gibbs.probe_accept", sampler.acceptance_rate());
    Ok(())
}

/// Duration of the most recent span named `name`.
pub fn last_secs(tr: &Tracer, name: &str) -> f64 {
    tr.spans
        .iter()
        .rev()
        .find(|s| s.name == name)
        .map_or(0.0, crate::trace::Span::secs)
}

/// Records a compiled structure's exact counts.
pub fn note_structure(tr: &mut Tracer, walk: &Walk) {
    tr.add("structure.n", 1.0);
    tr.add("structure.decisions", walk.decisions as f64);
    tr.add("structure.cache_hits", walk.cache_hits as f64);
    tr.add("structure.tape_ops", walk.tape.num_ops() as f64);
    tr.add("structure.tape_bytes", walk.tape.size_bytes() as f64);
    tr.add("structure.clauses", walk.clauses as f64);
}

/// A compiled structure's exact counts: tape ops, tape bytes, d-DNNF
/// decisions.
pub fn structure_counts(sim: &KcSimulator) -> String {
    format!(
        "tape_ops={} tape_bytes={} ddnnf_decisions={}",
        sim.tape().num_ops(),
        sim.metrics().ac_size_bytes,
        sim.metrics().compile_stats.decisions
    )
}

/// [`structure_counts`] of `circuit`'s artifact in `engine`'s cache.
pub fn cached_counts(engine: &Engine, circuit: &Circuit) -> String {
    structure_counts(
        &engine
            .cache()
            .get_or_compile(circuit, &engine.options().kc_options),
    )
}

/// The exact bits of a float slice.
pub fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

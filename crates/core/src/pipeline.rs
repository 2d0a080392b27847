//! The end-to-end knowledge-compilation pipeline (paper Figure 4):
//! circuit → Bayesian network → CNF → (simplify) → d-DNNF → (elide,
//! smooth) → reusable arithmetic circuit.

use qkc_bayesnet::{BayesNet, NodeId};
use qkc_circuit::Circuit;
use qkc_cnf::{encode, simplify, Encoding, Lit, SimplifyError};
use qkc_knowledge::{
    compile, project_out, smooth, AcTape, CompileOptions, CompileStats, Nnf, VarOrder,
};
use std::collections::HashMap;
use std::time::Instant;

/// Pipeline configuration.
///
/// Every field participates in the compiled artifact's *identity*: two
/// option values that compare unequal may compile different (equally
/// correct) artifacts, so caches key on the whole struct. Float fields
/// compare and hash **by bit pattern** ([`f64::to_bits`]) — exactly the
/// bits that reach the pipeline — which keeps `Eq`/`Hash` consistent
/// without ever conflating two values the compiler could distinguish
/// (`0.0`/`-0.0` differ; a NaN equals itself).
#[derive(Debug, Clone)]
pub struct KcOptions {
    /// Decision order for the knowledge compiler.
    pub order: VarOrder,
    /// Component caching in the knowledge compiler.
    pub cache: bool,
    /// Unit-resolution CNF simplification (paper §3.2.1 optimizations).
    pub simplify_cnf: bool,
    /// Elide internal qubit-state variables from the compiled circuit
    /// (paper §3.2.2 optimization 1).
    pub elide_internal: bool,
    /// Bisection split fraction of the min-cut separator order (see
    /// [`qkc_knowledge::compute_ranks_balanced`]); `0.5` — the default —
    /// is the balanced split. It is the first of two candidates: the
    /// compiler also searches the order split at
    /// [`qkc_knowledge::RACE_SEPARATOR_BALANCE`] and keeps the search with
    /// fewer decisions, this one on a tie (see [`qkc_knowledge::compile`]).
    /// A balance of 0.6 races no one.
    pub separator_balance: f64,
}

impl Default for KcOptions {
    fn default() -> Self {
        Self {
            order: VarOrder::MinCutSeparator,
            cache: true,
            simplify_cnf: true,
            elide_internal: true,
            separator_balance: qkc_knowledge::DEFAULT_SEPARATOR_BALANCE,
        }
    }
}

impl PartialEq for KcOptions {
    fn eq(&self, other: &Self) -> bool {
        self.order == other.order
            && self.cache == other.cache
            && self.simplify_cnf == other.simplify_cnf
            && self.elide_internal == other.elide_internal
            && self.separator_balance.to_bits() == other.separator_balance.to_bits()
    }
}

impl Eq for KcOptions {}

impl std::hash::Hash for KcOptions {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.order.hash(state);
        self.cache.hash(state);
        self.simplify_cnf.hash(state);
        self.elide_internal.hash(state);
        state.write_u64(self.separator_balance.to_bits());
    }
}

/// Wall-clock seconds per compile phase, in pipeline order. Filled on
/// every compile (the clock reads are nanoseconds against phases that run
/// for micro- to milliseconds) and persisted into the artifact wire format,
/// so cached and rehydrated artifacts carry their true measured costs —
/// the per-host data the planner-calibration work fits against.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseSeconds {
    /// Circuit → Bayesian network.
    pub bn_build: f64,
    /// Bayesian network → CNF (WMC encoding).
    pub cnf_encode: f64,
    /// Unit-resolution simplification.
    pub simplify: f64,
    /// Min-cut separator variable order of the kept candidate
    /// ([`CompileStats::order_seconds`]).
    pub var_order: f64,
    /// Exhaustive DPLL search producing the d-DNNF: the rest of the
    /// compiler's wall time, until both raced candidates stopped
    /// ([`CompileStats::search_seconds`]).
    pub ddnnf_search: f64,
    /// Query build + internal-variable elision + smoothing.
    pub postprocess: f64,
    /// d-DNNF → flat execution tape.
    pub tape_lower: f64,
}

impl PhaseSeconds {
    /// Sum of all phases (excludes inter-phase glue, so it is at most
    /// [`PipelineMetrics::compile_seconds`]).
    pub fn total(&self) -> f64 {
        self.bn_build
            + self.cnf_encode
            + self.simplify
            + self.var_order
            + self.ddnnf_search
            + self.postprocess
            + self.tape_lower
    }
}

/// Sizes and timings of every pipeline stage — the quantities reported in
/// the paper's Tables 4 and 6 and Figures 1 and 6.
#[derive(Debug, Clone, Default)]
pub struct PipelineMetrics {
    /// Bayesian-network node count.
    pub bn_nodes: usize,
    /// CNF variable count (before simplification).
    pub cnf_vars: usize,
    /// CNF clause count before simplification.
    pub cnf_clauses: usize,
    /// CNF clause count after unit resolution.
    pub cnf_clauses_simplified: usize,
    /// Variables fixed by unit resolution.
    pub fixed_vars: usize,
    /// d-DNNF nodes straight out of the compiler.
    pub nnf_nodes_raw: usize,
    /// d-DNNF nodes after elision + smoothing (the evaluated AC).
    pub ac_nodes: usize,
    /// AC edges.
    pub ac_edges: usize,
    /// Exact resident size of the compiled execution tape in bytes (the
    /// paper's "AC file size" metric, now measured rather than estimated) —
    /// what the engine's artifact cache accounts per entry.
    pub ac_size_bytes: usize,
    /// Knowledge-compiler search statistics.
    pub compile_stats: CompileStats,
    /// Wall-clock seconds spent compiling (all stages).
    pub compile_seconds: f64,
    /// Per-phase wall times within `compile_seconds`.
    pub phase_seconds: PhaseSeconds,
}

impl PipelineMetrics {
    /// A multi-line human-readable report of every stage's sizes and
    /// measured phase times — the live-run equivalent of the paper's
    /// Table 6 rows.
    pub fn report(&self) -> String {
        fn ms(s: f64) -> String {
            if s >= 1.0 {
                format!("{s:.2}s")
            } else if s >= 1e-3 {
                format!("{:.1}ms", s * 1e3)
            } else {
                format!("{:.0}us", s * 1e6)
            }
        }
        fn kb(bytes: usize) -> String {
            if bytes >= 1 << 20 {
                format!("{:.1} MiB", bytes as f64 / (1 << 20) as f64)
            } else if bytes >= 1 << 10 {
                format!("{:.1} KiB", bytes as f64 / (1 << 10) as f64)
            } else {
                format!("{bytes} B")
            }
        }
        let p = &self.phase_seconds;
        let c = &self.compile_stats;
        let race = match c.rival_decisions {
            Some(rival) => format!(
                "split {} kept; rival stopped at {rival} decisions",
                c.balance
            ),
            None => "no race".to_owned(),
        };
        format!(
            "  bn       {} nodes\n\
             \x20 cnf      {} vars, {} clauses -> {} after unit resolution ({} vars fixed)\n\
             \x20 d-DNNF   {} raw nodes -> {} AC nodes, {} edges, {} tape\n\
             \x20 search   {} decisions, {} components, {} cache hits ({race})\n\
             \x20 phases   bn {} | encode {} | simplify {} | order {} | search {} | post {} | lower {} | total {}\n",
            self.bn_nodes,
            self.cnf_vars,
            self.cnf_clauses,
            self.cnf_clauses_simplified,
            self.fixed_vars,
            self.nnf_nodes_raw,
            self.ac_nodes,
            self.ac_edges,
            kb(self.ac_size_bytes),
            c.decisions,
            c.components,
            c.cache_hits,
            ms(p.bn_build),
            ms(p.cnf_encode),
            ms(p.simplify),
            ms(p.var_order),
            ms(p.ddnnf_search),
            ms(p.postprocess),
            ms(p.tape_lower),
            ms(self.compile_seconds),
        )
    }
}

/// Compile phases, in pipeline order. A [`CompileCheckpoint`] fires at the
/// boundary *after* each phase completes — the same boundaries
/// [`PhaseSeconds`] times — so a caller can cancel a long compile
/// cooperatively without the pipeline ever observing a torn intermediate
/// state. (`var_order` and `ddnnf_search` run inside one compiler call, so
/// they share the [`CompilePhase::DdnnfSearch`] boundary.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompilePhase {
    /// Circuit → Bayesian network.
    BnBuild,
    /// Bayesian network → CNF (WMC encoding).
    CnfEncode,
    /// Unit-resolution simplification.
    Simplify,
    /// Variable order + exhaustive DPLL search producing the d-DNNF.
    DdnnfSearch,
    /// Query build + internal-variable elision + smoothing.
    Postprocess,
    /// d-DNNF → flat execution tape.
    TapeLower,
}

impl CompilePhase {
    /// Stable lowercase name (used in telemetry paths and error text).
    pub fn name(&self) -> &'static str {
        match self {
            Self::BnBuild => "bn_build",
            Self::CnfEncode => "cnf_encode",
            Self::Simplify => "simplify",
            Self::DdnnfSearch => "ddnnf_search",
            Self::Postprocess => "postprocess",
            Self::TapeLower => "tape_lower",
        }
    }
}

/// A compile aborted by its checkpoint. Carries the boundary it stopped at
/// and the checkpoint's stated reason; the caller that installed the
/// checkpoint maps this back to its own richer error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileCancelled {
    /// The last phase that completed before cancellation.
    pub phase: CompilePhase,
    /// Why the checkpoint cancelled (e.g. `"compile timeout 0.5s"`).
    pub reason: String,
}

impl std::fmt::Display for CompileCancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "compile cancelled after phase `{}`: {}",
            self.phase.name(),
            self.reason
        )
    }
}

impl std::error::Error for CompileCancelled {}

/// Error from [`KcSimulator::try_compile_checked`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The CNF encoding is unsatisfiable (malformed circuit).
    Unsat(SimplifyError),
    /// The installed checkpoint cancelled the compile between phases.
    Cancelled(CompileCancelled),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Unsat(e) => write!(f, "{e}"),
            Self::Cancelled(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Cooperative-cancellation hook for [`KcSimulator::try_compile_checked`]:
/// called at each phase boundary with the phase that just finished; return
/// `Err(reason)` to abort the compile. Deliberately `Fn` + same-thread (no
/// `Send`/`Sync` bound) — callers capture local deadline state directly.
pub type CompileCheckpoint<'a> = &'a dyn Fn(CompilePhase) -> Result<(), String>;

/// How one value of a query variable is realized in the compiled circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueState {
    /// Evidence is set through this literal's weights.
    Lit(Lit),
    /// Unit resolution proved this value always holds.
    ForcedTrue,
    /// Unit resolution proved this value never holds.
    ForcedFalse,
}

/// A query variable (final qubit state or noise/measurement RV) as seen by
/// the evaluator.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// The BN node.
    pub node: NodeId,
    /// The node's label (`q{i}m{t}` / `…rv`).
    pub label: String,
    /// Domain size.
    pub domain: usize,
    /// Per-value realization.
    pub values: Vec<ValueState>,
}

impl QuerySpec {
    /// The value forced by simplification, if the variable is fully
    /// determined.
    pub fn forced_value(&self) -> Option<usize> {
        let mut candidates = self
            .values
            .iter()
            .enumerate()
            .filter(|(_, v)| !matches!(v, ValueState::ForcedFalse));
        match (candidates.next(), candidates.next()) {
            (Some((v, _)), None) => Some(v),
            _ => None,
        }
    }

    /// Values that remain free (with their literals).
    pub fn free_values(&self) -> Vec<(usize, Lit)> {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(v, s)| match s {
                ValueState::Lit(l) => Some((v, *l)),
                _ => None,
            })
            .collect()
    }
}

/// A compiled, reusable simulator for one circuit: the paper's headline
/// artifact. Compile once; re-bind parameters every variational iteration
/// with [`KcSimulator::bind`].
///
/// # Examples
///
/// ```
/// use qkc_circuit::{Circuit, ParamMap};
/// use qkc_core::KcSimulator;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cnot(0, 1);
/// let sim = KcSimulator::compile(&c, &Default::default());
/// let bound = sim.bind(&ParamMap::new()).unwrap();
/// let amp = bound.amplitude(0b11, &[]);
/// assert!((amp.norm_sqr() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct KcSimulator {
    pub(crate) bn: BayesNet,
    pub(crate) encoding: Encoding,
    pub(crate) fixed: HashMap<u32, bool>,
    /// The compiled circuit, lowered from the smoothed d-DNNF arena — the
    /// one compiled form kept: every query kernel runs on it and the wire
    /// format stores it. The arena is dropped once lowered
    /// ([`Self::compile_with_nnf`] hands it to enum-walk reference tests).
    pub(crate) tape: AcTape,
    pub(crate) query: Vec<QuerySpec>,
    /// The CNF variables carrying free query-value literals — the only
    /// variables evidence ever touches (precomputed for the bind hot
    /// path's evidence save/restore).
    pub(crate) query_lit_vars: Vec<u32>,
    /// Output indices ordered by ascending tape-cone size: basis
    /// enumerations assign the most-frequently-flipped Gray bit to the
    /// output whose evidence change dirties the fewest tape slots.
    pub(crate) output_gray_order: Vec<usize>,
    pub(crate) metrics: PipelineMetrics,
}

impl KcSimulator {
    /// Runs the full compilation pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the encoding is unsatisfiable, which cannot happen for a
    /// well-formed circuit (see [`SimplifyError`]).
    pub fn compile(circuit: &Circuit, options: &KcOptions) -> Self {
        Self::try_compile(circuit, options).expect("valid circuits encode satisfiable CNFs")
    }

    /// Fallible variant of [`Self::compile`].
    ///
    /// # Errors
    ///
    /// Returns an error if the CNF is unsatisfiable (malformed circuit).
    pub fn try_compile(circuit: &Circuit, options: &KcOptions) -> Result<Self, SimplifyError> {
        Self::try_compile_checked(circuit, options, None).map_err(|e| match e {
            CompileError::Unsat(s) => s,
            // No checkpoint installed → nothing can cancel.
            CompileError::Cancelled(c) => unreachable!("cancelled without a checkpoint: {c}"),
        })
    }

    /// [`Self::try_compile`] with a cooperative-cancellation checkpoint
    /// fired at every phase boundary. With `checkpoint = None` this is
    /// exactly `try_compile` (the checkpoint costs nothing on that path).
    ///
    /// # Errors
    ///
    /// [`CompileError::Unsat`] if the CNF is unsatisfiable;
    /// [`CompileError::Cancelled`] if the checkpoint aborted the compile.
    pub fn try_compile_checked(
        circuit: &Circuit,
        options: &KcOptions,
        checkpoint: Option<CompileCheckpoint<'_>>,
    ) -> Result<Self, CompileError> {
        Self::compile_parts(circuit, options, checkpoint).map(|(sim, _)| sim)
    }

    /// [`Self::compile`] that also returns the smoothed d-DNNF arena the
    /// tape was lowered from — the input of the enum-walk reference paths
    /// (`BoundKc::amplitude_assignment_enum_walk`,
    /// `BoundKc::sampler_enum_walk`) that equivalence tests compare the
    /// tape kernels against.
    ///
    /// # Panics
    ///
    /// As [`Self::compile`].
    #[doc(hidden)]
    pub fn compile_with_nnf(circuit: &Circuit, options: &KcOptions) -> (Self, Nnf) {
        Self::compile_parts(circuit, options, None).expect("valid circuits encode satisfiable CNFs")
    }

    /// The whole pipeline. The smoothed arena comes back beside the
    /// simulator; every caller but [`Self::compile_with_nnf`] drops it.
    fn compile_parts(
        circuit: &Circuit,
        options: &KcOptions,
        checkpoint: Option<CompileCheckpoint<'_>>,
    ) -> Result<(Self, Nnf), CompileError> {
        let check = |phase: CompilePhase| -> Result<(), CompileError> {
            match checkpoint {
                Some(cb) => cb(phase)
                    .map_err(|reason| CompileError::Cancelled(CompileCancelled { phase, reason })),
                None => Ok(()),
            }
        };
        let start = Instant::now();
        let bn = BayesNet::from_circuit(circuit);
        let mut phases = PhaseSeconds {
            bn_build: start.elapsed().as_secs_f64(),
            ..Default::default()
        };
        check(CompilePhase::BnBuild)?;

        let t = Instant::now();
        let encoding = encode(&bn);
        phases.cnf_encode = t.elapsed().as_secs_f64();
        check(CompilePhase::CnfEncode)?;
        let mut metrics = PipelineMetrics {
            bn_nodes: bn.num_nodes(),
            cnf_vars: encoding.cnf.num_vars(),
            cnf_clauses: encoding.cnf.num_clauses(),
            ..Default::default()
        };

        let t = Instant::now();
        let (work_cnf, fixed) = if options.simplify_cnf {
            let s = simplify(&encoding.cnf).map_err(CompileError::Unsat)?;
            (s.cnf, s.fixed)
        } else {
            (encoding.cnf.clone(), HashMap::new())
        };
        phases.simplify = t.elapsed().as_secs_f64();
        metrics.cnf_clauses_simplified = work_cnf.num_clauses();
        metrics.fixed_vars = fixed.len();
        check(CompilePhase::Simplify)?;

        let compiled = compile(
            &work_cnf,
            &CompileOptions {
                order: options.order,
                cache: options.cache,
                separator_balance: options.separator_balance,
            },
        );
        phases.var_order = compiled.stats.order_seconds;
        phases.ddnnf_search = compiled.stats.search_seconds;
        metrics.nnf_nodes_raw = compiled.nnf.num_nodes();
        metrics.compile_stats = compiled.stats;
        check(CompilePhase::DdnnfSearch)?;

        let t = Instant::now();
        // Build the query specification before transforming the circuit.
        let query = Self::build_query(&bn, &encoding, &fixed);

        // Elision: keep only query-variable literals and parameter
        // variables; internal qubit states are summed out structurally.
        let nnf = if options.elide_internal {
            let mut keep: Vec<bool> = vec![false; encoding.cnf.num_vars() + 1];
            for (v, _, _) in encoding.vars.params() {
                keep[v as usize] = true;
            }
            for spec in &query {
                for (_, lit) in spec.free_values() {
                    keep[lit.unsigned_abs() as usize] = true;
                }
            }
            project_out(&compiled.nnf, |v| keep[v as usize])
        } else {
            compiled.nnf
        };

        // Smooth over the free values of every query variable.
        let groups: Vec<Vec<Lit>> = query
            .iter()
            .filter_map(|spec| {
                let lits: Vec<Lit> = spec.free_values().iter().map(|&(_, l)| l).collect();
                if lits.is_empty() {
                    None
                } else {
                    Some(lits)
                }
            })
            .collect();
        let nnf = smooth(&nnf, &groups);
        phases.postprocess = t.elapsed().as_secs_f64();
        check(CompilePhase::Postprocess)?;

        // Lower once into the flat execution tape; every bind/query kernel
        // runs on it from here on.
        let t = Instant::now();
        let tape = AcTape::lower(&nnf);
        phases.tape_lower = t.elapsed().as_secs_f64();
        check(CompilePhase::TapeLower)?;

        // Debug builds certify every fresh compile: the static verifier
        // must find no error in an artifact this pipeline just produced.
        #[cfg(debug_assertions)]
        {
            let report =
                qkc_knowledge::verify_tape(&tape, &groups, qkc_knowledge::VerifyLevel::Full);
            debug_assert!(
                report.is_clean(),
                "freshly compiled artifact failed static verification:\n{}",
                report.render()
            );
        }

        metrics.ac_nodes = nnf.num_nodes();
        metrics.ac_edges = nnf.num_edges();
        metrics.ac_size_bytes = tape.size_bytes();
        metrics.compile_seconds = start.elapsed().as_secs_f64();
        metrics.phase_seconds = phases;
        Self::record_compile_telemetry(&metrics);

        let (query_lit_vars, output_gray_order) =
            Self::derived_query_layout(&query, &tape, bn.outputs().len());
        let sim = Self {
            bn,
            encoding,
            fixed,
            tape,
            query,
            query_lit_vars,
            output_gray_order,
            metrics,
        };
        Ok((sim, nnf))
    }

    /// Mirrors a freshly measured compile into the global telemetry
    /// registry. Every call below is one relaxed load when telemetry is
    /// disabled; the phase times themselves are always measured because
    /// they are part of the product (`PipelineMetrics`), not just the
    /// instrumentation.
    fn record_compile_telemetry(metrics: &PipelineMetrics) {
        use qkc_telemetry::{count, record_size, record_span_secs};
        let p = &metrics.phase_seconds;
        record_span_secs("compile/bn_build", p.bn_build);
        record_span_secs("compile/cnf_encode", p.cnf_encode);
        record_span_secs("compile/simplify", p.simplify);
        record_span_secs("compile/order", p.var_order);
        record_span_secs("compile/ddnnf", p.ddnnf_search);
        record_span_secs("compile/postprocess", p.postprocess);
        record_span_secs("compile/tape_lower", p.tape_lower);
        record_span_secs("compile/total", metrics.compile_seconds);
        count("compile/runs", 1);
        let c = &metrics.compile_stats;
        if c.rival_decisions.is_some()
            && c.balance.to_bits() == qkc_knowledge::RACE_SEPARATOR_BALANCE.to_bits()
        {
            count("compile/race/second_kept", 1);
        }
        record_size("compile/tape_bytes", metrics.ac_size_bytes as u64);
        record_size("compile/ac_nodes", metrics.ac_nodes as u64);
    }

    /// The two query-layout caches derived from the compiled tape: the
    /// deduplicated evidence-variable list and the cone-ordered Gray basis
    /// order. Deterministic in `(query, tape)`, so artifact rehydration
    /// (`crate::artifact`) recomputes them instead of serializing them.
    pub(crate) fn derived_query_layout(
        query: &[QuerySpec],
        tape: &AcTape,
        num_outputs: usize,
    ) -> (Vec<u32>, Vec<usize>) {
        let mut query_lit_vars: Vec<u32> = query
            .iter()
            .flat_map(|spec| {
                spec.free_values()
                    .into_iter()
                    .map(|(_, l)| l.unsigned_abs())
            })
            .collect();
        // Binary specs yield both polarities of one CNF variable — dedup
        // so the per-query evidence restore writes each variable once.
        query_lit_vars.sort_unstable();
        query_lit_vars.dedup();
        let mut output_gray_order: Vec<usize> = (0..num_outputs).collect();
        let cone_of = |i: &usize| {
            let lits: Vec<Lit> = query[*i].free_values().iter().map(|&(_, l)| l).collect();
            tape.cone_size(&lits)
        };
        // `sort_by_cached_key`: each cone traversal allocates and walks
        // the parent CSR, so compute it once per output.
        output_gray_order.sort_by_cached_key(cone_of);
        (query_lit_vars, output_gray_order)
    }

    pub(crate) fn build_query(
        bn: &BayesNet,
        encoding: &Encoding,
        fixed: &HashMap<u32, bool>,
    ) -> Vec<QuerySpec> {
        bn.query_nodes()
            .into_iter()
            .map(|node| {
                let domain = bn.node(node).domain;
                let values = (0..domain)
                    .map(|value| {
                        let lit = encoding.vars.value_lit(node, value);
                        let var = lit.unsigned_abs();
                        match fixed.get(&var) {
                            None => ValueState::Lit(lit),
                            Some(&polarity) => {
                                if polarity == (lit > 0) {
                                    ValueState::ForcedTrue
                                } else {
                                    ValueState::ForcedFalse
                                }
                            }
                        }
                    })
                    .collect();
                QuerySpec {
                    node,
                    label: bn.node(node).label.clone(),
                    domain,
                    values,
                }
            })
            .collect()
    }

    /// The Bayesian network this simulator was compiled from.
    pub fn bayes_net(&self) -> &BayesNet {
        &self.bn
    }

    /// The CNF encoding (pre-simplification).
    pub fn encoding(&self) -> &Encoding {
        &self.encoding
    }

    /// The flat execution tape every query kernel runs on.
    pub fn tape(&self) -> &AcTape {
        &self.tape
    }

    /// Variables fixed by unit resolution (and their forced polarity).
    /// Public so reference implementations and tests can reconstruct the
    /// bind step's weight layout exactly.
    pub fn fixed_vars(&self) -> &HashMap<u32, bool> {
        &self.fixed
    }

    /// Query-variable layout: outputs first (one per qubit), then
    /// noise/measurement RVs in circuit order.
    pub fn query(&self) -> &[QuerySpec] {
        &self.query
    }

    /// Number of output qubits.
    pub fn num_outputs(&self) -> usize {
        self.bn.outputs().len()
    }

    /// Number of noise/measurement random events.
    pub fn num_random_events(&self) -> usize {
        self.bn.random_events().len()
    }

    /// Pipeline size/timing metrics.
    pub fn metrics(&self) -> &PipelineMetrics {
        &self.metrics
    }

    pub(crate) fn output_gray_order(&self) -> &[usize] {
        &self.output_gray_order
    }

    pub(crate) fn query_lit_vars(&self) -> &[u32] {
        &self.query_lit_vars
    }
}

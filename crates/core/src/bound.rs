//! Parameter binding and simulation queries on a compiled circuit.
//!
//! Binding is the cheap per-iteration step of variational simulation: the
//! arithmetic circuit is fixed; only literal weights (and the global factor
//! contributed by unit-resolved parameter variables) are recomputed.

use crate::pipeline::{KcSimulator, QuerySpec, ValueState};
use qkc_circuit::{ParamMap, UnboundParam};
use qkc_knowledge::{
    AcWeights, AcWeightsBatch, DiffCone, GibbsCounts, GibbsOptions, GibbsSampler, Nnf, QueryVar,
    TangentPlan, TapeEvaluator,
};
use qkc_math::{CMatrix, Complex, C_ONE, C_ZERO};
use std::cell::RefCell;

impl KcSimulator {
    /// Binds parameter values, producing a query handle.
    ///
    /// # Errors
    ///
    /// Returns an error if the circuit mentions a symbol absent from
    /// `params`.
    pub fn bind(&self, params: &ParamMap) -> Result<BoundKc<'_>, UnboundParam> {
        let table = self.bayes_net().evaluate_weights(params)?;
        let mut weights = AcWeights::uniform(self.encoding().cnf.num_vars());
        let mut global = C_ONE;
        for (var, node, slot) in self.encoding().vars.params() {
            let value = table.value(node, slot);
            match self.fixed_vars().get(&var) {
                // Unit resolution removed the variable: a forced-true
                // parameter multiplies every model, so it becomes a global
                // factor; forced-false contributes w(¬P) = 1.
                Some(&true) => global *= value,
                Some(&false) => {}
                None => weights.set(var, value, C_ONE),
            }
        }
        Ok(BoundKc {
            sim: self,
            weights,
            global,
            scratch: RefCell::new(None),
            eval: RefCell::new(TapeEvaluator::new()),
            last_query: RefCell::new(Vec::new()),
            changed_vars: RefCell::new(Vec::new()),
        })
    }

    /// Binds parameter values **with symbolic weight tangents**: alongside
    /// every literal weight, the bind lays out `d(weight)/dθ_s` for each
    /// symbol in `symbols` — in the same interleaved [`AcWeights`] slot
    /// layout, resolved once against the tape's literal→slot table. The
    /// handle answers exact expectation *gradients* for all symbols from a
    /// single differentials pass per evidence assignment
    /// ([`BoundKcTangents::expectation_gradient`]).
    ///
    /// Symbols may appear in any number of gates (shared parameters sum
    /// naturally through the chain rule); symbols absent from the circuit
    /// get an identically-zero gradient. Symbols driving *noise* channels
    /// are not differentiable here — callers route those components through
    /// finite differences.
    ///
    /// # Errors
    ///
    /// Returns an error if the circuit mentions a symbol absent from
    /// `params`.
    pub fn bind_with_tangents(
        &self,
        params: &ParamMap,
        symbols: &[String],
    ) -> Result<BoundKcTangents<'_>, UnboundParam> {
        let (table, dtables) = self
            .bayes_net()
            .evaluate_weights_with_tangents(params, symbols)?;
        let num_vars = self.encoding().cnf.num_vars();
        let mut weights = AcWeights::uniform(num_vars);
        let mut global = C_ONE;
        let mut dglobals = vec![C_ZERO; symbols.len()];
        let mut tangents: Vec<AcWeights> =
            symbols.iter().map(|_| AcWeights::zeros(num_vars)).collect();
        for (var, node, slot) in self.encoding().vars.params() {
            let value = table.value(node, slot);
            match self.fixed_vars().get(&var) {
                Some(&true) => {
                    // Product rule through the running global factor:
                    // d(g·v) = dg·v + g·dv — update dg before g.
                    for (dg, dt) in dglobals.iter_mut().zip(&dtables) {
                        *dg = *dg * value + global * dt.value(node, slot);
                    }
                    global *= value;
                }
                Some(&false) => {}
                None => {
                    weights.set(var, value, C_ONE);
                    // Only the positive literal carries the parameter:
                    // w(¬P) = 1 always, so its tangent is zero.
                    for (t, dt) in tangents.iter_mut().zip(&dtables) {
                        t.set(var, dt.value(node, slot), C_ZERO);
                    }
                }
            }
        }
        let plans: Vec<TangentPlan> = tangents
            .iter()
            .map(|t| TangentPlan::new(self.tape(), t))
            .collect();
        // The gradient loop only reads partials at the tangent-bearing
        // literal slots, so its downward sweeps can stay inside those
        // slots' ancestor cone — built once here, reused per assignment.
        let cone = DiffCone::new(
            self.tape(),
            plans.iter().flat_map(qkc_knowledge::TangentPlan::slots),
        );
        Ok(BoundKcTangents {
            bound: BoundKc {
                sim: self,
                weights,
                global,
                scratch: RefCell::new(None),
                eval: RefCell::new(TapeEvaluator::new()),
                last_query: RefCell::new(Vec::new()),
                changed_vars: RefCell::new(Vec::new()),
            },
            dglobals,
            plans,
            cone,
        })
    }
}

/// A compiled simulator bound to concrete parameter values.
#[derive(Debug)]
pub struct BoundKc<'a> {
    sim: &'a KcSimulator,
    weights: AcWeights,
    global: Complex,
    /// One reusable evidence buffer, cloned from the bound weights on the
    /// first query: amplitude queries write query-variable evidence here
    /// and restore it afterwards, instead of cloning the full weight
    /// vector per query (`output_probabilities` and `density_matrix`
    /// issue O(4ⁿ) of them). Lazy so query-free binds (raw sweep
    /// re-binding) pay nothing.
    scratch: RefCell<Option<AcWeights>>,
    /// Persistent tape evaluator: value/partial buffers are allocated on
    /// the first query and reused by every subsequent one (zero
    /// allocations per amplitude after warmup).
    eval: RefCell<TapeEvaluator>,
    /// The previous amplitude query's assignment (empty = none yet):
    /// consecutive amplitude queries — wavefunction sweeps, probability
    /// reconstructions — differ in a few evidence values, so the next
    /// query recomputes only the cone of the variables that changed
    /// (bit-for-bit equal to a full pass).
    last_query: RefCell<Vec<usize>>,
    /// Reusable changed-variable buffer for the delta pass.
    changed_vars: RefCell<Vec<u32>>,
}

impl<'a> BoundKc<'a> {
    /// The underlying compiled simulator.
    pub fn simulator(&self) -> &KcSimulator {
        self.sim
    }

    /// The amplitude of a full query assignment: `values` pairs with
    /// [`KcSimulator::query`] order (outputs first, then random events).
    ///
    /// # Panics
    ///
    /// Panics if `values` has the wrong arity or an out-of-domain value.
    pub fn amplitude_assignment(&self, values: &[usize]) -> Complex {
        let query = self.sim.query();
        assert_eq!(values.len(), query.len(), "query arity mismatch");
        let mut guard = self.scratch.borrow_mut();
        let w = guard.get_or_insert_with(|| self.weights.clone());
        let mut possible = true;
        for (spec, &value) in query.iter().zip(values) {
            assert!(value < spec.domain, "value {value} out of domain");
            if !write_evidence(spec, value, |v, pos, neg| w.set(v, pos, neg)) {
                possible = false;
                break;
            }
        }
        let amp = if possible {
            let tape = self.sim.tape();
            let mut eval = self.eval.borrow_mut();
            let mut last = self.last_query.borrow_mut();
            let raw = if last.len() == values.len() {
                // Recompute only the cone of the query variables whose
                // evidence differs from the previous amplitude query
                // (falls back to a full pass internally if the cached
                // buffer was invalidated by another kernel).
                let mut changed = self.changed_vars.borrow_mut();
                changed.clear();
                for ((spec, &prev), &now) in query.iter().zip(last.iter()).zip(values) {
                    if prev != now {
                        for state in &spec.values {
                            if let ValueState::Lit(l) = state {
                                changed.push(l.unsigned_abs());
                            }
                        }
                    }
                }
                eval.evaluate_delta(tape, w, &changed)
            } else {
                eval.evaluate(tape, w)
            };
            last.clear();
            last.extend_from_slice(values);
            self.global * raw
        } else {
            C_ZERO
        };
        self.restore_scratch(w);
        amp
    }

    /// The enum-walk reference path for [`BoundKc::amplitude_assignment`]:
    /// identical evidence handling, evaluated on `nnf` — the arena
    /// [`KcSimulator::compile_with_nnf`] returns beside this simulator —
    /// instead of the tape. Kept for equivalence tests; results are
    /// bit-for-bit equal to the tape path.
    #[doc(hidden)]
    pub fn amplitude_assignment_enum_walk(&self, nnf: &Nnf, values: &[usize]) -> Complex {
        let query = self.sim.query();
        assert_eq!(values.len(), query.len(), "query arity mismatch");
        let mut guard = self.scratch.borrow_mut();
        let w = guard.get_or_insert_with(|| self.weights.clone());
        let mut possible = true;
        for (spec, &value) in query.iter().zip(values) {
            assert!(value < spec.domain, "value {value} out of domain");
            if !write_evidence(spec, value, |v, pos, neg| w.set(v, pos, neg)) {
                possible = false;
                break;
            }
        }
        let amp = if possible {
            self.global * qkc_knowledge::evaluate(nnf, w)
        } else {
            C_ZERO
        };
        self.restore_scratch(w);
        amp
    }

    /// Restores the touched query variables of the scratch buffer from the
    /// pristine bound weights.
    fn restore_scratch(&self, w: &mut AcWeights) {
        for &v in self.sim.query_lit_vars() {
            w.set(v, self.weights.get(v as i32), self.weights.get(-(v as i32)));
        }
    }

    /// The amplitude of output bitstring `outputs` (qubit 0 = most
    /// significant bit) with random events assigned `rvs` (circuit order).
    ///
    /// # Panics
    ///
    /// Panics if `rvs` has the wrong arity.
    pub fn amplitude(&self, outputs: usize, rvs: &[usize]) -> Complex {
        let n = self.sim.num_outputs();
        let mut values: Vec<usize> = (0..n).map(|i| (outputs >> (n - 1 - i)) & 1).collect();
        assert_eq!(
            rvs.len(),
            self.sim.num_random_events(),
            "random-event arity mismatch"
        );
        values.extend_from_slice(rvs);
        self.amplitude_assignment(&values)
    }

    /// The full output wavefunction of a noise-free circuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has noise or measurement events.
    pub fn wavefunction(&self) -> Vec<Complex> {
        assert_eq!(
            self.sim.num_random_events(),
            0,
            "wavefunction is only defined for noise-free circuits"
        );
        let n = self.sim.num_outputs();
        let dim = 1usize << n;
        let mut out = vec![C_ZERO; dim];
        let mut values = vec![0usize; n];
        // Gray-code order: consecutive queries differ in one output
        // variable's evidence, so the tape evaluator's delta kernel
        // recomputes a single cone per amplitude — and the Gray bits are
        // assigned so the most-frequently-flipped one has the smallest
        // cone. Each amplitude is bit-identical to an independent query;
        // only the visit order changes.
        for_each_output_gray(self.sim, &mut values, |values, x| {
            out[x] = self.amplitude_assignment(values);
        });
        out
    }

    /// Measurement probabilities of every output bitstring:
    /// `P(x) = Σ_K |amp(x, K)|²`. Enumerates random events — intended for
    /// validation on small circuits.
    pub fn output_probabilities(&self) -> Vec<f64> {
        let n = self.sim.num_outputs();
        let dim = 1usize << n;
        let mut probs = vec![0.0; dim];
        let mut values = vec![0usize; self.sim.query().len()];
        self.for_each_rv(|this, rvs| {
            values[n..].copy_from_slice(rvs);
            // Gray-code output order (see `wavefunction`); per-x sums
            // still accumulate in the same random-event order, so each
            // probability is bitwise unchanged.
            for_each_output_gray(this.sim, &mut values, |values, x| {
                probs[x] += this.amplitude_assignment(values).norm_sqr();
            });
        });
        probs
    }

    /// The full density matrix `ρ[x, x'] = Σ_K amp(x,K)·conj(amp(x',K))`.
    /// Enumerates random events — validation-scale only.
    pub fn density_matrix(&self) -> CMatrix {
        let n = self.sim.num_outputs();
        let dim = 1usize << n;
        let mut rho = CMatrix::zeros(dim, dim);
        let mut values = vec![0usize; self.sim.query().len()];
        let mut amps: Vec<Complex> = vec![C_ZERO; dim];
        self.for_each_rv(|this, rvs| {
            values[n..].copy_from_slice(rvs);
            // Gray-code order (see `wavefunction`); amplitudes land at
            // their natural index.
            for_each_output_gray(this.sim, &mut values, |values, x| {
                amps[x] = this.amplitude_assignment(values);
            });
            for r in 0..dim {
                for c in 0..dim {
                    rho[(r, c)] += amps[r] * amps[c].conj();
                }
            }
        });
        rho
    }

    fn for_each_rv(&self, mut f: impl FnMut(&Self, &[usize])) {
        let rv_specs = &self.sim.query()[self.sim.num_outputs()..];
        let domains: Vec<usize> = rv_specs.iter().map(|s| s.domain).collect();
        for_each_rv_assignment(&domains, |rvs| f(self, rvs));
    }

    /// Runs one upward+downward pass with evidence set to `(outputs, rvs)`
    /// and returns an owned differentials snapshot (used by sensitivity
    /// queries, which hold results past the evaluator borrow).
    pub(crate) fn differentials_for(
        &self,
        outputs: usize,
        rvs: &[usize],
    ) -> qkc_knowledge::TapeDifferentials<'a> {
        let n = self.sim.num_outputs();
        let mut values: Vec<usize> = (0..n).map(|i| (outputs >> (n - 1 - i)) & 1).collect();
        values.extend_from_slice(rvs);
        let query = self.sim.query();
        let mut guard = self.scratch.borrow_mut();
        let w = guard.get_or_insert_with(|| self.weights.clone());
        for (spec, &value) in query.iter().zip(&values) {
            write_evidence(spec, value, |v, pos, neg| w.set(v, pos, neg));
        }
        let tape = self.sim.tape();
        let mut eval = self.eval.borrow_mut();
        let value = eval.differentials(tape, w);
        let diffs = eval.take_differentials(tape, value);
        self.restore_scratch(w);
        diffs
    }

    /// The global factor from unit-resolved parameters.
    pub(crate) fn global(&self) -> Complex {
        self.global
    }

    /// The current weight bound to a CNF variable's positive literal.
    pub(crate) fn weight_of(&self, var: u32) -> Complex {
        self.weights.get(var as i32)
    }

    /// Creates a Gibbs sampler over outputs and random events
    /// (paper §3.3.2). Transitions run on the flat tape through a
    /// persistent evaluator (delta cone per accepted move).
    pub fn sampler(&self, options: &GibbsOptions) -> KcSampler<'_> {
        let (vars, value_maps) = self.sampler_vars();
        let sampler = GibbsSampler::new(self.sim.tape(), self.weights.clone(), vars, options);
        KcSampler {
            sampler,
            value_maps,
            num_outputs: self.sim.num_outputs(),
            reported: GibbsCounts::default(),
        }
    }

    /// The enum-walk reference counterpart of [`BoundKc::sampler`]: same
    /// chain, bit for bit, on the arena kernels over `nnf` (from
    /// [`KcSimulator::compile_with_nnf`]). For equivalence tests.
    #[doc(hidden)]
    pub fn sampler_enum_walk<'n>(&self, nnf: &'n Nnf, options: &GibbsOptions) -> KcSampler<'n> {
        let (vars, value_maps) = self.sampler_vars();
        let sampler = GibbsSampler::new_enum_walk(nnf, self.weights.clone(), vars, options);
        KcSampler {
            sampler,
            value_maps,
            num_outputs: self.sim.num_outputs(),
            reported: GibbsCounts::default(),
        }
    }

    /// Query-variable layout shared by both sampler constructors.
    fn sampler_vars(&self) -> (Vec<QueryVar>, Vec<Vec<usize>>) {
        let mut vars = Vec::new();
        let mut value_maps = Vec::new();
        for spec in self.sim.query() {
            let free = spec.free_values();
            if let Some(v) = spec.forced_value() {
                // Unit resolution removed this variable from the circuit:
                // it is pinned with no evidence to apply.
                vars.push(QueryVar {
                    label: spec.label.clone(),
                    value_lits: Vec::new(),
                    fixed: Some(0),
                });
                value_maps.push(vec![v]);
            } else {
                vars.push(QueryVar {
                    label: spec.label.clone(),
                    value_lits: free.iter().map(|&(_, l)| l).collect(),
                    fixed: None,
                });
                value_maps.push(free.iter().map(|&(v, _)| v).collect());
            }
        }
        (vars, value_maps)
    }
}

/// A compiled simulator bound to concrete parameter values **and** their
/// weight tangents for a fixed symbol list — the analytic-gradient query
/// handle produced by [`KcSimulator::bind_with_tangents`].
#[derive(Debug)]
pub struct BoundKcTangents<'a> {
    bound: BoundKc<'a>,
    /// `d(global)/∂θ_s` — product rule over unit-resolved parameters.
    dglobals: Vec<Complex>,
    /// One contraction plan per symbol, in input order.
    plans: Vec<TangentPlan>,
    /// Ancestor cone of the union of all plans' slots: the downward sweep
    /// of every gradient pass stays inside it (bit-for-bit equal partials
    /// at every plan slot, none of the full-tape sweep cost).
    cone: DiffCone,
}

impl<'a> BoundKcTangents<'a> {
    /// The underlying bound handle (ordinary amplitude/probability queries
    /// ignore the tangents and behave exactly like [`KcSimulator::bind`]).
    pub fn bound(&self) -> &BoundKc<'a> {
        &self.bound
    }

    /// Number of tangent symbols this handle differentiates against.
    pub fn num_symbols(&self) -> usize {
        self.plans.len()
    }

    /// The exact expectation of a diagonal observable **and** its gradient
    /// with respect to every tangent symbol, from ONE upward+downward
    /// differentials pass per evidence assignment — independent of the
    /// number of parameters.
    ///
    /// Per assignment `(x, K)`: `amp = global · root`, and for each symbol
    /// the chain rule gives
    /// `damp_s = dglobal_s · root + global · Σ_lit ∂root/∂w(lit) · dw(lit)/dθ_s`,
    /// where the sum is the precomputed tangent contraction. Then
    /// `⟨O⟩ = Σ |amp|²·O(x)` and
    /// `∂⟨O⟩/∂θ_s = Σ 2·Re(conj(amp)·damp_s)·O(x)` — exact because the
    /// d-DNNF circuit is multilinear in its literal weights. Enumeration
    /// runs in the same Gray-output × random-event odometer order as the
    /// probability reconstructions, so the expectation value is bit-for-bit
    /// the plain [`BoundKcBatch::expectations`](crate::BoundKcBatch::expectations)
    /// fold. Zero allocations per assignment after warmup.
    ///
    /// Internally, consecutive Gray-code basis states ride as *weight
    /// lanes* of one batched differentials pass (up to 32 at a time): the
    /// sweep decodes each cone slot once and updates every lane in a
    /// contiguous loop, amortizing per-slot dispatch the same way the
    /// parameter-shift batch bind amortizes it over shifted parameter
    /// sets. Each lane is bit-for-bit the scalar pass for its assignment
    /// (full-product arithmetic is path-independent), so lane blocking
    /// changes visit grouping, not any accumulated value.
    pub fn expectation_gradient(&self, observable: &dyn Fn(usize) -> f64) -> (f64, Vec<f64>) {
        let b = &self.bound;
        let n = b.sim.num_outputs();
        let ns = self.plans.len();
        let dim = 1usize << n;
        // 32 lanes balance per-slot sweep amortization against the L1
        // working set of the wide product nodes (arity×lanes rows).
        let k = dim.min(32);
        crate::batch::note_batch_width(k);
        let query = b.sim.query();
        let tape = b.sim.tape();
        // Every lane starts from the pristine bound weights; evidence
        // writes below touch only the query variables they change.
        let mut wb = AcWeightsBatch::uniform(b.weights.num_vars(), k);
        for v in 1..=b.weights.num_vars() as u32 {
            wb.set_all(v, b.weights.get(v as i32), b.weights.get(-(v as i32)));
        }
        // opos[oi] = position of output oi in the Gray bit order, so each
        // lane can decode its basis state without re-walking `order`.
        let order = b.sim.output_gray_order();
        let mut opos = vec![0usize; n];
        for (j, &oi) in order.iter().enumerate() {
            opos[oi] = j;
        }
        // Per-basis-state accumulators, folded against the observable in
        // natural order at the end — the same shape as the probability
        // reconstructions, so the expectation value is bitwise identical
        // to the plain `expectations` fold.
        let mut probs = vec![0.0; dim];
        let mut dprobs = vec![vec![0.0; dim]; ns];
        // Last evidence value written into each lane, per query spec:
        // lanes revisit the same Gray positions every block, so most specs
        // are already correct and the delta cone stays small.
        let mut written: Vec<Vec<Option<usize>>> = vec![vec![None; query.len()]; k];
        let mut dead = vec![false; k];
        let mut changed: Vec<u32> = Vec::new();
        let mut xs = vec![0usize; k];
        let mut raws = vec![C_ZERO; k];
        let mut contracted = vec![C_ZERO; k];
        let mut first = true;
        let mut eval = b.eval.borrow_mut();
        let domains: Vec<usize> = query[n..].iter().map(|s| s.domain).collect();
        for_each_rv_assignment(&domains, |rvs| {
            for blk in 0..dim / k {
                changed.clear();
                dead.fill(false);
                'lane: for l in 0..k {
                    let g = blk * k + l;
                    let gc = g ^ (g >> 1);
                    let mut x = 0usize;
                    let mut apply = |written: &mut Vec<Option<usize>>, s: usize, value: usize| {
                        let spec = &query[s];
                        if written[s] != Some(value) {
                            // An impossible value has no literal to set:
                            // the lane is dead and its weights stay
                            // untouched (so `written` stays truthful for
                            // later blocks).
                            let set = |v, pos, neg| wb.set_lane(v, l, pos, neg);
                            if !write_evidence(spec, value, set) {
                                return false;
                            }
                            written[s] = Some(value);
                            for state in &spec.values {
                                if let ValueState::Lit(lit) = state {
                                    changed.push(lit.unsigned_abs());
                                }
                            }
                        }
                        true
                    };
                    for (oi, &pos) in opos.iter().enumerate().take(n) {
                        let bit = (gc >> pos) & 1;
                        x |= bit << (n - 1 - oi);
                        if !apply(&mut written[l], oi, bit) {
                            dead[l] = true;
                            continue 'lane;
                        }
                    }
                    xs[l] = x;
                    for (s, &rv) in rvs.iter().enumerate() {
                        if !apply(&mut written[l], n + s, rv) {
                            dead[l] = true;
                            continue 'lane;
                        }
                    }
                }
                if first {
                    eval.differentials_cone_batch(tape, &wb, &self.cone);
                    first = false;
                } else {
                    eval.differentials_cone_batch_delta(tape, &wb, &changed, &self.cone);
                }
                for l in 0..k {
                    if dead[l] {
                        continue;
                    }
                    raws[l] = eval.value_lane(tape, l);
                    probs[xs[l]] += (b.global * raws[l]).norm_sqr();
                }
                for ((dp, plan), &dg) in dprobs.iter_mut().zip(&self.plans).zip(&self.dglobals) {
                    eval.contract_tangent_broadcast(plan, &mut contracted);
                    for l in 0..k {
                        if dead[l] {
                            continue;
                        }
                        let amp = b.global * raws[l];
                        let damp = dg * raws[l] + b.global * contracted[l];
                        dp[xs[l]] += 2.0 * (amp.conj() * damp).re;
                    }
                }
            }
        });
        let energy = probs
            .iter()
            .enumerate()
            .map(|(x, &p)| p * observable(x))
            .sum();
        let grad = dprobs
            .iter()
            .map(|dp| dp.iter().enumerate().map(|(x, &d)| d * observable(x)).sum())
            .collect();
        (energy, grad)
    }
}

/// Calls `f` with every assignment of the random-event domains, in
/// odometer order (first domain fastest) — the enumeration order both the
/// scalar and batched probability reconstructions share.
pub(crate) fn for_each_rv_assignment(domains: &[usize], mut f: impl FnMut(&[usize])) {
    let mut rvs = vec![0usize; domains.len()];
    loop {
        f(&rvs);
        let mut i = 0;
        loop {
            if i == domains.len() {
                return;
            }
            rvs[i] += 1;
            if rvs[i] < domains[i] {
                break;
            }
            rvs[i] = 0;
            i += 1;
        }
    }
}

/// Enumerates all `2^n` output assignments of `sim` in cone-ordered
/// Gray-code order, calling `f(values, x)` with `values[..n]` holding the
/// bits of basis state `x`. `values` must have the full query arity; slots
/// past the outputs are left untouched. Consecutive calls differ in one
/// output's evidence, and the most-flipped output has the smallest cone.
pub(crate) fn for_each_output_gray(
    sim: &KcSimulator,
    values: &mut [usize],
    mut f: impl FnMut(&[usize], usize),
) {
    let n = sim.num_outputs();
    let order = sim.output_gray_order();
    for g in 0..1usize << n {
        let gc = g ^ (g >> 1);
        let mut x = 0usize;
        for (k, &oi) in order.iter().enumerate() {
            let bit = (gc >> k) & 1;
            values[oi] = bit;
            x |= bit << (n - 1 - oi);
        }
        f(values, x);
    }
}

/// Writes evidence `spec = value` as `set(var, w(+var), w(−var))` calls —
/// the one evidence-literal rule behind every bound handle, whether `set`
/// writes a scalar weight vector, one lane of a batch, or every lane.
/// Returns `false`, writing nothing, if the value is impossible (forced
/// false by unit resolution).
pub(crate) fn write_evidence(
    spec: &QuerySpec,
    value: usize,
    mut set: impl FnMut(u32, Complex, Complex),
) -> bool {
    if matches!(spec.values[value], ValueState::ForcedFalse) {
        return false;
    }
    // Binary nodes: one CNF variable carries both values.
    if spec.domain == 2 {
        if let (ValueState::Lit(l0), ValueState::Lit(l1)) = (spec.values[0], spec.values[1]) {
            debug_assert_eq!(l0, -l1, "binary node literals must be complementary");
            let (pos, neg) = if value == 1 {
                (C_ONE, C_ZERO)
            } else {
                (C_ZERO, C_ONE)
            };
            set(l1.unsigned_abs(), pos, neg);
        }
        // Fully forced binary node: nothing to set; consistency was checked.
        return true;
    }
    // Indicator-encoded nodes: chosen free indicator 1, other free
    // indicators 0, negative polarities 1.
    for (v, state) in spec.values.iter().enumerate() {
        if let ValueState::Lit(lit) = state {
            let chosen = if v == value { C_ONE } else { C_ZERO };
            set(lit.unsigned_abs(), chosen, C_ONE);
        }
    }
    true
}

/// A Gibbs sampler with query-variable value mapping back to circuit
/// semantics.
#[derive(Debug)]
pub struct KcSampler<'a> {
    sampler: GibbsSampler<'a>,
    /// For each query var: chain-state index → actual domain value.
    value_maps: Vec<Vec<usize>>,
    num_outputs: usize,
    /// The chain's counts as of the last telemetry report.
    reported: GibbsCounts,
}

impl<'a> KcSampler<'a> {
    /// Draws `count` output bitstrings, taking `thin` coordinate updates
    /// between records.
    ///
    /// Adds the chain's transitions since the previous call (construction
    /// warm-up included in the first) to the `gibbs/*` telemetry counters:
    /// `gibbs/steps`, split into `gibbs/held`, `gibbs/pass/delta`,
    /// `gibbs/pass/full` and `gibbs/mh/proposed`, plus
    /// `gibbs/mh/accepted` (see [`GibbsCounts`]).
    pub fn sample_outputs(&mut self, count: usize, thin: usize) -> Vec<usize> {
        let maps = self.value_maps.clone();
        let n = self.num_outputs;
        let out = self.sampler.sample_with(count, thin, move |state| {
            let mut x = 0usize;
            for (i, map) in maps.iter().take(n).enumerate() {
                x |= map[state[i]] << (n - 1 - i);
            }
            x
        });
        let now = self.sampler.counts();
        let last = std::mem::replace(&mut self.reported, now);
        qkc_telemetry::count("gibbs/steps", now.steps - last.steps);
        qkc_telemetry::count("gibbs/held", now.held - last.held);
        qkc_telemetry::count("gibbs/pass/delta", now.delta - last.delta);
        qkc_telemetry::count("gibbs/pass/full", now.full - last.full);
        qkc_telemetry::count("gibbs/mh/proposed", now.mh_proposed - last.mh_proposed);
        qkc_telemetry::count("gibbs/mh/accepted", now.mh_accepted - last.mh_accepted);
        out
    }

    /// The chain's current full assignment in domain values
    /// (outputs then random events).
    pub fn current_assignment(&self) -> Vec<usize> {
        self.sampler
            .state()
            .iter()
            .zip(&self.value_maps)
            .map(|(&s, map)| map[s])
            .collect()
    }

    /// Fraction of coordinate updates that moved.
    pub fn acceptance_rate(&self) -> f64 {
        self.sampler.acceptance_rate()
    }
}

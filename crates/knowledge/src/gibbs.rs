//! Gibbs (MCMC) sampling from compiled arithmetic circuits (paper §3.3.2).
//!
//! The chain's state assigns a value to every query variable — final qubit
//! states *and* noise/measurement RVs (the paper's transition list for the
//! Bell example flips `q0m2rv` alongside the qubit states). One coordinate
//! update costs at most one upward + downward pass: the downward
//! differentials give the amplitude of every single-variable reassignment
//! at once, and the new value is drawn proportionally to `|amplitude|²`.
//!
//! Transitions run on the flat [`AcTape`] through persistent
//! [`TapeEvaluator`]s, so a step performs zero allocations: the value /
//! partial buffers, the conditional-probability column, and the MH proposal
//! scratch are all owned by the sampler. [`GibbsSampler::new_enum_walk`]
//! keeps the original enum-arena kernels as a reference implementation —
//! both produce bit-identical chains for the same seed, which the
//! equivalence tests assert.
//!
//! # Cost per step
//!
//! On the tape kernel every transition is exactly one of four kinds,
//! counted in [`GibbsCounts`]:
//!
//! * **held** — no pass. The evidence has not changed since the last
//!   differential pass (the previous update resampled its variable's
//!   current value, or a proposal was rejected), so the partials are
//!   still exact.
//! * **delta** — the previous update moved its variable: the upward pass
//!   recomputes that variable's dirty cone, then a full downward sweep.
//! * **full** — the first update after construction or after an accepted
//!   proposal that moved the state: a full upward and downward pass.
//! * **MH proposal** — at most one demand-driven upward pass on a side
//!   evaluator. With a [`DensityBound`], a proposal that fails the
//!   acceptance test even at its bound is rejected in O(query variables),
//!   with no pass and no evidence write (counted in `mh_bounded`). Any
//!   other proposal pays the pass: it assigns every query variable, so
//!   most products meet a zero literal and the pass skips the subtrees
//!   they never read. The chain's own evaluator is untouched either way,
//!   so a rejected proposal leaves its partials and pending delta list
//!   valid and costs nothing more.

use crate::evaluate::{evaluate, evaluate_with_differentials, sample_model, AcWeights};
use crate::nnf::Nnf;
use crate::tape::{AcTape, TapeEvaluator};
use qkc_cnf::Lit;
use qkc_math::{Complex, C_ONE, C_ZERO};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One query variable of the chain.
#[derive(Debug, Clone)]
pub struct QueryVar {
    /// Display / bookkeeping label.
    pub label: String,
    /// The literal asserting each domain value, indexed by value.
    /// Binary nodes: `[-v, +v]`; multi-valued nodes: positive indicators.
    /// Empty for variables that unit resolution removed from the circuit
    /// entirely (no evidence to apply).
    pub value_lits: Vec<Lit>,
    /// `Some(value)` if the variable is pinned: it never moves. Pinned
    /// variables with literals still receive evidence.
    pub fixed: Option<usize>,
}

/// Configuration of the sampler.
#[derive(Debug, Clone)]
pub struct GibbsOptions {
    /// Coordinate updates discarded before the first recorded sample.
    pub warmup: usize,
    /// Coordinate updates between recorded samples (1 = record after every
    /// update).
    ///
    /// The sampler never reads this field: [`GibbsSampler::sample_with`]
    /// takes the thinning as an argument, so callers pass it there. The
    /// field stays for callers that keep their thinning in the options
    /// (the `vqbench` replay among them).
    pub thin: usize,
    /// RNG seed.
    pub seed: u64,
    /// Probability of replacing a coordinate update with an independence
    /// Metropolis–Hastings move (a uniformly proposed full assignment,
    /// accepted with ratio `|amp(y)|²/|amp(x)|²`).
    ///
    /// Plain single-flip Gibbs cannot cross between perfectly correlated
    /// modes (e.g. the two branches of a Bell state) — the mixing caveat of
    /// the paper's §3.3.3. The MH move keeps the stationary distribution
    /// exact while making the chain irreducible over the full support. Set
    /// to 0 for the paper-faithful plain Gibbs kernel.
    ///
    /// Cost: a proposal that fails the acceptance test even at the
    /// sampler's [`DensityBound`] costs one product over the query
    /// variables; every other proposal pays one demand-driven upward pass
    /// on a side evaluator. Only an accepted proposal that moves the state
    /// costs more: the next coordinate update then runs a full upward and
    /// downward pass instead of a delta pass (see [`GibbsCounts`]). On the
    /// noisy VQE sampling benchmark (46 depolarizing channels at
    /// p = 0.01) the bound rejects over 99% of proposals, so the move
    /// costs little there.
    pub mh_restart_prob: f64,
}

impl Default for GibbsOptions {
    fn default() -> Self {
        Self {
            warmup: 200,
            thin: 1,
            seed: 0,
            mh_restart_prob: 0.05,
        }
    }
}

/// The compiled circuit a chain runs on: the flat tape (production) or the
/// enum arena (reference). Both kernels are bit-for-bit equivalent; the
/// tape path additionally reuses every buffer across transitions.
// The size skew vs the reference variant is fine: exactly one kernel is
// embedded per (long-lived) sampler, so nothing pays for the larger one.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Kernel<'a> {
    Tape {
        tape: &'a AcTape,
        /// The chain's differential buffers: full-product values and
        /// partials, valid for the weights of its last pass plus the
        /// changes listed below.
        eval: TapeEvaluator,
        /// Side evaluator for whole-assignment amplitudes (MH proposals,
        /// start states), so those never disturb `eval`.
        side: TapeEvaluator,
        /// CNF variables whose weights changed since the last differential
        /// pass — the delta set the next pass recomputes the cone of.
        changed: Vec<u32>,
        /// Too many changes to track (initialization, accepted MH
        /// proposals): the next differential pass runs in full.
        changed_full: bool,
    },
    EnumWalk {
        nnf: &'a Nnf,
    },
}

/// How a chain's transitions were served, counted since construction
/// (warm-up included). Every transition is exactly one of `held`, `delta`,
/// `full` or `mh_proposed`, so those four sum to `steps`. On the
/// enum-walk reference kernel every coordinate update counts as `full`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GibbsCounts {
    /// Transitions taken.
    pub steps: u64,
    /// Coordinate updates that reused the previous partials: no pass.
    pub held: u64,
    /// Coordinate updates that ran a delta differential pass.
    pub delta: u64,
    /// Coordinate updates that ran a full differential pass.
    pub full: u64,
    /// Metropolis–Hastings proposals.
    pub mh_proposed: u64,
    /// Proposals rejected at their [`DensityBound`], with no pass: a
    /// subset of `mh_proposed`. Every other proposal ran one upward pass.
    pub mh_bounded: u64,
    /// Proposals accepted.
    pub mh_accepted: u64,
}

/// A rigorous upper bound on the density `|amplitude|²` the chain computes
/// for any full assignment, as a product over the query variables:
/// `scale · Π_i factors[i][state[i]]`.
///
/// Whoever builds one vouches for it: [`GibbsSampler::new`] rejects, with
/// no pass, every Metropolis–Hastings proposal that fails its acceptance
/// test even at the bound, and debug builds assert the bound on each such
/// proposal. `qkc_core` builds it from the compiled noise channels.
#[derive(Debug, Clone)]
pub struct DensityBound {
    scale: f64,
    /// Per query variable, the factor of each chain value; empty for a
    /// variable that contributes no factor.
    factors: Vec<Vec<f64>>,
}

impl DensityBound {
    /// A bound `scale · Π_i factors[i][state[i]]` (an empty
    /// `factors[i]` stands for 1). `None` unless `scale` and every factor
    /// are finite and non-negative: with a NaN or infinite weight the
    /// computed densities are not bounded by anything.
    pub fn new(scale: f64, factors: Vec<Vec<f64>>) -> Option<Self> {
        let valid = |x: f64| x.is_finite() && x >= 0.0;
        (valid(scale) && factors.iter().flatten().all(|&f| valid(f)))
            .then_some(Self { scale, factors })
    }

    /// The bound at `state`. An exact zero factor gives exactly 0. A
    /// product that underflows below the normal range may have lost its
    /// relative accuracy, so it gives +∞ (no bound); one that overflows
    /// gives +∞ too.
    pub fn at(&self, state: &[usize]) -> f64 {
        let mut bound = self.scale;
        for (factors, &value) in self.factors.iter().zip(state) {
            let Some(&f) = factors.get(value) else {
                continue;
            };
            if f == 0.0 {
                return 0.0;
            }
            bound *= f;
            if bound < f64::MIN_POSITIVE {
                return f64::INFINITY;
            }
        }
        bound
    }
}

/// A Gibbs sampler over a smoothed arithmetic circuit.
#[derive(Debug)]
pub struct GibbsSampler<'a> {
    kernel: Kernel<'a>,
    weights: AcWeights,
    vars: Vec<QueryVar>,
    state: Vec<usize>,
    /// Indices of unfixed variables — vars are immutable after
    /// construction, so this is built once instead of per transition.
    movable: Vec<usize>,
    /// Conditional `|amplitude|²` column scratch, one slot per domain value
    /// of the widest variable — reused every coordinate update.
    probs: Vec<f64>,
    /// MH-move scratch: the pre-proposal state and the proposal, reused.
    saved_state: Vec<usize>,
    /// Model-sampling scratch for chain initialization.
    model_lits: Vec<Lit>,
    rng: StdRng,
    counts: GibbsCounts,
    moves_accepted: u64,
    mh_restart_prob: f64,
    /// Rejects MH proposals without a pass (see [`DensityBound`]).
    bound: Option<DensityBound>,
    /// |amplitude|² of the current state, kept in sync across moves.
    current_density: f64,
}

/// Bounded redraw budget for zero-density starts (see
/// [`GibbsSampler::new`]): model sampling weights branches by magnitude,
/// so each redraw lands on a cancelled state with probability < 1 whenever
/// the wavefunction has support, and the budget is generous enough that
/// exhausting it is astronomically unlikely in that case.
const ZERO_DENSITY_REDRAWS: usize = 32;

/// Bounded budget of uniform MH proposals for a start still at density 0
/// after every redraw (see [`GibbsSampler::new`]). A uniform proposal lands
/// in the support with probability `s`, the support's share of the joint
/// domain of the movable variables, so all of them miss with probability
/// `(1 − s)^256`: below 1e-7 for `s = 1/16`. With no support at all it
/// costs at most 256 amplitude passes.
const ZERO_DENSITY_PROPOSALS: usize = 256;

impl<'a> GibbsSampler<'a> {
    /// Creates a sampler over the flat compiled tape.
    ///
    /// `base_weights` must already carry parameter-variable values (and 1/1
    /// for summed-out internals); this sampler owns the evidence weights of
    /// the query variables. `bound`, if given, must hold for every full
    /// assignment of `vars`: it only decides which proposals skip their
    /// pass, never a sample.
    ///
    /// # Panics
    ///
    /// Panics if a query variable has an empty domain.
    pub fn new(
        tape: &'a AcTape,
        base_weights: AcWeights,
        vars: Vec<QueryVar>,
        bound: Option<DensityBound>,
        options: &GibbsOptions,
    ) -> Self {
        Self::with_kernel(
            Kernel::Tape {
                tape,
                eval: TapeEvaluator::new(),
                side: TapeEvaluator::new(),
                changed: Vec::new(),
                changed_full: true,
            },
            base_weights,
            vars,
            bound,
            options,
        )
    }

    /// [`GibbsSampler::new`] with both evaluators at the instruction set
    /// `isa`, for the tests that compare the kernel instantiations.
    #[cfg(test)]
    pub(crate) fn with_isa(
        tape: &'a AcTape,
        base_weights: AcWeights,
        vars: Vec<QueryVar>,
        options: &GibbsOptions,
        isa: crate::tape::Isa,
    ) -> Self {
        Self::with_kernel(
            Kernel::Tape {
                tape,
                eval: TapeEvaluator::with_isa(isa),
                side: TapeEvaluator::with_isa(isa),
                changed: Vec::new(),
                changed_full: true,
            },
            base_weights,
            vars,
            None,
            options,
        )
    }

    /// Creates a sampler running the original enum-arena kernels — the
    /// reference implementation the tape path is tested against. Same seed,
    /// same chain, bit for bit; every transition re-allocates its buffers.
    /// It takes no [`DensityBound`], so every proposal runs its pass, and
    /// an equal chain on the bounded tape kernel shows the bound exact.
    #[doc(hidden)]
    pub fn new_enum_walk(
        nnf: &'a Nnf,
        base_weights: AcWeights,
        vars: Vec<QueryVar>,
        options: &GibbsOptions,
    ) -> Self {
        Self::with_kernel(Kernel::EnumWalk { nnf }, base_weights, vars, None, options)
    }

    fn with_kernel(
        kernel: Kernel<'a>,
        base_weights: AcWeights,
        vars: Vec<QueryVar>,
        bound: Option<DensityBound>,
        options: &GibbsOptions,
    ) -> Self {
        assert!(
            vars.iter()
                .all(|v| v.fixed.is_some() || !v.value_lits.is_empty()),
            "movable variables need literals"
        );
        let rng = StdRng::seed_from_u64(options.seed);
        let movable: Vec<usize> = (0..vars.len())
            .filter(|&i| vars[i].fixed.is_none())
            .collect();
        let max_domain = vars.iter().map(|v| v.value_lits.len()).max().unwrap_or(0);
        let mut sampler = Self {
            kernel,
            weights: base_weights,
            state: vec![0; vars.len()],
            vars,
            movable,
            probs: Vec::with_capacity(max_domain),
            saved_state: Vec::new(),
            model_lits: Vec::new(),
            rng,
            counts: GibbsCounts::default(),
            moves_accepted: 0,
            mh_restart_prob: options.mh_restart_prob,
            bound,
            current_density: 0.0,
        };
        // Initialize inside the support: sample a model of the circuit
        // (with query evidence summed out) and read off the query values.
        // Sharply peaked distributions — the variational regime of the
        // paper's Figure 3 — make random initialization land on
        // zero-amplitude states from which single-flip Gibbs cannot escape.
        //
        // The model-sampling magnitudes depend only on the summed-out base
        // weights, which are identical on every redraw attempt (evidence is
        // reset in between), so the tape kernel computes the magnitude
        // buffer once and reuses it across the whole redraw loop.
        let has_support = match &mut sampler.kernel {
            Kernel::Tape { tape, eval, .. } => eval.model_magnitudes(tape, &sampler.weights) > 0.0,
            Kernel::EnumWalk { .. } => true, // checked per draw by sample_model
        };
        sampler.draw_start(has_support);
        // Model sampling weights branches by magnitude, so phase
        // cancellation can still land the draw on a zero-amplitude state
        // (e.g. a destructively interfering branch whose sub-circuit
        // magnitudes dominate). Redraw before warmup, bounded.
        for _ in 0..ZERO_DENSITY_REDRAWS {
            if sampler.current_density > 0.0 {
                break;
            }
            sampler.reset_query_weights();
            sampler.draw_start(has_support);
        }
        // From a density-0 state every coordinate column is zero, so only
        // the MH move could leave it, and warm-up would mostly hold. With
        // no current density that move accepts any proposal of positive
        // density, so propose until one lands in the support, bounded. A
        // start in the support proposes nothing and draws nothing here.
        for _ in 0..ZERO_DENSITY_PROPOSALS {
            if sampler.current_density > 0.0 || sampler.movable.is_empty() {
                break;
            }
            sampler.mh_move();
        }
        // Warm-up mixes the chain.
        for _ in 0..options.warmup {
            sampler.step();
        }
        sampler
    }

    /// Draws a start state by magnitude-weighted model sampling, applies
    /// its evidence, and records the resulting `|amplitude|²`. Expects the
    /// query-variable weights to be in their summed-out (1, 1) state — and,
    /// on the tape kernel, the magnitude buffer to be current for those
    /// weights (it is computed once in the constructor and reused across
    /// redraws, since the weights do not change in between).
    fn draw_start(&mut self, has_support: bool) {
        // Initialization rewrites every query variable's evidence.
        self.note_weights_changed_all();
        let model = match &mut self.kernel {
            Kernel::Tape { tape, eval, .. } => {
                if has_support {
                    eval.draw_model(tape, &mut self.rng, &mut self.model_lits);
                    Some(std::mem::take(&mut self.model_lits))
                } else {
                    None
                }
            }
            Kernel::EnumWalk { nnf } => sample_model(nnf, &self.weights, &mut self.rng),
        };
        let mut polarity: std::collections::HashMap<u32, bool> = std::collections::HashMap::new();
        if let Some(lits) = &model {
            for &l in lits {
                polarity.insert(l.unsigned_abs(), l > 0);
            }
        }
        for i in 0..self.vars.len() {
            let v = &self.vars[i];
            let mut chosen = v.fixed;
            if chosen.is_none() {
                for (value, &lit) in v.value_lits.iter().enumerate() {
                    if polarity.get(&lit.unsigned_abs()) == Some(&(lit > 0)) {
                        chosen = Some(value);
                        break;
                    }
                }
            }
            let domain = v.value_lits.len();
            self.state[i] = chosen.unwrap_or_else(|| self.rng.gen_range(0..domain));
        }
        // Return the lits buffer for the next redraw.
        if let Some(lits) = model {
            self.model_lits = lits;
        }
        for i in 0..self.vars.len() {
            if !self.vars[i].value_lits.is_empty() {
                self.apply_evidence(i);
            }
        }
        self.current_density = self.amplitude_of_current_state().norm_sqr();
    }

    /// Restores the summed-out (1, 1) weights of every query literal,
    /// undoing applied evidence so model sampling sees the base
    /// distribution again.
    fn reset_query_weights(&mut self) {
        for var in &self.vars {
            for &lit in &var.value_lits {
                self.weights.set(lit.unsigned_abs(), C_ONE, C_ONE);
            }
        }
    }

    /// The current assignment (one value per query variable).
    pub fn state(&self) -> &[usize] {
        &self.state
    }

    /// The query variables.
    pub fn vars(&self) -> &[QueryVar] {
        &self.vars
    }

    /// Fraction of coordinate updates that changed the value.
    pub fn acceptance_rate(&self) -> f64 {
        if self.counts.steps == 0 {
            0.0
        } else {
            self.moves_accepted as f64 / self.counts.steps as f64
        }
    }

    /// How the transitions so far were served (warm-up included).
    pub fn counts(&self) -> GibbsCounts {
        self.counts
    }

    /// Sets the evidence weights for variable `i` to its current value.
    fn apply_evidence(&mut self, i: usize) {
        let var = &self.vars[i];
        let chosen = self.state[i];
        if var.value_lits.len() == 2 && var.value_lits[0] == -var.value_lits[1] {
            // Binary-encoded: one CNF variable.
            let v = var.value_lits[1].unsigned_abs();
            let (pos, neg) = if chosen == 1 {
                (C_ONE, C_ZERO)
            } else {
                (C_ZERO, C_ONE)
            };
            self.weights.set(v, pos, neg);
        } else {
            // Indicator-encoded: chosen indicator 1, others 0; negative
            // polarities always 1.
            for (value, &lit) in var.value_lits.iter().enumerate() {
                let v = lit.unsigned_abs();
                let w = if value == chosen { C_ONE } else { C_ZERO };
                self.weights.set(v, w, C_ONE);
            }
        }
    }

    /// One transition: with probability `mh_restart_prob` an independence
    /// MH move, otherwise a Gibbs coordinate update — pick a random unfixed
    /// variable, read the conditional |amplitude|² of each of its values
    /// off the differentials (held, delta or full pass; see
    /// [`GibbsCounts`]), and resample it. Zero allocations on the tape
    /// kernel.
    pub fn step(&mut self) {
        if self.movable.is_empty() {
            return;
        }
        if self.mh_restart_prob > 0.0 && self.rng.gen::<f64>() < self.mh_restart_prob {
            self.mh_move();
            return;
        }
        let i = self.movable[self.rng.gen_range(0..self.movable.len())];
        self.counts.steps += 1;
        // By Darwiche's differential semantics each value's literal
        // derivative is the amplitude with this variable re-assigned —
        // for binary nodes value 0's literal is `-v`, so one rule covers
        // both encodings.
        let var = &self.vars[i];
        self.probs.clear();
        match &mut self.kernel {
            Kernel::Tape {
                tape,
                eval,
                changed,
                changed_full,
                ..
            } => {
                // A full pass after initialization or an accepted MH
                // proposal; otherwise just the dirty cone of the variables
                // that moved; and no pass at all when nothing moved since
                // the last one (the partials are still exact). All three
                // are bit-for-bit the full recompute the enum walk performs.
                if *changed_full {
                    eval.differentials(tape, &self.weights);
                    self.counts.full += 1;
                } else if !changed.is_empty() {
                    eval.differentials_delta(tape, &self.weights, changed);
                    self.counts.delta += 1;
                } else {
                    self.counts.held += 1;
                }
                changed.clear();
                *changed_full = false;
                self.probs.extend(
                    var.value_lits
                        .iter()
                        .map(|&lit| eval.wrt_lit(tape, lit).unwrap_or(C_ZERO).norm_sqr()),
                );
            }
            Kernel::EnumWalk { nnf } => {
                self.counts.full += 1;
                let d = evaluate_with_differentials(nnf, &self.weights);
                self.probs.extend(
                    var.value_lits
                        .iter()
                        .map(|&lit| d.wrt_lit(lit).unwrap_or(C_ZERO).norm_sqr()),
                );
            }
        }
        let total: f64 = self.probs.iter().sum();
        if total <= 0.0 {
            // Zero-support column (can only happen from a zero-amplitude
            // start state): leave the coordinate and try another next step.
            return;
        }
        let new_value = qkc_math::sample_cdf(&self.probs, &mut self.rng);
        self.current_density = self.probs[new_value];
        if new_value != self.state[i] {
            self.moves_accepted += 1;
            self.state[i] = new_value;
            self.apply_evidence(i);
            self.note_weights_changed(i);
        }
    }

    /// Records that variable `i`'s evidence weights changed, so the tape
    /// kernel's next differential pass recomputes (only) its cone.
    fn note_weights_changed(&mut self, i: usize) {
        if let Kernel::Tape {
            changed,
            changed_full,
            ..
        } = &mut self.kernel
        {
            if !*changed_full {
                changed.extend(self.vars[i].value_lits.iter().map(|l| l.unsigned_abs()));
            }
        }
    }

    /// Records a bulk weight change (initialization, accepted MH
    /// proposals): the tape kernel's next differential pass runs in full.
    fn note_weights_changed_all(&mut self) {
        if let Kernel::Tape {
            changed,
            changed_full,
            ..
        } = &mut self.kernel
        {
            *changed_full = true;
            changed.clear();
        }
    }

    /// Independence Metropolis–Hastings move: propose a uniform full
    /// assignment; accept with probability `min(1, |amp(y)|²/|amp(x)|²)`
    /// (the proposal is symmetric/uniform, so the ratio is just the target
    /// density ratio).
    ///
    /// The acceptance draw `u` is taken before any pass (no pass consumes
    /// randomness, so the stream is the same). If `u` fails the test even
    /// at the [`DensityBound`] of the proposal, the exact test fails too:
    /// correctly rounded division and `min` are monotone. So the proposal
    /// is rejected with no pass and no evidence write.
    ///
    /// Otherwise the proposal's amplitude comes from the side evaluator, so
    /// the chain's differential buffers never see it. A rejection rewrites
    /// the saved evidence, and since [`apply_evidence`](Self::apply_evidence)
    /// writes constants the weights are back bit for bit: the buffers and
    /// the pending delta list stay valid. Only an accepted proposal that
    /// moved the state invalidates them.
    fn mh_move(&mut self) {
        self.counts.steps += 1;
        self.counts.mh_proposed += 1;
        self.saved_state.clear();
        self.saved_state.extend_from_slice(&self.state);
        for mi in 0..self.movable.len() {
            let i = self.movable[mi];
            self.state[i] = self.rng.gen_range(0..self.vars[i].value_lits.len());
        }
        let u = if self.current_density <= 0.0 {
            None
        } else {
            Some(self.rng.gen::<f64>())
        };
        if let (Some(u), Some(bound)) = (u, &self.bound) {
            // `min` never returns NaN, so `u >= x` is `!(u < x)`: this is
            // the acceptance test below failing at the bound.
            let at_bound = bound.at(&self.state);
            if at_bound.is_finite() && u >= (at_bound / self.current_density).min(1.0) {
                self.counts.mh_bounded += 1;
                #[cfg(debug_assertions)]
                self.assert_density_at_most(at_bound);
                self.state.copy_from_slice(&self.saved_state);
                return;
            }
        }
        for mi in 0..self.movable.len() {
            self.apply_evidence(self.movable[mi]);
        }
        let new_density = self.amplitude_of_current_state().norm_sqr();
        let accept = match u {
            None => new_density > 0.0,
            Some(u) => u < (new_density / self.current_density).min(1.0),
        };
        if accept {
            self.counts.mh_accepted += 1;
            if self.state != self.saved_state {
                self.moves_accepted += 1;
                self.note_weights_changed_all();
            }
            self.current_density = new_density;
        } else {
            self.state.copy_from_slice(&self.saved_state);
            for mi in 0..self.movable.len() {
                self.apply_evidence(self.movable[mi]);
            }
        }
    }

    /// The debug-build check behind a bounded rejection: the proposal in
    /// `state` has density at most `bound`. Its evidence is written for one
    /// side-evaluator pass and then restored bit for bit from
    /// `saved_state`, so the chain runs exactly as in a release build.
    #[cfg(debug_assertions)]
    fn assert_density_at_most(&mut self, bound: f64) {
        for mi in 0..self.movable.len() {
            self.apply_evidence(self.movable[mi]);
        }
        let density = self.amplitude_of_current_state().norm_sqr();
        debug_assert!(
            density <= bound,
            "density bound violated: |amplitude|² = {density:e} > bound {bound:e} at {:?}",
            self.state
        );
        for mi in 0..self.movable.len() {
            let i = self.movable[mi];
            self.state[i] = self.saved_state[i];
            self.apply_evidence(i);
        }
    }

    /// Draws `count` samples, recording the state every `thin` coordinate
    /// updates, and maps each recorded state through `project` (typically:
    /// extract the output-qubit bits).
    pub fn sample_with<T>(
        &mut self,
        count: usize,
        thin: usize,
        mut project: impl FnMut(&[usize]) -> T,
    ) -> Vec<T> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            for _ in 0..thin.max(1) {
                self.step();
            }
            out.push(project(&self.state));
        }
        out
    }

    /// The current assignment's amplitude, on the tape kernel from a
    /// demand-driven pass on the side evaluator (bit-for-bit the full
    /// upward pass).
    fn amplitude_of_current_state(&mut self) -> Complex {
        match &mut self.kernel {
            Kernel::Tape { tape, side, .. } => side.evaluate_demand(tape, &self.weights),
            Kernel::EnumWalk { nnf } => evaluate(nnf, &self.weights),
        }
    }

    /// The amplitude of the chain's current full assignment.
    pub fn current_amplitude(&mut self) -> Complex {
        self.amplitude_of_current_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompileOptions};
    use crate::transform::smooth;
    use qkc_cnf::Cnf;

    /// A 2-variable circuit with amplitudes ±1/√2 on (0,0) and (1,1):
    /// a Bell-like parity constraint v1 == v2.
    fn parity_nnf() -> Nnf {
        let mut f = Cnf::new(2);
        f.add_clause(vec![1, -2]);
        f.add_clause(vec![-1, 2]);
        let c = compile(&f, &CompileOptions::default());
        smooth(&c.nnf, &[vec![1, -1], vec![2, -2]])
    }

    fn parity_vars() -> Vec<QueryVar> {
        (1..=2)
            .map(|v| QueryVar {
                label: format!("q{v}"),
                value_lits: vec![-(v as Lit), v as Lit],
                fixed: None,
            })
            .collect()
    }

    #[test]
    fn chain_respects_support() {
        let nnf = parity_nnf();
        let tape = AcTape::lower(&nnf);
        let mut sampler = GibbsSampler::new(
            &tape,
            AcWeights::uniform(2),
            parity_vars(),
            None,
            &GibbsOptions {
                warmup: 50,
                thin: 1,
                seed: 42,
                ..Default::default()
            },
        );
        let samples = sampler.sample_with(500, 1, |s| (s[0], s[1]));
        for (a, b) in samples {
            assert_eq!(a, b, "chain left the support");
        }
    }

    #[test]
    fn chain_matches_biased_product_distribution() {
        // Two independent binary vars with amplitude weights (a, b) per
        // polarity: stationary marginals are |a|²/(|a|²+|b|²). Full support,
        // so the chain is irreducible (unlike Bell-like parity modes, which
        // single-flip Gibbs cannot cross — the mixing caveat of §3.3.3).
        let mut f = Cnf::new(2);
        f.add_clause(vec![1, -1]); // tautologies keep vars mentioned
        f.add_clause(vec![2, -2]);
        let c = compile(&f, &CompileOptions::default());
        let groups: Vec<Vec<Lit>> = (1..=2).map(|v| vec![v, -v]).collect();
        let nnf = smooth(&c.nnf, &groups);
        let tape = AcTape::lower(&nnf);
        let base = AcWeights::uniform(2);
        let vars: Vec<QueryVar> = (1..=2)
            .map(|v| QueryVar {
                label: format!("q{v}"),
                value_lits: vec![-(v as Lit), v as Lit],
                fixed: None,
            })
            .collect();
        // Conditional weights come from the evidence replacement — encode a
        // bias by scaling one variable's indicator weights via params? Keep
        // simple: uniform weights give 50/50 marginals.
        let mut sampler = GibbsSampler::new(
            &tape,
            base,
            vars,
            None,
            &GibbsOptions {
                warmup: 100,
                thin: 2,
                seed: 7,
                ..Default::default()
            },
        );
        let samples = sampler.sample_with(4000, 2, |s| s[0]);
        let ones = samples.iter().filter(|&&x| x == 1).count() as f64;
        let frac = ones / 4000.0;
        assert!(
            (frac - 0.5).abs() < 0.05,
            "uniform marginal expected, got {frac}"
        );
    }

    #[test]
    fn fixed_vars_never_move() {
        let nnf = parity_nnf();
        let tape = AcTape::lower(&nnf);
        let mut vars = parity_vars();
        vars[0].fixed = Some(1);
        let mut sampler = GibbsSampler::new(
            &tape,
            AcWeights::uniform(2),
            vars,
            None,
            &GibbsOptions {
                warmup: 20,
                thin: 1,
                seed: 3,
                ..Default::default()
            },
        );
        let samples = sampler.sample_with(200, 1, |s| (s[0], s[1]));
        for (a, b) in samples {
            assert_eq!(a, 1);
            assert_eq!(b, 1, "parity forces the free var to follow");
        }
    }

    #[test]
    fn zero_density_start_is_redrawn_on_interference_heavy_circuit() {
        // f = (v1 ↔ v2) ∧ (v1 ∨ v3) with phase weights w(±v3) = (1, -1):
        // amp(0,0) = w(+v3) = 1 (v3 forced true), amp(1,1) = 1 + (-1) = 0
        // (destructive interference over the free v3), and the off-parity
        // states are unsatisfiable. Model sampling weights branches by
        // *magnitude*, so it prefers the cancelled (1,1) branch (mass 2 of
        // 3) — without the zero-density redraw the chain starts at a
        // zero-amplitude state it can never leave by single flips, and
        // every sample reports (1,1) even though that state has
        // probability zero.
        let mut f = Cnf::new(3);
        f.add_clause(vec![-1, 2]);
        f.add_clause(vec![1, -2]);
        f.add_clause(vec![1, 3]);
        let c = compile(&f, &CompileOptions::default());
        let groups: Vec<Vec<Lit>> = (1..=3).map(|v| vec![v, -v]).collect();
        let nnf = smooth(&c.nnf, &groups);
        let tape = AcTape::lower(&nnf);
        for seed in 0..20 {
            let mut base = AcWeights::uniform(3);
            base.set(3, C_ONE, qkc_math::Complex::real(-1.0));
            let mut sampler = GibbsSampler::new(
                &tape,
                base,
                parity_vars(),
                None,
                &GibbsOptions {
                    warmup: 30,
                    thin: 1,
                    seed,
                    mh_restart_prob: 0.0,
                },
            );
            assert!(
                sampler.current_amplitude().norm_sqr() > 0.0,
                "seed {seed}: chain initialized on a zero-amplitude state"
            );
            for (a, b) in sampler.sample_with(50, 1, |s| (s[0], s[1])) {
                assert_eq!(
                    (a, b),
                    (0, 0),
                    "seed {seed}: sampled a zero-probability state"
                );
            }
        }
    }

    #[test]
    fn tape_and_enum_walk_chains_are_bit_identical() {
        // Same seed, same circuit, both kernels: states, acceptance
        // bookkeeping, and the full sample stream must match exactly —
        // including through zero-density redraws (interference circuit).
        let mut f = Cnf::new(3);
        f.add_clause(vec![-1, 2]);
        f.add_clause(vec![1, -2]);
        f.add_clause(vec![1, 3]);
        let c = compile(&f, &CompileOptions::default());
        let groups: Vec<Vec<Lit>> = (1..=3).map(|v| vec![v, -v]).collect();
        let nnf = smooth(&c.nnf, &groups);
        let tape = AcTape::lower(&nnf);
        for seed in 0..10 {
            let mut base = AcWeights::uniform(3);
            base.set(3, C_ONE, qkc_math::Complex::real(-1.0));
            let options = GibbsOptions {
                warmup: 25,
                thin: 1,
                seed,
                mh_restart_prob: 0.10,
            };
            let mut tape_chain =
                GibbsSampler::new(&tape, base.clone(), parity_vars(), None, &options);
            let mut enum_chain = GibbsSampler::new_enum_walk(&nnf, base, parity_vars(), &options);
            assert_eq!(tape_chain.state(), enum_chain.state(), "seed {seed}");
            let a = tape_chain.sample_with(200, 1, <[usize]>::to_vec);
            let b = enum_chain.sample_with(200, 1, <[usize]>::to_vec);
            assert_eq!(a, b, "seed {seed}: chains diverged");
            assert_eq!(
                tape_chain.acceptance_rate(),
                enum_chain.acceptance_rate(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn acceptance_rate_reported() {
        let nnf = parity_nnf();
        let tape = AcTape::lower(&nnf);
        let mut sampler = GibbsSampler::new(
            &tape,
            AcWeights::uniform(2),
            parity_vars(),
            None,
            &GibbsOptions::default(),
        );
        sampler.sample_with(100, 1, |_| ());
        let rate = sampler.acceptance_rate();
        assert!((0.0..=1.0).contains(&rate));
    }
}

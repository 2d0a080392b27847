//! Batched parameter binding: `k` bindings share one arithmetic-circuit
//! traversal per query.
//!
//! [`KcSimulator::bind`] already makes re-binding cheap relative to
//! compilation; [`KcSimulator::bind_batch`] goes further and amortizes the
//! *evaluation* side of a sweep. The Bayes-net weight table is still
//! evaluated once per point (each point has its own parameter values), but
//! the fixed/unit-resolution walk over the parameter variables runs once
//! for the whole batch, and every amplitude / probability / expectation
//! query decodes the NNF once while updating `k` weight lanes
//! ([`qkc_knowledge::evaluate_batch`]).
//!
//! Lane `l` of every query is **bit-for-bit identical** to the same query
//! on `bind(&params[l])` — the engine's sweep executor relies on this to
//! keep sweep results byte-identical across batch widths.

use crate::bound::{for_each_output_gray, for_each_rv_assignment, write_evidence};
use crate::pipeline::{KcSimulator, ValueState};
use qkc_circuit::{ParamMap, UnboundParam};
use qkc_knowledge::{lane_width, AcWeightsBatch, TapeEvaluator};
use qkc_math::{Complex, C_ONE, C_ZERO};
use qkc_telemetry::count;
use std::cell::RefCell;

/// Records the lane occupancy of a batched bind: `kernel/batch/width`
/// accumulates requested lanes, `kernel/batch/remainder_lanes` the dead
/// lanes padding the last [`LaneBlock`](qkc_knowledge::LaneBlock) of every
/// row, at the block width `W` = [`lane_width`]`(k)` the kernels run at.
/// The snapshot tree turns the pair into a SIMD occupancy percentage, so
/// ragged batch widths show up in `BENCH_telemetry.jsonl` instead of
/// silently wasting `(W - k % W) % W` of each remainder block.
pub(crate) fn note_batch_width(k: usize) {
    let w = lane_width(k);
    count("kernel/batch/width", k as u64);
    count("kernel/batch/remainder_lanes", ((w - k % w) % w) as u64);
}

impl KcSimulator {
    /// Binds `k` parameter maps at once, producing a batched query handle.
    /// The Bayes-net weight table is evaluated per point; the parameter
    /// walk (including unit-resolved global factors) is shared.
    ///
    /// # Errors
    ///
    /// The first binding error in input order, if any point omits a symbol
    /// the circuit mentions.
    pub fn bind_batch(&self, params: &[ParamMap]) -> Result<BoundKcBatch<'_>, UnboundParam> {
        let tables = params
            .iter()
            .map(|p| self.bayes_net().evaluate_weights(p))
            .collect::<Result<Vec<_>, _>>()?;
        let k = params.len();
        note_batch_width(k);
        let mut weights = AcWeightsBatch::uniform(self.encoding().cnf.num_vars(), k);
        let mut globals = vec![C_ONE; k];
        for (var, node, slot) in self.encoding().vars.params() {
            match self.fixed_vars().get(&var) {
                // Same split as the scalar bind: forced-true parameters
                // become per-lane global factors, forced-false contribute
                // w(¬P) = 1, free parameters land in the weight lanes.
                Some(&true) => {
                    for (g, table) in globals.iter_mut().zip(&tables) {
                        *g *= table.value(node, slot);
                    }
                }
                Some(&false) => {}
                None => {
                    for (lane, table) in tables.iter().enumerate() {
                        weights.set_lane(var, lane, table.value(node, slot), C_ONE);
                    }
                }
            }
        }
        Ok(BoundKcBatch {
            sim: self,
            weights,
            globals,
            scratch: RefCell::new(None),
            eval: RefCell::new(TapeEvaluator::new()),
            last_query: RefCell::new(Vec::new()),
            changed_vars: RefCell::new(Vec::new()),
        })
    }
}

/// A compiled simulator bound to `k` concrete parameter vectors at once.
/// Every query answers for all `k` bindings in one AC traversal per
/// evidence assignment.
#[derive(Debug)]
pub struct BoundKcBatch<'a> {
    sim: &'a KcSimulator,
    weights: AcWeightsBatch,
    globals: Vec<Complex>,
    /// Reusable evidence buffer, cloned from the bound weights on first
    /// query (see [`BoundKc`](crate::BoundKc)): queries write
    /// query-variable evidence, evaluate, and restore.
    scratch: RefCell<Option<AcWeightsBatch>>,
    /// Persistent tape evaluator — one AC pass per basis state makes the
    /// per-call value-buffer allocation measurable, so the lane-strided
    /// buffers live here across queries.
    eval: RefCell<TapeEvaluator>,
    /// The previous amplitude query's assignment (empty = none yet):
    /// consecutive batched amplitude queries — Gray-ordered wavefunction
    /// sweeps, probability reconstructions, gradient lanes — differ in a
    /// few evidence values (shared across lanes), so the next query
    /// recomputes only the dirty cone of the changed variables, once per
    /// batch instead of once per lane.
    last_query: RefCell<Vec<usize>>,
    /// Reusable changed-variable buffer for the batch delta pass.
    changed_vars: RefCell<Vec<u32>>,
}

impl<'a> BoundKcBatch<'a> {
    /// The underlying compiled simulator.
    pub fn simulator(&self) -> &KcSimulator {
        self.sim
    }

    /// Number of bound parameter vectors (lanes).
    pub fn lanes(&self) -> usize {
        self.globals.len()
    }

    /// The amplitude of a full query assignment in every lane: `values`
    /// pairs with [`KcSimulator::query`] order.
    ///
    /// # Panics
    ///
    /// Panics if `values` has the wrong arity or an out-of-domain value.
    pub fn amplitude_assignment(&self, values: &[usize]) -> Vec<Complex> {
        let query = self.sim.query();
        assert_eq!(values.len(), query.len(), "query arity mismatch");
        let mut guard = self.scratch.borrow_mut();
        let w = guard.get_or_insert_with(|| self.weights.clone());
        let mut possible = true;
        for (spec, &value) in query.iter().zip(values) {
            assert!(value < spec.domain, "value {value} out of domain");
            if !write_evidence(spec, value, |v, pos, neg| w.set_all(v, pos, neg)) {
                possible = false;
                break;
            }
        }
        let amps = if possible {
            let tape = self.sim.tape();
            let mut eval = self.eval.borrow_mut();
            let mut last = self.last_query.borrow_mut();
            let vals = if last.len() == values.len() {
                // Recompute only the cone of the query variables whose
                // evidence differs from the previous query — one decode
                // per dirty slot updates every lane (falls back to a full
                // batched pass internally if the cached buffer was
                // invalidated by another kernel or lane count).
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
                eval.evaluate_batch_delta(tape, w, &changed)
            } else {
                eval.evaluate_batch(tape, w)
            };
            last.clear();
            last.extend_from_slice(values);
            self.globals
                .iter()
                .zip(vals)
                .map(|(&g, &v)| g * v)
                .collect()
        } else {
            vec![C_ZERO; self.lanes()]
        };
        // Restore the touched query variables from the pristine weights.
        for &v in self.sim.query_lit_vars() {
            w.copy_var_from(&self.weights, v);
        }
        amps
    }

    /// The per-lane amplitude of output bitstring `outputs` (qubit 0 =
    /// most significant bit) with random events assigned `rvs`.
    ///
    /// # Panics
    ///
    /// Panics if `rvs` has the wrong arity.
    pub fn amplitude(&self, outputs: usize, rvs: &[usize]) -> Vec<Complex> {
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

    /// The full output wavefunction of every lane (noise-free circuits).
    /// `result[lane][x]` is the amplitude of bitstring `x` under binding
    /// `lane`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has noise or measurement events.
    pub fn wavefunctions(&self) -> Vec<Vec<Complex>> {
        assert_eq!(
            self.sim.num_random_events(),
            0,
            "wavefunction is only defined for noise-free circuits"
        );
        let n = self.sim.num_outputs();
        let dim = 1usize << n;
        let mut out = vec![vec![C_ZERO; dim]; self.lanes()];
        let mut values = vec![0usize; n];
        // Gray-code order (see `BoundKc::wavefunction`): consecutive
        // queries differ in one output variable's evidence — shared across
        // lanes — so the batch delta kernel recomputes a single cone per
        // basis state, decoded once for all lanes. Each amplitude is
        // bit-identical to an independent query; only the visit order
        // changes.
        for_each_output_gray(self.sim, &mut values, |values, x| {
            for (wf, amp) in out.iter_mut().zip(self.amplitude_assignment(values)) {
                wf[x] = amp;
            }
        });
        out
    }

    /// Measurement probabilities of every output bitstring per lane:
    /// `result[lane][x] = Σ_K |amp(x, K)|²`. Enumerates random events —
    /// validation-scale, like the scalar variant.
    pub fn output_probabilities(&self) -> Vec<Vec<f64>> {
        let n = self.sim.num_outputs();
        let dim = 1usize << n;
        let mut probs = vec![vec![0.0; dim]; self.lanes()];
        let rv_specs = &self.sim.query()[self.sim.num_outputs()..];
        let domains: Vec<usize> = rv_specs.iter().map(|s| s.domain).collect();
        let mut values = vec![0usize; self.sim.query().len()];
        for_each_rv_assignment(&domains, |rvs| {
            values[n..].copy_from_slice(rvs);
            // Gray-code output order (see `wavefunctions`); per-x sums
            // still accumulate in the same random-event order, so each
            // probability is bitwise unchanged.
            for_each_output_gray(self.sim, &mut values, |values, x| {
                for (row, amp) in probs.iter_mut().zip(self.amplitude_assignment(values)) {
                    row[x] += amp.norm_sqr();
                }
            });
        });
        probs
    }

    /// The exact expectation of a diagonal observable over the output
    /// distribution of every lane. Pure circuits avoid the random-event
    /// enumeration by writing `|amplitude|²` straight into the per-lane
    /// probability rows during the Gray sweep — no complex wavefunction
    /// buffer is materialized (gradient queries fold many lanes at once,
    /// where that buffer would dominate memory). The fold below runs in
    /// natural basis order either way, so each lane's expectation is
    /// bit-for-bit the scalar fold over that lane's distribution.
    pub fn expectations(&self, observable: &dyn Fn(usize) -> f64) -> Vec<f64> {
        let probs = if self.sim.num_random_events() == 0 {
            let n = self.sim.num_outputs();
            let dim = 1usize << n;
            let mut probs = vec![vec![0.0; dim]; self.lanes()];
            let mut values = vec![0usize; n];
            for_each_output_gray(self.sim, &mut values, |values, x| {
                for (row, amp) in probs.iter_mut().zip(self.amplitude_assignment(values)) {
                    row[x] = amp.norm_sqr();
                }
            });
            probs
        } else {
            self.output_probabilities()
        };
        probs
            .iter()
            .map(|p| {
                p.iter()
                    .enumerate()
                    .map(|(bits, &p)| p * observable(bits))
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::KcOptions;
    use qkc_circuit::{Circuit, Param};

    fn bits_eq(a: Complex, b: Complex) -> bool {
        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
    }

    fn sweep_params(k: usize) -> Vec<ParamMap> {
        (0..k)
            .map(|i| {
                ParamMap::from_pairs([("a", 0.2 + 0.31 * i as f64), ("b", 1.7 - 0.53 * i as f64)])
            })
            .collect()
    }

    #[test]
    fn batched_wavefunctions_match_scalar_bind_bit_for_bit() {
        let mut c = Circuit::new(3);
        c.h(0)
            .rx(1, Param::symbol("a"))
            .cnot(0, 1)
            .zz(1, 2, Param::symbol("b"))
            .ry(2, Param::symbol("a"));
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        for k in [1usize, 3, 8] {
            let params = sweep_params(k);
            let batch = sim.bind_batch(&params).unwrap();
            assert_eq!(batch.lanes(), k);
            let wfs = batch.wavefunctions();
            for (lane, p) in params.iter().enumerate() {
                let scalar = sim.bind(p).unwrap().wavefunction();
                for (x, (&got, &want)) in wfs[lane].iter().zip(&scalar).enumerate() {
                    assert!(
                        bits_eq(got, want),
                        "k={k} lane {lane} amp {x}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_noisy_probabilities_match_scalar_bind_bit_for_bit() {
        let mut c = Circuit::new(2);
        c.rx(0, Param::symbol("a"))
            .depolarize(0, 0.05)
            .cnot(0, 1)
            .rz(1, Param::symbol("b"));
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let params = sweep_params(4);
        let batch = sim.bind_batch(&params).unwrap();
        let probs = batch.output_probabilities();
        for (lane, p) in params.iter().enumerate() {
            let scalar = sim.bind(p).unwrap().output_probabilities();
            for (x, (&got, &want)) in probs[lane].iter().zip(&scalar).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "lane {lane} P({x}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn batched_expectations_match_scalar_fold() {
        let mut c = Circuit::new(2);
        c.rx(0, Param::symbol("a")).cnot(0, 1);
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let params = sweep_params(3);
        let batch = sim.bind_batch(&params).unwrap();
        let obs = |bits: usize| bits as f64;
        let got = batch.expectations(&obs);
        for (lane, p) in params.iter().enumerate() {
            let want: f64 = sim
                .bind(p)
                .unwrap()
                .wavefunction()
                .iter()
                .map(|a| a.norm_sqr())
                .enumerate()
                .map(|(bits, p)| p * obs(bits))
                .sum();
            assert_eq!(got[lane].to_bits(), want.to_bits(), "lane {lane}");
        }
    }

    #[test]
    fn global_phase_factors_ride_per_lane() {
        // Rz on |0> is a pure global factor through unit resolution; each
        // lane must carry its own.
        let mut c = Circuit::new(1);
        c.rz(0, Param::symbol("t"));
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let params: Vec<ParamMap> = [0.8, -1.3]
            .iter()
            .map(|&t| ParamMap::from_pairs([("t", t)]))
            .collect();
        let batch = sim.bind_batch(&params).unwrap();
        let amps = batch.amplitude(0, &[]);
        assert!(amps[0].approx_eq(Complex::cis(-0.4), 1e-12));
        assert!(amps[1].approx_eq(Complex::cis(0.65), 1e-12));
    }

    #[test]
    fn empty_batch_binds_and_answers_empty() {
        let mut c = Circuit::new(1);
        c.h(0);
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let batch = sim.bind_batch(&[]).unwrap();
        assert_eq!(batch.lanes(), 0);
        assert!(batch.wavefunctions().is_empty());
        assert!(batch.output_probabilities().is_empty());
        assert!(batch.expectations(&|b| b as f64).is_empty());
    }

    #[test]
    fn unbound_symbol_in_any_lane_is_reported() {
        let mut c = Circuit::new(1);
        c.rx(0, Param::symbol("t"));
        let sim = KcSimulator::compile(&c, &KcOptions::default());
        let params = vec![
            ParamMap::from_pairs([("t", 0.4)]),
            ParamMap::new(), // missing t
        ];
        assert!(sim.bind_batch(&params).is_err());
    }
}

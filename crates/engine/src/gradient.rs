//! Engine-level gradient queries by shifted evaluations: the exact
//! parameter-shift rule, with central finite differences as the fallback.
//! The knowledge-compilation backend's primary gradient path does not come
//! through here (see below).
//!
//! A variational objective `E(θ) = ⟨obs⟩_{circuit(θ)}` restricted to one
//! rotation-like gate parameter is a low-degree trigonometric polynomial,
//! so its derivative is an *exact* linear combination of shifted objective
//! values — no step-size error, no cancellation (the parameter-shift rule).
//! When a symbol appears in `m` gates the polynomial degree grows to `m`
//! and the classic `θ ± π/2` two-point rule generalizes to `2m` shifted
//! evaluations (the general parameter-shift rule); this module computes
//! those shift offsets and coefficients per symbol by scanning the circuit,
//! so shared symbols — QAOA's one `gamma` across every edge, VQE's one
//! entangler angle per layer — still get exact gradients.
//!
//! The knowledge-compilation backend answers gradient queries with the
//! one-pass analytic
//! [`BoundKcTangents::expectation_gradient`](qkc_core::BoundKcTangents::expectation_gradient):
//! one differentials pass per basis state yields every symbol's derivative.
//! It takes the shift path of this module only when a `wrt` symbol sits in
//! a noise channel (noise symbols get finite differences there), or under
//! [`KcBackend::with_force_shift`](crate::KcBackend::with_force_shift).
//! Then every shifted binding is a lane of **one batched bind** against
//! the cached artifact: one batched bind and one Gray-ordered basis sweep
//! whose delta-aware batch kernel decodes each dirty tape slot once for
//! all lanes. Backends without a shift structure fall back to central
//! finite differences behind the same API, flagged
//! [`GradientResult::exact`] `= false`.

use qkc_circuit::{Circuit, Gate, Operation, ParamMap};

/// Step used by the central-finite-difference fallback (non-shiftable
/// symbols and non-compiled backends). Small enough that the `O(h²)`
/// truncation error sits well below optimizer tolerances, large enough
/// that exact-expectation differences do not cancel catastrophically.
pub const FD_STEP: f64 = 1e-6;

/// How a gradient query was evaluated — the primary mechanism behind the
/// whole result (individual components of a
/// [`ParameterShift`](GradientMethod::ParameterShift) query may still be
/// finite differences;
/// [`GradientResult::exact`] records that).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GradientMethod {
    /// One-pass analytic differentiation through the compiled tape:
    /// symbolic weight tangents are chain-ruled against the AC's
    /// per-literal partials, so every parameter's derivative comes from a
    /// single differentials pass per evidence assignment — O(1) tape
    /// evaluations regardless of parameter count. Always exact.
    Analytic,
    /// The parameter-shift rule: shifted bindings evaluated as lanes of one
    /// batched bind. Exact for gate symbols; noise-symbol components fall
    /// back to finite differences within the same query.
    ParameterShift,
    /// Central finite differences throughout (non-compiled backends).
    FiniteDifference,
}

impl GradientMethod {
    /// The static telemetry counter path of this method.
    pub(crate) fn counter_path(self) -> &'static str {
        match self {
            GradientMethod::Analytic => "gradient/method/analytic",
            GradientMethod::ParameterShift => "gradient/method/shift",
            GradientMethod::FiniteDifference => "gradient/method/fd",
        }
    }
}

impl std::fmt::Display for GradientMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GradientMethod::Analytic => "analytic",
            GradientMethod::ParameterShift => "shift",
            GradientMethod::FiniteDifference => "fd",
        })
    }
}

/// The value and gradient of one expectation query.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientResult {
    /// The objective value at the unshifted binding.
    pub value: f64,
    /// `∂⟨obs⟩/∂symbol` per differentiation target, in `wrt` order.
    pub gradient: Vec<f64>,
    /// Whether every component is exact: analytic differentiation, or the
    /// exact parameter-shift rule over exact expectations (`false` when
    /// any component used the finite-difference fallback).
    pub exact: bool,
    /// Expectation evaluations consumed: 1 for the analytic path
    /// (independent of parameter count), the unshifted value plus every
    /// shifted lane otherwise.
    pub evaluations: usize,
    /// The mechanism that produced this result.
    pub method: GradientMethod,
}

/// What a gradient sweep should compute for every parameter point.
pub struct GradientSpec<'a> {
    /// Diagonal observable whose expectation is differentiated.
    pub observable: &'a (dyn Fn(usize) -> f64 + Sync),
    /// Differentiation targets; `None` differentiates with respect to
    /// every symbol in the circuit, in sorted order.
    pub wrt: Option<Vec<String>>,
}

impl<'a> GradientSpec<'a> {
    /// A spec differentiating with respect to every circuit symbol.
    pub fn new(observable: &'a (dyn Fn(usize) -> f64 + Sync)) -> Self {
        Self {
            observable,
            wrt: None,
        }
    }

    /// Restricts differentiation to the given symbols.
    pub fn with_wrt(mut self, wrt: impl IntoIterator<Item = String>) -> Self {
        self.wrt = Some(wrt.into_iter().collect());
        self
    }
}

/// One point of a gradient sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientPoint {
    /// Position in the input parameter batch.
    pub index: usize,
    /// The objective value at this binding.
    pub value: f64,
    /// The gradient at this binding (spec `wrt` order).
    pub gradient: Vec<f64>,
    /// Whether value and gradient are exact (see [`GradientResult::exact`]).
    pub exact: bool,
    /// The mechanism that produced this point (see
    /// [`GradientResult::method`]).
    pub method: GradientMethod,
}

/// How one symbol's gradient component is evaluated.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SymbolRule {
    /// Exact parameter shift: evaluate `E(θ ± offset)` for every
    /// `(offset, coeff)` term and accumulate
    /// `Σ coeff · (E(θ+offset) − E(θ−offset))`.
    Shift(Vec<(f64, f64)>),
    /// Central finite difference with [`FD_STEP`] over an unbounded
    /// domain (rotation angles on non-compiled backends).
    CentralDiff,
    /// Central finite difference over the `[0, 1]` probability domain
    /// (symbols that parameterize noise channels, where the dependence is
    /// not trigonometric): probe points are clamped into the domain so a
    /// boundary binding (`p = 0` or `p = 1`) degrades to a one-sided
    /// difference instead of evaluating an invalid probability.
    CentralDiffProbability,
    /// The symbol does not appear in the circuit: the component is 0.
    Absent,
}

/// The contraction recipe of one gradient component, built alongside its
/// lanes: `pair_coeffs[j]` multiplies the difference of the `j`-th
/// `(plus, minus)` lane pair. Empty for absent symbols (component 0).
#[derive(Debug)]
pub(crate) struct ComponentPlan {
    pair_coeffs: Vec<f64>,
    exact: bool,
}

/// The exact shift rule for a trigonometric polynomial with integer
/// frequencies `≤ order`, as symmetric `±` pairs:
/// `E'(θ) = Σ_μ c_μ · (E(θ + x_μ) − E(θ − x_μ))` with
/// `x_μ = (2μ−1)π/(2·order)` and
/// `c_μ = (−1)^{μ+1} / (4·order·sin²(x_μ/2))` (the general parameter-shift
/// rule; for `order = 1` this is the classic
/// `[E(θ+π/2) − E(θ−π/2)] / 2`).
pub(crate) fn shift_rule(order: usize) -> Vec<(f64, f64)> {
    let r = order as f64;
    (1..=order)
        .map(|mu| {
            let x = (2 * mu - 1) as f64 * std::f64::consts::PI / (2.0 * r);
            let sign = if mu % 2 == 1 { 1.0 } else { -1.0 };
            let c = sign / (4.0 * r * (x / 2.0).sin().powi(2));
            (x, c)
        })
        .collect()
}

/// The shift rule for half-integer frequency steps (controlled rotations):
/// an integer-frequency polynomial of degree `≤ 2·order` in `u = θ/2`, so
/// the `u`-space rule applies with doubled offsets and halved
/// coefficients.
pub(crate) fn shift_rule_half_frequencies(order: usize) -> Vec<(f64, f64)> {
    shift_rule(2 * order)
        .into_iter()
        .map(|(x, c)| (2.0 * x, 0.5 * c))
        .collect()
}

/// The circuit-level classification of one differentiation target — the
/// cheap scan shared by the exact and finite-difference paths (the latter
/// needs only this, not the shift-rule coefficients).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SymbolClass {
    /// Not mentioned by the circuit.
    Absent,
    /// Parameterizes at least one noise channel (probability domain, not
    /// trigonometric).
    Noise,
    /// Mentioned only by gates: `occurrences` rotation-like gates, with
    /// `half_frequencies` when any is a controlled rotation.
    Gates {
        /// Gate occurrences (one unit of trigonometric degree each).
        occurrences: usize,
        /// Whether a `CRz` occurrence introduces half-integer frequencies.
        half_frequencies: bool,
    },
}

/// Classifies every `wrt` symbol with one scan of the circuit.
pub(crate) fn symbol_classes(circuit: &Circuit, wrt: &[String]) -> Vec<SymbolClass> {
    wrt.iter()
        .map(|symbol| {
            let mut occurrences = 0usize;
            let mut half_frequencies = false;
            let mut in_noise = false;
            for op in circuit.operations() {
                match op {
                    Operation::Gate { gate, .. } if gate.symbols().contains(&symbol.as_str()) => {
                        occurrences += 1;
                        if matches!(gate, Gate::CRz(_)) {
                            half_frequencies = true;
                        }
                    }
                    Operation::Noise { channel, .. }
                        if channel.symbols().contains(&symbol.as_str()) =>
                    {
                        in_noise = true;
                    }
                    _ => {}
                }
            }
            if in_noise {
                SymbolClass::Noise
            } else if occurrences == 0 {
                SymbolClass::Absent
            } else {
                SymbolClass::Gates {
                    occurrences,
                    half_frequencies,
                }
            }
        })
        .collect()
}

/// Builds the per-symbol evaluation rule: exact shift rules for gate
/// symbols (order = occurrence count; the doubled-offset rule when
/// controlled rotations introduce half-integer frequencies), the
/// probability-domain finite-difference fallback for noise symbols (noise
/// weights are polynomial — often `√p` — in the symbol, not
/// trigonometric, so no finite shift rule exists).
#[cfg(test)]
pub(crate) fn symbol_rules(circuit: &Circuit, wrt: &[String]) -> Vec<SymbolRule> {
    rules_from_classes(&symbol_classes(circuit, wrt))
}

/// The rule-building half of [`symbol_rules`], split out so callers that
/// cache the classification (the KC backend keys it by circuit structural
/// hash across sweep points) can skip the circuit scan.
pub(crate) fn rules_from_classes(classes: &[SymbolClass]) -> Vec<SymbolRule> {
    classes
        .iter()
        .map(|class| match class {
            SymbolClass::Noise => SymbolRule::CentralDiffProbability,
            SymbolClass::Absent => SymbolRule::Absent,
            SymbolClass::Gates {
                occurrences,
                half_frequencies: true,
            } => SymbolRule::Shift(shift_rule_half_frequencies(*occurrences)),
            SymbolClass::Gates { occurrences, .. } => SymbolRule::Shift(shift_rule(*occurrences)),
        })
        .collect()
}

/// The differentiation targets a `None` spec resolves to: every circuit
/// symbol, sorted.
pub(crate) fn default_wrt(circuit: &Circuit) -> Vec<String> {
    circuit.symbols().into_iter().collect()
}

/// Builds the shifted bindings of a gradient query and the matching
/// per-symbol contraction plans: lane 0 is `params` unshifted, followed
/// per symbol by its `(plus, minus)` lane pairs (parameter-shift offsets,
/// or the [`FD_STEP`] probe — clamped into `[0, 1]` for noise-probability
/// symbols, with the plan's coefficient carrying the actual probe
/// spread). Returns the name of the first `wrt` symbol the circuit
/// mentions that `params` leaves unbound.
pub(crate) fn shifted_bindings(
    params: &ParamMap,
    wrt: &[String],
    rules: &[SymbolRule],
) -> Result<(Vec<ParamMap>, Vec<ComponentPlan>), String> {
    let mut lanes = vec![params.clone()];
    let mut plans = Vec::with_capacity(rules.len());
    for (symbol, rule) in wrt.iter().zip(rules) {
        if matches!(rule, SymbolRule::Absent) {
            plans.push(ComponentPlan {
                pair_coeffs: Vec::new(),
                exact: true,
            });
            continue;
        }
        let base = params.get(symbol).ok_or_else(|| symbol.clone())?;
        let mut push_pair = |hi: f64, lo: f64| {
            for v in [hi, lo] {
                let mut shifted = params.clone();
                shifted.bind(symbol, v);
                lanes.push(shifted);
            }
        };
        let plan = match rule {
            SymbolRule::Shift(terms) => {
                for &(x, _) in terms {
                    push_pair(base + x, base - x);
                }
                ComponentPlan {
                    pair_coeffs: terms.iter().map(|&(_, c)| c).collect(),
                    exact: true,
                }
            }
            SymbolRule::CentralDiff => {
                let (hi, lo) = (base + FD_STEP, base - FD_STEP);
                push_pair(hi, lo);
                ComponentPlan {
                    pair_coeffs: vec![1.0 / (hi - lo)],
                    exact: false,
                }
            }
            SymbolRule::CentralDiffProbability => {
                // Clamp the probes into the probability domain: at a
                // boundary binding this becomes a one-sided difference
                // over the actual (smaller) spread.
                let hi = (base + FD_STEP).min(1.0);
                let lo = (base - FD_STEP).max(0.0);
                push_pair(hi, lo);
                ComponentPlan {
                    pair_coeffs: vec![if hi > lo { 1.0 / (hi - lo) } else { 0.0 }],
                    exact: false,
                }
            }
            SymbolRule::Absent => unreachable!("handled above"),
        };
        plans.push(plan);
    }
    Ok((lanes, plans))
}

/// Contracts the shifted lane values back into a gradient: lane 0 is the
/// unshifted value; each symbol consumes its plan's `(plus, minus)` pairs
/// in order.
pub(crate) fn contract_gradient(values: &[f64], plans: &[ComponentPlan]) -> (f64, Vec<f64>, bool) {
    let value = values[0];
    let mut cursor = 1usize;
    let mut exact = true;
    let gradient = plans
        .iter()
        .map(|plan| {
            exact &= plan.exact;
            let mut g = 0.0;
            for &c in &plan.pair_coeffs {
                g += c * (values[cursor] - values[cursor + 1]);
                cursor += 2;
            }
            g
        })
        .collect();
    (value, gradient, exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkc_circuit::Param;

    /// Evaluates a synthetic trig polynomial and its analytic derivative.
    fn trig_poly(theta: f64, coeffs: &[(f64, f64)]) -> (f64, f64) {
        let mut v = 0.7;
        let mut d = 0.0;
        for (k, &(a, b)) in coeffs.iter().enumerate() {
            let f = (k + 1) as f64;
            v += a * (f * theta).cos() + b * (f * theta).sin();
            d += -a * f * (f * theta).sin() + b * f * (f * theta).cos();
        }
        (v, d)
    }

    #[test]
    fn shift_rule_is_exact_on_trig_polynomials() {
        // The order-m rule must reproduce the analytic derivative of any
        // integer-frequency polynomial of degree ≤ m, at machine precision.
        let coeffs = [(0.8, -0.3), (-0.45, 0.2), (0.1, 0.55), (-0.2, -0.15)];
        for order in 1..=coeffs.len() {
            let rule = shift_rule(order);
            assert_eq!(rule.len(), order);
            for &theta in &[0.0, 0.3, -1.2, 2.9] {
                let (_, want) = trig_poly(theta, &coeffs[..order]);
                let got: f64 = rule
                    .iter()
                    .map(|&(x, c)| {
                        c * (trig_poly(theta + x, &coeffs[..order]).0
                            - trig_poly(theta - x, &coeffs[..order]).0)
                    })
                    .sum();
                assert!(
                    (got - want).abs() < 1e-10,
                    "order {order} theta {theta}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn order_one_rule_is_the_classic_half_shift() {
        let rule = shift_rule(1);
        assert_eq!(rule.len(), 1);
        let (x, c) = rule[0];
        assert!((x - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
        assert!((c - 0.5).abs() < 1e-15);
    }

    #[test]
    fn half_frequency_rule_is_exact_on_half_integer_polynomials() {
        // Frequencies {1/2, 1}: the controlled-rotation spectrum.
        let f = |theta: f64| 0.2 + 0.6 * (theta / 2.0).cos() - 0.3 * theta.sin();
        let fd = |theta: f64| -0.3 * (theta / 2.0).sin() - 0.3 * theta.cos();
        let rule = shift_rule_half_frequencies(1);
        assert_eq!(rule.len(), 2);
        for &theta in &[0.0, 0.7, -2.1] {
            let got: f64 = rule
                .iter()
                .map(|&(x, c)| c * (f(theta + x) - f(theta - x)))
                .sum();
            assert!((got - fd(theta)).abs() < 1e-10, "theta {theta}");
        }
    }

    #[test]
    fn symbol_rules_count_occurrences_and_detect_noise() {
        let mut c = Circuit::new(3);
        c.rx(0, Param::symbol("a"))
            .zz(0, 1, Param::symbol("g"))
            .zz(1, 2, Param::symbol("g"))
            .crz(0, 1, Param::symbol("h"))
            .noise(
                qkc_circuit::NoiseChannel::BitFlip {
                    p: Param::symbol("p"),
                },
                2,
            );
        let wrt: Vec<String> = ["a", "g", "h", "p", "zz"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let rules = symbol_rules(&c, &wrt);
        assert_eq!(rules[0], SymbolRule::Shift(shift_rule(1)));
        assert_eq!(rules[1], SymbolRule::Shift(shift_rule(2)), "g occurs twice");
        assert_eq!(rules[2], SymbolRule::Shift(shift_rule_half_frequencies(1)));
        assert_eq!(rules[3], SymbolRule::CentralDiffProbability);
        assert_eq!(rules[4], SymbolRule::Absent);
    }

    #[test]
    fn shifted_bindings_and_contraction_round_trip() {
        let mut c = Circuit::new(2);
        c.rx(0, Param::symbol("a")).zz(0, 1, Param::symbol("b"));
        let wrt = vec!["a".to_string(), "b".to_string()];
        let rules = symbol_rules(&c, &wrt);
        let params = ParamMap::from_pairs([("a", 0.3), ("b", 1.1)]);
        let (lanes, plans) = shifted_bindings(&params, &wrt, &rules).unwrap();
        assert_eq!(lanes.len(), 5, "base + 2 per single-occurrence symbol");
        assert_eq!(lanes[0].get("a"), Some(0.3));
        assert!((lanes[1].get("a").unwrap() - (0.3 + std::f64::consts::FRAC_PI_2)).abs() < 1e-15);
        assert!((lanes[2].get("a").unwrap() - (0.3 - std::f64::consts::FRAC_PI_2)).abs() < 1e-15);
        assert_eq!(lanes[1].get("b"), Some(1.1), "other symbols unshifted");
        // Contract a synthetic value vector: value 2.0, dE/da from lanes
        // 1-2, dE/db from lanes 3-4.
        let (value, gradient, exact) = contract_gradient(&[2.0, 1.5, 0.5, 3.0, 1.0], &plans);
        assert_eq!(value, 2.0);
        assert!((gradient[0] - 0.5).abs() < 1e-15);
        assert!((gradient[1] - 1.0).abs() < 1e-15);
        assert!(exact);
    }

    #[test]
    fn probability_probes_are_clamped_at_the_boundary() {
        // A noise symbol bound at p = 0 (valid "no noise") must probe
        // [0, FD_STEP], not a negative probability; same at p = 1.
        let mut c = Circuit::new(1);
        c.h(0).noise(
            qkc_circuit::NoiseChannel::BitFlip {
                p: Param::symbol("p"),
            },
            0,
        );
        let wrt = vec!["p".to_string()];
        let rules = symbol_rules(&c, &wrt);
        assert_eq!(rules[0], SymbolRule::CentralDiffProbability);
        for (base, hi, lo) in [
            (0.0, FD_STEP, 0.0),
            (1.0, 1.0, 1.0 - FD_STEP),
            (0.5, 0.5 + FD_STEP, 0.5 - FD_STEP),
        ] {
            let params = ParamMap::from_pairs([("p", base)]);
            let (lanes, plans) = shifted_bindings(&params, &wrt, &rules).unwrap();
            assert_eq!(lanes.len(), 3);
            assert!(
                (lanes[1].get("p").unwrap() - hi).abs() < 1e-18,
                "base {base}"
            );
            assert!(
                (lanes[2].get("p").unwrap() - lo).abs() < 1e-18,
                "base {base}"
            );
            // The coefficient carries the actual (possibly one-sided)
            // spread: contraction of a linear function recovers slope 1.
            let (_, gradient, exact) = contract_gradient(&[base, hi, lo], &plans);
            assert!((gradient[0] - 1.0).abs() < 1e-9, "base {base}");
            assert!(!exact);
        }
    }

    #[test]
    fn unbound_wrt_symbol_is_reported() {
        let mut c = Circuit::new(1);
        c.rx(0, Param::symbol("a"));
        let wrt = vec!["a".to_string()];
        let rules = symbol_rules(&c, &wrt);
        let err = shifted_bindings(&ParamMap::new(), &wrt, &rules).unwrap_err();
        assert_eq!(err, "a");
    }
}

//! Quantum noise models: mixtures and channels (paper Table 1).
//!
//! Every canonical model is expressed through its Kraus operators
//! `{E_k}` with `Σ_k E_k† E_k = I`. *Mixtures* (bit flip, phase flip,
//! depolarizing) have Kraus operators that are scaled unitaries
//! `√p_k · U_k` and can be simulated as probabilistic ensembles of state
//! vectors; *channels* (amplitude damping, phase damping, generalized
//! amplitude damping) cannot, and classically require the density-matrix
//! representation — or, in this toolchain, the Bayesian-network noise-RV
//! encoding of §3.1.2 where each Kraus index becomes a spurious-measurement
//! random variable.

use crate::param::{Param, ParamMap, UnboundParam};
use qkc_math::{CMatrix, Complex, C_ONE, C_ZERO};
use std::fmt;

/// A single-qubit noise model attached to a circuit location.
///
/// # Examples
///
/// ```
/// use qkc_circuit::{NoiseChannel, ParamMap};
///
/// let pd = NoiseChannel::phase_damping(0.36);
/// let kraus = pd.kraus(&ParamMap::new()).unwrap();
/// assert_eq!(kraus.len(), 2);
/// // E1 = [[0, 0], [0, sqrt(0.36)]]
/// assert!((kraus[1][(1, 1)].re - 0.6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseChannel {
    /// Pauli-X applied with probability `p` (a mixture).
    BitFlip {
        /// Probability of the flip.
        p: Param,
    },
    /// Pauli-Z applied with probability `p` (a mixture).
    PhaseFlip {
        /// Probability of the flip.
        p: Param,
    },
    /// Symmetric depolarizing: one of X, Y, Z each with probability `p/3`
    /// (a mixture). This is the noise model used in the paper's Figure 9
    /// benchmarks with `p = 0.5%` after each gate.
    Depolarizing {
        /// Total probability that any Pauli error occurs.
        p: Param,
    },
    /// Asymmetric depolarizing with independent X/Y/Z probabilities
    /// (a mixture).
    AsymmetricDepolarizing {
        /// Probability of a Pauli-X error.
        px: Param,
        /// Probability of a Pauli-Y error.
        py: Param,
        /// Probability of a Pauli-Z error.
        pz: Param,
    },
    /// Amplitude damping with decay probability `gamma` (a channel;
    /// models T1 relaxation).
    AmplitudeDamping {
        /// Probability of decay |1⟩ → |0⟩.
        gamma: Param,
    },
    /// Generalized amplitude damping toward a thermal state (a channel).
    GeneralizedAmplitudeDamping {
        /// Probability of coupling to the |0⟩-pulling environment.
        p: Param,
        /// Decay probability.
        gamma: Param,
    },
    /// Phase damping with probability `gamma` (a channel; models T2
    /// dephasing). This is the noise model in the paper's running Bell-state
    /// example (Figure 2, γ = 0.36).
    PhaseDamping {
        /// Probability that the environment learns the qubit's phase.
        gamma: Param,
    },
}

impl NoiseChannel {
    /// Bit-flip mixture with constant probability.
    pub fn bit_flip(p: f64) -> Self {
        NoiseChannel::BitFlip { p: Param::from(p) }
    }

    /// Phase-flip mixture with constant probability.
    pub fn phase_flip(p: f64) -> Self {
        NoiseChannel::PhaseFlip { p: Param::from(p) }
    }

    /// Symmetric depolarizing mixture with constant probability.
    pub fn depolarizing(p: f64) -> Self {
        NoiseChannel::Depolarizing { p: Param::from(p) }
    }

    /// Asymmetric depolarizing mixture with constant probabilities.
    pub fn asymmetric_depolarizing(px: f64, py: f64, pz: f64) -> Self {
        NoiseChannel::AsymmetricDepolarizing {
            px: Param::from(px),
            py: Param::from(py),
            pz: Param::from(pz),
        }
    }

    /// Amplitude-damping channel with constant decay probability.
    pub fn amplitude_damping(gamma: f64) -> Self {
        NoiseChannel::AmplitudeDamping {
            gamma: Param::from(gamma),
        }
    }

    /// Generalized amplitude damping with constant parameters.
    pub fn generalized_amplitude_damping(p: f64, gamma: f64) -> Self {
        NoiseChannel::GeneralizedAmplitudeDamping {
            p: Param::from(p),
            gamma: Param::from(gamma),
        }
    }

    /// Phase-damping channel with constant probability.
    pub fn phase_damping(gamma: f64) -> Self {
        NoiseChannel::PhaseDamping {
            gamma: Param::from(gamma),
        }
    }

    /// Returns `true` if this model is a *mixture* — an ensemble of scaled
    /// unitaries, simulable by state-vector trajectories without density
    /// matrices (Table 1, left column).
    pub fn is_mixture(&self) -> bool {
        matches!(
            self,
            NoiseChannel::BitFlip { .. }
                | NoiseChannel::PhaseFlip { .. }
                | NoiseChannel::Depolarizing { .. }
                | NoiseChannel::AsymmetricDepolarizing { .. }
        )
    }

    /// Number of Kraus operators (noise branches).
    pub fn num_branches(&self) -> usize {
        match self {
            NoiseChannel::BitFlip { .. }
            | NoiseChannel::PhaseFlip { .. }
            | NoiseChannel::AmplitudeDamping { .. }
            | NoiseChannel::PhaseDamping { .. } => 2,
            NoiseChannel::Depolarizing { .. }
            | NoiseChannel::AsymmetricDepolarizing { .. }
            | NoiseChannel::GeneralizedAmplitudeDamping { .. } => 4,
        }
    }

    /// The model's probability parameters, constant or symbolic, in field
    /// order. Each must resolve into `[0, 1]`.
    pub fn params(&self) -> Vec<&Param> {
        match self {
            NoiseChannel::BitFlip { p }
            | NoiseChannel::PhaseFlip { p }
            | NoiseChannel::Depolarizing { p } => vec![p],
            NoiseChannel::AsymmetricDepolarizing { px, py, pz } => vec![px, py, pz],
            NoiseChannel::AmplitudeDamping { gamma } | NoiseChannel::PhaseDamping { gamma } => {
                vec![gamma]
            }
            NoiseChannel::GeneralizedAmplitudeDamping { p, gamma } => vec![p, gamma],
        }
    }

    /// The symbolic parameters mentioned by this model.
    pub fn symbols(&self) -> Vec<&str> {
        self.params()
            .into_iter()
            .filter_map(Param::symbol_name)
            .collect()
    }

    /// The Kraus operators `{E_k}` of this model.
    ///
    /// # Errors
    ///
    /// Returns an error if a symbolic parameter is unbound, and panics if a
    /// resolved probability lies outside `[0, 1]`.
    pub fn kraus(&self, params: &ParamMap) -> Result<Vec<CMatrix>, UnboundParam> {
        let prob = |p: &Param| -> Result<f64, UnboundParam> {
            let v = p.resolve(params)?;
            assert!(
                (0.0..=1.0).contains(&v),
                "noise probability {v} outside [0, 1] in {self}"
            );
            Ok(v)
        };
        let paulis = |ws: [f64; 4]| -> Vec<CMatrix> {
            let i = CMatrix::identity(2);
            let x = CMatrix::from_rows(2, 2, vec![C_ZERO, C_ONE, C_ONE, C_ZERO]);
            let y = CMatrix::from_rows(
                2,
                2,
                vec![C_ZERO, Complex::imag(-1.0), Complex::imag(1.0), C_ZERO],
            );
            let z = CMatrix::from_rows(2, 2, vec![C_ONE, C_ZERO, C_ZERO, -C_ONE]);
            [i, x, y, z]
                .into_iter()
                .zip(ws)
                .map(|(m, w)| m.scale(Complex::real(w.sqrt())))
                .collect()
        };
        Ok(match self {
            NoiseChannel::BitFlip { p } => {
                let p = prob(p)?;
                let ops = paulis([1.0 - p, p, 0.0, 0.0]);
                vec![ops[0].clone(), ops[1].clone()]
            }
            NoiseChannel::PhaseFlip { p } => {
                let p = prob(p)?;
                let ops = paulis([1.0 - p, 0.0, 0.0, p]);
                vec![ops[0].clone(), ops[3].clone()]
            }
            NoiseChannel::Depolarizing { p } => {
                let p = prob(p)?;
                paulis([1.0 - p, p / 3.0, p / 3.0, p / 3.0])
            }
            NoiseChannel::AsymmetricDepolarizing { px, py, pz } => {
                let (px, py, pz) = (prob(px)?, prob(py)?, prob(pz)?);
                assert!(
                    px + py + pz <= 1.0 + 1e-12,
                    "asymmetric depolarizing probabilities sum past 1"
                );
                paulis([1.0 - px - py - pz, px, py, pz])
            }
            NoiseChannel::AmplitudeDamping { gamma } => {
                let g = prob(gamma)?;
                vec![
                    CMatrix::from_rows(
                        2,
                        2,
                        vec![C_ONE, C_ZERO, C_ZERO, Complex::real((1.0 - g).sqrt())],
                    ),
                    CMatrix::from_rows(2, 2, vec![C_ZERO, Complex::real(g.sqrt()), C_ZERO, C_ZERO]),
                ]
            }
            NoiseChannel::GeneralizedAmplitudeDamping { p, gamma } => {
                let (p, g) = (prob(p)?, prob(gamma)?);
                let sp = p.sqrt();
                let sq = (1.0 - p).sqrt();
                vec![
                    CMatrix::from_rows(
                        2,
                        2,
                        vec![C_ONE, C_ZERO, C_ZERO, Complex::real((1.0 - g).sqrt())],
                    )
                    .scale(Complex::real(sp)),
                    CMatrix::from_rows(2, 2, vec![C_ZERO, Complex::real(g.sqrt()), C_ZERO, C_ZERO])
                        .scale(Complex::real(sp)),
                    CMatrix::from_rows(
                        2,
                        2,
                        vec![Complex::real((1.0 - g).sqrt()), C_ZERO, C_ZERO, C_ONE],
                    )
                    .scale(Complex::real(sq)),
                    CMatrix::from_rows(2, 2, vec![C_ZERO, C_ZERO, Complex::real(g.sqrt()), C_ZERO])
                        .scale(Complex::real(sq)),
                ]
            }
            NoiseChannel::PhaseDamping { gamma } => {
                let g = prob(gamma)?;
                vec![
                    CMatrix::from_rows(
                        2,
                        2,
                        vec![C_ONE, C_ZERO, C_ZERO, Complex::real((1.0 - g).sqrt())],
                    ),
                    CMatrix::from_rows(2, 2, vec![C_ZERO, C_ZERO, C_ZERO, Complex::real(g.sqrt())]),
                ]
            }
        })
    }

    /// For mixtures only: the branch probabilities and unitaries
    /// `(p_k, U_k)` such that `E_k = √p_k · U_k`.
    ///
    /// # Errors
    ///
    /// Returns an error if a symbolic parameter is unbound.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-mixture channel.
    pub fn mixture(&self, params: &ParamMap) -> Result<Vec<(f64, CMatrix)>, UnboundParam> {
        assert!(self.is_mixture(), "{self} is not a unitary mixture");
        let kraus = self.kraus(params)?;
        Ok(kraus
            .into_iter()
            .map(|e| {
                // For mixtures each Kraus operator is √p·U; recover p from
                // the squared Frobenius norm divided by the dimension.
                let p = e.frobenius_norm().powi(2) / e.rows() as f64;
                let u = if p > 0.0 {
                    e.scale(Complex::real(1.0 / p.sqrt()))
                } else {
                    CMatrix::identity(e.rows())
                };
                (p, u)
            })
            .collect())
    }
}

impl fmt::Display for NoiseChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoiseChannel::BitFlip { p } => write!(f, "BitFlip({p})"),
            NoiseChannel::PhaseFlip { p } => write!(f, "PhaseFlip({p})"),
            NoiseChannel::Depolarizing { p } => write!(f, "Depol({p})"),
            NoiseChannel::AsymmetricDepolarizing { px, py, pz } => {
                write!(f, "AsymDepol({px},{py},{pz})")
            }
            NoiseChannel::AmplitudeDamping { gamma } => write!(f, "AD({gamma})"),
            NoiseChannel::GeneralizedAmplitudeDamping { p, gamma } => {
                write!(f, "GAD({p},{gamma})")
            }
            NoiseChannel::PhaseDamping { gamma } => write!(f, "PD({gamma})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn all_channels(p: f64) -> Vec<NoiseChannel> {
        vec![
            NoiseChannel::bit_flip(p),
            NoiseChannel::phase_flip(p),
            NoiseChannel::depolarizing(p),
            NoiseChannel::asymmetric_depolarizing(p / 2.0, p / 4.0, p / 4.0),
            NoiseChannel::amplitude_damping(p),
            NoiseChannel::generalized_amplitude_damping(0.3, p),
            NoiseChannel::phase_damping(p),
        ]
    }

    /// Σ E_k† E_k = I — the trace-preservation condition.
    fn completeness(ch: &NoiseChannel) -> bool {
        let kraus = ch.kraus(&ParamMap::new()).unwrap();
        let mut acc = CMatrix::zeros(2, 2);
        for e in &kraus {
            acc = &acc + &(&e.adjoint() * e);
        }
        acc.approx_eq(&CMatrix::identity(2), 1e-12)
    }

    #[test]
    fn all_channels_are_trace_preserving() {
        for p in [0.0, 0.005, 0.36, 1.0] {
            for ch in all_channels(p) {
                assert!(completeness(&ch), "{ch} at p={p} violates completeness");
            }
        }
    }

    #[test]
    fn mixture_classification_matches_table_1() {
        assert!(NoiseChannel::bit_flip(0.1).is_mixture());
        assert!(NoiseChannel::phase_flip(0.1).is_mixture());
        assert!(NoiseChannel::depolarizing(0.1).is_mixture());
        assert!(!NoiseChannel::amplitude_damping(0.1).is_mixture());
        assert!(!NoiseChannel::phase_damping(0.1).is_mixture());
        assert!(!NoiseChannel::generalized_amplitude_damping(0.2, 0.1).is_mixture());
    }

    #[test]
    fn phase_damping_matches_paper_example() {
        // γ = 0.36 from Figure 2: E0 = diag(1, 0.8), E1 = diag(0, 0.6).
        let kraus = NoiseChannel::phase_damping(0.36)
            .kraus(&ParamMap::new())
            .unwrap();
        assert!(kraus[0][(1, 1)].approx_eq(Complex::real(0.8), 1e-12));
        assert!(kraus[1][(1, 1)].approx_eq(Complex::real(0.6), 1e-12));
        assert!(kraus[1][(0, 0)].approx_eq(C_ZERO, 1e-12));
    }

    #[test]
    fn mixture_recovers_probabilities_and_unitaries() {
        let mix = NoiseChannel::depolarizing(0.3)
            .mixture(&ParamMap::new())
            .unwrap();
        let probs: Vec<f64> = mix.iter().map(|(p, _)| *p).collect();
        assert!((probs[0] - 0.7).abs() < 1e-12);
        for p in &probs[1..] {
            assert!((p - 0.1).abs() < 1e-12);
        }
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for (_, u) in &mix {
            assert!(u.is_unitary(1e-12));
        }
    }

    #[test]
    fn symbolic_noise_strength_resolves() {
        let ch = NoiseChannel::PhaseDamping {
            gamma: Param::symbol("g"),
        };
        assert_eq!(ch.symbols(), vec!["g"]);
        assert!(ch.kraus(&ParamMap::new()).is_err());
        let mut m = ParamMap::new();
        m.bind("g", 0.36);
        let kraus = ch.kraus(&m).unwrap();
        assert!(kraus[0][(1, 1)].approx_eq(Complex::real(0.8), 1e-12));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_probability_panics() {
        let _ = NoiseChannel::bit_flip(1.5).kraus(&ParamMap::new());
    }

    #[test]
    fn branch_counts() {
        assert_eq!(NoiseChannel::bit_flip(0.1).num_branches(), 2);
        assert_eq!(NoiseChannel::depolarizing(0.1).num_branches(), 4);
        assert_eq!(
            NoiseChannel::generalized_amplitude_damping(0.2, 0.1).num_branches(),
            4
        );
        for ch in all_channels(0.25) {
            assert_eq!(
                ch.kraus(&ParamMap::new()).unwrap().len(),
                ch.num_branches(),
                "{ch}"
            );
        }
    }

    proptest! {
        #[test]
        fn completeness_holds_for_random_strengths(p in 0.0..1.0f64) {
            for ch in all_channels(p) {
                prop_assert!(completeness(&ch));
            }
        }
    }
}

//! Algorithm-suite correctness *through the knowledge-compilation
//! pipeline*: the paper validates its simulator backend on this exact suite
//! (artifact appendix A.6.1).

use qkc::circuit::ParamMap;
use qkc::kc::KcSimulator;
use qkc::knowledge::GibbsOptions;
use qkc::workloads::algorithms::{
    bernstein_vazirani_circuit, deutsch_jozsa_circuit, grover_circuit, hidden_shift_circuit,
    noisy_bell_circuit, simon_circuit, teleportation_circuit, DjOracle,
};

fn kc_probabilities(circuit: &qkc::circuit::Circuit) -> Vec<f64> {
    let sim = KcSimulator::compile(circuit, &Default::default());
    sim.bind(&ParamMap::new())
        .expect("bind")
        .output_probabilities()
}

#[test]
fn deutsch_jozsa_constant_vs_balanced_via_kc() {
    let n = 3;
    let constant = kc_probabilities(&deutsch_jozsa_circuit(n, DjOracle::Constant { bit: true }));
    // Input register all-zeros with certainty (ancilla traced out).
    let p0: f64 = constant[0] + constant[1];
    assert!((p0 - 1.0).abs() < 1e-9);

    let balanced = kc_probabilities(&deutsch_jozsa_circuit(
        n,
        DjOracle::BalancedParity { mask: 0b101 },
    ));
    let p0: f64 = balanced[0] + balanced[1];
    assert!(p0 < 1e-9);
}

#[test]
fn bernstein_vazirani_recovers_secret_via_kc_sampling() {
    let n = 4;
    let secret = 0b1011;
    let sim = KcSimulator::compile(&bernstein_vazirani_circuit(n, secret), &Default::default());
    let bound = sim.bind(&ParamMap::new()).expect("bind");
    let mut sampler = bound.sampler(&GibbsOptions {
        warmup: 100,
        seed: 3,
        ..Default::default()
    });
    for outcome in sampler.sample_outputs(50, 1) {
        // Drop the ancilla bit (last qubit).
        assert_eq!(outcome >> 1, secret, "every sample reads the secret");
    }
}

/// Every seed's chain reads the secret. Of the 32 output states only the
/// secret's two (ancilla 0 and 1) have nonzero amplitude, and a
/// magnitude-weighted model draw can land on a cancelled one on every
/// redraw. The chain must then still find the support before warm-up,
/// because from a density-0 state every coordinate column is zero.
#[test]
fn bernstein_vazirani_sampling_reads_the_secret_from_every_seed() {
    let n = 4;
    let secret = 0b1011;
    let sim = KcSimulator::compile(&bernstein_vazirani_circuit(n, secret), &Default::default());
    let bound = sim.bind(&ParamMap::new()).expect("bind");
    for seed in 0..200 {
        let mut sampler = bound.sampler(&GibbsOptions {
            warmup: 100,
            seed,
            ..Default::default()
        });
        for outcome in sampler.sample_outputs(50, 1) {
            assert_eq!(
                outcome >> 1,
                secret,
                "seed {seed}: every sample reads the secret"
            );
        }
    }
}

#[test]
fn hidden_shift_recovers_shift_via_kc() {
    let shift = 0b0110;
    let probs = kc_probabilities(&hidden_shift_circuit(2, shift));
    assert!((probs[shift] - 1.0).abs() < 1e-9);
}

#[test]
fn simon_outputs_orthogonal_to_secret_via_kc() {
    let n = 2;
    let secret = 0b11;
    let probs = kc_probabilities(&simon_circuit(n, secret));
    for (state, &p) in probs.iter().enumerate() {
        if p > 1e-12 {
            let x = state >> n;
            assert_eq!((x & secret).count_ones() % 2, 0, "state {state:b}");
        }
    }
}

#[test]
fn grover_amplifies_marked_state_via_kc() {
    let probs = kc_probabilities(&grover_circuit(3, &[6]));
    assert!(probs[6] > 0.75, "marked-state probability {}", probs[6]);
}

#[test]
fn teleportation_density_matrix_via_kc() {
    let theta = 1.1;
    let sim = KcSimulator::compile(&teleportation_circuit(theta), &Default::default());
    let rho = sim.bind(&ParamMap::new()).expect("bind").density_matrix();
    // Bob's qubit (qubit 2) carries Ry(theta)|0>.
    let p1: f64 = (0..8).filter(|s| s & 1 == 1).map(|s| rho[(s, s)].re).sum();
    assert!((p1 - (theta / 2.0_f64).sin().powi(2)).abs() < 1e-9);
}

#[test]
fn noisy_bell_matches_paper_table_5() {
    // The running example, end to end: amplitudes of Table 5 (up to the
    // Kraus branch phase gauge).
    let sim = KcSimulator::compile(&noisy_bell_circuit(0.36), &Default::default());
    let bound = sim.bind(&ParamMap::new()).expect("bind");
    let s = std::f64::consts::FRAC_1_SQRT_2;
    assert!((bound.amplitude(0b00, &[0]).norm() - s).abs() < 1e-12);
    assert!(bound.amplitude(0b01, &[0]).norm() < 1e-12);
    assert!(bound.amplitude(0b10, &[0]).norm() < 1e-12);
    assert!((bound.amplitude(0b11, &[0]).norm() - 0.8 * s).abs() < 1e-12);
    assert!(bound.amplitude(0b00, &[1]).norm() < 1e-12);
    assert!((bound.amplitude(0b11, &[1]).norm() - 0.6 * s).abs() < 1e-12);
}

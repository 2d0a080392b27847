//! Full-stack regression tests for the flat-tape port: every query the
//! stack answers on the compiled tape (with delta evaluation and
//! Gray-ordered basis sweeps) must stay **bit-for-bit** equal to the
//! enum-walk reference path — on random pure and noisy circuits, through
//! Gibbs sampling, and through a complete `SweepExecutor` run.

use proptest::prelude::*;
use qkc::circuit::{Circuit, NoiseChannel, Param, ParamMap};
use qkc::engine::{Engine, EngineOptions, SweepSpec};
use qkc::kc::KcSimulator;
use qkc::knowledge::{GibbsOptions, Nnf};
use qkc::math::Complex;

/// A random parameterized circuit instruction; rotation angles reference
/// one of two symbols so every circuit stays re-bindable.
#[derive(Debug, Clone)]
enum Instr {
    H(usize),
    T(usize),
    RxA(usize),
    RyB(usize),
    RzA(usize),
    Cnot(usize, usize),
    Cz(usize, usize),
    ZzB(usize, usize),
}

fn arb_instr(n: usize) -> impl Strategy<Value = Instr> {
    let q = 0..n;
    let q2 = 0..n;
    (0usize..8, q, q2).prop_map(move |(kind, a, b)| {
        let b = if a == b { (b + 1) % n } else { b };
        match kind {
            0 => Instr::H(a),
            1 => Instr::T(a),
            2 => Instr::RxA(a),
            3 => Instr::RyB(a),
            4 => Instr::RzA(a),
            5 => Instr::Cnot(a, b),
            6 => Instr::Cz(a, b),
            _ => Instr::ZzB(a, b),
        }
    })
}

fn build(n: usize, instrs: &[Instr]) -> Circuit {
    let mut c = Circuit::new(n);
    for i in instrs {
        match *i {
            Instr::H(a) => c.h(a),
            Instr::T(a) => c.t(a),
            Instr::RxA(a) => c.rx(a, Param::symbol("a")),
            Instr::RyB(a) => c.ry(a, Param::symbol("b")),
            Instr::RzA(a) => c.rz(a, Param::symbol("a")),
            Instr::Cnot(a, b) => c.cnot(a, b),
            Instr::Cz(a, b) => c.cz(a, b),
            Instr::ZzB(a, b) => c.zz(a, b, Param::symbol("b")),
        };
    }
    c
}

fn params(a: f64, b: f64) -> ParamMap {
    ParamMap::from_pairs([("a", a), ("b", b)])
}

fn bits_eq(x: Complex, y: Complex) -> bool {
    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
}

/// The enum-walk wavefunction: one walk of `nnf` (the arena
/// `compile_with_nnf` returned beside `sim`) per basis state, via the
/// reference amplitude path (`amplitude_assignment_enum_walk`).
fn enum_walk_wavefunction(sim: &KcSimulator, nnf: &Nnf, p: &ParamMap) -> Vec<Complex> {
    let bound = sim.bind(p).unwrap();
    let n = sim.num_outputs();
    let mut values = vec![0usize; sim.query().len()];
    (0..1usize << n)
        .map(|x| {
            for (i, v) in values[..n].iter_mut().enumerate() {
                *v = (x >> (n - 1 - i)) & 1;
            }
            bound.amplitude_assignment_enum_walk(nnf, &values)
        })
        .collect()
}

/// The enum-walk output distribution: random events enumerated in the
/// stack's odometer order, so per-`x` accumulation order matches
/// `output_probabilities` exactly.
fn enum_walk_probabilities(sim: &KcSimulator, nnf: &Nnf, p: &ParamMap) -> Vec<f64> {
    let bound = sim.bind(p).unwrap();
    let n = sim.num_outputs();
    let rv_domains: Vec<usize> = sim.query()[n..].iter().map(|s| s.domain).collect();
    let mut probs = vec![0.0; 1usize << n];
    let mut values = vec![0usize; sim.query().len()];
    let mut rvs = vec![0usize; rv_domains.len()];
    loop {
        values[n..].copy_from_slice(&rvs);
        for (x, p) in probs.iter_mut().enumerate() {
            for (i, v) in values[..n].iter_mut().enumerate() {
                *v = (x >> (n - 1 - i)) & 1;
            }
            *p += bound
                .amplitude_assignment_enum_walk(nnf, &values)
                .norm_sqr();
        }
        let mut i = 0;
        loop {
            if i == rv_domains.len() {
                return probs;
            }
            rvs[i] += 1;
            if rvs[i] < rv_domains[i] {
                break;
            }
            rvs[i] = 0;
            i += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tape-backed wavefunctions (delta kernel, Gray-ordered sweep) equal
    /// the enum-walk reconstruction bit for bit on random pure circuits.
    #[test]
    fn wavefunction_matches_enum_walk(
        instrs in proptest::collection::vec(arb_instr(3), 1..12),
        a in -3.0..3.0f64,
        b in -3.0..3.0f64,
    ) {
        let c = build(3, &instrs);
        let (sim, nnf) = KcSimulator::compile_with_nnf(&c, &Default::default());
        let p = params(a, b);
        let tape_wf = sim.bind(&p).unwrap().wavefunction();
        let enum_wf = enum_walk_wavefunction(&sim, &nnf, &p);
        for (x, (&got, &want)) in tape_wf.iter().zip(&enum_wf).enumerate() {
            prop_assert!(bits_eq(got, want), "amp {x}: {got} vs {want}");
        }
    }

    /// Tape-backed noisy output distributions equal the enum-walk
    /// reconstruction bit for bit (random-event enumeration included).
    #[test]
    fn noisy_probabilities_match_enum_walk(
        instrs in proptest::collection::vec(arb_instr(2), 1..8),
        a in -3.0..3.0f64,
        b in -3.0..3.0f64,
        noise_q in 0usize..2,
    ) {
        let mut c = build(2, &instrs);
        c.depolarize(noise_q, 0.05);
        let (sim, nnf) = KcSimulator::compile_with_nnf(&c, &Default::default());
        let p = params(a, b);
        let tape_probs = sim.bind(&p).unwrap().output_probabilities();
        let enum_probs = enum_walk_probabilities(&sim, &nnf, &p);
        for (x, (&got, &want)) in tape_probs.iter().zip(&enum_probs).enumerate() {
            prop_assert!(
                got.to_bits() == want.to_bits(),
                "P({x}): {got} vs {want}"
            );
        }
    }

    /// Gibbs chains on the tape kernel (delta differentials, free held
    /// moves, cached model-sampling magnitudes, MH proposals on the side
    /// evaluator) produce the identical sample stream to the enum-walk
    /// kernel through the full stack. Noise on every qubit and MH-heavy
    /// mixes interleave rejected proposals over a pending delta list,
    /// accepted proposals and held moves.
    #[test]
    fn gibbs_samples_match_enum_walk(
        instrs in proptest::collection::vec(arb_instr(2), 1..8),
        a in -3.0..3.0f64,
        b in -3.0..3.0f64,
        seed in 0u64..32,
        mh_mix in 0usize..3,
    ) {
        let mh_restart_prob = [0.0, 0.05, 0.5][mh_mix];
        let mut c = build(2, &instrs);
        c.depolarize(0, 0.1).depolarize(1, 0.1);
        let (sim, nnf) = KcSimulator::compile_with_nnf(&c, &Default::default());
        let p = params(a, b);
        let bound = sim.bind(&p).unwrap();
        let options = GibbsOptions { warmup: 30, thin: 1, seed, mh_restart_prob };
        let tape_samples = bound.sampler(&options).sample_outputs(100, 1);
        let enum_samples = bound.sampler_enum_walk(&nnf, &options).sample_outputs(100, 1);
        prop_assert_eq!(tape_samples, enum_samples);
    }
}

/// `gibbs_samples_match_enum_walk` on four qubits with depolarizing noise
/// (p = 0.01) after every gate, the noise model of the sampling benchmark.
/// Most Metropolis–Hastings proposals there are rejected at the tape
/// chain's density bound with no pass, while the enum-walk chain computes
/// every proposal's density: equal sample streams show those rejections
/// exact.
#[test]
fn gibbs_samples_match_enum_walk_on_four_noisy_qubits() {
    let mut pure = Circuit::new(4);
    pure.h(0)
        .rx(1, Param::symbol("a"))
        .cnot(0, 1)
        .ry(2, Param::symbol("b"))
        .zz(1, 2, Param::symbol("b"))
        .h(3)
        .cnot(2, 3)
        .rz(3, Param::symbol("a"))
        .cz(0, 3);
    let c = pure.with_noise_after_each_gate(&NoiseChannel::depolarizing(0.01));
    let (sim, nnf) = KcSimulator::compile_with_nnf(&c, &Default::default());
    let bound = sim.bind(&params(0.9, -1.3)).unwrap();
    let (mut proposed, mut bounded) = (0, 0);
    for seed in 0..4 {
        for mh_restart_prob in [0.05, 0.5] {
            let options = GibbsOptions {
                warmup: 30,
                thin: 1,
                seed,
                mh_restart_prob,
            };
            let mut chain = bound.sampler(&options);
            let tape_samples = chain.sample_outputs(100, 1);
            let enum_samples = bound
                .sampler_enum_walk(&nnf, &options)
                .sample_outputs(100, 1);
            assert_eq!(
                tape_samples, enum_samples,
                "seed {seed}, MH probability {mh_restart_prob}"
            );
            proposed += chain.counts().mh_proposed;
            bounded += chain.counts().mh_bounded;
        }
    }
    assert!(
        bounded > proposed / 2,
        "{bounded} of {proposed} proposals rejected at their bound"
    );
}

/// A full `SweepExecutor` run on the tape-backed KC backend is
/// byte-identical to the enum-walk reconstruction of every point — the
/// end-to-end regression for the port (and it must hold for every batch
/// width and thread count, which the engine already guarantees relative
/// to itself).
#[test]
fn sweep_executor_results_match_enum_walk_reconstruction() {
    let mut c = Circuit::new(3);
    c.h(0)
        .rx(1, Param::symbol("a"))
        .cnot(0, 1)
        .zz(1, 2, Param::symbol("b"))
        .ry(2, Param::symbol("a"));
    let points: Vec<ParamMap> = (0..24)
        .map(|i| params(0.15 + 0.11 * i as f64, 1.4 - 0.07 * i as f64))
        .collect();
    let obs = |bits: usize| (bits as f64).sqrt();
    let spec = SweepSpec::expectation(&obs).with_seed(5);

    // Enum reference: per-point expectation folded in the same order the
    // backend folds probabilities.
    let (sim, nnf) = KcSimulator::compile_with_nnf(&c, &Default::default());
    let reference: Vec<f64> = points
        .iter()
        .map(|p| {
            enum_walk_wavefunction(&sim, &nnf, p)
                .iter()
                .map(|amp| amp.norm_sqr())
                .enumerate()
                .map(|(bits, pr)| pr * obs(bits))
                .sum()
        })
        .collect();

    for (threads, batch) in [(1, 1), (1, 4), (4, 16), (8, 3)] {
        let engine = Engine::with_options(
            EngineOptions::default()
                .with_threads(threads)
                .with_batch(batch),
        );
        let got = engine.sweep(&c, &points, &spec).expect("sweep");
        assert_eq!(got.len(), points.len());
        for (i, point) in got.iter().enumerate() {
            let e = point.expectation.expect("expectation requested");
            assert_eq!(
                e.to_bits(),
                reference[i].to_bits(),
                "threads={threads} batch={batch} point {i}: {e} vs {}",
                reference[i]
            );
        }
    }
}

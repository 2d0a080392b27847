//! The CI certification driver: compiles the example workloads and runs
//! the certifying static verifier over every artifact.
//!
//! Each workload is compiled through an [`Engine`] (so artifacts resolve
//! exactly as production queries would) and verified at
//! [`VerifyLevel::Full`](qkc_core::VerifyLevel::Full): tape
//! well-formedness, semantic d-DNNF certification (decomposability,
//! determinism witnesses, smoothness), slot liveness, and the model-layer
//! lints under the workload's parameter binding. The rendered
//! [`VerifyReport`](qkc_core::VerifyReport)s are written to
//! `VERIFY_report.txt` (override with `QKC_VERIFY_REPORT`) for CI to
//! archive.
//!
//! Exit code is non-zero if any artifact carries an error-severity
//! finding — the trust anchor the differential-fuzzing and
//! approximate-backend roadmap items stand on.

use qkc_circuit::{Circuit, ParamMap};
use qkc_engine::{Engine, Severity};
use qkc_workloads::algorithms::{
    bell_circuit, grover_circuit, noisy_bell_circuit, qft_circuit, teleportation_circuit,
};
use qkc_workloads::{QaoaMaxCut, RandomCircuit, VqeIsing};
use std::fmt::Write as _;
use std::path::PathBuf;

fn workloads() -> Vec<(String, Circuit, ParamMap)> {
    let vqe = VqeIsing::new(2, 2, 1);
    let qaoa = QaoaMaxCut::new(qkc_workloads::Graph::cycle(4), 1);
    vec![
        ("bell".to_string(), bell_circuit(), ParamMap::new()),
        (
            "noisy_bell(gamma=0.2)".to_string(),
            noisy_bell_circuit(0.2),
            ParamMap::new(),
        ),
        ("qft(4)".to_string(), qft_circuit(4), ParamMap::new()),
        (
            "grover(3, marked=5)".to_string(),
            grover_circuit(3, &[5]),
            ParamMap::new(),
        ),
        (
            "teleportation(theta=0.77)".to_string(),
            teleportation_circuit(0.77),
            ParamMap::new(),
        ),
        (
            "vqe_ising(2x2, 1 layer)".to_string(),
            vqe.circuit(),
            vqe.default_params(),
        ),
        (
            "qaoa_maxcut(C4, p=1)".to_string(),
            qaoa.circuit(),
            qaoa.default_params(),
        ),
        (
            "rcs(2x2, 4 cycles)".to_string(),
            RandomCircuit::new(2, 2, 4, 11).circuit(),
            ParamMap::new(),
        ),
    ]
}

fn main() {
    let engine = Engine::new();
    let mut rendered = String::new();
    let mut errors = 0usize;
    for (name, circuit, params) in workloads() {
        let report = engine
            .verify(&circuit, &params)
            .unwrap_or_else(|e| panic!("verify({name}) failed to resolve an artifact: {e}"));
        let bad = report
            .findings()
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count();
        errors += bad;
        let _ = writeln!(rendered, "== {name} ==");
        let _ = write!(rendered, "{}", report.render());
        let _ = writeln!(rendered);
        println!(
            "{name}: {} finding(s), {bad} error(s) -> {}",
            report.findings().len(),
            if bad == 0 { "clean" } else { "FAILED" }
        );
    }
    let path = std::env::var_os("QKC_VERIFY_REPORT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("VERIFY_report.txt"));
    std::fs::write(&path, &rendered).expect("write verify report");
    println!("report written to {}", path.display());
    if errors > 0 {
        eprintln!("{errors} error-severity finding(s) across workload artifacts");
        std::process::exit(1);
    }
}

//! Table 6: intermediate compilation-result metrics — gates (BN nodes), CNF
//! clauses, AC nodes/edges, AC size, and now the measured per-phase times —
//! for the largest QAOA and VQE problem instances of the Figure 8 (ideal)
//! and Figure 9 (noisy) sweeps.
//!
//! Formatting comes from
//! [`PipelineMetrics::report`](qkc_core::PipelineMetrics::report) — the
//! same pretty-printer every live run can use — instead of a bench-local
//! table.

use qkc_bench::Scale;
use qkc_circuit::{Circuit, NoiseChannel};
use qkc_core::{KcOptions, KcSimulator};
use qkc_workloads::{Graph, QaoaMaxCut, VqeIsing};

fn report(label: &str, circuit: &Circuit) {
    let sim = KcSimulator::compile(circuit, &KcOptions::default());
    println!(
        "{label} — {} qubits, {} gates",
        circuit.num_qubits(),
        circuit.num_gates()
    );
    print!("{}", sim.metrics().report());
    println!();
}

fn main() {
    let scale = Scale::from_env();
    let noise = NoiseChannel::depolarizing(0.005);
    let ideal_qaoa_n = scale.pick(12, 32);
    let ideal_vqe = scale.pick((3, 3), (5, 5));
    let noisy_qaoa_n = scale.pick(6, 12);
    let noisy_vqe = scale.pick((2, 2), (3, 3));

    println!("Table 6: intermediate compilation metrics for the largest instances\n");

    for iters in [1usize, 2] {
        let qaoa = QaoaMaxCut::new(Graph::random_regular(ideal_qaoa_n, 3, 9), iters);
        report(&format!("ideal QAOA {iters} iteration(s)"), &qaoa.circuit());
    }
    for iters in [1usize, 2] {
        let vqe = VqeIsing::new(ideal_vqe.0, ideal_vqe.1, iters);
        report(&format!("ideal VQE {iters} iteration(s)"), &vqe.circuit());
    }
    for iters in [1usize, 2] {
        let qaoa = QaoaMaxCut::new(Graph::random_regular(noisy_qaoa_n, 3, 9), iters);
        report(
            &format!("noisy QAOA {iters} iteration(s)"),
            &qaoa.circuit().with_noise_after_each_gate(&noise),
        );
    }
    for iters in [1usize, 2] {
        let vqe = VqeIsing::new(noisy_vqe.0, noisy_vqe.1, iters);
        report(
            &format!("noisy VQE {iters} iteration(s)"),
            &vqe.circuit().with_noise_after_each_gate(&noise),
        );
    }
    println!("Shape check (paper Table 6): two iterations inflate the AC far");
    println!("more than the CNF (depth hurts compilation superlinearly), and");
    println!("noise multiplies clause counts but stays tractable at low width.");
}

//! Pins the d-DNNF compiler's exact output: the c2d text checksum, the
//! decision count and the cache-hit count of fixed circuits and formulas,
//! under both variable orders, with the component cache on and off, and
//! which separator balance each min-cut separator compile keeps.
//!
//! The compiled node numbering — and with it the lowered tape every query
//! runs on — follows the order in which the search creates nodes: implied
//! literals in propagation-scan order, components in first-clause order,
//! the true phase before the false phase. A change to the search's data
//! structures must keep all of that, so any differing constant here means
//! the compiler's output changed, not just its speed.

use qkc::bayesnet::BayesNet;
use qkc::circuit::{Circuit, NoiseChannel};
use qkc::cnf::{encode, simplify, Cnf, Lit};
use qkc::knowledge::{
    compile, wire_checksum, CompileOptions, VarOrder, DEFAULT_SEPARATOR_BALANCE,
    RACE_SEPARATOR_BALANCE,
};
use qkc::workloads::{Graph, QaoaMaxCut};

/// `(case, order, cache) → (c2d checksum, decisions, cache hits)`.
type Pin = (&'static str, VarOrder, bool, u64, u64, u64);

/// The cases whose `MinCutSeparator` compiles keep
/// `RACE_SEPARATOR_BALANCE`, with the cache on and off; every other case
/// keeps the default balance.
const KEPT_SECOND: &[&str] = &["qaoa8-s9"];

/// Recorded with the compiler's earlier hash-map search; the flat-array
/// search reproduces every row. `MinCutSeparator` rows pin the raced
/// default: `compile` searches the order split at the default balance and
/// at `RACE_SEPARATOR_BALANCE`, and keeps the search with fewer decisions.
/// The default wins on every case but `qaoa8-s9`, so those rows are the
/// ones the single-balance compiler produced; `qaoa8-s9` pins a structure
/// that keeps the second balance.
#[rustfmt::skip]
const PINNED: &[Pin] = &[
    ("qaoa8-s1", VarOrder::Lexicographic, true, 0x7622c2da4831904f, 55, 74),
    ("qaoa8-s1", VarOrder::Lexicographic, false, 0x7622c2da4831904f, 177, 0),
    ("qaoa8-s1", VarOrder::MinCutSeparator, true, 0x1f8c35848b264e0d, 59, 98),
    ("qaoa8-s1", VarOrder::MinCutSeparator, false, 0x1f8c35848b264e0d, 765, 0),
    ("qaoa8-s2", VarOrder::Lexicographic, true, 0x89b78ba4c9de5f89, 63, 110),
    ("qaoa8-s2", VarOrder::Lexicographic, false, 0x89b78ba4c9de5f89, 477, 0),
    ("qaoa8-s2", VarOrder::MinCutSeparator, true, 0x75b0c3a85f9a5d16, 79, 210),
    ("qaoa8-s2", VarOrder::MinCutSeparator, false, 0x75b0c3a85f9a5d16, 849, 0),
    ("qaoa8-s3", VarOrder::Lexicographic, true, 0x6958737569495394, 71, 150),
    ("qaoa8-s3", VarOrder::Lexicographic, false, 0x6958737569495394, 477, 0),
    ("qaoa8-s3", VarOrder::MinCutSeparator, true, 0xba26cb5c993ebabd, 115, 172),
    ("qaoa8-s3", VarOrder::MinCutSeparator, false, 0xba26cb5c993ebabd, 527, 0),
    ("qaoa8-s9", VarOrder::Lexicographic, true, 0xbb1c4006ed96691f, 63, 110),
    ("qaoa8-s9", VarOrder::Lexicographic, false, 0xbb1c4006ed96691f, 333, 0),
    ("qaoa8-s9", VarOrder::MinCutSeparator, true, 0x0dbafb417ce8beeb, 67, 90),
    ("qaoa8-s9", VarOrder::MinCutSeparator, false, 0x0dbafb417ce8beeb, 813, 0),
    ("noisy3", VarOrder::Lexicographic, true, 0x6d0faabf36f98bce, 45, 38),
    ("noisy3", VarOrder::Lexicographic, false, 0x6d0faabf36f98bce, 1143, 0),
    ("noisy3", VarOrder::MinCutSeparator, true, 0xb59380b6eb146006, 39, 8),
    ("noisy3", VarOrder::MinCutSeparator, false, 0xb59380b6eb146006, 63, 0),
    ("3cnf-a", VarOrder::Lexicographic, true, 0x2b8efd2772030b6f, 284, 94),
    ("3cnf-a", VarOrder::Lexicographic, false, 0x2b8efd2772030b6f, 495, 0),
    ("3cnf-a", VarOrder::MinCutSeparator, true, 0x020d75598c3e71dc, 222, 52),
    ("3cnf-a", VarOrder::MinCutSeparator, false, 0x020d75598c3e71dc, 372, 0),
    ("3cnf-b", VarOrder::Lexicographic, true, 0x8feee95f5a29f176, 137, 2),
    ("3cnf-b", VarOrder::Lexicographic, false, 0x8feee95f5a29f176, 141, 0),
    ("3cnf-b", VarOrder::MinCutSeparator, true, 0xd16ab6143b989aa4, 58, 5),
    ("3cnf-b", VarOrder::MinCutSeparator, false, 0xd16ab6143b989aa4, 63, 0),
    ("3cnf-c", VarOrder::Lexicographic, true, 0x05700af8f01367ba, 338, 121),
    ("3cnf-c", VarOrder::Lexicographic, false, 0x05700af8f01367ba, 510, 0),
    ("3cnf-c", VarOrder::MinCutSeparator, true, 0xb9f8be6a69c60236, 321, 96),
    ("3cnf-c", VarOrder::MinCutSeparator, false, 0xb9f8be6a69c60236, 494, 0),
];

/// Encodes and simplifies a circuit exactly as `KcSimulator::compile` does.
fn circuit_cnf(c: &Circuit) -> Cnf {
    simplify(&encode(&BayesNet::from_circuit(c)).cnf)
        .expect("circuit encodings are satisfiable")
        .cnf
}

/// SplitMix64, so the random formulas depend on nothing outside this file.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random 3-CNF: `clauses` clauses of three distinct variables.
fn random_3cnf(vars: usize, clauses: usize, seed: u64) -> Cnf {
    let mut state = seed;
    let mut f = Cnf::new(vars);
    for _ in 0..clauses {
        let mut clause: Vec<Lit> = Vec::with_capacity(3);
        while clause.len() < 3 {
            let r = splitmix(&mut state);
            let v = (r % vars as u64) as Lit + 1;
            if clause.iter().all(|l| l.abs() != v) {
                clause.push(if (r >> 32) & 1 == 1 { v } else { -v });
            }
        }
        f.add_clause(clause);
    }
    f
}

fn cases() -> Vec<(&'static str, Cnf)> {
    let qaoa = |seed| circuit_cnf(&QaoaMaxCut::new(Graph::random_regular(8, 3, seed), 1).circuit());
    let mut noisy = Circuit::new(3);
    noisy.h(0).cnot(0, 1).ry(2, 0.7).cz(1, 2);
    let noisy = noisy.with_noise_after_each_gate(&NoiseChannel::depolarizing(0.01));
    vec![
        ("qaoa8-s1", qaoa(1)),
        ("qaoa8-s2", qaoa(2)),
        ("qaoa8-s3", qaoa(3)),
        ("qaoa8-s9", qaoa(9)),
        ("noisy3", circuit_cnf(&noisy)),
        ("3cnf-a", random_3cnf(24, 72, 11)),
        ("3cnf-b", random_3cnf(24, 88, 12)),
        ("3cnf-c", random_3cnf(30, 96, 13)),
    ]
}

#[test]
fn compiler_output_is_pinned() {
    let mut actual = Vec::new();
    for (name, cnf) in cases() {
        for order in [VarOrder::Lexicographic, VarOrder::MinCutSeparator] {
            for cache in [true, false] {
                let c = compile(
                    &cnf,
                    &CompileOptions {
                        order,
                        cache,
                        ..Default::default()
                    },
                );
                let sum = wire_checksum(c.nnf.to_c2d_format().as_bytes());
                if order == VarOrder::MinCutSeparator {
                    let kept = if KEPT_SECOND.contains(&name) {
                        RACE_SEPARATOR_BALANCE
                    } else {
                        DEFAULT_SEPARATOR_BALANCE
                    };
                    assert_eq!(c.stats.balance, kept, "{name}, cache {cache}");
                }
                actual.push((
                    name,
                    order,
                    cache,
                    sum,
                    c.stats.decisions,
                    c.stats.cache_hits,
                ));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(n, o, c, s, d, h)| {
            format!("    ({n:?}, VarOrder::{o:?}, {c}, {s:#018x}, {d}, {h}),\n")
        })
        .collect();
    assert!(
        actual == PINNED,
        "compiled output changed; actual:\n{table}"
    );
}

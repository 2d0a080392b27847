//! Circuit statistics that drive backend planning, and cache-occupancy
//! statistics that will drive size-aware eviction.

use qkc_circuit::{Circuit, Operation};
use std::collections::BTreeSet;

/// A point-in-time snapshot of the [`ArtifactCache`](crate::ArtifactCache):
/// request counters plus the exact resident footprint of the compiled
/// execution tapes it holds (the sum of each artifact's
/// `PipelineMetrics::ac_size_bytes`). Taken under one lock acquisition,
/// so every field is mutually consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from a resident artifact.
    pub hits: u64,
    /// Requests that compiled a new artifact.
    pub misses: u64,
    /// Artifacts evicted to enforce the resident-byte budget.
    pub evictions: u64,
    /// Requests served by rehydrating a spilled artifact from disk
    /// (evicted earlier, or left warm by a previous process) instead of
    /// recompiling.
    pub spill_hits: u64,
    /// **Total** number of cached structures the cache has ever admitted:
    /// resident, still resolving, or evicted. Evicted entries keep their
    /// identity (circuit, options, spill path) so they can rehydrate, and
    /// therefore still count here. Compare with
    /// [`resident_entries`](CacheStats::resident_entries) for how many
    /// actually hold a compiled artifact in memory right now.
    pub entries: usize,
    /// Number of entries whose compiled artifact is **resident in memory**
    /// right now — the subset of [`entries`](CacheStats::entries) that is
    /// `Ready`, excluding in-flight resolutions and evicted-but-
    /// rehydratable structures. `resident_bytes` is the byte footprint of
    /// exactly these entries.
    pub resident_entries: usize,
    /// Exact bytes of compiled execution tape resident across every
    /// *finished* artifact (in-flight compilations count 0 until done).
    pub resident_bytes: usize,
    /// Bytes of valid artifact spill files on disk.
    pub spilled_bytes: usize,
    /// Spill-I/O attempts that were retried after a failure (reads and
    /// writes; each retried attempt counts once).
    pub spill_retries: u64,
    /// Corrupt/stale spill files renamed aside (`*.quarantined`) so they
    /// are never re-read: each costs one recompile, exactly once.
    pub quarantined: u64,
    /// Whether the cache has degraded to in-memory-only caching after
    /// exhausting spill-write retries. Sticky until
    /// [`clear`](crate::ArtifactCache::clear); queries keep succeeding,
    /// evicted entries recompile instead of rehydrating.
    pub degraded: bool,
}

/// Structural statistics of a circuit, cheap to compute (no compilation),
/// used by the [`Planner`](crate::Planner) to pick a backend.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitStats {
    /// Qubit count (state-vector cost is `2^n`, density-matrix `4^n`).
    pub num_qubits: usize,
    /// Unitary operation count.
    pub num_gates: usize,
    /// Noise-channel count.
    pub num_noise_events: usize,
    /// Measurement count (each dephases and adds a random variable).
    pub num_measurements: usize,
    /// Circuit depth under greedy moment packing.
    pub depth: usize,
    /// Largest per-qubit operation count — the paper's wide-shallow metric
    /// (QAOA/VQE circuits touch each qubit only a handful of times however
    /// many qubits they have).
    pub max_ops_per_qubit: usize,
    /// `log2` of the number of joint noise/measurement branch assignments —
    /// the cost exponent of exact density-matrix reconstruction from the
    /// compiled artifact.
    pub log2_noise_branches: f64,
    /// Greedy min-degree elimination width of the qubit interaction graph:
    /// a cheap upper-bound proxy for the treewidth quantity that governs
    /// both knowledge-compilation and tensor-contraction cost. Wide-shallow
    /// circuits (the paper's QAOA/VQE regime) score low; densely
    /// interacting circuits score high.
    pub treewidth_proxy: usize,
}

impl CircuitStats {
    /// Computes the statistics of `circuit`.
    pub fn of(circuit: &Circuit) -> Self {
        Self {
            num_qubits: circuit.num_qubits(),
            num_gates: circuit.num_gates(),
            num_noise_events: circuit.num_noise_ops(),
            num_measurements: circuit.num_measurements(),
            depth: circuit.depth(),
            max_ops_per_qubit: circuit.ops_per_qubit().into_iter().max().unwrap_or(0),
            log2_noise_branches: log2_noise_branches(circuit),
            treewidth_proxy: elimination_width(circuit),
        }
    }

    /// Whether the circuit contains noise or measurement events.
    pub fn is_noisy(&self) -> bool {
        self.num_noise_events > 0 || self.num_measurements > 0
    }

    /// Whether the circuit is in the paper's wide-shallow regime: every
    /// qubit touched by only a few operations, interactions locally
    /// clustered. This is where compiled arithmetic circuits beat dense
    /// state vectors.
    pub fn is_wide_shallow(&self) -> bool {
        self.max_ops_per_qubit <= 12 && self.treewidth_proxy <= self.num_qubits.min(8)
    }
}

/// [`CircuitStats::log2_noise_branches`] on its own: O(ops), so the KC
/// backend's per-point exact-enumeration budget check skips the treewidth
/// proxy.
pub(crate) fn log2_noise_branches(circuit: &Circuit) -> f64 {
    let mut log2 = 0.0;
    for op in circuit.operations() {
        match op {
            Operation::Noise { channel, .. } => log2 += (channel.num_branches() as f64).log2(),
            Operation::Measure { .. } => log2 += 1.0,
            _ => {}
        }
    }
    log2
}

/// Greedy min-degree elimination width of the qubit interaction graph.
///
/// Multi-qubit operations connect their qubits; vertices are repeatedly
/// eliminated in min-degree order, connecting their remaining neighbors
/// (fill-in), and the width is the largest neighborhood eliminated. This is
/// the classic cheap upper bound for treewidth used by tensor-network
/// contraction planners.
fn elimination_width(circuit: &Circuit) -> usize {
    let n = circuit.num_qubits();
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for op in circuit.operations() {
        let qs = op.qubits();
        for (i, &a) in qs.iter().enumerate() {
            for &b in &qs[i + 1..] {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
    }
    let mut alive: BTreeSet<usize> = (0..n).collect();
    let mut width = 0;
    while let Some(&v) = alive.iter().min_by_key(|&&v| adj[v].len()) {
        width = width.max(adj[v].len());
        let neighbors: Vec<usize> = adj[v].iter().copied().collect();
        for (i, &a) in neighbors.iter().enumerate() {
            for &b in &neighbors[i + 1..] {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
        for &u in &neighbors {
            adj[u].remove(&v);
        }
        adj[v].clear();
        alive.remove(&v);
    }
    width
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkc_circuit::Circuit;

    #[test]
    fn counts_and_noise_exponent() {
        let mut c = Circuit::new(3);
        c.h(0).depolarize(0, 0.1).cnot(0, 1).measure(2);
        let s = CircuitStats::of(&c);
        assert_eq!(s.num_qubits, 3);
        assert_eq!(s.num_gates, 2);
        assert_eq!(s.num_noise_events, 1);
        assert_eq!(s.num_measurements, 1);
        assert!(s.is_noisy());
        // Depolarizing has 4 branches (log2 = 2) plus one measurement bit.
        assert!((s.log2_noise_branches - 3.0).abs() < 1e-12);
    }

    #[test]
    fn chain_has_width_one_clique_has_width_n_minus_1() {
        let mut chain = Circuit::new(6);
        for q in 0..5 {
            chain.cnot(q, q + 1);
        }
        assert_eq!(CircuitStats::of(&chain).treewidth_proxy, 1);

        let mut clique = Circuit::new(5);
        for a in 0..5 {
            for b in a + 1..5 {
                clique.cz(a, b);
            }
        }
        assert_eq!(CircuitStats::of(&clique).treewidth_proxy, 4);
    }

    #[test]
    fn cycle_has_width_two() {
        let mut cyc = Circuit::new(8);
        for q in 0..8 {
            cyc.cz(q, (q + 1) % 8);
        }
        assert_eq!(CircuitStats::of(&cyc).treewidth_proxy, 2);
    }

    #[test]
    fn pure_circuit_is_not_noisy() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let s = CircuitStats::of(&c);
        assert!(!s.is_noisy());
        assert_eq!(s.log2_noise_branches, 0.0);
        assert!(s.is_wide_shallow());
    }
}

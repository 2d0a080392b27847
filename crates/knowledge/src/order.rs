//! Decision-variable orders for the knowledge compiler (paper §3.2.2,
//! optimization 2: "qubit state elimination order").
//!
//! * [`VarOrder::Lexicographic`] follows variable creation order, which for
//!   circuit encodings is time order — the paper's lexicographic option.
//! * [`VarOrder::MinCutSeparator`] recursively bisects the variable
//!   interaction graph and ranks each separator ahead of the halves it
//!   splits, so decisions disconnect the formula early. This plays the role
//!   of c2d's hypergraph-partitioning dtree (our stand-in: BFS-grown
//!   balanced bisection, documented in DESIGN.md).

use qkc_cnf::{lit_var, Cnf};
use std::collections::HashSet;

/// The available decision orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VarOrder {
    /// Variable-index order (circuit time order).
    Lexicographic,
    /// Separator-first order from recursive min-cut bisection.
    #[default]
    MinCutSeparator,
}

/// The default bisection split fraction of [`VarOrder::MinCutSeparator`]:
/// perfectly balanced halves. See [`compute_ranks_balanced`].
pub const DEFAULT_SEPARATOR_BALANCE: f64 = 0.5;

/// The second candidate balance of every [`VarOrder::MinCutSeparator`]
/// compile: [`crate::compile`] races a search at this split against one at
/// the configured balance and keeps the circuit whose search made fewer
/// decisions. A configured balance of 0.6 races no one.
pub const RACE_SEPARATOR_BALANCE: f64 = 0.6;

/// Computes `rank[var]` (1-based vars; index 0 unused): the compiler always
/// branches on the unassigned variable of minimum rank within a component.
pub fn compute_ranks(cnf: &Cnf, order: VarOrder) -> Vec<u32> {
    compute_ranks_balanced(cnf, order, DEFAULT_SEPARATOR_BALANCE)
}

/// [`compute_ranks`] with an explicit bisection balance for
/// [`VarOrder::MinCutSeparator`]: the BFS diameter ordering is split at
/// fraction `balance` (clamped to `(0, 1)`) instead of the midpoint.
/// Skewed cuts trade separator size against recursion depth; `0.5` is the
/// balanced default and reproduces [`compute_ranks`] exactly. The balance
/// is part of the compiled artifact's identity — two compilations that
/// differ only in it may produce different variable orders, hence
/// different (equally correct) circuits. [`crate::compile`] treats it as
/// the first of two candidates (the second is
/// [`RACE_SEPARATOR_BALANCE`]), so one balance may compile the circuit of
/// the other.
pub fn compute_ranks_balanced(cnf: &Cnf, order: VarOrder, balance: f64) -> Vec<u32> {
    let n = cnf.num_vars();
    match order {
        VarOrder::Lexicographic => (0..=n as u32).collect(),
        VarOrder::MinCutSeparator => separator_ranks(cnf, balance),
    }
}

fn separator_ranks(cnf: &Cnf, balance: f64) -> Vec<u32> {
    let n = cnf.num_vars();
    // Variable interaction graph: adjacency via shared clauses.
    let mut adj: Vec<HashSet<u32>> = vec![HashSet::new(); n + 1];
    for clause in cnf.clauses() {
        for (i, &a) in clause.iter().enumerate() {
            for &b in &clause[i + 1..] {
                let (va, vb) = (lit_var(a), lit_var(b));
                if va != vb {
                    adj[va as usize].insert(vb);
                    adj[vb as usize].insert(va);
                }
            }
        }
    }
    let mut rank = vec![u32::MAX; n + 1];
    let mut next_rank = 0u32;
    let mut assign = |v: u32, rank: &mut Vec<u32>, next: &mut u32| {
        if rank[v as usize] == u32::MAX {
            rank[v as usize] = *next;
            *next += 1;
        }
    };

    // Process each connected component of the interaction graph.
    let mut seen = vec![false; n + 1];
    for start in 1..=n as u32 {
        if seen[start as usize] {
            continue;
        }
        // Gather the component.
        let mut comp = Vec::new();
        let mut stack = vec![start];
        seen[start as usize] = true;
        while let Some(v) = stack.pop() {
            comp.push(v);
            for &w in &adj[v as usize] {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        // The gather above walks HashSets, whose iteration order varies per
        // process (RandomState); sort so the tie-breaks inside `bisect`
        // (min-degree start vertex) — and therefore the variable order, the
        // compiled NNF, and every downstream sampling stream — are
        // deterministic functions of the CNF alone.
        comp.sort_unstable();
        bisect(&comp, &adj, balance, &mut rank, &mut next_rank, &mut assign);
    }
    // Isolated / never-mentioned variables get trailing ranks.
    for v in 1..=n as u32 {
        assign(v, &mut rank, &mut next_rank);
    }
    rank
}

/// Recursively ranks `vars`: find a balanced bisection by BFS layering, rank
/// the boundary (separator) first, then recurse into both halves.
fn bisect(
    vars: &[u32],
    adj: &[HashSet<u32>],
    balance: f64,
    rank: &mut Vec<u32>,
    next_rank: &mut u32,
    assign: &mut impl FnMut(u32, &mut Vec<u32>, &mut u32),
) {
    if vars.len() <= 3 {
        let mut sorted = vars.to_vec();
        sorted.sort_unstable();
        for v in sorted {
            assign(v, rank, next_rank);
        }
        return;
    }
    let in_vars: HashSet<u32> = vars.iter().copied().collect();
    // BFS from the minimum-degree vertex gives a rough diameter ordering.
    let start = *vars
        .iter()
        .min_by_key(|&&v| {
            adj[v as usize]
                .iter()
                .filter(|w| in_vars.contains(w))
                .count()
        })
        .expect("non-empty");
    let mut order = Vec::with_capacity(vars.len());
    let mut visited: HashSet<u32> = HashSet::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    visited.insert(start);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        let mut nbrs: Vec<u32> = adj[v as usize]
            .iter()
            .copied()
            .filter(|w| in_vars.contains(w) && !visited.contains(w))
            .collect();
        nbrs.sort_unstable();
        for w in nbrs {
            visited.insert(w);
            queue.push_back(w);
        }
    }
    // Vertices unreachable inside the component slice (can happen after the
    // separator is removed) are appended.
    for &v in vars {
        if !visited.contains(&v) {
            order.push(v);
        }
    }
    // Split the BFS ordering at the requested fraction; floor at balance
    // 0.5 is exactly the old midpoint split, and the clamp keeps both
    // halves non-empty under extreme balances.
    let half =
        ((order.len() as f64 * balance.clamp(0.0, 1.0)).floor() as usize).clamp(1, order.len() - 1);
    let a: HashSet<u32> = order[..half].iter().copied().collect();
    let b: HashSet<u32> = order[half..].iter().copied().collect();
    // Separator: vertices of A adjacent to B (take the smaller boundary
    // side for a tighter cut).
    let boundary_a: Vec<u32> = a
        .iter()
        .copied()
        .filter(|&v| adj[v as usize].iter().any(|w| b.contains(w)))
        .collect();
    let boundary_b: Vec<u32> = b
        .iter()
        .copied()
        .filter(|&v| adj[v as usize].iter().any(|w| a.contains(w)))
        .collect();
    let mut sep = if boundary_a.len() <= boundary_b.len() {
        boundary_a
    } else {
        boundary_b
    };
    if sep.is_empty() || sep.len() >= vars.len() {
        // Degenerate cut: fall back to BFS order.
        for v in order {
            assign(v, rank, next_rank);
        }
        return;
    }
    sep.sort_unstable();
    for &v in &sep {
        assign(v, rank, next_rank);
    }
    let sep_set: HashSet<u32> = sep.into_iter().collect();
    let rest_a: Vec<u32> = order[..half]
        .iter()
        .copied()
        .filter(|v| !sep_set.contains(v))
        .collect();
    let rest_b: Vec<u32> = order[half..]
        .iter()
        .copied()
        .filter(|v| !sep_set.contains(v))
        .collect();
    if !rest_a.is_empty() {
        bisect(&rest_a, adj, balance, rank, next_rank, assign);
    }
    if !rest_b.is_empty() {
        bisect(&rest_b, adj, balance, rank, next_rank, assign);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_cnf(n: usize) -> Cnf {
        // v1 - v2 - ... - vn, a path graph.
        let mut f = Cnf::new(n);
        for v in 1..n {
            f.add_clause(vec![v as i32, (v + 1) as i32]);
        }
        f
    }

    #[test]
    fn lexicographic_is_identity() {
        let f = chain_cnf(5);
        let r = compute_ranks(&f, VarOrder::Lexicographic);
        assert_eq!(r[1..], [1, 2, 3, 4, 5]);
    }

    #[test]
    fn separator_ranks_are_a_permutation() {
        let f = chain_cnf(12);
        let r = compute_ranks(&f, VarOrder::MinCutSeparator);
        let mut seen: Vec<u32> = r[1..].to_vec();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..12).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn separator_of_chain_is_ranked_first() {
        // For a path, the bisection separator is a middle vertex; it must
        // get the smallest rank in its component.
        let f = chain_cnf(9);
        let r = compute_ranks(&f, VarOrder::MinCutSeparator);
        let min_var = (1..=9).min_by_key(|&v| r[v]).unwrap();
        assert!(
            (3..=7).contains(&min_var),
            "first decision {min_var} should be near the middle"
        );
    }

    #[test]
    fn isolated_vars_get_ranks() {
        let mut f = Cnf::new(4);
        f.add_clause(vec![1, 2]);
        // vars 3, 4 never mentioned.
        let r = compute_ranks(&f, VarOrder::MinCutSeparator);
        assert!(r[3] != u32::MAX && r[4] != u32::MAX);
    }

    #[test]
    fn ranks_are_deterministic_across_recomputation() {
        // Each HashMap/HashSet instance gets fresh RandomState keys, so any
        // iteration-order leak into the ranking shows up as two different
        // answers for one CNF. A dense-ish random 3-CNF exercises the
        // bisection path; repeat to make order leaks overwhelmingly likely
        // to surface.
        let mut f = Cnf::new(12);
        let mut x = 7u64;
        for _ in 0..30 {
            let mut next = || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 33) % 12 + 1) as i32
            };
            let (a, b, c) = (next(), next(), next());
            if a != b && b != c && a != c {
                f.add_clause(vec![a, -b, c]);
            }
        }
        let first = compute_ranks(&f, VarOrder::MinCutSeparator);
        for _ in 0..10 {
            assert_eq!(
                compute_ranks(&f, VarOrder::MinCutSeparator),
                first,
                "variable ranking must be a pure function of the CNF"
            );
        }
    }

    #[test]
    fn disconnected_components_each_ranked() {
        let mut f = Cnf::new(6);
        f.add_clause(vec![1, 2]);
        f.add_clause(vec![2, 3]);
        f.add_clause(vec![4, 5]);
        f.add_clause(vec![5, 6]);
        let r = compute_ranks(&f, VarOrder::MinCutSeparator);
        let mut all: Vec<u32> = r[1..].to_vec();
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<u32>>());
    }
}

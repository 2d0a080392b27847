//! d-DNNF post-processing: internal-state elision and smoothing.
//!
//! * [`project_out`] removes literals of summed-out variables (intermediate
//!   qubit states) by replacing them with ⊤ and re-simplifying bottom-up
//!   through the hash-consing builder — the paper's "qubit state elision"
//!   (§3.2.2, optimization 1), which lets the circuit compute output
//!   amplitudes without materializing intermediate-state structure.
//! * [`smooth`] makes the circuit smooth over the *query* variable groups
//!   (final qubit states, noise RVs, measurement RVs) so that evidence and
//!   differential queries are exact. It also factors every product that
//!   mentions a query group: the children that mention none (parameter
//!   literals, and sub-circuits with no query literal) become one shared
//!   child product. Invariant: afterwards no product that mentions a
//!   group has two or more children that mention none. A bind fixes the
//!   parameter weights, so every later delta pass and downward sweep
//!   reads that product's value instead of multiplying its factors again.
//!
//! The factoring lives in [`smooth`] because every producer of a tape —
//! the compile pipeline, and any caller that rebuilds a structure stage by
//! stage — runs it last before [`AcTape::lower`](crate::AcTape::lower),
//! and such a rebuild must reproduce the pipeline's tape byte for byte.

use crate::nnf::{Nnf, NnfBuilder, NnfId, NnfNode};
use qkc_cnf::{lit_var, Lit};
use std::collections::HashMap;

/// Rebuilds the circuit with every literal of a variable failing `keep`
/// replaced by ⊤. Sound for evaluation whenever the dropped variables carry
/// weight 1 on both polarities and never receive evidence.
pub fn project_out(nnf: &Nnf, keep: impl Fn(u32) -> bool) -> Nnf {
    let mut b = NnfBuilder::new();
    let mut map: Vec<NnfId> = Vec::with_capacity(nnf.num_nodes());
    for node in nnf.nodes() {
        let new_id = match node {
            NnfNode::True => b.true_id(),
            NnfNode::False => b.false_id(),
            NnfNode::Lit(l) => {
                if keep(lit_var(*l)) {
                    b.lit(*l)
                } else {
                    b.true_id()
                }
            }
            NnfNode::And(cs) => {
                let children: Vec<NnfId> = cs.iter().map(|&c| map[c as usize]).collect();
                b.and(children)
            }
            NnfNode::Or(a, c) => b.or(map[*a as usize], map[*c as usize]),
        };
        map.push(new_id);
    }
    b.extract(map[nnf.root() as usize])
}

/// Makes the circuit smooth over the given variable groups, and factors
/// the parameter-only children out of every product that mentions one.
///
/// Each group lists the literals covering one query variable's domain:
/// `[+v, -v]` for a binary-encoded node, or the positive indicator literals
/// for a multi-valued node. After smoothing, every model of the circuit
/// mentions exactly one literal from every group, which is the precondition
/// for evidence setting and differential queries to be exact.
///
/// Factoring: in every product that mentions a group, the children that
/// mention none (parameter literals, and sub-circuits with no query
/// literal) become one hash-consed child product. That product, and every
/// other product that mentions no group, is sealed
/// ([`NnfBuilder::and_sealed`]), so the smoothing padding, which
/// flattens a child into a product with its gadgets, keeps it whole.
/// Afterwards no product that mentions a group has two or more children
/// that mention none. Evidence only moves query literals, so a delta
/// pass or a downward sweep never revisits such a child between two
/// binds: it reads one factored value where it would multiply every
/// parameter factor again. Against the unfactored circuit, values differ
/// only by re-association.
///
/// The factoring lives here, not in a pass of its own, because every
/// producer of a compiled tape runs `smooth` last before lowering, and
/// this pass already knows which nodes mention a group.
pub fn smooth(nnf: &Nnf, groups: &[Vec<Lit>]) -> Nnf {
    let num_groups = groups.len();
    if num_groups == 0 {
        return project_out(nnf, |_| true); // copy
    }
    // var -> group index
    let mut group_of: HashMap<u32, usize> = HashMap::new();
    for (gi, lits) in groups.iter().enumerate() {
        for &l in lits {
            group_of.insert(lit_var(l), gi);
        }
    }
    let blocks = num_groups.div_ceil(64);
    // Group bitsets per original node, flat storage, and whether each
    // node mentions no group at all.
    let mut sets = vec![0u64; nnf.num_nodes() * blocks];
    let mut free = vec![true; nnf.num_nodes()];
    let set_bit = |sets: &mut [u64], node: usize, g: usize| {
        sets[node * blocks + g / 64] |= 1 << (g % 64);
    };
    for (i, node) in nnf.nodes().iter().enumerate() {
        match node {
            NnfNode::Lit(l) => {
                if let Some(&g) = group_of.get(&lit_var(*l)) {
                    set_bit(&mut sets, i, g);
                }
            }
            NnfNode::And(cs) => {
                for &c in cs.iter() {
                    for blk in 0..blocks {
                        sets[i * blocks + blk] |= sets[c as usize * blocks + blk];
                    }
                }
            }
            NnfNode::Or(a, c) => {
                for &child in [*a, *c].iter() {
                    for blk in 0..blocks {
                        sets[i * blocks + blk] |= sets[child as usize * blocks + blk];
                    }
                }
            }
            _ => {}
        }
        free[i] = sets[i * blocks..][..blocks].iter().all(|&w| w == 0);
    }

    let mut b = NnfBuilder::new();
    // Sum-out gadget per group: an OR-chain over the group's literals.
    let gadgets: Vec<NnfId> = groups
        .iter()
        .map(|lits| {
            let mut acc: Option<NnfId> = None;
            for &l in lits {
                let ln = b.lit(l);
                acc = Some(match acc {
                    None => ln,
                    Some(prev) => b.or(prev, ln),
                });
            }
            acc.expect("non-empty group")
        })
        .collect();

    // `node` times the gadget of every group in `want` it does not mention.
    let pad = |b: &mut NnfBuilder, node: NnfId, has: &[u64], want: &[u64]| -> NnfId {
        if has.iter().zip(want).all(|(&h, &w)| w & !h == 0) {
            return node;
        }
        let mut parts = vec![node];
        for (blk, (&h, &w)) in has.iter().zip(want).enumerate() {
            let mut miss = w & !h;
            while miss != 0 {
                parts.push(gadgets[blk * 64 + miss.trailing_zeros() as usize]);
                miss &= miss - 1;
            }
        }
        b.and(parts)
    };

    let mut map: Vec<NnfId> = Vec::with_capacity(nnf.num_nodes());
    let mut children: Vec<NnfId> = Vec::new();
    let mut factored: Vec<NnfId> = Vec::new();
    for (i, node) in nnf.nodes().iter().enumerate() {
        let new_id = match node {
            NnfNode::True => b.true_id(),
            NnfNode::False => b.false_id(),
            NnfNode::Lit(l) => b.lit(*l),
            NnfNode::And(cs) if free[i] => b.and_sealed(cs.iter().map(|&c| map[c as usize])),
            NnfNode::And(cs) => {
                children.clear();
                factored.clear();
                for &c in cs.iter() {
                    let part = if free[c as usize] {
                        &mut factored
                    } else {
                        &mut children
                    };
                    part.push(map[c as usize]);
                }
                match factored.len() {
                    0 => {}
                    1 => children.push(factored[0]),
                    _ => children.push(b.and_sealed(factored.drain(..))),
                }
                b.and(children.drain(..))
            }
            NnfNode::Or(a, c) => {
                let want = &sets[i * blocks..][..blocks];
                let [a, c] = [*a, *c].map(|child| {
                    let has = &sets[child as usize * blocks..][..blocks];
                    pad(&mut b, map[child as usize], has, want)
                });
                b.or(a, c)
            }
        };
        map.push(new_id);
    }
    // Pad the root to cover every group.
    let full: Vec<u64> = (0..blocks)
        .map(|blk| {
            let hi = (num_groups - blk * 64).min(64);
            if hi >= 64 {
                u64::MAX
            } else {
                (1u64 << hi) - 1
            }
        })
        .collect();
    let root = nnf.root() as usize;
    let root = pad(&mut b, map[root], &sets[root * blocks..][..blocks], &full);
    b.extract(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompileOptions};
    use crate::evaluate::{evaluate, AcWeights};
    use qkc_cnf::Cnf;
    use qkc_math::{Complex, C_ONE, C_ZERO};

    #[test]
    fn project_out_sums_over_dropped_vars() {
        // f = XOR(v1, v2): models (1,0) and (0,1); every model mentions v2
        // (the soundness condition for projection, which circuit encodings
        // guarantee for internal states). Projecting v2 sums it out:
        // Σ_{v2} f(v1=b, ·) = 1 for both b.
        let mut f = Cnf::new(2);
        f.add_clause(vec![1, 2]);
        f.add_clause(vec![-1, -2]);
        let c = compile(&f, &CompileOptions::default());
        let p = project_out(&c.nnf, |v| v == 1);
        let mut w = AcWeights::uniform(2);
        w.set(1, C_ONE, C_ZERO); // evidence v1 = 1
        assert!(evaluate(&p, &w).approx_eq(C_ONE, 1e-12));
        w.set(1, C_ZERO, C_ONE); // evidence v1 = 0
        assert!(evaluate(&p, &w).approx_eq(C_ONE, 1e-12));
        // With v2 weighted 2.0 on both polarities before projection the sum
        // doubles — check against the unprojected circuit.
        let mut w2 = AcWeights::uniform(2);
        w2.set(1, C_ONE, C_ZERO);
        w2.set(2, Complex::real(2.0), Complex::real(2.0));
        assert!(evaluate(&c.nnf, &w2).approx_eq(Complex::real(2.0), 1e-12));
    }

    #[test]
    fn project_out_shrinks_circuit() {
        let mut f = Cnf::new(4);
        f.add_clause(vec![1, 2]);
        f.add_clause(vec![-2, 3]);
        f.add_clause(vec![3, 4]);
        let c = compile(&f, &CompileOptions::default());
        let p = project_out(&c.nnf, |v| v == 1);
        assert!(p.num_nodes() <= c.nnf.num_nodes());
        assert_eq!(p.mentioned_vars(), vec![1]);
    }

    #[test]
    fn smoothing_preserves_full_evidence_values() {
        let mut f = Cnf::new(3);
        f.add_clause(vec![1, 2]);
        f.add_clause(vec![-1, 3]);
        let c = compile(&f, &CompileOptions::default());
        let groups: Vec<Vec<i32>> = (1..=3).map(|v| vec![v, -v]).collect();
        let s = smooth(&c.nnf, &groups);
        // Under any full evidence, smoothed and raw circuits agree.
        for mask in 0..8u32 {
            let mut w = AcWeights::uniform(3);
            for v in 1..=3u32 {
                if (mask >> (v - 1)) & 1 == 1 {
                    w.set(v, C_ONE, C_ZERO);
                } else {
                    w.set(v, C_ZERO, C_ONE);
                }
            }
            let raw = evaluate(&c.nnf, &w);
            let smoothed = evaluate(&s, &w);
            assert!(
                smoothed.approx_eq(raw, 1e-12),
                "mask {mask}: {smoothed} vs {raw}"
            );
        }
    }

    #[test]
    fn smoothing_fixes_partial_mention() {
        // f = (v1): v2 never mentioned. Unsmoothed circuit ignores v2's
        // evidence; smoothed circuit respects it.
        let mut f = Cnf::new(2);
        f.add_clause(vec![1]);
        let c = compile(&f, &CompileOptions::default());
        let groups = vec![vec![1, -1], vec![2, -2]];
        let s = smooth(&c.nnf, &groups);
        let mut w = AcWeights::uniform(2);
        w.set(1, C_ONE, C_ZERO);
        w.set(2, C_ZERO, C_ZERO); // impossible evidence for v2
        assert!(evaluate(&s, &w).approx_eq(C_ZERO, 1e-12));
        w.set(2, C_ONE, C_ZERO);
        assert!(evaluate(&s, &w).approx_eq(C_ONE, 1e-12));
    }

    #[test]
    fn smoothing_multivalued_group() {
        // One "3-valued" group of indicator vars 1..3 with an exactly-one
        // constraint, plus an unconstrained binary var group.
        let mut f = Cnf::new(4);
        f.add_clause(vec![1, 2, 3]);
        f.add_clause(vec![-1, -2]);
        f.add_clause(vec![-1, -3]);
        f.add_clause(vec![-2, -3]);
        let c = compile(&f, &CompileOptions::default());
        let groups = vec![vec![1, 2, 3], vec![4, -4]];
        let s = smooth(&c.nnf, &groups);
        // Evidence: indicator value 1 (var 2 true, others false), v4 free.
        let mut w = AcWeights::uniform(4);
        w.set(1, C_ZERO, C_ONE);
        w.set(2, C_ONE, C_ONE);
        w.set(3, C_ZERO, C_ONE);
        // v4 both polarities weight 1 → sums to 2 over v4.
        assert!(evaluate(&s, &w).approx_eq(Complex::real(2.0), 1e-12));
    }

    #[test]
    fn smoothing_factors_parameter_only_children() {
        // Query variable v1; v3..v6 stand for parameters.
        // (v1 ∧ v3 ∧ v4) ∨ (v5 ∧ v6): the left product has two
        // parameter-only children, and the right one mentions no query
        // variable, so the padding multiplies it by v1's gadget.
        let mut b = NnfBuilder::new();
        let [l1, l3, l4, l5, l6] = [1, 3, 4, 5, 6].map(|l| b.lit(l));
        let left = b.and([l1, l3, l4]);
        let right = b.and([l5, l6]);
        let root = b.or(left, right);
        let s = smooth(&b.extract(root), &[vec![1, -1]]);
        // Per node: does it mention v1? Count the products that do and
        // keep two or more children that do not, and the products whose
        // child is a product (the factored ones).
        let mut mentions = Vec::new();
        let (mut unfactored, mut nested) = (0, 0);
        for node in s.nodes() {
            let m = match node {
                NnfNode::Lit(l) => l.abs() == 1,
                NnfNode::Or(a, c) => mentions[*a as usize] || mentions[*c as usize],
                NnfNode::And(cs) => {
                    let free = cs.iter().filter(|&&c| !mentions[c as usize]).count();
                    let m = free < cs.len();
                    unfactored += usize::from(m && free >= 2);
                    nested += cs
                        .iter()
                        .filter(|&&c| matches!(s.nodes()[c as usize], NnfNode::And(_)))
                        .count();
                    m
                }
                _ => false,
            };
            mentions.push(m);
        }
        assert_eq!(unfactored, 0);
        assert_eq!(nested, 2, "one factored product per side");
        // Values are the unfactored ones: x·w3·w4 + (x + y)·w5·w6.
        let mut w = AcWeights::uniform(6);
        let (x, y) = (Complex::new(0.3, -0.2), Complex::new(-0.7, 0.4));
        w.set(1, x, y);
        let p: Vec<Complex> = (3..=6)
            .map(|v| Complex::new(0.1 * v as f64, 1.0 / v as f64))
            .collect();
        for (v, &pv) in (3..=6).zip(&p) {
            w.set(v, pv, C_ZERO);
        }
        let want = x * p[0] * p[1] + (x + y) * p[2] * p[3];
        assert!(evaluate(&s, &w).approx_eq(want, 1e-12));
    }
}

//! Hash-consed d-DNNF / arithmetic-circuit arena.
//!
//! The compiled representation is *deterministic decomposable negation
//! normal form*: AND nodes have variable-disjoint children, OR nodes have
//! logically disjoint children (they branch on a decision variable). Read as
//! an arithmetic circuit — AND = ×, OR = +, literals = weights — it computes
//! a weighted model count; over complex weights, a quantum amplitude
//! (paper §3.2.2, Figure 5).

use crate::fxhash::FxBuildHasher;
use qkc_cnf::Lit;
use std::collections::HashMap;

/// Index of a node in an [`Nnf`] arena.
pub type NnfId = u32;

/// One node of the compiled circuit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NnfNode {
    /// The constant ⊤ (weight 1).
    True,
    /// The constant ⊥ (weight 0).
    False,
    /// A literal leaf; its weight is supplied at evaluation time.
    Lit(Lit),
    /// Conjunction (product) of variable-disjoint children.
    And(Box<[NnfId]>),
    /// Deterministic disjunction (sum) of two disjoint children.
    Or(NnfId, NnfId),
}

/// An immutable, compacted d-DNNF: nodes topologically ordered (children
/// precede parents), with a distinguished root.
#[derive(Debug, Clone)]
pub struct Nnf {
    nodes: Vec<NnfNode>,
    root: NnfId,
}

impl Nnf {
    /// The nodes, children-before-parents.
    pub fn nodes(&self) -> &[NnfNode] {
        &self.nodes
    }

    /// The root node id.
    pub fn root(&self) -> NnfId {
        self.root
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (total child references).
    pub fn num_edges(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                NnfNode::And(cs) => cs.len(),
                NnfNode::Or(..) => 2,
                _ => 0,
            })
            .sum()
    }

    /// Serializes in the c2d `.nnf` text format (the format the paper's
    /// artifact stores compiled circuits in): a header `nnf v e n` followed
    /// by one line per node — `L lit`, `A k children…`, `O j 2 a b`.
    ///
    /// `⊤`/`⊥` are emitted as the empty conjunction `A 0` and empty
    /// disjunction `O 0 0` respectively.
    pub fn to_c2d_format(&self) -> String {
        let mut out = format!(
            "nnf {} {} {}\n",
            self.num_nodes(),
            self.num_edges(),
            self.mentioned_vars().last().copied().unwrap_or(0)
        );
        for node in &self.nodes {
            match node {
                NnfNode::True => out.push_str("A 0\n"),
                NnfNode::False => out.push_str("O 0 0\n"),
                NnfNode::Lit(l) => out.push_str(&format!("L {l}\n")),
                NnfNode::And(cs) => {
                    out.push_str(&format!("A {}", cs.len()));
                    for c in cs.iter() {
                        out.push_str(&format!(" {c}"));
                    }
                    out.push('\n');
                }
                NnfNode::Or(a, b) => out.push_str(&format!("O 0 2 {a} {b}\n")),
            }
        }
        out
    }

    /// The set of variables mentioned by literal leaves.
    pub fn mentioned_vars(&self) -> Vec<u32> {
        let mut vs: Vec<u32> = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                NnfNode::Lit(l) => Some(l.unsigned_abs()),
                _ => None,
            })
            .collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }
}

/// A mutable builder with hash-consing: structurally identical nodes are
/// created once and shared, which both bounds memory and implements the
/// paper's circuit-minimization effect (isomorphic sub-circuits merge).
#[derive(Debug, Default)]
pub struct NnfBuilder {
    nodes: Vec<NnfNode>,
    cache: HashMap<NnfNode, NnfId, FxBuildHasher>,
    /// Per node: a product [`Self::and`] keeps as one child instead of
    /// flattening it (see [`Self::and_sealed`]).
    sealed: Vec<bool>,
}

impl NnfBuilder {
    /// Creates a builder with ⊤ and ⊥ preallocated.
    pub fn new() -> Self {
        let mut b = Self::default();
        b.intern(NnfNode::True);
        b.intern(NnfNode::False);
        b
    }

    /// The ⊤ node.
    pub fn true_id(&self) -> NnfId {
        0
    }

    /// The ⊥ node.
    pub fn false_id(&self) -> NnfId {
        1
    }

    /// Number of nodes created so far (including unreachable ones).
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    fn intern(&mut self, node: NnfNode) -> NnfId {
        if let Some(&id) = self.cache.get(&node) {
            return id;
        }
        let id = self.nodes.len() as NnfId;
        self.nodes.push(node.clone());
        self.sealed.push(false);
        self.cache.insert(node, id);
        id
    }

    /// A literal leaf.
    pub fn lit(&mut self, l: Lit) -> NnfId {
        debug_assert_ne!(l, 0);
        self.intern(NnfNode::Lit(l))
    }

    /// A conjunction. Simplifies: drops ⊤ children, collapses to ⊥ on any ⊥
    /// child, flattens nested ANDs (except sealed ones), sorts and dedups
    /// children.
    pub fn and(&mut self, children: impl IntoIterator<Item = NnfId>) -> NnfId {
        let mut flat: Vec<NnfId> = Vec::new();
        let mut stack: Vec<NnfId> = children.into_iter().collect();
        while let Some(c) = stack.pop() {
            match &self.nodes[c as usize] {
                NnfNode::True => {}
                NnfNode::False => return self.false_id(),
                NnfNode::And(cs) if !self.sealed[c as usize] => stack.extend(cs.iter().copied()),
                _ => flat.push(c),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        match flat.len() {
            0 => self.true_id(),
            1 => flat[0],
            _ => self.intern(NnfNode::And(flat.into_boxed_slice())),
        }
    }

    /// [`Self::and`], sealed: when the result is a product, every later
    /// `and` keeps it as one child instead of flattening it. The mark is
    /// on the hash-consed node, so it holds for every equal product,
    /// however it was built.
    pub fn and_sealed(&mut self, children: impl IntoIterator<Item = NnfId>) -> NnfId {
        let id = self.and(children);
        if matches!(self.nodes[id as usize], NnfNode::And(_)) {
            self.sealed[id as usize] = true;
        }
        id
    }

    /// A sum node. Simplifies ⊥ children away. The compiler only ever
    /// builds deterministic (disjoint) disjunctions; transformation passes
    /// such as projection may produce `Or(a, a)`, which correctly evaluates
    /// to `2·a` (summing a projected variable's two phases).
    pub fn or(&mut self, a: NnfId, b: NnfId) -> NnfId {
        if a == self.false_id() {
            return b;
        }
        if b == self.false_id() {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(NnfNode::Or(a, b))
    }

    /// Extracts the sub-DAG reachable from `root` into a compact [`Nnf`]
    /// with renumbered, topologically ordered ids.
    pub fn extract(&self, root: NnfId) -> Nnf {
        const UNSEEN: NnfId = NnfId::MAX;
        let mut map: Vec<NnfId> = vec![UNSEEN; self.nodes.len()];
        let mut out: Vec<NnfNode> = Vec::new();
        // Iterative post-order to renumber children first.
        let mut stack: Vec<(NnfId, bool)> = vec![(root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if map[id as usize] != UNSEEN {
                continue;
            }
            if expanded {
                let node = match &self.nodes[id as usize] {
                    NnfNode::And(cs) => NnfNode::And(cs.iter().map(|&c| map[c as usize]).collect()),
                    NnfNode::Or(a, b) => NnfNode::Or(map[*a as usize], map[*b as usize]),
                    other => other.clone(),
                };
                map[id as usize] = out.len() as NnfId;
                out.push(node);
            } else {
                stack.push((id, true));
                match &self.nodes[id as usize] {
                    NnfNode::And(cs) => {
                        stack.extend(cs.iter().map(|&c| (c, false)));
                    }
                    NnfNode::Or(a, b) => {
                        stack.push((*a, false));
                        stack.push((*b, false));
                    }
                    _ => {}
                }
            }
        }
        Nnf {
            root: map[root as usize],
            nodes: out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_structure() {
        let mut b = NnfBuilder::new();
        let x = b.lit(1);
        let y = b.lit(2);
        let a1 = b.and([x, y]);
        let a2 = b.and([y, x]); // same set, different order
        assert_eq!(a1, a2);
        assert_eq!(b.lit(1), x);
    }

    #[test]
    fn and_simplifications() {
        let mut b = NnfBuilder::new();
        let x = b.lit(1);
        let t = b.true_id();
        let f = b.false_id();
        assert_eq!(b.and([x, t]), x);
        assert_eq!(b.and([x, f]), f);
        assert_eq!(b.and([]), t);
        // Nested ANDs flatten.
        let y = b.lit(2);
        let inner = b.and([x, y]);
        let z = b.lit(3);
        let outer = b.and([inner, z]);
        match b.extract(outer).nodes().last().unwrap() {
            NnfNode::And(cs) => assert_eq!(cs.len(), 3),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn or_simplifications() {
        let mut b = NnfBuilder::new();
        let x = b.lit(1);
        let f = b.false_id();
        assert_eq!(b.or(x, f), x);
        assert_eq!(b.or(f, x), x);
        let y = b.lit(-1);
        let o1 = b.or(x, y);
        let o2 = b.or(y, x);
        assert_eq!(o1, o2, "OR is canonicalized by child order");
    }

    #[test]
    fn extract_renumbers_topologically() {
        let mut b = NnfBuilder::new();
        let x = b.lit(1);
        let nx = b.lit(-1);
        let y = b.lit(2);
        let left = b.and([x, y]);
        let right = b.and([nx, y]);
        let root = b.or(left, right);
        let nnf = b.extract(root);
        assert_eq!(nnf.root() as usize, nnf.num_nodes() - 1);
        // Children precede parents.
        for (i, n) in nnf.nodes().iter().enumerate() {
            match n {
                NnfNode::And(cs) => assert!(cs.iter().all(|&c| (c as usize) < i)),
                NnfNode::Or(a, b) => {
                    assert!((*a as usize) < i && (*b as usize) < i);
                }
                _ => {}
            }
        }
        // y is shared: 5 nodes total (x, nx, y, 2 ands, or) minus... count:
        assert_eq!(nnf.num_nodes(), 6);
        assert_eq!(nnf.num_edges(), 6);
        assert_eq!(nnf.mentioned_vars(), vec![1, 2]);
    }

    #[test]
    fn c2d_export_round_trips_counts() {
        let mut b = NnfBuilder::new();
        let x = b.lit(1);
        let nx = b.lit(-1);
        let y = b.lit(2);
        let left = b.and([x, y]);
        let right = b.and([nx, y]);
        let root = b.or(left, right);
        let nnf = b.extract(root);
        let text = nnf.to_c2d_format();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert_eq!(
            header,
            format!("nnf {} {} 2", nnf.num_nodes(), nnf.num_edges())
        );
        assert_eq!(lines.clone().count(), nnf.num_nodes());
        assert_eq!(lines.filter(|l| l.starts_with('L')).count(), 3);
    }
}

//! The CNF → d-DNNF knowledge compiler (paper §3.2.2).
//!
//! This is the workspace's stand-in for UCLA's c2d: exhaustive DPLL search
//! that records its trace as a d-DNNF circuit. The three classic ingredients
//! are all here:
//!
//! 1. **Unit propagation (BCP)** — implied literals become AND conjuncts;
//! 2. **Component decomposition** — when the residual clauses split into
//!    variable-disjoint parts, each part is compiled independently and the
//!    results conjoined (this is where quantum circuits' locality pays off);
//! 3. **Component caching** — residual components are memoized, so isomorphic
//!    sub-problems (e.g. repeated circuit layers) compile once.
//!
//! Branching follows a static [`VarOrder`]; the compile may take time
//! exponential in the worst case (the paper's RCS workloads), but the
//! compiled circuit is then reused across every simulation query.
//!
//! # Data layout
//!
//! Every search node works on flat arrays built once per compile and
//! indexed by clause or variable id:
//!
//! * `Clauses`: all literals in one arena with per-clause offsets (CSR),
//!   and each variable's ascending list of the clauses it occurs in;
//! * `Assignment`: one value per variable, plus the trail that undoes it;
//! * `Scratch`: union-find parents, component slots and propagation queue
//!   marks. An entry is live only while its stamp equals the current
//!   generation, so taking a new generation resets them all at once; the
//!   stamps are cleared for real only when the 32-bit counter would wrap.
//!
//! After propagation, one pass over a node's clauses skips the satisfied
//! ones and unites the variables of the rest. Short passes over the open
//! clauses and the variables it met then yield, per component, the clause
//! ids (ascending) and sorted unassigned variables that form its cache key,
//! and its decision variable. The key is hashed with the crate's Fx-style
//! hasher.
//!
//! # Output contract
//!
//! [`NnfBuilder`] numbers nodes in creation order, AND nodes sort their
//! children by id, and [`NnfBuilder::extract`] renumbers nodes by walking
//! that child order. So the order in which the search creates nodes fixes
//! the compiled node numbering, and with it the tape layout and its bytes.
//! The search therefore keeps every order that reaches the builder fixed:
//!
//! * Implied literals are created in the order a round-robin scan over the
//!   node's clauses finds them, pass after pass until a pass changes
//!   nothing. Propagation visits only clauses whose status can have changed
//!   — every clause at the root, the decision variable's occurrences below
//!   it, then each implied variable's occurrences — but in exactly that
//!   scan order: a clause touched while the scan stands at clause `p` is
//!   visited later in the same pass if its id is greater than `p`, and in
//!   the next pass otherwise.
//! * Components are compiled in order of their first clause id.
//! * A decision compiles its true phase before its false phase, and each
//!   phase's literal node is created after the phase's sub-circuit.
//! * The decision is the component's lowest-rank unassigned variable.
//!
//! The cache key is the component's clause ids, `u32::MAX`, then its
//! unassigned variables, both ascending: an assigned variable inside an
//! open clause is always false, so the pair fixes the residual formula.

use crate::fxhash::FxBuildHasher;
use crate::nnf::{Nnf, NnfBuilder, NnfId};
use crate::order::{compute_ranks_balanced, VarOrder, DEFAULT_SEPARATOR_BALANCE};
use qkc_cnf::{lit_sign, lit_var, Cnf, Lit};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Compiler configuration.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Decision-variable order.
    pub order: VarOrder,
    /// Enable component caching (disable only for ablation benchmarks).
    pub cache: bool,
    /// Bisection split fraction for [`VarOrder::MinCutSeparator`] (see
    /// [`compute_ranks_balanced`]); `0.5` is the balanced default.
    pub separator_balance: f64,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            order: VarOrder::MinCutSeparator,
            cache: true,
            separator_balance: DEFAULT_SEPARATOR_BALANCE,
        }
    }
}

/// Statistics from one compilation.
#[derive(Debug, Clone, Default)]
pub struct CompileStats {
    /// Number of decision branches explored.
    pub decisions: u64,
    /// Component-cache hits.
    pub cache_hits: u64,
    /// Components created (cache misses).
    pub components: u64,
    /// Wall time spent computing the variable order (min-cut ranks).
    pub order_seconds: f64,
    /// Wall time spent in the DPLL/d-DNNF exhaustive search itself.
    pub search_seconds: f64,
}

/// The result of compilation.
#[derive(Debug)]
pub struct Compiled {
    /// The d-DNNF circuit.
    pub nnf: Nnf,
    /// Search statistics.
    pub stats: CompileStats,
}

/// Compiles a CNF into d-DNNF.
///
/// # Examples
///
/// ```
/// use qkc_cnf::Cnf;
/// use qkc_knowledge::{compile, CompileOptions};
///
/// let mut f = Cnf::new(2);
/// f.add_clause(vec![1, 2]);
/// let compiled = compile(&f, &CompileOptions::default());
/// assert!(compiled.nnf.num_nodes() >= 3);
/// ```
pub fn compile(cnf: &Cnf, options: &CompileOptions) -> Compiled {
    // Deep recursion scales with variable count; run on a dedicated thread
    // with a generous stack so large circuits cannot overflow. The thread
    // is scoped, so it borrows the formula instead of copying it.
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("qkc-compile".into())
            .stack_size(512 << 20)
            .spawn_scoped(scope, || compile_on_this_thread(cnf, options))
            .expect("spawn compiler thread")
            .join()
            .expect("compiler thread panicked")
    })
}

fn compile_on_this_thread(cnf: &Cnf, options: &CompileOptions) -> Compiled {
    let order_start = Instant::now();
    let ranks = compute_ranks_balanced(cnf, options.order, options.separator_balance);
    let order_seconds = order_start.elapsed().as_secs_f64();
    let search_start = Instant::now();
    let mut dpll = Dpll::new(cnf, ranks, options.cache);
    let root = dpll.solve_root();
    let search_seconds = search_start.elapsed().as_secs_f64();
    Compiled {
        nnf: dpll.builder.extract(root),
        stats: CompileStats {
            order_seconds,
            search_seconds,
            ..dpll.stats
        },
    }
}

/// The formula in flat form.
struct Clauses {
    /// Clause `c`'s literals are `lits[start[c]..start[c + 1]]`.
    lits: Vec<Lit>,
    start: Vec<u32>,
    /// The ids of the clauses each (1-based) variable occurs in, ascending.
    occurs: Vec<Vec<u32>>,
}

impl Clauses {
    fn new(cnf: &Cnf) -> Self {
        let mut lits = Vec::with_capacity(cnf.clauses().iter().map(Vec::len).sum());
        let mut start = Vec::with_capacity(cnf.num_clauses() + 1);
        let mut occurs = vec![Vec::new(); cnf.num_vars() + 1];
        start.push(0);
        for (c, clause) in cnf.clauses().iter().enumerate() {
            let c = c as u32;
            for &l in clause {
                let occ: &mut Vec<u32> = &mut occurs[lit_var(l) as usize];
                if occ.last() != Some(&c) {
                    occ.push(c);
                }
            }
            lits.extend_from_slice(clause);
            start.push(lits.len() as u32);
        }
        Self {
            lits,
            start,
            occurs,
        }
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }

    #[inline]
    fn clause(&self, c: u32) -> &[Lit] {
        &self.lits[self.start[c as usize] as usize..self.start[c as usize + 1] as usize]
    }
}

enum ClauseStatus {
    Satisfied,
    Unit(Lit),
    Conflict,
    Open,
}

/// The partial assignment.
struct Assignment {
    /// 0 unassigned, 1 true, -1 false (1-based variables).
    values: Vec<i8>,
    /// Assigned variables in assignment order, for undo.
    trail: Vec<u32>,
}

impl Assignment {
    #[inline]
    fn value(&self, l: Lit) -> i8 {
        let a = self.values[lit_var(l) as usize];
        if lit_sign(l) {
            a
        } else {
            -a
        }
    }

    /// The true literal of an assigned variable.
    fn lit(&self, v: u32) -> Lit {
        if self.values[v as usize] > 0 {
            v as Lit
        } else {
            -(v as Lit)
        }
    }

    fn status(&self, clause: &[Lit]) -> ClauseStatus {
        let mut unassigned: Option<Lit> = None;
        let mut count = 0;
        for &l in clause {
            match self.value(l) {
                1 => return ClauseStatus::Satisfied,
                0 => {
                    count += 1;
                    unassigned = Some(l);
                }
                _ => {}
            }
        }
        match count {
            0 => ClauseStatus::Conflict,
            1 => ClauseStatus::Unit(unassigned.expect("one unassigned literal")),
            _ => ClauseStatus::Open,
        }
    }

    fn assign(&mut self, l: Lit) {
        let v = lit_var(l);
        debug_assert_eq!(self.values[v as usize], 0);
        self.values[v as usize] = if lit_sign(l) { 1 } else { -1 };
        self.trail.push(v);
    }

    fn undo_to(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.values[v as usize] = 0;
        }
    }
}

/// One variable-disjoint part of a search node's open clauses.
struct Component {
    /// The cache key: clause ids (ascending), `u32::MAX`, then the
    /// unassigned variables (ascending).
    key: Vec<u32>,
    /// How many clause ids lead the key.
    clauses: usize,
    /// The lowest-rank unassigned variable, branched on at a cache miss.
    decision: u32,
}

/// No union-find root, component slot or decision yet.
const NONE: u32 = u32::MAX;

/// Per-compile working arrays, shared by every search node. Each use takes
/// a fresh generation; a per-variable or per-clause entry counts only while
/// its stamp equals the generation that wrote it.
struct Scratch {
    generation: u32,
    /// Per variable: the component pass that last met it.
    var_stamp: Vec<u32>,
    /// Per variable: its union-find parent in that pass.
    parent: Vec<u32>,
    /// Per variable: the component index of a union-find root, or `NONE`.
    slot: Vec<u32>,
    /// Per clause: the propagation pass it is queued in.
    queued: Vec<u32>,
    /// Per clause: the propagation pass that deferred it to the next one.
    deferred: Vec<u32>,
    /// Clauses still to visit in the current propagation pass.
    pass: BinaryHeap<Reverse<u32>>,
    /// Clauses to visit in the next propagation pass.
    next: Vec<u32>,
    /// A component pass's open clauses, each with a variable of its set.
    open: Vec<(u32, u32)>,
    /// A component pass's unassigned variables, in first-occurrence order.
    vars: Vec<u32>,
}

impl Scratch {
    fn new(num_vars: usize, num_clauses: usize) -> Self {
        Self {
            generation: 0,
            var_stamp: vec![0; num_vars + 1],
            parent: vec![0; num_vars + 1],
            slot: vec![0; num_vars + 1],
            queued: vec![0; num_clauses],
            deferred: vec![0; num_clauses],
            pass: BinaryHeap::new(),
            next: Vec::new(),
            open: Vec::new(),
            vars: Vec::new(),
        }
    }

    /// A generation no live stamp carries. Clears every stamp first when
    /// the counter would wrap.
    fn fresh(&mut self) -> u32 {
        if self.generation == u32::MAX {
            self.var_stamp.fill(0);
            self.queued.fill(0);
            self.deferred.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.generation
    }

    /// Unit propagation to fixpoint over a node's clauses, visiting them
    /// in round-robin scan order (see the module docs). `touched` lists the
    /// clauses whose status may have changed since the node's clauses were
    /// last at fixpoint. Returns `false` on a conflict;
    /// assignments stay on the trail either way, and the caller undoes.
    ///
    /// An occurrence list may name clauses outside the node. Those are
    /// satisfied — the variable was unassigned, and so inside the node's
    /// component, whenever an ancestor split the clauses — and visiting
    /// them changes nothing.
    fn propagate(&mut self, clauses: &Clauses, assign: &mut Assignment, touched: &[u32]) -> bool {
        self.next.extend_from_slice(touched);
        while !self.next.is_empty() {
            let g = self.fresh();
            for &c in &self.next {
                self.queued[c as usize] = g;
            }
            self.pass.extend(self.next.drain(..).map(Reverse));
            while let Some(Reverse(p)) = self.pass.pop() {
                match assign.status(clauses.clause(p)) {
                    ClauseStatus::Conflict => {
                        self.pass.clear();
                        self.next.clear();
                        return false;
                    }
                    ClauseStatus::Unit(l) => {
                        assign.assign(l);
                        for &c in &clauses.occurs[lit_var(l) as usize] {
                            if c > p {
                                if self.queued[c as usize] != g {
                                    self.queued[c as usize] = g;
                                    self.pass.push(Reverse(c));
                                }
                            } else if self.deferred[c as usize] != g {
                                self.deferred[c as usize] = g;
                                self.next.push(c);
                            }
                        }
                    }
                    ClauseStatus::Satisfied | ClauseStatus::Open => {}
                }
            }
        }
        true
    }

    /// Splits the open clauses among `ids` (ascending, at propagation
    /// fixpoint) into variable-disjoint components, in order of their first
    /// clause.
    fn components(
        &mut self,
        clauses: &Clauses,
        assign: &Assignment,
        ranks: &[u32],
        ids: &[u32],
    ) -> Vec<Component> {
        let g = self.fresh();
        self.open.clear();
        self.vars.clear();
        for &c in ids {
            let lits = clauses.clause(c);
            if lits.iter().any(|&l| assign.value(l) == 1) {
                continue;
            }
            debug_assert!(matches!(assign.status(lits), ClauseStatus::Open));
            // Every unassigned variable of the clause joins `root`'s set; a
            // variable met for the first time hangs directly off it.
            let mut root = NONE;
            for &l in lits {
                if assign.value(l) != 0 {
                    continue;
                }
                let v = lit_var(l);
                if self.var_stamp[v as usize] != g {
                    self.var_stamp[v as usize] = g;
                    self.slot[v as usize] = NONE;
                    self.vars.push(v);
                    if root == NONE {
                        root = v;
                    }
                    self.parent[v as usize] = root;
                } else {
                    let r = find(&mut self.parent, v);
                    if root == NONE {
                        root = r;
                    } else if r != root {
                        self.parent[r as usize] = root;
                    }
                }
            }
            self.open.push((c, root));
        }

        let mut comps: Vec<Component> = Vec::new();
        for &(c, v) in &self.open {
            let root = find(&mut self.parent, v) as usize;
            if self.slot[root] == NONE {
                self.slot[root] = comps.len() as u32;
                comps.push(Component {
                    key: Vec::new(),
                    clauses: 0,
                    decision: NONE,
                });
            }
            comps[self.slot[root] as usize].key.push(c);
        }
        for comp in &mut comps {
            comp.clauses = comp.key.len();
            comp.key.push(u32::MAX);
        }
        // `vars` is in first-occurrence order, so a strict `<` keeps the
        // first minimum in clause/literal order.
        for &v in &self.vars {
            let comp = &mut comps[self.slot[find(&mut self.parent, v) as usize] as usize];
            if comp.decision == NONE || ranks[v as usize] < ranks[comp.decision as usize] {
                comp.decision = v;
            }
            comp.key.push(v);
        }
        for comp in &mut comps {
            comp.key[comp.clauses + 1..].sort_unstable();
        }
        comps
    }
}

/// Union-find root of `v`, halving the path on the way.
fn find(parent: &mut [u32], mut v: u32) -> u32 {
    while parent[v as usize] != v {
        let up = parent[parent[v as usize] as usize];
        parent[v as usize] = up;
        v = up;
    }
    v
}

/// The search state of one compile.
struct Dpll {
    clauses: Clauses,
    assign: Assignment,
    ranks: Vec<u32>,
    scratch: Scratch,
    builder: NnfBuilder,
    cache: HashMap<Box<[u32]>, NnfId, FxBuildHasher>,
    use_cache: bool,
    stats: CompileStats,
}

impl Dpll {
    fn new(cnf: &Cnf, ranks: Vec<u32>, use_cache: bool) -> Self {
        Self {
            clauses: Clauses::new(cnf),
            assign: Assignment {
                values: vec![0; cnf.num_vars() + 1],
                trail: Vec::new(),
            },
            ranks,
            scratch: Scratch::new(cnf.num_vars(), cnf.num_clauses()),
            builder: NnfBuilder::new(),
            cache: HashMap::default(),
            use_cache,
            stats: CompileStats::default(),
        }
    }

    /// Compiles the whole formula; returns the root node.
    fn solve_root(&mut self) -> NnfId {
        let all: Vec<u32> = (0..self.clauses.len() as u32).collect();
        self.solve(&all, None)
    }

    /// Compiles the sub-formula given by `ids` (ascending) under the
    /// current assignment, right after `decision` was assigned (`None` at
    /// the root).
    fn solve(&mut self, ids: &[u32], decision: Option<u32>) -> NnfId {
        let mark = self.assign.trail.len();
        let touched = match decision {
            Some(v) => &self.clauses.occurs[v as usize][..],
            None => ids,
        };
        if !self
            .scratch
            .propagate(&self.clauses, &mut self.assign, touched)
        {
            self.assign.undo_to(mark);
            return self.builder.false_id();
        }
        // Implied literals become conjuncts, in propagation order.
        let mut conjuncts: Vec<NnfId> = Vec::new();
        for &v in &self.assign.trail[mark..] {
            conjuncts.push(self.builder.lit(self.assign.lit(v)));
        }

        let comps = self
            .scratch
            .components(&self.clauses, &self.assign, &self.ranks, ids);
        for comp in comps {
            if self.use_cache {
                if let Some(&hit) = self.cache.get(&comp.key[..]) {
                    self.stats.cache_hits += 1;
                    conjuncts.push(hit);
                    continue;
                }
            }
            self.stats.components += 1;
            let id = self.branch(&comp);
            if self.use_cache {
                self.cache.insert(comp.key.into_boxed_slice(), id);
            }
            if id == self.builder.false_id() {
                self.assign.undo_to(mark);
                return self.builder.false_id();
            }
            conjuncts.push(id);
        }
        let result = self.builder.and(conjuncts);
        self.assign.undo_to(mark);
        result
    }

    /// Decides the component's decision variable and recurses into both
    /// phases, true first.
    fn branch(&mut self, comp: &Component) -> NnfId {
        self.stats.decisions += 1;
        let v = comp.decision;
        let mut branches = [self.builder.false_id(); 2];
        for (branch, lit) in branches.iter_mut().zip([v as Lit, -(v as Lit)]) {
            let mark = self.assign.trail.len();
            self.assign.assign(lit);
            let sub = self.solve(&comp.key[..comp.clauses], Some(v));
            self.assign.undo_to(mark);
            let lit_node = self.builder.lit(lit);
            *branch = self.builder.and([lit_node, sub]);
        }
        self.builder.or(branches[0], branches[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{evaluate, AcWeights};
    use qkc_math::{Complex, C_ONE};

    /// Unweighted model count via the compiled circuit. Toy formulas (unlike
    /// circuit encodings) can leave variables branch-locally free, so we
    /// smooth over every variable before counting.
    fn model_count(cnf: &Cnf, options: &CompileOptions) -> f64 {
        let compiled = compile(cnf, options);
        let groups: Vec<Vec<Lit>> = (1..=cnf.num_vars() as i32).map(|v| vec![v, -v]).collect();
        let smoothed = crate::transform::smooth(&compiled.nnf, &groups);
        let weights = AcWeights::uniform(cnf.num_vars());
        evaluate(&smoothed, &weights).re
    }

    fn brute_force_count(cnf: &Cnf) -> f64 {
        let n = cnf.num_vars();
        let mut count = 0u64;
        for mask in 0..1u64 << n {
            let a: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
            if cnf.is_satisfied_by(&a) {
                count += 1;
            }
        }
        count as f64
    }

    fn check_count(cnf: &Cnf) {
        let want = brute_force_count(cnf);
        for order in [VarOrder::Lexicographic, VarOrder::MinCutSeparator] {
            for cache in [true, false] {
                let got = model_count(
                    cnf,
                    &CompileOptions {
                        order,
                        cache,
                        ..Default::default()
                    },
                );
                assert!(
                    (got - want).abs() < 1e-6,
                    "order {order:?} cache {cache}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn counts_simple_formulas() {
        let mut f = Cnf::new(2);
        f.add_clause(vec![1, 2]);
        check_count(&f); // 3 models

        let mut g = Cnf::new(3);
        g.add_clause(vec![1, 2]);
        g.add_clause(vec![-2, 3]);
        check_count(&g);

        let mut h = Cnf::new(4);
        h.add_clause(vec![1, 2]);
        h.add_clause(vec![3, 4]);
        h.add_clause(vec![-1, -3]);
        check_count(&h);
    }

    #[test]
    fn counts_xor_chain() {
        // XOR chains are the hard case for naive enumeration but have
        // compact d-DNNFs under a good order.
        let n = 8;
        let mut f = Cnf::new(n);
        for v in 1..n as i32 {
            f.add_clause(vec![v, v + 1]);
            f.add_clause(vec![-v, -(v + 1)]);
        }
        check_count(&f); // exactly 2 models
    }

    #[test]
    fn unsatisfiable_formula_compiles_to_false() {
        let mut f = Cnf::new(1);
        f.add_clause(vec![1]);
        f.add_clause(vec![-1]);
        let c = compile(&f, &CompileOptions::default());
        let w = AcWeights::uniform(1);
        assert_eq!(evaluate(&c.nnf, &w), qkc_math::C_ZERO);
    }

    #[test]
    fn weighted_count_with_complex_weights() {
        // f = (v1) ∧ (v2 ∨ v3): WMC = w(+1)·[w(+2)w(+3)+w(+2)w(-3)+w(-2)w(+3)]
        let mut f = Cnf::new(3);
        f.add_clause(vec![1]);
        f.add_clause(vec![2, 3]);
        let c = compile(&f, &CompileOptions::default());
        let groups: Vec<Vec<Lit>> = (1..=3).map(|v| vec![v, -v]).collect();
        let nnf = crate::transform::smooth(&c.nnf, &groups);
        let mut w = AcWeights::uniform(3);
        w.set(1, Complex::imag(1.0), C_ONE);
        w.set(2, Complex::real(0.5), C_ONE);
        w.set(3, Complex::real(2.0), Complex::real(3.0));
        // models over (2,3): (T,T)=1.0, (T,F)=1.5, (F,T)=2.0 → 4.5 · i
        let got = evaluate(&nnf, &w);
        assert!(got.approx_eq(Complex::imag(4.5), 1e-12));
    }

    #[test]
    fn cache_hits_on_repeated_structure() {
        // Both phases of the decision on v1 imply v2 and leave the same
        // residual clause (¬3 ∨ 4 ∨ 5), so its sub-circuit is compiled once
        // and reused.
        let mut f = Cnf::new(5);
        f.add_clause(vec![1, 2]);
        f.add_clause(vec![-1, 2]);
        f.add_clause(vec![2, 3, 4]);
        f.add_clause(vec![-3, 4, 5]);
        check_count(&f);
        let options = |cache| CompileOptions {
            order: VarOrder::Lexicographic,
            cache,
            ..Default::default()
        };
        let cached = compile(&f, &options(true)).stats;
        let uncached = compile(&f, &options(false)).stats;
        assert!(cached.cache_hits >= 1, "{cached:?}");
        assert!(
            cached.decisions < uncached.decisions,
            "{cached:?} vs {uncached:?}"
        );
        assert_eq!(uncached.cache_hits, 0);
        assert_eq!(
            model_count(&f, &options(true)),
            model_count(&f, &options(false))
        );
    }

    #[test]
    fn stamps_survive_generation_wraparound() {
        // The reset itself: once the counter wraps, no stamp written in its
        // previous cycle may read as live.
        let mut s = Scratch::new(3, 3);
        for stamps in [&mut s.var_stamp, &mut s.queued, &mut s.deferred] {
            stamps.fill(1);
        }
        s.generation = u32::MAX;
        assert_eq!(s.fresh(), 1);
        assert!(s
            .var_stamp
            .iter()
            .chain(&s.queued)
            .chain(&s.deferred)
            .all(|&x| x == 0));

        // Searches that cross the wrap at different points, with every
        // stamp left at a small generation from earlier in the cycle (so
        // that the restarted counter meets it again), build exactly the
        // circuit a fresh search does.
        let n = 10;
        let mut f = Cnf::new(n);
        for v in 1..n as i32 {
            f.add_clause(vec![v, v + 1]);
            f.add_clause(vec![-v, -(v + 1), (v % 3) + 1]);
        }
        let run = |generation: u32, stale: bool| {
            let ranks =
                compute_ranks_balanced(&f, VarOrder::MinCutSeparator, DEFAULT_SEPARATOR_BALANCE);
            let mut dpll = Dpll::new(&f, ranks, true);
            let s = &mut dpll.scratch;
            s.generation = generation;
            if stale {
                for stamps in [&mut s.var_stamp, &mut s.queued, &mut s.deferred] {
                    for (i, stamp) in stamps.iter_mut().enumerate() {
                        *stamp = 1 + i as u32 % 4;
                    }
                }
            }
            let root = dpll.solve_root();
            let nnf = dpll.builder.extract(root).to_c2d_format();
            let stats = (dpll.stats.decisions, dpll.stats.cache_hits);
            (nnf, stats, dpll.scratch.generation)
        };
        let (want, stats, used) = run(0, false);
        assert!(used > 16, "the search must outlast the headroom");
        for headroom in [0, 1, 2, 5, 16] {
            let (got, wrapped_stats, end) = run(u32::MAX - headroom, true);
            assert_eq!(
                end,
                used - headroom,
                "headroom {headroom}: the counter wrapped"
            );
            assert_eq!(got, want, "headroom {headroom}");
            assert_eq!(wrapped_stats, stats, "headroom {headroom}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn random_3cnf_counts_match_brute_force(
            seed_clauses in proptest::collection::vec(
                (1u32..8, 1u32..8, 1u32..8, proptest::bits::u8::ANY),
                1..14,
            ),
        ) {
            let mut f = Cnf::new(8);
            for (a, b, c, signs) in seed_clauses {
                let mut clause: Vec<Lit> = Vec::new();
                for (i, v) in [a, b, c].into_iter().enumerate() {
                    let l = if (signs >> i) & 1 == 1 { v as Lit } else { -(v as Lit) };
                    if !clause.contains(&l) && !clause.contains(&-l) {
                        clause.push(l);
                    }
                }
                if !clause.is_empty() {
                    f.add_clause(clause);
                }
            }
            let want = brute_force_count(&f);
            if want == 0.0 {
                // UNSAT: circuit must evaluate to 0.
                let c = compile(&f, &CompileOptions::default());
                let w = AcWeights::uniform(8);
                proptest::prop_assert!(evaluate(&c.nnf, &w).approx_zero(1e-9));
            } else {
                check_count(&f);
            }
        }
    }
}

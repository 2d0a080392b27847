//! Certifying static verifier for compiled artifacts.
//!
//! Weighted model counting over an [`AcTape`] is only *sound* if the
//! compiled circuit really is a well-formed d-DNNF: products must be
//! decomposable (children over disjoint variables), sums deterministic
//! (mutually exclusive branches), and the circuit smooth over every query
//! variable group — properties [`crate::nnf`] calls "the producer's
//! contract". Artifacts now arrive from three producers (fresh compile,
//! wire decode, cache rehydration from a spill directory that fault
//! injection proved can be torn or hostile), so this module checks the
//! contract instead of assuming it: a multi-pass analyzer over the tape IR
//! that emits a structured [`VerifyReport`] of per-finding pass, severity,
//! slot, and message.
//!
//! # Passes
//!
//! * [`VerifyPass::TapeWellFormed`] — topological instruction order, CSR
//!   child-buffer bounds and arity, root reachability, no dead
//!   instructions (the pruning contract), sorted/unique in-bounds
//!   literal→slot table, in-bounds constant pool, no non-finite constants.
//!   These are exactly the checks [`AcTape::from_bytes`] enforces (it
//!   delegates to [`structural_violations`], so decode hardening and
//!   verification cannot drift).
//! * [`VerifyPass::Decomposability`] — every product's children carry
//!   pairwise-disjoint variable sets (one bottom-up interned-bitset pass).
//! * [`VerifyPass::Determinism`] — every sum exhibits a syntactic
//!   mutual-exclusion witness: a conflicting decision literal between its
//!   branches, or two distinct indicators of one exactly-one query group.
//!   Sums with no witness (projection sums, smoothing-gadget chains) are
//!   reported [`Severity::Unverified`], never silently passed.
//! * [`VerifyPass::Smoothness`] — both children of every sum mention the
//!   same query variable groups, and the root mentions all of them
//!   (the property [`crate::smooth`] establishes; required for evidence
//!   conditioning by weight-clamping to be exact).
//! * [`VerifyPass::SlotLiveness`] — weight-slot coverage: slots never read
//!   by any literal instruction are reported, and
//!   [`verify_tangent_plan`] checks a [`TangentPlan`]'s slot references
//!   against the tape.
//!
//! # Severity model
//!
//! [`Severity::Error`] findings mean the artifact must not be trusted
//! (structural corruption, non-decomposable product, unsmooth sum).
//! [`Severity::Warning`] marks suspicious-but-sound shapes (dead weight
//! slots, model-layer tolerance drift). [`Severity::Unverified`] marks
//! properties the syntactic analysis could not certify either way.
//! [`VerifyReport::is_clean`] is "no errors" — warnings and unverified
//! findings do not fail an artifact.

use crate::evaluate::AcWeights;
use crate::tape::{AcTape, TangentPlan, TapeDecodeError, TapeId, TapeOp, TapeOpKind};
use qkc_cnf::Lit;
use qkc_math::Complex;
use std::collections::HashMap;
use std::time::Instant;

/// How much of the analyzer to run.
///
/// Levels are ordered: each level includes everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum VerifyLevel {
    /// Run nothing; [`verify_tape`] returns an empty report.
    Off,
    /// Tape well-formedness only — the checks decode already enforces.
    Structural,
    /// All passes: structural plus semantic d-DNNF certification and slot
    /// liveness.
    Full,
}

impl Default for VerifyLevel {
    /// [`VerifyLevel::Full`] in debug builds (tests certify every
    /// artifact), [`VerifyLevel::Off`] in release builds (verification
    /// stays off the hot path).
    fn default() -> Self {
        if cfg!(debug_assertions) {
            VerifyLevel::Full
        } else {
            VerifyLevel::Off
        }
    }
}

/// The analyzer pass that produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyPass {
    /// Structural tape IR checks (shared with [`AcTape::from_bytes`]).
    TapeWellFormed,
    /// Pairwise-disjoint product children.
    Decomposability,
    /// Syntactic mutual-exclusion witnesses at sums.
    Determinism,
    /// Equal query-group coverage across sum children; full coverage at
    /// the root.
    Smoothness,
    /// Weight-slot coverage and tangent-plan reference validity.
    SlotLiveness,
    /// Model-layer lints at the bayesnet/circuit boundary (CPT
    /// row-stochasticity, unitarity within tolerance). Emitted by
    /// `qkc_core`, which owns the model layer.
    ModelLints,
}

impl VerifyPass {
    /// Stable snake_case pass name (used in reports and telemetry paths).
    pub fn name(self) -> &'static str {
        match self {
            VerifyPass::TapeWellFormed => "tape_well_formed",
            VerifyPass::Decomposability => "decomposability",
            VerifyPass::Determinism => "determinism",
            VerifyPass::Smoothness => "smoothness",
            VerifyPass::SlotLiveness => "slot_liveness",
            VerifyPass::ModelLints => "model_lints",
        }
    }
}

impl std::fmt::Display for VerifyPass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How bad a finding is. Ordered: `Unverified < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The analysis could not certify the property either way.
    Unverified,
    /// Suspicious but sound; the artifact may still be trusted.
    Warning,
    /// The artifact violates an invariant and must not be trusted.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Unverified => "unverified",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One analyzer finding: which pass fired, how severe, where, and why.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The pass that produced this finding.
    pub pass: VerifyPass,
    /// How bad it is.
    pub severity: Severity,
    /// The tape slot (instruction index) the finding anchors to, when it
    /// concerns one instruction rather than the artifact as a whole.
    pub slot: Option<TapeId>,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.slot {
            Some(s) => write!(
                f,
                "[{}] {} @ slot {s}: {}",
                self.severity, self.pass, self.message
            ),
            None => write!(f, "[{}] {}: {}", self.severity, self.pass, self.message),
        }
    }
}

/// The structured result of a verification run: every finding plus
/// per-pass latencies.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    findings: Vec<Finding>,
    pass_seconds: Vec<(VerifyPass, f64)>,
    level: VerifyLevel,
}

impl VerifyReport {
    /// An empty report for the given level.
    pub fn new(level: VerifyLevel) -> Self {
        Self {
            findings: Vec::new(),
            pass_seconds: Vec::new(),
            level,
        }
    }

    /// The level this report was produced at.
    pub fn level(&self) -> VerifyLevel {
        self.level
    }

    /// All findings, in pass order.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Per-pass wall-clock latencies, in run order.
    pub fn pass_seconds(&self) -> &[(VerifyPass, f64)] {
        &self.pass_seconds
    }

    /// Appends a finding (used by the model-layer lints in `qkc_core`).
    pub fn push(&mut self, finding: Finding) {
        self.findings.push(finding);
    }

    /// Records a pass latency. A pass that runs in stages (the model
    /// lints time their shape and stochasticity legs separately)
    /// accumulates into one entry.
    pub fn record_pass(&mut self, pass: VerifyPass, seconds: f64) {
        if let Some(entry) = self.pass_seconds.iter_mut().find(|(p, _)| *p == pass) {
            entry.1 += seconds;
        } else {
            self.pass_seconds.push((pass, seconds));
        }
    }

    /// Number of findings at exactly the given severity.
    pub fn count_at(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// True when no finding is an [`Severity::Error`]: the artifact may be
    /// trusted. Warnings and unverified findings do not fail an artifact.
    pub fn is_clean(&self) -> bool {
        self.findings.iter().all(|f| f.severity != Severity::Error)
    }

    /// Renders the report as human-readable text (one finding per line,
    /// then pass latencies).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "verify: {} error(s), {} warning(s), {} unverified",
            self.count_at(Severity::Error),
            self.count_at(Severity::Warning),
            self.count_at(Severity::Unverified),
        );
        for f in &self.findings {
            let _ = writeln!(out, "  {f}");
        }
        for &(pass, secs) in &self.pass_seconds {
            let _ = writeln!(out, "  pass {pass}: {:.1} us", secs * 1e6);
        }
        out
    }
}

/// One structural invariant violation, in the shared form both
/// [`AcTape::from_bytes`] (which rejects on the first) and the verifier
/// (which reports all) consume.
pub(crate) struct Violation {
    pub(crate) slot: Option<TapeId>,
    pub(crate) what: &'static str,
}

/// The tape well-formedness pass over raw tape sections: the single source
/// of truth for every structural invariant the kernels rely on. Checks run
/// in the historical decode order, so `from_bytes` keeps rejecting a given
/// corruption with the same message it always has; the appended hardening
/// checks (arity, finite constants, dead instructions) only fire on
/// payloads the legacy checks accepted.
pub(crate) fn structural_violations(
    ops: &[TapeOp],
    edges: &[TapeId],
    consts: &[Complex],
    lit_slots: &[(Lit, TapeId)],
    root: TapeId,
    weight_slots: u32,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut push = |slot: Option<TapeId>, what: &'static str| {
        out.push(Violation { slot, what });
    };
    if root as usize >= ops.len() {
        push(None, "root out of range");
    }
    let mut lit_ops = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let slot = i as TapeId;
        match op.kind {
            TapeOpKind::Const => {
                if op.a as usize >= consts.len() {
                    push(Some(slot), "constant index out of range");
                }
            }
            TapeOpKind::Lit => {
                lit_ops += 1;
                if op.a >= weight_slots {
                    push(Some(slot), "weight slot out of range");
                }
                let lit = op.b as i32;
                if lit == 0 || lit == i32::MIN {
                    push(Some(slot), "invalid literal");
                } else if AcWeights::slot_of(lit) != op.a {
                    push(Some(slot), "literal/slot mismatch");
                }
            }
            TapeOpKind::And2 | TapeOpKind::Or => {
                if op.a as usize >= i || op.b as usize >= i {
                    push(Some(slot), "child after parent");
                }
            }
            TapeOpKind::And => {
                let (lo, hi) = (op.a as usize, op.b as usize);
                if lo > hi || hi > edges.len() {
                    push(Some(slot), "edge range out of bounds");
                } else {
                    if edges[lo..hi].iter().any(|&c| c as usize >= i) {
                        push(Some(slot), "child after parent");
                    }
                    // Lowering emits the dedicated two-child opcode for
                    // binary products, so a general product always has at
                    // least three children; fewer means the stream was not
                    // produced by the lowering.
                    if hi - lo < 2 {
                        push(Some(slot), "degenerate and arity");
                    }
                }
            }
        }
    }
    if lit_slots.len() != lit_ops {
        push(None, "literal table size mismatch");
    }
    for (i, &(lit, slot)) in lit_slots.iter().enumerate() {
        if i > 0 && lit_slots[i - 1].0 >= lit {
            push(None, "literal table unsorted");
        }
        match ops.get(slot as usize) {
            None => push(Some(slot), "literal slot out of range"),
            Some(op) => {
                if op.kind != TapeOpKind::Lit || op.b as i32 != lit {
                    push(Some(slot), "literal table points astray");
                }
            }
        }
    }
    for c in consts {
        if !c.re.is_finite() || !c.im.is_finite() {
            push(None, "non-finite constant");
        }
    }
    // Root reachability / no dead instructions (the pruning contract).
    // Only meaningful once every child reference is known in-bounds.
    if out.is_empty() && !ops.is_empty() {
        let mut live = vec![false; ops.len()];
        live[root as usize] = true;
        for (i, op) in ops.iter().enumerate().rev() {
            if !live[i] {
                continue;
            }
            match op.kind {
                TapeOpKind::And2 | TapeOpKind::Or => {
                    live[op.a as usize] = true;
                    live[op.b as usize] = true;
                }
                TapeOpKind::And => {
                    for &c in &edges[op.a as usize..op.b as usize] {
                        live[c as usize] = true;
                    }
                }
                TapeOpKind::Const | TapeOpKind::Lit => {}
            }
        }
        for (i, &l) in live.iter().enumerate() {
            if !l {
                out.push(Violation {
                    slot: Some(i as TapeId),
                    what: "dead instruction",
                });
            }
        }
    }
    out
}

/// Interning pool for fixed-width bitsets: the bottom-up semantic passes
/// attach one set per tape slot, and structurally shared subcircuits share
/// the interned set, so memory stays proportional to the number of
/// *distinct* sets.
struct SetPool {
    blocks: usize,
    sets: Vec<Box<[u64]>>,
    index: HashMap<Box<[u64]>, u32>,
}

impl SetPool {
    fn new(blocks: usize) -> Self {
        let empty: Box<[u64]> = vec![0u64; blocks].into_boxed_slice();
        let mut index = HashMap::new();
        index.insert(empty.clone(), 0);
        Self {
            blocks,
            sets: vec![empty],
            index,
        }
    }

    const EMPTY: u32 = 0;

    fn get(&self, id: u32) -> &[u64] {
        &self.sets[id as usize]
    }

    fn intern(&mut self, set: Box<[u64]>) -> u32 {
        if let Some(&id) = self.index.get(&set) {
            return id;
        }
        let id = self.sets.len() as u32;
        self.sets.push(set.clone());
        self.index.insert(set, id);
        id
    }

    fn singleton(&mut self, bit: u32) -> u32 {
        let mut set = vec![0u64; self.blocks].into_boxed_slice();
        set[bit as usize / 64] |= 1u64 << (bit % 64);
        self.intern(set)
    }

    fn union(&mut self, a: u32, b: u32) -> u32 {
        if a == b || b == Self::EMPTY {
            return a;
        }
        if a == Self::EMPTY {
            return b;
        }
        let mut set: Box<[u64]> = self.sets[a as usize].clone();
        for (o, &x) in set.iter_mut().zip(self.sets[b as usize].iter()) {
            *o |= x;
        }
        self.intern(set)
    }

    fn disjoint(&self, a: u32, b: u32) -> bool {
        self.sets[a as usize]
            .iter()
            .zip(self.sets[b as usize].iter())
            .all(|(&x, &y)| x & y == 0)
    }
}

/// Decomposability: every product's children carry pairwise-disjoint
/// variable sets. One bottom-up pass; the per-slot variable set is the
/// union of the children's sets, so checking each child against the
/// running union checks all pairs.
fn check_decomposability(tape: &AcTape, report: &mut VerifyReport) {
    let max_var = tape
        .lit_slots()
        .iter()
        .map(|&(l, _)| l.unsigned_abs())
        .max()
        .unwrap_or(0);
    let mut pool = SetPool::new(max_var as usize / 64 + 1);
    let ops = tape.ops();
    let edges = tape.edges();
    let mut vars: Vec<u32> = vec![SetPool::EMPTY; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        vars[i] = match op.kind {
            TapeOpKind::Const => SetPool::EMPTY,
            TapeOpKind::Lit => pool.singleton((op.b as i32).unsigned_abs()),
            TapeOpKind::And2 => {
                let (a, b) = (vars[op.a as usize], vars[op.b as usize]);
                if !pool.disjoint(a, b) {
                    report.push(Finding {
                        pass: VerifyPass::Decomposability,
                        severity: Severity::Error,
                        slot: Some(i as TapeId),
                        message: "product children share variables".to_string(),
                    });
                }
                pool.union(a, b)
            }
            TapeOpKind::And => {
                let mut acc = SetPool::EMPTY;
                for &c in &edges[op.a as usize..op.b as usize] {
                    let cv = vars[c as usize];
                    if !pool.disjoint(acc, cv) {
                        report.push(Finding {
                            pass: VerifyPass::Decomposability,
                            severity: Severity::Error,
                            slot: Some(i as TapeId),
                            message: "product children share variables".to_string(),
                        });
                        // One finding per product is enough signal.
                        acc = pool.union(acc, cv);
                        continue;
                    }
                    acc = pool.union(acc, cv);
                }
                acc
            }
            TapeOpKind::Or => pool.union(vars[op.a as usize], vars[op.b as usize]),
        };
    }
}

/// Sentinel asserted-literal set id for a contradictory node (a folded
/// zero constant): it asserts everything, so it never defeats a witness.
const CONTRADICTION: u32 = u32::MAX;

/// Determinism: each sum must exhibit a syntactic mutual-exclusion
/// witness. Per slot we compute the set of literals *asserted* by the
/// node — literals every model of the subcircuit satisfies — as bitsets
/// indexed by [`AcWeights::slot_of`] (the two polarities of a variable sit
/// in adjacent bits, so a branch conflict is one masked shift-and per
/// block). A sum is witnessed when its branches assert opposite polarities
/// of some literal, when one branch is contradictory, or when the branches
/// assert distinct indicators of the same exactly-one query group. Sums
/// with no witness are aggregated into one [`Severity::Unverified`]
/// finding — projection sums (`Or(a, a)`) and smoothing-gadget chains are
/// deliberately witness-free.
fn check_determinism(tape: &AcTape, groups: &[Vec<Lit>], report: &mut VerifyReport) {
    let blocks = tape.required_weight_slots() as usize / 64 + 1;
    let mut pool = SetPool::new(blocks);
    // Per-group masks over the same slot indexing: a branch pair is
    // disjoint when both assert a lit of the group and jointly assert two
    // distinct ones (exactly-one semantics).
    let group_masks: Vec<Box<[u64]>> = groups
        .iter()
        .map(|g| {
            let mut m = vec![0u64; blocks].into_boxed_slice();
            for &l in g {
                let s = AcWeights::slot_of(l);
                m[s as usize / 64] |= 1u64 << (s % 64);
            }
            m
        })
        .collect();
    const EVEN: u64 = 0x5555_5555_5555_5555;
    let ops = tape.ops();
    let edges = tape.edges();
    let consts = tape.consts();
    let mut asserted: Vec<u32> = vec![SetPool::EMPTY; ops.len()];
    let mut unwitnessed = 0usize;
    let mut first_unwitnessed: Option<TapeId> = None;
    for (i, op) in ops.iter().enumerate() {
        asserted[i] = match op.kind {
            TapeOpKind::Const => {
                let c = consts[op.a as usize];
                if c == Complex::new(0.0, 0.0) {
                    CONTRADICTION
                } else {
                    SetPool::EMPTY
                }
            }
            TapeOpKind::Lit => pool.singleton(op.a),
            TapeOpKind::And2 => {
                let (a, b) = (asserted[op.a as usize], asserted[op.b as usize]);
                if a == CONTRADICTION || b == CONTRADICTION {
                    CONTRADICTION
                } else {
                    pool.union(a, b)
                }
            }
            TapeOpKind::And => {
                let mut acc = SetPool::EMPTY;
                for &c in &edges[op.a as usize..op.b as usize] {
                    let cv = asserted[c as usize];
                    if cv == CONTRADICTION {
                        acc = CONTRADICTION;
                        break;
                    }
                    acc = pool.union(acc, cv);
                }
                acc
            }
            TapeOpKind::Or => {
                let (a, b) = (asserted[op.a as usize], asserted[op.b as usize]);
                let witnessed = if a == CONTRADICTION || b == CONTRADICTION {
                    // A contradictory branch contributes no models, so the
                    // sum is trivially deterministic.
                    true
                } else if op.a == op.b {
                    // A projection sum (`2·a`): deliberately not
                    // deterministic.
                    false
                } else {
                    let (sa, sb) = (pool.get(a), pool.get(b));
                    // Opposite polarities of one decision literal.
                    let polarity = sa
                        .iter()
                        .zip(sb.iter())
                        .any(|(&x, &y)| ((x >> 1) & y | (y >> 1) & x) & EVEN != 0);
                    polarity
                        || group_masks.iter().any(|m| {
                            let mut any_a = false;
                            let mut any_b = false;
                            let mut joint = 0u32;
                            for ((&x, &y), &gm) in sa.iter().zip(sb.iter()).zip(m.iter()) {
                                let (ga, gb) = (x & gm, y & gm);
                                any_a |= ga != 0;
                                any_b |= gb != 0;
                                joint += (ga | gb).count_ones();
                            }
                            any_a && any_b && joint >= 2
                        })
                };
                if !witnessed {
                    unwitnessed += 1;
                    first_unwitnessed.get_or_insert(i as TapeId);
                }
                // The sum's models satisfy whatever both branches assert.
                if a == CONTRADICTION {
                    b
                } else if b == CONTRADICTION {
                    a
                } else {
                    let set: Box<[u64]> = pool
                        .get(a)
                        .iter()
                        .zip(pool.get(b).iter())
                        .map(|(&x, &y)| x & y)
                        .collect();
                    pool.intern(set)
                }
            }
        };
    }
    if unwitnessed > 0 {
        report.push(Finding {
            pass: VerifyPass::Determinism,
            severity: Severity::Unverified,
            slot: first_unwitnessed,
            message: format!(
                "{unwitnessed} sum node(s) carry no syntactic determinism witness \
                 (projection sums and smoothing gadgets are expected here)"
            ),
        });
    }
}

/// Smoothness over the query variable groups: both children of every sum
/// must mention the same groups (so evidence clamping sums the same
/// basis on both branches), and the root must mention every group.
fn check_smoothness(tape: &AcTape, groups: &[Vec<Lit>], report: &mut VerifyReport) {
    if groups.is_empty() {
        return;
    }
    let mut group_of: HashMap<u32, u32> = HashMap::new();
    for (g, lits) in groups.iter().enumerate() {
        for &l in lits {
            group_of.insert(l.unsigned_abs(), g as u32);
        }
    }
    let mut pool = SetPool::new((groups.len() - 1) / 64 + 1);
    let ops = tape.ops();
    let edges = tape.edges();
    let mut gsets: Vec<u32> = vec![SetPool::EMPTY; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        gsets[i] = match op.kind {
            TapeOpKind::Const => SetPool::EMPTY,
            TapeOpKind::Lit => match group_of.get(&(op.b as i32).unsigned_abs()) {
                Some(&g) => pool.singleton(g),
                None => SetPool::EMPTY,
            },
            TapeOpKind::And2 => pool.union(gsets[op.a as usize], gsets[op.b as usize]),
            TapeOpKind::And => {
                let mut acc = SetPool::EMPTY;
                for &c in &edges[op.a as usize..op.b as usize] {
                    acc = pool.union(acc, gsets[c as usize]);
                }
                acc
            }
            TapeOpKind::Or => {
                let (a, b) = (gsets[op.a as usize], gsets[op.b as usize]);
                // Interned ids are canonical: distinct id ⇒ distinct set.
                if a != b {
                    report.push(Finding {
                        pass: VerifyPass::Smoothness,
                        severity: Severity::Error,
                        slot: Some(i as TapeId),
                        message: "sum children cover different query groups".to_string(),
                    });
                }
                pool.union(a, b)
            }
        };
    }
    let covered: u32 = pool
        .get(gsets[tape.root() as usize])
        .iter()
        .map(|b| b.count_ones())
        .sum();
    if (covered as usize) < groups.len() {
        report.push(Finding {
            pass: VerifyPass::Smoothness,
            severity: Severity::Error,
            slot: Some(tape.root()),
            message: format!("root covers {covered} of {} query groups", groups.len()),
        });
    }
}

/// Slot liveness: which weight slots the tape actually reads. Dead slots
/// are sound (the kernels simply never load them) but worth surfacing —
/// elided artifacts legitimately carry many, so this is a warning, not an
/// error.
fn check_slot_liveness(tape: &AcTape, report: &mut VerifyReport) {
    let n = tape.required_weight_slots() as usize;
    if n == 0 {
        return;
    }
    let mut read = vec![false; n];
    for op in tape.ops() {
        if op.kind == TapeOpKind::Lit {
            read[op.a as usize] = true;
        }
    }
    let dead = read.iter().filter(|&&r| !r).count();
    if dead > 0 {
        report.push(Finding {
            pass: VerifyPass::SlotLiveness,
            severity: Severity::Warning,
            slot: None,
            message: format!(
                "{dead} of {n} weight slots are never read by a literal instruction \
                 (expected for elided artifacts and unused polarities)"
            ),
        });
    }
}

/// Checks a [`TangentPlan`]'s slot references against a tape: every
/// referenced slot must be a literal instruction (the only slots whose
/// upward value a tangent can perturb).
pub fn verify_tangent_plan(plan: &TangentPlan, tape: &AcTape) -> Vec<Finding> {
    let ops = tape.ops();
    plan.slots()
        .filter(|&s| ops.get(s as usize).map(|op| op.kind) != Some(TapeOpKind::Lit))
        .map(|s| Finding {
            pass: VerifyPass::SlotLiveness,
            severity: Severity::Error,
            slot: Some(s),
            message: "tangent plan references a non-literal slot".to_string(),
        })
        .collect()
}

/// Runs the analyzer over a tape.
///
/// `groups` are the query variable groups the artifact was smoothed over
/// (each inner vec lists the literals of one exactly-one group; a binary
/// variable contributes both polarities). Pass `&[]` when the grouping is
/// unknown — smoothness is then vacuous and determinism loses its
/// group-indicator witness rule, but every other pass still runs.
pub fn verify_tape(tape: &AcTape, groups: &[Vec<Lit>], level: VerifyLevel) -> VerifyReport {
    let mut report = VerifyReport::new(level);
    if level == VerifyLevel::Off {
        return report;
    }
    let t = Instant::now();
    let structural = structural_violations(
        tape.ops(),
        tape.edges(),
        tape.consts(),
        tape.lit_slots(),
        tape.root(),
        tape.required_weight_slots(),
    );
    let sound = structural.is_empty();
    for v in structural {
        report.push(Finding {
            pass: VerifyPass::TapeWellFormed,
            severity: Severity::Error,
            slot: v.slot,
            message: v.what.to_string(),
        });
    }
    report.record_pass(VerifyPass::TapeWellFormed, t.elapsed().as_secs_f64());
    // The semantic passes index children without bounds checks, so they
    // only run over structurally sound tapes.
    if level >= VerifyLevel::Full && sound {
        let t = Instant::now();
        check_decomposability(tape, &mut report);
        report.record_pass(VerifyPass::Decomposability, t.elapsed().as_secs_f64());
        let t = Instant::now();
        check_determinism(tape, groups, &mut report);
        report.record_pass(VerifyPass::Determinism, t.elapsed().as_secs_f64());
        let t = Instant::now();
        check_smoothness(tape, groups, &mut report);
        report.record_pass(VerifyPass::Smoothness, t.elapsed().as_secs_f64());
        let t = Instant::now();
        check_slot_liveness(tape, &mut report);
        report.record_pass(VerifyPass::SlotLiveness, t.elapsed().as_secs_f64());
    }
    report
}

/// Runs the analyzer over a wire payload.
///
/// Envelope failures (bad magic, version skew, truncation, checksum
/// mismatch) are returned as errors — there is no tape to report on.
/// A payload that parses but violates a structural invariant yields an
/// `Ok` report carrying the violation as a [`VerifyPass::TapeWellFormed`]
/// error finding, mirroring what [`AcTape::from_bytes`] rejects.
///
/// # Errors
///
/// Any [`TapeDecodeError`] other than
/// [`TapeDecodeError::Malformed`].
pub fn verify_tape_bytes(
    bytes: &[u8],
    groups: &[Vec<Lit>],
    level: VerifyLevel,
) -> Result<VerifyReport, TapeDecodeError> {
    match AcTape::from_bytes(bytes) {
        Ok(tape) => Ok(verify_tape(&tape, groups, level)),
        Err(TapeDecodeError::Malformed(what)) => {
            let mut report = VerifyReport::new(level);
            report.push(Finding {
                pass: VerifyPass::TapeWellFormed,
                severity: Severity::Error,
                slot: None,
                message: what.to_string(),
            });
            Ok(report)
        }
        Err(e) => Err(e),
    }
}

//! Flat compiled-circuit tape: the cache-friendly execution form of an
//! [`Nnf`].
//!
//! Every query the system answers — amplitudes, probabilities,
//! expectations, Gibbs transitions, batched sweep lanes — bottoms out in a
//! traversal of the compiled d-DNNF (paper §3.2–3.3). The enum arena is
//! the right shape for *building* (hash-consing, transformation passes) but
//! the wrong shape for *executing*: every AND node chases a `Box<[NnfId]>`
//! pointer, every node pays a 24-byte enum decode, literal leaves branch on
//! the weight sign, and every traversal re-allocates its value buffers.
//! [`AcTape`] is a one-time lowering into a flat, topologically-ordered
//! instruction stream with CSR child storage (one contiguous edge buffer
//! plus per-node ranges), constant folding and dead-node pruning, a
//! dedicated two-child AND opcode (the dominant shape exhaustive-DPLL
//! compilation produces), precomputed branch-free literal weight slots, and
//! a literal→slot table that replaces the per-call `HashMap` the
//! differential pass used to build.
//!
//! [`TapeEvaluator`] owns every scratch buffer the kernels need, so after
//! the first call on a given tape no query allocates — and buffers whose
//! every slot is overwritten by a pass are not even re-zeroed between
//! calls. The upward pass, the upward+downward differential pass, the
//! `k`-lane batched variants, and magnitude-guided model sampling all run
//! over this persistent storage.
//!
//! # Determinism contract
//!
//! Every kernel is **bit-for-bit identical** to its enum-walk reference:
//!
//! * [`evaluate`](TapeEvaluator::evaluate),
//!   [`evaluate_delta`](TapeEvaluator::evaluate_delta) and the root of
//!   [`evaluate_demand`](TapeEvaluator::evaluate_demand) match
//!   [`evaluate`](crate::evaluate());
//! * [`differentials`](TapeEvaluator::differentials) and
//!   [`differentials_delta`](TapeEvaluator::differentials_delta) match
//!   [`evaluate_with_differentials`](crate::evaluate_with_differentials());
//! * [`evaluate_batch`](TapeEvaluator::evaluate_batch) and
//!   [`evaluate_batch_delta`](TapeEvaluator::evaluate_batch_delta) match
//!   [`evaluate_batch`](crate::evaluate_batch()), and so, lane by lane,
//!   the scalar `evaluate`;
//! * [`differentials_cone_batch`](TapeEvaluator::differentials_cone_batch)
//!   and its delta form match, lane by lane, the root and the cone-slot
//!   partials of the scalar `differentials`, and
//!   [`contract_tangent_broadcast`](TapeEvaluator::contract_tangent_broadcast)
//!   sums those partials in plan order;
//! * [`model_magnitudes`](TapeEvaluator::model_magnitudes) plus
//!   [`draw_model`](TapeEvaluator::draw_model) match
//!   [`sample_model`](crate::evaluate::sample_model), consuming the same
//!   RNG stream;
//! * each arithmetic kernel is one `#[inline(always)]` body compiled
//!   into up to three copies: portable; with `avx2` enabled, which an
//!   evaluator runs when the CPU reported AVX2 at its construction; and,
//!   for the 8-lane batch passes only, with `avx512f` enabled, which it
//!   runs when the CPU also reported AVX-512F. All copies give the same
//!   bits: each runs the same IEEE operations, on wider vectors in the
//!   AVX2 and AVX-512 copies, and no multiply and add fuse. The AVX2
//!   copy does not enable `fma`; `avx512f` implies it, so there the
//!   guarantee rests on rustc never contracting float operations on its
//!   own, which the release build's disassembly confirms (no
//!   `vfmadd`/`vfmsub`/`vfnm` in any kernel copy).
//!
//! The one exception, for every pair above, is a NaN's payload when two
//! NaNs of different payloads meet in an add or multiply: x86 keeps the
//! first operand's, and two kernels, or two copies of one, may order
//! those operands differently. Under finite weights every NaN is the
//! processor's one default NaN, so this cannot happen (and the engine
//! rejects non-finite bindings).
//!
//! The per-node operation sequence (child order, the zero short-circuit at
//! AND nodes, the zero-partial skip in the downward pass, prefix/suffix
//! products — including the multiplications by exact one the reference
//! performs) is mirrored exactly, and model sampling visits OR nodes in the
//! same order. Lowering only performs transformations that provably
//! preserve bits: dead nodes are pruned (they never contribute), ⊤/⊥ become
//! precomputed constants (the values the reference assigns), and an AND
//! whose children are all constants is folded by running the reference
//! recipe at lowering time. OR nodes are never folded — model sampling
//! draws one random number per OR visit, so removing one would shift the
//! stream.

use crate::batch::{row_of, unpack_row};
use crate::evaluate::AcWeights;
use crate::lanes::{blocks_for, lane_width, LaneBlock, LaneRows, LANE_WIDTH, NARROW_WIDTH};
use crate::nnf::{Nnf, NnfNode};
use crate::AcWeightsBatch;
use qkc_cnf::Lit;
use qkc_math::{Complex, C_ONE, C_ZERO};
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of unique tape stamps (see [`AcTape::lower`]): lets an evaluator
/// prove its cached value buffer belongs to the tape it is handed, so the
/// delta kernels can refuse stale state without trusting the caller.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// Index of an instruction (node) in an [`AcTape`].
pub type TapeId = u32;

/// Instruction opcodes. Kept small so the dispatch in the hot loops
/// compiles to a dense jump table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TapeOpKind {
    /// A precomputed constant: `a` indexes the tape's constant pool.
    Const = 0,
    /// A literal leaf: `a` is the precomputed
    /// [`AcWeights::slot_of`] weight slot, `b` the literal bit-cast to
    /// `u32`.
    Lit = 1,
    /// A two-child product node: children are the slots `a` and `b`.
    /// Split out from [`TapeOpKind::And`] because exhaustive-DPLL
    /// compilation makes binary ANDs the dominant shape — the unrolled
    /// kernel skips the edge-buffer indirection and loop bookkeeping.
    And2 = 2,
    /// A general product node: children are `edges[a..b]`, in source
    /// order.
    And = 3,
    /// A two-child sum node: children are the slots `a` and `b`.
    Or = 4,
}

/// One fixed-size instruction: opcode plus two payload words. 12 bytes,
/// scanned linearly — no per-node heap indirection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeOp {
    /// The opcode.
    pub kind: TapeOpKind,
    /// First payload word (see [`TapeOpKind`]).
    pub a: u32,
    /// Second payload word (see [`TapeOpKind`]).
    pub b: u32,
}

/// A flat, topologically-ordered compiled circuit: the execution form every
/// evaluator in the stack runs on. Build one per compiled [`Nnf`] with
/// [`AcTape::lower`] and reuse it for the artifact's lifetime.
///
/// # Invariants (established by lowering, relied on by the kernels)
///
/// * children precede parents: every child slot referenced by an
///   instruction is smaller than the instruction's own slot;
/// * every `And` edge range lies within the edge buffer, every `Const`
///   index within the constant pool;
/// * `weight_slots` bounds every `Lit` instruction's weight slot.
#[derive(Debug, Clone)]
pub struct AcTape {
    ops: Vec<TapeOp>,
    /// CSR child buffer: a general AND at slot `i` owns
    /// `edges[ops[i].a .. ops[i].b]`.
    edges: Vec<TapeId>,
    /// Folded constant values, indexed by `Const` payloads.
    consts: Vec<Complex>,
    /// `(literal, slot)` pairs sorted by literal — the precomputed
    /// literal→slot table that replaces the differential pass's per-call
    /// `HashMap`.
    lit_slots: Vec<(Lit, TapeId)>,
    /// Reverse CSR: slot `i`'s parents are
    /// `parents[parent_offsets[i] .. parent_offsets[i + 1]]`. Drives the
    /// delta kernels' dirty-cone propagation.
    parent_offsets: Vec<u32>,
    parents: Vec<TapeId>,
    /// One past the largest weight slot any `Lit` instruction reads: the
    /// minimum [`AcWeights::num_slots`] the kernels accept.
    weight_slots: u32,
    /// Largest product-node arity on the tape (`And2` counts as 2; 0 when
    /// the tape has no product nodes). Derived — computed by lowering and
    /// re-derived at wire decode, never serialized — and used by the
    /// batch cone downward sweep to size its suffix-stash scratch once per
    /// pass instead of once per node.
    max_and_arity: u32,
    /// Process-unique identity of this lowering (shared by clones, which
    /// are bit-identical).
    stamp: u64,
    root: TapeId,
}

impl AcTape {
    /// Lowers an [`Nnf`] into tape form: prunes nodes unreachable from the
    /// root, folds constants (exactly — see the module docs), renumbers the
    /// survivors topologically, and packs AND children into one contiguous
    /// edge buffer.
    pub fn lower(nnf: &Nnf) -> Self {
        let n = nnf.num_nodes();
        // Pass 1 (forward): which nodes fold to a constant, and to what.
        // The fold replays the reference evaluation recipe over constant
        // inputs, so a folded value is bitwise the value the enum walk
        // would compute.
        let mut folded: Vec<Option<Complex>> = vec![None; n];
        for (i, node) in nnf.nodes().iter().enumerate() {
            folded[i] = match node {
                NnfNode::True => Some(C_ONE),
                NnfNode::False => Some(C_ZERO),
                NnfNode::Lit(_) => None,
                NnfNode::And(cs) => {
                    if cs.iter().all(|&c| folded[c as usize].is_some()) {
                        let mut acc = C_ONE;
                        for &c in cs.iter() {
                            acc *= folded[c as usize].expect("checked const");
                            if acc == C_ZERO {
                                break;
                            }
                        }
                        Some(acc)
                    } else {
                        None
                    }
                }
                // OR nodes never fold: model sampling draws one random
                // number per OR visit, so folding one would shift the
                // stream.
                NnfNode::Or(..) => None,
            };
        }
        // Pass 2 (backward): mark the nodes the tape must materialize.
        // A folded node needs no children; everything else keeps its
        // children live.
        let mut live = vec![false; n];
        live[nnf.root() as usize] = true;
        for (i, node) in nnf.nodes().iter().enumerate().rev() {
            if !live[i] || folded[i].is_some() {
                continue;
            }
            match node {
                NnfNode::And(cs) => {
                    for &c in cs.iter() {
                        live[c as usize] = true;
                    }
                }
                NnfNode::Or(a, b) => {
                    live[*a as usize] = true;
                    live[*b as usize] = true;
                }
                _ => {}
            }
        }
        // Pass 3 (forward): emit instructions for live nodes in the
        // original topological order, renumbering densely.
        let mut slot_of: Vec<TapeId> = vec![u32::MAX; n];
        let mut ops: Vec<TapeOp> = Vec::new();
        let mut edges: Vec<TapeId> = Vec::new();
        let mut consts: Vec<Complex> = Vec::new();
        let mut lit_slots: Vec<(Lit, TapeId)> = Vec::new();
        let mut weight_slots = 0u32;
        for (i, node) in nnf.nodes().iter().enumerate() {
            if !live[i] {
                continue;
            }
            let slot = ops.len() as TapeId;
            slot_of[i] = slot;
            let op = if let Some(value) = folded[i] {
                let cx = consts.len() as u32;
                consts.push(value);
                TapeOp {
                    kind: TapeOpKind::Const,
                    a: cx,
                    b: 0,
                }
            } else {
                match node {
                    NnfNode::Lit(l) => {
                        lit_slots.push((*l, slot));
                        let wslot = AcWeights::slot_of(*l);
                        weight_slots = weight_slots.max(wslot + 1);
                        TapeOp {
                            kind: TapeOpKind::Lit,
                            a: wslot,
                            b: *l as u32,
                        }
                    }
                    NnfNode::And(cs) if cs.len() == 2 => TapeOp {
                        kind: TapeOpKind::And2,
                        a: slot_of[cs[0] as usize],
                        b: slot_of[cs[1] as usize],
                    },
                    NnfNode::And(cs) => {
                        let start = edges.len() as u32;
                        edges.extend(cs.iter().map(|&c| slot_of[c as usize]));
                        TapeOp {
                            kind: TapeOpKind::And,
                            a: start,
                            b: edges.len() as u32,
                        }
                    }
                    NnfNode::Or(a, b) => TapeOp {
                        kind: TapeOpKind::Or,
                        a: slot_of[*a as usize],
                        b: slot_of[*b as usize],
                    },
                    NnfNode::True | NnfNode::False => unreachable!("constants always fold"),
                }
            };
            ops.push(op);
        }
        lit_slots.sort_unstable_by_key(|&(l, _)| l);
        let (parent_offsets, parents) = build_parent_csr(&ops, &edges);
        Self {
            root: slot_of[nnf.root() as usize],
            max_and_arity: max_and_arity(&ops),
            ops,
            edges,
            consts,
            lit_slots,
            parent_offsets,
            parents,
            weight_slots,
            stamp: NEXT_STAMP.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The instruction stream, children before parents.
    pub fn ops(&self) -> &[TapeOp] {
        &self.ops
    }

    /// Number of instructions (live nodes).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of CSR edges (general-AND child references; binary AND and
    /// OR children live inline in the instruction).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The root instruction slot.
    pub fn root(&self) -> TapeId {
        self.root
    }

    /// The tape slot of a literal leaf, if the literal survives in the
    /// circuit. O(log #lits) over the precomputed slot table.
    #[inline]
    pub fn lit_slot(&self, lit: Lit) -> Option<TapeId> {
        self.lit_slots
            .binary_search_by_key(&lit, |&(l, _)| l)
            .ok()
            .map(|ix| self.lit_slots[ix].1)
    }

    /// The sorted `(literal, slot)` table.
    pub fn lit_slots(&self) -> &[(Lit, TapeId)] {
        &self.lit_slots
    }

    /// The CSR child buffer general-AND instructions index into.
    pub fn edges(&self) -> &[TapeId] {
        &self.edges
    }

    /// The folded constant pool `Const` instructions index into.
    pub fn consts(&self) -> &[Complex] {
        &self.consts
    }

    /// One past the largest weight slot any literal instruction reads: the
    /// minimum number of weight slots a weight vector must cover for the
    /// kernels to accept it.
    pub fn required_weight_slots(&self) -> u32 {
        self.weight_slots
    }

    /// Largest product-node arity on the tape (`And2` counts as 2; 0 when
    /// there are no product nodes). Derived at lowering and re-derived at
    /// wire decode.
    pub fn max_and_arity(&self) -> u32 {
        self.max_and_arity
    }

    /// Number of tape slots in the ancestor cone of the given literals
    /// (the literal slots themselves included): the work a delta pass pays
    /// when those literals' weights change. Compile-time planning helper —
    /// enumeration orders that flip small-cone variables most often make
    /// evidence sweeps cheap. Allocates; not for hot paths.
    pub fn cone_size(&self, lits: &[Lit]) -> usize {
        let mut seen = vec![false; self.ops.len()];
        let mut stack: Vec<TapeId> = Vec::with_capacity(lits.len());
        for slot in lits.iter().filter_map(|&l| self.lit_slot(l)) {
            // Dedup the seeds: repeated literals must not double-count.
            if !seen[slot as usize] {
                seen[slot as usize] = true;
                stack.push(slot);
            }
        }
        let mut count = 0usize;
        while let Some(s) = stack.pop() {
            count += 1;
            for &p in self.parents_of(s) {
                if !seen[p as usize] {
                    seen[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        count
    }

    /// Exact resident size in bytes: the struct plus every backing buffer.
    /// This is the number the artifact cache accounts under
    /// `ac_size_bytes` (and the natural wire size of the flat format).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.ops.len() * std::mem::size_of::<TapeOp>()
            + self.edges.len() * std::mem::size_of::<TapeId>()
            + self.consts.len() * std::mem::size_of::<Complex>()
            + self.lit_slots.len() * std::mem::size_of::<(Lit, TapeId)>()
            + self.parent_offsets.len() * std::mem::size_of::<u32>()
            + self.parents.len() * std::mem::size_of::<TapeId>()
    }

    /// The parents of a slot (reverse CSR).
    #[inline]
    fn parents_of(&self, slot: TapeId) -> &[TapeId] {
        &self.parents[self.parent_offsets[slot as usize] as usize
            ..self.parent_offsets[slot as usize + 1] as usize]
    }

    /// Panics unless `weights` covers every weight slot the tape reads —
    /// the single bounds check each kernel pass performs up front so its
    /// per-node loop can index weights without rechecking.
    #[inline]
    fn check_weights(&self, num_slots: usize) {
        assert!(
            self.weight_slots as usize <= num_slots,
            "weight vector covers {num_slots} slots but the tape reads {}",
            self.weight_slots
        );
    }

    /// Serializes the tape into its versioned, checksummed wire format —
    /// the on-disk / over-the-wire form of a compiled artifact (spill
    /// files, distributed sweep sharding).
    ///
    /// Layout (little-endian): magic `QKTP`, format version, root /
    /// weight-slot words, four section counts, then the four flat sections
    /// exactly as resident — fixed-width ops (opcode byte + two payload
    /// words), CSR edge buffer, constant pool (IEEE-754 bit patterns, so
    /// round-trips are bit-exact), sorted literal→slot table — and a
    /// trailing FNV-1a checksum over everything before it. The parent CSR
    /// and the process-unique stamp are *not* serialized: both are derived
    /// (and re-derived cheaply) by [`AcTape::from_bytes`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            WIRE_HEADER_BYTES
                + self.ops.len() * 9
                + self.edges.len() * 4
                + self.consts.len() * 16
                + self.lit_slots.len() * 8
                + 8,
        );
        out.extend_from_slice(&WIRE_MAGIC);
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // reserved
        out.extend_from_slice(&self.root.to_le_bytes());
        out.extend_from_slice(&self.weight_slots.to_le_bytes());
        out.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.edges.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.consts.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.lit_slots.len() as u32).to_le_bytes());
        for op in &self.ops {
            out.push(op.kind as u8);
            out.extend_from_slice(&op.a.to_le_bytes());
            out.extend_from_slice(&op.b.to_le_bytes());
        }
        for &e in &self.edges {
            out.extend_from_slice(&e.to_le_bytes());
        }
        for c in &self.consts {
            out.extend_from_slice(&c.re.to_bits().to_le_bytes());
            out.extend_from_slice(&c.im.to_bits().to_le_bytes());
        }
        for &(l, s) in &self.lit_slots {
            out.extend_from_slice(&l.to_le_bytes());
            out.extend_from_slice(&s.to_le_bytes());
        }
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Deserializes a tape from [`AcTape::to_bytes`] output.
    ///
    /// Every kernel invariant the lowering establishes is re-validated
    /// here — children precede parents, edge ranges and constant indices
    /// in bounds, literal slots pointing at matching `Lit` instructions in
    /// strictly increasing literal order — so a decoded tape is as safe to
    /// execute as a freshly lowered one, and a hostile or bit-rotted
    /// payload is rejected with an error rather than trusted. The decoded
    /// tape is bit-for-bit equivalent to the encoded one under every
    /// evaluator kernel; it carries a fresh stamp (evaluator delta caches
    /// never confuse it with the original).
    ///
    /// # Errors
    ///
    /// [`TapeDecodeError`] on wrong magic, unsupported version, truncated
    /// or oversized payload, checksum mismatch, or any structural
    /// violation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TapeDecodeError> {
        if bytes.len() < 4 {
            return Err(TapeDecodeError::Truncated);
        }
        if bytes[..4] != WIRE_MAGIC {
            return Err(TapeDecodeError::BadMagic);
        }
        if bytes.len() < WIRE_HEADER_BYTES + 8 {
            return Err(TapeDecodeError::Truncated);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != WIRE_VERSION {
            return Err(TapeDecodeError::UnsupportedVersion(version));
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
        if fnv1a(body) != u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes")) {
            return Err(TapeDecodeError::ChecksumMismatch);
        }
        let mut rd = WireReader {
            buf: body,
            pos: WIRE_MAGIC.len() + 4,
        };
        let root = rd.u32()?;
        let weight_slots = rd.u32()?;
        let n_ops = rd.u32()? as usize;
        let n_edges = rd.u32()? as usize;
        let n_consts = rd.u32()? as usize;
        let n_lits = rd.u32()? as usize;
        let expect = WIRE_HEADER_BYTES as u64
            + n_ops as u64 * 9
            + n_edges as u64 * 4
            + n_consts as u64 * 16
            + n_lits as u64 * 8;
        if (body.len() as u64) < expect {
            return Err(TapeDecodeError::Truncated);
        }
        if body.len() as u64 > expect {
            return Err(TapeDecodeError::Malformed("trailing bytes"));
        }
        if n_ops == 0 {
            return Err(TapeDecodeError::Malformed("empty instruction stream"));
        }
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            let kind = match rd.u8()? {
                0 => TapeOpKind::Const,
                1 => TapeOpKind::Lit,
                2 => TapeOpKind::And2,
                3 => TapeOpKind::And,
                4 => TapeOpKind::Or,
                _ => return Err(TapeDecodeError::Malformed("unknown opcode")),
            };
            let a = rd.u32()?;
            let b = rd.u32()?;
            ops.push(TapeOp { kind, a, b });
        }
        let mut edges = Vec::with_capacity(n_edges);
        for _ in 0..n_edges {
            edges.push(rd.u32()?);
        }
        let mut consts = Vec::with_capacity(n_consts);
        for _ in 0..n_consts {
            let re = f64::from_bits(rd.u64()?);
            let im = f64::from_bits(rd.u64()?);
            consts.push(Complex::new(re, im));
        }
        let mut lit_slots: Vec<(Lit, TapeId)> = Vec::with_capacity(n_lits);
        for _ in 0..n_lits {
            let lit = rd.u32()? as i32;
            let slot = rd.u32()?;
            lit_slots.push((lit, slot));
        }
        // Structural validation: re-establish every lowering invariant the
        // kernels index by without bounds checks they can't afford. The
        // checks are the verifier's tape well-formedness pass
        // (`crate::verify`), shared so decode hardening and static
        // verification cannot drift; decode rejects on the first
        // violation, in the pass's (historical) check order.
        if let Some(v) = crate::verify::structural_violations(
            &ops,
            &edges,
            &consts,
            &lit_slots,
            root,
            weight_slots,
        )
        .into_iter()
        .next()
        {
            return Err(TapeDecodeError::Malformed(v.what));
        }
        let (parent_offsets, parents) = build_parent_csr(&ops, &edges);
        Ok(Self {
            max_and_arity: max_and_arity(&ops),
            ops,
            edges,
            consts,
            lit_slots,
            parent_offsets,
            parents,
            weight_slots,
            stamp: NEXT_STAMP.fetch_add(1, Ordering::Relaxed),
            root,
        })
    }
}

/// The largest product-node arity in an instruction stream (see
/// [`AcTape::max_and_arity`]). Shared by lowering and wire decoding so the
/// derived value can never drift between the two construction paths.
fn max_and_arity(ops: &[TapeOp]) -> u32 {
    ops.iter()
        .map(|op| match op.kind {
            TapeOpKind::And2 => 2,
            TapeOpKind::And => op.b - op.a,
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

/// Wire-format constants: magic, version, and the fixed header size
/// (magic + version + reserved + root + weight_slots + four counts).
const WIRE_MAGIC: [u8; 4] = *b"QKTP";
/// Current [`AcTape`] wire-format version; bumped on any layout change so
/// old readers reject new payloads cleanly (and vice versa).
pub const WIRE_VERSION: u16 = 1;
const WIRE_HEADER_BYTES: usize = 4 + 2 + 2 + 4 + 4 + 4 * 4;

/// FNV-1a over the payload: cheap, dependency-free corruption detection
/// (not cryptographic — the trust boundary is same-operator storage).
/// Shared by every QKC wire format (re-exported as
/// [`wire_checksum`](crate::wire_checksum)) so the trailer algorithm can
/// never diverge between the tape and artifact payloads.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bounds-checked little-endian reads over a wire payload.
struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl WireReader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], TapeDecodeError> {
        let end = self.pos.checked_add(n).ok_or(TapeDecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(TapeDecodeError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, TapeDecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, TapeDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, TapeDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

/// Why a wire payload was rejected by [`AcTape::from_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapeDecodeError {
    /// The payload does not start with the tape magic.
    BadMagic,
    /// The payload's format version is not one this build reads.
    UnsupportedVersion(u16),
    /// The payload ends before its sections do.
    Truncated,
    /// The trailing checksum does not match the payload.
    ChecksumMismatch,
    /// A section is internally inconsistent (the contained invariant).
    Malformed(&'static str),
}

impl std::fmt::Display for TapeDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TapeDecodeError::BadMagic => write!(f, "not an AcTape payload (bad magic)"),
            TapeDecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported AcTape wire version {v}")
            }
            TapeDecodeError::Truncated => write!(f, "truncated AcTape payload"),
            TapeDecodeError::ChecksumMismatch => write!(f, "AcTape payload checksum mismatch"),
            TapeDecodeError::Malformed(what) => write!(f, "malformed AcTape payload: {what}"),
        }
    }
}

impl std::error::Error for TapeDecodeError {}

/// Builds the reverse CSR (children → parents) that drives the delta
/// kernels' dirty-cone propagation. Shared by lowering and wire decoding —
/// the parent CSR is always derived, never trusted from a payload.
fn build_parent_csr(ops: &[TapeOp], edges: &[TapeId]) -> (Vec<u32>, Vec<TapeId>) {
    let n_ops = ops.len();
    let mut parent_offsets = vec![0u32; n_ops + 1];
    let count_child = |c: TapeId, offsets: &mut Vec<u32>| {
        offsets[c as usize + 1] += 1;
    };
    for op in ops {
        match op.kind {
            TapeOpKind::And2 | TapeOpKind::Or => {
                count_child(op.a, &mut parent_offsets);
                count_child(op.b, &mut parent_offsets);
            }
            TapeOpKind::And => {
                for &c in &edges[op.a as usize..op.b as usize] {
                    count_child(c, &mut parent_offsets);
                }
            }
            _ => {}
        }
    }
    for i in 0..n_ops {
        parent_offsets[i + 1] += parent_offsets[i];
    }
    let mut parents = vec![0 as TapeId; *parent_offsets.last().unwrap() as usize];
    let mut fill = parent_offsets.clone();
    for (i, op) in ops.iter().enumerate() {
        let mut place = |c: TapeId, fill: &mut Vec<u32>| {
            parents[fill[c as usize] as usize] = i as TapeId;
            fill[c as usize] += 1;
        };
        match op.kind {
            TapeOpKind::And2 | TapeOpKind::Or => {
                place(op.a, &mut fill);
                place(op.b, &mut fill);
            }
            TapeOpKind::And => {
                for &c in &edges[op.a as usize..op.b as usize] {
                    place(c, &mut fill);
                }
            }
            _ => {}
        }
    }
    (parent_offsets, parents)
}

/// A reusable evaluator over [`AcTape`]s: owns every value/partial/scratch
/// buffer the kernels need, so queries after the first allocation-warming
/// call are zero-alloc. One evaluator serves tapes of any size (buffers
/// grow monotonically); it is cheap to construct and intended to be kept
/// alongside whatever owns the query loop (a bound artifact, a Gibbs
/// chain, a sweep lane).
#[derive(Debug, Default)]
pub struct TapeEvaluator {
    /// Per-slot scalar values. Grow-only and never re-zeroed: every pass
    /// overwrites every slot it reads.
    values: Vec<Complex>,
    /// Per-slot scalar partial derivatives of the root (zeroed per pass —
    /// the downward sweep accumulates into it).
    partials: Vec<Complex>,
    /// Prefix products for the scalar downward AND sweep (child-major).
    prefix: Vec<Complex>,
    /// Batch-kernel buffers for lane counts up to 4 (blocks of 4 lanes).
    narrow: BatchScratch<NARROW_WIDTH>,
    /// Batch-kernel buffers for wider lane counts (blocks of 8 lanes).
    wide: BatchScratch<LANE_WIDTH>,
    /// Unpacked live lanes of the batch root row — the persistent backing
    /// of the `&[Complex]` slices the batch upward passes return.
    root_out: Vec<Complex>,
    /// Per-slot magnitudes for model sampling. Grow-only, fully
    /// overwritten by each magnitude pass.
    mags: Vec<f64>,
    /// Descent stack for model sampling.
    stack: Vec<TapeId>,
    /// Lane count the `partials` buffer was filled for (scalar passes use
    /// 1); guards the `wrt_*` accessors. Tracked separately from
    /// `value_lanes` because a value-only pass (e.g. a batched upward)
    /// leaves earlier partials intact at their own stride.
    partial_lanes: usize,
    /// Lane count the `values` buffer was filled for (scalar passes use 1).
    value_lanes: usize,
    /// What the `values` buffer currently holds (and for which tape) —
    /// the validity gate for the delta kernels.
    values_mode: ValuesMode,
    values_stamp: u64,
    /// Delta worklist membership flags (persistent; all false between
    /// calls).
    queued: Vec<bool>,
    /// Memo of the demand-driven pass: a slot's `values` entry belongs to
    /// the current call when its stamp equals `demand_epoch`. Grow-only;
    /// bumping the epoch forgets every slot at once.
    demand_stamp: Vec<u32>,
    demand_epoch: u32,
    /// Explicit descent stack of the demand-driven pass.
    demand_frames: Vec<DemandFrame>,
    /// The instruction set the kernels run at, detected at construction.
    isa: Isa,
}

/// A product or sum node the demand-driven pass is part-way through:
/// `next` indexes the child to read next, `acc` is the value so far.
#[derive(Debug, Clone, Copy)]
struct DemandFrame {
    slot: TapeId,
    next: u32,
    acc: Complex,
}

/// What arithmetic the `values` buffer was produced by. The two scalar
/// modes differ in zero-sign bits (the short-circuited AND stops
/// multiplying zeros), so a delta pass may only extend a buffer of its own
/// mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum ValuesMode {
    /// No usable scalar buffer (fresh evaluator, or a batch pass
    /// overwrote it with lane-strided data).
    #[default]
    Invalid,
    /// Short-circuited upward values ([`TapeEvaluator::evaluate`]).
    Evaluate,
    /// Full-product upward values (the differential passes).
    DiffUpward,
    /// Lane-strided short-circuited upward values
    /// ([`TapeEvaluator::evaluate_batch`]); valid for batch delta passes
    /// with the same lane count.
    BatchEvaluate,
    /// Lane-strided full-product upward values
    /// ([`TapeEvaluator::differentials_cone_batch`]); valid for its delta
    /// pass with the same lane count.
    BatchDiffUpward,
}

/// Runs `$body` with `$w` bound to `$weights`' rows and `$s` to `$eval`'s
/// batch scratch of the same width, at `$eval`'s instruction set: the one
/// dispatch on the block width and the instruction set per batch pass.
/// Each arm monomorphizes the same width-generic body; the 8-lane arm
/// also compiles its AVX-512 copy (see `at_isa!`).
macro_rules! at_width {
    ($eval:ident, $weights:expr, |$s:ident, $w:ident| $body:expr) => {
        match $weights.rows() {
            LaneRows::Narrow($w) => {
                let $s = &mut $eval.narrow;
                at_isa!($eval.isa, $body)
            }
            LaneRows::Wide($w) => {
                let $s = &mut $eval.wide;
                at_isa!($eval.isa, avx512, $body)
            }
        }
    };
}

/// Runs `$body` at the instruction set `$isa`: the one dispatch on the
/// instruction set per kernel pass. Each expansion compiles the body into
/// its own `portable` and `avx2` functions (an `#[inline(always)]`
/// closure inlines into each), so `nm` lists each pass's instantiations
/// under the name of the method that runs it, and [`Isa::Avx512`] runs
/// the `avx2` copy. The `avx512` form, which only the 8-lane batch passes
/// use, adds a third copy, `avx512`, that [`Isa::Avx512`] runs instead:
/// AVX-512 copies of the scalar and 4-lane passes measured slower or no
/// faster than their AVX2 ones.
macro_rules! at_isa {
    ($isa:expr, $body:expr) => {{
        at_isa!(@copies);
        match $isa {
            Isa::Portable => portable(
                #[inline(always)]
                || $body,
            ),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 | Isa::Avx512 => at_isa!(@run avx2, $body),
        }
    }};
    ($isa:expr, avx512, $body:expr) => {{
        at_isa!(@copies);
        // `avx512f` implies `fma`, which no copy may use: the no-fusion
        // guarantee rests on rustc never contracting a multiply and an
        // add on its own (checked in the release build's disassembly).
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        fn avx512<R>(kernel: impl FnOnce() -> R) -> R {
            kernel()
        }
        match $isa {
            Isa::Portable => portable(
                #[inline(always)]
                || $body,
            ),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => at_isa!(@run avx2, $body),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => at_isa!(@run avx512, $body),
        }
    }};
    (@copies) => {
        #[inline(never)]
        fn portable<R>(kernel: impl FnOnce() -> R) -> R {
            kernel()
        }
        // `avx2` only, never `fma`: a fused multiply-add rounds once where
        // the portable code rounds twice.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn avx2<R>(kernel: impl FnOnce() -> R) -> R {
            kernel()
        }
    };
    (@run $copy:ident, $body:expr) => {{
        // SAFETY: an evaluator holds `Isa::Avx2` or `Isa::Avx512` only
        // after `Isa::detect` saw `is_x86_feature_detected!("avx2")`
        // return true, and `Isa::Avx512` only after
        // `is_x86_feature_detected!("avx512f")` did too, so this CPU runs
        // the instructions the `avx2` and `avx512` copies are compiled
        // with. Audited exception to the workspace `unsafe_code` deny.
        #[allow(unsafe_code)]
        let out = unsafe {
            $copy(
                #[inline(always)]
                || $body,
            )
        };
        out
    }};
}

/// The instruction set an evaluator's kernels run at (see `at_isa!`),
/// ordered from the baseline up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Isa {
    /// The build target's baseline instructions.
    Portable,
    /// Every kernel compiled with `avx2` enabled. An evaluator holds it
    /// only when [`Isa::detect`] reported it or a higher level.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// The 8-lane batch passes compiled with `avx512f` enabled; every
    /// other pass runs its [`Isa::Avx2`] copy. An evaluator holds it only
    /// when [`Isa::detect`] reported it.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Default for Isa {
    fn default() -> Self {
        Self::detect()
    }
}

impl Isa {
    /// The highest level the running CPU has: [`Isa::Avx512`] with AVX2
    /// and AVX-512F, [`Isa::Avx2`] with AVX2 alone, otherwise
    /// [`Isa::Portable`].
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return if std::arch::is_x86_feature_detected!("avx512f") {
                Self::Avx512
            } else {
                Self::Avx2
            };
        }
        Self::Portable
    }
}

impl TapeEvaluator {
    /// A fresh evaluator with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh evaluator that runs its kernels at `isa`, for the tests
    /// that compare the instantiations.
    ///
    /// # Panics
    ///
    /// Panics if the running CPU does not have `isa`.
    #[cfg(test)]
    pub(crate) fn with_isa(isa: Isa) -> Self {
        assert!(isa <= Isa::detect(), "this CPU cannot run {isa:?}");
        Self {
            isa,
            ..Self::default()
        }
    }

    /// Grows `values` to at least `len` slots without re-zeroing live
    /// ones: callers overwrite every slot they read.
    #[inline]
    fn ensure_values(&mut self, len: usize) {
        if self.values.len() < len {
            self.values.resize(len, C_ZERO);
        }
    }

    /// Upward pass: the circuit's value under `weights`. Bit-for-bit equal
    /// to [`evaluate`](crate::evaluate()) on the source [`Nnf`]. Zero
    /// allocations after the first call at a given size.
    pub fn evaluate(&mut self, tape: &AcTape, weights: &AcWeights) -> Complex {
        at_isa!(self.isa, self.upward(tape, weights))
    }

    /// The kernel behind [`evaluate`](TapeEvaluator::evaluate).
    #[inline(always)]
    fn upward(&mut self, tape: &AcTape, weights: &AcWeights) -> Complex {
        tape.check_weights(weights.num_slots());
        let n = tape.ops.len();
        self.ensure_values(n);
        let values = &mut self.values[..n];
        // Safe indexing throughout: the bounds checks measurably help LLVM
        // here (range information), and the lowering invariants make them
        // never fail.
        for (i, op) in tape.ops.iter().enumerate() {
            values[i] = match op.kind {
                TapeOpKind::Const => tape.consts[op.a as usize],
                TapeOpKind::Lit => weights.by_slot(op.a),
                TapeOpKind::And2 => {
                    // The reference loop unrolled for two children:
                    // acc = 1·v₀ (short-circuit) then acc·v₁.
                    let mut acc = C_ONE * values[op.a as usize];
                    if acc != C_ZERO {
                        acc *= values[op.b as usize];
                    }
                    acc
                }
                TapeOpKind::And => {
                    let mut acc = C_ONE;
                    for &c in &tape.edges[op.a as usize..op.b as usize] {
                        acc *= values[c as usize];
                        if acc == C_ZERO {
                            break;
                        }
                    }
                    acc
                }
                TapeOpKind::Or => values[op.a as usize] + values[op.b as usize],
            };
        }
        self.values_mode = ValuesMode::Evaluate;
        self.values_stamp = tape.stamp;
        self.value_lanes = 1;
        values[tape.root as usize]
    }

    /// Demand-driven upward pass: the root value of
    /// [`evaluate`](TapeEvaluator::evaluate), bit for bit, computed by a
    /// memoized descent from the root. The descent reads each node's
    /// children in edge order and stops a product at its first exact zero,
    /// exactly where `evaluate` short-circuits, so a subtree that no
    /// short-circuited product reads is never visited. Under evidence that
    /// zeroes literals (a Gibbs proposal assigns every query variable) it
    /// touches a fraction of the tape. Every visited slot runs `evaluate`'s
    /// arithmetic on the same child values, so it holds the same bits.
    ///
    /// The descent runs on an explicit stack, since tape depth is
    /// unbounded. Only visited slots hold values afterwards, so the buffer
    /// is left invalid for the delta kernels.
    pub(crate) fn evaluate_demand(&mut self, tape: &AcTape, weights: &AcWeights) -> Complex {
        at_isa!(self.isa, self.upward_demand(tape, weights))
    }

    /// The kernel behind
    /// [`evaluate_demand`](TapeEvaluator::evaluate_demand).
    #[inline(always)]
    fn upward_demand(&mut self, tape: &AcTape, weights: &AcWeights) -> Complex {
        tape.check_weights(weights.num_slots());
        let n = tape.ops.len();
        self.ensure_values(n);
        if self.demand_stamp.len() < n {
            self.demand_stamp.resize(n, 0);
        }
        self.demand_epoch = self.demand_epoch.wrapping_add(1);
        if self.demand_epoch == 0 {
            // Wrapped: stamps from 2³² calls ago would alias the new epoch.
            self.demand_stamp.fill(0);
            self.demand_epoch = 1;
        }
        self.values_mode = ValuesMode::Invalid;
        self.value_lanes = 1;
        let epoch = self.demand_epoch;
        let values = &mut self.values[..n];
        let stamp = &mut self.demand_stamp[..n];
        // A leaf's value, or a node this call already computed; `None`
        // means the node must be descended into.
        let ready = |values: &[Complex], stamp: &[u32], c: TapeId| {
            let op = tape.ops[c as usize];
            match op.kind {
                TapeOpKind::Const => Some(tape.consts[op.a as usize]),
                TapeOpKind::Lit => Some(weights.by_slot(op.a)),
                _ if stamp[c as usize] == epoch => Some(values[c as usize]),
                _ => None,
            }
        };
        if let Some(v) = ready(values, stamp, tape.root) {
            return v;
        }
        let frames = &mut self.demand_frames;
        frames.clear();
        frames.push(DemandFrame {
            slot: tape.root,
            next: 0,
            acc: C_ONE,
        });
        'descend: while let Some(&top) = frames.last() {
            let DemandFrame {
                slot,
                mut next,
                mut acc,
            } = top;
            let op = tape.ops[slot as usize];
            let (is_or, arity) = match op.kind {
                TapeOpKind::And => (false, op.b - op.a),
                TapeOpKind::And2 => (false, 2),
                TapeOpKind::Or => (true, 2),
                TapeOpKind::Const | TapeOpKind::Lit => unreachable!("leaves never get a frame"),
            };
            while next < arity {
                let c = match op.kind {
                    TapeOpKind::And => tape.edges[(op.a + next) as usize],
                    _ if next == 0 => op.a,
                    _ => op.b,
                };
                let Some(v) = ready(values, stamp, c) else {
                    *frames.last_mut().expect("frame on top") = DemandFrame { slot, next, acc };
                    frames.push(DemandFrame {
                        slot: c,
                        next: 0,
                        acc: C_ONE,
                    });
                    continue 'descend;
                };
                next += 1;
                if is_or {
                    acc = if next == 1 { v } else { acc + v };
                } else {
                    // `evaluate`'s product: acc = 1·v₀, then acc·vᵢ until
                    // the first exact zero.
                    acc *= v;
                    if acc == C_ZERO {
                        break;
                    }
                }
            }
            frames.pop();
            values[slot as usize] = acc;
            stamp[slot as usize] = epoch;
        }
        values[tape.root as usize]
    }

    /// [`evaluate`](TapeEvaluator::evaluate) when only the weights of
    /// `changed_vars` differ from the weights of this evaluator's previous
    /// scalar upward pass on the same tape: recomputes just the dirty cone
    /// above the changed literals (propagation stops where a recomputed
    /// value is bit-identical to the cached one), which is what makes
    /// repeated amplitude queries — wavefunction sweeps, probability
    /// reconstructions, chain moves — cheap on the compiled artifact.
    ///
    /// Falls back to a full pass when the cached buffer is missing, was
    /// produced by a different kernel mode, or belongs to another tape, so
    /// it is always safe to call. Bit-for-bit equal to a full
    /// [`evaluate`](TapeEvaluator::evaluate): every recomputed slot is a
    /// pure function of its children, by induction over the topological
    /// order.
    ///
    /// The caller must list **every** variable whose weights changed since
    /// the previous pass (listing unchanged ones is harmless).
    pub fn evaluate_delta(
        &mut self,
        tape: &AcTape,
        weights: &AcWeights,
        changed_vars: &[u32],
    ) -> Complex {
        if self.values_mode != ValuesMode::Evaluate || self.values_stamp != tape.stamp {
            return self.evaluate(tape, weights);
        }
        tape.check_weights(weights.num_slots());
        at_isa!(
            self.isa,
            self.delta_update(tape, weights, changed_vars, false)
        );
        self.values[tape.root as usize]
    }

    /// Recomputes the dirty cone above `changed_vars` in `values`,
    /// propagating only past slots whose bits actually changed.
    /// `full_products` selects the differential-mode AND (no
    /// short-circuit).
    ///
    /// The worklist is a flag scan, not a priority queue: dirty flags are
    /// seeded at the changed literals, and one ascending sweep from the
    /// lowest dirty slot processes them — children precede parents, so
    /// every dirty slot sees fully updated children, and a pending counter
    /// stops the sweep as soon as propagation dies out. A clean slot
    /// costs one flag test; a dirty one, one node recompute.
    #[inline(always)]
    fn delta_update(
        &mut self,
        tape: &AcTape,
        weights: &AcWeights,
        changed_vars: &[u32],
        full_products: bool,
    ) {
        let (mut pending, mut cursor) = seed_dirty(tape, changed_vars, &mut self.queued);
        while pending > 0 {
            if !self.queued[cursor] {
                cursor += 1;
                continue;
            }
            self.queued[cursor] = false;
            pending -= 1;
            let op = tape.ops[cursor];
            let values = &self.values;
            let new = match op.kind {
                TapeOpKind::Const => tape.consts[op.a as usize],
                TapeOpKind::Lit => weights.by_slot(op.a),
                TapeOpKind::And2 => {
                    let mut acc = C_ONE * values[op.a as usize];
                    if full_products || acc != C_ZERO {
                        acc *= values[op.b as usize];
                    }
                    acc
                }
                TapeOpKind::And => {
                    let mut acc = C_ONE;
                    for &c in &tape.edges[op.a as usize..op.b as usize] {
                        acc *= values[c as usize];
                        if !full_products && acc == C_ZERO {
                            break;
                        }
                    }
                    acc
                }
                TapeOpKind::Or => values[op.a as usize] + values[op.b as usize],
            };
            let old = self.values[cursor];
            if new.re.to_bits() != old.re.to_bits() || new.im.to_bits() != old.im.to_bits() {
                self.values[cursor] = new;
                mark_parents(tape, cursor, &mut self.queued, &mut pending);
            }
            cursor += 1;
        }
    }

    /// Combined upward + downward pass: returns the root value and leaves
    /// the partial derivative of the root with respect to every slot in
    /// this evaluator, readable through [`TapeEvaluator::wrt_lit`] /
    /// [`TapeEvaluator::take_differentials`] until the next pass.
    /// Bit-for-bit equal to
    /// [`evaluate_with_differentials`](crate::evaluate_with_differentials())
    /// (same full AND products upward, same prefix/suffix sweep and
    /// zero-partial skip downward — including the reference's
    /// multiplications by exact one). Zero allocations after warmup.
    pub fn differentials(&mut self, tape: &AcTape, weights: &AcWeights) -> Complex {
        tape.check_weights(weights.num_slots());
        at_isa!(self.isa, {
            self.upward_full_products(tape, weights);
            self.downward(tape)
        })
    }

    /// The full-product upward half shared by the differential passes:
    /// fills `values` with every slot's value (no AND short-circuit) and
    /// flags the buffer for delta reuse.
    #[inline(always)]
    fn upward_full_products(&mut self, tape: &AcTape, weights: &AcWeights) {
        let n = tape.ops.len();
        self.ensure_values(n);
        let values = &mut self.values[..n];
        for (i, op) in tape.ops.iter().enumerate() {
            values[i] = match op.kind {
                TapeOpKind::Const => tape.consts[op.a as usize],
                TapeOpKind::Lit => weights.by_slot(op.a),
                TapeOpKind::And2 => {
                    // Full product (no short-circuit): (1·v₀)·v₁.
                    C_ONE * values[op.a as usize] * values[op.b as usize]
                }
                TapeOpKind::And => {
                    let mut acc = C_ONE;
                    for &c in &tape.edges[op.a as usize..op.b as usize] {
                        acc *= values[c as usize];
                    }
                    acc
                }
                TapeOpKind::Or => values[op.a as usize] + values[op.b as usize],
            };
        }
        self.values_mode = ValuesMode::DiffUpward;
        self.values_stamp = tape.stamp;
        self.value_lanes = 1;
    }

    /// [`differentials`](TapeEvaluator::differentials) when only the
    /// weights of `changed_vars` differ from this evaluator's previous
    /// differential pass on the same tape: the upward half updates just
    /// the dirty cone (see
    /// [`evaluate_delta`](TapeEvaluator::evaluate_delta)); the downward
    /// half always runs in full (the root partial flows everywhere).
    /// A Gibbs coordinate update that moves its variable changes one
    /// variable's evidence, and the next update rides this pass. Most
    /// chain steps run no pass at all: over the chains of the
    /// `noisy-vqe-sample` benchmark (a 12-qubit VQE with depolarizing
    /// noise after every gate), 85% of steps found the evidence unchanged
    /// and reused the partials, 10% ran this pass, and 5% were
    /// Metropolis–Hastings proposals, which run on a separate evaluator.
    ///
    /// Falls back to a full pass when the cached buffer is unusable.
    /// Bit-for-bit equal to a full
    /// [`differentials`](TapeEvaluator::differentials) pass.
    pub fn differentials_delta(
        &mut self,
        tape: &AcTape,
        weights: &AcWeights,
        changed_vars: &[u32],
    ) -> Complex {
        if self.values_mode != ValuesMode::DiffUpward || self.values_stamp != tape.stamp {
            return self.differentials(tape, weights);
        }
        tape.check_weights(weights.num_slots());
        at_isa!(self.isa, {
            self.delta_update(tape, weights, changed_vars, true);
            self.downward(tape)
        })
    }

    /// The downward (partial-derivative) sweep over the current
    /// full-product `values` buffer. Returns the root value.
    #[inline(always)]
    fn downward(&mut self, tape: &AcTape) -> Complex {
        let n = tape.ops.len();
        let values = &self.values[..n];
        if self.partials.len() < n {
            self.partials.resize(n, C_ZERO);
        }
        self.partial_lanes = 1;
        let partials = &mut self.partials[..n];
        partials.fill(C_ZERO);
        partials[tape.root as usize] = C_ONE;
        for (i, op) in tape.ops.iter().enumerate().rev() {
            let p = partials[i];
            if p == C_ZERO {
                continue;
            }
            match op.kind {
                TapeOpKind::And2 => {
                    // The reference suffix-stash/pq sweep unrolled for two
                    // children, keeping its exact multiplication sequence:
                    // suffix stash = [1·v₁, 1], pq = p then p·v₀.
                    let va = values[op.a as usize];
                    let vb = values[op.b as usize];
                    partials[op.a as usize] += p * (C_ONE * vb);
                    partials[op.b as usize] += (p * va) * C_ONE;
                }
                TapeOpKind::And => {
                    let cs = &tape.edges[op.a as usize..op.b as usize];
                    // Stash the suffix Π_{j>k} v_j from the right; the
                    // forward sweep then carries pq = p·Π_{j<k} v_j so each
                    // child's contribution pq·suffix[k] costs a single
                    // multiply (exact with zero children — no divisions).
                    self.prefix.clear();
                    self.prefix.resize(cs.len(), C_ONE);
                    let mut suffix = C_ONE;
                    for (k, &c) in cs.iter().enumerate().rev() {
                        self.prefix[k] = suffix;
                        suffix *= values[c as usize];
                    }
                    let mut pq = p;
                    for (k, &c) in cs.iter().enumerate() {
                        partials[c as usize] += pq * self.prefix[k];
                        pq *= values[c as usize];
                    }
                }
                TapeOpKind::Or => {
                    partials[op.a as usize] += p;
                    partials[op.b as usize] += p;
                }
                _ => {}
            }
        }
        values[tape.root as usize]
    }

    /// `∂f/∂w(lit)` from the most recent scalar
    /// [`differentials`](TapeEvaluator::differentials) pass: the amplitude
    /// of the same query with `lit`'s variable re-assigned to satisfy `lit`
    /// (Darwiche's differential semantics). `None` if the literal does not
    /// appear in the circuit. No per-call allocation — the literal→slot
    /// table was built at lowering time.
    #[inline]
    pub fn wrt_lit(&self, tape: &AcTape, lit: Lit) -> Option<Complex> {
        debug_assert_eq!(self.partial_lanes, 1, "scalar read after batch pass");
        tape.lit_slot(lit).map(|s| self.partials[s as usize])
    }

    /// Snapshot of the most recent scalar differentials pass, owning its
    /// partials, for callers that must outlive the evaluator borrow (the
    /// diagnosis queries). Hot paths use
    /// [`wrt_lit`](TapeEvaluator::wrt_lit) directly instead.
    pub fn take_differentials<'t>(
        &self,
        tape: &'t AcTape,
        value: Complex,
    ) -> TapeDifferentials<'t> {
        debug_assert_eq!(self.partial_lanes, 1, "scalar snapshot after batch pass");
        TapeDifferentials {
            value,
            partials: self.partials[..tape.ops.len()].to_vec(),
            tape,
        }
    }

    /// Batched upward pass over `k` weight lanes: one tape scan updating
    /// `⌈k/W⌉` lane blocks per slot, at the block width `W` the lane count
    /// selects ([`lane_width`]), each a fixed-width split-plane loop the
    /// compiler vectorizes. Returns the `k` root values; lane `l` is
    /// bit-for-bit the scalar [`evaluate`](TapeEvaluator::evaluate) of
    /// that lane's weights (mirroring
    /// [`evaluate_batch`](crate::evaluate_batch()): per-lane zero
    /// short-circuit as a select).
    pub fn evaluate_batch(&mut self, tape: &AcTape, weights: &AcWeightsBatch) -> &[Complex] {
        let k = weights.lanes();
        if k == 0 {
            return &[];
        }
        tape.check_weights(weights.num_slots());
        let nb = weights.blocks_per_row();
        self.value_lanes = k;
        self.values_mode = ValuesMode::BatchEvaluate;
        self.values_stamp = tape.stamp;
        at_width!(self, weights, |s, w| {
            s.upward(tape, w, nb);
            unpack_row(&s.values, tape.root as usize, nb, k, &mut self.root_out);
        });
        &self.root_out
    }

    /// [`evaluate_batch`](TapeEvaluator::evaluate_batch) when only the
    /// weights of `changed_vars` differ from this evaluator's previous
    /// batched upward pass on the same tape (same lane count): recomputes
    /// just the dirty cone above the changed literals, with **one**
    /// instruction decode per dirty slot updating all `k` lanes — the
    /// delta-aware batch lane kernel. Evidence sweeps whose evidence is
    /// shared across lanes (Gray-ordered basis enumerations over per-lane
    /// parameter bindings — batched wavefunctions, probabilities,
    /// expectations, gradient lanes) ride this: the per-slot decode that
    /// the scalar delta path pays once per lane is paid once per batch.
    ///
    /// Falls back to a full [`evaluate_batch`](TapeEvaluator::evaluate_batch)
    /// when the cached buffer is missing, was produced by another kernel
    /// mode or tape, or has a different lane count (which covers a
    /// different block width), so it is always safe to call. Lane `l` is
    /// bit-for-bit the scalar [`evaluate`](TapeEvaluator::evaluate) of
    /// that lane's weights: every recomputed slot runs the batch kernel's
    /// per-lane arithmetic (itself bit-identical to scalar), and
    /// propagation past a slot stops only when **every** lane's bits are
    /// unchanged — a pure function of unchanged children, by induction
    /// over the topological order.
    ///
    /// The caller must list every variable whose weights changed in **any**
    /// lane since the previous pass (listing unchanged ones is harmless).
    pub fn evaluate_batch_delta(
        &mut self,
        tape: &AcTape,
        weights: &AcWeightsBatch,
        changed_vars: &[u32],
    ) -> &[Complex] {
        let k = weights.lanes();
        if k == 0 {
            return &[];
        }
        if self.values_mode != ValuesMode::BatchEvaluate
            || self.values_stamp != tape.stamp
            || self.value_lanes != k
        {
            return self.evaluate_batch(tape, weights);
        }
        tape.check_weights(weights.num_slots());
        let nb = weights.blocks_per_row();
        at_width!(self, weights, |s, w| {
            s.delta(tape, w, changed_vars, nb, false, &mut self.queued);
            unpack_row(&s.values, tape.root as usize, nb, k, &mut self.root_out);
        });
        &self.root_out
    }

    /// Batched [`differentials`](TapeEvaluator::differentials) with the
    /// downward half restricted to an ancestor cone: lane-strided
    /// full-product upward plus a cone-restricted batch downward. Lane
    /// `l`'s root and its partials at every cone slot are bit-for-bit the
    /// full scalar [`differentials`](TapeEvaluator::differentials) of that
    /// lane's weights, while the often much larger rest of the tape is
    /// never visited downward. Read root values through
    /// [`value_lane`](TapeEvaluator::value_lane) and contractions through
    /// [`contract_tangent_broadcast`](TapeEvaluator::contract_tangent_broadcast);
    /// partials outside the cone are stale.
    ///
    /// This is the analytic-gradient throughput kernel: lanes are
    /// *evidence assignments* (basis states) sharing one parameter
    /// binding, so the per-slot sweep overhead — the reason a scalar
    /// downward pass per basis state cannot beat the delta-batched
    /// parameter-shift path — is paid once per `k` states.
    pub fn differentials_cone_batch(
        &mut self,
        tape: &AcTape,
        weights: &AcWeightsBatch,
        cone: &DiffCone,
    ) {
        let k = weights.lanes();
        self.partial_lanes = k;
        self.value_lanes = k;
        if k == 0 {
            return;
        }
        tape.check_weights(weights.num_slots());
        self.values_mode = ValuesMode::BatchDiffUpward;
        self.values_stamp = tape.stamp;
        let nb = weights.blocks_per_row();
        at_width!(self, weights, |s, w| {
            s.upward_full_products(tape, w, nb);
            s.downward_cone(tape, cone, k);
        });
    }

    /// [`differentials_cone_batch`](TapeEvaluator::differentials_cone_batch)
    /// when only the weights of `changed_vars` differ (in any lane) from
    /// this evaluator's previous batch differential pass on the same tape:
    /// the upward half updates just the dirty rows. Falls back to the full
    /// pass when the cached buffer is unusable. Bit-for-bit equal, lane by
    /// lane, to the full pass.
    pub fn differentials_cone_batch_delta(
        &mut self,
        tape: &AcTape,
        weights: &AcWeightsBatch,
        changed_vars: &[u32],
        cone: &DiffCone,
    ) {
        let k = weights.lanes();
        if k == 0 {
            self.partial_lanes = 0;
            self.value_lanes = 0;
            return;
        }
        if self.values_mode != ValuesMode::BatchDiffUpward
            || self.values_stamp != tape.stamp
            || self.value_lanes != k
        {
            return self.differentials_cone_batch(tape, weights, cone);
        }
        tape.check_weights(weights.num_slots());
        self.partial_lanes = k;
        let nb = weights.blocks_per_row();
        at_width!(self, weights, |s, w| {
            s.delta(tape, w, changed_vars, nb, true, &mut self.queued);
            s.downward_cone(tape, cone, k);
        });
    }

    /// The root value of lane `lane` from the most recent batched pass.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not below the pass's lane count.
    #[inline]
    pub fn value_lane(&self, tape: &AcTape, lane: usize) -> Complex {
        let k = self.value_lanes;
        assert!(
            lane < k,
            "lane {lane} out of range: the last pass filled {k} lanes"
        );
        let root = tape.root as usize;
        if lane_width(k) == NARROW_WIDTH {
            lane_of(&self.narrow.values, root, k, lane)
        } else {
            lane_of(&self.wide.values, root, k, lane)
        }
    }

    /// Gradient contraction over the most recent
    /// [`differentials_cone_batch`](TapeEvaluator::differentials_cone_batch)
    /// pass: chain-rules each lane's per-literal partials against one
    /// symbol's precomputed weight tangents,
    /// `∂root/∂θ = Σ_lit ∂root/∂w(lit) · d(w(lit))/dθ`, broadcasting the
    /// one plan across every lane — the basis-state-lane gradient loop,
    /// where lanes differ in evidence but share the parameter binding (and
    /// therefore the tangents). One differentials pass serves every
    /// symbol: each costs one call here (a short dot product over its
    /// nonzero tangent literals), not a re-evaluation. Lane `l` of `out`
    /// is bit-for-bit the plan-order sum `Σ partial·tangent` over that
    /// lane's scalar partials, starting from zero. Zero allocations after
    /// warmup.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the pass's lane count.
    pub fn contract_tangent_broadcast(&mut self, plan: &TangentPlan, out: &mut [Complex]) {
        let k = self.partial_lanes;
        assert_eq!(out.len(), k, "output lane count mismatch");
        if lane_width(k) == NARROW_WIDTH {
            at_isa!(self.isa, self.narrow.contract(plan, out));
        } else {
            at_isa!(self.isa, avx512, self.wide.contract(plan, out));
        }
    }

    /// Magnitude pass for model sampling: fills the persistent magnitude
    /// buffer with the *absolute* value of every slot under `weights` and
    /// returns the root magnitude. The buffer stays valid (for
    /// [`draw_model`](TapeEvaluator::draw_model)) until the next magnitude
    /// pass — weights that do not change between draws (the Gibbs
    /// zero-density redraw loop) pay this pass once.
    pub fn model_magnitudes(&mut self, tape: &AcTape, weights: &AcWeights) -> f64 {
        at_isa!(self.isa, self.magnitudes(tape, weights))
    }

    /// The kernel behind
    /// [`model_magnitudes`](TapeEvaluator::model_magnitudes).
    #[inline(always)]
    fn magnitudes(&mut self, tape: &AcTape, weights: &AcWeights) -> f64 {
        tape.check_weights(weights.num_slots());
        let n = tape.ops.len();
        if self.mags.len() < n {
            self.mags.resize(n, 0.0);
        }
        let mags = &mut self.mags[..n];
        for (i, op) in tape.ops.iter().enumerate() {
            mags[i] = match op.kind {
                TapeOpKind::Const => tape.consts[op.a as usize].norm(),
                TapeOpKind::Lit => weights.by_slot(op.a).norm(),
                TapeOpKind::And2 => 1.0 * mags[op.a as usize] * mags[op.b as usize],
                TapeOpKind::And => tape.edges[op.a as usize..op.b as usize]
                    .iter()
                    .map(|&c| mags[c as usize])
                    .product(),
                TapeOpKind::Or => mags[op.a as usize] + mags[op.b as usize],
            };
        }
        mags[tape.root as usize]
    }

    /// Descends from the root, choosing OR branches proportionally to the
    /// magnitudes of the last
    /// [`model_magnitudes`](TapeEvaluator::model_magnitudes) pass, and
    /// appends the literals along the sampled model to `lits` (cleared
    /// first). Visits OR nodes in the same order as the enum-walk
    /// `sample_model` reference, so it consumes the identical RNG stream
    /// and yields the identical model. Draw only after a positive root
    /// magnitude: when it is zero no model has nonzero weight magnitude,
    /// and every OR choice is a coin flip.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the magnitude buffer is stale for this tape.
    pub fn draw_model<R: rand::Rng + ?Sized>(
        &mut self,
        tape: &AcTape,
        rng: &mut R,
        lits: &mut Vec<Lit>,
    ) {
        debug_assert!(self.mags.len() >= tape.ops.len(), "stale magnitude buffer");
        lits.clear();
        self.stack.clear();
        self.stack.push(tape.root);
        while let Some(id) = self.stack.pop() {
            let op = tape.ops[id as usize];
            match op.kind {
                TapeOpKind::Lit => lits.push(op.b as i32),
                TapeOpKind::And2 => {
                    self.stack.push(op.a);
                    self.stack.push(op.b);
                }
                TapeOpKind::And => self
                    .stack
                    .extend_from_slice(&tape.edges[op.a as usize..op.b as usize]),
                TapeOpKind::Or => {
                    let (ma, mb) = (self.mags[op.a as usize], self.mags[op.b as usize]);
                    let pick_a = if ma + mb <= 0.0 {
                        rng.gen::<bool>()
                    } else {
                        rng.gen::<f64>() * (ma + mb) < ma
                    };
                    self.stack.push(if pick_a { op.a } else { op.b });
                }
                TapeOpKind::Const => {}
            }
        }
    }
}

/// The batch kernels' buffers at one block width `W`, node-major with
/// `⌈k/W⌉` [`LaneBlock`]s per slot, and the kernels that run on them.
/// [`TapeEvaluator`] holds one per width and runs each pass on the one
/// its lane count selects ([`lane_width`]). Grow-only, like the scalar
/// `values`.
#[derive(Debug, Default)]
struct BatchScratch<const W: usize> {
    /// Per-slot lane-blocked values.
    values: Vec<LaneBlock<W>>,
    /// Per-slot lane-blocked partials for the cone downward sweep.
    partials: Vec<LaneBlock<W>>,
    /// The cone downward sweep's suffix stash, sized once per pass from
    /// the tape's [`AcTape::max_and_arity`] (see [`and_partials`]).
    stash: Vec<LaneBlock<W>>,
    /// The contraction's accumulator row and the delta kernels'
    /// candidate row.
    acc: Vec<LaneBlock<W>>,
}

impl<const W: usize> BatchScratch<W> {
    /// Grows the value buffer to at least `len` blocks without re-zeroing
    /// live ones: the batch passes overwrite every row they read.
    #[inline]
    fn ensure_values(&mut self, len: usize) {
        if self.values.len() < len {
            self.values.resize(len, LaneBlock::ZERO);
        }
    }

    /// The short-circuited upward value pass: one fixed-width split-plane
    /// loop per block serves every lane count, ragged batches riding the
    /// masked remainder block.
    #[inline(always)]
    fn upward(&mut self, tape: &AcTape, weights: &[LaneBlock<W>], nb: usize) {
        let n = tape.ops.len();
        self.ensure_values(n * nb);
        let values = &mut self.values[..n * nb];
        for (i, op) in tape.ops.iter().enumerate() {
            // Children precede parents, so every child row sits in `head`.
            let (head, tail) = values.split_at_mut(i * nb);
            let out = &mut tail[..nb];
            match op.kind {
                TapeOpKind::Const => out.fill(LaneBlock::splat(tape.consts[op.a as usize])),
                TapeOpKind::Lit => out.copy_from_slice(row_of(weights, op.a as usize, nb)),
                TapeOpKind::And2 => {
                    // The two-child product with the reference's
                    // short-circuit sequence, as a select per lane.
                    let arow = row_of(head, op.a as usize, nb);
                    let brow = row_of(head, op.b as usize, nb);
                    for (acc, (x, y)) in out.iter_mut().zip(arow.iter().zip(brow)) {
                        *acc = LaneBlock::one_times(x);
                        acc.mul_assign_sc(y);
                    }
                }
                TapeOpKind::And => {
                    and_row_sc(head, &tape.edges[op.a as usize..op.b as usize], nb, out);
                }
                TapeOpKind::Or => {
                    let a = row_of(head, op.a as usize, nb);
                    let b = row_of(head, op.b as usize, nb);
                    for (acc, (x, y)) in out.iter_mut().zip(a.iter().zip(b)) {
                        acc.add_of(x, y);
                    }
                }
            }
        }
    }

    /// The lane-strided full-product upward half of the batch
    /// differential passes.
    #[inline(always)]
    fn upward_full_products(&mut self, tape: &AcTape, weights: &[LaneBlock<W>], nb: usize) {
        let n = tape.ops.len();
        self.ensure_values(n * nb);
        let values = &mut self.values[..n * nb];
        for (i, op) in tape.ops.iter().enumerate() {
            let (head, tail) = values.split_at_mut(i * nb);
            let out = &mut tail[..nb];
            match op.kind {
                TapeOpKind::Const => out.fill(LaneBlock::splat(tape.consts[op.a as usize])),
                TapeOpKind::Lit => out.copy_from_slice(row_of(weights, op.a as usize, nb)),
                TapeOpKind::And2 => {
                    let arow = row_of(head, op.a as usize, nb);
                    let brow = row_of(head, op.b as usize, nb);
                    for (acc, (x, y)) in out.iter_mut().zip(arow.iter().zip(brow)) {
                        *acc = LaneBlock::one_times(x);
                        acc.mul_assign(y);
                    }
                }
                TapeOpKind::And => {
                    out.fill(LaneBlock::ONE);
                    for &c in &tape.edges[op.a as usize..op.b as usize] {
                        for (a, v) in out.iter_mut().zip(row_of(head, c as usize, nb)) {
                            a.mul_assign(v);
                        }
                    }
                }
                TapeOpKind::Or => {
                    let arow = op.a as usize * nb;
                    let brow = op.b as usize * nb;
                    for (bi, a) in out.iter_mut().enumerate() {
                        a.add_of(&head[arow + bi], &head[brow + bi]);
                    }
                }
            }
        }
    }

    /// The batched analogue of [`TapeEvaluator::delta_update`]: one
    /// ascending flag-scan sweep recomputing dirty slot *rows* (all `k`
    /// lanes) with a single decode each, propagating to parents when any
    /// lane's bits changed. `full_products` selects the differential
    /// passes' no-short-circuit AND arithmetic, exactly as in the scalar
    /// kernel.
    #[inline(always)]
    fn delta(
        &mut self,
        tape: &AcTape,
        weights: &[LaneBlock<W>],
        changed_vars: &[u32],
        nb: usize,
        full_products: bool,
        queued: &mut Vec<bool>,
    ) {
        let (mut pending, mut cursor) = seed_dirty(tape, changed_vars, queued);
        // Row scratch: the candidate new blocks of the slot being
        // recomputed (all lanes), compared bitwise against the cached
        // row before overwriting. Dead remainder lanes are deterministic
        // functions of the zero-filled weights, so whole-block bitwise
        // comparison stays sound for ragged batches.
        self.acc.clear();
        self.acc.resize(nb, LaneBlock::ZERO);
        while pending > 0 {
            if !queued[cursor] {
                cursor += 1;
                continue;
            }
            queued[cursor] = false;
            pending -= 1;
            let op = tape.ops[cursor];
            let row = cursor * nb;
            {
                // Disjoint field borrows: children are read from `values`
                // (all at slots < cursor), the candidate row lands in `acc`.
                let values = &self.values;
                let out = &mut self.acc[..nb];
                match op.kind {
                    TapeOpKind::Const => out.fill(LaneBlock::splat(tape.consts[op.a as usize])),
                    TapeOpKind::Lit => out.copy_from_slice(row_of(weights, op.a as usize, nb)),
                    TapeOpKind::And2 => {
                        let arow = row_of(values, op.a as usize, nb);
                        let brow = row_of(values, op.b as usize, nb);
                        for (acc, (x, y)) in out.iter_mut().zip(arow.iter().zip(brow)) {
                            *acc = LaneBlock::one_times(x);
                            if full_products {
                                acc.mul_assign(y);
                            } else {
                                acc.mul_assign_sc(y);
                            }
                        }
                    }
                    TapeOpKind::And if full_products => {
                        // Child-outer: at wide lane counts the rows of a
                        // large tape do not fit in L2, and one sequential
                        // read of each child row beats re-reading it per
                        // block.
                        out.fill(LaneBlock::ONE);
                        for &c in &tape.edges[op.a as usize..op.b as usize] {
                            for (acc, v) in out.iter_mut().zip(row_of(values, c as usize, nb)) {
                                acc.mul_assign(v);
                            }
                        }
                    }
                    TapeOpKind::And => {
                        and_row_sc(values, &tape.edges[op.a as usize..op.b as usize], nb, out);
                    }
                    TapeOpKind::Or => {
                        let arow = op.a as usize * nb;
                        let brow = op.b as usize * nb;
                        for (bi, acc) in out.iter_mut().enumerate() {
                            acc.add_of(&values[arow + bi], &values[brow + bi]);
                        }
                    }
                }
            }
            let old = &self.values[row..row + nb];
            let any_changed = self.acc.iter().zip(old).any(|(new, old)| new.bits_ne(old));
            if any_changed {
                self.values[row..row + nb].copy_from_slice(&self.acc);
                mark_parents(tape, cursor, queued, &mut pending);
            }
            cursor += 1;
        }
    }

    /// The cone-restricted batch downward sweep. Every parent of a cone
    /// slot is itself a cone slot (the cone is an ancestor closure), so each
    /// cone slot receives exactly the contributions the full scalar sweep
    /// gives it, in the same descending order and with the same per-node
    /// multiplication sequence; per-lane accumulation therefore matches the
    /// scalar [`TapeEvaluator::differentials`] bit for bit (zero-partial
    /// adds are bitwise no-ops, so the lane loops run branchless where the
    /// scalar sweep skips).
    #[inline(always)]
    fn downward_cone(&mut self, tape: &AcTape, cone: &DiffCone, k: usize) {
        debug_assert_eq!(cone.stamp, tape.stamp, "cone built for a different tape");
        let n = tape.ops.len();
        let nb = blocks_for(k);
        let values = &self.values[..n * nb];
        if self.partials.len() < n * nb {
            self.partials.resize(n * nb, LaneBlock::ZERO);
        }
        let partials = &mut self.partials[..n * nb];
        for &s in &cone.slots {
            partials[s as usize * nb..s as usize * nb + nb].fill(LaneBlock::ZERO);
        }
        if cone.slots.is_empty() {
            return;
        }
        let root_row = tape.root as usize * nb;
        // Masked seed (live lanes one, dead remainder lanes zero): dead
        // partial lanes never turn nonzero through the multiplies below,
        // so the all-zero row skips fire as they would for a full block.
        masked_ones_row(&mut partials[root_row..root_row + nb], k);
        let stash = tape.max_and_arity as usize * 2;
        if self.stash.len() < stash {
            self.stash.resize(stash, LaneBlock::ZERO);
        }
        let slots = &cone.slots;
        for idx in (0..slots.len()).rev() {
            let i = slots[idx] as usize;
            let row = i * nb;
            let op = tape.ops[i];
            // The sweep is latency-bound on the scattered child rows
            // (a few thousand slots, each touching 2+ rows far apart),
            // so request the rows of a slot a few iterations ahead while
            // this one computes. Pure hint: no effect on results.
            if idx >= 8 {
                let f = slots[idx - 8] as usize;
                let fop = tape.ops[f];
                match fop.kind {
                    TapeOpKind::And2 | TapeOpKind::Or => {
                        prefetch_row(values, fop.a as usize * nb);
                        prefetch_row(values, fop.b as usize * nb);
                        prefetch_row(partials, fop.a as usize * nb);
                        prefetch_row(partials, fop.b as usize * nb);
                        prefetch_row(partials, f * nb);
                    }
                    TapeOpKind::And => {
                        for &c in &tape.edges[fop.a as usize..fop.b as usize] {
                            prefetch_row(values, c as usize * nb);
                            if cone.member[c as usize] {
                                prefetch_row(partials, c as usize * nb);
                            }
                        }
                        prefetch_row(partials, f * nb);
                    }
                    _ => {}
                }
            }
            match op.kind {
                TapeOpKind::And2 => {
                    // Unrolled two-child form of the generic suffix-stash/pq
                    // sweep below — the same multiplication sequence per
                    // lane (child a sees pq = p and suffix C_ONE·vb, child b
                    // sees pq = p·va and suffix C_ONE), so partials stay
                    // bit-identical without the per-slot scratch-buffer
                    // traffic. Children sit at smaller slots than their
                    // parent, so splitting at the parent row yields
                    // borrow-disjoint slices and the inner loops carry no
                    // bounds checks.
                    let arow = op.a as usize * nb;
                    let brow = op.b as usize * nb;
                    let a_in = cone.member[op.a as usize];
                    let b_in = cone.member[op.b as usize];
                    if !a_in && !b_in {
                        continue;
                    }
                    // No zero-partial select here: a zero `p` contributes
                    // an exact-zero product, and accumulators never hold
                    // -0.0 (they start at +0.0 and IEEE addition yields
                    // +0.0 on cancellation), so the add is a bitwise
                    // no-op — and the unconditional block op vectorizes.
                    let (head, tail) = partials.split_at_mut(row);
                    let p_row = &tail[..nb];
                    if a_in {
                        for bi in 0..nb {
                            let ov = LaneBlock::one_times(&values[brow + bi]);
                            head[arow + bi].add_mul(&p_row[bi], &ov);
                        }
                    }
                    if b_in {
                        for bi in 0..nb {
                            let pv = p_row[bi].mul(&values[arow + bi]);
                            head[brow + bi].add_mul(&pv, &LaneBlock::ONE);
                        }
                    }
                }
                TapeOpKind::And => {
                    // Contributions land in `head` (slots below `row`), so
                    // `p_row` cannot change mid-slot, and the adds are
                    // branchless like the And2 arm (zero-`p` adds are
                    // bitwise no-ops).
                    let (head, tail) = partials.split_at_mut(row);
                    let p_row = &tail[..nb];
                    if p_row.iter().all(LaneBlock::all_zero) {
                        continue;
                    }
                    let cs = &tape.edges[op.a as usize..op.b as usize];
                    let (stash, member) = (&mut self.stash, &cone.member);
                    for bi in (0..nb / 2).map(|pair| 2 * pair) {
                        let (v, h, p) = (&values[bi..], &mut head[bi..], &p_row[bi..]);
                        and_partials::<W, 2>(v, h, p, stash, cs, member, nb);
                    }
                    if nb % 2 == 1 {
                        let bi = nb - 1;
                        let (v, h, p) = (&values[bi..], &mut head[bi..], &p_row[bi..]);
                        and_partials::<W, 1>(v, h, p, stash, cs, member, nb);
                    }
                }
                TapeOpKind::Or => {
                    let arow = op.a as usize * nb;
                    let brow = op.b as usize * nb;
                    let a_in = cone.member[op.a as usize];
                    let b_in = cone.member[op.b as usize];
                    if !a_in && !b_in {
                        continue;
                    }
                    // Branchless for the same reason as the And2 arm: a
                    // zero `p` add is a bitwise no-op on these
                    // accumulators.
                    let (head, tail) = partials.split_at_mut(row);
                    let p_row = &tail[..nb];
                    if a_in {
                        for (o, p) in head[arow..arow + nb].iter_mut().zip(p_row) {
                            o.add_assign(p);
                        }
                    }
                    if b_in {
                        for (o, p) in head[brow..brow + nb].iter_mut().zip(p_row) {
                            o.add_assign(p);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// [`TapeEvaluator::contract_tangent_broadcast`] over this width's
    /// partials: `out.len()` lanes, plan order, from zero.
    #[inline(always)]
    fn contract(&mut self, plan: &TangentPlan, out: &mut [Complex]) {
        let nb = blocks_for(out.len());
        self.acc.clear();
        self.acc.resize(nb, LaneBlock::ZERO);
        for &(slot, t) in &plan.entries {
            let tb = LaneBlock::splat(t);
            for (o, p) in self
                .acc
                .iter_mut()
                .zip(row_of(&self.partials, slot as usize, nb))
            {
                o.add_mul(p, &tb);
            }
        }
        for (l, o) in out.iter_mut().enumerate() {
            *o = self.acc[l / W].get(l % W);
        }
    }
}

/// Flags the slots of `changed_vars`' literals as dirty in `queued`:
/// returns the number flagged and the lowest one (`tape.ops.len()` when
/// none), where the delta kernels' ascending sweep starts.
fn seed_dirty(tape: &AcTape, changed_vars: &[u32], queued: &mut Vec<bool>) -> (usize, usize) {
    let n = tape.ops.len();
    if queued.len() < n {
        queued.resize(n, false);
    }
    let mut pending = 0usize;
    let mut cursor = n;
    for &v in changed_vars {
        for lit in [v as Lit, -(v as Lit)] {
            if let Some(slot) = tape.lit_slot(lit) {
                if !queued[slot as usize] {
                    queued[slot as usize] = true;
                    pending += 1;
                    cursor = cursor.min(slot as usize);
                }
            }
        }
    }
    (pending, cursor)
}

/// Flags every parent of `slot` as dirty, counting the newly flagged ones
/// into `pending`.
#[inline]
fn mark_parents(tape: &AcTape, slot: usize, queued: &mut [bool], pending: &mut usize) {
    for &p in tape.parents_of(slot as TapeId) {
        if !queued[p as usize] {
            queued[p as usize] = true;
            *pending += 1;
        }
    }
}

/// The short-circuited product of the rows of `cs` into `out`, two
/// blocks at a time (a ragged odd block runs alone; see
/// [`and_blocks_sc`]).
#[inline(always)]
fn and_row_sc<const W: usize>(
    values: &[LaneBlock<W>],
    cs: &[TapeId],
    nb: usize,
    out: &mut [LaneBlock<W>],
) {
    let mut pairs = out.chunks_exact_mut(2);
    for (pair, blocks) in (&mut pairs).enumerate() {
        blocks.copy_from_slice(&and_blocks_sc::<W, 2>(&values[2 * pair..], cs, nb));
    }
    if let [last] = pairs.into_remainder() {
        [*last] = and_blocks_sc::<W, 1>(&values[nb - 1..], cs, nb);
    }
}

/// `P` adjacent blocks of the short-circuited product of the rows of
/// `cs`, `values` starting at the first of them: each child multiplies
/// into all `P` blocks at once, with the products held in registers from
/// one to the last child. No block tests for all-zero and none stops
/// early, so the `P` dependency chains interleave without a branch. The
/// bits are the scalar kernel's: `mul_assign_sc` keeps every zero lane's
/// bits, so a lane runs exactly the scalar multiply sequence up to its
/// break and multiplying it on cannot change it.
#[inline(always)]
fn and_blocks_sc<const W: usize, const P: usize>(
    values: &[LaneBlock<W>],
    cs: &[TapeId],
    nb: usize,
) -> [LaneBlock<W>; P] {
    let mut acc = [LaneBlock::ONE; P];
    for &c in cs {
        let at = c as usize * nb;
        for (a, v) in acc.iter_mut().zip(&values[at..at + P]) {
            a.mul_assign_sc(v);
        }
    }
    acc
}

/// `P` adjacent blocks of a product node's step in the cone downward
/// sweep, `values`, `head` (the partials below the node) and `p` (its
/// partial row) starting at the first of them. Per lane this is the
/// reference sweep's multiplication sequence, restructured for memory
/// behavior with the running products held in registers. A backward
/// scan stashes the running suffix at every child position (one read of
/// each child's blocks); a forward scan then carries pq = p·(prefix
/// product) and adds `pq · suffix` into every cone child's partial (a
/// single multiply per lane), re-reading the child blocks while they
/// are still cache-hot. The suffix runs over every child (the product
/// sequence must match the full sweep's); only the adds into non-cone
/// children are skipped, since those can never flow back into a cone
/// slot.
#[inline(always)]
fn and_partials<const W: usize, const P: usize>(
    values: &[LaneBlock<W>],
    head: &mut [LaneBlock<W>],
    p: &[LaneBlock<W>],
    stash: &mut [LaneBlock<W>],
    cs: &[TapeId],
    member: &[bool],
    nb: usize,
) {
    let mut suffix = [LaneBlock::ONE; P];
    for (ci, &c) in cs.iter().enumerate().rev() {
        let at = c as usize * nb;
        stash[ci * P..ci * P + P].copy_from_slice(&suffix);
        for (s, v) in suffix.iter_mut().zip(&values[at..at + P]) {
            s.mul_assign(v);
        }
    }
    let mut pq: [LaneBlock<W>; P] = std::array::from_fn(|j| p[j]);
    for (ci, &c) in cs.iter().enumerate() {
        let at = c as usize * nb;
        if member[c as usize] {
            let suf = &stash[ci * P..ci * P + P];
            for ((o, q), s) in head[at..at + P].iter_mut().zip(&pq).zip(suf) {
                o.add_mul(q, s);
            }
        }
        for (q, v) in pq.iter_mut().zip(&values[at..at + P]) {
            q.mul_assign(v);
        }
    }
}

/// Lane `lane` of the `k`-lane row `id`.
#[inline]
fn lane_of<const W: usize>(values: &[LaneBlock<W>], id: usize, k: usize, lane: usize) -> Complex {
    values[id * blocks_for(k) + lane / W].get(lane % W)
}

/// Fills `out` with the masked all-ones row for `k` live lanes: full
/// blocks all-one, the trailing ragged block one in live lanes and zero in
/// dead remainder lanes.
#[inline]
fn masked_ones_row<const W: usize>(out: &mut [LaneBlock<W>], k: usize) {
    out.fill(LaneBlock::ONE);
    let rem = k % W;
    if rem != 0 {
        let last = out.last_mut().expect("k > 0 implies at least one block");
        for w in rem..W {
            last.set(w, C_ZERO);
        }
    }
}

/// Hints the CPU to start pulling the block starting at `buf[at]` — the
/// batch cone downward sweep is latency-bound on scattered row fetches (a
/// few hundred cycles of stall against a couple hundred cycles of
/// arithmetic per slot), so the hint is nearly free and hides most of the
/// miss. No-op off x86_64.
#[inline(always)]
// Audited exception to the workspace `unsafe_code` deny: a pure cache
// hint, no architectural reads or writes.
#[allow(unsafe_code)]
fn prefetch_row<const W: usize>(buf: &[LaneBlock<W>], at: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        // Touch only the first block (one 64-byte line per 4 lanes); the
        // in-row access pattern is sequential, so the hardware stream
        // prefetcher covers any further blocks. Requesting every line of
        // every row of a wide product node floods the load queue and
        // evicts live data — measurably slower than under-prefetching.
        if at < buf.len() {
            let p = buf[at..].as_ptr().cast::<i8>();
            for line in (0..std::mem::size_of::<LaneBlock<W>>()).step_by(64) {
                // SAFETY: `line` stays inside block `at`, which is in
                // bounds; prefetch reads nothing architecturally and has
                // no side effects beyond the cache.
                unsafe {
                    core::arch::x86_64::_mm_prefetch(p.add(line), core::arch::x86_64::_MM_HINT_T0);
                }
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (buf, at);
}

/// An owned snapshot of a scalar differentials pass (value + per-slot
/// partials), borrowing only the tape. For callers that hold results across
/// further evaluator use (sensitivity analysis); the Gibbs loop reads the
/// evaluator's buffers directly instead.
#[derive(Debug)]
pub struct TapeDifferentials<'t> {
    value: Complex,
    partials: Vec<Complex>,
    tape: &'t AcTape,
}

impl<'t> TapeDifferentials<'t> {
    /// Value at the root (the amplitude of the current evidence).
    pub fn value(&self) -> Complex {
        self.value
    }

    /// `∂f/∂w(lit)` — see [`TapeEvaluator::wrt_lit`].
    pub fn wrt_lit(&self, lit: Lit) -> Option<Complex> {
        self.tape.lit_slot(lit).map(|s| self.partials[s as usize])
    }
}

/// The ancestor closure of a set of target tape slots: every slot from
/// which some target is reachable, targets included. Partial derivatives
/// flow strictly downward (a slot's partial is fed only by its parents),
/// so a downward sweep restricted to this cone
/// ([`TapeEvaluator::differentials_cone_batch`]) produces partials at the
/// targets bit-for-bit equal to the full sweep's — every parent of a cone
/// member is itself a cone member, so no contribution is lost — while the
/// rest of the tape is never cleared or visited.
///
/// The cone is structural: it depends only on the tape and the targets,
/// not on weights or evidence. Gradient loops build it once per bind
/// (targets = the union of every symbol's nonzero-tangent literal slots)
/// and reuse it for every evidence assignment.
#[derive(Debug, Clone)]
pub struct DiffCone {
    /// Cone member slots, ascending tape order.
    slots: Vec<TapeId>,
    /// Per-slot membership mask (`tape.num_ops()` long).
    member: Vec<bool>,
    /// Identity of the tape the cone was built for.
    stamp: u64,
}

impl DiffCone {
    /// Builds the ancestor closure of `targets` over `tape` in one
    /// ascending sweep: a slot joins the cone when it is a target or any
    /// of its children already has (children precede parents in tape
    /// order). `O(ops + edges)`, once per bind.
    pub fn new(tape: &AcTape, targets: impl IntoIterator<Item = TapeId>) -> Self {
        let n = tape.ops.len();
        let mut member = vec![false; n];
        let mut any = false;
        for t in targets {
            member[t as usize] = true;
            any = true;
        }
        let mut slots = Vec::new();
        if any {
            for (i, op) in tape.ops.iter().enumerate() {
                if !member[i] {
                    let child_hit = match op.kind {
                        TapeOpKind::And2 | TapeOpKind::Or => {
                            member[op.a as usize] || member[op.b as usize]
                        }
                        TapeOpKind::And => tape.edges[op.a as usize..op.b as usize]
                            .iter()
                            .any(|&c| member[c as usize]),
                        _ => false,
                    };
                    if !child_hit {
                        continue;
                    }
                    member[i] = true;
                }
                slots.push(i as TapeId);
            }
            debug_assert!(
                member[tape.root as usize],
                "live tape slots are always root-reachable"
            );
        }
        Self {
            slots,
            member,
            stamp: tape.stamp,
        }
    }

    /// Number of cone slots (the restricted sweep's work per pass).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the target set was empty — every contraction over it is
    /// identically zero and the restricted sweep is a no-op.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// A precomputed gradient-contraction plan for one symbol: the tape slot of
/// every literal whose weight tangent `d(w(lit))/dθ` is nonzero, paired with
/// that tangent. Tangents arrive in the same interleaved [`AcWeights`] slot
/// layout as the weights themselves; the plan resolves literals to tape
/// slots once — through the tape's existing literal→slot table — so each
/// per-pass [`TapeEvaluator::contract_tangent_broadcast`] call is a dense
/// dot product with no lookups.
#[derive(Debug, Clone, Default)]
pub struct TangentPlan {
    entries: Vec<(TapeId, Complex)>,
}

impl TangentPlan {
    /// Builds a plan from a tangent vector laid out like [`AcWeights`].
    /// Entries follow the tape's sorted literal order, which fixes the
    /// floating-point accumulation order of every later contraction.
    pub fn new(tape: &AcTape, tangents: &AcWeights) -> Self {
        let entries = tape
            .lit_slots()
            .iter()
            .filter_map(|&(lit, slot)| {
                let t = tangents.get(lit);
                (t != C_ZERO).then_some((slot, t))
            })
            .collect();
        Self { entries }
    }

    /// Number of literals with a nonzero tangent.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The tape slots carrying a nonzero tangent, in plan order — the
    /// seed set for a [`DiffCone`] covering this plan's contraction.
    pub fn slots(&self) -> impl Iterator<Item = TapeId> + '_ {
        self.entries.iter().map(|&(slot, _)| slot)
    }

    /// True when no literal carries this symbol (the contraction is zero).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompileOptions};
    use crate::evaluate::{evaluate, evaluate_with_differentials, sample_model};
    use crate::gibbs::{GibbsOptions, GibbsSampler, QueryVar};
    use crate::transform::smooth;
    use crate::NnfBuilder;
    use qkc_cnf::Cnf;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bits_eq(a: Complex, b: Complex) -> bool {
        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
    }

    fn test_nnf() -> Nnf {
        // (v1 ∨ v2) ∧ (¬v1 ∨ v3), smoothed over all variables.
        let mut f = Cnf::new(3);
        f.add_clause(vec![1, 2]);
        f.add_clause(vec![-1, 3]);
        let c = compile(&f, &CompileOptions::default());
        let groups: Vec<Vec<i32>> = (1..=3).map(|v| vec![v, -v]).collect();
        smooth(&c.nnf, &groups)
    }

    fn random_weights(num_vars: usize, rng: &mut StdRng) -> AcWeights {
        let mut w = AcWeights::uniform(num_vars);
        for v in 1..=num_vars as u32 {
            w.set(
                v,
                Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
                Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
            );
        }
        w
    }

    /// Scatters per-lane weight vectors into one batch.
    fn batch_of(lanes: &[AcWeights]) -> AcWeightsBatch {
        let num_vars = lanes[0].num_vars();
        let mut batch = AcWeightsBatch::uniform(num_vars, lanes.len());
        for (lane, w) in lanes.iter().enumerate() {
            for v in 1..=num_vars as u32 {
                batch.set_lane(v, lane, w.get(v as Lit), w.get(-(v as Lit)));
            }
        }
        batch
    }

    /// Model sampling as the Gibbs chain drives it: one magnitude pass,
    /// then one descent if some model has nonzero weight magnitude.
    fn draw(
        eval: &mut TapeEvaluator,
        tape: &AcTape,
        weights: &AcWeights,
        rng: &mut StdRng,
    ) -> Option<Vec<Lit>> {
        if eval.model_magnitudes(tape, weights) <= 0.0 {
            return None;
        }
        let mut lits = Vec::new();
        eval.draw_model(tape, rng, &mut lits);
        Some(lits)
    }

    #[test]
    fn lowering_prunes_and_folds() {
        let mut b = NnfBuilder::new();
        let x = b.lit(1);
        let y = b.lit(2);
        let a = b.and([x, y]);
        let nnf = b.extract(a);
        let tape = AcTape::lower(&nnf);
        assert_eq!(tape.num_ops(), 3); // two lits + one binary and
        assert_eq!(tape.num_edges(), 0); // binary ANDs are inline And2 ops
        assert_eq!(tape.ops()[2].kind, TapeOpKind::And2);
        assert!(tape.lit_slot(1).is_some());
        assert!(tape.lit_slot(3).is_none());
        // Wider ANDs use the CSR edge buffer.
        let z = b.lit(3);
        let wide = b.and([x, y, z]);
        let tape = AcTape::lower(&b.extract(wide));
        assert_eq!(tape.num_edges(), 3);
    }

    #[test]
    fn trivial_constant_roots_fold() {
        let b = NnfBuilder::new();
        let nnf_true = b.extract(b.true_id());
        let tape = AcTape::lower(&nnf_true);
        assert_eq!(tape.num_ops(), 1);
        let mut eval = TapeEvaluator::new();
        assert!(bits_eq(tape.consts[0], C_ONE));
        assert!(bits_eq(eval.evaluate(&tape, &AcWeights::uniform(1)), C_ONE));
        let nnf_false = b.extract(b.false_id());
        let tape = AcTape::lower(&nnf_false);
        let mut eval = TapeEvaluator::new();
        assert!(bits_eq(
            eval.evaluate(&tape, &AcWeights::uniform(1)),
            C_ZERO
        ));
    }

    /// Number of product and sum slots the last demand-driven pass
    /// computed (leaves are read in place and never stamped).
    fn demand_visited(eval: &TapeEvaluator, tape: &AcTape) -> usize {
        eval.demand_stamp[..tape.num_ops()]
            .iter()
            .filter(|&&s| s == eval.demand_epoch)
            .count()
    }

    fn internal_slots(tape: &AcTape) -> usize {
        tape.ops()
            .iter()
            .filter(|op| !matches!(op.kind, TapeOpKind::Const | TapeOpKind::Lit))
            .count()
    }

    #[test]
    fn evaluate_matches_enum_walk_bit_for_bit() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let mut demand = TapeEvaluator::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..25 {
            let w = random_weights(3, &mut rng);
            let want = evaluate(&nnf, &w);
            assert!(bits_eq(eval.evaluate(&tape, &w), want));
            assert!(bits_eq(demand.evaluate_demand(&tape, &w), want));
        }
    }

    #[test]
    fn evaluate_matches_with_zero_evidence_weights() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let mut w = AcWeights::uniform(3);
        w.set(1, C_ZERO, Complex::real(-1.0));
        w.set(2, C_ZERO, C_ONE);
        let want = evaluate(&nnf, &w);
        assert!(bits_eq(eval.evaluate(&tape, &w), want));
        assert!(bits_eq(eval.evaluate_demand(&tape, &w), want));

        // Random CNFs under evidence that zeroes one polarity of most
        // variables (with a weight of either sign on the other, and the
        // zero itself sometimes -0, so zero products and sums carry both
        // signs): short-circuited products leave whole subtrees unread,
        // and the demand-driven pass must skip them yet return the same
        // bits, sign of zero included.
        let neg_zero = Complex::new(-0.0, -0.0);
        let mut rng = StdRng::seed_from_u64(11);
        let (mut zero_roots, mut skipped) = (0usize, 0usize);
        for seed in 0..20u64 {
            let f = random_cnf(6, 9, seed);
            let compiled = compile(&f, &CompileOptions::default());
            let groups: Vec<Vec<i32>> = (1..=6).map(|v| vec![v, -v]).collect();
            let nnf = smooth(&compiled.nnf, &groups);
            let tape = AcTape::lower(&nnf);
            let mut full = TapeEvaluator::new();
            let mut demand = TapeEvaluator::new();
            for case in 0..8 {
                let mut w = random_weights(6, &mut rng);
                for v in 1..=6u32 {
                    if rng.gen::<f64>() < 0.75 {
                        let other = if rng.gen::<bool>() { C_ONE } else { -C_ONE };
                        let zero = if rng.gen::<f64>() < 0.2 {
                            neg_zero
                        } else {
                            C_ZERO
                        };
                        if rng.gen::<bool>() {
                            w.set(v, other, zero);
                        } else {
                            w.set(v, zero, other);
                        }
                    }
                }
                let want = evaluate(&nnf, &w);
                assert!(
                    bits_eq(full.evaluate(&tape, &w), want),
                    "seed {seed} case {case}"
                );
                let got = demand.evaluate_demand(&tape, &w);
                assert!(
                    bits_eq(got, want),
                    "seed {seed} case {case}: demand {got:?} vs evaluate {want:?}"
                );
                zero_roots += usize::from(want == C_ZERO);
                skipped += internal_slots(&tape) - demand_visited(&demand, &tape);
            }
        }
        assert!(zero_roots > 0, "no case exercised a zero root");
        assert!(skipped > 0, "no case skipped a subtree");
    }

    #[test]
    fn differentials_match_enum_walk_bit_for_bit() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..25 {
            let w = random_weights(3, &mut rng);
            let value = eval.differentials(&tape, &w);
            let reference = evaluate_with_differentials(&nnf, &w);
            assert!(bits_eq(value, reference.value));
            for v in 1..=3i32 {
                for lit in [v, -v] {
                    match (eval.wrt_lit(&tape, lit), reference.wrt_lit(lit)) {
                        (Some(g), Some(want)) => assert!(bits_eq(g, want), "lit {lit}"),
                        (None, None) => {}
                        other => panic!("lit {lit}: presence mismatch {other:?}"),
                    }
                }
            }
            let snapshot = eval.take_differentials(&tape, value);
            assert!(bits_eq(snapshot.value(), reference.value));
            assert_eq!(
                snapshot
                    .wrt_lit(2)
                    .map(|c| (c.re.to_bits(), c.im.to_bits())),
                reference
                    .wrt_lit(2)
                    .map(|c| (c.re.to_bits(), c.im.to_bits()))
            );
        }
    }

    #[test]
    fn batch_matches_enum_batch_bit_for_bit() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let mut rng = StdRng::seed_from_u64(29);
        // Ragged widths around the block boundary exercise the masked
        // remainder block alongside the full-block fast path.
        for k in [
            1usize,
            4,
            5,
            LANE_WIDTH - 1,
            LANE_WIDTH,
            LANE_WIDTH + 1,
            16,
            2 * LANE_WIDTH + 3,
        ] {
            let lane_weights: Vec<AcWeights> =
                (0..k).map(|_| random_weights(3, &mut rng)).collect();
            let mut batch = AcWeightsBatch::uniform(3, k);
            for (lane, w) in lane_weights.iter().enumerate() {
                for v in 1..=3u32 {
                    batch.set_lane(v, lane, w.get(v as i32), w.get(-(v as i32)));
                }
            }
            let want = crate::evaluate_batch(&nnf, &batch);
            let got = eval.evaluate_batch(&tape, &batch).to_vec();
            for (lane, (&g, &w)) in got.iter().zip(&want).enumerate() {
                assert!(bits_eq(g, w), "k={k} lane {lane}");
                assert!(
                    bits_eq(eval.value_lane(&tape, lane), w),
                    "k={k} lane {lane}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane 3 out of range")]
    fn value_lane_rejects_lanes_past_the_last_pass() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let roots = eval
            .evaluate_batch(&tape, &AcWeightsBatch::uniform(3, 3))
            .to_vec();
        assert!(bits_eq(eval.value_lane(&tape, 2), roots[2]));
        // Lane 3 is a dead remainder lane of the only block: no pass
        // filled it for the caller.
        eval.value_lane(&tape, 3);
    }

    #[test]
    fn sample_model_consumes_the_same_rng_stream() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let w = AcWeights::uniform(3);
        for seed in 0..20 {
            let mut rng_enum = StdRng::seed_from_u64(seed);
            let mut rng_tape = StdRng::seed_from_u64(seed);
            let want = sample_model(&nnf, &w, &mut rng_enum);
            let got = draw(&mut eval, &tape, &w, &mut rng_tape);
            assert_eq!(got, want, "seed {seed}");
            // Identical downstream state proves identical RNG consumption.
            assert_eq!(rng_enum.gen::<u64>(), rng_tape.gen::<u64>(), "seed {seed}");
        }
    }

    #[test]
    fn cached_magnitudes_redraw_identically() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let w = AcWeights::uniform(3);
        let root_mag = eval.model_magnitudes(&tape, &w);
        assert!(root_mag > 0.0);
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let mut lits = Vec::new();
        for _ in 0..10 {
            eval.draw_model(&tape, &mut rng_a, &mut lits);
            let want = sample_model(&nnf, &w, &mut rng_b).expect("satisfiable");
            assert_eq!(lits, want);
        }
    }

    #[test]
    fn unsat_tape_has_no_model() {
        let mut f = Cnf::new(1);
        f.add_clause(vec![1]);
        f.add_clause(vec![-1]);
        let c = compile(&f, &CompileOptions::default());
        let tape = AcTape::lower(&c.nnf);
        let mut eval = TapeEvaluator::new();
        assert_eq!(eval.model_magnitudes(&tape, &AcWeights::uniform(1)), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(sample_model(&c.nnf, &AcWeights::uniform(1), &mut rng).is_none());
    }

    #[test]
    fn delta_passes_match_full_recompute_bit_for_bit() {
        // Random sequences of single/multi-variable weight updates: the
        // delta kernels (dirty-cone recompute) must stay bitwise equal to
        // a full pass on a fresh evaluator, in both arithmetic modes.
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut delta_eval = TapeEvaluator::new();
        let mut full_eval = TapeEvaluator::new();
        let mut rng = StdRng::seed_from_u64(41);
        let mut w = random_weights(3, &mut rng);
        assert!(bits_eq(
            delta_eval.evaluate(&tape, &w),
            full_eval.evaluate(&tape, &w)
        ));
        for step in 0..200 {
            // Mutate 1..=3 variables, sometimes to evidence-like 0/1
            // weights so zero short-circuits and zero partials fire.
            let count = 1 + rng.gen_range(0..3usize);
            let mut changed = Vec::new();
            for _ in 0..count {
                let v = 1 + rng.gen_range(0..3) as u32;
                let evidence = rng.gen::<f64>() < 0.4;
                let (pos, neg) = if evidence {
                    if rng.gen::<bool>() {
                        (C_ONE, C_ZERO)
                    } else {
                        (C_ZERO, C_ONE)
                    }
                } else {
                    (
                        Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
                        Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
                    )
                };
                w.set(v, pos, neg);
                changed.push(v);
            }
            if step % 2 == 0 {
                let got = delta_eval.evaluate_delta(&tape, &w, &changed);
                let want = full_eval.evaluate(&tape, &w);
                assert!(bits_eq(got, want), "step {step} (evaluate mode)");
            } else {
                let got = delta_eval.differentials_delta(&tape, &w, &changed);
                let want = full_eval.differentials(&tape, &w);
                assert!(bits_eq(got, want), "step {step} (diff mode)");
                for v in 1..=3i32 {
                    for lit in [v, -v] {
                        assert_eq!(
                            delta_eval
                                .wrt_lit(&tape, lit)
                                .map(|c| (c.re.to_bits(), c.im.to_bits())),
                            full_eval
                                .wrt_lit(&tape, lit)
                                .map(|c| (c.re.to_bits(), c.im.to_bits())),
                            "step {step} lit {lit}"
                        );
                    }
                }
            }
            // Note: alternating modes forces the fallback path too (the
            // mode check rejects the other mode's buffer).
        }
    }

    #[test]
    fn batch_delta_matches_full_batch_and_scalar_bit_for_bit() {
        // Random sequences of shared-evidence and per-lane weight updates:
        // the delta-aware batch kernel must stay bitwise equal to a full
        // batched pass on a fresh evaluator — and, lane by lane, to the
        // scalar evaluator.
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut rng = StdRng::seed_from_u64(59);
        for k in [
            1usize,
            3,
            4,
            5,
            LANE_WIDTH - 1,
            LANE_WIDTH + 1,
            16,
            2 * LANE_WIDTH + 3,
        ] {
            let mut delta_eval = TapeEvaluator::new();
            let mut full_eval = TapeEvaluator::new();
            let mut scalar_eval = TapeEvaluator::new();
            let mut batch = AcWeightsBatch::uniform(3, k);
            let mut lanes: Vec<AcWeights> = Vec::with_capacity(k);
            for lane in 0..k {
                let w = random_weights(3, &mut rng);
                for v in 1..=3u32 {
                    batch.set_lane(v, lane, w.get(v as i32), w.get(-(v as i32)));
                }
                lanes.push(w);
            }
            // First call on a fresh evaluator exercises the fallback.
            let first = delta_eval
                .evaluate_batch_delta(&tape, &batch, &[1, 2, 3])
                .to_vec();
            let want = full_eval.evaluate_batch(&tape, &batch).to_vec();
            assert_eq!(first.len(), want.len());
            for (lane, (&g, &w)) in first.iter().zip(&want).enumerate() {
                assert!(bits_eq(g, w), "k={k} warmup lane {lane}");
            }
            for step in 0..120 {
                let v = 1 + rng.gen_range(0..3) as u32;
                if rng.gen::<f64>() < 0.5 {
                    // Shared evidence write (the Gray-sweep case).
                    let (pos, neg) = if rng.gen::<bool>() {
                        (C_ONE, C_ZERO)
                    } else {
                        (C_ZERO, C_ONE)
                    };
                    batch.set_all(v, pos, neg);
                    for w in &mut lanes {
                        w.set(v, pos, neg);
                    }
                } else {
                    // Per-lane parameter write.
                    for (lane, w) in lanes.iter_mut().enumerate() {
                        let pos = Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5);
                        let neg = Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5);
                        batch.set_lane(v, lane, pos, neg);
                        w.set(v, pos, neg);
                    }
                }
                let got = delta_eval
                    .evaluate_batch_delta(&tape, &batch, &[v])
                    .to_vec();
                let want = full_eval.evaluate_batch(&tape, &batch).to_vec();
                for (lane, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        bits_eq(g, w),
                        "k={k} step {step} lane {lane} (vs full batch)"
                    );
                    let scalar = scalar_eval.evaluate(&tape, &lanes[lane]);
                    assert!(
                        bits_eq(g, scalar),
                        "k={k} step {step} lane {lane} (vs scalar)"
                    );
                }
            }
        }
    }

    #[test]
    fn alternating_block_widths_on_one_evaluator_match_scalar() {
        // k = 4 runs on narrow 4-lane blocks and k = 8 on wide 8-lane
        // ones. One evaluator switching between them, through full and
        // delta passes (a delta right after a switch must fall back),
        // must return every lane bit-equal to the scalar pass.
        let f = random_cnf(6, 9, 5);
        let compiled = compile(&f, &CompileOptions::default());
        let groups: Vec<Vec<i32>> = (1..=6).map(|v| vec![v, -v]).collect();
        let tape = AcTape::lower(&smooth(&compiled.nnf, &groups));
        let mut rng = StdRng::seed_from_u64(83);
        let mut narrow: Vec<AcWeights> = (0..4).map(|_| random_weights(6, &mut rng)).collect();
        let mut wide: Vec<AcWeights> = (0..8).map(|_| random_weights(6, &mut rng)).collect();
        let mut eval = TapeEvaluator::new();
        let mut scalar = TapeEvaluator::new();
        for step in 0..60 {
            let lanes = if (step / 3) % 2 == 0 {
                &mut narrow
            } else {
                &mut wide
            };
            let v = 1 + rng.gen_range(0..6) as u32;
            if rng.gen::<bool>() {
                // Shared evidence, as a Gray step writes it.
                let (pos, neg) = if rng.gen::<bool>() {
                    (C_ONE, C_ZERO)
                } else {
                    (C_ZERO, C_ONE)
                };
                for w in lanes.iter_mut() {
                    w.set(v, pos, neg);
                }
            } else {
                for w in lanes.iter_mut() {
                    let pos = Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5);
                    w.set(v, pos, C_ONE);
                }
            }
            let batch = batch_of(lanes);
            let got = if step % 5 == 0 {
                eval.evaluate_batch(&tape, &batch).to_vec()
            } else {
                eval.evaluate_batch_delta(&tape, &batch, &[v]).to_vec()
            };
            assert_eq!(got.len(), lanes.len());
            for (l, w) in lanes.iter().enumerate() {
                let want = scalar.evaluate(&tape, w);
                assert!(
                    bits_eq(got[l], want),
                    "step {step} k={} lane {l}",
                    lanes.len()
                );
                assert!(
                    bits_eq(eval.value_lane(&tape, l), want),
                    "step {step} value_lane {l}"
                );
            }
        }
    }

    #[test]
    fn batch_delta_falls_back_on_lane_count_change() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let batch4 = AcWeightsBatch::uniform(3, 4);
        eval.evaluate_batch(&tape, &batch4);
        // Different lane count: the cached buffer is strided for k=4, so a
        // k=2 delta must run a full pass instead of reading stale rows.
        let mut rng = StdRng::seed_from_u64(61);
        let mut batch2 = AcWeightsBatch::uniform(3, 2);
        for lane in 0..2 {
            let w = random_weights(3, &mut rng);
            for v in 1..=3u32 {
                batch2.set_lane(v, lane, w.get(v as i32), w.get(-(v as i32)));
            }
        }
        let got = eval.evaluate_batch_delta(&tape, &batch2, &[]).to_vec();
        let want = TapeEvaluator::new().evaluate_batch(&tape, &batch2).to_vec();
        for (lane, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert!(bits_eq(g, w), "lane {lane}");
        }
        // Scalar passes also invalidate the batch buffer.
        let w = random_weights(3, &mut rng);
        eval.evaluate(&tape, &w);
        let got = eval.evaluate_batch_delta(&tape, &batch2, &[]).to_vec();
        for (lane, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert!(bits_eq(g, w), "post-scalar lane {lane}");
        }
    }

    #[test]
    fn delta_with_no_changes_is_a_no_op() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let mut rng = StdRng::seed_from_u64(43);
        let w = random_weights(3, &mut rng);
        let full = eval.evaluate(&tape, &w);
        assert!(bits_eq(eval.evaluate_delta(&tape, &w, &[]), full));
    }

    #[test]
    fn delta_falls_back_after_batch_pass_invalidates() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let mut rng = StdRng::seed_from_u64(47);
        let mut w = random_weights(3, &mut rng);
        eval.evaluate(&tape, &w);
        // A batch pass overwrites `values` with lane-strided data...
        let batch = AcWeightsBatch::uniform(3, 4);
        eval.evaluate_batch(&tape, &batch);
        // ...so a subsequent delta must fall back to a full pass rather
        // than extend garbage.
        w.set(1, C_ZERO, C_ONE);
        let got = eval.evaluate_delta(&tape, &w, &[1]);
        assert!(bits_eq(got, evaluate(&nnf, &w)));

        // A demand-driven pass under new weights leaves the slots it
        // skipped stale, so a delta listing only the changes since that
        // pass must fall back to a full pass too.
        let mut w = random_weights(3, &mut rng);
        eval.evaluate(&tape, &w);
        w = random_weights(3, &mut rng);
        w.set(1, C_ZERO, C_ONE);
        w.set(2, C_ZERO, C_ONE);
        eval.evaluate_demand(&tape, &w);
        assert!(
            demand_visited(&eval, &tape) < internal_slots(&tape),
            "the demand pass must skip a subtree for this check to bite"
        );
        w.set(1, C_ONE, C_ZERO);
        w.set(2, C_ONE, C_ZERO);
        let got = eval.evaluate_delta(&tape, &w, &[1, 2]);
        assert!(bits_eq(got, evaluate(&nnf, &w)));
    }

    #[test]
    fn delta_falls_back_across_tapes() {
        let nnf = test_nnf();
        let tape_a = AcTape::lower(&nnf);
        let tape_b = AcTape::lower(&nnf); // same content, different stamp
        let mut eval = TapeEvaluator::new();
        let mut rng = StdRng::seed_from_u64(53);
        let w = random_weights(3, &mut rng);
        eval.evaluate(&tape_a, &w);
        let got = eval.evaluate_delta(&tape_b, &w, &[]);
        assert!(bits_eq(got, evaluate(&nnf, &w)));
    }

    #[test]
    fn undersized_weight_vector_is_rejected() {
        let nnf = test_nnf(); // mentions variables up to 3
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eval.evaluate(&tape, &AcWeights::uniform(1))
        }));
        assert!(result.is_err(), "undersized weights must panic, not UB");
    }

    #[test]
    fn size_bytes_is_exact_over_buffers() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let expected = std::mem::size_of::<AcTape>()
            + tape.ops.len() * std::mem::size_of::<TapeOp>()
            + tape.edges.len() * std::mem::size_of::<TapeId>()
            + tape.consts.len() * std::mem::size_of::<Complex>()
            + tape.lit_slots.len() * std::mem::size_of::<(Lit, TapeId)>()
            + tape.parent_offsets.len() * std::mem::size_of::<u32>()
            + tape.parents.len() * std::mem::size_of::<TapeId>();
        assert_eq!(tape.size_bytes(), expected);
        assert!(tape.size_bytes() > 0);
    }

    #[test]
    fn empty_batch_is_empty() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let batch = AcWeightsBatch::uniform(3, 0);
        assert!(eval.evaluate_batch(&tape, &batch).is_empty());
    }

    #[test]
    fn evaluator_buffers_are_reused_across_tapes() {
        // A big tape warms the buffers; a smaller one must still compute
        // correctly over the (larger, stale) storage.
        let big = test_nnf();
        let big_tape = AcTape::lower(&big);
        let mut f = Cnf::new(1);
        f.add_clause(vec![1]);
        let small = compile(&f, &CompileOptions::default());
        let small_tape = AcTape::lower(&small.nnf);
        let mut eval = TapeEvaluator::new();
        let w3 = AcWeights::uniform(3);
        let w1 = AcWeights::uniform(1);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let wr = random_weights(3, &mut rng);
            assert!(bits_eq(eval.evaluate(&big_tape, &wr), evaluate(&big, &wr)));
            assert!(bits_eq(
                eval.evaluate(&small_tape, &w1),
                evaluate(&small.nnf, &w1)
            ));
            let v = eval.differentials(&big_tape, &w3);
            assert!(bits_eq(v, evaluate_with_differentials(&big, &w3).value));
        }
    }

    /// Random CNF for wire-format round-trip coverage (same generator
    /// family as the delta tests: enough clauses for non-trivial sharing).
    fn random_cnf(vars: usize, clauses: usize, seed: u64) -> Cnf {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut f = Cnf::new(vars);
        for _ in 0..clauses {
            let len = rng.gen_range(1..4usize);
            let mut clause = Vec::with_capacity(len);
            for _ in 0..len {
                let v = rng.gen_range(1..vars as i32 + 1);
                clause.push(if rng.gen::<bool>() { v } else { -v });
            }
            f.add_clause(clause);
        }
        f
    }

    #[test]
    fn wire_round_trip_is_bit_identical_under_every_kernel() {
        for seed in 0..20u64 {
            let f = random_cnf(6, 9, seed);
            let compiled = compile(&f, &CompileOptions::default());
            let groups: Vec<Vec<i32>> = (1..=6).map(|v| vec![v, -v]).collect();
            let nnf = smooth(&compiled.nnf, &groups);
            let tape = AcTape::lower(&nnf);
            let bytes = tape.to_bytes();
            let back = AcTape::from_bytes(&bytes).expect("round trip decodes");
            // Identical flat sections → identical byte stream again.
            assert_eq!(back.to_bytes(), bytes, "re-encode differs (seed {seed})");
            assert_ne!(back.stamp, tape.stamp, "decoded tape has its own identity");
            // Every kernel agrees bit-for-bit between original and decoded.
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD5);
            let mut ea = TapeEvaluator::new();
            let mut eb = TapeEvaluator::new();
            for _ in 0..4 {
                let w = random_weights(6, &mut rng);
                let value = ea.evaluate(&tape, &w);
                assert!(bits_eq(value, eb.evaluate(&back, &w)));
                assert!(bits_eq(ea.evaluate_demand(&tape, &w), value));
                assert!(bits_eq(eb.evaluate_demand(&back, &w), value));
                assert!(bits_eq(
                    ea.differentials(&tape, &w),
                    eb.differentials(&back, &w)
                ));
                for v in 1..=6i32 {
                    for lit in [v, -v] {
                        assert_eq!(
                            ea.wrt_lit(&tape, lit)
                                .map(|c| (c.re.to_bits(), c.im.to_bits())),
                            eb.wrt_lit(&back, lit)
                                .map(|c| (c.re.to_bits(), c.im.to_bits())),
                        );
                    }
                }
                // Model sampling consumes the identical RNG stream.
                let mut ra = StdRng::seed_from_u64(7 + seed);
                let mut rb = StdRng::seed_from_u64(7 + seed);
                assert_eq!(
                    draw(&mut ea, &tape, &w, &mut ra),
                    draw(&mut eb, &back, &w, &mut rb)
                );
                // The gradient kernels: a cone-restricted batch
                // differentials pass and the broadcast contraction.
                let batch = batch_of(&[w.clone(), random_weights(6, &mut rng)]);
                let t = random_tangents(6, &mut rng);
                let (plan_a, plan_b) = (TangentPlan::new(&tape, &t), TangentPlan::new(&back, &t));
                ea.differentials_cone_batch(&tape, &batch, &DiffCone::new(&tape, plan_a.slots()));
                eb.differentials_cone_batch(&back, &batch, &DiffCone::new(&back, plan_b.slots()));
                let (mut ca, mut cb) = ([C_ZERO; 2], [C_ZERO; 2]);
                ea.contract_tangent_broadcast(&plan_a, &mut ca);
                eb.contract_tangent_broadcast(&plan_b, &mut cb);
                for l in 0..2 {
                    assert!(bits_eq(ea.value_lane(&tape, l), eb.value_lane(&back, l)));
                    assert!(bits_eq(ca[l], cb[l]), "seed {seed} lane {l} contraction");
                }
            }
        }
    }

    #[test]
    fn wire_rejects_corruption_truncation_and_version_skew() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let bytes = tape.to_bytes();

        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            AcTape::from_bytes(&bad).err(),
            Some(TapeDecodeError::BadMagic)
        );

        // Future version.
        let mut bad = bytes.clone();
        bad[4] = 0xFE;
        assert_eq!(
            AcTape::from_bytes(&bad).err(),
            Some(TapeDecodeError::UnsupportedVersion(u16::from_le_bytes([
                0xFE, bad[5]
            ])))
        );

        // Every possible truncation point decodes to an error, never a
        // panic or a silently short tape.
        for len in 0..bytes.len() {
            assert!(
                AcTape::from_bytes(&bytes[..len]).is_err(),
                "truncation at {len} accepted"
            );
        }

        // Trailing garbage is rejected too.
        let mut long = bytes.clone();
        long.extend_from_slice(&[0u8; 3]);
        assert!(AcTape::from_bytes(&long).is_err());

        // Any single-byte flip anywhere in the payload is caught (by the
        // checksum, or — if the flip lands in the checksum itself — by the
        // mismatch against the intact body).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(AcTape::from_bytes(&bad).is_err(), "flip at {i} accepted");
        }
    }

    #[test]
    fn wire_validates_structure_not_just_checksum() {
        // A payload with a valid checksum but broken invariants (child
        // after parent) must be rejected: rebuild a tampered body and
        // re-stamp its checksum.
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut bytes = tape.to_bytes();
        let body_len = bytes.len() - 8;
        // Find an And2/Or op and point its first child at itself: op
        // section starts at the fixed header.
        let ops_start = 4 + 2 + 2 + 4 + 4 + 16;
        let n_ops = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let mut patched = false;
        for i in 0..n_ops {
            let off = ops_start + i * 9;
            if bytes[off] == TapeOpKind::And2 as u8 || bytes[off] == TapeOpKind::Or as u8 {
                bytes[off + 1..off + 5].copy_from_slice(&(i as u32).to_le_bytes());
                patched = true;
                break;
            }
        }
        assert!(patched, "test nnf has an inner node");
        let sum = super::fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            AcTape::from_bytes(&bytes).err(),
            Some(TapeDecodeError::Malformed("child after parent"))
        );
    }

    /// Sparse random tangent vector: most slots zero, a few nonzero.
    fn random_tangents(num_vars: usize, rng: &mut StdRng) -> AcWeights {
        let mut t = AcWeights::zeros(num_vars);
        for v in 1..=num_vars as u32 {
            if rng.gen::<f64>() < 0.6 {
                t.set(
                    v,
                    Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
                    C_ZERO,
                );
            }
        }
        t
    }

    /// The plan-order contraction `Σ partial·tangent`, from zero, over the
    /// partials of the evaluator's last scalar differentials pass: the
    /// value every lane of `contract_tangent_broadcast` must reproduce.
    fn scalar_contraction(eval: &TapeEvaluator, plan: &TangentPlan) -> Complex {
        let mut acc = C_ZERO;
        for &(slot, t) in &plan.entries {
            acc += eval.partials[slot as usize] * t;
        }
        acc
    }

    /// Asserts that every lane of `eval`'s last cone-batch pass matches a
    /// full scalar `differentials` pass of that lane's weights bit for
    /// bit: the root, and the plan-order contraction.
    fn assert_cone_lanes_match_scalar(
        eval: &mut TapeEvaluator,
        tape: &AcTape,
        plan: &TangentPlan,
        lanes: &[AcWeights],
        what: &str,
    ) {
        let mut contracted = vec![C_ZERO; lanes.len()];
        eval.contract_tangent_broadcast(plan, &mut contracted);
        let mut scalar = TapeEvaluator::new();
        for (l, w) in lanes.iter().enumerate() {
            let root = scalar.differentials(tape, w);
            assert!(
                bits_eq(eval.value_lane(tape, l), root),
                "{what}: lane {l} root"
            );
            assert!(
                bits_eq(contracted[l], scalar_contraction(&scalar, plan)),
                "{what}: lane {l} contraction"
            );
        }
    }

    #[test]
    fn contract_tangent_matches_directional_derivative() {
        // ∂root/∂θ contracted from one cone-batch pass must match, in every
        // lane, the finite difference of `evaluate` along the tangent
        // direction: the AC is multilinear in its weights, so the FD is
        // tight.
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let mut eval = TapeEvaluator::new();
        let mut rng = StdRng::seed_from_u64(91);
        for _ in 0..20 {
            let lanes: Vec<AcWeights> = (0..3).map(|_| random_weights(3, &mut rng)).collect();
            let t = random_tangents(3, &mut rng);
            let plan = TangentPlan::new(&tape, &t);
            eval.differentials_cone_batch(
                &tape,
                &batch_of(&lanes),
                &DiffCone::new(&tape, plan.slots()),
            );
            let mut analytic = [C_ZERO; 3];
            eval.contract_tangent_broadcast(&plan, &mut analytic);
            for (w, &analytic) in lanes.iter().zip(&analytic) {
                // Manual chain rule straight off a scalar pass's partials.
                let mut scalar = TapeEvaluator::new();
                scalar.differentials(&tape, w);
                let mut manual = C_ZERO;
                for v in 1..=3u32 {
                    for lit in [v as Lit, -(v as Lit)] {
                        if let Some(p) = scalar.wrt_lit(&tape, lit) {
                            manual += p * t.get(lit);
                        }
                    }
                }
                assert!(analytic.approx_eq(manual, 1e-12));
                // Central finite difference along the tangent direction.
                let h = 1e-6;
                let shift = |s: f64| {
                    let mut ws = AcWeights::uniform(3);
                    for v in 1..=3u32 {
                        ws.set(
                            v,
                            w.get(v as Lit) + t.get(v as Lit).scale(s),
                            w.get(-(v as Lit)) + t.get(-(v as Lit)).scale(s),
                        );
                    }
                    TapeEvaluator::new().evaluate(&tape, &ws)
                };
                let fd = (shift(h) - shift(-h)).scale(1.0 / (2.0 * h));
                assert!(
                    analytic.approx_eq(fd, 1e-7),
                    "analytic {analytic:?} vs fd {fd:?}"
                );
            }
        }
    }

    #[test]
    fn cone_restricted_differentials_are_bit_identical_to_full() {
        // Random CNFs, random per-lane weights, one shared tangent plan,
        // single-variable delta steps: every lane of the cone-batch kernels
        // must match a full scalar differentials pass of that lane's
        // weights — through the fresh-evaluator (full upward) path and the
        // delta upward path, under shared evidence writes (the Gray-sweep
        // case) and per-lane parameter writes, at widths around the block
        // boundaries: 1, 3, 4, 5 around the narrow block and the switch to
        // wide ones, then W−1, W, W+1, 2W+3.
        for k in [
            1,
            NARROW_WIDTH - 1,
            NARROW_WIDTH,
            NARROW_WIDTH + 1,
            LANE_WIDTH - 1,
            LANE_WIDTH,
            LANE_WIDTH + 1,
            2 * LANE_WIDTH + 3,
        ] {
            for seed in 0..4u64 {
                let f = random_cnf(6, 9, seed);
                let compiled = compile(&f, &CompileOptions::default());
                let groups: Vec<Vec<i32>> = (1..=6).map(|v| vec![v, -v]).collect();
                let nnf = smooth(&compiled.nnf, &groups);
                let tape = AcTape::lower(&nnf);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xC0 ^ ((k as u64) << 8));
                let t = random_tangents(6, &mut rng);
                let plan = TangentPlan::new(&tape, &t);
                let cone = DiffCone::new(&tape, plan.slots());
                assert!(cone.len() <= tape.num_ops());
                assert_eq!(cone.is_empty(), plan.is_empty());
                let mut lanes: Vec<AcWeights> =
                    (0..k).map(|_| random_weights(6, &mut rng)).collect();
                let mut batch = batch_of(&lanes);
                let mut coned = TapeEvaluator::new();
                coned.differentials_cone_batch(&tape, &batch, &cone);
                let what = format!("k={k} seed {seed} (full upward)");
                assert_cone_lanes_match_scalar(&mut coned, &tape, &plan, &lanes, &what);
                for step in 0..30 {
                    let v = 1 + rng.gen_range(0..6) as u32;
                    if rng.gen::<bool>() {
                        // Shared evidence: 0/1 weights fire the zero-partial
                        // skips.
                        let (pos, neg) = if rng.gen::<bool>() {
                            (C_ONE, C_ZERO)
                        } else {
                            (C_ZERO, C_ONE)
                        };
                        batch.set_all(v, pos, neg);
                        for w in &mut lanes {
                            w.set(v, pos, neg);
                        }
                    } else {
                        for (lane, w) in lanes.iter_mut().enumerate() {
                            let pos = Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5);
                            let neg = Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5);
                            batch.set_lane(v, lane, pos, neg);
                            w.set(v, pos, neg);
                        }
                    }
                    coned.differentials_cone_batch_delta(&tape, &batch, &[v], &cone);
                    let what = format!("k={k} seed {seed} step {step} (delta upward)");
                    assert_cone_lanes_match_scalar(&mut coned, &tape, &plan, &lanes, &what);
                }
            }
        }
    }

    /// A cone over every literal of `test_nnf`, with its plan.
    fn full_plan(tape: &AcTape) -> (TangentPlan, DiffCone) {
        let mut t = AcWeights::zeros(3);
        for v in 1..=3u32 {
            t.set(v, Complex::new(0.5, -0.25), Complex::new(-0.75, 0.125));
        }
        let plan = TangentPlan::new(tape, &t);
        let cone = DiffCone::new(tape, plan.slots());
        (plan, cone)
    }

    #[test]
    fn cone_batch_delta_falls_back_on_lane_count_change() {
        // The cached buffer is strided for the previous lane count, so a
        // delta pass at another count — even one listing no changes —
        // must run a full pass instead of reading stale rows.
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let (plan, cone) = full_plan(&tape);
        let mut rng = StdRng::seed_from_u64(67);
        for (from, to) in [
            (4, 2),
            (LANE_WIDTH + 1, 2),
            (2, LANE_WIDTH + 1),
            (4, 5),
            (5, 4),
        ] {
            let before: Vec<AcWeights> = (0..from).map(|_| random_weights(3, &mut rng)).collect();
            let after: Vec<AcWeights> = (0..to).map(|_| random_weights(3, &mut rng)).collect();
            let mut eval = TapeEvaluator::new();
            eval.differentials_cone_batch(&tape, &batch_of(&before), &cone);
            eval.differentials_cone_batch_delta(&tape, &batch_of(&after), &[], &cone);
            let what = format!("{from} lanes, then {to}");
            assert_cone_lanes_match_scalar(&mut eval, &tape, &plan, &after, &what);
        }
    }

    #[test]
    fn cone_batch_delta_falls_back_after_evaluate_batch() {
        // An `evaluate_batch` pass overwrites the lane-strided values with
        // short-circuited products of other weights, so a delta pass that
        // lists only the changes since the last cone pass must run a full
        // pass instead of extending that buffer.
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let (plan, cone) = full_plan(&tape);
        let mut rng = StdRng::seed_from_u64(71);
        let mut lanes: Vec<AcWeights> = (0..4).map(|_| random_weights(3, &mut rng)).collect();
        let other: Vec<AcWeights> = (0..4).map(|_| random_weights(3, &mut rng)).collect();
        let mut eval = TapeEvaluator::new();
        eval.differentials_cone_batch(&tape, &batch_of(&lanes), &cone);
        eval.evaluate_batch(&tape, &batch_of(&other));
        for w in &mut lanes {
            w.set(1, C_ZERO, C_ONE);
        }
        eval.differentials_cone_batch_delta(&tape, &batch_of(&lanes), &[1], &cone);
        assert_cone_lanes_match_scalar(&mut eval, &tape, &plan, &lanes, "after evaluate_batch");
    }

    #[test]
    fn empty_cone_sweeps_nothing_but_keeps_the_root_value() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let cone = DiffCone::new(&tape, std::iter::empty());
        assert!(cone.is_empty());
        let mut rng = StdRng::seed_from_u64(7);
        let lanes: Vec<AcWeights> = (0..3).map(|_| random_weights(3, &mut rng)).collect();
        let mut eval = TapeEvaluator::new();
        eval.differentials_cone_batch(&tape, &batch_of(&lanes), &cone);
        let mut reference = TapeEvaluator::new();
        for (l, w) in lanes.iter().enumerate() {
            assert!(bits_eq(
                eval.value_lane(&tape, l),
                reference.differentials(&tape, w)
            ));
        }
    }

    /// Lane counts of the instantiation tests: both sides of the narrow
    /// block, a full 8-lane block, a full block pair (the product's pair
    /// path with no ragged block) and ragged 8-lane blocks.
    const ISA_LANES: [usize; 8] = [1, 3, 4, 5, 8, 9, 16, 19];

    /// The instruction sets this CPU has, baseline first: the levels an
    /// instantiation test compares, printed so a run shows them
    /// (`--nocapture`).
    fn isa_levels() -> Vec<Isa> {
        #[cfg(target_arch = "x86_64")]
        let all = [Isa::Portable, Isa::Avx2, Isa::Avx512];
        #[cfg(not(target_arch = "x86_64"))]
        let all = [Isa::Portable];
        let top = Isa::detect();
        let levels: Vec<Isa> = all.into_iter().filter(|&l| l <= top).collect();
        println!("compared instruction sets: {levels:?}");
        levels
    }

    /// One fresh evaluator per level.
    fn evaluators_at(levels: &[Isa]) -> Vec<TapeEvaluator> {
        levels
            .iter()
            .map(|&isa| TapeEvaluator::with_isa(isa))
            .collect()
    }

    /// A weight for the instantiation tests: random, or a zero of either
    /// sign, an exact one, or (rarely) NaN. Always the one NaN payload:
    /// two different ones meeting is the contract's stated exception.
    fn edge_weight(rng: &mut StdRng) -> Complex {
        match rng.gen_range(0..50) {
            0..=4 => C_ZERO,
            5..=7 => Complex::new(-0.0, 0.0),
            8..=9 => Complex::new(0.0, -0.0),
            10..=14 => C_ONE,
            15 => Complex::new(f64::NAN, 0.0),
            _ => Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
        }
    }

    /// Sets variable `v` of `w` to a pair of [`edge_weight`]s.
    fn set_edge(w: &mut AcWeights, v: u32, rng: &mut StdRng) {
        let (pos, neg) = (edge_weight(rng), edge_weight(rng));
        w.set(v, pos, neg);
    }

    /// The smoothed tape of `random_cnf(8, 12, seed)`.
    fn isa_tape(seed: u64) -> AcTape {
        let f = random_cnf(8, 12, seed);
        let compiled = compile(&f, &CompileOptions::default());
        let groups: Vec<Vec<i32>> = (1..=8).map(|v| vec![v, -v]).collect();
        AcTape::lower(&smooth(&compiled.nnf, &groups))
    }

    /// Asserts that two evaluators hold the same bits in every buffer a
    /// kernel writes: scalar values, partials and magnitudes, the unpacked
    /// batch roots, and the values and partials at both block widths.
    fn assert_same_buffers(a: &TapeEvaluator, b: &TapeEvaluator, what: &str) {
        fn plain(v: &[Complex]) -> Vec<[u64; 2]> {
            v.iter().map(|c| [c.re.to_bits(), c.im.to_bits()]).collect()
        }
        fn blocked<const W: usize>(v: &[LaneBlock<W>]) -> Vec<[u64; 2]> {
            v.iter()
                .flat_map(|b| (0..W).map(|w| [b.re[w].to_bits(), b.im[w].to_bits()]))
                .collect()
        }
        let mags = |e: &TapeEvaluator| e.mags.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
        assert!(plain(&a.values) == plain(&b.values), "{what}: values");
        assert!(plain(&a.partials) == plain(&b.partials), "{what}: partials");
        assert!(mags(a) == mags(b), "{what}: magnitudes");
        assert!(plain(&a.root_out) == plain(&b.root_out), "{what}: roots");
        assert!(
            blocked(&a.narrow.values) == blocked(&b.narrow.values)
                && blocked(&a.narrow.partials) == blocked(&b.narrow.partials),
            "{what}: 4-lane blocks"
        );
        assert!(
            blocked(&a.wide.values) == blocked(&b.wide.values)
                && blocked(&a.wide.partials) == blocked(&b.wide.partials),
            "{what}: 8-lane blocks"
        );
    }

    #[test]
    fn avx2_and_portable_scalar_kernels_give_the_same_bits() {
        // The same pass sequence at every instruction set the CPU has:
        // full, delta and demand-driven upward passes, full and delta
        // differentials, and magnitudes, under weights with signed zeros
        // and NaN. Every level must hold the portable kernels' bits.
        let levels = isa_levels();
        for seed in 0..6u64 {
            let tape = isa_tape(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x15A);
            let mut w = AcWeights::uniform(8);
            for v in 1..=8 {
                set_edge(&mut w, v, &mut rng);
            }
            let mut evals = evaluators_at(&levels);
            for step in 0..60 {
                let mut changed = vec![1 + rng.gen_range(0..8) as u32];
                if rng.gen::<bool>() {
                    changed.push(1 + rng.gen_range(0..8) as u32);
                }
                for &v in &changed {
                    set_edge(&mut w, v, &mut rng);
                }
                let roots: Vec<(Complex, f64)> = evals
                    .iter_mut()
                    .map(|e| {
                        let root = match step % 6 {
                            0 => e.evaluate(&tape, &w),
                            1 | 2 => e.evaluate_delta(&tape, &w, &changed),
                            3 => e.differentials(&tape, &w),
                            4 => e.differentials_delta(&tape, &w, &changed),
                            _ => e.evaluate_demand(&tape, &w),
                        };
                        (root, e.model_magnitudes(&tape, &w))
                    })
                    .collect();
                let (want, want_mag) = roots[0];
                for ((e, &(root, mag)), isa) in evals.iter().zip(&roots).zip(&levels).skip(1) {
                    let what = format!("{isa:?} seed {seed} step {step}");
                    assert!(bits_eq(root, want), "{what}: root {root:?} vs {want:?}");
                    assert_eq!(mag.to_bits(), want_mag.to_bits(), "{what}: root magnitude");
                    assert_same_buffers(e, &evals[0], &what);
                }
            }
        }
    }

    #[test]
    fn avx2_and_portable_batch_kernels_give_the_same_bits() {
        // Full and delta batch passes, cone-restricted differentials and
        // their contraction, at every instruction set the CPU has, at
        // lane counts on both sides of the 4-lane block, a full pair of
        // 8-lane blocks and ragged 8-lane blocks.
        let levels = isa_levels();
        for k in ISA_LANES {
            for seed in 0..3u64 {
                let tape = isa_tape(seed);
                let mut rng = StdRng::seed_from_u64(seed ^ ((k as u64) << 12));
                let mut lanes: Vec<AcWeights> = (0..k)
                    .map(|_| {
                        let mut w = AcWeights::uniform(8);
                        for v in 1..=8 {
                            set_edge(&mut w, v, &mut rng);
                        }
                        w
                    })
                    .collect();
                let plan = TangentPlan::new(&tape, &random_tangents(8, &mut rng));
                let cone = DiffCone::new(&tape, plan.slots());
                let mut evals = evaluators_at(&levels);
                for step in 0..24 {
                    let v = 1 + rng.gen_range(0..8) as u32;
                    if rng.gen::<bool>() {
                        // Shared evidence, as a Gray step writes it.
                        let (pos, neg) = if rng.gen::<bool>() {
                            (C_ONE, C_ZERO)
                        } else {
                            (Complex::new(-0.0, 0.0), C_ONE)
                        };
                        for w in &mut lanes {
                            w.set(v, pos, neg);
                        }
                    } else {
                        for w in &mut lanes {
                            set_edge(w, v, &mut rng);
                        }
                    }
                    let batch = batch_of(&lanes);
                    let outs: Vec<Vec<Complex>> = evals
                        .iter_mut()
                        .map(|e| match step % 4 {
                            0 => e.evaluate_batch(&tape, &batch).to_vec(),
                            1 => e.evaluate_batch_delta(&tape, &batch, &[v]).to_vec(),
                            phase => {
                                if phase == 2 {
                                    e.differentials_cone_batch(&tape, &batch, &cone);
                                } else {
                                    e.differentials_cone_batch_delta(&tape, &batch, &[v], &cone);
                                }
                                let mut out = vec![C_ZERO; k];
                                e.contract_tangent_broadcast(&plan, &mut out);
                                out
                            }
                        })
                        .collect();
                    assert_eq!(outs[0].len(), k, "k={k} seed {seed} step {step}");
                    let port = &evals[0];
                    for ((e, out), isa) in evals.iter().zip(&outs).zip(&levels).skip(1) {
                        let what = format!("{isa:?} k={k} seed {seed} step {step}");
                        for (l, (&x, &y)) in out.iter().zip(&outs[0]).enumerate() {
                            assert!(bits_eq(x, y), "{what} lane {l}: {x:?} vs {y:?}");
                            assert!(bits_eq(e.value_lane(&tape, l), port.value_lane(&tape, l)));
                        }
                        assert_same_buffers(e, port, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn avx2_and_portable_gibbs_chains_match_state_for_state() {
        // Five query variables over random CNFs whose other three
        // variables carry complex weights: every chain transition (model
        // sampling, full and delta differentials, demand-driven MH
        // proposals) must draw the same state at every instruction set
        // the CPU has.
        let levels = isa_levels();
        let mut satisfiable = 0;
        for seed in 0..8u64 {
            let tape = isa_tape(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x61B);
            let mut base = AcWeights::uniform(8);
            for v in 6..=8 {
                base.set(
                    v,
                    Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
                    Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
                );
            }
            let vars: Vec<QueryVar> = (1..=5)
                .map(|v| QueryVar {
                    label: format!("x{v}"),
                    value_lits: vec![-v, v],
                    fixed: None,
                })
                .collect();
            let options = GibbsOptions {
                warmup: 20,
                thin: 1,
                seed,
                mh_restart_prob: 0.2,
            };
            let mut chains: Vec<GibbsSampler> = levels
                .iter()
                .map(|&isa| {
                    GibbsSampler::with_isa(&tape, base.clone(), vars.clone(), &options, isa)
                })
                .collect();
            for step in 0..300 {
                for (chain, isa) in chains.iter().zip(&levels).skip(1) {
                    assert_eq!(
                        chain.state(),
                        chains[0].state(),
                        "{isa:?} seed {seed} step {step}"
                    );
                }
                for chain in &mut chains {
                    chain.step();
                }
            }
            let amplitudes: Vec<Complex> = chains
                .iter_mut()
                .map(GibbsSampler::current_amplitude)
                .collect();
            for ((chain, &a), isa) in chains.iter().zip(&amplitudes).zip(&levels).skip(1) {
                assert_eq!(chain.counts(), chains[0].counts(), "{isa:?} seed {seed}");
                let b = amplitudes[0];
                assert!(bits_eq(a, b), "{isa:?} seed {seed}: {a:?} vs {b:?}");
            }
            satisfiable += usize::from(amplitudes[0] != C_ZERO);
        }
        assert!(satisfiable > 0, "no chain ran on a satisfiable circuit");
    }

    /// Weights of the wide-product test's `case` for `k` lanes over
    /// `x1..x10`: random live weights, whole 8-lane blocks of a product
    /// zeroed at chosen children, and single zero lanes of either sign.
    fn wide_and_case(case: usize, k: usize) -> Vec<AcWeights> {
        const ZEROS: [Complex; 4] = [
            C_ZERO,
            Complex::new(-0.0, 0.0),
            Complex::new(0.0, -0.0),
            Complex::new(-0.0, -0.0),
        ];
        // (block, positive product?, child variable) zeroing that block
        // of that product at that child.
        let blocks: &[(usize, bool, u32)] = match case {
            // A pair's first block dies at the first child while its
            // partner stays live, and the other product's second block
            // dies at its last child.
            0 => &[(0, true, 1), (1, false, 10)],
            // Middle and last children, the ragged third block at a
            // middle one, and the second block at the first child of
            // the other product.
            1 => &[(0, true, 5), (1, true, 10), (2, true, 6), (1, false, 1)],
            // Single zero lanes only.
            _ => &[],
        };
        (0..k)
            .map(|l| {
                let mut rng = StdRng::seed_from_u64(((case as u64) << 8) | l as u64);
                let mut w = AcWeights::uniform(10);
                for v in 1..=10u32 {
                    w.set(
                        v,
                        Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
                        Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
                    );
                }
                for &(block, positive, v) in blocks {
                    if l / LANE_WIDTH == block {
                        let zero = ZEROS[l % ZEROS.len()];
                        let other = w.get(if positive { -(v as Lit) } else { v as Lit });
                        if positive {
                            w.set(v, zero, other);
                        } else {
                            w.set(v, other, zero);
                        }
                    }
                }
                if (l + case).is_multiple_of(3) {
                    let v = 1 + ((3 * l + case) % 10) as u32;
                    let zero = ZEROS[(l + case) % ZEROS.len()];
                    let (pos, neg) = (w.get(v as Lit), w.get(-(v as Lit)));
                    if l % 2 == 0 {
                        w.set(v, zero, neg);
                    } else {
                        w.set(v, pos, zero);
                    }
                }
                w
            })
            .collect()
    }

    #[test]
    fn wide_and_products_match_references_at_every_isa() {
        // Two ten-child products, over x1..x10 and over ¬x1..¬x10, under
        // an OR. Moving one variable at a time between the weights of
        // `wide_and_case` turns product blocks all-zero at the first, a
        // middle and the last child, zeroes one block of a pair while its
        // partner stays live, and mixes in zero lanes of both signs. At
        // every instruction set the CPU has, the full and the delta batch
        // passes must match the enum-walk batch pass and the scalar pass
        // bit for bit.
        let mut b = NnfBuilder::new();
        let pos: Vec<crate::NnfId> = (1..=10).map(|v| b.lit(v)).collect();
        let neg: Vec<crate::NnfId> = (1..=10).map(|v| b.lit(-v)).collect();
        let (p, q) = (b.and(pos), b.and(neg));
        let root = b.or(p, q);
        let nnf = b.extract(root);
        let tape = AcTape::lower(&nnf);
        assert_eq!(tape.max_and_arity(), 10);
        let products: Vec<usize> = (0..tape.num_ops())
            .filter(|&i| tape.ops()[i].kind == TapeOpKind::And)
            .collect();
        let mut scalar = TapeEvaluator::new();
        let mut split_pairs = 0usize;
        for isa in isa_levels() {
            for k in [4, LANE_WIDTH, 2 * LANE_WIDTH, 2 * LANE_WIDTH + 3] {
                let (mut full, mut delta) =
                    (TapeEvaluator::with_isa(isa), TapeEvaluator::with_isa(isa));
                let mut lanes = wide_and_case(0, k);
                // A fresh evaluator's first delta call is a full pass.
                delta.evaluate_batch_delta(&tape, &batch_of(&lanes), &[]);
                for (step, case) in [1, 2, 0, 2, 1, 0].into_iter().enumerate() {
                    let target = wide_and_case(case, k);
                    for v in 1..=10u32 {
                        for (w, t) in lanes.iter_mut().zip(&target) {
                            w.set(v, t.get(v as Lit), t.get(-(v as Lit)));
                        }
                        let batch = batch_of(&lanes);
                        let what = format!("{isa:?} k={k} step {step} x{v}");
                        let want = crate::evaluate_batch(&nnf, &batch);
                        let got_full = full.evaluate_batch(&tape, &batch).to_vec();
                        let got_delta = delta.evaluate_batch_delta(&tape, &batch, &[v]).to_vec();
                        for (l, w) in lanes.iter().enumerate() {
                            let s = scalar.evaluate(&tape, w);
                            assert!(bits_eq(want[l], s), "{what} lane {l}: enum batch vs scalar");
                            assert!(
                                bits_eq(got_full[l], s),
                                "{what} lane {l}: full {:?} vs {s:?}",
                                got_full[l]
                            );
                            assert!(
                                bits_eq(got_delta[l], s),
                                "{what} lane {l}: delta {:?} vs {s:?}",
                                got_delta[l]
                            );
                        }
                        if k == 2 * LANE_WIDTH {
                            for &slot in &products {
                                let pair = &full.wide.values[2 * slot..2 * slot + 2];
                                split_pairs +=
                                    usize::from(pair[0].all_zero() != pair[1].all_zero());
                            }
                        }
                    }
                }
            }
        }
        assert!(
            split_pairs > 0,
            "no product had one all-zero block beside a live one"
        );
    }

    #[test]
    fn empty_tangent_plan_contracts_to_zero() {
        let nnf = test_nnf();
        let tape = AcTape::lower(&nnf);
        let plan = TangentPlan::new(&tape, &AcWeights::zeros(3));
        assert!(plan.is_empty());
        let mut rng = StdRng::seed_from_u64(3);
        let lanes: Vec<AcWeights> = (0..3).map(|_| random_weights(3, &mut rng)).collect();
        let mut eval = TapeEvaluator::new();
        eval.differentials_cone_batch(
            &tape,
            &batch_of(&lanes),
            &DiffCone::new(&tape, plan.slots()),
        );
        let mut out = [C_ONE; 3];
        eval.contract_tangent_broadcast(&plan, &mut out);
        assert!(out.iter().all(|&c| bits_eq(c, C_ZERO)));
    }
}

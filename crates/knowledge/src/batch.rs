//! Batched arithmetic-circuit evaluation: one NNF traversal amortized over
//! `k` literal-weight vectors.
//!
//! The paper's economics are compile-once-bind-many (§3.2): after knowledge
//! compilation every variational iteration only rewrites literal weights and
//! re-traverses the same AC. [`evaluate_batch`] exploits that across
//! *bindings* the way qsim's fused kernels exploit it across gates — the
//! node stream (the expensive, branchy part) is decoded once, and each node
//! updates `k` complex lanes held in lane-blocked split-plane layout
//! ([`LaneBlock`]): per node, `⌈k/W⌉` blocks of `W` real lanes plus `W`
//! imaginary lanes, with `W` = 4 for `k ≤ 4` and 8 otherwise
//! ([`lane_width`]). Every per-node update is a straight-line loop the
//! compiler vectorizes, and its lane ops are branch-free selects (see
//! [`crate::lanes`]). Sweep throughput multiplies because per-node
//! dispatch, bounds checks, and the per-call value-buffer allocation are
//! all paid once per node instead of once per node per binding.
//!
//! Every lane is guaranteed **bit-for-bit identical** to the scalar
//! [`evaluate`](crate::evaluate()) result for the same weights: the
//! per-lane operation sequence (including the zero short-circuit at AND
//! nodes, expressed as a per-lane select) mirrors the scalar kernel
//! exactly, at either width. The engine's sweep executor relies on this
//! to keep results byte-identical across batch widths. Ragged `k` occupies
//! the trailing block's leading lanes; its dead lanes are zero-filled and
//! carried along as a masked remainder.

use crate::lanes::{blocks_for, lane_width, with_rows, LaneBlock, LaneRows, NARROW_WIDTH};
use crate::nnf::{Nnf, NnfNode};
use qkc_cnf::Lit;
use qkc_math::{Complex, C_ONE, C_ZERO};

/// Literal weights for `k` bindings in lane-blocked split-plane layout:
/// for each weight slot (row), `⌈k/W⌉` [`LaneBlock`]s of `W` lanes, where
/// `W` = [`lane_width`]`(k)`.
///
/// Lane `l` of the batch is exactly one scalar
/// [`AcWeights`](crate::AcWeights) vector; evidence that is shared by every
/// binding (query-variable indicators) is written once with
/// [`AcWeightsBatch::set_all`], per-binding parameter values with
/// [`AcWeightsBatch::set_lane`].
/// Rows are ordered by [`AcWeights::slot_of`](crate::AcWeights::slot_of)
/// slot — the blocks of `w(+v)` at row `2v`, of `w(-v)` at row `2v+1` — so
/// the compiled tape's precomputed literal slots index a row of blocks
/// directly. Dead lanes of a ragged trailing block are zero and stay zero.
#[derive(Debug, Clone)]
pub struct AcWeightsBatch {
    rows: LaneRows,
    lanes: usize,
    num_vars: usize,
}

/// `slots` rows of `lanes` lanes at width `W`, every live lane `live`,
/// every dead remainder lane an exact zero.
fn filled_rows<const W: usize>(slots: usize, lanes: usize, live: Complex) -> Vec<LaneBlock<W>> {
    let nb = blocks_for(lanes);
    let mut blocks = vec![LaneBlock::splat(live); slots * nb];
    if !lanes.is_multiple_of(W) {
        // Ragged batch: the trailing block of every row carries live
        // lanes only in its head; dead lanes hold exact zeros.
        let mut tail = LaneBlock::ZERO;
        for w in 0..lanes % W {
            tail.set(w, live);
        }
        for s in 0..slots {
            blocks[s * nb + nb - 1] = tail;
        }
    }
    blocks
}

/// The `nb` blocks of row `row`.
#[inline(always)]
pub(crate) fn row_of<const W: usize>(
    blocks: &[LaneBlock<W>],
    row: usize,
    nb: usize,
) -> &[LaneBlock<W>] {
    &blocks[row * nb..row * nb + nb]
}

impl AcWeightsBatch {
    fn filled(num_vars: usize, lanes: usize, live: Complex) -> Self {
        let slots = if lanes == 0 { 0 } else { 2 * (num_vars + 1) };
        let rows = if lane_width(lanes) == NARROW_WIDTH {
            LaneRows::Narrow(filled_rows(slots, lanes, live))
        } else {
            LaneRows::Wide(filled_rows(slots, lanes, live))
        };
        Self {
            rows,
            lanes,
            num_vars: if lanes == 0 { 0 } else { num_vars },
        }
    }

    /// All-ones weights over `num_vars` variables and `lanes` bindings.
    pub fn uniform(num_vars: usize, lanes: usize) -> Self {
        Self::filled(num_vars, lanes, C_ONE)
    }

    /// All-zeros weights over `num_vars` variables and `lanes` bindings —
    /// the starting point for per-lane tangent vectors (see
    /// [`AcWeights::zeros`](crate::AcWeights::zeros)).
    pub fn zeros(num_vars: usize, lanes: usize) -> Self {
        Self::filled(num_vars, lanes, C_ZERO)
    }

    /// Number of lanes (bindings) per variable.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of [`LaneBlock`]s per weight row (`⌈lanes/W⌉`).
    #[inline]
    pub fn blocks_per_row(&self) -> usize {
        blocks_for(self.lanes)
    }

    /// Number of variables covered (0 for an empty, zero-lane batch).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The weight rows, at the width the lane count selected.
    #[inline]
    pub(crate) fn rows(&self) -> &LaneRows {
        &self.rows
    }

    /// Sets both polarities of variable `v` in lane `lane`.
    pub fn set_lane(&mut self, v: u32, lane: usize, pos: Complex, neg: Complex) {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        let nb = self.blocks_per_row();
        let (w, row) = (lane_width(self.lanes), 2 * v as usize);
        with_rows!(&mut self.rows, blocks => {
            blocks[row * nb + lane / w].set(lane % w, pos);
            blocks[(row + 1) * nb + lane / w].set(lane % w, neg);
        });
    }

    /// Sets both polarities of variable `v` in every live lane (shared
    /// evidence). Dead remainder lanes stay zero.
    pub fn set_all(&mut self, v: u32, pos: Complex, neg: Complex) {
        let nb = self.blocks_per_row();
        let w = lane_width(self.lanes);
        let (full, rem) = (self.lanes / w, self.lanes % w);
        with_rows!(&mut self.rows, blocks => {
            for (value, row) in [(pos, 2 * v as usize), (neg, 2 * v as usize + 1)] {
                let row = &mut blocks[row * nb..(row + 1) * nb];
                for b in &mut row[..full] {
                    *b = LaneBlock::splat(value);
                }
                for l in 0..rem {
                    row[full].set(l, value);
                }
            }
        });
    }

    /// Copies every lane of variable `v` from `src` (row-level
    /// save/restore around evidence writes).
    ///
    /// # Panics
    ///
    /// Panics if `src` has a different lane count.
    pub fn copy_var_from(&mut self, src: &AcWeightsBatch, v: u32) {
        assert_eq!(self.lanes, src.lanes, "lane count mismatch");
        let nb = self.blocks_per_row();
        let row = 2 * v as usize * nb;
        match (&mut self.rows, &src.rows) {
            (LaneRows::Narrow(dst), LaneRows::Narrow(src)) => {
                dst[row..row + 2 * nb].copy_from_slice(&src[row..row + 2 * nb]);
            }
            (LaneRows::Wide(dst), LaneRows::Wide(src)) => {
                dst[row..row + 2 * nb].copy_from_slice(&src[row..row + 2 * nb]);
            }
            _ => unreachable!("equal lane counts select equal widths"),
        }
    }

    /// The weight of literal `l` in lane `lane`.
    #[inline]
    pub fn get(&self, l: Lit, lane: usize) -> Complex {
        let nb = self.blocks_per_row();
        let (w, row) = (
            lane_width(self.lanes),
            crate::AcWeights::slot_of(l) as usize,
        );
        with_rows!(&self.rows, blocks => blocks[row * nb + lane / w].get(lane % w))
    }

    /// Number of weight rows covered (`2 × (num_vars + 1)`; 0 when empty).
    #[inline]
    pub(crate) fn num_slots(&self) -> usize {
        if self.lanes == 0 {
            0
        } else {
            2 * (self.num_vars + 1)
        }
    }
}

/// Unpacks the `k` live lanes of row `id` into `out`.
#[inline]
pub(crate) fn unpack_row<const W: usize>(
    values: &[LaneBlock<W>],
    id: usize,
    nb: usize,
    k: usize,
    out: &mut Vec<Complex>,
) {
    out.clear();
    let row = row_of(values, id, nb);
    out.extend((0..k).map(|l| row[l / W].get(l % W)));
}

/// Upward pass over `k` weight lanes in one traversal: returns the root
/// value of every lane, each bit-for-bit equal to the scalar
/// [`evaluate`](crate::evaluate()) of that lane's weights.
pub fn evaluate_batch(nnf: &Nnf, weights: &AcWeightsBatch) -> Vec<Complex> {
    let k = weights.lanes();
    if k == 0 {
        return Vec::new();
    }
    with_rows!(weights.rows(), w => upward_pass(nnf, w, weights.blocks_per_row(), k))
}

/// The evaluation upward pass: fills the node-major value rows (`nb`
/// blocks per node) and returns the root's `k` lanes. Each block update is
/// a fixed-width split-plane loop, so there is one vectorized body per
/// width for every lane count — ragged batches ride the masked remainder
/// block instead of a hand-monomorphized `k`. (The differentials pass runs
/// its own upward sweep — it needs full AND products, without the zero
/// short-circuit used here.)
fn upward_pass<const W: usize>(
    nnf: &Nnf,
    weights: &[LaneBlock<W>],
    nb: usize,
    k: usize,
) -> Vec<Complex> {
    let mut values = vec![LaneBlock::ZERO; nnf.num_nodes() * nb];
    for (i, node) in nnf.nodes().iter().enumerate() {
        let row = i * nb;
        // Children precede parents, so splitting at `row` always puts every
        // child block in `head` and the current node's blocks at `tail[..nb]`.
        let (head, tail) = values.split_at_mut(row);
        let out = &mut tail[..nb];
        match node {
            NnfNode::True => out.fill(LaneBlock::ONE),
            NnfNode::False => out.fill(LaneBlock::ZERO),
            NnfNode::Lit(l) => {
                out.copy_from_slice(row_of(weights, crate::AcWeights::slot_of(*l) as usize, nb));
            }
            NnfNode::And(cs) => {
                out.fill(LaneBlock::ONE);
                for &c in cs.iter() {
                    // Mirror the scalar kernel's early break, lifted to the
                    // batch: a zero lane stops multiplying (the select in
                    // `mul_assign_sc` keeps the exact bits the scalar pass
                    // returns), and once every lane is dead the remaining
                    // children are skipped entirely.
                    if out.iter().all(LaneBlock::all_zero) {
                        break;
                    }
                    let child = row_of(head, c as usize, nb);
                    for (acc, v) in out.iter_mut().zip(child) {
                        acc.mul_assign_sc(v);
                    }
                }
            }
            NnfNode::Or(a, b) => {
                let a = row_of(head, *a as usize, nb);
                let b = row_of(head, *b as usize, nb);
                for (acc, (x, y)) in out.iter_mut().zip(a.iter().zip(b)) {
                    acc.add_of(x, y);
                }
            }
        }
    }
    let mut roots = Vec::with_capacity(k);
    unpack_row(&values, nnf.root() as usize, nb, k, &mut roots);
    roots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompileOptions};
    use crate::evaluate::{evaluate, AcWeights};
    use crate::lanes::LANE_WIDTH;
    use crate::transform::smooth;
    use qkc_cnf::Cnf;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    fn batch_of(lane_weights: &[AcWeights]) -> AcWeightsBatch {
        let num_vars = lane_weights[0].num_vars();
        let mut batch = AcWeightsBatch::uniform(num_vars, lane_weights.len());
        for (lane, w) in lane_weights.iter().enumerate() {
            for v in 1..=num_vars as u32 {
                batch.set_lane(v, lane, w.get(v as Lit), w.get(-(v as Lit)));
            }
        }
        batch
    }

    fn bits_eq(a: Complex, b: Complex) -> bool {
        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
    }

    fn test_nnf() -> Nnf {
        // (v1 ∨ v2) ∧ (¬v1 ∨ v3), smoothed over all variables.
        let mut f = Cnf::new(3);
        f.add_clause(vec![1, 2]);
        f.add_clause(vec![-1, 3]);
        let c = compile(&f, &CompileOptions::default());
        let groups: Vec<Vec<Lit>> = (1..=3).map(|v| vec![v, -v]).collect();
        smooth(&c.nnf, &groups)
    }

    #[test]
    fn batch_matches_scalar_bit_for_bit() {
        let nnf = test_nnf();
        let mut rng = StdRng::seed_from_u64(11);
        // Ragged widths straddle both block widths and the switch between
        // them: 1, 3, 4, 5, W−1, W, W+1, 2W+3.
        for k in [
            1usize,
            3,
            NARROW_WIDTH,
            NARROW_WIDTH + 1,
            LANE_WIDTH - 1,
            LANE_WIDTH,
            LANE_WIDTH + 1,
            2 * LANE_WIDTH + 3,
        ] {
            let lanes: Vec<AcWeights> = (0..k).map(|_| random_weights(3, &mut rng)).collect();
            let got = evaluate_batch(&nnf, &batch_of(&lanes));
            assert_eq!(got.len(), k);
            for (lane, w) in lanes.iter().enumerate() {
                let want = evaluate(&nnf, w);
                assert!(
                    bits_eq(got[lane], want),
                    "k {k} lane {lane}: {} vs {want}",
                    got[lane]
                );
            }
        }
    }

    #[test]
    fn batch_matches_scalar_with_zero_weights() {
        // Zero weights exercise the AND short-circuit; signs of zero must
        // still match the scalar kernel.
        let nnf = test_nnf();
        let mut w0 = AcWeights::uniform(3);
        w0.set(1, C_ZERO, Complex::real(-1.0));
        w0.set(2, C_ZERO, C_ONE);
        let mut w1 = AcWeights::uniform(3);
        w1.set(3, C_ZERO, C_ZERO);
        w1.set(1, Complex::real(-2.0), C_ONE);
        let lanes = [w0, w1];
        let got = evaluate_batch(&nnf, &batch_of(&lanes));
        for (lane, w) in lanes.iter().enumerate() {
            assert!(bits_eq(got[lane], evaluate(&nnf, w)), "lane {lane}");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let nnf = test_nnf();
        let batch = AcWeightsBatch::uniform(3, 0);
        assert!(evaluate_batch(&nnf, &batch).is_empty());
        assert_eq!(batch.num_vars(), 0);
    }

    /// Every lane of every row, dead remainder lanes included.
    fn all_lanes(b: &AcWeightsBatch) -> Vec<Complex> {
        with_rows!(b.rows(), blocks => blocks
            .iter()
            .flat_map(|blk| (0..blk.re.len()).map(|w| blk.get(w)))
            .collect())
    }

    #[test]
    fn accessors_cover_lanes() {
        for (k, width) in [(3, NARROW_WIDTH), (LANE_WIDTH - 1, LANE_WIDTH)] {
            let mut b = AcWeightsBatch::uniform(2, k);
            assert_eq!(b.lanes(), k);
            assert_eq!(b.num_vars(), 2);
            assert_eq!(b.blocks_per_row(), 1);
            b.set_lane(1, 1, Complex::imag(2.0), Complex::real(3.0));
            assert_eq!(b.get(1, 1), Complex::imag(2.0));
            assert_eq!(b.get(-1, 1), Complex::real(3.0));
            assert_eq!(b.get(1, 0), C_ONE);
            b.set_all(2, C_ZERO, C_ONE);
            for lane in 0..k {
                assert_eq!(b.get(2, lane), C_ZERO);
                assert_eq!(b.get(-2, lane), C_ONE);
            }
            // One block of the chosen width per row; dead remainder lanes
            // stay exact zeros (masked remainder block).
            let lanes = all_lanes(&b);
            assert_eq!(lanes.len(), b.num_slots() * width);
            for (i, c) in lanes.iter().enumerate() {
                if i % width >= k {
                    assert!(bits_eq(*c, C_ZERO), "k {k}: dead lane {i} is {c}");
                }
            }
        }
    }

    #[test]
    fn ragged_blocks_and_copy() {
        // A ragged narrow block, and k = W+2 spanning two wide blocks:
        // copy_var_from restores every block of both rows.
        for k in [NARROW_WIDTH - 1, LANE_WIDTH + 2] {
            ragged_copy(k);
        }
    }

    fn ragged_copy(k: usize) {
        let mut a = AcWeightsBatch::uniform(2, k);
        let saved = a.clone();
        a.set_all(1, C_ZERO, Complex::real(4.0));
        for lane in 0..k {
            assert_eq!(a.get(1, lane), C_ZERO);
            assert_eq!(a.get(-1, lane), Complex::real(4.0));
        }
        a.copy_var_from(&saved, 1);
        for lane in 0..k {
            assert_eq!(a.get(1, lane), C_ONE);
            assert_eq!(a.get(-1, lane), C_ONE);
        }
    }
}

//! Lane-blocked split-plane storage for batched kernels.
//!
//! A [`LaneBlock`] holds `W` complex lanes as two parallel `[f64; W]`
//! planes (separate real and imaginary arrays). Every per-lane operation
//! is a fixed-trip loop over `W`, so the compiler unrolls it completely
//! and autovectorizes the body — no gather/scatter, no interleaved
//! real/imaginary shuffles, entirely in safe Rust.
//!
//! # Two block widths
//!
//! A batch of `k` lanes runs on blocks of [`lane_width`]`(k)` lanes:
//! [`NARROW_WIDTH`] (4) when `k ≤ 4`, otherwise [`LANE_WIDTH`] (8). A
//! short batch thus computes 4 lanes per slot instead of 8. One plane of
//! an 8-lane block takes four 128-bit registers in the baseline x86-64
//! build, two 256-bit ones in the tape kernels' AVX2 instantiation and
//! one 512-bit one in their AVX-512 instantiation, which only the 8-lane
//! batch passes have (a 4-lane plane: two 128-bit registers, or one
//! 256-bit one). The width is a pure function of `k`;
//! every kernel is generic over it, and the weight containers store their
//! rows at the chosen width ([`LaneRows`]).
//!
//! # Bit-exactness contract
//!
//! Each lane of every operation performs *exactly* the scalar
//! [`Complex`] arithmetic sequence — the same multiply formula
//! (`re·re − im·im`, `re·im + im·re`), the same componentwise adds, and
//! the same zero tests (a lane is zero when it compares equal to
//! [`C_ZERO`](qkc_math::C_ZERO): `±0` is zero, NaN is not) — so a
//! blocked kernel built from these ops is bit-for-bit identical to its
//! scalar reference.
//! Nothing here is allowed to fuse a multiply-add: rustc never contracts
//! float expressions into FMA on its own, and keeping the two roundings
//! separate is what makes the SIMD path produce the scalar bits.
//!
//! # What is branch-free
//!
//! The lane loops contain no `if`, `&&` or `||`. Short-circuits become
//! per-lane *selects* on bit patterns: where the scalar kernel branches on
//! a zero accumulator, [`LaneBlock::mul_assign_sc`] computes the product
//! unconditionally and merges it as `(new & live) | (old & !live)`, which
//! keeps the exact bits a taken branch would have left. The whole-block
//! predicates ([`LaneBlock::all_zero`], [`LaneBlock::bits_ne`]) fold the
//! lanes with `|` and `^` on `to_bits()` and test once at the end. The
//! short-circuited AND does not branch at all: it multiplies every child
//! into every block, because the select keeps an all-zero block's bits.
//! The kernels branch per *row* only (a delta pass propagates past a row
//! when some block changed; the cone downward sweep skips a product whose
//! partial row is all zero), never per lane.
//!
//! Ragged batches (`k` not a multiple of `W`) occupy `⌈k/W⌉` blocks;
//! the trailing block's dead lanes are zero-filled by the weight
//! containers and simply computed alongside live lanes (masked
//! remainder). Dead lanes are deterministic functions of those zeros,
//! which keeps whole-block bitwise comparisons (delta kernels) sound.

use qkc_math::{Complex, C_ONE};

/// Widest lane block: 8 × f64 per plane, four 128-bit registers in the
/// baseline x86-64 build, two 256-bit ones in the tape kernels' AVX2
/// instantiation and one 512-bit one in their AVX-512 instantiation.
/// Batches of more than [`NARROW_WIDTH`] lanes run at this width.
pub const LANE_WIDTH: usize = 8;

/// Narrow lane block, for batches of at most this many lanes.
pub const NARROW_WIDTH: usize = 4;

/// The block width a batch of `lanes` lanes runs at: [`NARROW_WIDTH`]
/// when `lanes ≤ 4`, otherwise [`LANE_WIDTH`].
#[inline]
pub fn lane_width(lanes: usize) -> usize {
    if lanes <= NARROW_WIDTH {
        NARROW_WIDTH
    } else {
        LANE_WIDTH
    }
}

/// Number of blocks of [`lane_width`]`(lanes)` needed to hold `lanes`
/// complex lanes.
#[inline]
pub fn blocks_for(lanes: usize) -> usize {
    lanes.div_ceil(lane_width(lanes))
}

/// Lane-blocked rows at one of the two block widths — the storage of a
/// batch whose lane count selected that width (see [`lane_width`]).
#[derive(Debug, Clone)]
pub enum LaneRows {
    /// Blocks of [`NARROW_WIDTH`] lanes.
    Narrow(Vec<LaneBlock<NARROW_WIDTH>>),
    /// Blocks of [`LANE_WIDTH`] lanes.
    Wide(Vec<LaneBlock<LANE_WIDTH>>),
}

/// Runs `$body` with `$b` bound to the rows of a [`LaneRows`] at their
/// concrete width: the two arms monomorphize the same width-generic code.
macro_rules! with_rows {
    ($rows:expr, $b:ident => $body:expr) => {
        match $rows {
            $crate::lanes::LaneRows::Narrow($b) => $body,
            $crate::lanes::LaneRows::Wide($b) => $body,
        }
    };
}
pub(crate) use with_rows;

/// All ones in a lane whose value is not `C_ZERO`, all zeros in a `±0`
/// lane: the scalar `acc != C_ZERO` test as a select mask. NaN counts as
/// nonzero, exactly as the derived `Complex` comparison does.
#[inline(always)]
fn live_mask(re: f64, im: f64) -> u64 {
    0u64.wrapping_sub(u64::from((re != 0.0) | (im != 0.0)))
}

/// `new` in the bits `mask` sets, `old` elsewhere.
#[inline(always)]
fn select(mask: u64, new: f64, old: f64) -> f64 {
    f64::from_bits((new.to_bits() & mask) | (old.to_bits() & !mask))
}

/// `W` complex lanes in split-plane layout: `re[w] + i·im[w]` is lane `w`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct LaneBlock<const W: usize = LANE_WIDTH> {
    /// Real plane.
    pub re: [f64; W],
    /// Imaginary plane.
    pub im: [f64; W],
}

impl<const W: usize> LaneBlock<W> {
    /// All lanes `0 + 0i`.
    pub const ZERO: Self = Self {
        re: [0.0; W],
        im: [0.0; W],
    };

    /// All lanes `1 + 0i`.
    pub const ONE: Self = Self {
        re: [1.0; W],
        im: [0.0; W],
    };

    /// All lanes set to `c`.
    #[inline(always)]
    pub fn splat(c: Complex) -> Self {
        Self {
            re: [c.re; W],
            im: [c.im; W],
        }
    }

    /// Lane `w` as a [`Complex`].
    #[inline(always)]
    pub fn get(&self, w: usize) -> Complex {
        Complex::new(self.re[w], self.im[w])
    }

    /// Sets lane `w`.
    #[inline(always)]
    pub fn set(&mut self, w: usize, c: Complex) {
        self.re[w] = c.re;
        self.im[w] = c.im;
    }

    /// `C_ONE * v` per lane — the full multiply by exact one, *not* a
    /// copy: `1·re − 0·im` can flip the sign of a zero, and the scalar
    /// kernels (`acc = C_ONE * v`) observe those bits.
    #[inline(always)]
    pub fn one_times(v: &Self) -> Self {
        let mut out = Self::ZERO;
        for w in 0..W {
            out.re[w] = C_ONE.re * v.re[w] - C_ONE.im * v.im[w];
            out.im[w] = C_ONE.re * v.im[w] + C_ONE.im * v.re[w];
        }
        out
    }

    /// `self * rhs` per lane (scalar `Complex::mul` formula).
    #[inline(always)]
    pub fn mul(&self, rhs: &Self) -> Self {
        let mut out = Self::ZERO;
        for w in 0..W {
            out.re[w] = self.re[w] * rhs.re[w] - self.im[w] * rhs.im[w];
            out.im[w] = self.re[w] * rhs.im[w] + self.im[w] * rhs.re[w];
        }
        out
    }

    /// `self *= rhs` per lane, unconditionally (full-product AND sweeps).
    #[inline(always)]
    pub fn mul_assign(&mut self, rhs: &Self) {
        for w in 0..W {
            let re = self.re[w] * rhs.re[w] - self.im[w] * rhs.im[w];
            let im = self.re[w] * rhs.im[w] + self.im[w] * rhs.re[w];
            self.re[w] = re;
            self.im[w] = im;
        }
    }

    /// `self *= rhs` in lanes where `self` is nonzero; zero lanes keep
    /// their bits. This is the scalar AND short-circuit
    /// (`if acc != C_ZERO { acc *= v }`) as a bitwise select, so a block
    /// whose lanes are all zero comes out bit-for-bit unchanged.
    #[inline(always)]
    pub fn mul_assign_sc(&mut self, rhs: &Self) {
        for w in 0..W {
            let live = live_mask(self.re[w], self.im[w]);
            let re = self.re[w] * rhs.re[w] - self.im[w] * rhs.im[w];
            let im = self.re[w] * rhs.im[w] + self.im[w] * rhs.re[w];
            self.re[w] = select(live, re, self.re[w]);
            self.im[w] = select(live, im, self.im[w]);
        }
    }

    /// `self = a + b` per lane.
    #[inline(always)]
    pub fn add_of(&mut self, a: &Self, b: &Self) {
        for w in 0..W {
            self.re[w] = a.re[w] + b.re[w];
            self.im[w] = a.im[w] + b.im[w];
        }
    }

    /// `self += rhs` per lane.
    #[inline(always)]
    pub fn add_assign(&mut self, rhs: &Self) {
        for w in 0..W {
            self.re[w] += rhs.re[w];
            self.im[w] += rhs.im[w];
        }
    }

    /// `self += a * b` per lane, unconditionally. The product and the
    /// add round separately (two ops, never an FMA).
    #[inline(always)]
    pub fn add_mul(&mut self, a: &Self, b: &Self) {
        for w in 0..W {
            let re = a.re[w] * b.re[w] - a.im[w] * b.im[w];
            let im = a.re[w] * b.im[w] + a.im[w] * b.re[w];
            self.re[w] += re;
            self.im[w] += im;
        }
    }

    /// Whether every lane is numerically zero (`== C_ZERO`; the sign of
    /// zero is ignored and NaN is nonzero, matching the scalar
    /// comparison). The lanes' bits are or-ed together and the sign bit
    /// shifted out, so only `±0` in every plane leaves nothing behind.
    #[inline(always)]
    pub fn all_zero(&self) -> bool {
        let mut bits = 0u64;
        for w in 0..W {
            bits |= self.re[w].to_bits() | self.im[w].to_bits();
        }
        bits << 1 == 0
    }

    /// Whether any lane differs from `other` *bitwise* (distinguishes
    /// `-0.0` from `0.0` and compares NaNs by payload) — the comparison
    /// the delta kernels use to detect a changed row.
    #[inline(always)]
    pub fn bits_ne(&self, other: &Self) -> bool {
        let mut diff = 0u64;
        for w in 0..W {
            diff |= (self.re[w].to_bits() ^ other.re[w].to_bits())
                | (self.im[w].to_bits() ^ other.im[w].to_bits());
        }
        diff != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkc_math::{C_ONE, C_ZERO};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bits_eq(a: Complex, b: Complex) -> bool {
        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
    }

    fn random_block<const W: usize>(rng: &mut StdRng) -> LaneBlock<W> {
        let mut b = LaneBlock::ZERO;
        for w in 0..W {
            // Mix in exact zeros of both signs so the zero-select paths
            // and sign-of-zero propagation are exercised, and NaNs, which
            // the scalar short-circuit treats as nonzero.
            let c = match rng.gen_range(0..7) {
                0 => C_ZERO,
                1 => Complex::new(-0.0, 0.0),
                2 => Complex::new(0.0, -0.0),
                3 => Complex::new(f64::NAN, 0.0),
                4 => Complex::new(-0.0, f64::NAN),
                _ => Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
            };
            b.set(w, c);
        }
        b
    }

    fn ops_match_scalar_at<const W: usize>() {
        let mut rng = StdRng::seed_from_u64(7 + W as u64);
        for _ in 0..200 {
            let a = random_block::<W>(&mut rng);
            let b = random_block::<W>(&mut rng);
            let acc0 = random_block::<W>(&mut rng);

            let m = a.mul(&b);
            let ot = LaneBlock::one_times(&a);
            let mut ma = a;
            ma.mul_assign(&b);
            let mut sc = a;
            sc.mul_assign_sc(&b);
            let mut sum = LaneBlock::ZERO;
            sum.add_of(&a, &b);
            let mut aa = acc0;
            aa.add_assign(&b);
            let mut am = acc0;
            am.add_mul(&a, &b);

            let mut all_zero = true;
            for w in 0..W {
                let (x, y, z) = (a.get(w), b.get(w), acc0.get(w));
                assert!(bits_eq(m.get(w), x * y));
                assert!(bits_eq(ot.get(w), C_ONE * x));
                assert!(bits_eq(ma.get(w), x * y));
                let want_sc = if x != C_ZERO { x * y } else { x };
                assert!(bits_eq(sc.get(w), want_sc), "W={W} lane {w}: {x:?}·{y:?}");
                assert!(bits_eq(sum.get(w), x + y));
                assert!(bits_eq(aa.get(w), z + y));
                assert!(bits_eq(am.get(w), z + x * y));
                all_zero &= x == C_ZERO;
            }
            assert_eq!(a.all_zero(), all_zero);
            assert!(!a.bits_ne(&a));
            assert_eq!(a.bits_ne(&b), (0..W).any(|w| !bits_eq(a.get(w), b.get(w))));
        }
    }

    #[test]
    fn ops_match_scalar_complex_bit_for_bit() {
        ops_match_scalar_at::<NARROW_WIDTH>();
        ops_match_scalar_at::<LANE_WIDTH>();
    }

    fn zero_predicates_at<const W: usize>() {
        assert!(LaneBlock::<W>::ZERO.all_zero());
        let mut b = LaneBlock::<W>::ZERO;
        b.set(W - 1, Complex::new(-0.0, 0.0));
        // -0.0 == 0.0 numerically: still all-zero…
        assert!(b.all_zero());
        // …but bitwise different from the +0.0 block.
        assert!(b.bits_ne(&LaneBlock::ZERO));
        b.set(W - 1, Complex::real(1.0));
        assert!(!b.all_zero());
        assert!(!LaneBlock::<W>::ONE.bits_ne(&LaneBlock::ONE));
        // A NaN lane is live, and equal to itself bit for bit.
        let mut n = LaneBlock::<W>::ZERO;
        n.set(0, Complex::new(0.0, f64::NAN));
        assert!(!n.all_zero());
        assert!(!n.bits_ne(&n));
        // A zero lane keeps its bits under the short-circuited multiply;
        // a NaN lane multiplies on.
        let mut z = LaneBlock::<W>::ZERO;
        z.set(0, Complex::new(-0.0, -0.0));
        let before = z;
        z.mul_assign_sc(&LaneBlock::splat(Complex::new(-3.0, 2.0)));
        assert!(!z.bits_ne(&before));
        n.mul_assign_sc(&LaneBlock::ONE);
        assert!(n.re[0].is_nan() && n.im[0].is_nan());
    }

    #[test]
    fn zero_predicates() {
        zero_predicates_at::<NARROW_WIDTH>();
        zero_predicates_at::<LANE_WIDTH>();
    }

    #[test]
    fn width_follows_lane_count() {
        assert_eq!(lane_width(0), NARROW_WIDTH);
        assert_eq!(lane_width(1), NARROW_WIDTH);
        assert_eq!(lane_width(NARROW_WIDTH), NARROW_WIDTH);
        assert_eq!(lane_width(NARROW_WIDTH + 1), LANE_WIDTH);
        assert_eq!(lane_width(100), LANE_WIDTH);
    }

    #[test]
    fn blocks_for_rounds_up() {
        assert_eq!(blocks_for(0), 0);
        assert_eq!(blocks_for(1), 1);
        assert_eq!(blocks_for(NARROW_WIDTH), 1);
        assert_eq!(blocks_for(NARROW_WIDTH + 1), 1);
        assert_eq!(blocks_for(LANE_WIDTH), 1);
        assert_eq!(blocks_for(LANE_WIDTH + 1), 2);
        assert_eq!(blocks_for(2 * LANE_WIDTH + 3), 3);
    }
}

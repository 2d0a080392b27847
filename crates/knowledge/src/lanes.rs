//! Lane-blocked split-plane storage for batched kernels.
//!
//! A [`LaneBlock`] holds `W` complex lanes as two parallel `[f64; W]`
//! planes (separate real and imaginary arrays). Every per-lane operation
//! is a fixed-trip loop over `W`, so the compiler unrolls it completely
//! and autovectorizes the body — no gather/scatter, no interleaved
//! real/imaginary shuffles, entirely in safe Rust.
//!
//! # Bit-exactness contract
//!
//! Each lane of every operation performs *exactly* the scalar
//! [`Complex`] arithmetic sequence — the same multiply formula
//! (`re·re − im·im`, `re·im + im·re`), the same componentwise adds, and
//! the same zero tests (`re == 0.0 && im == 0.0`, matching `Complex`'s
//! derived `PartialEq` against [`C_ZERO`](qkc_math::C_ZERO)) — so a
//! blocked kernel built from these ops is bit-for-bit identical to its
//! scalar reference.
//! Nothing here is allowed to fuse a multiply-add: rustc never contracts
//! float expressions into FMA on its own, and keeping the two roundings
//! separate is what makes the SIMD path produce the scalar bits.
//!
//! Short-circuits become per-lane *selects*: where the scalar kernel
//! branches on a zero accumulator, the lane op computes the product
//! unconditionally and keeps the old bits in lanes that were zero. A
//! select preserves the exact bit pattern a taken branch would have
//! left, and compiles to a blend instead of a branch.
//!
//! Ragged batches (`k` not a multiple of `W`) occupy `⌈k/W⌉` blocks;
//! the trailing block's dead lanes are zero-filled by the weight
//! containers and simply computed alongside live lanes (masked
//! remainder). Dead lanes are deterministic functions of those zeros,
//! which keeps whole-block bitwise comparisons (delta kernels) sound.

use qkc_math::{Complex, C_ONE};

/// Native lane width of the blocked kernels: 8 × f64 per plane fills one
/// 512-bit vector register (or two 256-bit ones) per plane.
pub const LANE_WIDTH: usize = 8;

/// Number of [`LaneBlock`]s needed to hold `lanes` complex lanes.
#[inline]
pub fn blocks_for(lanes: usize) -> usize {
    lanes.div_ceil(LANE_WIDTH)
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
    /// (`if acc != C_ZERO { acc *= v }`) as a branchless select.
    #[inline(always)]
    pub fn mul_assign_sc(&mut self, rhs: &Self) {
        for w in 0..W {
            let dead = self.re[w] == 0.0 && self.im[w] == 0.0;
            let re = self.re[w] * rhs.re[w] - self.im[w] * rhs.im[w];
            let im = self.re[w] * rhs.im[w] + self.im[w] * rhs.re[w];
            self.re[w] = if dead { self.re[w] } else { re };
            self.im[w] = if dead { self.im[w] } else { im };
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

    /// Whether every lane is numerically zero (`== C_ZERO`; sign of zero
    /// is ignored, matching the scalar comparison).
    #[inline(always)]
    pub fn all_zero(&self) -> bool {
        let mut zero = true;
        for w in 0..W {
            zero &= self.re[w] == 0.0 && self.im[w] == 0.0;
        }
        zero
    }

    /// Whether any lane differs from `other` *bitwise* (distinguishes
    /// `-0.0` from `0.0` and compares NaNs by payload) — the comparison
    /// the delta kernels use to detect a changed row.
    #[inline(always)]
    pub fn bits_ne(&self, other: &Self) -> bool {
        let mut ne = false;
        for w in 0..W {
            ne |= self.re[w].to_bits() != other.re[w].to_bits()
                || self.im[w].to_bits() != other.im[w].to_bits();
        }
        ne
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

    fn random_block(rng: &mut StdRng) -> LaneBlock {
        let mut b = LaneBlock::ZERO;
        for w in 0..LANE_WIDTH {
            // Mix in exact zeros of both signs so the zero-select paths
            // and sign-of-zero propagation are exercised.
            let c = match rng.gen_range(0..5) {
                0 => C_ZERO,
                1 => Complex::new(-0.0, 0.0),
                2 => Complex::new(0.0, -0.0),
                _ => Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
            };
            b.set(w, c);
        }
        b
    }

    #[test]
    fn ops_match_scalar_complex_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let a = random_block(&mut rng);
            let b = random_block(&mut rng);
            let acc0 = random_block(&mut rng);

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

            for w in 0..LANE_WIDTH {
                let (x, y, z) = (a.get(w), b.get(w), acc0.get(w));
                assert!(bits_eq(m.get(w), x * y));
                assert!(bits_eq(ot.get(w), C_ONE * x));
                assert!(bits_eq(ma.get(w), x * y));
                let want_sc = if x != C_ZERO { x * y } else { x };
                assert!(bits_eq(sc.get(w), want_sc));
                assert!(bits_eq(sum.get(w), x + y));
                assert!(bits_eq(aa.get(w), z + y));
                assert!(bits_eq(am.get(w), z + x * y));
            }
        }
    }

    #[test]
    fn zero_predicates() {
        assert!(LaneBlock::<8>::ZERO.all_zero());
        let mut b = LaneBlock::<8>::ZERO;
        b.set(3, Complex::new(-0.0, 0.0));
        // -0.0 == 0.0 numerically: still all-zero…
        assert!(b.all_zero());
        // …but bitwise different from the +0.0 block.
        assert!(b.bits_ne(&LaneBlock::ZERO));
        b.set(3, Complex::real(1.0));
        assert!(!b.all_zero());
        assert!(!LaneBlock::<8>::ONE.bits_ne(&LaneBlock::ONE));
    }

    #[test]
    fn blocks_for_rounds_up() {
        assert_eq!(blocks_for(0), 0);
        assert_eq!(blocks_for(1), 1);
        assert_eq!(blocks_for(LANE_WIDTH), 1);
        assert_eq!(blocks_for(LANE_WIDTH + 1), 2);
        assert_eq!(blocks_for(2 * LANE_WIDTH + 3), 3);
    }
}

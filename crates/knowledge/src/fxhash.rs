//! A small Fx-style hasher — one rotate, xor and multiply per word, as in
//! rustc's `FxHasher` — for the compiler's hash tables: the component
//! cache and the NNF builder's hash-consing table.
//!
//! Both tables are keyed by integers or integer slices the compiler builds
//! itself, and both are only looked up, never iterated, so the hash cannot
//! change any output. Keys that collide on purpose could only slow the
//! tables down, and a formula crafted to be slow can already make the
//! exhaustive search exponential, so SipHash's flood resistance buys
//! nothing here.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` hasher parameter for [`FxHasher`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The multiply-rotate word hasher.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash + ?Sized>(x: &T) -> u64 {
        FxBuildHasher::default().hash_one(x)
    }

    #[test]
    fn slices_hash_by_content_and_length() {
        let boxed: Box<[u32]> = vec![3, u32::MAX, 1, 2].into_boxed_slice();
        assert_eq!(hash(&boxed), hash(&[3u32, u32::MAX, 1, 2][..]));
        assert_ne!(hash(&[1u32, 2][..]), hash(&[2u32, 1][..]));
        assert_ne!(hash(&[0u32][..]), hash(&[0u32, 0][..]));
    }
}

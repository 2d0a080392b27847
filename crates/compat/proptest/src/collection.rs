//! Collection strategies.

use crate::{Strategy, TestRng};
use rand::Rng;
use std::ops::Range;

/// The accepted size specifications of [`vec()`]: a fixed length or a
/// half-open range of lengths.
#[derive(Debug, Clone)]
pub struct SizeRange(Range<usize>);

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange(n..n + 1)
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        SizeRange(r)
    }
}

/// A strategy producing `Vec`s of values from an element strategy.
#[derive(Debug)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.0.gen_range(self.size.clone());
        (0..len).map(|_| self.element.new_value(rng)).collect()
    }
}

/// Vectors of `size` elements drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into().0,
    }
}

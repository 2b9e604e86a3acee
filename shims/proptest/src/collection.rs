//! Collection strategies (`vec`).

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::strategy::Strategy;

/// Strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// Vectors of `element` values with a length drawn from `len`.
///
/// # Panics
///
/// Panics (on generation) if `len` is empty.
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, len }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn lengths_in_range() {
        let mut rng = SmallRng::seed_from_u64(4);
        let s = vec(0u8..5, 2..9);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..9).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }
}

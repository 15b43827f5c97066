//! A small, deterministic, dependency-free PRNG.
//!
//! Workload generation (and the repository's randomized tests) need a
//! seeded stream of uniform draws, not cryptographic quality. This is
//! SplitMix64 (Steele et al., "Fast splittable pseudorandom number
//! generators", OOPSLA 2014): one 64-bit counter state, a finalizer with
//! full avalanche, and equidistributed 64-bit outputs — more than enough
//! for phase-structured kernel synthesis, and it keeps the workspace
//! building with no network access to a package registry.

use warped_isa::mix64;

/// A seeded SplitMix64 generator.
///
/// # Examples
///
/// ```
/// use warped_workloads::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.index(10) < 10);
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds give equal streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next uniform 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let z = self.state;
        self.state = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(z)
    }

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A uniform draw in `[0, bound)` via the multiply-shift reduction.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        (((u128::from(self.next_u64())) * u128::from(bound)) >> 64) as u64
    }

    /// [`SplitMix64::below`] for container indexing.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut g = SplitMix64::new(123);
        let mut seen = [false; 7];
        for _ in 0..500 {
            let v = g.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "all residues reachable");
    }

    #[test]
    fn chance_tracks_probability() {
        let mut g = SplitMix64::new(99);
        let hits = (0..10_000).filter(|_| g.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits} hits of ~3000");
    }

    #[test]
    fn unit_interval_draws_are_in_range() {
        let mut g = SplitMix64::new(5);
        for _ in 0..1000 {
            let f = g.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        let _ = SplitMix64::new(0).below(0);
    }
}

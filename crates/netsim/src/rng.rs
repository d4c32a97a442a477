//! Seedable randomness for simulations.
//!
//! Every random draw in a run flows through a [`SimRng`], seeded from a
//! single `u64`, so any run can be replayed exactly. Helper methods cover
//! the two distributions the BGP study needs: uniform durations (message
//! processing delay) and multiplicative jitter (the MRAI timer).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::time::SimDuration;

/// A deterministic random number generator for simulation use.
///
/// # Examples
///
/// ```
/// use bgpsim_netsim::rng::SimRng;
/// use bgpsim_netsim::time::SimDuration;
///
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// let lo = SimDuration::from_millis(100);
/// let hi = SimDuration::from_millis(500);
/// assert_eq!(a.uniform_duration(lo, hi), b.uniform_duration(lo, hi));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// Returns the seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator for a named sub-stream.
    ///
    /// Forked streams let different subsystems (e.g. traffic phases vs.
    /// message delays) draw randomness without perturbing each other's
    /// sequences when one subsystem changes how much it draws.
    pub fn fork(&self, stream: u64) -> SimRng {
        // SplitMix64-style mix of (seed, stream) into a fresh seed.
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::new(z)
    }

    /// Draws a duration uniformly from `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_duration(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        assert!(lo <= hi, "uniform_duration requires lo <= hi ({lo} > {hi})");
        if lo == hi {
            return lo;
        }
        SimDuration::from_nanos(self.inner.random_range(lo.as_nanos()..=hi.as_nanos()))
    }

    /// Draws a jittered value of `base`: uniform in
    /// `[base * lo_frac, base * hi_frac]`.
    ///
    /// BGP implementations jitter the MRAI timer to avoid synchronized
    /// update bursts; SSFNet draws from `[0.75 * M, M]`.
    ///
    /// # Panics
    ///
    /// Panics if the fractions are not finite, negative, or out of order.
    pub fn jittered(&mut self, base: SimDuration, lo_frac: f64, hi_frac: f64) -> SimDuration {
        assert!(
            lo_frac.is_finite() && hi_frac.is_finite() && lo_frac >= 0.0 && lo_frac <= hi_frac,
            "jittered requires 0 <= lo_frac <= hi_frac, got [{lo_frac}, {hi_frac}]"
        );
        self.uniform_duration(base.mul_f64(lo_frac), base.mul_f64(hi_frac))
    }

    /// Draws a `u64` uniformly from `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "index requires a non-empty range");
        self.inner.random_range(0..bound)
    }

    /// Draws a uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.inner.random()
    }

    /// Picks a uniformly random element of `items`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.index(items.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.index(1000), b.index(1000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let av: Vec<usize> = (0..32).map(|_| a.index(1 << 30)).collect();
        let bv: Vec<usize> = (0..32).map(|_| b.index(1 << 30)).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn uniform_duration_in_bounds() {
        let mut rng = SimRng::new(9);
        let lo = SimDuration::from_millis(100);
        let hi = SimDuration::from_millis(500);
        for _ in 0..1000 {
            let d = rng.uniform_duration(lo, hi);
            assert!(d >= lo && d <= hi, "{d} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn uniform_duration_degenerate() {
        let mut rng = SimRng::new(9);
        let d = SimDuration::from_secs(3);
        assert_eq!(rng.uniform_duration(d, d), d);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn uniform_duration_rejects_inverted() {
        let mut rng = SimRng::new(9);
        let _ = rng.uniform_duration(SimDuration::from_secs(2), SimDuration::from_secs(1));
    }

    #[test]
    fn jittered_in_bounds() {
        let mut rng = SimRng::new(11);
        let base = SimDuration::from_secs(30);
        for _ in 0..1000 {
            let d = rng.jittered(base, 0.75, 1.0);
            assert!(d >= base.mul_f64(0.75) && d <= base);
        }
    }

    #[test]
    fn jittered_none_is_exact() {
        let mut rng = SimRng::new(11);
        let base = SimDuration::from_secs(30);
        assert_eq!(rng.jittered(base, 1.0, 1.0), base);
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let root = SimRng::new(5);
        let mut s1 = root.fork(1);
        let mut s1_again = root.fork(1);
        let mut s2 = root.fork(2);
        let a: Vec<usize> = (0..16).map(|_| s1.index(1 << 20)).collect();
        let b: Vec<usize> = (0..16).map(|_| s1_again.index(1 << 20)).collect();
        let c: Vec<usize> = (0..16).map(|_| s2.index(1 << 20)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn choose_behaviour() {
        let mut rng = SimRng::new(3);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        let items = [10, 20, 30];
        for _ in 0..50 {
            assert!(items.contains(rng.choose(&items).unwrap()));
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = SimRng::new(4);
        for _ in 0..1000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_duration_covers_range_roughly() {
        // Sanity check the distribution is not degenerate: mean of
        // U[100ms, 500ms] should be near 300ms.
        let mut rng = SimRng::new(77);
        let lo = SimDuration::from_millis(100);
        let hi = SimDuration::from_millis(500);
        let n = 10_000u64;
        let total: SimDuration = (0..n).map(|_| rng.uniform_duration(lo, hi)).sum();
        let mean_ms = (total / n).as_millis();
        assert!((280..=320).contains(&mean_ms), "mean {mean_ms}ms");
    }
}

//! Deterministic pseudo-random number generation.
//!
//! All stochastic choices in the simulator (think-time jitter, workload shapes,
//! property-test corpora) flow through [`Rng`], a xoshiro256\*\* generator seeded
//! explicitly. Two runs with the same seed produce the same stream on every
//! platform, which the integration tests assert end-to-end.

/// A xoshiro256\*\* pseudo-random number generator.
///
/// Chosen because it is tiny, fast, has a 2^256 − 1 period, and passes BigCrush;
/// more than adequate for workload generation (we never use it for cryptography).
///
/// # Examples
///
/// ```
/// use simcore::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The seed is expanded into the 256-bit state with SplitMix64, the
    /// initialization recommended by the xoshiro authors; a zero seed is safe.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            s: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    /// `bound` must be nonzero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below: bound must be nonzero");
        // Lemire (2019): unbiased bounded integers without division in the
        // common case.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Samples a geometric-ish think time with the given mean, in whole cycles.
    ///
    /// Workload papers of the era model "local computation between synchronization
    /// operations" as an exponential; we use the discrete analogue so simulated
    /// time stays integral. A mean of zero always yields zero.
    pub fn exp_cycles(&mut self, mean: u64) -> u64 {
        if mean == 0 {
            return 0;
        }
        // Inverse-CDF sampling of an exponential, rounded to cycles.
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        let x = -(u.ln()) * mean as f64;
        // Cap at a generous multiple of the mean so one unlucky draw cannot
        // dominate a short experiment.
        x.min(mean as f64 * 64.0) as u64
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Derives an independent child generator; used to give each simulated
    /// processor its own stream while keeping the whole experiment a function
    /// of one root seed.
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng::new(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds overlap: {same}/64");
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = Rng::new(0);
        let first = r.next_u64();
        let second = r.next_u64();
        assert_ne!(first, 0);
        assert_ne!(first, second);
    }

    #[test]
    fn next_below_in_range() {
        let mut r = Rng::new(3);
        for bound in [1u64, 2, 3, 7, 10, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_range() {
        let mut r = Rng::new(11);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some residues never appeared");
    }

    #[test]
    #[should_panic(expected = "bound must be nonzero")]
    fn next_below_zero_panics() {
        Rng::new(0).next_below(0);
    }

    #[test]
    fn next_f64_unit_interval() {
        let mut r = Rng::new(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_f64_mean_is_roughly_half() {
        let mut r = Rng::new(13);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(17);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn exp_cycles_zero_mean() {
        let mut r = Rng::new(19);
        assert_eq!(r.exp_cycles(0), 0);
    }

    #[test]
    fn exp_cycles_mean_close() {
        let mut r = Rng::new(23);
        let n = 50_000u64;
        let mean = 100u64;
        let total: u64 = (0..n).map(|_| r.exp_cycles(mean)).sum();
        let observed = total as f64 / n as f64;
        assert!(
            (observed - mean as f64).abs() < 5.0,
            "observed mean {observed}, expected ~{mean}"
        );
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(29);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_moves_elements() {
        let mut r = Rng::new(31);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        assert_ne!(xs, (0..50).collect::<Vec<_>>(), "shuffle was identity");
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = Rng::new(37);
        let mut a = root.fork(0);
        let mut b = root.fork(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }
}

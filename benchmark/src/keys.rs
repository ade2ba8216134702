//! Seeded inputs: per-thread key rings generated before timing, and the
//! deterministic work done while a lock is held.
//!
//! Generating keys inside the timed loop is what made
//! `workloads::service_load::run_real` a poor yardstick (the Zipf binary
//! search cost several times the service call), so every stream is drawn
//! here, once, into a ring the timed loop only indexes.

use parking::futex::mix64;
use simcore::Rng;
use std::hint::black_box;
use workloads::service_load::Zipf;

/// Entries per thread's key ring (a power of two; the loop masks).
pub const RING_LEN: usize = 1 << 20;

/// Keys are spread this far apart wherever a workload's keys are few, so
/// that the per-key check counters of two keys never share a cache line:
/// false sharing there would be the driver's contention, not the service's.
pub const KEY_STRIDE: u64 = 16;

/// How a workload draws its keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// `per_thread` keys owned by each thread; no key is ever shared.
    Private { per_thread: u64 },
    /// Uniform over a shared space of `space` keys.
    Uniform { space: u64 },
    /// Zipf(`s`) over `n` shared keys, rank 0 hottest.
    Zipf { n: usize, s: f64 },
}

/// Spacing between threads' private key blocks.
const PRIVATE_BLOCK: u64 = 1024;

impl KeyDist {
    /// One more than the largest key any of `threads` threads can draw.
    pub fn key_space(&self, threads: usize) -> usize {
        match *self {
            KeyDist::Private { per_thread } => {
                assert!(per_thread <= PRIVATE_BLOCK);
                threads * PRIVATE_BLOCK as usize
            }
            KeyDist::Uniform { space } => space as usize,
            KeyDist::Zipf { n, .. } => n * KEY_STRIDE as usize,
        }
    }

    /// The key ring of `thread`: a pure function of `(self, seed, thread)`.
    pub fn ring(&self, seed: u64, thread: usize, len: usize) -> Vec<u64> {
        let mut rng = thread_rng(seed, thread);
        match *self {
            KeyDist::Private { per_thread } => {
                let base = thread as u64 * PRIVATE_BLOCK;
                (0..len)
                    .map(|_| base + rng.next_below(per_thread))
                    .collect()
            }
            KeyDist::Uniform { space } => (0..len).map(|_| rng.next_below(space)).collect(),
            KeyDist::Zipf { n, s } => {
                let zipf = Zipf::new(n, s);
                (0..len)
                    .map(|_| zipf.sample(&mut rng) * KEY_STRIDE)
                    .collect()
            }
        }
    }
}

/// The generator of one thread's stream, decorrelated across threads.
pub fn thread_rng(seed: u64, thread: usize) -> Rng {
    Rng::new(seed ^ mix64(thread as u64 + 1))
}

/// Work done while holding a lock: a dependent chain of `links` hashes.
/// A fixed instruction count, unlike `spin_loop` hints, whose latency
/// differs roughly tenfold between CPU generations.
#[inline]
pub fn hold(seed: u64, links: u32) -> u64 {
    let mut x = seed;
    for _ in 0..links {
        x = mix64(x);
    }
    black_box(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DISTS: [KeyDist; 3] = [
        KeyDist::Private { per_thread: 64 },
        KeyDist::Uniform { space: 1 << 22 },
        KeyDist::Zipf { n: 4096, s: 1.1 },
    ];

    #[test]
    fn rings_repeat_per_seed_and_differ_across_seeds_and_threads() {
        for dist in DISTS {
            let a = dist.ring(42, 0, 4096);
            assert_eq!(a, dist.ring(42, 0, 4096), "{dist:?} must repeat");
            assert_ne!(a, dist.ring(43, 0, 4096), "{dist:?} must follow the seed");
            assert_ne!(a, dist.ring(42, 1, 4096), "{dist:?} must differ per thread");
            let space = dist.key_space(2) as u64;
            for t in 0..2 {
                assert!(dist.ring(42, t, 4096).iter().all(|&k| k < space));
            }
        }
    }

    #[test]
    fn private_keys_are_disjoint_between_threads() {
        let dist = KeyDist::Private { per_thread: 64 };
        let a: std::collections::BTreeSet<u64> = dist.ring(1, 0, 8192).into_iter().collect();
        let b: std::collections::BTreeSet<u64> = dist.ring(1, 1, 8192).into_iter().collect();
        assert_eq!(a.len(), 64);
        assert_eq!(b.len(), 64);
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn zipf_rank_zero_share_matches_the_law() {
        // P(rank 0) = 1 / H(4096, 1.1).
        let expected = 1.0 / (1..=4096).map(|i| (i as f64).powf(-1.1)).sum::<f64>();
        let ring = KeyDist::Zipf { n: 4096, s: 1.1 }.ring(9, 0, 1 << 18);
        let share = ring.iter().filter(|&&k| k == 0).count() as f64 / ring.len() as f64;
        assert!(
            (share - expected).abs() < 0.01,
            "rank-0 share {share:.4} vs expected {expected:.4}"
        );
    }

    #[test]
    fn hold_is_deterministic_and_scales() {
        assert_eq!(hold(5, 100), hold(5, 100));
        assert_ne!(hold(5, 100), hold(5, 101));
        assert_eq!(hold(5, 0), 5);
    }
}

//! Log-scaled histograms and per-lock wait/hold-time extraction.
//!
//! Buckets are powers of two, so recording is a `leading_zeros` and the
//! summary quantiles are exact functions of the bucket counts — fully
//! deterministic, no sampling, no floating-point accumulation.

use crate::event::EventKind;
use crate::Tracer;
use std::collections::BTreeMap;

const BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `k >= 1` holds values in
/// `[2^(k-1), 2^k - 1]`. Quantiles report the upper bound of the bucket the
/// requested rank falls in (clamped to the true maximum), which keeps them
/// deterministic and conservative: a reported p99 never understates the
/// real p99 by more than one bucket's width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The quantile `q` in `[0, 1]`: the upper bound of the bucket holding
    /// the sample of rank `ceil(q * count)`, clamped to [`Histogram::max`].
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }
}

/// Wait- and hold-time distributions for one lock id.
#[derive(Debug, Clone, Default)]
pub struct LockDist {
    /// Cycles from `AcquireStart` to `Acquired`, one sample per acquisition.
    pub wait: Histogram,
    /// Cycles from `Acquired` to `Released`, one sample per acquisition.
    pub hold: Histogram,
    /// Raw wait samples in event order (feeds exact CDFs).
    pub wait_samples: Vec<u64>,
}

/// Extracts per-lock wait/hold distributions from a full trace: walks each
/// processor's events pairing `AcquireStart → Acquired → Released` per lock
/// id. Incomplete pairs at ring-drop or run boundaries are skipped.
pub fn lock_distributions(tracer: &Tracer) -> BTreeMap<usize, LockDist> {
    let mut dists: BTreeMap<usize, LockDist> = BTreeMap::new();
    for pid in 0..tracer.nprocs() {
        // Per-lock pending timestamps for this processor.
        let mut start: BTreeMap<usize, u64> = BTreeMap::new();
        let mut acquired: BTreeMap<usize, u64> = BTreeMap::new();
        for ev in tracer.events(pid) {
            match ev.kind {
                EventKind::LockAcquireStart { lock } => {
                    start.insert(lock, ev.t);
                }
                EventKind::LockAcquired { lock } => {
                    if let Some(t0) = start.remove(&lock) {
                        let d = dists.entry(lock).or_default();
                        let wait = ev.t.saturating_sub(t0);
                        d.wait.record(wait);
                        d.wait_samples.push(wait);
                    }
                    acquired.insert(lock, ev.t);
                }
                EventKind::LockReleased { lock } => {
                    if let Some(t1) = acquired.remove(&lock) {
                        dists
                            .entry(lock)
                            .or_default()
                            .hold
                            .record(ev.t.saturating_sub(t1));
                    }
                }
                _ => {}
            }
        }
    }
    dists
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 1000);
        // rank ceil(0.5*5)=3 → third sample (3) lives in bucket [2,3].
        assert_eq!(h.quantile(0.5), 3);
        // p99 rank 5 → bucket [512,1023], clamped to max 1000.
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn extracts_wait_and_hold_pairs() {
        let tracer = Tracer::new(1, 64);
        for ev in [
            Event { t: 10, kind: EventKind::LockAcquireStart { lock: 7 } },
            Event { t: 25, kind: EventKind::LockAcquired { lock: 7 } },
            Event { t: 45, kind: EventKind::LockReleased { lock: 7 } },
        ] {
            tracer.record(0, ev.t, ev.kind);
        }
        let dists = lock_distributions(&tracer);
        let d = &dists[&7];
        assert_eq!(d.wait.count(), 1);
        assert_eq!(d.hold.count(), 1);
        assert_eq!(d.wait_samples, vec![15]);
        assert_eq!(d.hold.max(), 20);
    }
}

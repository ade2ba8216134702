//! The QSM barrier: reset-free, reusable, built from two monotone counters.

use crate::backoff::Backoff;
use crate::sync::{AtomicU64, Ordering};
use crate::CachePadded;

/// Result of one barrier crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierWaitResult {
    is_leader: bool,
    epoch: u64,
}

impl BarrierWaitResult {
    /// True for exactly one participant per episode (the last arriver).
    pub fn is_leader(&self) -> bool {
        self.is_leader
    }

    /// The episode number just completed (1-based).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// A reusable spinning barrier in the QSM style: the arrival counter and
/// the release epoch are both **monotone** grant words, so there are no
/// reset stores and therefore no reset races — the episode a given arrival
/// belongs to is simply `arrivals / n`.
///
/// Unlike `std::sync::Barrier` this never blocks in the OS; waiting is
/// busy-wait with escalating backoff (yields on an oversubscribed host).
#[derive(Debug)]
pub struct QsmBarrier {
    arrivals: CachePadded<AtomicU64>,
    epoch: CachePadded<AtomicU64>,
    n: u64,
}

impl QsmBarrier {
    /// Creates a barrier for `n` participants (n ≥ 1).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "barrier needs at least one participant");
        QsmBarrier {
            arrivals: CachePadded::new(AtomicU64::new(0)),
            epoch: CachePadded::new(AtomicU64::new(0)),
            n: n as u64,
        }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.n as usize
    }

    /// Arrives and waits for the episode to complete.
    pub fn wait(&self) -> BarrierWaitResult {
        let arrival = self.arrivals.fetch_add(1, Ordering::AcqRel);
        let episode = arrival / self.n; // 0-based episode this arrival joins
        let position = arrival % self.n;
        if position == self.n - 1 {
            // Last arriver: open the gate by advancing the epoch.
            self.epoch.fetch_add(1, Ordering::Release);
            return BarrierWaitResult {
                is_leader: true,
                epoch: episode + 1,
            };
        }
        let mut backoff = Backoff::new();
        while self.epoch.load(Ordering::Acquire) < episode + 1 {
            backoff.snooze();
        }
        BarrierWaitResult {
            is_leader: false,
            epoch: episode + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_participant_never_waits() {
        let b = QsmBarrier::new(1);
        for ep in 1..=5 {
            let r = b.wait();
            assert!(r.is_leader());
            assert_eq!(r.epoch(), ep);
        }
    }

    #[test]
    fn exactly_one_leader_per_episode() {
        let n = 4;
        let episodes = 25;
        let b = Arc::new(QsmBarrier::new(n));
        let leaders = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let threads: Vec<_> = (0..n)
            .map(|_| {
                let b = Arc::clone(&b);
                let leaders = Arc::clone(&leaders);
                std::thread::spawn(move || {
                    for _ in 0..episodes {
                        if b.wait().is_leader() {
                            leaders.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            leaders.load(std::sync::atomic::Ordering::Relaxed),
            episodes as u64
        );
    }

    #[test]
    fn no_thread_passes_early() {
        // Each thread stamps before waiting; after the wait all stamps for
        // the episode must be present.
        let n = 4;
        let episodes = 10u64;
        let b = Arc::new(QsmBarrier::new(n));
        let stamps: Arc<Vec<std::sync::atomic::AtomicU64>> =
            Arc::new((0..n).map(|_| std::sync::atomic::AtomicU64::new(0)).collect());
        let threads: Vec<_> = (0..n)
            .map(|i| {
                let b = Arc::clone(&b);
                let stamps = Arc::clone(&stamps);
                std::thread::spawn(move || {
                    for ep in 1..=episodes {
                        stamps[i].store(ep, std::sync::atomic::Ordering::Release);
                        b.wait();
                        for s in stamps.iter() {
                            assert!(
                                s.load(std::sync::atomic::Ordering::Acquire) >= ep,
                                "released before all arrived"
                            );
                        }
                        b.wait();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        QsmBarrier::new(0);
    }
}

//! The QSM barrier: reset-free and reusable, its round a monotone counter.

use crate::CachePadded;
use parking::futex::global_lot;
use service::protocol::{self, Step};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use syncctx::SyncCtx;

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

    /// The episode number just completed (1-based), modulo 2^32: the
    /// barrier's round is a 32-bit field, so the 2^32-th episode reads 0.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// A reusable barrier in the QSM style: one word holding the round in its
/// high 32 bits and the round's arrivals in its low 32. The last arriver
/// resets the arrivals and advances the round in one CAS, and a waiter
/// waits for the round to change, so there are no separate reset stores
/// and therefore no reset races.
///
/// Arrival and wait are `service::protocol`'s barrier steps, the ones the
/// checker runs (`interleave::corpus`), over the process-global lot
/// ([`parking::futex::global_lot`]); a waiter spins for what a park there
/// costs, looking by the same [`protocol::barrier_step`], before the first
/// of them parks.
#[derive(Debug)]
pub struct QsmBarrier {
    word: CachePadded<AtomicU64>,
    parties: u32,
}

impl QsmBarrier {
    /// Creates a barrier for `n` participants.
    ///
    /// # Panics
    ///
    /// If `n` is zero or does not fit the word's 32-bit arrival field.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "barrier needs at least one participant");
        let parties = u32::try_from(n).expect("barrier parties must fit in 32 bits");
        QsmBarrier {
            word: CachePadded::new(AtomicU64::new(0)),
            parties,
        }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.parties as usize
    }

    /// Arrives and waits for the episode to complete.
    pub fn wait(&self) -> BarrierWaitResult {
        let (mut lot, word) = (global_lot(), &*self.word);
        let Some(round) = protocol::barrier_arrive(&mut lot, word, self.parties) else {
            // The last arriver: nobody can start another round without it,
            // so the word still shows the round it just opened.
            return BarrierWaitResult {
                is_leader: true,
                epoch: word.load(SeqCst) >> 32,
            };
        };
        SyncCtx::spin(&mut lot, |c| {
            matches!(protocol::barrier_step(c, word, round), Step::Ready(()))
        });
        protocol::barrier_wait(&mut lot, word, round);
        BarrierWaitResult {
            is_leader: false,
            epoch: (round + 1) & u64::from(u32::MAX),
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
        let stamps: Arc<Vec<std::sync::atomic::AtomicU64>> = Arc::new(
            (0..n)
                .map(|_| std::sync::atomic::AtomicU64::new(0))
                .collect(),
        );
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

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "fit in 32 bits")]
    fn parties_beyond_the_arrival_field_rejected() {
        QsmBarrier::new(u32::MAX as usize + 1);
    }

    #[test]
    fn epoch_wraps_at_two_to_the_32() {
        let b = QsmBarrier::new(1);
        b.word.store(u64::from(u32::MAX) << 32, SeqCst);
        assert_eq!(b.wait().epoch(), 0);
        assert_eq!(b.wait().epoch(), 1);
    }
}

//! Bounded exponential backoff for contended retry loops.

use crate::sync::{spin_hint, yield_now};

/// Exponential backoff helper: each [`Backoff::snooze`] doubles the number
/// of pause hints up to a cap, then starts yielding the OS thread — the
/// right behaviour both on a loaded multicore and on a single-core host
/// where pure spinning would starve the lock holder.
#[derive(Debug)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    const SPIN_LIMIT: u32 = 6;
    const YIELD_LIMIT: u32 = 10;

    /// Fresh backoff state (used per acquisition attempt).
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Waits one backoff quantum and escalates the next one.
    pub fn snooze(&mut self) {
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..1u32 << self.step {
                spin_hint();
            }
        } else {
            yield_now();
        }
        if self.step <= Self::YIELD_LIMIT {
            self.step += 1;
        }
    }

    /// True once backoff has escalated past pure spinning; callers that
    /// must not block can use this to switch strategies.
    pub fn is_completed(&self) -> bool {
        self.step > Self::SPIN_LIMIT
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_to_yield() {
        let mut b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..=Backoff::SPIN_LIMIT {
            b.snooze();
        }
        assert!(b.is_completed());
    }

    #[test]
    fn step_saturates() {
        let mut b = Backoff::new();
        for _ in 0..100 {
            b.snooze();
        }
        assert_eq!(b.step, Backoff::YIELD_LIMIT + 1);
    }
}

//! Test-and-test-and-set: spin on a cached read, swap only when free.

use crate::raw::RawLock;
use crate::sync::{spin_hint, AtomicBool, Ordering};

/// Test-and-test-and-set lock: waiting probes are plain loads that hit the
/// local cache; the atomic swap happens only when the lock reads free.
#[derive(Debug)]
pub struct TtasLock {
    locked: AtomicBool,
}

impl TtasLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        TtasLock {
            locked: AtomicBool::new(false),
        }
    }
}

impl Default for TtasLock {
    fn default() -> Self {
        TtasLock::new()
    }
}

impl RawLock for TtasLock {
    fn lock(&self) -> usize {
        loop {
            // Cached spin while held.
            while self.locked.load(Ordering::Relaxed) {
                spin_hint();
            }
            // Race for it; on failure, back to cached spinning.
            if !self.locked.swap(true, Ordering::Acquire) {
                return 0;
            }
        }
    }

    unsafe fn unlock(&self, _token: usize) {
        self.locked.store(false, Ordering::Release);
    }

    fn name(&self) -> &'static str {
        "ttas"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_unlock_cycles() {
        let l = TtasLock::new();
        for _ in 0..10 {
            let t = l.lock();
            unsafe { l.unlock(t) };
        }
    }

    #[test]
    fn excludes_across_threads() {
        let l = Arc::new(TtasLock::new());
        let sum = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                let sum = Arc::clone(&sum);
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        let t = l.lock();
                        sum.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        unsafe { l.unlock(t) };
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(sum.load(std::sync::atomic::Ordering::Relaxed), 1000);
    }
}

//! Test-and-set locks: the plain baseline and the exponential-backoff
//! variant (Anderson's fix).

use crate::backoff::Backoff;
use crate::raw::RawLock;
use crate::sync::{spin_hint, AtomicBool, Ordering};

/// Plain test-and-set spin lock: every probe is an atomic swap.
///
/// Kept for fidelity with the 1991 evaluation; do not use under real
/// contention — that collapse is exactly what fig1 reproduces.
#[derive(Debug)]
pub struct TasLock {
    locked: AtomicBool,
}

impl TasLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        TasLock {
            locked: AtomicBool::new(false),
        }
    }

    /// Attempts one acquisition probe.
    pub fn try_lock(&self) -> bool {
        !self.locked.swap(true, Ordering::Acquire)
    }
}

impl Default for TasLock {
    fn default() -> Self {
        TasLock::new()
    }
}

impl RawLock for TasLock {
    fn lock(&self) -> usize {
        while self.locked.swap(true, Ordering::Acquire) {
            spin_hint();
        }
        0
    }

    unsafe fn unlock(&self, _token: usize) {
        self.locked.store(false, Ordering::Release);
    }

    fn name(&self) -> &'static str {
        "tas"
    }
}

/// Test-and-set with bounded exponential backoff between probes.
#[derive(Debug)]
pub struct TasBackoffLock {
    locked: AtomicBool,
}

impl TasBackoffLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        TasBackoffLock {
            locked: AtomicBool::new(false),
        }
    }
}

impl Default for TasBackoffLock {
    fn default() -> Self {
        TasBackoffLock::new()
    }
}

impl RawLock for TasBackoffLock {
    fn lock(&self) -> usize {
        let mut backoff = Backoff::new();
        while self.locked.swap(true, Ordering::Acquire) {
            backoff.snooze();
        }
        0
    }

    unsafe fn unlock(&self, _token: usize) {
        self.locked.store(false, Ordering::Release);
    }

    fn name(&self) -> &'static str {
        "tas-backoff"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_lock_reflects_state() {
        let l = TasLock::new();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        unsafe { l.unlock(0) };
        assert!(l.try_lock());
    }

    #[test]
    fn tas_excludes_across_threads() {
        let l = Arc::new(TasLock::new());
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let threads: Vec<_> = (0..3)
            .map(|_| {
                let l = Arc::clone(&l);
                let hits = Arc::clone(&hits);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let t = l.lock();
                        hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        unsafe { l.unlock(t) };
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 600);
    }

    #[test]
    fn backoff_variant_locks_and_unlocks() {
        let l = TasBackoffLock::new();
        let t = l.lock();
        unsafe { l.unlock(t) };
        let t = l.lock();
        unsafe { l.unlock(t) };
    }
}

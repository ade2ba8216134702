//! The raw lock interface shared by QSM and every baseline.

/// A busy-wait mutual-exclusion primitive.
///
/// `lock` returns an opaque token that must be passed back to `unlock`;
/// queue locks store a node pointer in it, array locks a slot index, simple
/// locks ignore it. The token makes the trait expressive enough for every
/// algorithm in the study while staying object-safe (the figure-8 bench
/// iterates `Box<dyn RawLock>`).
///
/// Prefer [`crate::Mutex`], which wraps any `RawLock` in an RAII guard;
/// use the trait directly only in harnesses.
pub trait RawLock: Send + Sync {
    /// Acquires the lock, spinning as necessary; returns the release token.
    fn lock(&self) -> usize;

    /// Releases the lock.
    ///
    /// # Safety
    ///
    /// The caller must currently hold the lock and `token` must be the value
    /// returned by the matching [`RawLock::lock`] call, passed exactly once.
    unsafe fn unlock(&self, token: usize);

    /// Short identifier used in benches and tables.
    fn name(&self) -> &'static str;
}

/// Constructs one of every lock in the study, sized for up to `max_threads`
/// concurrent lockers (only the Anderson lock needs the bound).
pub fn all_locks(max_threads: usize) -> Vec<Box<dyn RawLock>> {
    vec![
        Box::new(crate::TasLock::new()),
        Box::new(crate::TasBackoffLock::new()),
        Box::new(crate::TtasLock::new()),
        Box::new(crate::TicketLock::new()),
        Box::new(crate::AndersonLock::new(max_threads)),
        Box::new(crate::ClhLock::new()),
        Box::new(crate::McsLock::new()),
        Box::new(crate::Qsm::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn registry_is_complete_and_unique() {
        let locks = all_locks(4);
        let names: Vec<&str> = locks.iter().map(|l| l.name()).collect();
        assert_eq!(
            names,
            vec![
                "tas",
                "tas-backoff",
                "ttas",
                "ticket",
                "anderson",
                "clh",
                "mcs",
                "qsm"
            ]
        );
    }

    /// Every registered lock protects a non-atomic counter across threads.
    #[test]
    fn every_lock_is_actually_a_lock() {
        for lock in all_locks(4) {
            let lock: Arc<dyn RawLock> = Arc::from(lock);
            // SAFETY invariant: all access to the cell happens under `lock`.
            struct Shared(std::cell::UnsafeCell<u64>);
            unsafe impl Sync for Shared {}
            let shared = Arc::new(Shared(std::cell::UnsafeCell::new(0)));
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    let lock = Arc::clone(&lock);
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        for _ in 0..500 {
                            let token = lock.lock();
                            // SAFETY: we hold the lock.
                            unsafe {
                                let p = shared.0.get();
                                let v = p.read_volatile();
                                p.write_volatile(v + 1);
                            }
                            unsafe { lock.unlock(token) };
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            let total = unsafe { *shared.0.get() };
            assert_eq!(total, 2000, "{} lost updates", lock.name());
        }
    }
}

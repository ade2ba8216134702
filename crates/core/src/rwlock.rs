//! A reader-writer lock in the QSM style.
//!
//! Reader-writer variants of queue locks are exactly contemporary with the
//! paper (Mellor-Crummey & Scott published theirs in 1991), so the
//! mechanism's extension to shared/exclusive mode belongs in the
//! reproduction. This implementation composes two of QSM's monotone
//! counters with a writer-presence bit:
//!
//! * `readers` — active-reader count (low bits) plus a writer-waiting flag
//!   (a high bit) packed in one word;
//! * writers serialize among themselves through the crate's [`Qsm`] queue
//!   lock, so writer hand-off inherits its FIFO order and local spinning.
//!
//! The lock is **write-preferring**: once a writer announces itself, new
//! readers hold back, bounding writer wait by the in-flight readers.

use crate::backoff::Backoff;
use crate::qsm::Qsm;
use crate::raw::RawLock;
use crate::sync::{AtomicU64, Ordering};
use crate::CachePadded;
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};

const WRITER_BIT: u64 = 1 << 62;

/// A write-preferring reader-writer lock over a value.
pub struct RwLock<T: ?Sized> {
    /// Active readers + writer-pending bit.
    readers: CachePadded<AtomicU64>,
    /// Serializes writers (and carries the FIFO hand-off).
    writer_queue: Qsm,
    data: UnsafeCell<T>,
}

// SAFETY: standard RwLock bounds — readers share &T (needs Sync), the value
// moves between threads under exclusive access (needs Send).
unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

impl<T> RwLock<T> {
    /// Creates an unlocked lock.
    pub fn new(value: T) -> Self {
        RwLock {
            readers: CachePadded::new(AtomicU64::new(0)),
            writer_queue: Qsm::new(),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared (read) access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let mut backoff = Backoff::new();
        loop {
            let cur = self.readers.load(Ordering::Relaxed);
            if cur & WRITER_BIT == 0 {
                // No writer pending: try to join the readers.
                if self
                    .readers
                    .compare_exchange_weak(cur, cur + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return RwLockReadGuard { lock: self };
                }
            }
            backoff.snooze();
        }
    }

    /// Acquires exclusive (write) access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        // FIFO among writers via the QSM queue.
        let token = self.writer_queue.lock();
        // Announce ourselves so new readers hold back...
        self.readers.fetch_or(WRITER_BIT, Ordering::Relaxed);
        // ...then drain the in-flight readers.
        let mut backoff = Backoff::new();
        while self.readers.load(Ordering::Acquire) & !WRITER_BIT != 0 {
            backoff.snooze();
        }
        RwLockWriteGuard { lock: self, token }
    }

    /// Mutable access without locking (`&mut self` proves exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Snapshot of the active reader count (diagnostics only).
    pub fn reader_count(&self) -> u64 {
        self.readers.load(Ordering::Relaxed) & !WRITER_BIT
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwLock")
            .field("readers", &self.reader_count())
            .finish_non_exhaustive()
    }
}

/// Shared-access guard.
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: reader count > 0 excludes writers.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.readers.fetch_sub(1, Ordering::Release);
    }
}

/// Exclusive-access guard.
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    token: usize,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: we hold the writer queue and readers are drained.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: exclusive by construction.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        // Readers may return as soon as the bit clears; the queue hand-off
        // releases the next writer.
        self.lock.readers.fetch_and(!WRITER_BIT, Ordering::Release);
        // SAFETY: token from the matching lock() in write().
        unsafe { self.lock.writer_queue.unlock(self.token) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_then_write_solo() {
        let l = RwLock::new(1);
        {
            let r = l.read();
            assert_eq!(*r, 1);
        }
        {
            let mut w = l.write();
            *w = 2;
        }
        assert_eq!(*l.read(), 2);
        assert_eq!(l.into_inner(), 2);
    }

    #[test]
    fn many_concurrent_readers() {
        let l = RwLock::new(7);
        let r1 = l.read();
        let r2 = l.read();
        let r3 = l.read();
        assert_eq!(l.reader_count(), 3);
        assert_eq!(*r1 + *r2 + *r3, 21);
    }

    #[test]
    fn writers_exclude_each_other_and_readers() {
        let l = Arc::new(RwLock::new(0u64));
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        if i % 2 == 0 {
                            let mut w = l.write();
                            // Non-atomic RMW under the write lock.
                            let v = *w;
                            *w = v + 1;
                        } else {
                            let r = l.read();
                            let _ = *r;
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*l.read(), 400);
    }

    #[test]
    fn write_preference_blocks_new_readers() {
        // With a writer pending, a fresh reader must wait; exercised by
        // holding a reader, starting a writer, then racing a second reader.
        let l = Arc::new(RwLock::new(0));
        let r = l.read();
        let writer = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || {
                let mut w = l.write();
                *w = 1;
            })
        };
        // Give the writer time to set its pending bit.
        while l.readers.load(Ordering::Relaxed) & WRITER_BIT == 0 {
            std::thread::yield_now();
        }
        let late_reader = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || *l.read())
        };
        drop(r); // release the in-flight reader; writer proceeds
        writer.join().unwrap();
        assert_eq!(late_reader.join().unwrap(), 1, "late reader must see the write");
    }

    #[test]
    fn get_mut_without_locking() {
        let mut l = RwLock::new(5);
        *l.get_mut() += 1;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn debug_shows_reader_count() {
        let l = RwLock::new(());
        let _r = l.read();
        assert!(format!("{l:?}").contains("readers: 1"));
    }
}

//! An RAII mutex generic over any [`RawLock`].

use crate::qsm::Qsm;
use crate::raw::RawLock;
use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// A mutual-exclusion wrapper around a value, parameterized by the raw
/// lock that protects it (QSM by default).
///
/// Differences from `std::sync::Mutex`: no poisoning (a panic while holding
/// the guard simply releases on unwind), and the protecting algorithm is
/// chosen by a type parameter, so a harness can swap in another
/// [`RawLock`] without touching call sites.
pub struct Mutex<T: ?Sized, L: RawLock = Qsm> {
    raw: L,
    data: UnsafeCell<T>,
}

// SAFETY: the raw lock serializes all access to `data`, so sharing the
// mutex only requires the value to be Send (same bounds as std's Mutex).
unsafe impl<T: ?Sized + Send, L: RawLock> Send for Mutex<T, L> {}
unsafe impl<T: ?Sized + Send, L: RawLock> Sync for Mutex<T, L> {}

impl<T, L: RawLock + Default> Mutex<T, L> {
    /// Creates a mutex with a default-constructed raw lock.
    pub fn new(value: T) -> Self {
        Mutex {
            raw: L::default(),
            data: UnsafeCell::new(value),
        }
    }
}

impl<T, L: RawLock> Mutex<T, L> {
    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized, L: RawLock> Mutex<T, L> {
    /// Acquires the lock, waiting as the raw lock does until available.
    pub fn lock(&self) -> MutexGuard<'_, T, L> {
        let token = self.raw.lock();
        MutexGuard {
            mutex: self,
            token,
            _not_send: PhantomData,
        }
    }

    /// Mutable access without locking — safe because `&mut self` proves
    /// exclusivity.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Name of the protecting algorithm.
    pub fn raw_name(&self) -> &'static str {
        self.raw.name()
    }
}

impl<T: Default, L: RawLock + Default> Default for Mutex<T, L> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug, L: RawLock> fmt::Debug for Mutex<T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex")
            .field("raw", &self.raw.name())
            .finish_non_exhaustive()
    }
}

/// RAII guard: the lock is held while this lives; access the value through
/// `Deref`/`DerefMut`.
pub struct MutexGuard<'a, T: ?Sized, L: RawLock> {
    mutex: &'a Mutex<T, L>,
    token: usize,
    /// Guards must stay on the acquiring thread (queue locks encode the
    /// waiter identity in the token).
    _not_send: PhantomData<*const ()>,
}

// SAFETY: a guard is a shared/exclusive reference to T at heart; sharing
// the guard across threads (Sync) is fine when &T is.
unsafe impl<T: ?Sized + Sync, L: RawLock> Sync for MutexGuard<'_, T, L> {}

impl<T: ?Sized, L: RawLock> Deref for MutexGuard<'_, T, L> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard proves we hold the lock.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized, L: RawLock> DerefMut for MutexGuard<'_, T, L> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard proves we hold the lock exclusively.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized, L: RawLock> Drop for MutexGuard<'_, T, L> {
    fn drop(&mut self) {
        // SAFETY: constructed only by `Mutex::lock`, token passed once.
        unsafe { self.mutex.raw.unlock(self.token) };
    }
}

impl<T: ?Sized + fmt::Debug, L: RawLock> fmt::Debug for MutexGuard<'_, T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn guard_gives_access_and_releases() {
        let m: Mutex<i32> = Mutex::new(1);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn get_mut_bypasses_locking() {
        let mut m: Mutex<String> = Mutex::new("a".to_string());
        m.get_mut().push('b');
        assert_eq!(&*m.lock(), "ab");
    }

    #[test]
    fn default_raw_is_qsm() {
        let m: Mutex<()> = Mutex::new(());
        assert_eq!(m.raw_name(), "qsm");
    }

    #[test]
    fn panic_while_held_releases_on_unwind() {
        let m = Arc::new(Mutex::<u64>::new(0));
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("boom");
        });
        assert!(t.join().is_err());
        // The unwind dropped the guard; we can lock again.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn debug_formats() {
        let m: Mutex<i32> = Mutex::new(3);
        let s = format!("{m:?}");
        assert!(s.contains("qsm"));
        let g = m.lock();
        assert_eq!(format!("{g:?}"), "3");
    }
}

//! An RAII mutex over the QSM lock.

use crate::qsm::Qsm;
use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// A mutual-exclusion wrapper around a value, protected by a [`Qsm`].
///
/// Unlike `std::sync::Mutex` there is no poisoning: a panic while holding
/// the guard simply releases on unwind.
pub struct Mutex<T: ?Sized> {
    raw: Qsm,
    data: UnsafeCell<T>,
}

// SAFETY: the lock serializes all access to `data`, so sharing the mutex
// only requires the value to be Send (same bounds as std's Mutex).
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Creates an unlocked mutex.
    pub fn new(value: T) -> Self {
        Mutex {
            raw: Qsm::new(),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, waiting as [`Qsm::lock`] does until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
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
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// RAII guard: the lock is held while this lives; access the value through
/// `Deref`/`DerefMut`.
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
    token: usize,
    /// Guards must stay on the acquiring thread (queue locks encode the
    /// waiter identity in the token).
    _not_send: PhantomData<*const ()>,
}

// SAFETY: a guard is a shared/exclusive reference to T at heart; sharing
// the guard across threads (Sync) is fine when &T is.
unsafe impl<T: ?Sized + Sync> Sync for MutexGuard<'_, T> {}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard proves we hold the lock.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard proves we hold the lock exclusively.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // SAFETY: constructed only by `Mutex::lock`, token passed once.
        unsafe { self.mutex.raw.unlock(self.token) };
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
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
        assert_eq!(format!("{m:?}"), "Mutex { .. }");
        let g = m.lock();
        assert_eq!(format!("{g:?}"), "3");
    }
}

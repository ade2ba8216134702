//! The raw lock interface [`crate::Mutex`] is generic over.

/// A busy-wait mutual-exclusion primitive.
///
/// `lock` returns an opaque token that must be passed back to `unlock`;
/// the queue locks ([`crate::Qsm`] here, `parking::QsmMutexBlocking`) store
/// their node pointer in it. The token keeps the trait object-safe while
/// letting a lock identify its waiter without thread-local state.
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

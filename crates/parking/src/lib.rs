//! Blocking synchronization for real hardware: a word-sized **futex** and
//! the QSM primitives rebuilt on top of it.
//!
//! The 1991 study's kernels busy-wait, which is the right call when every
//! processor is dedicated. The moment threads outnumber cores, a spinning
//! waiter burns the very quantum the lock holder needs, and throughput
//! collapses (the `fig9` oversubscription sweep). This crate supplies the
//! alternative wait path:
//!
//! - [`futex`] — `futex_wait(word, expected)` / `futex_wake(word, n)` over a
//!   bucketed parking lot of per-thread parkers, the user-space analogue of
//!   the Linux futex: the compare and the block happen under one bucket
//!   lock, so a waker that changes the word *before* waking can never lose
//!   a wakeup. The lot is a first-class type ([`futex::ParkingLot`]):
//!   cache-line-padded power-of-two buckets indexed by the full-avalanche
//!   [`futex::mix64`] hash, waits that carry a tag and a batched wake
//!   addressed to `(word, tag)` pairs ([`futex::ParkingLot::wake_tagged`])
//!   for words several logical waiters share, and machine-wide park/wake/resume accounting ([`futex::totals`]). A lot
//!   built with a `trace::Tracer` ([`futex::ParkingLot::with_tracer`])
//!   records its parks, wakes and resumes into it. The
//!   `service` crate embeds its own lot under its sharded per-key lock
//!   table; the module-level functions serve the primitives below from one
//!   process-global, untraced instance.
//! - [`mutex::QsmMutexBlocking`] — the QSM queue lock with a spin-then-park
//!   wait, usable anywhere a [`qsm::RawLock`] fits (including
//!   [`qsm::Mutex`]).
//! - [`event::EventcountBlocking`] — a Reed–Kanodia eventcount whose
//!   `await` parks, with wraparound-safe sequence comparison.
//! - [`barrier::BlockingBarrier`] — a sense-reversing barrier that parks on
//!   the sense word.
//!
//! All three use an **adaptive spin-then-park** wait: probe for a bounded
//! budget first (uncontended hand-offs complete in nanoseconds; parking
//! would only add a syscall-shaped wake latency), then park. The budget
//! doubles when a wait was satisfied while still spinning and halves when
//! the waiter had to park.
//!
//! This crate is the *real-hardware* backend of the spin-vs-block axis. The
//! deterministic counterpart lives in `memsim`, whose engine executes
//! `FutexWait`/`FutexWake` as first-class simulated operations (a parked
//! processor yields its simulated core, a wake costs a modeled remote
//! write), and in the `interleave` checker, which explores park/wake
//! interleavings exhaustively and reports lost wakeups. The simulated
//! kernels reach those backends through `kernels::SyncCtx`; this crate is
//! what the same ideas look like on `std::thread`.

pub mod barrier;
pub mod event;
pub mod futex;
pub mod mutex;

pub use barrier::BlockingBarrier;
pub use event::EventcountBlocking;
pub use mutex::QsmMutexBlocking;

use std::sync::atomic::{AtomicU32, Ordering};

/// Smallest adaptive spin budget, in probes.
pub(crate) const MIN_SPIN: u32 = 4;
/// Largest adaptive spin budget, in probes.
pub(crate) const MAX_SPIN: u32 = 1 << 10;

/// The shared spin-then-park policy knob: a probe budget that adapts to
/// whether recent waits were satisfied while spinning (budget doubles) or
/// had to park (budget halves). Updates are racy by design — the budget is
/// a heuristic, and any interleaving of doublings/halvings is a valid one.
pub(crate) struct AdaptiveSpin {
    budget: AtomicU32,
    adaptive: bool,
}

impl AdaptiveSpin {
    /// A policy starting at `initial` probes; non-adaptive policies keep
    /// the initial budget forever (0 = always park).
    pub(crate) fn new(initial: u32, adaptive: bool) -> Self {
        AdaptiveSpin {
            budget: AtomicU32::new(initial),
            adaptive,
        }
    }

    /// The current probe budget.
    pub(crate) fn budget(&self) -> u32 {
        self.budget.load(Ordering::Relaxed)
    }

    /// Records the outcome of one wait: `parked` halves the budget, a
    /// spin-satisfied wait doubles it.
    pub(crate) fn record(&self, parked: bool) {
        if !self.adaptive {
            return;
        }
        let cur = self.budget.load(Ordering::Relaxed);
        let next = if parked {
            (cur / 2).max(MIN_SPIN)
        } else {
            cur.saturating_mul(2).clamp(MIN_SPIN, MAX_SPIN)
        };
        self.budget.store(next, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_budget_moves_within_bounds() {
        let spin = AdaptiveSpin::new(16, true);
        spin.record(false);
        assert_eq!(spin.budget(), 32);
        for _ in 0..20 {
            spin.record(false);
        }
        assert_eq!(spin.budget(), MAX_SPIN);
        for _ in 0..20 {
            spin.record(true);
        }
        assert_eq!(spin.budget(), MIN_SPIN);
    }

    #[test]
    fn non_adaptive_budget_is_frozen() {
        let spin = AdaptiveSpin::new(0, false);
        spin.record(false);
        spin.record(true);
        assert_eq!(spin.budget(), 0);
    }
}

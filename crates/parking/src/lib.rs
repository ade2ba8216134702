//! Blocking synchronization for real hardware: a word-sized **futex** and
//! the QSM queue lock rebuilt on top of it.
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
//!   table; the module-level functions serve the mutex below from one
//!   process-global, untraced instance.
//! - [`futex::ParkingLot::spin`] — the one pre-park wait: probe the awaited
//!   word until it changes or until the lot's measured
//!   [`futex::ParkingLot::park_cost`] has passed, then let the caller park.
//!   Every real thread that waits before it parks — the `service` mutex,
//!   eventcount and semaphore, and the mutex below — waits this way.
//! - [`mutex::QsmMutexBlocking`] — the QSM queue lock whose waiters spin on
//!   their own grant word for a park's worth, yielding the core between
//!   looks, and then park on it, usable
//!   anywhere a [`qsm::RawLock`] fits (including [`qsm::Mutex`]).
//!
//! A blocking eventcount or barrier on a plain word is the `service`
//! crate's checked protocol (`service::protocol`) run over any
//! [`futex::ParkingLot`].
//!
//! This crate is the *real-hardware* backend of the spin-vs-block axis. The
//! deterministic counterpart lives in `memsim`, whose engine executes
//! `FutexWait`/`FutexWake` as first-class simulated operations (a parked
//! processor yields its simulated core, a wake costs a modeled remote
//! write), and in the `interleave` checker, which explores park/wake
//! interleavings exhaustively and reports lost wakeups. The simulated
//! kernels reach those backends through `kernels::SyncCtx`; this crate is
//! what the same ideas look like on `std::thread`.

pub mod futex;
pub mod mutex;

pub use mutex::QsmMutexBlocking;

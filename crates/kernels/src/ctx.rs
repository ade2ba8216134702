//! The abstract memory interface kernels are written against.

use crate::{Addr, Word};

/// A lock-usage event, reported through [`SyncCtx::lock_event`] by
/// instrumented kernels (see [`crate::lockdep::InstrumentedLock`]).
///
/// The `usize` is a caller-chosen lock identity (stable across threads and
/// runs), letting substrates build cross-lock analyses: the interleave
/// checker uses these events for lock-order (lockdep) recording and
/// bounded-bypass starvation accounting, the simulator ignores them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockEvent {
    /// The thread is about to start acquiring the lock (may block/spin).
    AcquireStart(usize),
    /// The thread now holds the lock.
    Acquired(usize),
    /// The thread has released the lock.
    Released(usize),
}

/// Everything a synchronization kernel may do: the instruction set of a
/// 1991 shared-memory multiprocessor, plus a watchpoint-based local spin.
///
/// Implemented by [`memsim::Proc`] (simulation), by the `interleave`
/// crate's checker context (exhaustive correctness testing) and by
/// `workloads::realhw::RealCtx` (real threads). Kernels must
/// use *only* this interface for shared state; per-processor private state
/// lives in ordinary Rust locals.
pub trait SyncCtx {
    /// This processor's id, in `0..nprocs`.
    fn pid(&self) -> usize;
    /// Number of processors participating.
    fn nprocs(&self) -> usize;
    /// Reads a word of shared memory.
    fn load(&mut self, addr: Addr) -> Word;
    /// Writes a word of shared memory.
    fn store(&mut self, addr: Addr, val: Word);
    /// Atomically writes `val`, returning the previous value.
    fn swap(&mut self, addr: Addr, val: Word) -> Word;
    /// Atomic compare-and-swap; `Ok(old)` iff `old == expected` and the
    /// store was performed.
    fn cas(&mut self, addr: Addr, expected: Word, new: Word) -> Result<Word, Word>;
    /// Atomic wrapping fetch-and-add, returning the previous value.
    fn fetch_add(&mut self, addr: Addr, delta: Word) -> Word;
    /// Blocks while the word equals `val`; returns the differing value seen.
    fn spin_while(&mut self, addr: Addr, val: Word) -> Word;
    /// Blocks until the word equals `val`.
    fn spin_until(&mut self, addr: Addr, val: Word);
    /// Consumes local time without touching shared memory (computation,
    /// critical-section work, backoff). May be a no-op on substrates that
    /// do not model time.
    fn delay(&mut self, cycles: u64);

    /// Atomic test-and-set: sets the word to 1, reporting whether it was
    /// already nonzero.
    fn test_and_set(&mut self, addr: Addr) -> bool {
        self.swap(addr, 1) != 0
    }

    /// Reads a word of **data** memory — an access the surrounding
    /// synchronization protocol, not the access itself, is responsible for
    /// ordering. On the 1991 machine this is the same instruction as
    /// [`SyncCtx::load`]; the distinction exists so checking substrates can
    /// run happens-before race detection over data accesses while treating
    /// kernel-internal loads/stores as the synchronization that *creates*
    /// ordering. Substrates without a race detector execute it as a plain
    /// load.
    fn data_load(&mut self, addr: Addr) -> Word {
        self.load(addr)
    }

    /// Writes a word of **data** memory; see [`SyncCtx::data_load`].
    fn data_store(&mut self, addr: Addr, val: Word) {
        self.store(addr, val);
    }

    /// Reports a lock-usage event from an instrumented kernel. Analysis
    /// substrates (the interleave checker) consume these for lock-order
    /// and starvation accounting; performance substrates ignore them.
    fn lock_event(&mut self, event: LockEvent) {
        let _ = event;
    }

    /// Futex wait: blocks iff the word still equals `expected`, with the
    /// check and the block performed as one atomic step; returns the word's
    /// last observed value. May return spuriously (a wake without a state
    /// change), so callers must loop re-checking their condition.
    ///
    /// The default degrades to [`SyncCtx::spin_while`], which is a correct
    /// (if blocking-free) implementation for any kernel that follows the
    /// "change the word, then wake" discipline: the change itself releases
    /// the spinner. Substrates with a real parking runtime override both
    /// futex methods.
    fn futex_wait(&mut self, addr: Addr, expected: Word) -> Word {
        self.spin_while(addr, expected)
    }

    /// Wakes up to `n` threads blocked in [`SyncCtx::futex_wait`] on `addr`
    /// (FIFO), returning how many were woken. The default is a no-op: with
    /// the spin-degraded `futex_wait`, the word change performs the wake.
    fn futex_wake(&mut self, addr: Addr, n: usize) -> usize {
        let _ = (addr, n);
        0
    }
}

impl SyncCtx for memsim::Proc {
    fn pid(&self) -> usize {
        memsim::Proc::pid(self)
    }
    fn nprocs(&self) -> usize {
        memsim::Proc::nprocs(self)
    }
    fn load(&mut self, addr: Addr) -> Word {
        memsim::Proc::load(self, addr)
    }
    fn store(&mut self, addr: Addr, val: Word) {
        memsim::Proc::store(self, addr, val)
    }
    fn swap(&mut self, addr: Addr, val: Word) -> Word {
        memsim::Proc::swap(self, addr, val)
    }
    fn cas(&mut self, addr: Addr, expected: Word, new: Word) -> Result<Word, Word> {
        memsim::Proc::cas(self, addr, expected, new)
    }
    fn fetch_add(&mut self, addr: Addr, delta: Word) -> Word {
        memsim::Proc::fetch_add(self, addr, delta)
    }
    fn spin_while(&mut self, addr: Addr, val: Word) -> Word {
        memsim::Proc::spin_while(self, addr, val)
    }
    fn spin_until(&mut self, addr: Addr, val: Word) {
        memsim::Proc::spin_until(self, addr, val);
    }
    fn delay(&mut self, cycles: u64) {
        memsim::Proc::delay(self, cycles)
    }
    /// Lock events from instrumented kernels flow into the machine's event
    /// tracer (when one is attached), timestamped with the processor's
    /// simulated local clock — this is what turns an
    /// [`crate::lockdep::InstrumentedLock`] into per-lock wait/hold-time
    /// distributions on the simulator.
    fn lock_event(&mut self, event: LockEvent) {
        let kind = match event {
            LockEvent::AcquireStart(lock) => trace::EventKind::LockAcquireStart { lock },
            LockEvent::Acquired(lock) => trace::EventKind::LockAcquired { lock },
            LockEvent::Released(lock) => trace::EventKind::LockReleased { lock },
        };
        self.trace_event(kind);
    }
    fn futex_wait(&mut self, addr: Addr, expected: Word) -> Word {
        memsim::Proc::futex_wait(self, addr, expected)
    }
    fn futex_wake(&mut self, addr: Addr, n: usize) -> usize {
        memsim::Proc::futex_wake(self, addr, n)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A trivial single-threaded `SyncCtx` over a plain vector, for unit
    /// tests of kernel *logic* that do not need concurrency: sequences of
    /// acquire/release by one caller, layout arithmetic, and so on.
    pub struct SeqCtx {
        pub pid: usize,
        pub nprocs: usize,
        pub mem: Vec<Word>,
        pub delays: u64,
    }

    impl SeqCtx {
        pub fn new(nprocs: usize, words: usize) -> Self {
            SeqCtx {
                pid: 0,
                nprocs,
                mem: vec![0; words],
                delays: 0,
            }
        }
    }

    impl SyncCtx for SeqCtx {
        fn pid(&self) -> usize {
            self.pid
        }
        fn nprocs(&self) -> usize {
            self.nprocs
        }
        fn load(&mut self, addr: Addr) -> Word {
            self.mem[addr]
        }
        fn store(&mut self, addr: Addr, val: Word) {
            self.mem[addr] = val;
        }
        fn swap(&mut self, addr: Addr, val: Word) -> Word {
            std::mem::replace(&mut self.mem[addr], val)
        }
        fn cas(&mut self, addr: Addr, expected: Word, new: Word) -> Result<Word, Word> {
            let old = self.mem[addr];
            if old == expected {
                self.mem[addr] = new;
                Ok(old)
            } else {
                Err(old)
            }
        }
        fn fetch_add(&mut self, addr: Addr, delta: Word) -> Word {
            let old = self.mem[addr];
            self.mem[addr] = old.wrapping_add(delta);
            old
        }
        fn spin_while(&mut self, addr: Addr, val: Word) -> Word {
            let cur = self.mem[addr];
            assert_ne!(
                cur, val,
                "SeqCtx: single-threaded spin_while(mem[{addr}]=={val}) would hang"
            );
            cur
        }
        fn spin_until(&mut self, addr: Addr, val: Word) {
            assert_eq!(
                self.mem[addr], val,
                "SeqCtx: single-threaded spin_until(mem[{addr}]=={val}) would hang"
            );
        }
        fn delay(&mut self, cycles: u64) {
            self.delays += cycles;
        }
    }

    #[test]
    fn seqctx_ops_behave() {
        let mut c = SeqCtx::new(1, 4);
        c.store(0, 5);
        assert_eq!(c.load(0), 5);
        assert_eq!(c.swap(0, 6), 5);
        assert_eq!(c.cas(0, 6, 7), Ok(6));
        assert_eq!(c.cas(0, 6, 8), Err(7));
        assert_eq!(c.fetch_add(1, 3), 0);
        assert_eq!(c.load(1), 3);
        assert!(!c.test_and_set(2));
        assert!(c.test_and_set(2));
        c.delay(10);
        assert_eq!(c.delays, 10);
    }
}

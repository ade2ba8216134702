//! # syncctx — the word operations a synchronization algorithm may use
//!
//! The paper's mechanism is one set of word operations under both its lock
//! queue and its eventcount. [`SyncCtx`] states that set once; the `kernels`
//! algorithms and the `service::protocol` slow paths are written against it,
//! and the simulator (`memsim::Proc`), the checker (`interleave::ChkCtx`)
//! and real threads (`workloads::realhw::RealCtx`, and the service's
//! `&parking::futex::ParkingLot`) implement it. What only a processor of a
//! machine has is [`ProcCtx`], which the parking lot does not implement.
//! The crate depends on nothing, so `parking` and `service` use it without
//! pulling in the simulator.

/// A machine word.
pub type Word = u64;

/// A word address in a simulated or checked machine's memory.
pub type Addr = usize;

/// A lock-usage event, reported through [`ProcCtx::lock_event`] by
/// instrumented kernels (`kernels::locks::InstrumentedLock`).
///
/// The `usize` is a caller-chosen lock identity (stable across threads and
/// runs): the interleave checker uses these events for bounded-bypass
/// starvation accounting, the simulator traces them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockEvent {
    /// The thread is about to start acquiring the lock (may block/spin).
    AcquireStart(usize),
    /// The thread now holds the lock.
    Acquired(usize),
    /// The thread has released the lock.
    Released(usize),
}

/// What a [`SyncCtx::wait`] saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waited {
    /// The waiter parked (and was woken). A wake says nothing about the
    /// word: callers re-check.
    pub parked: bool,
    /// The word as last read: the differing value that refused the park,
    /// or the value read once woken.
    pub seen: Word,
}

/// What a synchronization algorithm may do to shared words, each word
/// named by a `W`: an [`Addr`] on a machine with an address space, an
/// `&AtomicU64` on the service's parking lot.
pub trait SyncCtx<W: Copy = Addr> {
    /// Reads the word.
    fn load(&mut self, w: W) -> Word;
    /// Writes the word.
    fn store(&mut self, w: W, v: Word);
    /// Writes `v`, returning the previous value.
    fn swap(&mut self, w: W, v: Word) -> Word;
    /// Compare-and-swap: `Ok(expected)` iff the word held `expected` and
    /// now holds `new`, else `Err` of what it holds.
    fn cas(&mut self, w: W, expected: Word, new: Word) -> Result<Word, Word>;
    /// Wrapping fetch-and-add, returning the previous value.
    fn fetch_add(&mut self, w: W, delta: Word) -> Word;
    /// Futex wait: parks iff the word still holds `expected`, the compare
    /// and the enqueue one atomic step, so a waker that changes the word
    /// *then* wakes is never missed. With a `tag` the waiter is one of
    /// several sharing the word: [`SyncCtx::wake_tagged`] of the word and
    /// this tag ends the park, and no other sharer's. A substrate without
    /// tags parks the waiter untagged, which its default `wake_tagged`
    /// answers with a wake of every waiter.
    fn wait(&mut self, w: W, expected: Word, tag: Option<Word>) -> Waited;
    /// Wakes up to `n` waiters of the word, oldest first, tagged or not;
    /// returns how many.
    fn wake(&mut self, w: W, n: usize) -> usize;
    /// For each `(word, tag)`, wakes the waiters parked on the word with
    /// that tag and nobody else; returns how many. The default wakes every
    /// waiter of each word, which every caller survives: a waker changes
    /// the word before it wakes, and every woken waiter re-checks it.
    fn wake_tagged(&mut self, pairs: &[(W, Word)]) -> usize {
        pairs.iter().map(|&(w, _)| self.wake(w, usize::MAX)).sum()
    }
    /// Runs `probe` until it returns `true` or a park's worth of time has
    /// passed; returns its last answer. The default is one probe.
    fn spin(&mut self, mut probe: impl FnMut(&mut Self) -> bool) -> bool
    where
        Self: Sized,
    {
        probe(self)
    }
    /// Consumes local time without touching shared memory (computation,
    /// critical-section work, backoff). The default, for substrates that
    /// do not model time, does nothing.
    fn delay(&mut self, cycles: u64) {
        let _ = cycles;
    }
}

/// What a processor of a simulated or checked machine has beyond the word
/// operations: the instruction set of a 1991 shared-memory multiprocessor,
/// plus a watchpoint-based local spin. The `kernels` algorithms are written
/// against it; they use *only* this interface for shared state, and keep
/// per-processor private state in ordinary Rust locals.
pub trait ProcCtx: SyncCtx {
    /// This processor's id, in `0..nprocs`.
    fn pid(&self) -> usize;
    /// Number of processors participating.
    fn nprocs(&self) -> usize;
    /// Blocks while the word equals `val`; returns the differing value seen.
    fn spin_while(&mut self, addr: Addr, val: Word) -> Word;
    /// Blocks until the word equals `val`.
    fn spin_until(&mut self, addr: Addr, val: Word);

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

    /// Writes a word of **data** memory; see [`ProcCtx::data_load`].
    fn data_store(&mut self, addr: Addr, val: Word) {
        self.store(addr, val);
    }

    /// Reports a lock-usage event from an instrumented kernel. Analysis
    /// substrates (the interleave checker) consume these for starvation
    /// accounting; performance substrates may trace or ignore them.
    fn lock_event(&mut self, event: LockEvent) {
        let _ = event;
    }
}

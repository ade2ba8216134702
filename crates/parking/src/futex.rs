//! A word-sized futex over a bucketed parking lot.
//!
//! The primitive is the Linux futex restricted to what the blocking QSM
//! variants need: [`ParkingLot::wait`] blocks iff an `AtomicU64` still
//! holds an expected value, [`ParkingLot::wake_addr`] releases up to `n`
//! waiters of that word in FIFO order. There is no kernel to lean on
//! here, so the wait queue is a **parking lot**: an array of buckets, each
//! a mutex-protected FIFO of parked threads, indexed by a hash of the
//! word's address. Any `AtomicU64` in the process is a futex — no
//! per-word queue allocation, no registration.
//!
//! The lot is a first-class type, [`ParkingLot`]: the `service` crate's
//! sharded per-key lock table embeds its own lot sized to the expected
//! waiter population, while the `qsm` crate's primitives park in one
//! process-global instance, [`global_lot`]. Buckets are cache-line
//! padded (a parked waiter's bucket lock must not false-share with its
//! neighbours') and the bucket count is a power of two so indexing is a
//! mask of the full 64-bit [`mix64`] hash — every input bit diffuses into
//! the bucket index.
//!
//! The lost-wakeup argument is the whole point of the design. The waiter
//! re-checks the word *after* taking the bucket lock and enqueues while
//! still holding it; the waker changes the word first and then takes the
//! same bucket lock to wake. Whichever side wins the bucket lock, the
//! other observes its effect: a waiter that enqueued first is found in the
//! queue, a waiter that arrives second sees the changed word and never
//! parks. `thread::park` itself may return spuriously, which is fine —
//! [`ParkingLot::wait`] consumes parks in a loop gated on its own wake
//! flag, and callers loop on their real condition as futex discipline
//! requires.
//!
//! A waiter may carry a **tag** (the lot's `SyncCtx::wait` with a tag,
//! [`ParkingLot::register_tagged`]) for the case where one word stands for
//! several logical waiters — the `service` semaphore's tickets `t` and
//! `t + W` on one waiting-array slot. [`ParkingLot::wake_tagged`] dequeues
//! the entries whose address *and* tag match, under the same bucket lock,
//! so the argument above is untouched and a wake meant for one sharer can
//! neither be swallowed by another nor wake it for nothing.
//!
//! Waiters come in two kinds sharing the same bucket queues: blocking
//! *threads* ([`ParkingLot::wait`]) and async *wakers*
//! ([`ParkingLot::register`] → [`WaitEntry`]), so one futex word can hold
//! parked threads and parked futures simultaneously and a wake releases
//! them in one FIFO order. A registered waker entry supports
//! *cancellation* ([`ParkingLot::cancel`]) for futures dropped mid-wait;
//! the return value tells the caller whether a wake had already been
//! consumed by the dying future and must be handed onward.
//!
//! Every lot additionally feeds the **machine-wide futex accounting**
//! ([`totals`]): how many waiters actually parked, how many wake
//! dequeues were issued, and how many parked waiters resumed. At any
//! quiescent point `parks == wakes == resumes` — each park is ended by
//! exactly one dequeue, and each dequeue resumes exactly one parked
//! waiter — which the stress suites assert at teardown. Cancellation
//! preserves the invariant by construction: withdrawing a still-queued
//! entry self-accounts its wake and resume, and a cancel that lost the
//! race to a real wake accounts only the resume (the wake was already
//! counted by the waker). Each lot additionally keeps its own *exact*
//! ledger ([`ParkingLot::totals`]) — process-global totals are a union
//! over every lot and test in the process, so only the per-lot view
//! supports equality assertions — and timestamps every park so the
//! service telemetry's stall watchdog can ask for the longest-parked
//! waiter ([`ParkingLot::oldest_parked_age`]).
//!
//! A lot built with a [`trace::Tracer`] ([`ParkingLot::with_tracer`])
//! also **records** what its ledger counts: a `FutexPark`, `FutexWake` or
//! `FutexResume` event per park, wake dequeue and resume, stamped in
//! microseconds since the lot was built, each into the ring the recording
//! thread leases ([`trace::Tracer::record_thread`]) — so a thread's park
//! and its resume are one span on one track. The tracer is the lot's own:
//! its class totals equal [`ParkingLot::totals`] whenever no recording
//! thread went without a ring. The process-global lot has none. Real
//! hardware cannot name the thread a wake reaches, so wake and resume
//! events carry [`trace::NO_PID`] for their counterpart.
//!
//! A lot also **measures what a park costs**. When a wake dequeues a
//! blocking thread it stamps the waiter; the thread, once running again,
//! folds `resume - wake` — the unpark call plus the scheduler's wake-up
//! latency, the part of a park nobody can overlap with useful work — into
//! a per-lot moving average, [`ParkingLot::park_cost`]. A thread about to
//! park spins for that long first ([`ParkingLot::spin`]): the classic
//! competitive rule, with the cost measured on the running host instead of
//! configured. Only real thread parks feed it —
//! not waits that never blocked, not waker entries, not cancellations —
//! and the clock is read only when a thread is actually dequeued, so the
//! no-waiter paths stay clock-free.

use crate::CachePadded;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::task::Waker;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};
use syncctx::{SyncCtx, Waited};
use trace::{EventKind, Tracer};

/// Number of buckets in the process-global parking lot. Collisions are
/// correctness-neutral (the queue entries carry the full address) and only
/// contend the bucket lock, so a modest fixed count beats sizing to the
/// thread population; embedders with unusual waiter populations build
/// their own [`ParkingLot`].
const GLOBAL_BUCKETS: usize = 64;

/// Lower clamp and seed of [`ParkingLot::park_cost`]: the fixed spin budget
/// the service mutex had before the cost was measured (127 pause hints of
/// a doubling backoff, ~8 µs on the reference host). A lot that has never
/// parked anybody spins exactly as long as the old code did.
pub const PARK_COST_FLOOR: Duration = Duration::from_micros(8);

/// Upper clamp of [`ParkingLot::park_cost`]. On an oversubscribed host a
/// woken thread queues behind whoever holds its core, and `resume - wake`
/// reads in milliseconds; spinning that long would burn the very cores the
/// lock holder needs, so the estimate saturates at a few uncontended
/// park/unpark round trips.
pub const PARK_COST_CEIL: Duration = Duration::from_micros(64);

/// Weight of one sample in the park-cost average, as a shift: 1/8.
const PARK_COST_SHIFT: u32 = 3;

/// Probes (a load and a pause hint, ~60 ns on the reference host) between
/// clock reads of [`ParkingLot::spin`]: the clock costs about one probe, so
/// reading it every time would halve how often the word is watched, and
/// the spin overshoots its budget by at most this many probes.
const PROBES_PER_CLOCK_READ: u32 = 16;

/// Every clock read of the park, wake and cancel paths goes through here,
/// so the unit tests can assert which of them read the clock (a
/// thread-local count, compiled only into the tests).
#[inline]
fn clock() -> Instant {
    #[cfg(test)]
    tests::CLOCK_READS.with(|c| c.set(c.get() + 1));
    Instant::now()
}

/// Finalizing 64-bit mix (the SplitMix64 / Stafford "variant 13"
/// finalizer): full avalanche, so every input bit flips each output bit
/// with probability ~1/2. Shared by the parking lot's bucket index and the
/// `service` crate's key-to-shard mapping — both mask the *low* bits of
/// the result, which a bare multiplicative hash leaves poorly mixed.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Machine-wide futex accounting: parks, wake dequeues, and resumes across
/// every [`ParkingLot`] in the process (global and embedded alike).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FutexTotals {
    /// Threads that actually parked (enqueued and blocked).
    pub parks: u64,
    /// Waiters dequeued by wake calls.
    pub wakes: u64,
    /// Parked threads that returned from their park.
    pub resumes: u64,
}

impl FutexTotals {
    /// `self - earlier`, for delta accounting around a test phase.
    pub fn since(&self, earlier: &FutexTotals) -> FutexTotals {
        FutexTotals {
            parks: self.parks - earlier.parks,
            wakes: self.wakes - earlier.wakes,
            resumes: self.resumes - earlier.resumes,
        }
    }

    /// True when every park has been matched by a wake dequeue and a
    /// resume — the quiescent-state invariant.
    pub fn balanced(&self) -> bool {
        self.parks == self.wakes && self.wakes == self.resumes
    }
}

static TOTAL_PARKS: AtomicU64 = AtomicU64::new(0);
static TOTAL_WAKES: AtomicU64 = AtomicU64::new(0);
static TOTAL_RESUMES: AtomicU64 = AtomicU64::new(0);

/// Reads the machine-wide futex accounting. Only meaningful at quiescent
/// points (no thread mid-park); the counters themselves are exact.
pub fn totals() -> FutexTotals {
    FutexTotals {
        parks: TOTAL_PARKS.load(Ordering::SeqCst),
        wakes: TOTAL_WAKES.load(Ordering::SeqCst),
        resumes: TOTAL_RESUMES.load(Ordering::SeqCst),
    }
}

/// A lot's park/wake/resume ledger, and its tracer if it has one. Each
/// [`Waiter`] captures an `Arc` to its lot's ledger at enqueue time, so the
/// wake and resume sides — which only hold the waiter, not the lot — can
/// still account against the lot that parked them. The machine-wide
/// statics above remain the union of every lot; these give each lot an
/// *exact* local ledger, which is what lets tests assert
/// `parks == wakes == resumes` without `>=` slack from unrelated lots in
/// the same process.
struct Ledger {
    parks: AtomicU64,
    wakes: AtomicU64,
    resumes: AtomicU64,
    /// The lot's tracer and the instant its timestamps count from.
    tracer: Option<(Arc<Tracer>, Instant)>,
}

impl Ledger {
    fn read(&self) -> FutexTotals {
        FutexTotals {
            parks: self.parks.load(Ordering::SeqCst),
            wakes: self.wakes.load(Ordering::SeqCst),
            resumes: self.resumes.load(Ordering::SeqCst),
        }
    }

    // Each event is recorded before its counters move, so a reader that
    // sees a count also finds its event. `at` is the event's time, asked
    // for only when there is a tracer to stamp: a clock read the caller
    // already made where it has one, else `clock`.

    fn park(&self, addr: usize, at: impl FnOnce() -> Instant) {
        self.record(at, EventKind::FutexPark { addr });
        TOTAL_PARKS.fetch_add(1, Ordering::SeqCst);
        self.parks.fetch_add(1, Ordering::SeqCst);
    }

    fn wake(&self, addr: usize, at: impl FnOnce() -> Instant) {
        let wakee = trace::NO_PID;
        self.record(at, EventKind::FutexWake { addr, wakee });
        TOTAL_WAKES.fetch_add(1, Ordering::SeqCst);
        self.wakes.fetch_add(1, Ordering::SeqCst);
    }

    fn resume(&self, addr: usize, at: impl FnOnce() -> Instant) {
        let waker = trace::NO_PID;
        self.record(at, EventKind::FutexResume { addr, waker });
        TOTAL_RESUMES.fetch_add(1, Ordering::SeqCst);
        self.resumes.fetch_add(1, Ordering::SeqCst);
    }

    /// Records `kind` for the calling thread at `at()`, in microseconds
    /// since the lot was built.
    fn record(&self, at: impl FnOnce() -> Instant, kind: EventKind) {
        if let Some((tracer, epoch)) = &self.tracer {
            let t = at().saturating_duration_since(*epoch).as_micros() as u64;
            tracer.record_thread(t, kind);
        }
    }
}

/// A snapshot of one currently parked waiter, for watchdog dumps: the word
/// it is parked on, the tag it parked with (which of the word's sharers it
/// is), how long it has been parked, and whether it is a blocking thread or
/// an async waker entry. Racy by nature — the waiter may resume the instant
/// after the scan.
#[derive(Debug, Clone, Copy)]
pub struct ParkedWaiter {
    /// Address of the futex word the waiter is parked on.
    pub addr: usize,
    /// The tag of a tagged wait or [`ParkingLot::register_tagged`] waiter —
    /// for the `service` semaphore, its ticket — else `None`.
    pub tag: Option<u64>,
    /// Time since the waiter enqueued (its park began).
    pub age: Duration,
    /// True for an async waker entry, false for a blocking thread.
    pub is_task: bool,
}

/// How a dequeued waiter is resumed: a blocking thread is `unpark`ed, an
/// async task's registered [`Waker`] is invoked so its executor re-polls
/// the future. Both kinds share the same bucket queues — a single futex
/// word can hold parked threads and parked wakers simultaneously, and FIFO
/// order is preserved across the mix.
enum WaitMode {
    Thread(Thread),
    /// The waker lives behind a mutex so the future can swap in a fresh
    /// waker on every poll (executors may migrate tasks between wakers)
    /// without racing the wake path, which `take`s it exactly once.
    Task(Mutex<Option<Waker>>),
}

/// One parked waiter: the word it parked on, the tag an addressed wake must
/// also match (`None`: reachable by address alone), how to wake it, the flag
/// that distinguishes a real wake from a spurious `park` return (or, for
/// tasks, from a poll that raced the wake), when it parked (feeds the
/// stall watchdog's oldest-parked-age scan), when a wake dequeued it (as
/// nanoseconds after `since`, threads only — the park-cost sample's start),
/// and the ledger of the lot that parked it (so wake/resume
/// accounting stays lot-local even when only the waiter is in hand).
struct Waiter {
    addr: usize,
    tag: Option<u64>,
    how: WaitMode,
    woken: AtomicBool,
    since: Instant,
    /// Written by the waker before its `Release` store of `woken`, read by
    /// the wakee after its `Acquire` load of it; `Relaxed` rides on that.
    wake_ns: AtomicU64,
    ledger: Arc<Ledger>,
}

impl Waiter {
    fn new(addr: usize, tag: Option<u64>, how: WaitMode, ledger: &Arc<Ledger>) -> Arc<Self> {
        Arc::new(Waiter {
            addr,
            tag,
            how,
            woken: AtomicBool::new(false),
            since: clock(),
            wake_ns: AtomicU64::new(0),
            ledger: Arc::clone(ledger),
        })
    }
}

struct Bucket {
    queue: Mutex<VecDeque<Arc<Waiter>>>,
}

impl Bucket {
    fn new() -> Self {
        Bucket {
            queue: Mutex::new(VecDeque::new()),
        }
    }
}

/// A bucketed FIFO wait table: the user-space analogue of the kernel's
/// futex hash. Size it to the expected *waiter* population, not the word
/// population — words cost nothing until somebody parks on one, which is
/// what lets a table of millions of logical lock words ride on a lot of a
/// few hundred buckets.
pub struct ParkingLot {
    buckets: Box<[CachePadded<Bucket>]>,
    mask: u64,
    ledger: Arc<Ledger>,
    /// Moving average behind [`ParkingLot::park_cost`], in nanoseconds. A
    /// statistic: racing updates may drop a sample, never corrupt one.
    park_cost_ns: AtomicU64,
}

impl ParkingLot {
    /// A lot with at least `buckets` buckets, rounded up to the next power
    /// of two so indexing is a mask of the mixed hash, and no tracer.
    ///
    /// # Panics
    ///
    /// If `buckets` is zero.
    pub fn with_buckets(buckets: usize) -> Self {
        Self::with_tracer(buckets, None)
    }

    /// [`ParkingLot::with_buckets`] recording every park, wake dequeue and
    /// resume into `tracer` (see the module docs). The tracer is fixed for
    /// the lot's life; `None` records nothing and reads no clock for it.
    pub fn with_tracer(buckets: usize, tracer: Option<Arc<Tracer>>) -> Self {
        assert!(buckets > 0, "a parking lot needs at least one bucket");
        let n = buckets.next_power_of_two();
        ParkingLot {
            buckets: (0..n).map(|_| CachePadded::new(Bucket::new())).collect(),
            mask: n as u64 - 1,
            ledger: Arc::new(Ledger {
                parks: AtomicU64::new(0),
                wakes: AtomicU64::new(0),
                resumes: AtomicU64::new(0),
                tracer: tracer.map(|tracer| (tracer, Instant::now())),
            }),
            park_cost_ns: AtomicU64::new(PARK_COST_FLOOR.as_nanos() as u64),
        }
    }

    /// The tracer this lot records into, if it was built with one.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.ledger.tracer.as_ref().map(|(tracer, _)| tracer)
    }

    /// What one thread park costs on this host right now: a moving average
    /// of the time from a wake dequeuing a parked thread to that thread
    /// running again, always within [`PARK_COST_FLOOR`]..=[`PARK_COST_CEIL`]
    /// (each sample is clamped before it is folded in, and the average
    /// starts at the floor). The competitive spin budget: a waiter that
    /// spins this long before parking never pays more than twice the
    /// better choice.
    pub fn park_cost(&self) -> Duration {
        Duration::from_nanos(self.park_cost_ns.load(Ordering::Relaxed))
    }

    /// The one pre-park wait on real threads — the competitive rule *spin
    /// for as long as blocking would cost*: runs `probe` (one look at the
    /// awaited word, plus whatever claims it) with a pause hint between
    /// looks until it returns true, giving up — `false` — once this lot's
    /// [`ParkingLot::park_cost`] has passed. Call it on the lot the caller
    /// parks in next. Inlined into each caller, so the probe is compiled
    /// into the loop rather than called from it.
    #[inline(always)]
    pub fn spin(&self, mut probe: impl FnMut() -> bool) -> bool {
        let budget = self.park_cost();
        let start = Instant::now();
        loop {
            for _ in 0..PROBES_PER_CLOCK_READ {
                if probe() {
                    return true;
                }
                std::hint::spin_loop();
            }
            if start.elapsed() >= budget {
                return false;
            }
        }
    }

    /// Folds one `resume - wake` sample into the average.
    fn fold_park_cost(&self, sample: Duration) {
        #[cfg(test)]
        tests::SAMPLES_FOLDED.with(|c| c.set(c.get() + 1));
        let sample = sample.clamp(PARK_COST_FLOOR, PARK_COST_CEIL).as_nanos() as i64;
        let old = self.park_cost_ns.load(Ordering::Relaxed) as i64;
        let new = old + ((sample - old) >> PARK_COST_SHIFT);
        self.park_cost_ns.store(new as u64, Ordering::Relaxed);
    }

    /// Number of buckets (always a power of two).
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    /// This lot's own park/wake/resume ledger — exact and local, unlike
    /// the machine-wide [`totals`] which sums every lot in the process.
    /// Pair with [`FutexTotals::since`] for delta accounting around a
    /// test phase, and [`FutexTotals::balanced`] at quiescent points.
    pub fn totals(&self) -> FutexTotals {
        self.ledger.read()
    }

    /// Age of the longest-parked waiter currently in the lot, or `None`
    /// when nothing is parked. The stall watchdog's primary signal: a
    /// waiter whose age keeps growing past the threshold is stuck, because
    /// every legitimate park is bounded by its waker's progress. Scans
    /// every bucket under its lock; cost is proportional to parked
    /// waiters, so call it at watchdog cadence, not per operation.
    pub fn oldest_parked_age(&self) -> Option<Duration> {
        let now = Instant::now();
        let mut oldest: Option<Duration> = None;
        for bucket in self.buckets.iter() {
            let queue = bucket.queue.lock().unwrap();
            for waiter in queue.iter() {
                let age = now.duration_since(waiter.since);
                oldest = Some(oldest.map_or(age, |o| o.max(age)));
            }
        }
        oldest
    }

    /// Snapshot of every currently parked waiter (address, age, kind) for
    /// watchdog dumps. Racy by nature; see [`ParkedWaiter`].
    pub fn parked_waiters(&self) -> Vec<ParkedWaiter> {
        let now = Instant::now();
        let mut out = Vec::new();
        for bucket in self.buckets.iter() {
            let queue = bucket.queue.lock().unwrap();
            for waiter in queue.iter() {
                out.push(ParkedWaiter {
                    addr: waiter.addr,
                    tag: waiter.tag,
                    age: now.duration_since(waiter.since),
                    is_task: matches!(waiter.how, WaitMode::Task(_)),
                });
            }
        }
        out
    }

    fn bucket_for(&self, addr: usize) -> &Bucket {
        &self.buckets[(mix64(addr as u64) & self.mask) as usize]
    }

    /// Blocks the calling thread iff `word` still holds `expected`, with
    /// the comparison and the enqueue performed atomically with respect to
    /// wakes of the same word through this lot. Returns `true` if the
    /// thread parked (and was later woken), `false` if the word had
    /// already changed.
    ///
    /// A `true` return means *some* wake covered this thread — not that
    /// the word changed. Callers must re-check their condition in a loop.
    pub fn wait(&self, word: &AtomicU64, expected: u64) -> bool {
        self.park_thread(word, expected, None)
    }

    /// Enqueues a waiter on `word` iff it still holds `expected`, the
    /// comparison and the enqueue under the bucket lock, and accounts the
    /// park; `None` when the word had already changed.
    fn enqueue(
        &self,
        word: &AtomicU64,
        expected: u64,
        tag: Option<u64>,
        how: impl FnOnce() -> WaitMode,
    ) -> Option<Arc<Waiter>> {
        let addr = addr_of(word);
        let waiter = {
            let mut queue = self.bucket_for(addr).queue.lock().unwrap();
            // The decisive re-check: under the bucket lock, a waker that
            // changed the word has either not yet locked this bucket (we
            // see the new value here) or already drained it (we see the
            // new value here too — the change precedes the wake).
            if word.load(Ordering::SeqCst) != expected {
                return None;
            }
            let waiter = Waiter::new(addr, tag, how(), &self.ledger);
            queue.push_back(Arc::clone(&waiter));
            waiter
        };
        self.ledger.park(addr, || waiter.since);
        Some(waiter)
    }

    fn park_thread(&self, word: &AtomicU64, expected: u64, tag: Option<u64>) -> bool {
        let Some(waiter) =
            self.enqueue(word, expected, tag, || WaitMode::Thread(thread::current()))
        else {
            return false;
        };
        while !waiter.woken.load(Ordering::Acquire) {
            thread::park();
        }
        let wake = Duration::from_nanos(waiter.wake_ns.load(Ordering::Relaxed));
        let resumed = clock();
        self.fold_park_cost(resumed.saturating_duration_since(waiter.since + wake));
        self.ledger.resume(waiter.addr, || resumed);
        true
    }

    /// Wakes up to `n` threads parked on the word at `addr`, oldest first,
    /// returning how many were woken. Never dereferences the address, so
    /// it remains sound after the word's storage has been freed; the worst
    /// a recycled address can cause is a spurious wake of a new word's
    /// waiter, which futex discipline already tolerates.
    pub fn wake_addr(&self, addr: usize, n: usize) -> usize {
        let bucket = self.bucket_for(addr);
        let mut woken = Vec::new();
        {
            let mut queue = bucket.queue.lock().unwrap();
            Self::dequeue_for(&mut queue, addr, None, n, &mut woken);
        }
        self.unpark_all(&woken);
        woken.len()
    }

    /// The addressed wake: for each `(address, tag)` pair, dequeues the
    /// waiters that parked on that address **with that tag**
    /// (a tagged wait, [`ParkingLot::register_tagged`]) and
    /// nobody else — not the address's other sharers, not its untagged
    /// waiters — taking each bucket's lock **once** even when several pairs
    /// collide into it; returns the total woken. This is the release path
    /// of the `service` semaphore, which publishes a batch of grants and
    /// then wakes `(slot, ticket)` per grant in one sweep.
    ///
    /// A wake-one by address is wrong for a word several logical waiters
    /// share: it can dequeue a sharer whose own condition is still unmet,
    /// which parks again and has swallowed the wake, while the waiter it
    /// was meant for sleeps forever. Matching the tag under the bucket lock
    /// means the un-granted sharer is never dequeued in the first place, so
    /// a grant costs one wake however many waiters share the word.
    pub fn wake_tagged(&self, pairs: impl IntoIterator<Item = (usize, u64)>) -> usize {
        self.sweep(pairs.into_iter().map(|(addr, tag)| (addr, Some(tag))))
    }

    /// Wakes **every** waiter parked on each distinct address, tagged or
    /// not, each bucket's lock taken once: the same sweep as
    /// [`ParkingLot::wake_tagged`] with no tag to match. Its one caller is
    /// the repo benchmark's `futex.wake_batch_ns_per_addr` probe.
    pub fn wake_batch(&self, addrs: &[usize]) -> usize {
        self.sweep(addrs.iter().map(|&addr| (addr, None)))
    }

    /// Dequeues every waiter matching each distinct target — an address,
    /// and a tag when one is given — and unparks them once no bucket lock
    /// is held.
    fn sweep(&self, targets: impl Iterator<Item = (usize, Option<u64>)>) -> usize {
        // Group targets by bucket index without allocating a map: sort a
        // small vector by bucket, then drain runs. Sorting makes duplicate
        // targets adjacent, so dedup leaves one drain per distinct target.
        let mut order: Vec<(u64, usize, Option<u64>)> = targets
            .map(|(addr, tag)| (mix64(addr as u64) & self.mask, addr, tag))
            .collect();
        order.sort_unstable();
        order.dedup();
        let mut woken = Vec::new();
        let mut i = 0;
        while i < order.len() {
            let bucket_idx = order[i].0;
            let bucket = &self.buckets[bucket_idx as usize];
            let mut queue = bucket.queue.lock().unwrap();
            while i < order.len() && order[i].0 == bucket_idx {
                let (_, addr, tag) = order[i];
                Self::dequeue_for(&mut queue, addr, tag, usize::MAX, &mut woken);
                i += 1;
            }
        }
        self.unpark_all(&woken);
        woken.len()
    }

    /// Dequeues up to `n` waiters of `addr` (oldest first) into `woken`,
    /// under the caller-held bucket lock: any of them when `tag` is `None`,
    /// else only those that parked with that tag.
    fn dequeue_for(
        queue: &mut VecDeque<Arc<Waiter>>,
        addr: usize,
        tag: Option<u64>,
        n: usize,
        woken: &mut Vec<Arc<Waiter>>,
    ) {
        let mut taken = 0;
        let mut i = 0;
        while i < queue.len() && taken < n {
            if queue[i].addr == addr && (tag.is_none() || queue[i].tag == tag) {
                woken.push(queue.remove(i).expect("index in bounds"));
                taken += 1;
            } else {
                i += 1;
            }
        }
    }

    /// Unparks dequeued waiters outside the bucket lock: an
    /// instantly-rescheduled wakee that immediately parks again must not
    /// find the lock still held.
    fn unpark_all(&self, woken: &[Arc<Waiter>]) {
        // One clock read covers the batch, and only if it holds a thread or
        // the lot has a tracer to stamp its wakes.
        let mut now = None;
        for waiter in woken {
            if let WaitMode::Thread(_) = waiter.how {
                let at = *now.get_or_insert_with(clock);
                let ns = at.saturating_duration_since(waiter.since).as_nanos() as u64;
                waiter.wake_ns.store(ns, Ordering::Relaxed);
            }
            let ledger = &waiter.ledger;
            ledger.wake(waiter.addr, || *now.get_or_insert_with(clock));
            waiter.woken.store(true, Ordering::Release);
            match &waiter.how {
                WaitMode::Thread(thread) => thread.unpark(),
                WaitMode::Task(waker) => {
                    // `take` so a late second wake of the same entry (a
                    // recycled address, say) is a no-op rather than a
                    // double re-poll request.
                    if let Some(w) = waker.lock().unwrap().take() {
                        w.wake();
                    }
                }
            }
        }
    }

    /// The async analogue of [`ParkingLot::wait`]: enqueues a *waker*
    /// entry iff `word` still holds `expected`, with the same re-check
    /// under the bucket lock, and returns immediately. `Some(entry)` means
    /// the entry is parked (one park is accounted, exactly as if a thread
    /// had blocked) and the waker will be invoked by a future wake of this
    /// word; `None` means the word had already changed and nothing was
    /// enqueued.
    ///
    /// Every returned entry must eventually be consumed by exactly one of
    /// [`WaitEntry::resume`] (after the wake) or [`ParkingLot::cancel`]
    /// (the future was dropped) — that is what keeps the machine-wide
    /// `parks == wakes == resumes` invariant intact across cancellation.
    pub fn register(&self, word: &AtomicU64, expected: u64, waker: &Waker) -> Option<WaitEntry> {
        self.park_waker(word, expected, None, waker)
    }

    /// [`ParkingLot::register`] carrying `tag`, as a tagged wait does: the
    /// entry is dequeued by [`ParkingLot::wake_tagged`] of `(word, tag)` and
    /// by no other pair. For the owner that makes [`ParkingLot::cancel`]'s
    /// `false` precise — the wake it lost to was addressed to this entry.
    pub fn register_tagged(
        &self,
        word: &AtomicU64,
        expected: u64,
        tag: u64,
        waker: &Waker,
    ) -> Option<WaitEntry> {
        self.park_waker(word, expected, Some(tag), waker)
    }

    fn park_waker(
        &self,
        word: &AtomicU64,
        expected: u64,
        tag: Option<u64>,
        waker: &Waker,
    ) -> Option<WaitEntry> {
        let how = || WaitMode::Task(Mutex::new(Some(waker.clone())));
        let waiter = self.enqueue(word, expected, tag, how)?;
        Some(WaitEntry { waiter })
    }

    /// Withdraws a registered waker entry because its future is being
    /// dropped. Returns `true` if the entry was still queued (no wake had
    /// dequeued it): the park is closed out here with a self-accounted
    /// wake + resume, and no wake was consumed. Returns `false` if a wake
    /// had already dequeued the entry: the wake landed on a waiter that
    /// will never poll again, so the caller **owns that grant** and must
    /// hand it to the next waiter (re-wake the word, release the permit, …)
    /// or it is lost; only the resume is accounted here.
    pub fn cancel(&self, entry: WaitEntry) -> bool {
        let addr = entry.waiter.addr;
        let removed = {
            let mut queue = self.bucket_for(addr).queue.lock().unwrap();
            let before = queue.len();
            queue.retain(|w| !Arc::ptr_eq(w, &entry.waiter));
            queue.len() < before
        };
        let (ledger, mut now) = (&entry.waiter.ledger, None);
        if removed {
            ledger.wake(addr, || *now.get_or_insert_with(clock));
        }
        ledger.resume(addr, || *now.get_or_insert_with(clock));
        removed
    }

    /// How many threads are currently parked on `word` — a test
    /// observability hook, racy by nature.
    pub fn parked_count(&self, word: &AtomicU64) -> usize {
        let addr = addr_of(word);
        let queue = self.bucket_for(addr).queue.lock().unwrap();
        queue.iter().filter(|w| w.addr == addr).count()
    }
}

/// A lot as the word operations of `syncctx`: a word is an `&AtomicU64`
/// (every access `SeqCst`), waits and wakes go to the lot, and a spin
/// probes for the lot's [`ParkingLot::park_cost`] ([`ParkingLot::spin`]).
/// A wait with a tag is one of several logical waiters sharing the word
/// (the `service` semaphore's tickets `t` and `t + W` on one waiting-array
/// slot): [`ParkingLot::wake_tagged`] of `(word, tag)` dequeues it and none
/// of the word's other sharers, while a wake by address alone still
/// reaches it. The tag only narrows which queued entries a wake may take;
/// the re-check-then-enqueue argument of [`ParkingLot::wait`] is unchanged.
/// The `service` crate's slow paths run on it. Every method is inlined into
/// its caller: the mutex release runs here on the service's uncontended
/// path.
impl<'a> SyncCtx<&'a AtomicU64> for &'a ParkingLot {
    #[inline]
    fn load(&mut self, w: &'a AtomicU64) -> u64 {
        w.load(Ordering::SeqCst)
    }
    #[inline]
    fn store(&mut self, w: &'a AtomicU64, v: u64) {
        w.store(v, Ordering::SeqCst);
    }
    #[inline]
    fn swap(&mut self, w: &'a AtomicU64, v: u64) -> u64 {
        w.swap(v, Ordering::SeqCst)
    }
    #[inline]
    fn cas(&mut self, w: &'a AtomicU64, expected: u64, new: u64) -> Result<u64, u64> {
        w.compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
    }
    #[inline]
    fn fetch_add(&mut self, w: &'a AtomicU64, delta: u64) -> u64 {
        w.fetch_add(delta, Ordering::SeqCst)
    }
    #[inline]
    fn wait(&mut self, w: &'a AtomicU64, expected: u64, tag: Option<u64>) -> Waited {
        let parked = self.park_thread(w, expected, tag);
        Waited {
            parked,
            seen: w.load(Ordering::SeqCst),
        }
    }
    #[inline]
    fn wake(&mut self, w: &'a AtomicU64, n: usize) -> usize {
        self.wake_addr(addr_of(w), n)
    }
    #[inline]
    fn wake_tagged(&mut self, pairs: &[(&'a AtomicU64, u64)]) -> usize {
        ParkingLot::wake_tagged(self, pairs.iter().map(|&(w, tag)| (addr_of(w), tag)))
    }
    #[inline(always)]
    fn spin(&mut self, mut probe: impl FnMut(&mut Self) -> bool) -> bool {
        let lot = *self;
        ParkingLot::spin(lot, || probe(self))
    }
}

/// A parked *waker* entry returned by [`ParkingLot::register`]: the async
/// side of a futex wait. The owning future polls [`WaitEntry::woken`],
/// refreshes its waker with [`WaitEntry::update_waker`] on every pending
/// poll, and finishes the wait with [`WaitEntry::resume`] once woken — or
/// withdraws it with [`ParkingLot::cancel`] when dropped mid-wait.
///
/// The entry does **not** keep the futex word alive; the owning future
/// must (and in `service` does, via its pinned `SlotRef`).
#[must_use = "a registered wait entry must be resumed or cancelled, or the \
              futex accounting leaks a park"]
pub struct WaitEntry {
    waiter: Arc<Waiter>,
}

impl WaitEntry {
    /// Whether a wake has dequeued this entry. Once true the entry will
    /// never be woken again and must be consumed with
    /// [`WaitEntry::resume`].
    pub fn woken(&self) -> bool {
        self.waiter.woken.load(Ordering::Acquire)
    }

    /// Installs the waker from the *current* poll, replacing the one
    /// captured at registration. Closes the poll-vs-wake race: a wake sets
    /// `woken` before it takes the stored waker, so if `woken` is clear
    /// under the waker's lock the wake will find the fresh one, and if a
    /// wake slipped in between the caller's `woken()` check and the lock,
    /// the task is woken here through the fresh waker and the slot left
    /// empty, to guarantee one re-poll.
    pub fn update_waker(&self, waker: &Waker) {
        let WaitMode::Task(slot) = &self.waiter.how else {
            unreachable!("WaitEntry wraps task-mode waiters only");
        };
        let mut slot = slot.lock().unwrap();
        if self.woken() {
            *slot = None;
            drop(slot);
            waker.wake_by_ref();
        } else {
            *slot = Some(waker.clone());
        }
    }

    /// Consumes a woken entry, accounting the resume — the moment the
    /// async wait "returns" the way a parked thread returns from
    /// [`ParkingLot::wait`]. Call only after [`WaitEntry::woken`] is true.
    pub fn resume(self) {
        debug_assert!(self.woken(), "resume() before the entry was woken");
        self.waiter.ledger.resume(self.waiter.addr, clock);
    }
}

/// The process-global, untraced lot: where the `qsm` crate's lock,
/// eventcount and barrier park, and where their waiters take their spin
/// budget ([`ParkingLot::park_cost`]). Its exact ledger
/// ([`ParkingLot::totals`]) counts every park in it.
pub fn global_lot() -> &'static ParkingLot {
    static LOT: OnceLock<ParkingLot> = OnceLock::new();
    LOT.get_or_init(|| ParkingLot::with_buckets(GLOBAL_BUCKETS))
}

/// The parking-lot identity of a futex word: its address. Exposed so a
/// waker whose last reference to the word may die under it (a queue-lock
/// releaser whose successor frees its node on wake) can capture the
/// identity while the word is still alive and wake by address afterwards.
pub fn addr_of(word: &AtomicU64) -> usize {
    word as *const AtomicU64 as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::time::Duration;

    thread_local! {
        /// Clock reads `futex::clock` made on this thread.
        pub(super) static CLOCK_READS: Cell<u32> = const { Cell::new(0) };
        /// Samples this thread folded into some lot's park-cost average.
        pub(super) static SAMPLES_FOLDED: Cell<u32> = const { Cell::new(0) };
    }

    /// Clock reads `f` makes on the calling thread.
    fn clock_reads_of(f: impl FnOnce()) -> u32 {
        let before = CLOCK_READS.with(Cell::get);
        f();
        CLOCK_READS.with(Cell::get) - before
    }

    /// Parks one thread on a fresh word of `lot`, wakes it, joins it;
    /// returns the clock reads the wake made and the samples the parked
    /// thread folded into the average.
    fn park_and_wake_one(lot: &Arc<ParkingLot>) -> (u32, u32) {
        let word = Arc::new(AtomicU64::new(0));
        let handle = {
            let (lot, word) = (Arc::clone(lot), Arc::clone(&word));
            thread::spawn(move || {
                while word.load(Ordering::SeqCst) == 0 {
                    lot.wait(&word, 0);
                }
                SAMPLES_FOLDED.with(Cell::get)
            })
        };
        while lot.parked_count(&word) == 0 {
            thread::yield_now();
        }
        word.store(1, Ordering::SeqCst);
        let reads = clock_reads_of(|| assert_eq!(lot.wake_addr(addr_of(&word), 1), 1));
        (reads, handle.join().unwrap())
    }

    #[test]
    fn park_cost_average_follows_samples_inside_its_clamp() {
        let lot = ParkingLot::with_buckets(1);
        assert_eq!(lot.park_cost(), PARK_COST_FLOOR, "seeded at the floor");
        // Toward a sample inside the clamp: monotonically, one eighth of
        // the gap at a time, stopping within the rounding of the shift.
        let target = Duration::from_micros(40);
        let mut last = lot.park_cost();
        for _ in 0..100 {
            lot.fold_park_cost(target);
            assert!(lot.park_cost() >= last && lot.park_cost() <= target);
            last = lot.park_cost();
        }
        assert!(
            target - last < Duration::from_nanos(1 << PARK_COST_SHIFT),
            "{last:?}"
        );
        // A descheduled wakee reads in milliseconds: clamped to the ceiling.
        for _ in 0..100 {
            lot.fold_park_cost(Duration::from_millis(10));
            assert!(lot.park_cost() <= PARK_COST_CEIL);
        }
        assert!(PARK_COST_CEIL - lot.park_cost() < Duration::from_nanos(1 << PARK_COST_SHIFT));
        // And back down to the floor, never through it.
        for _ in 0..200 {
            lot.fold_park_cost(Duration::ZERO);
            assert!(lot.park_cost() >= PARK_COST_FLOOR);
        }
        assert_eq!(lot.park_cost(), PARK_COST_FLOOR);
    }

    /// Only a thread that really parked and was woken feeds the average,
    /// and only dequeuing a thread reads the clock on the wake side.
    #[test]
    fn park_cost_is_fed_by_thread_parks_only() {
        let lot = Arc::new(ParkingLot::with_buckets(4));
        let word = AtomicU64::new(7);
        // A wait that never blocked and a wake that found nobody: no
        // sample, no clock.
        assert_eq!(clock_reads_of(|| assert!(!lot.wait(&word, 3))), 0);
        assert_eq!(
            clock_reads_of(|| assert_eq!(lot.wake_addr(addr_of(&word), 1), 0)),
            0
        );
        assert_eq!(
            clock_reads_of(|| assert_eq!(lot.wake_batch(&[addr_of(&word)]), 0)),
            0
        );
        assert_eq!(
            clock_reads_of(|| assert_eq!(lot.wake_tagged([(addr_of(&word), 0)]), 0)),
            0
        );
        // Waker entries, cancelled or woken: the park stamp only.
        let (_, waker) = flag_waker();
        let entry = lot.register(&word, 7, &waker).expect("word unchanged");
        assert_eq!(clock_reads_of(|| assert!(lot.cancel(entry))), 0);
        let entry = lot.register(&word, 7, &waker).expect("word unchanged");
        assert_eq!(
            clock_reads_of(|| assert_eq!(lot.wake_addr(addr_of(&word), 1), 1)),
            0
        );
        entry.resume();
        assert_eq!(
            lot.park_cost(),
            PARK_COST_FLOOR,
            "a non-park moved the average"
        );

        assert_eq!(SAMPLES_FOLDED.with(Cell::get), 0, "a non-park was sampled");

        // A real park: one clock read on the wake side, to stamp the
        // dequeue, and one sample folded by the thread that parked. Where
        // the clamped average ends up is the host's business, not the
        // test's: a park resumed in under 8 us does not lift it off the
        // floor, one that took over 64 us does not pull it off the ceiling.
        assert_eq!(park_and_wake_one(&lot), (1, 1));
        assert!((PARK_COST_FLOOR..=PARK_COST_CEIL).contains(&lot.park_cost()));
        assert!(lot.totals().balanced());
    }

    #[test]
    fn wait_on_changed_word_returns_without_parking() {
        let word = AtomicU64::new(7);
        assert!(!global_lot().wait(&word, 3));
        assert_eq!(global_lot().parked_count(&word), 0);
    }

    #[test]
    fn wake_with_no_waiters_is_zero() {
        let word = AtomicU64::new(0);
        assert_eq!(global_lot().wake_addr(addr_of(&word), usize::MAX), 0);
    }

    /// Two words that collide into the same bucket must not wake each
    /// other's waiters: the queue entries carry the full address.
    #[test]
    fn colliding_words_are_independent() {
        // A one-bucket lot makes every pair of words a collision.
        let lot = Arc::new(ParkingLot::with_buckets(1));
        let a = Arc::new(AtomicU64::new(0));
        let b = AtomicU64::new(0);
        let handle = {
            let a = Arc::clone(&a);
            let lot = Arc::clone(&lot);
            thread::spawn(move || {
                while a.load(Ordering::SeqCst) == 0 {
                    lot.wait(&a, 0);
                }
            })
        };
        while lot.parked_count(&a) == 0 {
            thread::yield_now();
        }
        // Waking the colliding word must not disturb ours.
        assert_eq!(lot.wake_addr(addr_of(&b), usize::MAX), 0);
        assert_eq!(lot.parked_count(&a), 1);
        a.store(1, Ordering::SeqCst);
        assert_eq!(lot.wake_addr(addr_of(&a), 1), 1);
        handle.join().unwrap();
    }

    /// The bucket hash must spread realistic address patterns — slab
    /// entries at a fixed stride, exactly what a weak hash aliases — close
    /// to uniformly across buckets. The old `hash >> (64 - 7)` scheme
    /// fails this: 64-byte-strided addresses landed on a handful of the
    /// 64 buckets.
    #[test]
    fn bucket_hash_spreads_strided_addresses() {
        for stride in [8usize, 64, 128] {
            let buckets = 64;
            let n = 64 * buckets;
            let mut counts = vec![0usize; buckets];
            let base = 0x7f00_dead_0000usize;
            for i in 0..n {
                let addr = base + i * stride;
                counts[(mix64(addr as u64) & (buckets as u64 - 1)) as usize] += 1;
            }
            let used = counts.iter().filter(|&&c| c > 0).count();
            let max = counts.iter().copied().max().unwrap();
            assert_eq!(
                used, buckets,
                "stride {stride}: {used}/{buckets} buckets used"
            );
            // Uniform would be 64 per bucket; allow 3x skew.
            assert!(
                max <= 3 * (n / buckets),
                "stride {stride}: hottest bucket holds {max} of {n}"
            );
        }
    }

    /// mix64 avalanches: flipping one input bit flips about half the
    /// output bits, and in particular changes the *low* bits a masked
    /// bucket index consumes.
    #[test]
    fn mix64_avalanches_into_low_bits() {
        let mut total_flips = 0u32;
        let samples = 64 * 16;
        for i in 0..16u64 {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1234_5678_9abc_def0;
            for bit in 0..64 {
                let d = mix64(x) ^ mix64(x ^ (1 << bit));
                total_flips += d.count_ones();
                assert!(d & 0xFFFF != 0, "bit {bit} left the low 16 bits unchanged");
            }
        }
        let mean_flips = total_flips as f64 / samples as f64;
        assert!(
            (24.0..40.0).contains(&mean_flips),
            "mean output flips per input bit: {mean_flips}"
        );
    }

    #[test]
    fn lot_sizes_round_up_to_powers_of_two() {
        for (ask, got) in [(1, 1), (2, 2), (3, 4), (64, 64), (1000, 1024)] {
            assert_eq!(ParkingLot::with_buckets(ask).buckets(), got);
        }
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_bucket_lot_rejected() {
        ParkingLot::with_buckets(0);
    }

    /// A test waker that just records it fired.
    struct FlagWaker(AtomicBool);

    impl std::task::Wake for FlagWaker {
        fn wake(self: Arc<Self>) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    fn flag_waker() -> (Arc<FlagWaker>, std::task::Waker) {
        let flag = Arc::new(FlagWaker(AtomicBool::new(false)));
        let waker = std::task::Waker::from(Arc::clone(&flag));
        (flag, waker)
    }

    #[test]
    fn register_on_changed_word_returns_none() {
        let word = AtomicU64::new(7);
        let (_, waker) = flag_waker();
        assert!(global_lot().register(&word, 3, &waker).is_none());
        assert_eq!(global_lot().parked_count(&word), 0);
    }

    #[test]
    fn register_wake_resume_round_trip_fires_waker() {
        // A private lot gives an exact ledger: no other test in this
        // process can skew it, so the balance assertions are equalities.
        let lot = ParkingLot::with_buckets(1);
        let word = AtomicU64::new(0);
        let (flag, waker) = flag_waker();
        let before = lot.totals();
        let entry = lot.register(&word, 0, &waker).expect("word unchanged");
        assert!(!entry.woken());
        assert!(!flag.0.load(Ordering::SeqCst));
        word.store(1, Ordering::SeqCst);
        assert_eq!(lot.wake_addr(addr_of(&word), 1), 1);
        assert!(entry.woken());
        assert!(flag.0.load(Ordering::SeqCst), "waker not invoked");
        entry.resume();
        let delta = lot.totals().since(&before);
        assert_eq!(
            delta,
            FutexTotals {
                parks: 1,
                wakes: 1,
                resumes: 1
            }
        );
        assert!(delta.balanced());
    }

    #[test]
    fn cancel_before_wake_removes_entry_and_balances() {
        let lot = global_lot();
        let word = AtomicU64::new(0);
        let (flag, waker) = flag_waker();
        let entry = lot.register(&word, 0, &waker).expect("word unchanged");
        assert_eq!(lot.parked_count(&word), 1);
        assert!(lot.cancel(entry), "no wake raced; entry was still queued");
        assert_eq!(lot.parked_count(&word), 0);
        // Nobody left to wake, and the waker never fired.
        assert_eq!(lot.wake_addr(addr_of(&word), usize::MAX), 0);
        assert!(!flag.0.load(Ordering::SeqCst));
    }

    #[test]
    fn cancel_after_wake_reports_consumed_grant() {
        let lot = global_lot();
        let word = AtomicU64::new(0);
        let (_, waker) = flag_waker();
        let entry = lot.register(&word, 0, &waker).expect("word unchanged");
        word.store(1, Ordering::SeqCst);
        assert_eq!(lot.wake_addr(addr_of(&word), 1), 1);
        // The wake already dequeued the entry: cancel must say so, so the
        // caller knows it owns (and must forward) the grant.
        assert!(!lot.cancel(entry));
    }

    #[test]
    fn update_waker_after_missed_wake_self_wakes() {
        let word = AtomicU64::new(0);
        let (stale, stale_waker) = flag_waker();
        let entry = global_lot()
            .register(&word, 0, &stale_waker)
            .expect("word unchanged");
        word.store(1, Ordering::SeqCst);
        assert_eq!(global_lot().wake_addr(addr_of(&word), 1), 1);
        assert!(stale.0.load(Ordering::SeqCst));
        // A poll racing that wake installs a fresh waker; the set woken
        // flag must punch through to it or the task never re-polls.
        let (fresh, fresh_waker) = flag_waker();
        entry.update_waker(&fresh_waker);
        assert!(fresh.0.load(Ordering::SeqCst), "missed-wake re-poll lost");
        entry.resume();
    }

    /// Threads and wakers parked on the same word are one FIFO: a wake of
    /// one releases the oldest regardless of kind.
    #[test]
    fn threads_and_wakers_share_one_fifo() {
        let lot = Arc::new(ParkingLot::with_buckets(1));
        let word = Arc::new(AtomicU64::new(0));
        let handle = {
            let (lot, word) = (Arc::clone(&lot), Arc::clone(&word));
            thread::spawn(move || {
                while word.load(Ordering::SeqCst) == 0 {
                    lot.wait(&word, 0);
                }
            })
        };
        while lot.parked_count(&word) == 0 {
            thread::yield_now();
        }
        let (flag, waker) = flag_waker();
        let entry = lot.register(&word, 0, &waker).expect("word unchanged");
        assert_eq!(lot.parked_count(&word), 2);
        word.store(1, Ordering::SeqCst);
        // Oldest first: the thread parked before the waker registered.
        assert_eq!(lot.wake_addr(addr_of(&word), 1), 1);
        handle.join().unwrap();
        assert!(!entry.woken(), "wake-one released the waker out of order");
        assert!(!flag.0.load(Ordering::SeqCst));
        assert_eq!(lot.wake_addr(addr_of(&word), 1), 1);
        assert!(entry.woken());
        entry.resume();
    }

    /// The addressed wake takes the entries that parked on the address with
    /// the tag it names — a thread or a waker — and leaves the word's other
    /// sharers, tagged or not, queued: duplicates collapse, a tag nobody
    /// parked with wakes nobody, and a wake by address still reaches a
    /// tagged waiter.
    #[test]
    fn wake_tagged_takes_its_own_tag_and_nobody_else() {
        // One bucket: every pair of the sweep collides into it.
        let lot = Arc::new(ParkingLot::with_buckets(1));
        let word = Arc::new(AtomicU64::new(0));
        let addr = addr_of(&word);
        let wakers: Vec<_> = (0..3).map(|_| flag_waker()).collect();
        let fired = |i: usize| wakers[i].0 .0.load(Ordering::SeqCst);
        let t0 = lot.register_tagged(&word, 0, 0, &wakers[0].1).unwrap();
        let t1 = lot.register_tagged(&word, 0, 1, &wakers[1].1).unwrap();
        let untagged = lot.register(&word, 0, &wakers[2].1).unwrap();
        let thread = {
            let (lot, word) = (Arc::clone(&lot), Arc::clone(&word));
            thread::spawn(move || {
                while word.load(Ordering::SeqCst) == 0 {
                    SyncCtx::wait(&mut &*lot, &*word, 0, Some(2));
                }
            })
        };
        while lot.parked_count(&word) < 4 {
            thread::yield_now();
        }
        assert_eq!(lot.wake_tagged([(addr, 7)]), 0, "nobody parked with 7");
        assert_eq!(lot.wake_tagged([(addr, 1)]), 1);
        assert!(t1.woken() && fired(1));
        assert!(!t0.woken() && !untagged.woken() && !fired(0) && !fired(2));
        assert_eq!(lot.parked_count(&word), 3);
        // Oldest first among the matches, a duplicate pair woken once.
        word.store(1, Ordering::SeqCst);
        assert_eq!(lot.wake_tagged([(addr, 2), (addr, 0), (addr, 2)]), 2);
        thread.join().unwrap();
        assert!(t0.woken() && !untagged.woken());
        // By address, the tag does not matter.
        let late = lot.register_tagged(&word, 1, 9, &wakers[0].1).unwrap();
        assert_eq!(lot.wake_addr(addr, usize::MAX), 2);
        for entry in [t0, t1, untagged, late] {
            entry.resume();
        }
        let totals = lot.totals();
        assert_eq!((totals.parks, totals.balanced()), (5, true), "{totals:?}");
    }

    /// Batched wake releases every waiter parked on each distinct
    /// address, with duplicate addresses collapsed and colliding addresses
    /// drained under one bucket lock.
    #[test]
    fn wake_batch_wakes_all_waiters_per_address() {
        let lot = Arc::new(ParkingLot::with_buckets(2));
        let words: Vec<Arc<AtomicU64>> = (0..2).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let mut handles = Vec::new();
        for w in &words {
            for _ in 0..2 {
                let w = Arc::clone(w);
                let lot = Arc::clone(&lot);
                handles.push(thread::spawn(move || {
                    while w.load(Ordering::SeqCst) == 0 {
                        lot.wait(&w, 0);
                    }
                }));
            }
        }
        for w in &words {
            while lot.parked_count(w) < 2 {
                thread::yield_now();
            }
        }
        let before = lot.totals();
        for w in &words {
            w.store(1, Ordering::SeqCst);
        }
        // A duplicate occurrence must not double-drain: the batch wakes
        // per distinct address, and each address releases both sharers.
        let addrs = vec![addr_of(&words[0]), addr_of(&words[1]), addr_of(&words[0])];
        assert_eq!(lot.wake_batch(&addrs), 4);
        for h in handles {
            h.join().unwrap();
        }
        // The lot-local ledger is exact: nothing else in this process
        // parks through this private lot, so the four wakes and resumes
        // are equalities, not lower bounds. (The parks predate `before`,
        // so the delta carries only the wake phase; the absolute totals
        // balance at quiesce.)
        let delta = lot.totals().since(&before);
        assert_eq!(delta.wakes, 4, "{delta:?}");
        assert_eq!(delta.resumes, 4, "{delta:?}");
        assert_eq!(
            lot.totals(),
            FutexTotals {
                parks: 4,
                wakes: 4,
                resumes: 4
            }
        );
        assert!(lot.totals().balanced());
    }

    /// Per-lot ledgers are independent: traffic on one lot leaves another
    /// lot's counters untouched, while the machine-wide totals see both.
    #[test]
    fn lot_totals_are_local_and_exact() {
        let busy = Arc::new(ParkingLot::with_buckets(2));
        let idle = ParkingLot::with_buckets(2);
        let word = Arc::new(AtomicU64::new(0));
        let global_before = totals();
        let handle = {
            let (busy, word) = (Arc::clone(&busy), Arc::clone(&word));
            thread::spawn(move || {
                while word.load(Ordering::SeqCst) == 0 {
                    busy.wait(&word, 0);
                }
            })
        };
        while busy.parked_count(&word) == 0 {
            thread::yield_now();
        }
        word.store(1, Ordering::SeqCst);
        assert_eq!(busy.wake_addr(addr_of(&word), 1), 1);
        handle.join().unwrap();
        let delta = busy.totals();
        assert_eq!(
            delta,
            FutexTotals {
                parks: 1,
                wakes: 1,
                resumes: 1
            }
        );
        assert_eq!(idle.totals(), FutexTotals::default());
        // The machine-wide statics absorbed this lot's traffic too (other
        // tests may add more concurrently, so lower-bound the global side).
        let global = totals().since(&global_before);
        assert!(global.parks >= 1 && global.wakes >= 1 && global.resumes >= 1);
    }

    /// A traced lot records exactly what its ledger counts — the parks,
    /// wake dequeues and resumes of blocking threads and of waker entries,
    /// woken or cancelled — each thread's park a span on its own track that
    /// ends at its own resume; a second traced lot beside it, idle, records
    /// nothing.
    #[test]
    fn a_traced_lot_records_its_own_ledger_exactly() {
        use trace::{EventClass, TraceMode};
        const THREADS: usize = 8;
        const ROUNDS: u64 = 200;
        let tracer = Arc::new(Tracer::new(TraceMode::Full, trace::THREAD_SLOTS, 4096));
        let idle_tracer = Arc::new(Tracer::new(TraceMode::Full, trace::THREAD_SLOTS, 16));
        let lot = ParkingLot::with_tracer(4, Some(Arc::clone(&tracer)));
        let idle = ParkingLot::with_tracer(4, Some(Arc::clone(&idle_tracer)));
        let words: Vec<AtomicU64> = (0..THREADS / 2).map(|_| AtomicU64::new(0)).collect();
        thread::scope(|s| {
            for i in 0..THREADS {
                let (lot, word) = (&lot, &words[i / 2]);
                s.spawn(move || {
                    let (_, waker) = flag_waker();
                    let mine = (i % 2) as u64;
                    for _ in 0..ROUNDS {
                        // Two threads take turns on a word: wait for my
                        // parity, pass the turn, wake my partner.
                        loop {
                            let v = word.load(Ordering::SeqCst);
                            if v % 2 == mine {
                                break;
                            }
                            lot.wait(word, v);
                        }
                        // A waker entry withdrawn unwoken, then one woken.
                        let own = AtomicU64::new(0);
                        assert!(lot.cancel(lot.register(&own, 0, &waker).unwrap()));
                        let entry = lot.register(&own, 0, &waker).unwrap();
                        assert_eq!(lot.wake_addr(addr_of(&own), 1), 1);
                        entry.resume();
                        word.fetch_add(1, Ordering::SeqCst);
                        lot.wake_addr(addr_of(word), 1);
                    }
                });
            }
        });
        let totals = lot.totals();
        assert!(totals.balanced(), "{totals:?}");
        let entries = 2 * (THREADS as u64) * ROUNDS;
        assert!(totals.parks > entries, "no thread ever parked: {totals:?}");
        let traced = |class| tracer.class_total(class);
        assert_eq!(
            (
                traced(EventClass::FutexPark),
                traced(EventClass::FutexWake),
                traced(EventClass::FutexResume)
            ),
            (totals.parks, totals.wakes, totals.resumes)
        );
        assert_eq!(tracer.unleased(), 0);
        for pid in 0..tracer.nprocs() {
            // Every park on a track is closed by the next park-or-resume
            // event there, a resume of the same word.
            let mut open = None;
            for event in tracer.events(pid) {
                match event.kind {
                    EventKind::FutexPark { addr } => assert_eq!(open.replace(addr), None),
                    EventKind::FutexResume { addr, .. } => assert_eq!(open.take(), Some(addr)),
                    _ => {}
                }
            }
            assert_eq!(open, None, "track {pid} ends parked");
        }
        let json = trace::chrome::export_tracer(&tracer, "parking");
        let stats = trace::chrome::validate(&json).expect("real-thread trace validates");
        assert_eq!(stats.spans as u64, totals.parks);
        assert_eq!(idle.totals(), FutexTotals::default());
        assert!((0..idle_tracer.nprocs()).all(|pid| idle_tracer.events(pid).is_empty()));
        assert!(EventClass::ALL
            .iter()
            .all(|&class| idle_tracer.class_total(class) == 0));
    }

    /// `oldest_parked_age` reports the longest-parked waiter while one is
    /// parked, and `None` once the lot drains.
    #[test]
    fn oldest_parked_age_tracks_park_lifetime() {
        let lot = Arc::new(ParkingLot::with_buckets(1));
        assert!(lot.oldest_parked_age().is_none());
        let word = Arc::new(AtomicU64::new(0));
        let handle = {
            let (lot, word) = (Arc::clone(&lot), Arc::clone(&word));
            thread::spawn(move || {
                while word.load(Ordering::SeqCst) == 0 {
                    lot.wait(&word, 0);
                }
            })
        };
        while lot.parked_count(&word) == 0 {
            thread::yield_now();
        }
        thread::sleep(Duration::from_millis(5));
        let age = lot.oldest_parked_age().expect("one waiter is parked");
        assert!(age >= Duration::from_millis(5), "{age:?}");
        // A sharer of the word that parked with a tag names it in the scan.
        let (_, waker) = flag_waker();
        let tagged = lot.register_tagged(&word, 0, 41, &waker).unwrap();
        let parked = lot.parked_waiters();
        assert_eq!(parked.len(), 2);
        assert!(parked.iter().all(|w| w.addr == addr_of(&word)));
        assert_eq!((parked[0].is_task, parked[0].tag), (false, None));
        assert_eq!((parked[1].is_task, parked[1].tag), (true, Some(41)));
        assert!(lot.cancel(tagged));
        word.store(1, Ordering::SeqCst);
        lot.wake_addr(addr_of(&word), 1);
        handle.join().unwrap();
        assert!(lot.oldest_parked_age().is_none());
        assert!(lot.totals().balanced());
    }
}

//! Real-hardware harness — fig8's workload, and the one real-thread
//! [`ProcCtx`].
//!
//! [`RealCtx`] runs a `kernels` algorithm on OS threads: shared memory is a
//! slice of `AtomicU64` accessed at `SeqCst`, watch-spins are bounded probe
//! loops, and waits and wakes go to a `parking` lot the run owns. fig8
//! drives every [`kernels::locks::all_locks`] kernel through it with
//! wall-clock timing, and the differential harness uses it as its
//! real-threads backend. What the contended columns measure depends on the
//! host: with fewer cores than threads they measure scheduler hand-off, not
//! coherence traffic (the simulator owns that claim). The harness still
//! checks mutual exclusion on every run, and the uncontended column is
//! meaningful on any host.

use kernels::locks::{fixture, LockKernel};
use kernels::{Addr, ProcCtx, SyncCtx, Waited, Word};
use parking::futex::ParkingLot;
use qsm::QsmBarrier;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Words per cache line in the real-thread memory image (64-byte lines).
const LINE_WORDS: usize = 8;

/// Probe bound for real-thread spin loops: generous enough for any healthy
/// lock hand-off, small enough that a genuinely stuck waiter fails the
/// run instead of hanging it.
const SPIN_LIMIT: u64 = 1 << 26;

/// A [`ProcCtx`] over real std threads. One instance per thread, all of a
/// run's sharing its memory image and its lot.
pub struct RealCtx<'m> {
    pid: usize,
    nprocs: usize,
    mem: &'m [AtomicU64],
    lot: &'m ParkingLot,
}

impl<'m> RealCtx<'m> {
    /// Thread `pid` of `nprocs` over the shared memory image `mem`, parking
    /// in `lot`.
    pub fn new(pid: usize, nprocs: usize, mem: &'m [AtomicU64], lot: &'m ParkingLot) -> Self {
        RealCtx {
            pid,
            nprocs,
            mem,
            lot,
        }
    }

    fn probe(probes: &mut u64, addr: Addr) {
        *probes += 1;
        assert!(
            *probes < SPIN_LIMIT,
            "real threads: spin on word {addr} exceeded {SPIN_LIMIT} probes (hung lock?)"
        );
        if (*probes).is_multiple_of(64) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

impl SyncCtx for RealCtx<'_> {
    fn load(&mut self, addr: Addr) -> Word {
        self.mem[addr].load(Ordering::SeqCst)
    }
    fn store(&mut self, addr: Addr, val: Word) {
        self.mem[addr].store(val, Ordering::SeqCst);
    }
    fn swap(&mut self, addr: Addr, val: Word) -> Word {
        self.mem[addr].swap(val, Ordering::SeqCst)
    }
    fn cas(&mut self, addr: Addr, expected: Word, new: Word) -> Result<Word, Word> {
        self.mem[addr].compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
    }
    fn fetch_add(&mut self, addr: Addr, delta: Word) -> Word {
        self.mem[addr].fetch_add(delta, Ordering::SeqCst)
    }
    fn wait(&mut self, addr: Addr, expected: Word, tag: Option<Word>) -> Waited {
        SyncCtx::wait(&mut self.lot, &self.mem[addr], expected, tag)
    }
    fn wake(&mut self, addr: Addr, n: usize) -> usize {
        SyncCtx::wake(&mut self.lot, &self.mem[addr], n)
    }
    /// Kernels delay only to back off while they wait, so a delay gives the
    /// core up the way a spin's probes do: a backoff loop that never yields
    /// (ticket + proportional backoff) convoys behind a descheduled
    /// successor when threads outnumber cores.
    fn delay(&mut self, cycles: u64) {
        for _ in 0..cycles.min(1_000) {
            std::hint::spin_loop();
        }
        std::thread::yield_now();
    }
}

impl ProcCtx for RealCtx<'_> {
    fn pid(&self) -> usize {
        self.pid
    }
    fn nprocs(&self) -> usize {
        self.nprocs
    }
    fn spin_while(&mut self, addr: Addr, val: Word) -> Word {
        let mut probes = 0;
        loop {
            let cur = self.mem[addr].load(Ordering::SeqCst);
            if cur != val {
                return cur;
            }
            Self::probe(&mut probes, addr);
        }
    }
    fn spin_until(&mut self, addr: Addr, val: Word) {
        let mut probes = 0;
        while self.mem[addr].load(Ordering::SeqCst) != val {
            Self::probe(&mut probes, addr);
        }
    }
}

/// What one [`run`] observed.
#[derive(Debug)]
pub struct RealRun {
    /// Final value of the counter word handed to every critical section.
    pub(crate) counter: Word,
    /// Parks in the run's lot.
    pub parks: u64,
    /// Waiters the run's wakes dequeued.
    pub wakes: u64,
    /// Wall-clock time from before the first spawn to the last join.
    pub(crate) elapsed: Duration,
    /// Panic messages of the threads that did not finish.
    pub failures: Vec<String>,
}

/// Runs `lock` on `nthreads` real threads released together by a start
/// gate, each performing `iters` critical sections: acquire,
/// `cs(ctx, counter)`, release. The lock and one scratch line are laid out
/// by [`fixture`], so the Anderson kernel gets exactly `nthreads` slots;
/// `counter` is the first scratch word.
pub fn run(
    lock: &dyn LockKernel,
    nthreads: usize,
    iters: u64,
    cs: impl Fn(&mut RealCtx<'_>, Addr) + Sync,
) -> RealRun {
    let (fix, init) = fixture(lock, nthreads, LINE_WORDS, 1);
    let counter = fix.scratch.slot(0);
    let mem: Vec<AtomicU64> = init.into_iter().map(AtomicU64::new).collect();
    let lot = ParkingLot::with_buckets(nthreads);
    let gate = QsmBarrier::new(nthreads);
    let start = Instant::now();
    let joined: Vec<std::thread::Result<()>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nthreads)
            .map(|pid| {
                let (mem, lot, gate, cs) = (&mem, &lot, &gate, &cs);
                s.spawn(move || {
                    let mut ctx = RealCtx::new(pid, nthreads, mem, lot);
                    let mut ps = lock.proc_init(pid, &fix.region);
                    gate.wait();
                    for _ in 0..iters {
                        let token = lock.acquire(&mut ctx, &fix.region, &mut ps);
                        cs(&mut ctx, counter);
                        lock.release(&mut ctx, &fix.region, &mut ps, token);
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let elapsed = start.elapsed();
    let ledger = lot.totals();
    RealRun {
        counter: mem[counter].load(Ordering::SeqCst),
        parks: ledger.parks,
        wakes: ledger.wakes,
        elapsed,
        failures: joined
            .into_iter()
            .filter_map(|r| r.err().map(|e| panic_message(&*e)))
            .collect(),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "thread panicked".to_string()
    }
}

/// Nanoseconds per uncontended acquire/release pair, measured over `iters`
/// iterations on the calling thread.
pub fn uncontended_ns(lock: &dyn LockKernel, iters: u64) -> f64 {
    let (fix, init) = fixture(lock, 1, LINE_WORDS, 0);
    let mem: Vec<AtomicU64> = init.into_iter().map(AtomicU64::new).collect();
    let lot = ParkingLot::with_buckets(1);
    let mut ctx = RealCtx::new(0, 1, &mem, &lot);
    let mut ps = lock.proc_init(0, &fix.region);
    let mut pass = |n: u64| {
        for _ in 0..n {
            let t = lock.acquire(&mut ctx, &fix.region, &mut ps);
            lock.release(&mut ctx, &fix.region, &mut ps, t);
        }
    };
    pass(100); // warm the lines
    let start = Instant::now();
    pass(iters);
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Total critical sections per millisecond with `threads` contending
/// threads each performing `iters` increments of a shared counter. The
/// increment is a data load and a data store, deliberately not atomic, so
/// a lock that lets two holders overlap loses updates.
///
/// # Panics
///
/// If a thread panics, or if the counter ends short of `threads * iters`
/// ("lost critical sections": two holders overlapped).
pub fn contended_throughput(lock: &dyn LockKernel, threads: usize, iters: u64) -> f64 {
    let r = run(lock, threads, iters, |ctx, counter| {
        let v = ctx.data_load(counter);
        ctx.data_store(counter, v + 1);
    });
    assert!(
        r.failures.is_empty(),
        "{}: {}",
        lock.name(),
        r.failures.join("; ")
    );
    let total = threads as u64 * iters;
    assert_eq!(r.counter, total, "{}: lost critical sections", lock.name());
    total as f64 / (r.elapsed.as_secs_f64() * 1e3)
}

/// One fig8 row: lock name, uncontended ns/op, and throughput at each
/// requested thread count.
#[derive(Debug, Clone)]
pub struct RealHwRow {
    /// Lock under test.
    pub name: &'static str,
    /// Uncontended acquire+release latency, ns.
    pub uncontended_ns: f64,
    /// `(threads, critical sections per ms)` pairs.
    pub throughput: Vec<(usize, f64)>,
}

/// Runs the full fig8 sweep over [`kernels::locks::all_locks`], in
/// registry order.
///
/// On a single-core host the contended runs are scheduler-bound (every
/// FIFO hand-off needs a context switch), so the iteration count is scaled
/// down hard to keep the sweep finite; the caveat is recorded with fig8.
pub fn sweep(thread_counts: &[usize], iters: u64) -> Vec<RealHwRow> {
    let single_core = std::thread::available_parallelism()
        .map(|n| n.get() == 1)
        .unwrap_or(false);
    let contended_iters = if single_core {
        (iters / 20).max(500)
    } else {
        iters
    };
    kernels::locks::all_locks()
        .into_iter()
        .map(|lock| RealHwRow {
            name: lock.name(),
            uncontended_ns: uncontended_ns(&*lock, iters),
            throughput: thread_counts
                .iter()
                .map(|&t| {
                    (
                        t,
                        contended_throughput(&*lock, t, contended_iters / t as u64),
                    )
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::locks::{qsm::QsmLock, ticket::TicketLock};

    #[test]
    fn uncontended_latency_is_positive() {
        let ns = uncontended_ns(&QsmLock::spin(), 10_000);
        assert!(ns > 0.0 && ns < 100_000.0, "implausible latency {ns}");
    }

    #[test]
    fn contended_throughput_counts_everything() {
        let thr = contended_throughput(&TicketLock, 2, 2_000);
        assert!(thr > 0.0);
    }

    #[test]
    fn sweep_covers_registry() {
        let rows = sweep(&[1, 2], 2_000);
        assert_eq!(rows.len(), kernels::locks::all_locks().len());
        for row in &rows {
            assert!(row.uncontended_ns > 0.0, "{} zero latency", row.name);
            assert_eq!(row.throughput.len(), 2);
        }
    }
}

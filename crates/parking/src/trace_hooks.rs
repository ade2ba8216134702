//! Real-hardware trace hooks for the parking runtime.
//!
//! The simulator's tracer rides on the `memsim::Machine` it is attached
//! to; real threads have no machine, so the parking runtime records into
//! one process-global [`trace::Tracer`]. Nothing is recorded until
//! [`install`] has provided a tracer — the binaries that offer a trace
//! knob or flag call it; no library does — and the per-event cost with
//! tracing off is a single atomic load.
//!
//! Real hardware cannot name the thread a `futex_wake` will reach the way
//! the simulator can, so wake/resume events carry [`trace::NO_PID`] for
//! their counterpart, and timestamps are microseconds of monotonic time
//! since the first recorded event rather than simulated cycles.
//!
//! A thread leases one of the tracer's [`TRACE_SLOTS`] processor slots at
//! its first event and returns it when it exits, so a slot's ring has one
//! owning thread at a time — the discipline [`trace::ring`] asks for. With
//! every slot leased to a live thread, a further thread's events are
//! counted ([`dropped_events`]) instead of recorded.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use trace::{EventKind, Tracer};

/// Number of per-thread recording slots in the global tracer: the bits of
/// the lease word.
pub const TRACE_SLOTS: usize = 64;

static TRACER: OnceLock<Arc<Tracer>> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Bit `s` set: slot `s` is leased to no live thread.
static FREE_SLOTS: AtomicU64 = AtomicU64::new(u64::MAX);
/// Events of threads that found every slot leased.
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Installs an explicit tracer (sized for at least [`TRACE_SLOTS`]
/// processors). Returns `false` if one was already installed.
pub fn install(tracer: Arc<Tracer>) -> bool {
    TRACER.set(tracer).is_ok()
}

/// The installed global tracer, if any.
fn tracer() -> Option<&'static Arc<Tracer>> {
    TRACER.get()
}

/// A thread's hold on a slot, returned to the free set when the thread's
/// locals are destroyed.
struct Lease(Cell<Option<usize>>);

impl Lease {
    /// The leased slot; a thread without one asks again at every event.
    fn slot(&self) -> Option<usize> {
        if self.0.get().is_none() {
            self.0.set(claim_slot());
        }
        self.0.get()
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if let Some(slot) = self.0.get() {
            // Release: pairs with the Acquire of the claim that takes the
            // slot next, so this thread's ring writes happen before the
            // next owner's.
            FREE_SLOTS.fetch_or(1 << slot, Ordering::Release);
        }
    }
}

fn claim_slot() -> Option<usize> {
    let mut free = FREE_SLOTS.load(Ordering::Relaxed);
    while free != 0 {
        let slot = free.trailing_zeros() as usize;
        match FREE_SLOTS.compare_exchange_weak(
            free,
            free & !(1 << slot),
            Ordering::Acquire,
            Ordering::Relaxed,
        ) {
            Ok(_) => return Some(slot),
            Err(now) => free = now,
        }
    }
    None
}

/// This thread's recording slot in `0..TRACE_SLOTS`, leased until the
/// thread exits; `None` while [`TRACE_SLOTS`] other live threads hold
/// them all (or once this thread's locals are gone).
pub fn thread_slot() -> Option<usize> {
    thread_local! {
        static LEASE: Lease = const { Lease(Cell::new(None)) };
    }
    LEASE.try_with(Lease::slot).ok().flatten()
}

/// Events not recorded because their thread had no slot.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Records one event for the calling thread; no-op when tracing is off.
pub(crate) fn record(kind: EventKind) {
    if let Some(tr) = tracer() {
        match thread_slot() {
            Some(slot) => tr.record(slot, now_us(), kind),
            None => {
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::futex::{addr_of, futex_wait, futex_wake};
    use std::sync::atomic::AtomicU64;
    use std::sync::{Barrier, Mutex};
    use trace::TraceMode;

    /// The tests of this module share the process's slots: one at a time.
    static SLOTS_IN_USE: Mutex<()> = Mutex::new(());

    /// The process's tracer, installed by whichever test gets here first.
    fn installed() -> &'static Arc<Tracer> {
        install(Arc::new(Tracer::new(TraceMode::Full, TRACE_SLOTS, 1024)));
        tracer().expect("just installed")
    }

    #[test]
    fn futex_park_and_wake_are_recorded() {
        let _serial = SLOTS_IN_USE.lock().unwrap_or_else(|e| e.into_inner());
        let tracer = installed();

        static WORD: AtomicU64 = AtomicU64::new(0);
        let waiter = std::thread::spawn(|| {
            while WORD.load(Ordering::SeqCst) == 0 {
                futex_wait(&WORD, 0);
            }
        });
        while crate::futex::parked_count(&WORD) == 0 {
            std::thread::yield_now();
        }
        WORD.store(1, Ordering::SeqCst);
        futex_wake(&WORD, usize::MAX);
        waiter.join().unwrap();

        // The tracer is the whole process's: a neighbouring unit test that
        // parks records into it too. Count the events of this test's word.
        let word = addr_of(&WORD);
        let (mut parks, mut resumes, mut wakes) = (0, 0, 0);
        for event in (0..TRACE_SLOTS).flat_map(|slot| tracer.events(slot)) {
            match event.kind {
                EventKind::FutexPark { addr } if addr == word => parks += 1,
                EventKind::FutexResume { addr, .. } if addr == word => resumes += 1,
                EventKind::FutexWake { addr, .. } if addr == word => wakes += 1,
                _ => {}
            }
        }
        assert_eq!((parks, resumes), (1, 1));
        assert!(wakes >= 1);
        // Wall-clock events still export as a valid Chrome trace.
        let json = trace::chrome::export_tracer(tracer, "parking");
        trace::chrome::validate(&json).expect("real-hw trace validates");
    }

    /// More live recording threads than slots: no two share a slot, the
    /// ones left without count their events as dropped, and the slots come
    /// back when their threads exit. (Other tests of this binary park too
    /// and may hold a few slots meanwhile, hence the inequalities.)
    #[test]
    fn live_threads_never_share_a_slot() {
        const THREADS: usize = TRACE_SLOTS + 6;
        let _serial = SLOTS_IN_USE.lock().unwrap_or_else(|e| e.into_inner());
        installed();
        let dropped_before = dropped_events();
        let all_recorded = Barrier::new(THREADS);
        let slots: Vec<Option<usize>> = std::thread::scope(|s| {
            let recorders: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        record(EventKind::FutexPark { addr: 0 });
                        let slot = thread_slot();
                        all_recorded.wait(); // every lease is live at once
                        slot
                    })
                })
                .collect();
            recorders.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut leased: Vec<usize> = slots.iter().flatten().copied().collect();
        let slotless = THREADS - leased.len();
        assert!(
            slotless >= THREADS - TRACE_SLOTS,
            "{slotless} threads without a slot"
        );
        assert!(dropped_events() - dropped_before >= slotless as u64);
        leased.sort_unstable();
        leased.dedup();
        assert_eq!(
            leased.len(),
            THREADS - slotless,
            "two live threads shared a slot"
        );
        // Every lease has been returned: a second wave the size of the
        // first one's slotless remainder finds slots.
        std::thread::scope(|s| {
            let wave: Vec<_> = (0..THREADS - TRACE_SLOTS)
                .map(|_| s.spawn(thread_slot))
                .collect();
            for h in wave {
                assert!(
                    h.join().unwrap().is_some(),
                    "an exited thread's slot was not reused"
                );
            }
        });
    }
}

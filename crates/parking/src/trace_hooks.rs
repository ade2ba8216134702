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
//! since the first recorded event rather than simulated cycles. Threads
//! map onto the tracer's [`TRACE_SLOTS`] processor slots round-robin.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use trace::{EventKind, Tracer};

/// Number of per-thread recording slots in the global tracer. Threads
/// beyond this share slots (the ring discipline tolerates it only per
/// slot, so heavy oversubscription coarsens attribution, never safety:
/// slot-sharing threads interleave through the same counters and, in full
/// mode, may interleave ring writes — acceptable for wall-clock traces,
/// which are already nondeterministic).
pub const TRACE_SLOTS: usize = 64;

static TRACER: OnceLock<Arc<Tracer>> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Installs an explicit tracer (sized for at least [`TRACE_SLOTS`]
/// processors). Returns `false` if one was already installed.
pub fn install(tracer: Arc<Tracer>) -> bool {
    TRACER.set(tracer).is_ok()
}

/// The installed global tracer, if any.
pub fn tracer() -> Option<&'static Arc<Tracer>> {
    TRACER.get()
}

/// This thread's recording slot in `0..TRACE_SLOTS`.
pub fn thread_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % TRACE_SLOTS;
    }
    SLOT.with(|s| *s)
}

fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Records one event for the calling thread; no-op when tracing is off.
pub(crate) fn record(kind: EventKind) {
    if let Some(tr) = tracer() {
        tr.record(thread_slot(), now_us(), kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::futex::{addr_of, futex_wait, futex_wake};
    use std::sync::atomic::AtomicU64;
    use trace::TraceMode;

    #[test]
    fn futex_park_and_wake_are_recorded() {
        // First come, first served; in this test binary nothing else
        // installs a tracer, so install succeeds.
        let tracer = Arc::new(Tracer::new(TraceMode::Full, TRACE_SLOTS, 1024));
        assert!(install(Arc::clone(&tracer)), "global tracer already taken");

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
        let json = trace::chrome::export_tracer(&tracer, "parking");
        trace::chrome::validate(&json).expect("real-hw trace validates");
    }
}

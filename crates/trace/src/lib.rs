//! Event tracing for the synchronization suite.
//!
//! The repo's figures report end-of-run totals; this crate records *what
//! happened along the way* — lock acquires and handoffs, spin waits, futex
//! parks and wakes, scheduler context switches, barrier episodes — into
//! fixed-capacity per-processor rings (`ring::EventRing`) timestamped
//! with the recording substrate's clock (simulated cycles on `memsim`,
//! monotonic microseconds on real hardware).
//!
//! A [`Tracer`] belongs to what it observes: a `memsim::Machine` is handed
//! one, and so is a `parking::futex::ParkingLot` (a `service` table gives
//! its lot a small one, its flight recorder). Nothing records into a
//! process-wide tracer. Real threads have no processor number, so
//! [`Tracer::record_thread`] leases each live thread one of the tracer's
//! rings for as long as the thread lives.
//!
//! Three consumers sit on top:
//!
//! * [`histo`] — log-scaled wait/hold-time histograms per lock word
//!   (feeds `table5` and `fig10`);
//! * [`chrome`] — Chrome trace-event JSON export, one Perfetto track per
//!   processor, with waker→wakee flow arrows (`bench_sim --trace-out`,
//!   `interleave trace`);
//! * per-class event counters ([`Tracer::class_total`]).
//!
//! Tracing is opt-in and additive: a `memsim` run with no tracer attached
//! executes the identical simulated schedule — recording never costs a
//! simulated cycle, only host time, so every golden figure is
//! byte-identical with tracing on or off.
//!
//! [`json`] is the workspace's one JSON reader: every check of an emitted
//! trace, snapshot or report parses the document before it checks it.

pub mod chrome;
pub mod event;
pub mod histo;
pub mod json;
mod lease;
mod ring;

pub use event::{Event, EventClass, EventKind, NO_PID};
pub use histo::Histogram;
pub use lease::THREAD_SLOTS;

use ring::EventRing;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const N_CLASSES: usize = EventClass::ALL.len();

struct CountSet([AtomicU64; N_CLASSES]);

impl CountSet {
    fn new() -> Self {
        CountSet(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

/// The recorder handed to a machine, parking lot, or workload: one event
/// ring and one counter set per processor — or, on real threads, per
/// leased thread.
///
/// Cloning the `Arc` shares the recorder; all methods take `&self` (see
/// `ring::EventRing` for the single-writer-per-ring discipline).
pub struct Tracer {
    rings: Vec<EventRing>,
    counts: Vec<CountSet>,
    leases: Arc<lease::Leases>,
}

impl Tracer {
    /// Default per-processor ring capacity (events).
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Creates a tracer for `nprocs` processors with `capacity` events of
    /// ring per processor.
    ///
    /// # Panics
    ///
    /// If `nprocs` or `capacity` is zero.
    pub fn new(nprocs: usize, capacity: usize) -> Self {
        assert!(nprocs > 0, "Tracer needs at least one processor");
        Tracer {
            rings: (0..nprocs).map(|_| EventRing::new(capacity)).collect(),
            counts: (0..nprocs).map(|_| CountSet::new()).collect(),
            leases: lease::Leases::new(nprocs),
        }
    }

    /// A tracer with the default capacity, ready to share.
    pub fn shared(nprocs: usize) -> Arc<Self> {
        Arc::new(Tracer::new(nprocs, Self::DEFAULT_CAPACITY))
    }

    /// Number of per-processor rings.
    pub fn nprocs(&self) -> usize {
        self.rings.len()
    }

    /// Records one event for `pid` at time `t`: into its ring, and into
    /// its class's counter.
    pub fn record(&self, pid: usize, t: u64, kind: EventKind) {
        self.rings[pid].push(Event { t, kind });
        self.counts[pid].0[kind.class().index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one event for the calling thread, into the ring leased to it
    /// from its first event until it exits; a thread that finds all
    /// [`THREAD_SLOTS`] rings (or, for a smaller tracer, all
    /// [`Tracer::nprocs`]) leased to other live threads is counted in
    /// [`Tracer::unleased`] instead.
    pub fn record_thread(&self, t: u64, kind: EventKind) {
        match lease::thread_slot(&self.leases) {
            Some(pid) => self.record(pid, t, kind),
            None => _ = self.leases.unleased.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Events [`Tracer::record_thread`] could not record: their thread
    /// found every ring leased.
    pub fn unleased(&self) -> u64 {
        self.leases.unleased.load(Ordering::Relaxed)
    }

    /// Retained events for `pid`, oldest first.
    /// Exact once the traced run has quiesced; a live read may miss the
    /// oldest event (`EventRing::snapshot`).
    pub fn events(&self, pid: usize) -> Vec<Event> {
        self.rings[pid].snapshot()
    }

    /// Events lost to ring overwrite for `pid`.
    pub fn dropped(&self, pid: usize) -> usize {
        self.rings[pid].dropped()
    }

    /// Per-processor ring capacity, in events.
    pub fn capacity(&self) -> usize {
        self.rings[0].capacity()
    }

    /// Per-processor count of events in `class`.
    pub(crate) fn count(&self, pid: usize, class: EventClass) -> u64 {
        self.counts[pid].0[class.index()].load(Ordering::Relaxed)
    }

    /// Machine-wide count of events in `class`.
    pub fn class_total(&self, class: EventClass) -> u64 {
        (0..self.nprocs()).map(|pid| self.count(pid, class)).sum()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("nprocs", &self.nprocs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_stores_events_and_counts() {
        let t = Tracer::new(2, 16);
        t.record(0, 5, EventKind::FutexPark { addr: 9 });
        t.record(1, 7, EventKind::FutexWake { addr: 9, wakee: 0 });
        assert_eq!(t.events(0).len(), 1);
        assert_eq!(t.events(0)[0].t, 5);
        assert_eq!(t.count(0, EventClass::FutexPark), 1);
        assert_eq!(t.class_total(EventClass::FutexWake), 1);
        assert_eq!(t.dropped(0), 0);
    }
}

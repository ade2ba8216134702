//! Live telemetry for the lock service: always-available counters,
//! sampled latency histograms, a hot-key estimator, and a stall watchdog
//! that prints the table's flight recorder.
//!
//! The service (PRs 8–9) was a black box at runtime: `TableStats` and the
//! futex totals are only inspectable post-mortem from tests. This module
//! makes the live process answer the operator questions — *which keys are
//! hot, how long do waiters wait, is anything stuck?* — at a cost low
//! enough to leave on in production:
//!
//! - **Counters** ([`ServiceMetrics`]) — cache-line-padded stripes of
//!   relaxed atomics (acquires, fast-path vs parked acquisitions, post-wake
//!   spin wins, contended CAS retries, semaphore grants/abandons,
//!   cancellations, slot recycles). A writer picks its stripe by masking
//!   its shard index, so the default 256 shards fold four to a stripe:
//!   writers on different shards *usually* hit different lines, and two
//!   that collide still only share relaxed increments.
//!   [`ServiceMetrics::snapshot`] aggregates them lock-free into a
//!   [`MetricsSnapshot`], beside which the service handle reports the spin
//!   budget its lot has calibrated (`park_cost_ns`).
//! - **Sampled latency** — in `sampled:<N>` mode, one in `N` operations
//!   per stripe timestamps its wait (and mutex holds) and records
//!   nanoseconds into the log2-bucketed [`trace::Histogram`], one
//!   histogram per primitive ([`Primitive`]). Sampling bounds the cost:
//!   the un-sampled path pays one relaxed `fetch_add` on its stripe.
//! - **Hot keys** — a small space-saving summary fed by sampled
//!   *contended* acquisitions: under a Zipf workload the head keys
//!   surface after a handful of samples, and the sketch is O(capacity)
//!   memory regardless of key population.
//! - **Flight recorder** — not this module's: unless the mode is `off`,
//!   the table's parking lot records its parks, wake dequeues and resumes
//!   (microsecond timestamps, word addresses) into a small
//!   [`trace::Tracer`] of its own ([`crate::table`]). Recording happens
//!   only on paths that already park or take a bucket lock, so the hot
//!   path never touches a ring.
//! - **Stall watchdog** ([`StallWatchdog`]) — flags a waiter parked
//!   beyond a threshold (via [`parking::futex::ParkingLot::oldest_parked_age`])
//!   and dumps the table state and the lot's newest recorded events to
//!   stderr **once** instead of hanging silently. A false positive
//!   requires a single waiter to stay continuously parked past the
//!   threshold — slow-but-live
//!   workloads whose waiters turn over reset the age every park, so the
//!   threshold is a bound on *individual* wait time, not throughput.
//!
//! The mode is `off`, `counters` (the default) or `sampled:<N>`
//! ([`MetricsMode::parse`]), always passed in by the caller. `off`
//! compiles every instrumentation call down to one predictable branch on
//! an immutable field — no atomics, no timestamps — and builds the table
//! no flight recorder, which is what lets
//! `table7_metrics_overhead` demand byte-identical behaviour with the
//! layer disabled.
//!
//! Exporters: [`prometheus`] (text exposition, with a line-based
//! validator) and [`json`] (one field per line, whose validator parses the
//! snapshot with `trace::json` before it checks the keys), so CI can reject
//! malformed output.

use crate::table::TableStats;
use parking::futex::FutexTotals;
use parking::CachePadded;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use trace::{EventKind, Histogram};

/// Counter stripes per [`ServiceMetrics`] (power of two). Shards map onto
/// stripes by mask; 64 stripes keep 64 concurrent writers on distinct
/// cache lines while costing ~8 KiB per service instance.
const STRIPES: usize = 64;

/// Hot-key sketch capacity (space-saving summary size).
const HOT_KEYS: usize = 16;

/// What the telemetry layer records; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsMode {
    /// No recording at all: every instrumentation call is one branch.
    Off,
    /// Striped counters and the table's flight recorder; no sampled
    /// timestamps.
    #[default]
    Counters,
    /// Counters plus 1-in-`N` sampled wait/hold histograms and the
    /// hot-key sketch.
    Sampled(u64),
}

impl MetricsMode {
    /// The knob spelling of this mode (`off`, `counters`, `sampled:N`).
    pub fn label(&self) -> String {
        match self {
            MetricsMode::Off => "off".to_string(),
            MetricsMode::Counters => "counters".to_string(),
            MetricsMode::Sampled(n) => format!("sampled:{n}"),
        }
    }

    /// Parses a mode spelling, the inverse of [`MetricsMode::label`]:
    /// `off`, `counters`, or `sampled:<N>` with `N >= 1` (`sampled:1`
    /// records every operation). Anything else is an error.
    pub fn parse(raw: &str) -> Result<MetricsMode, String> {
        match raw.trim() {
            "off" => Ok(MetricsMode::Off),
            "counters" => Ok(MetricsMode::Counters),
            other => match other.strip_prefix("sampled:").map(str::parse::<u64>) {
                Some(Ok(0)) => Err("the sample period must be at least 1".to_string()),
                Some(Ok(n)) => Ok(MetricsMode::Sampled(n)),
                Some(Err(_)) => Err("the sample period is not a number".to_string()),
                None => Err(String::new()),
            },
        }
    }
}

/// Which wait distribution a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primitive {
    /// Blocking per-key mutex waits.
    Mutex,
    /// Eventcount `await_at_least` waits.
    EventCount,
    /// Barrier round waits.
    Barrier,
    /// Semaphore acquire waits (blocking and async share one stream).
    Semaphore,
    /// Async mutex-future waits (`AsyncLockService::lock`).
    AsyncMutex,
}

impl Primitive {
    /// Every primitive, in export order.
    pub const ALL: [Primitive; 5] = [
        Primitive::Mutex,
        Primitive::EventCount,
        Primitive::Barrier,
        Primitive::Semaphore,
        Primitive::AsyncMutex,
    ];

    /// Stable export label.
    pub fn label(self) -> &'static str {
        match self {
            Primitive::Mutex => "mutex",
            Primitive::EventCount => "eventcount",
            Primitive::Barrier => "barrier",
            Primitive::Semaphore => "semaphore",
            Primitive::AsyncMutex => "async",
        }
    }

    fn idx(self) -> usize {
        match self {
            Primitive::Mutex => 0,
            Primitive::EventCount => 1,
            Primitive::Barrier => 2,
            Primitive::Semaphore => 3,
            Primitive::AsyncMutex => 4,
        }
    }
}

/// One cache-padded stripe of counters. All increments are `Relaxed`:
/// the counters are statistics, not synchronization, and a snapshot is
/// only exact at quiescent points (like the futex totals).
#[derive(Default)]
struct CounterBlock {
    acquires: AtomicU64,
    /// Non-fast acquisitions. The *fast-path* count the snapshot reports
    /// is derived as `acquires - slow`, so the uncontended path — the one
    /// whose cost `counters` mode's overhead budget is really about (see
    /// `tests/service_metrics.rs`) — pays exactly one relaxed increment,
    /// not two.
    slow: AtomicU64,
    parked: AtomicU64,
    cas_retries: AtomicU64,
    sem_grants: AtomicU64,
    sem_abandons: AtomicU64,
    cancellations: AtomicU64,
    slot_recycles: AtomicU64,
    /// Sampling tick (one per candidate operation in `sampled` mode).
    tick: AtomicU64,
    /// Parked acquisitions won in the spin that follows a wake. Last, so
    /// the counters every uncontended round trip bumps (`acquires`,
    /// `slot_recycles`) stay within the block's first 64 bytes.
    respin_wins: AtomicU64,
}

/// Space-saving top-K sketch: at most `HOT_KEYS` tracked keys; an
/// untracked key evicts the current minimum and inherits its count + 1
/// (the classic overcount bound: a reported count exceeds the true count
/// by at most the evicted minimum).
#[derive(Default)]
struct SpaceSaving {
    entries: Vec<(u64, u64)>,
}

impl SpaceSaving {
    fn touch(&mut self, key: u64) {
        if let Some(entry) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            entry.1 += 1;
            return;
        }
        if self.entries.len() < HOT_KEYS {
            self.entries.push((key, 1));
            return;
        }
        let min = self
            .entries
            .iter_mut()
            .min_by_key(|(_, c)| *c)
            .expect("sketch is non-empty at capacity");
        *min = (key, min.1 + 1);
    }

    /// Tracked keys, hottest first (ties broken by key for determinism).
    fn top(&self) -> Vec<(u64, u64)> {
        let mut out = self.entries.clone();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// Sampled latency histograms, all in nanoseconds.
#[derive(Default)]
struct LatencyHists {
    wait: [Histogram; 5],
    hold: Histogram,
}

/// The live telemetry instance; see the module docs. One per
/// [`crate::table::ShardedTable`] (reachable from every `SlotRef` at zero
/// cost), shared by the semaphores [`crate::LockService::semaphore`]
/// builds.
pub struct ServiceMetrics {
    mode: MetricsMode,
    stripes: Box<[CachePadded<CounterBlock>]>,
    mask: usize,
    hists: Mutex<LatencyHists>,
    hot: Mutex<SpaceSaving>,
}

impl ServiceMetrics {
    /// A metrics instance in the given mode.
    pub fn new(mode: MetricsMode) -> Self {
        ServiceMetrics {
            mode,
            stripes: (0..STRIPES).map(|_| CachePadded::new(CounterBlock::default())).collect(),
            mask: STRIPES - 1,
            hists: Mutex::new(LatencyHists::default()),
            hot: Mutex::new(SpaceSaving::default()),
        }
    }

    /// The mode this instance records in.
    pub fn mode(&self) -> MetricsMode {
        self.mode
    }

    #[inline]
    fn off(&self) -> bool {
        matches!(self.mode, MetricsMode::Off)
    }

    #[inline]
    fn block(&self, stripe: usize) -> &CounterBlock {
        &self.stripes[stripe & self.mask]
    }

    /// Counts one mutex acquisition. `fast` is the one-CAS fast path,
    /// `parked` means at least one park preceded the acquisition; an
    /// acquisition that is neither won during the spin phase.
    #[inline]
    pub(crate) fn count_acquire(&self, stripe: usize, fast: bool, parked: bool) {
        if self.off() {
            return;
        }
        let b = self.block(stripe);
        b.acquires.fetch_add(1, Ordering::Relaxed);
        if !fast {
            b.slow.fetch_add(1, Ordering::Relaxed);
            if parked {
                b.parked.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Counts one acquisition (already counted as parked) that a woken
    /// waiter won while spinning, instead of parking a second time.
    #[inline]
    pub(crate) fn count_respin_win(&self, stripe: usize) {
        if self.off() {
            return;
        }
        self.block(stripe).respin_wins.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts failed CASes of a contended acquire loop.
    #[inline]
    pub(crate) fn count_cas_retries(&self, stripe: usize, n: u64) {
        if self.off() || n == 0 {
            return;
        }
        self.block(stripe).cas_retries.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts semaphore grants that reached waiters.
    #[inline]
    pub(crate) fn count_sem_grants(&self, stripe: usize, n: u64) {
        if self.off() || n == 0 {
            return;
        }
        self.block(stripe).sem_grants.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one abandoned semaphore ticket (cancelled before its grant
    /// was published).
    #[inline]
    pub(crate) fn count_sem_abandon(&self, stripe: usize) {
        if self.off() {
            return;
        }
        self.block(stripe).sem_abandons.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one cancelled future (any primitive) that was parked when
    /// dropped.
    #[inline]
    pub(crate) fn count_cancellation(&self, stripe: usize) {
        if self.off() {
            return;
        }
        self.block(stripe).cancellations.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one slot recycled to the free list.
    #[inline]
    pub(crate) fn count_slot_recycle(&self, stripe: usize) {
        if self.off() {
            return;
        }
        self.block(stripe).slot_recycles.fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a sampled timing measurement: `Some(now)` on the 1-in-`N`
    /// tick in `sampled:<N>` mode, `None` otherwise. The un-sampled cost
    /// is a relaxed `fetch_add` on the caller's stripe.
    #[inline]
    pub(crate) fn wait_timer(&self, stripe: usize) -> Option<Instant> {
        let MetricsMode::Sampled(n) = self.mode else {
            return None;
        };
        let t = self.block(stripe).tick.fetch_add(1, Ordering::Relaxed);
        t.is_multiple_of(n).then(Instant::now)
    }

    /// Finishes a sampled wait measurement into `primitive`'s histogram.
    #[inline]
    pub(crate) fn record_wait(&self, primitive: Primitive, started: Option<Instant>) {
        if let Some(t0) = started {
            let ns = t0.elapsed().as_nanos() as u64;
            self.hists.lock().unwrap().wait[primitive.idx()].record(ns);
        }
    }

    /// Finishes a sampled mutex-hold measurement.
    #[inline]
    pub(crate) fn record_hold(&self, started: Option<Instant>) {
        if let Some(t0) = started {
            let ns = t0.elapsed().as_nanos() as u64;
            self.hists.lock().unwrap().hold.record(ns);
        }
    }

    /// Feeds the hot-key sketch; callers gate this on a sampled contended
    /// acquisition (i.e. [`ServiceMetrics::wait_timer`] returned `Some`),
    /// so the sketch mutex is taken at the sampling rate, not per
    /// operation.
    #[inline]
    pub(crate) fn note_hot_key(&self, key: u64) {
        self.hot.lock().unwrap().touch(key);
    }

    /// Aggregates every stripe lock-free into a [`MetricsSnapshot`]. The
    /// histograms and the hot-key sketch are cloned under their (cold)
    /// mutexes; the counters are relaxed loads.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            mode: self.mode,
            acquires: 0,
            fast_path: 0,
            parked: 0,
            respin_wins: 0,
            cas_retries: 0,
            sem_grants: 0,
            sem_abandons: 0,
            cancellations: 0,
            slot_recycles: 0,
            wait: Default::default(),
            hold_mutex: Histogram::new(),
            hot_keys: Vec::new(),
            table: None,
            futex: None,
            park_cost_ns: None,
        };
        let mut slow = 0u64;
        for stripe in self.stripes.iter() {
            // Load `slow` before `acquires` within each stripe: a slow
            // acquisition bumps `acquires` first, so this order biases
            // the derived fast-path count low (never phantom-high) while
            // writers are in flight.
            slow += stripe.slow.load(Ordering::Relaxed);
            snap.acquires += stripe.acquires.load(Ordering::Relaxed);
            snap.parked += stripe.parked.load(Ordering::Relaxed);
            snap.respin_wins += stripe.respin_wins.load(Ordering::Relaxed);
            snap.cas_retries += stripe.cas_retries.load(Ordering::Relaxed);
            snap.sem_grants += stripe.sem_grants.load(Ordering::Relaxed);
            snap.sem_abandons += stripe.sem_abandons.load(Ordering::Relaxed);
            snap.cancellations += stripe.cancellations.load(Ordering::Relaxed);
            snap.slot_recycles += stripe.slot_recycles.load(Ordering::Relaxed);
        }
        snap.fast_path = snap.acquires.saturating_sub(slow);
        {
            let hists = self.hists.lock().unwrap();
            snap.wait = hists.wait.clone();
            snap.hold_mutex = hists.hold.clone();
        }
        snap.hot_keys = self.hot.lock().unwrap().top();
        snap
    }
}

/// A point-in-time aggregation of a [`ServiceMetrics`]; exact at
/// quiescent points, monotone under concurrent writers (each counter only
/// grows). `table`, `futex` and `park_cost_ns` are filled by
/// [`crate::LockService::metrics_snapshot`], which can see the table.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Mode the instance records in.
    pub mode: MetricsMode,
    /// Mutex acquisitions (sync + async).
    pub acquires: u64,
    /// Acquisitions won by the first CAS. Derived at snapshot time as
    /// `acquires - slow` (the fast path pays one increment, not two), so
    /// it is exact at quiescence but may transiently dip while writers
    /// are mid-acquisition — [`MetricsSnapshot::monotone_since`]
    /// deliberately excludes it.
    pub fast_path: u64,
    /// Acquisitions that parked at least once first.
    pub parked: u64,
    /// Parked acquisitions won in the spin after a wake (a subset of
    /// `parked`): the waiter found the word re-taken by a barger and
    /// outlasted that hold instead of parking again.
    pub respin_wins: u64,
    /// Failed CAS attempts in contended acquire loops.
    pub cas_retries: u64,
    /// Semaphore grants that reached waiters.
    pub sem_grants: u64,
    /// Semaphore tickets abandoned by cancelled futures.
    pub sem_abandons: u64,
    /// Futures dropped while parked (all primitives).
    pub cancellations: u64,
    /// Slots recycled to shard free lists.
    pub slot_recycles: u64,
    /// Sampled wait histograms (ns), indexed like [`Primitive::ALL`].
    pub wait: [Histogram; 5],
    /// Sampled mutex hold histogram (ns).
    pub hold_mutex: Histogram,
    /// Hot-key sketch contents, hottest first.
    pub hot_keys: Vec<(u64, u64)>,
    /// Table occupancy, when snapshotted through a service handle.
    pub table: Option<TableStats>,
    /// The service's lot-local futex ledger, when snapshotted through a
    /// service handle.
    pub futex: Option<FutexTotals>,
    /// The spin budget the service's lot has calibrated
    /// ([`parking::futex::ParkingLot::park_cost`], ns) — a gauge, not a
    /// counter — when snapshotted through a service handle.
    pub park_cost_ns: Option<u64>,
}

impl MetricsSnapshot {
    /// The wait histogram of one primitive.
    pub fn wait_of(&self, primitive: Primitive) -> &Histogram {
        &self.wait[primitive.idx()]
    }

    /// Total sampled wait observations across primitives.
    pub fn wait_samples(&self) -> u64 {
        self.wait.iter().map(|h| h.count()).sum()
    }

    /// The nine counters under their exported names, in export order
    /// (the Prometheus families' and the JSON snapshot's).
    fn counters(&self) -> [(&'static str, u64); 9] {
        [
            ("acquires", self.acquires),
            ("fast_path", self.fast_path),
            ("parked", self.parked),
            ("respin_wins", self.respin_wins),
            ("cas_retries", self.cas_retries),
            ("sem_grants", self.sem_grants),
            ("sem_abandons", self.sem_abandons),
            ("cancellations", self.cancellations),
            ("slot_recycles", self.slot_recycles),
        ]
    }

    /// True when every counter of `self` is `>=` its counterpart in
    /// `earlier` — the monotonicity the reader-vs-writers stress test
    /// asserts. `fast_path` is excluded: it is derived from two counters
    /// read at different instants, so only the underlying `acquires` is
    /// guaranteed monotone mid-flight.
    pub fn monotone_since(&self, earlier: &MetricsSnapshot) -> bool {
        self.acquires >= earlier.acquires
            && self.parked >= earlier.parked
            && self.respin_wins >= earlier.respin_wins
            && self.cas_retries >= earlier.cas_retries
            && self.sem_grants >= earlier.sem_grants
            && self.sem_abandons >= earlier.sem_abandons
            && self.cancellations >= earlier.cancellations
            && self.slot_recycles >= earlier.slot_recycles
    }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Prometheus-style text exposition of a snapshot. Families are always
/// emitted (zero-valued when empty) so scrapes have a stable shape; the
/// hot-key gauge is the one variable-length family.
pub fn prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# TYPE syncmech_service_mode gauge");
    let _ = writeln!(
        out,
        "syncmech_service_mode{{mode=\"{}\"}} 1",
        snap.mode.label()
    );
    for (name, value) in snap.counters() {
        let _ = writeln!(out, "# TYPE syncmech_service_{name}_total counter");
        let _ = writeln!(out, "syncmech_service_{name}_total {value}");
    }
    let _ = writeln!(out, "# TYPE syncmech_service_wait_samples_total counter");
    for p in Primitive::ALL {
        let _ = writeln!(
            out,
            "syncmech_service_wait_samples_total{{primitive=\"{}\"}} {}",
            p.label(),
            snap.wait_of(p).count()
        );
    }
    let _ = writeln!(out, "# TYPE syncmech_service_wait_ns gauge");
    for p in Primitive::ALL {
        let h = snap.wait_of(p);
        for (q, v) in [
            ("0.5", h.quantile(0.5)),
            ("0.99", h.quantile(0.99)),
            ("max", h.max()),
        ] {
            let _ = writeln!(
                out,
                "syncmech_service_wait_ns{{primitive=\"{}\",quantile=\"{q}\"}} {v}",
                p.label()
            );
        }
    }
    let _ = writeln!(out, "# TYPE syncmech_service_hold_samples_total counter");
    let _ = writeln!(
        out,
        "syncmech_service_hold_samples_total {}",
        snap.hold_mutex.count()
    );
    let _ = writeln!(out, "# TYPE syncmech_service_hold_ns gauge");
    for (q, v) in [
        ("0.5", snap.hold_mutex.quantile(0.5)),
        ("0.99", snap.hold_mutex.quantile(0.99)),
        ("max", snap.hold_mutex.max()),
    ] {
        let _ = writeln!(out, "syncmech_service_hold_ns{{quantile=\"{q}\"}} {v}");
    }
    if !snap.hot_keys.is_empty() {
        let _ = writeln!(out, "# TYPE syncmech_service_hot_key gauge");
        for (rank, (key, count)) in snap.hot_keys.iter().enumerate() {
            let _ = writeln!(
                out,
                "syncmech_service_hot_key{{rank=\"{}\",key=\"{key}\"}} {count}",
                rank + 1
            );
        }
    }
    if let Some(table) = &snap.table {
        let _ = writeln!(out, "# TYPE syncmech_service_table gauge");
        for (field, value) in [
            ("live", table.live as u64),
            ("peak_live", table.peak_live as u64),
            ("capacity", table.capacity as u64),
            ("reuses", table.reuses),
        ] {
            let _ = writeln!(out, "syncmech_service_table{{stat=\"{field}\"}} {value}");
        }
    }
    if let Some(futex) = &snap.futex {
        let _ = writeln!(out, "# TYPE syncmech_service_futex_total counter");
        for (field, value) in [
            ("parks", futex.parks),
            ("wakes", futex.wakes),
            ("resumes", futex.resumes),
        ] {
            let _ = writeln!(out, "syncmech_service_futex_total{{event=\"{field}\"}} {value}");
        }
    }
    if let Some(ns) = snap.park_cost_ns {
        let _ = writeln!(out, "# TYPE syncmech_service_park_cost_ns gauge");
        let _ = writeln!(out, "syncmech_service_park_cost_ns {ns}");
    }
    out
}

/// Statistics from a successful [`validate_prometheus`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromStats {
    /// Declared metric families (`# TYPE` lines).
    pub families: usize,
    /// Sample lines.
    pub samples: usize,
}

/// Line-based validator for [`prometheus`] output: every line must be a
/// well-formed `# TYPE`
/// declaration or a `name[{labels}] value` sample of a declared family
/// with an integer value, and every declared family must have at least
/// one sample.
pub fn validate_prometheus(text: &str) -> Result<PromStats, String> {
    if text.is_empty() {
        return Err("empty exposition".to_string());
    }
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".to_string());
    }
    let mut declared: Vec<(String, usize)> = Vec::new();
    let mut samples = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            return Err(format!("line {lineno}: empty line"));
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut parts = rest.split_whitespace();
            if parts.next() != Some("TYPE") {
                return Err(format!(
                    "line {lineno}: only '# TYPE' comments are allowed: {line:?}"
                ));
            }
            let Some(name) = parts.next() else {
                return Err(format!("line {lineno}: '# TYPE' without a family name"));
            };
            match parts.next() {
                Some("counter") | Some("gauge") => {}
                other => {
                    return Err(format!(
                        "line {lineno}: family {name} has kind {other:?}, want counter or gauge"
                    ));
                }
            }
            if declared.iter().any(|(n, _)| n == name) {
                return Err(format!("line {lineno}: family {name} declared twice"));
            }
            declared.push((name.to_string(), 0));
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: sample without a value: {line:?}"))?;
        value
            .parse::<u64>()
            .map_err(|_| format!("line {lineno}: value {value:?} is not an integer"))?;
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                let Some(labels) = labels.strip_suffix('}') else {
                    return Err(format!("line {lineno}: unterminated label set: {line:?}"));
                };
                for pair in labels.split(',') {
                    let Some((k, v)) = pair.split_once('=') else {
                        return Err(format!("line {lineno}: malformed label {pair:?}"));
                    };
                    if k.is_empty() || !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                        return Err(format!("line {lineno}: malformed label {pair:?}"));
                    }
                }
                name
            }
            None => series,
        };
        let family = declared
            .iter_mut()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("line {lineno}: sample for undeclared family {name:?}"))?;
        family.1 += 1;
        samples += 1;
    }
    for (name, count) in &declared {
        if *count == 0 {
            return Err(format!("family {name} declared but has no samples"));
        }
    }
    Ok(PromStats {
        families: declared.len(),
        samples,
    })
}

fn json_hist(h: &Histogram) -> String {
    format!(
        "{{\"samples\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
        h.count(),
        h.quantile(0.5),
        h.quantile(0.99),
        h.max()
    )
}

/// The schema tag of a [`json`] snapshot.
const JSON_SCHEMA: &str = "syncmech-service-metrics/v1";

/// JSON snapshot: one field per line (the `bench_sim` convention), always
/// the same field set so downstream tooling can diff snapshots.
pub fn json(snap: &MetricsSnapshot) -> String {
    let mut fields: Vec<String> = vec![
        format!("\"schema\": \"{JSON_SCHEMA}\""),
        format!("\"mode\": \"{}\"", snap.mode.label()),
    ];
    for (name, value) in snap.counters() {
        fields.push(format!("\"{name}\": {value}"));
    }
    for p in Primitive::ALL {
        fields.push(format!(
            "\"wait_{}\": {}",
            p.label(),
            json_hist(snap.wait_of(p))
        ));
    }
    fields.push(format!("\"hold_mutex\": {}", json_hist(&snap.hold_mutex)));
    let hot: Vec<String> = snap
        .hot_keys
        .iter()
        .map(|(k, c)| format!("{{\"key\": {k}, \"count\": {c}}}"))
        .collect();
    fields.push(format!("\"hot_keys\": [{}]", hot.join(", ")));
    if let Some(t) = &snap.table {
        fields.push(format!(
            "\"table\": {{\"live\": {}, \"peak_live\": {}, \"capacity\": {}, \"reuses\": {}}}",
            t.live, t.peak_live, t.capacity, t.reuses
        ));
    }
    if let Some(f) = &snap.futex {
        fields.push(format!(
            "\"futex\": {{\"parks\": {}, \"wakes\": {}, \"resumes\": {}}}",
            f.parks, f.wakes, f.resumes
        ));
    }
    if let Some(ns) = snap.park_cost_ns {
        fields.push(format!("\"park_cost_ns\": {ns}"));
    }
    let mut out = String::from("{\n");
    for (i, field) in fields.iter().enumerate() {
        out.push_str("  ");
        out.push_str(field);
        if i + 1 < fields.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

/// Statistics from a successful [`validate_json`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonStats {
    /// Top-level fields.
    pub fields: usize,
}

/// Required top-level keys of a [`json`] snapshot, in order.
const JSON_REQUIRED: &[&str] = &[
    "schema",
    "mode",
    "acquires",
    "fast_path",
    "parked",
    "respin_wins",
    "cas_retries",
    "sem_grants",
    "sem_abandons",
    "cancellations",
    "slot_recycles",
    "wait_mutex",
    "wait_eventcount",
    "wait_barrier",
    "wait_semaphore",
    "wait_async",
    "hold_mutex",
    "hot_keys",
];

/// Validator for [`json`] output: the text must parse
/// ([`trace::json::parse`], which also rejects a duplicate key) to an
/// object carrying the schema tag and every required key. Layout and key
/// order do not matter.
pub fn validate_json(text: &str) -> Result<JsonStats, String> {
    let doc = trace::json::parse(text)?;
    let trace::json::Value::Obj(members) = &doc else {
        return Err("a snapshot must be a JSON object".to_string());
    };
    let fields = members.len();
    if doc.get("schema") != Some(&trace::json::Value::Str(JSON_SCHEMA.to_string())) {
        return Err(format!("\"schema\" is not {JSON_SCHEMA:?}"));
    }
    match JSON_REQUIRED.iter().find(|key| doc.get(key).is_none()) {
        Some(key) => Err(format!("missing required key {key:?}")),
        None => Ok(JsonStats { fields }),
    }
}

// ---------------------------------------------------------------------------
// Stall watchdog
// ---------------------------------------------------------------------------

/// Events of the lot's flight recorder a [`StallWatchdog::report`] prints.
const TAIL_EVENTS: usize = 32;

/// Flags waiters parked beyond a threshold and dumps diagnostic state to
/// stderr **once** — the "why is my request hung" answer a production
/// service owes its operator. See the module docs for the false-positive
/// bound.
pub struct StallWatchdog {
    threshold: Duration,
    fired: AtomicBool,
}

impl StallWatchdog {
    /// A watchdog that fires once a waiter has been parked for at least
    /// `threshold`.
    pub fn new(threshold: Duration) -> Self {
        StallWatchdog {
            threshold,
            fired: AtomicBool::new(false),
        }
    }

    /// Whether the watchdog has fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// Polls the service for a stalled waiter. Returns `true` (and dumps
    /// the report to stderr) the first time a waiter's park age exceeds
    /// the threshold; every later call returns `false`. Call this at
    /// watchdog cadence (a monitor thread every few milliseconds), not per
    /// operation — the age scan walks the lot's buckets.
    pub fn check(&self, svc: &crate::LockService) -> bool {
        if self.fired() {
            return false;
        }
        let Some(age) = svc.table().lot().oldest_parked_age() else {
            return false;
        };
        if age < self.threshold || self.fired.swap(true, Ordering::SeqCst) {
            return false;
        }
        eprintln!("{}", self.report(svc, age));
        true
    }

    /// The dump [`StallWatchdog::check`] prints: oldest park age, table
    /// occupancy, the lot-local futex ledger, the calibrated spin budget,
    /// the parked-waiter roster, and the newest 32 events the lot recorded,
    /// across all of its rings in timestamp order. Public so tests can
    /// assert on its content without capturing stderr.
    pub fn report(&self, svc: &crate::LockService, age: Duration) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "stall watchdog: waiter parked for {age:?} (threshold {:?})",
            self.threshold
        );
        let stats = svc.stats();
        let _ = writeln!(
            out,
            "  table: shards={} live={} peak_live={} capacity={} reuses={}",
            stats.shards, stats.live, stats.peak_live, stats.capacity, stats.reuses
        );
        let totals = svc.table().lot().totals();
        let _ = writeln!(
            out,
            "  futex(lot): parks={} wakes={} resumes={}",
            totals.parks, totals.wakes, totals.resumes
        );
        let _ = writeln!(
            out,
            "  spin: park_cost={:?} respin_wins={}",
            svc.table().lot().park_cost(),
            svc.metrics().snapshot().respin_wins
        );
        let parked = svc.table().lot().parked_waiters();
        for w in parked.iter().take(16) {
            let _ = writeln!(
                out,
                "  parked: addr={:#x} tag={} age={:?} kind={}",
                w.addr,
                w.tag.map_or_else(|| "-".to_string(), |tag| tag.to_string()),
                w.age,
                if w.is_task { "task" } else { "thread" }
            );
        }
        if parked.len() > 16 {
            let _ = writeln!(out, "  parked: ... and {} more", parked.len() - 16);
        }
        if let Some(tracer) = svc.table().lot().tracer() {
            let mut events: Vec<_> = (0..tracer.nprocs())
                .flat_map(|pid| {
                    tracer
                        .events(pid)
                        .into_iter()
                        .map(move |ev| (ev.t, pid, ev.kind))
                })
                .collect();
            // Stable: a ring's events that share a microsecond keep their order.
            events.sort_by_key(|&(t, _, _)| t);
            for &(t, pid, kind) in &events[events.len().saturating_sub(TAIL_EVENTS)..] {
                let (EventKind::FutexPark { addr }
                | EventKind::FutexWake { addr, .. }
                | EventKind::FutexResume { addr, .. }) = kind
                else {
                    continue;
                };
                let _ = writeln!(
                    out,
                    "  recent[p{pid}]: t={t}us {} addr={addr:#x}",
                    kind.class().name()
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels_round_trip_and_garbage_is_rejected() {
        for mode in [
            MetricsMode::Off,
            MetricsMode::Counters,
            MetricsMode::Sampled(1),
            MetricsMode::Sampled(64),
        ] {
            assert_eq!(MetricsMode::parse(&mode.label()), Ok(mode));
        }
        assert_eq!(MetricsMode::parse(" counters "), Ok(MetricsMode::Counters));
        assert!(MetricsMode::parse("sampled:0")
            .unwrap_err()
            .contains("at least 1"));
        for raw in ["on", "1", "sampled", "sampled:", "sampled:x", ""] {
            assert!(MetricsMode::parse(raw).is_err(), "{raw:?}");
        }
    }

    #[test]
    fn off_mode_records_nothing() {
        let m = ServiceMetrics::new(MetricsMode::Off);
        m.count_acquire(0, true, false);
        m.count_cas_retries(1, 1);
        m.count_respin_win(1);
        m.count_sem_grants(2, 5);
        m.count_cancellation(3);
        m.count_slot_recycle(4);
        assert!(m.wait_timer(0).is_none());
        let snap = m.snapshot();
        assert_eq!(snap.acquires, 0);
        assert_eq!(snap.cas_retries, 0);
        assert_eq!(snap.respin_wins, 0);
        assert_eq!(snap.sem_grants, 0);
        assert_eq!(snap.cancellations, 0);
        assert_eq!(snap.slot_recycles, 0);
    }

    #[test]
    fn counters_aggregate_across_stripes() {
        let m = ServiceMetrics::new(MetricsMode::Counters);
        for stripe in 0..STRIPES * 2 {
            m.count_acquire(stripe, stripe % 2 == 0, stripe % 2 == 1);
        }
        m.count_sem_grants(7, 3);
        m.count_sem_abandon(9);
        let snap = m.snapshot();
        assert_eq!(snap.acquires, (STRIPES * 2) as u64);
        assert_eq!(snap.fast_path, STRIPES as u64);
        assert_eq!(snap.parked, STRIPES as u64);
        assert_eq!(snap.sem_grants, 3);
        assert_eq!(snap.sem_abandons, 1);
        // Counters mode samples nothing.
        assert!(m.wait_timer(0).is_none());
        assert_eq!(snap.wait_samples(), 0);
    }

    #[test]
    fn sampling_hits_one_in_n() {
        let m = ServiceMetrics::new(MetricsMode::Sampled(4));
        let hits = (0..16).filter(|_| m.wait_timer(5).is_some()).count();
        assert_eq!(hits, 4);
        m.record_wait(Primitive::Mutex, Some(Instant::now()));
        assert_eq!(m.snapshot().wait_of(Primitive::Mutex).count(), 1);
        m.record_hold(Some(Instant::now()));
        assert_eq!(m.snapshot().hold_mutex.count(), 1);
        // None is a no-op.
        m.record_wait(Primitive::Barrier, None);
        assert_eq!(m.snapshot().wait_of(Primitive::Barrier).count(), 0);
    }

    #[test]
    fn space_saving_tracks_the_head_of_a_skew() {
        let m = ServiceMetrics::new(MetricsMode::Sampled(1));
        // Key 1 is 10x hotter than the tail; the sketch must surface it
        // first even after the tail churns through the capacity.
        for round in 0..50u64 {
            for _ in 0..10 {
                m.note_hot_key(1);
            }
            m.note_hot_key(1000 + round);
        }
        let top = m.snapshot().hot_keys;
        assert!(!top.is_empty());
        assert_eq!(top[0].0, 1, "hottest key lost: {top:?}");
        assert!(top[0].1 >= 500);
        assert!(top.len() <= HOT_KEYS);
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let m = ServiceMetrics::new(MetricsMode::Sampled(1));
        m.count_acquire(0, true, false);
        m.count_acquire(1, false, true);
        m.count_respin_win(1);
        m.count_cas_retries(0, 1);
        m.count_sem_grants(0, 2);
        m.count_slot_recycle(0);
        m.record_wait(Primitive::Mutex, Some(Instant::now()));
        m.note_hot_key(7);
        m.note_hot_key(7);
        m.note_hot_key(9);
        let mut snap = m.snapshot();
        snap.table = Some(TableStats {
            shards: 4,
            live: 1,
            peak_live: 2,
            capacity: 64,
            reuses: 3,
        });
        snap.futex = Some(FutexTotals {
            parks: 5,
            wakes: 5,
            resumes: 5,
        });
        snap.park_cost_ns = Some(17_250);
        snap
    }

    #[test]
    fn prometheus_output_validates() {
        let snap = sample_snapshot();
        let text = prometheus(&snap);
        let stats = validate_prometheus(&text).expect("exposition validates");
        assert!(stats.families >= 12, "{stats:?}");
        assert!(stats.samples >= 30, "{stats:?}");
        assert!(text.contains("syncmech_service_acquires_total 2"));
        assert!(text.contains("hot_key{rank=\"1\",key=\"7\"} 2"));
        assert!(text.contains("futex_total{event=\"parks\"} 5"));
        assert!(text.contains("syncmech_service_respin_wins_total 1"));
        assert!(text.contains("syncmech_service_park_cost_ns 17250"));
    }

    #[test]
    fn prometheus_validator_rejects_malformed_lines() {
        for (text, why) in [
            ("", "empty"),
            ("syncmech_x 1\n", "undeclared family"),
            ("# TYPE a counter\na 1", "missing trailing newline"),
            ("# TYPE a counter\na one\n", "non-integer value"),
            ("# TYPE a counter\n", "family without samples"),
            ("# TYPE a counter\n# TYPE a counter\na 1\n", "redeclared"),
            ("# TYPE a histogram\na 1\n", "unknown kind"),
            ("# HELP a text\n", "non-TYPE comment"),
            ("# TYPE a counter\na{k=v} 1\n", "unquoted label"),
        ] {
            assert!(validate_prometheus(text).is_err(), "accepted {why}: {text:?}");
        }
    }

    #[test]
    fn json_output_validates() {
        use trace::json::Value;
        let mut snap = sample_snapshot();
        // Keys are 64-bit hashes: one past 2^63 must not round.
        snap.hot_keys.push((16_294_208_416_658_607_535, 1));
        let text = json(&snap);
        let stats = validate_json(&text).expect("snapshot validates");
        assert_eq!(stats.fields, JSON_REQUIRED.len() + 3); // + table + futex + park_cost_ns
        assert!(text.contains("\"acquires\": 2"));
        assert!(text.contains("\"respin_wins\": 1"));
        assert!(text.contains("\"park_cost_ns\": 17250"));
        assert!(text.contains("\"hot_keys\": [{\"key\": 7, \"count\": 2}"));
        // Parsed, the snapshot carries every counter and hot key exactly.
        let doc = trace::json::parse(&text).expect("snapshot parses");
        for (key, value) in snap.counters() {
            assert_eq!(doc.get(key), Some(&Value::Int(value)), "{key}");
        }
        let hot = snap.hot_keys.iter().map(|&(k, c)| {
            Value::Obj(vec![
                ("key".into(), Value::Int(k)),
                ("count".into(), Value::Int(c)),
            ])
        });
        assert_eq!(doc.get("hot_keys"), Some(&Value::Arr(hot.collect())));
        // The same members in reverse order on one line: valid JSON in a
        // layout `json` never prints.
        let members = text.lines().rev().filter(|l| l.starts_with("  "));
        let reordered: Vec<&str> = members.map(|m| m.trim().trim_end_matches(',')).collect();
        let reordered = format!("{{{}}}", reordered.join(", "));
        assert_eq!(validate_json(&reordered), Ok(stats));
        // Also a snapshot without the optional sections.
        let bare = ServiceMetrics::new(MetricsMode::Off).snapshot();
        let stats = validate_json(&json(&bare)).expect("bare snapshot validates");
        assert_eq!(stats.fields, JSON_REQUIRED.len());
    }

    #[test]
    fn json_validator_rejects_malformed_snapshots() {
        let good = json(&sample_snapshot());
        for (mutate, why) in [
            (good.replace("{\n", "[\n"), "bad opening"),
            (good.replace("\"acquires\": 2", "\"acquires\": x"), "bad value"),
            (good.replace("\"acquires\"", "\"acqs\""), "missing required key"),
            (
                good.replace("\"mode\": \"sampled:1\",", "\"mode\": \"sampled:1\""),
                "missing comma",
            ),
        ] {
            assert!(validate_json(&mutate).is_err(), "accepted {why}");
        }
        // Duplicate keys are rejected even when all required keys exist.
        let dup = good.replace(
            "\"fast_path\": 1",
            "\"acquires\": 2",
        );
        assert!(validate_json(&dup).is_err(), "accepted duplicate key");
    }

    #[test]
    fn snapshot_monotonicity_helper() {
        let m = ServiceMetrics::new(MetricsMode::Counters);
        let a = m.snapshot();
        m.count_acquire(0, true, false);
        let b = m.snapshot();
        assert!(b.monotone_since(&a));
        assert!(!a.monotone_since(&b));
    }
}

//! Service load generator — the data behind fig11, table6, fig12 and
//! table7.
//!
//! Two drivers share one workload shape (bursty open-loop arrivals, Zipf
//! key skew, a reader/writer hold-time mix, a bounded worker pool):
//!
//! * [`sim_load`] — a **virtual-time discrete-event queueing model** of
//!   the sharded lock service under three per-key lock policies. This is
//!   what the figures plot: like every other deterministic figure in the
//!   registry, the output must be a pure function of its configuration,
//!   which no wall-clock run of real threads can be. The model prices the
//!   *handoff* differently per policy — the thing the 1991 paper
//!   measures: QSM hands the lock to one queued waiter at constant cost;
//!   a ticket lock's release invalidates every spinner, so its handoff
//!   cost grows with the waiter count; a TAS lock additionally grants in
//!   effectively random order (the retry scramble), which is what blows
//!   up the tail percentiles rather than the mean.
//! * [`async_load_with_metrics`] — the **identical request schedule** (same generator
//!   streams) driven through the real
//!   [`service::AsyncLockService`] futures on the deterministic
//!   virtual-clock executor ([`crate::executor`]): one task per request, a
//!   [`service::WaitingArraySemaphore`] as the worker pool, and every
//!   futex wake priced at the executor's wake cost — so the async path
//!   is compared against [`sim_load`]'s QSM policy on equal footing.
//!
//! Wait in both drivers is arrival-to-grant (it includes waiting for a
//! worker and waiting for the key), hold is grant-to-release — the same
//! decomposition the `waitdist` module uses for fig10. [`Zipf`] also
//! draws the keys of the repo benchmark's rings, which time the real
//! service on real threads, and of the service's real-thread tests.

use crate::executor::{Executor, Outcome};
use crate::sweeps::{parallel_cells, RunConfig};
use std::cell::RefCell;
use simcore::Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use trace::histo::Histogram;

/// Per-key lock policy of the simulated service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockPolicy {
    /// Queue lock: FIFO grant, constant-cost handoff (one wake, one line
    /// transfer, however long the queue).
    Qsm,
    /// Ticket lock: FIFO grant, but release broadcasts to every spinner —
    /// handoff cost grows with the waiter count.
    Ticket,
    /// Test-and-set: grant order is the retry scramble (effectively
    /// random), and every handoff pays the full storm.
    Tas,
}

impl LockPolicy {
    /// The policies fig11/table6 compare, in figure order.
    pub const ALL: &'static [LockPolicy] = &[LockPolicy::Qsm, LockPolicy::Ticket, LockPolicy::Tas];

    /// Curve/row label.
    pub fn name(self) -> &'static str {
        match self {
            LockPolicy::Qsm => "qsm",
            LockPolicy::Ticket => "ticket",
            LockPolicy::Tas => "tas",
        }
    }

    /// Cycles to hand a released key to its next holder, given how many
    /// waiters are queued on the key at release time.
    fn grant_cost(self, waiters: usize) -> u64 {
        match self {
            LockPolicy::Qsm => 40,
            LockPolicy::Ticket => 30 + 12 * waiters as u64,
            LockPolicy::Tas => 30 + 25 * waiters as u64,
        }
    }

    /// Picks which waiter the released key goes to: queue position for
    /// the FIFO policies, a random one for the TAS scramble.
    fn pick(self, waiters: usize, rng: &mut Rng) -> usize {
        match self {
            LockPolicy::Qsm | LockPolicy::Ticket => 0,
            LockPolicy::Tas => rng.next_below(waiters as u64) as usize,
        }
    }
}

/// Zipf(s) sampler over ranks `0..n` via the precomputed CDF — rank 0 is
/// the hottest key. Shared by the simulated and the real driver.
///
/// A draw is exact and O(1) on average: a cutpoint ("guide") table over
/// the CDF, after Chen & Asau (1974). `guide[j]` is the first rank whose
/// CDF value is ≥ j / 2^b, for j in `0..=2^b`. A draw takes the 53-bit
/// integer `k = next_u64() >> 11`, the one `Rng::next_f64` scales to
/// `u = k / 2^53`; its bucket is `j = k >> (53 − b)`. If
/// `guide[j] == guide[j + 1]` no CDF value lies in the bucket and that
/// rank is the answer; otherwise only `cdf[guide[j]..guide[j + 1]]` is
/// searched.
///
/// The draw equals the whole-CDF search `cdf.partition_point(|c| c < u)`
/// (capped at `n − 1`) for every `u`, so it consumes the same one
/// `next_u64` and every ring and schedule built on it is unchanged. The
/// bucket edges j / 2^b are dyadic and exact in `f64`, and
/// `k >> (53 − b)` is exactly `floor(u · 2^b)`, so `u` lies in
/// `[j / 2^b, (j + 1) / 2^b)` with no rounding. The number of CDF
/// values below `u` only grows with `u`, so it lies between its values at
/// the two edges: `guide[j]` and `guide[j + 1]`.
///
/// Cost: 2^b is the power of two at or above 8·n, capped at 2^20 buckets,
/// one `u32` each, so the table is at most 4 MiB + 4 B (32·n to 64·n bytes
/// below the cap: 128 KiB at n = 4096) beside the CDF's 8·n. At most n of
/// the 2^b buckets hold a CDF value, so below the cap at most one draw in
/// eight searches, and that search covers the few ranks inside one bucket.
pub struct Zipf {
    cdf: Vec<f64>,
    guide: Vec<u32>,
    /// `53 − b`: a 53-bit draw shifted right by this is its bucket.
    shift: u32,
}

/// The guide table's cap (see [`Zipf`]): at most 2^20 buckets.
const GUIDE_MAX_BITS: u32 = 20;

impl Zipf {
    /// A sampler over `n` ranks with exponent `s` (`s = 0` is uniform).
    ///
    /// # Panics
    ///
    /// If `n` is zero.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "a Zipf sampler needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        assert!(
            n <= u32::MAX as usize,
            "a Zipf sampler's ranks must fit a u32"
        );
        let bits = (8 * n)
            .next_power_of_two()
            .trailing_zeros()
            .min(GUIDE_MAX_BITS);
        let buckets = 1usize << bits;
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut rank = 0;
        for j in 0..=buckets {
            let edge = j as f64 / buckets as f64;
            while rank < n && cdf[rank] < edge {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        Zipf {
            cdf,
            guide,
            shift: 53 - bits,
        }
    }

    /// Samples a rank.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        self.rank_of_bits(rng.next_u64() >> 11) as u64
    }

    /// The rank of the 53-bit draw `k`, that is of `u = k / 2^53`.
    fn rank_of_bits(&self, k: u64) -> usize {
        let j = (k >> self.shift) as usize;
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        let rank = if lo == hi {
            lo
        } else {
            let u = k as f64 * (1.0 / (1u64 << 53) as f64);
            lo + self.cdf[lo..hi].partition_point(|&c| c < u)
        };
        rank.min(self.cdf.len() - 1)
    }
}

/// Configuration shared by both drivers. Cycle-valued fields are virtual
/// cycles.
#[derive(Debug, Clone)]
pub struct ServiceLoadConfig {
    /// Worker pool size — the service's concurrency limit.
    pub(crate) threads: usize,
    /// Distinct logical keys.
    pub(crate) keys: usize,
    /// Zipf exponent of the key popularity (0 = uniform).
    pub(crate) zipf_s: f64,
    /// Total requests to issue.
    pub(crate) requests: usize,
    /// Mean gap between arrival *bursts*, in cycles (exponential).
    pub mean_gap: u64,
    /// Max burst size: each burst carries `1..=max_burst` back-to-back
    /// arrivals.
    pub(crate) max_burst: usize,
    /// Fraction of requests that are reads (short holds).
    pub(crate) read_fraction: f64,
    /// Mean hold for a read request, cycles (exponential).
    pub(crate) read_hold: u64,
    /// Mean hold for a write request, cycles (exponential).
    pub(crate) write_hold: u64,
    /// RNG seed; every derived stream forks from it.
    pub(crate) seed: u64,
}

impl ServiceLoadConfig {
    /// The baseline mix: bursty arrivals, strong skew, 80% short reads.
    pub fn new(threads: usize, requests: usize) -> Self {
        ServiceLoadConfig {
            threads,
            keys: 512,
            zipf_s: 1.1,
            requests,
            mean_gap: 96,
            max_burst: 8,
            read_fraction: 0.8,
            read_hold: 60,
            write_hold: 400,
            seed: 0xC0FFEE,
        }
    }
}

/// One simulated trial's outcome.
#[derive(Debug, Clone)]
pub struct ServiceLoadResult {
    /// The policy simulated.
    pub policy: LockPolicy,
    /// Worker pool size.
    pub threads: usize,
    /// Requests completed (always `requests`).
    pub(crate) completed: u64,
    /// Virtual time of the last completion.
    pub(crate) makespan: u64,
    /// Arrival-to-grant times, cycles.
    pub wait: Histogram,
    /// Grant-to-release times, cycles.
    pub hold: Histogram,
}

impl ServiceLoadResult {
    /// Completed requests per thousand virtual cycles.
    pub fn throughput(&self) -> f64 {
        self.completed as f64 * 1000.0 / self.makespan.max(1) as f64
    }

    /// Wait-time quantile `q` in `[0, 1]`, cycles.
    pub fn wait_q(&self, q: f64) -> u64 {
        self.wait.quantile(q)
    }
}

/// A request's static description, fixed at generation time so every
/// policy serves the *identical* arrival sequence.
struct Req {
    arrival: u64,
    key: u64,
    hold: u64,
}

/// Generates the arrival schedule: bursts of `1..=max_burst` requests
/// separated by exponential gaps, keys Zipf-ranked, holds drawn from the
/// read/write mix. Pure function of the config (all randomness from
/// forked streams), so every policy replays the same offered load.
fn generate_requests(cfg: &ServiceLoadConfig) -> Vec<Req> {
    let mut root = Rng::new(cfg.seed);
    let mut arrivals = root.fork(1);
    let mut keys = root.fork(2);
    let mut holds = root.fork(3);
    let zipf = Zipf::new(cfg.keys, cfg.zipf_s);
    let mut reqs = Vec::with_capacity(cfg.requests);
    let mut t = 0u64;
    while reqs.len() < cfg.requests {
        t += arrivals.exp_cycles(cfg.mean_gap).max(1);
        let burst = 1 + arrivals.next_below(cfg.max_burst as u64) as usize;
        for _ in 0..burst.min(cfg.requests - reqs.len()) {
            let hold = if holds.chance(cfg.read_fraction) {
                holds.exp_cycles(cfg.read_hold).max(1)
            } else {
                holds.exp_cycles(cfg.write_hold).max(1)
            };
            reqs.push(Req {
                arrival: t,
                key: zipf.sample(&mut keys),
                hold,
            });
        }
    }
    reqs
}

/// What a scheduled event does when it fires.
enum EventKind {
    Arrival(u32),
    Completion(u32),
}

/// Per-key lock state while the key is live in the model.
#[derive(Default)]
struct KeyState {
    held: bool,
    waiters: VecDeque<u32>,
}

/// Runs the discrete-event model of the service under one policy.
/// Deterministic: the event queue breaks time ties by insertion sequence,
/// and all randomness comes from streams forked off the config seed.
pub fn sim_load(policy: LockPolicy, cfg: &ServiceLoadConfig) -> ServiceLoadResult {
    assert!(cfg.threads > 0, "the service load needs at least one worker");
    let reqs = generate_requests(cfg);
    let mut grant_rng = Rng::new(cfg.seed).fork(4);

    // Min-heap of (time, insertion seq): seq makes tie order — and with
    // it the whole run — deterministic.
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut payload: HashMap<u64, EventKind> = HashMap::new();
    let mut seq = 0u64;
    let mut schedule = |heap: &mut BinaryHeap<Reverse<(u64, u64)>>,
                        payload: &mut HashMap<u64, EventKind>,
                        t: u64,
                        kind: EventKind| {
        heap.push(Reverse((t, seq)));
        payload.insert(seq, kind);
        seq += 1;
    };
    for (i, r) in reqs.iter().enumerate() {
        schedule(&mut heap, &mut payload, r.arrival, EventKind::Arrival(i as u32));
    }

    let mut keys: HashMap<u64, KeyState> = HashMap::new();
    let mut admission: VecDeque<u32> = VecDeque::new();
    let mut free_workers = cfg.threads;
    let mut wait = Histogram::new();
    let mut hold = Histogram::new();
    let mut completed = 0u64;
    let mut makespan = 0u64;

    // Grants `r` the key (recording its wait) and schedules its
    // completion after `extra` handoff cycles plus its hold.
    let grant = |r: u32,
                 now: u64,
                 extra: u64,
                 reqs: &[Req],
                 wait: &mut Histogram,
                 heap: &mut BinaryHeap<Reverse<(u64, u64)>>,
                 payload: &mut HashMap<u64, EventKind>,
                 seq: &mut u64| {
        let req = &reqs[r as usize];
        wait.record(now + extra - req.arrival);
        heap.push(Reverse((now + extra + req.hold, *seq)));
        payload.insert(*seq, EventKind::Completion(r));
        *seq += 1;
    };

    while let Some(Reverse((now, id))) = heap.pop() {
        match payload.remove(&id).expect("scheduled event has a payload") {
            EventKind::Arrival(r) => {
                if free_workers == 0 {
                    admission.push_back(r);
                    continue;
                }
                free_workers -= 1;
                let key = reqs[r as usize].key;
                let ks = keys.entry(key).or_default();
                if ks.held {
                    ks.waiters.push_back(r);
                } else {
                    ks.held = true;
                    grant(r, now, 0, &reqs, &mut wait, &mut heap, &mut payload, &mut seq);
                }
            }
            EventKind::Completion(r) => {
                let req = &reqs[r as usize];
                hold.record(req.hold);
                completed += 1;
                makespan = makespan.max(now);
                // Release the key: hand off per policy, or retire it.
                let ks = keys.get_mut(&req.key).expect("completed key is live");
                if ks.waiters.is_empty() {
                    keys.remove(&req.key);
                } else {
                    let n = ks.waiters.len();
                    let next = ks
                        .waiters
                        .remove(policy.pick(n, &mut grant_rng))
                        .expect("picked waiter in range");
                    let cost = policy.grant_cost(n);
                    grant(
                        next, now, cost, &reqs, &mut wait, &mut heap, &mut payload, &mut seq,
                    );
                }
                // Free the worker: admit the oldest queued arrival.
                if let Some(q) = admission.pop_front() {
                    let key = reqs[q as usize].key;
                    let ks = keys.entry(key).or_default();
                    if ks.held {
                        ks.waiters.push_back(q);
                    } else {
                        ks.held = true;
                        grant(q, now, 0, &reqs, &mut wait, &mut heap, &mut payload, &mut seq);
                    }
                } else {
                    free_workers += 1;
                }
            }
        }
    }

    debug_assert!(keys.is_empty(), "all keys retired at drain");
    ServiceLoadResult {
        policy,
        threads: cfg.threads,
        completed,
        makespan,
        wait,
        hold,
    }
}

/// The fig11/table6 sweep: every policy at every worker-pool size, fanned
/// out across host threads like the other figure sweeps. Results come
/// back in `(policy, threads)` grid order regardless of the fan-out.
pub fn service_sweep(run: RunConfig, threads: &[usize], requests: usize) -> Vec<ServiceLoadResult> {
    let cells: Vec<(LockPolicy, usize)> = LockPolicy::ALL
        .iter()
        .flat_map(|&p| threads.iter().map(move |&t| (p, t)))
        .collect();
    parallel_cells(cells.len(), run.threads, |i| {
        let (policy, t) = cells[i];
        sim_load(policy, &ServiceLoadConfig::new(t, requests))
    })
}

/// Outcome of an [`async_load_with_metrics`] run — the async column of
/// fig12.
#[derive(Debug, Clone)]
pub struct AsyncServiceResult {
    /// Worker pool size (semaphore permits).
    pub threads: usize,
    /// Requests completed (always `requests`).
    pub completed: u64,
    /// Virtual time of the last completion.
    pub makespan: u64,
    /// Arrival-to-grant times, cycles.
    pub(crate) wait: Histogram,
    /// Grant-to-release times, cycles.
    pub hold: Histogram,
}

impl AsyncServiceResult {
    /// Completed requests per thousand virtual cycles.
    pub fn throughput(&self) -> f64 {
        self.completed as f64 * 1000.0 / self.makespan.max(1) as f64
    }

    /// Wait-time quantile `q` in `[0, 1]`, cycles.
    pub fn wait_q(&self, q: f64) -> u64 {
        self.wait.quantile(q)
    }
}

/// An [`async_load_with_metrics`] report: the workload outcome plus the
/// telemetry the service and the executor collected while serving it.
/// This is what `table7` renders — the counters are pure functions of
/// the schedule, so they are figure-safe; only the histogram *nanosecond*
/// values inside [`service::MetricsSnapshot`] are wall-clock.
#[derive(Debug)]
pub struct AsyncMetricsReport {
    /// The workload outcome, identical in every mode.
    pub result: AsyncServiceResult,
    /// The service-side telemetry snapshot (lock + semaphore share one
    /// lot and one [`service::ServiceMetrics`], so semaphore grants and
    /// parks land here too).
    pub snapshot: service::MetricsSnapshot,
    /// Task polls the executor dispatched.
    pub polls: u64,
    /// Virtual cycles from futex wake to the woken task's re-poll.
    pub wake_to_poll: Histogram,
}

/// Drives the async lock service with the *same* request schedule as
/// [`sim_load`] on the deterministic virtual-clock executor: one task per
/// request sleeps until its arrival, acquires a worker permit from a
/// [`service::WaitingArraySemaphore`], locks its key through a real
/// [`service::LockFuture`], holds for the scripted time, then releases
/// both. `wake_cost` is what the executor charges between a futex wake
/// firing and the woken task's re-poll — pass the QSM handoff cost (40)
/// to compare against [`sim_load`]'s QSM policy on equal footing.
///
/// Deterministic despite running real parking-lot code: the executor is
/// single-threaded with a virtual clock, every wake targets a single
/// address whose waiters resume in FIFO order, and batch wakes fire in
/// publication order — no heap address or ASLR artifact can reorder
/// anything observable.
///
/// Telemetry runs at `mode`, and the report carries the service's
/// telemetry snapshot and the executor's poll accounting alongside the
/// workload result. The service and the worker-pool semaphore share one
/// parking lot and one per-instance [`service::ServiceMetrics`], so trials
/// at different modes don't bleed into each other — which is exactly what
/// the `table7` overhead comparison needs.
pub fn async_load_with_metrics(
    cfg: &ServiceLoadConfig,
    wake_cost: u64,
    mode: service::MetricsMode,
) -> AsyncMetricsReport {
    assert!(cfg.threads > 0, "the service load needs at least one worker");
    let reqs = generate_requests(cfg);
    let svc = service::AsyncLockService::with_metrics_mode(256, mode);
    let pool = svc
        .sync()
        .semaphore(cfg.threads, cfg.threads.next_power_of_two().max(2));
    struct Tally {
        wait: Histogram,
        hold: Histogram,
        completed: u64,
        makespan: u64,
    }
    let tally = RefCell::new(Tally {
        wait: Histogram::new(),
        hold: Histogram::new(),
        completed: 0,
        makespan: 0,
    });
    let mut ex = Executor::new(wake_cost);
    let h = ex.handle();
    for req in &reqs {
        let (h, svc, pool, tally) = (h.clone(), &svc, &pool, &tally);
        ex.spawn(async move {
            h.sleep_until(req.arrival).await;
            pool.acquire_async().await;
            // Spread ranks across the key space so shard load reflects
            // the hash, not rank adjacency — same as the real driver.
            let guard = svc.lock(parking::futex::mix64(req.key)).await;
            let granted = h.now();
            tally.borrow_mut().wait.record(granted - req.arrival);
            h.sleep(req.hold).await;
            {
                let mut t = tally.borrow_mut();
                t.hold.record(req.hold);
                t.completed += 1;
                t.makespan = t.makespan.max(h.now());
            }
            drop(guard);
            pool.release();
        });
    }
    let outcome = ex.run();
    assert_eq!(outcome, Outcome::Completed, "async load never deadlocks");
    let polls = ex.metrics().polls;
    let wake_to_poll = ex.metrics().wake_to_poll.clone();
    drop(ex);
    debug_assert_eq!(svc.stats().live, 0, "all keys retired at drain");
    let snapshot = svc.metrics_snapshot();
    let t = tally.into_inner();
    AsyncMetricsReport {
        result: AsyncServiceResult {
            threads: cfg.threads,
            completed: t.completed,
            makespan: t.makespan,
            wait: t.wait,
            hold: t.hold,
        },
        snapshot,
        polls,
        wake_to_poll,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole-CDF search `sample` used before the guide table: the
    /// oracle every draw must equal.
    fn searched_rank(zipf: &Zipf, u: f64) -> usize {
        zipf.cdf.partition_point(|&c| c < u).min(zipf.cdf.len() - 1)
    }

    const CASES: &[(usize, f64)] = &[
        (1, 1.1),
        (2, 0.0),
        (100, 1.1),
        (512, 1.1),
        (4096, 1.1),
        (65536, 0.99),
    ];

    #[test]
    fn guided_draws_equal_the_whole_cdf_search() {
        for (i, &(n, s)) in CASES.iter().enumerate() {
            let zipf = Zipf::new(n, s);
            let (mut a, mut b) = (Rng::new(0xD0 + i as u64), Rng::new(0xD0 + i as u64));
            for _ in 0..1_000_000 {
                let want = searched_rank(&zipf, b.next_f64());
                assert_eq!(zipf.sample(&mut a), want as u64, "Zipf({n}, {s})");
            }
        }
    }

    #[test]
    fn guided_draws_equal_the_search_at_every_edge() {
        const TOP: u64 = (1 << 53) - 1;
        for &(n, s) in CASES {
            let zipf = Zipf::new(n, s);
            let mut ks = vec![0, TOP];
            for j in 0..zipf.guide.len() as u64 {
                let edge = j << zipf.shift;
                ks.extend([edge.saturating_sub(1), edge, edge + 1]);
            }
            if n <= 4096 {
                for &c in &zipf.cdf {
                    let k = (c * (1u64 << 53) as f64) as u64;
                    ks.extend([k.saturating_sub(1), k, k + 1]);
                }
            }
            for k in ks.into_iter().map(|k| k.min(TOP)) {
                let u = k as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(
                    zipf.rank_of_bits(k),
                    searched_rank(&zipf, u),
                    "Zipf({n}, {s}) at k = {k}"
                );
            }
        }
    }

    #[test]
    fn the_guide_table_stays_within_its_cap() {
        let zipf = Zipf::new(1 << 22, 1.1);
        assert_eq!(zipf.guide.len(), (1 << GUIDE_MAX_BITS) + 1);
        assert_eq!(Zipf::new(4096, 1.1).guide.len(), (1 << 15) + 1);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(100, 1.1);
        let mut rng = Rng::new(7);
        let mut counts = [0u64; 100];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[50] * 5, "rank 0 not hot: {counts:?}");
        assert_eq!(counts.iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn sim_load_is_deterministic() {
        let cfg = ServiceLoadConfig::new(16, 1_000);
        let a = sim_load(LockPolicy::Tas, &cfg);
        let b = sim_load(LockPolicy::Tas, &cfg);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.wait.quantile(0.999), b.wait.quantile(0.999));
        assert_eq!(a.completed, cfg.requests as u64);
    }

    #[test]
    fn policies_separate_in_the_tail() {
        let cfg = ServiceLoadConfig::new(32, 4_000);
        let qsm = sim_load(LockPolicy::Qsm, &cfg);
        let ticket = sim_load(LockPolicy::Ticket, &cfg);
        let tas = sim_load(LockPolicy::Tas, &cfg);
        // The paper's ordering: constant-handoff FIFO beats broadcast
        // FIFO, and the random scramble owns the worst tail.
        assert!(
            qsm.wait_q(0.999) < ticket.wait_q(0.999),
            "qsm p999 {} !< ticket p999 {}",
            qsm.wait_q(0.999),
            ticket.wait_q(0.999)
        );
        assert!(
            ticket.wait_q(0.999) < tas.wait_q(0.999),
            "ticket p999 {} !< tas p999 {}",
            ticket.wait_q(0.999),
            tas.wait_q(0.999)
        );
        assert!(qsm.throughput() >= ticket.throughput());
    }

    #[test]
    fn every_request_completes_under_every_policy() {
        for &policy in LockPolicy::ALL {
            let cfg = ServiceLoadConfig::new(8, 500);
            let r = sim_load(policy, &cfg);
            assert_eq!(r.completed, 500, "{}", policy.name());
            assert_eq!(r.wait.count(), 500);
            assert_eq!(r.hold.count(), 500);
        }
    }

    #[test]
    fn async_load_is_deterministic_and_completes() {
        let cfg = ServiceLoadConfig::new(8, 500);
        let a = async_load_with_metrics(&cfg, 40, service::MetricsMode::Counters).result;
        let b = async_load_with_metrics(&cfg, 40, service::MetricsMode::Counters).result;
        assert_eq!(a.completed, 500);
        assert_eq!(a.wait.count(), 500);
        assert_eq!(a.hold.count(), 500);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.wait_q(0.999), b.wait_q(0.999));
        assert_eq!(a.wait_q(0.5), b.wait_q(0.5));
    }

    #[test]
    fn async_metrics_report_counts_the_schedule() {
        let cfg = ServiceLoadConfig::new(8, 400);
        let off = async_load_with_metrics(&cfg, 40, service::MetricsMode::Off);
        let on = async_load_with_metrics(&cfg, 40, service::MetricsMode::Counters);
        // Telemetry must not perturb the virtual schedule in any mode.
        assert_eq!(off.result.makespan, on.result.makespan);
        assert_eq!(off.snapshot.acquires, 0, "off mode still counted");
        assert_eq!(on.snapshot.acquires, 400, "one key acquire per request");
        assert!(on.snapshot.fast_path + on.snapshot.parked <= on.snapshot.acquires);
        assert!(on.polls > 0, "executor poll accounting missing");
        let sampled = async_load_with_metrics(&cfg, 40, service::MetricsMode::Sampled(64));
        assert_eq!(sampled.result.makespan, on.result.makespan);
        assert!(sampled.snapshot.wait_samples() > 0, "sampling never fired");
    }

    #[test]
    fn async_load_tracks_the_qsm_model() {
        // Same schedule, same constant-cost FIFO handoff: the async run
        // and the QSM simulation should land in the same ballpark, not
        // orders of magnitude apart.
        let cfg = ServiceLoadConfig::new(16, 2_000);
        let sim = sim_load(LockPolicy::Qsm, &cfg);
        let real = async_load_with_metrics(&cfg, 40, service::MetricsMode::Counters).result;
        let ratio = real.makespan as f64 / sim.makespan.max(1) as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "async makespan {} vs qsm sim {} (ratio {ratio:.2})",
            real.makespan,
            sim.makespan
        );
    }
}

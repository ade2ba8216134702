//! What every workload gives the runner: repetitions it can time, and the
//! facts each repetition produced.

use crate::host;
use crate::spans::{Marks, Track};
use crate::spec::{SAMPLE_CAP, SAMPLE_EVERY};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One repetition of a workload: a timed region of closed-loop operations.
#[derive(Debug, Default)]
pub struct Rep {
    /// Operations completed in the timed region.
    pub ops: u64,
    /// Operations that broke an invariant (lost counter updates, an
    /// unbalanced park/wake ledger, a checksum mismatch, ...).
    pub failed: u64,
    /// Wall time of the timed region.
    pub wall_ns: u64,
    /// Process CPU time (user + system, all threads) over the same region.
    pub cpu_ns: u64,
    /// Sorted call-to-grant times of the sampled operations, in ns.
    pub waits: Vec<u32>,
    /// Sorted release times; only a traced repetition times releases.
    pub releases: Vec<u32>,
    /// Counts read at the layer boundaries over this repetition, already
    /// divided into the per-layer metrics they feed.
    pub layers: Vec<(&'static str, f64)>,
    /// Per-thread spans; empty unless traced.
    pub tracks: Vec<Track>,
    /// One line per kind of violation behind `failed`.
    pub notes: Vec<String>,
}

impl Rep {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.wall_ns as f64
    }

    /// Gathers what the client threads recorded: operation count, sorted
    /// samples, and — when traced — the spans and how unevenly the
    /// operations fell across threads.
    pub fn collect<'a>(&mut self, recorders: impl Iterator<Item = &'a mut Recorder>, traced: bool) {
        let mut per_thread = Vec::new();
        for rec in recorders {
            let (ops, track) = rec.end(self);
            self.ops += ops;
            per_thread.push(ops as f64);
            if traced {
                self.tracks.push(track);
            }
        }
        self.waits.sort_unstable();
        self.releases.sort_unstable();
        if traced {
            let mean = per_thread.iter().sum::<f64>() / per_thread.len().max(1) as f64;
            let hi = per_thread.iter().copied().fold(0.0, f64::max);
            let lo = per_thread.iter().copied().fold(f64::MAX, f64::min);
            self.layers
                .push(("lock.thread_ops_skew", (hi - lo) / mean.max(1.0)));
        }
    }

    /// Fails `n` operations (at most all of them) for `reason`.
    pub fn fail(&mut self, n: u64, reason: String) {
        self.failed = (self.failed + n).min(self.ops.max(1));
        self.notes.push(reason);
    }
}

/// A workload, set up and ready to repeat. Building one *is* the set-up
/// the benchmark times, so constructors do all input generation.
pub trait Workload {
    /// Names of the child spans of one operation, in order.
    fn children(&self) -> &'static [&'static str];

    /// Runs one repetition of about `dur`; `traced` wraps every operation
    /// in spans instead of timing every eighth acquisition.
    fn rep(&mut self, dur: Duration, traced: bool) -> Rep;

    /// Tears down and returns the teardown invariants that do not hold.
    fn finish(self: Box<Self>) -> Vec<String>;
}

/// Wall and CPU clocks over a timed region.
pub struct Region {
    wall: Instant,
    cpu: u64,
}

impl Region {
    pub fn start() -> Self {
        Region {
            cpu: host::cpu_time_ns(),
            wall: Instant::now(),
        }
    }

    /// The instant the region started, the epoch of its spans.
    pub fn epoch(&self) -> Instant {
        self.wall
    }

    /// `(wall_ns, cpu_ns)` since the start.
    pub fn stop(&self) -> (u64, u64) {
        let wall = self.wall.elapsed().as_nanos() as u64;
        (wall, host::cpu_time_ns() - self.cpu)
    }
}

/// Runs one client thread per element of `states` for `dur`: the threads
/// start together, run until the stop flag rises, and are joined. Returns
/// what each client returned and the wall and CPU time of the region, all
/// threads of the process included (the caller sleeps meanwhile).
pub fn run_clients<S: Send, R: Send>(
    states: &mut [S],
    dur: Duration,
    client: impl Fn(usize, &mut S, Instant, &AtomicBool) -> R + Sync,
) -> (Vec<R>, u64, u64) {
    let stop = AtomicBool::new(false);
    let start = Barrier::new(states.len() + 1);
    let epoch = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(tid, st)| {
                let (stop, start, client) = (&stop, &start, &client);
                s.spawn(move || {
                    start.wait();
                    client(tid, st, epoch, stop)
                })
            })
            .collect();
        start.wait();
        let region = Region::start();
        std::thread::sleep(dur);
        stop.store(true, Ordering::Relaxed);
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let (wall, cpu) = region.stop();
        (outs, wall, cpu)
    })
}

/// Nanoseconds from `epoch` to `t`.
#[inline]
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}

/// A duration as saturating `u32` nanoseconds, the sample format (a wait
/// longer than four seconds is a stall, reported as failed elsewhere).
#[inline]
pub fn sample_ns(from: Instant, to: Instant) -> u32 {
    u32::try_from(to.duration_since(from).as_nanos()).unwrap_or(u32::MAX)
}

/// A fixed-capacity sample ring: keeps the most recent `cap` samples so a
/// fast repetition cannot grow the process's memory.
struct Samples {
    buf: Vec<u32>,
    taken: usize,
}

impl Samples {
    /// The buffer is written once here so its pages are resident before
    /// anything is timed.
    fn new() -> Self {
        Samples {
            buf: vec![1; SAMPLE_CAP],
            taken: 0,
        }
    }

    #[inline]
    fn push(&mut self, v: u32) {
        self.buf[self.taken & (SAMPLE_CAP - 1)] = v;
        self.taken += 1;
    }

    /// Appends the kept samples to `out` and empties the ring.
    fn drain_into(&mut self, out: &mut Vec<u32>) {
        out.extend_from_slice(&self.buf[..self.taken.min(SAMPLE_CAP)]);
        self.taken = 0;
    }
}

/// One client thread's measurement state: how an operation is timed lives
/// here, once, for every threaded workload.
pub struct Recorder {
    waits: Samples,
    /// Allocated by the first traced repetition; untraced runs, whose peak
    /// memory is reported, never pay for it.
    releases: Option<Samples>,
    track: Track,
    epoch: Instant,
    ops: u64,
    op_start: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            waits: Samples::new(),
            releases: None,
            track: Track::default(),
            epoch: Instant::now(),
            ops: 0,
            op_start: 0,
        }
    }

    /// Starts a repetition whose spans count from `epoch`.
    pub fn begin(&mut self, name: String, epoch: Instant, traced: bool) {
        self.track = Track::new(name);
        self.epoch = epoch;
        self.ops = 0;
        self.op_start = ns_since(epoch, Instant::now());
        if traced && self.releases.is_none() {
            self.releases = Some(Samples::new());
        }
    }

    /// Operations recorded since `begin`.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// One closed-loop operation: `acquire` is the call whose call-to-grant
    /// time is the wait; `hold` is the work done while granted; `release`
    /// gives the grant back. Untraced, every `SAMPLE_EVERY`-th wait is
    /// timed; traced, every boundary of every operation is.
    #[inline(always)]
    pub fn op<const TRACED: bool, G>(
        &mut self,
        acquire: impl FnOnce() -> G,
        hold: impl FnOnce(&G),
        release: impl FnOnce(G),
    ) {
        if TRACED {
            let t0 = Instant::now();
            let grant = acquire();
            let t1 = Instant::now();
            hold(&grant);
            let t2 = Instant::now();
            release(grant);
            let t3 = Instant::now();
            self.waits.push(sample_ns(t0, t1));
            if let Some(releases) = &mut self.releases {
                releases.push(sample_ns(t2, t3));
            }
            let e = self.epoch;
            let marks: Marks = [
                self.op_start,
                ns_since(e, t0),
                ns_since(e, t1),
                ns_since(e, t2),
                ns_since(e, t3),
                0,
            ];
            self.track.record(self.ops, marks, 3);
            self.op_start = marks[4];
        } else if self.ops.is_multiple_of(SAMPLE_EVERY) {
            let t0 = Instant::now();
            let grant = acquire();
            let t1 = Instant::now();
            hold(&grant);
            release(grant);
            self.waits.push(sample_ns(t0, t1));
        } else {
            let grant = acquire();
            hold(&grant);
            release(grant);
        }
        self.ops += 1;
    }

    /// Ends the repetition: moves the samples into `rep` and returns the
    /// operation count and the spans.
    pub fn end(&mut self, rep: &mut Rep) -> (u64, Track) {
        self.waits.drain_into(&mut rep.waits);
        if let Some(releases) = &mut self.releases {
            releases.drain_into(&mut rep.releases);
        }
        (self.ops, std::mem::take(&mut self.track))
    }
}

/// The child spans [`Recorder::op`] records.
pub const OP_CHILDREN: &[&str] = &["acquire", "hold", "release"];

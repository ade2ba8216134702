//! `sim_sweep`: a fixed list of `memsim` cells — what regenerating the
//! paper's figures does, in miniature. One operation is one simulated
//! memory event (load, store or read-modify-write), so `ops_per_s` is
//! simulated events per host second. The "wait" of this workload is the
//! host time per simulated event of one cell, one sample per cell run.
//!
//! The simulator is deterministic, so every cell's statistics are held to
//! `benchmark/expected/sim_sweep.txt`; a cell that differs fails all of its
//! events. The seed only shuffles the order the cells run in: their
//! inputs, and so their statistics, are the same for every seed.

use crate::keys::thread_rng;
use crate::spans::{Marks, Track};
use crate::workload::{ns_since, Region, Rep, Workload};
use kernels::barriers::{barrier_by_name, timing_trial};
use kernels::locks::{counter_trial, lock_by_name};
use memsim::{Machine, MachineParams, Metrics};
use std::time::{Duration, Instant};
use workloads::csbench::{self, CsConfig};
use workloads::oversub::oversub_machine;

/// Simulated processors in every cell.
const P: usize = 16;

/// Which part of the simulator a cell leans on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Bus machine, lock kernels contending for one counter.
    Bus,
    /// NUMA machine, barrier episodes.
    Numa,
    /// Bus machine with 16 processors scheduled onto 4 cores, futex lock.
    Oversub,
}

#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub name: &'static str,
    pub family: Family,
    /// Lock or barrier kernel, by registry name.
    kernel: &'static str,
    /// Critical sections per processor, or barrier episodes.
    iters: u64,
}

const fn cell(name: &'static str, family: Family, kernel: &'static str, iters: u64) -> Cell {
    Cell {
        name,
        family,
        kernel,
        iters,
    }
}

/// The sweep. Iteration counts put each cell at one to two thousand
/// events, the size of a point in the repo's own figure sweeps.
pub const CELLS: [Cell; 9] = [
    cell("bus16_tas", Family::Bus, "tas", 3),
    cell("bus16_ticket", Family::Bus, "ticket", 8),
    cell("bus16_mcs", Family::Bus, "mcs", 12),
    cell("bus16_qsm", Family::Bus, "qsm", 12),
    cell("numa16_central", Family::Numa, "central", 12),
    cell("numa16_dissemination", Family::Numa, "dissemination", 8),
    cell("numa16_qsm_tree", Family::Numa, "qsm-tree", 12),
    cell("oversub16on4_qsm_block", Family::Oversub, "qsm-block", 8),
    cell(
        "oversub16on4_qsm_block_park",
        Family::Oversub,
        "qsm-block-park",
        8,
    ),
];

/// Simulated memory events of a run.
pub fn events(m: &Metrics) -> u64 {
    m.loads() + m.stores() + m.rmws()
}

impl Cell {
    /// Runs the cell once and returns the simulator's counters.
    pub fn run(&self) -> Metrics {
        let result = match self.family {
            Family::Bus => {
                let machine = Machine::new(MachineParams::bus_1991(P));
                let lock = lock_by_name(self.kernel).expect("registered lock kernel");
                counter_trial(&machine, lock.as_ref(), P, self.iters as usize, 20).map(
                    |(count, report)| {
                        assert_eq!(
                            count,
                            P as u64 * self.iters,
                            "{}: mutual exclusion violated",
                            self.name
                        );
                        report.metrics
                    },
                )
            }
            Family::Numa => {
                let machine = Machine::new(MachineParams::numa_1991(P));
                let barrier = barrier_by_name(self.kernel).expect("registered barrier kernel");
                timing_trial(&machine, barrier.as_ref(), P, self.iters, 50)
                    .map(|report| report.metrics)
            }
            Family::Oversub => {
                let machine = oversub_machine(P, 4);
                let lock = lock_by_name(self.kernel).expect("registered lock kernel");
                let cfg = CsConfig {
                    think: 0,
                    jitter: false,
                    hold: 20,
                    ..CsConfig::new(P, self.iters as usize)
                };
                csbench::run(&machine, lock.as_ref(), &cfg).map(|result| result.metrics)
            }
        };
        result.unwrap_or_else(|e| panic!("cell {} did not complete: {e}", self.name))
    }

    /// The line of `expected/sim_sweep.txt` for this cell's `metrics`.
    pub fn line(&self, m: &Metrics) -> String {
        format!(
            "{} cycles={} loads={} stores={} rmws={} hits={} misses={} upgrades={} invalidations={} transactions={} parks={} switches={}",
            self.name,
            m.total_cycles,
            m.loads(),
            m.stores(),
            m.rmws(),
            m.hits(),
            m.misses(),
            m.upgrades(),
            m.invalidations,
            m.interconnect_transactions,
            m.futex_parks(),
            m.ctx_switches(),
        )
    }
}

const EXPECTED: &str = include_str!("../expected/sim_sweep.txt");

/// The expected line of each cell, in `CELLS` order.
fn expected_lines() -> Vec<&'static str> {
    let lines: Vec<&str> = EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    CELLS
        .iter()
        .map(|c| {
            lines
                .iter()
                .copied()
                .find(|l| l.split(' ').next() == Some(c.name))
                .unwrap_or("")
        })
        .collect()
}

/// Rewrites `benchmark/expected/sim_sweep.txt` from the simulator as built.
/// For the change that alters the model on purpose, and nothing else.
pub fn bless() -> Result<(), String> {
    let mut text = String::from(
        "# Simulator statistics of every sim_sweep cell; checked on every run.\n\
         # Regenerate with `benchmark/run.sh --bless-sim` only when a change means to alter the model.\n",
    );
    for c in &CELLS {
        text.push_str(&c.line(&c.run()));
        text.push('\n');
    }
    let path = "benchmark/expected/sim_sweep.txt";
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}; rebuild for the benchmark to pick it up");
    Ok(())
}

pub struct SimSweep {
    /// Indices into `CELLS`, in this seed's order.
    order: Vec<usize>,
    expected: Vec<&'static str>,
}

impl SimSweep {
    pub fn new(seed: u64) -> Self {
        let mut order: Vec<usize> = (0..CELLS.len()).collect();
        thread_rng(seed, 0).shuffle(&mut order);
        SimSweep {
            order,
            expected: expected_lines(),
        }
    }
}

impl Workload for SimSweep {
    fn children(&self) -> &'static [&'static str] {
        &["simulate", "check"]
    }

    fn rep(&mut self, dur: Duration, traced: bool) -> Rep {
        let region = Region::start();
        let epoch = region.epoch();
        let mut rep = Rep::default();
        let mut track = Track::new("sweep".into());
        let mut op_start = 0;
        let mut runs = 0u64;
        // Whole sweeps only, so every repetition has the same cell mix.
        while runs == 0 || epoch.elapsed() < dur {
            for &i in &self.order {
                let cell = &CELLS[i];
                let t0 = Instant::now();
                let metrics = cell.run();
                let t1 = Instant::now();
                let n = events(&metrics);
                rep.ops += n;
                if cell.line(&metrics) != self.expected[i] {
                    rep.fail(
                        n,
                        format!(
                            "got      {}\nexpected {}",
                            cell.line(&metrics),
                            self.expected[i]
                        ),
                    );
                }
                rep.waits
                    .push(((t1 - t0).as_nanos() as u64 / n.max(1)) as u32);
                if traced {
                    let marks: Marks = [
                        op_start,
                        ns_since(epoch, t0),
                        ns_since(epoch, t1),
                        ns_since(epoch, Instant::now()),
                        0,
                        0,
                    ];
                    track.record(runs, marks, 2);
                    op_start = marks[3];
                }
                runs += 1;
            }
        }
        (rep.wall_ns, rep.cpu_ns) = region.stop();
        rep.waits.sort_unstable();
        if traced {
            rep.tracks.push(track);
        }
        rep
    }

    fn finish(self: Box<Self>) -> Vec<String> {
        Vec::new()
    }
}

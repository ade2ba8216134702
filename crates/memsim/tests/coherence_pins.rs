//! Exact pins on the coherence model where the figures never go: caches of
//! two and four lines, so every run is mostly LRU replacement, and memory
//! images at the edges of the line-indexed table's sizing.
//!
//! The golden figures and `sim_sweep` keep `cache_lines = 1024` and a few
//! dozen lines of data; nothing there evicts. The numbers below were
//! recorded on the `HashMap`-per-cache model (PR 15's) and must not move:
//! they pin victim choice (least recent use, lowest line on a tie), dirty
//! write-backs, and what an eviction does to the directory's sharer set.

use memsim::{Machine, MachineParams, Metrics, Proc, SimError};
use simcore::Rng;
use syncctx::SyncCtx;

/// The counters the coherence model alone decides.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    hits: u64,
    misses: u64,
    upgrades: u64,
    invalidations: u64,
    writebacks: u64,
    transactions: u64,
    total_cycles: u64,
}

fn pin(m: &Metrics) -> Pin {
    Pin {
        hits: m.hits(),
        misses: m.misses(),
        upgrades: m.upgrades(),
        invalidations: m.invalidations,
        writebacks: m.writebacks,
        transactions: m.interconnect_transactions,
        total_cycles: m.total_cycles,
    }
}

/// A seeded mix of loads, stores and fetch_adds over `lines` lines, with a
/// lean towards the few lines just used so hits, upgrades and evictions
/// all occur. Each processor draws from its own stream.
fn mixed_walk(
    seed: u64,
    ops: usize,
    lines: usize,
    line_words: usize,
) -> impl Fn(&mut Proc) + Send + Sync {
    move |p| {
        let mut rng = Rng::new(seed ^ (p.pid() as u64).wrapping_mul(0x9E37_79B9));
        let mut recent = [0usize; 3];
        for i in 0..ops {
            let line = if rng.next_below(3) == 0 {
                recent[rng.next_below(3) as usize]
            } else {
                rng.next_below(lines as u64) as usize
            };
            recent[i % 3] = line;
            let addr = line * line_words + rng.next_below(line_words as u64) as usize;
            match rng.next_below(4) {
                0 | 1 => {
                    p.load(addr);
                }
                2 => p.store(addr, i as u64),
                _ => {
                    p.fetch_add(addr, 1);
                }
            }
            if rng.next_below(8) == 0 {
                p.delay(rng.next_below(40));
            }
        }
    }
}

fn eviction_run(
    mut params: MachineParams,
    nprocs: usize,
    cache_lines: usize,
    lines: usize,
    seed: u64,
) -> Pin {
    params.cache_lines = cache_lines;
    let words = lines * params.line_words;
    let report = Machine::new(params.clone())
        .run(
            nprocs,
            words,
            mixed_walk(seed, 400, lines, params.line_words),
        )
        .expect("eviction run");
    pin(&report.metrics)
}

#[test]
fn one_processor_two_lines_over_sixteen() {
    let got = eviction_run(MachineParams::bus_1991(1), 1, 2, 16, 0x1991);
    assert_eq!(got, PIN_P1);
}

#[test]
fn four_numa_processors_four_lines_over_thirty_two() {
    let got = eviction_run(MachineParams::numa_1991(4), 4, 4, 32, 0xBEEF);
    assert_eq!(got, PIN_P4);
}

#[test]
fn eight_bus_processors_two_lines_over_twenty_four() {
    let got = eviction_run(MachineParams::bus_1991(8), 8, 2, 24, 0xC0FFEE);
    assert_eq!(got, PIN_P8);
}

const PIN_P1: Pin = Pin {
    hits: 127,
    misses: 244,
    upgrades: 29,
    invalidations: 0,
    writebacks: 141,
    transactions: 273,
    total_cycles: 6791,
};

const PIN_P4: Pin = Pin {
    hits: 481,
    misses: 993,
    upgrades: 126,
    invalidations: 250,
    writebacks: 361,
    transactions: 1119,
    total_cycles: 10703,
};

const PIN_P8: Pin = Pin {
    hits: 669,
    misses: 2311,
    upgrades: 220,
    invalidations: 757,
    writebacks: 682,
    transactions: 2531,
    total_cycles: 54087,
};

/// Touches the first and last word of an image of `words` words from every
/// processor and checks nothing is lost.
fn touch_ends(params: MachineParams, nprocs: usize, words: usize) -> Metrics {
    let report = Machine::new(params)
        .run(nprocs, words, move |p| {
            p.fetch_add(0, 1);
            p.fetch_add(words - 1, 1);
            p.load(0);
        })
        .expect("edge run");
    let total = if words == 1 { 2 } else { 1 } * nprocs as u64;
    assert_eq!(report.memory[0], total);
    assert_eq!(report.memory[words - 1], total);
    report.metrics
}

#[test]
fn images_at_the_line_boundary() {
    let params = MachineParams::bus_1991(2);
    let lw = params.line_words;
    // One word and one full line are a single line: the second fetch_add
    // and the load hit for whoever still owns it.
    for words in [1, lw] {
        let m = touch_ends(params.clone(), 1, words);
        assert_eq!((m.misses(), m.hits()), (1, 2), "{words} words");
    }
    // One word past the line is a second line, and a second miss.
    let m = touch_ends(params.clone(), 1, lw + 1);
    assert_eq!((m.misses(), m.hits()), (2, 1));
    // Two processors over the same two lines invalidate each other.
    let m = touch_ends(params, 2, lw + 1);
    assert!(m.invalidations > 0);
}

#[test]
fn an_empty_image_runs_and_faults_on_any_access() {
    let machine = Machine::new(MachineParams::bus_1991(2));
    let report = machine
        .run(2, 0, |p| p.delay(5))
        .expect("no memory, no access");
    assert_eq!(report.metrics.total_cycles, 5);
    assert!(report.memory.is_empty());
    let err = machine
        .run(2, 0, |p| {
            p.load(0);
        })
        .unwrap_err();
    assert_eq!(err, SimError::Fault { pid: 0, addr: 0 });
}

#[test]
fn out_of_range_address_is_a_fault_not_a_panic() {
    let params = MachineParams::bus_1991(2);
    let words = params.line_words + 1;
    // In the last, partial line's index range but past the image; and far
    // past every line the table has.
    for addr in [words, 2 * params.line_words - 1, 1 << 20] {
        let err = Machine::new(params.clone())
            .run(2, words, move |p| {
                if p.pid() == 1 {
                    p.store(addr, 1);
                } else {
                    p.load(0);
                }
            })
            .unwrap_err();
        assert_eq!(err, SimError::Fault { pid: 1, addr }, "addr {addr}");
    }
}

#[test]
fn one_and_one_hundred_twenty_eight_processors() {
    let m = touch_ends(MachineParams::bus_1991(1), 1, 4);
    assert_eq!(m.per_proc.len(), 1);
    // The widest sharer mask: every processor reads word 0, then the last
    // one writes it and invalidates the other 127 copies in one go.
    let nprocs = 128;
    let report = Machine::new(MachineParams::numa_1991(nprocs))
        .run(nprocs, 8, move |p| {
            p.load(0);
            if p.pid() == nprocs - 1 {
                p.delay(100_000);
                p.store(0, 7);
            }
        })
        .expect("128-processor run");
    assert_eq!(report.memory[0], 7);
    assert_eq!(report.metrics.misses(), 128);
    assert_eq!(report.metrics.upgrades(), 1);
    assert_eq!(report.metrics.invalidations, 127);
}

#[test]
#[should_panic(expected = "1..=128 processors")]
fn one_hundred_twenty_nine_processors_rejected() {
    let _ = Machine::new(MachineParams::bus_1991(4)).run(129, 8, |_| {});
}

#[test]
fn mid_run_snapshot_replays_to_the_same_metrics() {
    // Every snapshot of an eviction-heavy run carries the whole coherence
    // table; restoring any of them must finish on the live run's counters.
    let mut params = MachineParams::bus_1991(4);
    params.cache_lines = 2;
    let lines = 16;
    let body = mixed_walk(0x5EED, 300, lines, params.line_words);
    let machine = Machine::new(params.clone());
    let init = vec![0; lines * params.line_words];
    let live = machine
        .run_with_init(4, init.clone(), &body)
        .expect("live run");
    assert!(
        live.metrics.writebacks > 0,
        "the run must evict dirty lines"
    );
    let recording = machine
        .run_recorded(4, init, 500, &body)
        .expect("recorded run");
    assert!(recording.fragments() > 3, "snapshots must land mid-run");
    assert_eq!(recording.report().metrics, live.metrics);
    for index in 0..recording.fragments() {
        let resumed = recording.resume(index);
        assert_eq!(resumed.metrics, live.metrics, "snapshot {index}");
        assert_eq!(resumed.memory, live.memory, "snapshot {index}");
    }
}

//! Exact pins on the coherence table at the edges of its line-indexed
//! sizing — images of one word, one line and one line plus a word, an empty
//! image, addresses past it, presence rows of one to sixteen words (P = 1
//! to 1024) and zero processors — and on snapshots of a run that shares and
//! invalidates lines at every step, with presence rows of one and three
//! words.

use memsim::{Machine, MachineParams, Metrics, Proc, SimError};
use simcore::Rng;
use syncctx::SyncCtx;

/// A seeded mix of loads, stores and fetch_adds over `lines` lines, with a
/// lean towards the few lines just used so hits, upgrades and
/// invalidations all occur. Each processor draws from its own stream.
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
fn one_to_a_thousand_and_twenty_four_processors() {
    // Presence rows of one, two, three and sixteen words: every processor
    // reads word 0, then the last one writes it and invalidates the other
    // P - 1 copies in one go.
    for nprocs in [1, 63, 64, 65, 128, 129, 1024] {
        let report = Machine::new(MachineParams::numa_1991(nprocs))
            .run(nprocs, 8, move |p| {
                p.load(0);
                if p.pid() == nprocs - 1 {
                    p.delay(100_000);
                    p.store(0, 7);
                }
            })
            .expect("wide run");
        let m = &report.metrics;
        assert_eq!(report.memory[0], 7, "P = {nprocs}");
        let counts = (m.misses(), m.upgrades(), m.invalidations);
        assert_eq!(
            counts,
            (nprocs as u64, 1, nprocs as u64 - 1),
            "P = {nprocs}"
        );
    }
}

#[test]
#[should_panic(expected = "at least one processor")]
fn zero_processors_rejected() {
    let _ = Machine::new(MachineParams::bus_1991(4)).run(0, 8, |_| {});
}

#[test]
fn mid_run_snapshot_replays_to_the_same_metrics() {
    // Every snapshot of a sharing-heavy run carries the whole coherence
    // table; restoring any of them must finish on the live run's counters.
    // The wider run is longer, so its fragments are too (~40 of them).
    for (nprocs, fragment) in [(4, 500), (130, 20_000)] {
        let params = MachineParams::bus_1991(nprocs);
        let lines = 16;
        let body = mixed_walk(0x5EED, 300, lines, params.line_words);
        let machine = Machine::new(params.clone());
        let init = vec![0; lines * params.line_words];
        let live = machine
            .run_with_init(nprocs, init.clone(), &body)
            .expect("live run");
        let recording = machine
            .run_recorded(nprocs, init, fragment, &body)
            .expect("recorded run");
        assert!(recording.fragments() > 3, "snapshots must land mid-run");
        assert_eq!(recording.report().metrics, live.metrics);
        for index in 0..recording.fragments() {
            let resumed = recording.resume(index);
            let at = format!("P = {nprocs}, snapshot {index}");
            assert_eq!(resumed.metrics, live.metrics, "{at}");
            assert_eq!(resumed.memory, live.memory, "{at}");
        }
    }
}

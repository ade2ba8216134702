//! The lock service's slow paths (`service::protocol`) run, as shipped, on
//! the simulator and on a kernel's real-thread context: `memsim::Proc` and
//! `workloads::realhw::RealCtx` implement the same word-operation trait as
//! the service's parking lot, so the protocol functions take them with no
//! adapter type.
//!
//! On memsim each processor runs the barging mutex around a non-atomic
//! counter, then an eventcount chain that crosses the `u64` wrap, then
//! three barrier rounds. A run must count exactly, cross the wrap, elect
//! one leader per round and wake every processor it parked; and, being a
//! simulation, it must come out the same twice.
//!
//! The service's keyed mutex request runs there too: `protocol::keyed_lock`
//! and `keyed_unlock`, the table's slot lifecycle around the key's mutex,
//! over `kernels::slots::SlotArray`. Two keys share one slot, so every
//! attach of the other key recycles it.

use kernels::slots::SlotArray;
use kernels::{Addr, ProcCtx, Region, SyncCtx, Word};
use memsim::{Machine, MachineParams, Proc, RunReport};
use parking::futex::ParkingLot;
use service::protocol::{self, seq_ge, FREE};
use std::sync::atomic::AtomicU64;
use workloads::oversub::oversub_machine;
use workloads::realhw::RealCtx;

/// Critical sections per processor.
const ITERS: u64 = 5;
/// Barrier rounds.
const ROUNDS: u64 = 3;
/// Where the eventcount starts: two advances short of the wrap.
const EVENT_START: Word = u64::MAX - 1;

const LOCK: Addr = 0;
const COUNTER: Addr = 1;
const EVENT: Addr = 2;
const BARRIER: Addr = 3;
/// Acquisitions whose slow path parked: the substrate's `wait` told it so.
const PARKED: Addr = 4;
/// `LEADERS + r`: how many arrivals completed barrier round `r`.
const LEADERS: Addr = 5;
const WORDS: usize = LEADERS + ROUNDS as usize;

/// One processor's program; `nprocs` of them share the memory.
fn body(p: &mut Proc, nprocs: usize) {
    for _ in 0..ITERS {
        if protocol::lock(p, LOCK, || ()).is_some_and(|(_, how)| how.parked) {
            p.fetch_add(PARKED, 1);
        }
        let v = p.data_load(COUNTER);
        p.delay(20);
        p.data_store(COUNTER, v + 1);
        protocol::unlock(p, LOCK);
    }
    // Processor k waits for k advances, then makes one: a chain whose
    // middle links await counts on the far side of the wrap.
    let target = EVENT_START.wrapping_add(p.pid() as Word);
    let seen = protocol::await_at_least(p, EVENT, target);
    assert!(
        seq_ge(seen, target),
        "p{} woke at {seen}, short of {target}",
        p.pid()
    );
    protocol::advance(p, EVENT);
    for round in 0..ROUNDS {
        match protocol::barrier_arrive(p, BARRIER, nprocs as u32) {
            None => {
                p.fetch_add(LEADERS + round as usize, 1);
            }
            Some(r) => protocol::barrier_wait(p, BARRIER, r),
        }
    }
}

fn run(machine: &Machine, nprocs: usize) -> RunReport {
    let mut init = vec![0; WORDS];
    init[EVENT] = EVENT_START;
    machine
        .run_with_init(nprocs, init, |p| body(p, nprocs))
        .expect("the protocols finish on the simulator")
}

fn check(machine: &Machine, nprocs: usize) {
    let report = run(machine, nprocs);
    let mem = &report.memory;
    assert_eq!(
        mem[COUNTER],
        nprocs as Word * ITERS,
        "lost critical sections"
    );
    assert_eq!(mem[LOCK], FREE);
    assert_eq!(mem[EVENT], EVENT_START.wrapping_add(nprocs as Word));
    assert_eq!(
        mem[BARRIER],
        ROUNDS << 32,
        "rounds completed, no arrival left over"
    );
    for round in 0..ROUNDS as usize {
        assert_eq!(mem[LEADERS + round], 1, "round {round}: one leader");
    }
    let m = &report.metrics;
    assert!(mem[PARKED] > 0, "some acquisition parked, and was told so");
    assert!(
        mem[PARKED] < m.futex_parks(),
        "the eventcount chain parks too"
    );
    assert_eq!(m.futex_parks(), m.futex_woken(), "every park was woken");
    let again = run(machine, nprocs);
    assert_eq!(
        report.metrics, again.metrics,
        "two runs, two different machines"
    );
}

#[test]
fn shipped_protocols_run_on_the_bus_machine() {
    check(&Machine::new(MachineParams::bus_1991(4)), 4);
}

#[test]
fn shipped_protocols_run_oversubscribed() {
    check(&oversub_machine(6, 2), 6);
}

/// Keys of the slot-lifecycle run, one slot for both.
const KEYS: u64 = 2;
/// Words per line on the simulated machines.
const LINE: usize = 8;

/// The one-slot array at address 0, then each key's counter on a line of
/// its own.
fn slot_array() -> SlotArray {
    SlotArray::new(Region::new(0, LINE, SlotArray::lines(1)))
}

fn key_counter(key: u64) -> Addr {
    (SlotArray::lines(1) + key as usize) * LINE
}

/// Processor `p` takes key `p % KEYS` `ITERS` times: attach, lock, count,
/// unlock, detach. Each key counts exactly, no slot is left live, and every
/// park, for a free slot or for the key's mutex, is woken.
fn check_slot_lifecycle(machine: &Machine, nprocs: usize) {
    let slots = slot_array();
    let report = machine
        .run_with_init(nprocs, vec![0; key_counter(KEYS)], |p| {
            let key = p.pid() as u64 % KEYS;
            for _ in 0..ITERS {
                let (w, _) = protocol::keyed_lock(p, &slots, key, || ());
                let v = p.data_load(key_counter(key));
                p.delay(20);
                p.data_store(key_counter(key), v + 1);
                protocol::keyed_unlock(p, &slots, key, w);
            }
        })
        .expect("the slot lifecycle finishes on the simulator");
    for key in 0..KEYS {
        let takers = (0..nprocs as u64).filter(|p| p % KEYS == key).count() as Word;
        assert_eq!(
            report.memory[key_counter(key)],
            takers * ITERS,
            "key {key}: lost critical sections"
        );
    }
    assert_eq!(slots.holds(&report.memory, &[]), Ok(()), "live slots");
    let m = &report.metrics;
    assert!(m.futex_parks() > 0, "attaches of the other key park");
    assert_eq!(m.futex_parks(), m.futex_woken(), "every park was woken");
}

#[test]
fn shipped_slot_lifecycle_runs_on_the_bus_machine() {
    check_slot_lifecycle(&Machine::new(MachineParams::bus_1991(4)), 4);
    // One uncontended attach + lock + unlock + detach, priced.
    let slots = slot_array();
    let solo = Machine::new(MachineParams::bus_1991(1))
        .run_with_init(1, vec![0; key_counter(0)], |p| {
            let (w, _) = protocol::keyed_lock(p, &slots, 0, || ());
            protocol::keyed_unlock(p, &slots, 0, w);
        })
        .expect("one processor finishes");
    assert_eq!(solo.metrics.total_cycles, 87);
    assert_eq!(solo.metrics.interconnect_transactions, 3);
    assert_eq!(solo.metrics.rmws(), 6, "two critical sections and the lock");
}

#[test]
fn shipped_slot_lifecycle_runs_oversubscribed() {
    check_slot_lifecycle(&oversub_machine(4, 2), 4);
}

#[test]
fn shipped_mutex_runs_on_real_threads() {
    const THREADS: usize = 4;
    const REAL_ITERS: u64 = 2_000;
    let mem: Vec<AtomicU64> = (0..WORDS).map(|_| AtomicU64::new(0)).collect();
    let lot = ParkingLot::with_buckets(THREADS);
    std::thread::scope(|s| {
        for pid in 0..THREADS {
            let (mem, lot) = (&mem, &lot);
            s.spawn(move || {
                let mut c = RealCtx::new(pid, THREADS, mem, lot);
                for _ in 0..REAL_ITERS {
                    protocol::lock(&mut c, LOCK, || ());
                    let v = c.data_load(COUNTER);
                    c.data_store(COUNTER, v + 1);
                    protocol::unlock(&mut c, LOCK);
                }
            });
        }
    });
    let mut c = RealCtx::new(0, 1, &mem, &lot);
    assert_eq!(c.load(COUNTER), THREADS as Word * REAL_ITERS);
    assert_eq!(c.load(LOCK), FREE);
    let ledger = lot.totals();
    assert!(ledger.balanced(), "parks, wakes and resumes: {ledger:?}");
}

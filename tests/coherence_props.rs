//! Property-based tests of the simulated machine: randomly generated
//! programs must satisfy the architectural invariants regardless of
//! topology, processor count, or operation mix.
//!
//! The corpus is generated with the workspace's own deterministic
//! `simcore::Rng` (fixed seeds, so failures reproduce exactly) rather than
//! an external property-testing framework — the workspace builds with no
//! registry access.

use kernels::SyncCtx;
use memsim::{Machine, MachineParams, Topology};
use simcore::Rng;

/// A single random operation in a generated program.
#[derive(Debug, Clone, Copy)]
enum GenOp {
    Load(usize),
    Store(usize, u64),
    FetchAdd(usize, u64),
    Swap(usize, u64),
    Cas(usize, u64, u64),
    Delay(u64),
}

const WORDS: usize = 24;
/// Random programs checked per property.
const CASES: usize = 48;

fn gen_op(rng: &mut Rng) -> GenOp {
    let addr = rng.next_below(WORDS as u64) as usize;
    match rng.next_below(6) {
        0 => GenOp::Load(addr),
        1 => GenOp::Store(addr, rng.next_below(50)),
        2 => GenOp::FetchAdd(addr, 1 + rng.next_below(4)),
        3 => GenOp::Swap(addr, rng.next_below(50)),
        4 => GenOp::Cas(addr, rng.next_below(5), rng.next_below(50)),
        _ => GenOp::Delay(rng.next_below(40)),
    }
}

/// 1..=6 processors, or one case in eight 63..=70 (presence rows of one
/// and of two words), each with up to 30 operations.
fn gen_program(rng: &mut Rng) -> Vec<Vec<GenOp>> {
    let nprocs = match rng.next_below(8) {
        0 => 63 + rng.next_below(8) as usize,
        _ => 1 + rng.next_below(6) as usize,
    };
    (0..nprocs)
        .map(|_| {
            let len = rng.next_below(30) as usize;
            (0..len).map(|_| gen_op(rng)).collect()
        })
        .collect()
}

fn run_program(params: MachineParams, prog: &[Vec<GenOp>]) -> memsim::RunReport {
    let machine = Machine::new(params);
    machine
        .run(prog.len(), WORDS, |p| {
            for &op in &prog[p.pid()] {
                match op {
                    GenOp::Load(a) => {
                        p.load(a);
                    }
                    GenOp::Store(a, v) => p.store(a, v),
                    GenOp::FetchAdd(a, d) => {
                        p.fetch_add(a, d);
                    }
                    GenOp::Swap(a, v) => {
                        p.swap(a, v);
                    }
                    GenOp::Cas(a, e, n) => {
                        let _ = p.cas(a, e, n);
                    }
                    GenOp::Delay(c) => p.delay(c),
                }
            }
        })
        .expect("straight-line programs cannot deadlock")
}

/// Determinism: the same program produces identical metrics and memory
/// on repeated runs, on both topologies.
#[test]
fn random_programs_are_deterministic() {
    let mut rng = Rng::new(1);
    for case in 0..CASES {
        let prog = gen_program(&mut rng);
        for params in [
            MachineParams::bus_1991(prog.len()),
            MachineParams::numa_1991(prog.len()),
        ] {
            let a = run_program(params.clone(), &prog);
            let b = run_program(params, &prog);
            assert_eq!(a.memory, b.memory, "case {case}: memory diverged");
            assert_eq!(a.metrics, b.metrics, "case {case}: metrics diverged");
        }
    }
}

/// Accounting: hits + misses + upgrades == every access classified exactly
/// once.
#[test]
fn access_accounting_balances() {
    let mut rng = Rng::new(2);
    for case in 0..CASES {
        let prog = gen_program(&mut rng);
        let report = run_program(MachineParams::bus_1991(prog.len()), &prog);
        for pm in &report.metrics.per_proc {
            assert_eq!(
                pm.hits + pm.misses + pm.upgrades,
                pm.ops(),
                "case {case}: access classes do not partition"
            );
        }
    }
}

/// Conservation: an address touched only by fetch_add ends at the sum
/// of its deltas.
#[test]
fn fetch_add_conserves() {
    let mut rng = Rng::new(3);
    for case in 0..CASES {
        let nprocs = 1 + rng.next_below(5) as usize;
        let deltas: Vec<Vec<u64>> = (0..nprocs)
            .map(|_| {
                let len = rng.next_below(20) as usize;
                (0..len).map(|_| 1 + rng.next_below(6)).collect()
            })
            .collect();
        let machine = Machine::new(MachineParams::bus_1991(deltas.len()));
        let expected: u64 = deltas.iter().flatten().sum();
        let report = machine
            .run(deltas.len(), 1, |p| {
                for &d in &deltas[p.pid()] {
                    p.fetch_add(0, d);
                }
            })
            .unwrap();
        assert_eq!(report.memory[0], expected, "case {case}: deltas lost");
    }
}

/// Value domain: a word only ever holds a value some operation wrote
/// (or its initial zero) — the final memory is drawn from the write set.
#[test]
fn final_values_come_from_writes() {
    let mut rng = Rng::new(4);
    for case in 0..CASES {
        let prog = gen_program(&mut rng);
        let report = run_program(MachineParams::bus_1991(prog.len()), &prog);
        // Collect every value any op could produce per address. Fetch-add
        // makes exact value sets expensive; only check addresses it never
        // touches.
        let mut possible: Vec<std::collections::HashSet<u64>> =
            vec![std::iter::once(0).collect(); WORDS];
        let mut has_fa = [false; WORDS];
        for ops in &prog {
            for &op in ops {
                match op {
                    GenOp::Store(a, v) | GenOp::Swap(a, v) => {
                        possible[a].insert(v);
                    }
                    GenOp::Cas(a, _, n) => {
                        possible[a].insert(n);
                    }
                    GenOp::FetchAdd(a, _) => has_fa[a] = true,
                    _ => {}
                }
            }
        }
        for a in 0..WORDS {
            if !has_fa[a] {
                assert!(
                    possible[a].contains(&report.memory[a]),
                    "case {case}: word {a} holds {} which nothing wrote",
                    report.memory[a]
                );
            }
        }
    }
}

/// Time monotonicity: elapsed time is at least each processor's total
/// explicit delay, and interconnect transactions are bounded by misses
/// plus upgrades.
#[test]
fn timing_and_traffic_bounds() {
    let mut rng = Rng::new(5);
    for case in 0..CASES {
        let prog = gen_program(&mut rng);
        let report = run_program(MachineParams::bus_1991(prog.len()), &prog);
        let m = &report.metrics;
        for (pid, ops) in prog.iter().enumerate() {
            let delays: u64 = ops
                .iter()
                .map(|op| match op {
                    GenOp::Delay(c) => *c,
                    _ => 0,
                })
                .sum();
            assert!(
                m.per_proc[pid].finish_time >= delays,
                "case {case}: proc {pid} finished before its own delays"
            );
        }
        let classified: u64 = m.misses() + m.per_proc.iter().map(|p| p.upgrades).sum::<u64>();
        assert_eq!(
            m.interconnect_transactions, classified,
            "case {case}: unclassified interconnect traffic"
        );
    }
}

#[test]
fn numa_topology_is_reported() {
    let params = MachineParams::numa_1991(8);
    assert!(matches!(params.topology, Topology::Numa { nodes: 2 }));
}

//! Reproduction-shape assertions: the qualitative claims of the
//! reconstructed evaluation, asserted as inequalities the way EXPERIMENTS.md
//! reports them. These are the tests that fail if the simulator or an
//! algorithm regresses in a way that would silently change the figures.

use kernels::locks::{counter_trial, lock_by_name, LockKernel};
use memsim::{Machine, MachineParams};
use workloads::barrierbench::{self, BarrierConfig};
use workloads::csbench::{self, CsConfig};
use workloads::fairness::{self, FairnessConfig};
use workloads::sweeps::MachineKind;

fn passing_time(kind: MachineKind, lock: &dyn LockKernel, p: usize) -> f64 {
    let machine = kind.machine(p);
    let cfg = CsConfig {
        think: 0,
        jitter: false,
        hold: 20,
        ..CsConfig::new(p, 8)
    };
    csbench::run(&machine, lock, &cfg).unwrap().passing_time
}

/// fig1's shape: TAS degrades linearly with P while QSM stays flat, and
/// the gap at P=32 is an order of magnitude.
#[test]
fn fig1_shape_tas_linear_qsm_flat() {
    let tas = lock_by_name("tas").unwrap();
    let qsm = lock_by_name("qsm").unwrap();
    let tas8 = passing_time(MachineKind::Bus, tas.as_ref(), 8);
    let tas32 = passing_time(MachineKind::Bus, tas.as_ref(), 32);
    let qsm8 = passing_time(MachineKind::Bus, qsm.as_ref(), 8);
    let qsm32 = passing_time(MachineKind::Bus, qsm.as_ref(), 32);
    assert!(
        tas32 > 3.0 * tas8,
        "tas must degrade ~linearly: {tas8:.0} @8 vs {tas32:.0} @32"
    );
    assert!(
        qsm32 < 1.2 * qsm8,
        "qsm must stay flat: {qsm8:.0} @8 vs {qsm32:.0} @32"
    );
    assert!(
        tas32 > 10.0 * qsm32,
        "headline gap at P=32: tas {tas32:.0} vs qsm {qsm32:.0}"
    );
}

/// fig2's shape: the same ordering holds on the NUMA machine.
#[test]
fn fig2_shape_holds_on_numa() {
    let tas = lock_by_name("tas").unwrap();
    let qsm = lock_by_name("qsm").unwrap();
    let mcs = lock_by_name("mcs").unwrap();
    let tas32 = passing_time(MachineKind::Numa, tas.as_ref(), 32);
    let qsm32 = passing_time(MachineKind::Numa, qsm.as_ref(), 32);
    let mcs32 = passing_time(MachineKind::Numa, mcs.as_ref(), 32);
    // The NUMA gap is smaller than the bus gap (module service is cheaper
    // than a bus slot relative to the hand-off) but still decisive: ~3x.
    assert!(tas32 > 2.5 * qsm32, "tas {tas32:.0} vs qsm {qsm32:.0}");
    assert!(
        qsm32 < 1.5 * mcs32 && mcs32 < 1.5 * qsm32,
        "qsm {qsm32:.0} and mcs {mcs32:.0} must ride together"
    );
}

/// fig3's shape: traffic per critical section — TAS unbounded, TTAS grows,
/// queue locks constant.
#[test]
fn fig3_shape_traffic_ordering() {
    let traffic = |name: &str, p: usize| {
        let lock = lock_by_name(name).unwrap();
        let machine = Machine::new(MachineParams::bus_1991(p));
        let cfg = CsConfig {
            think: 0,
            jitter: false,
            hold: 20,
            ..CsConfig::new(p, 8)
        };
        csbench::run(&machine, lock.as_ref(), &cfg)
            .unwrap()
            .transactions_per_cs
    };
    let tas8 = traffic("tas", 8);
    let tas32 = traffic("tas", 32);
    let qsm8 = traffic("qsm", 8);
    let qsm32 = traffic("qsm", 32);
    assert!(
        tas32 > 2.5 * tas8,
        "tas traffic grows: {tas8:.1} -> {tas32:.1}"
    );
    assert!(
        qsm32 < qsm8 * 1.3,
        "qsm traffic ~constant: {qsm8:.1} -> {qsm32:.1}"
    );
    assert!(tas32 > 5.0 * qsm32);
}

/// fig4's shape: a crossover exists — under no contention the simple locks
/// are no worse (lower constants), under heavy hold times the queue locks
/// win on throughput.
#[test]
fn fig4_shape_crossover() {
    let throughput = |name: &str, hold: u64| {
        let lock = lock_by_name(name).unwrap();
        let machine = Machine::new(MachineParams::bus_1991(16));
        let cfg = CsConfig {
            hold,
            think: 100,
            jitter: true,
            ..CsConfig::new(16, 10)
        };
        csbench::run(&machine, lock.as_ref(), &cfg)
            .unwrap()
            .throughput
    };
    // Heavy contention: queue lock clearly ahead of plain tas.
    assert!(throughput("qsm", 256) > 1.2 * throughput("tas", 256));
    // Uncontended-ish single processor: tas acquire+release is cheaper.
    let machine = Machine::new(MachineParams::bus_1991(1));
    let tas = lock_by_name("tas").unwrap();
    let qsm = lock_by_name("qsm").unwrap();
    let tas_lat = csbench::uncontended_latency(&machine, tas.as_ref(), 300);
    let qsm_lat = csbench::uncontended_latency(&machine, qsm.as_ref(), 300);
    assert!(
        tas_lat < qsm_lat,
        "uncontended constants favour tas: {tas_lat:.1} vs {qsm_lat:.1}"
    );
}

/// fig5/fig6's shape: central barrier linear in P; on NUMA the log-depth
/// barriers beat it decisively at scale.
#[test]
fn fig56_shape_barrier_scaling() {
    let episode = |kind: MachineKind, name: &str, p: usize| {
        let barrier = kernels::barriers::barrier_by_name(name).unwrap();
        let machine = kind.machine(p);
        barrierbench::run(
            &machine,
            barrier.as_ref(),
            &BarrierConfig {
                nprocs: p,
                episodes: 10,
                work: 50,
            },
        )
        .unwrap()
        .episode_time
    };
    let c8 = episode(MachineKind::Bus, "central", 8);
    let c48 = episode(MachineKind::Bus, "central", 48);
    assert!(
        c48 > 4.0 * c8,
        "central must serialize: {c8:.0} @8 vs {c48:.0} @48"
    );

    // Every log-depth barrier beats the central counter's hot spot on the
    // NUMA machine at scale, and grows sublinearly in P.
    let central48 = episode(MachineKind::Numa, "central", 48);
    for name in [
        "combining-tree",
        "mcs-tree",
        "qsm-tree",
        "tournament",
        "dissemination",
    ] {
        let at12 = episode(MachineKind::Numa, name, 12);
        let at48 = episode(MachineKind::Numa, name, 48);
        assert!(
            at48 < central48,
            "{name} ({at48:.0}) must beat central ({central48:.0}) on numa @48"
        );
        // combining-tree and qsm-tree release by broadcast (every waiter
        // re-reads one epoch word), a linear tail that the tree-release
        // barriers avoid — allow them a looser growth bound.
        let bound = if name.ends_with("tree") && name != "mcs-tree" {
            3.5
        } else {
            2.5
        };
        assert!(
            at48 < bound * at12,
            "{name} must grow sublinearly: {at12:.0} @12 vs {at48:.0} @48 (4x procs)"
        );
    }
}

/// table2's shape: queue locks are perfectly fair; TTAS admits starvation.
#[test]
fn table2_shape_fairness() {
    let machine = Machine::new(MachineParams::bus_1991(8));
    let cfg = FairnessConfig {
        nprocs: 8,
        total_cs: 96,
        hold: 30,
    };
    for name in ["ticket", "anderson", "clh", "mcs", "qsm"] {
        let lock = lock_by_name(name).unwrap();
        let r = fairness::run(&machine, lock.as_ref(), &cfg).unwrap();
        assert!(r.jain > 0.95, "{name} jain {}", r.jain);
        assert!(r.max_denial <= 16, "{name} denial {}", r.max_denial);
    }
    let ttas = fairness::run(&machine, lock_by_name("ttas").unwrap().as_ref(), &cfg).unwrap();
    assert!(
        ttas.max_denial > 16,
        "ttas should admit long denial runs, got {}",
        ttas.max_denial
    );
}

/// fig7c's property: the QSM fast path pays for itself — uncontended
/// acquisition is cheaper than MCS's swap-based one in RMW count terms, and
/// no slower contended.
#[test]
fn fig7_shape_fast_path() {
    let machine = Machine::new(MachineParams::bus_1991(1));
    let qsm = lock_by_name("qsm").unwrap();
    let lat_solo = csbench::uncontended_latency(&machine, qsm.as_ref(), 300);
    assert!(lat_solo < 60.0, "uncontended qsm {lat_solo:.1} too slow");
    let qsm16 = passing_time(MachineKind::Bus, qsm.as_ref(), 16);
    let mcs16 = passing_time(MachineKind::Bus, lock_by_name("mcs").unwrap().as_ref(), 16);
    assert!(
        qsm16 < 1.25 * mcs16,
        "contended qsm {qsm16:.0} vs mcs {mcs16:.0}"
    );
}

/// Everything above is deterministic: a full trial repeated bit-for-bit.
#[test]
fn whole_trials_are_deterministic() {
    let qsm = lock_by_name("qsm").unwrap();
    let a = passing_time(MachineKind::Bus, qsm.as_ref(), 16);
    let b = passing_time(MachineKind::Bus, qsm.as_ref(), 16);
    assert_eq!(a, b);
    let c = passing_time(MachineKind::Numa, qsm.as_ref(), 16);
    let d = passing_time(MachineKind::Numa, qsm.as_ref(), 16);
    assert_eq!(c, d);
}

/// A decade of P further: from P = 64 to 1024, a local-spinning queue
/// lock's interconnect traffic per critical section stays flat while
/// ticket's, every waiter re-reading one word, grows with P.
#[test]
fn queue_locks_stay_flat_to_a_thousand_processors() {
    let per_cs = |kind: MachineKind, name: &str, p: usize| {
        let lock = lock_by_name(name).unwrap();
        let (_, report) = counter_trial(&kind.machine(p), lock.as_ref(), p, 2, 20).unwrap();
        report.metrics.interconnect_transactions as f64 / (2 * p) as f64
    };
    for kind in [MachineKind::Bus, MachineKind::Numa] {
        for name in ["qsm", "mcs"] {
            let (at64, at1024) = (per_cs(kind, name, 64), per_cs(kind, name, 1024));
            assert!(
                at1024 < 1.05 * at64,
                "{kind:?} {name} must stay flat: {at64:.2} @64 vs {at1024:.2} @1024"
            );
        }
        let (at64, at1024) = (per_cs(kind, "ticket", 64), per_cs(kind, "ticket", 1024));
        assert!(
            at1024 > 10.0 * at64,
            "{kind:?} ticket must grow with P: {at64:.2} @64 vs {at1024:.2} @1024"
        );
    }
}

//! Drive the simulated 1991 multiprocessor directly: run one lock kernel on
//! the bus machine and on the NUMA machine, and print the traffic ledger
//! the figures are built from.
//!
//! ```text
//! cargo run --release --example simulate_machine [lock-name] [nprocs]
//! ```
//! e.g. `cargo run --release --example simulate_machine mcs 16`

use kernels::locks::{all_locks, lock_by_name};
use memsim::{Machine, MachineParams};
use workloads::csbench::{run, CsConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "qsm".to_string());
    let nprocs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);

    let Some(lock) = lock_by_name(&name) else {
        eprintln!(
            "unknown lock '{name}'. available: {}",
            all_locks()
                .iter()
                .map(|l| l.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    };

    let cfg = CsConfig {
        hold: 20,
        think: 0,
        jitter: false,
        ..CsConfig::new(nprocs, 10)
    };

    for (label, machine) in [
        ("bus", Machine::new(MachineParams::bus_1991(nprocs))),
        ("numa", Machine::new(MachineParams::numa_1991(nprocs))),
    ] {
        let r = run(&machine, lock.as_ref(), &cfg).expect("simulation failed");
        println!("== {name} on the {label} machine, P = {nprocs} ==");
        println!("  critical sections        {}", cfg.total_cs());
        println!("  elapsed cycles           {}", r.total_cycles);
        println!("  lock passing time        {:.1} cycles/CS", r.passing_time);
        println!("  interconnect txns / CS   {:.2}", r.transactions_per_cs);
        println!(
            "  cache hit rate           {:.1}%",
            r.metrics.hit_rate() * 100.0
        );
        println!("  invalidations            {}", r.metrics.invalidations);
        println!("  watchpoint wakeups       {}", r.metrics.wakeups());
        let spin: u64 = r.metrics.per_proc.iter().map(|p| p.spin_wait_cycles).sum();
        println!("  total spin-wait cycles   {spin}");
        println!();
    }
}

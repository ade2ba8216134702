//! Benches of the simulator itself — not a paper figure, but the number
//! that bounds how large a sweep the figure binaries can afford: simulated
//! memory operations per second of host time.
//!
//! Uses the workspace's own `bench::timing` harness (best-observed
//! ns/iter); run with `cargo bench -p bench --bench engine`.

use bench::timing::report;
use kernels::locks::{counter_trial, mcs::McsLock, tas::TasLock};
use kernels::SyncCtx;
use memsim::{Machine, MachineParams};

fn main() {
    for &p in &[1usize, 4, 16] {
        let machine = Machine::new(MachineParams::bus_1991(p));
        report(&format!("sim_fetch_add/p{p}"), || {
            machine
                .run(p, 1, |proc| {
                    for _ in 0..50 {
                        proc.fetch_add(0, 1);
                    }
                })
                .unwrap();
        });
    }

    let machine = Machine::new(MachineParams::bus_1991(8));
    report("sim_lock_trial_p8/mcs", || {
        counter_trial(&machine, &McsLock, 8, 8, 20).unwrap();
    });
    report("sim_lock_trial_p8/tas", || {
        counter_trial(&machine, &TasLock, 8, 8, 20).unwrap();
    });
}

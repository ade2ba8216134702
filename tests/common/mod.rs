//! The eventcount ring `service_stress` and `service_oversub` both run.

use service::LockService;

/// `threads` threads in a ring, `steps` steps each: wait for the
/// neighbour's count to reach this thread's step, then advance one's own —
/// `coord_mix`'s second phase. Every thread's count is its step, and a
/// thread advances only past a neighbour at most one behind it, so around
/// the ring the neighbour is never more than `threads - 1` ahead either:
/// each `await_at_least` must return a count inside that window.
pub fn eventcount_ring(svc: &LockService, threads: usize, steps: u64) {
    const KEY_BASE: u64 = 0xec << 32;
    // The handles outlive the threads: a count persists only while attached.
    let counts: Vec<_> = (0..threads as u64)
        .map(|t| svc.eventcount(KEY_BASE + t))
        .collect();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let (own, neighbour) = (&counts[tid], &counts[(tid + 1) % threads]);
            s.spawn(move || {
                for step in 0..steps {
                    let seen = neighbour.await_at_least(step);
                    assert!(
                        (step..step + threads as u64).contains(&seen),
                        "thread {tid} at step {step} saw its neighbour at {seen}"
                    );
                    assert_eq!(own.advance(), step + 1);
                }
            });
        }
    });
    assert!(counts.iter().all(|c| c.read() == steps));
}

//! Counts read at the service's layer boundaries — `metrics_snapshot()`,
//! the lot-local and process-global futex ledgers, `stats()` — and their
//! reduction to the per-layer metrics of one repetition.

use crate::workload::Rep;
use parking::futex::FutexTotals;
use service::{LockService, MetricsSnapshot};

/// Everything countable about a service at a quiescent point.
pub struct Counts {
    snap: MetricsSnapshot,
    /// Ledger of the service's own lot (mutex, eventcount, barrier waits).
    local: FutexTotals,
    /// Ledger of the process-global lot (semaphore waits park there).
    global: FutexTotals,
}

impl Counts {
    pub fn read(svc: &LockService) -> Self {
        Counts {
            snap: svc.metrics_snapshot(),
            local: svc.futex_totals(),
            global: parking::futex::totals(),
        }
    }

    /// Closes a repetition that ran against `svc` since `before` was read:
    /// fails all of its operations for each quiescence invariant that does
    /// not hold, and records the per-layer counts.
    pub fn close(before: &Counts, svc: &LockService, rep: &mut Rep) {
        let after = Counts::read(svc);
        for violation in after.quiescent_violations() {
            rep.fail(rep.ops, violation);
        }
        rep.layers.extend(after.since(before, rep.ops));
    }

    /// Invariants that must hold whenever no operation is in flight.
    pub fn quiescent_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let live = self.snap.table.map_or(0, |t| t.live);
        if live != 0 {
            out.push(format!(
                "table holds {live} live slot(s) with no operation in flight"
            ));
        }
        for (name, t) in [("service lot", self.local), ("global lot", self.global)] {
            if !t.balanced() {
                out.push(format!(
                    "{name} ledger unbalanced: parks={} wakes={} resumes={}",
                    t.parks, t.wakes, t.resumes
                ));
            }
        }
        out
    }

    /// Per-layer metrics of the `ops` operations run between `before` and
    /// `self`. Shares are of mutex acquisitions (an async operation may
    /// make three); rates are per operation.
    pub fn since(&self, before: &Counts, ops: u64) -> Vec<(&'static str, f64)> {
        let (a, b) = (&self.snap, &before.snap);
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let acquires = a.acquires - b.acquires;
        let fast = a.fast_path - b.fast_path;
        let parked = a.parked - b.parked;
        let grants = a.sem_grants - b.sem_grants;
        let local = self.local.since(&before.local);
        let global = self.global.since(&before.global);
        let imbalance = |t: &FutexTotals| t.parks.abs_diff(t.wakes) + t.wakes.abs_diff(t.resumes);
        let table = a.table.expect("snapshot taken through a service handle");
        vec![
            ("lock.fast_path_share", ratio(fast, acquires)),
            ("lock.spin_share", ratio(acquires - fast - parked, acquires)),
            ("lock.parked_share", ratio(parked, acquires)),
            (
                "lock.cas_retries_per_op",
                ratio(a.cas_retries - b.cas_retries, ops),
            ),
            ("futex.parks_per_op", ratio(local.parks + global.parks, ops)),
            ("futex.wakes_per_op", ratio(local.wakes + global.wakes, ops)),
            (
                "futex.ledger_imbalance",
                (imbalance(&local) + imbalance(&global)) as f64,
            ),
            ("semaphore.grants_per_op", ratio(grants, ops)),
            (
                "semaphore.abandons",
                (a.sem_abandons - b.sem_abandons) as f64,
            ),
            ("semaphore.wakes_per_grant", ratio(global.wakes, grants)),
            (
                "async.cancellations",
                (a.cancellations - b.cancellations) as f64,
            ),
            ("table.capacity_slots", table.capacity as f64),
            ("table.peak_live", table.peak_live as f64),
            (
                "table.reuses",
                (table.reuses - b.table.map_or(0, |t| t.reuses)) as f64,
            ),
            ("table.live_after", table.live as f64),
        ]
    }
}

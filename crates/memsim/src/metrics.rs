//! Traffic and timing counters.
//!
//! These counters are the simulator's *output*: fig3 reports
//! [`Metrics::interconnect_transactions`] per critical section, fig1/fig2
//! derive lock-passing time from [`Metrics::total_cycles`], and the
//! per-processor breakdown feeds the fairness table.

/// Counters for one simulated processor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcMetrics {
    /// Plain loads issued.
    pub loads: u64,
    /// Plain stores issued.
    pub stores: u64,
    /// Atomic read-modify-writes issued (swap/cas/fetch_add/test_and_set).
    pub rmws: u64,
    /// Accesses satisfied by the private cache.
    pub hits: u64,
    /// Accesses that required an interconnect transaction to fetch the line.
    pub misses: u64,
    /// Writes that hit a Shared line and had to invalidate other copies.
    pub upgrades: u64,
    /// Times this processor was woken from a `spin_while` watchpoint or a
    /// futex `wait` park.
    pub wakeups: u64,
    /// Cycles spent blocked inside `spin_while` or parked in futex `wait`.
    pub spin_wait_cycles: u64,
    /// Times this processor parked in futex `wait` (immediate returns on a
    /// changed word do not count).
    pub futex_parks: u64,
    /// Parked waiters this processor's futex `wake` calls dequeued — the
    /// waker-side mirror of [`ProcMetrics::futex_parks`]: on a run that
    /// completes, the machine-wide totals must balance.
    pub futex_woken: u64,
    /// Times this processor was placed on a core by the oversubscription
    /// scheduler; always 0 when [`crate::MachineParams::sched`] is `None`.
    pub ctx_switches: u64,
    /// This processor's final local clock.
    pub finish_time: u64,
}

impl ProcMetrics {
    /// Total memory operations issued (loads + stores + RMWs).
    pub fn ops(&self) -> u64 {
        self.loads + self.stores + self.rmws
    }

    /// Counter growth since `before` (an earlier snapshot of this same
    /// processor). Every field except `finish_time` is a monotonic counter
    /// and subtracts; `finish_time` is set-once, so the delta carries the
    /// current value (0 until the processor finishes) and merges by max.
    pub fn delta_since(&self, before: &ProcMetrics) -> ProcMetrics {
        ProcMetrics {
            loads: self.loads - before.loads,
            stores: self.stores - before.stores,
            rmws: self.rmws - before.rmws,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            upgrades: self.upgrades - before.upgrades,
            wakeups: self.wakeups - before.wakeups,
            spin_wait_cycles: self.spin_wait_cycles - before.spin_wait_cycles,
            futex_parks: self.futex_parks - before.futex_parks,
            futex_woken: self.futex_woken - before.futex_woken,
            ctx_switches: self.ctx_switches - before.ctx_switches,
            finish_time: self.finish_time,
        }
    }

    /// Folds a later interval's [`ProcMetrics::delta_since`] into this
    /// accumulated view.
    pub fn absorb(&mut self, delta: &ProcMetrics) {
        self.loads += delta.loads;
        self.stores += delta.stores;
        self.rmws += delta.rmws;
        self.hits += delta.hits;
        self.misses += delta.misses;
        self.upgrades += delta.upgrades;
        self.wakeups += delta.wakeups;
        self.spin_wait_cycles += delta.spin_wait_cycles;
        self.futex_parks += delta.futex_parks;
        self.futex_woken += delta.futex_woken;
        self.ctx_switches += delta.ctx_switches;
        self.finish_time = self.finish_time.max(delta.finish_time);
    }
}

/// Whole-machine counters plus the per-processor breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Per-processor counters, indexed by pid.
    pub per_proc: Vec<ProcMetrics>,
    /// Interconnect transactions: bus occupancies on the bus machine, memory
    /// module requests on the NUMA machine. The currency of fig3.
    pub interconnect_transactions: u64,
    /// Total invalidation messages sent to remote sharers.
    pub invalidations: u64,
    /// Simulated time at which the last processor finished.
    pub total_cycles: u64,
}

impl Metrics {
    /// Creates zeroed metrics for `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        Metrics {
            per_proc: vec![ProcMetrics::default(); nprocs],
            ..Metrics::default()
        }
    }

    /// Sum of loads across processors.
    pub fn loads(&self) -> u64 {
        self.per_proc.iter().map(|p| p.loads).sum()
    }

    /// Sum of stores across processors.
    pub fn stores(&self) -> u64 {
        self.per_proc.iter().map(|p| p.stores).sum()
    }

    /// Sum of RMWs across processors.
    pub fn rmws(&self) -> u64 {
        self.per_proc.iter().map(|p| p.rmws).sum()
    }

    /// Sum of cache hits across processors.
    pub fn hits(&self) -> u64 {
        self.per_proc.iter().map(|p| p.hits).sum()
    }

    /// Sum of cache misses across processors.
    pub fn misses(&self) -> u64 {
        self.per_proc.iter().map(|p| p.misses).sum()
    }

    /// Sum of shared-to-modified upgrades across processors.
    pub fn upgrades(&self) -> u64 {
        self.per_proc.iter().map(|p| p.upgrades).sum()
    }

    /// Sum of watchpoint/futex wakeups across processors.
    pub fn wakeups(&self) -> u64 {
        self.per_proc.iter().map(|p| p.wakeups).sum()
    }

    /// Sum of scheduler core placements across processors; 0 on machines
    /// without an oversubscription scheduler.
    pub fn ctx_switches(&self) -> u64 {
        self.per_proc.iter().map(|p| p.ctx_switches).sum()
    }

    /// Sum of futex parks across processors.
    pub fn futex_parks(&self) -> u64 {
        self.per_proc.iter().map(|p| p.futex_parks).sum()
    }

    /// Sum of waiters dequeued by futex `wake` across processors. Equals
    /// [`Metrics::futex_parks`] on any run that completed (every parked
    /// processor must have been woken for the run to finish).
    pub fn futex_woken(&self) -> u64 {
        self.per_proc.iter().map(|p| p.futex_woken).sum()
    }

    /// Counter growth since `before` (a snapshot of this machine earlier in
    /// the same run): per-processor deltas plus machine-wide counter
    /// differences. `total_cycles` is a high-water mark, not a counter —
    /// the delta carries the current value and merges by max.
    ///
    /// # Panics
    ///
    /// If the processor counts differ.
    pub fn delta_since(&self, before: &Metrics) -> Metrics {
        assert_eq!(
            self.per_proc.len(),
            before.per_proc.len(),
            "metrics deltas need matching processor counts"
        );
        Metrics {
            per_proc: self
                .per_proc
                .iter()
                .zip(&before.per_proc)
                .map(|(now, then)| now.delta_since(then))
                .collect(),
            interconnect_transactions: self.interconnect_transactions
                - before.interconnect_transactions,
            invalidations: self.invalidations - before.invalidations,
            total_cycles: self.total_cycles,
        }
    }

    /// Folds a later interval's [`Metrics::delta_since`] into this
    /// accumulated view. Summing every fragment's delta (in any order) onto
    /// the run's starting metrics reproduces the final metrics exactly.
    ///
    /// # Panics
    ///
    /// If the processor counts differ.
    pub fn absorb(&mut self, delta: &Metrics) {
        assert_eq!(
            self.per_proc.len(),
            delta.per_proc.len(),
            "metrics merges need matching processor counts"
        );
        for (acc, d) in self.per_proc.iter_mut().zip(&delta.per_proc) {
            acc.absorb(d);
        }
        self.interconnect_transactions += delta.interconnect_transactions;
        self.invalidations += delta.invalidations;
        self.total_cycles = self.total_cycles.max(delta.total_cycles);
    }

    /// Global cache hit rate in `[0, 1]`; 0 when no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let m = Metrics::new(4);
        assert_eq!(m.per_proc.len(), 4);
        assert_eq!(m.loads(), 0);
        assert_eq!(m.hit_rate(), 0.0);
    }

    #[test]
    fn aggregation_sums_processors() {
        let mut m = Metrics::new(2);
        m.per_proc[0].loads = 3;
        m.per_proc[0].hits = 2;
        m.per_proc[0].misses = 1;
        m.per_proc[1].loads = 5;
        m.per_proc[1].stores = 7;
        m.per_proc[1].hits = 6;
        m.per_proc[1].misses = 6;
        assert_eq!(m.loads(), 8);
        assert_eq!(m.stores(), 7);
        assert_eq!(m.hits(), 8);
        assert_eq!(m.misses(), 7);
        assert!((m.hit_rate() - 8.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_helpers_cover_scheduler_and_wait_counters() {
        let mut m = Metrics::new(3);
        m.per_proc[0].upgrades = 2;
        m.per_proc[1].upgrades = 3;
        m.per_proc[1].ctx_switches = 4;
        m.per_proc[2].ctx_switches = 1;
        m.per_proc[0].futex_parks = 2;
        m.per_proc[1].futex_woken = 2;
        assert_eq!(m.upgrades(), 5);
        assert_eq!(m.ctx_switches(), 5);
        assert_eq!(m.futex_parks(), m.futex_woken());
    }

    #[test]
    fn ops_counts_all_kinds() {
        let p = ProcMetrics {
            loads: 1,
            stores: 2,
            rmws: 3,
            ..ProcMetrics::default()
        };
        assert_eq!(p.ops(), 6);
    }
}

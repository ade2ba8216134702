//! Machine configuration.
//!
//! The parameters mirror the knobs 1991-era simulation studies report: the
//! cache line size, the relative cost of a cache hit versus an interconnect
//! transaction, and the interconnect topology. Cache *capacity* is not a
//! parameter: caches are unbounded ([`crate::coherence`]), since no
//! synchronization working set nears the size of a cache of the period. Absolute values follow the
//! conventional ratios of the period (hit = 1 cycle, bus transaction ≈ 20,
//! remote NUMA reference ≈ 2–4× a local one); the reproduction targets curve
//! *shapes*, which are insensitive to modest changes in these constants —
//! `fig7`'s ablation run demonstrates that.

/// Interconnect topology of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// A single split-transaction bus with FIFO arbitration (Sequent
    /// Symmetry class). Every miss, upgrade, and remote RMW occupies the bus.
    Bus,
    /// A distributed machine with one memory module per node and a
    /// point-to-point network (BBN Butterfly class). Lines are interleaved
    /// across modules; processors are assigned to nodes round-robin.
    Numa {
        /// Number of nodes (= memory modules). Must be nonzero.
        nodes: usize,
    },
}

/// Processor scheduler for oversubscribed runs (more simulated threads than
/// cores). When [`MachineParams::sched`] is `Some`, the machine multiplexes
/// its P logical processors onto `cores` execution slots with round-robin
/// quanta, and the futex operations (`Proc`'s `wait` / `wake`) interact
/// with the scheduler: a parked processor yields its core immediately, and a
/// wake re-enters it through the ready queue.
///
/// Spin waits change meaning under the scheduler: instead of sleeping on a
/// zero-cost watchpoint, a spinning processor *polls* — it re-probes its word
/// every `spin_poll_cycles` and keeps its core busy the whole time, so it can
/// be preempted at quantum boundaries like any other processor. That is the
/// behavior that makes pure spinning collapse past 1× threads/core (`fig9`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedParams {
    /// Execution slots the logical processors are multiplexed onto.
    pub cores: usize,
    /// Cycles a processor may occupy a core before it can be preempted.
    /// Preemption only happens when another processor is waiting for a core.
    pub quantum: u64,
    /// Cycles charged each time a processor is placed on a core.
    pub ctx_switch_cycles: u64,
    /// Cycles the waker pays per processor woken by a futex wake — the
    /// modeled remote write into the wakee's parker state.
    pub wake_cycles: u64,
    /// Interval between spin-wait re-probes while busy-polling on a core.
    pub spin_poll_cycles: u64,
}

impl SchedParams {
    /// Scheduler costs consistent with the 1991-era machine ratios: a quantum
    /// spans tens of bus transactions, a context switch costs a few of them,
    /// and a wake costs about one remote write.
    pub fn oversub_1991(cores: usize) -> Self {
        SchedParams {
            cores,
            quantum: 400,
            ctx_switch_cycles: 60,
            wake_cycles: 30,
            spin_poll_cycles: 20,
        }
    }
}

/// Full description of a simulated machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineParams {
    /// Interconnect topology.
    pub topology: Topology,
    /// Words per cache line (power of two). Synchronization variables that the
    /// kernels intend to keep apart are padded to this granularity. A cache
    /// holds every line it fetches until another processor's write
    /// invalidates it: there is no capacity to set.
    pub line_words: usize,
    /// Cost of an access that hits in the private cache.
    pub hit_cycles: u64,
    /// Occupancy of one bus transaction (miss fill, upgrade, remote RMW) on
    /// the [`Topology::Bus`] machine. Transactions serialize.
    pub bus_cycles: u64,
    /// Service time of a memory module on the [`Topology::Numa`] machine.
    /// Requests to the same module serialize.
    pub mem_cycles: u64,
    /// One-way network traversal cost between distinct NUMA nodes; a remote
    /// reference pays two (request + reply).
    pub hop_cycles: u64,
    /// Additional cost charged per remote sharer that must be invalidated on
    /// a write/upgrade (directory fan-out on NUMA; snoop response on the bus).
    pub inv_cycles: u64,
    /// Extra cost of an atomic read-modify-write over a plain access when the
    /// line is already owned exclusively.
    pub rmw_extra_cycles: u64,
    /// Hard cap on simulated time; exceeded ⇒ [`crate::SimError::TimeLimit`].
    pub max_cycles: u64,
    /// Oversubscription scheduler. `None` (the presets' default) gives every
    /// logical processor its own core — the classic dedicated-processor
    /// regime every pre-existing figure runs in.
    pub sched: Option<SchedParams>,
}

impl MachineParams {
    /// Bus-based cache-coherent multiprocessor with 1991-era cost ratios,
    /// sized for `nprocs` processors.
    pub fn bus_1991(nprocs: usize) -> Self {
        let _ = nprocs; // geometry below is independent of P; kept for symmetry
        MachineParams {
            topology: Topology::Bus,
            line_words: 8,
            hit_cycles: 1,
            bus_cycles: 20,
            mem_cycles: 0,
            hop_cycles: 0,
            inv_cycles: 2,
            rmw_extra_cycles: 3,
            max_cycles: u64::MAX / 4,
            sched: None,
        }
    }

    /// Distributed NUMA multiprocessor with 1991-era cost ratios: one node
    /// per four processors (minimum two nodes), remote reference ≈ 3–4× local.
    pub fn numa_1991(nprocs: usize) -> Self {
        MachineParams {
            topology: Topology::Numa {
                nodes: (nprocs.div_ceil(4)).max(2),
            },
            line_words: 8,
            hit_cycles: 1,
            bus_cycles: 0,
            mem_cycles: 12,
            hop_cycles: 10,
            inv_cycles: 4,
            rmw_extra_cycles: 3,
            max_cycles: u64::MAX / 4,
            sched: None,
        }
    }

    /// Index of the cache line containing a word address. `line_words` is
    /// a power of two ([`MachineParams::validate`]), so this is a shift, not
    /// a division by a run-time value on every simulated access.
    pub fn line_of(&self, addr: usize) -> usize {
        addr >> self.line_words.trailing_zeros()
    }

    /// Home node of a line under the NUMA interleaving (always 0 on a bus).
    ///
    /// Lines are *hash*-interleaved across modules rather than taken modulo
    /// the node count: modular interleaving resonates with the strided flag
    /// layouts of the tree/dissemination barriers (e.g. a stride of 12 lines
    /// against 12 modules puts every processor's round-r flag on one module),
    /// turning a layout accident into a synthetic hot spot. Hardware of the
    /// era scrambled interleave bits for exactly this reason.
    pub fn home_node(&self, line: usize) -> usize {
        match self.topology {
            Topology::Bus => 0,
            Topology::Numa { nodes } => {
                let h = (line as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 33) % nodes as u64) as usize
            }
        }
    }

    /// Node a processor resides on (always 0 on a bus).
    pub fn node_of_proc(&self, pid: usize) -> usize {
        match self.topology {
            Topology::Bus => 0,
            Topology::Numa { nodes } => pid % nodes,
        }
    }

    /// Validates internal consistency; called by the machine constructor.
    pub fn validate(&self) {
        assert!(
            self.line_words.is_power_of_two(),
            "line_words must be a power of two"
        );
        if let Topology::Numa { nodes } = self.topology {
            assert!(nodes > 0, "NUMA machine needs at least one node");
        }
        if let Some(sched) = &self.sched {
            assert!(sched.cores > 0, "scheduler needs at least one core");
            assert!(sched.quantum > 0, "scheduler quantum must be nonzero");
            assert!(
                sched.spin_poll_cycles > 0,
                "spin poll interval must be nonzero"
            );
        }
    }

    /// Flat cost charged per woken processor on a futex wake: the scheduler's
    /// `wake_cycles` when configured, otherwise roughly one remote write on
    /// the machine's interconnect.
    pub fn wake_cycles(&self) -> u64 {
        if let Some(sched) = &self.sched {
            return sched.wake_cycles;
        }
        match self.topology {
            Topology::Bus => self.bus_cycles + self.inv_cycles,
            Topology::Numa { .. } => self.mem_cycles + 2 * self.hop_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        MachineParams::bus_1991(16).validate();
        MachineParams::numa_1991(16).validate();
    }

    #[test]
    fn numa_nodes_scale_with_procs() {
        let p = MachineParams::numa_1991(32);
        assert_eq!(p.topology, Topology::Numa { nodes: 8 });
        let small = MachineParams::numa_1991(2);
        assert_eq!(small.topology, Topology::Numa { nodes: 2 });
    }

    #[test]
    fn line_mapping() {
        let p = MachineParams::bus_1991(4);
        assert_eq!(p.line_of(0), 0);
        assert_eq!(p.line_of(7), 0);
        assert_eq!(p.line_of(8), 1);
    }

    #[test]
    fn bus_homes_everything_on_node_zero() {
        let p = MachineParams::bus_1991(4);
        assert_eq!(p.home_node(17), 0);
        assert_eq!(p.node_of_proc(3), 0);
    }

    #[test]
    fn numa_interleaves_lines_and_procs() {
        let p = MachineParams::numa_1991(16); // 4 nodes
                                              // Hash interleaving: homes are stable, in range, and balanced —
                                              // and crucially, strided line sequences do not collapse onto one
                                              // module (the resonance the hash exists to kill).
        let mut per_node = vec![0usize; 4];
        for line in 0..400 {
            let home = p.home_node(line);
            assert!(home < 4);
            assert_eq!(home, p.home_node(line), "home must be stable");
            per_node[home] += 1;
        }
        assert!(per_node.iter().all(|&c| c > 50), "imbalanced: {per_node:?}");
        // Strided accesses (the dissemination layout) stay spread out.
        let mut strided = std::collections::HashSet::new();
        for k in 0..12 {
            strided.insert(p.home_node(k * 12));
        }
        assert!(strided.len() >= 3, "stride-12 resonance: {strided:?}");
        assert_eq!(p.node_of_proc(0), 0);
        assert_eq!(p.node_of_proc(1), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_words_rejected() {
        let mut p = MachineParams::bus_1991(2);
        p.line_words = 3;
        p.validate();
    }

    #[test]
    fn sched_preset_validates_and_sets_wake_cost() {
        let mut p = MachineParams::bus_1991(8);
        assert_eq!(p.wake_cycles(), p.bus_cycles + p.inv_cycles);
        p.sched = Some(SchedParams::oversub_1991(4));
        p.validate();
        assert_eq!(p.wake_cycles(), 30);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_scheduler_rejected() {
        let mut p = MachineParams::bus_1991(2);
        p.sched = Some(SchedParams {
            cores: 0,
            ..SchedParams::oversub_1991(1)
        });
        p.validate();
    }
}

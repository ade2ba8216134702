//! Interconnect timing models.
//!
//! Both models expose one operation: *perform a coherence transaction issued
//! at time `t` by a processor on node `src` against the home of a line on
//! node `home`, with `extra` cycles of protocol work (invalidation fan-out,
//! RMW), and return when it completes*. Contention is what distinguishes the
//! machines:
//!
//! * **Bus** — one global FIFO resource; every transaction occupies it fully.
//!   Queuing delay at the bus is what makes test-and-set collapse as P grows.
//! * **NUMA** — one FIFO memory module per node plus per-hop network latency.
//!   A hot synchronization variable saturates *its* module while the rest of
//!   the machine stays idle — the "hot-spot" phenomenon of Butterfly studies.

use crate::params::MachineParams;
use crate::Topology;

/// Shared-resource timing state for the configured topology.
#[derive(Debug, Clone)]
pub enum Interconnect {
    /// Single bus; the field is the time the bus next becomes free.
    Bus {
        /// End of the latest scheduled transaction.
        free_at: u64,
        /// Bus occupancy per transaction.
        occupancy: u64,
    },
    /// Per-node memory modules and a point-to-point network.
    Numa {
        /// Per-module next-free times.
        module_free_at: Vec<u64>,
        /// Module service time.
        service: u64,
        /// One-way hop latency.
        hop: u64,
    },
}

impl Interconnect {
    /// Builds the model described by `params`.
    pub fn new(params: &MachineParams) -> Self {
        match params.topology {
            Topology::Bus => Interconnect::Bus {
                free_at: 0,
                occupancy: params.bus_cycles,
            },
            Topology::Numa { nodes } => Interconnect::Numa {
                module_free_at: vec![0; nodes],
                service: params.mem_cycles,
                hop: params.hop_cycles,
            },
        }
    }

    /// Schedules one transaction and returns its completion time.
    ///
    /// `extra` models protocol work serialized with the transaction
    /// (invalidation fan-out, atomic RMW execution at the memory).
    pub fn transaction(
        &mut self,
        issue: u64,
        src_node: usize,
        home_node: usize,
        extra: u64,
    ) -> u64 {
        match self {
            Interconnect::Bus { free_at, occupancy } => {
                let start = issue.max(*free_at);
                let done = start + *occupancy + extra;
                *free_at = done;
                done
            }
            Interconnect::Numa {
                module_free_at,
                service,
                hop,
            } => {
                let remote = src_node != home_node;
                let request_hop = if remote { *hop } else { 0 };
                let arrival = issue + request_hop;
                let module = &mut module_free_at[home_node];
                let start = arrival.max(*module);
                let served = start + *service + extra;
                *module = served;
                served + request_hop // reply traverses the network back
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> Interconnect {
        Interconnect::Bus {
            free_at: 0,
            occupancy: 20,
        }
    }

    fn numa(nodes: usize) -> Interconnect {
        Interconnect::Numa {
            module_free_at: vec![0; nodes],
            service: 12,
            hop: 10,
        }
    }

    #[test]
    fn bus_uncontended_cost() {
        let mut b = bus();
        assert_eq!(b.transaction(100, 0, 0, 0), 120);
    }

    #[test]
    fn bus_serializes_concurrent_requests() {
        let mut b = bus();
        let t1 = b.transaction(0, 0, 0, 0);
        let t2 = b.transaction(0, 0, 0, 0);
        let t3 = b.transaction(5, 0, 0, 0);
        assert_eq!(t1, 20);
        assert_eq!(t2, 40); // queued behind t1
        assert_eq!(t3, 60); // queued behind t2 despite later issue
    }

    #[test]
    fn bus_idle_gap_not_charged() {
        let mut b = bus();
        b.transaction(0, 0, 0, 0); // bus free at 20
        assert_eq!(b.transaction(1000, 0, 0, 0), 1020);
    }

    #[test]
    fn bus_extra_extends_occupancy() {
        let mut b = bus();
        assert_eq!(b.transaction(0, 0, 0, 7), 27);
        assert_eq!(b.transaction(0, 0, 0, 0), 47);
    }

    #[test]
    fn numa_local_vs_remote() {
        let mut n = numa(2);
        // Local: service only.
        assert_eq!(n.transaction(0, 0, 0, 0), 12);
        // Remote: hop + service + hop, queued behind the first at module 0.
        let mut n2 = numa(2);
        assert_eq!(n2.transaction(0, 1, 0, 0), 10 + 12 + 10);
    }

    #[test]
    fn numa_modules_are_independent() {
        let mut n = numa(2);
        let a = n.transaction(0, 0, 0, 0);
        let b = n.transaction(0, 1, 1, 0);
        // Different modules: no queuing between them.
        assert_eq!(a, 12);
        assert_eq!(b, 12);
    }

    #[test]
    fn numa_hot_module_queues() {
        let mut n = numa(2);
        let a = n.transaction(0, 0, 0, 0);
        let b = n.transaction(0, 1, 0, 0);
        assert_eq!(a, 12);
        // Remote arrives at 10, waits until 12, served to 24, reply +10.
        assert_eq!(b, 34);
    }
}

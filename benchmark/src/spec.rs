//! The benchmark's definition in one place: workloads, metrics with their
//! units, and the constants frozen when the workloads were sized. A unit
//! test holds `BENCHMARK.json` at the repo root to these tables.

use crate::keys::KeyDist;
use crate::mutex::MutexSpec;

/// Repetitions of the timed region in one run; each metric is the median
/// over them. Many short repetitions rather than a few long ones: the
/// reference host slows by a quarter for a second or two at a time, and a
/// median shrugs that off only while such spells cover under half of the
/// repetitions.
pub const REPS: usize = 20;

/// Seconds of one run when the caller names none: `run_seconds` of
/// `BENCHMARK.json`, or a 0.3 s smoke with `--quick`.
pub const RUN_SECONDS: f64 = 10.0;
pub const QUICK_SECONDS: f64 = 0.3;

/// Set-ups per run; `setup_s` is the median over them.
pub const SETUP_TRIALS: usize = 5;

/// Length of the untimed warm-up repetition that ends each set-up.
pub const WARMUP_MS: u64 = 50;

/// Length of the discarded repetition between the last set-up and the
/// first timed repetition.
pub const SETTLE_MS: u64 = 1000;

/// An acquisition is timed on every this-many-th operation of an untraced
/// run, which keeps the two clock reads (~30 ns each on the reference
/// host) under a tenth of a 100 ns round trip.
pub const SAMPLE_EVERY: u64 = 8;

/// Wait samples kept per thread and repetition (the most recent ones).
pub const SAMPLE_CAP: usize = 1 << 19;

/// Hold lengths in hash-chain links (~4.5 ns each on the reference host).
/// `CONVOY_HOLD` was tuned once so that `lock.parked_share` sits between
/// 0.2 and 0.5 on the reference host, and is frozen: re-tuning it would
/// redefine the workload.
pub const ZIPF_HOLD: u32 = 220;
pub const CONVOY_HOLD: u32 = 3000;
pub const SEMAPHORE_HOLD: u32 = 110;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether the untraced run confines the process to one CPU first.
    ///
    /// Set for the simulator sweep. The simulator advances one simulated
    /// processor at a time whatever the host offers, handing over between
    /// sixteen OS threads at every memory event. Where the kernel places
    /// each woken thread is then by far the largest source of scatter on
    /// the reference host: a fifth between runs, and a factor of 4.5 in
    /// rate between "anywhere" and "one CPU". Confined, the run measures
    /// the engine and the model, not wake placement. The traced run stays
    /// unconfined (its probes need every core), so the `memsim.*` per-layer
    /// rates show what an unconfined user gets.
    pub one_cpu: bool,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "mutex_disjoint",
        why: "private keys, empty hold: nothing contends, so table attach/detach and the lock-word CAS do all the work",
        one_cpu: false,
    },
    WorkloadSpec {
        name: "mutex_churn",
        why: "uniform keys over 2^22: no key is touched twice, so resident-slot tricks are bypassed and memory must track live keys",
        one_cpu: false,
    },
    WorkloadSpec {
        name: "mutex_zipf",
        why: "Zipf(1.1) over 4096 keys with a ~1 us hold: the server mix, where table, spin budget and parking all matter a little",
        one_cpu: false,
    },
    WorkloadSpec {
        name: "mutex_convoy",
        why: "all threads on two keys with a long hold: futex wait/wake and the barging-vs-handoff policy do the work",
        one_cpu: false,
    },
    WorkloadSpec {
        name: "coord_mix",
        why: "semaphore, eventcount ring and barrier rounds: the three primitives no mutex workload touches",
        one_cpu: false,
    },
    WorkloadSpec {
        name: "async_mix",
        why: "64 tasks on the virtual-clock executor mixing lock, lock_many and timeouts: parking through wakers, not threads",
        one_cpu: false,
    },
    WorkloadSpec {
        name: "sim_sweep",
        why: "a fixed list of memsim cells (bus locks, NUMA barriers, oversubscribed futex): simulated events per host second",
        one_cpu: true,
    },
];

/// The key distribution and hold of a mutex workload, by name.
pub fn mutex_spec(name: &str) -> Option<MutexSpec> {
    Some(match name {
        "mutex_disjoint" => MutexSpec {
            dist: KeyDist::Private { per_thread: 64 },
            hold: 0,
        },
        "mutex_churn" => MutexSpec {
            dist: KeyDist::Uniform { space: 1 << 22 },
            hold: 0,
        },
        "mutex_zipf" => MutexSpec {
            dist: KeyDist::Zipf { n: 4096, s: 1.1 },
            hold: ZIPF_HOLD,
        },
        "mutex_convoy" => MutexSpec {
            dist: KeyDist::Zipf { n: 2, s: 0.0 },
            hold: CONVOY_HOLD,
        },
        _ => return None,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees, per workload. Bounds live in
/// `BENCHMARK.json`, the one place the driver reads them from.
pub const END_TO_END: [MetricSpec; 5] = [
    m("ops_per_s", "1/s", Higher),
    m("wait_mean_ns", "ns", Lower),
    m("cpu_ns_per_op", "ns", Lower),
    m("peak_rss_mb", "MiB", Lower),
    m("setup_s", "s", Lower),
];

/// Single layers. The first block is isolated probes, identical whatever
/// the workload; the second is counts and spans taken at the layer
/// boundaries during the traced run of the named workload (0 where the
/// workload does not use the layer).
pub const PER_LAYER: [MetricSpec; 73] = [
    m("floor.cas_pair_ns", "ns", Lower),
    m("floor.clock_ns", "ns", Lower),
    m("futex.mix64_ns", "ns", Lower),
    m("table.shard_of_ns", "ns", Lower),
    m("table.attach_detach_solo_ns", "ns", Lower),
    m("table.attach_detach_shared_ns", "ns", Lower),
    m("table.attach_detach_mt_ns", "ns", Lower),
    m("table.attach_detach_same_shard_mt_ns", "ns", Lower),
    m("lock.fast_roundtrip_ns", "ns", Lower),
    m("lock.try_lock_fail_ns", "ns", Lower),
    m("lock.layer_sum_share", "ratio", Higher),
    m("futex.wait_mismatch_ns", "ns", Lower),
    m("futex.wake_empty_ns", "ns", Lower),
    m("futex.pingpong_rtt_ns", "ns", Lower),
    m("futex.wake_batch_ns_per_addr", "ns", Lower),
    m("futex.register_cancel_ns", "ns", Lower),
    m("futex.register_wake_resume_ns", "ns", Lower),
    m("event.advance_ns", "ns", Lower),
    m("event.pingpong_rtt_ns", "ns", Lower),
    m("barrier.solo_episode_ns", "ns", Lower),
    m("barrier.episode_ns", "ns", Lower),
    m("semaphore.acquire_release_ns", "ns", Lower),
    m("semaphore.handoff_rtt_ns", "ns", Lower),
    m("semaphore.release_n_ns_per_permit", "ns", Lower),
    m("async.lock_ready_ns", "ns", Lower),
    m("async.lock_many3_ready_ns", "ns", Lower),
    m("async.pending_cancel_ns", "ns", Lower),
    m("executor.spawn_ns", "ns", Lower),
    m("telemetry.counters_cost_share", "ratio", Lower),
    m("telemetry.sampled64_cost_share", "ratio", Lower),
    m("telemetry.count_ns", "ns", Lower),
    m("telemetry.snapshot_ns", "ns", Lower),
    m("memsim.bus_events_per_s", "1/s", Higher),
    m("memsim.numa_events_per_s", "1/s", Higher),
    m("memsim.oversub_events_per_s", "1/s", Higher),
    m("memsim.host_ns_per_event", "ns", Lower),
    m("memsim.solo_ns_per_event", "ns", Lower),
    m("memsim.handoff_share", "ratio", Lower),
    m("memsim.record_cost_share", "ratio", Lower),
    m("memsim.replay_speedup", "ratio", Higher),
    m("memsim.sim_cycles_total", "count", Lower),
    m("memsim.sim_events_total", "count", Lower),
    m("memsim.hit_rate", "ratio", Higher),
    m("memsim.pool_spawned", "count", Lower),
    m("memsim.pool_reused", "count", Higher),
    // Boundary counts and spans of the traced workload run.
    m("table.capacity_slots", "count", Lower),
    m("table.peak_live", "count", Lower),
    m("table.reuses", "count", Higher),
    m("table.live_after", "count", Lower),
    m("lock.release_p50_ns", "ns", Lower),
    m("lock.release_p99_ns", "ns", Lower),
    m("lock.fast_path_share", "ratio", Higher),
    m("lock.spin_share", "ratio", Lower),
    m("lock.parked_share", "ratio", Lower),
    m("lock.cas_retries_per_op", "ratio", Lower),
    m("lock.wait_p50_ns", "ns", Lower),
    m("lock.wait_p99_ns", "ns", Lower),
    m("lock.wait_p999_ns", "ns", Lower),
    m("lock.wait_max_ns", "ns", Lower),
    m("lock.thread_ops_skew", "ratio", Lower),
    m("futex.parks_per_op", "ratio", Lower),
    m("futex.wakes_per_op", "ratio", Lower),
    m("futex.ledger_imbalance", "count", Lower),
    m("semaphore.grants_per_op", "ratio", Lower),
    m("semaphore.abandons", "count", Lower),
    m("semaphore.wakes_per_grant", "ratio", Lower),
    m("async.polls_per_op", "ratio", Lower),
    m("async.virtual_makespan_cycles", "count", Lower),
    m("async.cancellations", "count", Lower),
    m("async.wake_to_poll_p50_cycles", "count", Lower),
    m("executor.host_ns_per_poll", "ns", Lower),
    m("driver.self_share", "ratio", Lower),
    m("trace_overhead_share", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_are_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for spec in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(spec.name), "{}", spec.name);
            assert!(unit_ok(spec.unit), "{}: {}", spec.name, spec.unit);
            assert!(seen.insert(spec.name), "{} used twice", spec.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|s| s.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn every_mutex_workload_has_a_spec() {
        for w in WORKLOADS.iter().filter(|w| w.name.starts_with("mutex_")) {
            assert!(mutex_spec(w.name).is_some(), "{}", w.name);
        }
        assert!(mutex_spec("sim_sweep").is_none());
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );

        let field = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
                .collect();
            let expected: Vec<(String, String, String)> = table
                .iter()
                .map(|s| {
                    (
                        s.name.to_string(),
                        s.unit.to_string(),
                        s.better.label().to_string(),
                    )
                })
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        for e in doc.get("end_to_end").unwrap().as_arr().unwrap() {
            let bound = e
                .get("bound")
                .and_then(Value::as_f64)
                .expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", field(e, "name"));
        }
    }
}

//! What the benchmark reads from the host: the process's CPU time and peak
//! memory out of `/proc`, and a description of the machine for the record.

use std::fs;

/// Kernel `USER_HZ`: the unit of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. Fixed at 100 on every Linux ABI the repo builds for.
const USER_HZ: u64 = 100;

/// `utime + stime` of this process in nanoseconds, all threads included.
/// Resolution is one tick (10 ms), so divide it over a region of seconds.
pub fn cpu_time_ns() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable on Linux");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis, after which utime and stime are the
    // 12th and 13th.
    let after_comm = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let mut tick = || -> u64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has numeric utime and stime fields")
    };
    (tick() + tick()) * (1_000_000_000 / USER_HZ)
}

/// `VmHWM` (peak resident set) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has a VmHWM line");
    kib / 1024.0
}

/// Cores the benchmark may use, and the client-thread count derived from
/// it: never more threads than cores, so the numbers measure the program
/// and not the scheduler, and at most four.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn client_threads() -> usize {
    cores().min(4)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread, and every thread spawned from it
/// afterwards, to the lowest-numbered CPU it may run on. Returns that
/// CPU, or why the kernel refused (the caller then runs unconfined).
pub fn pin_to_one_cpu() -> Result<usize, String> {
    // The kernel's cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is valid for writes of `size` bytes, the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
        .ok_or("empty affinity mask")?;
    mask = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is valid for reads of `size` bytes, the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size, mask.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// One line describing the host, recorded beside every result set.
pub fn describe() -> String {
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown cpu".into());
    let read =
        |p: &str| fs::read_to_string(p).map_or_else(|_| "?".into(), |s| s.trim().to_string());
    format!(
        "nproc={} cpu=\"{}\" kernel={} loadavg=\"{}\"",
        cores(),
        model,
        read("/proc/sys/kernel/osrelease"),
        read("/proc/loadavg")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let before = cpu_time_ns();
        let mut x = 0u64;
        while cpu_time_ns() == before {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_time_ns() > before);
        assert!(peak_rss_mib() > 0.5);
        assert!(client_threads() >= 1 && client_threads() <= 4);
        assert!(describe().contains("nproc="));
    }

    #[test]
    fn pinning_confines_this_thread_and_its_children() {
        // On a thread of its own: the test harness shares this process.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("the sandbox allows sched_setaffinity");
            assert_eq!(cores(), 1, "pinned to cpu {cpu}");
            assert_eq!(std::thread::spawn(cores).join().unwrap(), 1);
        })
        .join()
        .unwrap();
    }
}

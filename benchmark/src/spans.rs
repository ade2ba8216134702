//! Spans of the traced run, recorded from the benchmark's side of each
//! layer boundary, kept in per-thread memory and written out when the run
//! ends as Chrome trace-event JSON.
//!
//! One operation is one parent `op` span with consecutive children (for a
//! mutex workload `acquire`, `hold`, `release`). It is stored as the
//! instants between them: `marks[0]` opens `op`, `marks[1]` opens the first
//! child, each further mark closes one child and opens the next, and the
//! last closes both the last child and `op`. The driver's own time — the
//! loop, the key fetch, writing the previous record — falls between
//! `marks[0]` and `marks[1]`: inside `op`, outside every child.

use trace::chrome::ChromeTraceBuilder;

/// Most children any workload's operation has.
pub const MAX_CHILDREN: usize = 4;

/// The instants of one operation, in nanoseconds since the run's epoch.
pub type Marks = [u64; MAX_CHILDREN + 2];

/// Spans kept per track for the trace file. Operations past the cap still
/// count towards every statistic; only their spans are not written.
pub const SPAN_CAP: usize = 40_000;

/// One timeline of the trace: a client thread, an async task, or the
/// simulator's driver.
#[derive(Debug, Default)]
pub struct Track {
    pub name: String,
    /// `(operation id, marks)` for the operations kept for the trace file.
    pub ops: Vec<(u64, Marks)>,
    /// Sum over all operations of `op` minus its children.
    pub self_ns: u64,
    /// Sum over all operations of `op`.
    pub op_ns: u64,
}

impl Track {
    pub fn new(name: String) -> Self {
        Track {
            name,
            ..Track::default()
        }
    }

    /// Records one operation with `children` child spans.
    #[inline]
    pub fn record(&mut self, id: u64, marks: Marks, children: usize) {
        self.self_ns += marks[1] - marks[0];
        self.op_ns += marks[children + 1] - marks[0];
        if (self.ops.len() + 1) * (children + 1) <= SPAN_CAP {
            self.ops.push((id, marks));
        }
    }
}

/// Renders tracks as Chrome trace-event JSON. `children` names the child
/// spans in order. Timestamps are nanoseconds, not the format's customary
/// microseconds: an uncontended round trip is ~100 ns and would vanish.
pub fn chrome_json(process: &str, children: &[&str], tracks: &[Track]) -> String {
    let mut b = ChromeTraceBuilder::new(&format!("{process} (ts in ns)"));
    for (tid, track) in tracks.iter().enumerate() {
        b.thread(tid, &track.name);
        for (id, marks) in &track.ops {
            let op = format!("op {}#{id}", track.name);
            b.begin(tid, marks[0], &op);
            for (c, child) in children.iter().enumerate() {
                b.begin(tid, marks[c + 1], child);
                b.end(tid, marks[c + 2], child);
            }
            b.end(tid, marks[children.len() + 1], &op);
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_validates_and_self_time_excludes_children() {
        let mut track = Track::new("t0".into());
        track.record(0, [10, 15, 40, 60, 70, 0], 3);
        track.record(1, [70, 72, 90, 90, 95, 0], 3);
        assert_eq!(track.self_ns, 5 + 2);
        assert_eq!(track.op_ns, 60 + 25);
        let json = chrome_json("test", &["acquire", "hold", "release"], &[track]);
        let stats = trace::chrome::validate(&json).expect("valid trace");
        assert_eq!(stats.tracks, 1);
        assert_eq!(stats.spans, 8);
    }

    #[test]
    fn cap_bounds_kept_spans_but_not_statistics() {
        let mut track = Track::new("t".into());
        for i in 0..(SPAN_CAP as u64) {
            track.record(i, [i * 10, i * 10 + 1, i * 10 + 9, 0, 0, 0], 1);
        }
        assert_eq!(track.ops.len() * 2, SPAN_CAP);
        assert_eq!(track.self_ns, SPAN_CAP as u64);
    }
}

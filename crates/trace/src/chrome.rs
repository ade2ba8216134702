//! Chrome trace-event JSON export (loadable in Perfetto / `chrome://tracing`).
//!
//! The emitted format is the JSON-array flavour of the trace-event spec:
//! one event object per line, fixed key order, one Perfetto track per
//! simulated processor (`tid` = pid), `B`/`E` duration events for waits and
//! holds, `i` instant events for wakes, and `s`/`f` flow arrows from each
//! waker to its wakee. The fixed layout keeps the export byte-stable for
//! golden tests; [`validate`] parses the document before it checks balance
//! and monotonicity, so any layout of the same events passes it.

use crate::event::{EventKind, NO_PID};
use crate::json::escape;
use crate::Tracer;

/// Incremental builder for a Chrome trace-event JSON document.
///
/// Callers are responsible for per-track ordering (emit events in
/// nondecreasing `ts` per `tid`) and for balancing `begin`/`end` pairs;
/// [`validate`] checks both.
#[derive(Debug, Default)]
pub struct ChromeTraceBuilder {
    lines: Vec<String>,
}

impl ChromeTraceBuilder {
    /// Starts a trace for one process named `process_name`.
    pub fn new(process_name: &str) -> Self {
        let mut b = ChromeTraceBuilder { lines: Vec::new() };
        b.lines.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            escape(process_name)
        ));
        b
    }

    /// Declares (and names) the track for `tid`.
    pub fn thread(&mut self, tid: usize, name: &str) {
        self.lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
    }

    /// Opens a duration span on `tid`'s track.
    pub fn begin(&mut self, tid: usize, ts: u64, name: &str) {
        self.lines.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"sync\",\"ph\":\"B\",\"ts\":{ts},\"pid\":0,\"tid\":{tid}}}",
            escape(name)
        ));
    }

    /// Closes the innermost open span on `tid`'s track.
    pub fn end(&mut self, tid: usize, ts: u64, name: &str) {
        self.lines.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"sync\",\"ph\":\"E\",\"ts\":{ts},\"pid\":0,\"tid\":{tid}}}",
            escape(name)
        ));
    }

    /// A thread-scoped instant event.
    pub fn instant(&mut self, tid: usize, ts: u64, name: &str) {
        self.lines.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"sync\",\"ph\":\"i\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"s\":\"t\"}}",
            escape(name)
        ));
    }

    /// Starts a flow arrow (rendered from here to the matching
    /// [`ChromeTraceBuilder::flow_end`] with the same `id`).
    pub fn flow_start(&mut self, tid: usize, ts: u64, id: &str, name: &str) {
        self.lines.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"wake\",\"ph\":\"s\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"id\":\"{}\"}}",
            escape(name),
            escape(id)
        ));
    }

    /// Terminates a flow arrow at this track/timestamp.
    pub fn flow_end(&mut self, tid: usize, ts: u64, id: &str, name: &str) {
        self.lines.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"wake\",\"ph\":\"f\",\"bp\":\"e\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"id\":\"{}\"}}",
            escape(name),
            escape(id)
        ));
    }

    /// Renders the finished JSON array.
    pub fn finish(self) -> String {
        let mut out = String::from("[\n");
        out.push_str(&self.lines.join(",\n"));
        out.push_str("\n]\n");
        out
    }
}

/// Exports a full trace as Chrome trace-event JSON: one track per
/// processor, wait/hold/spin/park spans, wake instants, and waker→wakee
/// flow arrows.
///
/// Spans left open at the end of a processor's stream (run ended mid-wait,
/// or the begin was lost to ring overwrite) are closed at the stream's last
/// timestamp; ends without a surviving begin are dropped. Both repairs keep
/// the output valid under [`validate`] without inventing timing.
pub fn export_tracer(tracer: &Tracer, process_name: &str) -> String {
    let mut b = ChromeTraceBuilder::new(process_name);
    for pid in 0..tracer.nprocs() {
        b.thread(pid, &format!("proc {pid}"));
    }
    for pid in 0..tracer.nprocs() {
        let events = tracer.events(pid);
        // Innermost-open-span names, for B/E balance.
        let mut open: Vec<String> = Vec::new();
        let mut last_ts = 0u64;
        let begin = |b: &mut ChromeTraceBuilder, open: &mut Vec<String>, ts, name: String| {
            b.begin(pid, ts, &name);
            open.push(name);
        };
        let close = |b: &mut ChromeTraceBuilder, open: &mut Vec<String>, ts, name: &str| {
            let Some(depth) = open.iter().rposition(|n| n == name) else {
                return; // begin lost to ring overwrite
            };
            // Anything opened inside the span being closed is truncated
            // here; in practice the streams nest properly.
            while open.len() > depth {
                let n = open.pop().expect("depth < len");
                b.end(pid, ts, &n);
            }
        };
        for ev in &events {
            last_ts = ev.t;
            match ev.kind {
                EventKind::LockAcquireStart { lock } => {
                    begin(&mut b, &mut open, ev.t, format!("lock{lock} wait"));
                }
                EventKind::LockAcquired { lock } => {
                    close(&mut b, &mut open, ev.t, &format!("lock{lock} wait"));
                    begin(&mut b, &mut open, ev.t, format!("lock{lock} hold"));
                }
                EventKind::LockReleased { lock } => {
                    close(&mut b, &mut open, ev.t, &format!("lock{lock} hold"));
                }
                EventKind::SpinBegin { addr } => {
                    begin(&mut b, &mut open, ev.t, format!("spin @{addr}"));
                }
                EventKind::SpinEnd { addr } => {
                    close(&mut b, &mut open, ev.t, &format!("spin @{addr}"));
                }
                EventKind::FutexPark { addr } => {
                    begin(&mut b, &mut open, ev.t, format!("parked @{addr}"));
                }
                EventKind::FutexResume { addr, waker } => {
                    close(&mut b, &mut open, ev.t, &format!("parked @{addr}"));
                    if waker != NO_PID {
                        b.flow_end(pid, ev.t, &format!("w{}:{pid}", ev.t), "wake");
                    }
                }
                EventKind::FutexWake { addr, wakee } => {
                    if wakee == NO_PID {
                        b.instant(pid, ev.t, &format!("wake @{addr}"));
                    } else {
                        b.instant(pid, ev.t, &format!("wake @{addr} -> p{wakee}"));
                        b.flow_start(pid, ev.t, &format!("w{}:{wakee}", ev.t), "wake");
                    }
                }
                EventKind::CtxSwitchIn => b.instant(pid, ev.t, "on-core"),
                EventKind::EpisodeBegin { id } => {
                    begin(&mut b, &mut open, ev.t, format!("episode {id}"));
                }
                EventKind::EpisodeEnd { id } => {
                    close(&mut b, &mut open, ev.t, &format!("episode {id}"));
                }
            }
        }
        while let Some(n) = open.pop() {
            b.end(pid, last_ts, &n);
        }
    }
    b.finish()
}

/// Summary returned by a successful [`validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Non-metadata events.
    pub events: usize,
    /// Declared tracks (`thread_name` metadata records).
    pub tracks: usize,
    /// `B`/`E` span pairs.
    pub spans: usize,
}

/// Structural validation of an exported trace, one parsed event at a time
/// ([`crate::json::parse_array`]): a JSON array of event objects, each with
/// a known phase `ph`; every `B` matched by an `E` on the same track;
/// timestamps nondecreasing per track. Key order and line layout do not
/// matter.
///
/// # Errors
///
/// A human-readable description of the first structural violation.
pub fn validate(json: &str) -> Result<TraceStats, String> {
    use crate::json::Value;
    use std::collections::BTreeMap;
    let mut stats = TraceStats {
        events: 0,
        tracks: 0,
        spans: 0,
    };
    let mut depth: BTreeMap<u64, usize> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut i = 0;
    crate::json::parse_array(json, |ev| {
        i += 1;
        let Some(Value::Str(ph)) = ev.get("ph") else {
            return Err(format!("event {i}: no string \"ph\" field"));
        };
        if ph == "M" {
            if ev.get("name") == Some(&Value::Str("thread_name".into())) {
                stats.tracks += 1;
            }
            return Ok(());
        }
        let (Some(&Value::Int(ts)), Some(&Value::Int(tid))) = (ev.get("ts"), ev.get("tid")) else {
            return Err(format!("event {i}: \"ts\" and \"tid\" must be integers"));
        };
        let prev = last_ts.entry(tid).or_insert(0);
        if ts < *prev {
            return Err(format!(
                "event {i}: track {tid} goes back in time ({ts} < {prev})"
            ));
        }
        *prev = ts;
        stats.events += 1;
        match ph.as_str() {
            "B" => *depth.entry(tid).or_insert(0) += 1,
            "E" => {
                let d = depth.entry(tid).or_insert(0);
                if *d == 0 {
                    return Err(format!("event {i}: track {tid} has 'E' without open 'B'"));
                }
                *d -= 1;
                stats.spans += 1;
            }
            "i" | "s" | "f" => {}
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
        Ok(())
    })?;
    for (tid, d) in depth {
        if d != 0 {
            return Err(format!("track {tid} ends with {d} unclosed 'B' span(s)"));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_output_validates() {
        let mut b = ChromeTraceBuilder::new("test");
        b.thread(0, "proc 0");
        b.thread(1, "proc 1");
        b.begin(0, 10, "lock0 wait");
        b.end(0, 20, "lock0 wait");
        b.instant(1, 15, "wake @3 -> p0");
        b.flow_start(1, 15, "w15:0", "wake");
        b.flow_end(0, 20, "w15:0", "wake");
        let json = b.finish();
        let stats = validate(&json).expect("valid trace");
        assert_eq!(stats.tracks, 2);
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.events, 5);
    }

    #[test]
    fn validator_rejects_unbalanced_and_unordered() {
        let mut b = ChromeTraceBuilder::new("bad");
        b.begin(0, 10, "x");
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.contains("unclosed"), "{err}");

        let mut b = ChromeTraceBuilder::new("bad");
        b.end(0, 10, "x");
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.contains("without open"), "{err}");

        let mut b = ChromeTraceBuilder::new("bad");
        b.instant(0, 10, "a");
        b.instant(0, 5, "b");
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.contains("back in time"), "{err}");

        assert!(validate("not json").is_err());
    }

    #[test]
    fn any_layout_of_valid_events_validates() {
        // Valid JSON in a layout the exporter never prints: keys reordered,
        // an event spread over lines, two events on one line.
        let json = r#"[{"ph": "M", "tid": 0, "name": "thread_name"},
            {"tid": 0, "ts": 10,
             "ph": "B", "name": "x"}, {"ts": 12, "ph": "E", "tid": 0}]"#;
        let stats = validate(json).expect("valid trace");
        assert_eq!((stats.tracks, stats.events, stats.spans), (1, 2, 1));
    }

    #[test]
    fn exporter_closes_open_spans_and_draws_flows() {
        let tracer = Tracer::new(2, 64);
        // p1 parks on addr 5; p0 wakes it; p1 never logs an explicit end of
        // its last span — the exporter must still balance.
        tracer.record(1, 10, EventKind::FutexPark { addr: 5 });
        tracer.record(0, 30, EventKind::FutexWake { addr: 5, wakee: 1 });
        tracer.record(1, 30, EventKind::FutexResume { addr: 5, waker: 0 });
        tracer.record(1, 40, EventKind::LockAcquireStart { lock: 0 });
        let json = export_tracer(&tracer, "memsim");
        let stats = validate(&json).expect("valid trace");
        assert_eq!(stats.tracks, 2);
        assert!(json.contains("\"ph\":\"s\""), "flow start missing");
        assert!(json.contains("\"ph\":\"f\""), "flow end missing");
        assert!(
            json.contains("w30:1"),
            "flow id should pair wake and resume"
        );
    }

    #[test]
    fn names_are_escaped() {
        let mut b = ChromeTraceBuilder::new("a\"b\\c");
        b.instant(0, 1, "x\ny");
        let json = b.finish();
        assert!(json.contains("a\\\"b\\\\c"));
        assert!(json.contains("x\\ny"));
        validate(&json).expect("escaped names still validate");
    }
}

//! Benchmark-side spans: the traced run wraps every public call it makes
//! into the stack in a span (name, start, end, parent, op id), keeps them in
//! memory, and at the end writes a Chrome trace and prints a self-time
//! table. No span site lives inside any crate; on the serve workloads the
//! program's own `biq_obs` spans are merged in as they are.
//!
//! Timestamps share `biq_obs`'s trace epoch so both sources line up on one
//! time axis.

use biq_obs::trace::{instant_ns, TraceEvent};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;

/// Marks "no parent".
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-qualified call name (`runtime.run_into`, `net.encode`, …).
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch (`0` while open).
    pub end_ns: u64,
    /// Index (in the same log) of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Identifier shared by every span of one op (pass, forward, request).
    pub op_id: u64,
}

/// One thread's span log. Disabled (the untraced run) it records nothing
/// and reads no clock.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl SpanLog {
    /// A log for display thread `tid`; `capacity` spans are reserved up
    /// front so recording does not allocate inside a measured region.
    pub fn new(enabled: bool, tid: u32, capacity: usize) -> Self {
        let cap = if enabled { capacity } else { 0 };
        Self { enabled, tid, spans: Vec::with_capacity(cap), stack: Vec::with_capacity(8) }
    }

    /// Whether spans record.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, op_id: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        self.stack.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: instant_ns(Instant::now()),
            end_ns: 0,
            parent,
            op_id,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.stack.pop().expect("exit without enter");
        self.spans[i as usize].end_ns = instant_ns(Instant::now());
    }

    /// Records a finished span from stamps the caller already took (an
    /// open-loop request lives across loop iterations, so it cannot sit on
    /// the stack).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, op_id: u64) {
        if self.enabled {
            let (start_ns, end_ns) = (instant_ns(start), instant_ns(end));
            self.spans.push(Span { name, start_ns, end_ns, parent: ROOT, op_id });
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every closed span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns && s.end_ns != 0)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }
}

/// Collects `biq_obs` ring events across periodic drains. The rings are
/// overwritten oldest-first and a drain does not empty them, so the
/// collector keeps what is new since its last drain and counts what was
/// overwritten before it could look.
#[derive(Default)]
pub struct ObsCollector {
    events: Vec<TraceEvent>,
    last: HashSet<(u64, u64, u64, usize)>,
    written_at_start: Option<u64>,
    written_now: u64,
}

impl ObsCollector {
    /// Drains the rings once. Call before tracing starts (baseline), at a
    /// period short enough that no ring wraps in between, and once after
    /// tracing stops.
    pub fn drain(&mut self) {
        let dump = biq_obs::trace::drain();
        // Every ring's events ever written: still held plus overwritten.
        self.written_now = dump.dropped + dump.events.len() as u64;
        let key = |e: &TraceEvent| (e.tid, e.start_ns, e.dur_ns, e.name.as_ptr() as usize);
        if self.written_at_start.is_none() {
            // Baseline: whatever earlier phases left in the rings is theirs.
            self.written_at_start = Some(self.written_now);
            self.last = dump.events.iter().map(key).collect();
            return;
        }
        let mut seen = HashSet::with_capacity(dump.events.len());
        for e in dump.events {
            let k = key(&e);
            seen.insert(k);
            if !self.last.contains(&k) {
                self.events.push(e);
            }
        }
        // An event absent from the previous drain cannot come back: rings
        // only move forward, so one generation of keys is enough.
        self.last = seen;
    }

    /// Events the program wrote since the baseline that no drain caught.
    pub fn dropped(&self) -> u64 {
        let written = self.written_now - self.written_at_start.unwrap_or(self.written_now);
        written.saturating_sub(self.events.len() as u64)
    }

    /// The collected events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Durations in microseconds of every collected event named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.events.iter().filter(|e| e.name == name).map(|e| e.dur_ns as f64 / 1e3).collect()
    }
}

/// Writes benchmark spans and program events as one Chrome trace-event JSON
/// array (`ph: "X"`, microsecond timestamps; loadable in Perfetto or
/// `chrome://tracing`). Benchmark threads are pid 1, the program's are pid 2.
pub fn chrome_trace(logs: &[SpanLog], program: &[TraceEvent]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::replace(&mut first, false) {
            out.push_str(",\n");
        }
    };
    for log in logs {
        for (i, s) in log.spans.iter().enumerate().filter(|(_, s)| s.end_ns != 0) {
            sep(&mut out);
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"bench\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": {}, \"args\": {{\"op_id\": {}, \"span\": {i}, \"parent\": {parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                log.tid,
                s.op_id,
            );
        }
    }
    for e in program {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"biq\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 2, \"tid\": {}}}",
            e.name,
            e.start_ns as f64 / 1e3,
            e.dur_ns as f64 / 1e3,
            e.tid,
        );
    }
    out.push_str("\n]\n");
    out
}

/// Writes `trace.<workload>.json` into `out_dir` and prints where it went
/// and the self-time table.
pub fn write_trace(
    out_dir: &std::path::Path,
    workload: &str,
    logs: &[SpanLog],
    program: &[TraceEvent],
) {
    let path = out_dir.join(format!("trace.{workload}.json"));
    std::fs::write(&path, chrome_trace(logs, program))
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let spans: usize = logs.iter().map(|l| l.spans().len()).sum();
    println!(
        "trace: {} ({spans} benchmark spans, {} program spans)",
        path.display(),
        program.len()
    );
    print!("{}", render_self_times(&self_times(logs, program)));
}

/// One row of the self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: String,
    /// Spans of that name.
    pub count: u64,
    /// Sum of their durations, µs.
    pub total_us: f64,
    /// Sum of their durations minus the time their child spans cover, µs.
    pub self_us: f64,
}

/// Self time per span name: a span's duration minus the part of it its
/// child spans cover. Program events carry no parent, so their self time is
/// their duration.
pub fn self_times(logs: &[SpanLog], program: &[TraceEvent]) -> Vec<SelfTime> {
    let mut rows: BTreeMap<String, SelfTime> = BTreeMap::new();
    let mut add = |name: &str, total: f64, own: f64| {
        let r = rows.entry(name.to_string()).or_insert_with(|| SelfTime {
            name: name.to_string(),
            count: 0,
            total_us: 0.0,
            self_us: 0.0,
        });
        r.count += 1;
        r.total_us += total;
        r.self_us += own;
    };
    for log in logs {
        let mut child_ns = vec![0u64; log.spans.len()];
        for s in log.spans.iter().filter(|s| s.end_ns != 0 && s.parent != ROOT) {
            child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
        }
        for (s, &kids) in log.spans.iter().zip(&child_ns).filter(|(s, _)| s.end_ns != 0) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            add(s.name, dur as f64 / 1e3, dur.saturating_sub(kids) as f64 / 1e3);
        }
    }
    for e in program {
        add(&format!("{} (program)", e.name), e.dur_ns as f64 / 1e3, e.dur_ns as f64 / 1e3);
    }
    let mut out: Vec<SelfTime> = rows.into_values().collect();
    out.sort_by(|a, b| b.self_us.total_cmp(&a.self_us));
    out
}

/// Renders [`self_times`] as an aligned text table.
pub fn render_self_times(rows: &[SelfTime]) -> String {
    let total: f64 = rows.iter().map(|r| r.self_us).sum();
    let mut out = format!(
        "  {:<34} {:>9} {:>14} {:>14} {:>7}\n",
        "span", "count", "total_us", "self_us", "self%"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<34} {:>9} {:>14.1} {:>14.1} {:>6.1}%",
            r.name,
            r.count,
            r.total_us,
            r.self_us,
            if total > 0.0 { 100.0 * r.self_us / total } else { 0.0 }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, 0, 16);
        log.enter("a", 1);
        log.exit();
        log.record("b", Instant::now(), Instant::now(), 1);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn parents_and_self_time() {
        let mut log = SpanLog::new(true, 0, 16);
        log.spans.push(Span { name: "pass", start_ns: 0, end_ns: 1000, parent: ROOT, op_id: 7 });
        log.spans.push(Span { name: "op", start_ns: 100, end_ns: 400, parent: 0, op_id: 7 });
        log.spans.push(Span { name: "op", start_ns: 500, end_ns: 900, parent: 0, op_id: 7 });
        let rows = self_times(std::slice::from_ref(&log), &[]);
        let pass = rows.iter().find(|r| r.name == "pass").unwrap();
        let op = rows.iter().find(|r| r.name == "op").unwrap();
        assert_eq!((pass.count, pass.total_us, pass.self_us), (1, 1.0, 0.3));
        assert_eq!((op.count, op.total_us, op.self_us), (2, 0.7, 0.7));
        assert_eq!(log.durations_us("op"), vec![0.3, 0.4]);
        let json = chrome_trace(std::slice::from_ref(&log), &[]);
        assert!(json.starts_with("[\n{") && json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 3);
        assert!(json.contains("\"parent\": 0") && json.contains("\"parent\": -1"));
    }

    #[test]
    fn nesting_follows_the_stack() {
        let mut log = SpanLog::new(true, 3, 16);
        log.enter("outer", 1);
        for _ in 0..2 {
            log.enter("inner", 1);
            log.exit();
        }
        log.exit();
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (ROOT, 0, 0));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
    }
}

//! Always-on trace spans: RAII guards writing fixed-size events into
//! per-thread ring buffers, exported as Chrome trace-event JSON.
//!
//! The design is built around one number: on this repo's reference VM a
//! paravirtual-clock `Instant::now()` costs ~11µs. So:
//!
//! * Tracing is **disabled by default**; a [`span!`](crate::span) then costs a single
//!   relaxed atomic load and never reads the clock.
//! * When enabled (`biq serve --trace-out`), each span reads the clock
//!   twice (enter/drop) and writes one fixed-size event — three relaxed
//!   `u64` stores — into its thread's private ring. Spans sit on coarse
//!   scopes only (a request, a batch, a frame write), never per-chunk.
//! * Span names are `&'static str`s interned once per call site into a
//!   global table (the [`span!`](crate::span) macro caches the id in a `OnceLock`), so
//!   events carry a `u32` id, not a pointer.
//!
//! Each thread owns one single-producer ring of [`RING_CAP`] events;
//! rings are registered globally on first use and outlive their thread,
//! so a drain after worker shutdown still sees everything. The ring
//! overwrites oldest-first when full ([`TraceDump::dropped`] counts the
//! overwritten events). Draining concurrently with active producers is
//! best-effort: an event being overwritten mid-read can tear, which is
//! acceptable for a trace (the exporters run at quiesce or tolerate a
//! stray event).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events each thread's ring holds before overwriting oldest-first.
pub const RING_CAP: usize = 8192;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span recording on or off (process-wide). Spans opened while
/// disabled never record, even if tracing is enabled before they drop.
pub fn set_tracing(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans currently record. One relaxed load — this is the entire
/// cost of a disabled [`span!`](crate::span).
#[inline]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process trace epoch: all event timestamps are nanoseconds since
/// the first clock read after startup.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Nanoseconds from the trace epoch to `t` (0 if `t` predates it).
pub fn instant_ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

// ------------------------------------------------------------- name table

static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Interns a span name, returning its stable id. Linear scan under a
/// mutex — called once per call site (the [`span!`](crate::span) macro caches the
/// result) or per bridged event batch, never per hot-path span.
pub fn intern(name: &'static str) -> u32 {
    let mut names = NAMES.lock().expect("trace name table poisoned");
    if let Some(i) = names.iter().position(|n| *n == name) {
        return i as u32;
    }
    names.push(name);
    (names.len() - 1) as u32
}

fn name_of(id: u32) -> &'static str {
    let names = NAMES.lock().expect("trace name table poisoned");
    names.get(id as usize).copied().unwrap_or("?")
}

// ------------------------------------------------------------------ rings

/// One event slot: name id, start, duration — written relaxed by the
/// owning thread, published by the ring head's release store.
struct Slot {
    name_id: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
}

struct Ring {
    /// Stable display id of the owning thread (sequential, not the OS tid).
    tid: u64,
    /// Events ever written; slot index is `head % RING_CAP`.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(tid: u64) -> Self {
        let slots = (0..RING_CAP)
            .map(|_| Slot {
                name_id: AtomicU64::new(0),
                start_ns: AtomicU64::new(0),
                dur_ns: AtomicU64::new(0),
            })
            .collect();
        Ring { tid, head: AtomicU64::new(0), slots }
    }

    /// SPSC push (only the owning thread calls this).
    fn push(&self, name_id: u32, start_ns: u64, dur_ns: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h % RING_CAP as u64) as usize];
        slot.name_id.store(name_id as u64, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        // Release-publish the slot writes above to any draining thread.
        self.head.store(h + 1, Ordering::Release);
    }
}

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
    &RINGS
}

thread_local! {
    static LOCAL_RING: Arc<Ring> = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(0);
        let ring = Arc::new(Ring::new(NEXT_TID.fetch_add(1, Ordering::Relaxed)));
        rings().lock().expect("trace ring list poisoned").push(Arc::clone(&ring));
        ring
    };
}

/// Records a complete event directly (used to bridge externally measured
/// intervals — e.g. kernel `biqgemm_core`-style phase profiles — into
/// the trace without re-timing them). Drops the event when tracing is
/// disabled. `name` is interned per call; keep this off hot paths.
pub fn emit(name: &'static str, start_ns: u64, dur_ns: u64) {
    if !tracing_enabled() {
        return;
    }
    let id = intern(name);
    LOCAL_RING.with(|r| r.push(id, start_ns, dur_ns));
}

/// An RAII span: records one complete event covering its lifetime when it
/// drops. Construct through the [`span!`](crate::span) macro.
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard {
    name_id: u32,
    start_ns: u64,
    armed: bool,
}

impl SpanGuard {
    /// Macro back-end: a disarmed (free) guard when tracing is off, an
    /// armed one stamped with the interned name and the current time when
    /// on. `cache` is the call site's `OnceLock` holding the interned id.
    #[inline]
    pub fn enter(cache: &'static OnceLock<u32>, name: &'static str) -> SpanGuard {
        if !tracing_enabled() {
            return SpanGuard { name_id: 0, start_ns: 0, armed: false };
        }
        let name_id = *cache.get_or_init(|| intern(name));
        SpanGuard { name_id, start_ns: now_ns(), armed: true }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            let dur = now_ns().saturating_sub(self.start_ns);
            LOCAL_RING.with(|r| r.push(self.name_id, self.start_ns, dur));
        }
    }
}

/// Opens a [`SpanGuard`] named by a string literal. Disabled cost: one
/// relaxed atomic load.
///
/// ```
/// fn serve_one() {
///     let _span = biq_obs::span!("net.request");
///     // … the guard records the scope's wall time when it drops …
/// }
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static __BIQ_SPAN_ID: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
        $crate::trace::SpanGuard::enter(&__BIQ_SPAN_ID, $name)
    }};
}

// ------------------------------------------------------------------ drain

/// One drained span event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name.
    pub name: &'static str,
    /// Stable id of the recording thread.
    pub tid: u64,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Everything drained from the rings, sorted by start time.
#[derive(Clone, Debug, Default)]
pub struct TraceDump {
    /// Drained events across every thread, ascending by `start_ns`.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overwrite (oldest-first per thread).
    pub dropped: u64,
}

/// Drains every thread's ring (non-destructively — a second drain sees
/// the same events plus whatever recorded in between). Call at quiesce
/// for an exact dump; a live drain can carry rare torn events from slots
/// being overwritten mid-read.
pub fn drain() -> TraceDump {
    let rings: Vec<Arc<Ring>> =
        rings().lock().expect("trace ring list poisoned").iter().map(Arc::clone).collect();
    let mut dump = TraceDump::default();
    for ring in rings {
        let head = ring.head.load(Ordering::Acquire);
        let lo = head.saturating_sub(RING_CAP as u64);
        dump.dropped += lo;
        for i in lo..head {
            let slot = &ring.slots[(i % RING_CAP as u64) as usize];
            dump.events.push(TraceEvent {
                name: name_of(slot.name_id.load(Ordering::Relaxed) as u32),
                tid: ring.tid,
                start_ns: slot.start_ns.load(Ordering::Relaxed),
                dur_ns: slot.dur_ns.load(Ordering::Relaxed),
            });
        }
    }
    dump.events.sort_by_key(|e| e.start_ns);
    dump
}

// ----------------------------------------------------------------- health

/// Drop count for one thread's ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingHealth {
    /// Stable display id of the owning thread.
    pub tid: u64,
    /// Events lost to ring overwrite since startup.
    pub dropped: u64,
}

/// Observability of the observability: whether tracing is on and how many
/// events each ring has overwritten. A nonzero drop count means a trace
/// dump is missing history — the CI smoke asserts zero under load.
#[derive(Clone, Debug, Default)]
pub struct TraceHealth {
    /// Whether spans currently record.
    pub enabled: bool,
    /// Per-thread ring drop counts, in ring-registration order.
    pub rings: Vec<RingHealth>,
}

impl TraceHealth {
    /// The health as metric samples, appendable to any
    /// [`crate::MetricsSnapshot`]: a `biq_trace_enabled` gauge, a
    /// `biq_trace_rings` gauge, and one `biq_trace_ring_dropped{tid=…}`
    /// counter per ring.
    pub fn samples(&self) -> Vec<crate::metrics::Sample> {
        use crate::metrics::{MetricValue, Sample};
        let mut out = vec![
            Sample {
                name: "biq_trace_enabled".to_string(),
                labels: Vec::new(),
                value: MetricValue::Gauge(self.enabled as i64),
            },
            Sample {
                name: "biq_trace_rings".to_string(),
                labels: Vec::new(),
                value: MetricValue::Gauge(self.rings.len() as i64),
            },
        ];
        for r in &self.rings {
            out.push(Sample {
                name: "biq_trace_ring_dropped".to_string(),
                labels: vec![("tid".to_string(), r.tid.to_string())],
                value: MetricValue::Counter(r.dropped),
            });
        }
        out
    }
}

/// Reads the trace subsystem's own health: cheap (the registration-list
/// mutex plus one acquire load per ring), safe to call live.
pub fn health() -> TraceHealth {
    let rings = rings()
        .lock()
        .expect("trace ring list poisoned")
        .iter()
        .map(|ring| RingHealth {
            tid: ring.tid,
            dropped: ring.head.load(Ordering::Acquire).saturating_sub(RING_CAP as u64),
        })
        .collect();
    TraceHealth { enabled: tracing_enabled(), rings }
}

/// Renders a dump as Chrome trace-event JSON (the "complete event"
/// `"ph": "X"` form): an array of objects with `name`/`cat`/`ph`/`ts`/
/// `dur`/`pid`/`tid`, timestamps in **microseconds** since the trace
/// epoch. Loadable directly in Perfetto or `chrome://tracing`.
pub fn chrome_trace_json(dump: &TraceDump) -> String {
    let mut out = String::from("[\n");
    for (i, e) in dump.events.iter().enumerate() {
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"cat\": \"biq\", \"ph\": \"X\", \
             \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}}}{}\n",
            crate::metrics::escape_json(e.name),
            e.start_ns as f64 / 1000.0,
            e.dur_ns as f64 / 1000.0,
            e.tid,
            if i + 1 == dump.events.len() { "" } else { "," },
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The trace layer is process-global state — the enabled flag and the
    // rings `drain` empties — and the harness runs this module's tests on
    // parallel threads of one process. Every test that toggles the flag or
    // drains holds this lock for its whole body, so none can switch
    // tracing off under another's span or drain its events first.
    static GLOBAL_TRACE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn exclusive_trace() -> std::sync::MutexGuard<'static, ()> {
        // The lock guards no data, so a test that failed while holding it
        // leaves nothing invalid behind for the others.
        GLOBAL_TRACE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _serial = exclusive_trace();
        set_tracing(false);
        {
            let _g = crate::span!("test.disabled");
        }
        let dump = drain();
        assert!(dump.events.iter().all(|e| e.name != "test.disabled"), "{dump:?}");
    }

    #[test]
    fn enabled_spans_record_scoped_durations() {
        let _serial = exclusive_trace();
        set_tracing(true);
        {
            let _g = crate::span!("test.enabled");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        emit("test.bridged", 100, 50);
        set_tracing(false);
        let dump = drain();
        let span = dump.events.iter().find(|e| e.name == "test.enabled").expect("span recorded");
        assert!(span.dur_ns >= 1_000_000, "slept 2ms, recorded {}ns", span.dur_ns);
        let bridged = dump.events.iter().find(|e| e.name == "test.bridged").expect("emit recorded");
        assert_eq!((bridged.start_ns, bridged.dur_ns), (100, 50));
    }

    #[test]
    fn threads_get_distinct_ring_tids() {
        let _serial = exclusive_trace();
        set_tracing(true);
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let _g = crate::span!("test.threaded");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_tracing(false);
        let dump = drain();
        let tids: std::collections::HashSet<u64> =
            dump.events.iter().filter(|e| e.name == "test.threaded").map(|e| e.tid).collect();
        assert_eq!(tids.len(), 3, "each thread owns a ring: {dump:?}");
    }

    #[test]
    fn health_reports_rings_and_enabled_flag() {
        let _serial = exclusive_trace();
        set_tracing(true);
        emit("test.health", 1, 1); // ensure this thread's ring exists
        let h = health();
        assert!(h.enabled);
        assert!(!h.rings.is_empty());
        set_tracing(false);
        let h = health();
        assert!(!h.enabled);
        let samples = h.samples();
        let enabled = samples.iter().find(|s| s.name == "biq_trace_enabled").unwrap();
        assert_eq!(enabled.value, crate::metrics::MetricValue::Gauge(0));
        // One labeled drop counter per ring, all zero in a test process
        // that never wrote RING_CAP events from one thread.
        let dropped: Vec<_> =
            samples.iter().filter(|s| s.name == "biq_trace_ring_dropped").collect();
        assert_eq!(dropped.len(), h.rings.len());
        assert!(dropped.iter().all(|s| s.label("tid").is_some()));
        let snap = crate::MetricsSnapshot { samples };
        let dropped_total: u64 = h.rings.iter().map(|r| r.dropped).sum();
        assert_eq!(snap.counter_total("biq_trace_ring_dropped"), dropped_total);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let ring = Ring::new(999);
        for i in 0..(RING_CAP as u64 + 10) {
            ring.push(0, i, 1);
        }
        let head = ring.head.load(Ordering::Acquire);
        assert_eq!(head, RING_CAP as u64 + 10);
        let lo = head.saturating_sub(RING_CAP as u64);
        assert_eq!(lo, 10, "10 oldest events overwritten");
        // The surviving window is the most recent RING_CAP events.
        let oldest_surviving = &ring.slots[(lo % RING_CAP as u64) as usize];
        assert_eq!(oldest_surviving.start_ns.load(Ordering::Relaxed), 10);
    }
}

//! The `BIQP` wire codec — pure frame encoding/decoding, no sockets.
//!
//! One frame per message, little-endian throughout:
//!
//! ```text
//! offset size  field
//!      0    4  magic     "BIQP"
//!      4    1  version   1
//!      5    1  kind      message discriminant (see [`Message`])
//!      6    2  reserved  must be zero
//!      8    4  body_len  bytes after the header (≤ MAX_BODY)
//!     12    4  checksum  fnv1a64(body) folded hi32 ^ lo32
//!     16    …  body      kind-specific, must be consumed exactly
//! ```
//!
//! Decoding follows the artifact crate's discipline: every read checks the
//! remaining length, every count is capped **before** any allocation, the
//! body must tile exactly (trailing bytes are an error), nonzero reserved
//! fields are errors, and the checksum is verified before the body is
//! parsed — a corrupt frame is always [`WireError::Malformed`], never a
//! panic or an over-allocation.
//!
//! Every body is described once, as its fields in wire order, each with a
//! wire type (the private `Fmt` trait) and the name its errors carry: the
//! `kinds!` table holds one row per message kind, and `record!` one row per
//! struct a kind carries in a list. The encoder, the bounds-checked decoder
//! and each list's minimum entry size (the encoded size of an empty entry,
//! which bounds a count before anything is reserved) all follow from those
//! rows. Adding a kind takes one `kinds!` row, plus one `record!` row for
//! each new struct it lists.

use biq_artifact::fnv1a64;
use biq_obs::{
    HistogramSnapshot, MetricValue, OpPoint, RequestRecord, Sample, SeriesPoint, SlowHit, BUCKETS,
};
use std::borrow::Borrow;
use std::io::Read;
use std::marker::PhantomData;
use std::ops::RangeInclusive;

/// Frame magic.
pub const MAGIC: [u8; 4] = *b"BIQP";
/// Protocol version this codec speaks.
pub const WIRE_VERSION: u8 = 1;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Cap on `body_len`: nothing is allocated past this (16 MiB).
pub const MAX_BODY: usize = 1 << 24;
/// Cap on an op-name length in bytes.
pub const MAX_NAME: usize = 256;
/// Cap on request/reply columns per frame.
pub const MAX_COLS: usize = 4096;
/// Cap on request/reply rows per frame.
pub const MAX_ROWS: usize = 1 << 20;
/// Cap on a reject-message length in bytes.
pub const MAX_MSG: usize = 1024;
/// Cap on ops listed in one `OpList` frame.
pub const MAX_OPS: usize = 4096;
/// Cap on samples carried by one `StatsReply` frame.
pub const MAX_SAMPLES: usize = 2048;
/// Cap on a metric-name length in bytes.
pub const MAX_METRIC_NAME: usize = 160;
/// Cap on labels per stats sample.
pub const MAX_LABELS: usize = 8;
/// Cap on a label-key length in bytes.
pub const MAX_LABEL_KEY: usize = 64;
/// Cap on a label-value length in bytes.
pub const MAX_LABEL_VALUE: usize = 128;
/// `StatsReply` body schema version this codec speaks. The body carries
/// its own version byte (separate from the frame header's) so the stats
/// schema can evolve without a protocol bump.
pub const STATS_VERSION: u8 = 1;
/// Cap on time-series points carried by one `HistoryReply` frame.
pub const MAX_POINTS: usize = 512;
/// Cap on per-op rows within one history point.
pub const MAX_POINT_OPS: usize = 256;
/// Cap on slow-request entries carried by one `SlowLogReply` frame.
pub const MAX_SLOW: usize = 256;
/// `HistoryReply` body schema version (own byte, like `STATS_VERSION`).
pub const HISTORY_VERSION: u8 = 1;
/// `SlowLogReply` body schema version (own byte, like `STATS_VERSION`).
pub const SLOWLOG_VERSION: u8 = 1;
/// Cap on an artifact path carried by a `LoadModel` frame.
pub const MAX_PATH: usize = 4096;
/// Cap on model rows in one `ModelList` frame (and on evicted names in a
/// `ModelLoaded` frame). Mirrors [`crate::registry::MAX_MODELS`].
pub const MAX_MODELS: usize = 256;
/// Body schema version shared by all six model-fleet admin bodies
/// (`LoadModel`/`ModelLoaded`/`UnloadModel`/`ModelUnloaded`/`ListModels`/
/// `ModelList`) — each body leads with this byte, like `STATS_VERSION`.
pub const MODEL_VERSION: u8 = 1;

/// Why a request was refused (the wire image of
/// [`crate::ServeError`], plus `Malformed` for protocol errors).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectCode {
    /// The server's bounded queue is full — retry later.
    Busy,
    /// The server is draining and no longer accepts requests.
    ShuttingDown,
    /// The named op is not registered.
    UnknownOp,
    /// The payload's row count disagrees with the op's input size.
    ShapeMismatch,
    /// The server dropped the request without answering.
    Canceled,
    /// The frame itself was invalid; the connection closes after this.
    Malformed,
    /// An admin verb (model load/unload) was refused — bad artifact,
    /// name/op collision, memory budget, or in-flight protection. The
    /// connection stays open; `req_id` is 0 (admin verbs carry none).
    Refused,
}

/// Every reject code, in declaration order, with its reporting name; a
/// code's wire byte is its position plus one.
const CODES: [(RejectCode, &str); 7] = [
    (RejectCode::Busy, "busy"),
    (RejectCode::ShuttingDown, "shutting-down"),
    (RejectCode::UnknownOp, "unknown-op"),
    (RejectCode::ShapeMismatch, "shape-mismatch"),
    (RejectCode::Canceled, "canceled"),
    (RejectCode::Malformed, "malformed"),
    (RejectCode::Refused, "refused"),
];

impl RejectCode {
    /// Stable lowercase name (reporting).
    pub fn name(self) -> &'static str {
        CODES[self as usize].1
    }
}

impl std::fmt::Display for RejectCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One op row in an [`Message::OpList`] frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpInfo {
    /// Registration name.
    pub name: String,
    /// Output rows `m`.
    pub m: u32,
    /// Input rows `n` (what a request payload must have).
    pub n: u32,
}

/// One model row in a [`Message::ModelList`] frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelInfo {
    /// Model name (the `name` half of `op@v` resolution).
    pub name: String,
    /// Version of this row.
    pub version: u32,
    /// True while this version serves traffic; false once retired (its
    /// slots and traffic counters are retained, its payload is dropped).
    pub live: bool,
    /// Estimated resident bytes (0 once retired).
    pub mem_bytes: u64,
    /// Ops this version registered.
    pub ops: u32,
    /// Requests currently in flight against this version.
    pub inflight: u32,
    /// Requests completed across this version's ops.
    pub completed: u64,
}

/// Every message the protocol carries, client→server and server→client.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Client→server: run `op` on an `rows × cols` column-major fp32
    /// payload. `req_id` is echoed in the matching reply/reject and is the
    /// client's to choose (pipelining key).
    Request {
        /// Client-chosen correlation id.
        req_id: u64,
        /// Registered op name.
        op: String,
        /// Payload rows (the op's input size).
        rows: u32,
        /// Payload columns.
        cols: u16,
        /// Column-major fp32 payload, `rows × cols` values.
        data: Vec<f32>,
    },
    /// Server→client: the `m × cols` row-major result of a request.
    Reply {
        /// The request's correlation id.
        req_id: u64,
        /// Result rows (the op's output size `m`).
        rows: u32,
        /// Result columns (the request's column count).
        cols: u16,
        /// Row-major fp32 result, `rows × cols` values.
        data: Vec<f32>,
    },
    /// Server→client: the request was refused; `Busy` is the backpressure
    /// edge and is retryable.
    Reject {
        /// The request's correlation id (0 when no frame could be parsed).
        req_id: u64,
        /// Why.
        code: RejectCode,
        /// Human-readable detail.
        msg: String,
    },
    /// Client→server: ask for the op table.
    ListOps,
    /// Server→client: the registered ops, in registration order.
    OpList(Vec<OpInfo>),
    /// Client→server: ask for a live metrics snapshot (admin verb, empty
    /// body). Answered from counters the reader thread can reach — never
    /// by touching a worker.
    Stats,
    /// Server→client: the metric samples behind [`Message::Stats`].
    StatsReply(Vec<Sample>),
    /// Client→server: ask for the daemon's rolling per-interval
    /// time-series (admin verb). `max_points == 0` means "all retained".
    History {
        /// Newest points wanted (0 = every retained point).
        max_points: u16,
    },
    /// Server→client: the retained series points, oldest first.
    HistoryReply(Vec<SeriesPoint>),
    /// Client→server: ask for the slowest-request records (admin verb).
    /// `max == 0` means "the whole reservoir".
    SlowLog {
        /// Entries wanted (0 = the whole reservoir).
        max: u16,
    },
    /// Server→client: the slowest requests seen, slowest first, each with
    /// its full phase breakdown.
    SlowLogReply(Vec<SlowHit>),
    /// Client→server (admin verb): load the BIQM artifact at `path` (on
    /// the **daemon's** filesystem — the frame carries a path, never the
    /// artifact bytes) under `name`. An existing live `name` swaps to a
    /// new version and retires the old one (drain-on-retire). Refusals
    /// come back as `Reject(code = Refused, req_id = 0)`.
    LoadModel {
        /// Model name to load or swap.
        name: String,
        /// Artifact path, resolved daemon-side.
        path: String,
    },
    /// Server→client: the load succeeded.
    ModelLoaded {
        /// The loaded model's name (echoed).
        name: String,
        /// The version the load produced (1 for a new name, prev+1 for a
        /// swap).
        version: u32,
        /// Estimated resident bytes of the new version.
        mem_bytes: u64,
        /// Ops the artifact registered.
        ops: u32,
        /// `name@version` of models evicted to make room under the memory
        /// budget.
        evicted: Vec<String>,
    },
    /// Client→server (admin verb): retire a model version online.
    UnloadModel {
        /// Model name to unload.
        name: String,
        /// Version to retire; 0 means "the live version".
        version: u32,
    },
    /// Server→client: the unload succeeded.
    ModelUnloaded {
        /// The unloaded model's name (echoed).
        name: String,
        /// The version actually retired.
        version: u32,
        /// Ops the retirement removed from resolution.
        ops_retired: u32,
    },
    /// Client→server (admin verb): ask for the model table.
    ListModels,
    /// Server→client: every model version the registry knows, live first.
    ModelList(Vec<ModelInfo>),
}

/// Decode/IO errors of the wire layer.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// The bytes violate the protocol; the connection must close.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl WireError {
    /// True when the failure was specifically a body-checksum mismatch —
    /// the one malformed-frame class that indicates corruption in transit
    /// rather than a broken peer, so the net layer counts it separately.
    pub fn is_checksum_mismatch(&self) -> bool {
        matches!(self, WireError::Malformed(m) if m == "checksum mismatch")
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

/// `fnv1a64` folded to the header's 32-bit checksum field.
pub fn fold_checksum(body: &[u8]) -> u32 {
    let h = fnv1a64(body);
    (h >> 32) as u32 ^ h as u32
}

/// Clips a reject message to [`MAX_MSG`] bytes at the last character
/// boundary that fits, so a long non-ASCII detail still encodes.
pub(crate) fn clip_msg(msg: &mut String) {
    let end = (0..=msg.len().min(MAX_MSG)).rev().find(|&i| msg.is_char_boundary(i));
    msg.truncate(end.expect("0 is a boundary"));
}

// ------------------------------------------------------------ byte cursors

/// Appends one frame to a caller-owned buffer.
struct Writer<'a> {
    buf: &'a mut Vec<u8>,
    /// Values the payload must hold: the product of the dimensions so far.
    values: usize,
}

impl<'a> Writer<'a> {
    /// Replaces `frame`'s contents (keeping its capacity) with a header
    /// whose length and checksum [`Writer::seal`] patches in.
    fn start(frame: &'a mut Vec<u8>, kind: u8) -> Self {
        frame.clear();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&[WIRE_VERSION, kind, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        Writer { buf: frame, values: 1 }
    }

    /// Writes `n` as a `width`-byte count. An `n` over `cap` panics:
    /// encoders build messages, so a violation is a local bug.
    fn count(&mut self, width: usize, cap: usize, n: usize) {
        assert!(n <= cap, "count {n} over cap {cap}");
        self.buf.extend_from_slice(&n.to_le_bytes()[..width]);
    }

    fn seal(&mut self) {
        let body_len = self.buf.len() - HEADER_LEN;
        assert!(body_len <= MAX_BODY, "body over cap");
        let sum = fold_checksum(&self.buf[HEADER_LEN..]);
        self.buf[8..12].copy_from_slice(&(body_len as u32).to_le_bytes());
        self.buf[12..16].copy_from_slice(&sum.to_le_bytes());
    }
}

/// A bounds-checked cursor over a frame body.
struct Reader<'a> {
    body: &'a [u8],
    at: usize,
    /// Values the payload holds: the product of the dimensions read so far.
    values: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.body.len() - self.at
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        let rest = &self.body[self.at..];
        if n > rest.len() {
            return Err(malformed(format!("{what}: needs {n} bytes, {} remain", rest.len())));
        }
        self.at += n;
        Ok(&rest[..n])
    }

    /// A `w`-byte count of `unit`-byte entries, checked against `cap`
    /// and then against the bytes left, before anything is read or reserved.
    fn count(&mut self, w: usize, cap: usize, unit: usize, what: &str) -> Result<usize, WireError> {
        #[cfg(test)]
        tests::mark(self.at, w, cap, unit, what);
        let n = self.take(w, what)?.iter().rev().fold(0, |n, &b| n << 8 | usize::from(b));
        if n > cap {
            return Err(malformed(format!("{what} {n} over cap {cap}")));
        }
        if n * unit > self.remaining() {
            return Err(malformed(format!("{what} {n} exceeds body")));
        }
        Ok(n)
    }

    /// A one-byte tag in `ok`: a value's kind (an `unknown` one is an
    /// error), or a body's leading schema byte (as is an `unsupported` one).
    fn tag(&mut self, ok: RangeInclusive<u8>, what: &str, bad: &str) -> Result<u8, WireError> {
        #[cfg(test)]
        tests::mark(self.at, 1, (*ok.end()).into(), 0, what);
        match self.take(1, what)?[0] {
            t if ok.contains(&t) => Ok(t),
            t => Err(malformed(format!("{bad} {what} {t}"))),
        }
    }
}

// ------------------------------------------------------------- wire types

/// One wire type: how a value is written, how it is read back and the
/// encoded size of its empty value.
trait Fmt {
    /// The decoded value.
    type T: Borrow<Self::Ref>;
    /// What the encoder borrows (`str` for a `String`, a slice for a `Vec`).
    type Ref: ?Sized;
    /// Encoded size of the empty value: the fewest bytes one list entry
    /// takes, which bounds a list count before anything is reserved.
    const MIN_LEN: usize;
    /// The empty value.
    const EMPTY: Self::T;
    fn put(v: &Self::Ref, w: &mut Writer<'_>);
    /// `what[0]` names the field in errors; a list hands `what[1..]` to its
    /// entries.
    fn get(r: &mut Reader<'_>, what: &[&str]) -> Result<Self::T, WireError>;
}

macro_rules! ints {
    ($($t:ty),*) => {$(
        impl Fmt for $t {
            type T = $t;
            type Ref = $t;
            const MIN_LEN: usize = size_of::<$t>();
            const EMPTY: $t = 0;
            fn put(v: &$t, w: &mut Writer<'_>) {
                w.buf.extend_from_slice(&v.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>, what: &[&str]) -> Result<$t, WireError> {
                let raw = r.take(size_of::<$t>(), what[0])?;
                Ok(<$t>::from_le_bytes(raw.try_into().expect("sized read")))
            }
        }
    )*};
}
ints!(u8, u16, u32, u64, i64);

/// A model row's state: 1 live, 2 retired.
impl Fmt for bool {
    type T = bool;
    type Ref = bool;
    const MIN_LEN: usize = 1;
    const EMPTY: bool = false;
    fn put(v: &bool, w: &mut Writer<'_>) {
        w.buf.push(if *v { 1 } else { 2 });
    }
    fn get(r: &mut Reader<'_>, what: &[&str]) -> Result<bool, WireError> {
        Ok(r.tag(1..=2, what[0], "unknown")? == 1)
    }
}

/// A reject code: its position in [`CODES`] plus one.
impl Fmt for RejectCode {
    type T = RejectCode;
    type Ref = RejectCode;
    const MIN_LEN: usize = 1;
    const EMPTY: RejectCode = RejectCode::Busy;
    fn put(v: &RejectCode, w: &mut Writer<'_>) {
        w.buf.push(*v as u8 + 1);
    }
    fn get(r: &mut Reader<'_>, what: &[&str]) -> Result<RejectCode, WireError> {
        Ok(CODES[usize::from(r.tag(1..=CODES.len() as u8, what[0], "unknown")?) - 1].0)
    }
}

/// A histogram's buckets.
impl<const N: usize> Fmt for [u64; N] {
    type T = [u64; N];
    type Ref = [u64; N];
    const MIN_LEN: usize = N * u64::MIN_LEN;
    const EMPTY: [u64; N] = [0; N];
    fn put(v: &[u64; N], w: &mut Writer<'_>) {
        v.iter().for_each(|b| u64::put(b, w));
    }
    fn get(r: &mut Reader<'_>, what: &[&str]) -> Result<[u64; N], WireError> {
        let mut buckets = [0; N];
        for b in &mut buckets {
            *b = u64::get(r, what)?;
        }
        Ok(buckets)
    }
}

/// A stats label: key, then value.
impl<A: Fmt, B: Fmt> Fmt for (A, B) {
    type T = (A::T, B::T);
    type Ref = (A::T, B::T);
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    const EMPTY: (A::T, B::T) = (A::EMPTY, B::EMPTY);
    fn put(v: &Self::T, w: &mut Writer<'_>) {
        A::put(v.0.borrow(), w);
        B::put(v.1.borrow(), w);
    }
    fn get(r: &mut Reader<'_>, what: &[&str]) -> Result<Self::T, WireError> {
        Ok((A::get(r, what)?, B::get(r, &what[1..])?))
    }
}

/// A utf-8 string behind a `W`-byte length, at most `CAP` bytes.
struct Str<const W: usize, const CAP: usize>;

impl<const W: usize, const CAP: usize> Fmt for Str<W, CAP> {
    type T = String;
    type Ref = str;
    const MIN_LEN: usize = W;
    const EMPTY: String = String::new();
    fn put(v: &str, w: &mut Writer<'_>) {
        w.count(W, CAP, v.len());
        w.buf.extend_from_slice(v.as_bytes());
    }
    fn get(r: &mut Reader<'_>, what: &[&str]) -> Result<String, WireError> {
        let n = r.count(W, CAP, 1, what[0])?;
        let raw = r.take(n, what[0])?;
        String::from_utf8(raw.to_vec()).map_err(|_| malformed(format!("{}: not utf-8", what[0])))
    }
}

/// `F` entries behind a `W`-byte count, at most `CAP` of them.
struct List<const W: usize, const CAP: usize, F>(PhantomData<F>);

impl<const W: usize, const CAP: usize, F: Fmt> Fmt for List<W, CAP, F> {
    type T = Vec<F::T>;
    type Ref = [F::T];
    const MIN_LEN: usize = W;
    const EMPTY: Vec<F::T> = Vec::new();
    fn put(v: &[F::T], w: &mut Writer<'_>) {
        w.count(W, CAP, v.len());
        v.iter().for_each(|e| F::put(e.borrow(), w));
    }
    fn get(r: &mut Reader<'_>, what: &[&str]) -> Result<Vec<F::T>, WireError> {
        let n = r.count(W, CAP, F::MIN_LEN, what[0])?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(F::get(r, &what[1..])?);
        }
        Ok(entries)
    }
}

/// A payload dimension of at most `CAP`: the payload holds the product of
/// the dimensions before it.
struct Dim<I, const CAP: usize>(PhantomData<I>);

impl<I, const CAP: usize> Fmt for Dim<I, CAP>
where
    I: Fmt<T = I, Ref = I> + Copy + Into<u64> + TryFrom<usize>,
{
    type T = I;
    type Ref = I;
    const MIN_LEN: usize = I::MIN_LEN;
    const EMPTY: I = I::EMPTY;
    fn put(v: &I, w: &mut Writer<'_>) {
        let n = Into::<u64>::into(*v) as usize;
        w.count(I::MIN_LEN, CAP, n);
        w.values = w.values.saturating_mul(n);
    }
    fn get(r: &mut Reader<'_>, what: &[&str]) -> Result<I, WireError> {
        let n = r.count(I::MIN_LEN, CAP, 0, what[0])?;
        r.values = r.values.saturating_mul(n);
        Ok(I::try_from(n).ok().expect("a dimension within its cap fits its width"))
    }
}

/// The fp32 payload, as many values as its dimensions multiply to.
struct Payload;

impl Fmt for Payload {
    type T = Vec<f32>;
    type Ref = [f32];
    const MIN_LEN: usize = 0;
    const EMPTY: Vec<f32> = Vec::new();
    fn put(v: &[f32], w: &mut Writer<'_>) {
        assert_eq!(v.len(), w.values, "payload shape");
        v.iter().for_each(|x| w.buf.extend_from_slice(&x.to_le_bytes()));
    }
    fn get(r: &mut Reader<'_>, what: &[&str]) -> Result<Vec<f32>, WireError> {
        let raw = r.take(r.values.saturating_mul(4), what[0])?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }
}

type Name = Str<2, MAX_NAME>;
type Rows = Dim<u32, MAX_ROWS>;
type Cols = Dim<u16, MAX_COLS>;
type MetricName = Str<2, MAX_METRIC_NAME>;
type Labels = List<1, MAX_LABELS, (Str<1, MAX_LABEL_KEY>, Str<1, MAX_LABEL_VALUE>)>;

/// A sample is the one struct no `record!` row can describe: its value's
/// kind leads it and the value's body trails its labels.
impl Fmt for Sample {
    type T = Sample;
    type Ref = Sample;
    const MIN_LEN: usize = u8::MIN_LEN + MetricName::MIN_LEN + Labels::MIN_LEN + u64::MIN_LEN;
    const EMPTY: Sample =
        Sample { name: String::new(), labels: Vec::new(), value: MetricValue::Counter(0) };
    fn put(s: &Sample, w: &mut Writer<'_>) {
        w.buf.push(match s.value {
            MetricValue::Counter(_) => 1,
            MetricValue::Gauge(_) => 2,
            MetricValue::Histogram(_) => 3,
        });
        MetricName::put(&s.name, w);
        Labels::put(&s.labels, w);
        match &s.value {
            MetricValue::Counter(v) => u64::put(v, w),
            MetricValue::Gauge(v) => i64::put(v, w),
            MetricValue::Histogram(h) => HistogramSnapshot::put(h, w),
        }
    }
    fn get(r: &mut Reader<'_>, _: &[&str]) -> Result<Sample, WireError> {
        let kind = r.tag(1..=3, "sample kind", "unknown")?;
        let name = MetricName::get(r, &["metric name"])?;
        let labels = Labels::get(r, &["label count", "label key", "label value"])?;
        let value = match kind {
            1 => MetricValue::Counter(u64::get(r, &["counter value"])?),
            2 => MetricValue::Gauge(i64::get(r, &["gauge value"])?),
            _ => MetricValue::Histogram(HistogramSnapshot::get(r, &[])?),
        };
        Ok(Sample { name, labels, value })
    }
}

// ---------------------------------------------------------------- schema

/// One struct per row: its fields in wire order, each with its wire type
/// and the names its errors carry.
macro_rules! record {
    ($($T:ident { $($f:ident: $F:ty = $($w:literal)|+),* $(,)? })*) => {$(
        impl Fmt for $T {
            type T = $T;
            type Ref = $T;
            const MIN_LEN: usize = 0 $(+ <$F as Fmt>::MIN_LEN)*;
            const EMPTY: $T = $T { $($f: <$F as Fmt>::EMPTY),* };
            fn put(v: &$T, w: &mut Writer<'_>) {
                $(<$F as Fmt>::put(&v.$f, w);)*
            }
            fn get(r: &mut Reader<'_>, _: &[&str]) -> Result<$T, WireError> {
                Ok($T { $($f: <$F as Fmt>::get(r, &[$($w),+])?),* })
            }
        }
    )*};
}

record! {
    OpInfo { name: Name = "op name", m: u32 = "op m", n: u32 = "op n" }
    ModelInfo { name: Name = "model name", version: u32 = "model version",
        live: bool = "model state", mem_bytes: u64 = "model bytes", ops: u32 = "op count",
        inflight: u32 = "inflight", completed: u64 = "completed" }
    OpPoint { op: Name = "op name", submitted: u64 = "submitted", completed: u64 = "completed",
        rejected: u64 = "rejected", queue_depth: u64 = "queue depth", batches: u64 = "batches",
        batch_cols_x100: u64 = "batch cols", p50_us: u64 = "p50", p99_us: u64 = "p99" }
    SeriesPoint { t_ms: u64 = "point time", interval_ns: u64 = "point interval",
        ops: List<2, MAX_POINT_OPS, OpPoint> = "op row count" }
    SlowHit { op: Name = "op name", rec: RequestRecord = "slow record" }
    RequestRecord { req_id: u64 = "req id", op: u32 = "op index", cols: u32 = "cols",
        start_ns: u64 = "start", total_ns: u64 = "total", queue_ns: u64 = "queue phase",
        window_ns: u64 = "window phase", exec_ns: u64 = "exec phase",
        ticket_ns: u64 = "ticket phase", write_ns: u64 = "write phase" }
    HistogramSnapshot { buckets: [u64; BUCKETS] = "histogram bucket", sum: u64 = "histogram sum" }
}

/// A kind's field as bound in a pattern or a parameter: its own name, or
/// `v` for a tuple variant's one field.
macro_rules! bind {
    (0, $v:ident) => {
        $v
    };
    ($f:ident, $v:ident) => {
        $f
    };
}

/// One message kind per row: its wire number, its reporting name, the
/// schema byte its body leads with (if any), and its fields in wire order.
macro_rules! kinds {
    ($($n:literal $K:ident $name:literal $([$ver:expr, $vw:literal])?
        { $($f:tt: $F:ty = $($w:literal)|+),* $(,)? })*) => {
        /// Every kind's wire number, reporting name and empty value.
        static KINDS: &[(u8, &str, Message)] =
            &[$(($n, $name, Message::$K { $($f: <$F as Fmt>::EMPTY),* })),*];

        /// One frame encoder per kind, taking its fields in wire order.
        #[allow(non_snake_case)]
        mod frame {
            use super::*;
            $(pub(super) fn $K(frame: &mut Vec<u8>, $(bind!($f, v): &<$F as Fmt>::Ref),*) {
                let w = &mut Writer::start(frame, $n);
                $(w.buf.push($ver);)?
                $(<$F as Fmt>::put(bind!($f, v), w);)*
                w.seal();
            })*
        }

        /// [`encode`] into a caller-owned scratch buffer: the frame replaces the
        /// buffer's contents and its capacity is reused, so a steady-state encode
        /// loop allocates nothing once the buffer has grown to its working set.
        pub fn encode_into(frame: &mut Vec<u8>, msg: &Message) {
            match msg {
                $(Message::$K { $($f: bind!($f, v)),* } => frame::$K(frame, $(bind!($f, v)),*),)*
            }
        }

        fn get_message(kind: u8, r: &mut Reader<'_>) -> Result<Message, WireError> {
            Ok(match kind {
                $($n => {
                    $(r.tag($ver..=$ver, $vw, "unsupported")?;)?
                    Message::$K { $($f: <$F as Fmt>::get(r, &[$($w),+])?),* }
                })*
                other => return Err(malformed(format!("unknown frame kind {other}"))),
            })
        }
    };
}

kinds! {
    1 Request "request" { req_id: u64 = "request id", op: Name = "op name", rows: Rows = "rows",
        cols: Cols = "cols", data: Payload = "request payload of rows × cols values" }
    2 Reply "reply" { req_id: u64 = "reply id", rows: Rows = "rows", cols: Cols = "cols",
        data: Payload = "reply payload of rows × cols values" }
    3 Reject "reject" { req_id: u64 = "reject id", code: RejectCode = "reject code",
        msg: Str<2, MAX_MSG> = "reject message" }
    4 ListOps "list-ops" {}
    5 OpList "op-list" { 0: List<2, MAX_OPS, OpInfo> = "op count" }
    6 Stats "stats" {}
    7 StatsReply "stats-reply" [STATS_VERSION, "stats version"]
        { 0: List<2, MAX_SAMPLES, Sample> = "sample count" }
    8 History "history" { max_points: u16 = "history max" }
    9 HistoryReply "history-reply" [HISTORY_VERSION, "history version"]
        { 0: List<2, MAX_POINTS, SeriesPoint> = "point count" }
    10 SlowLog "slow-log" { max: u16 = "slowlog max" }
    11 SlowLogReply "slow-log-reply" [SLOWLOG_VERSION, "slowlog version"]
        { 0: List<2, MAX_SLOW, SlowHit> = "slow entry count" }
    12 LoadModel "load-model" [MODEL_VERSION, "model body version"]
        { name: Name = "model name", path: Str<2, MAX_PATH> = "artifact path" }
    13 ModelLoaded "model-loaded" [MODEL_VERSION, "model body version"]
        { name: Name = "model name", version: u32 = "model version",
          mem_bytes: u64 = "model bytes", ops: u32 = "op count",
          evicted: List<2, MAX_MODELS, Name> = "evicted count" | "evicted name" }
    14 UnloadModel "unload-model" [MODEL_VERSION, "model body version"]
        { name: Name = "model name", version: u32 = "model version" }
    15 ModelUnloaded "model-unloaded" [MODEL_VERSION, "model body version"]
        { name: Name = "model name", version: u32 = "model version",
          ops_retired: u32 = "ops retired" }
    16 ListModels "list-models" [MODEL_VERSION, "model body version"] {}
    17 ModelList "model-list" [MODEL_VERSION, "model body version"]
        { 0: List<2, MAX_MODELS, ModelInfo> = "model count" }
}

/// The reporting name of `msg`'s kind (`"stats-reply"`, …).
pub(crate) fn kind_name(msg: &Message) -> &'static str {
    let d = std::mem::discriminant(msg);
    KINDS.iter().find(|k| std::mem::discriminant(&k.2) == d).expect("every kind has a row").1
}

// ---------------------------------------------------------------- encoding

/// Encodes one message as a complete frame (header + body).
///
/// # Panics
/// Panics when the message violates its own caps (name/msg/payload too
/// large, `data.len() != rows·cols`) — encoders construct messages, so a
/// violation is a local bug, not remote input.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_into(&mut frame, msg);
    frame
}

/// Encodes a [`Message::Request`] frame straight from borrowed parts —
/// byte-identical to `encode_into(frame, &Message::Request { .. })`
/// without materialising the owned `String`/`Vec<f32>` the `Message`
/// variant demands. The client's pipelined send path reuses one scratch
/// buffer and allocates nothing at steady state.
///
/// # Panics
/// Panics on cap violations, like [`encode`].
pub fn encode_request_into(
    frame: &mut Vec<u8>,
    req_id: u64,
    op: &str,
    rows: u32,
    cols: u16,
    data: &[f32],
) {
    frame::Request(frame, &req_id, op, &rows, &cols, data);
}

/// Encodes a `Reply` frame straight from its parts into `frame`
/// (cleared first), skipping the intermediate [`Message`] — the server's
/// hot reply path borrows the answer's storage instead of cloning it.
///
/// # Panics
/// Panics on cap violations, like [`encode`].
pub fn encode_reply_into(frame: &mut Vec<u8>, req_id: u64, rows: u32, cols: u16, data: &[f32]) {
    frame::Reply(frame, &req_id, &rows, &cols, data);
}

// ---------------------------------------------------------------- decoding

/// Validates a 16-byte header; returns `(kind, body_len, checksum)`.
fn parse_header(h: &[u8; HEADER_LEN]) -> Result<(u8, usize, u32), WireError> {
    if h[0..4] != MAGIC {
        return Err(malformed("bad magic"));
    }
    if h[4] != WIRE_VERSION {
        return Err(malformed(format!("unsupported version {}", h[4])));
    }
    if h[6] != 0 || h[7] != 0 {
        return Err(malformed("nonzero reserved field"));
    }
    let body_len = u32::from_le_bytes(h[8..12].try_into().expect("4 bytes")) as usize;
    if body_len > MAX_BODY {
        return Err(malformed(format!("body length {body_len} over cap {MAX_BODY}")));
    }
    Ok((h[5], body_len, u32::from_le_bytes(h[12..16].try_into().expect("4 bytes"))))
}

/// Checks a complete body against its header's checksum, then parses it;
/// every decoder ends here.
fn parse_body(kind: u8, checksum: u32, body: &[u8]) -> Result<Message, WireError> {
    if fold_checksum(body) != checksum {
        return Err(malformed("checksum mismatch"));
    }
    let mut r = Reader { body, at: 0, values: 1 };
    let msg = get_message(kind, &mut r)?;
    match r.remaining() {
        0 => Ok(msg),
        n => Err(malformed(format!("frame body: {n} trailing body bytes"))),
    }
}

/// Decodes one frame from a byte buffer; returns the message and the bytes
/// consumed. Pure — this is what the hostile-input proptests hammer.
pub fn decode(bytes: &[u8]) -> Result<(Message, usize), WireError> {
    match decode_frame(bytes)? {
        FrameStatus::Frame { msg, used } => Ok((msg, used)),
        FrameStatus::NeedMore(n) => Err(malformed(format!("truncated frame: {n} more bytes"))),
    }
}

/// What [`decode_frame`] found at the front of a partial buffer.
#[derive(Debug)]
pub enum FrameStatus {
    /// The buffer holds a frame prefix; at least this many more bytes are
    /// needed before the frame can complete.
    NeedMore(usize),
    /// A complete frame: the decoded message and the bytes it consumed
    /// (drain exactly `used` from the buffer's front).
    Frame {
        /// The decoded message.
        msg: Message,
        /// Bytes consumed from the buffer's front.
        used: usize,
    },
}

/// Incremental sibling of [`decode`] for nonblocking readers: decodes the
/// frame at the front of a possibly-partial buffer. The header is
/// validated as soon as 16 bytes are present — garbage fails fast instead
/// of waiting for a body that will never arrive — and the same cap/
/// checksum/tiling discipline as [`decode`] applies once the body is
/// complete.
pub fn decode_frame(bytes: &[u8]) -> Result<FrameStatus, WireError> {
    let Some(header) = bytes.first_chunk::<HEADER_LEN>() else {
        return Ok(FrameStatus::NeedMore(HEADER_LEN - bytes.len()));
    };
    let (kind, body_len, checksum) = parse_header(header)?;
    let Some(body) = bytes[HEADER_LEN..].get(..body_len) else {
        return Ok(FrameStatus::NeedMore(HEADER_LEN + body_len - bytes.len()));
    };
    Ok(FrameStatus::Frame { msg: parse_body(kind, checksum, body)?, used: HEADER_LEN + body_len })
}

/// Reads exactly one frame from a stream. A clean EOF **at a frame
/// boundary** is [`WireError::Closed`]; EOF mid-frame is `Malformed`. The
/// body buffer is only allocated after the header's cap check.
pub fn read_message(r: &mut impl Read) -> Result<Message, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(WireError::Closed),
            Ok(0) => return Err(malformed(format!("eof after {got} header bytes"))),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let (kind, body_len, checksum) = parse_header(&header)?;
    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            malformed("eof inside frame body")
        } else {
            WireError::Io(e)
        }
    })?;
    parse_body(kind, checksum, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A count, length, tag or schema byte the decoder read: where it sits
    /// in the body, its width, its cap, the bytes one counted entry takes
    /// (0 for a tag or a payload dimension) and the name its errors carry.
    struct Mark {
        at: usize,
        width: usize,
        cap: usize,
        unit: usize,
        what: String,
    }

    thread_local! {
        static MARKS: std::cell::RefCell<Vec<Mark>> = const { std::cell::RefCell::new(Vec::new()) };
    }

    pub(super) fn mark(at: usize, width: usize, cap: usize, unit: usize, what: &str) {
        MARKS.with_borrow_mut(|m| m.push(Mark { at, width, cap, unit, what: what.into() }));
    }

    fn sample_request() -> Message {
        Message::Request {
            req_id: 7,
            op: "linear".into(),
            rows: 3,
            cols: 2,
            data: vec![1.0, -2.5, 0.0, 4.0, 5.5, -6.25],
        }
    }

    /// One message of every kind, in kind order, each list non-empty where
    /// the kind has one.
    fn zoo() -> Vec<Message> {
        vec![
            sample_request(),
            Message::Reply { req_id: 9, rows: 2, cols: 1, data: vec![0.5, -0.5] },
            Message::Reject { req_id: 3, code: RejectCode::Busy, msg: "queue full".into() },
            Message::ListOps,
            Message::OpList(vec![
                OpInfo { name: "a".into(), m: 4, n: 8 },
                OpInfo { name: "b.c".into(), m: 16, n: 2 },
            ]),
            Message::Stats,
            Message::StatsReply(vec![
                Sample {
                    name: "biq_serve_completed_total".into(),
                    labels: vec![("op".into(), "linear".into())],
                    value: MetricValue::Counter(42),
                },
                Sample {
                    name: "biq_serve_queue_depth".into(),
                    labels: vec![("op".into(), "linear".into())],
                    value: MetricValue::Gauge(-3),
                },
                Sample {
                    name: "biq_serve_latency_us".into(),
                    labels: Vec::new(),
                    value: MetricValue::Histogram({
                        let mut h = HistogramSnapshot::default();
                        h.buckets[0] = 1;
                        h.buckets[31] = 7;
                        h.sum = u64::MAX;
                        h
                    }),
                },
            ]),
            Message::History { max_points: 60 },
            Message::HistoryReply(vec![
                SeriesPoint { t_ms: 1_000, interval_ns: 1_000_000_000, ops: Vec::new() },
                SeriesPoint {
                    t_ms: 2_000,
                    interval_ns: 999_555_000,
                    ops: vec![OpPoint {
                        op: "linear".into(),
                        submitted: 41,
                        completed: 40,
                        rejected: 1,
                        queue_depth: 3,
                        batches: 10,
                        batch_cols_x100: 412,
                        p50_us: 120,
                        p99_us: 900,
                    }],
                },
            ]),
            Message::SlowLog { max: 8 },
            Message::SlowLogReply(vec![SlowHit {
                op: "linear".into(),
                rec: RequestRecord::from_timeline(
                    17, 0, 2, 1_000, 2_000, 300_000, 5_000_000, 5_100_000, 5_301_000,
                ),
            }]),
            Message::LoadModel { name: "bert".into(), path: "/models/bert.biqm".into() },
            Message::ModelLoaded {
                name: "bert".into(),
                version: 3,
                mem_bytes: 123_456,
                ops: 6,
                evicted: vec!["gpt@1".into(), "t5@4".into()],
            },
            Message::UnloadModel { name: "bert".into(), version: 0 },
            Message::ModelUnloaded { name: "bert".into(), version: 3, ops_retired: 6 },
            Message::ListModels,
            Message::ModelList(vec![
                ModelInfo {
                    name: "bert".into(),
                    version: 3,
                    live: true,
                    mem_bytes: 123_456,
                    ops: 6,
                    inflight: 2,
                    completed: 9_000,
                },
                ModelInfo {
                    name: "bert".into(),
                    version: 2,
                    live: false,
                    mem_bytes: 0,
                    ops: 6,
                    inflight: 0,
                    completed: 41,
                },
            ]),
        ]
    }

    #[test]
    fn every_message_kind_round_trips() {
        let msgs = zoo();
        assert_eq!(msgs.len(), KINDS.len());
        for (msg, (n, name, _)) in msgs.into_iter().zip(KINDS) {
            assert_eq!(kind_name(&msg), *name);
            let frame = encode(&msg);
            assert_eq!(frame[5], *n, "{name}");
            let (back, used) = decode(&frame).unwrap();
            assert_eq!(back, msg);
            assert_eq!(used, frame.len());
            // Stream path agrees with the buffer path.
            let mut cursor = std::io::Cursor::new(frame);
            assert_eq!(read_message(&mut cursor).unwrap(), msg);
        }
    }

    #[test]
    fn every_kind_encodes_the_pinned_bytes() {
        // The zoo's frames back to back, digested before the codec was
        // derived from its schema: any moved byte changes this.
        let all: Vec<u8> = zoo().iter().flat_map(encode).collect();
        assert_eq!(all.len(), 1130);
        assert_eq!(fnv1a64(&all), 0x2c72_d400_d82c_5780);
    }

    #[test]
    fn empty_values_round_trip_and_size_their_entries() {
        for (_, name, empty) in KINDS {
            let frame = encode(empty);
            assert_eq!(decode(&frame).unwrap().0, *empty, "{name}");
        }
        // Each list entry's minimum size is the encoded size of its empty
        // value.
        fn min_is_empty_len<F: Fmt>() {
            let mut frame = Vec::new();
            let mut w = Writer::start(&mut frame, 0);
            F::put(F::EMPTY.borrow(), &mut w);
            assert_eq!(frame.len() - HEADER_LEN, F::MIN_LEN, "{}", std::any::type_name::<F>());
        }
        min_is_empty_len::<OpInfo>();
        min_is_empty_len::<ModelInfo>();
        min_is_empty_len::<Sample>();
        min_is_empty_len::<SeriesPoint>();
        min_is_empty_len::<OpPoint>();
        min_is_empty_len::<SlowHit>();
        min_is_empty_len::<Name>();
    }

    #[test]
    fn encode_into_and_reply_into_match_encode_bytes() {
        let mut scratch = Vec::new();
        let reply = Message::Reply { req_id: 11, rows: 3, cols: 2, data: vec![0.5f32; 6] };
        for msg in [sample_request(), reply.clone(), Message::Stats] {
            encode_into(&mut scratch, &msg);
            assert_eq!(scratch, encode(&msg), "scratch encode must be byte-identical");
        }
        // The direct reply encoder agrees with the Message path and reuses
        // capacity (second call must not grow the buffer).
        encode_reply_into(&mut scratch, 11, 3, 2, &[0.5f32; 6]);
        assert_eq!(scratch, encode(&reply));
        let cap = scratch.capacity();
        encode_reply_into(&mut scratch, 11, 3, 2, &[0.5f32; 6]);
        assert_eq!(scratch.capacity(), cap, "steady-state encode must reuse the buffer");
    }

    #[test]
    fn decode_frame_streams_partial_input() {
        let frame = encode(&sample_request());
        // Every prefix short of the full frame asks for more; header
        // prefixes ask for the rest of the header first.
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut]).unwrap() {
                FrameStatus::NeedMore(n) => {
                    assert!(n > 0 && cut + n <= frame.len(), "cut {cut} wants {n}");
                    if cut < HEADER_LEN {
                        assert_eq!(n, HEADER_LEN - cut, "header completes first");
                    } else {
                        assert_eq!(cut + n, frame.len(), "body asks for exactly the rest");
                    }
                }
                other => panic!("prefix {cut} decoded: {other:?}"),
            }
        }
        // The full frame (plus pipelined trailing bytes) decodes the front.
        let mut two = frame.clone();
        two.extend_from_slice(&frame);
        match decode_frame(&two).unwrap() {
            FrameStatus::Frame { msg, used } => {
                assert_eq!(msg, sample_request());
                assert_eq!(used, frame.len());
            }
            other => panic!("full frame: {other:?}"),
        }
    }

    #[test]
    fn decode_frame_fails_garbage_at_the_header() {
        // A bad header must fail as soon as 16 bytes exist — an attacker
        // cannot park a connection on a body that never comes.
        let garbage = [0x5au8; HEADER_LEN];
        assert!(matches!(decode_frame(&garbage), Err(WireError::Malformed(_))));
        // Checksum corruption is detected once the body is complete.
        let mut frame = encode(&sample_request());
        let at = HEADER_LEN + 3;
        frame[at] ^= 0x40;
        match decode_frame(&frame) {
            Err(e) => assert!(e.is_checksum_mismatch(), "{e}"),
            other => panic!("flip decoded: {other:?}"),
        }
    }

    #[test]
    fn clean_eof_is_closed_mid_frame_is_malformed() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_message(&mut empty), Err(WireError::Closed)));
        let frame = encode(&sample_request());
        let mut cut = std::io::Cursor::new(frame[..10].to_vec());
        assert!(matches!(read_message(&mut cut), Err(WireError::Malformed(_))));
    }

    #[test]
    fn body_flip_fails_the_checksum() {
        let mut frame = encode(&sample_request());
        let at = HEADER_LEN + 3;
        frame[at] ^= 0x40;
        match decode(&frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains("checksum"), "{m}"),
            other => panic!("flip decoded: {other:?}"),
        }
    }

    #[test]
    fn oversized_header_length_errors_before_allocating() {
        let mut frame = encode(&Message::ListOps);
        frame[8..12].copy_from_slice(&(MAX_BODY as u32 + 1).to_le_bytes());
        assert!(matches!(decode(&frame), Err(WireError::Malformed(_))));
    }

    /// Re-stamps a frame's length and checksum after its body was edited,
    /// so only the body validation under test can object.
    fn reseal(frame: &mut Vec<u8>) {
        Writer { buf: frame, values: 1 }.seal();
    }

    fn refused(frame: &[u8], name: &str, case: &str) {
        match decode(frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains(name), "{case}: {m}"),
            other => panic!("{case} decoded: {other:?}"),
        }
    }

    #[test]
    fn every_kind_refuses_hostile_counts_lengths_tags_and_schema_bytes() {
        // For every count, length, tag and schema byte of every kind: the
        // cap + 1 (a bumped schema byte, an unknown tag) and a value the
        // rest of the body cannot hold are Malformed naming the field, and
        // so is a trailing byte after the last field.
        let mut names = std::collections::BTreeSet::new();
        for msg in zoo() {
            let frame = encode(&msg);
            let kind = kind_name(&msg);
            MARKS.take();
            decode(&frame).unwrap();
            for m in MARKS.take() {
                let at = HEADER_LEN + m.at;
                // A count's overflow is one entry more than the bytes after
                // it hold; a payload dimension's is its cap, whose payload
                // the body cannot hold either.
                let overflow = match (m.unit, m.width) {
                    (0, 1) => None,
                    (0, _) => Some(m.cap),
                    (unit, width) => Some((frame.len() - at - width) / unit + 1),
                };
                for value in
                    [Some(m.cap + 1), overflow.filter(|&v| v <= m.cap)].into_iter().flatten()
                {
                    assert!(value < 1 << (8 * m.width), "{kind}: {} = {value}", m.what);
                    let mut bad = frame.clone();
                    bad[at..at + m.width].copy_from_slice(&value.to_le_bytes()[..m.width]);
                    reseal(&mut bad);
                    refused(&bad, &m.what, &format!("{kind}: {} = {value}", m.what));
                }
                names.insert(m.what);
            }
            let mut long = frame.clone();
            long.push(0);
            reseal(&mut long);
            refused(&long, "trailing", kind);
        }
        for name in [
            "stats version",
            "sample count",
            "history version",
            "point count",
            "op row count",
            "slowlog version",
            "slow entry count",
            "model body version",
            "evicted count",
            "model count",
            "model state",
            "artifact path",
            "reject code",
            "rows",
            "cols",
        ] {
            assert!(names.contains(name), "no case named {name}");
        }
    }

    #[test]
    fn payload_count_must_tile_the_body_exactly() {
        // Hand-build a request body whose rows·cols disagrees with the
        // payload bytes actually present.
        let msg = sample_request();
        let mut frame = encode(&msg);
        // rows lives right after req_id(8) + name_len(2) + "linear"(6).
        let rows_at = HEADER_LEN + 16;
        frame[rows_at..rows_at + 4].copy_from_slice(&100u32.to_le_bytes());
        // Re-stamp the checksum so only the count validation can object.
        let body_len = frame.len() - HEADER_LEN;
        let sum = fold_checksum(&frame[HEADER_LEN..HEADER_LEN + body_len]);
        frame[12..16].copy_from_slice(&sum.to_le_bytes());
        match decode(&frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains("payload"), "{m}"),
            other => panic!("bad count decoded: {other:?}"),
        }
    }

    #[test]
    fn clipped_messages_end_on_a_character_boundary() {
        let mut msg = format!("open '/{}'", "é".repeat(600));
        clip_msg(&mut msg);
        assert_eq!(msg.len(), MAX_MSG - 1, "byte {MAX_MSG} falls inside a character");
        assert!(msg.ends_with('é'));
        let mut short = "queue full".to_string();
        clip_msg(&mut short);
        assert_eq!(short, "queue full");
    }
}

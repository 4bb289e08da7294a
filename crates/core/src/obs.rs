//! Dependency-free observability primitives: a lock-free latency
//! histogram, Prometheus histogram rendering, and a structured JSON-lines
//! event log.
//!
//! # The histogram
//!
//! [`LatencyHistogram`] records durations in **microseconds** into one
//! relaxed [`AtomicU64`] counter per `le` bound of
//! [`PROMETHEUS_BOUNDS_US`] (5 µs to 60 s), one overflow counter for
//! samples above 60 s, and the exact sum: 24 atomics, 192 bytes.
//! Recording is wait-free, never allocates, and takes `&self`, so one
//! histogram is safely shared across every worker thread of a server.
//! Each sample counts under the first bound at or above it, so every
//! published `le` line counts exactly the samples at or below its bound.
//!
//! [`HistogramSnapshot`] is a point-in-time copy for reading; the
//! Prometheus histogram exposition
//! ([`render_prometheus`](HistogramSnapshot::render_prometheus)) works on
//! the snapshot, so the bucket lines and `_count` of one scrape agree.
//!
//! # The event log
//!
//! [`EventLog`] writes one JSON object per line (built with [`JsonLine`],
//! escaped by [`tabular::json_escape_into`]) to a file or stdout.
//! Request-derived strings pass through the escaper, so a hostile path or
//! header can never break the line framing of the log.
//!
//! # The flight recorder
//!
//! [`FlightRecorder`] is a fixed-capacity ring of structured span records
//! ([`SpanRecord`]): id, parent id, trace (request) id, [`SpanKind`],
//! start offset and duration in microseconds, and a short label. Spans
//! are recorded either through the RAII guard returned by [`span`] (which
//! nests under the calling thread's current span automatically) or
//! explicitly via [`record_span`]. Recording claims a unique slot with one
//! `fetch_add` and takes that slot's lock with `try_lock`, so the hot path
//! never blocks: the only possible contention is a reader (or a writer a
//! full ring-lap behind) holding the same slot, in which case the write is
//! skipped and counted under `contended`. History lost to wrap-around is
//! exact: `dropped = total_claims - capacity`.
//!
//! [`RingSnapshot`] is the read side — a sorted copy of the live records
//! plus the drop/contention counters and a `work` figure (slots examined,
//! always the ring capacity) that the complexity guard pins, and a
//! [`to_chrome_trace`](RingSnapshot::to_chrome_trace) renderer producing
//! Chrome-trace-event JSON loadable in `chrome://tracing` or Perfetto.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::io::{self, LineWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;
use tabular::json_escape_into;

/// The `le` bounds, in microseconds, of every histogram series: 22
/// conventional bounds from 5 µs to 60 s. Strictly increasing, which
/// [`LatencyHistogram::record_us`]'s binary search relies on.
pub const PROMETHEUS_BOUNDS_US: [u64; 22] = [
    5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
    500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000, 30_000_000, 60_000_000,
];

/// Bucket counters per histogram: one per bound, then the overflow.
const BUCKETS: usize = PROMETHEUS_BOUNDS_US.len() + 1;

/// A lock-free latency histogram over [`PROMETHEUS_BOUNDS_US`] (see the
/// module docs). Recording is wait-free and allocation-free; reads go
/// through [`snapshot`](LatencyHistogram::snapshot).
pub struct LatencyHistogram {
    /// Samples per bucket: index `i < 22` holds the samples above bound
    /// `i - 1` and at or below bound `i`; the last holds those above 60 s.
    buckets: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("total", &self.total())
            .field("sum_us", &self.sum_us.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }

    /// Records one observation of `value_us` microseconds: it counts
    /// under the first bound at or above it (values past the last bound
    /// count only under `+Inf`) and adds its exact value to the sum.
    pub fn record_us(&self, value_us: u64) {
        let slot = PROMETHEUS_BOUNDS_US.partition_point(|&bound| bound < value_us);
        if let Some(bucket) = self.buckets.get(slot) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.sum_us.fetch_add(value_us, Ordering::Relaxed);
    }

    /// Records one observation of a [`Duration`] (saturating to the u64
    /// microsecond range).
    pub fn record(&self, elapsed: Duration) {
        self.record_us(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Number of recorded observations.
    pub fn total(&self) -> u64 {
        self.buckets
            .iter()
            .map(|bucket| bucket.load(Ordering::Relaxed))
            .sum()
    }

    /// A point-in-time copy for rendering. Counters are read one by one
    /// while writers proceed, so the copy is only approximately atomic
    /// (`_sum` may hold a sample whose bucket the copy missed, or the
    /// reverse); its `_count` always equals its bucket total.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (copy, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *copy = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    sum_us: u64,
}

impl HistogramSnapshot {
    /// Number of observations in the snapshot.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Exact sum of every recorded microsecond value.
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Appends the Prometheus histogram exposition for this snapshot:
    /// cumulative `{name}_bucket{…,le="…"}` lines over
    /// [`PROMETHEUS_BOUNDS_US`] plus `+Inf`, then `{name}_sum` (seconds)
    /// and `{name}_count`. `labels` is either empty or a ready-made
    /// `key="value"` list without braces. Each `le` line counts exactly
    /// the samples at or below its bound.
    pub fn render_prometheus(&self, name: &str, labels: &str, out: &mut String) {
        let mut cumulative = 0u64;
        for (slot, filled) in self.buckets.iter().enumerate() {
            cumulative += filled;
            out.push_str(name);
            out.push_str("_bucket{");
            if !labels.is_empty() {
                out.push_str(labels);
                out.push(',');
            }
            out.push_str("le=\"");
            match PROMETHEUS_BOUNDS_US.get(slot) {
                Some(&bound) => push_seconds(out, bound),
                None => out.push_str("+Inf"),
            }
            out.push_str("\"} ");
            push_u64(out, cumulative);
            out.push('\n');
        }
        out.push_str(name);
        out.push_str("_sum");
        push_label_block(out, labels);
        out.push(' ');
        push_seconds(out, self.sum_us);
        out.push('\n');
        out.push_str(name);
        out.push_str("_count");
        push_label_block(out, labels);
        out.push(' ');
        push_u64(out, cumulative);
        out.push('\n');
    }
}

/// Appends `{labels}` when labels are present (for `_sum`/`_count` lines).
fn push_label_block(out: &mut String, labels: &str) {
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
}

/// Appends a decimal u64.
fn push_u64(out: &mut String, value: u64) {
    use fmt::Write as _;
    let _ = write!(out, "{value}");
}

/// Appends a microsecond quantity as decimal **seconds** with no float
/// round-trip: `17` → `0.000017`, `2_500_000` → `2.5`, `60_000_000` → `60`.
fn push_seconds(out: &mut String, us: u64) {
    use fmt::Write as _;
    let whole = us / 1_000_000;
    let frac = us % 1_000_000;
    if frac == 0 {
        let _ = write!(out, "{whole}");
    } else {
        let digits = format!("{frac:06}");
        let _ = write!(out, "{whole}.{}", digits.trim_end_matches('0'));
    }
}

/// Builds one JSON object on a single line, field by field. Keys and
/// string values both pass through [`json_escape_into`].
///
/// ```
/// use osdiv_core::obs::JsonLine;
/// let mut line = JsonLine::new();
/// line.str_field("event", "request");
/// line.u64_field("status", 200);
/// assert_eq!(line.finish(), r#"{"event":"request","status":200}"#);
/// ```
#[derive(Debug)]
pub struct JsonLine {
    buf: String,
    first: bool,
}

impl Default for JsonLine {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonLine {
    /// An empty object, opened.
    pub fn new() -> Self {
        JsonLine {
            buf: String::from("{"),
            first: true,
        }
    }

    /// An object opened with the `ts` (unix microseconds, see
    /// [`unix_micros`]) and `event` fields every event-log line leads
    /// with.
    pub fn event(event: &str) -> Self {
        let mut line = JsonLine::new();
        line.u64_field("ts", unix_micros());
        line.str_field("event", event);
        line
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        json_escape_into(&mut self.buf, name);
        self.buf.push_str("\":");
    }

    /// Adds a string field (escaped).
    pub fn str_field(&mut self, name: &str, value: &str) {
        self.key(name);
        self.buf.push('"');
        json_escape_into(&mut self.buf, value);
        self.buf.push('"');
    }

    /// Adds an unsigned integer field.
    pub fn u64_field(&mut self, name: &str, value: u64) {
        use fmt::Write as _;
        self.key(name);
        let _ = write!(self.buf, "{value}");
    }

    /// Adds a float field (JSON number; non-finite values become 0).
    pub fn f64_field(&mut self, name: &str, value: f64) {
        use fmt::Write as _;
        self.key(name);
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(self.buf, "{value}");
    }

    /// Adds a boolean field.
    pub fn bool_field(&mut self, name: &str, value: bool) {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Adds a pre-rendered JSON value verbatim (for nesting one object
    /// inside another). The caller is responsible for `value` being valid
    /// JSON — pass the output of another [`JsonLine::finish`].
    pub fn raw_field(&mut self, name: &str, value: &str) {
        self.key(name);
        self.buf.push_str(value);
    }

    /// Closes the object and returns the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A shared sink for JSON-lines events (the access log, lifecycle
/// events). Writes are serialized by a mutex and line-buffered;
/// [`emit`](EventLog::emit) is best-effort — a full disk must never take
/// the serving path down with it.
pub struct EventLog {
    writer: Mutex<LineWriter<Box<dyn Write + Send>>>,
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventLog").finish_non_exhaustive()
    }
}

impl EventLog {
    /// An event log over an arbitrary writer.
    pub fn to_writer(writer: Box<dyn Write + Send>) -> Self {
        EventLog {
            writer: Mutex::new(LineWriter::new(writer)),
        }
    }

    /// An event log appending to standard output.
    pub fn stdout() -> Self {
        Self::to_writer(Box::new(io::stdout()))
    }

    /// An event log appending to the file at `path` (created if missing).
    pub fn append_to(path: &Path) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self::to_writer(Box::new(file)))
    }

    /// Writes one event line (the newline is added here). Errors are
    /// swallowed by design: observability must not fail the observed.
    pub fn emit(&self, line: &str) {
        let mut writer = self.writer.lock();
        let _ = writer.write_all(line.as_bytes());
        let _ = writer.write_all(b"\n");
    }

    /// Flushes buffered lines to the underlying writer.
    pub fn flush(&self) {
        let _ = self.writer.lock().flush();
    }
}

/// Microseconds since the Unix epoch (0 if the clock is before 1970,
/// saturating at `u64::MAX`). This is the `ts` field of every event-log
/// line and the wall-clock anchor of a [`RingSnapshot`].
pub fn unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Microseconds on the global flight recorder's monotonic clock — the
/// time base every [`SpanRecord::start_us`] is expressed in. Use this to
/// capture a start time for a later [`record_span`] call.
pub fn monotonic_us() -> u64 {
    FlightRecorder::global().now_us()
}

/// Default slot count of the global flight recorder: enough for a few
/// thousand spans (a busy second of serving) in ~300 KiB of memory.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Bytes of label stored inline in a [`SpanRecord`] (longer labels are
/// truncated on a UTF-8 character boundary).
pub const LABEL_BYTES: usize = 24;

/// What a span measures. `name()` is the Chrome-trace event name prefix,
/// `category()` the `cat` field Perfetto groups tracks by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One whole HTTP request, first byte to response written.
    Request,
    /// One analysis computed by `Study::run_all` or a report render.
    Analysis,
    /// A lazy `CountIndex` build.
    IndexBuild,
    /// Ingestion: carving `<entry>` elements from the feed stream.
    IngestCarve,
    /// Ingestion: parsing carved entries.
    IngestParse,
    /// Ingestion: inserting parsed entries in feed order.
    IngestInsert,
    /// Writing a tenant snapshot to disk.
    SnapshotWrite,
    /// Loading a tenant snapshot from disk.
    SnapshotLoad,
    /// Whole boot-recovery pass over a data directory.
    Recovery,
    /// Render-cache lookup on an analysis route.
    CacheLookup,
    /// Rendering an analysis document (cache miss).
    Render,
}

impl SpanKind {
    /// The event-name prefix (`analysis`, `ingest_parse`, …).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Analysis => "analysis",
            SpanKind::IndexBuild => "index_build",
            SpanKind::IngestCarve => "ingest_carve",
            SpanKind::IngestParse => "ingest_parse",
            SpanKind::IngestInsert => "ingest_insert",
            SpanKind::SnapshotWrite => "snapshot_write",
            SpanKind::SnapshotLoad => "snapshot_load",
            SpanKind::Recovery => "recovery",
            SpanKind::CacheLookup => "cache_lookup",
            SpanKind::Render => "render",
        }
    }

    /// The Chrome-trace `cat` field.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Request | SpanKind::CacheLookup | SpanKind::Render => "serve",
            SpanKind::Analysis | SpanKind::IndexBuild => "compute",
            SpanKind::IngestCarve | SpanKind::IngestParse | SpanKind::IngestInsert => "ingest",
            SpanKind::SnapshotWrite | SpanKind::SnapshotLoad | SpanKind::Recovery => "persist",
        }
    }
}

/// One recorded span. `id == 0` marks an empty ring slot; `parent == 0`
/// means "root" and `trace == 0` means "no owning request". `start_us` is
/// on the recorder's monotonic clock (see [`monotonic_us`]); add the
/// snapshot's `epoch_unix_us` for wall-clock time.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Unique span id (never 0 for a real record).
    pub id: u64,
    /// The enclosing span's id, or 0 at the root.
    pub parent: u64,
    /// The owning request's numeric trace id, or 0 outside a request.
    pub trace: u64,
    /// What the span measures.
    pub kind: SpanKind,
    /// Recorder-assigned thread id (stable per OS thread, first-use order).
    pub tid: u64,
    /// Start offset on the recorder's monotonic clock, microseconds.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// NUL-padded UTF-8 label (tenant, analysis id, file name…).
    pub label: [u8; LABEL_BYTES],
}

impl SpanRecord {
    fn empty() -> Self {
        SpanRecord {
            id: 0,
            parent: 0,
            trace: 0,
            kind: SpanKind::Request,
            tid: 0,
            start_us: 0,
            dur_us: 0,
            label: [0; LABEL_BYTES],
        }
    }

    /// The label with NUL padding trimmed (lossy if truncation split a
    /// character, which [`span`] avoids by cutting on a boundary).
    pub fn label_str(&self) -> String {
        let used = self
            .label
            .iter()
            .position(|&b| b == 0)
            .unwrap_or(LABEL_BYTES);
        match self.label.get(..used) {
            Some(bytes) => String::from_utf8_lossy(bytes).into_owned(),
            None => String::new(),
        }
    }

    /// The Chrome-trace event name: `kind` alone, or `kind:label`.
    pub fn display_name(&self) -> String {
        let label = self.label_str();
        if label.is_empty() {
            self.kind.name().to_string()
        } else {
            format!("{}:{label}", self.kind.name())
        }
    }
}

/// Packs a label into its inline array, truncating on a char boundary.
fn pack_label(label: &str) -> [u8; LABEL_BYTES] {
    let mut out = [0u8; LABEL_BYTES];
    let mut cut = label.len().min(LABEL_BYTES);
    while cut > 0 && !label.is_char_boundary(cut) {
        cut = cut.saturating_sub(1);
    }
    if let (Some(src), Some(dst)) = (label.as_bytes().get(..cut), out.get_mut(..cut)) {
        dst.copy_from_slice(src);
    }
    out
}

/// Formats a numeric trace id the way the server prints `X-Request-Id`:
/// `{prefix:08x}-{sequence:08x}` over the high and low 32 bits.
pub fn format_trace_id(trace: u64) -> String {
    format!("{:08x}-{:08x}", (trace >> 32) as u32, trace as u32)
}

/// The span ring buffer (see the module docs). One global instance backs
/// the [`span`]/[`record_span`] free functions; tests build private rings
/// with [`with_capacity`](FlightRecorder::with_capacity).
pub struct FlightRecorder {
    slots: Box<[Mutex<SpanRecord>]>,
    claims: AtomicU64,
    contended: AtomicU64,
    next_id: AtomicU64,
    epoch: Instant,
    epoch_unix_us: u64,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("total", &self.claims.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// A ring with `capacity` slots (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity)
                .map(|_| Mutex::new(SpanRecord::empty()))
                .collect(),
            claims: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            epoch_unix_us: unix_micros(),
        }
    }

    /// The process-wide recorder every [`span`] feeds.
    pub fn global() -> &'static FlightRecorder {
        static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
        GLOBAL.get_or_init(|| FlightRecorder::with_capacity(DEFAULT_RING_CAPACITY))
    }

    /// Slot count of the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Mints the next unique span id (monotonic, never 0).
    pub fn next_span_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Microseconds since this recorder's epoch (monotonic).
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Wall-clock anchor: [`unix_micros`] at construction time.
    pub fn epoch_unix_us(&self) -> u64 {
        self.epoch_unix_us
    }

    /// Stores one record. Wait-free: the slot is claimed with one
    /// `fetch_add`, and if its lock is momentarily held (a reader, or a
    /// writer a whole ring-lap behind) the write is skipped and counted
    /// under [`contended`](FlightRecorder::contended) rather than waited
    /// for. Each slot keeps exactly one of its claimants, so wrap-around
    /// loss stays `total - capacity` regardless of who wins.
    pub fn record(&self, record: SpanRecord) {
        let claim = self.claims.fetch_add(1, Ordering::Relaxed);
        let slot = (claim % self.slots.len() as u64) as usize;
        if let Some(cell) = self.slots.get(slot) {
            if let Some(mut held) = cell.try_lock() {
                *held = record;
            } else {
                self.contended.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Spans ever recorded (including those since overwritten).
    pub fn recorded_total(&self) -> u64 {
        self.claims.load(Ordering::Relaxed)
    }

    /// Spans lost to ring wrap-around — exact, because every slot retains
    /// exactly one of its claimants: `total - capacity`, floored at 0.
    pub fn dropped(&self) -> u64 {
        self.recorded_total()
            .saturating_sub(self.slots.len() as u64)
    }

    /// Writes skipped because the claimed slot's lock was held (the
    /// overwritten slot then keeps its previous record; nothing blocks).
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// A sorted point-in-time copy of the live ring. Cost is O(capacity)
    /// — independent of how many spans were ever recorded — and the
    /// snapshot's `work` field proves it.
    pub fn snapshot(&self) -> RingSnapshot {
        let mut records = Vec::with_capacity(self.slots.len());
        let mut work = 0u64;
        for cell in self.slots.iter() {
            work += 1;
            let copied = *cell.lock();
            if copied.id != 0 {
                records.push(copied);
            }
        }
        records.sort_by_key(|r| (r.start_us, r.id));
        RingSnapshot {
            records,
            total: self.recorded_total(),
            dropped: self.dropped(),
            contended: self.contended(),
            work,
            epoch_unix_us: self.epoch_unix_us,
        }
    }
}

/// A point-in-time copy of a [`FlightRecorder`]'s ring, sorted by start
/// time, plus its counters. Produced in O(ring capacity).
#[derive(Debug, Clone)]
pub struct RingSnapshot {
    /// Live records, sorted by `(start_us, id)`.
    pub records: Vec<SpanRecord>,
    /// Spans ever recorded (claims), including overwritten ones.
    pub total: u64,
    /// Spans lost to wrap-around (`total - capacity`, floored at 0).
    pub dropped: u64,
    /// Writes skipped on a momentarily held slot lock.
    pub contended: u64,
    /// Slots examined to build this snapshot (== ring capacity) — the
    /// complexity-guard work counter.
    pub work: u64,
    /// Wall-clock microseconds at recorder construction; add to
    /// `start_us` for absolute time.
    pub epoch_unix_us: u64,
}

impl RingSnapshot {
    /// Renders the snapshot as Chrome-trace-event JSON (the
    /// `{"traceEvents":[…]}` format `chrome://tracing` and Perfetto
    /// load). Every event is a complete (`"ph":"X"`) span carrying
    /// `args.span`/`args.parent` for nesting and, inside a request,
    /// `args.request` formatted exactly like the `X-Request-Id` header so
    /// traces join to access-log lines.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(self.records.len().saturating_mul(192) + 256);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for record in &self.records {
            if !first {
                out.push(',');
            }
            first = false;
            let mut args = JsonLine::new();
            args.u64_field("span", record.id);
            args.u64_field("parent", record.parent);
            if record.trace != 0 {
                args.str_field("request", &format_trace_id(record.trace));
            }
            let mut event = JsonLine::new();
            event.str_field("name", &record.display_name());
            event.str_field("cat", record.kind.category());
            event.str_field("ph", "X");
            event.u64_field("ts", record.start_us);
            event.u64_field("dur", record.dur_us);
            event.u64_field("pid", 1);
            event.u64_field("tid", record.tid);
            event.raw_field("args", &args.finish());
            out.push_str(&event.finish());
        }
        out.push_str("],\"otherData\":{");
        let mut other = JsonLine::new();
        other.u64_field("total", self.total);
        other.u64_field("dropped", self.dropped);
        other.u64_field("contended", self.contended);
        other.u64_field("work", self.work);
        other.u64_field("epoch_unix_us", self.epoch_unix_us);
        let rendered = other.finish();
        out.push_str(rendered.trim_start_matches('{').trim_end_matches('}'));
        out.push_str("}}");
        out
    }
}

thread_local! {
    /// Stack of `(span id, trace id)` context frames for this thread.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// This thread's recorder tid (0 = not yet assigned).
    static THREAD_TID: Cell<u64> = const { Cell::new(0) };
}

/// Next recorder thread id (ids are assigned on first record per thread).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn current_tid() -> u64 {
    THREAD_TID.with(|cell| {
        let mut tid = cell.get();
        if tid == 0 {
            tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            cell.set(tid);
        }
        tid
    })
}

/// The calling thread's current `(span id, trace id)` context — what a
/// new span would nest under. `(0, 0)` outside any span.
pub fn current_context() -> (u64, u64) {
    SPAN_STACK.with(|stack| stack.borrow().last().copied().unwrap_or((0, 0)))
}

/// Opens a span nested under the calling thread's current context and
/// returns the guard that records it (into the global recorder) on drop.
pub fn span(kind: SpanKind, label: &str) -> SpanGuard {
    let (parent, trace) = current_context();
    let recorder = FlightRecorder::global();
    let id = recorder.next_span_id();
    SPAN_STACK.with(|stack| stack.borrow_mut().push((id, trace)));
    SpanGuard {
        recorder,
        id,
        parent,
        trace,
        kind,
        label: pack_label(label),
        start_us: recorder.now_us(),
    }
}

/// Records one already-measured span (explicit start and duration on the
/// recorder clock — see [`monotonic_us`]) under the calling thread's
/// current context. Returns the new span's id.
pub fn record_span(kind: SpanKind, label: &str, start_us: u64, dur_us: u64) -> u64 {
    let recorder = FlightRecorder::global();
    let (parent, trace) = current_context();
    let id = recorder.next_span_id();
    recorder.record(SpanRecord {
        id,
        parent,
        trace,
        kind,
        tid: current_tid(),
        start_us,
        dur_us,
        label: pack_label(label),
    });
    id
}

/// Records a request **root** span under a pre-minted id (from
/// [`FlightRecorder::next_span_id`]): the server opens a [`trace_scope`]
/// with the id so child spans nest under it, measures the request from
/// head parse through response write, and only then records the root —
/// after its children, which is fine, because Chrome-trace nesting is
/// reconstructed from `args.parent`, not record order.
pub fn record_request_span(id: u64, trace: u64, label: &str, start_us: u64, dur_us: u64) {
    FlightRecorder::global().record(SpanRecord {
        id,
        parent: 0,
        trace,
        kind: SpanKind::Request,
        tid: current_tid(),
        start_us,
        dur_us,
        label: pack_label(label),
    });
}

/// Pushes a pre-minted span context (id + trace) onto the calling
/// thread's stack **without** recording anything — the server uses this
/// to make router- and ingester-side spans nest under the request span it
/// records itself after the response is written.
pub fn trace_scope(span_id: u64, trace: u64) -> TraceScope {
    SPAN_STACK.with(|stack| stack.borrow_mut().push((span_id, trace)));
    TraceScope { span_id }
}

/// An open span: measures from construction to drop, then records into
/// the global [`FlightRecorder`]. Create with [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    recorder: &'static FlightRecorder,
    id: u64,
    parent: u64,
    trace: u64,
    kind: SpanKind,
    label: [u8; LABEL_BYTES],
    start_us: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        SPAN_STACK.with(|stack| {
            let mut frames = stack.borrow_mut();
            if frames.last().map(|&(id, _)| id) == Some(self.id) {
                frames.pop();
            }
        });
        let ended = self.recorder.now_us();
        self.recorder.record(SpanRecord {
            id: self.id,
            parent: self.parent,
            trace: self.trace,
            kind: self.kind,
            tid: current_tid(),
            start_us: self.start_us,
            dur_us: ended.saturating_sub(self.start_us),
            label: self.label,
        });
    }
}

/// A context frame pushed by [`trace_scope`]; pops on drop, records
/// nothing.
#[derive(Debug)]
pub struct TraceScope {
    span_id: u64,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        SPAN_STACK.with(|stack| {
            let mut frames = stack.borrow_mut();
            if frames.last().map(|&(id, _)| id) == Some(self.span_id) {
                frames.pop();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_limits_are_strictly_increasing() {
        assert!(
            PROMETHEUS_BOUNDS_US
                .windows(2)
                .all(|pair| pair[0] < pair[1]),
            "record_us binary-searches the bounds"
        );
    }

    #[test]
    fn values_past_the_cap_clamp_but_keep_their_exact_sum() {
        let hist = LatencyHistogram::new();
        hist.record_us(600_000_000);
        let snap = hist.snapshot();
        assert_eq!(snap.total(), 1);
        assert_eq!(snap.sum_us(), 600_000_000);
        let mut out = String::new();
        snap.render_prometheus("h", "", &mut out);
        assert!(out.contains("h_bucket{le=\"60\"} 0\n"));
        assert!(out.contains("h_bucket{le=\"+Inf\"} 1\n"));
        assert!(out.contains("h_sum 600\n"));
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_consistent() {
        let hist = LatencyHistogram::new();
        for v in [3u64, 17, 90, 1_500, 40_000, 2_000_000] {
            hist.record_us(v);
        }
        let mut out = String::new();
        hist.snapshot()
            .render_prometheus("test_hist", "route=\"x\"", &mut out);
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in out.lines() {
            if let Some(rest) = line.strip_prefix("test_hist_bucket{route=\"x\",le=\"") {
                let value: u64 = rest
                    .split("\"} ")
                    .nth(1)
                    .and_then(|v| v.parse().ok())
                    .expect("bucket line parses");
                assert!(value >= last, "non-monotone at {line:?}");
                last = value;
                bucket_lines += 1;
            }
        }
        assert_eq!(bucket_lines, PROMETHEUS_BOUNDS_US.len() + 1);
        assert_eq!(last, 6, "+Inf equals the count");
        assert!(out.contains("test_hist_count{route=\"x\"} 6"));
        assert!(out.contains("test_hist_sum{route=\"x\"} 2.04161"));
    }

    #[test]
    fn seconds_formatting_has_no_float_roundtrip() {
        let mut out = String::new();
        push_seconds(&mut out, 17);
        out.push(' ');
        push_seconds(&mut out, 2_500_000);
        out.push(' ');
        push_seconds(&mut out, 60_000_000);
        assert_eq!(out, "0.000017 2.5 60");
    }

    #[test]
    fn json_lines_escape_hostile_strings() {
        let mut line = JsonLine::new();
        line.str_field("path", "/v1/\"evil\"\\\n\u{1}");
        line.u64_field("status", 400);
        line.bool_field("slow", false);
        assert_eq!(
            line.finish(),
            "{\"path\":\"/v1/\\\"evil\\\"\\\\\\n\\u0001\",\"status\":400,\"slow\":false}"
        );
    }

    #[test]
    fn ring_keeps_newest_records_and_counts_drops_exactly() {
        let ring = FlightRecorder::with_capacity(4);
        for i in 1..=10u64 {
            let mut record = SpanRecord::empty();
            record.id = ring.next_span_id();
            record.start_us = i;
            ring.record(record);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.total, 10);
        assert_eq!(snap.dropped, 6);
        assert_eq!(snap.contended, 0);
        assert_eq!(snap.work, 4);
        let starts: Vec<u64> = snap.records.iter().map(|r| r.start_us).collect();
        assert_eq!(starts, vec![7, 8, 9, 10], "newest four survive");
    }

    #[test]
    fn dropped_is_zero_under_capacity() {
        let ring = FlightRecorder::with_capacity(8);
        let mut record = SpanRecord::empty();
        record.id = ring.next_span_id();
        ring.record(record);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.recorded_total(), 1);
    }

    #[test]
    fn labels_truncate_on_char_boundaries() {
        let exact = pack_label("abc");
        let mut record = SpanRecord::empty();
        record.id = 1;
        record.label = exact;
        assert_eq!(record.label_str(), "abc");
        // 23 ASCII bytes then a 2-byte char: the char would straddle the
        // 24-byte edge and must be dropped whole.
        let long = format!("{}é", "x".repeat(23));
        record.label = pack_label(&long);
        assert_eq!(record.label_str(), "x".repeat(23));
    }

    #[test]
    fn chrome_trace_renders_events_with_request_join_key() {
        let ring = FlightRecorder::with_capacity(8);
        let trace = (0xabcd_1234u64 << 32) | 7;
        let mut record = SpanRecord::empty();
        record.id = ring.next_span_id();
        record.trace = trace;
        record.kind = SpanKind::IngestParse;
        record.label = pack_label("smoke");
        record.start_us = 5;
        record.dur_us = 11;
        record.tid = 3;
        ring.record(record);
        let json = ring.snapshot().to_chrome_trace();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"ingest_parse:smoke\""));
        assert!(json.contains("\"cat\":\"ingest\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":5,\"dur\":11"));
        assert!(json.contains("\"request\":\"abcd1234-00000007\""));
        assert!(json.contains("\"otherData\":{\"total\":1,\"dropped\":0"));
    }

    #[test]
    fn span_guards_nest_through_thread_local_context() {
        let outer = span(SpanKind::Request, "outer");
        let (outer_id, _) = current_context();
        let inner = span(SpanKind::Render, "inner");
        let (inner_id, _) = current_context();
        assert_ne!(inner_id, outer_id);
        drop(inner);
        assert_eq!(current_context().0, outer_id);
        drop(outer);
        assert_eq!(current_context(), (0, 0));
        let snap = FlightRecorder::global().snapshot();
        let find = |id: u64| snap.records.iter().find(|r| r.id == id);
        let inner_rec = find(inner_id).expect("inner span recorded");
        assert_eq!(inner_rec.parent, outer_id);
        assert_eq!(inner_rec.label_str(), "inner");
        let outer_rec = find(outer_id).expect("outer span recorded");
        assert_eq!(outer_rec.parent, 0);
        assert_eq!(outer_rec.label_str(), "outer");
    }

    #[test]
    fn trace_scope_sets_context_without_recording() {
        let recorder = FlightRecorder::global();
        let minted = recorder.next_span_id();
        {
            let _scope = trace_scope(minted, 42);
            assert_eq!(current_context(), (minted, 42));
            let child = record_span(SpanKind::SnapshotWrite, "t", 0, 1);
            let snap = recorder.snapshot();
            let rec = snap
                .records
                .iter()
                .find(|r| r.id == child)
                .expect("child recorded");
            assert_eq!(rec.parent, minted);
            assert_eq!(rec.trace, 42);
        }
        assert_eq!(current_context(), (0, 0));
        // The scope itself never records: no ring record carries its id.
        let snap = recorder.snapshot();
        assert!(snap.records.iter().all(|r| r.id != minted));
    }

    #[test]
    fn event_log_writes_one_line_per_emit() {
        use std::sync::{Arc, Mutex as StdMutex};

        #[derive(Clone)]
        struct Sink(Arc<StdMutex<Vec<u8>>>);
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let bytes = Arc::new(StdMutex::new(Vec::new()));
        let log = EventLog::to_writer(Box::new(Sink(Arc::clone(&bytes))));
        log.emit("{\"a\":1}");
        log.emit("{\"b\":2}");
        log.flush();
        let written = String::from_utf8(bytes.lock().unwrap().clone()).unwrap();
        assert_eq!(written, "{\"a\":1}\n{\"b\":2}\n");
    }
}

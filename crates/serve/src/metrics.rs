//! Connection- and request-level serving telemetry, exposed at
//! `GET /metrics` in the Prometheus text exposition format (no external
//! dependencies — plain `name value` lines plus histogram series).
//!
//! One [`ServeMetrics`] is shared by the [`Router`](crate::Router) (which
//! counts requests, render-cache traffic and per-stage latencies) and the
//! [`Server`](crate::Server) accept loop and workers (which count accepted
//! connections, bytes written, and whole-request latency per route
//! class). All counters are relaxed atomics and every histogram is an
//! [`osdiv_core::obs::LatencyHistogram`] — wait-free, allocation-free
//! recording; the numbers are operator telemetry, not synchronization.
//!
//! All exposition text is written in this module: [`ServeMetrics::render`]
//! writes the server's families, and the router appends the values it
//! gathers (body-cache and tenant gauges, persistence counters) through
//! `write_families` and `write_persistence_families`.
//!
//! [`ServeMetrics`] also mints the `X-Request-Id` values: a per-process
//! random prefix plus a monotonic sequence number, unique across every
//! connection of one server for the life of the process.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use osdiv_core::obs::LatencyHistogram;
use osdiv_core::{FlightRecorder, HistogramSnapshot};
use osdiv_registry::PersistMetrics;

/// The route classes whole-request latency is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteClass {
    /// `GET /v1/healthz`.
    Healthz,
    /// `GET /v1/analyses` and `GET /v1/analyses/{id}`.
    Analyses,
    /// `GET /v1/report`.
    Report,
    /// Dataset reads: `GET /v1/datasets`, `GET`/`DELETE /v1/datasets/{name}`.
    DatasetsRead,
    /// Dataset ingestion: `PUT /v1/datasets/{name}`.
    Ingest,
    /// `GET /metrics`.
    Metrics,
    /// The gated introspection surface: `GET /v1/debug/*`.
    Debug,
    /// Everything else (shutdown, unknown paths, parse errors).
    Other,
}

impl RouteClass {
    /// Every class, in exposition order.
    pub const ALL: [RouteClass; 8] = [
        RouteClass::Healthz,
        RouteClass::Analyses,
        RouteClass::Report,
        RouteClass::DatasetsRead,
        RouteClass::Ingest,
        RouteClass::Metrics,
        RouteClass::Debug,
        RouteClass::Other,
    ];

    /// The `route` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            RouteClass::Healthz => "healthz",
            RouteClass::Analyses => "analyses",
            RouteClass::Report => "report",
            RouteClass::DatasetsRead => "datasets_read",
            RouteClass::Ingest => "ingest",
            RouteClass::Metrics => "metrics",
            RouteClass::Debug => "debug",
            RouteClass::Other => "other",
        }
    }

    /// Classifies a request by method and path (query already split off).
    pub fn classify(method: &str, path: &str) -> RouteClass {
        match path {
            "/v1/healthz" => RouteClass::Healthz,
            "/v1/report" => RouteClass::Report,
            "/metrics" => RouteClass::Metrics,
            "/v1/datasets" => RouteClass::DatasetsRead,
            _ if path == "/v1/debug" || path.starts_with("/v1/debug/") => RouteClass::Debug,
            _ if path == "/v1/analyses" || path.starts_with("/v1/analyses/") => {
                RouteClass::Analyses
            }
            _ if path.starts_with("/v1/datasets/") => {
                if method == "PUT" || method == "POST" {
                    RouteClass::Ingest
                } else {
                    RouteClass::DatasetsRead
                }
            }
            _ => RouteClass::Other,
        }
    }
}

/// The request-pipeline and ingestion stages latency is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Reading and parsing the request head (first byte to routed).
    Parse,
    /// Render-cache lookup on analysis routes.
    CacheLookup,
    /// Running the analysis and rendering the document (cache miss).
    Render,
    /// Writing the response head and body to the socket.
    Write,
    /// Ingestion: carving `<entry>` elements out of the feed stream.
    IngestCarve,
    /// Ingestion: parsing carved entries.
    IngestParse,
    /// Ingestion: inserting parsed entries into the store, in feed order.
    IngestInsert,
}

impl Stage {
    /// Every stage, in exposition order.
    pub const ALL: [Stage; 7] = [
        Stage::Parse,
        Stage::CacheLookup,
        Stage::Render,
        Stage::Write,
        Stage::IngestCarve,
        Stage::IngestParse,
        Stage::IngestInsert,
    ];

    /// The `stage` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::CacheLookup => "cache_lookup",
            Stage::Render => "render",
            Stage::Write => "write",
            Stage::IngestCarve => "ingest_carve",
            Stage::IngestParse => "ingest_parse",
            Stage::IngestInsert => "ingest_insert",
        }
    }
}

/// One latency histogram per route class.
#[derive(Debug, Default)]
struct RouteHistograms {
    healthz: LatencyHistogram,
    analyses: LatencyHistogram,
    report: LatencyHistogram,
    datasets_read: LatencyHistogram,
    ingest: LatencyHistogram,
    metrics: LatencyHistogram,
    debug: LatencyHistogram,
    other: LatencyHistogram,
}

impl RouteHistograms {
    fn of(&self, class: RouteClass) -> &LatencyHistogram {
        match class {
            RouteClass::Healthz => &self.healthz,
            RouteClass::Analyses => &self.analyses,
            RouteClass::Report => &self.report,
            RouteClass::DatasetsRead => &self.datasets_read,
            RouteClass::Ingest => &self.ingest,
            RouteClass::Metrics => &self.metrics,
            RouteClass::Debug => &self.debug,
            RouteClass::Other => &self.other,
        }
    }
}

/// One latency histogram per pipeline stage.
#[derive(Debug, Default)]
struct StageHistograms {
    parse: LatencyHistogram,
    cache_lookup: LatencyHistogram,
    render: LatencyHistogram,
    write: LatencyHistogram,
    ingest_carve: LatencyHistogram,
    ingest_parse: LatencyHistogram,
    ingest_insert: LatencyHistogram,
}

impl StageHistograms {
    fn of(&self, stage: Stage) -> &LatencyHistogram {
        match stage {
            Stage::Parse => &self.parse,
            Stage::CacheLookup => &self.cache_lookup,
            Stage::Render => &self.render,
            Stage::Write => &self.write,
            Stage::IngestCarve => &self.ingest_carve,
            Stage::IngestParse => &self.ingest_parse,
            Stage::IngestInsert => &self.ingest_insert,
        }
    }
}

/// Monotonic serving counters, latency histograms and the request-id
/// mint (see the module docs).
#[derive(Debug)]
pub struct ServeMetrics {
    /// TCP connections the accept loop handed to a worker.
    connections_accepted: AtomicU64,
    /// HTTP requests routed (including error responses and `/metrics`
    /// itself).
    requests_served: AtomicU64,
    /// Render-route responses served from the body LRU.
    cache_hits: AtomicU64,
    /// Render-route responses that had to render (and were then cached).
    cache_misses: AtomicU64,
    /// Response bytes written to sockets (head + body).
    bytes_out: AtomicU64,
    /// Worker threads in the pool (set once at server start; zero when the
    /// router runs standalone).
    workers_total: AtomicU64,
    /// Workers currently serving a connection.
    workers_busy: AtomicU64,
    /// Accepted connections handed to the dispatch queue and not yet
    /// picked up by a worker.
    dispatch_queue_depth: AtomicU64,
    /// Connections currently held open by a worker (keep-alive included).
    connections_active: AtomicU64,
    /// Connections or requests shed by admission control (503).
    shed_total: AtomicU64,
    /// Connections closed for exhausting the per-request I/O budget (408).
    io_timeouts_total: AtomicU64,
    /// Whole-request latency per route class.
    routes: RouteHistograms,
    /// Per-stage latency across the request and ingestion pipelines.
    stages: StageHistograms,
    /// Per-process random prefix of every minted request id.
    id_seed: u64,
    /// Monotonic request-id sequence.
    next_request_id: AtomicU64,
    /// Process start, for `osdiv_uptime_seconds`.
    started: Instant,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Fresh, all-zero counters; the request-id prefix is seeded from the
    /// wall clock so two boots never share an id space.
    pub fn new() -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        // SplitMix64 finalizer: spreads the clock bits over the prefix.
        let mut seed = nanos.wrapping_add(0x9e37_79b9_7f4a_7c15);
        seed = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        seed = (seed ^ (seed >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ServeMetrics {
            connections_accepted: AtomicU64::new(0),
            requests_served: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            workers_total: AtomicU64::new(0),
            workers_busy: AtomicU64::new(0),
            dispatch_queue_depth: AtomicU64::new(0),
            connections_active: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            io_timeouts_total: AtomicU64::new(0),
            routes: RouteHistograms::default(),
            stages: StageHistograms::default(),
            id_seed: seed ^ (seed >> 33),
            next_request_id: AtomicU64::new(1),
            started: Instant::now(),
        }
    }

    /// Mints the next request id: `{process-prefix}-{sequence}`, echoed
    /// as `X-Request-Id` and keyed into the access log. Unique for the
    /// life of the process; the prefix disambiguates across restarts.
    pub fn mint_request_id(&self) -> String {
        self.mint_traced_request_id().0
    }

    /// Mints the next request id plus its numeric trace key: the same
    /// `prefix-sequence` pair packed into a `u64` (`prefix << 32 | seq`).
    /// The numeric form keys the flight recorder's span records, so a
    /// trace dumped from `/v1/debug/spans` joins back to the
    /// `X-Request-Id` the client saw
    /// (see [`osdiv_core::obs::format_trace_id`]).
    pub fn mint_traced_request_id(&self) -> (String, u64) {
        let seq = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        let prefix = self.id_seed as u32;
        let trace = (u64::from(prefix) << 32) | u64::from(seq as u32);
        (format!("{prefix:08x}-{:08x}", seq as u32), trace)
    }

    /// Sets the worker-pool size gauge (once, at server start).
    pub fn set_workers_total(&self, workers: usize) {
        self.workers_total.store(workers as u64, Ordering::Relaxed);
    }

    /// Marks one worker busy (serving a connection).
    pub fn worker_busy(&self) {
        self.workers_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one worker idle again.
    pub fn worker_idle(&self) {
        let _ = self
            .workers_busy
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |held| {
                held.checked_sub(1)
            });
    }

    /// Counts a connection entering the dispatch queue.
    pub fn dispatch_enqueued(&self) {
        self.dispatch_queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a connection leaving the dispatch queue (picked up).
    pub fn dispatch_dequeued(&self) {
        let _ =
            self.dispatch_queue_depth
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |held| {
                    held.checked_sub(1)
                });
    }

    /// Counts a connection becoming active on a worker.
    pub fn connection_opened(&self) {
        self.connections_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an active connection closing.
    pub fn connection_closed(&self) {
        let _ =
            self.connections_active
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |held| {
                    held.checked_sub(1)
                });
    }

    /// Worker threads in the pool.
    pub fn workers_total(&self) -> u64 {
        self.workers_total.load(Ordering::Relaxed)
    }

    /// Workers currently serving a connection.
    pub fn workers_busy(&self) -> u64 {
        self.workers_busy.load(Ordering::Relaxed)
    }

    /// Accepted connections awaiting a worker.
    pub fn dispatch_queue_depth(&self) -> u64 {
        self.dispatch_queue_depth.load(Ordering::Relaxed)
    }

    /// Connections currently held open by workers.
    pub fn connections_active(&self) -> u64 {
        self.connections_active.load(Ordering::Relaxed)
    }

    /// Counts one accepted connection.
    pub fn record_connection(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one shed connection or request (admission control said no).
    pub fn record_shed(&self) {
        self.shed_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection closed for exhausting its I/O budget.
    pub fn record_io_timeout(&self) {
        self.io_timeouts_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Sheds so far.
    pub fn shed_total(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }

    /// I/O-budget closes so far.
    pub fn io_timeouts_total(&self) -> u64 {
        self.io_timeouts_total.load(Ordering::Relaxed)
    }

    /// Counts one routed request.
    pub fn record_request(&self) {
        self.requests_served.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one render-cache hit.
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one render-cache miss.
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts response bytes written to a socket.
    pub fn record_bytes_out(&self, bytes: usize) {
        self.bytes_out.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one whole-request latency under its route class.
    pub fn record_route_us(&self, class: RouteClass, micros: u64) {
        self.routes.of(class).record_us(micros);
    }

    /// Records one pipeline-stage latency.
    pub fn record_stage_us(&self, stage: Stage, micros: u64) {
        self.stages.of(stage).record_us(micros);
    }

    /// Connections accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        self.connections_accepted.load(Ordering::Relaxed)
    }

    /// Requests routed so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::Relaxed)
    }

    /// Render-cache hits so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Render-cache misses so far.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Response bytes written so far.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed)
    }

    /// Observations recorded under a route class (test hook).
    pub fn route_observations(&self, class: RouteClass) -> u64 {
        self.routes.of(class).total()
    }

    /// The `GET /metrics` body: the counters, build/uptime gauges, and
    /// the per-route / per-stage latency histograms, Prometheus text
    /// exposition format.
    pub fn render(&self) -> String {
        let mut body = String::with_capacity(16 * 1024);
        let counters = [
            (
                "osdiv_connections_accepted",
                "TCP connections accepted by the server",
                self.connections_accepted(),
            ),
            (
                "osdiv_requests_served",
                "HTTP requests routed",
                self.requests_served(),
            ),
            (
                "osdiv_cache_hits",
                "render responses served from the body cache",
                self.cache_hits(),
            ),
            (
                "osdiv_cache_misses",
                "render responses that had to render",
                self.cache_misses(),
            ),
            (
                "osdiv_bytes_out",
                "response bytes written to sockets",
                self.bytes_out(),
            ),
            (
                "osdiv_shed_total",
                "connections or requests shed by admission control",
                self.shed_total(),
            ),
            (
                "osdiv_io_timeouts_total",
                "connections closed for exhausting the per-request I/O budget",
                self.io_timeouts_total(),
            ),
        ];
        write_families(&mut body, "counter", &counters);

        let gauges = [
            (
                "osdiv_workers_total",
                "worker threads in the serving pool",
                self.workers_total(),
            ),
            (
                "osdiv_workers_busy",
                "workers currently serving a connection",
                self.workers_busy(),
            ),
            (
                "osdiv_dispatch_queue_depth",
                "accepted connections waiting for a worker",
                self.dispatch_queue_depth(),
            ),
            (
                "osdiv_connections_active",
                "connections currently held open by workers",
                self.connections_active(),
            ),
        ];
        write_families(&mut body, "gauge", &gauges);

        let recorder = FlightRecorder::global();
        let trace_counters = [
            (
                "osdiv_trace_spans_recorded_total",
                "spans written to the flight-recorder ring",
                recorder.recorded_total(),
            ),
            (
                "osdiv_trace_spans_dropped_total",
                "spans overwritten after the ring wrapped",
                recorder.dropped(),
            ),
        ];
        write_families(&mut body, "counter", &trace_counters);

        write_family_header(
            &mut body,
            "osdiv_build_info",
            "build metadata (constant 1)",
            "gauge",
        );
        let _ = writeln!(
            body,
            "osdiv_build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION")
        );
        write_families(
            &mut body,
            "gauge",
            &[(
                "osdiv_uptime_seconds",
                "seconds since the process started",
                self.started.elapsed().as_secs(),
            )],
        );
        write_histogram_family(
            &mut body,
            "osdiv_request_duration_seconds",
            "whole-request latency by route class",
            RouteClass::ALL.map(|class| {
                let labels = format!("route=\"{}\"", class.as_str());
                (labels, self.routes.of(class).snapshot())
            }),
        );
        write_histogram_family(
            &mut body,
            "osdiv_stage_duration_seconds",
            "pipeline-stage latency (request and ingestion stages)",
            Stage::ALL.map(|stage| {
                let labels = format!("stage=\"{}\"", stage.as_str());
                (labels, self.stages.of(stage).snapshot())
            }),
        );
        body
    }
}

/// Appends the `# HELP` and `# TYPE` lines of one metric family.
fn write_family_header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
}

/// Appends single-sample families of one `kind` (`counter` or `gauge`) to
/// a `/metrics` body: each `(name, help, value)` becomes its header and
/// one `name value` line. Every counter and gauge family of the
/// exposition is written here.
pub(crate) fn write_families(out: &mut String, kind: &str, families: &[(&str, &str, u64)]) {
    for (name, help, value) in families {
        write_family_header(out, name, help, kind);
        let _ = writeln!(out, "{name} {value}");
    }
}

/// Appends one histogram family: its header, then each non-empty
/// `(labels, snapshot)` series.
fn write_histogram_family(
    out: &mut String,
    name: &str,
    help: &str,
    series: impl IntoIterator<Item = (String, HistogramSnapshot)>,
) {
    write_family_header(out, name, help, "histogram");
    for (labels, snapshot) in series {
        if !snapshot.is_empty() {
            snapshot.render_prometheus(name, &labels, out);
        }
    }
}

/// Appends the persistence families, present when the registry has durable
/// storage attached: the snapshot counters, then the snapshot write and load
/// latency histograms, each once it holds a sample.
pub(crate) fn write_persistence_families(out: &mut String, metrics: &PersistMetrics) {
    write_families(
        out,
        "counter",
        &[
            (
                "osdiv_snapshot_writes",
                "tenant snapshots written to the data directory",
                metrics.snapshot_writes(),
            ),
            (
                "osdiv_snapshot_loads",
                "tenant snapshots read back into live sessions",
                metrics.snapshot_loads(),
            ),
            (
                "osdiv_spills",
                "evictions that kept the snapshot and dropped only memory",
                metrics.spills(),
            ),
        ],
    );
    for (name, help, histogram) in [
        (
            "osdiv_snapshot_write_duration_seconds",
            "latency of durable snapshot writes (temp file + rename)",
            metrics.snapshot_write_latency(),
        ),
        (
            "osdiv_snapshot_load_duration_seconds",
            "latency of snapshot loads into live sessions (read + CRC + decode)",
            metrics.snapshot_load_latency(),
        ),
    ] {
        let snapshot = histogram.snapshot();
        if !snapshot.is_empty() {
            write_histogram_family(out, name, help, [(String::new(), snapshot)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let metrics = ServeMetrics::new();
        metrics.record_connection();
        metrics.record_request();
        metrics.record_request();
        metrics.record_cache_hit();
        metrics.record_cache_miss();
        metrics.record_bytes_out(1500);
        metrics.record_bytes_out(500);
        assert_eq!(metrics.connections_accepted(), 1);
        assert_eq!(metrics.requests_served(), 2);
        assert_eq!(metrics.cache_hits(), 1);
        assert_eq!(metrics.cache_misses(), 1);
        assert_eq!(metrics.bytes_out(), 2000);
        let body = metrics.render();
        assert!(body.contains("osdiv_requests_served 2\n"));
        assert!(body.contains("osdiv_bytes_out 2000\n"));
        assert!(body.contains("# TYPE osdiv_connections_accepted counter\n"));
    }

    #[test]
    fn build_info_and_uptime_are_always_present() {
        let body = ServeMetrics::new().render();
        assert!(body.contains(&format!(
            "osdiv_build_info{{version=\"{}\"}} 1\n",
            env!("CARGO_PKG_VERSION")
        )));
        assert!(body.contains("# TYPE osdiv_uptime_seconds gauge\n"));
        assert!(body.contains("osdiv_uptime_seconds 0\n"));
    }

    #[test]
    fn persistence_histograms_render_once_recorded() {
        let metrics = PersistMetrics::default();
        let mut body = String::new();
        write_persistence_families(&mut body, &metrics);
        assert!(body.contains("osdiv_snapshot_loads 0\n"));
        assert!(!body.contains("_duration_seconds"));

        metrics
            .snapshot_load_latency()
            .record(std::time::Duration::from_micros(2_600));
        let mut body = String::new();
        write_persistence_families(&mut body, &metrics);
        assert!(body.contains("# TYPE osdiv_snapshot_load_duration_seconds histogram\n"));
        assert!(body.contains("osdiv_snapshot_load_duration_seconds_count 1\n"));
        assert!(!body.contains("osdiv_snapshot_write_duration_seconds"));
    }

    #[test]
    fn histograms_render_per_route_and_stage_once_recorded() {
        let metrics = ServeMetrics::new();
        // Untouched histograms stay out of the exposition…
        let body = metrics.render();
        assert!(!body.contains("route=\"report\""));
        assert!(body.contains("# TYPE osdiv_request_duration_seconds histogram\n"));
        // …and recorded ones appear with cumulative buckets.
        metrics.record_route_us(RouteClass::Report, 17);
        metrics.record_route_us(RouteClass::Report, 1_700);
        metrics.record_stage_us(Stage::Render, 2_600);
        let body = metrics.render();
        assert!(body
            .contains("osdiv_request_duration_seconds_bucket{route=\"report\",le=\"0.000025\"} 1"));
        assert!(body.contains("osdiv_request_duration_seconds_count{route=\"report\"} 2"));
        assert!(body.contains("osdiv_stage_duration_seconds_count{stage=\"render\"} 1"));
        assert!(
            body.contains("osdiv_stage_duration_seconds_bucket{stage=\"render\",le=\"+Inf\"} 1")
        );
    }

    #[test]
    fn saturation_gauges_track_and_render() {
        let metrics = ServeMetrics::new();
        metrics.set_workers_total(4);
        metrics.worker_busy();
        metrics.worker_busy();
        metrics.worker_idle();
        metrics.dispatch_enqueued();
        metrics.dispatch_enqueued();
        metrics.dispatch_dequeued();
        metrics.connection_opened();
        assert_eq!(metrics.workers_total(), 4);
        assert_eq!(metrics.workers_busy(), 1);
        assert_eq!(metrics.dispatch_queue_depth(), 1);
        assert_eq!(metrics.connections_active(), 1);
        let body = metrics.render();
        assert!(body.contains("# TYPE osdiv_workers_total gauge\nosdiv_workers_total 4\n"));
        assert!(body.contains("osdiv_workers_busy 1\n"));
        assert!(body.contains("osdiv_dispatch_queue_depth 1\n"));
        assert!(body.contains("osdiv_connections_active 1\n"));
        assert!(body.contains("# TYPE osdiv_trace_spans_recorded_total counter\n"));
        assert!(body.contains("# TYPE osdiv_trace_spans_dropped_total counter\n"));
        // Decrements saturate at zero instead of wrapping to u64::MAX.
        metrics.connection_closed();
        metrics.connection_closed();
        assert_eq!(metrics.connections_active(), 0);
        metrics.worker_idle();
        metrics.worker_idle();
        assert_eq!(metrics.workers_busy(), 0);
    }

    #[test]
    fn traced_request_ids_join_string_and_numeric_forms() {
        let metrics = ServeMetrics::new();
        let (id, trace) = metrics.mint_traced_request_id();
        assert_eq!(osdiv_core::obs::format_trace_id(trace), id);
    }

    #[test]
    fn request_ids_are_unique_and_prefixed() {
        let metrics = ServeMetrics::new();
        let a = metrics.mint_request_id();
        let b = metrics.mint_request_id();
        assert_ne!(a, b);
        let prefix = |id: &str| id.split('-').next().map(str::to_string);
        assert_eq!(prefix(&a), prefix(&b));
        assert!(a.split('-').count() == 2);
    }

    #[test]
    fn route_classification_matches_the_route_table() {
        use RouteClass as R;
        for (method, path, class) in [
            ("GET", "/v1/healthz", R::Healthz),
            ("GET", "/v1/report", R::Report),
            ("GET", "/v1/analyses", R::Analyses),
            ("GET", "/v1/analyses/pairwise", R::Analyses),
            ("GET", "/v1/datasets", R::DatasetsRead),
            ("GET", "/v1/datasets/smoke", R::DatasetsRead),
            ("DELETE", "/v1/datasets/smoke", R::DatasetsRead),
            ("PUT", "/v1/datasets/smoke", R::Ingest),
            ("GET", "/metrics", R::Metrics),
            ("GET", "/v1/debug/spans", R::Debug),
            ("GET", "/v1/debug/registry", R::Debug),
            ("GET", "/v1/debug", R::Debug),
            ("POST", "/v1/shutdown", R::Other),
            ("GET", "/nope", R::Other),
        ] {
            assert_eq!(RouteClass::classify(method, path), class, "{method} {path}");
        }
    }
}

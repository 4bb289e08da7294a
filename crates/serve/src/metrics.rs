//! Connection- and request-level serving telemetry, exposed at
//! `GET /metrics` in the Prometheus text exposition format (no external
//! dependencies — plain `name value` lines plus histogram series).
//!
//! `FAMILIES` is the one catalogue of the exposition: a row per family
//! (name, help text and where its samples come from), in exposition
//! order. `GET /metrics` renders it in one walk, and each family's owner
//! only supplies values: [`ServeMetrics`] its counters, gauges and
//! latency histograms, the flight recorder its span counters, the router
//! the gauges it samples per scrape and the tenant store its persistence
//! families. Counters and gauges are relaxed
//! atomics and every histogram is an [`osdiv_core::obs::LatencyHistogram`]
//! — wait-free, allocation-free recording; the numbers are operator
//! telemetry, not synchronization.
//!
//! [`ServeMetrics`] also mints the `X-Request-Id` values: a per-process
//! random prefix plus a monotonic sequence number, unique across every
//! connection of one server for the life of the process.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use osdiv_core::obs::LatencyHistogram;
use osdiv_core::FlightRecorder;
use osdiv_registry::{DatasetState, PersistMetrics};

/// The route classes whole-request latency is attributed to (each indexes
/// its histogram in [`ServeMetrics`]).
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

/// The request-pipeline and ingestion stages latency is attributed to
/// (each indexes its histogram in [`ServeMetrics`]).
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
    /// Ingestion: classifying the unlabelled rows once the feed ends.
    IngestClassify,
}

impl Stage {
    /// Every stage, in exposition order.
    pub const ALL: [Stage; 8] = [
        Stage::Parse,
        Stage::CacheLookup,
        Stage::Render,
        Stage::Write,
        Stage::IngestCarve,
        Stage::IngestParse,
        Stage::IngestInsert,
        Stage::IngestClassify,
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
            Stage::IngestClassify => "ingest_classify",
        }
    }
}

/// The counters [`ServeMetrics`] keeps (each indexes its own array slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// TCP connections the accept loop handed to a worker.
    ConnectionsAccepted,
    /// HTTP requests routed (error responses and `/metrics` included).
    RequestsServed,
    /// Render-route responses served from the body LRU.
    CacheHits,
    /// Render-route responses that had to render (and were then cached).
    CacheMisses,
    /// Response bytes written to sockets (head + body).
    BytesOut,
    /// Connections or requests shed by admission control (503).
    Shed,
    /// Connections closed for exhausting the per-request I/O budget (408).
    IoTimeouts,
}

/// The gauges [`ServeMetrics`] keeps (each indexes its own array slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Worker threads in the pool (set once at server start; zero when the
    /// router runs standalone).
    WorkersTotal,
    /// Workers currently serving a connection.
    WorkersBusy,
    /// Accepted connections in the dispatch queue, not yet picked up by a
    /// worker.
    DispatchQueueDepth,
    /// Connections currently held open by a worker (keep-alive included).
    ConnectionsActive,
}

/// Where a family's samples come from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// A [`ServeMetrics`] counter.
    Counter(Counter),
    /// A [`ServeMetrics`] gauge.
    Gauge(Gauge),
    /// A flight-recorder counter.
    Spans(fn(&FlightRecorder) -> u64),
    /// The constant 1 under the build's `version` label.
    BuildInfo,
    /// Whole seconds since the [`ServeMetrics`] was created.
    Uptime,
    /// One series per route class, each written once it holds a sample.
    Routes,
    /// One series per stage, each written once it holds a sample.
    Stages,
    /// A gauge the router samples per scrape.
    Router(fn(&RouterGauges) -> u64),
    /// A persistence counter, written only with a tenant store attached.
    Persist(fn(&PersistMetrics) -> u64),
    /// A persistence histogram, written only with a tenant store attached
    /// and once it holds a sample.
    PersistLatency(fn(&PersistMetrics) -> &LatencyHistogram),
}

/// One `/metrics` family: a row of [`FAMILIES`].
#[derive(Debug)]
pub(crate) struct Family {
    /// The family name.
    pub name: &'static str,
    /// The `# HELP` text.
    pub help: &'static str,
    source: Source,
}

impl Family {
    /// The family's Prometheus type: `counter`, `gauge` or `histogram`.
    pub(crate) fn kind(&self) -> &'static str {
        match self.source {
            Source::Counter(_) | Source::Spans(_) | Source::Persist(_) => "counter",
            Source::Gauge(_) | Source::BuildInfo | Source::Uptime | Source::Router(_) => "gauge",
            Source::Routes | Source::Stages | Source::PersistLatency(_) => "histogram",
        }
    }

    fn write_header(&self, out: &mut String) {
        let (name, help, kind) = (self.name, self.help, self.kind());
        let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
    }
}

const fn family(name: &'static str, help: &'static str, source: Source) -> Family {
    Family { name, help, source }
}

/// Every `/metrics` family, in exposition order. The persistence families
/// at the end appear only when the registry has a tenant store
/// (`--data-dir`).
pub(crate) const FAMILIES: [Family; 32] = [
    family(
        "osdiv_connections_accepted",
        "TCP connections accepted by the server",
        Source::Counter(Counter::ConnectionsAccepted),
    ),
    family(
        "osdiv_requests_served",
        "HTTP requests routed",
        Source::Counter(Counter::RequestsServed),
    ),
    family(
        "osdiv_cache_hits",
        "render responses served from the body cache",
        Source::Counter(Counter::CacheHits),
    ),
    family(
        "osdiv_cache_misses",
        "render responses that had to render",
        Source::Counter(Counter::CacheMisses),
    ),
    family(
        "osdiv_bytes_out",
        "response bytes written to sockets",
        Source::Counter(Counter::BytesOut),
    ),
    family(
        "osdiv_shed_total",
        "connections or requests shed by admission control",
        Source::Counter(Counter::Shed),
    ),
    family(
        "osdiv_io_timeouts_total",
        "connections closed for exhausting the per-request I/O budget",
        Source::Counter(Counter::IoTimeouts),
    ),
    family(
        "osdiv_workers_total",
        "worker threads in the serving pool",
        Source::Gauge(Gauge::WorkersTotal),
    ),
    family(
        "osdiv_workers_busy",
        "workers currently serving a connection",
        Source::Gauge(Gauge::WorkersBusy),
    ),
    family(
        "osdiv_dispatch_queue_depth",
        "accepted connections waiting for a worker",
        Source::Gauge(Gauge::DispatchQueueDepth),
    ),
    family(
        "osdiv_connections_active",
        "connections currently held open by workers",
        Source::Gauge(Gauge::ConnectionsActive),
    ),
    family(
        "osdiv_trace_spans_recorded_total",
        "spans written to the flight-recorder ring",
        Source::Spans(FlightRecorder::recorded_total),
    ),
    family(
        "osdiv_trace_spans_dropped_total",
        "spans overwritten after the ring wrapped",
        Source::Spans(FlightRecorder::dropped),
    ),
    family(
        "osdiv_build_info",
        "build metadata (constant 1)",
        Source::BuildInfo,
    ),
    family(
        "osdiv_uptime_seconds",
        "seconds since the process started",
        Source::Uptime,
    ),
    family(
        "osdiv_request_duration_seconds",
        "whole-request latency by route class",
        Source::Routes,
    ),
    family(
        "osdiv_stage_duration_seconds",
        "pipeline-stage latency (request and ingestion stages)",
        Source::Stages,
    ),
    family(
        "osdiv_body_cache_entries",
        "rendered bodies held by the response LRU",
        Source::Router(|router| router.cache_entries),
    ),
    family(
        "osdiv_body_cache_bytes",
        "bytes held by the response LRU",
        Source::Router(|router| router.cache_bytes),
    ),
    family(
        "osdiv_body_cache_byte_budget",
        "byte budget of the response LRU",
        Source::Router(|router| router.cache_byte_budget),
    ),
    family(
        "osdiv_datasets_total",
        "datasets registered (every lifecycle state)",
        Source::Router(|router| router.tenants.iter().sum()),
    ),
    family(
        "osdiv_datasets_resident",
        "datasets with a built session in memory",
        Source::Router(|router| router.tenants[DatasetState::Resident as usize]),
    ),
    family(
        "osdiv_datasets_spilled",
        "datasets evicted to their durable snapshot",
        Source::Router(|router| router.tenants[DatasetState::Spilled as usize]),
    ),
    family(
        "osdiv_datasets_lazy",
        "datasets that rebuild on demand (unbuilt specs)",
        Source::Router(|router| router.tenants[DatasetState::Lazy as usize]),
    ),
    family(
        "osdiv_datasets_evicted",
        "datasets evicted beyond recovery (reads answer 410)",
        Source::Router(|router| router.tenants[DatasetState::Evicted as usize]),
    ),
    family(
        "osdiv_datasets_resident_bytes",
        "estimated bytes of every resident session",
        Source::Router(|router| router.resident_bytes),
    ),
    family(
        "osdiv_datasets_byte_budget",
        "resident-byte budget that triggers eviction",
        Source::Router(|router| router.byte_budget),
    ),
    family(
        "osdiv_snapshot_writes",
        "tenant snapshots written to the data directory",
        Source::Persist(PersistMetrics::snapshot_writes),
    ),
    family(
        "osdiv_snapshot_loads",
        "tenant snapshots read back into live sessions",
        Source::Persist(PersistMetrics::snapshot_loads),
    ),
    family(
        "osdiv_spills",
        "evictions that kept the snapshot and dropped only memory",
        Source::Persist(PersistMetrics::spills),
    ),
    family(
        "osdiv_snapshot_write_duration_seconds",
        "latency of durable snapshot writes (temp file + rename)",
        Source::PersistLatency(PersistMetrics::snapshot_write_latency),
    ),
    family(
        "osdiv_snapshot_load_duration_seconds",
        "latency of snapshot loads into live sessions (read + CRC + decode)",
        Source::PersistLatency(PersistMetrics::snapshot_load_latency),
    ),
];

/// The gauges only the router can sample — body-cache occupancy against
/// its limits, and the registered tenants by state — read once per scrape
/// so the tenant counts sum to the total.
#[derive(Debug, Default)]
pub(crate) struct RouterGauges {
    pub cache_entries: u64,
    pub cache_bytes: u64,
    pub cache_byte_budget: u64,
    /// Registered tenants, indexed by [`DatasetState`].
    pub tenants: [u64; 4],
    pub resident_bytes: u64,
    pub byte_budget: u64,
}

/// Serving counters, gauges and latency histograms, plus the request-id
/// mint (see the module docs).
#[derive(Debug)]
pub struct ServeMetrics {
    /// Indexed by [`Counter`], one slot per variant.
    counters: [AtomicU64; 7],
    /// Indexed by [`Gauge`], one slot per variant.
    gauges: [AtomicU64; 4],
    /// Whole-request latency, indexed by [`RouteClass`].
    routes: [LatencyHistogram; RouteClass::ALL.len()],
    /// Pipeline-stage latency, indexed by [`Stage`].
    stages: [LatencyHistogram; Stage::ALL.len()],
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
            counters: Default::default(),
            gauges: Default::default(),
            routes: Default::default(),
            stages: Default::default(),
            id_seed: seed ^ (seed >> 33),
            next_request_id: AtomicU64::new(1),
            started: Instant::now(),
        }
    }

    /// Mints the next request id, `{process-prefix}-{sequence}`, echoed as
    /// `X-Request-Id` and keyed into the access log: unique for the life
    /// of the process, the prefix disambiguating across restarts. Returns
    /// it with its numeric trace key, the same pair packed into a `u64`
    /// (`prefix << 32 | seq`).
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

    /// Adds `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// A counter's value so far.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Sets a gauge.
    pub fn set(&self, gauge: Gauge, value: u64) {
        self.gauges[gauge as usize].store(value, Ordering::Relaxed);
    }

    /// Raises a gauge by one.
    pub fn raise(&self, gauge: Gauge) {
        self.gauges[gauge as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Lowers a gauge by one, saturating at zero instead of wrapping.
    pub fn lower(&self, gauge: Gauge) {
        let _ = self.gauges[gauge as usize].fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |held| held.checked_sub(1),
        );
    }

    /// A gauge's current value.
    pub fn level(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge as usize].load(Ordering::Relaxed)
    }

    /// Records one whole-request latency under its route class.
    pub fn record_route_us(&self, class: RouteClass, micros: u64) {
        self.routes[class as usize].record_us(micros);
    }

    /// Records one pipeline-stage latency.
    pub fn record_stage_us(&self, stage: Stage, micros: u64) {
        self.stages[stage as usize].record_us(micros);
    }

    /// Observations recorded under a route class (test hook).
    pub fn route_observations(&self, class: RouteClass) -> u64 {
        self.routes[class as usize].total()
    }

    /// The `GET /metrics` body: every [`FAMILIES`] row in order, with the
    /// values this struct, the flight recorder, the router's per-scrape
    /// gauges and (when attached) the tenant store hold.
    pub(crate) fn render(&self, router: &RouterGauges, persist: Option<&PersistMetrics>) -> String {
        let mut out = String::with_capacity(16 * 1024);
        for family in &FAMILIES {
            let value = match family.source {
                Source::Counter(counter) => self.get(counter),
                Source::Gauge(gauge) => self.level(gauge),
                Source::Spans(read) => read(FlightRecorder::global()),
                Source::Uptime => self.started.elapsed().as_secs(),
                Source::Router(read) => read(router),
                Source::Persist(read) => match persist {
                    Some(persist) => read(persist),
                    None => continue,
                },
                Source::BuildInfo => {
                    family.write_header(&mut out);
                    let version = env!("CARGO_PKG_VERSION");
                    let _ = writeln!(out, "{}{{version=\"{version}\"}} 1", family.name);
                    continue;
                }
                Source::Routes => {
                    family.write_header(&mut out);
                    for class in RouteClass::ALL {
                        let labels = format!("route=\"{}\"", class.as_str());
                        write_series(&mut out, family, &labels, &self.routes[class as usize]);
                    }
                    continue;
                }
                Source::Stages => {
                    family.write_header(&mut out);
                    for stage in Stage::ALL {
                        let labels = format!("stage=\"{}\"", stage.as_str());
                        write_series(&mut out, family, &labels, &self.stages[stage as usize]);
                    }
                    continue;
                }
                Source::PersistLatency(read) => {
                    let snapshot = persist.map(|persist| read(persist).snapshot());
                    if let Some(snapshot) = snapshot.filter(|snapshot| !snapshot.is_empty()) {
                        family.write_header(&mut out);
                        snapshot.render_prometheus(family.name, "", &mut out);
                    }
                    continue;
                }
            };
            family.write_header(&mut out);
            let _ = writeln!(out, "{} {value}", family.name);
        }
        out
    }
}

/// Appends one histogram series of `family` once it holds a sample.
fn write_series(out: &mut String, family: &Family, labels: &str, histogram: &LatencyHistogram) {
    let snapshot = histogram.snapshot();
    if !snapshot.is_empty() {
        snapshot.render_prometheus(family.name, labels, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(metrics: &ServeMetrics) -> String {
        metrics.render(&RouterGauges::default(), None)
    }

    #[test]
    fn counters_accumulate_and_render() {
        let metrics = ServeMetrics::new();
        metrics.add(Counter::ConnectionsAccepted, 1);
        metrics.add(Counter::RequestsServed, 1);
        metrics.add(Counter::RequestsServed, 1);
        metrics.add(Counter::CacheHits, 1);
        metrics.add(Counter::CacheMisses, 1);
        metrics.add(Counter::BytesOut, 1500);
        metrics.add(Counter::BytesOut, 500);
        assert_eq!(metrics.get(Counter::ConnectionsAccepted), 1);
        assert_eq!(metrics.get(Counter::RequestsServed), 2);
        assert_eq!(metrics.get(Counter::CacheHits), 1);
        assert_eq!(metrics.get(Counter::CacheMisses), 1);
        assert_eq!(metrics.get(Counter::BytesOut), 2000);
        let body = render(&metrics);
        assert!(body.contains("osdiv_requests_served 2\n"));
        assert!(body.contains("osdiv_bytes_out 2000\n"));
        assert!(body.contains("# TYPE osdiv_connections_accepted counter\n"));
    }

    #[test]
    fn build_info_and_uptime_are_always_present() {
        let body = render(&ServeMetrics::new());
        assert!(body.contains(&format!(
            "osdiv_build_info{{version=\"{}\"}} 1\n",
            env!("CARGO_PKG_VERSION")
        )));
        assert!(body.contains("# TYPE osdiv_uptime_seconds gauge\n"));
        assert!(body.contains("osdiv_uptime_seconds 0\n"));
    }

    #[test]
    fn persistence_histograms_render_once_recorded() {
        let serve = ServeMetrics::new();
        let metrics = PersistMetrics::default();
        let body = render(&serve);
        assert!(!body.contains("osdiv_snapshot_loads"), "no tenant store");
        let body = serve.render(&RouterGauges::default(), Some(&metrics));
        assert!(body.contains("osdiv_snapshot_loads 0\n"));
        assert!(!body.contains("osdiv_snapshot_write_duration_seconds"));
        assert!(!body.contains("osdiv_snapshot_load_duration_seconds"));

        metrics
            .snapshot_load_latency()
            .record(std::time::Duration::from_micros(2_600));
        let body = serve.render(&RouterGauges::default(), Some(&metrics));
        assert!(body.contains("# TYPE osdiv_snapshot_load_duration_seconds histogram\n"));
        assert!(body.contains("osdiv_snapshot_load_duration_seconds_count 1\n"));
        assert!(!body.contains("osdiv_snapshot_write_duration_seconds"));
    }

    #[test]
    fn histograms_render_per_route_and_stage_once_recorded() {
        let metrics = ServeMetrics::new();
        // Untouched histograms stay out of the exposition…
        let body = render(&metrics);
        assert!(!body.contains("route=\"report\""));
        assert!(body.contains("# TYPE osdiv_request_duration_seconds histogram\n"));
        // …and recorded ones appear with cumulative buckets.
        metrics.record_route_us(RouteClass::Report, 17);
        metrics.record_route_us(RouteClass::Report, 1_700);
        metrics.record_stage_us(Stage::Render, 2_600);
        let body = render(&metrics);
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
        metrics.set(Gauge::WorkersTotal, 4);
        metrics.raise(Gauge::WorkersBusy);
        metrics.raise(Gauge::WorkersBusy);
        metrics.lower(Gauge::WorkersBusy);
        metrics.raise(Gauge::DispatchQueueDepth);
        metrics.raise(Gauge::DispatchQueueDepth);
        metrics.lower(Gauge::DispatchQueueDepth);
        metrics.raise(Gauge::ConnectionsActive);
        assert_eq!(metrics.level(Gauge::WorkersTotal), 4);
        assert_eq!(metrics.level(Gauge::WorkersBusy), 1);
        assert_eq!(metrics.level(Gauge::DispatchQueueDepth), 1);
        assert_eq!(metrics.level(Gauge::ConnectionsActive), 1);
        let body = render(&metrics);
        assert!(body.contains("# TYPE osdiv_workers_total gauge\nosdiv_workers_total 4\n"));
        assert!(body.contains("osdiv_workers_busy 1\n"));
        assert!(body.contains("osdiv_dispatch_queue_depth 1\n"));
        assert!(body.contains("osdiv_connections_active 1\n"));
        assert!(body.contains("# TYPE osdiv_trace_spans_recorded_total counter\n"));
        assert!(body.contains("# TYPE osdiv_trace_spans_dropped_total counter\n"));
        // Decrements saturate at zero instead of wrapping to u64::MAX.
        metrics.lower(Gauge::ConnectionsActive);
        metrics.lower(Gauge::ConnectionsActive);
        assert_eq!(metrics.level(Gauge::ConnectionsActive), 0);
        metrics.lower(Gauge::WorkersBusy);
        metrics.lower(Gauge::WorkersBusy);
        assert_eq!(metrics.level(Gauge::WorkersBusy), 0);
    }

    #[test]
    fn the_exposition_follows_the_catalogue_row_by_row() {
        let persist = PersistMetrics::default();
        persist
            .snapshot_write_latency()
            .record(std::time::Duration::from_micros(900));
        persist
            .snapshot_load_latency()
            .record(std::time::Duration::from_micros(2_600));
        let body = ServeMetrics::new().render(&RouterGauges::default(), Some(&persist));
        let typed: Vec<&str> = body
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE "))
            .collect();
        let catalogue: Vec<String> = FAMILIES
            .iter()
            .map(|family| format!("{} {}", family.name, family.kind()))
            .collect();
        assert_eq!(typed, catalogue);
    }

    #[test]
    fn every_family_is_documented_in_the_observability_table() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        for family in &FAMILIES {
            let row = format!("| `{}` | {} |", family.name, family.kind());
            assert!(
                doc.lines().any(|line| line.starts_with(&row)),
                "docs/OBSERVABILITY.md has no table row starting {row:?}"
            );
        }
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
        let (a, _) = metrics.mint_traced_request_id();
        let (b, _) = metrics.mint_traced_request_id();
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

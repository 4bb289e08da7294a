//! Registry-driven routing over a [`StudyRegistry`] of named datasets.
//!
//! Routes:
//!
//! | Route | Serves |
//! |---|---|
//! | `GET /v1/healthz` | liveness + registry/cache statistics (JSON) |
//! | `GET /v1/analyses` | the analysis registry |
//! | `GET /v1/analyses/{id}` | one analysis; query params select its config |
//! | `GET /v1/report` | the combined report |
//! | `GET /v1/datasets` | the dataset registry |
//! | `PUT/POST /v1/datasets/{name}` | ingest an NVD XML feed body, or register `?seed=N` |
//! | `DELETE /v1/datasets/{name}` | unregister a dataset (when enabled) |
//! | `POST /v1/shutdown` | graceful shutdown (when enabled) |
//!
//! Every analysis route accepts `?dataset={name}` to select which
//! registered dataset it queries; omitting it serves the pinned default
//! dataset, byte-for-byte identical to the single-dataset server of PR 3.
//! Feed bodies stream through [`FeedIngester`] — chunked transfer bodies
//! of any size are ingested without ever being buffered whole.
//!
//! Output format negotiation follows `?format=` first, then the `Accept`
//! header, defaulting to the paper-style text rendering — the same default
//! as the `osdiv` CLI, and the rendered bytes are identical to
//! `osdiv <analysis> --format <f>` because both sides call
//! [`osdiv_core::analysis_sections`].
//!
//! Responses carry a strong `ETag` keyed on the dataset **name**, the
//! served seed and the body hash; `If-None-Match` revalidation answers 304
//! without re-rendering. Rendered bodies live in a bounded LRU **with
//! their precomputed ETag**, so cache hits hash nothing.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use osdiv_core::obs::{self, SpanKind};
use osdiv_core::{
    analysis_sections, registry_section, renderer, AnalysisError, AnalysisId, EventLog, Format,
    JsonLine, Params, Section, Study,
};
use osdiv_registry::{
    DatasetSource, DatasetState, FeedIngester, IngestBudget, IngestError, RegistryError,
    RegistryOptions, StudyRegistry, DEFAULT_DATASET,
};
use parking_lot::Mutex;
use tabular::TextTable;

use crate::http::{Body, BodyError, EmptyBody, Request, Response};
use crate::metrics::{Counter, RouteClass, RouterGauges, ServeMetrics, Stage};

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// The seed the default dataset was generated from (keys the ETags and
    /// is reported by `/v1/healthz`).
    pub seed: u64,
    /// Capacity of the rendered-response LRU cache.
    pub cache_capacity: usize,
    /// Whether `POST /v1/shutdown` is honoured (403 otherwise).
    pub enable_shutdown: bool,
    /// Whether `DELETE /v1/datasets/{name}` is honoured (403 otherwise —
    /// gated like shutdown, since deletion is destructive).
    pub enable_dataset_delete: bool,
    /// Budget every feed ingestion runs under.
    pub ingest_budget: IngestBudget,
    /// Bearer token required on mutating dataset routes (`PUT`/`POST`/
    /// `DELETE /v1/datasets/{name}`). `None` (the default) leaves them
    /// open — the pre-0.7 behaviour. Checked before any body byte is
    /// consumed: an unauthorized upload is refused outright and its body
    /// discarded by the server's drain path.
    pub ingest_token: Option<String>,
    /// Structured JSON-lines sink for per-request access lines and
    /// dataset-lifecycle events (`--access-log`). `None` (the default):
    /// no event logging.
    pub access_log: Option<Arc<EventLog>>,
    /// Requests whose total handling time reaches this many microseconds
    /// are logged as `slow_request` instead of `request` events.
    pub slow_request_us: u64,
    /// Whether the `GET /v1/debug/*` introspection routes are honoured
    /// (403 otherwise — span labels and tenant provenance are operator
    /// data, gated like shutdown). When [`RouterOptions::ingest_token`] is
    /// set, the debug routes require the same bearer token.
    pub enable_debug: bool,
}

/// Default slow-request promotion threshold: 500ms.
pub const DEFAULT_SLOW_REQUEST_US: u64 = 500_000;

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            seed: 2011,
            cache_capacity: 128,
            enable_shutdown: false,
            enable_dataset_delete: false,
            ingest_budget: IngestBudget::default(),
            ingest_token: None,
            access_log: None,
            slow_request_us: DEFAULT_SLOW_REQUEST_US,
            enable_debug: false,
        }
    }
}

/// Per-request trace context: the id echoed as `X-Request-Id`, the
/// resolved route class and the per-stage timings the access log reports.
/// Minted by [`Router::begin_trace`]; the router fills the route and its
/// own stage spans, the server fills `parse_us`/`write_us` (spans only it
/// can see).
#[derive(Debug)]
pub struct RequestTrace {
    /// The request id, echoed to the client as `X-Request-Id`.
    pub id: String,
    /// The numeric form of the request id — the flight recorder's join
    /// key: every span recorded while this request is handled carries it,
    /// so a `/v1/debug/spans` dump joins back to `X-Request-Id` via
    /// [`osdiv_core::obs::format_trace_id`].
    pub trace_key: u64,
    /// The route class the request resolved to.
    pub route: RouteClass,
    /// Microseconds parsing the request head (set by the server).
    pub parse_us: u64,
    /// Microseconds in the rendered-body cache lookup.
    pub cache_us: u64,
    /// Microseconds running analyses and rendering the document.
    pub render_us: u64,
    /// Microseconds writing the response bytes (set by the server).
    pub write_us: u64,
    /// Whether the response body came from the rendered-body cache.
    pub cache_hit: bool,
}

/// Microseconds elapsed since `started`, saturating.
pub(crate) fn micros_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// A rendered body plus its precomputed strong ETag. Hashing happens once,
/// at insert time — revalidations and cache hits reuse the stored tag
/// instead of re-hashing multi-megabyte documents per request.
#[derive(Debug)]
struct CachedBody {
    body: Vec<u8>,
    etag: String,
}

/// A bounded LRU of rendered response bodies. Bounded twice: by entry
/// count *and* by total body bytes — query parameters are attacker-
/// controlled and some configurations (wide temporal year ranges) render
/// multi-megabyte documents, so an entry-count bound alone would let a
/// crafted request series pin unbounded memory.
#[derive(Debug)]
struct LruCache {
    capacity: usize,
    byte_budget: usize,
    bytes: usize,
    map: HashMap<String, Arc<CachedBody>>,
    order: VecDeque<String>,
}

impl LruCache {
    /// Total body bytes the cache may hold.
    const BYTE_BUDGET: usize = 32 * 1024 * 1024;

    fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            byte_budget: Self::BYTE_BUDGET,
            bytes: 0,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&mut self, key: &str) -> Option<Arc<CachedBody>> {
        let hit = self.map.get(key).cloned()?;
        if let Some(position) = self.order.iter().position(|k| k == key) {
            let key = self.order.remove(position).expect("position is in range");
            self.order.push_back(key);
        }
        Some(hit)
    }

    fn insert(&mut self, key: String, value: Arc<CachedBody>) {
        // A body that would monopolize the budget is served uncached.
        if self.capacity == 0 || value.body.len() > self.byte_budget / 4 {
            return;
        }
        if let Some(replaced) = self.map.insert(key.clone(), Arc::clone(&value)) {
            self.bytes = self.bytes - replaced.body.len() + value.body.len();
        } else {
            self.bytes += value.body.len();
            self.order.push_back(key);
        }
        while self.order.len() > self.capacity || self.bytes > self.byte_budget {
            let Some(evicted) = self.order.pop_front() else {
                break;
            };
            if let Some(entry) = self.map.remove(&evicted) {
                self.bytes -= entry.body.len();
            }
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// The request handler shared by every worker thread.
#[derive(Debug)]
pub struct Router {
    registry: Arc<StudyRegistry>,
    options: RouterOptions,
    cache: Mutex<LruCache>,
    metrics: Arc<ServeMetrics>,
    shutdown: Arc<AtomicBool>,
}

impl Router {
    /// Wraps a dataset registry (whose [`DEFAULT_DATASET`] should be
    /// registered and pre-warmed).
    pub fn new(registry: Arc<StudyRegistry>, options: RouterOptions) -> Self {
        let cache = Mutex::new(LruCache::new(options.cache_capacity));
        Router {
            registry,
            options,
            cache,
            metrics: Arc::new(ServeMetrics::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Convenience for the single-dataset shape of PR 3: wraps `study` in
    /// a fresh registry as the pinned default dataset (with default
    /// [`RegistryOptions`]).
    pub fn with_study(study: Arc<Study>, options: RouterOptions) -> Self {
        let registry = Arc::new(StudyRegistry::with_default(
            study,
            options.seed,
            RegistryOptions::default(),
        ));
        Router::new(registry, options)
    }

    /// The dataset registry the router serves.
    pub fn registry(&self) -> &Arc<StudyRegistry> {
        &self.registry
    }

    /// The flag `POST /v1/shutdown` raises; the server's accept loop (and
    /// [`crate::server::ServerHandle::shutdown`]) watch the same flag.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The serving counters, shared with the [`crate::Server`] accept
    /// loop and exposed at `GET /metrics`.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// The configured structured event log, if any (shared with the
    /// server's per-request access logging).
    pub fn access_log(&self) -> Option<&Arc<EventLog>> {
        self.options.access_log.as_ref()
    }

    /// The slow-request promotion threshold in microseconds.
    pub fn slow_request_us(&self) -> u64 {
        self.options.slow_request_us
    }

    /// Total requests handled.
    pub fn request_count(&self) -> u64 {
        self.metrics.get(Counter::RequestsServed)
    }

    /// Responses served straight from the rendered-body cache.
    pub fn cache_hit_count(&self) -> u64 {
        self.metrics.get(Counter::CacheHits)
    }

    /// Routes a body-less request (see [`Router::handle_with_body`]).
    pub fn handle(&self, request: &Request) -> Response {
        self.handle_with_body(request, &mut EmptyBody)
    }

    /// Whether this request's route streams the request body itself (feed
    /// ingestion). The server drains every other route's body *before*
    /// routing, so an oversized upload is rejected before any side effect
    /// runs.
    pub fn consumes_body(&self, request: &Request) -> bool {
        (request.method == "PUT" || request.method == "POST")
            && single_segment(&request.path, "/v1/datasets/").is_some()
            && !request.query.iter().any(|(key, _)| key == "seed")
            // An unauthorized upload never reaches the ingester: the
            // route does not consume the body, so the server's bounded
            // drain (and lame-duck close) disposes of it and the 401
            // goes out without reading a single feed byte.
            && self.ingest_authorized(request)
    }

    /// Whether the request may mutate datasets: no token configured, or a
    /// matching `Authorization: Bearer <token>` header presented.
    fn ingest_authorized(&self, request: &Request) -> bool {
        let Some(expected) = self.options.ingest_token.as_deref() else {
            return true;
        };
        request
            .header("authorization")
            .and_then(|value| value.strip_prefix("Bearer "))
            .map(str::trim)
            == Some(expected)
    }

    /// Routes one parsed request to a response, streaming the request body
    /// where the route consumes one (feed ingestion). Never panics on
    /// client input; analysis configuration errors surface as 400s.
    ///
    /// Mints a request trace, records the route-class latency histogram
    /// and echoes `X-Request-Id` — the standalone-router path. The server
    /// calls [`Router::handle_traced`] instead and records the route
    /// total itself, so parse and response-write time count too.
    pub fn handle_with_body(&self, request: &Request, body: &mut dyn Body) -> Response {
        let mut trace = self.begin_trace();
        let started = Instant::now();
        let response = self.handle_traced(request, body, &mut trace);
        self.metrics
            .record_route_us(trace.route, micros_since(started));
        response
    }

    /// A fresh trace with a minted request id (all timings zero).
    pub fn begin_trace(&self) -> RequestTrace {
        let (id, trace_key) = self.metrics.mint_traced_request_id();
        RequestTrace {
            id,
            trace_key,
            route: RouteClass::Other,
            parse_us: 0,
            cache_us: 0,
            render_us: 0,
            write_us: 0,
            cache_hit: false,
        }
    }

    /// Routes one request under an externally owned trace: resolves the
    /// route class, records the router-side stage histograms into the
    /// trace, and stamps `X-Request-Id` on the response. Does **not**
    /// record the route-class latency histogram — the caller owns the
    /// request's full timing span.
    pub fn handle_traced(
        &self,
        request: &Request,
        body: &mut dyn Body,
        trace: &mut RequestTrace,
    ) -> Response {
        trace.route = RouteClass::classify(&request.method, &request.path);
        let response = self.route_request(request, body, trace);
        response.with_header("X-Request-Id", trace.id.clone())
    }

    fn route_request(
        &self,
        request: &Request,
        body: &mut dyn Body,
        trace: &mut RequestTrace,
    ) -> Response {
        self.metrics.add(Counter::RequestsServed, 1);
        let path = request.path.as_str();
        match path {
            "/metrics" => match self.check_get(request) {
                Err(response) => response,
                Ok(()) => {
                    let persist = self.registry.persistence().map(|store| store.metrics());
                    let body = self.metrics.render(&self.saturation(), persist);
                    Response::new(200).with_body("text/plain; version=0.0.4", body.into_bytes())
                }
            },
            "/v1/debug/spans" | "/v1/debug/registry" => match self.check_get(request) {
                Err(response) => response,
                Ok(()) => self.debug_route(path, request),
            },
            "/v1/shutdown" => {
                if request.method != "POST" {
                    return method_not_allowed("POST");
                }
                if !self.options.enable_shutdown {
                    return Response::text(
                        403,
                        "shutdown over HTTP is disabled (start with --enable-shutdown)",
                    );
                }
                self.shutdown.store(true, Ordering::SeqCst);
                Response::new(200).with_body(
                    tabular::mime::APPLICATION_JSON,
                    b"{\"status\":\"shutting down\"}\n".to_vec(),
                )
            }
            "/v1/healthz" => match self.check_get(request) {
                Err(response) => response,
                Ok(()) => self.healthz(),
            },
            "/v1/datasets" => match self.check_get(request) {
                Err(response) => response,
                Ok(()) => self.list_datasets(request),
            },
            "/v1/report" | "/v1/analyses" => match self.check_get(request) {
                Err(response) => response,
                Ok(()) => self.render_route(request, trace),
            },
            _ => {
                if let Some(name) = single_segment(path, "/v1/datasets/") {
                    return self.dataset_route(name, request, body);
                }
                match single_segment(path, "/v1/analyses/") {
                    Some(name) => match self.check_get(request) {
                        Err(response) => response,
                        Ok(()) => match AnalysisId::from_name(name) {
                            Ok(_) => self.render_route(request, trace),
                            Err(error) => Response::text(404, error.to_string()),
                        },
                    },
                    None => Response::text(404, format!("no route for {path}")),
                }
            }
        }
    }

    /// The `GET /v1/debug/*` surface: gated behind `--enable-debug` and,
    /// when an ingest token is configured, the same bearer token — span
    /// labels and tenant provenance are operator data. Every view answers
    /// in one pass over a bounded structure (see [`crate::debug`]).
    fn debug_route(&self, path: &str, request: &Request) -> Response {
        if !self.options.enable_debug {
            return Response::text(
                403,
                "debug introspection over HTTP is disabled (start with --enable-debug)",
            );
        }
        if !self.ingest_authorized(request) {
            return Response::text(401, "missing or invalid ingestion token")
                .with_header("WWW-Authenticate", "Bearer realm=\"osdiv-ingest\"");
        }
        let body = match path {
            "/v1/debug/spans" => crate::debug::spans_json(),
            _ => crate::debug::registry_json(&self.registry),
        };
        Response::new(200)
            .with_body(tabular::mime::APPLICATION_JSON, body.into_bytes())
            .with_header("Cache-Control", "no-cache")
    }

    /// Samples the gauges only the router can compute, once per scrape:
    /// body-cache occupancy against its budgets and the tenants by state.
    fn saturation(&self) -> RouterGauges {
        let mut gauges = {
            let cache = self.cache.lock();
            RouterGauges {
                cache_entries: cache.len() as u64,
                cache_bytes: cache.bytes as u64,
                cache_byte_budget: cache.byte_budget as u64,
                ..RouterGauges::default()
            }
        };
        for info in self.registry.list() {
            gauges.tenants[info.state as usize] += 1;
        }
        gauges.resident_bytes = self.registry.resident_bytes() as u64;
        gauges.byte_budget = self.registry.options().max_total_bytes as u64;
        gauges
    }

    /// Emits one structured event line when an access log is configured
    /// (`build` fills in the fields after the `ts`/`event` tags).
    fn emit_event(&self, event: &str, build: impl FnOnce(&mut JsonLine)) {
        if let Some(log) = &self.options.access_log {
            let mut line = JsonLine::event(event);
            build(&mut line);
            log.emit(&line.finish());
        }
    }

    fn check_get(&self, request: &Request) -> Result<(), Response> {
        if request.method == "GET" || request.method == "HEAD" {
            Ok(())
        } else {
            Err(method_not_allowed("GET, HEAD"))
        }
    }

    fn healthz(&self) -> Response {
        let memoized = self
            .registry
            .resident(DEFAULT_DATASET)
            .map(|study| study.cached_ids().len())
            .unwrap_or(0);
        let mut body = JsonLine::new();
        body.str_field("status", "ok");
        body.u64_field("seed", self.options.seed);
        body.u64_field("analyses", AnalysisId::ALL.len() as u64);
        body.u64_field("memoized", memoized as u64);
        body.u64_field("datasets", self.registry.len() as u64);
        body.u64_field("dataset_bytes", self.registry.resident_bytes() as u64);
        body.u64_field("cached_responses", self.cache.lock().len() as u64);
        body.u64_field("requests", self.request_count());
        body.u64_field("cache_hits", self.cache_hit_count());
        json_response(200, body)
    }

    /// `GET /v1/datasets`: the dataset registry as a negotiated document
    /// (uncached: the listing is tiny and changes with every mutation).
    fn list_datasets(&self, request: &Request) -> Response {
        let (format, _, params) = match negotiate(request) {
            Ok(split) => split,
            Err(response) => return response,
        };
        if let Err(error) = params.check_known(&[]) {
            return error_response(&error);
        }
        let mut table = TextTable::new(["Dataset", "Kind", "Detail", "Resident bytes", "Pinned"]);
        for info in self.registry.list() {
            let detail = match &info.source {
                DatasetSource::Synthetic { seed } => format!("seed={seed}"),
                DatasetSource::Ingested {
                    entries,
                    skipped,
                    feed_bytes,
                } => format!("entries={entries} skipped={skipped} feed_bytes={feed_bytes}"),
            };
            let kind = match info.state {
                DatasetState::Resident => info.source.kind().to_string(),
                state => format!("{} ({})", info.source.kind(), state.as_str()),
            };
            table.push_row([
                info.name.clone(),
                kind,
                detail,
                info.resident_bytes.to_string(),
                if info.pinned { "yes" } else { "no" }.to_string(),
            ]);
        }
        let document = renderer(format).document(&[Section::table("Datasets", table)]);
        Response::new(200)
            .with_body(format.content_type(), document.into_bytes())
            .with_header("Cache-Control", "no-cache")
    }

    /// `PUT`/`POST`/`DELETE`/`GET /v1/datasets/{name}`.
    fn dataset_route(&self, name: &str, request: &Request, body: &mut dyn Body) -> Response {
        let mutating = matches!(request.method.as_str(), "PUT" | "POST" | "DELETE");
        if mutating && !self.ingest_authorized(request) {
            return Response::text(401, "missing or invalid ingestion token")
                .with_header("WWW-Authenticate", "Bearer realm=\"osdiv-ingest\"");
        }
        match request.method.as_str() {
            "PUT" | "POST" => self.create_dataset(name, request, body),
            "DELETE" => self.delete_dataset(name),
            "GET" | "HEAD" => self.dataset_info(name),
            _ => method_not_allowed("GET, HEAD, PUT, POST, DELETE"),
        }
    }

    /// Registers a dataset: `?seed=N` registers a lazily built synthetic
    /// dataset; otherwise the request body is streamed through the feed
    /// ingester. 201 on success.
    fn create_dataset(&self, name: &str, request: &Request, body: &mut dyn Body) -> Response {
        if let Err(error) = osdiv_registry::validate_name(name) {
            return registry_error_response(&error);
        }
        let mut params = Params::new();
        for (key, value) in &request.query {
            params.insert(key.clone(), value.clone());
        }
        let seed = match params.take("seed") {
            None => None,
            Some(raw) => match raw.parse::<u64>() {
                Ok(seed) => Some(seed),
                Err(_) => return Response::text(400, format!("error: invalid seed {raw:?}")),
            },
        };
        if let Err(error) = params.check_known(&["seed"]) {
            return error_response(&error);
        }

        if let Some(seed) = seed {
            if let Err(error) = self.registry.register_synthetic(name, seed) {
                return registry_error_response(&error);
            }
            self.emit_event("dataset_registered", |line| {
                line.str_field("dataset", name);
                line.u64_field("seed", seed);
            });
            let mut body = JsonLine::new();
            body.str_field("dataset", name);
            body.str_field("source", "synthetic");
            body.u64_field("seed", seed);
            return json_response(201, body);
        }

        // Reject a taken name before streaming: ingesting a multi-megabyte
        // feed only to discover the 409 at the final insert would be a
        // free CPU-amplification vector. The insert below still settles
        // the race against a concurrent registration.
        if self.registry.occupied(name) {
            return registry_error_response(&RegistryError::AlreadyExists {
                name: name.to_string(),
            });
        }

        // Stream the feed body through the ingester, chunk by chunk.
        // Nothing reaches the disk until `registry.insert` saves the
        // complete dataset, so a failed upload leaves nothing behind.
        let mut ingester = FeedIngester::new(self.options.ingest_budget.clone());
        let mut chunk = Vec::new();
        loop {
            match body.next_chunk(&mut chunk) {
                Ok(true) => {
                    if let Err(error) = ingester.push(&chunk) {
                        return ingest_error_response(&error);
                    }
                }
                Ok(false) => break,
                Err(BodyError::Violation(violation)) => return Response::from(&violation),
                Err(BodyError::TooLarge { limit }) => {
                    return Response::text(413, format!("request body exceeds {limit} bytes"))
                }
                Err(BodyError::Io(_)) => {
                    return Response::text(400, "request body ended prematurely")
                }
            }
        }
        let outcome = match ingester.finish() {
            Ok(outcome) => outcome,
            Err(error) => return ingest_error_response(&error),
        };
        let (entries, skipped, feed_bytes) = (outcome.entries, outcome.skipped, outcome.feed_bytes);
        let stages = outcome.stages;
        self.metrics
            .record_stage_us(Stage::IngestCarve, stages.carve_us);
        self.metrics
            .record_stage_us(Stage::IngestParse, stages.parse_us);
        self.metrics
            .record_stage_us(Stage::IngestInsert, stages.insert_us);
        let study = Arc::new(outcome.into_study());
        let estimated_bytes = study.estimated_bytes();
        let source = DatasetSource::Ingested {
            entries,
            skipped,
            feed_bytes,
        };
        if let Err(error) = self.registry.insert(name, study, source) {
            return registry_error_response(&error);
        }
        self.emit_event("dataset_ingested", |line| {
            line.str_field("dataset", name);
            line.u64_field("entries", entries as u64);
            line.u64_field("skipped", skipped as u64);
            line.u64_field("feed_bytes", feed_bytes as u64);
            line.u64_field("carve_us", stages.carve_us);
            line.u64_field("parse_us", stages.parse_us);
            line.u64_field("insert_us", stages.insert_us);
        });
        let mut body = JsonLine::new();
        body.str_field("dataset", name);
        body.str_field("source", "ingested");
        body.u64_field("entries", entries as u64);
        body.u64_field("skipped", skipped as u64);
        body.u64_field("feed_bytes", feed_bytes as u64);
        body.u64_field("estimated_bytes", estimated_bytes as u64);
        json_response(201, body)
    }

    fn delete_dataset(&self, name: &str) -> Response {
        if !self.options.enable_dataset_delete {
            return Response::text(
                403,
                "dataset deletion over HTTP is disabled (start with --enable-dataset-delete)",
            );
        }
        if name == DEFAULT_DATASET {
            return Response::text(403, "the default dataset cannot be deleted");
        }
        match self.registry.remove(name) {
            Ok(()) => {
                self.emit_event("dataset_deleted", |line| {
                    line.str_field("dataset", name);
                });
                let mut body = JsonLine::new();
                body.str_field("dataset", name);
                body.str_field("status", "deleted");
                json_response(200, body)
            }
            Err(error) => registry_error_response(&error),
        }
    }

    fn dataset_info(&self, name: &str) -> Response {
        match self.registry.list().into_iter().find(|i| i.name == name) {
            None => registry_error_response(&RegistryError::NotFound {
                name: name.to_string(),
            }),
            Some(info) => {
                let mut body = JsonLine::new();
                body.str_field("dataset", &info.name);
                body.str_field("source", info.source.kind());
                match info.source {
                    DatasetSource::Synthetic { seed } => body.u64_field("seed", seed),
                    DatasetSource::Ingested {
                        entries,
                        skipped,
                        feed_bytes,
                    } => {
                        body.u64_field("entries", entries as u64);
                        body.u64_field("skipped", skipped as u64);
                        body.u64_field("feed_bytes", feed_bytes as u64);
                    }
                }
                body.bool_field("resident", info.state == DatasetState::Resident);
                body.u64_field("resident_bytes", info.resident_bytes as u64);
                body.bool_field("pinned", info.pinned);
                body.bool_field("spilled", info.state == DatasetState::Spilled);
                json_response(200, body)
            }
        }
    }

    /// Serves `/v1/report`, `/v1/analyses` and `/v1/analyses/{id}` —
    /// everything that renders sections in a negotiated format with ETag
    /// revalidation and the LRU body cache. `?dataset=` selects the
    /// queried dataset (default: the pinned boot dataset).
    fn render_route(&self, request: &Request, trace: &mut RequestTrace) -> Response {
        let (format, dataset, params) = match negotiate(request) {
            Ok(split) => split,
            Err(response) => return response,
        };
        // Resolve the dataset *before* consulting the cache: a deleted,
        // evicted or re-registered name must answer its registry status
        // (404/410) or fresh bytes — never a previous tenant's cached
        // body. The registration generation in the key makes reused names
        // miss stale entries, which then age out of the LRU.
        let (study, generation) = match self.registry.get_tagged(&dataset) {
            Ok(tagged) => tagged,
            Err(error) => return registry_error_response(&error),
        };
        let key = format!(
            "{}\u{1}{}\u{1}{}?{}#{}",
            dataset,
            generation,
            request.path,
            params.canonical(),
            format.name()
        );
        let lookup_started = Instant::now();
        let lookup_started_us = obs::monotonic_us();
        let cached = self.cache.lock().get(&key);
        let outcome = match cached {
            Some(_) => Counter::CacheHits,
            None => Counter::CacheMisses,
        };
        self.metrics.add(outcome, 1);
        trace.cache_us = micros_since(lookup_started);
        trace.cache_hit = cached.is_some();
        self.metrics
            .record_stage_us(Stage::CacheLookup, trace.cache_us);
        obs::record_span(
            SpanKind::CacheLookup,
            &dataset,
            lookup_started_us,
            trace.cache_us,
        );
        let cached = match cached {
            Some(cached) => cached,
            None => {
                let render_started = Instant::now();
                let render_started_us = obs::monotonic_us();
                let rendered = self.build_body(&study, &request.path, format, &params);
                trace.render_us = micros_since(render_started);
                self.metrics.record_stage_us(Stage::Render, trace.render_us);
                obs::record_span(
                    SpanKind::Render,
                    &dataset,
                    render_started_us,
                    trace.render_us,
                );
                match rendered {
                    Ok(body) => {
                        let etag = format!(
                            "\"{:x}-{}-{:016x}\"",
                            self.options.seed,
                            dataset,
                            fnv1a(&body)
                        );
                        let cached = Arc::new(CachedBody { body, etag });
                        self.cache.lock().insert(key, Arc::clone(&cached));
                        cached
                    }
                    Err(error) => return error_response(&error),
                }
            }
        };
        // `If-None-Match` lists entity tags, compared weakly: a `W/` prefix
        // is ignored (RFC 9110 §13.1.2). Our tags never hold a comma. A
        // 304 repeats the 200's `Cache-Control` (§15.4.5).
        if request
            .header_items("if-none-match")
            .any(|held| held == "*" || held.strip_prefix("W/").unwrap_or(held) == cached.etag)
        {
            return Response::new(304)
                .with_header("ETag", cached.etag.clone())
                .with_header("Cache-Control", "no-cache");
        }
        Response::new(200)
            .with_body(format.content_type(), cached.body.clone())
            .with_header("ETag", cached.etag.clone())
            .with_header("Cache-Control", "no-cache")
    }

    fn build_body(
        &self,
        study: &Study,
        path: &str,
        format: Format,
        params: &Params,
    ) -> Result<Vec<u8>, AnalysisError> {
        let rendered = match path {
            "/v1/report" => {
                params.check_known(&[])?;
                study.report(format)?
            }
            "/v1/analyses" => {
                params.check_known(&[])?;
                renderer(format).document(&[registry_section()])
            }
            _ => {
                let name = path
                    .strip_prefix("/v1/analyses/")
                    .expect("render_route only sees analysis paths");
                let id = AnalysisId::from_name(name)?;
                let sections = analysis_sections(study, id, params)?;
                renderer(format).document(&sections)
            }
        };
        Ok(rendered.into_bytes())
    }
}

/// The single path segment after `prefix` (`None` for empty or nested).
fn single_segment<'a>(path: &'a str, prefix: &str) -> Option<&'a str> {
    let name = path.strip_prefix(prefix)?;
    (!name.is_empty() && !name.contains('/')).then_some(name)
}

fn method_not_allowed(allow: &str) -> Response {
    Response::text(405, format!("method not allowed (allow: {allow})")).with_header("Allow", allow)
}

fn error_response(error: &AnalysisError) -> Response {
    Response::text(400, format!("error: {error}"))
}

/// Maps a registry failure to its HTTP status: 404 unknown, 409 taken
/// (or still saving: retryable, so it carries `Retry-After`), 410
/// evicted, 507 over capacity, 400 invalid name, 500 persistence.
fn registry_error_response(error: &RegistryError) -> Response {
    let status = match error {
        RegistryError::NotFound { .. } => 404,
        RegistryError::AlreadyExists { .. } | RegistryError::SaveInFlight { .. } => 409,
        RegistryError::Evicted { .. } => 410,
        RegistryError::CapacityExceeded { .. } => 507,
        RegistryError::InvalidName { .. } => 400,
        RegistryError::Persistence { .. } => 500,
    };
    let response = Response::text(status, format!("error: {error}"));
    match error {
        RegistryError::SaveInFlight { .. } => response.with_header("Retry-After", "1"),
        _ => response,
    }
}

/// A JSON response body: one object on one line, newline-terminated.
fn json_response(status: u16, body: JsonLine) -> Response {
    let mut body = body.finish();
    body.push('\n');
    Response::new(status).with_body(tabular::mime::APPLICATION_JSON, body.into_bytes())
}

/// Maps an ingestion failure: budget violations are 413, malformed feeds
/// 400 (see [`IngestError::http_status`]).
fn ingest_error_response(error: &IngestError) -> Response {
    Response::text(error.http_status(), format!("error: {error}"))
}

/// Splits a request into the negotiated output format, the selected
/// dataset and the analysis parameters: `?format=` wins over the `Accept`
/// header, `?dataset=` defaults to [`DEFAULT_DATASET`]. Every other query
/// key is handed to the analysis configuration.
fn negotiate(request: &Request) -> Result<(Format, String, Params), Response> {
    let mut params = Params::new();
    for (key, value) in &request.query {
        params.insert(key.clone(), value.clone());
    }
    let dataset = params
        .take("dataset")
        .unwrap_or_else(|| DEFAULT_DATASET.to_string());
    let format_value = params.take("format");
    if let Some(raw) = format_value {
        return match raw.parse::<Format>() {
            Ok(format) => Ok((format, dataset, params)),
            Err(error) => Err(Response::text(400, format!("error: {error}"))),
        };
    }
    if request.header_lines("accept").next().is_none() {
        return Ok((Format::Text, dataset, params));
    }
    // `Accept` is a list over all its field lines.
    match accepted_format(request.header_items("accept")) {
        Some(format) => Ok((format, dataset, params)),
        None => {
            let accept = request
                .header_lines("accept")
                .collect::<Vec<_>>()
                .join(", ");
            Err(Response::text(
                406,
                format!(
                    "none of {accept:?} is supported (offered: text/plain, text/csv, application/json)"
                ),
            ))
        }
    }
}

/// Picks the supported media type with the highest quality value (ties:
/// first listed) among the items of an `Accept` list. An unparsable `q=`
/// counts as 1.
fn accepted_format<'a>(accept: impl Iterator<Item = &'a str>) -> Option<Format> {
    let mut best: Option<(Format, f64)> = None;
    for item in accept {
        let mut pieces = item.split(';');
        let media_type = pieces.next().unwrap_or("").trim();
        let mut quality = 1.0_f64;
        for parameter in pieces {
            if let Some((name, value)) = parameter.split_once('=') {
                if name.trim().eq_ignore_ascii_case("q") {
                    quality = value.trim().parse().unwrap_or(1.0);
                }
            }
        }
        if quality <= 0.0 {
            continue;
        }
        if let Some(format) = Format::from_media_type(media_type) {
            if best.map(|(_, held)| quality > held).unwrap_or(true) {
                best = Some((format, quality));
            }
        }
    }
    best.map(|(format, _)| format)
}

/// FNV-1a over a byte slice (the ETag body hash).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{BodyFraming, BufferedBody, RequestParser, StreamBody};
    use nvd_feed::FeedWriter;
    use nvd_model::{CveId, OsDistribution, VulnerabilityEntry};
    use osdiv_registry::{ChaosVfs, Durability, TenantStore};

    fn request(raw: &str) -> Request {
        RequestParser::new()
            .feed(raw.as_bytes())
            .unwrap()
            .expect("complete request")
    }

    fn test_router() -> Router {
        let dataset = datagen::CalibratedGenerator::new(1).generate();
        let study = Arc::new(Study::from_entries(dataset.entries()));
        Router::with_study(
            study,
            RouterOptions {
                seed: 1,
                cache_capacity: 4,
                enable_shutdown: true,
                enable_dataset_delete: true,
                ..RouterOptions::default()
            },
        )
    }

    fn feed_of(count: u32) -> Vec<u8> {
        let entries: Vec<_> = (0..count)
            .map(|i| {
                VulnerabilityEntry::builder(CveId::new(2006, i + 1))
                    .summary(format!("Buffer overflow number {i} in the TCP/IP stack"))
                    .affects_os(OsDistribution::Debian)
                    .affects_os(OsDistribution::OpenBsd)
                    .build()
                    .unwrap()
            })
            .collect();
        FeedWriter::new()
            .write_to_string(&entries)
            .unwrap()
            .into_bytes()
    }

    #[test]
    fn lru_evicts_the_least_recently_used_body() {
        let entry = |data: Vec<u8>| {
            Arc::new(CachedBody {
                etag: "\"x\"".to_string(),
                body: data,
            })
        };
        let mut lru = LruCache::new(2);
        lru.insert("a".to_string(), entry(vec![1]));
        lru.insert("b".to_string(), entry(vec![2]));
        assert!(lru.get("a").is_some()); // refresh a
        lru.insert("c".to_string(), entry(vec![3]));
        assert!(lru.get("a").is_some());
        assert!(lru.get("b").is_none(), "b was least recently used");
        assert!(lru.get("c").is_some());
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_enforces_the_byte_budget() {
        let entry = |data: Vec<u8>| {
            Arc::new(CachedBody {
                etag: "\"x\"".to_string(),
                body: data,
            })
        };
        let mut lru = LruCache::new(1000);
        lru.byte_budget = 100;
        // Oversized bodies (over a quarter of the budget) are never cached.
        lru.insert("huge".to_string(), entry(vec![0; 26]));
        assert!(lru.get("huge").is_none());
        assert_eq!(lru.bytes, 0);
        // Within budget, old bodies are evicted to make room by bytes even
        // though the entry-count cap is far away.
        for i in 0..10 {
            lru.insert(format!("k{i}"), entry(vec![0; 20]));
        }
        assert!(lru.bytes <= 100);
        assert_eq!(lru.len(), 5);
        assert!(lru.get("k0").is_none());
        assert!(lru.get("k9").is_some());
        // Replacing a key adjusts the byte account instead of leaking it.
        let before = lru.bytes;
        lru.insert("k9".to_string(), entry(vec![0; 10]));
        assert_eq!(lru.bytes, before - 10);
    }

    #[test]
    fn accept_header_quality_values_pick_the_best_supported_type() {
        let accepted = |accept: &str| accepted_format(accept.split(','));
        assert_eq!(accepted("application/json"), Some(Format::Json));
        assert_eq!(
            accepted("text/csv;q=0.5, application/json;q=0.9"),
            Some(Format::Json)
        );
        assert_eq!(accepted("image/png, text/csv;q=0.1"), Some(Format::Csv));
        assert_eq!(accepted("*/*"), Some(Format::Text));
        assert_eq!(accepted("application/json;q=0"), None);
        assert_eq!(accepted("image/png"), None);
        // `Accept` is one list over all its field lines.
        let router = test_router();
        let split = router.handle(&request(
            "GET /v1/analyses/validity HTTP/1.1\r\nAccept: text/csv\r\nAccept: image/png\r\n\r\n",
        ));
        assert_eq!(split.status(), 200);
        assert_eq!(split.header("content-type"), Some(tabular::mime::TEXT_CSV));
    }

    #[test]
    fn healthz_reports_ok_and_counters() {
        let router = test_router();
        let response = router.handle(&request("GET /v1/healthz HTTP/1.1\r\n\r\n"));
        assert_eq!(response.status(), 200);
        let body = String::from_utf8_lossy(response.body()).to_string();
        assert!(body.contains("\"status\":\"ok\""));
        assert!(body.contains("\"seed\":1"));
        assert!(body.contains("\"datasets\":1"));
        assert_eq!(router.request_count(), 1);
    }

    #[test]
    fn analysis_routes_render_and_revalidate() {
        let router = test_router();
        let first = router.handle(&request(
            "GET /v1/analyses/validity?format=json HTTP/1.1\r\n\r\n",
        ));
        assert_eq!(first.status(), 200);
        assert_eq!(
            first.header("content-type"),
            Some(tabular::mime::APPLICATION_JSON)
        );
        let etag = first.header("etag").unwrap().to_string();
        // `If-None-Match` is a list of entity tags, compared weakly, over
        // every field line of the header.
        let held = [
            (etag.clone(), 304),
            ("*".to_string(), 304),
            (format!("\"other\", {etag}"), 304),
            (format!("{etag} , \"other\""), 304),
            (format!("W/{etag}"), 304),
            (format!("\"other\"\r\nIf-None-Match: {etag}"), 304),
            (format!("{etag}\r\nIf-None-Match: \"other\""), 304),
            ("\"other\"".to_string(), 200),
            ("\"other\", W/\"another\"".to_string(), 200),
        ];
        for (if_none_match, status) in &held {
            let revalidation = router.handle(&request(&format!(
                "GET /v1/analyses/validity?format=json HTTP/1.1\r\nIf-None-Match: {if_none_match}\r\n\r\n"
            )));
            assert_eq!(revalidation.status(), *status, "{if_none_match:?}");
            assert_eq!(revalidation.body().is_empty(), *status == 304);
            assert_eq!(revalidation.header("etag"), Some(etag.as_str()));
        }
        assert_eq!(router.cache_hit_count(), held.len() as u64);
    }

    #[test]
    fn explicit_default_dataset_is_byte_identical_and_shares_the_etag() {
        let router = test_router();
        let implicit = router.handle(&request("GET /v1/report?format=csv HTTP/1.1\r\n\r\n"));
        let explicit = router.handle(&request(
            "GET /v1/report?format=csv&dataset=default HTTP/1.1\r\n\r\n",
        ));
        assert_eq!(implicit.body(), explicit.body());
        assert_eq!(implicit.header("etag"), explicit.header("etag"));
        // …and the second request was a cache hit on the same key.
        assert_eq!(router.cache_hit_count(), 1);
    }

    #[test]
    fn feed_bodies_ingest_into_queryable_datasets() {
        let router = test_router();
        let created = router.handle_with_body(
            &request("PUT /v1/datasets/feed HTTP/1.1\r\n\r\n"),
            &mut BufferedBody::new(feed_of(6)),
        );
        assert_eq!(
            created.status(),
            201,
            "{}",
            String::from_utf8_lossy(created.body())
        );
        assert!(String::from_utf8_lossy(created.body()).contains("\"entries\":6"));

        // Queryable through the analysis routes…
        let table = router.handle(&request(
            "GET /v1/analyses/validity?dataset=feed&format=csv HTTP/1.1\r\n\r\n",
        ));
        assert_eq!(table.status(), 200);
        // …with an ETag distinct from the default dataset's.
        let default_table = router.handle(&request(
            "GET /v1/analyses/validity?format=csv HTTP/1.1\r\n\r\n",
        ));
        assert_ne!(table.header("etag"), default_table.header("etag"));

        // Listed, inspectable, deletable, then cleanly gone.
        let list = router.handle(&request("GET /v1/datasets?format=csv HTTP/1.1\r\n\r\n"));
        assert!(String::from_utf8_lossy(list.body()).contains("feed"));
        let info = router.handle(&request("GET /v1/datasets/feed HTTP/1.1\r\n\r\n"));
        assert_eq!(info.status(), 200);
        assert!(String::from_utf8_lossy(info.body()).contains("\"resident\":true"));
        let deleted = router.handle(&request("DELETE /v1/datasets/feed HTTP/1.1\r\n\r\n"));
        assert_eq!(deleted.status(), 200);
        assert_eq!(
            router
                .handle(&request(
                    "GET /v1/analyses/validity?dataset=feed HTTP/1.1\r\n\r\n"
                ))
                .status(),
            404
        );
    }

    #[test]
    fn cached_bodies_die_with_their_dataset_registration() {
        let router = test_router();
        // Same URL before/after delete: the exact cache key must not
        // resurrect the deleted dataset's body.
        let path = "GET /v1/analyses/validity?dataset=feed&format=csv HTTP/1.1\r\n\r\n";
        router.handle_with_body(
            &request("PUT /v1/datasets/feed HTTP/1.1\r\n\r\n"),
            &mut BufferedBody::new(feed_of(6)),
        );
        let first = router.handle(&request(path));
        assert_eq!(first.status(), 200);
        let again = router.handle(&request(path));
        assert_eq!(again.body(), first.body(), "second hit is served (cached)");
        router.handle(&request("DELETE /v1/datasets/feed HTTP/1.1\r\n\r\n"));
        assert_eq!(
            router.handle(&request(path)).status(),
            404,
            "a deleted dataset's cached body must not be served"
        );

        // Re-registering the name serves the NEW data, not the old cache
        // entry: same URL, different registration generation.
        let created = router.handle(&request("PUT /v1/datasets/feed?seed=3 HTTP/1.1\r\n\r\n"));
        assert_eq!(created.status(), 201);
        let rebuilt = router.handle(&request(path));
        assert_eq!(rebuilt.status(), 200);
        assert_ne!(
            rebuilt.header("etag"),
            first.header("etag"),
            "the new registration renders fresh bytes with a fresh tag"
        );
    }

    #[test]
    fn synthetic_datasets_register_by_seed() {
        let router = test_router();
        let created = router.handle(&request("PUT /v1/datasets/alt?seed=5 HTTP/1.1\r\n\r\n"));
        assert_eq!(created.status(), 201);
        let body = router.handle(&request(
            "GET /v1/analyses/validity?dataset=alt&format=csv HTTP/1.1\r\n\r\n",
        ));
        assert_eq!(body.status(), 200);
        let default_body = router.handle(&request(
            "GET /v1/analyses/validity?format=csv HTTP/1.1\r\n\r\n",
        ));
        // The calibrated generator reproduces the paper's Table I exactly
        // for any seed, so the *bytes* agree — but the cache entries and
        // ETags are keyed per dataset.
        assert_ne!(body.header("etag"), default_body.header("etag"));
        // Registering the same name again conflicts.
        assert_eq!(
            router
                .handle(&request("PUT /v1/datasets/alt?seed=9 HTTP/1.1\r\n\r\n"))
                .status(),
            409
        );
        // Bad names and bad seeds are 400s.
        assert_eq!(
            router
                .handle(&request("PUT /v1/datasets/BAD?seed=5 HTTP/1.1\r\n\r\n"))
                .status(),
            400
        );
        assert_eq!(
            router
                .handle(&request("PUT /v1/datasets/ok?seed=nope HTTP/1.1\r\n\r\n"))
                .status(),
            400
        );
    }

    #[test]
    fn dataset_deletion_is_gated_and_protects_the_default() {
        let dataset = datagen::CalibratedGenerator::new(1).generate();
        let study = Arc::new(Study::from_entries(dataset.entries()));
        let locked = Router::with_study(
            study,
            RouterOptions {
                seed: 1,
                ..RouterOptions::default()
            },
        );
        assert_eq!(
            locked
                .handle(&request("DELETE /v1/datasets/x HTTP/1.1\r\n\r\n"))
                .status(),
            403
        );
        let router = test_router();
        assert_eq!(
            router
                .handle(&request("DELETE /v1/datasets/default HTTP/1.1\r\n\r\n"))
                .status(),
            403
        );
        assert_eq!(
            router
                .handle(&request("DELETE /v1/datasets/missing HTTP/1.1\r\n\r\n"))
                .status(),
            404
        );
    }

    #[test]
    fn a_put_under_any_single_vfs_fault_answers_500_or_lands_whole() {
        let mut wire = Vec::new();
        for piece in feed_of(40).chunks(1024) {
            wire.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
            wire.extend_from_slice(piece);
            wire.extend_from_slice(b"\r\n");
        }
        wire.extend_from_slice(b"0\r\n\r\n");
        let put = |router: &Router| {
            let mut parser = RequestParser::new();
            let head = "PUT /v1/datasets/t HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
            let put = parser.feed(head.as_bytes()).unwrap().unwrap();
            let mut stream = std::io::Cursor::new(&wire);
            let mut body = StreamBody::new(&mut parser, &mut stream, BodyFraming::Chunked);
            router.handle_with_body(&put, &mut body).status()
        };
        let report = |router: &Router| {
            let get = request("GET /v1/report?dataset=t&format=json HTTP/1.1\r\n\r\n");
            router.handle(&get).body().to_vec()
        };
        let dir = std::env::temp_dir().join(format!("osdiv-router-faults-{}", std::process::id()));
        let router_on = |durability, chaos: &ChaosVfs| {
            let _ = std::fs::remove_dir_all(&dir);
            let store = TenantStore::open_with(&dir, durability, Arc::new(chaos.clone())).unwrap();
            let registry =
                StudyRegistry::new(RegistryOptions::default()).with_persistence(Arc::new(store));
            Router::new(Arc::new(registry), RouterOptions::default())
        };
        for (durability, ops) in [(Durability::Rename, 2), (Durability::Full, 4)] {
            let chaos = ChaosVfs::new();
            let router = router_on(durability, &chaos);
            assert_eq!(put(&router), 201);
            let expected = report(&router);
            assert_eq!(chaos.trace().len(), ops, "{durability:?}");
            for k in 0..ops {
                let chaos = ChaosVfs::new();
                chaos.set_fail_op(Some(k));
                let router = router_on(durability, &chaos);
                assert_eq!(put(&router), 500, "{durability:?}, op {k}");
                let info = router.handle(&request("GET /v1/datasets/t HTTP/1.1\r\n\r\n"));
                assert_eq!(info.status(), 404, "{durability:?}, op {k}");
                // The failed upload left no temp file, and nothing a
                // restart would register.
                let files: Vec<String> = std::fs::read_dir(&dir)
                    .unwrap()
                    .map(|entry| entry.unwrap().file_name().into_string().unwrap())
                    .collect();
                assert!(
                    !files.iter().any(|file| file.ends_with(".tmp")),
                    "{durability:?}, op {k}: {files:?}"
                );
                let restarted = StudyRegistry::new(RegistryOptions::default())
                    .with_persistence(Arc::new(TenantStore::open_read_only(&dir)));
                restarted.recover();
                assert!(!restarted.contains("t"), "{durability:?}, op {k}");
                chaos.set_fail_op(None);
                assert_eq!(put(&router), 201, "{durability:?}, op {k}");
                assert_eq!(report(&router), expected, "{durability:?}, op {k}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_delete_during_a_snapshot_save_is_a_retryable_conflict() {
        let busy = registry_error_response(&RegistryError::SaveInFlight {
            name: "t".to_string(),
        });
        assert_eq!(busy.status(), 409);
        assert_eq!(busy.header("retry-after"), Some("1"));
        let taken = registry_error_response(&RegistryError::AlreadyExists {
            name: "t".to_string(),
        });
        assert_eq!(taken.status(), 409);
        assert_eq!(taken.header("retry-after"), None);
    }

    #[test]
    fn malformed_feeds_and_unknown_datasets_are_client_errors() {
        let router = test_router();
        let bad = router.handle_with_body(
            &request("PUT /v1/datasets/bad HTTP/1.1\r\n\r\n"),
            &mut BufferedBody::new(b"this is not xml at all".to_vec()),
        );
        assert_eq!(bad.status(), 400, "no entry element");
        assert_eq!(
            router
                .handle(&request("GET /v1/report?dataset=nope HTTP/1.1\r\n\r\n"))
                .status(),
            404
        );
    }

    #[test]
    fn unknown_routes_and_ids_are_404_and_bad_params_400() {
        let router = test_router();
        assert_eq!(
            router
                .handle(&request("GET /nope HTTP/1.1\r\n\r\n"))
                .status(),
            404
        );
        assert_eq!(
            router
                .handle(&request("GET /v1/analyses/nope HTTP/1.1\r\n\r\n"))
                .status(),
            404
        );
        assert_eq!(
            router
                .handle(&request("GET /v1/analyses/kway?k=3 HTTP/1.1\r\n\r\n"))
                .status(),
            400
        );
        assert_eq!(
            router
                .handle(&request("GET /v1/report?format=yaml HTTP/1.1\r\n\r\n"))
                .status(),
            400
        );
        assert_eq!(
            router
                .handle(&request("POST /v1/report HTTP/1.1\r\n\r\n"))
                .status(),
            405
        );
        assert_eq!(
            router
                .handle(&request(
                    "GET /v1/report HTTP/1.1\r\nAccept: image/png\r\n\r\n"
                ))
                .status(),
            406
        );
    }

    #[test]
    fn a_figure2_axis_of_more_than_256_years_is_a_400() {
        // Every year of the axis is a bucket per OS and a line of the
        // document: an unbounded axis lets one query hold a worker.
        let router = test_router();
        for query in [
            "first_year=1993&last_year=2249",
            "first_year=0&last_year=65535&format=csv",
            "first_year=1&last_year=65535&format=csv",
        ] {
            let response = router.handle(&request(&format!(
                "GET /v1/analyses/temporal?{query} HTTP/1.1\r\n\r\n"
            )));
            assert_eq!(response.status(), 400, "{query}");
            let body = String::from_utf8_lossy(response.body()).to_string();
            assert!(body.contains("for parameter last_year"), "{query}: {body}");
        }
        let widest = "GET /v1/analyses/temporal?first_year=1993&last_year=2248 HTTP/1.1\r\n\r\n";
        assert_eq!(router.handle(&request(widest)).status(), 200);
    }

    #[test]
    fn an_escaped_separator_in_a_value_never_hits_another_querys_cached_body() {
        let router = test_router();
        let plain = router.handle(&request(
            "GET /v1/analyses/temporal?first_year=2000&last_year=2005&format=csv HTTP/1.1\r\n\r\n",
        ));
        assert_eq!(plain.status(), 200);
        let body = String::from_utf8_lossy(plain.body()).to_string();
        let years: Vec<u16> = body
            .lines()
            .filter_map(|line| line.split(',').next()?.parse().ok())
            .collect();
        assert!(years.contains(&2000) && years.contains(&2005), "{body}");
        assert!(
            years.iter().all(|year| (2000..=2005).contains(year)),
            "{body}"
        );
        // Decoded, this is one parameter whose value `2000&last_year=2005`
        // is no year: a 400, even though the query it spells is cached.
        let encoded = router.handle(&request(
            "GET /v1/analyses/temporal?first_year=2000%26last_year%3D2005&format=csv HTTP/1.1\r\n\r\n",
        ));
        assert_eq!(encoded.status(), 400);
        assert_eq!(router.cache_hit_count(), 0);
    }

    #[test]
    fn metrics_route_reports_counters_in_exposition_format() {
        let router = test_router();
        // Miss, then hit, on the render cache.
        router.handle(&request(
            "GET /v1/analyses/validity?format=json HTTP/1.1\r\n\r\n",
        ));
        router.handle(&request(
            "GET /v1/analyses/validity?format=json HTTP/1.1\r\n\r\n",
        ));
        let response = router.handle(&request("GET /metrics HTTP/1.1\r\n\r\n"));
        assert_eq!(response.status(), 200);
        assert!(response
            .header("content-type")
            .unwrap()
            .starts_with("text/plain"));
        let body = String::from_utf8_lossy(response.body()).to_string();
        // The /metrics request itself is the third routed request.
        assert!(body.contains("osdiv_requests_served 3\n"), "{body}");
        assert!(body.contains("osdiv_cache_hits 1\n"), "{body}");
        assert!(body.contains("osdiv_cache_misses 1\n"), "{body}");
        assert!(body.contains("# TYPE osdiv_bytes_out counter\n"), "{body}");
        // Bytes out and connections are server-side counters — zero when
        // the router is driven directly.
        assert!(body.contains("osdiv_connections_accepted 0\n"), "{body}");
        assert_eq!(
            router
                .handle(&request("POST /metrics HTTP/1.1\r\n\r\n"))
                .status(),
            405
        );
    }

    #[test]
    fn responses_carry_unique_request_ids_and_routes_record_histograms() {
        let router = test_router();
        let first = router.handle(&request("GET /v1/healthz HTTP/1.1\r\n\r\n"));
        let second = router.handle(&request("GET /v1/report?format=json HTTP/1.1\r\n\r\n"));
        let first_id = first.header("x-request-id").expect("id on healthz");
        let second_id = second.header("x-request-id").expect("id on report");
        assert_ne!(first_id, second_id, "request ids must be unique");
        // Both ids share the per-process prefix and are well-formed.
        let (prefix_a, _) = first_id.split_once('-').unwrap();
        let (prefix_b, _) = second_id.split_once('-').unwrap();
        assert_eq!(prefix_a, prefix_b);

        // The standalone-router path records route-class histograms.
        use crate::metrics::RouteClass;
        assert_eq!(router.metrics().route_observations(RouteClass::Healthz), 1);
        assert_eq!(router.metrics().route_observations(RouteClass::Report), 1);
        let exposition = router.handle(&request("GET /metrics HTTP/1.1\r\n\r\n"));
        let body = String::from_utf8_lossy(exposition.body()).to_string();
        assert!(
            body.contains("osdiv_request_duration_seconds_count{route=\"report\"} 1\n"),
            "{body}"
        );
        assert!(
            body.contains("osdiv_stage_duration_seconds_count{stage=\"render\"} 1\n"),
            "{body}"
        );
    }

    #[test]
    fn access_log_reports_dataset_lifecycle_events() {
        use std::sync::Mutex as StdMutex;

        #[derive(Clone, Default)]
        struct SharedBuf(Arc<StdMutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let sink = SharedBuf::default();
        let log = Arc::new(EventLog::to_writer(Box::new(sink.clone())));
        let dataset = datagen::CalibratedGenerator::new(1).generate();
        let study = Arc::new(Study::from_entries(dataset.entries()));
        let router = Router::with_study(
            study,
            RouterOptions {
                seed: 1,
                enable_dataset_delete: true,
                access_log: Some(Arc::clone(&log)),
                ..RouterOptions::default()
            },
        );
        router.handle(&request("PUT /v1/datasets/alt?seed=5 HTTP/1.1\r\n\r\n"));
        router.handle_with_body(
            &request("PUT /v1/datasets/feed HTTP/1.1\r\n\r\n"),
            &mut BufferedBody::new(feed_of(6)),
        );
        router.handle(&request("DELETE /v1/datasets/feed HTTP/1.1\r\n\r\n"));
        log.flush();
        let logged = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = logged.lines().collect();
        assert_eq!(lines.len(), 3, "{logged}");
        assert!(
            lines[0].contains("\"event\":\"dataset_registered\""),
            "{logged}"
        );
        assert!(lines[0].contains("\"dataset\":\"alt\""), "{logged}");
        assert!(
            lines[1].contains("\"event\":\"dataset_ingested\""),
            "{logged}"
        );
        assert!(lines[1].contains("\"entries\":6"), "{logged}");
        assert!(lines[1].contains("\"parse_us\":"), "{logged}");
        assert!(
            lines[2].contains("\"event\":\"dataset_deleted\""),
            "{logged}"
        );
    }

    #[test]
    fn shutdown_route_raises_the_flag() {
        let router = test_router();
        assert!(!router.shutdown_flag().load(Ordering::SeqCst));
        assert_eq!(
            router
                .handle(&request("GET /v1/shutdown HTTP/1.1\r\n\r\n"))
                .status(),
            405
        );
        let response = router.handle(&request("POST /v1/shutdown HTTP/1.1\r\n\r\n"));
        assert_eq!(response.status(), 200);
        assert!(router.shutdown_flag().load(Ordering::SeqCst));
    }
}

//! `osdiv-serve` — a dependency-free HTTP/1.1 serving layer that turns the
//! memoized [`Study`](osdiv_core::Study) session into a long-running,
//! queryable diversity API.
//!
//! The repo's batch pipeline recomputes everything per invocation; this
//! crate keeps one pre-warmed session resident and serves it over plain
//! `std::net` (no external dependencies, matching the workspace
//! constraint):
//!
//! * [`http`] — an incremental request parser (keep-alive, pipelining,
//!   torn-read safe; malformed or oversized input answers 400/431, never
//!   panics), streamed request bodies ([`http::Body`]) with both
//!   `Content-Length` and `Transfer-Encoding: chunked` framing
//!   ([`http::ChunkedDecoder`]), and a response writer;
//! * [`router`] — registry-driven routes (`/v1/healthz`, `/v1/analyses`,
//!   `/v1/analyses/{id}`, `/v1/report`, the `/v1/datasets` tenancy
//!   routes, `POST /v1/shutdown`) over a shared
//!   [`osdiv_registry::StudyRegistry`]: every analysis route takes
//!   `?dataset={name}`, feed bodies stream through
//!   [`osdiv_registry::FeedIngester`] into new queryable datasets, and
//!   rendered bodies live in a bounded LRU **with their precomputed
//!   ETag** (dataset+seed+hash keyed, `If-None-Match` → 304);
//! * [`server`] — a `TcpListener` accept loop feeding a fixed worker
//!   thread pool, with graceful shutdown from inside (the shutdown route)
//!   or outside ([`ServerHandle::shutdown`]);
//! * [`loadgen`] — a std-`TcpStream` client (GET/HEAD, bodies, chunked
//!   uploads) and an open-loop Poisson-arrival harness
//!   ([`run_open_loop`]) whose p99s are immune to coordinated omission
//!   (used by the criterion serving bench and CI smoke test; closed-loop
//!   serving load comes from `perfbench`);
//! * [`metrics`] — per-route and per-stage latency histograms
//!   ([`osdiv_core::LatencyHistogram`]) exposed at `GET /metrics` in
//!   Prometheus exposition format, request-id minting, build info and
//!   uptime. Every response carries `X-Request-Id`; an optional
//!   JSON-lines access log ([`RouterOptions::access_log`]) records one
//!   structured line per request with per-stage timings;
//! * [`debug`] — the gated `GET /v1/debug/*` introspection surface
//!   (`--enable-debug` + the ingest bearer token): the flight-recorder
//!   ring as Chrome trace-event JSON (`/v1/debug/spans`, Perfetto-
//!   loadable, joined to responses by `X-Request-Id`), per-tenant
//!   lifecycle state (`/v1/debug/registry`) and worker-pool occupancy
//!   (`/v1/debug/pool`).
//!
//! `GET /v1/analyses/{id}` responses are byte-identical to
//! `osdiv {id} --format <f>` for the same seed, because both call
//! [`osdiv_core::analysis_sections`] and the same renderer.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use datagen::CalibratedGenerator;
//! use osdiv_core::Study;
//! use osdiv_serve::{loadgen, Router, RouterOptions, Server, ServerOptions};
//!
//! // One shared session; `run_all` would pre-warm every analysis. It
//! // becomes the pinned "default" dataset of the router's registry —
//! // `Router::new` accepts a full multi-dataset `StudyRegistry` instead.
//! let dataset = CalibratedGenerator::new(1).generate();
//! let study = Arc::new(Study::from_entries(dataset.entries()));
//!
//! let router = Arc::new(Router::with_study(study, RouterOptions { seed: 1, ..Default::default() }));
//! let server = Server::bind("127.0.0.1:0", router, ServerOptions::default()).unwrap();
//! let handle = server.spawn();
//!
//! let health = loadgen::get(handle.addr(), "/v1/healthz").unwrap();
//! assert_eq!(health.status, 200);
//! assert!(health.body_string().contains("\"status\":\"ok\""));
//!
//! let table1 = loadgen::get(handle.addr(), "/v1/analyses/validity?format=csv").unwrap();
//! assert!(table1.body_string().starts_with("OS,Valid"));
//!
//! handle.shutdown().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod debug;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod router;
pub mod server;

pub use http::{
    Body, BodyError, BodyFraming, BufferedBody, ChunkedDecoder, EmptyBody, Request, RequestParser,
    Response, StreamBody,
};
pub use loadgen::{run_open_loop, ClientResponse, OpenLoopConfig, OpenLoopReport};
pub use metrics::{RouteClass, ServeMetrics, Stage};
pub use router::{RequestTrace, Router, RouterOptions, DEFAULT_SLOW_REQUEST_US};
pub use server::{default_threads, Server, ServerHandle, ServerOptions};

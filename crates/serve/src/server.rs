//! The TCP front end: a blocking accept loop feeding a fixed-size worker
//! thread pool, keep-alive connection handling, and graceful shutdown.
//!
//! Shutdown can be triggered from inside ([`crate::Router`]'s
//! `POST /v1/shutdown`) or outside ([`ServerHandle::shutdown`]); both raise
//! the same flag. The accept loop is woken with a loop-back connection,
//! stops accepting, closes the work queue and joins every worker — workers
//! finish the connection they are serving first, so in-flight responses
//! are never cut.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use osdiv_core::{obs, FlightRecorder, JsonLine};
use parking_lot::Mutex;

use crate::http::{Body, BodyError, RequestParser, Response, StreamBody, MAX_BODY_BYTES};
use crate::metrics::{Counter, Gauge, RouteClass, ServeMetrics, Stage};
use crate::router::{micros_since, Router};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Worker threads (each serves one connection at a time).
    pub threads: usize,
    /// Idle-read timeout of a keep-alive connection.
    pub read_timeout: Duration,
    /// Requests served on one connection before it is closed.
    pub max_keep_alive_requests: usize,
    /// Wall-clock budget for receiving one request head: a client that
    /// trickles bytes (slow loris) is answered 408 and closed once the
    /// budget is spent, no matter how regularly it keeps the socket warm.
    /// Also the socket write timeout, so a peer that stops reading its
    /// response cannot pin a worker either.
    pub io_timeout: Duration,
    /// Admission-control high-water mark: a connection dequeued while
    /// this many more still wait is shed with a pre-parse `503` +
    /// `Retry-After`. Ingestion requests shed earlier, at half this
    /// depth, so cached reads degrade last.
    pub shed_queue_depth: usize,
}

impl ServerOptions {
    /// The default tuning for a pool of `threads` workers: admission
    /// control sheds once 16 connections per worker wait.
    pub fn for_threads(threads: usize) -> Self {
        ServerOptions {
            threads,
            read_timeout: Duration::from_secs(5),
            max_keep_alive_requests: 1000,
            io_timeout: Duration::from_secs(10),
            shed_queue_depth: threads.saturating_mul(16),
        }
    }
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions::for_threads(default_threads())
    }
}

/// The default worker count: the machine's parallelism, clamped to 2–8.
pub fn default_threads() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(2, 8)
}

/// A bound-but-not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    router: Arc<Router>,
    options: ServerOptions,
}

impl Server {
    /// Binds an address (`127.0.0.1:0` asks the OS for an ephemeral port —
    /// read the result back with [`Server::local_addr`]).
    pub fn bind(
        addr: impl ToSocketAddrs,
        router: Arc<Router>,
        options: ServerOptions,
    ) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            router,
            options,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("a bound listener has a local address")
    }

    /// Runs the accept loop on the calling thread until the shutdown flag
    /// is raised, then drains the worker pool and returns.
    pub fn run(self) -> io::Result<()> {
        let addr = self.local_addr();
        let shutdown = self.router.shutdown_flag();
        let (sender, receiver) = mpsc::channel::<TcpStream>();
        let receiver = Arc::new(Mutex::new(receiver));

        self.router
            .metrics()
            .set(Gauge::WorkersTotal, self.options.threads.max(1) as u64);
        let workers: Vec<thread::JoinHandle<()>> = (0..self.options.threads.max(1))
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                let router = Arc::clone(&self.router);
                let options = self.options.clone();
                let shutdown = Arc::clone(&shutdown);
                thread::spawn(move || loop {
                    let stream = { receiver.lock().recv() };
                    match stream {
                        Err(_) => return, // queue closed: shutdown
                        Ok(mut stream) => {
                            let metrics = router.metrics();
                            metrics.lower(Gauge::DispatchQueueDepth);
                            metrics.raise(Gauge::WorkersBusy);
                            // Admission control, before a single byte is
                            // parsed: when the backlog behind this
                            // connection is still past the high-water
                            // mark, answering cheaply and moving on
                            // drains the queue far faster than serving
                            // would.
                            let depth = metrics.level(Gauge::DispatchQueueDepth);
                            if depth > options.shed_queue_depth as u64 {
                                shed_connection(&mut stream, metrics);
                            } else {
                                handle_connection(&router, stream, &options, &shutdown, addr);
                            }
                            metrics.lower(Gauge::WorkersBusy);
                        }
                    }
                })
            })
            .collect();

        for stream in self.listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    let metrics = self.router.metrics();
                    metrics.add(Counter::ConnectionsAccepted, 1);
                    metrics.raise(Gauge::DispatchQueueDepth);
                    // A send only fails after every worker exited, which
                    // cannot happen before the queue is closed below.
                    let _ = sender.send(stream);
                }
                Err(error) if error.kind() == ErrorKind::ConnectionAborted => continue,
                Err(error) => {
                    shutdown.store(true, Ordering::SeqCst);
                    drop(sender);
                    for worker in workers {
                        let _ = worker.join();
                    }
                    return Err(error);
                }
            }
        }

        drop(sender);
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }

    /// Runs the accept loop on a background thread, returning a handle for
    /// the bound address and for shutting the server down.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let shutdown = self.router.shutdown_flag();
        let thread = thread::spawn(move || self.run());
        ServerHandle {
            addr,
            shutdown,
            thread,
        }
    }
}

/// A handle to a [`Server::spawn`]ed server.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raises the shutdown flag, wakes the accept loop and joins it (in-
    /// flight connections finish first).
    pub fn shutdown(self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        wake_accept_loop(self.addr);
        self.thread
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

/// Unblocks a `TcpListener::accept` stuck with no incoming connections.
fn wake_accept_loop(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

/// The static overload response: written without parsing a byte of the
/// request, so the reject path costs a write and a close.
const SHED_RESPONSE: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\n\
Retry-After: 1\r\n\
Content-Type: text/plain; charset=utf-8\r\n\
Content-Length: 9\r\n\
Connection: close\r\n\r\n\
overload\n";

/// Cheap-rejects one connection under overload: static `503` +
/// `Retry-After`, no parsing, then close.
fn shed_connection(stream: &mut TcpStream, metrics: &ServeMetrics) {
    metrics.add(Counter::Shed, 1);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    if stream.write_all(SHED_RESPONSE).is_ok() {
        metrics.add(Counter::BytesOut, SHED_RESPONSE.len() as u64);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Best-effort RST avoidance when closing a connection whose request body
/// was never fully read: signal FIN, then discard (bounded, with a short
/// timeout) whatever the peer keeps sending, so the already-written error
/// response survives long enough to be read.
fn lame_duck_drain(stream: &mut TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 8192];
    let mut budget: usize = 4 * 1024 * 1024;
    loop {
        match stream.read(&mut sink) {
            Ok(0) => break,
            Ok(n) if n >= budget => break,
            Ok(n) => budget -= n,
            Err(_) => break,
        }
    }
}

/// Serves one connection until it closes, errors, exhausts its keep-alive
/// budget, or the server shuts down.
fn handle_connection(
    router: &Router,
    mut stream: TcpStream,
    options: &ServerOptions,
    shutdown: &AtomicBool,
    addr: SocketAddr,
) {
    let _ = stream.set_read_timeout(Some(options.read_timeout));
    let _ = stream.set_write_timeout(Some(options.io_timeout));
    let _ = stream.set_nodelay(true);
    let metrics = Arc::clone(router.metrics());
    metrics.raise(Gauge::ConnectionsActive);
    let record_write = |written: io::Result<usize>| -> bool {
        match written {
            Ok(bytes) => {
                metrics.add(Counter::BytesOut, bytes as u64);
                true
            }
            Err(_) => false,
        }
    };
    let mut parser = RequestParser::new();
    let mut served = 0usize;
    let mut chunk = [0u8; 4096];

    'connection: loop {
        // Parse the next request: buffered bytes first (pipelining), then
        // reads off the socket, each appended unparsed so the parse at the
        // top of the loop is the only scan of the buffer. `request_started`
        // anchors at the first activity belonging to this request — not at
        // keep-alive idle time — so the parse stage measures head transfer
        // + parsing.
        let mut request_started: Option<Instant> = None;
        let request = loop {
            let attempt_started = Instant::now();
            match parser.try_parse() {
                Ok(Some(request)) => {
                    request_started.get_or_insert(attempt_started);
                    break request;
                }
                Ok(None) => {}
                Err(violation) => {
                    record_write(Response::from(&violation).write_to(&mut stream, false, false));
                    break 'connection;
                }
            }
            // Once a request is in flight its head transfer runs on a
            // wall-clock budget: a slow-loris client trickling one byte
            // per read keeps every *individual* read under the idle
            // timeout, so each read's deadline shrinks to whatever
            // budget remains — total pin time is bounded by
            // `io_timeout`, not by bytes × read_timeout.
            let remaining =
                request_started.map(|started| options.io_timeout.saturating_sub(started.elapsed()));
            let read = match remaining {
                Some(remaining) if remaining.is_zero() => Err(ErrorKind::TimedOut.into()),
                Some(remaining) => {
                    let _ = stream.set_read_timeout(Some(options.read_timeout.min(remaining)));
                    stream.read(&mut chunk)
                }
                None => stream.read(&mut chunk),
            };
            match read {
                Ok(0) => break 'connection, // peer closed
                Ok(n) => {
                    request_started.get_or_insert_with(Instant::now);
                    parser.feed_raw(&chunk[..n]);
                }
                Err(error)
                    if error.kind() == ErrorKind::WouldBlock
                        || error.kind() == ErrorKind::TimedOut =>
                {
                    if request_started.is_some() {
                        // Mid-request stall or a spent budget, not
                        // keep-alive idleness: tell the peer before
                        // closing.
                        metrics.add(Counter::IoTimeouts, 1);
                        record_write(
                            Response::text(408, "request header read timed out").write_to(
                                &mut stream,
                                false,
                                false,
                            ),
                        );
                    }
                    break 'connection;
                }
                Err(_) => break 'connection,
            }
        };
        // Restore the idle timeout the budget tracking above may have
        // shrunk — body reads and the next keep-alive request start
        // from the configured value.
        let _ = stream.set_read_timeout(Some(options.read_timeout));
        let request_started = request_started.unwrap_or_else(Instant::now);
        let mut trace = router.begin_trace();
        trace.route = RouteClass::classify(&request.method, &request.path);
        trace.parse_us = micros_since(request_started);
        metrics.record_stage_us(Stage::Parse, trace.parse_us);
        // Pre-mint the request's root span: routing runs under its trace
        // scope so router/ingester spans nest under it, and the record
        // itself is written after the response — once the duration is
        // known. The span's start is back-dated to the first request byte
        // on the recorder clock.
        let recorder = FlightRecorder::global();
        let request_span = recorder.next_span_id();
        let request_start_us = recorder
            .now_us()
            .saturating_sub(micros_since(request_started));

        // The body streams through the router: ingestion routes consume it
        // chunk by chunk (never buffering the whole payload), every other
        // route leaves it to be drained — bounded — below.
        let framing = match request.body_framing() {
            Ok(framing) => framing,
            Err(violation) => {
                record_write(Response::from(&violation).write_to(&mut stream, false, false));
                break;
            }
        };
        let mut body = StreamBody::new(&mut parser, &mut stream, framing);
        served += 1;
        // Routes that do not consume the body get it drained (bounded)
        // *before* routing: an oversized or malformed upload must be
        // rejected before the route runs its side effect. Draining after
        // routing used to register a `?seed=` dataset and then replace
        // its 201 with a 413 — the side effect without the success.
        // Graceful degradation: ingestion is the expensive, deferrable
        // work, so it sheds at *half* the high-water mark — cached reads
        // keep being served while the queue recovers. The 503 goes out
        // before a single body byte is consumed.
        let soft_watermark = (options.shed_queue_depth / 2).max(1);
        let rejected = if trace.route == RouteClass::Ingest
            && metrics.level(Gauge::DispatchQueueDepth) > soft_watermark as u64
        {
            metrics.add(Counter::Shed, 1);
            Some(
                Response::text(503, "ingestion shedding under load")
                    .with_header("Retry-After", "1"),
            )
        } else if router.consumes_body(&request) || body.finished() {
            None
        } else {
            match body.drain(MAX_BODY_BYTES) {
                Ok(_) => None,
                Err(BodyError::TooLarge { .. }) => {
                    Some(Response::text(413, "request body too large"))
                }
                Err(BodyError::Violation(violation)) => Some(Response::from(&violation)),
                Err(BodyError::Io(_)) => break,
            }
        };
        let rejected_before_routing = rejected.is_some();
        let response = match rejected {
            // Rejected requests never reach the router, but still carry
            // their minted id — the client can quote it either way.
            Some(response) => response.with_header("X-Request-Id", trace.id.clone()),
            None => {
                let _scope = obs::trace_scope(request_span, trace.trace_key);
                router.handle_traced(&request, &mut body, &mut trace)
            }
        };
        let mut keep_alive = request.keep_alive()
            && served < options.max_keep_alive_requests
            && !shutdown.load(Ordering::SeqCst)
            && !rejected_before_routing;
        // Whether unread body bytes remain when the response is written —
        // closing such a connection needs the lame-duck dance below.
        let mut body_pending = rejected_before_routing;
        if !body.finished() && !rejected_before_routing {
            // Only a consuming route (feed ingestion) leaves the body
            // unfinished here, and only by failing partway through it:
            // answer, then close — the unread body makes keep-alive
            // unsound. The peer may still be mid-upload: without the
            // lame-duck half-close below, closing now can RST the
            // connection and destroy the diagnostic before the client
            // reads it.
            keep_alive = false;
            body_pending = true;
        }
        let status = response.status();
        let write_started = Instant::now();
        let written = response.write_to(&mut stream, keep_alive, request.method == "HEAD");
        trace.write_us = micros_since(write_started);
        metrics.record_stage_us(Stage::Write, trace.write_us);
        // The server owns the full span — head transfer through response
        // write — so the route-class histogram includes parse and write
        // time the standalone-router path cannot see.
        let total_us = micros_since(request_started);
        metrics.record_route_us(trace.route, total_us);
        obs::record_request_span(
            request_span,
            trace.trace_key,
            trace.route.as_str(),
            request_start_us,
            total_us,
        );
        if let Some(log) = router.access_log() {
            let slow = total_us >= router.slow_request_us();
            let mut line = JsonLine::event(if slow { "slow_request" } else { "request" });
            line.str_field("id", &trace.id);
            line.str_field("method", &request.method);
            line.str_field("path", &request.path);
            line.str_field("route", trace.route.as_str());
            line.u64_field("status", u64::from(status));
            line.u64_field("bytes", written.as_ref().map(|b| *b as u64).unwrap_or(0));
            line.u64_field("parse_us", trace.parse_us);
            line.u64_field("cache_us", trace.cache_us);
            line.u64_field("render_us", trace.render_us);
            line.u64_field("write_us", trace.write_us);
            line.u64_field("total_us", total_us);
            line.bool_field("cache_hit", trace.cache_hit);
            log.emit(&line.finish());
        }
        if !record_write(written) {
            break;
        }
        if body_pending {
            // Closing with unread bytes in the receive queue makes the OS
            // answer the peer's in-flight upload with a RST, which can
            // destroy the response before the client reads it. Half-close
            // the write side and drain (bounded) what the peer already
            // sent so the error diagnostic actually arrives.
            lame_duck_drain(&mut stream);
            break;
        }
        if shutdown.load(Ordering::SeqCst) {
            // This worker may have just handled POST /v1/shutdown: wake the
            // accept loop so the server can wind down.
            wake_accept_loop(addr);
            break;
        }
        if !keep_alive {
            break;
        }
    }
    metrics.lower(Gauge::ConnectionsActive);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_thread_count_is_clamped() {
        let threads = default_threads();
        assert!((2..=8).contains(&threads));
    }
}

//! A from-scratch, incremental HTTP/1.1 message layer over `std` only.
//!
//! The [`RequestParser`] accumulates bytes as they arrive from the socket
//! and yields a [`Request`] once a complete head (`…\r\n\r\n`) is
//! buffered, so torn reads of any granularity — one byte at a time, split
//! inside the request line, split inside a header value — parse exactly
//! like a single contiguous read. Pipelined requests are supported: bytes
//! past the first head stay buffered for the next `try_parse`.
//!
//! Request **bodies** are streamed, not slurped: [`Body`] yields decoded
//! chunks as they arrive, with both `Content-Length` and
//! `Transfer-Encoding: chunked` framing ([`ChunkedDecoder`]) — the
//! ingestion routes consume arbitrarily large feeds without the server
//! ever holding the whole payload.
//!
//! Malformed input never panics. Every violation maps to a client error:
//! a broken request line, header, percent-encoding, chunk-size line or
//! chunk delimiter is a [`HttpViolation::BadRequest`] (400) and an
//! oversized request line, header block or chunk-size/trailer line is a
//! [`HttpViolation::HeadTooLarge`] (431).

use std::fmt;
use std::io::{self, Read, Write};

/// Cap on the whole request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Cap on the request line alone.
pub const MAX_REQUEST_LINE_BYTES: usize = 8 * 1024;

/// Cap on a request body the server is willing to drain on routes that do
/// not consume it (ingestion routes stream under their own budgets).
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// Cap on one chunk-size line (hex size + extensions) of a chunked body.
pub const MAX_CHUNK_LINE_BYTES: usize = 256;

/// Cap on the trailer section after the last chunk of a chunked body.
pub const MAX_TRAILER_BYTES: usize = 4 * 1024;

/// The request fields that may hold only one value (RFC 9110 §5.3): a head
/// that repeats one with a different value is a 400 — a differing
/// `Host` (RFC 9112 §3.2) or `Content-Length` (RFC 9112 §6.3) would let
/// two hops act on different values, and so would a differing
/// `Authorization`. [`Request::header`] reads these; every other field is
/// a list over all its field lines.
pub const SINGLETON_HEADERS: [&str; 3] = ["authorization", "content-length", "host"];

/// A protocol violation detected while parsing a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpViolation {
    /// Malformed request line, header or encoding — answered with 400.
    BadRequest(String),
    /// Request line or header block over the configured caps — answered
    /// with 431 (Request Header Fields Too Large).
    HeadTooLarge,
}

impl HttpViolation {
    /// The status code the violation is answered with.
    pub fn status(&self) -> u16 {
        match self {
            HttpViolation::BadRequest(_) => 400,
            HttpViolation::HeadTooLarge => 431,
        }
    }
}

impl fmt::Display for HttpViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpViolation::BadRequest(reason) => write!(f, "bad request: {reason}"),
            HttpViolation::HeadTooLarge => f.write_str("request head too large"),
        }
    }
}

impl std::error::Error for HttpViolation {}

/// A parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method, as sent (e.g. `GET`).
    pub method: String,
    /// The percent-decoded path component of the target.
    pub path: String,
    /// The percent-decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Whether the request is HTTP/1.1 (`false` = HTTP/1.0).
    pub http11: bool,
    /// The header fields, in order of appearance (names lower-cased).
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// The value of a singleton header (one of [`SINGLETON_HEADERS`];
    /// case-insensitive name lookup). The parser refuses a head that
    /// repeats a singleton with a different value, so its first field line
    /// is its value. Any other name is a list and gets `None`: read it
    /// with `header_items`.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = SINGLETON_HEADERS
            .iter()
            .find(|singleton| singleton.eq_ignore_ascii_case(name))?;
        self.header_lines(name).next()
    }

    /// Every field line of a header, in order of appearance; `name` is
    /// lower-case.
    pub(crate) fn header_lines<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.headers
            .iter()
            .filter(move |(n, _)| n == name)
            .map(|(_, value)| value.as_str())
    }

    /// The comma-separated items of every field line of a list-valued
    /// header (RFC 9110 §5.3), trimmed, empty items skipped; `name` is
    /// lower-case.
    pub(crate) fn header_items<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.header_lines(name)
            .flat_map(|value| value.split(','))
            .map(str::trim)
            .filter(|item| !item.is_empty())
    }

    /// Whether the connection should be kept alive after the response.
    /// `Connection` is a list of options (RFC 9110 §7.6.1): a `close`
    /// anywhere closes; otherwise HTTP/1.1 defaults to keep-alive and
    /// HTTP/1.0 to close unless a `keep-alive` option is listed.
    pub fn keep_alive(&self) -> bool {
        let mut keep_alive = self.http11;
        for option in self.header_items("connection") {
            if option.eq_ignore_ascii_case("close") {
                return false;
            }
            keep_alive |= option.eq_ignore_ascii_case("keep-alive");
        }
        keep_alive
    }

    /// The declared body length (0 when absent). A `Content-Length` that
    /// is not all ASCII digits is a 400 (the parser already refused
    /// differing repeats).
    pub fn content_length(&self) -> Result<usize, HttpViolation> {
        let Some(raw) = self.header("content-length") else {
            return Ok(0);
        };
        let invalid = || HttpViolation::BadRequest(format!("invalid Content-Length {raw:?}"));
        if !raw.bytes().all(|b| b.is_ascii_digit()) {
            return Err(invalid());
        }
        raw.parse::<usize>().map_err(|_| invalid())
    }

    /// The body framing the head declares: `Transfer-Encoding: chunked`
    /// or `Content-Length`. A head declaring both is a 400, as is any
    /// other list of transfer codings over all `Transfer-Encoding` field
    /// lines (this server implements only chunked, applied once): a
    /// proxy that framed such a message differently could smuggle a
    /// second request past it (RFC 9112 §6.1, §6.3).
    pub fn body_framing(&self) -> Result<BodyFraming, HttpViolation> {
        if self.header_lines("transfer-encoding").next().is_none() {
            return Ok(BodyFraming::Length(self.content_length()?));
        }
        if self.header("content-length").is_some() {
            return Err(HttpViolation::BadRequest(
                "both Transfer-Encoding and Content-Length".to_string(),
            ));
        }
        let codings: Vec<&str> = self.header_items("transfer-encoding").collect();
        match codings.as_slice() {
            [coding] if coding.eq_ignore_ascii_case("chunked") => Ok(BodyFraming::Chunked),
            _ => Err(HttpViolation::BadRequest(format!(
                "unsupported transfer coding {:?} (only \"chunked\")",
                codings.join(", ")
            ))),
        }
    }
}

/// How a request body is delimited on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyFraming {
    /// A `Content-Length` body of exactly this many bytes (0 = no body).
    Length(usize),
    /// A `Transfer-Encoding: chunked` body.
    Chunked,
}

/// Incremental request-head parser (see the module docs).
#[derive(Debug, Default)]
pub struct RequestParser {
    buffer: Vec<u8>,
}

impl RequestParser {
    /// An empty parser.
    pub fn new() -> Self {
        RequestParser::default()
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Appends a chunk and attempts to parse one request head.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Option<Request>, HttpViolation> {
        self.buffer.extend_from_slice(chunk);
        self.try_parse()
    }

    /// Attempts to parse one request head from the buffered bytes. Returns
    /// `Ok(None)` while the head is still incomplete; consumed bytes are
    /// removed from the buffer (pipelined data stays).
    pub fn try_parse(&mut self) -> Result<Option<Request>, HttpViolation> {
        match find(&self.buffer, b"\r\n\r\n") {
            Some(end) => {
                if end > MAX_HEAD_BYTES {
                    return Err(HttpViolation::HeadTooLarge);
                }
                // `end` is the match offset `find` just returned; an empty
                // fallback would simply parse as a 400.
                let request = parse_head(self.buffer.get(..end).unwrap_or_default())?;
                self.buffer.drain(..end + 4);
                Ok(Some(request))
            }
            None => {
                if self.buffer.len() > MAX_HEAD_BYTES {
                    return Err(HttpViolation::HeadTooLarge);
                }
                // No complete request line either: a line longer than the
                // cap can never become valid.
                if find(&self.buffer, b"\r\n").is_none()
                    && self.buffer.len() > MAX_REQUEST_LINE_BYTES
                {
                    return Err(HttpViolation::HeadTooLarge);
                }
                Ok(None)
            }
        }
    }

    /// Drains up to `n` already-buffered body bytes (after a parsed head),
    /// returning how many were removed. The caller reads any remainder
    /// straight off the socket.
    pub fn drain_body(&mut self, n: usize) -> usize {
        let take = n.min(self.buffer.len());
        self.buffer.drain(..take);
        take
    }

    /// Appends raw bytes **without** attempting a head parse — how body
    /// readers push socket reads through the parser buffer so bytes beyond
    /// the body end stay queued for the next pipelined request.
    pub fn feed_raw(&mut self, chunk: &[u8]) {
        self.buffer.extend_from_slice(chunk);
    }

    /// The buffered, not-yet-consumed bytes.
    pub fn peek_buffered(&self) -> &[u8] {
        &self.buffer
    }

    /// Removes up to `n` buffered bytes and returns them.
    pub fn take_body(&mut self, n: usize) -> Vec<u8> {
        let take = n.min(self.buffer.len());
        self.buffer.drain(..take).collect()
    }
}

/// An error surfaced while reading a request body.
#[derive(Debug)]
pub enum BodyError {
    /// The body framing is malformed (answered with the violation status;
    /// the connection cannot be kept alive).
    Violation(HttpViolation),
    /// The peer closed or the socket failed before the body completed.
    Io(io::Error),
    /// The body exceeded the byte cap a draining route imposed (413).
    TooLarge {
        /// The cap that was crossed.
        limit: usize,
    },
}

impl fmt::Display for BodyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BodyError::Violation(violation) => violation.fmt(f),
            BodyError::Io(error) => write!(f, "i/o error reading the body: {error}"),
            BodyError::TooLarge { limit } => write!(f, "request body exceeds {limit} bytes"),
        }
    }
}

impl std::error::Error for BodyError {}

impl From<HttpViolation> for BodyError {
    fn from(violation: HttpViolation) -> Self {
        BodyError::Violation(violation)
    }
}

impl From<io::Error> for BodyError {
    fn from(error: io::Error) -> Self {
        BodyError::Io(error)
    }
}

/// A streamed request body: decoded chunks are pulled one at a time, so
/// consumers (feed ingestion) never hold the whole payload.
pub trait Body {
    /// Clears `out`, appends the next decoded chunk, and returns `true`;
    /// returns `false` once the body is complete. A returned chunk is
    /// never empty.
    fn next_chunk(&mut self, out: &mut Vec<u8>) -> Result<bool, BodyError>;

    /// Whether the body has been fully consumed.
    fn finished(&self) -> bool;

    /// Reads the body to its end, discarding the bytes, failing with
    /// [`BodyError::TooLarge`] once more than `cap` bytes have appeared.
    /// Returns the number of bytes drained.
    fn drain(&mut self, cap: usize) -> Result<usize, BodyError> {
        let mut total = 0usize;
        let mut chunk = Vec::new();
        while self.next_chunk(&mut chunk)? {
            total += chunk.len();
            if total > cap {
                return Err(BodyError::TooLarge { limit: cap });
            }
        }
        Ok(total)
    }
}

/// The body of a request that has none (and the stand-in used by
/// body-less entry points like [`crate::Router::handle`]).
#[derive(Debug, Default)]
pub struct EmptyBody;

impl Body for EmptyBody {
    fn next_chunk(&mut self, _out: &mut Vec<u8>) -> Result<bool, BodyError> {
        Ok(false)
    }

    fn finished(&self) -> bool {
        true
    }
}

/// A [`Body`] over a whole in-memory payload — one chunk, used by tests
/// and in-process callers.
#[derive(Debug)]
pub struct BufferedBody {
    payload: Vec<u8>,
    consumed: bool,
}

impl BufferedBody {
    /// Wraps a payload.
    pub fn new(payload: Vec<u8>) -> Self {
        BufferedBody {
            consumed: payload.is_empty(),
            payload,
        }
    }
}

impl Body for BufferedBody {
    fn next_chunk(&mut self, out: &mut Vec<u8>) -> Result<bool, BodyError> {
        out.clear();
        if self.consumed {
            return Ok(false);
        }
        out.append(&mut self.payload);
        self.consumed = true;
        Ok(true)
    }

    fn finished(&self) -> bool {
        self.consumed
    }
}

/// A [`Body`] streaming off a live connection: bytes already buffered by
/// the head parser are consumed first (pipelining), further bytes are read
/// from the socket **through** the parser buffer, so anything past the
/// body end stays queued for the next request.
pub struct StreamBody<'a, R: Read> {
    parser: &'a mut RequestParser,
    stream: &'a mut R,
    framing: FramingState,
}

#[derive(Debug)]
enum FramingState {
    Length { remaining: usize },
    Chunked { decoder: ChunkedDecoder },
}

impl<'a, R: Read> StreamBody<'a, R> {
    /// Wraps a connection positioned right after a parsed request head.
    pub fn new(parser: &'a mut RequestParser, stream: &'a mut R, framing: BodyFraming) -> Self {
        let framing = match framing {
            BodyFraming::Length(remaining) => FramingState::Length { remaining },
            BodyFraming::Chunked => FramingState::Chunked {
                decoder: ChunkedDecoder::new(),
            },
        };
        StreamBody {
            parser,
            stream,
            framing,
        }
    }

    /// Reads more bytes off the socket into the parser buffer.
    fn fill(&mut self) -> Result<(), BodyError> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(BodyError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside the request body",
            )));
        }
        self.parser.feed_raw(chunk.get(..n).unwrap_or(&chunk));
        Ok(())
    }
}

impl<R: Read> Body for StreamBody<'_, R> {
    fn next_chunk(&mut self, out: &mut Vec<u8>) -> Result<bool, BodyError> {
        out.clear();
        loop {
            if self.finished() {
                return Ok(false);
            }
            if self.parser.buffered() == 0 {
                self.fill()?;
            }
            match &mut self.framing {
                FramingState::Length { remaining } => {
                    let take = (*remaining).min(self.parser.buffered());
                    let taken = self.parser.take_body(take);
                    *remaining = remaining.saturating_sub(taken.len());
                    out.extend_from_slice(&taken);
                    return Ok(true);
                }
                FramingState::Chunked { decoder } => {
                    let consumed = decoder.decode(self.parser.peek_buffered(), out)?;
                    self.parser.drain_body(consumed);
                    if !out.is_empty() {
                        return Ok(true);
                    }
                    if decoder.is_done() {
                        return Ok(false);
                    }
                    // Only framing bytes were consumed; keep reading.
                }
            }
        }
    }

    fn finished(&self) -> bool {
        match &self.framing {
            FramingState::Length { remaining } => *remaining == 0,
            FramingState::Chunked { decoder } => decoder.is_done(),
        }
    }
}

/// Incremental decoder for `Transfer-Encoding: chunked` bodies.
///
/// Feed it whatever bytes are available with [`decode`](Self::decode); it
/// appends the decoded payload to the sink and reports how many input
/// bytes it consumed, leaving anything past the final terminator (the next
/// pipelined request) untouched. Malformed framing is a 400, an oversized
/// chunk-size or trailer line a 431 — never a panic.
#[derive(Debug)]
pub struct ChunkedDecoder {
    state: ChunkState,
    /// Partial chunk-size or trailer line carried across feeds.
    line: Vec<u8>,
    trailer_bytes: usize,
    /// Bytes examined across all `decode` calls — a work counter for the
    /// complexity-guard tests. Decoding must stay linear in input size no
    /// matter how the input is split across feeds.
    work: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    /// Reading a chunk-size line.
    Size,
    /// Reading chunk payload (bytes remaining).
    Data(usize),
    /// Expecting the `\r` after a chunk's payload.
    DataCr,
    /// Expecting the `\n` after a chunk's payload.
    DataLf,
    /// Reading (and discarding) trailer lines after the last chunk.
    Trailer,
    /// The terminator has been consumed; the body is complete.
    Done,
}

impl Default for ChunkedDecoder {
    fn default() -> Self {
        ChunkedDecoder::new()
    }
}

impl ChunkedDecoder {
    /// A decoder positioned before the first chunk-size line.
    pub fn new() -> Self {
        ChunkedDecoder {
            state: ChunkState::Size,
            line: Vec::new(),
            trailer_bytes: 0,
            work: 0,
        }
    }

    /// Whether the final terminator has been consumed.
    pub fn is_done(&self) -> bool {
        self.state == ChunkState::Done
    }

    /// Total bytes examined so far (the complexity-guard work metric).
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Decodes as much of `input` as possible, appending payload bytes to
    /// `sink`. Returns the number of input bytes consumed; bytes past the
    /// body terminator are never consumed.
    pub fn decode(&mut self, input: &[u8], sink: &mut Vec<u8>) -> Result<usize, HttpViolation> {
        let mut pos = 0;
        while pos < input.len() {
            match self.state {
                ChunkState::Done => break,
                ChunkState::Size => {
                    let Some(line) = self.take_line(input, &mut pos, MAX_CHUNK_LINE_BYTES)? else {
                        break;
                    };
                    self.state = match parse_chunk_size(&line)? {
                        0 => ChunkState::Trailer,
                        size => ChunkState::Data(size),
                    };
                }
                ChunkState::Data(remaining) => {
                    let take = remaining.min(input.len().saturating_sub(pos));
                    let Some(payload) = pos.checked_add(take).and_then(|end| input.get(pos..end))
                    else {
                        break; // unreachable: take is clamped to the input
                    };
                    sink.extend_from_slice(payload);
                    pos += take;
                    self.work += take as u64;
                    self.state = match remaining.saturating_sub(take) {
                        0 => ChunkState::DataCr,
                        left => ChunkState::Data(left),
                    };
                }
                ChunkState::DataCr => {
                    if input.get(pos) != Some(&b'\r') {
                        return Err(HttpViolation::BadRequest(
                            "chunk payload is not terminated by CRLF".to_string(),
                        ));
                    }
                    pos += 1;
                    self.work += 1;
                    self.state = ChunkState::DataLf;
                }
                ChunkState::DataLf => {
                    if input.get(pos) != Some(&b'\n') {
                        return Err(HttpViolation::BadRequest(
                            "chunk payload is not terminated by CRLF".to_string(),
                        ));
                    }
                    pos += 1;
                    self.work += 1;
                    self.state = ChunkState::Size;
                }
                ChunkState::Trailer => {
                    let Some(line) = self.take_line(
                        input,
                        &mut pos,
                        MAX_TRAILER_BYTES.saturating_sub(self.trailer_bytes),
                    )?
                    else {
                        break;
                    };
                    self.trailer_bytes += line.len() + 2;
                    if line.is_empty() {
                        self.state = ChunkState::Done;
                    }
                    // Trailer fields themselves are ignored.
                }
            }
        }
        Ok(pos)
    }

    /// Accumulates bytes into `self.line` until a LF; returns the complete
    /// line (CR stripped) or `None` if the input ran out first. A line
    /// over `cap` bytes is a 431.
    fn take_line(
        &mut self,
        input: &[u8],
        pos: &mut usize,
        cap: usize,
    ) -> Result<Option<Vec<u8>>, HttpViolation> {
        while let Some(&byte) = input.get(*pos) {
            *pos += 1;
            self.work += 1;
            if byte == b'\n' {
                if self.line.last() != Some(&b'\r') {
                    return Err(HttpViolation::BadRequest(
                        "chunk framing line not terminated by CRLF".to_string(),
                    ));
                }
                self.line.pop();
                return Ok(Some(std::mem::take(&mut self.line)));
            }
            self.line.push(byte);
            if self.line.len() > cap {
                return Err(HttpViolation::HeadTooLarge);
            }
        }
        Ok(None)
    }
}

/// Parses a chunk-size line: hex digits, optionally followed by
/// `;extension` (ignored).
fn parse_chunk_size(line: &[u8]) -> Result<usize, HttpViolation> {
    let bad = || {
        HttpViolation::BadRequest(format!(
            "invalid chunk-size line {:?}",
            String::from_utf8_lossy(line)
        ))
    };
    let digits = match line.iter().position(|&b| b == b';') {
        Some(semi) => line.get(..semi).unwrap_or(line),
        None => line,
    };
    let digits = std::str::from_utf8(digits).map_err(|_| bad())?.trim();
    if digits.is_empty() || digits.len() > 15 || !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(bad());
    }
    usize::from_str_radix(digits, 16).map_err(|_| bad())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

fn is_token_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || "!#$%&'*+-.^_`|~".contains(c)
}

fn parse_head(head: &[u8]) -> Result<Request, HttpViolation> {
    let head = std::str::from_utf8(head)
        .map_err(|_| HttpViolation::BadRequest("head is not valid UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    if request_line.len() > MAX_REQUEST_LINE_BYTES {
        return Err(HttpViolation::HeadTooLarge);
    }
    let (method, target, version) = {
        let mut parts = request_line.split(' ');
        let method = parts.next().unwrap_or("");
        let target = parts.next().unwrap_or("");
        let version = parts.next().unwrap_or("");
        if parts.next().is_some() || method.is_empty() || target.is_empty() || version.is_empty() {
            return Err(HttpViolation::BadRequest(format!(
                "malformed request line {request_line:?}"
            )));
        }
        (method, target, version)
    };
    if !method.chars().all(is_token_char) {
        return Err(HttpViolation::BadRequest(format!(
            "invalid method {method:?}"
        )));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(HttpViolation::BadRequest(format!(
                "unsupported version {other:?}"
            )))
        }
    };
    if !target.starts_with('/') {
        return Err(HttpViolation::BadRequest(format!(
            "target {target:?} is not an absolute path"
        )));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (target, None),
    };
    let path = percent_decode(raw_path, false)?;
    let query = match raw_query {
        None => Vec::new(),
        Some(raw) => parse_query(raw)?,
    };

    let mut headers = Vec::new();
    // The value of each singleton seen so far, so one pass over the lines
    // finds a differing repeat: a 16 KiB head holds thousands of lines.
    let mut singletons: [Option<&str>; SINGLETON_HEADERS.len()] = [None; SINGLETON_HEADERS.len()];
    for line in lines {
        if line.is_empty() {
            return Err(HttpViolation::BadRequest("empty header line".to_string()));
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            return Err(HttpViolation::BadRequest(
                "obsolete header folding is not supported".to_string(),
            ));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpViolation::BadRequest(format!(
                "header line {line:?} has no colon"
            )));
        };
        if name.is_empty() || !name.chars().all(is_token_char) {
            return Err(HttpViolation::BadRequest(format!(
                "invalid header name {name:?}"
            )));
        }
        let (name, value) = (name.to_ascii_lowercase(), value.trim());
        if let Some((_, seen)) = SINGLETON_HEADERS
            .iter()
            .zip(&mut singletons)
            .find(|(singleton, _)| **singleton == name)
        {
            // The values stay out of the answer: one may be a credential.
            if seen.is_some_and(|first| first != value) {
                return Err(HttpViolation::BadRequest(format!(
                    "{name} repeated with a different value"
                )));
            }
            *seen = Some(value);
        }
        headers.push((name, value.to_string()));
    }
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        http11,
        headers,
    })
}

fn parse_query(raw: &str) -> Result<Vec<(String, String)>, HttpViolation> {
    let mut pairs = Vec::new();
    for piece in raw.split('&') {
        if piece.is_empty() {
            continue;
        }
        let (key, value) = match piece.split_once('=') {
            Some((key, value)) => (key, value),
            None => (piece, ""),
        };
        let key = percent_decode(key, true)?;
        if key.is_empty() {
            return Err(HttpViolation::BadRequest(format!(
                "query piece {piece:?} has an empty key"
            )));
        }
        pairs.push((key, percent_decode(value, true)?));
    }
    Ok(pairs)
}

/// Percent-decodes a path or query component. In query components `+`
/// decodes to a space.
fn percent_decode(raw: &str, query: bool) -> Result<String, HttpViolation> {
    let invalid = || HttpViolation::BadRequest(format!("invalid percent-encoding in {raw:?}"));
    let mut bytes = Vec::with_capacity(raw.len());
    let mut iter = raw.bytes();
    while let Some(byte) = iter.next() {
        match byte {
            b'%' => {
                let hi = iter.next().ok_or_else(invalid)?;
                let lo = iter.next().ok_or_else(invalid)?;
                let hex = |b: u8| (b as char).to_digit(16).ok_or_else(invalid);
                bytes.push((hex(hi)? * 16 + hex(lo)?) as u8);
            }
            b'+' if query => bytes.push(b' '),
            other => bytes.push(other),
        }
    }
    String::from_utf8(bytes)
        .map_err(|_| HttpViolation::BadRequest(format!("{raw:?} does not decode to UTF-8")))
}

/// A response under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    /// An empty response with a status code.
    pub fn new(status: u16) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A plain-text response (errors, health messages).
    pub fn text(status: u16, message: impl Into<String>) -> Self {
        let mut message = message.into();
        if !message.ends_with('\n') {
            message.push('\n');
        }
        Response::new(status).with_body(tabular::mime::TEXT_PLAIN, message.into_bytes())
    }

    /// Sets the body and its `Content-Type`.
    pub fn with_body(mut self, content_type: &str, body: Vec<u8>) -> Self {
        self.headers
            .push(("Content-Type".to_string(), content_type.to_string()));
        self.body = body;
        self
    }

    /// Appends a header field.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// The status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The body bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// The last value of a header (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .rev()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Serializes the response, returning the number of bytes written
    /// (head plus body — the unit of the `/metrics` byte counter).
    /// `head_only` suppresses the body (HEAD requests) while keeping the
    /// `Content-Length` of the full representation; 304 responses carry
    /// neither a body nor a `Content-Length`, which would otherwise have
    /// to equal the 200's (RFC 9110 §8.6).
    ///
    /// Head and body go out in one `write_all`: a socket write can wake
    /// the peer, and one that shares the CPU would otherwise be woken
    /// twice per response.
    pub fn write_to(
        &self,
        writer: &mut impl Write,
        keep_alive: bool,
        head_only: bool,
    ) -> io::Result<usize> {
        let body: &[u8] = if head_only || self.status == 304 {
            &[]
        } else {
            &self.body
        };
        let mut out = Vec::with_capacity(body.len().saturating_add(256));
        write!(
            out,
            "HTTP/1.1 {} {}\r\nServer: osdiv-serve/{}\r\n",
            self.status,
            reason(self.status),
            env!("CARGO_PKG_VERSION"),
        )?;
        for (name, value) in &self.headers {
            write!(out, "{name}: {value}\r\n")?;
        }
        if self.status != 304 {
            write!(out, "Content-Length: {}\r\n", self.body.len())?;
        }
        out.extend_from_slice(if keep_alive {
            b"Connection: keep-alive\r\n\r\n"
        } else {
            b"Connection: close\r\n\r\n"
        });
        out.extend_from_slice(body);
        writer.write_all(&out)?;
        writer.flush()?;
        Ok(out.len())
    }
}

impl From<&HttpViolation> for Response {
    fn from(violation: &HttpViolation) -> Self {
        Response::text(violation.status(), violation.to_string())
    }
}

/// The reason phrase of the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        304 => "Not Modified",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        406 => "Not Acceptable",
        408 => "Request Timeout",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        507 => "Insufficient Storage",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> Result<Option<Request>, HttpViolation> {
        RequestParser::new().feed(bytes)
    }

    #[test]
    fn parses_a_simple_get() {
        let request = parse_all(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/v1/healthz");
        assert!(request.query.is_empty());
        assert!(request.http11);
        assert_eq!(request.header("host"), Some("x"));
        assert_eq!(request.header("HOST"), Some("x"));
        assert!(request.keep_alive());
        assert_eq!(request.content_length().unwrap(), 0);
    }

    #[test]
    fn header_serves_singletons_and_lists_span_field_lines() {
        let request = parse_all(
            b"GET / HTTP/1.1\r\nHost: x\r\nAccept: text/csv\r\nHost: x\r\nAccept: a/b, ,c/d\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        // A singleton repeated with the same value is that value.
        assert_eq!(request.header("host"), Some("x"));
        // A list is read item by item over every field line, never as one
        // line's value.
        assert_eq!(request.header("accept"), None);
        let items: Vec<&str> = request.header_items("accept").collect();
        assert_eq!(items, ["text/csv", "a/b", "c/d"]);
    }

    #[test]
    fn byte_by_byte_feeding_matches_one_shot_parsing() {
        let raw = b"GET /v1/analyses/kway?profile=fat&max_k=5 HTTP/1.1\r\nAccept: text/csv\r\n\r\n";
        let oneshot = parse_all(raw).unwrap().unwrap();
        let mut parser = RequestParser::new();
        let mut torn = None;
        for byte in raw.iter() {
            torn = parser.feed(std::slice::from_ref(byte)).unwrap();
            if torn.is_some() {
                break;
            }
        }
        assert_eq!(torn.unwrap(), oneshot);
        assert_eq!(parser.buffered(), 0);
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let mut parser = RequestParser::new();
        let first = parser
            .feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(first.path, "/a");
        let second = parser.try_parse().unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(parser.try_parse().unwrap(), None);
    }

    #[test]
    fn query_decoding_handles_percent_and_plus() {
        let request = parse_all(b"GET /x?a=1%202&b=c+d&flag HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(
            request.query,
            vec![
                ("a".to_string(), "1 2".to_string()),
                ("b".to_string(), "c d".to_string()),
                ("flag".to_string(), String::new()),
            ]
        );
    }

    #[test]
    fn malformed_heads_are_400() {
        for raw in [
            &b"GET\r\n\r\n"[..],
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x HTTP/2.0\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"G<T /x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET /x HTTP/1.1\r\n: empty\r\n\r\n",
            b"GET /x?%zz= HTTP/1.1\r\n\r\n",
            b"GET /x%e0%80 HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n",
            // A singleton repeated with a different value: which one a hop
            // acts on would depend on which line it reads.
            b"GET /x HTTP/1.1\r\nAuthorization: Bearer a\r\nAuthorization: Bearer b\r\n\r\n",
            b"GET /x HTTP/1.1\r\nHost: a\r\nhost: b\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 25\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: 25\r\nContent-Length: 0\r\n\r\n",
        ] {
            let err = parse_all(raw).unwrap_err();
            assert_eq!(
                err.status(),
                400,
                "{:?} -> {err:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn oversized_heads_are_431() {
        let long_line = format!(
            "GET /{} HTTP/1.1\r\n\r\n",
            "a".repeat(MAX_REQUEST_LINE_BYTES)
        );
        assert_eq!(
            parse_all(long_line.as_bytes()).unwrap_err(),
            HttpViolation::HeadTooLarge
        );
        // Incomplete but already hopeless: no CRLF within the line cap.
        let mut parser = RequestParser::new();
        let partial = vec![b'a'; MAX_REQUEST_LINE_BYTES + 1];
        assert_eq!(
            parser.feed(&partial).unwrap_err(),
            HttpViolation::HeadTooLarge
        );
        // A huge header block.
        let huge = format!(
            "GET / HTTP/1.1\r\nA: {}\r\n\r\n",
            "b".repeat(MAX_HEAD_BYTES)
        );
        assert_eq!(
            parse_all(huge.as_bytes()).unwrap_err(),
            HttpViolation::HeadTooLarge
        );
    }

    #[test]
    fn keep_alive_follows_the_version_defaults() {
        let http10 = parse_all(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!http10.keep_alive());
        let http10_ka = parse_all(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(http10_ka.keep_alive());
        let http11_close = parse_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!http11_close.keep_alive());
        // `Connection` is a comma-separated list of options: a `close`
        // anywhere in any field line closes, and a `keep-alive` anywhere
        // keeps an HTTP/1.0 connection open.
        for (version, connection, keep_alive) in [
            ("1.1", "close, te", false),
            ("1.1", "TE, close", false),
            ("1.1", "te\r\nConnection: close", false),
            ("1.1", "close\r\nConnection: te", false),
            ("1.1", "keep-alive, close", false),
            ("1.1", "te", true),
            ("1.0", "te, keep-alive", true),
            ("1.0", "Keep-Alive\r\nConnection: te", true),
            ("1.0", "te", false),
        ] {
            let head = format!("GET / HTTP/{version}\r\nConnection: {connection}\r\n\r\n");
            let request = parse_all(head.as_bytes()).unwrap().unwrap();
            assert_eq!(request.keep_alive(), keep_alive, "{head:?}");
        }
    }

    #[test]
    fn responses_serialize_with_length_and_connection() {
        let response = Response::new(200)
            .with_body(tabular::mime::APPLICATION_JSON, b"{}".to_vec())
            .with_header("ETag", "\"abc\"");
        let mut out = Vec::new();
        response.write_to(&mut out, true, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("ETag: \"abc\"\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut head_only = Vec::new();
        response.write_to(&mut head_only, false, true).unwrap();
        let text = String::from_utf8(head_only).unwrap();
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n"));

        // Every response leaves in one write call, and the returned count
        // is exactly what was written.
        #[derive(Default)]
        struct CountingWriter {
            bytes: Vec<u8>,
            writes: usize,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let not_modified = Response::new(304)
            .with_body(tabular::mime::APPLICATION_JSON, b"{}".to_vec())
            .with_header("ETag", "\"abc\"");
        // A 304 sends no Content-Length at all (RFC 9110 §8.6).
        for (response, head_only, body, framed) in [
            (&response, false, &b"{}"[..], true),
            (&response, true, &b""[..], true),
            (&not_modified, false, &b""[..], false),
        ] {
            let mut out = CountingWriter::default();
            let written = response.write_to(&mut out, true, head_only).unwrap();
            assert_eq!(out.writes, 1, "{} head_only={head_only}", response.status);
            assert_eq!(written, out.bytes.len());
            let text = String::from_utf8(out.bytes).unwrap();
            assert_eq!(text.contains("Content-Length: 2\r\n"), framed, "{text}");
            assert_eq!(text.contains("Content-Length"), framed, "{text}");
            let (_, sent_body) = text.split_once("\r\n\r\n").unwrap();
            assert_eq!(sent_body.as_bytes(), body);
        }
    }

    /// Encodes a payload as chunked framing with the given chunk sizes.
    fn encode_chunked(payload: &[u8], sizes: &[usize]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut rest = payload;
        let mut sizes = sizes.iter().copied().cycle();
        while !rest.is_empty() {
            let take = sizes.next().unwrap().clamp(1, rest.len());
            out.extend_from_slice(format!("{take:x}\r\n").as_bytes());
            out.extend_from_slice(&rest[..take]);
            out.extend_from_slice(b"\r\n");
            rest = &rest[take..];
        }
        out.extend_from_slice(b"0\r\n\r\n");
        out
    }

    #[test]
    fn chunked_decoder_handles_torn_input_and_extensions() {
        let payload = b"hello chunked world".to_vec();
        let mut wire = b"5;ext=1\r\nhello\r\n".to_vec();
        wire.extend_from_slice(&encode_chunked(b" chunked world", &[3, 5])[..]);
        for piece in [1usize, 2, 3, 7, wire.len()] {
            let mut decoder = ChunkedDecoder::new();
            let mut sink = Vec::new();
            let mut consumed_total = 0;
            for chunk in wire.chunks(piece) {
                let consumed = decoder.decode(chunk, &mut sink).unwrap();
                assert_eq!(consumed, chunk.len(), "nothing past the terminator here");
                consumed_total += consumed;
            }
            assert!(decoder.is_done(), "piece size {piece}");
            assert_eq!(sink, payload, "piece size {piece}");
            assert_eq!(consumed_total, wire.len());
        }
    }

    #[test]
    fn chunked_decoder_stops_at_the_terminator_for_pipelining() {
        let mut wire = encode_chunked(b"abc", &[3]);
        wire.extend_from_slice(b"GET /next HTTP/1.1\r\n\r\n");
        let mut decoder = ChunkedDecoder::new();
        let mut sink = Vec::new();
        let consumed = decoder.decode(&wire, &mut sink).unwrap();
        assert!(decoder.is_done());
        assert_eq!(sink, b"abc");
        assert_eq!(&wire[consumed..], b"GET /next HTTP/1.1\r\n\r\n");
        // Once done, nothing more is consumed.
        assert_eq!(decoder.decode(&wire[consumed..], &mut sink).unwrap(), 0);
    }

    #[test]
    fn chunked_decoder_rejects_bad_framing_with_400() {
        for wire in [
            &b"zz\r\nhello\r\n0\r\n\r\n"[..], // non-hex size
            b"\r\n\r\n",                      // empty size line
            b"3\nabc\r\n0\r\n\r\n",           // bare LF after size
            b"3\r\nabcX\r\n0\r\n\r\n",        // payload not CRLF-terminated
            b"3\r\nabc\rX0\r\n\r\n",          // CR not followed by LF
            b"ffffffffffffffffff\r\n",        // overflowing size
        ] {
            let mut decoder = ChunkedDecoder::new();
            let mut sink = Vec::new();
            let violation = decoder.decode(wire, &mut sink).unwrap_err();
            assert_eq!(
                violation.status(),
                400,
                "{:?}",
                String::from_utf8_lossy(wire)
            );
        }
    }

    #[test]
    fn oversized_chunk_lines_and_trailers_are_431() {
        let mut decoder = ChunkedDecoder::new();
        let mut sink = Vec::new();
        let long_size_line = vec![b'1'; MAX_CHUNK_LINE_BYTES + 2];
        assert_eq!(
            decoder.decode(&long_size_line, &mut sink).unwrap_err(),
            HttpViolation::HeadTooLarge
        );

        let mut decoder = ChunkedDecoder::new();
        let mut wire = b"0\r\n".to_vec();
        wire.extend_from_slice(&vec![b'x'; MAX_TRAILER_BYTES + 2]);
        assert_eq!(
            decoder.decode(&wire, &mut sink).unwrap_err(),
            HttpViolation::HeadTooLarge
        );
    }

    #[test]
    fn stream_body_reads_length_framing_through_the_parser_buffer() {
        let mut parser = RequestParser::new();
        let request = parser
            .feed(b"POST /x HTTP/1.1\r\nContent-Length: 8\r\n\r\nhalf")
            .unwrap()
            .unwrap();
        assert_eq!(request.body_framing().unwrap(), BodyFraming::Length(8));
        let mut remainder = io::Cursor::new(b"bodyGET /next".to_vec());
        let mut body = StreamBody::new(&mut parser, &mut remainder, BodyFraming::Length(8));
        let mut collected = Vec::new();
        let mut chunk = Vec::new();
        while body.next_chunk(&mut chunk).unwrap() {
            collected.extend_from_slice(&chunk);
        }
        assert!(body.finished());
        assert_eq!(collected, b"halfbody");
        // Over-read bytes stay buffered for the next pipelined request.
        assert_eq!(parser.peek_buffered(), b"GET /next");
    }

    #[test]
    fn stream_body_decodes_chunked_framing_and_preserves_pipelining() {
        let mut parser = RequestParser::new();
        let head = b"PUT /v1/datasets/x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        let request = parser.feed(head).unwrap().unwrap();
        assert_eq!(request.body_framing().unwrap(), BodyFraming::Chunked);
        let mut wire = encode_chunked(b"feed data here", &[4, 1, 6]);
        wire.extend_from_slice(b"GET /pipelined HTTP/1.1\r\n\r\n");
        let mut stream = io::Cursor::new(wire);
        let mut body = StreamBody::new(&mut parser, &mut stream, BodyFraming::Chunked);
        let mut collected = Vec::new();
        let mut chunk = Vec::new();
        while body.next_chunk(&mut chunk).unwrap() {
            assert!(!chunk.is_empty());
            collected.extend_from_slice(&chunk);
        }
        assert!(body.finished());
        assert_eq!(collected, b"feed data here");
        let next = parser.try_parse().unwrap().unwrap();
        assert_eq!(next.path, "/pipelined");
    }

    #[test]
    fn stream_body_surfaces_truncation_as_io_error() {
        let mut parser = RequestParser::new();
        let mut stream = io::Cursor::new(b"4\r\nab".to_vec()); // cut mid-chunk
        let mut body = StreamBody::new(&mut parser, &mut stream, BodyFraming::Chunked);
        let mut chunk = Vec::new();
        // First pull may yield the partial payload...
        let mut error = None;
        for _ in 0..4 {
            match body.next_chunk(&mut chunk) {
                Ok(_) => {}
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(error, Some(BodyError::Io(_))));
    }

    #[test]
    fn body_drain_enforces_its_cap() {
        let mut body = BufferedBody::new(vec![0u8; 100]);
        assert!(matches!(
            body.drain(50),
            Err(BodyError::TooLarge { limit: 50 })
        ));
        let mut body = BufferedBody::new(vec![0u8; 100]);
        assert_eq!(body.drain(100).unwrap(), 100);
        assert!(body.finished());
        assert_eq!(EmptyBody.drain(0).unwrap(), 0);
    }

    #[test]
    fn unsupported_transfer_codings_are_400() {
        // `Transfer-Encoding` is a list over all its field lines, and the
        // only one this server accepts is exactly `chunked`, once.
        for codings in [
            "gzip",
            "gzip, chunked",
            "gzip\r\nTransfer-Encoding: chunked",
            "chunked\r\nTransfer-Encoding: chunked",
            "",
        ] {
            let head = format!("POST /x HTTP/1.1\r\nTransfer-Encoding: {codings}\r\n\r\n");
            let request = parse_all(head.as_bytes()).unwrap().unwrap();
            let framing = request.body_framing();
            assert_eq!(
                framing.as_ref().map_err(HttpViolation::status),
                Err(400),
                "{head:?} -> {framing:?}"
            );
        }
        let request = parse_all(b"POST /x HTTP/1.1\r\nTransfer-Encoding: Chunked\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(request.body_framing().unwrap(), BodyFraming::Chunked);
    }

    #[test]
    fn ambiguous_body_framing_is_400() {
        // Heads a proxy could frame differently from this server, which
        // would let a second request ride inside the first one's body.
        for raw in [
            // Chunked ends the body at `0\r\n\r\n`; the length 44 bytes on.
            &b"POST /v1/report HTTP/1.1\r\nContent-Length: 44\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
            b"POST /v1/report HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 44\r\n\r\n",
            // Not all ASCII digits.
            b"POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\n",
        ] {
            let request = parse_all(raw).unwrap().unwrap();
            let framing = request.body_framing();
            assert_eq!(
                framing.as_ref().map_err(HttpViolation::status),
                Err(400),
                "{:?} -> {framing:?}",
                String::from_utf8_lossy(raw)
            );
        }
        // One length repeated frames the body unambiguously.
        let request =
            parse_all(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n")
                .unwrap()
                .unwrap();
        assert_eq!(request.body_framing().unwrap(), BodyFraming::Length(5));
    }

    #[test]
    fn violations_convert_to_error_responses() {
        let bad = HttpViolation::BadRequest("nope".to_string());
        let response = Response::from(&bad);
        assert_eq!(response.status(), 400);
        assert!(String::from_utf8_lossy(response.body()).contains("nope"));
        assert_eq!(Response::from(&HttpViolation::HeadTooLarge).status(), 431);
    }

    #[test]
    fn every_status_the_server_builds_has_a_reason_phrase() {
        let built = [
            200, 201, 304, 400, 401, 403, 404, 405, 406, 408, 409, 410, 413, 431, 500, 503, 507,
        ];
        let unnamed: Vec<u16> = built
            .into_iter()
            .filter(|&status| reason(status) == "Unknown")
            .collect();
        assert!(unnamed.is_empty(), "no reason phrase for {unnamed:?}");
        let mut out = Vec::new();
        Response::text(408, "timed out")
            .write_to(&mut out, false, false)
            .unwrap();
        assert!(out.starts_with(b"HTTP/1.1 408 Request Timeout\r\n"));
    }
}

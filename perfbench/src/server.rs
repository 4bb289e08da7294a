//! The system under test as a child process, and the benchmark's own
//! HTTP/1.1 client.
//!
//! The client is deliberately not `osdiv_serve::loadgen`: that module's
//! retry path sleeps 20–40 ms when the server makes its planned
//! `Connection: close` after the keep-alive request cap, and the sleep
//! would be measured as server latency. Here a close is answered by an
//! immediate reconnect, charged to the request whose response carried it.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::stats::Scrape;

/// One parsed response. The body lives in the connection's buffer.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    pub status: u16,
    pub etag: Option<String>,
    /// Whether the server announced `Connection: close`.
    pub close: bool,
}

/// A keep-alive client connection that reconnects on a planned close.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
    body: Vec<u8>,
}

fn open(addr: SocketAddr) -> io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    Ok(BufReader::with_capacity(64 * 1024, stream))
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        Ok(Conn {
            addr,
            reader: open(addr)?,
            line: Vec::with_capacity(256),
            body: Vec::new(),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The body of the last reply.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Sends one pre-encoded request and reads its response. When the
    /// response closes the connection, reconnects before returning, so the
    /// caller's timing includes the reconnect.
    pub fn send(&mut self, raw: &[u8]) -> io::Result<Reply> {
        self.send_parts(&[raw])
    }

    /// [`Conn::send`] for a request written in several pieces (a head and
    /// a pre-encoded body).
    pub fn send_parts(&mut self, parts: &[&[u8]]) -> io::Result<Reply> {
        for part in parts {
            self.reader.get_mut().write_all(part)?;
        }
        let reply = self.read_reply()?;
        if reply.close {
            self.reader = open(self.addr)?;
        }
        Ok(reply)
    }

    fn read_line(&mut self) -> io::Result<&[u8]> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        Ok(self.line.trim_ascii_end())
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let status_line = self.read_line()?;
        let status = status_line
            .split(|b| *b == b' ')
            .nth(1)
            .and_then(|code| std::str::from_utf8(code).ok()?.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut reply = Reply {
            status,
            ..Reply::default()
        };
        let mut length = 0usize;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let Some(colon) = line.iter().position(|b| *b == b':') else {
                continue;
            };
            let (name, value) = (&line[..colon], line[colon + 1..].trim_ascii());
            if name.eq_ignore_ascii_case(b"content-length") {
                length = std::str::from_utf8(value)
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("bad Content-Length"))?;
            } else if name.eq_ignore_ascii_case(b"etag") {
                reply.etag = Some(String::from_utf8_lossy(value).into_owned());
            } else if name.eq_ignore_ascii_case(b"connection") {
                reply.close = value.eq_ignore_ascii_case(b"close");
            }
        }
        self.body.clear();
        if status != 304 && length > 0 {
            self.body.resize(length, 0);
            self.reader.read_exact(&mut self.body)?;
        }
        Ok(reply)
    }
}

/// Encodes a body-less request.
pub fn get_request(method: &str, target: &str, extra: &[(&str, &str)]) -> Vec<u8> {
    let mut head = format!("{method} {target} HTTP/1.1\r\nHost: perfbench\r\n");
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    head.into_bytes()
}

/// The wire chunk size of feed uploads.
pub const UPLOAD_CHUNK: usize = 64 * 1024;

/// The head of a chunked `PUT`.
pub fn put_head(target: &str) -> Vec<u8> {
    format!("PUT {target} HTTP/1.1\r\nHost: perfbench\r\nTransfer-Encoding: chunked\r\n\r\n")
        .into_bytes()
}

/// `body` in chunked transfer coding, one wire chunk per [`UPLOAD_CHUNK`].
pub fn chunked(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + body.len() / UPLOAD_CHUNK * 12 + 16);
    for chunk in body.chunks(UPLOAD_CHUNK) {
        out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        out.extend_from_slice(chunk);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    out
}

/// A running `osdiv serve` child process.
#[derive(Debug)]
pub struct Server {
    child: Option<Child>,
    pub addr: SocketAddr,
    stdout: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `osdiv serve` with `flags` and `env` and waits until it
    /// answers `GET /v1/healthz`.
    pub fn boot(osdiv: &Path, flags: &[String], env: &[(&str, &str)]) -> io::Result<Server> {
        let mut child = Command::new(osdiv)
            .arg("serve")
            .args(flags)
            .envs(env.iter().copied())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
        let addr = loop {
            let listening = match lines.next() {
                Some(Ok(line)) => match line.split("listening on ").nth(1) {
                    None => continue,
                    Some(rest) => rest
                        .split_whitespace()
                        .next()
                        .unwrap_or_default()
                        .parse()
                        .ok(),
                },
                _ => None,
            };
            match listening {
                Some(addr) => break addr,
                None => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(io::Error::other(
                        "osdiv serve reported no listening address",
                    ));
                }
            }
        };
        // Keep draining stdout so the child never blocks on a full pipe.
        let stdout = thread::spawn(move || lines.for_each(drop));
        let server = Server {
            child: Some(child),
            addr,
            stdout: Some(stdout),
        };
        let healthz = get_request("GET", "/v1/healthz", &[("Connection", "close")]);
        let reply = Conn::connect(addr)?.send(&healthz)?;
        if reply.status != 200 {
            return Err(io::Error::other(format!(
                "healthz answered {}",
                reply.status
            )));
        }
        Ok(server)
    }

    /// One request on a fresh connection that is closed afterwards: the
    /// shape of every out-of-band request (scrapes, shutdown), so none of
    /// them holds a worker past its answer.
    pub fn oneshot(&self, method: &str, target: &str) -> io::Result<(Reply, Vec<u8>)> {
        let mut conn = Conn::connect(self.addr)?;
        let reply = conn.send(&get_request(method, target, &[("Connection", "close")]))?;
        Ok((reply, std::mem::take(&mut conn.body)))
    }

    /// Scrapes `GET /metrics`.
    pub fn scrape(&self) -> io::Result<Scrape> {
        let (reply, body) = self.oneshot("GET", "/metrics")?;
        if reply.status != 200 {
            return Err(io::Error::other(format!(
                "/metrics answered {}",
                reply.status
            )));
        }
        Ok(Scrape::parse(&String::from_utf8_lossy(&body)))
    }

    /// Restricts every thread of the server to `cpu`.
    pub fn pin(&self, cpu: usize) -> io::Result<()> {
        match &self.child {
            Some(child) => crate::affinity::pin_process(child.id(), &[cpu]),
            None => Ok(()),
        }
    }

    /// The child's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let Some(child) = &self.child else {
            return 0.0;
        };
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", child.id())).unwrap_or_default();
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .unwrap_or(0.0)
    }

    /// Asks the server to shut down and waits for it to exit (killing it
    /// after 10 s).
    pub fn shutdown(mut self) -> io::Result<()> {
        let _ = self.oneshot("POST", "/v1/shutdown");
        self.reap(Duration::from_secs(10))
    }

    fn reap(&mut self, grace: Duration) -> io::Result<()> {
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + grace;
            while child.try_wait()?.is_none() {
                if Instant::now() >= deadline {
                    child.kill()?;
                    break;
                }
                thread::sleep(Duration::from_millis(5));
            }
            child.wait()?;
        }
        if let Some(stdout) = self.stdout.take() {
            let _ = stdout.join();
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.reap(Duration::ZERO);
    }
}

//! The NDJSON client: one connection, one request line, one response line.
//!
//! Every component that talks to a server — the router's pool, hedger and
//! failover, `rwr loadgen`, the remote CLI commands, the shutdown request,
//! the benches and the multi-process tests — connects and exchanges
//! through this module.
//!
//! A request is written as the line plus `\n` in a single write, and each
//! exchange sets its own read timeout. [`exchange_split`] reports which
//! side of that write a failure fell on; the router's mutation-retry rule
//! (`router/retry.rs`) is built on that split.

use crate::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One NDJSON connection: buffered reader + raw writer over the same
/// stream.
pub struct Conn {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
    /// The part of a response line read before a timeout; the next
    /// [`Conn::recv`] completes it.
    pending: String,
}

/// The bound a `--timeout-ms` value sets: 0 means wait forever.
pub fn timeout_from_ms(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// Opens a connection with Nagle's algorithm off. `timeout` bounds the
/// connect; `None` blocks until the OS gives up.
pub fn connect(addr: &str, timeout: Option<Duration>) -> std::io::Result<Conn> {
    let stream = match timeout {
        None => TcpStream::connect(addr)?,
        Some(timeout) => {
            let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address")
            })?;
            TcpStream::connect_timeout(&sock, timeout)?
        }
    };
    stream.set_nodelay(true).ok();
    let reader = BufReader::new(stream.try_clone()?);
    Ok(Conn {
        reader,
        stream,
        pending: String::new(),
    })
}

impl Conn {
    /// Writes `line` and its `\n` in one write.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut payload = Vec::with_capacity(line.len() + 1);
        payload.extend_from_slice(line.as_bytes());
        payload.push(b'\n');
        self.stream.write_all(&payload)?;
        self.stream.flush()
    }

    /// Reads one response line, without its line ending, waiting at most
    /// `timeout` (`None` waits forever). A line cut short by the timeout
    /// is kept and finished by the next call.
    pub fn recv(&mut self, timeout: Option<Duration>) -> std::io::Result<String> {
        self.stream.set_read_timeout(timeout)?;
        match self.reader.read_line(&mut self.pending)? {
            0 => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "backend closed before responding",
            )),
            _ => {
                let mut response = std::mem::take(&mut self.pending);
                while response.ends_with('\n') || response.ends_with('\r') {
                    response.pop();
                }
                Ok(response)
            }
        }
    }
}

/// Result of [`exchange_split`]: distinguishes "request never executed"
/// from "response lost after a complete request" — the line the mutation
/// retry policy is built on.
pub enum ExchangeError {
    /// The request line was not fully delivered; safe to retry anywhere.
    PreWrite(std::io::Error),
    /// The request line was delivered but the response never arrived;
    /// retrying a mutation here could double-apply.
    PostWrite(std::io::Error),
}

/// One request/response round-trip with a read deadline, reporting which
/// side of the write any failure fell on.
pub fn exchange_split(
    conn: &mut Conn,
    line: &str,
    timeout: Option<Duration>,
) -> Result<String, ExchangeError> {
    conn.send(line).map_err(ExchangeError::PreWrite)?;
    conn.recv(timeout).map_err(ExchangeError::PostWrite)
}

/// Round-trip for callers that don't care which side failed.
pub fn exchange_on(
    conn: &mut Conn,
    line: &str,
    timeout: Option<Duration>,
) -> std::io::Result<String> {
    exchange_split(conn, line, timeout).map_err(|e| match e {
        ExchangeError::PreWrite(e) | ExchangeError::PostWrite(e) => e,
    })
}

/// [`exchange_on`], with the response parsed as JSON.
pub fn exchange_json(
    conn: &mut Conn,
    line: &str,
    timeout: Option<Duration>,
) -> std::io::Result<Json> {
    let raw = exchange_on(conn, line, timeout)?;
    Json::parse(&raw).map_err(std::io::Error::other)
}

/// One JSON round-trip on a fresh connection; `timeout` bounds both the
/// connect and the read.
pub fn request(addr: &str, line: &str, timeout: Option<Duration>) -> std::io::Result<Json> {
    exchange_json(&mut connect(addr, timeout)?, line, timeout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn exchange_classifies_post_write_eof_as_ambiguous() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Read the full request line, then hang up without answering.
            let mut buf = [0u8; 256];
            let mut seen = Vec::new();
            while !seen.contains(&b'\n') {
                let n = s.read(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                seen.extend_from_slice(&buf[..n]);
            }
            drop(s);
        });
        let mut conn = connect(&addr, Some(Duration::from_secs(1))).unwrap();
        match exchange_split(&mut conn, "{\"op\":\"ping\"}", Some(Duration::from_secs(1))) {
            Err(ExchangeError::PostWrite(_)) => {}
            Err(ExchangeError::PreWrite(e)) => panic!("misclassified as pre-write: {e}"),
            Ok(r) => panic!("unexpected response: {r}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn connect_fails_fast_against_dead_port() {
        // Bind-then-drop guarantees the port is closed; connect must fail
        // promptly instead of hanging.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let start = std::time::Instant::now();
        let r = connect(&addr, Some(Duration::from_millis(500)));
        assert!(r.is_err());
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn recv_finishes_a_line_cut_by_its_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (go, wait) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.write_all(b"{\"ok\":").unwrap();
            wait.recv().unwrap();
            s.write_all(b"true}\n").unwrap();
        });
        let mut conn = connect(&addr, None).unwrap();
        let short = Some(Duration::from_millis(50));
        let cut = conn.recv(short).unwrap_err();
        assert!(
            matches!(
                cut.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "{cut}"
        );
        go.send(()).unwrap();
        assert_eq!(conn.recv(None).unwrap(), "{\"ok\":true}");
        server.join().unwrap();
    }
}

//! The `rwr` processes a workload runs, the NDJSON connections to them,
//! and the `/proc` readings taken of them.

use resacc_service::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Builds `rwr` from the checkout's own workspace (a no-op when it is up
/// to date) and returns its path.
pub fn build_rwr() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "resacc-cli",
            "--bin",
            "rwr",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building rwr failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = PathBuf::from(target).join("release").join("rwr");
    if !bin.exists() {
        return Err(format!("rwr not found at {}", bin.display()));
    }
    Ok(bin)
}

/// A running `rwr` child with the addresses its banner announced.
pub struct Proc {
    child: Child,
    pub addr: String,
    pub repl_addr: Option<String>,
}

impl Proc {
    /// Spawns `rwr <args>` and waits for its `listening on` banner.
    pub fn spawn(bin: &PathBuf, args: &[String]) -> Result<Proc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning rwr {}: {e}", args.join(" ")))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout);
        let mut repl_addr = None;
        loop {
            let mut line = String::new();
            let read = lines.read_line(&mut line).unwrap_or(0);
            if read == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("rwr {} exited before listening", args.join(" ")));
            }
            if let Some(a) = line.trim().strip_prefix("replication listening on ") {
                repl_addr = Some(a.to_string());
            } else if let Some(a) = line.trim().strip_prefix("listening on ") {
                return Ok(Proc {
                    child,
                    addr: a.to_string(),
                    repl_addr,
                });
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the process to shut down, waits for it, and kills it if it has
    /// not exited within ten seconds.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Conn::open(&self.addr)
            .and_then(|mut c| c.call(r#"{"op":"shutdown"}"#))
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(10);
        while asked && Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("rwr at {} exited with {status}", self.addr))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(format!("rwr at {} did not shut down; killed", self.addr))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One NDJSON connection: a request line out, a response line back.
pub struct Conn {
    pub stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.stream
            .write_all(&buf)
            .map_err(|e| format!("send: {e}"))
    }

    pub fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }

    /// `call` with the response parsed; a response with `"ok":false` is an
    /// error.
    pub fn call_ok(&mut self, line: &str) -> Result<Json, String> {
        let raw = self.call(line)?;
        let json = Json::parse(raw.trim()).map_err(|e| format!("bad response {raw:?}: {e}"))?;
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("request {line} failed: {}", raw.trim()));
        }
        Ok(json)
    }
}

/// One request on a fresh connection.
pub fn call_ok(addr: &str, line: &str) -> Result<Json, String> {
    Conn::open(addr)?.call_ok(line)
}

/// Polls `ping` until the process answers or ten seconds pass.
pub fn wait_ready(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match call_ok(addr, r#"{"op":"ping"}"#) {
            Ok(_) => return Ok(()),
            Err(e) if Instant::now() >= deadline => return Err(format!("{addr} not ready: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Linux reports process CPU time in clock ticks of `USER_HZ`, which is
/// 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of process `pid` (`"self"` for this one).
pub fn cpu_seconds(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3, utime
    // and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (field(11) + field(12)) / USER_HZ
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

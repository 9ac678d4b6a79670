//! The multi-process harness: spawn `rwr` children, scrape their listen
//! addresses, talk NDJSON to them, and clean up after them.
//!
//! The CLI's end-to-end tests and the cluster benches (`bench_router`,
//! `bench_shard`) drive real `rwr serve` / `rwr router` processes through
//! this module. Every child is killed and reaped when its [`Proc`] drops,
//! so a failed assertion never leaves a server holding its ports and data
//! directory; every [`TempDir`] removes itself unless the thread is
//! panicking, so a failure can still be inspected.

use resacc_service::client::{self, Conn};
use resacc_service::json::Json;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

/// How long a child may take to print its listen line, a reply may take
/// to arrive, and a [`wait_for`] condition may take to hold.
const PATIENCE: Duration = Duration::from_secs(60);

/// Read timeout of [`call`] and [`request`].
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// The compiled `rwr` CLI for a binary that sits next to it in the target
/// directory (the benches), or `RESACC_RWR_BIN` when set. Tests of the CLI
/// crate itself use `env!("CARGO_BIN_EXE_rwr")` instead.
pub fn rwr_bin() -> PathBuf {
    if let Ok(p) = std::env::var("RESACC_RWR_BIN") {
        return PathBuf::from(p);
    }
    let exe = std::env::current_exe().expect("current_exe");
    let cand = exe
        .parent()
        .expect("binary has a parent dir")
        .join(format!("rwr{}", std::env::consts::EXE_SUFFIX));
    assert!(
        cand.exists(),
        "rwr binary not found at {} — build it first (`cargo build --release -p resacc-cli`) \
         or point RESACC_RWR_BIN at it",
        cand.display()
    );
    cand
}

/// A running `rwr` child (serve, router, netfault) with its stdout pumped
/// into a channel. Killed and reaped on drop.
pub struct Proc {
    child: Child,
    /// The NDJSON address from the `listening on` line.
    pub addr: String,
    /// The address from the `replication listening on` line, if printed.
    pub repl_addr: Option<String>,
    /// Every line printed before `listening on` (the recovery banner).
    pub banner: Vec<String>,
    /// Every line printed after it (`CRASH_POINT` markers); read through
    /// [`Proc::saw`].
    stdout: Receiver<String>,
}

impl Proc {
    /// Spawns `cmd` with stdout piped and waits for its `listening on`
    /// line.
    pub fn spawn(mut cmd: Command) -> Proc {
        let mut child = cmd.stdout(Stdio::piped()).spawn().expect("spawn rwr");
        let mut out = BufReader::new(child.stdout.take().unwrap());
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || loop {
            let mut line = String::new();
            match out.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    if tx.send(line.trim().to_string()).is_err() {
                        break;
                    }
                }
            }
        });
        // Built before the scrape so a child that never comes up is still
        // killed when the panic below drops it.
        let mut proc = Proc {
            child,
            addr: String::new(),
            repl_addr: None,
            banner: Vec::new(),
            stdout: rx,
        };
        loop {
            let line = proc
                .stdout
                .recv_timeout(PATIENCE)
                .unwrap_or_else(|e| panic!("child never printed `listening on` ({e})"));
            if let Some(rest) = line.strip_prefix("listening on ") {
                proc.addr = rest.to_string();
                return proc;
            }
            if let Some(rest) = line.strip_prefix("replication listening on ") {
                proc.repl_addr = Some(rest.to_string());
            }
            proc.banner.push(line);
        }
    }

    /// SIGKILLs the child and reaps it.
    pub fn kill(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }

    /// Waits for the child to exit on its own.
    pub fn wait(&mut self) -> ExitStatus {
        self.child.wait().expect("wait for rwr")
    }

    /// Whether `line` is among the stdout lines printed since the last
    /// call (it consumes them).
    pub fn saw(&self, line: &str) -> bool {
        self.stdout.try_iter().any(|l| l == line)
    }

    /// Sends `line` on `conn` and waits for the reply, watching stdout
    /// for `marker` meanwhile. Returns `None` once the marker shows: the
    /// child is parked at a crash point and will never answer.
    pub fn reply_or_marker(&self, conn: &mut Conn, line: &str, marker: &str) -> Option<Json> {
        conn.send(line).expect("send request");
        let deadline = Instant::now() + PATIENCE;
        loop {
            match conn.recv(Some(Duration::from_millis(100))) {
                Ok(reply) => return Some(Json::parse(&reply).expect("rwr speaks json")),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.saw(marker) {
                        return None;
                    }
                    assert!(Instant::now() < deadline, "no reply and no {marker:?}");
                }
                Err(e) => panic!("socket error: {e}"),
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Spawns `rwr serve` on an ephemeral port over `graph`, durable in
/// `data_dir`. `cmd` is the bare `rwr` command (it may carry environment,
/// such as an armed `RESACC_CRASH_POINT`); `extra` is appended.
pub fn serve(mut cmd: Command, graph: &Path, data_dir: &Path, extra: &[&str]) -> Proc {
    cmd.args(["serve", "--graph"])
        .arg(graph)
        .args(["--listen", "127.0.0.1:0", "--data-dir"])
        .arg(data_dir)
        .args(extra);
    Proc::spawn(cmd)
}

/// Opens an NDJSON connection.
pub fn connect(addr: &str) -> Conn {
    client::connect(addr, Some(REPLY_TIMEOUT)).unwrap_or_else(|e| panic!("connect {addr}: {e}"))
}

/// One request/response on `conn`.
pub fn call(conn: &mut Conn, line: &str) -> Json {
    client::exchange_json(conn, line, Some(REPLY_TIMEOUT)).unwrap_or_else(|e| panic!("{line}: {e}"))
}

/// One request/response on a fresh connection (survives restarts).
pub fn request(addr: &str, line: &str) -> Json {
    call(&mut connect(addr), line)
}

/// Polls `probe` until it holds; panics naming `what` after a minute.
pub fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + PATIENCE;
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A fresh directory `<tmp>/rwr-<tag>-<pid>`, removed on drop unless the
/// thread is panicking (then it is kept for inspection).
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates the directory, emptying any leftover of the same name.
    pub fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("rwr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    /// Writes a seeded Barabási–Albert graph (`n` nodes, `m` edges per
    /// new node) to `g.txt` inside the directory and returns its path.
    pub fn graph(&self, n: usize, m: usize, seed: u64) -> PathBuf {
        let path = self.0.join("g.txt");
        let g = resacc_graph::gen::barabasi_albert(n, m, seed);
        resacc_graph::edgelist::save_edge_list(&g, &path).expect("write graph");
        path
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dir_is_removed_on_drop_but_kept_on_panic() {
        let dir = TempDir::new("harness-drop");
        let path = dir.to_path_buf();
        dir.graph(20, 2, 1);
        drop(dir);
        assert!(!path.exists(), "dropped temp dir must be gone");

        let kept = std::thread::spawn(|| {
            let dir = TempDir::new("harness-panic");
            let path = dir.to_path_buf();
            // `resume_unwind` unwinds like a failed assertion, quietly.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _dir = dir;
                std::panic::resume_unwind(Box::new("a failing test"));
            }));
            path
        })
        .join()
        .unwrap();
        assert!(kept.exists(), "a temp dir dropped mid-panic must be kept");
        std::fs::remove_dir_all(&kept).unwrap();
    }
}

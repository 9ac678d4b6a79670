//! The server's connection engine: a readiness-driven event loop.
//!
//! One reactor thread multiplexes every connection over epoll (via the
//! `mio` poller shim): nonblocking sockets, per-connection state machines
//! that accumulate partial NDJSON lines and drain partial writes, and a
//! small executor pool for blocking work. Thread count is
//! `1 + workers` regardless of connection count — the property
//! `bench_c10k` gates on.
//!
//! ```text
//!            ┌────────────────────────── reactor thread ─────────────────────────┐
//!   accept ──► conns: {rbuf → route_line → wbuf} ── epoll(listener, conns, wake) │
//!            └───────▲──────────────┬────────────────────────▲──────────────────-┘
//!                    │ completions  │ Query: submit_hook      │ wake byte
//!              ┌─────┴─────┐        │ Mutation/Promote        │
//!              │  mailbox  │◄───────┴──► executor pool ───────┘
//!              └───────────┘             (workers threads, blocking
//!                                         scheduler.apply → group commit)
//! ```
//!
//! ## Per-connection ordering
//!
//! Each connection processes its lines **strictly in order, one at a
//! time**: while a query/mutation/promotion is in flight, later buffered
//! lines wait — exactly the semantics of a dedicated connection thread
//! executing them synchronously. Every response byte is rendered by the
//! `server.rs` helpers ([`route_line`], [`render_query_outcome`],
//! [`apply_response`], [`promote_json`]). The equivalence suite replays
//! fixed workloads and diffs the bytes against committed golden
//! transcripts (`testdata/equivalence_*.ndjson`).
//!
//! ## Why mutations get a pool, not the reactor thread
//!
//! A durable mutation blocks on fsync (~100µs under group commit, more
//! alone). Running it on the reactor would stall every connection for
//! the duration. Instead mutations run on `workers` executor threads
//! calling the blocking [`Scheduler::apply`] — and it is precisely this
//! concurrency that feeds the WAL's group-commit batching: N executor
//! threads appending concurrently coalesce into one shared fsync.
//!
//! ## Liveness and hardening
//!
//! * **Slow loris**: a connection trickling bytes costs one `Conn` struct,
//!   not a thread; thousands of them leave latency for real clients
//!   untouched (`bench_c10k`'s idle tiers measure exactly this).
//! * **Idle timeout**: reaped when no byte arrives for `idle_timeout_ms`
//!   and nothing is pending.
//! * **Oversized lines**: one error response, then the connection drains
//!   and closes; the partial line is dropped, never buffered unboundedly.
//! * **EOF**: buffered complete lines are still answered (half-close
//!   pipelining works), then the connection closes.
//! * **Accept errors** (e.g. EMFILE) pause the listener with exponential
//!   backoff instead of spinning the event loop hot.

use crate::json::Json;
use crate::replication::ReplicationRole;
use crate::scheduler::Scheduler;
use crate::server::{
    admin_response, apply_response, error_fields, promote_json, render_query_outcome, route_line,
    take_buffered_line, AdminAction, ConnLimits, LineOutcome, ServerConfig, ACCEPT_BACKOFF,
    READ_POLL,
};
use crate::tenants::Tenants;
use crossbeam::channel::{self, Sender};
use mio::{Events, Interest, Poll, Token};
use parking_lot::Mutex;
use resacc::durability::MutationOp;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Instant;

const LISTENER: Token = Token(0);
const WAKE: Token = Token(1);
/// Connection ids start above the fixed tokens and increment forever —
/// never recycled, so a late completion can never hit a new connection.
const FIRST_CONN: usize = 2;

/// A finished asynchronous operation, addressed to one connection slot.
struct Completion {
    conn: usize,
    seq: u64,
    response: Json,
}

/// Shared with scheduler hooks and executor threads: finished responses
/// plus the self-wake pipe that drags the reactor out of `poll()`.
struct Mailbox {
    done: Mutex<Vec<Completion>>,
    /// Nonblocking writer half of the wake pipe. A full pipe means a wake
    /// is already pending, so a failed write is never a lost wakeup.
    wake: UnixStream,
}

impl Mailbox {
    fn push(&self, completion: Completion) {
        self.done.lock().push(completion);
        let _ = (&self.wake).write(&[1]);
    }

    fn take(&self) -> Vec<Completion> {
        std::mem::take(&mut self.done.lock())
    }
}

/// Blocking work shipped off the reactor thread.
enum ExecJob {
    Mutation {
        conn: usize,
        seq: u64,
        id: Option<u64>,
        op: MutationOp,
        scheduler: Arc<Scheduler>,
    },
    Promote {
        conn: usize,
        seq: u64,
        id: Option<u64>,
        request: Json,
    },
    Admin {
        conn: usize,
        seq: u64,
        id: Option<u64>,
        action: AdminAction,
    },
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Accumulated bytes that have not yet formed a complete line.
    rbuf: Vec<u8>,
    /// Rendered responses not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// Sequence number of the one in-flight asynchronous op, if any.
    /// While set, later buffered lines are *not* routed — per-connection
    /// ordering is exactly that of a thread serving the connection alone.
    awaiting: Option<u64>,
    /// Last moment a byte arrived (the idle clock).
    last_activity: Instant,
    /// No more reads: EOF, fatal protocol error, or server drain.
    /// Buffered complete lines are still answered; the connection closes
    /// once nothing remains to flush.
    no_more_reads: bool,
    /// The interest currently registered with the poller, if any.
    registered: Option<Interest>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            awaiting: None,
            last_activity: Instant::now(),
            no_more_reads: false,
            registered: None,
        }
    }

    fn push_response(&mut self, response: &Json) {
        self.wbuf.extend_from_slice(response.render().as_bytes());
        self.wbuf.push(b'\n');
    }

    /// True once there is nothing left to do for this connection.
    fn finished(&self) -> bool {
        self.no_more_reads
            && self.awaiting.is_none()
            && self.wbuf.is_empty()
            && !self.rbuf.contains(&b'\n')
    }
}

/// Everything the per-connection logic needs besides the connection map.
struct Ctx {
    tenants: Arc<Tenants>,
    limits: ConnLimits,
    replication: Option<Arc<ReplicationRole>>,
    mailbox: Arc<Mailbox>,
    jobs: Sender<ExecJob>,
    next_seq: u64,
    /// Set by a `shutdown` op: stop accepting, drain, exit.
    stopping: bool,
}

/// Runs the event loop until a client requests shutdown. Returns after
/// the full drain: every read request answered, executors joined.
pub(crate) fn run(
    listener: TcpListener,
    tenants: Arc<Tenants>,
    config: &ServerConfig,
    limits: ConnLimits,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let poll = Poll::new()?;
    let mut events = Events::with_capacity(1024);

    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    let mailbox = Arc::new(Mailbox {
        done: Mutex::new(Vec::new()),
        wake: wake_tx,
    });

    poll.register(&listener, LISTENER, Interest::READABLE)?;
    poll.register(&wake_rx, WAKE, Interest::READABLE)?;

    // The executor pool for blocking ops. Its width doubles as the
    // group-commit concurrency: this many mutations can share one fsync.
    let (job_tx, job_rx) = channel::unbounded::<ExecJob>();
    let mut executors = Vec::new();
    for i in 0..config.workers.max(1) {
        let job_rx = job_rx.clone();
        let tenants = tenants.clone();
        let replication = config.replication.clone();
        let mailbox = mailbox.clone();
        executors.push(
            std::thread::Builder::new()
                .name(format!("rwr-exec-{i}"))
                .spawn(move || {
                    while let Ok(job) = job_rx.recv() {
                        let (conn, seq, response) = match job {
                            ExecJob::Mutation {
                                conn,
                                seq,
                                id,
                                op,
                                scheduler,
                            } => (conn, seq, apply_response(id, &scheduler, op)),
                            ExecJob::Promote {
                                conn,
                                seq,
                                id,
                                request,
                            } => (
                                conn,
                                seq,
                                promote_json(id, &request, &tenants, replication.as_deref()),
                            ),
                            ExecJob::Admin {
                                conn,
                                seq,
                                id,
                                action,
                            } => (conn, seq, admin_response(id, &action, &tenants)),
                        };
                        mailbox.push(Completion {
                            conn,
                            seq,
                            response,
                        });
                    }
                })?,
        );
    }

    // Listener-level counters (rejects, accept errors) land on the
    // default tenant's surface.
    let listener_metrics = tenants.default_tenant().scheduler.metrics().clone();
    let mut ctx = Ctx {
        tenants,
        limits,
        replication: config.replication.clone(),
        mailbox: mailbox.clone(),
        jobs: job_tx,
        next_seq: 0,
        stopping: false,
    };
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_conn = FIRST_CONN;
    let mut listener_registered = true;
    let backoff_seed = crate::server::accept_seed(&listener);
    let mut accept_failures = 0u32;
    let mut accept_paused_until: Option<Instant> = None;

    while !(ctx.stopping && conns.is_empty()) {
        poll.poll(&mut events, Some(READ_POLL))?;

        let mut accept_ready = false;
        let mut ready: Vec<(usize, bool, bool)> = Vec::new();
        for ev in events.iter() {
            match ev.token() {
                LISTENER => accept_ready = true,
                WAKE => drain_wake(&wake_rx),
                Token(id) => ready.push((id, ev.is_readable(), ev.is_writable())),
            }
        }

        // Route finished async ops to their slots, then resume those
        // connections (always — a completion may have raced the wake).
        let was_stopping = ctx.stopping;
        for done in mailbox.take() {
            let Some(conn) = conns.get_mut(&done.conn) else {
                continue; // connection died while the op ran
            };
            if conn.awaiting == Some(done.seq) {
                conn.awaiting = None;
                conn.push_response(&done.response);
                advance(conn, done.conn, &mut ctx);
            }
        }

        // Un-pause accepting once the error backoff expires.
        if let Some(deadline) = accept_paused_until {
            if Instant::now() >= deadline && !ctx.stopping {
                poll.register(&listener, LISTENER, Interest::READABLE)?;
                listener_registered = true;
                accept_paused_until = None;
            }
        }

        if accept_ready && listener_registered && !ctx.stopping {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        accept_failures = 0;
                        if config.max_conns != 0 && conns.len() >= config.max_conns {
                            listener_metrics
                                .rejected_conns
                                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            reject(stream, config.max_conns);
                            continue;
                        }
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        // Pipelined responses must not wait on Nagle and
                        // the peer's delayed ACK.
                        let _ = stream.set_nodelay(true);
                        let id = next_conn;
                        next_conn += 1;
                        conns.insert(id, Conn::new(stream));
                        // Registration happens in the sweep below.
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        // Persistent accept failures (e.g. EMFILE) must not
                        // spin a level-triggered poller: pause the listener
                        // registration for the backoff window.
                        listener_metrics
                            .accept_errors
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let _ = poll.deregister(&listener);
                        listener_registered = false;
                        accept_paused_until =
                            Some(Instant::now() + ACCEPT_BACKOFF.delay(backoff_seed, accept_failures));
                        accept_failures = accept_failures.saturating_add(1);
                        break;
                    }
                }
            }
        }

        for (id, readable, writable) in ready {
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if readable && !conn.no_more_reads {
                read_ready(conn, id, &mut ctx);
            }
            if writable && !conn.wbuf.is_empty() {
                flush(conn);
            }
        }

        // A shutdown op flipped `stopping` this iteration: stop accepting
        // and put every connection into drain — each still answers the
        // complete lines it has already read.
        if ctx.stopping && !was_stopping {
            if listener_registered {
                let _ = poll.deregister(&listener);
                listener_registered = false;
            }
            accept_paused_until = None;
            let ids: Vec<usize> = conns.keys().copied().collect();
            for id in ids {
                if let Some(conn) = conns.get_mut(&id) {
                    advance(conn, id, &mut ctx);
                    conn.no_more_reads = true;
                }
            }
        }

        // Sweep: flush, close finished/idle/dead connections, and bring
        // poller registrations in line with what each connection needs.
        let now = Instant::now();
        conns.retain(|id, conn| {
            flush(conn);
            if conn.finished() {
                if conn.registered.is_some() {
                    let _ = poll.deregister(&conn.stream);
                }
                return false;
            }
            let idle_expired = ctx.limits.idle_timeout.is_some_and(|t| {
                !conn.no_more_reads
                    && conn.awaiting.is_none()
                    && conn.wbuf.is_empty()
                    && now.duration_since(conn.last_activity) >= t
            });
            if idle_expired {
                if conn.registered.is_some() {
                    let _ = poll.deregister(&conn.stream);
                }
                return false;
            }
            let mut desired = None;
            if !conn.no_more_reads {
                desired = Some(Interest::READABLE);
            }
            if !conn.wbuf.is_empty() {
                desired = Some(match desired {
                    Some(i) => i | Interest::WRITABLE,
                    None => Interest::WRITABLE,
                });
            }
            if desired != conn.registered {
                let token = Token(*id);
                let ok = match (conn.registered, desired) {
                    (None, Some(want)) => poll.register(&conn.stream, token, want).is_ok(),
                    (Some(_), Some(want)) => poll.reregister(&conn.stream, token, want).is_ok(),
                    (Some(_), None) => poll.deregister(&conn.stream).is_ok(),
                    (None, None) => true,
                };
                if ok {
                    conn.registered = desired;
                }
            }
            true
        });
    }

    // Drain the executors before returning: with the pool joined, no
    // mutation can race the caller's shutdown checkpoint.
    drop(ctx.jobs);
    for t in executors {
        let _ = t.join();
    }
    Ok(())
}

/// Drains the wake pipe so a level-triggered poller goes quiet.
fn drain_wake(wake_rx: &UnixStream) {
    let mut buf = [0u8; 64];
    while matches!((&*wake_rx).read(&mut buf), Ok(n) if n > 0) {}
}

/// Tells an over-cap client why it is being dropped, best-effort. The
/// socket is fresh, so a single nonblocking write reaches the kernel
/// buffer or the client was never going to hear from us anyway.
fn reject(stream: TcpStream, max_conns: usize) {
    let _ = stream.set_nonblocking(true);
    let response = error_fields(
        None,
        "overloaded",
        &format!("connection limit reached (max {max_conns})"),
        None,
    );
    let mut line = response.render();
    line.push('\n');
    let _ = (&stream).write(line.as_bytes());
}

/// Reads everything currently available, processing complete lines as
/// they form (so the line-length bound only ever sees a partial tail).
fn read_ready(conn: &mut Conn, conn_id: usize, ctx: &mut Ctx) {
    loop {
        let mut chunk = [0u8; 4096];
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                // EOF: answer what is buffered, then close.
                conn.no_more_reads = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
                advance(conn, conn_id, ctx);
                // Only an unterminated line can grow without bound;
                // complete lines were just drained (or are parked behind
                // an in-flight op, which bounds them at max_line_bytes
                // per op — the client is answering for its own pipeline).
                if conn.awaiting.is_none()
                    && !conn.rbuf.contains(&b'\n')
                    && conn.rbuf.len() > ctx.limits.max_line_bytes
                {
                    let response = error_fields(
                        None,
                        "bad request",
                        &format!("line exceeds {} bytes", ctx.limits.max_line_bytes),
                        None,
                    );
                    conn.push_response(&response);
                    conn.rbuf.clear();
                    conn.no_more_reads = true;
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Hard error: drop whatever is in flight.
                conn.rbuf.clear();
                conn.wbuf.clear();
                conn.awaiting = None;
                conn.no_more_reads = true;
                break;
            }
        }
    }
}

/// Routes buffered complete lines until one goes asynchronous (or the
/// buffer runs dry). The `awaiting` gate serializes each connection's
/// requests exactly as a dedicated thread would.
fn advance(conn: &mut Conn, conn_id: usize, ctx: &mut Ctx) {
    while conn.awaiting.is_none() {
        let Some(line) = take_buffered_line(&mut conn.rbuf) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        match route_line(
            &line,
            &ctx.tenants,
            &ctx.limits,
            ctx.replication.as_deref(),
        ) {
            LineOutcome::Respond(json) => conn.push_response(&json),
            LineOutcome::Shutdown(json) => {
                conn.push_response(&json);
                // The initiator answers nothing further after the ack.
                conn.rbuf.clear();
                conn.no_more_reads = true;
                ctx.stopping = true;
                return;
            }
            LineOutcome::Query {
                id,
                request,
                k,
                full,
                scheduler,
            } => {
                let seq = ctx.next_seq;
                ctx.next_seq += 1;
                conn.awaiting = Some(seq);
                let mailbox = ctx.mailbox.clone();
                scheduler.submit_hook(request, move |outcome| {
                    mailbox.push(Completion {
                        conn: conn_id,
                        seq,
                        response: render_query_outcome(id, outcome, k, full),
                    });
                });
            }
            LineOutcome::Mutation { id, op, scheduler } => {
                let seq = ctx.next_seq;
                ctx.next_seq += 1;
                conn.awaiting = Some(seq);
                let _ = ctx.jobs.send(ExecJob::Mutation {
                    conn: conn_id,
                    seq,
                    id,
                    op,
                    scheduler,
                });
            }
            LineOutcome::Promote { id, request } => {
                let seq = ctx.next_seq;
                ctx.next_seq += 1;
                conn.awaiting = Some(seq);
                let _ = ctx.jobs.send(ExecJob::Promote {
                    conn: conn_id,
                    seq,
                    id,
                    request,
                });
            }
            LineOutcome::Admin { id, action } => {
                let seq = ctx.next_seq;
                ctx.next_seq += 1;
                conn.awaiting = Some(seq);
                let _ = ctx.jobs.send(ExecJob::Admin {
                    conn: conn_id,
                    seq,
                    id,
                    action,
                });
            }
        }
    }
}

/// Pushes as much of `wbuf` as the socket will take right now.
fn flush(conn: &mut Conn) {
    while !conn.wbuf.is_empty() {
        match conn.stream.write(&conn.wbuf) {
            Ok(0) => {
                dead(conn);
                return;
            }
            Ok(n) => {
                conn.wbuf.drain(..n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                dead(conn);
                return;
            }
        }
    }
}

/// A write failed: nothing more can reach this client; make `finished()`
/// true so the sweep closes it.
fn dead(conn: &mut Conn) {
    conn.rbuf.clear();
    conn.wbuf.clear();
    conn.awaiting = None;
    conn.no_more_reads = true;
}

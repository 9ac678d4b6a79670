//! Resilient version-aware router: a front-end that speaks the server's
//! NDJSON wire protocol to clients and turns backend failures into
//! retried, hedged, parked, or typed-degraded requests instead of
//! client-visible errors.
//!
//! ```text
//!              ┌───────────────────────────── router ─────────────────────────────┐
//!   clients ──►│ per-conn loop ─► route: reads ──► pool.read_candidates (lag ↑)   │
//!              │                        │             ├─ retry budget + backoff   │
//!              │                        │             └─ hedge after p[q] delay   │
//!              │                  mutations ──► pool.writable (fresh conn,        │
//!              │                        │        pre-ack-only retry, semi-sync)   │
//!              │                  prober: stats probes ─► breaker per backend     │
//!              │                        └─ no primary? ─► failover::try_failover  │
//!              └──────────────────────────────────────────────────────────────────┘
//!                         backends: 1 primary + N replicas (PR 5/7 machinery)
//! ```
//!
//! Responsibilities and the properties they defend:
//!
//! * **Version-aware reads** — a request's `min_version` is honored by
//!   selecting only replicas whose probed `applied_version` qualifies
//!   (primary as fallback), *and* re-verified on the response: a reply
//!   below `min_version` is retried, so read-your-writes holds even when
//!   probe info is a tick stale.
//! * **Retry discipline** — reads retry across backends within a
//!   per-request budget; mutations retry only when the request line
//!   provably never executed (see retry.rs). Delays come from the shared
//!   jittered backoff policy in `resacc::backoff`.
//! * **Hedged reads** — after an adaptive quantile delay, duplicate the
//!   read to the next-best replica and relay the first answer.
//! * **Failover** — probes detect primary death; the most-caught-up
//!   replica is promoted over the epoch-fence path; mutations park (not
//!   fail) while orchestration runs. With semi-sync acks on (default),
//!   every router-acked write is applied on a replica before the client
//!   sees the ack, so an automated failover never drops an acked write.
//! * **Typed degradation** — with no electable primary, reads are still
//!   served, annotated `"stale":true,"applied_version":V`; mutations and
//!   parked reads fail with typed `unavailable`/`timeout`/`in_doubt`
//!   errors in the server's own error shape.

pub(crate) mod failover;
pub(crate) mod hedge;
pub mod pool;
pub(crate) mod retry;

pub use pool::{Backend, BackendPool, BreakerState, NsProbe, ProbeInfo};

use crate::client::{connect, exchange_split, ExchangeError};
use crate::json::Json;
use crate::server::{
    accept_seed, error_fields, ok_response, request_shutdown, take_buffered_line, ACCEPT_BACKOFF,
    READ_POLL,
};
use hedge::LatencyWindow;
use resacc::durability::{valid_namespace, DEFAULT_NAMESPACE};
use retry::{RouterError, RETRY_BACKOFF};

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a parked request re-checks the pool for a candidate.
const PARK_POLL: Duration = Duration::from_millis(10);

/// One entry of the static shard map: which tenants live on which
/// backend set. Parsed from a repeatable `--shard ns1,ns2=addr1,addr2`
/// flag; the namespace list may be (or contain) `*`, the catch-all that
/// takes every tenant no other shard claims.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// Namespaces this shard serves (`*` = catch-all).
    pub namespaces: Vec<String>,
    /// Backend client (NDJSON) addresses: the shard's primary and its
    /// replicas, in any order — roles are discovered by probing.
    pub backends: Vec<String>,
}

impl ShardSpec {
    /// Parses `ns1,ns2=addr1,addr2`. Namespaces must be valid tenant
    /// names or `*`; both sides must be non-empty.
    pub fn parse(spec: &str) -> Result<ShardSpec, String> {
        let (names, addrs) = spec
            .split_once('=')
            .ok_or_else(|| format!("bad shard spec {spec:?}: expected ns1,ns2=addr1,addr2"))?;
        let namespaces: Vec<String> = names
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        if namespaces.is_empty() {
            return Err(format!("bad shard spec {spec:?}: no namespaces"));
        }
        for ns in &namespaces {
            if ns != "*" && !valid_namespace(ns) {
                return Err(format!(
                    "bad shard spec {spec:?}: invalid namespace {ns:?} (need 1-64 chars of [a-z0-9_-], or *)"
                ));
            }
        }
        let backends: Vec<String> = addrs
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        if backends.is_empty() {
            return Err(format!("bad shard spec {spec:?}: no backends"));
        }
        Ok(ShardSpec {
            namespaces,
            backends,
        })
    }

    /// Display name: the namespace list as written (`a,b`, or `*`).
    pub fn name(&self) -> String {
        self.namespaces.join(",")
    }
}

/// Router tunables. `new` gives production defaults; every field has a
/// CLI flag (see `rwr router --help`).
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Backend client (NDJSON) addresses: the primary and its replicas,
    /// in any order — roles are discovered by probing, not configured.
    /// When `shards` is empty this set forms a single catch-all shard
    /// (the pre-sharding topology, byte-identical behavior).
    pub backends: Vec<String>,
    /// The static shard map (`--shard`, repeatable). Empty = one
    /// catch-all shard built from `backends`.
    pub shards: Vec<ShardSpec>,
    /// Health-probe cadence.
    pub probe_interval_ms: u64,
    /// Connect + read timeout for probes (and backend connects).
    pub probe_timeout_ms: u64,
    /// Consecutive failures that open a backend's breaker.
    pub breaker_threshold: u32,
    /// Base cooldown before an open breaker admits a trial probe
    /// (jittered, doubling per reopen).
    pub breaker_cooldown_ms: u64,
    /// Backend attempts per client request.
    pub retry_budget: u32,
    /// Latency quantile that arms the hedge timer; `<= 0` disables
    /// hedging.
    pub hedge_quantile: f64,
    /// Floor for the hedge delay, so a fast backend doesn't trigger
    /// hedges on scheduling noise.
    pub hedge_min_ms: u64,
    /// How long a request may park waiting for a qualified backend
    /// (failover in progress, no replica at `min_version`).
    pub park_ms: u64,
    /// Read deadline for one backend exchange.
    pub read_timeout_ms: u64,
    /// Ack mutations only after a replica has applied them (semi-sync).
    /// This is what makes "zero acked-write loss across failover" a
    /// theorem rather than a race.
    pub sync_acks: bool,
    /// Longest a single mutation ack waits on semi-sync before the
    /// router flips to degraded (async) acks. Degradation is sticky:
    /// once a wait times out, later acks skip the wait until a replica
    /// proves it caught up again — a zombie replica (alive but following
    /// a dead primary) must cost one bounded stall, not one per write.
    pub sync_ack_timeout_ms: u64,
    /// Orchestrate promotion automatically when the primary dies.
    pub auto_failover: bool,
    /// Client connection cap (0 = unlimited).
    pub max_conns: usize,
    /// Longest accepted request line.
    pub max_line_bytes: usize,
    /// Drop idle client connections after this long (0 = never).
    pub idle_timeout_ms: u64,
    /// Jitter seed (backoff, breaker cooldowns).
    pub seed: u64,
}

impl RouterConfig {
    /// Defaults for the given backend set.
    pub fn new(backends: Vec<String>) -> RouterConfig {
        RouterConfig {
            backends,
            shards: Vec::new(),
            probe_interval_ms: 50,
            probe_timeout_ms: 500,
            breaker_threshold: 3,
            breaker_cooldown_ms: 250,
            retry_budget: 4,
            hedge_quantile: 0.95,
            hedge_min_ms: 2,
            park_ms: 5_000,
            read_timeout_ms: 5_000,
            sync_acks: true,
            sync_ack_timeout_ms: 1_000,
            auto_failover: true,
            max_conns: 0,
            max_line_bytes: 1 << 20,
            idle_timeout_ms: 0,
            seed: 0x7275_7465, // "rute"
        }
    }
}

/// Lock-free router counters, surfaced under `"router"` in `stats`.
#[derive(Default)]
pub struct RouterMetrics {
    /// Client read requests routed.
    pub reads: AtomicU64,
    /// Client mutations routed.
    pub mutations: AtomicU64,
    /// Backend attempts beyond the first, any cause.
    pub retries: AtomicU64,
    /// Requests that parked waiting for a qualified backend.
    pub parked: AtomicU64,
    /// Hedge duplicates issued.
    pub hedges: AtomicU64,
    /// Races the duplicate won.
    pub hedge_wins: AtomicU64,
    /// Automated/manual promotions orchestrated.
    pub failovers: AtomicU64,
    /// Reads served with the `stale` annotation.
    pub stale_served: AtomicU64,
    /// Retries forced by a response below `min_version`.
    pub min_version_retries: AtomicU64,
    /// Mutations abandoned post-write with unknown outcome.
    pub in_doubt: AtomicU64,
    /// Requests that exhausted their retry budget.
    pub unavailable: AtomicU64,
    /// Requests that hit the park deadline.
    pub timeouts: AtomicU64,
    /// Mutation acks relayed without a replica having applied them
    /// (semi-sync wait timed out — degraded, loss window open).
    pub unreplicated_acks: AtomicU64,
}

/// One shard at runtime: its pool of backends plus the per-shard state
/// that used to be router-global (latency window for hedging, the sticky
/// semi-sync latch, the acked-version watermark). Per-shard because one
/// shard's zombie replica must not degrade another shard's acks, and one
/// shard's slow backend must not poison another's hedge timer.
struct Shard {
    /// Display name: the namespace list as configured (`a,b` or `*`).
    name: String,
    /// Namespaces this shard serves (may contain `*`).
    namespaces: Vec<String>,
    /// Whether this shard takes tenants no other shard claims.
    catch_all: bool,
    pool: Arc<BackendPool>,
    window: LatencyWindow,
    /// Sticky semi-sync degradation latch: set when an ack wait times
    /// out, cleared when a replica is observed caught up again.
    sync_degraded: AtomicBool,
    /// Highest mutation version acked to any client, per namespace
    /// (versions are per-tenant logs now). The degraded-mode re-arm
    /// check compares replicas against *this* (the previous ack) rather
    /// than the in-flight version — a healthy replica is always a hair
    /// behind the write being acked right now, and testing against the
    /// current version would keep the latch stuck forever.
    last_acked: parking_lot::Mutex<HashMap<String, u64>>,
}

impl Shard {
    fn last_acked(&self, ns: &str) -> u64 {
        self.last_acked.lock().get(ns).copied().unwrap_or(0)
    }

    fn record_ack(&self, ns: &str, version: u64) {
        let mut map = self.last_acked.lock();
        let entry = map.entry(ns.to_string()).or_insert(0);
        *entry = (*entry).max(version);
    }
}

struct Inner {
    shards: Vec<Arc<Shard>>,
    cfg: RouterConfig,
    metrics: Arc<RouterMetrics>,
}

impl Inner {
    /// Routes a namespace to its shard: exact match first, then the
    /// catch-all, then `None` — a typed `unknown_namespace` to the
    /// client, never a guess.
    fn resolve(&self, ns: &str) -> Option<&Arc<Shard>> {
        self.shards
            .iter()
            .find(|s| s.namespaces.iter().any(|n| n == ns))
            .or_else(|| self.shards.iter().find(|s| s.catch_all))
    }
}

/// Materializes the configured shard map (or the single catch-all shard
/// the flat `backends` list implies).
fn build_shards(config: &RouterConfig, metrics: &Arc<RouterMetrics>) -> Vec<Arc<Shard>> {
    let specs: Vec<ShardSpec> = if config.shards.is_empty() {
        vec![ShardSpec {
            namespaces: vec!["*".to_string()],
            backends: config.backends.clone(),
        }]
    } else {
        config.shards.clone()
    };
    specs
        .into_iter()
        .map(|spec| {
            let mut shard_cfg = config.clone();
            shard_cfg.backends = spec.backends.clone();
            Arc::new(Shard {
                name: spec.name(),
                catch_all: spec.namespaces.iter().any(|n| n == "*"),
                namespaces: spec.namespaces,
                pool: Arc::new(BackendPool::new(shard_cfg, metrics.clone())),
                window: LatencyWindow::new(),
                sync_degraded: AtomicBool::new(false),
                last_acked: parking_lot::Mutex::new(HashMap::new()),
            })
        })
        .collect()
}

/// Serves the router on `listener` until a client sends `shutdown`.
/// Mirrors [`crate::server::serve`]'s accept/drain discipline.
pub fn serve(listener: TcpListener, config: RouterConfig) -> std::io::Result<()> {
    let metrics = Arc::new(RouterMetrics::default());
    let shards = build_shards(&config, &metrics);
    let inner = Arc::new(Inner {
        shards,
        cfg: config,
        metrics,
    });
    // Route from truth, not defaults: probe everything once before the
    // first client request can arrive.
    for shard in &inner.shards {
        shard.pool.probe_all();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut probers = Vec::new();
    for shard in &inner.shards {
        let pool = shard.pool.clone();
        let stop = stop.clone();
        probers.push(
            std::thread::Builder::new()
                .name(format!("rwr-router-probe-{}", shard.name))
                .spawn(move || pool.prober_loop(&stop))?,
        );
    }

    listener.set_nonblocking(true)?;
    let backoff_seed = accept_seed(&listener);
    let mut accept_failures = 0u32;
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                accept_failures = 0;
                handlers.retain(|t| !t.is_finished());
                if inner.cfg.max_conns != 0 && handlers.len() >= inner.cfg.max_conns {
                    drop(stream);
                    continue;
                }
                let inner = inner.clone();
                let stop = stop.clone();
                handlers.push(
                    std::thread::Builder::new()
                        .name("rwr-router-conn".into())
                        .spawn(move || {
                            if handle_client(stream, &inner, &stop) {
                                stop.store(true, Ordering::Release);
                            }
                        })?,
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(PARK_POLL);
            }
            Err(_) => {
                std::thread::sleep(ACCEPT_BACKOFF.delay(backoff_seed, accept_failures));
                accept_failures = accept_failures.saturating_add(1);
            }
        }
    }
    for t in handlers {
        let _ = t.join();
    }
    for t in probers {
        let _ = t.join();
    }
    Ok(())
}

/// A spawned router: join handle + resolved address, shut down over the
/// wire exactly like a spawned server.
pub struct RouterHandle {
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl RouterHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends `shutdown` and joins the serve thread.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        request_shutdown(&self.addr.to_string())?;
        match self.thread.take() {
            Some(t) => t.join().unwrap_or_else(|_| {
                Err(std::io::Error::other("router thread panicked"))
            }),
            None => Ok(()),
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = request_shutdown(&self.addr.to_string());
            let _ = t.join();
        }
    }
}

/// Binds `addr` and serves the router on a background thread.
pub fn spawn(addr: &str, config: RouterConfig) -> std::io::Result<RouterHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let thread = std::thread::Builder::new()
        .name("rwr-router".into())
        .spawn(move || serve(listener, config))?;
    Ok(RouterHandle {
        addr: local,
        thread: Some(thread),
    })
}

/// Handles one client connection; true when the client asked the router
/// to shut down. Partial lines stay buffered until their newline arrives,
/// and a connection idle past the timeout is closed, as on the server.
fn handle_client(stream: TcpStream, inner: &Inner, stop: &AtomicBool) -> bool {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return false,
    };
    let mut writer = std::io::BufWriter::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    let mut idle = Duration::ZERO;
    let idle_limit = (inner.cfg.idle_timeout_ms > 0)
        .then(|| Duration::from_millis(inner.cfg.idle_timeout_ms));
    loop {
        if let Some(line) = take_buffered_line(&mut buf) {
            idle = Duration::ZERO;
            if line.trim().is_empty() {
                continue;
            }
            let (response, shutdown) = route_request(&line, inner);
            if writeln!(writer, "{response}").is_err() || writer.flush().is_err() {
                return false;
            }
            if shutdown {
                return true;
            }
            continue;
        }
        if stop.load(Ordering::Acquire) {
            return false;
        }
        let mut chunk = [0u8; 4096];
        match read_half.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => {
                idle = Duration::ZERO;
                buf.extend_from_slice(&chunk[..n]);
                if !buf.contains(&b'\n') && buf.len() > inner.cfg.max_line_bytes {
                    let e = error_fields(
                        None,
                        "bad request",
                        &format!("line exceeds {} bytes", inner.cfg.max_line_bytes),
                        None,
                    );
                    let _ = writeln!(writer, "{}", e.render());
                    let _ = writer.flush();
                    return false;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                idle += READ_POLL;
                if idle_limit.is_some_and(|t| idle >= t) {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
}

/// Routes one request line; returns (rendered response, shutdown?).
fn route_request(line: &str, inner: &Inner) -> (String, bool) {
    let request = match Json::parse(line) {
        Ok(r) => r,
        Err(e) => {
            return (
                error_fields(None, &format!("bad json: {e}"), "", None).render(),
                false,
            )
        }
    };
    let id = request.get("id").and_then(Json::as_u64);
    let op = request.get("op").and_then(Json::as_str).unwrap_or("");
    // Tenant extraction mirrors the server: absent ⇒ default, non-string
    // ⇒ a protocol error. `create_namespace`/`drop_namespace` name their
    // tenant in the same field, so they shard-route like any mutation.
    let ns = match request.get("namespace") {
        None => DEFAULT_NAMESPACE.to_string(),
        Some(Json::Str(s)) => s.clone(),
        Some(_) => {
            return (
                error_fields(id, "bad request", "namespace must be a string", None).render(),
                false,
            )
        }
    };
    let explicit_ns = request.get("namespace").is_some();
    // Ops that talk to one shard resolve it up front; an unmapped tenant
    // gets the typed answer instead of a guessed backend. A namespace-less
    // `stats` never needs a mapping — it aggregates (or hits the only
    // shard).
    let needs_shard = matches!(
        op,
        "query" | "insert_edges" | "delete_edges" | "delete_node" | "promote"
            | "create_namespace" | "drop_namespace"
    ) || (op == "stats" && explicit_ns);
    let shard = if needs_shard {
        match inner.resolve(&ns) {
            Some(s) => Some(s.clone()),
            None => {
                return (
                    error_fields(
                        id,
                        "unknown_namespace",
                        &format!("no shard mapped for namespace {ns:?}"),
                        None,
                    )
                    .render(),
                    false,
                )
            }
        }
    } else {
        None
    };
    let shard = shard.as_ref();
    let resolved = || shard.expect("shard resolved for this op");
    match op {
        "ping" => (ok_response(id, vec![]).render(), false),
        "shutdown" => (ok_response(id, vec![]).render(), true),
        "query" => (route_read(line, &request, id, &ns, resolved(), inner), false),
        "insert_edges" | "delete_edges" | "delete_node" | "create_namespace"
        | "drop_namespace" => (route_mutation(line, id, &ns, resolved(), inner), false),
        "stats" => (route_stats(line, id, shard, inner), false),
        "list_namespaces" => (route_list_namespaces(line, id, inner), false),
        "promote" => (route_promote(id, resolved(), inner), false),
        other => (
            error_fields(id, &format!("unknown op {other:?}"), "", None).render(),
            false,
        ),
    }
}

fn render_error(id: Option<u64>, e: &RouterError) -> String {
    error_fields(id, e.code(), e.detail(), None).render()
}

/// The read path: candidate selection honoring `min_version` (against
/// the tenant's own log), retry budget across the shard's backends,
/// hedging, parking, and the stale degradation.
fn route_read(
    line: &str,
    request: &Json,
    id: Option<u64>,
    ns: &str,
    shard: &Arc<Shard>,
    inner: &Inner,
) -> String {
    inner.metrics.reads.fetch_add(1, Ordering::Relaxed);
    let min_version = request.get("min_version").and_then(Json::as_u64);
    let cfg = &inner.cfg;
    let park_deadline = Instant::now() + Duration::from_millis(cfg.park_ms);
    let read_timeout = Duration::from_millis(cfg.read_timeout_ms);
    let budget = cfg.retry_budget.max(1);
    let mut attempts = 0u32;
    let mut parked = false;
    let mut last_detail = String::new();
    loop {
        let candidates = shard.pool.read_candidates(ns, min_version);
        if candidates.is_empty() {
            // Nothing qualifies right now: park. A failover may produce a
            // primary, or a replica may catch up to min_version.
            if !parked {
                parked = true;
                inner.metrics.parked.fetch_add(1, Ordering::Relaxed);
            }
            if Instant::now() >= park_deadline {
                // Typed degradation: with no primary electable, serve the
                // freshest reachable backend and annotate instead of
                // erroring. With a primary alive this is a plain timeout
                // (the caller's min_version is ahead of the world).
                if shard.pool.writable().is_none() {
                    if let Some(b) = shard.pool.freshest(ns) {
                        if let Ok(outcome) =
                            hedge::hedged_read(b, None, line, read_timeout, read_timeout, cfg)
                        {
                            return annotate_stale(&outcome.raw, inner);
                        }
                    }
                }
                inner.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                return render_error(
                    id,
                    &RouterError::Timeout(format!(
                        "no backend qualified within park deadline ({} ms); last: {last_detail}",
                        cfg.park_ms
                    )),
                );
            }
            std::thread::sleep(PARK_POLL);
            continue;
        }
        if attempts >= budget {
            inner.metrics.unavailable.fetch_add(1, Ordering::Relaxed);
            return render_error(
                id,
                &RouterError::Unavailable(format!(
                    "read retry budget ({budget}) exhausted; last: {last_detail}"
                )),
            );
        }
        if attempts > 0 {
            inner.metrics.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(RETRY_BACKOFF.delay(cfg.seed ^ id.unwrap_or(0), attempts - 1));
        }
        attempts += 1;
        // Hedge setup: duplicate onto the next-best candidate after the
        // adaptive delay. Until the latency window has a baseline, reads
        // run unhedged.
        let hedge_delay = (cfg.hedge_quantile > 0.0)
            .then(|| shard.window.quantile(cfg.hedge_quantile))
            .flatten()
            .map(|q| q.max(Duration::from_millis(cfg.hedge_min_ms)));
        let second = hedge_delay.and(candidates.get(1).cloned());
        let delay = hedge_delay.unwrap_or(read_timeout);
        match hedge::hedged_read(
            candidates[0].clone(),
            second,
            line,
            delay,
            read_timeout,
            cfg,
        ) {
            Ok(outcome) => {
                shard.window.record(outcome.latency);
                if outcome.hedged {
                    inner.metrics.hedges.fetch_add(1, Ordering::Relaxed);
                }
                if outcome.hedge_won {
                    inner.metrics.hedge_wins.fetch_add(1, Ordering::Relaxed);
                }
                let Ok(parsed) = Json::parse(&outcome.raw) else {
                    last_detail = "unparseable backend response".to_string();
                    continue;
                };
                if parsed.get("ok").and_then(Json::as_bool) == Some(true) {
                    if let (Some(mv), Some(v)) = (
                        min_version,
                        parsed.get("version").and_then(Json::as_u64),
                    ) {
                        if v < mv {
                            // Probe info was stale: this backend hasn't
                            // actually caught up. Verify-and-retry keeps
                            // read-your-writes airtight.
                            inner
                                .metrics
                                .min_version_retries
                                .fetch_add(1, Ordering::Relaxed);
                            last_detail = format!("backend at version {v} < min_version {mv}");
                            continue;
                        }
                    }
                }
                // Relay the raw backend line (bit-identical), annotating
                // only when serving without an active primary.
                if shard.pool.writable().is_none() {
                    return annotate_stale(&outcome.raw, inner);
                }
                return outcome.raw;
            }
            Err(e) => {
                last_detail = e.to_string();
                continue;
            }
        }
    }
}

/// Adds `"stale":true,"applied_version":V` to a served-without-primary
/// response and counts it.
fn annotate_stale(raw: &str, inner: &Inner) -> String {
    let Ok(Json::Obj(mut fields)) = Json::parse(raw) else {
        return raw.to_string();
    };
    let version = Json::Obj(fields.clone())
        .get("version")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    fields.push(("stale".to_string(), Json::Bool(true)));
    fields.push(("applied_version".to_string(), Json::u64(version)));
    inner.metrics.stale_served.fetch_add(1, Ordering::Relaxed);
    Json::Obj(fields).render()
}

/// The mutation path: writable-primary selection on the tenant's shard,
/// fresh-connection exchanges, pre-ack-only retries, parking across
/// failover, semi-sync acks. Namespace lifecycle ops (`create_namespace`
/// / `drop_namespace`) ride this path too — they are primary-only writes
/// whose responses simply carry no version to semi-sync on.
fn route_mutation(line: &str, id: Option<u64>, ns: &str, shard: &Arc<Shard>, inner: &Inner) -> String {
    inner.metrics.mutations.fetch_add(1, Ordering::Relaxed);
    let cfg = &inner.cfg;
    let deadline = Instant::now() + Duration::from_millis(cfg.park_ms);
    let read_timeout = Duration::from_millis(cfg.read_timeout_ms);
    let connect_timeout = Duration::from_millis(cfg.probe_timeout_ms);
    let budget = cfg.retry_budget.max(1);
    let mut attempts = 0u32;
    let mut parked = false;
    let mut last_detail = String::new();
    loop {
        let Some(primary) = shard.pool.writable() else {
            if !parked {
                parked = true;
                inner.metrics.parked.fetch_add(1, Ordering::Relaxed);
            }
            if cfg.auto_failover {
                // Orchestrate (or join the pass already running). Either
                // way the next writable() sees the outcome.
                failover::try_failover(&shard.pool, &inner.metrics);
            }
            if Instant::now() >= deadline {
                inner.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                return render_error(
                    id,
                    &RouterError::Timeout(format!(
                        "no writable backend within park deadline ({} ms); last: {last_detail}",
                        cfg.park_ms
                    )),
                );
            }
            std::thread::sleep(PARK_POLL);
            continue;
        };
        if attempts >= budget {
            inner.metrics.unavailable.fetch_add(1, Ordering::Relaxed);
            return render_error(
                id,
                &RouterError::Unavailable(format!(
                    "mutation retry budget ({budget}) exhausted; last: {last_detail}"
                )),
            );
        }
        if attempts > 0 {
            inner.metrics.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(RETRY_BACKOFF.delay(cfg.seed ^ id.unwrap_or(0), attempts - 1));
        }
        attempts += 1;
        // Always a fresh connection: "write failed ⇒ never executed"
        // only holds when the socket was alive at checkout (retry.rs).
        let mut conn = match connect(&primary.addr, Some(connect_timeout)) {
            Ok(c) => c,
            Err(e) => {
                primary.note_failure(cfg);
                last_detail = format!("connect {}: {e}", primary.addr);
                continue; // pre-ack: safe to retry
            }
        };
        match exchange_split(&mut conn, line, Some(read_timeout)) {
            Err(ExchangeError::PreWrite(e)) => {
                primary.note_failure(cfg);
                last_detail = format!("write {}: {e}", primary.addr);
                continue; // request line never delivered: safe to retry
            }
            Err(ExchangeError::PostWrite(e)) => {
                // The line was delivered; the backend may have applied
                // it. Retrying could double-apply — stop with the typed
                // ambiguous outcome.
                primary.note_failure(cfg);
                inner.metrics.in_doubt.fetch_add(1, Ordering::Relaxed);
                return render_error(
                    id,
                    &RouterError::InDoubt(format!(
                        "ack lost after delivery to {}: {e}; reconcile via stats",
                        primary.addr
                    )),
                );
            }
            Ok(raw) => {
                let Ok(parsed) = Json::parse(&raw) else {
                    return raw; // relay whatever the backend said
                };
                let code = parsed.get("error").and_then(Json::as_str).unwrap_or("");
                if code == "read_only" || code == "fenced" {
                    // The role moved under us (fence landed, failover
                    // elsewhere finished): refresh and re-route. The
                    // mutation was bounced, not applied — safe to retry.
                    shard.pool.probe(&primary);
                    last_detail = format!("{} bounced: {code}", primary.addr);
                    continue;
                }
                if parsed.get("ok").and_then(Json::as_bool) == Some(true) {
                    if let Some(version) = parsed.get("version").and_then(Json::as_u64) {
                        semi_sync_wait(ns, version, deadline, shard, inner);
                    }
                }
                primary.park_conn(conn);
                return raw;
            }
        }
    }
}

/// Semi-sync ack gate: hold the client's ack until a replica has applied
/// `version`. Skipped for replica-less topologies (nothing to fail over
/// to); a timeout relays anyway but counts the open loss window.
///
/// The wait is bounded by `sync_ack_timeout_ms` (not the park deadline)
/// and degradation is sticky: after one timeout the router acks async —
/// a replica that cannot catch up (zombie following a dead primary,
/// partitioned link) costs one bounded stall, not `park_ms` per write.
/// The latch clears as soon as some replica is observed at the acked
/// version again, restoring the loss-free failover guarantee.
fn semi_sync_wait(ns: &str, version: u64, deadline: Instant, shard: &Shard, inner: &Inner) {
    if !inner.cfg.sync_acks {
        return;
    }
    let has_replica = shard.pool.backends.iter().any(|b| {
        let i = b.info();
        i.probed && i.read_only && b.breaker_state() != BreakerState::Open
    });
    if !has_replica {
        return;
    }
    if shard.sync_degraded.load(Ordering::Relaxed) {
        // Re-arm only once a replica has caught up to everything acked
        // *before* this write; then this write waits normally again.
        if shard.pool.replicated_at(ns, shard.last_acked(ns)) {
            shard.sync_degraded.store(false, Ordering::Relaxed);
        } else {
            inner.metrics.unreplicated_acks.fetch_add(1, Ordering::Relaxed);
            shard.record_ack(ns, version);
            return;
        }
    }
    let cap = Instant::now() + Duration::from_millis(inner.cfg.sync_ack_timeout_ms.max(1));
    let replicated = shard.pool.await_replicated(ns, version, deadline.min(cap));
    shard.record_ack(ns, version);
    if !replicated {
        inner.metrics.unreplicated_acks.fetch_add(1, Ordering::Relaxed);
        shard.sync_degraded.store(true, Ordering::Relaxed);
    }
}

/// Fetches one shard's `stats` from its best backend (primary preferred
/// — its counts lead the fleet).
fn fetch_shard_stats(line: &str, shard: &Arc<Shard>, inner: &Inner) -> Option<Json> {
    let read_timeout = Duration::from_millis(inner.cfg.read_timeout_ms);
    let mut candidates = Vec::new();
    if let Some(p) = shard.pool.writable() {
        candidates.push(p);
    }
    candidates.extend(shard.pool.read_candidates(DEFAULT_NAMESPACE, None));
    for backend in candidates {
        if let Ok(outcome) =
            hedge::hedged_read(backend, None, line, read_timeout, read_timeout, &inner.cfg)
        {
            if let Ok(parsed) = Json::parse(&outcome.raw) {
                return Some(parsed);
            }
        }
    }
    None
}

/// Forwards `stats` and injects the router's own `"router"` section.
///
/// Single-shard routers (the `--backends` topology, or one `--shard`)
/// answer in the pre-sharding flat shape, bit-compatible with PR 9.
/// Multi-shard routers aggregate: each shard's backend stats nest under
/// `shards.{name}`, and the top level carries only the aggregate plus
/// the router section. A `stats` with an explicit `namespace` field
/// (`target` is `Some`) is forwarded flat to that tenant's shard either
/// way.
fn route_stats(line: &str, id: Option<u64>, target: Option<&Arc<Shard>>, inner: &Inner) -> String {
    let flat_target = target.or((inner.shards.len() == 1).then(|| &inner.shards[0]));
    if let Some(shard) = flat_target {
        match fetch_shard_stats(line, shard, inner) {
            Some(Json::Obj(mut fields)) => {
                fields.push(("router".to_string(), router_stats(inner)));
                return Json::Obj(fields).render();
            }
            Some(other) => return other.render(),
            None => {
                inner.metrics.unavailable.fetch_add(1, Ordering::Relaxed);
                return render_error(
                    id,
                    &RouterError::Unavailable(format!(
                        "no backend of shard {:?} answered stats",
                        shard.name
                    )),
                );
            }
        }
    }
    let mut shards = Vec::new();
    for s in &inner.shards {
        let entry = match fetch_shard_stats(line, s, inner) {
            Some(stats) => stats,
            None => Json::Obj(vec![(
                "error".to_string(),
                Json::Str("unavailable".to_string()),
            )]),
        };
        shards.push((s.name.clone(), entry));
    }
    let mut fields = vec![("ok".to_string(), Json::Bool(true))];
    if let Some(id) = id {
        fields.push(("id".to_string(), Json::u64(id)));
    }
    fields.push(("shards".to_string(), Json::Obj(shards)));
    fields.push(("router".to_string(), router_stats(inner)));
    Json::Obj(fields).render()
}

/// The `"router"` stats object: per-backend health + router counters.
/// Multi-shard routers tag each backend with its shard's name.
fn router_stats(inner: &Inner) -> Json {
    let m = &inner.metrics;
    let get = |a: &AtomicU64| Json::u64(a.load(Ordering::Relaxed));
    let multi = inner.shards.len() > 1;
    let mut backends: Vec<Json> = Vec::new();
    for shard in &inner.shards {
        for b in &shard.pool.backends {
            let info = b.info();
            let breaker = match b.breaker_state() {
                BreakerState::Closed => "closed",
                BreakerState::Open => "open",
                BreakerState::HalfOpen => "half_open",
            };
            let mut fields = vec![("addr".to_string(), Json::Str(b.addr.clone()))];
            if multi {
                fields.push(("shard".to_string(), Json::Str(shard.name.clone())));
            }
            fields.extend([
                ("breaker".to_string(), Json::Str(breaker.to_string())),
                ("read_only".to_string(), Json::Bool(info.read_only)),
                ("fenced".to_string(), Json::Bool(info.fenced)),
                ("applied_version".to_string(), Json::u64(info.applied_version)),
                ("lag_records".to_string(), Json::u64(info.lag_records)),
                ("epoch".to_string(), Json::u64(info.epoch)),
            ]);
            backends.push(Json::Obj(fields));
        }
    }
    let sync_degraded = inner
        .shards
        .iter()
        .any(|s| s.sync_degraded.load(Ordering::Relaxed));
    let mut fields = vec![("backends".to_string(), Json::Arr(backends))];
    if multi {
        fields.push(("shard_count".to_string(), Json::u64(inner.shards.len() as u64)));
    }
    fields.extend([
        ("reads".to_string(), get(&m.reads)),
        ("mutations".to_string(), get(&m.mutations)),
        ("retries".to_string(), get(&m.retries)),
        ("parked".to_string(), get(&m.parked)),
        ("hedges".to_string(), get(&m.hedges)),
        ("hedge_wins".to_string(), get(&m.hedge_wins)),
        ("failovers".to_string(), get(&m.failovers)),
        ("stale_served".to_string(), get(&m.stale_served)),
        ("min_version_retries".to_string(), get(&m.min_version_retries)),
        ("in_doubt".to_string(), get(&m.in_doubt)),
        ("unavailable".to_string(), get(&m.unavailable)),
        ("timeouts".to_string(), get(&m.timeouts)),
        ("unreplicated_acks".to_string(), get(&m.unreplicated_acks)),
        ("sync_degraded".to_string(), Json::Bool(sync_degraded)),
    ]);
    Json::Obj(fields)
}

/// Fans `list_namespaces` out to every shard and merges the sorted,
/// deduplicated union. A shard that cannot answer fails the whole op
/// with a typed error naming it — a silently partial tenant list would
/// read as "those tenants don't exist".
fn route_list_namespaces(line: &str, id: Option<u64>, inner: &Inner) -> String {
    let read_timeout = Duration::from_millis(inner.cfg.read_timeout_ms);
    let mut names: Vec<String> = Vec::new();
    for shard in &inner.shards {
        let mut candidates = Vec::new();
        if let Some(p) = shard.pool.writable() {
            candidates.push(p);
        }
        candidates.extend(shard.pool.read_candidates(DEFAULT_NAMESPACE, None));
        let mut answered = false;
        for backend in candidates {
            let Ok(outcome) =
                hedge::hedged_read(backend, None, line, read_timeout, read_timeout, &inner.cfg)
            else {
                continue;
            };
            let Ok(parsed) = Json::parse(&outcome.raw) else {
                continue;
            };
            if let Some(Json::Arr(list)) = parsed.get("namespaces") {
                names.extend(list.iter().filter_map(|n| n.as_str().map(str::to_string)));
                answered = true;
                break;
            }
        }
        if !answered {
            inner.metrics.unavailable.fetch_add(1, Ordering::Relaxed);
            return render_error(
                id,
                &RouterError::Unavailable(format!(
                    "no backend of shard {:?} answered list_namespaces",
                    shard.name
                )),
            );
        }
    }
    names.sort();
    names.dedup();
    ok_response(
        id,
        vec![(
            "namespaces".to_string(),
            Json::Arr(names.into_iter().map(Json::Str).collect()),
        )],
    )
    .render()
}

/// `promote` through the router: "ensure this tenant's shard has a
/// writable primary and tell me who it is" — runs the same orchestration
/// as automated failover (a no-op returning the incumbent when one is
/// alive).
fn route_promote(id: Option<u64>, shard: &Arc<Shard>, inner: &Inner) -> String {
    match failover::try_failover(&shard.pool, &inner.metrics) {
        Some(leader) => ok_response(
            id,
            vec![
                ("leader".to_string(), Json::Str(leader)),
                ("role".to_string(), Json::Str("router".to_string())),
            ],
        )
        .render(),
        None => render_error(
            id,
            &RouterError::Unavailable(
                "no primary electable (orchestration busy or no candidate)".to_string(),
            ),
        ),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::client::{connect, exchange_json, request};
    use crate::server::{spawn as spawn_server, ServerConfig, ServerHandle};
    use resacc::replication::{
        attach_hub, ReplicaClient, ReplicationHub, ReplicationServer, ReplicationStats,
    };
    use resacc::RwrSession;
    use resacc_graph::gen;

    fn graph() -> resacc_graph::CsrGraph {
        gen::barabasi_albert(200, 3, 8)
    }

    /// One primary (core hub + replication listener + NDJSON server with
    /// a primary role) plus `n` replicas (sessions following the hub,
    /// each behind its own NDJSON server with a replica role).
    pub(crate) struct Cluster {
        pub(crate) primary: Option<ServerHandle>,
        pub(crate) replicas: Vec<ServerHandle>,
        primary_session: Arc<RwrSession>,
        _repl_server: ReplicationServer,
    }

    pub(crate) fn wire_cluster(
        n: usize,
        replica_cfg: impl Fn(usize, &mut ServerConfig),
    ) -> Cluster {
        let mut primary = RwrSession::new(graph());
        let hub = Arc::new(ReplicationHub::new(primary.version()));
        attach_hub(&mut primary, hub.clone());
        let primary = Arc::new(primary);
        let pstats = Arc::new(ReplicationStats::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let repl_addr = listener.local_addr().unwrap().to_string();
        let repl_server =
            ReplicationServer::spawn(listener, primary.clone(), hub, pstats.clone()).unwrap();
        let primary_handle = spawn_server(
            "127.0.0.1:0",
            primary.clone(),
            ServerConfig {
                workers: 1,
                replication: Some(Arc::new(crate::replication::ReplicationRole::primary(
                    pstats,
                ))),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut replicas = Vec::new();
        for i in 0..n {
            let session = Arc::new(RwrSession::new(graph()));
            let rstats = Arc::new(ReplicationStats::default());
            let client = ReplicaClient::spawn(repl_addr.clone(), session.clone(), rstats.clone());
            let role = Arc::new(crate::replication::ReplicationRole::replica(
                repl_addr.clone(),
                client,
                rstats,
            ));
            let mut config = ServerConfig {
                workers: 1,
                replication: Some(role),
                ..ServerConfig::default()
            };
            replica_cfg(i, &mut config);
            replicas.push(spawn_server("127.0.0.1:0", session, config).unwrap());
        }
        Cluster {
            primary: Some(primary_handle),
            replicas,
            primary_session: primary,
            _repl_server: repl_server,
        }
    }

    impl Cluster {
        pub(crate) fn backend_addrs(&self) -> Vec<String> {
            let mut v = vec![self.primary.as_ref().unwrap().addr().to_string()];
            v.extend(self.replicas.iter().map(|r| r.addr().to_string()));
            v
        }

        fn wait_replicas_at(&self, version: u64) {
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                let mut all = true;
                for r in &self.replicas {
                    let v = request(&r.addr().to_string(), r#"{"op":"stats"}"#, None)
                        .ok()
                        .and_then(|j| {
                            j.get("replication")?.get("applied_version")?.as_u64()
                        })
                        .unwrap_or(0);
                    all &= v >= version;
                }
                if all {
                    return;
                }
                assert!(Instant::now() < deadline, "replicas never reached {version}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }

    #[test]
    fn shard_spec_parses_the_flag_grammar() {
        let s = ShardSpec::parse("t0,t1=127.0.0.1:1,127.0.0.1:2").unwrap();
        assert_eq!(s.namespaces, vec!["t0", "t1"]);
        assert_eq!(s.backends, vec!["127.0.0.1:1", "127.0.0.1:2"]);
        assert_eq!(s.name(), "t0,t1");
        let star = ShardSpec::parse("*=127.0.0.1:1").unwrap();
        assert_eq!(star.namespaces, vec!["*"]);
        assert!(ShardSpec::parse("t0").unwrap_err().contains("expected"));
        assert!(ShardSpec::parse("=127.0.0.1:1").unwrap_err().contains("no namespaces"));
        assert!(ShardSpec::parse("t0=").unwrap_err().contains("no backends"));
        assert!(ShardSpec::parse("T0=127.0.0.1:1")
            .unwrap_err()
            .contains("invalid namespace"));
    }

    #[test]
    fn shard_router_routes_tenants_and_aggregates_stats() {
        // Two independent standalone primaries, one per shard: tenant t0
        // is pinned to A, everything else (default, t1) falls to the
        // catch-all B.
        let a = spawn_server(
            "127.0.0.1:0",
            Arc::new(RwrSession::new(graph())),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let b = spawn_server(
            "127.0.0.1:0",
            Arc::new(RwrSession::new(graph())),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut cfg = RouterConfig::new(vec![]);
        cfg.shards = vec![
            ShardSpec::parse(&format!("t0={}", a.addr())).unwrap(),
            ShardSpec::parse(&format!("*={}", b.addr())).unwrap(),
        ];
        let router = spawn("127.0.0.1:0", cfg).unwrap();
        let mut via = connect(&router.addr().to_string(), None).unwrap();

        // Lifecycle ops shard-route by their namespace operand.
        let c0 = exchange_json(
            &mut via,
            r#"{"id":1,"op":"create_namespace","namespace":"t0"}"#,
            None,
        )
        .unwrap();
        assert_eq!(
            c0.get("ok").unwrap().as_bool(),
            Some(true),
            "{}",
            c0.render()
        );
        let c1 = exchange_json(
            &mut via,
            r#"{"id":2,"op":"create_namespace","namespace":"t1"}"#,
            None,
        )
        .unwrap();
        assert_eq!(
            c1.get("ok").unwrap().as_bool(),
            Some(true),
            "{}",
            c1.render()
        );
        let mut direct_a = connect(&a.addr().to_string(), None).unwrap();
        let mut direct_b = connect(&b.addr().to_string(), None).unwrap();
        let la = exchange_json(&mut direct_a, r#"{"id":3,"op":"list_namespaces"}"#, None).unwrap();
        assert_eq!(
            la.get("namespaces").unwrap().render(),
            r#"["default","t0"]"#,
            "t0 landed on shard A only"
        );
        let lb = exchange_json(&mut direct_b, r#"{"id":4,"op":"list_namespaces"}"#, None).unwrap();
        assert_eq!(
            lb.get("namespaces").unwrap().render(),
            r#"["default","t1"]"#,
            "t1 fell to the catch-all shard"
        );

        // Mutations and reads flow to the owning shard; the tenant's own
        // log versions, not a neighbor's.
        let m = exchange_json(
            &mut via,
            r#"{"id":5,"op":"insert_edges","namespace":"t0","edges":[[0,7],[7,0]]}"#,
            None,
        )
        .unwrap();
        assert_eq!(m.get("ok").unwrap().as_bool(), Some(true), "{}", m.render());
        assert_eq!(m.get("version").unwrap().as_u64(), Some(1));
        let q = exchange_json(
            &mut via,
            r#"{"id":6,"op":"query","namespace":"t0","source":0,"seed":9,"min_version":1}"#,
            None,
        )
        .unwrap();
        assert_eq!(q.get("ok").unwrap().as_bool(), Some(true), "{}", q.render());
        // The default tenant (catch-all shard) is untouched by t0 writes.
        let qd = exchange_json(
            &mut via,
            r#"{"id":7,"op":"query","source":0,"seed":9}"#,
            None,
        )
        .unwrap();
        assert_eq!(qd.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(qd.get("version").unwrap().as_u64(), Some(0));

        // The merged tenant list spans both shards.
        let all = exchange_json(&mut via, r#"{"id":8,"op":"list_namespaces"}"#, None).unwrap();
        assert_eq!(
            all.get("namespaces").unwrap().render(),
            r#"["default","t0","t1"]"#
        );

        // Aggregate stats: per-shard trees nest under shards.{name}, the
        // router section tags backends with their shard.
        let s = exchange_json(&mut via, r#"{"id":9,"op":"stats"}"#, None).unwrap();
        assert_eq!(s.get("ok").unwrap().as_bool(), Some(true));
        let shards = s.get("shards").expect("multi-shard stats nest per shard");
        assert!(shards.get("t0").unwrap().get("nodes").is_some());
        assert!(shards.get("*").unwrap().get("nodes").is_some());
        let rt = s.get("router").unwrap();
        assert_eq!(rt.get("shard_count").unwrap().as_u64(), Some(2));
        // A tenant-scoped stats stays flat (the old shape).
        let st =
            exchange_json(&mut via, r#"{"id":10,"op":"stats","namespace":"t0"}"#, None).unwrap();
        assert!(st.get("nodes").is_some(), "{}", st.render());
        assert!(st.get("shards").is_none());

        router.shutdown().unwrap();
        a.shutdown().unwrap();
        b.shutdown().unwrap();
    }

    #[test]
    fn unmapped_namespace_gets_the_typed_error() {
        let a = spawn_server(
            "127.0.0.1:0",
            Arc::new(RwrSession::new(graph())),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // No catch-all: only t0 is mapped.
        let mut cfg = RouterConfig::new(vec![]);
        cfg.shards = vec![ShardSpec::parse(&format!("t0={}", a.addr())).unwrap()];
        let router = spawn("127.0.0.1:0", cfg).unwrap();
        let mut via = connect(&router.addr().to_string(), None).unwrap();
        let r = exchange_json(
            &mut via,
            r#"{"id":1,"op":"query","namespace":"t9","source":0,"seed":1}"#,
            None,
        )
        .unwrap();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(r.get("error").unwrap().as_str(), Some("unknown_namespace"));
        // The default tenant is unmapped too in this topology.
        let d = exchange_json(
            &mut via,
            r#"{"id":2,"op":"query","source":0,"seed":1}"#,
            None,
        )
        .unwrap();
        assert_eq!(d.get("error").unwrap().as_str(), Some("unknown_namespace"));
        // Namespace-less stats still answers (single shard: flat shape).
        let s = exchange_json(&mut via, r#"{"id":3,"op":"stats"}"#, None).unwrap();
        assert_eq!(s.get("ok").unwrap().as_bool(), Some(true), "{}", s.render());
        assert!(s.get("router").is_some());
        router.shutdown().unwrap();
        a.shutdown().unwrap();
    }

    #[test]
    fn relays_reads_and_mutations_through_a_single_backend() {
        let session = Arc::new(RwrSession::new(graph()));
        let backend = spawn_server(
            "127.0.0.1:0",
            session,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let router = spawn(
            "127.0.0.1:0",
            RouterConfig::new(vec![backend.addr().to_string()]),
        )
        .unwrap();

        let mut direct = connect(&backend.addr().to_string(), None).unwrap();
        let mut via = connect(&router.addr().to_string(), None).unwrap();
        let q = r#"{"id":1,"op":"query","source":0,"seed":42,"full":true}"#;
        let d = exchange_json(&mut direct, q, None).unwrap();
        let r = exchange_json(&mut via, q, None).unwrap();
        assert_eq!(
            d.get("scores").unwrap().render(),
            r.get("scores").unwrap().render(),
            "routed reads are bit-identical to direct reads"
        );
        // Mutations route to the (standalone) primary and version bumps.
        let m = exchange_json(
            &mut via,
            r#"{"id":2,"op":"insert_edges","edges":[[0,7],[7,0]]}"#,
            None,
        )
        .unwrap();
        assert_eq!(m.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(m.get("version").unwrap().as_u64(), Some(1));
        // Read-your-writes through min_version against the primary.
        let q2 = exchange_json(
            &mut via,
            r#"{"id":3,"op":"query","source":0,"seed":42,"min_version":1}"#,
            None,
        )
        .unwrap();
        assert_eq!(q2.get("ok").unwrap().as_bool(), Some(true));
        assert!(q2.get("version").unwrap().as_u64().unwrap() >= 1);
        // Local ops answer locally; unknown ops mirror the server shape.
        let p = exchange_json(&mut via, r#"{"id":4,"op":"ping"}"#, None).unwrap();
        assert_eq!(p.get("ok").unwrap().as_bool(), Some(true));
        let u = exchange_json(&mut via, r#"{"id":5,"op":"flarp"}"#, None).unwrap();
        assert!(u.get("error").unwrap().as_str().unwrap().contains("unknown op"));
        // Stats are forwarded with the router section injected.
        let s = exchange_json(&mut via, r#"{"id":6,"op":"stats"}"#, None).unwrap();
        assert!(s.get("nodes").is_some(), "backend stats preserved");
        let rt = s.get("router").expect("router section injected");
        assert!(rt.get("reads").unwrap().as_u64().unwrap() >= 2);
        assert_eq!(rt.get("mutations").unwrap().as_u64(), Some(1));

        router.shutdown().unwrap();
        backend.shutdown().unwrap();
    }

    #[test]
    fn reads_survive_backend_death_and_reroute() {
        // Two standalone backends with identical graphs: the router
        // treats the first routable writable as primary; when it dies the
        // retry policy + breaker reroute every read to the survivor with
        // zero client-visible errors.
        let a = spawn_server(
            "127.0.0.1:0",
            Arc::new(RwrSession::new(graph())),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let b = spawn_server(
            "127.0.0.1:0",
            Arc::new(RwrSession::new(graph())),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut cfg = RouterConfig::new(vec![a.addr().to_string(), b.addr().to_string()]);
        cfg.retry_budget = 6;
        cfg.probe_interval_ms = 20;
        let router = spawn("127.0.0.1:0", cfg).unwrap();

        let mut via = connect(&router.addr().to_string(), None).unwrap();
        for i in 0..5 {
            let q = format!("{{\"id\":{i},\"op\":\"query\",\"source\":{i},\"seed\":1}}");
            let r = exchange_json(&mut via, &q, None).unwrap();
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "warm read {i}");
        }
        a.shutdown().unwrap();
        for i in 10..30 {
            let q = format!("{{\"id\":{i},\"op\":\"query\",\"source\":{},\"seed\":1}}", i % 50);
            let r = exchange_json(&mut via, &q, None).unwrap();
            assert_eq!(
                r.get("ok").unwrap().as_bool(),
                Some(true),
                "read {i} must survive the backend death: {}",
                r.render()
            );
        }
        router.shutdown().unwrap();
        b.shutdown().unwrap();
    }

    #[test]
    fn impossible_min_version_fails_typed_and_plain_reads_still_flow() {
        let backend = spawn_server(
            "127.0.0.1:0",
            Arc::new(RwrSession::new(graph())),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut cfg = RouterConfig::new(vec![backend.addr().to_string()]);
        cfg.retry_budget = 2;
        cfg.park_ms = 300;
        let router = spawn("127.0.0.1:0", cfg).unwrap();
        let mut via = connect(&router.addr().to_string(), None).unwrap();
        // min_version far ahead of the world: the primary answers, the
        // router verifies version < min_version, retries, and reports a
        // typed terminal error instead of silently violating the bound.
        let r = exchange_json(
            &mut via,
            r#"{"id":1,"op":"query","source":0,"seed":1,"min_version":999}"#,
            None,
        )
        .unwrap();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
        let code = r.get("error").unwrap().as_str().unwrap();
        assert!(
            code == "unavailable" || code == "timeout",
            "typed terminal error, got {code:?}"
        );
        let ok = exchange_json(
            &mut via,
            r#"{"id":2,"op":"query","source":0,"seed":1}"#,
            None,
        )
        .unwrap();
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true));
        router.shutdown().unwrap();
        backend.shutdown().unwrap();
    }

    #[test]
    fn replica_cluster_balances_reads_and_fails_over_on_primary_death() {
        let mut cluster = wire_cluster(1, |_, _| {});
        let mut cfg = RouterConfig::new(cluster.backend_addrs());
        cfg.probe_interval_ms = 20;
        cfg.retry_budget = 8;
        cfg.park_ms = 20_000;
        let router = spawn("127.0.0.1:0", cfg).unwrap();
        let mut via = connect(&router.addr().to_string(), None).unwrap();

        // Semi-sync acked write: once acked, the replica has applied it.
        let m = exchange_json(
            &mut via,
            r#"{"id":1,"op":"insert_edges","edges":[[0,9],[9,0]]}"#,
            None,
        )
        .unwrap();
        assert_eq!(m.get("ok").unwrap().as_bool(), Some(true), "{}", m.render());
        let acked_version = m.get("version").unwrap().as_u64().unwrap();
        cluster.wait_replicas_at(acked_version);

        // min_version read-your-writes immediately after the ack.
        let q = exchange_json(
            &mut via,
            &format!(
                "{{\"id\":2,\"op\":\"query\",\"source\":0,\"seed\":3,\"min_version\":{acked_version}}}"
            ), None).unwrap();
        assert_eq!(q.get("ok").unwrap().as_bool(), Some(true), "{}", q.render());
        assert!(q.get("version").unwrap().as_u64().unwrap() >= acked_version);

        // Kill the primary's NDJSON front end: probes + data-path strikes
        // open its breaker, the router promotes the replica, and the next
        // mutation lands there — elevated latency, no error, no version
        // regression below the acked write.
        cluster.primary.take().unwrap().shutdown().unwrap();
        let m2 = exchange_json(
            &mut via,
            r#"{"id":3,"op":"insert_edges","edges":[[1,8],[8,1]]}"#,
            None,
        )
        .unwrap();
        assert_eq!(
            m2.get("ok").unwrap().as_bool(),
            Some(true),
            "mutation must survive failover: {}",
            m2.render()
        );
        let v2 = m2.get("version").unwrap().as_u64().unwrap();
        assert!(v2 > acked_version, "acked write survived the failover");
        // Reads flow from the promoted node, min_version intact.
        let q2 = exchange_json(
            &mut via,
            &format!("{{\"id\":4,\"op\":\"query\",\"source\":1,\"seed\":3,\"min_version\":{v2}}}"),
            None,
        )
        .unwrap();
        assert_eq!(
            q2.get("ok").unwrap().as_bool(),
            Some(true),
            "{}",
            q2.render()
        );
        let s = exchange_json(&mut via, r#"{"id":5,"op":"stats"}"#, None).unwrap();
        let rt = s.get("router").unwrap();
        assert!(rt.get("failovers").unwrap().as_u64().unwrap() >= 1);

        router.shutdown().unwrap();
        // Keep the session alive until the end (replication server).
        let _ = cluster.primary_session.version();
        for r in cluster.replicas.drain(..) {
            r.shutdown().unwrap();
        }
    }

    #[test]
    fn no_primary_electable_serves_typed_stale_reads() {
        let mut cluster = wire_cluster(1, |_, _| {});
        // Router only knows the replica — from its point of view there is
        // no primary and (with auto_failover off) none is electable.
        let replica_addr = cluster.replicas[0].addr().to_string();
        let mut cfg = RouterConfig::new(vec![replica_addr]);
        cfg.auto_failover = false;
        cfg.park_ms = 300;
        let router = spawn("127.0.0.1:0", cfg).unwrap();
        let mut via = connect(&router.addr().to_string(), None).unwrap();
        let r = exchange_json(
            &mut via,
            r#"{"id":1,"op":"query","source":0,"seed":5}"#,
            None,
        )
        .unwrap();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{}", r.render());
        assert_eq!(r.get("stale").unwrap().as_bool(), Some(true));
        assert!(r.get("applied_version").unwrap().as_u64().is_some());
        // Mutations cannot be served: typed timeout after parking.
        let m = exchange_json(
            &mut via,
            r#"{"id":2,"op":"insert_edges","edges":[[0,3]]}"#,
            None,
        )
        .unwrap();
        assert_eq!(m.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(m.get("error").unwrap().as_str(), Some("timeout"));
        router.shutdown().unwrap();
        cluster.primary.take().unwrap().shutdown().unwrap();
        for r in cluster.replicas.drain(..) {
            r.shutdown().unwrap();
        }
    }

    #[test]
    fn hedged_reads_beat_a_slow_replica() {
        // Two replicas, one answering every read ~60 ms late: once the
        // latency window has a baseline, slow reads are hedged onto the
        // fast replica and the duplicate wins.
        let mut cluster = wire_cluster(2, |i, config| {
            if i == 0 {
                config.faults = crate::fault::FaultPlan::parse("delay=1:60").unwrap();
            }
        });
        let mut cfg = RouterConfig::new(cluster.backend_addrs());
        cfg.probe_interval_ms = 20;
        // The latency window is bimodal at ~50/50 (every slow-replica
        // read is 60 ms), so the quantile must sit below the fast
        // fraction — at 0.5 the delay can land on the 60 ms mode and the
        // hedge fires exactly as the slow answer arrives, winning nothing.
        cfg.hedge_quantile = 0.2;
        cfg.hedge_min_ms = 5;
        let router = spawn("127.0.0.1:0", cfg).unwrap();
        let mut via = connect(&router.addr().to_string(), None).unwrap();
        for i in 0..60u32 {
            let q = format!(
                "{{\"id\":{i},\"op\":\"query\",\"source\":{},\"seed\":{i}}}",
                i % 40
            );
            let r = exchange_json(&mut via, &q, None).unwrap();
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{}", r.render());
        }
        let s = exchange_json(&mut via, r#"{"id":99,"op":"stats"}"#, None).unwrap();
        let rt = s.get("router").unwrap();
        assert!(
            rt.get("hedges").unwrap().as_u64().unwrap() > 0,
            "slow replica must trigger hedges: {}",
            rt.render()
        );
        assert!(
            rt.get("hedge_wins").unwrap().as_u64().unwrap() > 0,
            "the fast replica must win some races: {}",
            rt.render()
        );
        router.shutdown().unwrap();
        cluster.primary.take().unwrap().shutdown().unwrap();
        for r in cluster.replicas.drain(..) {
            r.shutdown().unwrap();
        }
    }

    #[test]
    fn semi_sync_degrades_sticky_and_rearms_when_replica_catches_up() {
        use resacc::replication::{NetFault, NetFaultPlan};

        // Primary with a real replication listener.
        let mut primary = RwrSession::new(graph());
        let hub = Arc::new(ReplicationHub::new(primary.version()));
        attach_hub(&mut primary, hub.clone());
        let primary = Arc::new(primary);
        let pstats = Arc::new(ReplicationStats::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let repl_addr = listener.local_addr().unwrap().to_string();
        let _repl_server =
            ReplicationServer::spawn(listener, primary.clone(), hub, pstats.clone()).unwrap();
        let primary_handle = spawn_server(
            "127.0.0.1:0",
            primary.clone(),
            ServerConfig {
                workers: 1,
                replication: Some(Arc::new(crate::replication::ReplicationRole::primary(
                    pstats,
                ))),
                ..ServerConfig::default()
            },
        )
        .unwrap();

        // One replica whose *replication link* runs through a
        // partitionable proxy; its NDJSON server stays reachable, so the
        // router sees a live, probed, read_only backend that simply
        // stops applying — the zombie-replica shape.
        let fault = NetFault::spawn(
            TcpListener::bind("127.0.0.1:0").unwrap(),
            repl_addr,
            NetFaultPlan::default(),
        )
        .unwrap();
        let session = Arc::new(RwrSession::new(graph()));
        let rstats = Arc::new(ReplicationStats::default());
        let client = ReplicaClient::spawn(fault.addr().to_string(), session.clone(), rstats.clone());
        let role = Arc::new(crate::replication::ReplicationRole::replica(
            fault.addr().to_string(),
            client,
            rstats,
        ));
        let replica = spawn_server(
            "127.0.0.1:0",
            session.clone(),
            ServerConfig {
                workers: 1,
                replication: Some(role),
                ..ServerConfig::default()
            },
        )
        .unwrap();

        let mut cfg = RouterConfig::new(vec![
            primary_handle.addr().to_string(),
            replica.addr().to_string(),
        ]);
        cfg.probe_interval_ms = 20;
        cfg.sync_ack_timeout_ms = 400;
        // Without the sticky degrade this would be the per-write stall.
        cfg.park_ms = 20_000;
        let router = spawn("127.0.0.1:0", cfg).unwrap();
        let mut via = connect(&router.addr().to_string(), None).unwrap();

        // Healthy semi-sync: the ack implies the replica applied it.
        let m = exchange_json(
            &mut via,
            r#"{"id":1,"op":"insert_edges","edges":[[0,7]]}"#,
            None,
        )
        .unwrap();
        assert_eq!(m.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(session.version(), 1, "semi-sync ack after replica applied");

        // Partition the replication link. The first ack pays one bounded
        // semi-sync timeout (not park_ms), flips the latch, and later
        // acks relay async immediately.
        fault.partition();
        let t = Instant::now();
        let m = exchange_json(
            &mut via,
            r#"{"id":2,"op":"insert_edges","edges":[[1,8]]}"#,
            None,
        )
        .unwrap();
        assert_eq!(m.get("ok").unwrap().as_bool(), Some(true));
        let stall = t.elapsed();
        assert!(
            stall < Duration::from_secs(10),
            "degrade must be bounded by sync_ack_timeout, not park_ms: {stall:?}"
        );
        let m = exchange_json(
            &mut via,
            r#"{"id":3,"op":"insert_edges","edges":[[2,9]]}"#,
            None,
        )
        .unwrap();
        assert_eq!(m.get("ok").unwrap().as_bool(), Some(true));
        let s = exchange_json(&mut via, r#"{"id":4,"op":"stats"}"#, None).unwrap();
        let rt = s.get("router").unwrap();
        assert_eq!(
            rt.get("sync_degraded").unwrap().as_bool(),
            Some(true),
            "latch visible in stats: {}",
            rt.render()
        );
        assert!(
            rt.get("unreplicated_acks").unwrap().as_u64().unwrap() >= 2,
            "every async ack counts its loss window: {}",
            rt.render()
        );

        // Heal. Once the replica catches up (and a probe has seen it),
        // the next mutation re-arms semi-sync: its ack again implies the
        // replica applied it, and the latch clears.
        fault.heal();
        let deadline = Instant::now() + Duration::from_secs(20);
        while session.version() < 3 {
            assert!(Instant::now() < deadline, "replica never caught up after heal");
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(100)); // a few probe cycles
        let m = exchange_json(
            &mut via,
            r#"{"id":5,"op":"insert_edges","edges":[[3,9]]}"#,
            None,
        )
        .unwrap();
        assert_eq!(m.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(session.version(), 4, "re-armed ack waits for the replica again");
        let s = exchange_json(&mut via, r#"{"id":6,"op":"stats"}"#, None).unwrap();
        assert_eq!(
            s.get("router").unwrap().get("sync_degraded").unwrap().as_bool(),
            Some(false),
            "latch clears after catch-up"
        );

        router.shutdown().unwrap();
        primary_handle.shutdown().unwrap();
        replica.shutdown().unwrap();
    }
}

//! Newline-delimited-JSON-over-TCP front end.
//!
//! One request per line, one response line per request, in order, per
//! connection. The protocol is deliberately plain — `std::net` + the
//! in-crate [`crate::json`] codec, no external frameworks — because the
//! interesting machinery lives behind it in the [`crate::scheduler`].
//!
//! ## Wire protocol (see DESIGN.md for the full contract)
//!
//! ```text
//! → {"id":1,"op":"query","source":5,"k":3}
//! ← {"id":1,"ok":true,"version":0,"seed":…,"cached":false,"top":[[n,score],…]}
//! → {"id":2,"op":"query","source":5,"seed":7,"full":true}
//! ← {"id":2,"ok":true,…,"scores":[…n floats…]}
//! → {"id":3,"op":"query","source":5,"deadline_ms":10}
//! ← {"id":3,"ok":false,"error":"deadline_exceeded","detail":…}   (if slow)
//! → {"id":4,"op":"insert_edges","edges":[[0,1],[2,3]]}
//! ← {"id":4,"ok":true,"version":1}
//! → {"op":"stats"}
//! ← {"ok":true,"stats":{…},"nodes":…,"edges":…,"version":…}
//! ```
//!
//! Ops: `query`, `insert_edges`, `delete_edges`, `delete_node`, `stats`,
//! `ping`, `shutdown`. Malformed lines get `{"ok":false,"error":…}` and the
//! connection stays open. Typed failures (`overloaded`,
//! `deadline_exceeded`, `internal_panic`, `source out of range`) carry the
//! code in `error`, human detail in `detail`, and — for `overloaded` — a
//! `retry_after_ms` backoff hint.
//!
//! ## Connection hardening
//!
//! * Reads are **bounded**: a line longer than `max_line_bytes` gets one
//!   error response and the connection is closed — no unbounded buffering
//!   for a client that never sends a newline.
//! * Reads **time out**: an idle connection is closed after
//!   `idle_timeout_ms`.
//! * Connections are **capped**: past `max_conns` open connections, new
//!   sockets get `{"ok":false,"error":"overloaded"}` and are closed
//!   (counted in `rejected_conns`).
//! * Accept errors are **counted and backed off** (`accept_errors`), so a
//!   persistent condition like EMFILE cannot spin the listener at 100% CPU.
//! * Shutdown **drains**: the listener stops accepting, every connection
//!   finishes responding to the requests it has already read, the
//!   executor threads are joined, and only then does the scheduler (which
//!   answers everything in its queues) shut down.
//!
//! Connections are served by one readiness-driven event loop,
//! [`crate::reactor`]; this module owns the routing and rendering it
//! calls.

use crate::client;
use crate::fault::FaultPlan;
use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use crate::replication::ReplicationRole;
use crate::scheduler::{QueryRequest, Scheduler, SchedulerConfig, ServiceError};
use crate::tenants::{Tenant, Tenants};
use resacc::durability::{MutationOp, RecoveryStats, DEFAULT_NAMESPACE};
use resacc::topk::top_k;
use resacc::RwrSession;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a parked reader wakes to check the stop flag.
pub(crate) const READ_POLL: Duration = Duration::from_millis(50);
/// How often the (non-blocking) accept loop polls for new connections.
pub(crate) const ACCEPT_POLL: Duration = Duration::from_millis(10);
/// Backoff for persistent accept failures (e.g. EMFILE): the shared
/// jittered policy, doubling from the poll interval to a 500 ms cap.
pub(crate) const ACCEPT_BACKOFF: resacc::backoff::BackoffPolicy =
    resacc::backoff::BackoffPolicy::new(ACCEPT_POLL, Duration::from_millis(500));

/// Jitter seed for an accept loop, derived from its listen address so two
/// co-hosted servers hitting the same fd limit don't retry in lockstep.
pub(crate) fn accept_seed(listener: &TcpListener) -> u64 {
    resacc::backoff::seed_from(
        &listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_default(),
    )
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Scheduler worker threads.
    pub workers: usize,
    /// Result-cache capacity (0 disables).
    pub cache_capacity: usize,
    /// Dispatcher micro-batch cap.
    pub batch_max: usize,
    /// `top` list length when a query does not say `k`.
    pub default_k: usize,
    /// Maximum unanswered requests before admission sheds (0 = unbounded).
    pub queue_cap: usize,
    /// Default per-query deadline in milliseconds (0 = none); individual
    /// requests override with their own `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Maximum concurrent connections (0 = unbounded).
    pub max_conns: usize,
    /// Maximum request-line length in bytes.
    pub max_line_bytes: usize,
    /// Close a connection after this long without a byte (0 = never).
    pub idle_timeout_ms: u64,
    /// Intra-query threads per engine run (`<= 1` = serial remedy); capped
    /// by the machine budget in the scheduler. Never affects results.
    pub threads_per_query: usize,
    /// Fault-injection plan (tests / load generation only).
    pub faults: FaultPlan,
    /// What startup recovery observed (zeroes when the session is not
    /// durable); published into the metrics surface so operators can see
    /// `wal_records_replayed` / `wal_truncated_bytes` / `snapshots_loaded`
    /// in `stats` responses.
    pub recovery: RecoveryStats,
    /// This server's replication role, if any. `None` is a standalone
    /// primary: writable, with no replication surfaces in `stats`.
    pub replication: Option<Arc<ReplicationRole>>,
    /// Per-entry error budget for dynamic cache upgrades (`--dynamic-eps`);
    /// `0.0` disables the upgrade path (see [`SchedulerConfig`]).
    pub dynamic_eps: f64,
    /// Offset-propagation push threshold δ (`--dynamic-delta`).
    pub dynamic_delta: f64,
}

impl ServerConfig {
    /// The scheduler configuration this server config implies. Every
    /// tenant namespace gets its own [`Scheduler`] built from this one
    /// template — the per-tenant instances are what make cache and
    /// version isolation structural.
    pub fn scheduler_config(&self) -> SchedulerConfig {
        SchedulerConfig {
            workers: self.workers,
            cache_capacity: self.cache_capacity,
            batch_max: self.batch_max,
            queue_cap: self.queue_cap,
            default_deadline: None, // applied per request from deadline_ms
            threads_per_query: self.threads_per_query,
            faults: self.faults,
            dynamic_eps: self.dynamic_eps,
            dynamic_delta: self.dynamic_delta,
            ..Default::default()
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            cache_capacity: 1024,
            batch_max: 32,
            default_k: 10,
            queue_cap: 4096,
            default_deadline_ms: 0,
            max_conns: 256,
            max_line_bytes: 1 << 20,
            idle_timeout_ms: 30_000,
            threads_per_query: 1,
            faults: FaultPlan::default(),
            recovery: RecoveryStats::default(),
            replication: None,
            dynamic_eps: 0.0,
            dynamic_delta: 1e-4,
        }
    }
}

/// Per-connection limits, split out of [`ServerConfig`] for the handler.
#[derive(Clone, Copy)]
pub(crate) struct ConnLimits {
    pub(crate) default_k: usize,
    pub(crate) default_deadline_ms: u64,
    pub(crate) max_line_bytes: usize,
    pub(crate) idle_timeout: Option<Duration>,
}

/// Serves on `listener` until a client sends `{"op":"shutdown"}`.
///
/// Blocking. Connections run on the [`crate::reactor`] event loop under
/// the drain contract: accepting stops, every connection finishes
/// responding to the requests it has already read, then the scheduler
/// drains its queues — every submitted request is answered before this
/// returns.
pub fn serve(
    listener: TcpListener,
    session: Arc<RwrSession>,
    config: ServerConfig,
) -> std::io::Result<()> {
    // Single-session entry: wrap the session as the `default` tenant.
    // Runtime `create_namespace` still works (in-memory tenants), so the
    // wire surface is identical whichever entry started the server.
    let tenants = Arc::new(Tenants::single(
        session,
        config.scheduler_config(),
        config.recovery,
    ));
    serve_tenants(listener, tenants, config)
}

/// Serves a multi-tenant registry on `listener` until a client sends
/// `{"op":"shutdown"}`. Requests route to their tenant by the optional
/// `namespace` field (absent means `default`); the event loop and the
/// drain contract are exactly [`serve`]'s.
pub fn serve_tenants(
    listener: TcpListener,
    tenants: Arc<Tenants>,
    config: ServerConfig,
) -> std::io::Result<()> {
    let limits = ConnLimits {
        default_k: config.default_k,
        default_deadline_ms: config.default_deadline_ms,
        max_line_bytes: config.max_line_bytes.max(64),
        idle_timeout: (config.idle_timeout_ms > 0)
            .then(|| Duration::from_millis(config.idle_timeout_ms)),
    };

    crate::reactor::run(listener, tenants.clone(), &config, limits)?;
    // All mutation sources are gone (the reactor joins its executor
    // threads before returning), so checkpoint every tenant: snapshot at
    // the final version and truncate the WAL. A restart after this drain
    // replays zero records — clean shutdown never relies on recovery.
    for tenant in tenants.all() {
        if let Err(e) = tenant.scheduler.session().checkpoint() {
            eprintln!(
                "shutdown checkpoint failed for namespace {:?} (WAL still covers all mutations): {e}",
                tenant.name
            );
        }
    }
    Ok(())
}

/// A server running on a background thread (in-process embedding).
pub struct ServerHandle {
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends the shutdown op, then joins the server thread — returning only
    /// after the drain completes (all connections answered, queues drained).
    pub fn shutdown(mut self) -> std::io::Result<()> {
        request_shutdown(&self.addr.to_string())?;
        match self.thread.take() {
            Some(t) => t.join().expect("server thread panicked"),
            None => Ok(()),
        }
    }
}

/// Sends `{"op":"shutdown"}` and waits for the acknowledgement.
///
/// A freshly-freed connection slot is reclaimed only once the event loop
/// observes the closed socket, so a shutdown
/// sent right after closing other connections can race the `max_conns` cap
/// and be rejected with `overloaded`. Treating that rejection as the
/// acknowledgement would leave the server running forever — so retry until
/// the op is actually accepted (bounded; rejection replies arrive fast).
pub(crate) fn request_shutdown(addr: &str) -> std::io::Result<()> {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut conn = client::connect(addr, None)?;
        let line = match client::exchange_split(&mut conn, "{\"op\":\"shutdown\"}", None) {
            Ok(line) => line,
            Err(client::ExchangeError::PreWrite(e)) => return Err(e),
            Err(client::ExchangeError::PostWrite(_)) => String::new(),
        };
        drop(conn);
        let accepted = Json::parse(&line)
            .ok()
            .and_then(|j| j.get("ok").and_then(Json::as_bool))
            .unwrap_or(false);
        if accepted {
            return Ok(());
        }
        if std::time::Instant::now() >= deadline {
            return Err(std::io::Error::other(format!(
                "shutdown not accepted: {}",
                line.trim()
            )));
        }
        std::thread::sleep(READ_POLL);
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves on a background thread.
pub fn spawn(
    addr: &str,
    session: Arc<RwrSession>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let thread = std::thread::Builder::new()
        .name("rwr-serve".into())
        .spawn(move || serve(listener, session, config))?;
    Ok(ServerHandle {
        addr,
        thread: Some(thread),
    })
}

/// Pulls the next complete line out of `buf`, if one is buffered.
pub(crate) fn take_buffered_line(buf: &mut Vec<u8>) -> Option<String> {
    let pos = buf.iter().position(|&b| b == b'\n')?;
    let line: Vec<u8> = buf.drain(..=pos).take(pos).collect();
    Some(String::from_utf8_lossy(&line).into_owned())
}

pub(crate) fn error_fields(
    id: Option<u64>,
    code: &str,
    detail: &str,
    retry_after_ms: Option<u64>,
) -> Json {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id".to_string(), Json::u64(id)));
    }
    fields.push(("ok".to_string(), Json::Bool(false)));
    fields.push(("error".to_string(), Json::Str(code.to_string())));
    if !detail.is_empty() {
        fields.push(("detail".to_string(), Json::Str(detail.to_string())));
    }
    if let Some(ms) = retry_after_ms {
        fields.push(("retry_after_ms".to_string(), Json::u64(ms)));
    }
    Json::Obj(fields)
}

fn error_response(id: Option<u64>, message: &str) -> Json {
    error_fields(id, message, "", None)
}

/// Renders a typed scheduler failure onto the wire.
fn service_error_response(id: Option<u64>, e: &ServiceError) -> Json {
    error_fields(id, e.kind.code(), &e.detail, e.retry_after_ms)
}

/// Renders the typed `fenced` rejection: the error carries the fencing
/// epoch and (when known) the leader as machine-readable fields, so a
/// client can redirect without parsing prose.
fn fenced_error_response(id: Option<u64>, epoch: u64, leader: &str) -> Json {
    let e = ServiceError::fenced(id.unwrap_or(0), epoch, leader);
    let Json::Obj(mut fields) = error_fields(id, e.kind.code(), &e.detail, None) else {
        unreachable!("error_fields always builds an object")
    };
    fields.push(("current_epoch".to_string(), Json::u64(epoch)));
    if !leader.is_empty() {
        fields.push(("leader".to_string(), Json::Str(leader.to_string())));
    }
    Json::Obj(fields)
}

/// What one routed request line asks the connection engine to do.
///
/// [`route_line`] performs the parsing, replica/fence bouncing and
/// synchronous ops, and hands back the rest as data: the reactor
/// dispatches `Query` to the scheduler hook path and
/// `Mutation`/`Promote`/`Admin` to its executor pool, then writes the
/// response rendered by the helper each variant names.
pub(crate) enum LineOutcome {
    /// Fully handled: write this response.
    Respond(Json),
    /// Write this response, then shut the server down (drain).
    Shutdown(Json),
    /// Run a query through its tenant's scheduler; render with
    /// [`render_query_outcome`].
    Query {
        /// Echoed request id.
        id: Option<u64>,
        /// The parsed scheduler request.
        request: QueryRequest,
        /// `top` list length.
        k: usize,
        /// Include the full score vector.
        full: bool,
        /// The tenant's scheduler (resolved from the `namespace` field).
        scheduler: Arc<Scheduler>,
    },
    /// Apply a durable mutation (blocking WAL append); render with
    /// [`apply_response`].
    Mutation {
        /// Echoed request id.
        id: Option<u64>,
        /// The mutation to apply.
        op: MutationOp,
        /// The tenant's scheduler (resolved from the `namespace` field).
        scheduler: Arc<Scheduler>,
    },
    /// Run the `promote` admin op (blocking drain); render with
    /// [`promote_json`].
    Promote {
        /// Echoed request id.
        id: Option<u64>,
        /// The full request (carries the optional `fence` field).
        request: Json,
    },
    /// Run a namespace-lifecycle op (blocking manifest/recovery I/O);
    /// render with [`admin_response`].
    Admin {
        /// Echoed request id.
        id: Option<u64>,
        /// Which lifecycle action to run.
        action: AdminAction,
    },
}

/// A namespace-lifecycle request ([`LineOutcome::Admin`]).
pub(crate) enum AdminAction {
    /// `create_namespace`: durably create and start serving a tenant.
    Create(String),
    /// `drop_namespace`: durably remove a tenant and retire its scheduler.
    Drop(String),
    /// `list_namespaces`: report every live tenant.
    List,
}

/// Dispatches one request line into a [`LineOutcome`] — the single
/// routing point of the wire protocol.
///
/// The optional `namespace` field picks the tenant; absent means
/// `default`, so every pre-namespace client keeps working unchanged. Ops
/// that target a tenant (`query`, mutations, `stats`) resolve it here and
/// carry its scheduler in the outcome; an unmapped name gets the typed
/// `unknown_namespace` error.
pub(crate) fn route_line(
    line: &str,
    tenants: &Arc<Tenants>,
    limits: &ConnLimits,
    replication: Option<&ReplicationRole>,
) -> LineOutcome {
    use std::sync::atomic::Ordering::Relaxed;
    // Protocol-level failures (bad json, unknown op/namespace) have no
    // tenant to charge; they count on the default tenant's surface, which
    // is also where pre-namespace clients have always seen them.
    let base_metrics = || tenants.default_tenant().scheduler.metrics().clone();
    let request = match Json::parse(line) {
        Ok(j) => j,
        Err(e) => {
            base_metrics().errors.fetch_add(1, Relaxed);
            return LineOutcome::Respond(error_response(None, &format!("bad json: {e}")));
        }
    };
    let id = request.get("id").and_then(Json::as_u64);
    let op = request.get("op").and_then(Json::as_str).unwrap_or("");
    let ns = match request.get("namespace") {
        None => DEFAULT_NAMESPACE,
        Some(j) => match j.as_str() {
            Some(s) => s,
            None => {
                base_metrics().errors.fetch_add(1, Relaxed);
                return LineOutcome::Respond(error_response(id, "namespace must be a string"));
            }
        },
    };
    // Read replicas answer queries but bounce every mutation — including
    // namespace lifecycle, which replicas learn through reconciliation —
    // to the primary with a typed error (the replica's graphs are owned
    // by the replication streams; a local write would fork a history). A
    // node that was *fenced* out of its primaryship reports the richer
    // `fenced` error — checked first, because a fenced node is also
    // read-only and the epoch/leader fields are what clients need.
    if matches!(
        op,
        "insert_edges" | "delete_edges" | "delete_node" | "create_namespace" | "drop_namespace"
    ) {
        if let Some(role) = replication {
            if let Some((epoch, leader)) = role.fenced() {
                base_metrics().errors.fetch_add(1, Relaxed);
                return LineOutcome::Respond(fenced_error_response(id, epoch, &leader));
            }
            if role.is_read_only() {
                base_metrics().errors.fetch_add(1, Relaxed);
                let e = ServiceError::read_only(id.unwrap_or(0), &role.primary_addr());
                return LineOutcome::Respond(service_error_response(id, &e));
            }
        }
    }
    // Tenant-targeted ops resolve the namespace now; the rest (lifecycle,
    // promote, ping, shutdown) operate on the registry or the process.
    let tenant = if matches!(
        op,
        "query" | "insert_edges" | "delete_edges" | "delete_node" | "stats"
    ) {
        match tenants.get(ns) {
            Some(t) => Some(t),
            None => {
                base_metrics().errors.fetch_add(1, Relaxed);
                let e = ServiceError::unknown_namespace(id.unwrap_or(0), ns);
                return LineOutcome::Respond(service_error_response(id, &e));
            }
        }
    } else {
        None
    };
    let scheduler = || tenant.as_ref().expect("tenant resolved").scheduler.clone();
    let result = match op {
        "query" => parse_query(&request, limits).map(|(request, k, full)| LineOutcome::Query {
            id,
            request,
            k,
            full,
            scheduler: scheduler(),
        }),
        "insert_edges" => parse_edges(&request).map(|edges| LineOutcome::Mutation {
            id,
            op: MutationOp::InsertEdges(edges),
            scheduler: scheduler(),
        }),
        "delete_edges" => parse_edges(&request).map(|edges| LineOutcome::Mutation {
            id,
            op: MutationOp::DeleteEdges(edges),
            scheduler: scheduler(),
        }),
        "delete_node" => request
            .get("node")
            .and_then(Json::as_u64)
            .ok_or_else(|| "missing node".to_string())
            .map(|node| LineOutcome::Mutation {
                id,
                op: MutationOp::DeleteNode(node as u32),
                scheduler: scheduler(),
            }),
        "stats" => Ok(LineOutcome::Respond(stats_response(
            id,
            tenant.as_ref().expect("tenant resolved"),
            tenants,
            replication,
        ))),
        "create_namespace" => Ok(LineOutcome::Admin {
            id,
            action: AdminAction::Create(ns.to_string()),
        }),
        "drop_namespace" => Ok(LineOutcome::Admin {
            id,
            action: AdminAction::Drop(ns.to_string()),
        }),
        "list_namespaces" => Ok(LineOutcome::Admin {
            id,
            action: AdminAction::List,
        }),
        "promote" => Ok(LineOutcome::Promote { id, request }),
        "ping" => Ok(LineOutcome::Respond(ok_response(id, vec![]))),
        "shutdown" => Ok(LineOutcome::Shutdown(ok_response(id, vec![]))),
        other => Err(format!("unknown op {other:?}")),
    };
    match result {
        Ok(outcome) => outcome,
        Err(e) => {
            match &tenant {
                Some(t) => t.scheduler.metrics().errors.fetch_add(1, Relaxed),
                None => base_metrics().errors.fetch_add(1, Relaxed),
            };
            LineOutcome::Respond(error_response(id, &e))
        }
    }
}

pub(crate) fn ok_response(id: Option<u64>, mut rest: Vec<(String, Json)>) -> Json {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id".to_string(), Json::u64(id)));
    }
    fields.push(("ok".to_string(), Json::Bool(true)));
    fields.append(&mut rest);
    Json::Obj(fields)
}

fn mutation_response(id: Option<u64>, version: u64) -> Json {
    ok_response(id, vec![("version".to_string(), Json::u64(version))])
}

/// Runs a mutation through the durable path. A WAL failure leaves the graph
/// untouched and surfaces as a typed `storage_failed` error — never a panic
/// that would take the handler (and every pipelined request) down with it.
pub(crate) fn apply_response(id: Option<u64>, scheduler: &Scheduler, op: MutationOp) -> Json {
    // The tenant can be dropped between routing and execution; the
    // retired flag closes that race with the same typed error its
    // in-flight queries receive.
    if scheduler.is_retired() {
        let e = ServiceError::namespace_dropped(id.unwrap_or(0));
        return service_error_response(id, &e);
    }
    match scheduler.apply(&op) {
        Ok(version) => mutation_response(id, version),
        // A fence can land between the role check and the session apply;
        // the session-level bounce keeps the guarantee airtight and is
        // reported with the same typed error as the role-level one.
        Err(resacc::durability::DurabilityError::Fenced { epoch, leader }) => {
            scheduler
                .metrics()
                .errors
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            fenced_error_response(id, epoch, &leader)
        }
        Err(e) => {
            scheduler
                .metrics()
                .errors
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            error_fields(id, "storage_failed", &e.to_string(), None)
        }
    }
}

/// Handles the `promote` admin op: drains the replication stream, durably
/// bumps the replication epoch, flips the replica writable at its final
/// applied version, and fences the old primary (or the address in the
/// request's optional `fence` field) in the background.
/// [`promote_response`] with its error branch rendered — the form the
/// event loop writes to the wire.
pub(crate) fn promote_json(
    id: Option<u64>,
    request: &Json,
    tenants: &Arc<Tenants>,
    replication: Option<&ReplicationRole>,
) -> Json {
    match promote_response(id, request, tenants, replication) {
        Ok(json) => json,
        Err(e) => {
            tenants
                .default_tenant()
                .scheduler
                .metrics()
                .errors
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            error_response(id, &e)
        }
    }
}

fn promote_response(
    id: Option<u64>,
    request: &Json,
    tenants: &Arc<Tenants>,
    replication: Option<&ReplicationRole>,
) -> Result<Json, String> {
    let role = replication.ok_or("no replication role: this server is a standalone primary")?;
    let old_primary = role.primary_addr();
    // Promotion is a *process* transition: every tenant drains its stream
    // and bumps its own epoch (epochs are per-namespace on disk).
    let promoted = role.promote_tenants(tenants)?;
    let (version, epoch) = promoted
        .iter()
        .find(|(ns, _, _)| ns == DEFAULT_NAMESPACE)
        .map(|&(_, v, e)| (v, e))
        .or_else(|| promoted.first().map(|&(_, v, e)| (v, e)))
        .ok_or("no tenants to promote")?;
    // Fence target: explicit override first (the old primary's *client*
    // address is not its replication address, so tests and tooling pass
    // the right one), else the address this replica was following.
    let fence_target = request
        .get("fence")
        .and_then(Json::as_str)
        .map(str::to_string)
        .or_else(|| (!old_primary.is_empty()).then_some(old_primary));
    if let Some(target) = fence_target {
        spawn_fence_prober(target, promoted, role.self_addr());
    }
    Ok(ok_response(
        id,
        vec![
            ("version".to_string(), Json::u64(version)),
            ("epoch".to_string(), Json::u64(epoch)),
            ("role".to_string(), Json::Str("primary".to_string())),
        ],
    ))
}

/// Retries a fence probe per namespace against the old primary until each
/// acknowledges or the retry budget runs out. Runs detached: promotion
/// must not block on an old primary that is partitioned away — the probes
/// exist so that the moment it becomes reachable again, it learns it lost
/// every tenant.
fn spawn_fence_prober(target: String, promoted: Vec<(String, u64, u64)>, leader: String) {
    std::thread::Builder::new()
        .name("fence-probe".into())
        .spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(60);
            let mut remaining = promoted;
            while !remaining.is_empty() {
                remaining.retain(|(ns, fork_version, epoch)| {
                    // Acknowledged (true) or the target outranks us
                    // (false): either way this namespace's probe is done.
                    resacc::replication::fence_probe_ns(&target, ns, *epoch, *fork_version, &leader)
                        .is_err()
                });
                if remaining.is_empty() || Instant::now() >= deadline {
                    return;
                }
                std::thread::sleep(Duration::from_millis(500));
            }
        })
        .ok();
}

/// Renders a namespace-lifecycle outcome ([`LineOutcome::Admin`]) — the
/// blocking half runs on the reactor's executor pool, exactly like a
/// durable mutation.
pub(crate) fn admin_response(id: Option<u64>, action: &AdminAction, tenants: &Arc<Tenants>) -> Json {
    use std::sync::atomic::Ordering::Relaxed;
    let fail = |e: String| {
        tenants
            .default_tenant()
            .scheduler
            .metrics()
            .errors
            .fetch_add(1, Relaxed);
        error_response(id, &e)
    };
    match action {
        AdminAction::Create(name) => match tenants.create(name) {
            Ok(_) => ok_response(
                id,
                vec![("namespace".to_string(), Json::Str(name.clone()))],
            ),
            Err(e) => fail(e),
        },
        AdminAction::Drop(name) => {
            if name != DEFAULT_NAMESPACE && tenants.get(name).is_none() {
                tenants
                    .default_tenant()
                    .scheduler
                    .metrics()
                    .errors
                    .fetch_add(1, Relaxed);
                let e = ServiceError::unknown_namespace(id.unwrap_or(0), name);
                return service_error_response(id, &e);
            }
            match tenants.drop_ns(name) {
                Ok(_) => ok_response(
                    id,
                    vec![("namespace".to_string(), Json::Str(name.clone()))],
                ),
                Err(e) => fail(e),
            }
        }
        AdminAction::List => ok_response(
            id,
            vec![(
                "namespaces".to_string(),
                Json::Arr(tenants.list().into_iter().map(Json::Str).collect()),
            )],
        ),
    }
}

fn stats_response(
    id: Option<u64>,
    tenant: &Arc<Tenant>,
    tenants: &Arc<Tenants>,
    replication: Option<&ReplicationRole>,
) -> Json {
    use std::sync::atomic::Ordering::Relaxed;
    let scheduler = &tenant.scheduler;
    if let Some(role) = replication {
        // Mirror the live replication counters into the metrics surface so
        // they render next to everything else (and in the text page).
        let m = scheduler.metrics();
        m.replication_lag_records
            .store(role.stats.lag_records.load(Relaxed), Relaxed);
        m.replication_bytes_shipped
            .store(role.stats.bytes_shipped.load(Relaxed), Relaxed);
        m.replication_reconnects
            .store(role.stats.reconnects.load(Relaxed), Relaxed);
        m.replication_stream_errors
            .store(role.stats.stream_errors.load(Relaxed), Relaxed);
    }
    let snapshot: MetricsSnapshot = scheduler.metrics().snapshot();
    let session = scheduler.session();
    let (nodes, edges) = {
        let g = session.graph();
        (g.num_nodes(), g.num_edges())
    };
    let err_stats = scheduler.cache().err_bound_stats();
    let mut rest = vec![
        ("stats".to_string(), snapshot.to_json()),
        ("nodes".to_string(), Json::u64(nodes as u64)),
        ("edges".to_string(), Json::u64(edges as u64)),
        ("version".to_string(), Json::u64(session.version())),
        (
            "cache_err_bound".to_string(),
            Json::Obj(vec![
                ("entries".to_string(), Json::u64(err_stats.entries as u64)),
                ("upgraded".to_string(), Json::u64(err_stats.upgraded as u64)),
                ("max".to_string(), Json::f64(err_stats.max)),
                ("mean".to_string(), Json::f64(err_stats.mean)),
            ]),
        ),
    ];
    if let Some(store) = session.durability() {
        // Live WAL/snapshot counters for this process (recovery-time
        // counters live in `stats`; these advance as mutations arrive).
        rest.push((
            "durability".to_string(),
            Json::Obj(vec![
                ("wal_appends".to_string(), Json::u64(store.records_appended())),
                (
                    // Group-commit batches fsynced; `wal_appends /
                    // wal_batches` is the live batching factor.
                    "wal_batches".to_string(),
                    Json::u64(store.batches_committed()),
                ),
                (
                    // Nanoseconds inside the serialized append+fsync path;
                    // with `wal_appends` this yields the live throughput
                    // of the durability choke point.
                    "wal_commit_nanos".to_string(),
                    Json::u64(store.commit_nanos()),
                ),
                (
                    "bytes_appended".to_string(),
                    Json::u64(store.bytes_appended()),
                ),
                (
                    "snapshots_written".to_string(),
                    Json::u64(store.snapshots_written()),
                ),
                (
                    "wal_truncated_bytes".to_string(),
                    Json::u64(store.wal_truncated_bytes()),
                ),
                (
                    "last_snapshot_version".to_string(),
                    Json::u64(store.last_snapshot_version()),
                ),
            ]),
        ));
    }
    if let Some(role) = replication {
        let mut fields = vec![
            ("role".to_string(), Json::Str(role.name().to_string())),
            ("read_only".to_string(), Json::Bool(role.is_read_only())),
            (
                "applied_version".to_string(),
                Json::u64(session.version()),
            ),
            (
                "lag_records".to_string(),
                Json::u64(role.stats.lag_records.load(Relaxed)),
            ),
            (
                "bytes_shipped".to_string(),
                Json::u64(role.stats.bytes_shipped.load(Relaxed)),
            ),
            (
                "reconnects".to_string(),
                Json::u64(role.stats.reconnects.load(Relaxed)),
            ),
            (
                "stream_errors".to_string(),
                Json::u64(role.stats.stream_errors.load(Relaxed)),
            ),
            ("epoch".to_string(), Json::u64(session.epoch())),
            ("fenced".to_string(), Json::Bool(role.fenced().is_some())),
        ];
        let primary = role.primary_addr();
        if !primary.is_empty() {
            fields.insert(1, ("primary".to_string(), Json::Str(primary)));
        }
        rest.push(("replication".to_string(), Json::Obj(fields)));
    }
    // Per-namespace breakdown — only once a second tenant exists, so a
    // single-tenant server's stats stay byte-identical to the
    // pre-namespace protocol.
    if tenants.count() > 1 {
        let entries = tenants
            .all()
            .into_iter()
            .map(|t| {
                let session = t.scheduler.session();
                let (nodes, edges) = {
                    let g = session.graph();
                    (g.num_nodes(), g.num_edges())
                };
                let snap = t.scheduler.metrics().snapshot();
                (
                    t.name.clone(),
                    Json::Obj(vec![
                        (
                            "applied_version".to_string(),
                            Json::u64(session.version()),
                        ),
                        ("epoch".to_string(), Json::u64(session.epoch())),
                        ("nodes".to_string(), Json::u64(nodes as u64)),
                        ("edges".to_string(), Json::u64(edges as u64)),
                        ("queries".to_string(), Json::u64(snap.queries)),
                        ("cache_hits".to_string(), Json::u64(snap.cache_hits)),
                        (
                            "lag_records".to_string(),
                            Json::u64(t.repl_stats.lag_records.load(Relaxed)),
                        ),
                    ]),
                )
            })
            .collect();
        rest.push(("namespaces".to_string(), Json::Obj(entries)));
    }
    ok_response(id, rest)
}

/// Parses a `query` op into the scheduler request plus rendering knobs
/// `(request, k, full)`.
fn parse_query(
    request: &Json,
    limits: &ConnLimits,
) -> Result<(QueryRequest, usize, bool), String> {
    let id = request.get("id").and_then(Json::as_u64);
    let source = request
        .get("source")
        .and_then(Json::as_u64)
        .ok_or("missing source")? as u32;
    let seed = request.get("seed").and_then(Json::as_u64);
    let k = request
        .get("k")
        .and_then(Json::as_u64)
        .map(|k| k as usize)
        .unwrap_or(limits.default_k);
    let full = request.get("full").and_then(Json::as_bool).unwrap_or(false);
    // Per-request deadline wins; otherwise the server default (if any).
    let deadline_ms = request
        .get("deadline_ms")
        .and_then(Json::as_u64)
        .or((limits.default_deadline_ms > 0).then_some(limits.default_deadline_ms));
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    // Optional per-request thread hint; capped by the scheduler, and by
    // contract unable to change the result — only how fast it arrives.
    let threads = request
        .get("threads")
        .and_then(Json::as_u64)
        .map(|t| t as usize);

    // Source-range validation happens inside the scheduler, under the same
    // session lock the query runs under — a wire-level pre-check here would
    // race with concurrent delete_node (the TOCTOU this design closes).
    Ok((
        QueryRequest {
            id: id.unwrap_or(0),
            source,
            seed,
            deadline,
            threads,
        },
        k,
        full,
    ))
}

/// Renders a scheduler query outcome onto the wire.
pub(crate) fn render_query_outcome(
    id: Option<u64>,
    outcome: Result<crate::scheduler::QueryResponse, ServiceError>,
    k: usize,
    full: bool,
) -> Json {
    let response = match outcome {
        Ok(r) => r,
        Err(e) => return service_error_response(id, &e),
    };
    let top = top_k(&response.scores, k)
        .into_iter()
        .map(|(node, score)| Json::Arr(vec![Json::u64(node as u64), Json::f64(score)]))
        .collect();
    let mut rest = vec![
        ("version".to_string(), Json::u64(response.version)),
        ("seed".to_string(), Json::u64(response.seed)),
        ("cached".to_string(), Json::Bool(response.cached)),
        ("latency_ns".to_string(), Json::u64(response.latency_ns)),
        ("top".to_string(), Json::Arr(top)),
    ];
    if full {
        rest.push((
            "scores".to_string(),
            Json::Arr(response.scores.iter().map(|&s| Json::f64(s)).collect()),
        ));
    }
    ok_response(id, rest)
}

fn parse_edges(request: &Json) -> Result<Vec<(u32, u32)>, String> {
    let list = request
        .get("edges")
        .and_then(Json::as_arr)
        .ok_or("missing edges")?;
    list.iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or("edge must be [u,v]")?;
            let u = pair[0].as_u64().ok_or("edge endpoint must be an integer")?;
            let v = pair[1].as_u64().ok_or("edge endpoint must be an integer")?;
            Ok((u as u32, v as u32))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{connect, exchange_json};
    use resacc_graph::gen;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    fn start() -> ServerHandle {
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(300, 4, 3)));
        spawn(
            "127.0.0.1:0",
            session,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("bind")
    }

    #[test]
    fn query_over_tcp_matches_direct_session() {
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(300, 4, 3)));
        let direct = session.query(7, 12345).scores;
        let handle = spawn("127.0.0.1:0", session, ServerConfig::default()).unwrap();
        let mut stream = connect(&handle.addr().to_string(), None).unwrap();
        let r = exchange_json(
            &mut stream,
            r#"{"id":1,"op":"query","source":7,"seed":12345,"full":true,"k":3}"#,
            None,
        )
        .unwrap();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("seed").unwrap().as_u64(), Some(12345));
        let scores: Vec<f64> = r
            .get("scores")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|s| s.as_f64().unwrap())
            .collect();
        assert_eq!(scores.len(), direct.len());
        for (a, b) in scores.iter().zip(direct.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "wire round-trip must be bit-exact");
        }
        assert_eq!(r.get("top").unwrap().as_arr().unwrap().len(), 3);
        drop(stream);
        handle.shutdown().unwrap();
    }

    #[test]
    fn dynamic_upgrade_serves_over_tcp_and_surfaces_in_stats() {
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(300, 4, 3)));
        let handle = spawn(
            "127.0.0.1:0",
            session,
            ServerConfig {
                workers: 2,
                dynamic_eps: 0.05,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = connect(&handle.addr().to_string(), None).unwrap();
        let cold = exchange_json(
            &mut stream,
            r#"{"id":1,"op":"query","source":7,"seed":12345}"#,
            None,
        )
        .unwrap();
        assert_eq!(cold.get("cached").unwrap().as_bool(), Some(false));
        let m = exchange_json(
            &mut stream,
            r#"{"id":2,"op":"insert_edges","edges":[[7,250],[100,7]]}"#,
            None,
        )
        .unwrap();
        assert_eq!(m.get("ok").unwrap().as_bool(), Some(true));
        // Same lineage after the mutation: served by offset upgrade, not a
        // cold recompute.
        let warm = exchange_json(
            &mut stream,
            r#"{"id":3,"op":"query","source":7,"seed":12345}"#,
            None,
        )
        .unwrap();
        assert_eq!(warm.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(warm.get("version").unwrap().as_u64(), Some(1));
        let stats = exchange_json(&mut stream, r#"{"id":4,"op":"stats"}"#, None).unwrap();
        let inner = stats.get("stats").unwrap();
        assert_eq!(inner.get("cache_upgrades").unwrap().as_u64(), Some(1));
        assert_eq!(
            inner.get("cache_upgrade_fallbacks").unwrap().as_u64(),
            Some(0)
        );
        let err = stats.get("cache_err_bound").unwrap();
        assert_eq!(err.get("upgraded").unwrap().as_u64(), Some(1));
        assert!(err.get("max").unwrap().as_f64().unwrap() >= 0.0);
        drop(stream);
        handle.shutdown().unwrap();
    }

    #[test]
    fn mutations_and_stats_over_tcp() {
        let handle = start();
        let mut stream = connect(&handle.addr().to_string(), None).unwrap();
        let q = r#"{"id":1,"op":"query","source":0,"seed":9}"#;
        let a = exchange_json(&mut stream, q, None).unwrap();
        assert_eq!(a.get("cached").unwrap().as_bool(), Some(false));
        let b = exchange_json(&mut stream, &q.replace("\"id\":1", "\"id\":2"), None).unwrap();
        assert_eq!(b.get("cached").unwrap().as_bool(), Some(true));

        let m = exchange_json(
            &mut stream,
            r#"{"id":3,"op":"insert_edges","edges":[[0,299]]}"#,
            None,
        )
        .unwrap();
        assert_eq!(m.get("version").unwrap().as_u64(), Some(1));
        let c = exchange_json(&mut stream, &q.replace("\"id\":1", "\"id\":4"), None).unwrap();
        assert_eq!(
            c.get("cached").unwrap().as_bool(),
            Some(false),
            "mutation must invalidate the cache"
        );
        assert_eq!(c.get("version").unwrap().as_u64(), Some(1));

        let s = exchange_json(&mut stream, r#"{"op":"stats"}"#, None).unwrap();
        let stats = s.get("stats").unwrap();
        assert_eq!(stats.get("queries").unwrap().as_u64(), Some(3));
        assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(1));
        assert_eq!(s.get("version").unwrap().as_u64(), Some(1));
        drop(stream);
        handle.shutdown().unwrap();
    }

    #[test]
    fn bad_requests_keep_the_connection_alive() {
        let handle = start();
        let mut stream = connect(&handle.addr().to_string(), None).unwrap();
        let e1 = exchange_json(&mut stream, "not json at all", None).unwrap();
        assert_eq!(e1.get("ok").unwrap().as_bool(), Some(false));
        let e2 = exchange_json(&mut stream, r#"{"id":5,"op":"query"}"#, None).unwrap();
        assert_eq!(e2.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(e2.get("id").unwrap().as_u64(), Some(5));
        let e3 = exchange_json(
            &mut stream,
            r#"{"id":6,"op":"query","source":999999}"#,
            None,
        )
        .unwrap();
        assert_eq!(
            e3.get("error").unwrap().as_str(),
            Some("source out of range")
        );
        assert!(e3
            .get("detail")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("out of range"));
        let e4 = exchange_json(&mut stream, r#"{"id":7,"op":"frobnicate"}"#, None).unwrap();
        assert!(e4.get("error").unwrap().as_str().unwrap().contains("unknown op"));
        // Still serving after four errors:
        let ok = exchange_json(&mut stream, r#"{"id":8,"op":"ping"}"#, None).unwrap();
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true));
        drop(stream);
        handle.shutdown().unwrap();
    }

    #[test]
    fn deadline_ms_times_out_long_queries_and_server_recovers() {
        // 100k nodes: an uncancelled default-parameter query takes far more
        // than 1 ms, so the deadline must abort it — and the next query on
        // the same worker must succeed (acceptance criterion).
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(100_000, 5, 21)));
        let handle = spawn(
            "127.0.0.1:0",
            session,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = connect(&handle.addr().to_string(), None).unwrap();
        let started = Instant::now();
        let r = exchange_json(
            &mut stream,
            r#"{"id":1,"op":"query","source":0,"deadline_ms":1}"#,
            None,
        )
        .unwrap();
        let elapsed = started.elapsed();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(r.get("error").unwrap().as_str(), Some("deadline_exceeded"));
        // "Well under the uncancelled query time": a full 100k-node query
        // with default parameters takes O(seconds); the abort must land in
        // tens of milliseconds.
        assert!(
            elapsed < Duration::from_millis(500),
            "deadline abort took {elapsed:?}"
        );
        // The sole worker is immediately reusable.
        let ok = exchange_json(
            &mut stream,
            r#"{"id":2,"op":"query","source":0,"seed":5,"deadline_ms":60000}"#,
            None,
        )
        .unwrap();
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true));
        let s = exchange_json(&mut stream, r#"{"op":"stats"}"#, None).unwrap();
        assert_eq!(
            s.get("stats").unwrap().get("timeouts").unwrap().as_u64(),
            Some(1)
        );
        drop(stream);
        handle.shutdown().unwrap();
    }

    #[test]
    fn oversized_line_is_rejected_without_panic() {
        let session = Arc::new(RwrSession::new(gen::cycle(16)));
        let handle = spawn(
            "127.0.0.1:0",
            session,
            ServerConfig {
                workers: 1,
                max_line_bytes: 256,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // 1 KiB of garbage with no newline: must get one error response and
        // a closed connection, not unbounded buffering.
        stream.write_all(&[b'x'; 1024]).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let r = Json::parse(response.trim()).unwrap();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
        assert!(r.get("detail").unwrap().as_str().unwrap().contains("exceeds"));
        // Connection is closed afterwards.
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0);
        // Server still accepts fresh connections.
        let mut stream2 = connect(&handle.addr().to_string(), None).unwrap();
        let ok = exchange_json(&mut stream2, r#"{"op":"ping"}"#, None).unwrap();
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true));
        drop(stream2);
        handle.shutdown().unwrap();
    }

    #[test]
    fn connection_cap_rejects_with_typed_error() {
        let session = Arc::new(RwrSession::new(gen::cycle(16)));
        let handle = spawn(
            "127.0.0.1:0",
            session,
            ServerConfig {
                workers: 1,
                max_conns: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut keeper = connect(&handle.addr().to_string(), None).unwrap();
        // Make sure the first connection is registered before the second.
        let ok = exchange_json(&mut keeper, r#"{"op":"ping"}"#, None).unwrap();
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true));
        let over = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(over);
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let r = Json::parse(response.trim()).unwrap();
        assert_eq!(r.get("error").unwrap().as_str(), Some("overloaded"));
        drop(reader);
        drop(keeper);
        handle.shutdown().unwrap();
    }

    #[test]
    fn pipelined_requests_all_answered_before_drain() {
        // Write a burst of pipelined queries immediately followed by a
        // shutdown from another connection; every request the server read
        // must still be answered (the drain contract).
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(300, 4, 3)));
        let handle = spawn(
            "127.0.0.1:0",
            session,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut batch = String::new();
        for i in 0..10 {
            batch.push_str(&format!(
                "{{\"id\":{i},\"op\":\"query\",\"source\":{},\"seed\":{i}}}\n",
                i % 5
            ));
        }
        stream.write_all(batch.as_bytes()).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut seen = 0u64;
        for _ in 0..10 {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap() == 0 {
                break;
            }
            let r = Json::parse(line.trim()).unwrap();
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
            seen += 1;
        }
        assert_eq!(seen, 10, "every pipelined request answered");
        drop(stream);
        handle.shutdown().unwrap();
    }

    #[test]
    fn drained_shutdown_checkpoints_so_restart_replays_nothing() {
        use resacc::durability::{open_dir, DurabilityOptions};
        use resacc::resacc::ResAccConfig;
        let dir = std::env::temp_dir().join(format!("resacc-drain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurabilityOptions {
            fsync: false,
            snapshot_every: 0, // no periodic snapshots: only the drain checkpoint
            ..Default::default()
        };
        let base = || Ok(gen::barabasi_albert(200, 3, 5));

        // First lifetime: serve, mutate over TCP, shut down gracefully.
        let rec = open_dir(&dir, opts, base).unwrap();
        let params = resacc::RwrParams::for_graph(rec.graph.num_nodes());
        let session = Arc::new(RwrSession::from_recovered(rec, params, ResAccConfig::default()));
        let handle = spawn("127.0.0.1:0", session, ServerConfig::default()).unwrap();
        let mut stream = connect(&handle.addr().to_string(), None).unwrap();
        let m = exchange_json(
            &mut stream,
            r#"{"id":1,"op":"insert_edges","edges":[[0,199],[5,6]]}"#,
            None,
        )
        .unwrap();
        assert_eq!(m.get("version").unwrap().as_u64(), Some(1));
        let m =
            exchange_json(&mut stream, r#"{"id":2,"op":"delete_node","node":7}"#, None).unwrap();
        assert_eq!(m.get("version").unwrap().as_u64(), Some(2));
        let expected = exchange_json(
            &mut stream,
            r#"{"id":3,"op":"query","source":0,"seed":42,"full":true}"#,
            None,
        )
        .unwrap();
        drop(stream);
        handle.shutdown().unwrap(); // drain + checkpoint

        // Second lifetime: recovery must find a snapshot at the tip and an
        // empty WAL — zero records replayed — and answer bit-identically.
        let rec = open_dir(&dir, opts, base).unwrap();
        assert_eq!(rec.stats.wal_records_replayed, 0, "drained restart must not replay");
        assert_eq!(rec.stats.snapshots_loaded, 1);
        assert_eq!(rec.version, 2);
        let recovery = rec.stats;
        let params = resacc::RwrParams::for_graph(rec.graph.num_nodes());
        let session = Arc::new(RwrSession::from_recovered(rec, params, ResAccConfig::default()));
        let handle = spawn(
            "127.0.0.1:0",
            session,
            ServerConfig {
                recovery,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = connect(&handle.addr().to_string(), None).unwrap();
        let s = exchange_json(&mut stream, r#"{"op":"stats"}"#, None).unwrap();
        let stats = s.get("stats").unwrap();
        assert_eq!(
            stats.get("wal_records_replayed").unwrap().as_u64(),
            Some(0)
        );
        assert_eq!(stats.get("snapshots_loaded").unwrap().as_u64(), Some(1));
        assert!(s.get("durability").is_some(), "live WAL counters exposed");
        let replay = exchange_json(
            &mut stream,
            r#"{"id":3,"op":"query","source":0,"seed":42,"full":true}"#,
            None,
        )
        .unwrap();
        assert_eq!(
            replay.get("scores").unwrap().render(),
            expected.get("scores").unwrap().render(),
            "recovered server must answer bit-identically"
        );
        assert_eq!(replay.get("version").unwrap().as_u64(), Some(2));
        drop(stream);
        handle.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replica_rejects_mutations_and_promote_flips_writable() {
        use resacc::replication::{attach_hub, ReplicaClient, ReplicationHub, ReplicationServer, ReplicationStats};
        // Core-level primary: session + hub + replication listener.
        let mut primary = RwrSession::new(gen::barabasi_albert(200, 3, 8));
        let hub = Arc::new(ReplicationHub::new(primary.version()));
        attach_hub(&mut primary, hub.clone());
        let primary = Arc::new(primary);
        let pstats = Arc::new(ReplicationStats::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let repl_addr = listener.local_addr().unwrap().to_string();
        let repl_server =
            ReplicationServer::spawn(listener, primary.clone(), hub.clone(), pstats).unwrap();
        primary.insert_edges(&[(0, 5), (5, 0)]);

        // Service-level replica following it.
        let replica = Arc::new(RwrSession::new(gen::barabasi_albert(200, 3, 8)));
        let rstats = Arc::new(ReplicationStats::default());
        let client = ReplicaClient::spawn(repl_addr.clone(), replica.clone(), rstats.clone());
        let role = Arc::new(crate::replication::ReplicationRole::replica(
            repl_addr.clone(),
            client,
            rstats,
        ));
        let handle = spawn(
            "127.0.0.1:0",
            replica.clone(),
            ServerConfig {
                workers: 1,
                replication: Some(role),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while replica.version() < primary.version() {
            assert!(Instant::now() < deadline, "replica never caught up");
            std::thread::sleep(Duration::from_millis(10));
        }

        let mut stream = connect(&handle.addr().to_string(), None).unwrap();
        // Mutations bounce with a typed error naming the primary.
        let r = exchange_json(
            &mut stream,
            r#"{"id":1,"op":"insert_edges","edges":[[1,2]]}"#,
            None,
        )
        .unwrap();
        assert_eq!(r.get("error").unwrap().as_str(), Some("read_only"));
        assert!(r.get("detail").unwrap().as_str().unwrap().contains(&repl_addr));
        // Queries flow, and stats expose the replica's applied version.
        let s = exchange_json(&mut stream, r#"{"id":2,"op":"stats"}"#, None).unwrap();
        let repl = s.get("replication").unwrap();
        assert_eq!(repl.get("role").unwrap().as_str(), Some("replica"));
        assert_eq!(repl.get("read_only").unwrap().as_bool(), Some(true));
        assert_eq!(
            repl.get("applied_version").unwrap().as_u64(),
            Some(primary.version())
        );
        assert_eq!(repl.get("primary").unwrap().as_str(), Some(repl_addr.as_str()));
        // Promote: drains the stream, flips writable at the applied version.
        let p = exchange_json(&mut stream, r#"{"id":3,"op":"promote"}"#, None).unwrap();
        assert_eq!(p.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(p.get("version").unwrap().as_u64(), Some(primary.version()));
        assert_eq!(p.get("epoch").unwrap().as_u64(), Some(1), "promotion bumps the epoch");
        let again = exchange_json(&mut stream, r#"{"id":4,"op":"promote"}"#, None).unwrap();
        assert_eq!(again.get("ok").unwrap().as_bool(), Some(false));
        // Mutations now land locally.
        let m = exchange_json(
            &mut stream,
            r#"{"id":5,"op":"insert_edges","edges":[[1,2]]}"#,
            None,
        )
        .unwrap();
        assert_eq!(
            m.get("version").unwrap().as_u64(),
            Some(primary.version() + 1)
        );
        drop(stream);
        handle.shutdown().unwrap();
        repl_server.shutdown();
    }

    #[test]
    fn fenced_server_bounces_mutations_with_epoch_and_leader() {
        use resacc::replication::ReplicationStats;
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(100, 3, 8)));
        let role = Arc::new(crate::replication::ReplicationRole::primary(Arc::new(
            ReplicationStats::default(),
        )));
        let handle = spawn(
            "127.0.0.1:0",
            session.clone(),
            ServerConfig {
                workers: 1,
                replication: Some(role.clone()),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = connect(&handle.addr().to_string(), None).unwrap();
        // Writable at first.
        let m = exchange_json(
            &mut stream,
            r#"{"id":1,"op":"insert_edges","edges":[[1,2]]}"#,
            None,
        )
        .unwrap();
        assert_eq!(m.get("ok").unwrap().as_bool(), Some(true));
        // A fence lands (what the fence hook performs after demotion).
        role.demote(3, "10.0.0.9:7000".to_string(), None);
        let r = exchange_json(
            &mut stream,
            r#"{"id":2,"op":"insert_edges","edges":[[2,3]]}"#,
            None,
        )
        .unwrap();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(r.get("error").unwrap().as_str(), Some("fenced"));
        assert_eq!(r.get("current_epoch").unwrap().as_u64(), Some(3));
        assert_eq!(r.get("leader").unwrap().as_str(), Some("10.0.0.9:7000"));
        // Queries still flow on the demoted node, and stats say fenced.
        let q = exchange_json(
            &mut stream,
            r#"{"id":3,"op":"query","source":0,"seed":7}"#,
            None,
        )
        .unwrap();
        assert_eq!(q.get("ok").unwrap().as_bool(), Some(true));
        let s = exchange_json(&mut stream, r#"{"id":4,"op":"stats"}"#, None).unwrap();
        let repl = s.get("replication").unwrap();
        assert_eq!(repl.get("fenced").unwrap().as_bool(), Some(true));
        assert_eq!(repl.get("role").unwrap().as_str(), Some("replica"));
        assert_eq!(
            repl.get("primary").unwrap().as_str(),
            Some("10.0.0.9:7000"),
            "the leader is surfaced as the primary to follow"
        );
        drop(stream);
        handle.shutdown().unwrap();
    }

    /// Drops the fields that legitimately vary between two runs of the
    /// same workload (`latency_ns` is wall-clock; `cached` depends on
    /// cache warmth when servers are reused across comparisons).
    fn strip_volatile(line: &str, strip_cached: bool) -> String {
        let Ok(parsed) = Json::parse(line.trim()) else {
            return line.trim().to_string();
        };
        match parsed {
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "latency_ns" && (!strip_cached || k != "cached"))
                    .collect(),
            )
            .render(),
            other => other.render(),
        }
    }

    /// A fixed mixed workload: queries (top-k and full), edge mutations, a
    /// node deletion, malformed lines, an unknown op, missing fields, ping.
    fn equivalence_workload() -> Vec<String> {
        let mut lines = Vec::new();
        for i in 1..=36u64 {
            let line = match i % 6 {
                0 => format!(
                    "{{\"id\":{i},\"op\":\"query\",\"source\":{},\"seed\":{i}}}",
                    i % 7
                ),
                1 => format!(
                    "{{\"id\":{i},\"op\":\"insert_edges\",\"edges\":[[{},{}]]}}",
                    i % 50,
                    (i * 3) % 50
                ),
                2 => format!(
                    "{{\"id\":{i},\"op\":\"query\",\"source\":{},\"seed\":7,\"full\":true,\"k\":5}}",
                    i % 5
                ),
                3 => "definitely not json".to_string(),
                4 => format!(
                    "{{\"id\":{i},\"op\":\"delete_edges\",\"edges\":[[{},{}]]}}",
                    i % 50,
                    (i * 3) % 50
                ),
                _ => format!("{{\"id\":{i},\"op\":\"frobnicate\"}}"),
            };
            lines.push(line);
        }
        lines.push(r#"{"id":90,"op":"delete_node","node":299}"#.to_string());
        lines.push(r#"{"id":91,"op":"query","source":3,"seed":11}"#.to_string());
        lines.push(r#"{"id":92,"op":"query"}"#.to_string()); // missing source
        lines.push(r#"{"id":93,"op":"delete_node"}"#.to_string()); // missing node
        lines.push(r#"{"id":94,"op":"ping"}"#.to_string());
        lines
    }

    /// The normalized transcript of [`equivalence_workload`] on a clean
    /// server: the reference the event loop must reproduce byte for byte.
    /// Recorded from the retired thread-per-connection engine, which the
    /// event loop matched exactly; a deliberate wire change re-records it.
    const GOLDEN_CLEAN: &str = include_str!("../testdata/equivalence_clean.ndjson");
    /// The same under the chaos plan of
    /// [`backends_stay_equivalent_under_chaos_and_dynamic_upgrades`] with
    /// `dynamic_eps = 0.05`.
    const GOLDEN_CHAOS_DYNAMIC: &str = include_str!("../testdata/equivalence_chaos_dynamic.ndjson");

    /// Replays [`equivalence_workload`] against a fresh server; returns the
    /// normalized response lines.
    fn run_workload(faults: crate::FaultPlan, dynamic_eps: f64) -> Vec<String> {
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(300, 4, 3)));
        let handle = spawn(
            "127.0.0.1:0",
            session,
            ServerConfig {
                workers: 2,
                faults,
                dynamic_eps,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut out = Vec::new();
        for line in equivalence_workload() {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            out.push(strip_volatile(&response, false));
        }
        drop(stream);
        handle.shutdown().unwrap();
        out
    }

    /// Compares a transcript with a golden file line by line, naming the
    /// first line that differs.
    fn assert_matches_golden(got: &[String], golden: &str, name: &str) {
        let want: Vec<&str> = golden.lines().collect();
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                g == w,
                "response {i} differs from {name}:\n  got  {g}\n  want {w}"
            );
        }
        assert_eq!(got.len(), want.len(), "response count differs from {name}");
    }

    /// The wire equivalence gate: an identical mixed workload answers with
    /// the golden bytes (modulo wall-clock latency). Same graph, same
    /// seeds, same ids — queries, mutations, protocol errors, everything.
    #[test]
    fn backends_answer_identical_bytes_for_identical_workload() {
        let got = run_workload(crate::FaultPlan::default(), 0.0);
        assert_matches_golden(&got, GOLDEN_CLEAN, "equivalence_clean.ndjson");
    }

    /// Equivalence under chaos and the dynamic-upgrade path: injected
    /// panics/delays select by request id and upgrades are deterministic,
    /// so the answers must still match the golden bytes.
    #[test]
    fn backends_stay_equivalent_under_chaos_and_dynamic_upgrades() {
        let faults = crate::FaultPlan {
            panic_every: 7,
            delay_every: 5,
            delay_ms: 1,
            ..Default::default()
        };
        let got = run_workload(faults, 0.05);
        assert_matches_golden(
            &got,
            GOLDEN_CHAOS_DYNAMIC,
            "equivalence_chaos_dynamic.ndjson",
        );
        // Sanity: the fault plan actually fired somewhere in there.
        assert!(
            got.iter().any(|l| l.contains("internal_panic")),
            "chaos plan never fired"
        );
    }

    /// The namespace back-compat gate: requests with no `namespace` field
    /// must behave exactly as they did before tenants existed, even while
    /// tenant lifecycle ops and namespaced traffic interleave on the same
    /// connection. The mixed run must reproduce the clean golden
    /// transcript byte-for-byte on every namespace-less response —
    /// including `cached` flags, which would differ if tenant traffic
    /// leaked into the default tenant's cache or version counter.
    #[test]
    fn default_tenant_responses_unchanged_by_namespace_traffic() {
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(300, 4, 3)));
        let handle = spawn(
            "127.0.0.1:0",
            session,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut exchange = |line: &str| -> String {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            strip_volatile(&response, false)
        };
        exchange(r#"{"id":900,"op":"create_namespace","namespace":"t9"}"#);
        let mut mixed = Vec::new();
        for (i, line) in equivalence_workload().iter().enumerate() {
            if i % 3 == 0 {
                // Tenant traffic between the namespace-less lines: a
                // mutation and a query against t9, ids far away from the
                // workload's so fault plans (none here) and logs stay
                // distinguishable.
                exchange(&format!(
                    "{{\"id\":{},\"op\":\"insert_edges\",\"namespace\":\"t9\",\"edges\":[[{},{}]]}}",
                    901 + i,
                    i % 8,
                    (i + 1) % 8
                ));
                exchange(&format!(
                    "{{\"id\":{},\"op\":\"query\",\"namespace\":\"t9\",\"source\":0,\"seed\":4}}",
                    950 + i
                ));
            }
            mixed.push(exchange(line));
        }
        exchange(r#"{"id":998,"op":"drop_namespace","namespace":"t9"}"#);
        drop(stream);
        handle.shutdown().unwrap();

        assert_matches_golden(&mixed, GOLDEN_CLEAN, "equivalence_clean.ndjson");
    }

    /// Dropping a namespace under chaos: pipelined in-flight queries are
    /// answered with a typed error (or a normal success if they beat the
    /// drop) — never a hang — and recreating the namespace starts with a
    /// cold cache, proving the dropped tenant's entries are unreachable.
    #[test]
    fn drop_namespace_answers_inflight_queries_and_purges_cache() {
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(300, 4, 3)));
        let faults = crate::FaultPlan {
            delay_every: 1,
            delay_ms: 20,
            ..Default::default()
        };
        let handle = spawn(
            "127.0.0.1:0",
            session,
            ServerConfig {
                workers: 2,
                faults,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr();
        let mut admin = TcpStream::connect(addr).unwrap();
        let mut admin_reader = BufReader::new(admin.try_clone().unwrap());
        let mut admin_exchange = |line: &str| -> Json {
            admin.write_all(line.as_bytes()).unwrap();
            admin.write_all(b"\n").unwrap();
            let mut response = String::new();
            admin_reader.read_line(&mut response).unwrap();
            Json::parse(response.trim()).unwrap()
        };
        admin_exchange(r#"{"id":1,"op":"create_namespace","namespace":"t0"}"#);
        admin_exchange(r#"{"id":2,"op":"insert_edges","namespace":"t0","edges":[[0,1],[1,2],[2,0]]}"#);

        // Pipeline a burst of identical t0 queries (they coalesce behind
        // the 20ms chaos delay) without reading a single response yet...
        let victim = TcpStream::connect(addr).unwrap();
        victim
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut w = victim.try_clone().unwrap();
        const BURST: usize = 16;
        for i in 0..BURST {
            w.write_all(
                format!(
                    "{{\"id\":{},\"op\":\"query\",\"namespace\":\"t0\",\"source\":0,\"seed\":9}}\n",
                    100 + i
                )
                .as_bytes(),
            )
            .unwrap();
        }
        // ...drop the namespace out from under them...
        std::thread::sleep(Duration::from_millis(5));
        let dropped = admin_exchange(r#"{"id":3,"op":"drop_namespace","namespace":"t0"}"#);
        assert_eq!(dropped.get("ok").and_then(Json::as_bool), Some(true));
        // ...and every pipelined query must still answer: success if it
        // beat the drop, a typed error if it didn't. A read timeout here
        // is the hang this test exists to prevent.
        let mut reader = BufReader::new(victim);
        for i in 0..BURST {
            let mut response = String::new();
            reader
                .read_line(&mut response)
                .unwrap_or_else(|e| panic!("query {i} hung after drop_namespace: {e}"));
            let parsed = Json::parse(response.trim()).unwrap();
            if parsed.get("ok").and_then(Json::as_bool) != Some(true) {
                let error = parsed.get("error").and_then(Json::as_str).unwrap_or("");
                assert!(
                    error == "namespace_dropped" || error == "unknown_namespace",
                    "untyped error after drop: {response}"
                );
            }
        }

        // Recreate the namespace: same name, same query, and the cache
        // must be cold — a hit here would mean the dropped tenant's
        // entries survived into the new one.
        admin_exchange(r#"{"id":4,"op":"create_namespace","namespace":"t0"}"#);
        admin_exchange(r#"{"id":5,"op":"insert_edges","namespace":"t0","edges":[[0,1],[1,2],[2,0]]}"#);
        let fresh =
            admin_exchange(r#"{"id":6,"op":"query","namespace":"t0","source":0,"seed":9}"#);
        assert_eq!(fresh.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            fresh.get("cached").and_then(Json::as_bool),
            Some(false),
            "recreated namespace must start with a cold cache"
        );
        handle.shutdown().unwrap();
    }

    /// Byte-level framing torture against the event loop: the same
    /// pipelined batch must produce identical responses whether it
    /// arrives in one write, byte-by-byte, or in arbitrary chunks —
    /// and a mid-line disconnect must not disturb the server.
    #[test]
    fn event_backend_is_chunking_invariant() {
        use proptest::Strategy as _;

        let session = Arc::new(RwrSession::new(gen::barabasi_albert(300, 4, 3)));
        let handle = spawn(
            "127.0.0.1:0",
            session,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr();

        let mut batch = String::new();
        let n_lines = 8u64;
        for i in 0..n_lines {
            batch.push_str(&format!(
                "{{\"id\":{i},\"op\":\"query\",\"source\":{},\"seed\":{}}}\n",
                i % 5,
                i % 3
            ));
        }
        let batch = batch.into_bytes();

        let send = |chunks: &[&[u8]]| -> Vec<String> {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            for chunk in chunks {
                stream.write_all(chunk).unwrap();
                stream.flush().unwrap();
            }
            let mut out = Vec::new();
            for _ in 0..n_lines {
                let mut line = String::new();
                assert!(reader.read_line(&mut line).unwrap() > 0, "response missing");
                // Cache warmth varies across replays of the same batch.
                out.push(strip_volatile(&line, true));
            }
            drop(stream);
            out
        };

        // Reference: the whole pipeline in one write.
        let expected = send(&[&batch]);
        // Torture 1: one byte at a time.
        let bytes: Vec<&[u8]> = batch.chunks(1).collect();
        assert_eq!(send(&bytes), expected, "1-byte reads diverged");
        // Torture 2: property test over arbitrary chunk boundaries.
        let strategy = proptest::collection::vec(1usize..batch.len(), 0..10);
        proptest::run_cases(
            "event_backend_is_chunking_invariant",
            &proptest::ProptestConfig::with_cases(16),
            |rng, _case| {
                let mut splits = strategy.generate(rng);
                splits.sort_unstable();
                splits.dedup();
                let mut chunks: Vec<&[u8]> = Vec::new();
                let mut start = 0;
                for &s in &splits {
                    chunks.push(&batch[start..s]);
                    start = s;
                }
                chunks.push(&batch[start..]);
                let got = send(&chunks);
                if got != expected {
                    return Err(format!(
                        "chunking at {splits:?} diverged:\n  got {got:?}\n  want {expected:?}"
                    ));
                }
                Ok(())
            },
        );
        // Torture 3: mid-line disconnect — half a request, then gone.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"{\"id\":1,\"op\":\"que").unwrap();
            stream.flush().unwrap();
        } // dropped here
          // The server keeps serving identically afterwards.
        assert_eq!(send(&[&batch]), expected, "mid-line disconnect disturbed the server");
        handle.shutdown().unwrap();
    }

    /// Slow-loris hardening on the event loop: many connections holding
    /// partial lines cost state, not threads — a real client stays
    /// responsive — and fully idle connections are reaped on the idle
    /// timeout.
    #[test]
    fn slow_loris_does_not_starve_the_event_loop_and_idle_conns_reap() {
        let session = Arc::new(RwrSession::new(gen::cycle(64)));
        let handle = spawn(
            "127.0.0.1:0",
            session,
            ServerConfig {
                workers: 1,
                idle_timeout_ms: 300,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // 40 connections that send half a request and then go quiet.
        let mut loris = Vec::new();
        for _ in 0..40 {
            let mut s = TcpStream::connect(handle.addr()).unwrap();
            s.write_all(b"{\"op\":\"pi").unwrap();
            loris.push(s);
        }
        // A real client gets served promptly in the meantime.
        let mut stream = connect(&handle.addr().to_string(), None).unwrap();
        let started = Instant::now();
        let ok = exchange_json(
            &mut stream,
            r#"{"id":1,"op":"query","source":0,"seed":4}"#,
            None,
        )
        .unwrap();
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "slow-loris peers starved a real client"
        );
        // Once quiet past the idle timeout, the loris connections are
        // reaped: their sockets read EOF.
        let deadline = Instant::now() + Duration::from_secs(10);
        for mut s in loris {
            s.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
            let mut buf = [0u8; 16];
            loop {
                match s.read(&mut buf) {
                    Ok(0) => break, // reaped
                    Ok(_) => {}
                    Err(ref e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        assert!(Instant::now() < deadline, "idle connection never reaped");
                    }
                    Err(_) => break, // reset also counts as closed
                }
            }
        }
        drop(stream);
        handle.shutdown().unwrap();
    }

    /// EOF pipelining on the event loop: a client that writes its whole
    /// pipeline and half-closes still gets every answer.
    #[test]
    fn event_backend_answers_buffered_lines_after_half_close() {
        let session = Arc::new(RwrSession::new(gen::cycle(64)));
        let handle = spawn(
            "127.0.0.1:0",
            session,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut batch = String::new();
        for i in 0..6 {
            batch.push_str(&format!(
                "{{\"id\":{i},\"op\":\"query\",\"source\":{},\"seed\":1}}\n",
                i % 4
            ));
        }
        stream.write_all(batch.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reader = BufReader::new(stream);
        let mut seen = 0;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap() == 0 {
                break;
            }
            let r = Json::parse(line.trim()).unwrap();
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
            seen += 1;
        }
        assert_eq!(seen, 6, "half-close lost pipelined answers");
        handle.shutdown().unwrap();
    }

    /// Satellite stress test: queries and graph mutations interleaved
    /// across 6 connections while a fault plan panics every 9th and delays
    /// every 5th request id. Invariants checked:
    ///
    /// * exactly one response per request, with a matching id;
    /// * no panic escapes (non-faulted requests all succeed, the server
    ///   drains cleanly afterwards);
    /// * the graph version each connection observes never decreases;
    /// * the `panics` metric equals exactly the number of fault-selected
    ///   query ids that were sent.
    #[test]
    fn concurrent_chaos_with_mutations_stress() {
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(300, 4, 5)));
        let handle = spawn(
            "127.0.0.1:0",
            session,
            ServerConfig {
                workers: 3,
                faults: crate::FaultPlan {
                    panic_every: 9,
                    delay_every: 5,
                    delay_ms: 1,
                    ..Default::default()
                },
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr();

        const CONNS: u64 = 6;
        const PER: u64 = 40;
        let sent_panic_queries: u64 = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CONNS)
                .map(|t| {
                    scope.spawn(move || {
                        let mut stream = connect(&addr.to_string(), None).unwrap();
                        let mut last_version = 0u64;
                        let mut my_panic_queries = 0u64;
                        for i in 0..PER {
                            let id = 1 + t * 1000 + i;
                            let node = (id * 2654435761) % 300;
                            let request = match i % 10 {
                                3 => format!(
                                    "{{\"id\":{id},\"op\":\"insert_edges\",\"edges\":[[{node},{}]]}}",
                                    (node + 7) % 300
                                ),
                                7 => format!(
                                    "{{\"id\":{id},\"op\":\"delete_edges\",\"edges\":[[{node},{}]]}}",
                                    (node + 7) % 300
                                ),
                                9 if t == 0 => {
                                    format!("{{\"id\":{id},\"op\":\"delete_node\",\"node\":{node}}}")
                                }
                                _ => {
                                    if id % 9 == 0 {
                                        my_panic_queries += 1;
                                    }
                                    format!(
                                        "{{\"id\":{id},\"op\":\"query\",\"source\":{node},\"seed\":{id}}}"
                                    )
                                }
                            };
                            let is_query = request.contains("\"op\":\"query\"");
                            let r = exchange_json(&mut stream, &request, None).unwrap();
                            // Exactly one response, and it is *ours*.
                            assert_eq!(r.get("id").unwrap().as_u64(), Some(id), "{request}");
                            let ok = r.get("ok").unwrap().as_bool() == Some(true);
                            if is_query && id % 9 == 0 {
                                assert!(!ok, "fault-selected id {id} must fail typed");
                                assert_eq!(
                                    r.get("error").unwrap().as_str(),
                                    Some("internal_panic")
                                );
                            } else {
                                assert!(ok, "unfaulted request failed: {}", r.render());
                            }
                            // The version this connection observes never
                            // goes backwards.
                            if let Some(v) = r.get("version").and_then(Json::as_u64) {
                                assert!(
                                    v >= last_version,
                                    "version regressed {last_version} → {v} (id {id})"
                                );
                                last_version = v;
                            }
                        }
                        my_panic_queries
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });

        // The panics metric matches the injected count exactly, and the
        // server is still fully functional after all of it.
        let mut stream = connect(&addr.to_string(), None).unwrap();
        let s = exchange_json(&mut stream, r#"{"id":1,"op":"stats"}"#, None).unwrap();
        assert_eq!(
            s.get("stats").unwrap().get("panics").unwrap().as_u64(),
            Some(sent_panic_queries),
            "panics metric must equal the fault-selected query count"
        );
        let q = exchange_json(
            &mut stream,
            r#"{"id":2,"op":"query","source":1,"seed":3}"#,
            None,
        )
        .unwrap();
        assert_eq!(q.get("ok").unwrap().as_bool(), Some(true));
        drop(stream);
        handle.shutdown().unwrap();
    }
}

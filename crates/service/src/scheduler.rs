//! Request queue, micro-batching dispatcher, and worker pool — with
//! admission control, per-request deadlines, and panic isolation.
//!
//! ```text
//!   submit() ─▷ admission ──► request queue ──► dispatcher ──► job queue ──► workers
//!                  │                               │                           │
//!                  └─ queue full → shed            ├─ expired → timeout        ├─ catch_unwind
//!                                                  ├─ cache hit → reply        ├─ session.try_query_versioned(cancel)
//!                                                  └─ coalesce onto in-flight  └─ fill cache, reply to all
//! ```
//!
//! The dispatcher drains the request queue in micro-batches (one blocking
//! `recv`, then up to `batch_max − 1` opportunistic `try_recv`s). Within a
//! batch — and against the in-flight table — requests whose [`CompKey`]s
//! are equal are **coalesced**: one computation runs, every waiter gets the
//! (shared, `Arc`ed) result. This is sound because the key pins everything
//! the engine's output depends on: source, parameters, graph version, and
//! RNG seed.
//!
//! ## Failure model
//!
//! Every submitted request receives **exactly one** response: a
//! [`QueryResponse`] or a typed [`ServiceError`]. The error taxonomy:
//!
//! * [`ErrorKind::Overloaded`] — refused at admission: more than
//!   `queue_cap` requests were already unanswered. Carries a
//!   `retry_after_ms` backoff hint. Shedding at the door keeps queue wait
//!   out of the latency distribution under overload.
//! * [`ErrorKind::DeadlineExceeded`] — the request's deadline passed,
//!   either while queued (checked at dispatch) or mid-computation (the
//!   engine aborts cooperatively via [`resacc::Cancel`] within
//!   [`resacc::cancel::CHECK_INTERVAL`] operations).
//! * [`ErrorKind::InternalPanic`] — the computation panicked. The panic is
//!   caught at the worker boundary (`catch_unwind`), every waiter is
//!   answered, the `panics` counter is bumped, and the worker keeps
//!   serving — one poisoned query can never wedge coalesced waiters or
//!   shrink the pool.
//! * [`ErrorKind::SourceOutOfRange`] — the source node does not exist at
//!   execution time. Validated *inside* the session read lock, so a
//!   concurrent `delete_node` between submission and execution is caught
//!   (the classic TOCTOU the wire-level check cannot close).
//!
//! **Deadline semantics under coalescing:** a computation runs under the
//! deadline of the request that *started* it (the leader). Followers share
//! its outcome — including a timeout — and a follower with a stricter
//! deadline than its leader is not aborted early. Workloads that need
//! exact per-request deadlines should use per-request seeds, which make
//! every request its own leader.
//!
//! ## Determinism contract
//!
//! A request's effective seed is `seed` if the client provided one, else
//! `splitmix64(id)`. Worker count, batch boundaries, and scheduling order
//! affect only *when* a computation runs, never *what* it computes — so
//! replaying the same request ids yields bit-identical score vectors on
//! 1 worker or 16. (Graph mutations are the caller's to order; determinism
//! is stated for a fixed graph version.) Deadlines and fault injection
//! preserve this: a query that completes computes exactly what it would
//! have computed without a deadline, and faults select by request id, so a
//! non-faulted id stream replays bit-identically under any [`FaultPlan`].

use crate::cache::{CompKey, ResultCache};
use crate::fault::FaultPlan;
use crate::metrics::Metrics;
use crate::params_hash;
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;
use resacc::durability::{DurabilityError, MutationOp};
pub use resacc::par::splitmix64;
use resacc::{Cancel, QueryError, RwrSession};
use resacc_graph::NodeId;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One SSRWR query to schedule.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryRequest {
    /// Client-chosen request id; also the default seed material.
    pub id: u64,
    /// Source node.
    pub source: NodeId,
    /// Explicit RNG seed; `None` derives one from `id`.
    pub seed: Option<u64>,
    /// Absolute deadline; `None` falls back to the scheduler's default.
    pub deadline: Option<Instant>,
    /// Intra-query thread hint; `None` uses the scheduler's configured
    /// `threads_per_query`. Capped by the machine budget, and **never** part
    /// of the [`CompKey`]: thread count cannot change a result (the
    /// chunked-stream RNG contract), so requests that differ only in
    /// `threads` still coalesce and share cache entries soundly.
    pub threads: Option<usize>,
}

/// A completed query.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Echo of the source.
    pub source: NodeId,
    /// The seed actually used.
    pub seed: u64,
    /// Graph version the scores are valid for.
    pub version: u64,
    /// Estimated RWR scores (shared with the cache and coalesced peers).
    pub scores: Arc<Vec<f64>>,
    /// True when served from cache or coalesced onto an in-flight
    /// computation (no fresh engine run for this request).
    pub cached: bool,
    /// Queue-to-reply latency, nanoseconds.
    pub latency_ns: u64,
}

/// Machine-readable failure class (the wire `error` field).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Refused at admission: the submission queue is full.
    Overloaded,
    /// The request's deadline passed before a result was produced.
    DeadlineExceeded,
    /// The computation panicked; caught and contained at the worker.
    InternalPanic,
    /// The source node does not exist (validated at execution time).
    SourceOutOfRange,
    /// This server is a read replica: mutations must go to the primary
    /// (named in the error detail).
    ReadOnly,
    /// This server lost a failover: a newer epoch exists and every
    /// mutation is refused until the node finishes rejoining as a replica
    /// (and forever after, as [`ErrorKind::ReadOnly`] semantics with the
    /// fencing epoch attached).
    Fenced,
    /// The tenant namespace this request targeted was dropped while the
    /// request was queued or in flight. Dropping retires the namespace's
    /// scheduler ([`Scheduler::retire`]): everything pending is answered
    /// with this — never left hanging — and new requests get the wire-level
    /// `unknown_namespace` instead.
    NamespaceDropped,
    /// The request named a tenant namespace this server (or shard map)
    /// does not know. Unlike [`ErrorKind::NamespaceDropped`] this is a
    /// routing answer, not a lifecycle race: the namespace may never have
    /// existed here.
    UnknownNamespace,
}

impl ErrorKind {
    /// The wire error code.
    pub fn code(&self) -> &'static str {
        match self {
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::InternalPanic => "internal_panic",
            ErrorKind::SourceOutOfRange => "source out of range",
            ErrorKind::ReadOnly => "read_only",
            ErrorKind::Fenced => "fenced",
            ErrorKind::NamespaceDropped => "namespace_dropped",
            ErrorKind::UnknownNamespace => "unknown_namespace",
        }
    }
}

/// A typed failure response; every submitted request gets exactly one
/// [`QueryResponse`] or one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceError {
    /// Echo of the request id.
    pub id: u64,
    /// Failure class.
    pub kind: ErrorKind,
    /// Human-oriented detail (may be empty).
    pub detail: String,
    /// Backoff hint, only for [`ErrorKind::Overloaded`].
    pub retry_after_ms: Option<u64>,
}

impl ServiceError {
    fn new(id: u64, kind: ErrorKind, detail: impl Into<String>) -> Self {
        ServiceError {
            id,
            kind,
            detail: detail.into(),
            retry_after_ms: None,
        }
    }

    /// The typed rejection a read replica returns for mutation ops: names
    /// the primary so clients can redirect their writes.
    pub fn read_only(id: u64, primary: &str) -> Self {
        ServiceError::new(
            id,
            ErrorKind::ReadOnly,
            format!("read replica; send mutations to the primary at {primary}"),
        )
    }

    /// The typed answer every request still pending in a retired
    /// scheduler receives: its namespace no longer exists.
    pub fn namespace_dropped(id: u64) -> Self {
        ServiceError::new(
            id,
            ErrorKind::NamespaceDropped,
            "namespace was dropped while the request was pending",
        )
    }

    /// The typed answer for a request naming a namespace this server (or
    /// the router's shard map) has no tenant for.
    pub fn unknown_namespace(id: u64, ns: &str) -> Self {
        ServiceError::new(
            id,
            ErrorKind::UnknownNamespace,
            format!("unknown namespace {ns:?}"),
        )
    }

    /// The typed rejection a fenced ex-primary returns for mutation ops:
    /// a newer epoch exists, and (when known) the leader that owns it.
    pub fn fenced(id: u64, epoch: u64, leader: &str) -> Self {
        let detail = if leader.is_empty() {
            format!("fenced at epoch {epoch}: a newer primary exists")
        } else {
            format!("fenced at epoch {epoch}: send writes to the leader at {leader}")
        };
        ServiceError::new(id, ErrorKind::Fenced, detail)
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.kind.code())?;
        if !self.detail.is_empty() {
            write!(f, ": {}", self.detail)?;
        }
        Ok(())
    }
}

impl std::error::Error for ServiceError {}

/// Handle to a submitted request; [`Ticket::wait`] blocks for the outcome.
pub struct Ticket {
    rx: Receiver<Result<QueryResponse, ServiceError>>,
}

impl Ticket {
    /// Blocks until the response (or typed error) arrives.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler shut down without answering — that is a bug,
    /// not a load condition: shutdown drains the queues first, and worker
    /// panics are caught and converted into [`ErrorKind::InternalPanic`].
    pub fn wait(self) -> Result<QueryResponse, ServiceError> {
        self.rx.recv().expect("scheduler dropped a pending request")
    }
}

/// Scheduler tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Worker threads running engine queries.
    pub workers: usize,
    /// Result-cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Maximum requests pulled per dispatch batch.
    pub batch_max: usize,
    /// Maximum unanswered requests before admission sheds (0 = unbounded).
    pub queue_cap: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Backoff hint attached to shed responses.
    pub retry_after_ms: u64,
    /// Intra-query threads per engine run (`<= 1` = serial remedy phase).
    /// Capped by [`threads_per_query_budget`] so `workers` concurrent
    /// queries cannot oversubscribe the machine; never affects results.
    pub threads_per_query: usize,
    /// Fault-injection plan (tests / load generation only).
    pub faults: FaultPlan,
    /// Per-entry error budget for dynamic cache upgrades: on a miss whose
    /// lineage has an entry at an older version, the worker rolls it
    /// forward by offset propagation ([`resacc::dynamic`]) as long as the
    /// accumulated error claim stays below this. `0.0` (the default)
    /// disables the upgrade path entirely — every version bump is an
    /// implicit invalidation, exactly as before.
    pub dynamic_eps: f64,
    /// Push threshold δ for the offset propagation: signed residue is
    /// pushed while `|r|/d_out ≥ δ`. Smaller is more accurate and more
    /// work per upgrade.
    pub dynamic_delta: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 4,
            cache_capacity: 1024,
            batch_max: 32,
            queue_cap: 4096,
            default_deadline: None,
            retry_after_ms: 50,
            threads_per_query: 1,
            faults: FaultPlan::default(),
            dynamic_eps: 0.0,
            dynamic_delta: 1e-4,
        }
    }
}

/// Worker-side view of the dynamic-upgrade knobs.
#[derive(Clone, Copy)]
struct DynamicPolicy {
    eps: f64,
    delta: f64,
}

/// How many intra-query threads each of `workers` concurrently-running
/// queries may use on a `cores`-core machine without oversubscribing it:
/// `max(1, cores / workers)`. Queries parallelize *across* workers first
/// (that is what the worker pool is for); intra-query threads only soak up
/// cores the pool cannot reach. Exceeding the budget is never unsafe —
/// results are thread-count-invariant — it just thrashes the scheduler, so
/// the cap is applied both to the configured default and to per-request
/// hints.
pub fn threads_per_query_budget(workers: usize, cores: usize) -> usize {
    (cores.max(1) / workers.max(1)).max(1)
}

/// Where a finished request's outcome goes. Synchronous callers
/// ([`Scheduler::submit`] / [`Ticket::wait`]) block on a channel; the
/// event-loop server ([`Scheduler::submit_hook`]) registers a completion
/// hook instead, because its reactor thread must never block. The hook
/// runs on whichever scheduler thread finishes the request (dispatcher
/// for cache hits and queue-expiry, a worker otherwise) — it must be
/// cheap and non-blocking (the reactor's hooks just push onto a
/// completion queue and wake the poller).
enum Reply {
    Tx(Sender<Result<QueryResponse, ServiceError>>),
    Hook(Box<dyn FnOnce(Result<QueryResponse, ServiceError>) + Send>),
}

impl Reply {
    /// Delivers the outcome, consuming the reply — every request is
    /// answered exactly once, and the type system now enforces it.
    fn deliver(self, outcome: Result<QueryResponse, ServiceError>) {
        match self {
            Reply::Tx(tx) => {
                let _ = tx.send(outcome);
            }
            Reply::Hook(hook) => hook(outcome),
        }
    }
}

struct Pending {
    request: QueryRequest,
    deadline: Option<Instant>,
    enqueued: Instant,
    reply: Reply,
}

struct Waiter {
    id: u64,
    enqueued: Instant,
    reply: Reply,
    /// False for the request that triggered the computation, true for
    /// coalesced followers (reported as `cached` in their responses).
    follower: bool,
}

struct Job {
    key: CompKey,
    /// Cancellation token honouring the leader's deadline.
    cancel: Cancel,
    /// Intra-query thread budget (leader's hint, already capped); `None`
    /// uses the session default.
    threads: Option<usize>,
    /// Artificial latency from the fault plan (leader-keyed).
    delay: Option<Duration>,
    /// Inject a panic instead of computing (leader-keyed).
    fault_panic: bool,
    /// Panic-fault jobs bypass cache and coalescing and carry their sole
    /// waiter inline, so a sabotaged request can never poison a shared
    /// computation.
    direct: Option<Waiter>,
}

type InflightMap = Mutex<HashMap<CompKey, Vec<Waiter>>>;

/// Book-keeping shared by every reply site: one decrement of the load
/// gauge and one latency sample per answered request, success or not.
struct ReplyCtx {
    metrics: Arc<Metrics>,
    load: Arc<AtomicU64>,
}

impl ReplyCtx {
    fn send_ok(&self, waiter_reply: Reply, response: QueryResponse) {
        self.metrics.queries.fetch_add(1, Relaxed);
        self.metrics.latency.record(response.latency_ns);
        self.load.fetch_sub(1, Relaxed);
        waiter_reply.deliver(Ok(response));
    }

    fn send_err(&self, waiter_reply: Reply, enqueued: Instant, error: ServiceError) {
        self.metrics.errors.fetch_add(1, Relaxed);
        if error.kind == ErrorKind::DeadlineExceeded {
            self.metrics.timeouts.fetch_add(1, Relaxed);
        }
        self.metrics
            .latency_err
            .record(enqueued.elapsed().as_nanos() as u64);
        self.load.fetch_sub(1, Relaxed);
        waiter_reply.deliver(Err(error));
    }
}

/// Multi-threaded query scheduler over a shared [`RwrSession`].
pub struct Scheduler {
    session: Arc<RwrSession>,
    cache: Arc<ResultCache>,
    metrics: Arc<Metrics>,
    load: Arc<AtomicU64>,
    config: SchedulerConfig,
    retired: Arc<std::sync::atomic::AtomicBool>,
    submit_tx: Option<Sender<Pending>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// Injected panics are expected and already contained by `catch_unwind`;
/// don't let them spray backtraces over stderr — a chaos run's log must
/// stay clean so *escaped* panics are detectable. Installed once,
/// process-wide; every real panic still reaches the previous hook.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("injected panic"));
            if !injected {
                prev(info);
            }
        }));
    });
}

impl Scheduler {
    /// Spawns the dispatcher and worker threads.
    pub fn new(session: Arc<RwrSession>, config: SchedulerConfig) -> Self {
        if config.faults.panic_every != 0 {
            silence_injected_panics();
        }
        let cache = Arc::new(ResultCache::new(config.cache_capacity));
        let metrics = Arc::new(Metrics::new());
        let load = Arc::new(AtomicU64::new(0));
        let retired = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (submit_tx, submit_rx) = channel::unbounded::<Pending>();
        let (job_tx, job_rx) = channel::unbounded::<Job>();
        let inflight: Arc<InflightMap> = Arc::new(Mutex::new(HashMap::new()));
        let hash = params_hash(&session.params(), &session.config());

        // Per-query thread budget: the configured default (capped by the
        // machine budget) becomes the session default; per-request hints are
        // capped by the machine budget at dispatch. Setting the session
        // default is safe at any time — thread count never affects results.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let budget = threads_per_query_budget(config.workers.max(1), cores);
        session.set_threads(config.threads_per_query.max(1).min(budget));

        let mut threads = Vec::new();
        {
            let cache = cache.clone();
            let inflight = inflight.clone();
            let session = session.clone();
            let ctx = ReplyCtx {
                metrics: metrics.clone(),
                load: load.clone(),
            };
            let batch_max = config.batch_max.max(1);
            let faults = config.faults;
            let retired = retired.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("rwr-dispatch".into())
                    .spawn(move || {
                        dispatch_loop(
                            submit_rx, job_tx, inflight, cache, ctx, session, hash, batch_max,
                            faults, budget, retired,
                        )
                    })
                    .expect("spawn dispatcher"),
            );
        }
        for w in 0..config.workers.max(1) {
            let job_rx = job_rx.clone();
            let session = session.clone();
            let cache = cache.clone();
            let inflight = inflight.clone();
            let ctx = ReplyCtx {
                metrics: metrics.clone(),
                load: load.clone(),
            };
            let dynamic = DynamicPolicy {
                eps: config.dynamic_eps.max(0.0),
                delta: config.dynamic_delta,
            };
            let retired = retired.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rwr-worker-{w}"))
                    .spawn(move || {
                        worker_loop(job_rx, session, cache, ctx, inflight, dynamic, retired)
                    })
                    .expect("spawn worker"),
            );
        }

        Scheduler {
            session,
            cache,
            metrics,
            load,
            config,
            retired,
            submit_tx: Some(submit_tx),
            threads,
        }
    }

    /// The shared session (for mutations and direct inspection).
    pub fn session(&self) -> &Arc<RwrSession> {
        &self.session
    }

    /// The service metrics.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The result cache.
    pub fn cache(&self) -> &Arc<ResultCache> {
        &self.cache
    }

    /// Requests submitted but not yet answered (the admission gauge).
    pub fn load(&self) -> u64 {
        self.load.load(Relaxed)
    }

    /// Enqueues a query; returns immediately with a [`Ticket`].
    ///
    /// Admission happens here: when more than `queue_cap` requests are
    /// already unanswered the request is shed without ever touching the
    /// queue, and the ticket resolves instantly to
    /// [`ErrorKind::Overloaded`] with a `retry_after_ms` hint.
    pub fn submit(&self, request: QueryRequest) -> Ticket {
        let (tx, rx) = channel::unbounded();
        self.submit_reply(request, Reply::Tx(tx));
        Ticket { rx }
    }

    /// Enqueues a query whose outcome is delivered to `hook` instead of a
    /// channel — the non-blocking submission path for the event-loop
    /// server. Admission control is identical to [`Scheduler::submit`]:
    /// a shed request invokes the hook immediately (on the calling
    /// thread) with [`ErrorKind::Overloaded`]. Otherwise the hook runs
    /// later on a scheduler thread; it must be cheap and non-blocking.
    pub fn submit_hook(
        &self,
        request: QueryRequest,
        hook: impl FnOnce(Result<QueryResponse, ServiceError>) + Send + 'static,
    ) {
        self.submit_reply(request, Reply::Hook(Box::new(hook)));
    }

    /// The shared admission path behind [`Scheduler::submit`] and
    /// [`Scheduler::submit_hook`]: shed over `queue_cap`, stamp the
    /// deadline, enqueue for the dispatcher.
    fn submit_reply(&self, request: QueryRequest, reply: Reply) {
        if self.retired.load(Relaxed) {
            self.metrics.errors.fetch_add(1, Relaxed);
            self.metrics.latency_err.record(1);
            reply.deliver(Err(ServiceError::namespace_dropped(request.id)));
            return;
        }
        let cap = self.config.queue_cap;
        let load = self.load.fetch_add(1, Relaxed) + 1;
        if cap != 0 && load > cap as u64 {
            self.load.fetch_sub(1, Relaxed);
            self.metrics.shed.fetch_add(1, Relaxed);
            self.metrics.errors.fetch_add(1, Relaxed);
            self.metrics.latency_err.record(1);
            reply.deliver(Err(ServiceError {
                id: request.id,
                kind: ErrorKind::Overloaded,
                detail: format!("{load} requests in flight (cap {cap})"),
                retry_after_ms: Some(self.config.retry_after_ms),
            }));
            return;
        }
        let deadline = request
            .deadline
            .or_else(|| self.config.default_deadline.map(|d| Instant::now() + d));
        let sent = self
            .submit_tx
            .as_ref()
            .expect("scheduler already shut down")
            .send(Pending {
                request,
                deadline,
                enqueued: Instant::now(),
                reply,
            });
        assert!(sent.is_ok(), "dispatcher alive while scheduler exists");
    }

    /// Convenience: submit and wait.
    pub fn query(&self, request: QueryRequest) -> Result<QueryResponse, ServiceError> {
        self.submit(request).wait()
    }

    /// Applies a graph mutation through the session and counts it. The
    /// version bump makes every cached result unreachable (see
    /// [`crate::cache`]).
    pub fn mutate(&self, apply: impl FnOnce(&RwrSession)) -> u64 {
        apply(&self.session);
        self.metrics.mutations.fetch_add(1, Relaxed);
        self.session.version()
    }

    /// The fallible durable-mutation path: WAL-append (when the session has
    /// a store), apply, bump — returning the new version, or the
    /// [`DurabilityError`] when the append failed (in which case **nothing
    /// changed**; the server surfaces it as a `storage_failed` wire error
    /// and the client may retry). Counted in `mutations` only on success.
    pub fn apply(&self, op: &MutationOp) -> Result<u64, DurabilityError> {
        let version = self.session.apply_mutation(op)?;
        // Chaos commit metering: the ack is held until the (emulated,
        // process-wide) commit device drains this record. Inert unless
        // the fault plan carries `cdelay`.
        self.config.faults.commit_gate();
        self.metrics.mutations.fetch_add(1, Relaxed);
        if matches!(op, MutationOp::DeleteNode(_)) {
            // Not offset-expressible: cached entries can never be rolled
            // across this version, so drop them outright rather than
            // leaving upgrade bait that always falls back.
            let purged = self.cache.purge();
            self.metrics
                .cache_invalidations
                .fetch_add(purged as u64, Relaxed);
        }
        Ok(version)
    }

    /// Retires this scheduler: its namespace was dropped. Purges the
    /// cache, and from this point every request — new at admission, queued
    /// at dispatch, or coalesced behind an in-flight computation — is
    /// answered with [`ErrorKind::NamespaceDropped`] instead of a result.
    /// Never a hang: the dispatcher and workers keep draining; they just
    /// answer with the typed error. Irreversible (a re-created namespace
    /// gets a fresh scheduler).
    pub fn retire(&self) {
        self.retired.store(true, std::sync::atomic::Ordering::SeqCst);
        let purged = self.cache.purge();
        self.metrics
            .cache_invalidations
            .fetch_add(purged as u64, Relaxed);
    }

    /// Whether [`Scheduler::retire`] has run.
    pub fn is_retired(&self) -> bool {
        self.retired.load(Relaxed)
    }
}

impl Drop for Scheduler {
    /// Graceful shutdown: closing the submit channel stops the dispatcher
    /// (after it drains queued requests), which closes the job channel,
    /// which stops the workers (after they drain queued jobs). Every
    /// submitted request is answered before the threads exit.
    fn drop(&mut self) {
        drop(self.submit_tx.take());
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The effective seed: explicit, or splitmix64 of the request id. The
/// derivation is part of the wire contract (documented in DESIGN.md) so
/// clients can reproduce server-side results locally.
pub fn effective_seed(request: &QueryRequest) -> u64 {
    match request.seed {
        Some(s) => s,
        None => splitmix64(request.id),
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatch_loop(
    submit_rx: Receiver<Pending>,
    job_tx: Sender<Job>,
    inflight: Arc<InflightMap>,
    cache: Arc<ResultCache>,
    ctx: ReplyCtx,
    session: Arc<RwrSession>,
    hash: u64,
    batch_max: usize,
    faults: FaultPlan,
    thread_budget: usize,
    retired: Arc<std::sync::atomic::AtomicBool>,
) {
    loop {
        // Blocking head of the batch…
        let first = match submit_rx.recv() {
            Ok(p) => p,
            Err(_) => return, // scheduler dropped; queue fully drained
        };
        let mut batch = vec![first];
        // …then whatever else is already waiting, up to the cap.
        while batch.len() < batch_max {
            match submit_rx.try_recv() {
                Ok(p) => batch.push(p),
                Err(_) => break,
            }
        }

        let version = session.version();
        for pending in batch {
            let id = pending.request.id;
            if retired.load(Relaxed) {
                let enqueued = pending.enqueued;
                ctx.send_err(pending.reply, enqueued, ServiceError::namespace_dropped(id));
                continue;
            }
            // Forced expiry (fault plan) and real queue-wait expiry are the
            // same failure from the client's point of view.
            let expired = faults.should_expire(id)
                || pending.deadline.is_some_and(|d| Instant::now() >= d);
            if expired {
                let enqueued = pending.enqueued;
                ctx.send_err(
                    pending.reply,
                    enqueued,
                    ServiceError::new(id, ErrorKind::DeadlineExceeded, "expired while queued"),
                );
                continue;
            }

            let seed = effective_seed(&pending.request);
            let key = CompKey {
                source: pending.request.source,
                params_hash: hash,
                version,
                seed,
            };
            let cancel = match pending.deadline {
                Some(d) => Cancel::at(d),
                None => Cancel::never(),
            };
            // Per-request thread hints are capped by the machine budget.
            // Deliberately NOT part of the CompKey: thread count never
            // changes a result, so coalescing and caching across differing
            // hints stay sound (the leader's hint decides core usage).
            let job_threads = pending
                .request
                .threads
                .map(|t| t.clamp(1, thread_budget));

            if faults.should_panic(id) {
                // Sabotaged requests get a private job: they must not serve
                // from cache (the panic has to happen) and must not drag
                // innocent coalesced waiters down with them.
                let _ = job_tx.send(Job {
                    key,
                    cancel,
                    threads: job_threads,
                    delay: faults.delay_for(id),
                    fault_panic: true,
                    direct: Some(Waiter {
                        id,
                        enqueued: pending.enqueued,
                        reply: pending.reply,
                        follower: false,
                    }),
                });
                continue;
            }

            if let Some(scores) = cache.get(&key) {
                ctx.metrics.cache_hits.fetch_add(1, Relaxed);
                let latency = pending.enqueued.elapsed().as_nanos() as u64;
                ctx.send_ok(
                    pending.reply,
                    QueryResponse {
                        id,
                        source: pending.request.source,
                        seed,
                        version: key.version,
                        scores,
                        cached: true,
                        latency_ns: latency,
                    },
                );
                continue;
            }
            ctx.metrics.cache_misses.fetch_add(1, Relaxed);
            let mut inflight = inflight.lock();
            match inflight.get_mut(&key) {
                Some(waiters) => {
                    // Identical computation already on its way: ride along.
                    ctx.metrics.coalesced.fetch_add(1, Relaxed);
                    waiters.push(Waiter {
                        id,
                        enqueued: pending.enqueued,
                        reply: pending.reply,
                        follower: true,
                    });
                }
                None => {
                    inflight.insert(
                        key,
                        vec![Waiter {
                            id,
                            enqueued: pending.enqueued,
                            reply: pending.reply,
                            follower: false,
                        }],
                    );
                    drop(inflight);
                    let _ = job_tx.send(Job {
                        key,
                        cancel,
                        threads: job_threads,
                        delay: faults.delay_for(id),
                        fault_panic: false,
                        direct: None,
                    });
                }
            }
        }
    }
}

/// Attempts to serve a missed computation by rolling its lineage's
/// freshest older cache entry forward to the current version (offset
/// propagation, [`resacc::dynamic`]). `None` means "pay for the cold
/// query": no older entry (a plain miss, not counted), or the attempt was
/// abandoned (error budget exhausted / unsupported span — counted as a
/// fallback).
fn try_upgrade(
    session: &RwrSession,
    cache: &ResultCache,
    metrics: &Metrics,
    key: &CompKey,
    dynamic: DynamicPolicy,
) -> Option<(Arc<Vec<f64>>, u64)> {
    let (old_key, old_scores, old_err) = cache.best_older(key)?;
    if old_err >= dynamic.eps {
        metrics.cache_upgrade_fallbacks.fetch_add(1, Relaxed);
        return None;
    }
    match session.try_upgrade_scores(&old_scores, old_key.version, dynamic.delta) {
        Ok((up, version)) => {
            let total = old_err + up.err_bound;
            if total > dynamic.eps {
                metrics.cache_upgrade_fallbacks.fetch_add(1, Relaxed);
                return None;
            }
            let scores = Arc::new(up.scores);
            // Stamped with the version the upgrade actually reached (a
            // racing mutation may have moved it past `key.version`) — same
            // rule as the cold path.
            cache.insert_with_err(CompKey { version, ..*key }, scores.clone(), total);
            metrics.cache_upgrades.fetch_add(1, Relaxed);
            Some((scores, version))
        }
        Err(_) => {
            metrics.cache_upgrade_fallbacks.fetch_add(1, Relaxed);
            None
        }
    }
}

fn worker_loop(
    job_rx: Receiver<Job>,
    session: Arc<RwrSession>,
    cache: Arc<ResultCache>,
    ctx: ReplyCtx,
    inflight: Arc<InflightMap>,
    dynamic: DynamicPolicy,
    retired: Arc<std::sync::atomic::AtomicBool>,
) {
    while let Ok(job) = job_rx.recv() {
        // A retired scheduler's jobs are answered, not computed: every
        // waiter (leader and coalesced followers alike) gets the typed
        // drop error. Skipping the computation also means drop_namespace
        // never waits behind a queued backlog of doomed queries.
        if retired.load(Relaxed) {
            let waiters = match job.direct {
                Some(w) => vec![w],
                None => inflight.lock().remove(&job.key).unwrap_or_default(),
            };
            for w in waiters {
                let enqueued = w.enqueued;
                ctx.send_err(w.reply, enqueued, ServiceError::namespace_dropped(w.id));
            }
            continue;
        }
        // Fault delays apply to either serving path (they model slow
        // computation; sleeping cannot panic, so it sits outside the
        // unwind boundary).
        if let Some(d) = job.delay {
            std::thread::sleep(d);
        }

        // Upgrade-then-serve: cheaper than a cold query when this
        // lineage has a recent entry and the span is edge-level only.
        // Skipped for sabotaged jobs — they must reach the panic site.
        if dynamic.eps > 0.0 && !job.fault_panic {
            let upgraded = catch_unwind(AssertUnwindSafe(|| {
                try_upgrade(&session, &cache, &ctx.metrics, &job.key, dynamic)
            }))
            .unwrap_or(None);
            if let Some((scores, version)) = upgraded {
                let waiters = match job.direct {
                    Some(w) => vec![w],
                    None => inflight.lock().remove(&job.key).unwrap_or_default(),
                };
                for w in waiters {
                    let latency = w.enqueued.elapsed().as_nanos() as u64;
                    ctx.send_ok(
                        w.reply,
                        QueryResponse {
                            id: w.id,
                            source: job.key.source,
                            seed: job.key.seed,
                            version,
                            // Served from the (upgraded) cache: no engine
                            // run happened for this request.
                            cached: true,
                            scores: scores.clone(),
                            latency_ns: latency,
                        },
                    );
                }
                continue;
            }
        }

        // The unwind boundary wraps ONLY the computation; waiter cleanup
        // happens after, so even a panicking query answers every waiter.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if job.fault_panic {
                panic!("injected panic");
            }
            session.try_query_versioned_with_threads(
                job.key.source,
                job.key.seed,
                &job.cancel,
                job.threads,
            )
        }));

        let waiters = match job.direct {
            Some(w) => vec![w],
            None => inflight.lock().remove(&job.key).unwrap_or_default(),
        };

        // Retired mid-computation: the result is for a namespace that no
        // longer exists. Discard it and answer with the typed error.
        if retired.load(Relaxed) {
            for w in waiters {
                let enqueued = w.enqueued;
                ctx.send_err(w.reply, enqueued, ServiceError::namespace_dropped(w.id));
            }
            continue;
        }

        match outcome {
            Ok(Ok((result, version))) => {
                ctx.metrics
                    .phase_hhop_ns
                    .fetch_add(result.timings.hhop.as_nanos() as u64, Relaxed);
                ctx.metrics
                    .phase_omfwd_ns
                    .fetch_add(result.timings.omfwd.as_nanos() as u64, Relaxed);
                ctx.metrics
                    .phase_remedy_ns
                    .fetch_add(result.timings.remedy.as_nanos() as u64, Relaxed);

                let scores = Arc::new(result.scores);
                // Stamp the cache entry with the version the query actually
                // ran against. If a mutation raced in after dispatch,
                // `version` is newer than `job.key.version` and the entry
                // lands under the fresh key — never under a key that would
                // serve stale scores.
                cache.insert(CompKey { version, ..job.key }, scores.clone());

                for w in waiters {
                    let latency = w.enqueued.elapsed().as_nanos() as u64;
                    ctx.send_ok(
                        w.reply,
                        QueryResponse {
                            id: w.id,
                            source: job.key.source,
                            seed: job.key.seed,
                            version,
                            scores: scores.clone(),
                            cached: w.follower,
                            latency_ns: latency,
                        },
                    );
                }
            }
            Ok(Err(abort)) => {
                let kind = match abort {
                    QueryError::DeadlineExceeded | QueryError::Cancelled => {
                        ErrorKind::DeadlineExceeded
                    }
                    QueryError::SourceOutOfRange { .. } => ErrorKind::SourceOutOfRange,
                };
                let detail = abort.to_string();
                for w in waiters {
                    let enqueued = w.enqueued;
                    ctx.send_err(w.reply, enqueued, ServiceError::new(w.id, kind, &*detail));
                }
            }
            Err(_panic) => {
                ctx.metrics.panics.fetch_add(1, Relaxed);
                for w in waiters {
                    let enqueued = w.enqueued;
                    ctx.send_err(
                        w.reply,
                        enqueued,
                        ServiceError::new(w.id, ErrorKind::InternalPanic, "query panicked"),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resacc_graph::gen;

    fn mk(workers: usize, cache: usize) -> Scheduler {
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(400, 4, 77)));
        Scheduler::new(
            session,
            SchedulerConfig {
                workers,
                cache_capacity: cache,
                batch_max: 16,
                ..Default::default()
            },
        )
    }

    fn req(id: u64, source: u32, seed: Option<u64>) -> QueryRequest {
        QueryRequest {
            id,
            source,
            seed,
            deadline: None,
            threads: None,
        }
    }

    #[test]
    fn thread_budget_divides_cores_among_workers() {
        assert_eq!(threads_per_query_budget(4, 16), 4);
        assert_eq!(threads_per_query_budget(4, 4), 1);
        assert_eq!(threads_per_query_budget(1, 8), 8);
        assert_eq!(threads_per_query_budget(8, 4), 1, "never below 1");
        assert_eq!(threads_per_query_budget(0, 0), 1, "degenerate inputs");
        assert_eq!(threads_per_query_budget(3, 8), 2, "floor division");
    }

    #[test]
    fn thread_hints_do_not_change_results_or_split_the_cache() {
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(400, 4, 77)));
        let s = Scheduler::new(
            session,
            SchedulerConfig {
                workers: 2,
                cache_capacity: 64,
                threads_per_query: 4,
                ..Default::default()
            },
        );
        let base = s.query(req(1, 5, Some(9))).unwrap();
        // Same (source, seed) with a different per-request hint: must be a
        // cache hit (threads is not in the CompKey) with identical bytes.
        let hinted = s
            .query(QueryRequest {
                threads: Some(8),
                ..req(2, 5, Some(9))
            })
            .unwrap();
        assert!(hinted.cached, "thread hint must not split the cache");
        assert_eq!(base.scores, hinted.scores);
        // And a fresh computation under a hint matches a direct 1-thread run.
        let fresh = s
            .query(QueryRequest {
                threads: Some(2),
                ..req(3, 7, Some(11))
            })
            .unwrap();
        let direct = s.session().query(7, 11).scores;
        assert_eq!(fresh.scores.as_ref(), &direct);
    }

    #[test]
    fn responses_are_worker_count_invariant() {
        let requests: Vec<QueryRequest> = (0..24)
            .map(|i| req(i, (i % 7) as u32 * 3, None))
            .collect();
        let run = |workers: usize| -> Vec<Vec<f64>> {
            let s = mk(workers, 0); // cache off: every request computes
            let tickets: Vec<Ticket> = requests.iter().map(|r| s.submit(*r)).collect();
            tickets
                .into_iter()
                .map(|t| t.wait().unwrap().scores.as_ref().clone())
                .collect()
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one, eight, "worker count leaked into results");
    }

    #[test]
    fn cache_hits_share_the_computation() {
        let s = mk(2, 64);
        let a = s.query(req(1, 5, Some(99))).unwrap();
        let b = s.query(req(2, 5, Some(99))).unwrap();
        assert!(!a.cached);
        assert!(b.cached);
        assert!(Arc::ptr_eq(&a.scores, &b.scores), "hit must share the Arc");
        let snap = s.metrics().snapshot();
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.queries, 2);
    }

    #[test]
    fn distinct_seeds_do_not_coalesce() {
        let s = mk(2, 64);
        // seed=None derives from id, so equal sources still differ.
        let a = s.query(req(10, 3, None)).unwrap();
        let b = s.query(req(11, 3, None)).unwrap();
        assert_ne!(a.seed, b.seed);
        assert!(!b.cached);
    }

    #[test]
    fn mutation_invalidates_cache_via_version() {
        let s = mk(2, 64);
        let r = req(1, 0, Some(5));
        let before = s.query(r).unwrap();
        assert_eq!(before.version, 0);
        let v = s.mutate(|sess| sess.insert_edges(&[(0, 399)]));
        assert_eq!(v, 1);
        let after = s.query(QueryRequest { id: 2, ..r }).unwrap();
        assert!(!after.cached, "post-mutation query must recompute");
        assert_eq!(after.version, 1);
        assert_ne!(before.scores, after.scores);
        assert_eq!(s.metrics().snapshot().mutations, 1);
    }

    fn mk_dynamic(eps: f64) -> Scheduler {
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(400, 4, 77)));
        Scheduler::new(
            session,
            SchedulerConfig {
                workers: 2,
                cache_capacity: 64,
                dynamic_eps: eps,
                ..Default::default()
            },
        )
    }

    #[test]
    fn upgrade_path_serves_across_edge_mutations() {
        let s = mk_dynamic(0.05);
        let r = req(1, 0, Some(5));
        let before = s.query(r).unwrap();
        assert!(!before.cached);
        s.apply(&MutationOp::InsertEdges(vec![(0, 399), (120, 0)]))
            .unwrap();
        let after = s.query(QueryRequest { id: 2, ..r }).unwrap();
        assert!(after.cached, "upgraded entries serve as cache hits");
        assert_eq!(after.version, 1);
        let m = s.metrics().snapshot();
        assert_eq!(m.cache_upgrades, 1);
        assert_eq!(m.cache_upgrade_fallbacks, 0);
        // The upgraded vector tracks a fresh engine run to within the
        // claimed offset error plus both runs' engine tolerances.
        let session = s.session().clone();
        let fresh = session.query(0, 5).scores;
        let params = session.params();
        let err_bound = s.cache().err_bound_stats().max;
        for (t, (a, b)) in after.scores.iter().zip(&fresh).enumerate() {
            let tol = err_bound + params.epsilon * (b + a) + 2.0 * params.delta;
            let diff = (a - b).abs();
            assert!(diff <= tol, "node {t}: {diff} > {tol}");
        }
        // The upgraded entry is now a plain hit at the new version.
        let third = s.query(QueryRequest { id: 3, ..r }).unwrap();
        assert!(third.cached);
        assert_eq!(s.metrics().snapshot().cache_upgrades, 1);
    }

    #[test]
    fn unsupported_span_counts_a_fallback_and_recomputes() {
        let s = mk_dynamic(0.05);
        let r = req(1, 0, Some(5));
        s.query(r).unwrap();
        // A closure-path delete_node bypasses the purge in `apply`, so the
        // stale entry stays and the upgrade attempt must hit the delta
        // log's Unsupported marker.
        s.mutate(|sess| sess.delete_node(300));
        let after = s.query(QueryRequest { id: 2, ..r }).unwrap();
        assert!(!after.cached, "unsupported span must recompute cold");
        let m = s.metrics().snapshot();
        assert_eq!(m.cache_upgrades, 0);
        assert_eq!(m.cache_upgrade_fallbacks, 1);
    }

    #[test]
    fn delete_node_purges_cache_and_counts_invalidations() {
        let s = mk_dynamic(0.05);
        s.query(req(1, 0, Some(5))).unwrap();
        s.query(req(2, 7, Some(5))).unwrap();
        assert_eq!(s.cache().len(), 2);
        s.apply(&MutationOp::DeleteNode(300)).unwrap();
        assert!(s.cache().is_empty());
        let m = s.metrics().snapshot();
        assert_eq!(m.cache_invalidations, 2);
        // With no lineage left, the next query is a plain cold miss — not
        // an upgrade, not a fallback.
        let after = s.query(req(3, 0, Some(5))).unwrap();
        assert!(!after.cached);
        let m = s.metrics().snapshot();
        assert_eq!(m.cache_upgrades, 0);
        assert_eq!(m.cache_upgrade_fallbacks, 0);
    }

    #[test]
    fn dynamic_disabled_by_default_never_upgrades() {
        let s = mk(2, 64);
        let r = req(1, 0, Some(5));
        s.query(r).unwrap();
        s.apply(&MutationOp::InsertEdges(vec![(0, 399)])).unwrap();
        let after = s.query(QueryRequest { id: 2, ..r }).unwrap();
        assert!(!after.cached);
        let m = s.metrics().snapshot();
        assert_eq!(m.cache_upgrades, 0);
        assert_eq!(m.cache_upgrade_fallbacks, 0);
    }

    #[test]
    fn concurrent_identical_requests_coalesce() {
        // One worker, blocked queue: stack 6 identical requests while the
        // worker is busy with an unrelated one, then count computations.
        let s = mk(1, 64);
        let warm: Vec<Ticket> = (0..1).map(|_| s.submit(req(1000, 17, Some(1)))).collect();
        let tickets: Vec<Ticket> = (0..6).map(|i| s.submit(req(i, 42, Some(7)))).collect();
        for t in warm {
            t.wait().unwrap();
        }
        let responses: Vec<QueryResponse> =
            tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let fresh = responses.iter().filter(|r| !r.cached).count();
        assert_eq!(fresh, 1, "exactly one computation for 6 identical requests");
        for pair in responses.windows(2) {
            assert!(Arc::ptr_eq(&pair[0].scores, &pair[1].scores));
        }
        let snap = s.metrics().snapshot();
        assert!(
            snap.coalesced + snap.cache_hits >= 5,
            "coalesced={} hits={}",
            snap.coalesced,
            snap.cache_hits
        );
    }

    #[test]
    fn submit_hook_shares_the_channel_path_bit_for_bit() {
        let s = mk(2, 64);
        let via_channel = s.query(req(1, 5, Some(9))).unwrap();
        let (tx, rx) = channel::unbounded();
        s.submit_hook(req(2, 5, Some(9)), move |out| {
            let _ = tx.send(out);
        });
        let via_hook = rx.recv().unwrap().unwrap();
        assert_eq!(via_hook.id, 2);
        assert_eq!(via_channel.scores, via_hook.scores);
        assert!(via_hook.cached, "same key must hit the shared cache");
        // Every hook-submitted request is answered and the load gauge
        // returns to zero — hooks share the admission bookkeeping.
        assert_eq!(s.load(), 0);
    }

    #[test]
    fn submit_hook_is_shed_inline_when_over_cap() {
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(400, 4, 77)));
        let s = Scheduler::new(
            session,
            SchedulerConfig {
                workers: 1,
                cache_capacity: 0,
                queue_cap: 1,
                retry_after_ms: 33,
                ..Default::default()
            },
        );
        // Saturate the single slot, then hooks must shed synchronously.
        let busy: Vec<Ticket> = (0..8).map(|i| s.submit(req(i, (i % 5) as u32, None))).collect();
        let (tx, rx) = channel::unbounded();
        let mut shed = 0;
        for id in 100..140u64 {
            let tx = tx.clone();
            s.submit_hook(req(id, 0, None), move |out| {
                let _ = tx.send(out);
            });
            match rx.try_recv() {
                Ok(Err(e)) if e.kind == ErrorKind::Overloaded => {
                    assert_eq!(e.retry_after_ms, Some(33));
                    shed += 1;
                }
                _ => {}
            }
        }
        assert!(shed > 0, "cap 1 must shed some of a 40-burst inline");
        for t in busy {
            let _ = t.wait();
        }
    }

    #[test]
    fn drop_answers_everything_in_flight() {
        let s = mk(2, 0);
        let tickets: Vec<Ticket> = (0..20)
            .map(|i| s.submit(req(i, (i as u32) % 5, None)))
            .collect();
        drop(s); // must drain, not abandon
        for t in tickets {
            let r = t.wait().unwrap(); // would panic if the scheduler dropped it
            assert!(!r.scores.is_empty());
        }
    }

    #[test]
    fn queue_cap_sheds_with_retry_hint() {
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(400, 4, 77)));
        let s = Scheduler::new(
            session,
            SchedulerConfig {
                workers: 1,
                cache_capacity: 0,
                queue_cap: 2,
                retry_after_ms: 75,
                ..Default::default()
            },
        );
        // Flood: with cap 2, most of these must shed instantly.
        let tickets: Vec<Ticket> = (0..50).map(|i| s.submit(req(i, (i % 5) as u32, None))).collect();
        let results: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        let shed = results
            .iter()
            .filter(|r| matches!(r, Err(e) if e.kind == ErrorKind::Overloaded))
            .count();
        let ok = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(shed + ok, 50, "every request answered exactly once");
        assert!(shed >= 40, "cap 2 must shed most of a 50-burst, shed={shed}");
        let hint = results
            .iter()
            .find_map(|r| r.as_ref().err().map(|e| e.retry_after_ms))
            .unwrap();
        assert_eq!(hint, Some(75));
        let snap = s.metrics().snapshot();
        assert_eq!(snap.shed as usize, shed);
        assert_eq!(snap.errors as usize, shed);
        // The gauge returns to zero once everything is answered.
        assert_eq!(s.load(), 0);
    }

    #[test]
    fn expired_deadline_times_out_and_worker_stays_usable() {
        let s = mk(1, 0);
        let past = Instant::now() - Duration::from_millis(5);
        let err = s
            .query(QueryRequest {
                deadline: Some(past),
                ..req(1, 0, Some(3))
            })
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::DeadlineExceeded);
        // The same scheduler immediately serves a normal query.
        let ok = s.query(req(2, 0, Some(3))).unwrap();
        assert!(!ok.scores.is_empty());
        assert_eq!(s.metrics().snapshot().timeouts, 1);
    }

    #[test]
    fn source_out_of_range_is_typed_even_after_racing_mutation() {
        // The scheduler validates under the session lock, so even a source
        // that was valid at submit time fails cleanly.
        let s = mk(2, 0);
        let err = s.query(req(1, 400, None)).unwrap_err();
        assert_eq!(err.kind, ErrorKind::SourceOutOfRange);
        assert!(err.detail.contains("out of range"), "{}", err.detail);
    }

    #[test]
    fn injected_panics_are_contained_and_counted() {
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(400, 4, 77)));
        let s = Scheduler::new(
            session,
            SchedulerConfig {
                workers: 2,
                cache_capacity: 64,
                faults: FaultPlan {
                    panic_every: 10,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let tickets: Vec<Ticket> = (1..=40).map(|i| s.submit(req(i, (i % 7) as u32, None))).collect();
        let results: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        let panicked: Vec<u64> = results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .filter(|e| e.kind == ErrorKind::InternalPanic)
            .map(|e| e.id)
            .collect();
        assert_eq!(panicked, vec![10, 20, 30, 40]);
        assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 36);
        assert_eq!(s.metrics().snapshot().panics, 4);
        // Workers survived: a fresh (unfaulted-id) query still computes.
        assert!(s.query(req(1001, 1, None)).is_ok());
    }

    #[test]
    fn chaos_does_not_change_unfaulted_results() {
        let requests: Vec<QueryRequest> = (1..=30).map(|i| req(i, (i % 5) as u32, None)).collect();
        let clean: Vec<_> = {
            let s = mk(2, 0);
            requests
                .iter()
                .map(|r| s.query(*r).unwrap().scores.as_ref().clone())
                .collect()
        };
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(400, 4, 77)));
        let s = Scheduler::new(
            session,
            SchedulerConfig {
                workers: 2,
                cache_capacity: 0,
                faults: FaultPlan {
                    panic_every: 7,
                    delay_every: 11,
                    delay_ms: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        for (r, expect) in requests.iter().zip(&clean) {
            match s.query(*r) {
                Ok(resp) => assert_eq!(
                    resp.scores.as_ref(),
                    expect,
                    "chaos must not perturb unfaulted id {}",
                    r.id
                ),
                Err(e) => {
                    assert_eq!(e.kind, ErrorKind::InternalPanic);
                    assert_eq!(r.id % 7, 0);
                }
            }
        }
    }

    #[test]
    fn retire_answers_everything_with_namespace_dropped() {
        // One slow worker, a pile of queued + coalesced requests, then
        // retire: every ticket must resolve (no hang), the queued ones
        // with the typed drop error, and new submissions are refused
        // inline. Cache is purged.
        let s = mk(1, 64);
        s.query(req(1, 3, Some(7))).unwrap();
        assert_eq!(s.cache().len(), 1);
        let tickets: Vec<Ticket> = (10..40u64)
            .map(|i| s.submit(req(i, (i % 5) as u32, None)))
            .collect();
        s.retire();
        assert!(s.is_retired());
        assert!(s.cache().is_empty(), "retire purges the cache");
        let mut dropped = 0;
        for t in tickets {
            match t.wait() {
                Err(e) if e.kind == ErrorKind::NamespaceDropped => dropped += 1,
                Ok(_) => {} // raced ahead of the flag: still answered
                Err(e) => panic!("unexpected error after retire: {e}"),
            }
        }
        assert!(dropped > 0, "queued requests must see the typed drop error");
        let err = s.query(req(999, 0, None)).unwrap_err();
        assert_eq!(err.kind, ErrorKind::NamespaceDropped);
        assert_eq!(err.kind.code(), "namespace_dropped");
        assert_eq!(s.load(), 0, "no request left unanswered");
    }

    #[test]
    fn forced_expiry_fault_times_out_selected_ids() {
        let session = Arc::new(RwrSession::new(gen::barabasi_albert(400, 4, 77)));
        let s = Scheduler::new(
            session,
            SchedulerConfig {
                workers: 2,
                cache_capacity: 0,
                faults: FaultPlan {
                    expire_every: 5,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        for id in 1..=10u64 {
            let out = s.query(req(id, 0, None));
            if id % 5 == 0 {
                assert_eq!(out.unwrap_err().kind, ErrorKind::DeadlineExceeded);
            } else {
                assert!(out.is_ok());
            }
        }
        assert_eq!(s.metrics().snapshot().timeouts, 2);
    }
}

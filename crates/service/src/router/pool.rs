//! Backend pool: per-backend health state, the three-state circuit
//! breaker, active probing, and read/write candidate selection.
//!
//! Every backend carries a [`Breaker`] driven by two signals — periodic
//! `stats` probes from the prober thread and data-path exchange failures —
//! plus the last probe's replication snapshot ([`ProbeInfo`]), which is
//! what routing decisions read: `read_only` decides who takes mutations,
//! `applied_version` decides who may serve a `min_version` read, and
//! `lag_records` orders replicas for load-balancing.

use crate::client::{connect, exchange_on, Conn};
use crate::json::Json;
use crate::router::{RouterConfig, RouterMetrics};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Circuit-breaker state for one backend.
///
/// ```text
///   Closed ──(threshold consecutive failures)──► Open
///   Open ──(jittered cooldown elapses)──► HalfOpen
///   HalfOpen ──(probe succeeds)──► Closed
///   HalfOpen ──(probe fails)──► Open (cooldown doubles, jittered)
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: probes and client traffic flow.
    Closed,
    /// Ejected: no traffic, no probes, until the cooldown expires.
    Open,
    /// Trial: the next probe decides between Closed and Open.
    HalfOpen,
}

/// The breaker proper. All transitions take an explicit `now` so the unit
/// tests drive it with a synthetic clock and the schedule is exact.
#[derive(Debug)]
pub(crate) struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Instant,
    /// How many times this breaker has opened — indexes the jittered
    /// cooldown schedule so a flapping backend backs off geometrically.
    reopen_count: u32,
}

impl Breaker {
    pub(crate) fn new(now: Instant) -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: now,
            reopen_count: 0,
        }
    }

    pub(crate) fn state(&self) -> BreakerState {
        self.state
    }

    /// May client traffic be routed here? Only a Closed breaker serves.
    pub(crate) fn routable(&self) -> bool {
        self.state == BreakerState::Closed
    }

    /// May a probe be sent now? Closed and HalfOpen always admit; Open
    /// admits once the cooldown has elapsed, transitioning to HalfOpen.
    pub(crate) fn admit_probe(&mut self, now: Instant, cfg: &RouterConfig) -> bool {
        if self.state == BreakerState::Open && now >= self.opened_at + self.cooldown(cfg) {
            self.state = BreakerState::HalfOpen;
        }
        self.state != BreakerState::Open
    }

    pub(crate) fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    pub(crate) fn on_failure(&mut self, now: Instant, cfg: &RouterConfig) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = match self.state {
            BreakerState::Closed => self.consecutive_failures >= cfg.breaker_threshold,
            BreakerState::HalfOpen => true, // trial failed: straight back
            BreakerState::Open => return,   // already ejected
        };
        if trip {
            self.state = BreakerState::Open;
            self.opened_at = now;
            self.reopen_count = self.reopen_count.saturating_add(1);
        }
    }

    /// Jittered, geometrically growing cooldown: the shared backoff policy
    /// seeded by the router seed, indexed by how often we've opened.
    fn cooldown(&self, cfg: &RouterConfig) -> Duration {
        let base = Duration::from_millis(cfg.breaker_cooldown_ms.max(1));
        resacc::backoff::BackoffPolicy::new(base, base.saturating_mul(8))
            .delay(cfg.seed, self.reopen_count.saturating_sub(1))
    }
}

/// Per-namespace replication snapshot inside a [`ProbeInfo`], parsed
/// from the `namespaces` object a multi-tenant backend adds to `stats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NsProbe {
    /// Highest log version this namespace has applied on the backend.
    pub applied_version: u64,
    /// Records this namespace is behind its primary (0 on a primary).
    pub lag_records: u64,
}

/// What the last successful probe (or piggybacked stats poll) reported.
#[derive(Clone, Debug, Default)]
pub struct ProbeInfo {
    /// Backend refuses mutations (replica or fenced ex-primary).
    pub read_only: bool,
    /// Backend has been fenced by a newer epoch.
    pub fenced: bool,
    /// Highest log version the backend has applied (the default
    /// namespace's, on a multi-tenant backend).
    pub applied_version: u64,
    /// Records behind its primary (0 on a primary).
    pub lag_records: u64,
    /// Replication epoch the backend reports.
    pub epoch: u64,
    /// Whether any probe has ever succeeded.
    pub probed: bool,
    /// Per-namespace snapshots; empty on a single-tenant backend, whose
    /// flat fields describe its only (default) namespace.
    pub namespaces: HashMap<String, NsProbe>,
}

impl ProbeInfo {
    /// The applied version for one namespace. A single-tenant backend
    /// (empty map) answers with its flat fields; a multi-tenant backend
    /// that does not host `ns` answers 0 — "not caught up" — rather than
    /// borrowing another tenant's version.
    pub fn applied(&self, ns: &str) -> u64 {
        if self.namespaces.is_empty() {
            self.applied_version
        } else {
            self.namespaces.get(ns).map_or(0, |i| i.applied_version)
        }
    }

    /// The replication lag for one namespace (same fallback rules as
    /// [`ProbeInfo::applied`], except a missing namespace reports the
    /// flat lag so breaker ordering stays sane).
    pub fn lag(&self, ns: &str) -> u64 {
        if self.namespaces.is_empty() {
            self.lag_records
        } else {
            self.namespaces.get(ns).map_or(self.lag_records, |i| i.lag_records)
        }
    }
}

/// One backend: address, breaker + probe snapshot, pooled idle
/// connections (reads only — mutations always open fresh, see retry.rs).
pub struct Backend {
    /// Client (NDJSON) address of this backend.
    pub addr: String,
    state: Mutex<(Breaker, ProbeInfo)>,
    idle: Mutex<Vec<Conn>>,
}

impl Backend {
    fn new(addr: String) -> Backend {
        Backend {
            addr,
            state: Mutex::new((Breaker::new(Instant::now()), ProbeInfo::default())),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Snapshot of the probe info.
    pub fn info(&self) -> ProbeInfo {
        self.state.lock().unwrap().1.clone()
    }

    /// Current breaker state (for stats reporting).
    pub fn breaker_state(&self) -> BreakerState {
        self.state.lock().unwrap().0.state()
    }

    pub(crate) fn routable(&self) -> bool {
        self.state.lock().unwrap().0.routable()
    }

    /// Data-path failure: counts toward the breaker exactly like a failed
    /// probe, so a dead backend trips after `threshold` strikes without
    /// waiting out the probe interval.
    pub(crate) fn note_failure(&self, cfg: &RouterConfig) {
        let mut st = self.state.lock().unwrap();
        st.0.on_failure(Instant::now(), cfg);
        // Pooled conns to a failing backend are suspect: drop them all.
        self.idle.lock().unwrap().clear();
    }

    pub(crate) fn note_success(&self) {
        self.state.lock().unwrap().0.on_success();
    }

    /// Checkout a pooled idle connection, if any.
    pub(crate) fn checkout(&self) -> Option<Conn> {
        self.idle.lock().unwrap().pop()
    }

    /// Return a connection that completed an exchange cleanly.
    pub(crate) fn park_conn(&self, conn: Conn) {
        let mut idle = self.idle.lock().unwrap();
        if idle.len() < 8 {
            idle.push(conn);
        }
    }
}

/// The pool: every configured backend plus the selection logic.
pub struct BackendPool {
    /// All configured backends, in flag order.
    pub backends: Vec<Arc<Backend>>,
    cfg: RouterConfig,
    metrics: Arc<RouterMetrics>,
    rr: AtomicUsize,
    /// Serializes failover orchestration (see failover.rs).
    pub(crate) failover_running: AtomicBool,
}

impl BackendPool {
    pub(crate) fn new(cfg: RouterConfig, metrics: Arc<RouterMetrics>) -> BackendPool {
        let backends = cfg
            .backends
            .iter()
            .map(|a| Arc::new(Backend::new(a.clone())))
            .collect();
        BackendPool {
            backends,
            cfg,
            metrics,
            rr: AtomicUsize::new(0),
            failover_running: AtomicBool::new(false),
        }
    }

    pub(crate) fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Probes one backend with a `stats` round-trip and folds the result
    /// into its breaker + probe info. Returns whether the probe succeeded.
    pub(crate) fn probe(&self, backend: &Backend) -> bool {
        {
            let mut st = backend.state.lock().unwrap();
            if !st.0.admit_probe(Instant::now(), &self.cfg) {
                return false;
            }
        }
        let timeout = Some(Duration::from_millis(self.cfg.probe_timeout_ms));
        let outcome = connect(&backend.addr, timeout)
            .and_then(|mut conn| exchange_on(&mut conn, "{\"op\":\"stats\",\"id\":0}", timeout));
        match outcome.ok().and_then(|raw| Json::parse(&raw).ok()) {
            Some(parsed) => {
                let info = parse_probe(&parsed);
                let mut st = backend.state.lock().unwrap();
                st.0.on_success();
                st.1 = info;
                true
            }
            None => {
                backend.note_failure(&self.cfg);
                false
            }
        }
    }

    /// Probes every backend once, synchronously (startup and failover use
    /// this to act on fresh truth rather than a stale tick).
    pub(crate) fn probe_all(&self) {
        for b in &self.backends {
            self.probe(b);
        }
    }

    /// The prober loop: tick every `probe_interval_ms`, probe everything
    /// the breakers admit, and trigger failover when no primary is left.
    pub(crate) fn prober_loop(self: &Arc<Self>, stop: &AtomicBool) {
        while !stop.load(Ordering::Acquire) {
            self.probe_all();
            if self.cfg.auto_failover && self.writable().is_none() {
                crate::router::failover::try_failover(self, &self.metrics);
            }
            let tick = Duration::from_millis(self.cfg.probe_interval_ms.max(1));
            let deadline = Instant::now() + tick;
            while Instant::now() < deadline {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5).min(tick));
            }
        }
    }

    /// The current primary: first routable backend that accepts writes.
    pub(crate) fn writable(&self) -> Option<Arc<Backend>> {
        self.backends
            .iter()
            .find(|b| b.routable() && {
                let i = b.info();
                i.probed && !i.read_only
            })
            .cloned()
    }

    /// Read candidates for a query, least-lagged replicas first, primary
    /// last (replicas absorb read load; the primary is the fallback that
    /// always satisfies any `min_version`). `min_version` is compared
    /// against the *namespace's* applied version on each backend.
    pub(crate) fn read_candidates(&self, ns: &str, min_version: Option<u64>) -> Vec<Arc<Backend>> {
        let mut replicas: Vec<(u64, usize, Arc<Backend>)> = Vec::new();
        let mut primary: Option<Arc<Backend>> = None;
        for (idx, b) in self.backends.iter().enumerate() {
            if !b.routable() {
                continue;
            }
            let info = b.info();
            if !info.probed {
                continue;
            }
            if !info.read_only {
                primary.get_or_insert_with(|| b.clone());
                continue;
            }
            if min_version.is_none_or(|v| info.applied(ns) >= v) {
                replicas.push((info.lag(ns), idx, b.clone()));
            }
        }
        // Order by lag; rotate equal-lag replicas round-robin so load
        // spreads instead of pinning the first backend in flag order.
        replicas.sort_by_key(|(lag, idx, _)| (*lag, *idx));
        let mut out: Vec<Arc<Backend>> = if replicas.is_empty() {
            Vec::new()
        } else {
            let shift = self.rr.fetch_add(1, Ordering::Relaxed);
            let equal = replicas
                .iter()
                .take_while(|(lag, _, _)| *lag == replicas[0].0)
                .count();
            let mut v: Vec<Arc<Backend>> = replicas.into_iter().map(|(_, _, b)| b).collect();
            v[..equal].rotate_left(shift % equal);
            v
        };
        if let Some(p) = primary {
            out.push(p);
        }
        out
    }

    /// The reachable backend with the highest applied version for `ns` —
    /// the stale-read server of last resort and the promotion candidate.
    pub(crate) fn freshest(&self, ns: &str) -> Option<Arc<Backend>> {
        self.backends
            .iter()
            .filter(|b| {
                let i = b.info();
                i.probed && b.breaker_state() != BreakerState::Open
            })
            .max_by_key(|b| b.info().applied(ns))
            .cloned()
    }

    /// Non-blocking form of [`BackendPool::await_replicated`]: does some
    /// live replica's last probe already show `ns` applied at `>=
    /// version`? Used to re-arm semi-sync after a sticky degradation.
    pub(crate) fn replicated_at(&self, ns: &str, version: u64) -> bool {
        self.backends.iter().any(|b| {
            let info = b.info();
            info.probed
                && info.read_only
                && b.breaker_state() != BreakerState::Open
                && info.applied(ns) >= version
        })
    }

    /// Semi-sync ack: block until some *replica* reports namespace `ns`
    /// applied at `>= version`, polling stats directly (which also
    /// freshens that replica's probe info). True on success, false when
    /// the deadline passes or there are no replicas to wait for.
    pub(crate) fn await_replicated(&self, ns: &str, version: u64, deadline: Instant) -> bool {
        let timeout = Duration::from_millis(self.cfg.probe_timeout_ms);
        loop {
            let mut any_replica = false;
            for b in &self.backends {
                let info = b.info();
                // A breaker-open replica's info is stale, not a promise:
                // waiting on a dead node would stall every ack for the
                // full deadline. Degrade to replica-less semantics.
                if !info.probed || !info.read_only || b.breaker_state() == BreakerState::Open {
                    continue;
                }
                any_replica = true;
                if info.applied(ns) >= version {
                    return true;
                }
            }
            if !any_replica || Instant::now() >= deadline {
                return false;
            }
            // Poll the lagging replicas directly rather than waiting for
            // the next prober tick: shipping is usually a millisecond.
            for b in &self.backends {
                let info = b.info();
                if info.probed && info.read_only && info.applied(ns) < version {
                    let _ = timeout; // probe uses cfg timeout internally
                    self.probe(b);
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Extracts routing-relevant fields from a backend `stats` response.
fn parse_probe(stats: &Json) -> ProbeInfo {
    let repl = stats.get("replication");
    let get_u64 = |key: &str| repl.and_then(|r| r.get(key)).and_then(Json::as_u64);
    let get_bool = |key: &str| repl.and_then(|r| r.get(key)).and_then(Json::as_bool);
    let mut namespaces = HashMap::new();
    if let Some(Json::Obj(entries)) = stats.get("namespaces") {
        for (name, entry) in entries {
            let field = |key: &str| entry.get(key).and_then(Json::as_u64).unwrap_or(0);
            namespaces.insert(
                name.clone(),
                NsProbe {
                    applied_version: field("applied_version"),
                    lag_records: field("lag_records"),
                },
            );
        }
    }
    ProbeInfo {
        read_only: get_bool("read_only").unwrap_or(false),
        fenced: get_bool("fenced").unwrap_or(false),
        applied_version: get_u64("applied_version")
            .or_else(|| stats.get("version").and_then(Json::as_u64))
            .unwrap_or(0),
        lag_records: get_u64("lag_records").unwrap_or(0),
        epoch: get_u64("epoch").unwrap_or(0),
        probed: true,
        namespaces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RouterConfig {
        RouterConfig {
            breaker_threshold: 3,
            breaker_cooldown_ms: 100,
            ..RouterConfig::new(vec!["127.0.0.1:1".into()])
        }
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_half_open() {
        let cfg = cfg();
        let t0 = Instant::now();
        let mut b = Breaker::new(t0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure(t0, &cfg);
        b.on_failure(t0, &cfg);
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        b.on_failure(t0, &cfg);
        assert_eq!(b.state(), BreakerState::Open, "third strike opens");
        assert!(!b.routable());
        // Probes are rejected until the cooldown elapses…
        assert!(!b.admit_probe(t0 + Duration::from_millis(1), &cfg));
        // …then exactly one trial is admitted (HalfOpen).
        assert!(b.admit_probe(t0 + Duration::from_secs(10), &cfg));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.routable(), "half-open still takes no client traffic");
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.routable());
    }

    #[test]
    fn half_open_failure_reopens_with_longer_cooldown() {
        let cfg = cfg();
        let t0 = Instant::now();
        let mut b = Breaker::new(t0);
        for _ in 0..3 {
            b.on_failure(t0, &cfg);
        }
        let first_cooldown = b.cooldown(&cfg);
        assert!(b.admit_probe(t0 + Duration::from_secs(10), &cfg));
        b.on_failure(t0 + Duration::from_secs(10), &cfg);
        assert_eq!(b.state(), BreakerState::Open, "failed trial reopens");
        let second_cooldown = b.cooldown(&cfg);
        // The jittered schedule is non-decreasing in envelope terms:
        // reopen N draws from [env/2, env] with env doubling.
        assert!(second_cooldown >= first_cooldown / 2);
        // And deterministic: same breaker history, same delays.
        let mut b2 = Breaker::new(t0);
        for _ in 0..3 {
            b2.on_failure(t0, &cfg);
        }
        assert_eq!(b2.cooldown(&cfg), first_cooldown);
    }

    #[test]
    fn probe_parsing_reads_replication_fields() {
        let stats = Json::parse(
            "{\"ok\":true,\"version\":9,\"replication\":{\"role\":\"replica\",\
             \"read_only\":true,\"applied_version\":7,\"lag_records\":2,\
             \"epoch\":3,\"fenced\":false}}",
        )
        .unwrap();
        let info = parse_probe(&stats);
        assert!(info.read_only && info.probed && !info.fenced);
        assert_eq!(info.applied_version, 7);
        assert_eq!(info.lag_records, 2);
        assert_eq!(info.epoch, 3);
        // A standalone primary has no replication object: version is the
        // applied version and writes are welcome.
        let plain = Json::parse("{\"ok\":true,\"version\":4}").unwrap();
        let info = parse_probe(&plain);
        assert!(!info.read_only);
        assert_eq!(info.applied_version, 4);
    }
}

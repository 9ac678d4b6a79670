//! Closed-loop TCP load generator for the query server.
//!
//! Drives `connections` concurrent NDJSON clients, each issuing queries
//! back-to-back (closed loop: next request leaves when the previous
//! response lands). Sources follow a **Zipfian** distribution — the
//! standard model for query popularity skew — so the server's result cache
//! sees a realistic mix of hot repeats and cold tails.
//!
//! Two seed policies select what is being exercised:
//!
//! * `per_source` (default): a source's seed is a function of the source
//!   alone, so repeated queries for a hot source are *identical
//!   computations* — cache hits and coalescing light up.
//! * `per_request`: every request gets a unique seed, defeating the cache
//!   by construction — this measures raw engine throughput scaling.
//!
//! The request stream is fully determined by the config (ids, sources, and
//! seeds derive from `seed` arithmetic), so a run is reproducible.

use crate::client;
use crate::json::Json;
use crate::metrics::Histogram;
use crate::scheduler::splitmix64;
use resacc::durability::DEFAULT_NAMESPACE;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generator configuration.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7171`.
    pub addr: String,
    /// Total queries to issue.
    pub requests: u64,
    /// Concurrent client connections.
    pub connections: usize,
    /// Zipf exponent `s` (0 = uniform; ~1 = web-like skew).
    pub zipf_s: f64,
    /// Number of distinct sources drawn from (ranks are spread over the
    /// graph by a multiplicative hash, so rank 0 is not always node 0).
    pub sources: u32,
    /// Master seed for the (deterministic) request stream.
    pub seed: u64,
    /// `true` → unique seed per request (cache-defeating);
    /// `false` → seed per source (cache-exercising).
    pub per_request_seeds: bool,
    /// `k` sent with each query.
    pub k: usize,
    /// `deadline_ms` sent with each query (0 = none).
    pub deadline_ms: u64,
    /// `threads` hint sent with each query (0 = omit the field). A pure
    /// latency knob: responses are byte-identical for any value.
    pub threads: usize,
    /// Fraction of requests in [0, 1] issued as `insert_edges` mutations
    /// instead of queries, with seed-derived endpoints — a deterministic
    /// mutation stream for replication benchmarks and chaos runs. `0`
    /// leaves the request stream exactly as it was without the knob.
    pub write_mix: f64,
    /// Fraction of requests in [0, 1] issued as `delete_node` mutations
    /// with a seed-derived target node — deterministic traffic for the
    /// cache-upgrade fallback/invalidation path (`delete_node` is not
    /// offset-expressible, see [`resacc::dynamic`]). Drawn after the
    /// write-mix decision from the same stream; `0` leaves the stream
    /// exactly as it was without the knob.
    pub delete_mix: f64,
    /// Chaos mode: typed error responses (`overloaded`,
    /// `deadline_exceeded`, `internal_panic`) are *expected* outcomes of a
    /// fault-injection run — they are classified and reported rather than
    /// treated as load-generator failures. Every request must still get
    /// exactly one response; missing responses remain hard errors.
    pub chaos: bool,
    /// Send `{"op":"shutdown"}` after the run and measure the drain.
    pub shutdown_after: bool,
    /// Connect/read timeout per request, milliseconds (0 = wait forever,
    /// the pre-timeout behavior). A request that times out is counted as
    /// an error with the typed `timeout` classification
    /// ([`LoadgenReport::net_timeouts`]) and the connection is reopened —
    /// a hung backend costs one request, not the whole run.
    pub timeout_ms: u64,
    /// Router mode: after every acked write, subsequent queries on the
    /// same connection carry `min_version` = that write's version
    /// (read-your-writes through the router's version-aware balancing),
    /// and responses are audited — a non-`stale` reply below
    /// `min_version` counts as a violation (tracked per tenant).
    pub via_router: bool,
    /// Number of tenants to spread traffic over. `1` (the default) keeps
    /// the request stream byte-identical to the pre-namespace generator:
    /// no tenant draw happens and no `namespace` field is sent. `N > 1`
    /// targets tenants `t0..t{N-1}` (created and seeded on first use)
    /// with a Zipfian mix over `ns_skew`.
    pub namespaces: usize,
    /// Zipf exponent for the tenant mix (0 = uniform over tenants; ~1 =
    /// one hot tenant and a long tail). Only drawn when `namespaces > 1`,
    /// so the single-tenant stream is unchanged.
    pub ns_skew: f64,
    /// Pin every request to one named tenant (created and seeded on
    /// first use). Mutually exclusive with `namespaces > 1`; the stream
    /// is the single-tenant stream plus the `namespace` field.
    pub namespace: Option<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7171".into(),
            requests: 1000,
            connections: 4,
            zipf_s: 1.0,
            sources: 64,
            seed: 1,
            per_request_seeds: false,
            k: 10,
            deadline_ms: 0,
            threads: 0,
            write_mix: 0.0,
            delete_mix: 0.0,
            chaos: false,
            shutdown_after: false,
            timeout_ms: 0,
            via_router: false,
            namespaces: 1,
            ns_skew: 1.0,
            namespace: None,
        }
    }
}

/// What a load run measured.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Requests completed successfully (queries and writes).
    pub completed: u64,
    /// `insert_edges` mutations completed successfully (`--write-mix`).
    pub writes: u64,
    /// `delete_node` mutations completed successfully (`--delete-mix`).
    pub deletes: u64,
    /// Queries that failed (connection or protocol errors, plus typed
    /// errors — the typed classes are also broken out below).
    pub errors: u64,
    /// `overloaded` (shed) responses.
    pub shed: u64,
    /// `deadline_exceeded` responses.
    pub timeouts: u64,
    /// `internal_panic` responses.
    pub panics: u64,
    /// Transport-level timeouts (`--timeout-ms`) plus typed `timeout`
    /// errors from a router's park deadline.
    pub net_timeouts: u64,
    /// Typed `unavailable` errors (router retry budget exhausted).
    pub unavailable: u64,
    /// Typed `in_doubt` errors (router mutation ack lost post-delivery).
    pub in_doubt: u64,
    /// Responses annotated `stale` (router serving without a primary).
    pub stale: u64,
    /// Non-stale responses below the requested `min_version` — must be 0;
    /// anything else is a read-your-writes violation (`--via-router`).
    pub min_version_violations: u64,
    /// Highest version any acked mutation reported (`--via-router`);
    /// the zero-acked-write-loss gate compares survivors against this.
    /// With a tenant mix this is the max across tenants — use
    /// [`LoadgenReport::max_acked_by_ns`] for the per-tenant watermark.
    pub max_acked_version: u64,
    /// Highest acked mutation version per tenant (`--via-router` with a
    /// tenant mix); empty otherwise.
    pub max_acked_by_ns: Vec<(String, u64)>,
    /// Typed `unknown_namespace` responses (misrouted tenant).
    pub unknown_namespace: u64,
    /// Typed `namespace_dropped` responses (tenant dropped mid-flight).
    pub namespace_dropped: u64,
    /// Time from sending `shutdown` to the listener going away,
    /// milliseconds. Only set when `shutdown_after` was requested.
    pub drain_ms: Option<f64>,
    /// Wall-clock run time, seconds.
    pub elapsed_secs: f64,
    /// Completed queries per second.
    pub qps: f64,
    /// Client-observed mean latency, milliseconds.
    pub mean_ms: f64,
    /// Client-observed median latency, milliseconds.
    pub p50_ms: f64,
    /// Client-observed p95 latency, milliseconds.
    pub p95_ms: f64,
    /// Client-observed p99 latency, milliseconds.
    pub p99_ms: f64,
    /// Server-reported cache hit rate at run end, in [0, 1] (with
    /// `via_router`, over every backend the router lists).
    pub server_hit_rate: f64,
    /// Server-reported coalesced request count at run end (summed the
    /// same way).
    pub server_coalesced: u64,
}

impl LoadgenReport {
    /// Human-readable summary.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "completed   {:>10}  ({} writes, {} deletes, {} errors)\n\
             faults      {:>10} shed / {} timeouts / {} panics\n\
             elapsed     {:>10.2} s\n\
             throughput  {:>10.1} q/s\n\
             latency     mean {:.3} ms · p50 {:.3} ms · p95 {:.3} ms · p99 {:.3} ms\n\
             server      hit rate {:.1}% · {} coalesced\n",
            self.completed,
            self.writes,
            self.deletes,
            self.errors,
            self.shed,
            self.timeouts,
            self.panics,
            self.elapsed_secs,
            self.qps,
            self.mean_ms,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.server_hit_rate * 100.0,
            self.server_coalesced,
        );
        if self.net_timeouts + self.unavailable + self.in_doubt + self.stale > 0
            || self.via_router_audited()
        {
            out.push_str(&format!(
                "router      {:>10} net timeouts / {} unavailable / {} in_doubt / {} stale / {} min_version violations\n",
                self.net_timeouts, self.unavailable, self.in_doubt, self.stale,
                self.min_version_violations,
            ));
        }
        if self.unknown_namespace + self.namespace_dropped > 0 {
            out.push_str(&format!(
                "tenants     {:>10} unknown_namespace / {} namespace_dropped\n",
                self.unknown_namespace, self.namespace_dropped,
            ));
        }
        if let Some(drain) = self.drain_ms {
            out.push_str(&format!("drain       {drain:>10.1} ms\n"));
        }
        out
    }

    fn via_router_audited(&self) -> bool {
        self.max_acked_version > 0 || self.min_version_violations > 0
    }
}

/// Zipfian sampler over ranks `0..k` via inverse-CDF binary search.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution `P(rank = i) ∝ 1/(i+1)^s` over `k` ranks.
    pub fn new(k: u32, s: f64) -> Self {
        let k = k.max(1);
        let mut cdf = Vec::with_capacity(k as usize);
        let mut acc = 0.0;
        for i in 0..k {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank from a uniform `u ∈ [0, 1)`.
    pub fn sample(&self, u: f64) -> u32 {
        self.cdf.partition_point(|&c| c < u) as u32
    }
}

/// xorshift64* — small deterministic per-thread RNG for the request stream.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Maps a popularity rank to a node id, spreading ranks over the graph.
fn rank_to_source(rank: u32, n: u64) -> u32 {
    ((rank as u64).wrapping_mul(2654435761) % n.max(1)) as u32
}

/// One `stats` exchange for tenant `ns`; returns the whole response.
fn fetch_stats(addr: &str, ns: &str, timeout: Option<Duration>) -> std::io::Result<Json> {
    let request = if ns == DEFAULT_NAMESPACE {
        "{\"op\":\"stats\"}".to_string()
    } else {
        format!("{{\"op\":\"stats\",\"namespace\":\"{ns}\"}}")
    };
    client::request(addr, &request, timeout)
}

/// Asks the server how many nodes the tenant's graph has (`stats` op).
fn fetch_nodes(addr: &str, ns: &str, timeout: Option<Duration>) -> std::io::Result<u64> {
    fetch_stats(addr, ns, timeout)?
        .get("nodes")
        .and_then(Json::as_u64)
        .ok_or_else(|| std::io::Error::other("bad stats response"))
}

/// How many nodes a fresh tenant is seeded with (a directed ring, so
/// every source is valid and reaches the whole graph).
const SEED_RING: u64 = 64;

/// Makes sure tenant `ns` exists and has a graph to query: creates it if
/// missing (an "already exists" answer is success) and seeds an empty
/// graph with a deterministic [`SEED_RING`]-node ring. Returns the
/// tenant's node count.
fn ensure_tenant(addr: &str, ns: &str, timeout: Option<Duration>) -> std::io::Result<u64> {
    let mut conn = client::connect(addr, timeout)?;
    let mut exchange = |line: String| client::exchange_json(&mut conn, &line, timeout);
    let created = exchange(format!("{{\"op\":\"create_namespace\",\"namespace\":\"{ns}\"}}"))?;
    if created.get("ok").and_then(Json::as_bool) != Some(true) {
        let rendered = created.render();
        if !rendered.contains("already exists") {
            return Err(std::io::Error::other(format!(
                "create_namespace {ns}: {rendered}"
            )));
        }
    }
    let nodes = fetch_nodes(addr, ns, timeout)?;
    if nodes >= 2 {
        return Ok(nodes);
    }
    let edges: Vec<String> = (0..SEED_RING)
        .map(|i| format!("[{},{}]", i, (i + 1) % SEED_RING))
        .collect();
    let seeded = exchange(format!(
        "{{\"op\":\"insert_edges\",\"namespace\":\"{ns}\",\"edges\":[{}]}}",
        edges.join(",")
    ))?;
    if seeded.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(std::io::Error::other(format!(
            "seeding tenant {ns}: {}",
            seeded.render()
        )));
    }
    fetch_nodes(addr, ns, timeout)
}

/// Fetches (hit_rate, coalesced) from the server. Through a router the
/// reads land on whichever backends it picks (replicas first), while a
/// `stats` sent to the router answers for one backend only — so in
/// router mode this asks each backend the router lists and sums their
/// own counters.
fn fetch_cache_stats(addr: &str, timeout: Option<Duration>, via_router: bool) -> (f64, u64) {
    let Ok(top) = fetch_stats(addr, DEFAULT_NAMESPACE, timeout) else {
        return (0.0, 0);
    };
    let servers: Vec<Json> = if via_router {
        top.get("router")
            .and_then(|r| r.get("backends"))
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|b| b.get("addr").and_then(Json::as_str))
            .filter_map(|a| fetch_stats(a, DEFAULT_NAMESPACE, timeout).ok())
            .collect()
    } else {
        vec![top]
    };
    let (mut hits, mut lookups, mut coalesced) = (0u64, 0u64, 0u64);
    for s in servers.iter().filter_map(|j| j.get("stats")) {
        let count = |k: &str| s.get(k).and_then(Json::as_u64).unwrap_or(0);
        hits += count("cache_hits");
        lookups += count("cache_hits") + count("cache_misses");
        coalesced += count("coalesced");
    }
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    (hit_rate, coalesced)
}

/// Runs the load and reports client-side latency plus server-side cache
/// effectiveness.
pub fn run(config: &LoadgenConfig) -> std::io::Result<LoadgenReport> {
    // Tenant targets: the default (or pinned) tenant, or `t0..t{N-1}`
    // under a Zipfian mix. Non-default tenants are created and seeded up
    // front so every request stream hits a live graph.
    let tenants: Vec<String> = match (&config.namespace, config.namespaces) {
        (Some(ns), _) => vec![ns.clone()],
        (None, n) if n > 1 => (0..n).map(|i| format!("t{i}")).collect(),
        _ => vec![DEFAULT_NAMESPACE.to_string()],
    };
    let timeout = client::timeout_from_ms(config.timeout_ms);
    let mut nodes_by_tenant = Vec::with_capacity(tenants.len());
    for ns in &tenants {
        let nodes = if ns == DEFAULT_NAMESPACE {
            fetch_nodes(&config.addr, ns, timeout)?
        } else {
            ensure_tenant(&config.addr, ns, timeout)?
        };
        nodes_by_tenant.push(nodes);
    }
    // Pre-rendered `,"namespace":"..."` suffixes; empty for the default
    // tenant, so the single-tenant request stream is byte-identical to
    // the pre-namespace generator.
    let ns_fields: Vec<String> = tenants
        .iter()
        .map(|ns| {
            if ns == DEFAULT_NAMESPACE {
                String::new()
            } else {
                format!(",\"namespace\":\"{ns}\"")
            }
        })
        .collect();
    let ns_zipf = Zipf::new(tenants.len() as u32, config.ns_skew);
    let tenants = Arc::new(tenants);
    let nodes_by_tenant = Arc::new(nodes_by_tenant);
    let ns_fields = Arc::new(ns_fields);
    let ns_zipf = Arc::new(ns_zipf);
    let max_acked_ns: Arc<Vec<AtomicU64>> =
        Arc::new((0..tenants.len()).map(|_| AtomicU64::new(0)).collect());
    let zipf = Arc::new(Zipf::new(config.sources, config.zipf_s));
    let latency = Arc::new(Histogram::new());
    let errors = Arc::new(AtomicU64::new(0));
    let writes = Arc::new(AtomicU64::new(0));
    let deletes = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let timeouts = Arc::new(AtomicU64::new(0));
    let panics = Arc::new(AtomicU64::new(0));
    let net_timeouts = Arc::new(AtomicU64::new(0));
    let unavailable = Arc::new(AtomicU64::new(0));
    let in_doubt = Arc::new(AtomicU64::new(0));
    let stale = Arc::new(AtomicU64::new(0));
    let min_version_violations = Arc::new(AtomicU64::new(0));
    let max_acked_version = Arc::new(AtomicU64::new(0));
    let unknown_namespace = Arc::new(AtomicU64::new(0));
    let namespace_dropped = Arc::new(AtomicU64::new(0));
    let connections = config.connections.max(1) as u64;
    let started = Instant::now();

    std::thread::scope(|scope| {
        for t in 0..connections {
            let per = config.requests / connections
                + u64::from(t < config.requests % connections);
            let id_base = t * (config.requests / connections)
                + t.min(config.requests % connections);
            let zipf = zipf.clone();
            let latency = latency.clone();
            let errors = errors.clone();
            let writes = writes.clone();
            let deletes = deletes.clone();
            let shed = shed.clone();
            let timeouts = timeouts.clone();
            let panics = panics.clone();
            let net_timeouts = net_timeouts.clone();
            let unavailable = unavailable.clone();
            let in_doubt = in_doubt.clone();
            let stale = stale.clone();
            let min_version_violations = min_version_violations.clone();
            let max_acked_version = max_acked_version.clone();
            let unknown_namespace = unknown_namespace.clone();
            let namespace_dropped = namespace_dropped.clone();
            let tenants = tenants.clone();
            let nodes_by_tenant = nodes_by_tenant.clone();
            let ns_fields = ns_fields.clone();
            let ns_zipf = ns_zipf.clone();
            let max_acked_ns = max_acked_ns.clone();
            let config = config.clone();
            scope.spawn(move || {
                let mut rng = Rng(splitmix64(config.seed ^ (t + 1)));
                // Read-your-writes bound for this client session, per
                // tenant: the version of its latest acked write on that
                // tenant's log (`--via-router`).
                let mut min_version = vec![0u64; tenants.len()];
                let mut run = || -> std::io::Result<()> {
                    let mut conn = client::connect(&config.addr, timeout)?;
                    for i in 0..per {
                        let id = id_base + i;
                        // The tenant draw only exists when the mix spans
                        // more than one tenant, so a single-tenant run
                        // reproduces the exact pre-namespace stream.
                        let ns_idx = if tenants.len() > 1 {
                            (ns_zipf.sample(rng.next_f64()) as usize).min(tenants.len() - 1)
                        } else {
                            0
                        };
                        let n = nodes_by_tenant[ns_idx];
                        let ns_field = &ns_fields[ns_idx];
                        // The write-decision draw only exists when the knob
                        // is on, so `--write-mix 0` reproduces the exact
                        // request stream runs recorded before the knob.
                        let is_write =
                            config.write_mix > 0.0 && rng.next_f64() < config.write_mix;
                        // Drawn only when the knob is on, after the write
                        // decision — so `--delete-mix 0` reproduces the
                        // exact pre-knob stream, writes included.
                        let is_delete = !is_write
                            && config.delete_mix > 0.0
                            && rng.next_f64() < config.delete_mix;
                        let request = if is_write {
                            let u = rng.next_u64() % n.max(1);
                            let v = rng.next_u64() % n.max(1);
                            format!(
                                "{{\"id\":{id},\"op\":\"insert_edges\"{ns_field},\"edges\":[[{u},{v}]]}}"
                            )
                        } else if is_delete {
                            let node = rng.next_u64() % n.max(1);
                            format!(
                                "{{\"id\":{id},\"op\":\"delete_node\"{ns_field},\"node\":{node}}}"
                            )
                        } else {
                            let rank = zipf.sample(rng.next_f64());
                            let source = rank_to_source(rank, n);
                            let seed = if config.per_request_seeds {
                                splitmix64(config.seed ^ (id << 1 | 1))
                            } else {
                                splitmix64(config.seed ^ u64::from(source))
                            };
                            let deadline = if config.deadline_ms > 0 {
                                format!(",\"deadline_ms\":{}", config.deadline_ms)
                            } else {
                                String::new()
                            };
                            let threads = if config.threads > 0 {
                                format!(",\"threads\":{}", config.threads)
                            } else {
                                String::new()
                            };
                            // Read-your-writes through the router: a query
                            // after an acked write must observe it (on the
                            // tenant's own log).
                            let minv = if config.via_router && min_version[ns_idx] > 0 {
                                format!(",\"min_version\":{}", min_version[ns_idx])
                            } else {
                                String::new()
                            };
                            format!(
                                "{{\"id\":{id},\"op\":\"query\"{ns_field},\"source\":{source},\"seed\":{seed},\"k\":{}{deadline}{threads}{minv}}}",
                                config.k
                            )
                        };
                        let sent = Instant::now();
                        // A missing response is never acceptable, chaos
                        // or not: a closed connection is a hard error.
                        let line = match client::exchange_on(&mut conn, &request, timeout) {
                            Ok(line) => line,
                            Err(e) => {
                                let timed_out = timeout.is_some()
                                    && matches!(
                                        e.kind(),
                                        std::io::ErrorKind::TimedOut
                                            | std::io::ErrorKind::WouldBlock
                                    );
                                if timed_out {
                                    // One request lost to a hung peer, not the
                                    // whole connection's remainder. Reopen: the
                                    // late response could still arrive on the
                                    // old socket and desynchronize pairing.
                                    errors.fetch_add(1, Ordering::Relaxed);
                                    net_timeouts.fetch_add(1, Ordering::Relaxed);
                                    conn = client::connect(&config.addr, timeout)?;
                                    continue;
                                }
                                return Err(e);
                            }
                        };
                        let response = Json::parse(&line).ok();
                        let ok = response
                            .as_ref()
                            .and_then(|j| j.get("ok").and_then(Json::as_bool))
                            .unwrap_or(false);
                        let version = response
                            .as_ref()
                            .and_then(|j| j.get("version").and_then(Json::as_u64));
                        if ok {
                            latency.record(sent.elapsed().as_nanos() as u64);
                            if is_write || is_delete {
                                if is_write {
                                    writes.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    deletes.fetch_add(1, Ordering::Relaxed);
                                }
                                if config.via_router {
                                    if let Some(v) = version {
                                        min_version[ns_idx] = min_version[ns_idx].max(v);
                                        max_acked_version.fetch_max(v, Ordering::Relaxed);
                                        max_acked_ns[ns_idx].fetch_max(v, Ordering::Relaxed);
                                    }
                                }
                            } else {
                                let is_stale = response
                                    .as_ref()
                                    .and_then(|j| j.get("stale").and_then(Json::as_bool))
                                    .unwrap_or(false);
                                if is_stale {
                                    stale.fetch_add(1, Ordering::Relaxed);
                                } else if config.via_router
                                    && min_version[ns_idx] > 0
                                    && version.is_some_and(|v| v < min_version[ns_idx])
                                {
                                    // The router promised ≥ min_version or a
                                    // typed error/stale annotation — never a
                                    // silently old read.
                                    min_version_violations.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        } else {
                            errors.fetch_add(1, Ordering::Relaxed);
                            let code = response
                                .as_ref()
                                .and_then(|j| j.get("error").and_then(Json::as_str))
                                .unwrap_or("");
                            match code {
                                "overloaded" => shed.fetch_add(1, Ordering::Relaxed),
                                "deadline_exceeded" => timeouts.fetch_add(1, Ordering::Relaxed),
                                "internal_panic" => panics.fetch_add(1, Ordering::Relaxed),
                                "timeout" => net_timeouts.fetch_add(1, Ordering::Relaxed),
                                "unavailable" => unavailable.fetch_add(1, Ordering::Relaxed),
                                "in_doubt" => in_doubt.fetch_add(1, Ordering::Relaxed),
                                "unknown_namespace" => {
                                    unknown_namespace.fetch_add(1, Ordering::Relaxed)
                                }
                                "namespace_dropped" => {
                                    namespace_dropped.fetch_add(1, Ordering::Relaxed)
                                }
                                _ => 0,
                            };
                        }
                    }
                    Ok(())
                };
                if let Err(e) = run() {
                    // Count the whole remainder of this connection as failed.
                    let _ = e;
                    errors.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let completed = latency.count();
    let max_acked_by_ns: Vec<(String, u64)> = if tenants.len() > 1
        || tenants[0] != DEFAULT_NAMESPACE
    {
        tenants
            .iter()
            .zip(max_acked_ns.iter())
            .map(|(ns, v)| (ns.clone(), v.load(Ordering::Relaxed)))
            .collect()
    } else {
        Vec::new()
    };
    let (server_hit_rate, server_coalesced) =
        fetch_cache_stats(&config.addr, timeout, config.via_router);
    let drain_ms = if config.shutdown_after {
        Some(shutdown_and_measure_drain(&config.addr)?)
    } else {
        None
    };
    const MS: f64 = 1e6;
    Ok(LoadgenReport {
        completed,
        writes: writes.load(Ordering::Relaxed),
        deletes: deletes.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
        timeouts: timeouts.load(Ordering::Relaxed),
        panics: panics.load(Ordering::Relaxed),
        net_timeouts: net_timeouts.load(Ordering::Relaxed),
        unavailable: unavailable.load(Ordering::Relaxed),
        in_doubt: in_doubt.load(Ordering::Relaxed),
        stale: stale.load(Ordering::Relaxed),
        min_version_violations: min_version_violations.load(Ordering::Relaxed),
        max_acked_version: max_acked_version.load(Ordering::Relaxed),
        max_acked_by_ns,
        unknown_namespace: unknown_namespace.load(Ordering::Relaxed),
        namespace_dropped: namespace_dropped.load(Ordering::Relaxed),
        drain_ms,
        elapsed_secs: elapsed,
        qps: completed as f64 / elapsed,
        mean_ms: latency.mean() / MS,
        p50_ms: latency.quantile(0.50) / MS,
        p95_ms: latency.quantile(0.95) / MS,
        p99_ms: latency.quantile(0.99) / MS,
        server_hit_rate,
        server_coalesced,
    })
}

/// Sends `{"op":"shutdown"}` (retrying if the connection cap races the
/// just-closed load connections) and measures how long the server takes to
/// finish draining (observed as the listener going away), in milliseconds.
fn shutdown_and_measure_drain(addr: &str) -> std::io::Result<f64> {
    let started = Instant::now();
    crate::server::request_shutdown(addr)?;
    // The listener closes when `serve` returns — i.e. once every connection
    // handler has drained and been joined.
    let cap = std::time::Duration::from_secs(10);
    while started.elapsed() < cap {
        match TcpStream::connect(addr) {
            Ok(probe) => {
                drop(probe);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    Ok(started.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{spawn, ServerConfig};
    use resacc::RwrSession;
    use resacc_graph::gen;
    use std::sync::Arc as StdArc;

    #[test]
    fn zipf_is_skewed_and_normalized() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng(42);
        let mut counts = [0u32; 100];
        for _ in 0..20_000 {
            counts[z.sample(rng.next_f64()) as usize] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 must dominate rank 10");
        assert!(counts[0] > counts[50] * 5, "skew must be strong at s=1");
        assert_eq!(counts.iter().sum::<u32>(), 20_000);
        // s = 0 degenerates to uniform.
        let u = Zipf::new(4, 0.0);
        let mut even = [0u32; 4];
        for _ in 0..8000 {
            even[u.sample(rng.next_f64()) as usize] += 1;
        }
        for c in even {
            assert!((1500..2500).contains(&c), "uniform draw skewed: {even:?}");
        }
    }

    #[test]
    fn loadgen_end_to_end_exercises_cache() {
        let session = StdArc::new(RwrSession::new(gen::barabasi_albert(200, 3, 8)));
        let handle = spawn("127.0.0.1:0", session, ServerConfig::default()).unwrap();
        let report = run(&LoadgenConfig {
            addr: handle.addr().to_string(),
            requests: 200,
            connections: 3,
            sources: 8,
            zipf_s: 1.2,
            ..LoadgenConfig::default()
        })
        .unwrap();
        assert_eq!(report.completed, 200);
        assert_eq!(report.errors, 0);
        assert!(report.qps > 0.0);
        assert!(
            report.server_hit_rate > 0.3,
            "8 hot sources over 200 requests must mostly hit: {}",
            report.server_hit_rate
        );
        assert!(report.p99_ms >= report.p50_ms);
        handle.shutdown().unwrap();
    }

    #[test]
    fn write_mix_mutates_deterministically() {
        let session = StdArc::new(RwrSession::new(gen::barabasi_albert(200, 3, 8)));
        let handle = spawn("127.0.0.1:0", session.clone(), ServerConfig::default()).unwrap();
        let config = LoadgenConfig {
            addr: handle.addr().to_string(),
            requests: 120,
            connections: 2,
            sources: 8,
            write_mix: 0.25,
            ..LoadgenConfig::default()
        };
        let report = run(&config).unwrap();
        assert_eq!(report.completed, 120);
        assert_eq!(report.errors, 0);
        assert!(
            report.writes > 10 && report.writes < 60,
            "~25% of 120 requests should be writes: {}",
            report.writes
        );
        // The mutation stream is seed-derived: the graph version advanced
        // by exactly the number of acknowledged writes.
        assert_eq!(session.version(), report.writes);
        handle.shutdown().unwrap();
    }

    #[test]
    fn namespace_mix_spreads_traffic_over_tenants() {
        let session = StdArc::new(RwrSession::new(gen::barabasi_albert(200, 3, 8)));
        let handle = spawn("127.0.0.1:0", session.clone(), ServerConfig::default()).unwrap();
        let report = run(&LoadgenConfig {
            addr: handle.addr().to_string(),
            requests: 150,
            connections: 2,
            sources: 8,
            write_mix: 0.2,
            namespaces: 3,
            ns_skew: 0.5,
            ..LoadgenConfig::default()
        })
        .unwrap();
        assert_eq!(report.completed, 150, "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
        assert!(report.writes > 10, "write mix active: {}", report.writes);
        // The mix targets t0..t2, never the default tenant: its log is
        // untouched (tenant isolation seen from the client side).
        assert_eq!(session.version(), 0);
        // All three tenants exist server-side afterwards.
        let listed = client::request(
            &handle.addr().to_string(),
            r#"{"op":"list_namespaces"}"#,
            None,
        )
        .unwrap();
        assert_eq!(
            listed.get("namespaces").unwrap().render(),
            r#"["default","t0","t1","t2"]"#
        );
        handle.shutdown().unwrap();
    }

    #[test]
    fn single_tenant_stream_is_bit_identical_with_namespace_knobs_off() {
        // The tenant-mix knobs must not perturb the deterministic request
        // stream: same seed, same server, same version trajectory as a
        // run that predates the knobs (write set is seed-derived).
        let s1 = StdArc::new(RwrSession::new(gen::barabasi_albert(120, 3, 8)));
        let h1 = spawn("127.0.0.1:0", s1.clone(), ServerConfig::default()).unwrap();
        let base = run(&LoadgenConfig {
            addr: h1.addr().to_string(),
            requests: 100,
            connections: 1,
            sources: 8,
            write_mix: 0.3,
            ..LoadgenConfig::default()
        })
        .unwrap();
        h1.shutdown().unwrap();
        let s2 = StdArc::new(RwrSession::new(gen::barabasi_albert(120, 3, 8)));
        let h2 = spawn("127.0.0.1:0", s2.clone(), ServerConfig::default()).unwrap();
        let knobbed = run(&LoadgenConfig {
            addr: h2.addr().to_string(),
            requests: 100,
            connections: 1,
            sources: 8,
            write_mix: 0.3,
            namespaces: 1,
            ns_skew: 1.0,
            ..LoadgenConfig::default()
        })
        .unwrap();
        h2.shutdown().unwrap();
        assert_eq!(base.writes, knobbed.writes);
        assert_eq!(s1.version(), s2.version(), "identical write streams");
    }

    #[test]
    fn delete_mix_issues_deterministic_delete_node_traffic() {
        let session = StdArc::new(RwrSession::new(gen::barabasi_albert(200, 3, 8)));
        let handle = spawn(
            "127.0.0.1:0",
            session.clone(),
            ServerConfig {
                // Deletes against the live upgrade path: they purge the
                // cache rather than leaving unsupported upgrade bait.
                dynamic_eps: 0.05,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let config = LoadgenConfig {
            addr: handle.addr().to_string(),
            requests: 150,
            connections: 2,
            sources: 8,
            write_mix: 0.2,
            delete_mix: 0.1,
            ..LoadgenConfig::default()
        };
        let report = run(&config).unwrap();
        assert_eq!(report.completed, 150);
        assert_eq!(report.errors, 0);
        assert!(
            report.deletes > 2 && report.deletes < 40,
            "~8% of 150 requests should be deletes: {}",
            report.deletes
        );
        assert!(report.writes > 10, "write mix still active: {}", report.writes);
        // Every acknowledged mutation (insert or delete) bumped the version.
        assert_eq!(session.version(), report.writes + report.deletes);
        handle.shutdown().unwrap();
    }

    #[test]
    fn timeout_ms_classifies_slow_requests_and_reconnects() {
        let session = StdArc::new(RwrSession::new(gen::barabasi_albert(200, 3, 8)));
        let handle = spawn(
            "127.0.0.1:0",
            session,
            ServerConfig {
                // Every 4th request id sleeps far past the client timeout.
                faults: crate::fault::FaultPlan::parse("delay=4:800").unwrap(),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let report = run(&LoadgenConfig {
            addr: handle.addr().to_string(),
            requests: 20,
            connections: 1,
            sources: 4,
            // Unique keys: no cache hit or coalesce can dodge (or catch)
            // an injected delay, so ids 0,4,8,12,16 must all time out.
            per_request_seeds: true,
            timeout_ms: 200,
            chaos: true,
            ..LoadgenConfig::default()
        })
        .unwrap();
        // Each delayed id times out, is counted, and the connection is
        // reopened so the rest of the stream keeps flowing. Worker-pool
        // contention from abandoned (still sleeping) jobs may time out a
        // few extra requests, but never lose one: every request is
        // accounted as completed or error, and all errors are timeouts.
        assert!(report.net_timeouts >= 5, "delayed ids must time out: {report:?}");
        assert_eq!(report.errors, report.net_timeouts);
        assert_eq!(report.completed + report.errors, 20);
        assert!(report.completed >= 10, "fast requests must survive: {report:?}");
        handle.shutdown().unwrap();
    }

    #[test]
    fn via_router_tracks_acked_versions_without_violations() {
        let session = StdArc::new(RwrSession::new(gen::barabasi_albert(200, 3, 8)));
        let backend = spawn("127.0.0.1:0", session.clone(), ServerConfig::default()).unwrap();
        let router = crate::router::spawn(
            "127.0.0.1:0",
            crate::router::RouterConfig {
                sync_acks: false,
                ..crate::router::RouterConfig::new(vec![backend.addr().to_string()])
            },
        )
        .unwrap();
        let report = run(&LoadgenConfig {
            addr: router.addr().to_string(),
            requests: 80,
            connections: 2,
            sources: 8,
            write_mix: 0.3,
            via_router: true,
            timeout_ms: 5000,
            ..LoadgenConfig::default()
        })
        .unwrap();
        assert_eq!(report.completed, 80);
        assert_eq!(report.errors, 0);
        assert!(report.writes > 5, "write mix active: {}", report.writes);
        // Every acked write's version was observed and audited: the highest
        // ack matches the backend session, and `min_version` reads (sent
        // after every ack) never saw an older non-stale response.
        assert_eq!(report.max_acked_version, session.version());
        assert_eq!(report.min_version_violations, 0);
        assert_eq!(report.stale, 0);
        handle_shutdown(router, backend);
    }

    /// Routed reads land on the replica, not on the primary that answers
    /// the router's own `stats`: the reported hit rate must come from the
    /// servers that did the work.
    #[test]
    fn via_router_reports_the_cluster_hit_rate() {
        let mut cluster = crate::router::tests::wire_cluster(1, |_, _| {});
        let router = crate::router::spawn(
            "127.0.0.1:0",
            crate::router::RouterConfig::new(cluster.backend_addrs()),
        )
        .unwrap();
        let report = run(&LoadgenConfig {
            addr: router.addr().to_string(),
            requests: 120,
            connections: 2,
            sources: 8,
            zipf_s: 1.2,
            via_router: true,
            timeout_ms: 5000,
            ..LoadgenConfig::default()
        })
        .unwrap();
        assert_eq!(report.completed, 120);
        assert_eq!(report.errors, 0);
        assert!(
            report.server_hit_rate > 0.3,
            "8 hot sources over 120 routed reads must mostly hit: {}",
            report.server_hit_rate
        );
        router.shutdown().unwrap();
        cluster.primary.take().unwrap().shutdown().unwrap();
        for r in cluster.replicas.drain(..) {
            r.shutdown().unwrap();
        }
    }

    fn handle_shutdown(router: crate::router::RouterHandle, backend: crate::server::ServerHandle) {
        router.shutdown().unwrap();
        backend.shutdown().unwrap();
    }
}

//! Dynamic-maintenance benchmark: emits `BENCH_dynamic.json`.
//!
//! Measures the OSP-style cache-upgrade path (DESIGN §13) against the
//! invalidate-everything baseline, in three phases:
//!
//! 1. **upgrade path** — real TCP server with `--dynamic-eps` on, driven
//!    by `loadgen` with a write mix (edge inserts) and a delete mix
//!    (`delete_node`, which purges the cache). Stale cache entries are
//!    upgraded in place instead of recomputed.
//! 2. **baseline** — the identical request stream (same loadgen seed)
//!    against a server with upgrades disabled: every post-write query
//!    pays full engine cost.
//! 3. **error accounting** — session-level chained upgrades across many
//!    mutation rounds, verified against fresh recomputes.
//!
//! Gates (hard asserts):
//! - **effective hit rate**: (hits + upgrades) / lookups on the upgrade
//!   server strictly exceeds hits / lookups on the baseline server, and
//!   at least one upgrade happened.
//! - **error bound**: every upgraded vector agrees with a fresh recompute
//!   to within its accumulated claim plus both engine approximations
//!   (triangle bound) at every node — the §13 contract.
//!
//! Env knobs for smoke runs: `RESACC_BENCH_DYNAMIC_NODES` (default 1500),
//! `RESACC_BENCH_DYNAMIC_REQUESTS` (default 400),
//! `RESACC_BENCH_DYNAMIC_ROUNDS` (default 24).
//!
//! Output follows the `customSmallerIsBetter` entry shape
//! (`{"name", "value", "unit"}`).

use resacc::RwrSession;
use resacc_bench::emit::{Entry, env_u64, write_entries};
use resacc_service::json::Json;
use resacc_service::loadgen::{self, LoadgenConfig, LoadgenReport};
use resacc_service::server::{spawn, ServerConfig, ServerHandle};
use resacc_testsuite::process::request;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DYNAMIC_EPS: f64 = 0.05;
const DYNAMIC_DELTA: f64 = 1e-4;
const WRITE_MIX: f64 = 0.15;
const DELETE_MIX: f64 = 0.02;
const PROBE_SEED: u64 = 4242;

/// Cache/upgrade counters scraped from the server's `stats` wire op.
struct CacheCounters {
    hits: u64,
    misses: u64,
    upgrades: u64,
    fallbacks: u64,
    invalidations: u64,
}

impl CacheCounters {
    fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
    /// Fraction of lookups answered without a full recompute.
    fn effective_rate(&self) -> f64 {
        (self.hits + self.upgrades) as f64 / self.lookups().max(1) as f64
    }
    fn plain_rate(&self) -> f64 {
        self.hits as f64 / self.lookups().max(1) as f64
    }
}

fn fetch_counters(addr: &str) -> CacheCounters {
    let response = request(addr, r#"{"id":999999,"op":"stats"}"#);
    let stats = response.get("stats").expect("stats object");
    let field = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
    CacheCounters {
        hits: field("cache_hits"),
        misses: field("cache_misses"),
        upgrades: field("cache_upgrades"),
        fallbacks: field("cache_upgrade_fallbacks"),
        invalidations: field("cache_invalidations"),
    }
}

fn start_server(session: Arc<RwrSession>, dynamic_eps: f64) -> ServerHandle {
    spawn(
        "127.0.0.1:0",
        session,
        ServerConfig {
            workers: 4,
            cache_capacity: 1024,
            batch_max: 32,
            default_k: 10,
            dynamic_eps,
            dynamic_delta: DYNAMIC_DELTA,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
}

/// Drives one mixed read/write/delete stream against a fresh server built
/// on a fresh copy of the same graph, and scrapes the cache counters
/// before shutdown. Identical `seed` ⇒ identical request streams across
/// phases.
fn run_phase(nodes: u64, requests: u64, dynamic_eps: f64) -> (LoadgenReport, CacheCounters) {
    let graph = resacc_graph::gen::barabasi_albert(nodes as usize, 3, 7);
    let server = start_server(Arc::new(RwrSession::new(graph)), dynamic_eps);
    let report = loadgen::run(&LoadgenConfig {
        addr: server.addr().to_string(),
        requests,
        connections: 4,
        zipf_s: 1.0,
        sources: 32,
        seed: 7,
        k: 10,
        write_mix: WRITE_MIX,
        delete_mix: DELETE_MIX,
        ..LoadgenConfig::default()
    })
    .expect("loadgen run");
    assert_eq!(report.errors, 0, "phase run must be clean");
    let counters = fetch_counters(&server.addr().to_string());
    server.shutdown().expect("shutdown phase server");
    (report, counters)
}

/// Deterministic edge batch for error-accounting round `i`.
fn round_edges(i: u64, n: u64) -> Vec<(u32, u32)> {
    let a = (i * 911 + 17) % n;
    let b = (i * 613 + 31) % n;
    let c = (i * 389 + 7) % n;
    vec![(a as u32, b as u32), (b as u32, c as u32)]
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_dynamic.json".into());
    let nodes = env_u64("RESACC_BENCH_DYNAMIC_NODES", 1_500);
    let requests = env_u64("RESACC_BENCH_DYNAMIC_REQUESTS", 400);
    let rounds = env_u64("RESACC_BENCH_DYNAMIC_ROUNDS", 24);

    // Phases 1 + 2: identical streams, upgrades on vs off.
    eprintln!(
        "phase 1: upgrade path ({requests} requests, write mix {WRITE_MIX}, delete mix {DELETE_MIX})…"
    );
    let (up_report, up_counters) = run_phase(nodes, requests, DYNAMIC_EPS);
    eprintln!(
        "  effective hit rate {:.1}% ({} hits + {} upgrades / {} lookups), {} fallbacks, {} invalidations, p99 {:.2} ms",
        up_counters.effective_rate() * 100.0,
        up_counters.hits,
        up_counters.upgrades,
        up_counters.lookups(),
        up_counters.fallbacks,
        up_counters.invalidations,
        up_report.p99_ms
    );
    eprintln!("phase 2: invalidate-everything baseline (same stream, upgrades off)…");
    let (base_report, base_counters) = run_phase(nodes, requests, 0.0);
    eprintln!(
        "  hit rate {:.1}% ({} hits / {} lookups), p99 {:.2} ms",
        base_counters.plain_rate() * 100.0,
        base_counters.hits,
        base_counters.lookups(),
        base_report.p99_ms
    );
    assert!(up_counters.upgrades > 0, "upgrade path never fired");
    assert_eq!(base_counters.upgrades, 0, "baseline must not upgrade");
    assert!(
        up_counters.effective_rate() > base_counters.plain_rate(),
        "upgrade path must beat the invalidate-everything baseline: {:.4} ≤ {:.4}",
        up_counters.effective_rate(),
        base_counters.plain_rate()
    );

    // Phase 3: chained upgrades vs fresh recomputes, per-node error gate.
    eprintln!("phase 3: error accounting over {rounds} mutation rounds…");
    let session = RwrSession::new(resacc_graph::gen::barabasi_albert(nodes as usize, 3, 11));
    let sources: [u32; 5] = [2, 5, 9, 14, 33];
    let mut maintained: Vec<(Vec<f64>, f64, u64)> = sources
        .iter()
        .map(|&s| (session.query(s, PROBE_SEED).scores, 0.0, session.version()))
        .collect();
    let mut upgrade_time = Duration::ZERO;
    let mut recompute_time = Duration::ZERO;
    let mut total_pushes = 0u64;
    for i in 0..rounds {
        session.insert_edges(&round_edges(i, nodes));
        if i % 3 == 2 {
            let e = round_edges(i, nodes)[0];
            session.delete_edges(&[e]);
        }
        for entry in maintained.iter_mut() {
            let start = Instant::now();
            let (up, at) = session
                .try_upgrade_scores(&entry.0, entry.2, DYNAMIC_DELTA)
                .expect("edge-level span upgrades");
            upgrade_time += start.elapsed();
            total_pushes += up.pushes;
            *entry = (up.scores, entry.1 + up.err_bound, at);
        }
        // One fresh recompute per round prices the alternative.
        let start = Instant::now();
        let _ = session.query(sources[(i % sources.len() as u64) as usize], PROBE_SEED);
        recompute_time += start.elapsed();
    }
    let params = session.params();
    let mut max_diff = 0.0f64;
    let mut max_claim = 0.0f64;
    for (&s, (scores, claim, at)) in sources.iter().zip(&maintained) {
        assert_eq!(*at, session.version(), "maintained entry is current");
        let fresh = session.query(s, PROBE_SEED).scores;
        for (t, (a, b)) in scores.iter().zip(&fresh).enumerate() {
            let tol = claim + params.epsilon * (b + a) + 2.0 * params.delta;
            let diff = (a - b).abs();
            assert!(
                diff <= tol,
                "source {s} node {t}: measured error {diff} exceeds claim {tol}"
            );
            max_diff = max_diff.max(diff);
        }
        max_claim = max_claim.max(*claim);
    }
    let upgrades_done = rounds * sources.len() as u64;
    let per_upgrade = upgrade_time.as_secs_f64() / upgrades_done.max(1) as f64;
    let per_recompute = recompute_time.as_secs_f64() / rounds.max(1) as f64;
    let speedup = per_recompute / per_upgrade.max(1e-12);
    eprintln!(
        "  {upgrades_done} upgrades ({total_pushes} pushes), {:.3} ms/upgrade vs {:.3} ms/recompute ({speedup:.1}×)",
        per_upgrade * 1e3,
        per_recompute * 1e3
    );
    eprintln!("  max measured error {max_diff:.3e} within max accumulated claim {max_claim:.3e}");

    let ms = 1e6;
    let entries = [
        Entry {
            name: "dynamic/effective hit rate (upgrade path)".into(),
            value: up_counters.effective_rate() * 100.0,
            unit: "%".into(),
        },
        Entry {
            name: "dynamic/hit rate (invalidate-everything baseline)".into(),
            value: base_counters.plain_rate() * 100.0,
            unit: "%".into(),
        },
        Entry {
            name: "dynamic/cache upgrades".into(),
            value: up_counters.upgrades as f64,
            unit: "count".into(),
        },
        Entry {
            name: "dynamic/upgrade fallbacks".into(),
            value: up_counters.fallbacks as f64,
            unit: "count".into(),
        },
        Entry {
            name: "dynamic/cache invalidations (delete_node purges)".into(),
            value: up_counters.invalidations as f64,
            unit: "count".into(),
        },
        Entry {
            name: "dynamic/p99 (upgrade path)".into(),
            value: up_report.p99_ms * ms,
            unit: "ns".into(),
        },
        Entry {
            name: "dynamic/p99 (baseline)".into(),
            value: base_report.p99_ms * ms,
            unit: "ns".into(),
        },
        Entry {
            name: "dynamic/time per upgrade".into(),
            value: per_upgrade * 1e9,
            unit: "ns".into(),
        },
        Entry {
            name: "dynamic/time per fresh recompute".into(),
            value: per_recompute * 1e9,
            unit: "ns".into(),
        },
        Entry {
            name: "dynamic/upgrade vs recompute speedup".into(),
            value: speedup,
            unit: "x".into(),
        },
        Entry {
            name: "dynamic/max measured error (vs fresh)".into(),
            value: max_diff,
            unit: "err".into(),
        },
        Entry {
            name: "dynamic/max accumulated claim".into(),
            value: max_claim,
            unit: "err".into(),
        },
    ];

    write_entries(&out_path, &entries);
}

//! Router resilience benchmark: emits machine-readable `BENCH_router.json`.
//!
//! Spawns a real replicated cluster — `rwr serve` child processes
//! (primary + replicas, real sockets, real SIGKILLs) — fronted by an
//! in-process [`resacc_service::router`], and drives
//! [`resacc_service::loadgen`] through the router while backends die:
//!
//! 1. **replica kill** — SIGKILL one of two replicas mid-read-stream.
//!    Hard gate: *zero* client-visible read errors (the breaker ejects
//!    the corpse, retries reroute within budget).
//! 2. **partition + primary kill** — one replica's replication link runs
//!    through a [`NetFault`] proxy. Mid-run the proxy partitions (the
//!    replica goes zombie: alive but not applying), then the primary is
//!    SIGKILLed, forcing the router's automated fence-aware failover
//!    onto the clean replica. Load is `via_router`: every write ack's
//!    version becomes the connection's `min_version` floor for later
//!    reads. Hard gates: zero read-your-writes violations, zero
//!    untyped errors, and zero acked-write loss — a post-run write on
//!    the promoted topology must land above every version acked to any
//!    client.
//! 3. **hedged reads** — one replica is spawned with a server-side
//!    chaos delay on every 2nd request id. The same read workload runs
//!    once with hedging disabled and once with quantile hedging. Hard
//!    gate: hedged p99 strictly below unhedged p99.
//!
//! The kill/partition points are progress-triggered (polling the
//! router's own `stats` counters), not timer-triggered, so the fault
//! always overlaps the load regardless of host speed.
//!
//! The cluster children are the compiled `rwr` binary, located next to
//! this benchmark in the target directory (override with
//! `RESACC_RWR_BIN`). Env knobs for smoke runs:
//! `RESACC_BENCH_ROUTER_REQUESTS` (default 400, phases 1–2) and
//! `RESACC_BENCH_ROUTER_HEDGE_REQUESTS` (default 300, phase 3).
//!
//! Output follows the `customSmallerIsBetter` entry shape
//! (`{"name", "value", "unit"}`); the zero-valued gate entries record
//! that the run would have aborted otherwise.

use resacc::replication::{NetFault, NetFaultPlan};
use resacc_bench::emit::{Entry, env_u64, write_entries};
use resacc_service::json::Json;
use resacc_service::loadgen::{self, LoadgenConfig, LoadgenReport};
use resacc_service::router::{spawn as spawn_router, RouterConfig, RouterHandle};
use resacc_testsuite::process::{request, rwr_bin, serve, wait_for, Proc, TempDir};
use std::net::TcpListener;
use std::path::Path;
use std::process::Command;

fn spawn_serve(graph: &Path, data_dir: &Path, extra: &[&str]) -> Proc {
    serve(Command::new(rwr_bin()), graph, data_dir, extra)
}

/// Requests the router has routed so far (reads + mutations) — the
/// progress signal that triggers kills at deterministic workload points.
fn routed_so_far(router_addr: &str) -> u64 {
    let stats = request(router_addr, r#"{"op":"stats"}"#);
    let rt = stats.get("router");
    let get = |k: &str| rt.and_then(|r| r.get(k)).and_then(Json::as_u64).unwrap_or(0);
    get("reads") + get("mutations")
}

/// Blocks until the router has routed at least `n` requests.
fn wait_routed(router_addr: &str, n: u64) {
    wait_for(&format!("{n} routed requests"), || {
        routed_so_far(router_addr) >= n
    });
}

fn loadgen_thread(config: LoadgenConfig) -> std::thread::JoinHandle<LoadgenReport> {
    std::thread::spawn(move || loadgen::run(&config).expect("loadgen run"))
}

fn router_over(backends: Vec<String>, tweak: impl FnOnce(&mut RouterConfig)) -> RouterHandle {
    let mut cfg = RouterConfig::new(backends);
    cfg.probe_interval_ms = 25;
    cfg.breaker_cooldown_ms = 100;
    cfg.retry_budget = 8;
    cfg.park_ms = 8_000;
    cfg.read_timeout_ms = 5_000;
    tweak(&mut cfg);
    spawn_router("127.0.0.1:0", cfg).expect("spawn router")
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_router.json".into());
    let requests = env_u64("RESACC_BENCH_ROUTER_REQUESTS", 400);
    let hedge_requests = env_u64("RESACC_BENCH_ROUTER_HEDGE_REQUESTS", 300);
    let dir = TempDir::new("bench-router");
    let graph_path = dir.join("g.txt");
    let graph = resacc_graph::gen::barabasi_albert(1500, 3, 7);
    resacc_graph::edgelist::save_edge_list(&graph, &graph_path).expect("write graph");
    eprintln!(
        "cluster graph: {} nodes / {} edges; rwr at {}",
        graph.num_nodes(),
        graph.num_edges(),
        rwr_bin().display()
    );
    let mut entries: Vec<Entry> = Vec::new();

    // ── Phase 1: replica SIGKILL under read load ─────────────────────
    eprintln!("phase 1: SIGKILL a replica mid-read-stream ({requests} reads)…");
    {
        let mut primary = spawn_serve(
            &graph_path,
            &dir.join("p1"),
            &["--replication-listen", "127.0.0.1:0"],
        );
        let repl = primary.repl_addr.clone().expect("primary repl addr");
        let mut r1 = spawn_serve(&graph_path, &dir.join("r1a"), &["--replicate-from", &repl]);
        let mut r2 = spawn_serve(&graph_path, &dir.join("r2a"), &["--replicate-from", &repl]);
        let router = router_over(
            vec![primary.addr.clone(), r1.addr.clone(), r2.addr.clone()],
            |_| {},
        );
        let load = loadgen_thread(LoadgenConfig {
            addr: router.addr().to_string(),
            requests,
            connections: 4,
            zipf_s: 1.0,
            sources: 64,
            seed: 7,
            per_request_seeds: true,
            k: 10,
            timeout_ms: 15_000,
            ..LoadgenConfig::default()
        });
        // SIGKILL one replica once a quarter of the stream has routed —
        // the rest of the reads run against the wounded pool.
        wait_routed(&router.addr().to_string(), requests / 4);
        r1.kill();
        eprintln!("  replica SIGKILLed at ~25% of the stream");
        let report = load.join().expect("loadgen thread");
        assert_eq!(
            report.errors, 0,
            "replica death must be invisible to read clients"
        );
        assert_eq!(report.completed, requests, "every read answered OK");
        eprintln!(
            "  ok: {} reads, 0 errors, p99 {:.2} ms",
            report.completed, report.p99_ms
        );
        entries.push(Entry {
            name: "router/read errors during replica kill".into(),
            value: report.errors as f64,
            unit: "count".into(),
        });
        entries.push(Entry {
            name: "router/read p99 during replica kill".into(),
            value: report.p99_ms * 1e6,
            unit: "ns".into(),
        });
        router.shutdown().ok();
        r2.kill();
        primary.kill();
    }

    // ── Phase 2: partition + primary SIGKILL under mixed load ────────
    eprintln!("phase 2: NetFault partition + primary SIGKILL under writes ({requests} requests)…");
    {
        let mut primary = spawn_serve(
            &graph_path,
            &dir.join("p2"),
            &["--replication-listen", "127.0.0.1:0"],
        );
        let repl = primary.repl_addr.clone().expect("primary repl addr");
        // r1 follows the primary through a partitionable proxy; r2's
        // link is clean (it will be the most-caught-up failover target).
        let fault = NetFault::spawn(
            TcpListener::bind("127.0.0.1:0").unwrap(),
            repl.clone(),
            NetFaultPlan::default(),
        )
        .expect("netfault proxy");
        let proxy_addr = fault.addr().to_string();
        let mut r1 = spawn_serve(
            &graph_path,
            &dir.join("r1b"),
            &["--replicate-from", &proxy_addr],
        );
        let mut r2 = spawn_serve(&graph_path, &dir.join("r2b"), &["--replicate-from", &repl]);
        let router = router_over(
            vec![primary.addr.clone(), r1.addr.clone(), r2.addr.clone()],
            |cfg| cfg.sync_ack_timeout_ms = 500,
        );
        let router_addr = router.addr().to_string();
        let load = loadgen_thread(LoadgenConfig {
            addr: router_addr.clone(),
            requests,
            connections: 2,
            zipf_s: 1.0,
            sources: 64,
            seed: 11,
            per_request_seeds: true,
            k: 10,
            write_mix: 0.3,
            chaos: true, // typed errors (in_doubt at the kill edge) are outcomes
            timeout_ms: 20_000,
            via_router: true,
            ..LoadgenConfig::default()
        });
        wait_routed(&router_addr, requests / 4);
        fault.partition();
        eprintln!("  replication link partitioned at ~25% (r1 goes zombie)");
        wait_routed(&router_addr, requests / 2);
        primary.kill();
        eprintln!("  primary SIGKILLed at ~50% — automated failover takes it from here");
        let report = load.join().expect("loadgen thread");
        assert_eq!(
            report.min_version_violations, 0,
            "read-your-writes must hold through partition + failover"
        );
        assert!(report.max_acked_version > 0, "writes were acked");
        assert_eq!(
            report.completed + report.errors,
            requests,
            "every request gets exactly one response"
        );
        let typed = report.shed
            + report.timeouts
            + report.panics
            + report.net_timeouts
            + report.unavailable
            + report.in_doubt;
        assert_eq!(report.errors, typed, "all chaos errors are typed");
        // Zero acked-write loss: a write on the promoted topology must
        // land strictly above every version any client was ever acked.
        let probe = request(
            &router_addr,
            r#"{"id":999991,"op":"insert_edges","edges":[[1,9]]}"#,
        );
        assert_eq!(
            probe.get("ok").and_then(Json::as_bool),
            Some(true),
            "post-failover write: {probe:?}"
        );
        let after = probe.get("version").and_then(Json::as_u64).unwrap();
        assert!(
            after > report.max_acked_version,
            "acked-write loss: promoted version {after} vs acked {}",
            report.max_acked_version
        );
        let stats = request(&router_addr, r#"{"op":"stats"}"#);
        let failovers = stats
            .get("router")
            .and_then(|r| r.get("failovers"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        assert!(failovers >= 1, "the router must have orchestrated a promote");
        eprintln!(
            "  ok: {} acked up to v{}, {} typed errors ({} in_doubt), {} failover(s), p99 {:.2} ms",
            report.completed, report.max_acked_version, report.errors, report.in_doubt,
            failovers, report.p99_ms
        );
        entries.push(Entry {
            name: "router/min_version violations under chaos".into(),
            value: report.min_version_violations as f64,
            unit: "count".into(),
        });
        entries.push(Entry {
            name: "router/acked writes lost across failover".into(),
            value: (after <= report.max_acked_version) as u64 as f64,
            unit: "count".into(),
        });
        entries.push(Entry {
            name: "router/untyped errors under chaos".into(),
            value: (report.errors - typed) as f64,
            unit: "count".into(),
        });
        entries.push(Entry {
            name: "router/request p99 across failover".into(),
            value: report.p99_ms * 1e6,
            unit: "ns".into(),
        });
        router.shutdown().ok();
        r1.kill();
        r2.kill();
        drop(fault);
    }

    // ── Phase 3: hedged reads vs a slow replica ──────────────────────
    eprintln!(
        "phase 3: hedged vs unhedged p99 with a slow replica ({hedge_requests} reads each)…"
    );
    {
        let mut primary = spawn_serve(
            &graph_path,
            &dir.join("p3"),
            &["--replication-listen", "127.0.0.1:0"],
        );
        let repl = primary.repl_addr.clone().expect("primary repl addr");
        // Every 2nd request id stalls 40 ms on r1 — r2 is the fast twin
        // the hedge races against.
        let mut r1 = spawn_serve(
            &graph_path,
            &dir.join("r1c"),
            &["--replicate-from", &repl, "--chaos", "delay=2:40"],
        );
        let mut r2 = spawn_serve(&graph_path, &dir.join("r2c"), &["--replicate-from", &repl]);
        let backends = vec![primary.addr.clone(), r1.addr.clone(), r2.addr.clone()];
        let read_load = |addr: String| LoadgenConfig {
            addr,
            requests: hedge_requests,
            connections: 2,
            zipf_s: 1.0,
            sources: 64,
            seed: 13,
            per_request_seeds: true,
            k: 10,
            timeout_ms: 15_000,
            ..LoadgenConfig::default()
        };
        let unhedged_router = router_over(backends.clone(), |cfg| cfg.hedge_quantile = 0.0);
        let unhedged = loadgen::run(&read_load(unhedged_router.addr().to_string()))
            .expect("unhedged loadgen");
        unhedged_router.shutdown().ok();
        let hedged_router = router_over(backends, |cfg| {
            cfg.hedge_quantile = 0.5;
            cfg.hedge_min_ms = 1;
        });
        let hedged =
            loadgen::run(&read_load(hedged_router.addr().to_string())).expect("hedged loadgen");
        let stats = request(&hedged_router.addr().to_string(), r#"{"op":"stats"}"#);
        let hedges = stats
            .get("router")
            .and_then(|r| r.get("hedges"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        hedged_router.shutdown().ok();
        assert_eq!(unhedged.errors, 0, "slow is not broken: unhedged reads all OK");
        assert_eq!(hedged.errors, 0, "hedged reads all OK");
        assert!(hedges > 0, "the slow replica must trigger hedges");
        assert!(
            hedged.p99_ms < unhedged.p99_ms,
            "hedging must beat the slow replica's tail: {:.2} ms vs {:.2} ms",
            hedged.p99_ms,
            unhedged.p99_ms
        );
        eprintln!(
            "  ok: p99 {:.2} ms unhedged → {:.2} ms hedged ({hedges} hedges fired)",
            unhedged.p99_ms, hedged.p99_ms
        );
        entries.push(Entry {
            name: "router/unhedged read p99 (slow replica)".into(),
            value: unhedged.p99_ms * 1e6,
            unit: "ns".into(),
        });
        entries.push(Entry {
            name: "router/hedged read p99 (slow replica)".into(),
            value: hedged.p99_ms * 1e6,
            unit: "ns".into(),
        });
        r1.kill();
        r2.kill();
        primary.kill();
    }

    write_entries(&out_path, &entries);
}

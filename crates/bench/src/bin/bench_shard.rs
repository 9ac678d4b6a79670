//! Tenant-sharding benchmark: emits machine-readable `BENCH_shard.json`.
//!
//! Spawns real `rwr serve` child processes fronted by an in-process
//! [`resacc_service::router`] shard router, and drives
//! [`resacc_service::loadgen`] with a four-tenant mix (`--namespaces 4
//! --write-mix 0.3`). Three phases, each with a hard gate:
//!
//! 1. **scale-out** — the same tenant workload runs once against a
//!    single primary hosting all four tenants, then against two
//!    primaries each hosting two (shard map `t0,t1=A`, `*=B`). Every
//!    primary meters mutations on the chaos commit gate
//!    (`--chaos cdelay=1:MS`): tenants on one node share one emulated
//!    commit device, exactly like they share a WAL disk, so commit
//!    bandwidth is per *process*. Hard gate: the sharded topology's
//!    aggregate mutation throughput is **≥ 1.8×** the single primary's —
//!    adding a primary must add commit bandwidth, not just move tenants.
//! 2. **cache isolation** — deterministic probe pairs against a primary
//!    hosting two tenants: warm a (source, seed) query on `t0`, issue
//!    the identical query on `t1`, re-issue on `t0`. Hard gates: *zero*
//!    cross-tenant cache hits (`t1` must always miss) and zero broken
//!    re-hits (`t0` must always hit — isolation is not "the cache is
//!    off").
//! 3. **per-shard kill + failover** — both shards get a replica
//!    (semi-sync acks). Mid-run, shard 1's primary is SIGKILLed; the
//!    router fails over that shard alone. Hard gates: zero
//!    read-your-writes violations, zero untyped errors, at least one
//!    failover, and zero acked-write loss **per tenant** — a post-run
//!    write on every tenant must land strictly above that tenant's
//!    highest acked version.
//!
//! The cluster children are the compiled `rwr` binary, located next to
//! this benchmark in the target directory (override with
//! `RESACC_RWR_BIN`). Env knobs for smoke runs:
//! `RESACC_BENCH_SHARD_REQUESTS` (default 400, phases 1 and 3),
//! `RESACC_BENCH_SHARD_COMMIT_MS` (default 10, phase 1's metered commit
//! latency) and `RESACC_BENCH_SHARD_PROBES` (default 16, phase 2).
//!
//! Output follows the `customSmallerIsBetter` entry shape
//! (`{"name", "value", "unit"}`); the zero-valued gate entries record
//! that the run would have aborted otherwise.

use resacc_bench::emit::{Entry, env_u64, write_entries};
use resacc_service::json::Json;
use resacc_service::loadgen::{self, LoadgenConfig, LoadgenReport};
use resacc_service::router::{spawn as spawn_router, RouterConfig, RouterHandle, ShardSpec};
use resacc_testsuite::process::{request, rwr_bin, serve, wait_for, Proc, TempDir};
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

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

fn shard_router(shards: Vec<ShardSpec>, tweak: impl FnOnce(&mut RouterConfig)) -> RouterHandle {
    let mut cfg = RouterConfig::new(Vec::new());
    cfg.shards = shards;
    cfg.probe_interval_ms = 25;
    cfg.breaker_cooldown_ms = 100;
    cfg.retry_budget = 8;
    cfg.park_ms = 8_000;
    cfg.read_timeout_ms = 5_000;
    tweak(&mut cfg);
    spawn_router("127.0.0.1:0", cfg).expect("spawn router")
}

/// The four-tenant mixed workload both phase-1 topologies run: uniform
/// tenant mix (so the two-shard split is load-balanced), 30% writes,
/// cache-defeating seeds.
fn tenant_load(addr: String, requests: u64, seed: u64, chaos: bool) -> LoadgenConfig {
    LoadgenConfig {
        addr,
        requests,
        connections: 16,
        zipf_s: 1.0,
        sources: 64,
        seed,
        per_request_seeds: true,
        k: 10,
        write_mix: 0.3,
        chaos,
        timeout_ms: 20_000,
        via_router: true,
        namespaces: 4,
        ns_skew: 0.0,
        ..LoadgenConfig::default()
    }
}

/// Aggregate mutation throughput a load run achieved.
fn mutation_tput(report: &LoadgenReport) -> f64 {
    report.writes as f64 / report.elapsed_secs.max(1e-9)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_shard.json".into());
    let requests = env_u64("RESACC_BENCH_SHARD_REQUESTS", 400);
    // Phase 1 runs 3× the request budget: the scale-out ratio's noise is
    // the binomial imbalance of the random tenant draw between the two
    // shards, which shrinks with the square root of the write count.
    let scale_requests = requests * 3;
    let commit_ms = env_u64("RESACC_BENCH_SHARD_COMMIT_MS", 10);
    // The write split between the two shards is a deterministic function
    // of the workload seed (fixed per-connection quotas); the default is
    // picked for a near-even split so the gate measures scaling, not the
    // luck of the tenant draw.
    let seed = env_u64("RESACC_BENCH_SHARD_SEED", 4);
    let probes = env_u64("RESACC_BENCH_SHARD_PROBES", 16);
    let dir = TempDir::new("bench-shard");
    let graph_path = dir.join("g.txt");
    let graph = resacc_graph::gen::barabasi_albert(200, 3, 7);
    resacc_graph::edgelist::save_edge_list(&graph, &graph_path).expect("write graph");
    eprintln!(
        "default graph: {} nodes / {} edges; rwr at {}; commit gate {commit_ms} ms",
        graph.num_nodes(),
        graph.num_edges(),
        rwr_bin().display()
    );
    let cdelay = format!("cdelay=1:{commit_ms}");
    let mut entries: Vec<Entry> = Vec::new();

    // ── Phase 1: mutation scale-out, 1 primary vs 2 ──────────────────
    eprintln!("phase 1: 4-tenant mutation throughput, 1 primary vs 2 ({scale_requests} requests each)…");
    let solo_tput = {
        let mut solo = spawn_serve(&graph_path, &dir.join("solo"), &["--chaos", &cdelay]);
        let spec = ShardSpec::parse(&format!("*={}", solo.addr)).unwrap();
        let router = shard_router(vec![spec], |cfg| cfg.sync_acks = false);
        let report = loadgen::run(&tenant_load(router.addr().to_string(), scale_requests, seed, false))
            .expect("solo loadgen");
        assert_eq!(report.errors, 0, "solo run must be clean");
        assert!(report.writes > 0, "the mix must contain writes");
        let tput = mutation_tput(&report);
        eprintln!(
            "  1 primary: {} writes in {:.2} s → {:.1} mutations/s",
            report.writes, report.elapsed_secs, tput
        );
        router.shutdown().ok();
        solo.kill();
        tput
    };
    let (sharded_tput, pa, pb) = {
        let pa = spawn_serve(&graph_path, &dir.join("pa"), &["--chaos", &cdelay]);
        let pb = spawn_serve(&graph_path, &dir.join("pb"), &["--chaos", &cdelay]);
        let shards = vec![
            ShardSpec::parse(&format!("t0,t1={}", pa.addr)).unwrap(),
            ShardSpec::parse(&format!("*={}", pb.addr)).unwrap(),
        ];
        let router = shard_router(shards, |cfg| cfg.sync_acks = false);
        let report = loadgen::run(&tenant_load(router.addr().to_string(), scale_requests, seed, false))
            .expect("sharded loadgen");
        assert_eq!(report.errors, 0, "sharded run must be clean");
        let tput = mutation_tput(&report);
        let acked: Vec<String> = report
            .max_acked_by_ns
            .iter()
            .map(|(ns, v)| format!("{ns}=v{v}"))
            .collect();
        eprintln!(
            "  2 primaries: {} writes in {:.2} s → {:.1} mutations/s ({})",
            report.writes,
            report.elapsed_secs,
            tput,
            acked.join(" ")
        );
        router.shutdown().ok();
        (tput, pa, pb)
    };
    let scaleout = sharded_tput / solo_tput.max(1e-9);
    assert!(
        scaleout >= 1.8,
        "sharding two primaries must scale mutation throughput ≥ 1.8×, got {scaleout:.2}×"
    );
    eprintln!("  ok: {scaleout:.2}× scale-out");
    entries.push(Entry {
        name: "shard/mutation scale-out shortfall (2 primaries vs 1, gate 1.8x)".into(),
        value: (1.8 - scaleout).max(0.0),
        unit: "x".into(),
    });
    entries.push(Entry {
        name: "shard/solo mutation latency equivalent".into(),
        value: 1e9 / solo_tput.max(1e-9),
        unit: "ns".into(),
    });
    entries.push(Entry {
        name: "shard/sharded mutation latency equivalent".into(),
        value: 1e9 / sharded_tput.max(1e-9),
        unit: "ns".into(),
    });

    // ── Phase 2: cross-tenant cache isolation probes ─────────────────
    eprintln!("phase 2: {probes} cross-tenant cache probe pairs on a shared primary…");
    {
        // `pa` still hosts t0 and t1 (seeded identically by phase 1's
        // loadgen): identical queries on the two tenants must never
        // share a cache entry.
        let mut cross_hits = 0u64;
        let mut broken_rehits = 0u64;
        for i in 0..probes {
            let source = i % 64;
            let seed = 5_000 + i;
            let q = |ns: &str| {
                let r = request(
                    &pa.addr,
                    &format!(
                        r#"{{"id":{i},"op":"query","namespace":"{ns}","source":{source},"seed":{seed},"k":8}}"#
                    ),
                );
                assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
                r.get("cached").and_then(Json::as_bool) == Some(true)
            };
            q("t0"); // warm t0's entry
            if q("t1") {
                cross_hits += 1; // t1 must compute its own answer
            }
            if !q("t0") {
                broken_rehits += 1; // t0 must still hit its own entry
            }
        }
        assert_eq!(cross_hits, 0, "cross-tenant cache hits");
        assert_eq!(broken_rehits, 0, "t0 re-probes must hit its own cache");
        eprintln!("  ok: 0 cross-tenant hits, 0 broken re-hits");
        entries.push(Entry {
            name: "shard/cross-tenant cache hits".into(),
            value: cross_hits as f64,
            unit: "count".into(),
        });
        drop(pa);
        drop(pb);
    }

    // ── Phase 3: per-shard SIGKILL + failover, zero acked loss ───────
    eprintln!("phase 3: SIGKILL shard 1's primary under tenant load ({requests} requests)…");
    {
        let mut pa = spawn_serve(
            &graph_path,
            &dir.join("p3a"),
            &["--replication-listen", "127.0.0.1:0"],
        );
        let ra_src = pa.repl_addr.clone().expect("pa repl addr");
        let mut ra = spawn_serve(&graph_path, &dir.join("r3a"), &["--replicate-from", &ra_src]);
        let mut pb = spawn_serve(
            &graph_path,
            &dir.join("p3b"),
            &["--replication-listen", "127.0.0.1:0"],
        );
        let rb_src = pb.repl_addr.clone().expect("pb repl addr");
        let mut rb = spawn_serve(&graph_path, &dir.join("r3b"), &["--replicate-from", &rb_src]);
        let shards = vec![
            ShardSpec::parse(&format!("t0,t1={},{}", pa.addr, ra.addr)).unwrap(),
            ShardSpec::parse(&format!("*={},{}", pb.addr, rb.addr)).unwrap(),
        ];
        let router = shard_router(shards, |cfg| cfg.sync_ack_timeout_ms = 3_000);
        let router_addr = router.addr().to_string();
        // Create the tenants up front and wait until each shard's replica
        // mirrors them — the failover target must know every tenant it is
        // about to lead.
        for ns in ["t0", "t1", "t2", "t3"] {
            let created = request(
                &router_addr,
                &format!(r#"{{"op":"create_namespace","namespace":"{ns}"}}"#),
            );
            assert_eq!(
                created.get("ok").and_then(Json::as_bool),
                Some(true),
                "create {ns}: {created:?}"
            );
        }
        for (replica, want) in [(&ra, ["t0", "t1"]), (&rb, ["t2", "t3"])] {
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let list = request(&replica.addr, r#"{"op":"list_namespaces"}"#).render();
                if want.iter().all(|ns| list.contains(ns)) {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "replica never mirrored {want:?}: {list}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        let load = std::thread::spawn({
            let config = tenant_load(router_addr.clone(), requests, 31, true);
            move || loadgen::run(&config).expect("loadgen run")
        });
        wait_routed(&router_addr, requests * 2 / 5);
        pa.kill();
        eprintln!("  shard 1's primary SIGKILLed at ~40% — failover is shard-local");
        let report = load.join().expect("loadgen thread");
        assert_eq!(
            report.min_version_violations, 0,
            "read-your-writes must hold per tenant through the shard failover"
        );
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
            + report.in_doubt
            + report.unknown_namespace
            + report.namespace_dropped;
        assert_eq!(report.errors, typed, "all chaos errors are typed");
        assert!(!report.max_acked_by_ns.is_empty(), "writes were acked");
        // Zero acked-write loss, tenant by tenant: a post-run write on
        // the surviving topology must land above that tenant's watermark.
        let mut lost = 0u64;
        for (ns, acked) in &report.max_acked_by_ns {
            if *acked == 0 {
                continue;
            }
            let deadline = Instant::now() + Duration::from_secs(30);
            let after = loop {
                let probe = request(
                    &router_addr,
                    &format!(r#"{{"op":"insert_edges","namespace":"{ns}","edges":[[0,1]]}}"#),
                );
                if probe.get("ok").and_then(Json::as_bool) == Some(true) {
                    break probe.get("version").and_then(Json::as_u64).unwrap();
                }
                assert!(
                    Instant::now() < deadline,
                    "tenant {ns} never writable after failover: {probe:?}"
                );
                std::thread::sleep(Duration::from_millis(100));
            };
            if after <= *acked {
                eprintln!("  LOST: tenant {ns} acked v{acked} but survivor is at v{after}");
                lost += 1;
            }
        }
        assert_eq!(lost, 0, "acked-write loss across per-shard failover");
        let stats = request(&router_addr, r#"{"op":"stats"}"#);
        let failovers = stats
            .get("router")
            .and_then(|r| r.get("failovers"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        assert!(failovers >= 1, "the router must have orchestrated a promote");
        eprintln!(
            "  ok: {} completed, {} typed errors, {} failover(s), {} tenants acked, 0 lost",
            report.completed,
            report.errors,
            failovers,
            report.max_acked_by_ns.len()
        );
        entries.push(Entry {
            name: "shard/acked writes lost across per-shard failover".into(),
            value: lost as f64,
            unit: "count".into(),
        });
        entries.push(Entry {
            name: "shard/min_version violations under shard failover".into(),
            value: report.min_version_violations as f64,
            unit: "count".into(),
        });
        entries.push(Entry {
            name: "shard/untyped errors under shard failover".into(),
            value: (report.errors - typed) as f64,
            unit: "count".into(),
        });
        entries.push(Entry {
            name: "shard/request p99 across shard failover".into(),
            value: report.p99_ms * 1e6,
            unit: "ns".into(),
        });
        router.shutdown().ok();
        ra.kill();
        pb.kill();
        rb.kill();
    }

    write_entries(&out_path, &entries);
}

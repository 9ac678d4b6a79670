//! Replication benchmark: emits `BENCH_replication.json`.
//!
//! Wires an in-process primary (durable [`resacc::RwrSession`] + hub +
//! [`ReplicationServer`] on loopback TCP) to replica sessions driven by
//! [`ReplicaClient`] — the same components `rwr serve` composes — and
//! measures three scenarios:
//!
//! 1. **steady state**: a replica is attached first, then the full
//!    mutation history streams through live. Reports write throughput
//!    under shipping, the maximum lag (records) a sampler observed on the
//!    primary, and the drain time from last write to full convergence.
//! 2. **catch-up from genesis**: a fresh replica joins a primary whose
//!    WAL still reaches version 1 — the whole history replays as RECORD
//!    frames.
//! 3. **catch-up from snapshot**: the primary snapshots periodically, so
//!    its WAL no longer reaches genesis and a fresh replica MUST
//!    bootstrap from the newest snapshot plus the WAL tail.
//!
//! Gates (hard asserts — the process exits nonzero on violation):
//! - **bit-identity**: after every scenario the replica answers the probe
//!   query bit-for-bit identically to the primary at the same version.
//! - **zero-loss**: every scenario converges to exactly the primary's
//!   version within `RESACC_BENCH_REPL_MAX_SECS` (default 120) seconds.
//! - **snapshot premise**: scenario 3's WAL really is compacted past
//!   genesis, so the snapshot path is the one being timed.
//!
//! Env knobs for smoke runs: `RESACC_BENCH_REPL_NODES` (default 2000),
//! `RESACC_BENCH_REPL_MUTATIONS` (default 2000),
//! `RESACC_BENCH_REPL_SNAPSHOT_EVERY` (default 256),
//! `RESACC_BENCH_REPL_MAX_SECS` (default 120).
//!
//! Output follows the `customSmallerIsBetter` entry shape
//! (`{"name", "value", "unit"}`).

use resacc::durability::{open_dir, DurabilityOptions};
use resacc::replication::{attach_hub, ReplicaClient, ReplicationHub, ReplicationServer, ReplicationStats};
use resacc::resacc::ResAccConfig;
use resacc::{RwrParams, RwrSession};
use resacc_bench::emit::{Entry, env_u64, write_entries};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PROBE_SOURCE: u32 = 3;
const PROBE_SEED: u64 = 77;

/// Same deterministic mutation mix as `bench_recovery`: edge-insert
/// batches with periodic edge and node deletions.
fn apply_nth(session: &RwrSession, i: u64, n: u64) {
    let a = (i * 911 + 17) % n;
    let b = (i * 613 + 31) % n;
    let c = (i * 389 + 7) % n;
    if i % 50 == 49 {
        session.delete_node(a as u32);
    } else if i % 17 == 16 {
        session.delete_edges(&[(a as u32, b as u32)]);
    } else {
        session.insert_edges(&[
            (a as u32, b as u32),
            (b as u32, c as u32),
            (c as u32, (a + 1) as u32 % n as u32),
        ]);
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("resacc-bench-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seed_graph(nodes: u64) -> resacc_graph::CsrGraph {
    resacc_graph::gen::barabasi_albert(nodes as usize, 3, 7)
}

/// Durable primary with hub, observer, and a loopback replication server.
fn wire_primary(
    dir: &Path,
    nodes: u64,
    snapshot_every: u64,
) -> (Arc<RwrSession>, ReplicationServer, Arc<ReplicationStats>) {
    let opts = DurabilityOptions {
        fsync: false,
        snapshot_every,
        ..Default::default()
    };
    let rec = open_dir(dir, opts, move || Ok(seed_graph(nodes))).expect("fresh dir opens");
    let params = RwrParams::for_graph(rec.graph.num_nodes());
    let mut session = RwrSession::from_recovered(rec, params, ResAccConfig::default());
    let hub = Arc::new(ReplicationHub::new(session.version()));
    attach_hub(&mut session, hub.clone());
    let session = Arc::new(session);
    let stats = Arc::new(ReplicationStats::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let server = ReplicationServer::spawn(listener, session.clone(), hub, stats.clone())
        .expect("replication server spawns");
    (session, server, stats)
}

fn wait_for_version(replica: &RwrSession, version: u64, max_secs: u64, what: &str) -> Duration {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(max_secs);
    while replica.version() < version {
        assert!(
            Instant::now() < deadline,
            "{what}: replica stuck at version {} waiting for {version} (gate: ≤ {max_secs} s)",
            replica.version()
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    start.elapsed()
}

/// The hard gate: a replica at the primary's version answers the probe
/// bit-for-bit identically.
fn assert_bit_identical(primary: &RwrSession, replica: &RwrSession, what: &str) {
    assert_eq!(primary.version(), replica.version(), "{what}: version skew");
    let p = primary.query(PROBE_SOURCE, PROBE_SEED).scores;
    let r = replica.query(PROBE_SOURCE, PROBE_SEED).scores;
    assert_eq!(p.len(), r.len(), "{what}: graph size diverged");
    for (i, (a, b)) in p.iter().zip(&r).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: scores[{i}] diverged — replication is not bit-exact"
        );
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_replication.json".into());
    let nodes = env_u64("RESACC_BENCH_REPL_NODES", 2_000);
    let mutations = env_u64("RESACC_BENCH_REPL_MUTATIONS", 2_000);
    let snapshot_every = env_u64("RESACC_BENCH_REPL_SNAPSHOT_EVERY", 256);
    let max_secs = env_u64("RESACC_BENCH_REPL_MAX_SECS", 120);
    eprintln!("history: {mutations} mutations on a {nodes}-node barabasi-albert graph");

    // Scenario 1: steady-state shipping — replica attached before load.
    let dir_live = fresh_dir("live");
    let (primary, server, pstats) = wire_primary(&dir_live, nodes, 0);
    let replica = Arc::new(RwrSession::new(seed_graph(nodes)));
    let rstats = Arc::new(ReplicationStats::default());
    let client = ReplicaClient::spawn(server.addr().to_string(), replica.clone(), rstats);
    let deadline = Instant::now() + Duration::from_secs(max_secs);
    while !client.connected() {
        assert!(Instant::now() < deadline, "replica never connected");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Sample the primary's view of the replica's lag during the load.
    let sampling = Arc::new(AtomicBool::new(true));
    let sampler = {
        let pstats = pstats.clone();
        let sampling = sampling.clone();
        std::thread::spawn(move || {
            let mut max_lag = 0u64;
            while sampling.load(Ordering::Relaxed) {
                max_lag = max_lag.max(pstats.lag_records.load(Ordering::Relaxed));
                std::thread::sleep(Duration::from_micros(500));
            }
            max_lag
        })
    };
    let start = Instant::now();
    for i in 0..mutations {
        apply_nth(&primary, i, nodes);
    }
    let write_time = start.elapsed();
    let drain_time = wait_for_version(&replica, primary.version(), max_secs, "steady state");
    sampling.store(false, Ordering::Relaxed);
    let max_lag = sampler.join().expect("sampler joins");
    assert_bit_identical(&primary, &replica, "steady state");
    let shipped = pstats.bytes_shipped.load(Ordering::Relaxed);
    eprintln!(
        "  steady state: {:.0} writes/s under shipping, max lag {max_lag} records, drained in {:.3} s ({} B shipped)",
        mutations as f64 / write_time.as_secs_f64().max(1e-12),
        drain_time.as_secs_f64(),
        shipped
    );
    client.shutdown();
    server.shutdown();

    // Scenario 2: fresh replica catches up from a genesis-complete WAL.
    let genesis_time = {
        let replica = Arc::new(RwrSession::new(seed_graph(nodes)));
        let rstats = Arc::new(ReplicationStats::default());
        let (_, server, _) = {
            // Reuse the live primary's data dir: snapshot_every=0 never
            // compacted it, so the WAL still reaches version 1.
            let scanned =
                resacc::durability::wal::scan(&dir_live.join("wal.log")).expect("wal scans");
            assert_eq!(
                scanned.records.first().map(|r| r.version),
                Some(1),
                "genesis premise: WAL must reach version 1"
            );
            let (p, s, st) = wire_primary(&dir_live, nodes, 0);
            assert_eq!(p.version(), mutations, "recovery restored the history");
            (p, s, st)
        };
        let client = ReplicaClient::spawn(server.addr().to_string(), replica.clone(), rstats);
        let t = wait_for_version(&replica, mutations, max_secs, "catch-up from genesis");
        eprintln!("  catch-up from genesis ({mutations} records): {:.3} s", t.as_secs_f64());
        client.shutdown();
        server.shutdown();
        t
    };

    // Scenario 3: snapshots compact the WAL — fresh replica must
    // bootstrap from the newest snapshot plus the tail.
    let snapshot_time = {
        let dir_snap = fresh_dir("snap");
        let (primary, server, _) = wire_primary(&dir_snap, nodes, snapshot_every);
        for i in 0..mutations {
            apply_nth(&primary, i, nodes);
        }
        let scanned =
            resacc::durability::wal::scan(&dir_snap.join("wal.log")).expect("wal scans");
        let first = scanned.records.first().map(|r| r.version).unwrap_or(u64::MAX);
        assert!(
            first > 1,
            "snapshot premise: WAL still reaches genesis (first record v{first}) — raise mutations or lower snapshot_every"
        );
        let replica = Arc::new(RwrSession::new(seed_graph(nodes)));
        let rstats = Arc::new(ReplicationStats::default());
        let client = ReplicaClient::spawn(server.addr().to_string(), replica.clone(), rstats);
        let t = wait_for_version(&replica, primary.version(), max_secs, "catch-up from snapshot");
        assert_bit_identical(&primary, &replica, "catch-up from snapshot");
        eprintln!(
            "  catch-up from snapshot (+≤{snapshot_every}-record tail): {:.3} s",
            t.as_secs_f64()
        );
        client.shutdown();
        server.shutdown();
        std::fs::remove_dir_all(&dir_snap).ok();
        t
    };

    let entries = [
        Entry {
            name: format!("replication/steady-state drain ({mutations} records)"),
            value: drain_time.as_nanos() as f64,
            unit: "ns".into(),
        },
        Entry {
            name: "replication/steady-state max lag".into(),
            value: max_lag as f64,
            unit: "records".into(),
        },
        Entry {
            name: "replication/write time under shipping".into(),
            value: write_time.as_nanos() as f64,
            unit: "ns".into(),
        },
        Entry {
            name: format!("replication/catch-up from genesis ({mutations} records)"),
            value: genesis_time.as_nanos() as f64,
            unit: "ns".into(),
        },
        Entry {
            name: format!("replication/catch-up from snapshot (≤{snapshot_every}-record tail)"),
            value: snapshot_time.as_nanos() as f64,
            unit: "ns".into(),
        },
        Entry {
            name: "replication/bit-identity violations".into(),
            value: 0.0, // hard-asserted above, recorded for the dashboard
            unit: "count".into(),
        },
    ];

    write_entries(&out_path, &entries);

    std::fs::remove_dir_all(&dir_live).ok();
}

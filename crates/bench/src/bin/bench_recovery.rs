//! Durability benchmark: emits `BENCH_recovery.json`.
//!
//! Drives a mutation history against a durable [`resacc::RwrSession`],
//! drops the process state without a checkpoint (the crash analogue: the
//! WAL is flushed on every append, so dropping the writer loses nothing a
//! SIGKILL would keep), and times three recovery scenarios:
//!
//! 1. **WAL replay**: no snapshots — every record replays.
//! 2. **snapshot + tail**: periodic snapshots — recovery loads the newest
//!    snapshot and replays only the short WAL tail.
//! 3. **torn tail**: garbage appended to the WAL — recovery truncates it
//!    and still restores every acknowledged mutation.
//!
//! Gates (hard asserts):
//! - **zero-loss**: every acknowledged mutation survives every scenario —
//!   recovered version equals the number of acknowledged mutations, and
//!   the recovered graph answers the probe query bit-identically to the
//!   pre-crash session.
//! - **torn-tail accounting**: exactly the garbage bytes are truncated.
//! - **recovery time**: each recovery completes within
//!   `RESACC_BENCH_RECOVERY_MAX_SECS` (default 60) wall-clock seconds.
//!
//! Env knobs for smoke runs: `RESACC_BENCH_RECOVERY_NODES` (default 2000),
//! `RESACC_BENCH_RECOVERY_MUTATIONS` (default 500),
//! `RESACC_BENCH_RECOVERY_SNAPSHOT_EVERY` (default 128),
//! `RESACC_BENCH_RECOVERY_MAX_SECS` (default 60).
//!
//! Output follows the `customSmallerIsBetter` entry shape
//! (`{"name", "value", "unit"}`).

use resacc::durability::{open_dir, DurabilityOptions, RecoveryStats};
use resacc::resacc::ResAccConfig;
use resacc::{RwrParams, RwrSession};
use resacc_bench::emit::{Entry, env_u64, write_entries};
use resacc_service::loadgen::{self, LoadgenConfig};
use resacc_service::{spawn, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PROBE_SOURCE: u32 = 3;
const PROBE_SEED: u64 = 77;

/// Applies mutation `i` of a deterministic history: edge-insert batches
/// with periodic edge deletions and node deletions (every deleted node is
/// later resurrected by an insert, exercising the §11 contract).
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
    let dir = std::env::temp_dir().join(format!("resacc-bench-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds the durable session, applies the history, returns the probe
/// answer and the mutation wall time. The session is dropped without a
/// checkpoint, so recovery must rebuild from the data dir alone.
fn run_history(dir: &Path, opts: DurabilityOptions, nodes: u64, mutations: u64) -> (Vec<f64>, Duration) {
    let base = move || Ok(resacc_graph::gen::barabasi_albert(nodes as usize, 3, 7));
    let rec = open_dir(dir, opts, base).expect("fresh dir opens");
    let params = RwrParams::for_graph(rec.graph.num_nodes());
    let session = RwrSession::from_recovered(rec, params, ResAccConfig::default());
    let start = Instant::now();
    for i in 0..mutations {
        apply_nth(&session, i, nodes);
    }
    let elapsed = start.elapsed();
    assert_eq!(session.version(), mutations, "every mutation acknowledged");
    (session.query(PROBE_SOURCE, PROBE_SEED).scores, elapsed)
}

/// Times one recovery of `dir` and enforces the zero-loss gate against
/// the pre-crash probe answer. Returns the recovery stats of that open
/// (captured *before* the open itself repairs the log — a second open
/// would see an already-clean tail).
fn timed_recovery(
    dir: &Path,
    opts: DurabilityOptions,
    nodes: u64,
    expected_version: u64,
    expected_scores: &[f64],
) -> (RecoveryStats, Duration) {
    let base = move || Ok(resacc_graph::gen::barabasi_albert(nodes as usize, 3, 7));
    let start = Instant::now();
    let rec = open_dir(dir, opts, base).expect("recovery never fails on a valid dir");
    let elapsed = start.elapsed();
    assert_eq!(rec.version, expected_version, "zero-loss: version");
    let stats = rec.stats;
    let params = RwrParams::for_graph(rec.graph.num_nodes());
    let session = RwrSession::from_recovered(rec, params, ResAccConfig::default());
    let scores = session.query(PROBE_SOURCE, PROBE_SEED).scores;
    assert_eq!(scores.len(), expected_scores.len(), "zero-loss: graph size");
    for (i, (s, t)) in scores.iter().zip(expected_scores).enumerate() {
        assert_eq!(s.to_bits(), t.to_bits(), "zero-loss: scores[{i}] differs");
    }
    (stats, elapsed)
}

/// One `loadgen --write-mix 0.5` run against a durable event-backend
/// server with the given group-commit policy. Returns (end-to-end write
/// throughput in writes/s, choke-point write throughput in writes/s,
/// acked writes, fsynced batches). The choke-point figure is writes per
/// second of serialized WAL commit time (append + fsync) — the capacity
/// group commit multiplies; end-to-end wall time also pays the query
/// half of the mix and the per-request CPU this host can spare, so it
/// understates the gain wherever cores are scarce. Enforces the
/// zero-acked-loss gate: after a drain shutdown the data dir reopens at
/// exactly the acked write count, whatever the batching policy did.
fn write_mix_run(
    tag: &str,
    nodes: u64,
    requests: u64,
    connections: usize,
    group_commit: bool,
    window_ms: u64,
) -> (f64, f64, u64, u64) {
    let dir = fresh_dir(tag);
    // fsync ON: this scenario measures exactly the disk-barrier cost the
    // recovery scenarios above deliberately exclude. A small window lets
    // the leader collect the full executor pool's worth of followers —
    // natural batching alone (window 0) only coalesces what queued while
    // the previous fsync ran, which a slow or busy host undercuts.
    let opts = DurabilityOptions {
        fsync: true,
        snapshot_every: 0,
        group_commit,
        group_commit_window_ms: window_ms,
    };
    let base = move || Ok(resacc_graph::gen::barabasi_albert(nodes as usize, 3, 7));
    let rec = open_dir(&dir, opts, base).expect("fresh dir opens");
    let params = RwrParams::for_graph(rec.graph.num_nodes());
    let session = Arc::new(RwrSession::from_recovered(rec, params, ResAccConfig::default()));
    // Executor-pool size bounds the in-flight mutations a batch can
    // coalesce, so give the leader enough concurrent followers.
    let handle = spawn(
        "127.0.0.1:0",
        session.clone(),
        ServerConfig {
            workers: 16,
            max_conns: connections + 8,
            ..ServerConfig::default()
        },
    )
    .expect("server spawns");
    let report = loadgen::run(&LoadgenConfig {
        addr: handle.addr().to_string(),
        requests,
        connections,
        write_mix: 0.5,
        ..LoadgenConfig::default()
    })
    .expect("loadgen run");
    assert_eq!(report.errors, 0, "write-mix run must be error-free");
    assert!(report.writes > 0, "write mix produced no mutations");
    let store = session.durability().expect("durable session");
    let batches = store.batches_committed();
    let commit_nanos = store.commit_nanos();
    assert!(commit_nanos > 0, "WAL commit path never timed");
    let acked = session.version();
    assert_eq!(acked, report.writes, "every acked write is a version bump");
    handle.shutdown().expect("clean drain");
    drop(session);

    // Zero-acked-loss gate: the dir reopens at exactly the acked count.
    let rec = open_dir(&dir, opts, move || {
        Ok(resacc_graph::gen::barabasi_albert(nodes as usize, 3, 7))
    })
    .expect("reopen after drain");
    assert_eq!(
        rec.version, acked,
        "zero-acked-loss: recovered version != acked writes"
    );
    std::fs::remove_dir_all(&dir).ok();
    (
        report.writes as f64 / report.elapsed_secs.max(1e-9),
        report.writes as f64 * 1e9 / commit_nanos as f64,
        report.writes,
        batches,
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_recovery.json".into());
    let nodes = env_u64("RESACC_BENCH_RECOVERY_NODES", 2_000);
    let mutations = env_u64("RESACC_BENCH_RECOVERY_MUTATIONS", 500);
    let snapshot_every = env_u64("RESACC_BENCH_RECOVERY_SNAPSHOT_EVERY", 128);
    let max_secs = env_u64("RESACC_BENCH_RECOVERY_MAX_SECS", 60);
    // fsync off: the bench measures recovery, not disk-barrier latency,
    // and flush-without-fsync already survives SIGKILL (just not power loss).
    let wal_only = DurabilityOptions {
        fsync: false,
        snapshot_every: 0, ..Default::default()
    };
    let snapshotted = DurabilityOptions {
        fsync: false,
        snapshot_every,
        ..Default::default()
    };
    eprintln!(
        "history: {mutations} mutations on a {nodes}-node barabasi-albert graph"
    );

    // Scenario 1: WAL-only replay.
    let dir_wal = fresh_dir("wal");
    let (expected, mutate_time) = run_history(&dir_wal, wal_only, nodes, mutations);
    eprintln!(
        "  mutations applied in {:.3} s ({:.0}/s)",
        mutate_time.as_secs_f64(),
        mutations as f64 / mutate_time.as_secs_f64().max(1e-12)
    );
    let (rec_stats, wal_replay_time) = timed_recovery(&dir_wal, wal_only, nodes, mutations, &expected);
    assert_eq!(rec_stats.wal_records_replayed, mutations);
    assert_eq!(rec_stats.wal_truncated_bytes, 0);
    assert_eq!(rec_stats.snapshots_loaded, 0);
    eprintln!(
        "  WAL replay of {mutations} records: {:.3} s",
        wal_replay_time.as_secs_f64()
    );

    // Scenario 2: snapshot + short tail.
    let dir_snap = fresh_dir("snap");
    let (expected_snap, _) = run_history(&dir_snap, snapshotted, nodes, mutations);
    let (snap_stats, snap_time) = timed_recovery(&dir_snap, snapshotted, nodes, mutations, &expected_snap);
    let tail = snap_stats.wal_records_replayed;
    assert!(
        tail <= mutations.min(snapshot_every),
        "snapshot must bound the replay tail ({tail} > {snapshot_every})"
    );
    assert_eq!(snap_stats.snapshots_loaded, 1);
    eprintln!(
        "  snapshot + {tail}-record tail: {:.3} s",
        snap_time.as_secs_f64()
    );

    // Scenario 3: torn tail — garbage appended to the WAL-only log.
    let garbage = vec![0xABu8; 12_345];
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir_wal.join("wal.log"))
            .expect("wal.log exists");
        f.write_all(&garbage).unwrap();
    }
    let (torn_stats, torn_time) = timed_recovery(&dir_wal, wal_only, nodes, mutations, &expected);
    assert_eq!(
        torn_stats.wal_truncated_bytes,
        garbage.len() as u64,
        "exactly the garbage bytes are truncated"
    );
    assert_eq!(torn_stats.wal_records_replayed, mutations);
    eprintln!(
        "  torn-tail recovery ({} B truncated): {:.3} s",
        garbage.len(),
        torn_time.as_secs_f64()
    );

    // Scenario 4: group commit vs per-mutation fsync under a live
    // `loadgen --write-mix 0.5` against the event-backend server. A tiny
    // graph keeps query cost negligible so the disk barrier dominates —
    // the quantity under test is the fsync schedule, not the engine.
    let gc_nodes = env_u64("RESACC_BENCH_RECOVERY_GC_NODES", 128);
    let gc_requests = env_u64("RESACC_BENCH_RECOVERY_GC_REQUESTS", 2_000);
    let gc_conns = env_u64("RESACC_BENCH_RECOVERY_GC_CONNECTIONS", 32) as usize;
    let gc_min_ratio = env_u64("RESACC_BENCH_RECOVERY_GC_MIN_RATIO", 3) as f64;
    let gc_window = env_u64("RESACC_BENCH_RECOVERY_GC_WINDOW_MS", 2);
    let (e2e_single, tput_single, writes_single, _) =
        write_mix_run("gc-off", gc_nodes, gc_requests, gc_conns, false, 0);
    eprintln!(
        "  write-mix 0.5, per-mutation fsync: {writes_single} writes, \
         choke point {tput_single:.0}/s, end-to-end {e2e_single:.0}/s"
    );
    let (e2e_group, tput_group, writes_group, gc_batches) =
        write_mix_run("gc-on", gc_nodes, gc_requests, gc_conns, true, gc_window);
    let gc_ratio = tput_group / tput_single.max(1e-9);
    eprintln!(
        "  write-mix 0.5, group commit: {writes_group} writes in {gc_batches} batches, \
         choke point {tput_group:.0}/s ({gc_ratio:.1}x), end-to-end {e2e_group:.0}/s \
         ({:.1}x)",
        e2e_group / e2e_single.max(1e-9)
    );

    let entries = [
        Entry {
            name: format!("recovery/WAL replay ({mutations} records)"),
            value: wal_replay_time.as_nanos() as f64,
            unit: "ns".into(),
        },
        Entry {
            name: format!("recovery/snapshot + tail (≤{snapshot_every} records)"),
            value: snap_time.as_nanos() as f64,
            unit: "ns".into(),
        },
        Entry {
            name: "recovery/torn-tail replay".into(),
            value: torn_time.as_nanos() as f64,
            unit: "ns".into(),
        },
        Entry {
            name: "recovery/mutation apply+log time".into(),
            value: mutate_time.as_nanos() as f64,
            unit: "ns".into(),
        },
        Entry {
            name: "recovery/tail records after snapshot".into(),
            value: tail as f64,
            unit: "count".into(),
        },
        Entry {
            name: "recovery/acknowledged mutations lost".into(),
            value: 0.0, // hard-asserted above, recorded for the dashboard
            unit: "count".into(),
        },
        // Smaller-is-better dashboard shape: report the group-commit gain
        // as per-write commit latency so an improvement shows as a drop.
        Entry {
            name: "recovery/write-mix 0.5 WAL-commit ns per write (per-mutation fsync)".into(),
            value: 1e9 / tput_single.max(1e-9),
            unit: "ns".into(),
        },
        Entry {
            name: "recovery/write-mix 0.5 WAL-commit ns per write (group commit)".into(),
            value: 1e9 / tput_group.max(1e-9),
            unit: "ns".into(),
        },
        Entry {
            name: "recovery/write-mix 0.5 wall ns per write (per-mutation fsync)".into(),
            value: 1e9 / e2e_single.max(1e-9),
            unit: "ns".into(),
        },
        Entry {
            name: "recovery/write-mix 0.5 wall ns per write (group commit)".into(),
            value: 1e9 / e2e_group.max(1e-9),
            unit: "ns".into(),
        },
        Entry {
            name: "recovery/group-commit fsynced batches".into(),
            value: gc_batches as f64,
            unit: "count".into(),
        },
    ];

    write_entries(&out_path, &entries);

    for (label, t) in [
        ("WAL replay", wal_replay_time),
        ("snapshot + tail", snap_time),
        ("torn tail", torn_time),
    ] {
        assert!(
            t <= Duration::from_secs(max_secs),
            "{label} recovery took {:.1} s (gate: ≤ {max_secs} s)",
            t.as_secs_f64()
        );
    }
    assert!(
        gc_ratio >= gc_min_ratio,
        "group commit gained only {gc_ratio:.2}x mutation throughput through the \
         WAL commit path over per-mutation fsync (gate: ≥ {gc_min_ratio}x)"
    );

    std::fs::remove_dir_all(&dir_wal).ok();
    std::fs::remove_dir_all(&dir_snap).ok();
}

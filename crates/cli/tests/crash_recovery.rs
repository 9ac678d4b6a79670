//! Crash-fault injection harness: spawn the compiled `rwr serve` binary
//! with `RESACC_CRASH_POINT` armed, SIGKILL it at a deterministic on-disk
//! state, restart it on the same `--data-dir`, and assert that recovery
//! is exact — every acknowledged mutation survives, and the recovered
//! graph answers SSRWR queries bit-identically to a never-crashed replay.
//!
//! Crash points (see `resacc::durability`):
//! - `wal-mid-append`: half a WAL record on disk → torn tail truncated,
//!   the in-flight (unacknowledged) mutation is lost.
//! - `wal-pre-apply`: record fsync'd but never applied or acknowledged →
//!   replayed on recovery (acknowledged-durable allows extra survivors,
//!   never missing ones).
//! - `snap-mid-rename`: snapshot temp file written but never renamed →
//!   ignored and cleaned up; the WAL still covers everything.
//! - `wal-group-pre-fsync`: the group-commit batch write tears partway
//!   through its first record and the shared fsync never runs → recovery
//!   truncates back to the exact acked prefix.
//! - `wal-group-post-fsync`: the whole batch is durable but no caller in
//!   it was acked → recovery replays it (durable-but-unacked may survive;
//!   acked-but-not-durable never may).
//!
//! The group-commit tests drive mutations sequentially, so each batch
//! holds one record — that pins the ack/recovery contract end-to-end
//! through the real binary; multi-record batch assembly, rollback, and
//! torn-tail recovery are covered by the `resacc` WAL unit tests.

use resacc_testsuite::process::{call, connect, serve, Proc, TempDir};
use std::path::Path;
use std::process::Command;

/// The fixed mutation history every test drives, as NDJSON requests.
fn mutation_lines() -> Vec<String> {
    vec![
        r#"{"id":1,"op":"insert_edges","edges":[[0,299],[5,6]]}"#.into(),
        r#"{"id":2,"op":"delete_node","node":7}"#.into(),
        r#"{"id":3,"op":"insert_edges","edges":[[7,3],[9,11]]}"#.into(),
        r#"{"id":4,"op":"delete_edges","edges":[[0,299]]}"#.into(),
        r#"{"id":5,"op":"insert_edges","edges":[[42,43],[44,45]]}"#.into(),
    ]
}

/// Applies mutation `i` of the same history to an in-process session.
fn apply_nth(session: &resacc::RwrSession, i: usize) {
    match i {
        0 => session.insert_edges(&[(0, 299), (5, 6)]),
        1 => session.delete_node(7),
        2 => session.insert_edges(&[(7, 3), (9, 11)]),
        3 => session.delete_edges(&[(0, 299)]),
        4 => session.insert_edges(&[(42, 43), (44, 45)]),
        _ => unreachable!(),
    };
}

/// The never-crashed ground truth: same graph, params, history prefix, and
/// seed, computed in-process. The recovered server must match bit-for-bit.
fn ground_truth(graph_path: &Path, mutations: u64, source: u32, seed: u64) -> Vec<f64> {
    let graph = resacc_graph::edgelist::load_edge_list(graph_path, None, false).unwrap();
    let n = graph.num_nodes().max(2) as f64;
    let params = resacc::RwrParams::new(0.2, 0.5, 1.0 / n, 1.0 / n);
    let session = resacc::RwrSession::with_config(
        graph,
        params,
        resacc::resacc::ResAccConfig::default(),
    );
    for i in 0..mutations as usize {
        apply_nth(&session, i);
    }
    session.query(source, seed).scores
}

/// `rwr serve` with a snapshot cadence, armed at `crash_spec` when given.
fn spawn_serve(
    graph: &Path,
    data_dir: &Path,
    snapshot_every: &str,
    crash_spec: Option<&str>,
    extra_args: &[&str],
) -> Proc {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rwr"));
    if let Some(spec) = crash_spec {
        cmd.env("RESACC_CRASH_POINT", spec);
    }
    let mut extra = vec!["--snapshot-every", snapshot_every];
    extra.extend_from_slice(extra_args);
    serve(cmd, graph, data_dir, &extra)
}

/// Streams the mutation history at the armed server until the crash point
/// fires; returns how many mutations were *acknowledged* before the crash.
fn mutate_until_crash(server: &Proc, point: &str) -> u64 {
    let mut conn = connect(&server.addr);
    let marker = format!("CRASH_POINT {point}");
    let mut acked = 0u64;
    for line in mutation_lines() {
        let Some(r) = server.reply_or_marker(&mut conn, &line, &marker) else {
            return acked;
        };
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        acked = r.get("version").unwrap().as_u64().unwrap();
    }
    panic!("crash point {point} never fired over the full history")
}

/// The shared scenario: crash at `crash_spec`, restart, verify.
///
/// `expected_acked` mutations get acknowledgements before the crash;
/// `expected_survivors` must be recovered (>= acked: an acknowledged
/// mutation may NEVER be lost, an unacknowledged-but-durable one may
/// legitimately survive).
fn crash_and_recover(
    tag: &str,
    crash_spec: &str,
    snapshot_every: &str,
    expected_acked: u64,
    expected_survivors: u64,
    expect_truncation: bool,
) {
    crash_and_recover_with(
        tag,
        crash_spec,
        snapshot_every,
        expected_acked,
        expected_survivors,
        expect_truncation,
        &[],
    );
}

fn crash_and_recover_with(
    tag: &str,
    crash_spec: &str,
    snapshot_every: &str,
    expected_acked: u64,
    expected_survivors: u64,
    expect_truncation: bool,
    extra_args: &[&str],
) {
    let dir = TempDir::new(&format!("crash-{tag}"));
    let graph = dir.graph(300, 3, 7);
    let data = dir.join("data");
    let point = crash_spec.split(':').next().unwrap();

    // Lifetime 1: armed. Stream mutations until the crash point parks the
    // handler, then SIGKILL — no destructor, flush, or fsync runs.
    let mut server = spawn_serve(&graph, &data, snapshot_every, Some(crash_spec), extra_args);
    let acked = mutate_until_crash(&server, point);
    assert_eq!(acked, expected_acked, "acks before the crash");
    server.kill();

    // Lifetime 2: recover. The banner must report what happened.
    let mut server = spawn_serve(&graph, &data, snapshot_every, None, extra_args);
    assert!(
        server.banner.iter().any(|l| l.starts_with("# recovered version")),
        "missing recovery banner: {:?}",
        server.banner
    );
    let mut conn = connect(&server.addr);
    let s = call(&mut conn, r#"{"op":"stats"}"#);
    assert_eq!(
        s.get("version").unwrap().as_u64(),
        Some(expected_survivors),
        "recovered version"
    );
    assert!(
        expected_survivors >= acked,
        "an acknowledged mutation was lost"
    );
    let stats = s.get("stats").unwrap();
    assert_eq!(
        stats.get("wal_records_replayed").unwrap().as_u64(),
        Some(expected_survivors),
        "no snapshot was completed, so every survivor comes from the WAL"
    );
    let truncated = stats.get("wal_truncated_bytes").unwrap().as_u64().unwrap();
    if expect_truncation {
        assert!(truncated > 0, "torn tail must be counted");
    } else {
        assert_eq!(truncated, 0, "nothing to truncate at this crash point");
    }

    // No snapshot temp leftovers survive recovery.
    for entry in std::fs::read_dir(&data).unwrap() {
        let name = entry.unwrap().file_name();
        assert!(
            !name.to_string_lossy().ends_with(".tmp"),
            "leftover temp file {name:?}"
        );
    }

    // The recovered graph answers bit-identically to a never-crashed
    // in-process replay of the surviving history prefix.
    let r = call(
        &mut conn,
        r#"{"id":9,"op":"query","source":3,"seed":77,"full":true}"#,
    );
    assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
    let served: Vec<f64> = r
        .get("scores")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    let truth = ground_truth(&graph, expected_survivors, 3, 77);
    assert_eq!(served.len(), truth.len(), "recovered graph size");
    for (i, (s, t)) in served.iter().zip(&truth).enumerate() {
        assert_eq!(s.to_bits(), t.to_bits(), "node {i}: served != ground truth");
    }

    let bye = call(&mut conn, r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok").unwrap().as_bool(), Some(true));
    drop(conn);
    assert!(server.wait().success());
}

/// Crash with half of record 3 on disk: mutations 1–2 survive, the torn
/// tail is truncated and counted.
#[test]
fn sigkill_mid_wal_append_truncates_the_torn_tail() {
    crash_and_recover("mid-append", "wal-mid-append:3", "0", 2, 2, true);
}

/// Crash after record 4 is fsync'd but before it is applied or
/// acknowledged: all four records replay (durable > acknowledged).
#[test]
fn sigkill_between_append_and_apply_replays_the_durable_record() {
    crash_and_recover("pre-apply", "wal-pre-apply:4", "0", 3, 4, false);
}

/// Crash mid-snapshot-rename (snapshot every 2 mutations, so it fires
/// inside mutation 2): the temp file is ignored, the WAL covers both
/// records, and the unacknowledged-but-durable mutation 2 survives.
#[test]
fn sigkill_mid_snapshot_rename_falls_back_to_the_wal() {
    crash_and_recover("mid-rename", "snap-mid-rename:1", "2", 1, 2, false);
}

/// Group commit, crash with half of batch 3's first record on disk and
/// the shared fsync never run: recovery truncates the torn tail back to
/// the exact acked prefix (mutations 1–2), losing only the unacked batch.
#[test]
fn sigkill_group_commit_pre_fsync_recovers_the_exact_acked_prefix() {
    crash_and_recover_with(
        "group-pre-fsync",
        "wal-group-pre-fsync:3",
        "0",
        2,
        2,
        true,
        &["--group-commit-window", "0"],
    );
}

/// Group commit, crash after batch 4 is written and fsync'd but before
/// the leader applies it or releases any ack: the whole durable batch
/// replays on recovery (durable-but-unacked survives; nothing acked is
/// ever lost).
#[test]
fn sigkill_group_commit_post_fsync_replays_the_durable_batch() {
    crash_and_recover_with(
        "group-post-fsync",
        "wal-group-post-fsync:4",
        "0",
        3,
        4,
        false,
        &["--group-commit-window", "0"],
    );
}

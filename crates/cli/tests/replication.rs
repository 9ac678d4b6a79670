//! Multi-process replication tests: spawn the compiled `rwr` binary as a
//! primary (with `--replication-listen`) and a replica (with
//! `--replicate-from`), drive mutations over NDJSON, and assert the
//! tentpole contract end to end:
//!
//! * a replica at applied version `v` answers SSRWR queries bit-identically
//!   to the primary at `v` (same seed/params);
//! * mutations against a replica are rejected with the typed `read_only`
//!   error naming the primary;
//! * SIGKILL of the primary followed by `rwr promote` loses no
//!   acknowledged mutation, and the promoted replica is writable with a
//!   monotonic version;
//! * a replica SIGKILLed at the `repl-post-append` / `repl-pre-ack` crash
//!   points (durably applied but unacknowledged state) reconverges after
//!   restart with nothing lost and nothing double-applied.

use resacc_service::client::Conn;
use resacc_service::json::Json;
use resacc_testsuite::process::{call, connect, request, serve, wait_for, Proc, TempDir};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

fn rwr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rwr"))
}

/// `rwr serve`, armed at `crash_spec` when given.
fn spawn_serve(graph: &Path, data_dir: &Path, extra: &[&str], crash_spec: Option<&str>) -> Proc {
    let mut cmd = rwr();
    if let Some(spec) = crash_spec {
        cmd.env("RESACC_CRASH_POINT", spec);
    }
    serve(cmd, graph, data_dir, extra)
}

fn version_of(addr: &str) -> u64 {
    request(addr, r#"{"op":"stats"}"#)
        .get("version")
        .and_then(Json::as_u64)
        .unwrap()
}

fn wait_for_version(addr: &str, version: u64) {
    wait_for(&format!("{addr} to reach version {version}"), || {
        version_of(addr) >= version
    });
}

/// Full score vector as bit patterns — the cross-process identity check.
fn query_bits(addr: &str, source: u32, seed: u64) -> Vec<u64> {
    let r = request(
        addr,
        &format!(r#"{{"id":9,"op":"query","source":{source},"seed":{seed},"full":true}}"#),
    );
    assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
    r.get("scores")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap().to_bits())
        .collect()
}

fn mutate(addr: &str, conn: &mut Conn, i: u64) -> u64 {
    let line = match i % 3 {
        0 => format!(
            r#"{{"id":{i},"op":"insert_edges","edges":[[{},{}]]}}"#,
            i % 300,
            (i * 7 + 1) % 300
        ),
        1 => format!(r#"{{"id":{i},"op":"delete_edges","edges":[[{},{}]]}}"#, i % 300, (i + 1) % 300),
        _ => format!(r#"{{"id":{i},"op":"delete_node","node":{}}}"#, (i * 13) % 300),
    };
    let r = call(conn, &line);
    assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "mutation {i} on {addr}: {r:?}");
    r.get("version").unwrap().as_u64().unwrap()
}

#[test]
fn replica_answers_bit_identically_and_rejects_writes() {
    let dir = TempDir::new("repl-reads");
    let graph = dir.graph(300, 3, 7);
    let mut primary = spawn_serve(
        &graph,
        &dir.join("primary"),
        &["--replication-listen", "127.0.0.1:0"],
        None,
    );
    let repl_addr = primary.repl_addr.clone().expect("primary prints replication addr");
    let mut replica = spawn_serve(
        &graph,
        &dir.join("replica"),
        &["--replicate-from", &repl_addr],
        None,
    );

    // History both before and after the replica connects.
    let mut conn = connect(&primary.addr);
    let mut version = 0;
    for i in 0..8 {
        version = mutate(&primary.addr, &mut conn, i);
    }
    assert_eq!(version, 8);
    wait_for_version(&replica.addr, version);

    // Bit-identical reads at the same version, across several sources.
    for (source, seed) in [(0u32, 42u64), (5, 7), (123, 99)] {
        assert_eq!(
            query_bits(&primary.addr, source, seed),
            query_bits(&replica.addr, source, seed),
            "replica diverged from primary at version {version} (source {source})"
        );
    }

    // Mutations bounce with the typed error naming the primary.
    let r = request(
        &replica.addr,
        r#"{"id":1,"op":"insert_edges","edges":[[1,2]]}"#,
    );
    assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(r.get("error").unwrap().as_str(), Some("read_only"));
    assert!(
        r.get("detail").unwrap().as_str().unwrap().contains(&repl_addr),
        "read_only detail must name the primary: {r:?}"
    );

    // The replica's stats expose its replication role and applied version.
    let s = request(&replica.addr, r#"{"op":"stats"}"#);
    let repl = s.get("replication").expect("replica stats expose replication");
    assert_eq!(repl.get("role").unwrap().as_str(), Some("replica"));
    assert_eq!(repl.get("applied_version").unwrap().as_u64(), Some(version));
    assert_eq!(repl.get("read_only").unwrap().as_bool(), Some(true));

    drop(conn);
    replica.kill();
    primary.kill();
}

#[test]
fn sigkill_primary_then_promote_loses_nothing_acknowledged() {
    let dir = TempDir::new("repl-promote");
    let graph = dir.graph(300, 3, 7);
    let mut primary = spawn_serve(
        &graph,
        &dir.join("primary"),
        &["--replication-listen", "127.0.0.1:0"],
        None,
    );
    let repl_addr = primary.repl_addr.clone().unwrap();
    let mut replica = spawn_serve(
        &graph,
        &dir.join("replica"),
        &["--replicate-from", &repl_addr],
        None,
    );

    let mut conn = connect(&primary.addr);
    let mut acked = 0;
    for i in 0..6 {
        acked = mutate(&primary.addr, &mut conn, i);
    }
    wait_for_version(&replica.addr, acked);
    let ground_truth = query_bits(&primary.addr, 3, 77);

    // SIGKILL the primary mid-flight: no flush, no graceful drain.
    primary.kill();
    drop(conn);

    // Promote via the CLI; it must report the full acknowledged version.
    let output = rwr()
        .args(["promote", "--addr", &replica.addr])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "promote failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains(&format!("at version {acked}")),
        "promotion reported the wrong version: {stdout}"
    );

    // Nothing acknowledged was lost: bit-identical to pre-kill truth.
    assert_eq!(version_of(&replica.addr), acked, "promotion lost history");
    assert_eq!(
        query_bits(&replica.addr, 3, 77),
        ground_truth,
        "promoted replica diverged from pre-kill ground truth"
    );

    // Writable now, version stays monotonic; a second promote is an error.
    let m = request(
        &replica.addr,
        r#"{"id":50,"op":"insert_edges","edges":[[10,20]]}"#,
    );
    assert_eq!(m.get("ok").unwrap().as_bool(), Some(true), "{m:?}");
    assert_eq!(m.get("version").unwrap().as_u64(), Some(acked + 1));
    let again = rwr()
        .args(["promote", "--addr", &replica.addr])
        .output()
        .unwrap();
    assert!(!again.status.success(), "double promote must fail");

    replica.kill();
}

/// Shared scenario for the replica-side crash points: SIGKILL the replica
/// at `crash_spec` (a durably-applied-but-unacknowledged state), restart it
/// on the same data dir, and require exact reconvergence.
fn replica_crash_and_reconverge(tag: &str, crash_spec: &str) {
    let dir = TempDir::new(&format!("repl-{tag}"));
    let graph = dir.graph(300, 3, 7);
    let mut primary = spawn_serve(
        &graph,
        &dir.join("primary"),
        &["--replication-listen", "127.0.0.1:0"],
        None,
    );
    let repl_addr = primary.repl_addr.clone().unwrap();
    let rdata = dir.join("replica");
    let mut replica = spawn_serve(&graph, &rdata, &["--replicate-from", &repl_addr], Some(crash_spec));

    // Drive mutations until the armed point parks the replica's apply
    // thread (its front end keeps serving; the marker tells us when).
    let point = crash_spec.split(':').next().unwrap();
    let mut conn = connect(&primary.addr);
    let marker = format!("CRASH_POINT {point}");
    let mut version = 0;
    wait_for(&marker, || {
        version = mutate(&primary.addr, &mut conn, version);
        replica.saw(&marker)
    });
    replica.kill();

    // More history lands while the replica is down.
    for _ in 0..3 {
        version = mutate(&primary.addr, &mut conn, version);
    }

    // Restart unarmed on the same data dir: re-handshake from the durable
    // version, catch up, and match the primary exactly.
    let mut replica = spawn_serve(&graph, &rdata, &["--replicate-from", &repl_addr], None);
    wait_for_version(&replica.addr, version);
    assert_eq!(version_of(&replica.addr), version, "over-applied history");
    assert_eq!(
        query_bits(&primary.addr, 3, 77),
        query_bits(&replica.addr, 3, 77),
        "restarted replica diverged after {crash_spec}"
    );

    drop(conn);
    replica.kill();
    primary.kill();
}

/// Crash after the record is durably applied but before the ack is sent:
/// the primary never heard, the replica must not double-apply.
#[test]
fn replica_sigkill_post_append_reconverges() {
    replica_crash_and_reconverge("post-append", "repl-post-append:2");
}

/// Crash inside the acknowledgement path itself.
#[test]
fn replica_sigkill_pre_ack_reconverges() {
    replica_crash_and_reconverge("pre-ack", "repl-pre-ack:2");
}

/// Tentpole acceptance: the promotion epoch reaches disk *before* the node
/// flips writable. SIGKILL the replica at the `promote-post-epoch` crash
/// point (parked right after the durable epoch write, before the promote
/// reply), restart it on the same data dir as a standalone primary, and
/// require that (a) the bumped epoch was recovered and (b) a fence probe
/// carrying the stale pre-failover epoch loses — the old primary can never
/// re-fence the new leader backwards, even across this worst-case crash.
#[test]
fn promotion_epoch_survives_sigkill_and_cannot_be_refenced_backwards() {
    let dir = TempDir::new("repl-epoch");
    let graph = dir.graph(300, 3, 7);
    let mut primary = spawn_serve(
        &graph,
        &dir.join("primary"),
        &["--replication-listen", "127.0.0.1:0"],
        None,
    );
    let repl_addr = primary.repl_addr.clone().unwrap();
    let rdata = dir.join("replica");
    let mut replica = spawn_serve(
        &graph,
        &rdata,
        &["--replicate-from", &repl_addr, "--replication-listen", "127.0.0.1:0"],
        Some("promote-post-epoch"),
    );

    let mut conn = connect(&primary.addr);
    let mut acked = 0;
    for i in 0..4 {
        acked = mutate(&primary.addr, &mut conn, i);
    }
    wait_for_version(&replica.addr, acked);
    primary.kill();
    drop(conn);

    // Promote in the background: the armed point parks the server between
    // the epoch write and the reply, so the CLI call never returns.
    let mut promote = rwr()
        .args(["promote", "--addr", &replica.addr])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    wait_for("CRASH_POINT promote-post-epoch", || {
        replica.saw("CRASH_POINT promote-post-epoch")
    });
    replica.kill();
    promote.kill().ok();
    promote.wait().ok();

    // The leadership claim is already on disk.
    assert_eq!(
        resacc::durability::epoch::read_epoch(&rdata).unwrap(),
        1,
        "the epoch bump must be durable before the crash point"
    );

    // Restart on the same data dir as a standalone primary: the bumped
    // epoch and the full acknowledged history both recover.
    let mut promoted = spawn_serve(
        &graph,
        &rdata,
        &["--replication-listen", "127.0.0.1:0"],
        None,
    );
    let new_repl = promoted.repl_addr.clone().unwrap();
    assert_eq!(version_of(&promoted.addr), acked, "promotion lost history");
    let s = request(&promoted.addr, r#"{"op":"stats"}"#);
    let repl = s.get("replication").unwrap();
    assert_eq!(
        repl.get("epoch").unwrap().as_u64(),
        Some(1),
        "recovered server must report the bumped epoch: {s:?}"
    );
    assert_eq!(repl.get("fenced").unwrap().as_bool(), Some(false));

    // A probe carrying the stale pre-failover epoch (0) loses against the
    // durable epoch 1, and leaves the recovered leader writable.
    let won = resacc::replication::fence_probe(&new_repl, 0, 0, "10.0.0.1:1").unwrap();
    assert!(!won, "a stale epoch-0 claim must lose against durable epoch 1");
    let m = request(
        &promoted.addr,
        r#"{"id":60,"op":"insert_edges","edges":[[11,22]]}"#,
    );
    assert_eq!(
        m.get("ok").unwrap().as_bool(),
        Some(true),
        "stale probes must not fence the recovered leader: {m:?}"
    );
    assert_eq!(m.get("version").unwrap().as_u64(), Some(acked + 1));

    promoted.kill();
}

/// Group commit + replication, the durability latch ordering: a batch
/// reaches the replication hub only **after** its shared fsync. Arm the
/// primary at `wal-group-pre-fsync` (torn batch bytes on disk, fsync
/// never runs, publication never runs), verify the replica never sees the
/// unacked batch, then SIGKILL the parked primary and promote — zero
/// acknowledged mutations lost, the not-yet-durable batch invisible
/// everywhere.
#[test]
fn group_commit_publishes_to_hub_only_after_durability() {
    let dir = TempDir::new("repl-gc-hub");
    let graph = dir.graph(300, 3, 7);
    let mut primary = spawn_serve(
        &graph,
        &dir.join("primary"),
        &[
            "--replication-listen",
            "127.0.0.1:0",
            "--group-commit-window",
            "0",
        ],
        Some("wal-group-pre-fsync:5"),
    );
    let repl_addr = primary.repl_addr.clone().unwrap();
    let mut replica = spawn_serve(
        &graph,
        &dir.join("replica"),
        &["--replicate-from", &repl_addr],
        None,
    );

    // Mutations 0..=3 commit normally; mutation 4's batch tears pre-fsync
    // and parks the leader, so its ack never arrives.
    let mut conn = connect(&primary.addr);
    let mut acked = 0u64;
    for i in 0..8u64 {
        let line = format!(
            r#"{{"id":{i},"op":"insert_edges","edges":[[{},{}]]}}"#,
            i % 300,
            (i * 7 + 1) % 300
        );
        let marker = "CRASH_POINT wal-group-pre-fsync";
        let Some(r) = primary.reply_or_marker(&mut conn, &line, marker) else {
            break;
        };
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        acked = r.get("version").unwrap().as_u64().unwrap();
    }
    assert_eq!(acked, 4, "exactly the pre-batch history must be acked");

    // The replica converges to the acked prefix and no further: the torn,
    // never-fsynced batch was never handed to the hub.
    wait_for_version(&replica.addr, acked);
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        version_of(&replica.addr),
        acked,
        "an unfsynced group-commit batch leaked to the replication hub"
    );

    // Promote over the corpse: zero acknowledged loss, bit-identical tail.
    primary.kill();
    drop(conn);
    let output = rwr()
        .args(["promote", "--addr", &replica.addr])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "promote failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(version_of(&replica.addr), acked, "promotion lost history");
    let m = request(
        &replica.addr,
        r#"{"id":50,"op":"insert_edges","edges":[[10,20]]}"#,
    );
    assert_eq!(m.get("ok").unwrap().as_bool(), Some(true), "{m:?}");
    assert_eq!(m.get("version").unwrap().as_u64(), Some(acked + 1));

    replica.kill();
}

/// Group commit under genuinely concurrent writers, then SIGKILL-promote:
/// every acknowledged mutation survives on the promoted replica, and the
/// promoted scores match the primary's pre-kill answers bit-for-bit.
#[test]
fn group_commit_concurrent_writers_promote_with_zero_acked_loss() {
    let dir = TempDir::new("repl-gc-promote");
    let graph = dir.graph(300, 3, 7);
    let mut primary = spawn_serve(
        &graph,
        &dir.join("primary"),
        &[
            "--replication-listen",
            "127.0.0.1:0",
            "--group-commit-window",
            "2",
        ],
        None,
    );
    let repl_addr = primary.repl_addr.clone().unwrap();
    let mut replica = spawn_serve(
        &graph,
        &dir.join("replica"),
        &["--replicate-from", &repl_addr],
        None,
    );

    // 4 writers x 6 mutations each, racing on their own connections so the
    // leader actually assembles multi-record batches. Distinct edges per
    // writer: every interleaving yields the same version count, and the
    // replica replays the primary's WAL order exactly.
    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            let addr = primary.addr.clone();
            std::thread::spawn(move || {
                let mut conn = connect(&addr);
                for i in 0..6u64 {
                    let line = format!(
                        r#"{{"id":{},"op":"insert_edges","edges":[[{},{}]]}}"#,
                        w * 100 + i,
                        (w * 60 + i) % 300,
                        (w * 60 + i + 31) % 300
                    );
                    let r = call(&mut conn, &line);
                    assert_eq!(
                        r.get("ok").unwrap().as_bool(),
                        Some(true),
                        "writer {w} mutation {i}: {r:?}"
                    );
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let acked = version_of(&primary.addr);
    assert_eq!(acked, 24, "every concurrent mutation must be acked");

    // The batching counter is live on the primary's stats surface.
    let s = request(&primary.addr, r#"{"op":"stats"}"#);
    let durability = s.get("durability").expect("durable primary exposes stats");
    let appends = durability.get("wal_appends").unwrap().as_u64().unwrap();
    let batches = durability.get("wal_batches").unwrap().as_u64().unwrap();
    assert_eq!(appends, 24);
    assert!(
        (1..=appends).contains(&batches),
        "batches {batches} out of range for {appends} appends"
    );

    wait_for_version(&replica.addr, acked);
    let ground_truth = query_bits(&primary.addr, 3, 77);

    primary.kill();
    let output = rwr()
        .args(["promote", "--addr", &replica.addr])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "promote failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(version_of(&replica.addr), acked, "promotion lost history");
    assert_eq!(
        query_bits(&replica.addr, 3, 77),
        ground_truth,
        "promoted replica diverged from pre-kill ground truth"
    );

    replica.kill();
}

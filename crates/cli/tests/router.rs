//! Multi-process router tests: spawn the compiled `rwr` binary as a
//! replicated cluster (primary + replicas) fronted by an `rwr router`
//! process, then exercise the resilience contract end to end over real
//! sockets and SIGKILLs:
//!
//! * reads and writes relay through the router; write acks carry versions
//!   and `min_version` reads honor read-your-writes;
//! * killing a replica mid-read-stream produces zero client-visible
//!   errors (the breaker ejects it, retries reroute);
//! * SIGKILLing the primary triggers the router's automated failover: a
//!   subsequent write succeeds against the promoted replica and no acked
//!   version regresses;
//! * the remote client commands (`rwr query --addr`, `rwr stats --addr`,
//!   `rwr promote --addr`) work against the router with `--timeout-ms`.

use resacc_service::json::Json;
use resacc_testsuite::process::{request, serve, Proc, TempDir};
use std::process::Command;

fn rwr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rwr"))
}

fn spawn_router(backends: &[String], extra: &[&str]) -> Proc {
    let mut cmd = rwr();
    cmd.args(["router", "--backends", &backends.join(",")])
        .args(["--listen", "127.0.0.1:0"])
        .args(extra);
    Proc::spawn(cmd)
}

#[test]
fn router_cluster_survives_replica_and_primary_death() {
    let dir = TempDir::new("router-cluster");
    let graph = dir.graph(300, 3, 7);
    let mut primary = serve(
        rwr(),
        &graph,
        &dir.join("p"),
        &["--replication-listen", "127.0.0.1:0"],
    );
    let repl = primary.repl_addr.clone().expect("primary lists repl addr");
    let mut replica1 = serve(rwr(), &graph, &dir.join("r1"), &["--replicate-from", &repl]);
    let mut replica2 = serve(rwr(), &graph, &dir.join("r2"), &["--replicate-from", &repl]);
    let backends = vec![
        primary.addr.clone(),
        replica1.addr.clone(),
        replica2.addr.clone(),
    ];
    let router = spawn_router(
        &backends,
        &[
            "--probe-interval-ms",
            "25",
            "--breaker-cooldown-ms",
            "100",
            "--retry-budget",
            "8",
            "--park-ms",
            "8000",
            "--timeout-ms",
            "4000",
        ],
    );

    // Writes through the router ack with monotonic versions; semi-sync
    // acks mean a replica has applied each before the client sees it.
    let mut acked = 0u64;
    for i in 0..5u64 {
        let response = request(
            &router.addr,
            &format!(r#"{{"id":{i},"op":"insert_edges","edges":[[{i},{}]]}}"#, i + 40),
        );
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "write {i}: {response:?}"
        );
        let v = response.get("version").and_then(Json::as_u64).unwrap();
        assert!(v > acked, "versions must be monotonic: {v} after {acked}");
        acked = v;
    }

    // Read-your-writes through the router: a min_version read at the
    // acked version succeeds and reports at least that version.
    let read = request(
        &router.addr,
        &format!(r#"{{"id":90,"op":"query","source":1,"seed":7,"k":5,"min_version":{acked}}}"#),
    );
    assert_eq!(read.get("ok").and_then(Json::as_bool), Some(true), "{read:?}");
    assert!(read.get("version").and_then(Json::as_u64).unwrap() >= acked);
    assert_ne!(read.get("stale").and_then(Json::as_bool), Some(true));

    // Remote client commands against the router, with timeouts.
    let out = rwr()
        .args(["stats", "--addr", &router.addr, "--timeout-ms", "5000"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"router\""), "router section in stats: {stdout}");
    let out = rwr()
        .args(["query", "--addr", &router.addr])
        .args(["--source", "1", "--seed", "7", "--timeout-ms", "5000"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        String::from_utf8(out.stdout).unwrap().contains("remote query"),
        "remote query banner"
    );

    // Kill one replica mid-read-stream: every read still succeeds (the
    // breaker ejects the dead backend, retries reroute within budget).
    replica1.kill();
    for i in 0..20u64 {
        let read = request(
            &router.addr,
            &format!(r#"{{"id":{},"op":"query","source":{},"seed":3,"k":5}}"#, 100 + i, i % 7),
        );
        assert_eq!(
            read.get("ok").and_then(Json::as_bool),
            Some(true),
            "read {i} after replica kill: {read:?}"
        );
    }

    // SIGKILL the primary: the router detects the dead primary via missed
    // probes and orchestrates promote on the most-caught-up replica. A
    // write parks until the failover lands, then succeeds — no acked
    // version is ever lost or regressed.
    primary.kill();
    let write = request(
        &router.addr,
        r#"{"id":200,"op":"insert_edges","edges":[[9,41]]}"#,
    );
    assert_eq!(
        write.get("ok").and_then(Json::as_bool),
        Some(true),
        "write across failover: {write:?}"
    );
    let after = write.get("version").and_then(Json::as_u64).unwrap();
    assert!(
        after > acked,
        "failover must not lose acked writes: {after} vs {acked}"
    );

    // The promoted topology serves min_version reads at the new version.
    let read = request(
        &router.addr,
        &format!(r#"{{"id":201,"op":"query","source":2,"seed":7,"k":5,"min_version":{after}}}"#),
    );
    assert_eq!(read.get("ok").and_then(Json::as_bool), Some(true), "{read:?}");
    assert!(read.get("version").and_then(Json::as_u64).unwrap() >= after);

    // `rwr promote --addr <router>` routes through the orchestrator and
    // reports the current leader (idempotent once promoted).
    let out = rwr()
        .args(["promote", "--addr", &router.addr, "--timeout-ms", "15000"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Shut the router down cleanly; backends die via Drop.
    let shutdown = request(&router.addr, r#"{"id":999,"op":"shutdown"}"#);
    assert_eq!(shutdown.get("ok").and_then(Json::as_bool), Some(true));
    drop(router);
    replica2.kill();
}

#[test]
fn loadgen_via_router_audits_read_your_writes() {
    let dir = TempDir::new("router-loadgen");
    let graph = dir.graph(300, 3, 7);
    let mut primary = serve(
        rwr(),
        &graph,
        &dir.join("p"),
        &["--replication-listen", "127.0.0.1:0"],
    );
    let repl = primary.repl_addr.clone().unwrap();
    let mut replica = serve(rwr(), &graph, &dir.join("r"), &["--replicate-from", &repl]);
    let router = spawn_router(
        &[primary.addr.clone(), replica.addr.clone()],
        &["--probe-interval-ms", "25"],
    );

    // `rwr loadgen --via-router` sends min_version after every acked
    // write and fails hard on any read-your-writes violation.
    let out = rwr()
        .args(["loadgen", "--addr", &router.addr])
        .args(["--requests", "60", "--connections", "2", "--sources", "8"])
        .args(["--write-mix", "0.2", "--via-router", "--timeout-ms", "20000"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "loadgen failed:\n{stdout}\n{stderr}");
    assert!(
        stdout.contains("min_version violations"),
        "router audit line present: {stdout}"
    );

    let shutdown = request(&router.addr, r#"{"id":9,"op":"shutdown"}"#);
    assert_eq!(shutdown.get("ok").and_then(Json::as_bool), Some(true));
    drop(router);
    replica.kill();
    primary.kill();
}

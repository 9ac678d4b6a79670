//! Multi-process sharding tests: two replicated primaries (each with its
//! own replica) behind one `rwr router --shard` front-end, three tenant
//! namespaces spread across them. Exercises the multi-tenant contract end
//! to end over real sockets and SIGKILLs:
//!
//! * namespace lifecycle and traffic route to the right shard, and
//!   `list_namespaces` / `stats` merge across shards;
//! * writes to one tenant never move another tenant's applied version or
//!   invalidate its cache — even for tenants sharing a process;
//! * SIGKILLing shard 1's primary fails over shard 1 only, while shard 2
//!   serves every request uninterrupted and no acked write is lost;
//! * after a full-cluster SIGKILL, restarting from the surviving data
//!   dirs restores every namespace bit-identically.

use resacc_service::json::Json;
use resacc_testsuite::process::{request, serve, wait_for, Proc, TempDir};
use std::process::Command;

fn rwr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rwr"))
}

fn ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

/// The tenant's applied version as one server reports it.
fn ns_version(addr: &str, ns: &str) -> u64 {
    let stats = request(addr, &format!(r#"{{"id":1,"op":"stats","namespace":"{ns}"}}"#));
    assert!(ok(&stats), "stats {ns}: {stats:?}");
    stats.get("version").and_then(Json::as_u64).unwrap()
}

/// A deterministic signature of one tenant's state: its applied version
/// plus the rendered top-k of a fixed seeded query. Bit-identical state
/// produces bit-identical signatures.
fn ns_signature(addr: &str, ns: &str) -> (u64, String) {
    let response = request(
        addr,
        &format!(r#"{{"id":2,"op":"query","namespace":"{ns}","source":0,"seed":7,"k":8}}"#),
    );
    assert!(ok(&response), "query {ns}: {response:?}");
    (
        response.get("version").and_then(Json::as_u64).unwrap(),
        response.get("top").expect("top present").render(),
    )
}

#[test]
fn sharded_cluster_isolates_tenants_and_survives_kills() {
    let dir = TempDir::new("shard-cluster");
    let graph = dir.graph(200, 3, 7);

    // Shard 1 (tenants t0, t1) and shard 2 (catch-all: t2 + default),
    // each a primary with one replica.
    let mut primary1 = serve(
        rwr(),
        &graph,
        &dir.join("p1"),
        &["--replication-listen", "127.0.0.1:0"],
    );
    let repl1 = primary1.repl_addr.clone().expect("p1 repl addr");
    let mut replica1 = serve(
        rwr(),
        &graph,
        &dir.join("r1"),
        &["--replicate-from", &repl1],
    );
    let mut primary2 = serve(
        rwr(),
        &graph,
        &dir.join("p2"),
        &["--replication-listen", "127.0.0.1:0"],
    );
    let repl2 = primary2.repl_addr.clone().expect("p2 repl addr");
    let mut replica2 = serve(
        rwr(),
        &graph,
        &dir.join("r2"),
        &["--replicate-from", &repl2],
    );

    let shard1 = format!("t0,t1={},{}", primary1.addr, replica1.addr);
    let shard2 = format!("*={},{}", primary2.addr, replica2.addr);
    let router = Proc::spawn({
        let mut cmd = rwr();
        cmd.args(["router", "--shard", &shard1, "--shard", &shard2])
            .args(["--listen", "127.0.0.1:0"])
            .args(["--probe-interval-ms", "25", "--breaker-cooldown-ms", "100"])
            .args(["--retry-budget", "8", "--park-ms", "8000"])
            .args(["--timeout-ms", "4000", "--sync-ack-timeout-ms", "5000"]);
        cmd
    });

    // Namespace lifecycle routes by shard map: t0/t1 land on shard 1,
    // t2 on the catch-all.
    for ns in ["t0", "t1", "t2"] {
        let created = request(
            &router.addr,
            &format!(r#"{{"id":3,"op":"create_namespace","namespace":"{ns}"}}"#),
        );
        assert!(ok(&created), "create {ns}: {created:?}");
    }
    for (addr, want) in [(&primary1.addr, "t0"), (&primary2.addr, "t2")] {
        let list = request(addr, r#"{"id":4,"op":"list_namespaces"}"#);
        assert!(
            list.render().contains(want),
            "{want} on the right primary: {list:?}"
        );
    }
    // ...and the router merges the full tenant set across shards.
    let list = request(&router.addr, r#"{"id":5,"op":"list_namespaces"}"#);
    let rendered = list.render();
    for ns in ["default", "t0", "t1", "t2"] {
        assert!(rendered.contains(ns), "merged list has {ns}: {rendered}");
    }

    // Seed each tenant with its own edges, through the router.
    for (ns, edges) in [
        ("t0", "[[0,1],[1,2],[2,0]]"),
        ("t1", "[[0,1],[1,0]]"),
        ("t2", "[[0,1],[1,2],[2,3],[3,0]]"),
    ] {
        let write = request(
            &router.addr,
            &format!(r#"{{"id":6,"op":"insert_edges","namespace":"{ns}","edges":{edges}}}"#),
        );
        assert!(ok(&write), "seed {ns}: {write:?}");
    }

    // Aggregate stats via the router names both shards.
    let stats = request(&router.addr, r#"{"id":7,"op":"stats"}"#);
    assert!(ok(&stats), "{stats:?}");
    let shards = stats.get("shards").expect("aggregate shards object");
    assert!(shards.get("t0,t1").is_some(), "shard 1 entry: {stats:?}");
    assert!(shards.get("*").is_some(), "shard 2 entry: {stats:?}");

    // Tenant isolation within one process: t2 and default both live on
    // shard 2's primary. Warm t2's cache, write to default, and t2's
    // version and cache must be untouched.
    let t2_version = ns_version(&primary2.addr, "t2");
    let warm = request(
        &primary2.addr,
        r#"{"id":8,"op":"query","namespace":"t2","source":0,"seed":7,"k":8}"#,
    );
    assert!(ok(&warm), "{warm:?}");
    let write = request(
        &router.addr,
        r#"{"id":9,"op":"insert_edges","edges":[[5,41]]}"#,
    );
    assert!(ok(&write), "default write via router: {write:?}");
    assert_eq!(
        ns_version(&primary2.addr, "t2"),
        t2_version,
        "a default-tenant write moved t2's applied version"
    );
    let hit = request(
        &primary2.addr,
        r#"{"id":10,"op":"query","namespace":"t2","source":0,"seed":7,"k":8}"#,
    );
    assert!(ok(&hit), "{hit:?}");
    assert_eq!(
        hit.get("cached").and_then(Json::as_bool),
        Some(true),
        "a default-tenant write invalidated t2's cache: {hit:?}"
    );
    // And across shards: the t0 seed write left t2 alone too (same check
    // from the router's view of shard state).
    let t0_write = request(
        &router.addr,
        r#"{"id":11,"op":"insert_edges","namespace":"t0","edges":[[3,4]]}"#,
    );
    assert!(ok(&t0_write), "{t0_write:?}");
    let acked_t0 = t0_write.get("version").and_then(Json::as_u64).unwrap();
    assert_eq!(ns_version(&primary2.addr, "t2"), t2_version);

    // Replica 1 mirrors shard 1's namespaces and catches up to the acked
    // version before we pull the trigger on its primary.
    wait_for("replica1 to mirror t0/t1", || {
        let list = request(&replica1.addr, r#"{"id":12,"op":"list_namespaces"}"#);
        let r = list.render();
        r.contains("t0") && r.contains("t1")
    });
    wait_for("replica1 to apply t0's acked writes", || {
        ns_version(&replica1.addr, "t0") >= acked_t0
    });

    // SIGKILL shard 1's primary. Shard 2 must serve uninterrupted while
    // shard 1 fails over...
    primary1.kill();
    for i in 0..10u64 {
        let read = request(
            &router.addr,
            &format!(r#"{{"id":{},"op":"query","namespace":"t2","source":0,"seed":3,"k":4}}"#, 20 + i),
        );
        assert!(ok(&read), "t2 read {i} during shard-1 failover: {read:?}");
    }
    // ...and a t0 write parks until the router promotes replica 1, then
    // succeeds without losing any acked write.
    let write = request(
        &router.addr,
        r#"{"id":30,"op":"insert_edges","namespace":"t0","edges":[[6,7]]}"#,
    );
    assert!(ok(&write), "t0 write across failover: {write:?}");
    let after = write.get("version").and_then(Json::as_u64).unwrap();
    assert!(
        after > acked_t0,
        "failover lost acked t0 writes: {after} vs {acked_t0}"
    );
    let read = request(
        &router.addr,
        &format!(r#"{{"id":31,"op":"query","namespace":"t0","source":0,"seed":7,"k":8,"min_version":{after}}}"#),
    );
    assert!(ok(&read), "t0 min_version read after failover: {read:?}");

    // Full-cluster SIGKILL: capture every tenant's signature from the
    // current leaders, kill everything, restart from the surviving data
    // dirs, and every namespace must come back bit-identically.
    let sig_t0 = ns_signature(&replica1.addr, "t0");
    let sig_t1 = ns_signature(&replica1.addr, "t1");
    let sig_t2 = ns_signature(&primary2.addr, "t2");
    let sig_default = ns_signature(&primary2.addr, "default");
    let shutdown = request(&router.addr, r#"{"id":40,"op":"shutdown"}"#);
    assert!(ok(&shutdown));
    drop(router);
    replica1.kill(); // shard 1's post-failover leader: its dir is authoritative
    primary2.kill();
    replica2.kill();

    let restarted1 = serve(rwr(), &graph, &dir.join("r1"), &[]);
    let restarted2 = serve(rwr(), &graph, &dir.join("p2"), &[]);
    let list = request(&restarted1.addr, r#"{"id":41,"op":"list_namespaces"}"#);
    assert_eq!(
        list.get("namespaces").expect("namespaces").render(),
        r#"["default","t0","t1"]"#,
        "restart must recover exactly the manifest's tenants"
    );
    assert_eq!(ns_signature(&restarted1.addr, "t0"), sig_t0, "t0 diverged");
    assert_eq!(ns_signature(&restarted1.addr, "t1"), sig_t1, "t1 diverged");
    assert_eq!(ns_signature(&restarted2.addr, "t2"), sig_t2, "t2 diverged");
    assert_eq!(
        ns_signature(&restarted2.addr, "default"),
        sig_default,
        "default diverged"
    );

    drop(restarted1);
    drop(restarted2);
}

#[test]
fn unmapped_namespace_is_a_typed_error_end_to_end() {
    let dir = TempDir::new("shard-unmapped");
    let graph = dir.graph(200, 3, 7);
    let backend = serve(rwr(), &graph, &dir.join("p"), &[]);
    let shard = format!("t0={}", backend.addr);
    let router = Proc::spawn({
        let mut cmd = rwr();
        cmd.args(["router", "--shard", &shard, "--listen", "127.0.0.1:0"]);
        cmd
    });
    let created = request(
        &router.addr,
        r#"{"id":1,"op":"create_namespace","namespace":"t0"}"#,
    );
    assert!(ok(&created), "{created:?}");
    // No catch-all shard: unmapped tenants (including default) are turned
    // away with the typed error, not a hang or a misroute.
    for line in [
        r#"{"id":2,"op":"query","namespace":"t9","source":0,"seed":1}"#,
        r#"{"id":3,"op":"insert_edges","edges":[[0,1]]}"#,
    ] {
        let response = request(&router.addr, line);
        assert_eq!(
            response.get("error").and_then(Json::as_str),
            Some("unknown_namespace"),
            "{response:?}"
        );
    }
    let shutdown = request(&router.addr, r#"{"id":9,"op":"shutdown"}"#);
    assert!(ok(&shutdown));
    drop(router);
    drop(backend);
}

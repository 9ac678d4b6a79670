//! End-to-end tests driving the compiled `rwr` binary over real files.

use resacc_service::json::Json;
use resacc_testsuite::process::{call, connect, request, Proc, TempDir};
use std::path::{Path, PathBuf};
use std::process::Command;

fn rwr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rwr"))
}

/// Writes the shared test graph into a directory of the caller's own:
/// tests run in parallel threads, so a shared path would let one test
/// read a graph another is still writing.
fn temp_graph(tag: &str) -> (TempDir, PathBuf) {
    let dir = TempDir::new(&format!("e2e-{tag}"));
    let graph = dir.graph(500, 4, 33);
    (dir, graph)
}

/// `rwr serve` on an ephemeral port with no durable store.
fn serve(graph: &Path, extra: &[&str]) -> Proc {
    let mut cmd = rwr();
    cmd.args(["serve", "--graph"])
        .arg(graph)
        .args(["--listen", "127.0.0.1:0"])
        .args(extra);
    Proc::spawn(cmd)
}

#[test]
fn query_prints_topk_with_source_first() {
    let (_dir, graph) = temp_graph("topk");
    let out = rwr()
        .args(["query", "--graph"])
        .arg(&graph)
        .args(["--source", "7", "--top", "3", "--seed", "5"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("ResAcc query from node 7"), "{stdout}");
    // Rank 1 is the source itself.
    let rank1 = stdout.lines().find(|l| l.trim_start().starts_with('1')).unwrap();
    assert!(rank1.split_whitespace().nth(1) == Some("7"), "{rank1}");
}

#[test]
fn query_is_deterministic_per_seed() {
    let (_dir, graph) = temp_graph("determinism");
    let run = |seed: &str| {
        let out = rwr()
            .args(["query", "--graph"])
            .arg(&graph)
            .args(["--source", "0", "--seed", seed])
            .output()
            .unwrap();
        // Strip the timing header line (wall clock varies).
        String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .skip(1)
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(run("9"), run("9"));
    assert_ne!(run("9"), run("10"));
}

#[test]
fn pair_and_stats_succeed() {
    let (_dir, graph) = temp_graph("pair-stats");
    let out = rwr()
        .args(["pair", "--graph"])
        .arg(&graph)
        .args(["--source", "0", "--target", "42"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("pi(0, 42)"));

    let out = rwr().args(["stats", "--graph"]).arg(&graph).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("n=500"), "{stdout}");
    assert!(stdout.contains("weak components"), "{stdout}");
}

#[test]
fn convert_then_query_binary() {
    let (_dir, graph) = temp_graph("convert");
    let racg = graph.with_extension("racg");
    let out = rwr()
        .args(["convert", "--graph"])
        .arg(&graph)
        .arg("--out")
        .arg(&racg)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = rwr()
        .args(["query", "--graph"])
        .arg(&racg)
        .args(["--source", "3", "--algo", "fora"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("FORA query from node 3"));
}

#[test]
fn serve_answers_queries_matching_a_direct_session() {
    let (_dir, graph_path) = temp_graph("serve");

    // The ground truth: the same graph, parameters, and seed, queried
    // directly in-process. The server must reproduce this bit-for-bit.
    let graph = resacc_graph::edgelist::load_edge_list(&graph_path, None, false).unwrap();
    let n = graph.num_nodes().max(2) as f64;
    let params = resacc::RwrParams::new(0.2, 0.5, 1.0 / n, 1.0 / n);
    let session = resacc::RwrSession::with_config(
        graph,
        params,
        resacc::resacc::ResAccConfig::default(),
    );
    let direct = session.query(7, 4242).scores;
    let direct_top = session.top_k(7, 5, 4242);

    let mut server = serve(&graph_path, &["--workers", "3"]);
    let mut conn = connect(&server.addr);
    let r = call(
        &mut conn,
        r#"{"id":1,"op":"query","source":7,"seed":4242,"k":5,"full":true}"#,
    );
    assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
    let scores: Vec<f64> = r
        .get("scores")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    assert_eq!(scores.len(), direct.len());
    for (served, local) in scores.iter().zip(direct.iter()) {
        assert_eq!(served.to_bits(), local.to_bits(), "served scores must be bit-identical");
    }
    let top: Vec<(u32, f64)> = r
        .get("top")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().unwrap();
            (pair[0].as_u64().unwrap() as u32, pair[1].as_f64().unwrap())
        })
        .collect();
    assert_eq!(top, direct_top, "top-k must match the direct session");

    // Same request again: served from cache, same bits.
    let again = call(
        &mut conn,
        r#"{"id":2,"op":"query","source":7,"seed":4242,"k":5}"#,
    );
    assert_eq!(again.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(again.get("top").unwrap().render(), r.get("top").unwrap().render());

    let bye = call(&mut conn, r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok").unwrap().as_bool(), Some(true));
    drop(conn);
    assert!(
        server.wait().success(),
        "server must exit cleanly on shutdown"
    );
}

#[test]
fn loadgen_reports_against_live_server() {
    let (_dir, graph_path) = temp_graph("loadgen");
    let server = serve(&graph_path, &[]);
    let addr = &server.addr;

    let out = rwr()
        .args([
            "loadgen",
            "--addr",
            addr,
            "--requests",
            "60",
            "--connections",
            "2",
            "--sources",
            "6",
            "--zipf",
            "1.2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("completed"), "{stdout}");
    assert!(stdout.contains("60"), "{stdout}");
    assert!(stdout.contains("hit rate"), "{stdout}");
}

#[test]
fn bad_usage_exits_nonzero_with_usage_text() {
    let out = rwr().args(["query"]).output().unwrap();
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let out = rwr()
        .args(["query", "--graph", "/no/such/file", "--source", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1));
}

/// The tentpole e2e property: `serve --threads N` replaying an id stream
/// over TCP is byte-identical to `--threads 1` and to a direct in-process
/// session — in a clean run and under an id-keyed `--chaos` fault plan
/// (where only the plan's target ids may deviate, with typed errors).
#[test]
fn serve_threads_replay_is_bitwise_identical_clean_and_under_chaos() {
    let (_dir, graph_path) = temp_graph("threads-replay");
    let spawn_serve =
        |extra: &[&str]| -> Proc { serve(&graph_path, &[&["--workers", "2"], extra].concat()) };

    // One fixed id stream, fresh (source, seed) per id so every request
    // computes (no cross-request cache hits hiding engine divergence).
    let ids: Vec<u64> = (1..=21).collect();
    let source_of = |id: u64| (id * 13) % 500;
    let seed_of = |id: u64| 1000 + id;

    // Replays the stream on one connection; per id, Ok(rendered scores) or
    // Err(typed error code).
    let replay = |addr: &str| -> Vec<(u64, Result<String, String>)> {
        let mut conn = connect(addr);
        ids.iter()
            .map(|&id| {
                let line = format!(
                    "{{\"id\":{id},\"op\":\"query\",\"source\":{},\"seed\":{},\"full\":true}}",
                    source_of(id),
                    seed_of(id)
                );
                let r = call(&mut conn, &line);
                assert_eq!(r.get("id").unwrap().as_u64(), Some(id));
                if r.get("ok").unwrap().as_bool() == Some(true) {
                    (id, Ok(r.get("scores").unwrap().render()))
                } else {
                    (id, Err(r.get("error").unwrap().as_str().unwrap().to_string()))
                }
            })
            .collect()
    };
    let shutdown = |mut server: Proc| {
        request(&server.addr, r#"{"op":"shutdown"}"#);
        assert!(server.wait().success());
    };

    // Clean runs at 1 and 4 threads per query.
    let server1 = spawn_serve(&["--threads", "1"]);
    let serial = replay(&server1.addr);
    shutdown(server1);
    let server4 = spawn_serve(&["--threads", "4"]);
    let parallel = replay(&server4.addr);
    shutdown(server4);
    assert_eq!(serial, parallel, "threads must never change served bytes");

    // Direct in-process session: the served scores must be bit-identical.
    let graph = resacc_graph::edgelist::load_edge_list(&graph_path, None, false).unwrap();
    let n = graph.num_nodes().max(2) as f64;
    let params = resacc::RwrParams::new(0.2, 0.5, 1.0 / n, 1.0 / n);
    let session = resacc::RwrSession::with_config(
        graph,
        params,
        resacc::resacc::ResAccConfig::default().with_threads(4),
    );
    for (id, outcome) in &serial {
        let rendered = outcome.as_ref().expect("clean run has no errors");
        let served: Vec<f64> = Json::parse(rendered)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        let direct = session.query(source_of(*id) as u32, seed_of(*id)).scores;
        assert_eq!(served.len(), direct.len());
        for (s, d) in served.iter().zip(&direct) {
            assert_eq!(s.to_bits(), d.to_bits(), "id {id}: served != direct");
        }
    }

    // Chaos run at 4 threads: the fault plan keys on request id (expiry
    // checked before panic), so exactly ids {7,14,21} time out, {10,20}
    // panic, and every other id must still serve the identical bytes.
    let chaos_server = spawn_serve(&[
        "--threads",
        "4",
        "--chaos",
        "panic=10,delay=16:2,expire=7,seed=42",
    ]);
    let chaotic = replay(&chaos_server.addr);
    shutdown(chaos_server);
    for ((id, clean), (cid, chaotic)) in serial.iter().zip(&chaotic) {
        assert_eq!(id, cid);
        match (id % 7 == 0, id % 10 == 0) {
            (true, _) => assert_eq!(
                chaotic.as_ref().unwrap_err(),
                "deadline_exceeded",
                "id {id} must be force-expired"
            ),
            (false, true) => assert_eq!(
                chaotic.as_ref().unwrap_err(),
                "internal_panic",
                "id {id} must hit the injected panic"
            ),
            _ => assert_eq!(chaotic, clean, "chaos changed non-faulted id {id}"),
        }
    }
}

/// A dropped [`Proc`] kills and reaps its child, so nothing is left
/// listening: a failed assertion cannot leak a running server.
#[test]
fn dropped_proc_frees_its_listen_address() {
    let (_dir, graph) = temp_graph("drop");
    let server = serve(&graph, &[]);
    let addr = server.addr.clone();
    assert!(std::net::TcpStream::connect(&addr).is_ok(), "server is up");
    drop(server);
    assert!(
        std::net::TcpStream::connect(&addr).is_err(),
        "{addr} still accepts connections after its Proc dropped"
    );
}

//! Robustness benchmark: emits machine-readable `BENCH_robustness.json`.
//!
//! Exercises the failure paths of `resacc-service` end-to-end — real TCP
//! server, real `loadgen` clients — on the synthetic `dblp` analogue:
//!
//! 1. **chaos sustain** — a seeded [`FaultPlan`] panics every 10th request
//!    id, delays every 16th, and force-expires every 7th. The run must
//!    complete with every non-faulted request answered OK, the `panics`
//!    metric exactly equal to the arithmetically-predicted injection
//!    count, and zero untyped (transport/protocol) errors.
//! 2. **overload shed** — 1 worker, a tiny admission queue, 8 closed-loop
//!    connections: the server must shed with typed `overloaded` responses
//!    and answer every request exactly once.
//! 3. **deadline pressure** — 1 worker, every query carrying a 1 ms
//!    deadline: queued and mid-flight work must abort with typed
//!    `deadline_exceeded` responses.
//! 4. **graceful drain** — timed [`ServerHandle::shutdown`]: stop
//!    accepting, answer everything in flight, join every connection
//!    handler.
//!
//! A determinism check then replays the chaos id stream with faults
//! disabled and requires bit-identical scores for every id the plan did
//! not target.
//!
//! Output follows the `customSmallerIsBetter` entry shape
//! (`{"name", "value", "unit"}`); rate and count entries are
//! informational, the drain latency is a genuine smaller-is-better metric.

use resacc::RwrSession;
use resacc_bench::datasets::{build, Scale};
use resacc_bench::emit::{Entry, env_u64, write_entries};
use resacc_service::json::Json;
use resacc_service::loadgen::{self, LoadgenConfig};
use resacc_service::scheduler::{ErrorKind, QueryRequest, Scheduler, SchedulerConfig};
use resacc_service::server::{spawn, ServerConfig, ServerHandle};
use resacc_service::FaultPlan;
use resacc_testsuite::process::request;
use std::sync::Arc;
use std::time::Instant;

/// Reads the server's `panics` counter over the wire (`stats` op).
fn fetch_panics(addr: std::net::SocketAddr) -> u64 {
    request(&addr.to_string(), r#"{"op":"stats"}"#)
        .get("stats")
        .and_then(|s| s.get("panics").and_then(Json::as_u64))
        .expect("panics field in stats")
}

fn start_server(
    session: Arc<RwrSession>,
    workers: usize,
    queue_cap: usize,
    faults: FaultPlan,
) -> ServerHandle {
    spawn(
        "127.0.0.1:0",
        session,
        ServerConfig {
            workers,
            cache_capacity: 0,
            batch_max: 32,
            default_k: 10,
            queue_cap,
            faults,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
}

fn drive(
    handle: &ServerHandle,
    requests: u64,
    connections: usize,
    deadline_ms: u64,
) -> loadgen::LoadgenReport {
    loadgen::run(&LoadgenConfig {
        addr: handle.addr().to_string(),
        requests,
        connections,
        zipf_s: 1.0,
        sources: 64,
        seed: 7,
        per_request_seeds: true,
        k: 10,
        deadline_ms,
        threads: 0,
        chaos: true,
        ..LoadgenConfig::default()
    })
    .expect("loadgen run")
}

/// Runs `ids` through a scheduler configured with `faults` (cache off, so
/// every request computes) and returns each outcome: `Ok(scores)` or the
/// typed error kind.
fn replay(
    session: &Arc<RwrSession>,
    faults: FaultPlan,
    ids: &[u64],
) -> Vec<Result<Vec<f64>, ErrorKind>> {
    let scheduler = Scheduler::new(
        session.clone(),
        SchedulerConfig {
            workers: 2,
            cache_capacity: 0,
            batch_max: 32,
            faults,
            ..SchedulerConfig::default()
        },
    );
    let tickets: Vec<_> = ids
        .iter()
        .map(|&id| {
            scheduler.submit(QueryRequest {
                id,
                source: (id % 911) as u32,
                seed: None,
                ..QueryRequest::default()
            })
        })
        .collect();
    tickets
        .into_iter()
        .map(|t| {
            t.wait()
                .map(|r| r.scores.as_ref().clone())
                .map_err(|e| e.kind)
        })
        .collect()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_robustness.json".into());
    let requests = env_u64("RESACC_BENCH_ROBUSTNESS_REQUESTS", 300);

    eprintln!("building dblp analogue…");
    let dataset = build("dblp", Scale::Small);
    let graph = dataset.graph;
    eprintln!(
        "dblp analogue: {} nodes / {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );
    let session = Arc::new(RwrSession::new(graph));
    let mut entries: Vec<Entry> = Vec::new();

    // Phase 1: chaos sustain. Faults are id-keyed, so the injection counts
    // are exactly predictable: expiry is checked before the panic fault,
    // so an id divisible by both 7 and 10 times out rather than panicking.
    let plan = FaultPlan {
        seed: 42,
        panic_every: 10,
        delay_every: 16,
        delay_ms: 5,
        expire_every: 7,
        ..Default::default()
    };
    let expected_expired = (0..requests).filter(|id| id % 7 == 0).count() as u64;
    let expected_panics = (0..requests)
        .filter(|id| id % 10 == 0 && id % 7 != 0)
        .count() as u64;
    eprintln!("phase 1: chaos sustain ({requests} requests under {plan})…");
    let server = start_server(session.clone(), 4, 0, plan);
    let chaos = drive(&server, requests, 4, 0);
    let server_panics = fetch_panics(server.addr());
    let drain_started = Instant::now();
    server.shutdown().expect("graceful drain after chaos");
    let drain_ms = drain_started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        chaos.completed + chaos.errors,
        requests,
        "every request must get exactly one response"
    );
    assert_eq!(chaos.panics, expected_panics, "panic responses are id-keyed");
    assert_eq!(server_panics, expected_panics, "panics metric matches injection");
    assert_eq!(chaos.timeouts, expected_expired, "forced expiry is id-keyed");
    let typed = chaos.shed + chaos.timeouts + chaos.panics;
    assert_eq!(chaos.errors, typed, "no untyped errors under chaos");
    let unfaulted = requests - expected_panics - expected_expired;
    let availability = chaos.completed as f64 / unfaulted.max(1) as f64;
    eprintln!(
        "  {:.1} q/s, {} panics contained, {} forced timeouts, availability {:.1}%, drain {:.1} ms",
        chaos.qps,
        chaos.panics,
        chaos.timeouts,
        availability * 100.0,
        drain_ms
    );

    // Phase 2: overload shed. One worker, queue cap 2, eight closed-loop
    // connections pushing as hard as they can.
    eprintln!("phase 2: overload shed (1 worker, queue cap 2, 8 connections)…");
    let server = start_server(session.clone(), 1, 2, FaultPlan::default());
    let overload = drive(&server, requests, 8, 0);
    server.shutdown().expect("shutdown overload server");
    assert_eq!(overload.completed + overload.errors, requests);
    assert_eq!(overload.errors, overload.shed + overload.timeouts);
    let shed_rate = overload.shed as f64 / requests as f64;
    eprintln!(
        "  shed {} of {requests} ({:.1}%)",
        overload.shed,
        shed_rate * 100.0
    );

    // Phase 3: deadline pressure. One worker and a 1 ms deadline on every
    // query: most requests expire in the queue, the rest abort in-engine.
    eprintln!("phase 3: deadline pressure (1 worker, 1 ms deadlines)…");
    let server = start_server(session.clone(), 1, 0, FaultPlan::default());
    let pressured = drive(&server, requests, 8, 1);
    server.shutdown().expect("shutdown deadline server");
    assert_eq!(pressured.completed + pressured.errors, requests);
    assert_eq!(pressured.errors, pressured.shed + pressured.timeouts);
    let timeout_rate = pressured.timeouts as f64 / requests as f64;
    eprintln!(
        "  {} of {requests} timed out ({:.1}%)",
        pressured.timeouts,
        timeout_rate * 100.0
    );

    // Determinism: replay the chaos id stream with faults off; every id
    // the plan did not target must be bit-identical.
    eprintln!("determinism check: chaos vs clean replay, non-faulted ids…");
    let ids: Vec<u64> = (0..64).collect();
    let chaotic = replay(&session, plan, &ids);
    let clean = replay(&session, FaultPlan::default(), &ids);
    for (&id, (chaotic, clean)) in ids.iter().zip(chaotic.iter().zip(&clean)) {
        if plan.should_expire(id) {
            assert_eq!(chaotic, &Err(ErrorKind::DeadlineExceeded), "id {id}");
        } else if plan.should_panic(id) {
            assert_eq!(chaotic, &Err(ErrorKind::InternalPanic), "id {id}");
        } else {
            assert_eq!(chaotic, clean, "chaos changed the result of id {id}");
        }
    }
    eprintln!("  ok: bit-identical outside the fault plan");

    entries.push(Entry { name: "robustness/drain latency (after chaos)".into(), value: drain_ms * 1e6, unit: "ns".into() });
    entries.push(Entry { name: "robustness/chaos throughput".into(), value: chaos.qps, unit: "qps".into() });
    entries.push(Entry { name: "robustness/injected panics contained".into(), value: chaos.panics as f64, unit: "count".into() });
    entries.push(Entry { name: "robustness/post-panic availability".into(), value: availability * 100.0, unit: "%".into() });
    entries.push(Entry { name: "robustness/shed rate (queue cap 2)".into(), value: shed_rate * 100.0, unit: "%".into() });
    entries.push(Entry { name: "robustness/timeout rate (1 ms deadline)".into(), value: timeout_rate * 100.0, unit: "%".into() });

    write_entries(&out_path, &entries);

    assert!(
        (availability - 1.0).abs() < 1e-9,
        "non-faulted requests must all succeed (got {:.3})",
        availability
    );
}

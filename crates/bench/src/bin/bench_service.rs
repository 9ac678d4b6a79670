//! Service-layer benchmark: emits machine-readable `BENCH_service.json`.
//!
//! Measures `resacc-service` end-to-end — real `rwr serve`-equivalent TCP
//! server, real `loadgen` clients — on the synthetic `dblp` analogue, in
//! three phases:
//!
//! 1. **baseline** — 1 connection, 1 worker, cache off, unique seed per
//!    request: the single-threaded query throughput with every request
//!    paying full engine cost.
//! 2. **service** — 8 workers, 8 connections, cache on, Zipfian sources
//!    with per-source seeds: the configuration the serving layer is built
//!    for. Hot sources hit the versioned cache / coalesce onto in-flight
//!    computations, which is what lets the service sustain a multiple of
//!    the baseline throughput even when cores are scarce; on multi-core
//!    hosts worker parallelism multiplies further.
//! 3. **cold scaling** — 8 workers, 8 connections, cache *off*: isolates
//!    pure worker parallelism (bounded by the machine's core count, so
//!    reported but not gated here).
//!
//! A determinism check then replays one request-id stream on a 1-worker and
//! an 8-worker scheduler and requires bit-identical score vectors.
//!
//! Output follows the `customSmallerIsBetter` entry shape
//! (`{"name", "value", "unit"}`) used by continuous-benchmark dashboards;
//! throughput and ratio entries carry non-time units and are informational.

use resacc::RwrSession;
use resacc_bench::datasets::{build, Scale};
use resacc_bench::emit::{Entry, env_u64, write_entries};
use resacc_service::loadgen::{self, LoadgenConfig};
use resacc_service::scheduler::{QueryRequest, Scheduler, SchedulerConfig};
use resacc_service::server::{spawn, ServerConfig, ServerHandle};
use std::sync::Arc;

fn start_server(session: Arc<RwrSession>, workers: usize, cache: usize) -> ServerHandle {
    spawn(
        "127.0.0.1:0",
        session,
        ServerConfig {
            workers,
            cache_capacity: cache,
            batch_max: 32,
            default_k: 10,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
}

fn drive(handle: &ServerHandle, requests: u64, connections: usize, per_request: bool) -> loadgen::LoadgenReport {
    loadgen::run(&LoadgenConfig {
        addr: handle.addr().to_string(),
        requests,
        connections,
        zipf_s: 1.0,
        sources: 64,
        seed: 7,
        per_request_seeds: per_request,
        k: 10,
        ..LoadgenConfig::default()
    })
    .expect("loadgen run")
}

/// Replays one request stream on `workers` workers, cache off, and returns
/// every score vector (in request order).
fn replay(session: &Arc<RwrSession>, workers: usize, ids: &[u64]) -> Vec<Vec<f64>> {
    let scheduler = Scheduler::new(
        session.clone(),
        SchedulerConfig {
            workers,
            cache_capacity: 0,
            batch_max: 32,
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
        .map(|t| t.wait().expect("replay query").scores.as_ref().clone())
        .collect()
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_service.json".into());
    let baseline_requests = env_u64("RESACC_BENCH_BASELINE_REQUESTS", 64);
    let service_requests = env_u64("RESACC_BENCH_SERVICE_REQUESTS", 512);

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

    // Phase 1: single-threaded, uncached baseline.
    eprintln!("phase 1: baseline (1 worker, 1 connection, cache off)…");
    let server = start_server(session.clone(), 1, 0);
    let base = drive(&server, baseline_requests, 1, true);
    server.shutdown().expect("shutdown baseline server");
    assert_eq!(base.errors, 0, "baseline run must be clean");
    eprintln!("  {:.1} q/s, p99 {:.2} ms", base.qps, base.p99_ms);

    // Phase 2: the full service configuration.
    eprintln!("phase 2: service (8 workers, 8 connections, Zipfian cache workload)…");
    let server = start_server(session.clone(), 8, 1024);
    let service = drive(&server, service_requests, 8, false);
    server.shutdown().expect("shutdown service server");
    assert_eq!(service.errors, 0, "service run must be clean");
    let scaling = service.qps / base.qps.max(1e-9);
    eprintln!(
        "  {:.1} q/s ({scaling:.1}× baseline), hit rate {:.1}%, p99 {:.2} ms",
        service.qps,
        service.server_hit_rate * 100.0,
        service.p99_ms
    );

    // Phase 3: worker parallelism alone (core-count bound).
    eprintln!("phase 3: cold scaling (8 workers, cache off)…");
    let server = start_server(session.clone(), 8, 0);
    let cold = drive(&server, baseline_requests, 8, true);
    server.shutdown().expect("shutdown cold server");
    let cold_scaling = cold.qps / base.qps.max(1e-9);
    eprintln!("  {:.1} q/s ({cold_scaling:.2}× baseline)", cold.qps);

    // Determinism: same ids, different worker counts, identical bits.
    eprintln!("determinism check: 1 worker vs 8 workers, same request ids…");
    let ids: Vec<u64> = (0..48).collect();
    let one = replay(&session, 1, &ids);
    let eight = replay(&session, 8, &ids);
    assert_eq!(
        one, eight,
        "determinism violated: worker count changed results"
    );
    eprintln!("  ok: bit-identical");

    let ms = 1e6; // report latencies in ns like the exemplar dashboards
    entries.push(Entry { name: "service/baseline p50 (1 worker, cold)".into(), value: base.p50_ms * ms, unit: "ns".into() });
    entries.push(Entry { name: "service/baseline p99 (1 worker, cold)".into(), value: base.p99_ms * ms, unit: "ns".into() });
    entries.push(Entry { name: "service/p50 (8 workers, zipf)".into(), value: service.p50_ms * ms, unit: "ns".into() });
    entries.push(Entry { name: "service/p95 (8 workers, zipf)".into(), value: service.p95_ms * ms, unit: "ns".into() });
    entries.push(Entry { name: "service/p99 (8 workers, zipf)".into(), value: service.p99_ms * ms, unit: "ns".into() });
    entries.push(Entry { name: "service/mean time per query (8 workers, zipf)".into(), value: service.elapsed_secs / service.completed.max(1) as f64 * 1e9, unit: "ns".into() });
    entries.push(Entry { name: "service/baseline throughput (1 worker)".into(), value: base.qps, unit: "qps".into() });
    entries.push(Entry { name: "service/throughput (8 workers, zipf)".into(), value: service.qps, unit: "qps".into() });
    entries.push(Entry { name: "service/throughput scaling vs single-threaded".into(), value: scaling, unit: "x".into() });
    entries.push(Entry { name: "service/cold throughput scaling (8 workers)".into(), value: cold_scaling, unit: "x".into() });
    entries.push(Entry { name: "service/cache hit rate (zipf)".into(), value: service.server_hit_rate * 100.0, unit: "%".into() });

    write_entries(&out_path, &entries);

    assert!(
        scaling >= 4.0,
        "service throughput must sustain ≥4× the single-threaded baseline (got {scaling:.2}×)"
    );
}

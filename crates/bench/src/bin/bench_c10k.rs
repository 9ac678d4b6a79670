//! Connection-scaling benchmark for the event-loop server: emits
//! `BENCH_c10k.json`.
//!
//! Opens ladders of idle connections (default 100 / 1 000 / 5 000)
//! against an in-process event-backend server and, at each rung,
//! measures:
//!
//! * the process thread count (`/proc/self/status` `Threads:`) — the
//!   reactor must stay at **O(workers)** threads no matter how many
//!   sockets are parked;
//! * the p99 latency of an active query stream on a fresh connection —
//!   idle sockets must cost state, not service time.
//!
//! Gates (hard asserts):
//! - every connection in the ladder is accepted and answers a ping;
//! - thread count at the top rung exceeds the bottom rung by at most
//!   `RESACC_BENCH_C10K_THREAD_SLACK` (default 4) — i.e. threads do not
//!   scale with connections;
//! - p99 at the top rung ≤ max(`RESACC_BENCH_C10K_P99_FACTOR` × p99 at
//!   the bottom rung, 50 ms floor) — no degradation from idle load.
//!
//! Env knobs for smoke runs: `RESACC_BENCH_C10K_CONNS`
//! (comma-separated ladder, default `100,1000,5000`),
//! `RESACC_BENCH_C10K_QUERIES` (default 200 per rung),
//! `RESACC_BENCH_C10K_NODES` (default 2000).
//!
//! Output follows the `customSmallerIsBetter` entry shape
//! (`{"name", "value", "unit"}`).

use resacc::resacc::ResAccConfig;
use resacc::{RwrParams, RwrSession};
use resacc_bench::emit::{Entry, env_u64, write_entries};
use resacc_service::{spawn, ServerConfig};
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// Current thread count of this process, from `/proc/self/status`.
/// Client sockets are plain `TcpStream`s held in a Vec, so every thread
/// beyond the harness baseline belongs to the server under test.
fn thread_count() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// One query round-trip; returns the observed latency in seconds.
fn timed_query(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    source: u32,
    seed: u64,
) -> f64 {
    let line = format!(r#"{{"id":1,"op":"query","source":{source},"seed":{seed}}}"#);
    let start = Instant::now();
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    assert!(
        response.contains("\"ok\":true"),
        "query failed under idle load: {response}"
    );
    start.elapsed().as_secs_f64()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_c10k.json".into());
    let ladder: Vec<usize> = std::env::var("RESACC_BENCH_C10K_CONNS")
        .unwrap_or_else(|_| "100,1000,5000".into())
        .split(',')
        .map(|s| s.trim().parse().expect("RESACC_BENCH_C10K_CONNS: numbers"))
        .collect();
    let queries = env_u64("RESACC_BENCH_C10K_QUERIES", 200);
    let nodes = env_u64("RESACC_BENCH_C10K_NODES", 2_000) as usize;
    let thread_slack = env_u64("RESACC_BENCH_C10K_THREAD_SLACK", 4);
    let p99_factor = env_u64("RESACC_BENCH_C10K_P99_FACTOR", 5) as f64;
    let top = *ladder.iter().max().expect("non-empty ladder");

    let graph = resacc_graph::gen::barabasi_albert(nodes, 3, 7);
    let session = Arc::new(RwrSession::with_config(
        graph,
        RwrParams::for_graph(nodes),
        ResAccConfig::default(),
    ));
    let workers = 2;
    let handle = spawn(
        "127.0.0.1:0",
        session,
        ServerConfig {
            workers,
            max_conns: top + 16,
            idle_timeout_ms: 0, // parked sockets must survive the whole run
            ..ServerConfig::default()
        },
    )
    .expect("server spawns");
    let addr = handle.addr();

    let mut entries = Vec::new();
    let mut idle: Vec<TcpStream> = Vec::with_capacity(top);
    let mut rung_stats: Vec<(usize, u64, f64)> = Vec::new(); // (conns, threads, p99)

    for &conns in &ladder {
        // Grow the parked-connection pool to this rung. Every socket must
        // be genuinely accepted (the reactor answers its ping), not just
        // sitting in the listen backlog.
        while idle.len() < conns {
            let mut s = TcpStream::connect(addr).expect("connect within ladder");
            if idle.len().is_multiple_of(500) {
                let mut r = BufReader::new(s.try_clone().unwrap());
                s.write_all(b"{\"op\":\"ping\"}\n").unwrap();
                let mut pong = String::new();
                r.read_line(&mut pong).unwrap();
                assert!(pong.contains("\"ok\":true"), "ping under load: {pong}");
            }
            idle.push(s);
        }
        // Confirm the newest socket is live at the full rung.
        {
            let s = idle.last_mut().unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            s.write_all(b"{\"op\":\"ping\"}\n").unwrap();
            let mut pong = String::new();
            r.read_line(&mut pong).unwrap();
            assert!(pong.contains("\"ok\":true"), "rung {conns}: {pong}");
        }

        let threads = thread_count();
        // Active stream on a fresh connection while `conns` sockets park.
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut lat: Vec<f64> = (0..queries)
            .map(|i| {
                timed_query(
                    &mut stream,
                    &mut reader,
                    (i % 64) as u32,
                    1 + i / 64, // revisit seeds: mixes cold and cached paths
                )
            })
            .collect();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p99 = percentile(&lat, 0.99);
        let p50 = percentile(&lat, 0.50);
        eprintln!(
            "{conns:>6} idle conns: {threads} threads, p50 {:.3} ms, p99 {:.3} ms",
            p50 * 1e3,
            p99 * 1e3
        );
        entries.push(Entry {
            name: format!("c10k/p99 query latency @ {conns} idle conns"),
            value: p99 * 1e9,
            unit: "ns".into(),
        });
        entries.push(Entry {
            name: format!("c10k/process threads @ {conns} idle conns"),
            value: threads as f64,
            unit: "count".into(),
        });
        rung_stats.push((conns, threads, p99));
    }

    // Gate: threads are O(workers), not O(connections).
    let (base_conns, base_threads, base_p99) = rung_stats[0];
    let &(top_conns, top_threads, top_p99) = rung_stats.last().unwrap();
    assert!(
        top_threads <= base_threads + thread_slack,
        "thread count scaled with connections: {base_threads} @ {base_conns} conns \
         vs {top_threads} @ {top_conns} conns (slack {thread_slack})"
    );
    // Gate: idle sockets do not degrade active service. The floor keeps a
    // sub-millisecond baseline from turning scheduler jitter into a fail.
    let p99_cap = (base_p99 * p99_factor).max(0.050);
    assert!(
        top_p99 <= p99_cap,
        "p99 degraded under idle load: {:.3} ms @ {base_conns} conns vs \
         {:.3} ms @ {top_conns} conns (cap {:.3} ms)",
        base_p99 * 1e3,
        top_p99 * 1e3,
        p99_cap * 1e3
    );
    entries.push(Entry {
        name: format!("c10k/thread growth {base_conns}→{top_conns} conns"),
        value: (top_threads - base_threads.min(top_threads)) as f64,
        unit: "count".into(),
    });

    drop(idle);
    handle.shutdown().expect("clean drain");

    write_entries(&out_path, &entries);
}
